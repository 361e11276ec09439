"""Causal reachability inside a diagram.

An event is a (cut, site) pair: a site at a moment. One event can
influence another exactly when some trajectory of sites connects them,
moving through one step at a time along the step's connectivity
relation. Trajectories double as checkable witnesses, and causal
order is their existence.

Every order query reads one wire table. Events are numbered by (cut,
site), their sort order. A wire is a maximal run of events joined by
copies (perm pairs, idle holds), headed by an initial event or an
output of a tick, fork or join; its history is the bitset of the wires
that reach its head, itself included. So event i reaches event j
exactly when i <= j and i's wire is in j's wire's history. One pass
over each step's atoms of a diagram `validate` accepts numbers the
events; the first order query then runs the causal-history clock
(Schwarz & Mattern 1994) through `sweep`, the loop that stamps clocks.
Both live on the diagram; rendering and timestamping skip the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from .diagram import (
    CompositionError,
    Diagram,
    Fork,
    GlobalStep,
    Join,
    PermStep,
    SiteRef,
    Tick,
    TickRef,
    site_types,
    step_atom_lists,
    step_atoms,
    tick_at,
    validate,
)

# ---------------------------------------------------------------------------
# events

@dataclass(frozen=True, order=True)
class Event:
    """A site at a cut."""

    cut: int
    site: SiteRef

    def __str__(self) -> str:
        return f"{self.cut}:{self.site if self.site else '.'}"


def check_cut(d: Diagram, cut: int) -> None:
    """Raise ValueError unless `cut` is an int, not a bool, in 0..n_steps."""
    if type(cut) is not int:
        raise ValueError(f"cut {cut!r} is not an int")
    if not 0 <= cut <= d.n_steps:
        raise ValueError(f"cut {cut} out of range 0..{d.n_steps}")


def check_event(d: Diagram, e: Event) -> int:
    """The number of `e` in `events(d)`; raises ValueError unless `e` is a site at its cut."""
    check_cut(d, e.cut)
    try:
        return _tables(d).numbers[e.cut][e.site]
    except KeyError:
        raise ValueError(f"{e.site!r} is not a site at cut {e.cut}") from None


def events(d: Diagram) -> tuple[Event, ...]:
    """Every event of a diagram, ordered by cut then site: event i is
    number i. One tuple per diagram, kept with its tables."""
    return _tables(d).events


# ---------------------------------------------------------------------------
# one-step connectivity

def step_relation(step: GlobalStep) -> set[tuple[SiteRef, SiteRef]]:
    """Which input sites of a step can influence which output sites.

    Ticks connect their site to itself, forks connect the input to
    both outputs, joins connect both inputs to the output, perms
    connect each site to its image, and Par keeps the two halves
    disjoint.
    """
    rel: set[tuple[SiteRef, SiteRef]] = set()
    for p, atom in step_atoms(step):
        match atom:
            case Tick():
                rel.add((p, p))
            case Fork():
                rel.update(((p, p + "L"), (p, p + "R")))
            case Join():
                rel.update(((p + "L", p), (p + "R", p)))
            case PermStep(perm):
                rel.update((p + a, p + b) for a, b in perm.pairs)
    return rel


@dataclass(frozen=True)
class Wires:
    """Causal order as wires: each event's wire, and per wire the bitset
    of the wires that reach its head, itself included."""

    wire: tuple[int, ...]
    history: tuple[int, ...]

    def reaches(self, i: int, j: int) -> bool:
        """Can event i influence event j?"""
        return i <= j and self.history[self.wire[j]] >> self.wire[i] & 1 == 1

    def pair_count(self) -> int:
        """Ordered event pairs: L(L+1)/2 on a wire of length L, plus K*L per
        other wire of length K in its history, summed by binary digit with
        the wire's own L (hence L*L taken off first)."""
        lengths = [0] * len(self.history)
        for w in self.wire:
            lengths[w] += 1
        total = (len(self.wire) - sum(map(mul, lengths, lengths))) // 2
        for b in range(max(lengths).bit_length()):
            digit = sum(1 << w for w, n in enumerate(lengths) if n >> b & 1)
            counts = map(int.bit_count, map(digit.__and__, self.history))
            total += sum(map(mul, lengths, counts)) << b
        return total

    def rows(self) -> list[int]:
        """One row per event, quadratic in the events: bit j of row i is set iff i reaches j."""
        members, ahead = [0] * len(self.history), [0] * len(self.history)
        for i, w in enumerate(self.wire):
            members[w] |= 1 << i
        for w, past in enumerate(self.history):
            for u in set_bits(past):
                ahead[u] |= members[w]
        return [ahead[w] >> i << i for i, w in enumerate(self.wire)]


@dataclass(frozen=True)
class _Tables:
    # per cut: site -> event number, in site order
    numbers: tuple[Mapping[SiteRef, int], ...]
    # per event number: the numbers of its one-step successors, ascending
    successors: tuple[tuple[int, ...], ...]
    # per tick, in tick order: its output event number -> (step, path)
    ticks: Mapping[int, tuple[int, str]]

    @cached_property
    def wires(self) -> Wires:
        """The causal-history clock through `sweep`: initial event k has bit k,
        and each tick, fork and join output ORs in the next bit, its wire."""
        history = [1 << k for k in range(len(self.numbers[0]))]

        def head(past: int) -> int:
            history.append(past | 1 << len(history))
            return history[-1]

        stamps = sweep(self.successors, self.ticks, list(history), lambda j, past: head(past),
                       lambda l, r: head(l | r), lambda past: (head(past), head(past)))
        return Wires(tuple([s.bit_length() - 1 for s in stamps]), tuple(history))

    @cached_property
    def events(self) -> tuple[Event, ...]:
        return tuple(Event(t, s) for t, here in enumerate(self.numbers) for s in here)


def sweep(
    successors: Sequence, ticks: Mapping, start: list, tick, merge, fork, end: int | None = None
) -> list:
    """Push values along the step edges from `start`, one per initial event,
    out of every event (before `end`, if given): a copy passes the object on,
    tick output j gets `tick(j, value)`, a fork's outputs the pair
    `fork(value)`, and a join `merge(left, right)`, left being the lower number."""
    unset = object()
    values = start + [unset] * (len(successors) - len(start))
    for i in range(len(successors) if end is None else end):
        nexts = successors[i]
        if len(nexts) == 2:  # a fork
            values[nexts[0]], values[nexts[1]] = fork(values[i])
        elif nexts:
            j = nexts[0]
            if values[j] is not unset:  # a join's second input
                values[j] = merge(values[j], values[i])
            elif j in ticks:
                values[j] = tick(j, values[i])
            else:  # a copy, or a join's first input
                values[j] = values[i]
    return values


_TABLES = "_paths_tables"

# A constant: the pairs of an idle hold, which leaves one site alone.
_HOLD = (("", ""),)


def _tables(d: Diagram) -> _Tables:
    """The derived tables of `d`, built on first use and kept in the
    instance's own __dict__, so they are freed with the diagram. A
    diagram `validate` faults is refused with ValueError, in the words
    of its first fault. The pass then numbers the events of each step's
    atoms (`step_atom_lists`: the lists a loaded document or a compiled
    execution keeps, else a walk) without checks of its own."""
    tables = d.__dict__.get(_TABLES)
    if tables is not None:
        return tables
    faults = validate(d)
    if faults:
        raise ValueError(str(faults[0]))
    here = {s: i for i, s in enumerate(site_types(d.initial))}
    numbers, successors, ticks, n = [here], [], {}, len(here)
    for k, atoms in enumerate(step_atom_lists(d)):
        # atoms come left to right with prefix-free paths, so the
        # output sites come, and are numbered, in site order
        base, nxt, out = n - len(here), {}, [None] * len(here)
        for p, atom in atoms:
            j = n + len(nxt)  # the number of the atom's first output
            # exact classes, most common first: this runs once per atom
            kind = type(atom)
            if kind is PermStep:
                pairs = atom.perm.pairs
                if pairs == _HOLD:  # an idle hold, taken as a tick is
                    out[here[p] - base], nxt[p] = (j,), j
                    continue
                # target sites are prefix-free, so sorted is site order
                for b in sorted([b for _, b in pairs]):
                    nxt[p + b] = n + len(nxt)
                for a, b in pairs:
                    out[here[p + a] - base] = (nxt[p + b],)
            elif kind is Tick:
                out[here[p] - base], nxt[p] = (j,), j
                ticks[j] = k, p
            elif kind is Fork:
                out[here[p] - base] = (j, j + 1)
                nxt[p + "L"], nxt[p + "R"] = j, j + 1
            else:  # a Join: `validate` refuses any other atom
                out[here[p + "L"] - base] = out[here[p + "R"] - base] = (j,)
                nxt[p] = j
        successors += out
        numbers.append(nxt)
        here, n = nxt, n + len(nxt)
    successors += [()] * len(here)
    return d.__dict__.setdefault(_TABLES, _Tables(tuple(numbers), tuple(successors), ticks))


def cut_numbers(d: Diagram) -> tuple[Mapping[SiteRef, int], ...]:
    """Per cut, its sites in site order, mapped to their event numbers."""
    return _tables(d).numbers


def tick_outputs(d: Diagram) -> Mapping[int, tuple[int, str]]:
    """Each tick's after-event number, mapped to its TickRef's fields."""
    return _tables(d).ticks


def wire_table(d: Diagram) -> Wires:
    """The causal order of `d` as wires, events numbered as `events(d)`."""
    return _tables(d).wires


def step_successors(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """The step edges of a diagram: for each event, numbered as
    `events(d)` lists them, the events one step later that it feeds
    directly. Every ordered pair of events is joined by a chain of
    these edges."""
    return _tables(d).successors


def set_bits(row: int) -> Iterator[int]:
    """The positions of the set bits of a bitset, ascending, read off
    its binary text in time linear in its width."""
    bits = bin(row)[:1:-1]  # bit i is character i
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class PathWitness:
    """A checkable trajectory: one site per cut from `start` onward.

    Two witnesses are equal exactly when their trajectories are equal;
    no finer identity is tracked.
    """

    start: int
    trajectory: tuple[SiteRef, ...]

    def __post_init__(self) -> None:
        if not self.trajectory:
            raise ValueError("a witness covers at least one cut")

    @property
    def end(self) -> int:
        return self.start + len(self.trajectory) - 1

    def events(self) -> tuple[Event, ...]:
        return tuple(
            Event(self.start + i, s) for i, s in enumerate(self.trajectory)
        )

    def __str__(self) -> str:
        return " -> ".join(str(e) for e in self.events())


def witness_valid(d: Diagram, w: PathWitness) -> bool:
    """Check a witness against a diagram: every hop must be allowed by
    the step between its cuts."""
    if not 0 <= w.start or w.end > d.n_steps:
        return False
    tables = _tables(d)
    try:
        hops = [tables.numbers[w.start + i][s] for i, s in enumerate(w.trajectory)]
    except KeyError:
        return False
    return all(j in tables.successors[i] for i, j in zip(hops, hops[1:]))


def compose_witness(a: PathWitness, b: PathWitness) -> PathWitness:
    """Concatenate two witnesses sharing their junction event.

    Concatenation of trajectories is strictly associative, so chains
    of compositions do not depend on bracketing.
    """
    if a.end != b.start or a.trajectory[-1] != b.trajectory[0]:
        raise CompositionError(
            f"witness ending at {Event(a.end, a.trajectory[-1])} cannot "
            f"meet one starting at {Event(b.start, b.trajectory[0])}"
        )
    return PathWitness(a.start, a.trajectory + b.trajectory[1:])


# ---------------------------------------------------------------------------
# spanning trajectories (whole-diagram queries)

def span_reachable(d: Diagram, s1: SiteRef, s2: SiteRef) -> bool:
    """Does some trajectory cross the whole diagram from initial site
    s1 to final site s2?"""
    return causally_ordered(d, Event(0, s1), Event(d.n_steps, s2))


def span_count(d: Diagram, s1: SiteRef, s2: SiteRef) -> int:
    """How many distinct trajectories cross from s1 to s2. Exact; the
    count can grow exponentially in the number of steps."""
    i, j = check_event(d, Event(0, s1)), check_event(d, Event(d.n_steps, s2))
    tables = _tables(d)
    start = [int(k == i) for k in range(len(tables.numbers[0]))]
    return sweep(tables.successors, tables.ticks, start, lambda _, c: c, add, lambda c: (c, c))[j]


def _enumerate(
    d: Diagram, t1: int, s1: SiteRef, t2: int, s2: SiteRef
) -> Iterator[PathWitness]:
    """All trajectories from (t1, s1) to (t2, s2), lexicographic by
    trajectory. Lazy; prunes branches that the wire table says cannot
    reach (t2, s2)."""
    tables = _tables(d)
    successors, reaches, evs = tables.successors, tables.wires.reaches, tables.events
    i, target = tables.numbers[t1][s1], tables.numbers[t2][s2]
    if not reaches(i, target):
        return

    # Depth-first with an explicit stack, so a long span is not bounded
    # by the recursion limit. prefix[k] is the event at cut t1 + k and
    # stack[k] iterates, in site order, over its successors not yet tried.
    prefix = [i]
    stack = [iter(successors[i])] if t1 < t2 else []
    if not stack:
        yield PathWitness(t1, (s1,))
    while stack:
        b = next((b for b in stack[-1] if reaches(b, target)), None)
        if b is None:
            stack.pop()
            prefix.pop()
        elif t1 + len(stack) == t2:
            yield PathWitness(t1, tuple(evs[k].site for k in (*prefix, b)))
        else:
            prefix.append(b)
            stack.append(iter(successors[b]))


def span_enumerate(d: Diagram, s1: SiteRef, s2: SiteRef) -> Iterator[PathWitness]:
    """Lazily enumerate every whole-diagram trajectory from s1 to s2,
    in lexicographic order (site order = left-to-right leaf order)."""
    return causal_paths(d, Event(0, s1), Event(d.n_steps, s2))


# ---------------------------------------------------------------------------
# causal order between events

def causally_ordered(d: Diagram, e1: Event, e2: Event) -> bool:
    """Can e1 influence e2? True iff e1.cut <= e2.cut and some
    trajectory connects them. Reflexive by construction; antisymmetric
    because trajectories never move backward in time."""
    return wire_table(d).reaches(check_event(d, e1), check_event(d, e2))


def causal_paths(d: Diagram, e1: Event, e2: Event) -> Iterator[PathWitness]:
    """All witnesses that e1 can influence e2, lazily, in lexicographic
    order. Empty when the events are unordered or in reverse order."""
    check_event(d, e1)
    check_event(d, e2)
    if e1.cut > e2.cut:
        return iter(())
    return _enumerate(d, e1.cut, e1.site, e2.cut, e2.site)


def event_order_pairs(d: Diagram) -> set[tuple[Event, Event]]:
    """The full causal order of a diagram as a set of event pairs.

    Agrees pointwise with `causally_ordered`; one pair per set bit of
    the rows expanded from the wire table (`Wires.rows`).
    """
    evs = events(d)
    return {
        (evs[i], evs[j])
        for i, row in enumerate(wire_table(d).rows())
        for j in set_bits(row)
    }


# ---------------------------------------------------------------------------
# ticks as events

def tick_events(d: Diagram, ref: TickRef) -> tuple[Event, Event]:
    """The two events a tick touches: its input site at the cut before
    it and its output site at the cut after it. Because a step's tree
    mirrors the configurations it acts on, both sites share the tick's
    tree path."""
    tick_at(d, ref)
    return Event(ref.step, ref.path), Event(ref.step + 1, ref.path)


def tick_numbers(d: Diagram, refs: Sequence[TickRef]) -> list[tuple[int, int]]:
    """For each tick, the event numbers of the two events `tick_events`
    names: its before-event and its after-event. A ref whose after-event
    the tables record as that tick's output is read off them; any other
    ref is checked by `tick_at`, in order, so a bad ref raises what
    `tick_events` raises. If the tables cannot be built, every ref is
    checked first, and then the tables' error is raised."""
    try:
        tables = _tables(d)
    except (ValueError, TypeError):
        for ref in refs:
            tick_at(d, ref)
        raise
    numbers, outputs, last = tables.numbers, tables.ticks, len(tables.numbers) - 1
    out = []
    for r in refs:
        k, p = r.step, r.path
        named = type(k) is int and type(p) is str and 0 <= k < last
        if not named or outputs.get(numbers[k + 1].get(p)) != (k, p):
            tick_at(d, r)
        out.append((numbers[k][p], numbers[k + 1][p]))
    return out


def action_order(d: Diagram, r1: TickRef, r2: TickRef) -> bool:
    """Did the tick at r1 complete before the tick at r2 could begin?

    True iff the after-event of r1 can influence the before-event of
    r2. Irreflexive: no tick precedes itself.
    """
    (_, after), (start, _) = tick_numbers(d, (r1, r2))
    return wire_table(d).reaches(after, start)
