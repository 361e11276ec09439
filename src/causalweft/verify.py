"""Property checkers and seeded generators.

Two executable facts about clocks pushed through diagrams: updates
never lose ground across a diagram (inflationarity), and timestamps
respect causal order between events (the clock condition). The clock
condition is checked as it is proved: once per step edge, since a
chain of edges joins every ordered pair and `leq` is transitive; the
wire table of `paths`, which counts the pairs and gives inflationarity
its pairs, is certified per step edge too. Only a failed edge has every
pair read off rows expanded from the wires, and one loop turns failing
pairs into violations with a trajectory witness each.

The generators build random well-typed diagrams and random acyclic
executions from a seed, types first, so no rejection sampling is
involved and equal seeds give byte-identical artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .clocks import (
    Action,
    Clock,
    Valuation,
    event_stamps,
    stamp_to_obj,
    zero_valuation,
)
from .diagram import (
    Atom,
    Config,
    Diagram,
    Fork,
    GlobalStep,
    Join,
    Leaf,
    Par,
    PermStep,
    Prod,
    SiteRef,
    StateType,
    Tensor,
    Tick,
    TickRef,
    cut_configs,
    n_sites,
    noop,
    perm_from_table,
    site_type,
    sites,
    step_output,
    ticks,
)
from .paths import (
    Event,
    PathWitness,
    Wires,
    causal_paths,
    cut_numbers,
    events,
    set_bits,
    step_relation,
    step_successors,
    wire_table,
)

# ---------------------------------------------------------------------------
# seeded diagram generation

DEFAULT_ATOMS: tuple[str, ...] = ("A", "B", "C")
DEFAULT_ACTIONS: tuple[Action, ...] = tuple(
    Action(p, q) for p in ("p1", "p2", "p3") for q in ("p1", "p2", "p3")
)


@dataclass(frozen=True)
class GenParams:
    """Knobs for the diagram generator. Weights pick among step kinds
    where the configuration allows them; zero disables a kind."""

    seed: int
    max_steps: int = 8
    max_sites: int = 6
    atoms: tuple[str, ...] = DEFAULT_ATOMS
    actions: tuple[Action, ...] = DEFAULT_ACTIONS
    tick_weight: float = 4.0
    fork_weight: float = 2.0
    join_weight: float = 2.0
    perm_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.max_sites < 1:
            raise ValueError("max_sites must be >= 1")
        if not self.atoms or not self.actions:
            raise ValueError("atom and action pools must be nonempty")
        weights = (
            self.tick_weight,
            self.fork_weight,
            self.join_weight,
            self.perm_weight,
        )
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if not any(weights):
            raise ValueError("at least one weight must be positive")


def _weighted(rng: random.Random, choices: list[tuple[str, float]]) -> str | None:
    total = sum(w for _, w in choices)
    if total <= 0:
        return None
    x = rng.random() * total
    for kind, w in choices:
        x -= w
        if x < 0:
            return kind
    return choices[-1][0]


def _random_type(rng: random.Random, p: GenParams) -> StateType:
    # pairs make forks possible downstream
    if rng.random() < 0.35:
        return Prod(Atom(rng.choice(p.atoms)), Atom(rng.choice(p.atoms)))
    return Atom(rng.choice(p.atoms))


def _random_tree(rng: random.Random, leaves: list[Config]) -> Config:
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return Tensor(_random_tree(rng, leaves[:k]), _random_tree(rng, leaves[k:]))


def _random_perm(rng: random.Random, cfg: Config) -> PermStep:
    src = sites(cfg)
    tys = [site_type(cfg, s) for s in src]
    n = len(src)
    pi = list(range(n))
    rng.shuffle(pi)
    slot: list[StateType | None] = [None] * n
    for i, j in enumerate(pi):
        slot[j] = tys[i]
    target = _random_tree(rng, [Leaf(t) for t in slot])  # type: ignore[arg-type]
    tgt = sites(target)
    table = {src[i]: tgt[pi[i]] for i in range(n)}
    return PermStep(perm_from_table(cfg, target, table))


def _random_step(
    rng: random.Random, p: GenParams, cfg: Config, budget: list[int]
) -> GlobalStep:
    match cfg:
        case Leaf(ty):
            choices = [("tick", p.tick_weight), ("noop", p.perm_weight)]
            if isinstance(ty, Prod) and budget[0] < p.max_sites:
                choices.append(("fork", p.fork_weight))
            kind = _weighted(rng, choices) or "noop"
            if kind == "tick":
                return Tick(ty, _random_type(rng, p))
            if kind == "fork":
                budget[0] += 1
                return Fork(ty.left, ty.right)
            return noop(cfg)
        case Tensor(left, right):
            choices = [
                ("par", p.tick_weight + p.fork_weight + 1.0),
                ("perm", p.perm_weight),
            ]
            if isinstance(left, Leaf) and isinstance(right, Leaf):
                choices.append(("join", p.join_weight))
            kind = _weighted(rng, choices) or "par"
            if kind == "join":
                budget[0] -= 1
                return Join(left.ty, right.ty)
            if kind == "perm":
                return _random_perm(rng, cfg)
            return Par(
                _random_step(rng, p, left, budget),
                _random_step(rng, p, right, budget),
            )
    raise TypeError(f"not a configuration: {cfg!r}")


def gen_diagram(p: GenParams) -> tuple[Diagram, dict[TickRef, Action]]:
    """A random valid labeled diagram, a pure function of the params."""
    rng = random.Random(p.seed)
    start = rng.randint(1, max(1, p.max_sites // 2))
    initial = _random_tree(
        rng, [Leaf(_random_type(rng, p)) for _ in range(start)]
    )
    steps = []
    cur = initial
    for _ in range(rng.randint(0, p.max_steps)):
        budget = [n_sites(cur)]
        step = _random_step(rng, p, cur, budget)
        steps.append(step)
        cur = step_output(step)
    d = Diagram(initial, tuple(steps))
    lab = {r: rng.choice(p.actions) for r in ticks(d)}
    return d, lab


def random_valuation(
    clock: Clock, config: Config, rng: random.Random
) -> dict[SiteRef, Any]:
    """Arbitrary starting timestamps, one sample per site."""
    return {s: clock.sample(rng) for s in sites(config)}


# ---------------------------------------------------------------------------
# violation reports

@dataclass(frozen=True)
class Violation:
    """One ordered event pair whose timestamps compare the wrong way,
    with the trajectory that orders them."""

    source: Event
    dest: Event
    source_stamp: Any
    dest_stamp: Any
    witness: PathWitness


@dataclass(frozen=True)
class ViolationReport:
    """One checker's verdict. It carries no hash of the document, so
    checking never serializes the diagram."""

    check: str
    checked_pairs: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _edges_hold(
    stamps: list[Any], successors: tuple[tuple[int, ...], ...], leq
) -> bool:
    """Does `leq` hold of every stamp against itself and across every
    step edge? `stamps` and `successors` are indexed by event number.
    One call per distinct stamp object and one per edge whose ends hold
    different objects. For a transitive `leq` this is the clock
    condition on every ordered event pair: a chain of edges joins each
    pair, and each edge is itself a pair. `stamps` keeps every stamp
    alive, so object ids are not reused while this runs."""
    seen = set()
    for v in stamps:
        if id(v) not in seen:
            seen.add(id(v))
            if not leq(v, v):
                return False
    for here, nexts in zip(stamps, successors):
        for j in nexts:
            there = stamps[j]
            if here is not there and not leq(here, there):
                return False
    return True


def _violations(
    d: Diagram, stamps: list[Any], leq, pairs: Iterable[tuple[int, int]]
) -> tuple[Violation, ...]:
    """One violation per ordered pair of event numbers whose stamps
    `leq` refuses, in the order given, with its first witness."""
    evs = events(d)
    out = []
    for i, j in pairs:
        if not leq(stamps[i], stamps[j]):
            witness = next(causal_paths(d, evs[i], evs[j]))
            out.append(Violation(evs[i], evs[j], stamps[i], stamps[j], witness))
    return tuple(out)


def check_clock_condition(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation | None = None,
) -> ViolationReport:
    """Does every causally ordered event pair carry non-decreasing
    timestamps? The stamps are first checked per step edge
    (`_edges_hold`); if that passes, no pair can fail and the pairs are
    only counted, by wires. Otherwise every pair is read off the rows
    expanded from the wires, not found by enumerating trajectories."""
    if valuation is None:
        valuation = zero_valuation(clock, d.initial)
    stamps = event_stamps(d, lab, clock, valuation)
    wires = wire_table(d)
    checked = wires.pair_count()
    if _edges_hold(stamps, step_successors(d), clock.leq):
        return ViolationReport("clock-condition", checked, ())
    pairs = ((i, j) for i, row in enumerate(wires.rows()) for j in set_bits(row))
    return ViolationReport("clock-condition", checked, _violations(d, stamps, clock.leq, pairs))


def check_update_inflationary(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation | None = None,
) -> ViolationReport:
    """Does pushing a valuation through the diagram only grow it, on
    every connected (initial site, final site) pair? The wire table
    gives the pairs, one bit test per (initial, final) event pair."""
    if valuation is None:
        valuation = zero_valuation(clock, d.initial)
    stamps = event_stamps(d, lab, clock, valuation)
    reaches, numbers = wire_table(d).reaches, cut_numbers(d)
    pairs = [(i, j) for i in numbers[0].values() for j in numbers[-1].values() if reaches(i, j)]
    violations = _violations(d, stamps, clock.leq, pairs)
    return ViolationReport("update-inflationary", len(pairs), violations)


def _event_obj(e: Event) -> dict:
    return {"cut": e.cut, "site": e.site}


def report_to_obj(report: ViolationReport, clock: Clock) -> dict:
    """Violation report as a JSON-ready object. It holds no document
    hash; `check-clock --json` adds the loaded document's."""
    return {
        "check": report.check,
        "clock": clock.name,
        "checked_pairs": report.checked_pairs,
        "violations": [
            {
                "source": _event_obj(v.source),
                "dest": _event_obj(v.dest),
                "source_stamp": stamp_to_obj(clock, v.source_stamp),
                "dest_stamp": stamp_to_obj(clock, v.dest_stamp),
                "witness": [_event_obj(e) for e in v.witness.events()],
            }
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# clock algebra laws

@dataclass(frozen=True)
class LawFailure:
    law: str
    detail: str


@dataclass(frozen=True)
class LawReport:
    clock: str
    samples: int
    failures: tuple[LawFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_FAILURE_CAP = 10  # per law; a lawless clock fails almost every sample


def check_clock_laws(
    clock: Clock,
    seed: int = 0,
    samples: int = 10_000,
    actions: tuple[Action, ...] = DEFAULT_ACTIONS,
) -> LawReport:
    """Sampled check of the clock algebra: leq is a preorder, increment
    and merge (in both argument orders) never lose ground. Transitivity
    is fed constructed chains so its premise is routinely inhabited."""
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = random.Random(seed)
    tally: dict[str, int] = {}
    failures: list[LawFailure] = []

    def fail(law: str, detail: str) -> None:
        tally[law] = tally.get(law, 0) + 1
        if tally[law] <= _FAILURE_CAP:
            failures.append(LawFailure(law, detail))

    for _ in range(samples):
        t1, t2, t3 = clock.sample(rng), clock.sample(rng), clock.sample(rng)
        a = rng.choice(actions)
        if not clock.leq(t1, t1):
            fail("leq-reflexive", f"t={t1!r}")
        bumped = clock.increment(a, t1)
        if not clock.leq(t1, bumped):
            fail("increment-inflationary", f"a={a!r} t={t1!r} inc={bumped!r}")
        for l, r in ((t1, t2), (t2, t1)):
            m = clock.merge(l, r)
            if not clock.leq(l, m):
                fail("merge-absorbs-left", f"l={l!r} r={r!r} merge={m!r}")
            if not clock.leq(r, m):
                fail("merge-absorbs-right", f"l={l!r} r={r!r} merge={m!r}")
        # constructed chain keeps the transitivity premise inhabited
        c2 = clock.merge(t1, t2)
        c3 = clock.merge(c2, t3)
        if clock.leq(t1, c2) and clock.leq(c2, c3) and not clock.leq(t1, c3):
            fail("leq-transitive", f"t1={t1!r} t2={c2!r} t3={c3!r}")
        if clock.leq(t1, t2) and clock.leq(t2, t3) and not clock.leq(t1, t3):
            fail("leq-transitive", f"t1={t1!r} t2={t2!r} t3={t3!r}")
    return LawReport(clock.name, samples, tuple(failures))


def law_report_to_obj(report: LawReport) -> dict:
    return {
        "clock": report.clock,
        "samples": report.samples,
        "failures": [{"law": f.law, "detail": f.detail} for f in report.failures],
    }


def broken_clock() -> Clock:
    """A deliberately lawless clock whose increment decreases its
    counter. Timestamps are plain dicts. For checker-sensitivity
    tests: any diagram with a tick followed by a causally later event
    must produce a violation. Its `leq` is a pointwise <= and so is
    transitive: the edge check fails on it and hands over to the pair
    loop."""

    def leq(a: dict, b: dict) -> bool:
        return all(a.get(k, 0) <= b.get(k, 0) for k in a.keys() | b.keys())

    def increment(action: Action, t: dict) -> dict:
        out = dict(t)
        out["*"] = out.get("*", 0) - 1
        return out

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, v in b.items():
            if v > out.get(k, 0):
                out[k] = v
        return out

    def sample(rng: random.Random) -> dict:
        v = rng.randint(-2, 4)
        return {"*": v} if v else {}

    return Clock("broken", "classifier", dict, leq, increment, merge, sample)


# ---------------------------------------------------------------------------
# brute-force oracles
#
# Independent of the wire table in `paths`: every event becomes a
# graph node, every step_relation pair an edge, and the order is the
# reflexive-transitive closure of that graph, by Warshall's algorithm.

def warshall(rows: list[int]) -> list[int]:
    """Close adjacency bit rows under transitivity, in place: afterwards
    bit j of rows[i] is set iff a chain of edges leads from i to j.
    Cubic; shared by the brute-force oracles here and in `lamport`, and
    kept apart from the fast kernel they check."""
    for m in range(len(rows)):
        bit = 1 << m
        row_m = rows[m]
        for i in range(len(rows)):
            if rows[i] & bit:
                rows[i] |= row_m
    return rows


def _event_closure(d: Diagram) -> tuple[list[Event], list[int]]:
    evs = [
        Event(t, s)
        for t, cfg in enumerate(cut_configs(d))
        for s in sites(cfg)
    ]
    index = {e: i for i, e in enumerate(evs)}
    rows = [1 << i for i in range(len(evs))]
    for k, step in enumerate(d.steps):
        for a, b in step_relation(step):
            rows[index[Event(k, a)]] |= 1 << index[Event(k + 1, b)]
    return evs, warshall(rows)


def oracle_event_order(d: Diagram) -> set[tuple[Event, Event]]:
    """All causally ordered event pairs, by naive transitive closure."""
    evs, rows = _event_closure(d)
    return {
        (evs[i], evs[j])
        for i, row in enumerate(rows)
        for j in range(len(evs))
        if row >> j & 1
    }


def oracle_reachability(d: Diagram) -> set[tuple[SiteRef, SiteRef]]:
    """All connected (initial site, final site) pairs: the pairs of
    `oracle_event_order` from cut 0 to the last cut."""
    n = d.n_steps
    return {(e1.site, e2.site) for e1, e2 in oracle_event_order(d) if e1.cut == 0 and e2.cut == n}


# ---------------------------------------------------------------------------
# order laws

@dataclass(frozen=True)
class OrderLawReport:
    events: int
    pairs: int
    reflexivity: tuple[Event, ...]
    antisymmetry: tuple[tuple[Event, Event], ...]
    transitivity: tuple[tuple[Event, Event, Event], ...]

    @property
    def ok(self) -> bool:
        return not (self.reflexivity or self.antisymmetry or self.transitivity)


def _wires_hold(wires: Wires, successors: tuple[tuple[int, ...], ...]) -> bool:
    """Is the wire table the order of the step edges? Each event is a
    copy (its one input is on its wire and has no other edge out) or
    heads a new wire, whose history is its own bit or-ed with its
    inputs' wire histories. By induction up the numbers, it is exact."""
    wire, history = wires.wire, wires.history
    into, heads = [0] * len(wire), set()  # per event: its inputs' histories, -1 for a copy
    for i, nexts in enumerate(successors):
        w, past = wire[i], into[i]
        if past >= 0:
            if history[w] != past | 1 << w or w in heads:
                return False
            heads.add(w)
        for j in nexts:
            if wire[j] == w:
                if len(nexts) > 1 or into[j]:
                    return False
                into[j] = -1
            elif into[j] < 0:
                return False
            else:
                into[j] |= history[w]
    return True


def check_order_laws(d: Diagram) -> OrderLawReport:
    """Verify that causal order is a partial order on the events of the
    diagram. Read as rows, a row must hold its own event (reflexivity),
    no other event it holds may hold it back (antisymmetry), and the row
    of every event it holds must be a subset of it (transitivity). The
    order of the step edges satisfies all three, so a wire table that
    `_wires_hold` certifies has only its pairs counted. Otherwise every
    pair of the expanded rows is visited in event order, so failure
    lists come out sorted."""
    wires = wire_table(d)
    if _wires_hold(wires, step_successors(d)):
        return OrderLawReport(len(wires.wire), wires.pair_count(), (), (), ())
    rows = wires.rows()
    evs = events(d)
    reflexivity = tuple(e for i, e in enumerate(evs) if not rows[i] >> i & 1)
    antisymmetry, transitivity = [], []
    for i, row in enumerate(rows):
        outside = ~row
        for j in set_bits(row):
            if j > i and rows[j] >> i & 1:
                antisymmetry.append((evs[i], evs[j]))
            for k in set_bits(rows[j] & outside):
                transitivity.append((evs[i], evs[j], evs[k]))
    pairs = sum(row.bit_count() for row in rows)
    return OrderLawReport(len(evs), pairs, reflexivity, tuple(antisymmetry), tuple(transitivity))


def order_report_to_obj(report: OrderLawReport) -> dict:
    return {
        "events": report.events,
        "pairs": report.pairs,
        "reflexivity": [_event_obj(e) for e in report.reflexivity],
        "antisymmetry": [
            [_event_obj(e1), _event_obj(e2)] for e1, e2 in report.antisymmetry
        ],
        "transitivity": [
            [_event_obj(e1), _event_obj(e2), _event_obj(e3)]
            for e1, e2, e3 in report.transitivity
        ],
    }
