"""From message-passing executions to diagrams and back.

An execution is the classic picture: per-process sequences of actions
plus send/receive pairs between processes. Happens-before is the
transitive closure of process order and message edges; executions
whose closure has a cycle are rejected.

`to_diagram` compiles an execution into a diagram, layer by layer. An
action's layer is one more than the deepest of its direct
predecessors, so every layer holds at most one action per process.
Between layers the configuration carries one site per process plus one
site per message in flight, held as a list of groups that each keep
their configuration and idle noop until a step acts on them. A layer
becomes at most four global steps:

    perm    route each message consumed this layer next to its
            receiver (receiver left, message right) and flush newly
            sent messages into the in-flight zone on the right
    join    fuse receiver and message sites
    tick    run every action of the layer
    fork    split each sender's site, leaving the message behind

so a send is tick-then-fork and a receive is join-then-tick. The
layout is tracked as it goes: a slot's site is read off its group's
place in the left-nested layout (group i of n sits at L^(n-1-i), then
R if i > 0) and its place inside the group, so no configuration is
built to look sites up; these part paths come from one table per
call. The perm is built only on layers whose group sequence changed,
from one slot map of the new layout, which each slot of the old one
is popped from in site order; an unchanged sequence is the identity
route. Each step is emitted as its (path, atom) list, the route perm
at "" and group i's atom at its part path, and the diagram
keeps these lists (`diagram._keep_atoms`), so the paths table and
`ticks` read them instead of walking the steps. Every step is built
from the layout it acts on, so the diagram also keeps an empty fault
list (`diagram._keep_faults`) and `validate` does not walk it. The
returned tick index maps each action id to its tick, which is enough
to read the happens-before relation back off the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from .clocks import Action, Pid
from .diagram import (
    Atom,
    AtomicStep,
    Config,
    Diagram,
    Fork,
    Join,
    Leaf,
    Perm,
    PermStep,
    Prod,
    SiteRef,
    StateType,
    Tick,
    TickRef,
    _keep_atoms,
    _keep_faults,
    noop,
    par,
    tensor,
)
from .paths import tick_numbers, wire_table
from .serialize import SchemaError, label_value_from_obj, label_value_to_obj, read_json
from .verify import warshall

ActionId = str


class CyclicExecutionError(ValueError):
    """Happens-before has a cycle; no schedule can realize this."""


@dataclass(frozen=True)
class Execution:
    """Per-process action sequences, message pairs, and action metadata.

    Action ids are globally unique. A message is a (send, receive) pair
    of action ids on two distinct processes, and every action plays at
    most one message role, so each action is a send, a receive, or
    internal.
    """

    processes: Mapping[Pid, tuple[ActionId, ...]]
    messages: frozenset[tuple[ActionId, ActionId]]
    actions: Mapping[ActionId, Action]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "processes",
            {p: tuple(acts) for p, acts in self.processes.items()},
        )
        object.__setattr__(self, "messages", frozenset(self.messages))
        object.__setattr__(self, "actions", dict(self.actions))

    def action_ids(self) -> tuple[ActionId, ...]:
        return tuple(a for acts in self.processes.values() for a in acts)


def validate_execution(x: Execution) -> list[str]:
    """Why the execution is malformed; empty when it is well-formed."""
    out = []
    owner: dict[ActionId, Pid] = {}
    for p, acts in sorted(x.processes.items()):
        for a in acts:
            if a in owner:
                out.append(f"action id {a!r} appears twice")
            owner[a] = p
    for a in sorted(set(x.actions) - set(owner)):
        out.append(f"metadata for unknown action {a!r}")
    for a in sorted(set(owner) - set(x.actions)):
        out.append(f"action {a!r} has no metadata")
    roles: dict[ActionId, int] = {}
    for s, r in sorted(x.messages):
        for end in (s, r):
            if end not in owner:
                out.append(f"message endpoint {end!r} is not an action")
            roles[end] = roles.get(end, 0) + 1
        if s in owner and r in owner and owner[s] == owner[r]:
            out.append(f"message {s!r} -> {r!r} stays on process {owner[s]!r}")
    for a, n in sorted(roles.items()):
        if n > 1:
            out.append(f"action {a!r} plays {n} message roles, at most one allowed")
    return out


def _require_valid(x: Execution) -> None:
    faults = validate_execution(x)
    if faults:
        raise ValueError("invalid execution: " + "; ".join(faults))


def hb_closure(x: Execution) -> frozenset[tuple[ActionId, ActionId]]:
    """Happens-before: the transitive closure of process order and
    message edges. Raises CyclicExecutionError when the closure is
    reflexive anywhere."""
    _require_valid(x)
    ids = sorted(x.action_ids())
    index = {a: i for i, a in enumerate(ids)}
    rows = [0] * len(ids)
    for acts in x.processes.values():
        for a, b in zip(acts, acts[1:]):
            rows[index[a]] |= 1 << index[b]
    for s, r in x.messages:
        rows[index[s]] |= 1 << index[r]
    warshall(rows)
    for i, a in enumerate(ids):
        if rows[i] >> i & 1:
            raise CyclicExecutionError(f"action {a!r} happens before itself")
    return frozenset(
        (ids[i], ids[j])
        for i, row in enumerate(rows)
        for j in range(len(ids))
        if row >> j & 1
    )


# ---------------------------------------------------------------------------
# compilation

# layout slots: ("proc", pid) or ("msg", (send, recv))
_Slot = tuple[str, Any]


class _Group(tuple[tuple[_Slot, StateType], ...]):
    """The (slot, type) parts of slots that steps take as one: a receiver
    and its message from the perm to the join, a sender and its message
    after the fork, else one slot. Its configuration, and the noop that
    holds it idle, are built once, on first use."""

    @cached_property
    def config(self) -> Config:
        return tensor([Leaf(ty) for _, ty in self])

    @cached_property
    def hold(self) -> PermStep:
        return noop(self.config)


class _PartPaths(dict[int, tuple[SiteRef, ...]]):
    """n -> the paths of the parts of a left-nested tensor of n parts:
    part i at L^(n-1-i), then R if i > 0. Each row is built on first
    use; one compile makes its own and frees it."""

    def __missing__(self, n: int) -> tuple[SiteRef, ...]:
        row = self[n] = tuple("L" * (n - 1 - i) + ("R" if i else "") for i in range(n))
        return row


def _route(old: list[_Group], new: list[_Group], parts: _PartPaths) -> Perm:
    """The perm moving each slot from its site in layout `old` to its site
    in `new`, which must hold the same slots, once each, of the same
    types. A slot's site is its group's place in the left-nested layout,
    then its own in the group. Each slot of `old`, in site order, is
    popped from one map of `new`'s, so the pairs come sorted."""
    at = {
        slot: (site + inner, ty)
        for site, g in zip(parts[len(new)], new)
        for inner, (slot, ty) in zip(parts[len(g)], g)
    }
    pairs, changed, n = [], None, len(at)
    for site, g in zip(parts[len(old)], old):
        for inner, (slot, ty) in zip(parts[len(g)], g):
            target, new_ty = at.pop(slot, (None, ty))
            # one object per message type: mostly `is`
            if changed is None and new_ty is not ty and new_ty != ty:
                changed = f"bad permutation: slot {slot!r}:{ty} changes type"
            pairs.append((site + inner, target))
    # every slot found once empties the map; n parts means no repeat in `new`
    if at or not len(pairs) == n == sum(map(len, new)):
        raise ValueError("bad permutation: the layouts do not hold the same slots once each")
    if changed:
        raise ValueError(changed)
    return Perm(tensor([g.config for g in old]), tensor([g.config for g in new]), tuple(pairs))


def _step(
    groups: list[_Group], acts: Mapping[int, tuple[AtomicStep, _Group]], at: tuple[SiteRef, ...]
) -> list[tuple[SiteRef, AtomicStep]]:
    """The atoms of a step, group i's at path at[i]: each acting group's
    atom beside the noop that holds every other group. An acting group
    becomes the group its atom outputs."""
    atoms = [(at[i], acts[i][0] if i in acts else g.hold) for i, g in enumerate(groups)]
    for i, (_, out) in acts.items():
        groups[i] = out
    return atoms


def _layers(x: Execution, pids: list[Pid]) -> dict[int, dict[int, ActionId]]:
    """Layer = 1 + deepest direct predecessor (previous action on the
    process, and the send for a receive). Each process advances until a
    receive whose send has no layer yet, and waits there until the send
    gets one, so every action is reached once or twice. Actions on a
    happens-before cycle, and those after one, get no layer. Each layer
    maps the index of an acting process in `pids` to its action."""
    send_of = {r: s for s, r in x.messages}
    layer: dict[ActionId, int] = {}
    out: dict[int, dict[int, ActionId]] = {}
    # per process: its actions, how many have a layer, the last one's,
    # its index; a waiting process is keyed by the send it waits for
    ready = [[x.processes[p], 0, 0, k] for k, p in enumerate(pids)]
    waiting: dict[ActionId, list] = {}
    while ready:
        entry = ready.pop()
        acts, i, lv, k = entry
        while i < len(acts):
            a = acts[i]
            s = send_of.get(a)
            if s is not None:
                if s not in layer:
                    waiting[s] = entry
                    break
                lv = max(lv, layer[s])
            lv = layer[a] = lv + 1
            out.setdefault(lv, {})[k] = a
            if a in waiting:
                ready.append(waiting.pop(a))
            i += 1
        entry[1:3] = i, lv
    return out


def to_diagram(
    x: Execution,
) -> tuple[Diagram, dict[TickRef, Action], dict[ActionId, TickRef]]:
    """Compile an execution into a labeled diagram plus the index of
    each action's tick. Rejects malformed and cyclic executions."""
    _require_valid(x)
    if not x.processes:
        raise ValueError("an execution needs at least one process to have sites")
    pids = sorted(x.processes)
    # one (slot, type) part per message, shared by its send and receive
    send_msg = {s: (("msg", (s, r)), Atom(f"{s}>{r}")) for s, r in x.messages}
    recv_msg = {r: send_msg[s] for s, r in x.messages}
    layers = _layers(x, pids)
    if sum(map(len, layers.values())) < len(x.actions):
        # only a cycle leaves actions without a layer; the closure names
        # an action on it
        hb_closure(x)

    # between layers every process slot holds its process's type, so
    # one group per process serves every layout
    home = [_Group([(("proc", p), Atom(str(p)))]) for p in pids]
    groups = list(home)
    parts = _PartPaths()
    # each step's (path, atom) list, in site order, as `step_atoms` lists it
    kept: list[list[tuple[SiteRef, AtomicStep]]] = []
    lab: dict[TickRef, Action] = {}
    tick_index: dict[ActionId, TickRef] = {}

    for lv in sorted(layers):
        acting = dict(sorted(layers[lv].items()))
        consumed = {recv_msg[a][0] for a in acting.values() if a in recv_msg}

        # perm: receivers get their message on the right; everything
        # else in flight moves to the trailing zone, in current order
        old = groups
        transit = []
        for g in groups:
            slot = g[-1][0]
            if slot[0] == "msg" and slot not in consumed:
                transit.append(g if len(g) == 1 else _Group(g[1:]))
        groups = home + transit
        joins = {}
        for i, a in acting.items():
            if a in recv_msg:
                proc, msg = home[i][0], recv_msg[a]
                groups[i] = _Group((proc, msg))
                fused = _Group([(proc[0], Prod(proc[1], msg[1]))])
                joins[i] = Join(proc[1], msg[1]), fused
        # an unchanged group sequence is the identity route
        if groups != old:
            route = _route(old, groups, parts)
            if not route.is_identity():
                kept.append([("", PermStep(route))])

        # join: fuse each (receiver, message) pair
        at = parts[len(groups)]
        if joins:
            kept.append(_step(groups, joins, at))

        # tick: every action of the layer; fork: each sender leaves its
        # message behind
        ticks, forks = {}, {}
        for i, a in acting.items():
            ((slot, in_ty),) = groups[i]
            out = home[i]
            if a in send_msg:
                proc, msg = home[i][0], send_msg[a]
                out = _Group([(slot, Prod(proc[1], msg[1]))])
                forks[i] = Fork(proc[1], msg[1]), _Group((proc, msg))
            ticks[i] = Tick(in_ty, out[0][1]), out
            tick_index[a] = TickRef(len(kept), at[i])
            lab[tick_index[a]] = x.actions[a]
        kept.append(_step(groups, ticks, at))
        if forks:
            kept.append(_step(groups, forks, at))

    initial = tensor([g.config for g in home])
    d = Diagram(initial, tuple(par([atom for _, atom in atoms]) for atoms in kept))
    # every step acts on the layout it was built from, and every route
    # was checked against the new layout's slot map: the diagram has no faults
    _keep_faults(d, [])
    _keep_atoms(d, kept)
    return d, lab, tick_index


def derived_order(
    d: Diagram, tick_index: Mapping[ActionId, TickRef]
) -> frozenset[tuple[ActionId, ActionId]]:
    """The order the diagram imposes on the indexed actions: a before b
    iff a's tick can influence b's tick (`action_order`).

    Each tick is resolved once, in sorted-id order, so the first bad ref
    in that order, even a lone one, raises what `tick_events` raises.
    An after-event heads its wire, so it reaches a start event exactly when
    its wire is in the start's wire history: one bit test per action pair."""
    ids = sorted(tick_index)
    numbers = tick_numbers(d, [tick_index[a] for a in ids])
    wires = wire_table(d)
    afters = [(a, wires.wire[after]) for a, (_, after) in zip(ids, numbers)]
    starts = [(b, wires.history[wires.wire[start]]) for b, (start, _) in zip(ids, numbers)]
    return frozenset((a, b) for a, w in afters for b, past in starts if past >> w & 1)


# ---------------------------------------------------------------------------
# execution JSON
#
#   {"processes": {pid: [action id, ...], ...},
#    "messages": [[send, recv], ...],
#    "actions": {action id: {"actor": pid, "target": pid?}, ...}}

def execution_to_obj(x: Execution) -> dict:
    return {
        "processes": {str(p): list(acts) for p, acts in sorted(x.processes.items())},
        "messages": sorted([s, r] for s, r in x.messages),
        "actions": {
            a: label_value_to_obj(act) for a, act in sorted(x.actions.items())
        },
    }


def execution_from_obj(obj: Any) -> Execution:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an execution object, got {obj!r}")
    for key in ("processes", "messages", "actions"):
        if key not in obj:
            raise SchemaError(f"execution object lacks {key!r}")
    procs = obj["processes"]
    if not isinstance(procs, dict):
        raise SchemaError(f"processes must be an object, got {procs!r}")
    processes = {}
    for p, acts in procs.items():
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise SchemaError(f"process {p!r} needs a list of action ids")
        processes[p] = tuple(acts)
    raw_msgs = obj["messages"]
    if not isinstance(raw_msgs, list):
        raise SchemaError(f"messages must be a list, got {raw_msgs!r}")
    messages = set()
    for m in raw_msgs:
        if not (
            isinstance(m, list) and len(m) == 2 and all(isinstance(a, str) for a in m)
        ):
            raise SchemaError(
                f"message must be a [send, recv] pair of action ids, got {m!r}"
            )
        messages.add((m[0], m[1]))
    raw_actions = obj["actions"]
    if not isinstance(raw_actions, dict):
        raise SchemaError(f"actions must be an object, got {raw_actions!r}")
    actions = {}
    for a, meta in raw_actions.items():
        value = label_value_from_obj(meta)
        if not isinstance(value, Action):
            raise SchemaError(f"action {a!r} needs an actor, got {meta!r}")
        actions[a] = value
    return Execution(processes, frozenset(messages), actions)


def execution_from_json(text: str) -> Execution:
    return read_json(text, execution_from_obj)


# ---------------------------------------------------------------------------
# seeded executions

def gen_execution(
    seed: int,
    max_processes: int = 4,
    max_actions: int = 12,
    message_rate: float = 0.5,
) -> Execution:
    """A random acyclic execution: actions are laid out on a global
    schedule and messages only point forward along it, so
    happens-before embeds in the schedule. Sends target the receiving
    process, receives name the sender, internal actions target their
    own process, so every clock flavor can label the result."""
    import random

    rng = random.Random(seed)
    pids = tuple(f"p{i + 1}" for i in range(rng.randint(1, max_processes)))
    ids = [f"a{i + 1}" for i in range(rng.randint(0, max_actions))]
    owner = {a: rng.choice(pids) for a in ids}
    processes = {p: tuple(a for a in ids if owner[a] == p) for p in pids}
    free = set(ids)
    messages = set()
    for i, a in enumerate(ids):
        if a not in free or rng.random() >= message_rate:
            continue
        later = [b for b in ids[i + 1 :] if b in free and owner[b] != owner[a]]
        if later:
            b = rng.choice(later)
            messages.add((a, b))
            free.discard(a)
            free.discard(b)
    sends = {s: r for s, r in messages}
    recvs = {r: s for s, r in messages}
    actions = {}
    for a in ids:
        if a in sends:
            target = owner[sends[a]]
        elif a in recvs:
            target = owner[recvs[a]]
        else:
            target = owner[a]
        actions[a] = Action(owner[a], target)
    return Execution(processes, frozenset(messages), actions)
