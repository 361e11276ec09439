"""Logical clocks over diagrams.

A clock is an algebra of timestamps: a preorder `leq`, a family of
`increment` operations indexed by actions, and a binary `merge`. Any
such algebra can be pushed through a diagram: ticks increment, forks
copy, joins merge, perms shuffle. That is `paths.sweep` up the event
numbers along the step edges, the loop that also builds the wire table;
per-event clock reads and the final valuation are read off its stamps.

Two families are built in. Classifier clocks count how many times each
class of action has been seen, for a pluggable notion of class (all
actions, the actor, or actor-target pairs). The matrix clock keeps an
actor-by-actor table of counts together with the identity of the last
actor to touch the timestamp; its merge is deliberately asymmetric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .diagram import Diagram, SiteRef, TickRef, _setfield, site_types, sites
from .paths import Event, check_cut, check_event, cut_numbers, events, step_successors
from .paths import sweep, tick_outputs

Pid = str | int


@dataclass(frozen=True)
class Action:
    """What a tick did: who acted, and (optionally) at whom."""

    actor: Pid
    target: Pid | None = None

    # as for the terms of `diagram`, which explains `_setfield`
    def __init__(self, actor: Pid, target: Pid | None = None) -> None:
        _setfield(self, "actor", actor)
        _setfield(self, "target", target)


@dataclass(frozen=True)
class Clock:
    """A logical clock packaged as first-class operations.

    `leq` only has to be a preorder: reflexive and transitive.
    `zero` builds the timestamp sites start from, and `sample` draws
    arbitrary timestamps for law testing.

    `verify.check_clock_condition` leans on transitivity: it tests
    `leq` on each stamp and on each step edge, and a chain of edges
    joins every ordered event pair. A clock whose `leq` is not
    transitive can pass every edge and still fail a pair; run
    `verify.check_clock_laws` on a new clock before trusting it.
    """

    name: str
    kind: str  # "classifier" or "matrix"; drives timestamp JSON shape
    zero: Callable[[], Any]
    leq: Callable[[Any, Any], bool]
    increment: Callable[[Action, Any], Any]
    merge: Callable[[Any, Any], Any]
    sample: Callable[[random.Random], Any]


# ---------------------------------------------------------------------------
# classifier clocks

@dataclass(frozen=True)
class ClassifierStamp:
    """A finitely-supported count per action class; absent means zero.

    Zero entries are dropped on construction, so equal functions are
    equal values.
    """

    counts: Mapping[Any, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for cls, v in self.counts.items():
            if v < 0:
                raise ValueError(f"negative count for class {cls!r}")
            if v:
                clean[cls] = v
        object.__setattr__(self, "counts", clean)

    def get(self, cls: Any) -> int:
        return self.counts.get(cls, 0)

    def __str__(self) -> str:
        inner = ", ".join(f"{c}:{v}" for c, v in sorted(self.counts.items(), key=repr))
        return "{" + inner + "}"


def _stamp_leq(a: ClassifierStamp, b: ClassifierStamp) -> bool:
    return all(v <= b.get(c) for c, v in a.counts.items())


def _stamp_merge(a: ClassifierStamp, b: ClassifierStamp) -> ClassifierStamp:
    counts = dict(a.counts)
    for c, v in b.counts.items():
        if v > counts.get(c, 0):
            counts[c] = v
    return ClassifierStamp(counts)


def _stamp_bump(a: ClassifierStamp, cls: Any) -> ClassifierStamp:
    counts = dict(a.counts)
    counts[cls] = counts.get(cls, 0) + 1
    return ClassifierStamp(counts)


def classifier_clock(
    classify: Callable[[Action], Any],
    name: str = "classifier",
    sample_classes: tuple[Any, ...] = ("*",),
) -> Clock:
    """A clock counting actions per class. `classify` maps an action
    to the class it bumps; `sample_classes` feeds the law sampler."""

    def sample(rng: random.Random) -> ClassifierStamp:
        return ClassifierStamp({c: rng.randint(0, 4) for c in sample_classes})

    return Clock(
        name=name,
        kind="classifier",
        zero=ClassifierStamp,
        leq=_stamp_leq,
        increment=lambda a, t: _stamp_bump(t, classify(a)),
        merge=_stamp_merge,
        sample=sample,
    )


_PIDS: tuple[Pid, ...] = ("p1", "p2", "p3")


def scalar_clock() -> Clock:
    """One counter shared by all actions (the height of an event's
    causal past)."""
    return classifier_clock(lambda a: "*", name="scalar")


def vector_clock(pids: tuple[Pid, ...] = _PIDS) -> Clock:
    """One counter per actor."""
    return classifier_clock(lambda a: a.actor, name="vector", sample_classes=pids)


def _rst_class(a: Action) -> tuple[Pid, Pid]:
    if a.target is None:
        raise ValueError(f"rst clock needs a target on every action, got {a}")
    return (a.actor, a.target)


def rst_clock(pids: tuple[Pid, ...] = _PIDS) -> Clock:
    """One counter per (actor, target) pair."""
    pairs = tuple((p, q) for p in pids for q in pids)
    return classifier_clock(_rst_class, name="rst", sample_classes=pairs)


# ---------------------------------------------------------------------------
# the matrix clock
#
# Timestamps pair an owner (the last actor to touch the value, if any)
# with an actor-by-actor matrix of counts. The preorder compares
# matrices pointwise and ignores the owner. Merge is asymmetric: the
# left side is the one that keeps flowing (the receiver), and its
# owner's row additionally absorbs the right owner's row, so the two
# argument orders generally give different matrices.

@dataclass(frozen=True)
class MatrixStamp:
    """Sparse actor-by-actor counts plus the owning actor; absent
    cells mean zero."""

    owner: Pid | None = None
    cells: Mapping[tuple[Pid, Pid], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for cell, v in self.cells.items():
            if v < 0:
                raise ValueError(f"negative count at {cell!r}")
            if v:
                clean[cell] = v
        object.__setattr__(self, "cells", clean)

    def get(self, p: Pid, q: Pid) -> int:
        return self.cells.get((p, q), 0)

    def row(self, p: Pid) -> dict[Pid, int]:
        return {q: v for (r, q), v in self.cells.items() if r == p}


def _wb_leq(a: MatrixStamp, b: MatrixStamp) -> bool:
    return all(v <= b.cells.get(cell, 0) for cell, v in a.cells.items())


def _wb_increment(a: Action, t: MatrixStamp) -> MatrixStamp:
    cells = dict(t.cells)
    cell = (a.actor, a.actor)
    cells[cell] = cells.get(cell, 0) + 1
    return MatrixStamp(a.actor, cells)


def _wb_merge(l: MatrixStamp, r: MatrixStamp) -> MatrixStamp:
    cells = dict(l.cells)
    for cell, v in r.cells.items():
        if v > cells.get(cell, 0):
            cells[cell] = v
    # the continuing side's row absorbs what the other owner knew
    # about itself; with no owners there is nothing to absorb
    if l.owner is not None and r.owner is not None:
        for q, v in r.row(r.owner).items():
            cell = (l.owner, q)
            if v > cells.get(cell, 0):
                cells[cell] = v
    return MatrixStamp(l.owner, cells)


def wb_clock(pids: tuple[Pid, ...] = _PIDS) -> Clock:
    """The owner-plus-matrix clock with asymmetric merge."""

    def sample(rng: random.Random) -> MatrixStamp:
        owner = None if rng.random() < 0.15 else rng.choice(pids)
        cells = {}
        for p in pids:
            for q in pids:
                v = rng.randint(0, 3)
                if v:
                    cells[(p, q)] = v
        return MatrixStamp(owner, cells)

    return Clock(
        name="wb",
        kind="matrix",
        zero=MatrixStamp,
        leq=_wb_leq,
        increment=_wb_increment,
        merge=_wb_merge,
        sample=sample,
    )


_CLOCKS: dict[str, Callable[[], Clock]] = {
    "scalar": scalar_clock,
    "vector": vector_clock,
    "rst": rst_clock,
    "wb": wb_clock,
}

CLOCK_NAMES = tuple(sorted(_CLOCKS))


def by_name(name: str) -> Clock:
    """Look up a built-in clock: scalar, vector, rst, or wb."""
    try:
        return _CLOCKS[name]()
    except KeyError:
        raise ValueError(f"unknown clock {name!r}, expected one of {CLOCK_NAMES}")


# ---------------------------------------------------------------------------
# timestamp JSON

def _class_key(cls: Any) -> str:
    if isinstance(cls, str):
        return cls
    if isinstance(cls, tuple):
        return "->".join(str(p) for p in cls)
    return str(cls)


def stamp_to_obj(clock: Clock, stamp: Any) -> dict:
    """Timestamp as a JSON-ready object. Classifier stamps become a
    class-to-count object; matrix stamps an owner plus nested rows.
    Pids are stringified, so JSON interfaces assume string pids."""
    if clock.kind == "matrix":
        matrix: dict[str, dict[str, int]] = {}
        for (p, q), v in stamp.cells.items():
            matrix.setdefault(str(p), {})[str(q)] = v
        owner = None if stamp.owner is None else str(stamp.owner)
        return {"owner": owner, "matrix": matrix}
    counts = getattr(stamp, "counts", stamp)
    return {_class_key(c): v for c, v in counts.items()}


def _count_from_obj(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"count {where} must be a non-negative integer, got {v!r}")
    return v


def _string_keyed(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict) or not all(isinstance(k, str) for k in obj):
        raise ValueError(f"expected {what} with string keys, got {obj!r}")
    return obj


def stamp_from_obj(clock: Clock, obj: Any) -> Any:
    """Inverse of `stamp_to_obj`. Keys containing `->` are read back
    as class tuples, so string pids must not contain `->`. Raises
    ValueError unless keys are strings and counts non-negative ints."""
    if clock.kind == "matrix":
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ValueError(f"expected an owner/matrix object, got {obj!r}")
        owner = obj.get("owner")
        if owner is not None and not isinstance(owner, str):
            raise ValueError(f"owner must be a string or null, got {owner!r}")
        cells = {}
        for p, row in _string_keyed(obj["matrix"], "a matrix object").items():
            for q, v in _string_keyed(row, f"a matrix row for {p!r}").items():
                cells[(p, q)] = _count_from_obj(v, f"at {p!r}, {q!r}")
        return MatrixStamp(owner, cells)
    counts: dict[Any, int] = {}
    for key, v in _string_keyed(obj, "a class-to-count object").items():
        cls = tuple(key.split("->")) if "->" in key else key
        counts[cls] = _count_from_obj(v, f"for class {key!r}")
    return ClassifierStamp(counts)


# ---------------------------------------------------------------------------
# pushing a clock through a diagram

Valuation = Mapping[SiteRef, Any]


def zero_valuation(clock: Clock, config) -> dict[SiteRef, Any]:
    """Every site starts at the clock's zero."""
    return {s: clock.zero() for s in sites(config)}


def event_stamps(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation,
    stop: int | None = None,
) -> list[Any]:
    """The stamp of every event, indexed by event number, by `paths.sweep`:
    a copy and both fork outputs pass the object on, a tick increments it,
    and a join merges its left input (the lower number) with its right.
    With `stop`, only stamps up to cut `stop` are final and no later label
    is read. Raises ValueError for a `stop` not an int in 0..n_steps,
    valuation keys other than the initial sites, a step whose sites do not
    chain up (the first fault `validate` names) or an unlabeled tick."""
    if stop is not None:
        check_cut(d, stop)
    want = site_types(d.initial)
    if valuation.keys() != want.keys():
        raise ValueError(
            f"valuation keys {sorted(valuation)} do not match initial sites {sorted(want)}"
        )
    successors, ticks = step_successors(d), tick_outputs(d)
    end = None if stop is None else min(cut_numbers(d)[stop].values())

    def tick(j: int, stamp: Any) -> Any:
        ref = TickRef(*ticks[j])
        if ref not in lab:
            raise ValueError(f"tick {ref} has no label")
        return clock.increment(lab[ref], stamp)

    start = [valuation[s] for s in want]
    return sweep(successors, ticks, start, tick, clock.merge, lambda t: (t, t), end)


def update(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation,
) -> dict[SiteRef, Any]:
    """Push a per-site valuation through a whole diagram, returning the
    valuation of the final configuration. The diagram must be valid
    and the labeling total on its ticks."""
    stamps = event_stamps(d, lab, clock, valuation)
    return {s: stamps[j] for s, j in cut_numbers(d)[-1].items()}


def timestamp_all(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation,
) -> dict[Event, Any]:
    """Timestamp of every event of the diagram, in one forward pass."""
    stamps = event_stamps(d, lab, clock, valuation)
    return dict(zip(events(d), stamps))


def clock_at(
    d: Diagram,
    lab: Mapping[TickRef, Action],
    clock: Clock,
    valuation: Valuation,
    e: Event,
) -> Any:
    """The clock read at one event: sweep up to the event's cut and
    look at its site. Agrees with `timestamp_all`, and reads no label
    past that cut."""
    i = check_event(d, e)
    return event_stamps(d, lab, clock, valuation, e.cut)[i]
