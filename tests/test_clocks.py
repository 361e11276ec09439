import random

import pytest

from causalweft.clocks import (
    CLOCK_NAMES,
    Action,
    ClassifierStamp,
    MatrixStamp,
    by_name,
    clock_at,
    event_stamps,
    rst_clock,
    scalar_clock,
    stamp_from_obj,
    stamp_to_obj,
    timestamp_all,
    update,
    vector_clock,
    wb_clock,
    zero_valuation,
)
from causalweft.diagram import (
    Atom,
    Diagram,
    Fork,
    Join,
    Leaf,
    Perm,
    PermStep,
    Tensor,
    Tick,
    TickRef,
    before,
    cut_configs,
    during,
    identity,
    par,
    restrict_labeling,
    seq_concat,
    site_types,
    sites,
    step_atoms,
    tensor,
    tick_labels,
    ticks,
    validate,
)
from causalweft.lamport import gen_execution, to_diagram
from causalweft.paths import Event, events, step_relation
from causalweft.render import render
from causalweft.verify import random_valuation

A, B = Atom("A"), Atom("B")


def stamp(n: int) -> ClassifierStamp:
    return ClassifierStamp({"*": n})


# ---------------------------------------------------------------------------
# classifier stamps

def test_stamp_drops_zero_entries():
    assert ClassifierStamp({"p1": 0, "p2": 3}) == ClassifierStamp({"p2": 3})
    assert ClassifierStamp() == ClassifierStamp({"p1": 0})


def test_stamp_rejects_negative_counts():
    with pytest.raises(ValueError):
        ClassifierStamp({"p1": -1})


def test_scalar_increment():
    c = scalar_clock()
    assert c.increment(Action("p1"), stamp(2)) == stamp(3)
    assert c.increment(Action("anyone"), c.zero()) == stamp(1)


def test_vector_merge_is_pointwise_max():
    c = vector_clock()
    a = ClassifierStamp({"p": 1, "q": 4})
    b = ClassifierStamp({"p": 3, "q": 2})
    assert c.merge(a, b) == ClassifierStamp({"p": 3, "q": 4})


def test_vector_leq_is_pointwise():
    c = vector_clock()
    assert c.leq(ClassifierStamp({"p": 1}), ClassifierStamp({"p": 1, "q": 2}))
    assert not c.leq(ClassifierStamp({"p": 2}), ClassifierStamp({"p": 1, "q": 2}))


def test_vector_increment_bumps_the_actor():
    c = vector_clock()
    out = c.increment(Action("p2", "p1"), ClassifierStamp({"p2": 1}))
    assert out == ClassifierStamp({"p2": 2})


def test_classifier_merge_is_commutative_and_idempotent():
    c = vector_clock()
    rng = random.Random(3)
    for _ in range(200):
        a, b = c.sample(rng), c.sample(rng)
        assert c.merge(a, b) == c.merge(b, a)
        assert c.merge(a, a) == a


def test_rst_counts_actor_target_pairs():
    c = rst_clock()
    out = c.increment(Action("p1", "p2"), c.zero())
    assert out == ClassifierStamp({("p1", "p2"): 1})


def test_rst_requires_a_target():
    c = rst_clock()
    with pytest.raises(ValueError, match="target"):
        c.increment(Action("p1"), c.zero())


# ---------------------------------------------------------------------------
# the matrix clock

def test_wb_increment_bumps_diagonal_and_takes_ownership():
    c = wb_clock()
    t = c.increment(Action(0, 1), c.zero())
    assert t == MatrixStamp(0, {(0, 0): 1})
    t = c.increment(Action(1, 0), t)
    assert t == MatrixStamp(1, {(0, 0): 1, (1, 1): 1})


def test_wb_merge_folds_the_senders_row():
    c = wb_clock()
    a = MatrixStamp(0, {(0, 0): 1})  # owner 0: [[1,0],[0,0]]
    b = MatrixStamp(1, {(1, 1): 2})  # owner 1: [[0,0],[0,2]]
    assert c.merge(a, b) == MatrixStamp(0, {(0, 0): 1, (0, 1): 2, (1, 1): 2})
    assert c.merge(b, a) == MatrixStamp(1, {(0, 0): 1, (1, 0): 1, (1, 1): 2})


def test_wb_merge_is_noncommutative():
    c = wb_clock()
    a = MatrixStamp(0, {(0, 0): 1})
    b = MatrixStamp(1, {(1, 1): 2})
    assert c.merge(a, b).cells != c.merge(b, a).cells


def test_wb_leq_ignores_the_owner():
    c = wb_clock()
    a = MatrixStamp(0, {(0, 0): 1})
    b = MatrixStamp(1, {(0, 0): 1})
    assert c.leq(a, b) and c.leq(b, a)
    assert not c.leq(MatrixStamp(0, {(0, 0): 2}), b)


def test_wb_merge_is_inflationary_both_ways():
    c = wb_clock()
    rng = random.Random(11)
    for _ in range(300):
        a, b = c.sample(rng), c.sample(rng)
        assert c.leq(a, c.merge(a, b))
        assert c.leq(b, c.merge(a, b))
        assert c.leq(a, c.merge(b, a))
        assert c.leq(b, c.merge(b, a))


def test_matrix_stamp_rejects_negative_cells():
    with pytest.raises(ValueError):
        MatrixStamp(0, {(0, 0): -1})


# ---------------------------------------------------------------------------
# lookup and serialization

def test_by_name_round_trip():
    assert CLOCK_NAMES == ("rst", "scalar", "vector", "wb")
    for name in CLOCK_NAMES:
        assert by_name(name).name == name
    with pytest.raises(ValueError):
        by_name("sundial")


def test_classifier_stamp_serialization():
    c = rst_clock(("p1", "p2"))
    t = ClassifierStamp({("p1", "p2"): 3, ("p2", "p2"): 1})
    obj = stamp_to_obj(c, t)
    assert obj == {"p1->p2": 3, "p2->p2": 1}
    assert stamp_from_obj(c, obj) == t


def test_matrix_stamp_serialization():
    c = wb_clock(("p1", "p2"))
    t = MatrixStamp("p1", {("p1", "p1"): 2, ("p1", "p2"): 1})
    obj = stamp_to_obj(c, t)
    assert obj == {"owner": "p1", "matrix": {"p1": {"p1": 2, "p2": 1}}}
    assert stamp_from_obj(c, obj) == t
    assert stamp_from_obj(c, {"owner": None, "matrix": {}}) == MatrixStamp()
    with pytest.raises(ValueError):
        stamp_from_obj(c, [1, 2])


@pytest.mark.parametrize(
    "clock, obj",
    [
        (wb_clock(), {"owner": "p1", "matrix": {"p1": {"p1": "x"}}}),
        (wb_clock(), {"owner": "p1", "matrix": {"p1": {"p1": 1.5}}}),
        (wb_clock(), {"owner": "p1", "matrix": {"p1": [1]}}),
        (wb_clock(), {"owner": "p1", "matrix": [["p1", "p1", 1]]}),
        (wb_clock(), {"owner": 7, "matrix": {}}),
        (scalar_clock(), {"*": True}),
        (scalar_clock(), {"*": "2"}),
        (scalar_clock(), {"*": None}),
    ],
)
def test_stamp_from_obj_requires_non_negative_int_counts(clock, obj):
    with pytest.raises(ValueError):
        stamp_from_obj(clock, obj)


# ---------------------------------------------------------------------------
# pushing valuations through diagrams

def test_update_on_identity_returns_the_valuation():
    d = identity(Tensor(Leaf(A), Leaf(B)))
    v = {"L": stamp(3), "R": stamp(5)}
    assert update(d, {}, scalar_clock(), v) == v


def test_update_on_a_join_takes_the_max():
    d = Diagram(Tensor(Leaf(A), Leaf(B)), (Join(A, B),))
    out = update(d, {}, scalar_clock(), {"L": stamp(3), "R": stamp(5)})
    assert out == {"": stamp(5)}


def test_message_flow_scalar_update(message_flow):
    d, lab = message_flow
    c = scalar_clock()
    out = update(d, lab, c, zero_valuation(c, d.initial))
    assert out == {"L": stamp(1), "R": stamp(0)}


def test_update_checks_valuation_keys(message_flow):
    d, lab = message_flow
    c = scalar_clock()
    with pytest.raises(ValueError, match="valuation keys"):
        update(d, lab, c, {"L": c.zero()})


def test_update_requires_total_labeling(message_flow):
    d, _ = message_flow
    c = scalar_clock()
    with pytest.raises(ValueError, match="no label"):
        update(d, {}, c, zero_valuation(c, d.initial))


def test_update_is_compositional(small_corpus):
    c = vector_clock()
    rng = random.Random(5)
    for d, lab in small_corpus[:60]:
        v = {s: c.sample(rng) for s in sites(d.initial)}
        whole = update(d, lab, c, v)
        t = rng.randint(0, d.n_steps)
        head, tail = before(d, t), during(d, t, d.n_steps)
        assert seq_concat(head, tail) == d
        mid = update(head, restrict_labeling(lab, 0, t), c, v)
        assert update(tail, restrict_labeling(lab, t, d.n_steps), c, mid) == whole


def test_a_step_wider_than_the_recursion_limit():
    # par nests to the left, so the step tree is as deep as it is wide
    n = 3000
    d = Diagram(tensor([Leaf(A)] * n), (par([Tick(A, A)] * n),))
    refs = ticks(d)
    assert len(refs) == n
    assert refs[0] == TickRef(0, "L" * (n - 1)) and refs[-1] == TickRef(0, "R")
    lab = tick_labels(d, [Action(f"p{i}") for i in range(n)])
    assert step_relation(d.steps[0]) == {(s, s) for s in sites(d.initial)}
    c = vector_clock()
    v = zero_valuation(c, d.initial)
    out = update(d, lab, c, v)
    assert out["R"] == ClassifierStamp({f"p{n - 1}": 1})
    stamps = timestamp_all(d, lab, c, v)
    assert len(stamps) == 2 * n
    assert all(stamps[Event(1, s)] == out[s] for s in out)
    assert validate(d) == []
    assert sites(d.final) == sites(d.initial)
    dot = render(d, lab, "dot")
    assert dot.count(" -> ") == n and '[label="p0"]' in dot
    ascii_text = render(d, lab, "ascii")
    assert ascii_text.count("tick @ ") == n


def test_perm_steps_relocate_timestamps(small_corpus):
    c = vector_clock()
    for d, lab in small_corpus[:80]:
        stamps = timestamp_all(d, lab, c, zero_valuation(c, d.initial))
        cfgs = cut_configs(d)
        for k, step in enumerate(d.steps):
            if not isinstance(step, PermStep):
                continue
            here = sorted(repr(stamps[Event(k, s)]) for s in sites(cfgs[k]))
            there = sorted(repr(stamps[Event(k + 1, s)]) for s in sites(cfgs[k + 1]))
            assert here == there


# ---------------------------------------------------------------------------
# per-event clock reads

def test_clock_at_cut_zero_is_the_valuation(message_flow):
    d, lab = message_flow
    c = scalar_clock()
    v = {"L": stamp(2), "R": stamp(7)}
    for s in sites(d.initial):
        assert clock_at(d, lab, c, v, Event(0, s)) == v[s]


def test_clock_at_final_cut_is_the_update(message_flow):
    d, lab = message_flow
    c = scalar_clock()
    v = zero_valuation(c, d.initial)
    out = update(d, lab, c, v)
    for s in sites(d.final):
        assert clock_at(d, lab, c, v, Event(d.n_steps, s)) == out[s]


def test_clock_at_agrees_with_the_forward_pass(small_corpus):
    for clock in (scalar_clock(), wb_clock()):
        for d, lab in small_corpus[:40]:
            v = zero_valuation(clock, d.initial)
            stamps = timestamp_all(d, lab, clock, v)
            for e in events(d):
                assert clock_at(d, lab, clock, v, e) == stamps[e]


def test_clock_at_reads_no_label_past_the_events_cut(small_corpus):
    for clock in (scalar_clock(), wb_clock()):
        for d, lab in small_corpus[:40]:
            v = zero_valuation(clock, d.initial)
            for e in events(d):
                head = {r: a for r, a in lab.items() if r.step < e.cut}
                assert clock_at(d, head, clock, v, e) == clock_at(d, lab, clock, v, e)


def test_event_stamps_refuse_a_stop_outside_the_cuts(message_flow):
    # a negative stop would count from the end, one past the last cut
    # would index past the cut table
    d, lab = message_flow
    c = scalar_clock()
    v = zero_valuation(c, d.initial)
    n = d.n_steps
    for stop in (-1, -n, n + 1):
        with pytest.raises(ValueError, match=rf"^cut {stop} out of range 0\.\.{n}$"):
            event_stamps(d, lab, c, v, stop)
    assert event_stamps(d, lab, c, v, n) == event_stamps(d, lab, c, v)
    assert event_stamps(d, lab, c, v, 0)[: len(v)] == list(v.values())


# ---------------------------------------------------------------------------
# an independent oracle for the numbered sweep
#
# The library stamps events by number, pushing each stamp along the step
# edges of the `paths` table. This reference takes the other road: it
# pushes one site-keyed valuation per cut through each step's atoms,
# left to right, and keys the stamps by event.

def reference_stamps(d, lab, clock, valuation) -> dict[Event, object]:
    assert valuation.keys() == site_types(d.initial).keys()
    cur = dict(valuation)
    out = {Event(0, s): v for s, v in cur.items()}
    for k, step in enumerate(d.steps):
        nxt = {}
        for p, atom in step_atoms(step):
            match atom:
                case Tick():
                    nxt[p] = clock.increment(lab[TickRef(k, p)], cur[p])
                case Fork():
                    nxt[p + "L"] = nxt[p + "R"] = cur[p]
                case Join():
                    nxt[p] = clock.merge(cur[p + "L"], cur[p + "R"])
                case PermStep(perm):
                    for a, b in perm.pairs:
                        nxt[p + b] = cur[p + a]
        out.update((Event(k + 1, s), v) for s, v in nxt.items())
        cur = nxt
    return out


def assert_matches_reference(d, lab, clock, v) -> None:
    want = reference_stamps(d, lab, clock, v)
    got = timestamp_all(d, lab, clock, v)
    assert list(got) == list(events(d))
    assert got == want
    assert update(d, lab, clock, v) == {s: want[Event(d.n_steps, s)] for s in sites(d.final)}


@pytest.mark.parametrize("name", CLOCK_NAMES)
def test_numbered_sweep_matches_the_reference_on_the_corpus(small_corpus, name):
    clock = by_name(name)
    rng = random.Random(11)
    for d, lab in small_corpus:
        assert_matches_reference(d, lab, clock, random_valuation(clock, d.initial, rng))


@pytest.mark.parametrize("name", CLOCK_NAMES)
def test_numbered_sweep_matches_the_reference_on_executions(name):
    clock = by_name(name)
    for seed in range(40):
        d, lab, _ = to_diagram(gen_execution(seed, max_processes=5, max_actions=20))
        assert_matches_reference(d, lab, clock, zero_valuation(clock, d.initial))


def test_numbered_sweep_matches_the_reference_on_a_wide_step():
    n = 3000
    d = Diagram(tensor([Leaf(A)] * n), (par([Tick(A, A)] * n),))
    lab = tick_labels(d, [Action(f"p{i % 7}", f"p{i % 5}") for i in range(n)])
    for name in CLOCK_NAMES:
        clock = by_name(name)
        assert_matches_reference(d, lab, clock, random_valuation(clock, d.initial, random.Random(3)))


def test_missing_label_names_the_first_unlabeled_tick(diamond):
    d, lab = diamond
    c = vector_clock()
    v = zero_valuation(c, d.initial)
    for f in (update, timestamp_all):
        with pytest.raises(ValueError) as info:
            f(d, {}, c, v)
        assert str(info.value) == "tick TickRef(step=1, path='L') has no label"
        only_left = {TickRef(1, "L"): lab[TickRef(1, "L")]}
        with pytest.raises(ValueError) as info:
            f(d, only_left, c, v)
        assert str(info.value) == "tick TickRef(step=1, path='R') has no label"
    with pytest.raises(ValueError) as info:
        clock_at(d, {}, c, v, Event(2, "R"))
    assert str(info.value) == "tick TickRef(step=1, path='L') has no label"
    # cut 1 lies before both ticks, so no label is read
    assert clock_at(d, {}, c, v, Event(1, "R")) == c.zero()


def test_the_valuation_check_comes_before_the_labels(diamond):
    d, _ = diamond
    c = vector_clock()
    with pytest.raises(ValueError, match="valuation keys"):
        update(d, {}, c, {})


def test_a_perm_that_misses_a_target_site_is_an_error():
    # built in code: L and R both land on L, so R of cut 1 would get no
    # stamp at all
    pair = Tensor(Leaf(A), Leaf(A))
    d = Diagram(pair, (PermStep(Perm(pair, pair, (("L", "L"), ("R", "L")))),))
    c = vector_clock()
    v = zero_valuation(c, pair)
    for read in (
        lambda: update(d, {}, c, v),
        lambda: timestamp_all(d, {}, c, v),
        lambda: clock_at(d, {}, c, v, Event(1, "R")),
        lambda: clock_at(d, {}, c, v, Event(0, "L")),
    ):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "step 0 at .: target site 'L' hit twice (not injective)"


@pytest.mark.parametrize(
    "d, message",
    [
        (Diagram(Leaf(A), (Join(A, B),)), "step 0 at .: step expects ([A] * [B]), found [A]"),
        (Diagram(Tensor(Leaf(A), Leaf(B)), (Tick(A, A),)), "step 0 at .: step expects [A], found ([A] * [B])"),
    ],
    ids=["join-on-a-leaf", "tick-on-a-tensor"],
)
def test_ill_typed_diagrams_raise_the_tables_error(d, message):
    c = vector_clock()
    v = zero_valuation(c, d.initial)
    lab = {TickRef(0, ""): Action("p1")}
    for read in (
        lambda: update(d, lab, c, v),
        lambda: timestamp_all(d, lab, c, v),
        lambda: clock_at(d, lab, c, v, Event(0, sites(d.initial)[0])),
    ):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == message
