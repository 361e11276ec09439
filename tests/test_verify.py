import json
import random

import pytest

from causalweft.clocks import (
    CLOCK_NAMES,
    Action,
    Clock,
    by_name,
    scalar_clock,
    timestamp_all,
    vector_clock,
    zero_valuation,
)
from causalweft.diagram import (
    Atom,
    Diagram,
    Fork,
    Join,
    Leaf,
    Par,
    Perm,
    PermStep,
    Prod,
    Tensor,
    Tick,
    cut_configs,
    identity,
    is_valid,
    labeling_faults,
    n_sites,
    par,
    perm_swap,
    sites,
    tensor,
    ticks,
    validate,
)
from causalweft.paths import (
    Event,
    causally_ordered,
    event_order_pairs,
    span_reachable,
    witness_valid,
)
from causalweft.serialize import diagram_hash
from causalweft.verify import (
    GenParams,
    broken_clock,
    check_clock_condition,
    check_clock_laws,
    check_order_laws,
    check_update_inflationary,
    gen_diagram,
    law_report_to_obj,
    oracle_event_order,
    oracle_reachability,
    order_report_to_obj,
    random_valuation,
    report_to_obj,
)
from conftest import corpus_params

A = Atom("A")


# ---------------------------------------------------------------------------
# generator

def test_gen_params_are_validated():
    with pytest.raises(ValueError):
        GenParams(seed=0, max_steps=-1)
    with pytest.raises(ValueError):
        GenParams(seed=0, max_sites=0)
    with pytest.raises(ValueError):
        GenParams(seed=0, atoms=())
    with pytest.raises(ValueError):
        GenParams(seed=0, actions=())
    with pytest.raises(ValueError):
        GenParams(seed=0, tick_weight=-1.0)
    with pytest.raises(ValueError):
        GenParams(
            seed=0,
            tick_weight=0.0,
            fork_weight=0.0,
            join_weight=0.0,
            perm_weight=0.0,
        )


def test_gen_with_no_steps_is_identity():
    d, lab = gen_diagram(GenParams(seed=4, max_steps=0))
    assert d.n_steps == 0
    assert lab == {}


def test_gen_is_deterministic():
    p = GenParams(seed=2024)
    assert gen_diagram(p) == gen_diagram(p)
    d1, lab1 = gen_diagram(p)
    d2, lab2 = gen_diagram(p)
    assert diagram_hash(d1, lab1) == diagram_hash(d2, lab2)


def test_generated_diagrams_are_valid_and_fully_labeled(small_corpus):
    for d, lab in small_corpus:
        assert validate(d) == []
        assert labeling_faults(d, lab) == []


def test_a_leaf_with_no_kind_to_draw_is_held():
    # one site and no room to fork: with ticks and perms weighed at zero,
    # every step is the idle hold of the leaf
    held = 0
    for seed in range(20):
        p = GenParams(seed=seed, max_sites=1, tick_weight=0.0, perm_weight=0.0)
        d, lab = gen_diagram(p)
        assert validate(d) == [] and lab == {}
        for step in d.steps:
            assert step == PermStep(Perm(d.initial, d.initial, (("", ""),)))
        held += d.n_steps
    assert held > 20


def test_generator_respects_the_site_budget(small_corpus):
    for d, _ in small_corpus:
        for cfg in cut_configs(d):
            assert n_sites(cfg) <= 6


def test_generator_covers_every_step_kind(small_corpus):
    seen = set()
    for d, _ in small_corpus:
        for step in d.steps:
            stack = [step]
            while stack:
                node = stack.pop()
                if isinstance(node, Par):
                    stack.extend((node.left, node.right))
                elif isinstance(node, PermStep):
                    if not node.perm.is_identity():
                        seen.add("perm")
                else:
                    seen.add(type(node).__name__.lower())
    assert {"tick", "fork", "join", "perm"} <= seen


def test_random_valuation_covers_every_site():
    clock = vector_clock()
    cfg = Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A)))
    v = random_valuation(clock, cfg, random.Random(0))
    assert set(v) == set(sites(cfg))


# ---------------------------------------------------------------------------
# clock condition

def test_clock_condition_holds_on_sampled_diagrams(small_corpus):
    clock = scalar_clock()
    for d, lab in small_corpus[:60]:
        report = check_clock_condition(d, lab, clock)
        assert report.ok
        assert report.check == "clock-condition"
        assert report.checked_pairs == len(event_order_pairs(d))


def test_broken_clock_fails_on_two_ticks(two_tick):
    d, lab = two_tick
    report = check_clock_condition(d, lab, broken_clock())
    assert not report.ok
    first = report.violations[0]
    assert (first.source, first.dest) == (Event(0, ""), Event(1, ""))
    assert witness_valid(d, first.witness)
    # every pair that crosses a tick is a violation here
    assert len(report.violations) == 3


def test_clock_reports_match_a_reference_on_oracle_pairs(small_corpus):
    """Pairs come off the closure rows in event order, with no sort; a
    reference that sorts the Warshall oracle's pairs must agree on the
    count and on every violation, in order."""
    clock = broken_clock()
    rng = random.Random(2)
    found = 0
    for k, (d, lab) in enumerate(small_corpus):
        if k % 2:
            valuation = random_valuation(clock, d.initial, rng)
        else:
            valuation = zero_valuation(clock, d.initial)
        report = check_clock_condition(d, lab, clock, valuation)
        stamps = timestamp_all(d, lab, clock, valuation)
        pairs = sorted(oracle_event_order(d))
        want = [
            (e1, e2) for e1, e2 in pairs if not clock.leq(stamps[e1], stamps[e2])
        ]
        assert report.checked_pairs == len(pairs)
        assert [(v.source, v.dest) for v in report.violations] == want
        for v in report.violations:
            assert witness_valid(d, v.witness)
            assert v.witness.events()[0] == v.source
            assert v.witness.events()[-1] == v.dest
        found += len(want)
    assert found > 0


def test_perm_only_diagrams_never_violate():
    d = Diagram(
        Tensor(Leaf(A), Leaf(Prod(A, A))),
        (PermStep(perm_swap(Leaf(A), Leaf(Prod(A, A)))),),
    )
    for name in CLOCK_NAMES:
        report = check_clock_condition(d, {}, by_name(name))
        assert report.ok
        assert report.checked_pairs > 0


def test_clock_condition_with_random_valuations(small_corpus):
    rng = random.Random(17)
    clock = by_name("wb")
    for d, lab in small_corpus[:40]:
        v = random_valuation(clock, d.initial, rng)
        assert check_clock_condition(d, lab, clock, v).ok


# ---------------------------------------------------------------------------
# update inflationarity

def test_identity_update_is_trivially_inflationary():
    d = identity(Tensor(Leaf(A), Leaf(A)))
    report = check_update_inflationary(d, {}, scalar_clock())
    assert report.ok
    assert report.checked_pairs == 2  # the two diagonal pairs


def test_message_flow_has_three_reachable_boundary_pairs(message_flow):
    d, lab = message_flow
    report = check_update_inflationary(d, lab, scalar_clock())
    assert report.ok
    assert report.checked_pairs == 3


def test_broken_clock_fails_inflationarity(two_tick):
    d, lab = two_tick
    report = check_update_inflationary(d, lab, broken_clock())
    assert not report.ok
    v = report.violations[0]
    assert (v.source, v.dest) == (Event(0, ""), Event(2, ""))
    assert witness_valid(d, v.witness)


def test_checkers_take_a_tensor_too_deep_to_write_out():
    """`tensor()` of 600 parts nests 600 deep, past what the canonical
    encoder can write; checking must not need the document's bytes."""
    d = Diagram(tensor([Leaf(A)] * 600), (par([Tick(A, A)] * 600),))
    lab = {r: Action("p1", "p1") for r in ticks(d)}
    clock = vector_clock()
    report = check_clock_condition(d, lab, clock)
    assert report.ok
    assert report.checked_pairs == 1800
    report = check_update_inflationary(d, lab, clock)
    assert report.ok
    assert report.checked_pairs == 600


# ---------------------------------------------------------------------------
# law suites

def test_lawful_clocks_pass_sampled_laws():
    for name in CLOCK_NAMES:
        report = check_clock_laws(by_name(name), seed=1, samples=2000)
        assert report.ok, report.failures
        assert report.samples == 2000


def int_clock(**changes) -> Clock:
    """A lawful counter over small ints, with some operations replaced."""
    ops = dict(
        leq=lambda a, b: a <= b,
        increment=lambda a, t: t + 1,
        merge=max,
        sample=lambda rng: rng.randint(0, 4),
    )
    ops.update(changes)
    return Clock("int", "classifier", lambda: 0, **ops)


def test_each_broken_law_is_named():
    assert check_clock_laws(int_clock(), seed=1, samples=2000).ok
    for law, clock in (
        ("leq-reflexive", int_clock(leq=lambda a, b: a < b)),
        ("merge-absorbs-left", int_clock(merge=lambda a, b: b)),
        ("leq-transitive", int_clock(leq=lambda a, b: abs(a - b) <= 1)),
    ):
        report = check_clock_laws(clock, seed=1, samples=2000)
        assert law in {f.law for f in report.failures}, law


def test_broken_clock_fails_with_counterexamples():
    report = check_clock_laws(broken_clock(), seed=1, samples=2000)
    assert not report.ok
    laws = {f.law for f in report.failures}
    assert "increment-inflationary" in laws
    assert all(f.detail for f in report.failures)
    # failures are capped per law so reports stay readable
    per_law = {law: sum(1 for f in report.failures if f.law == law) for law in laws}
    assert all(n <= 10 for n in per_law.values())


# ---------------------------------------------------------------------------
# oracles

def test_oracle_on_identity_is_the_diagonal():
    d = identity(Tensor(Leaf(A), Leaf(A)))
    evs = {Event(0, "L"), Event(0, "R")}
    assert oracle_event_order(d) == {(e, e) for e in evs}
    assert oracle_reachability(d) == {("L", "L"), ("R", "R")}


def test_oracle_sees_through_the_diamond(diamond):
    d, _ = diamond
    assert oracle_reachability(d) == {("", "")}
    assert (Event(0, ""), Event(3, "")) in oracle_event_order(d)


def test_reachability_agrees_with_the_oracle(small_corpus):
    for d, _ in small_corpus[:100]:
        mine = {
            (s1, s2)
            for s1 in sites(d.initial)
            for s2 in sites(d.final)
            if span_reachable(d, s1, s2)
        }
        assert mine == oracle_reachability(d)


def test_event_order_agrees_with_the_oracle(small_corpus):
    for d, _ in small_corpus[:100]:
        assert event_order_pairs(d) == oracle_event_order(d)


# ---------------------------------------------------------------------------
# order laws

def test_order_laws_on_identity():
    assert check_order_laws(identity(Leaf(A))).ok


def test_order_laws_transitivity_spot_checks():
    d = Diagram(
        Leaf(Prod(A, A)),
        (Fork(A, A), Par(Tick(A, A), Tick(A, A)), Join(A, A), Tick(Prod(A, A), A)),
    )
    assert is_valid(d)
    report = check_order_laws(d)
    assert report.ok
    assert causally_ordered(d, Event(0, ""), Event(2, "L"))
    assert causally_ordered(d, Event(2, "L"), Event(4, ""))
    assert causally_ordered(d, Event(0, ""), Event(4, ""))


def test_order_law_report_counts(diamond):
    d, _ = diamond
    report = check_order_laws(d)
    assert report.events == 6
    assert report.pairs == len(event_order_pairs(d))
    assert report.reflexivity == ()
    assert report.antisymmetry == ()
    assert report.transitivity == ()


# ---------------------------------------------------------------------------
# report serialization

def test_violation_report_serializes(two_tick):
    d, lab = two_tick
    clock = broken_clock()
    report = check_clock_condition(d, lab, clock)
    obj = report_to_obj(report, clock)
    assert obj["check"] == "clock-condition"
    assert obj["clock"] == "broken"
    assert obj["checked_pairs"] == report.checked_pairs
    assert "diagram_hash" not in obj
    assert len(obj["violations"]) == 3
    first = obj["violations"][0]
    assert first["source"] == {"cut": 0, "site": ""}
    assert first["witness"][0] == {"cut": 0, "site": ""}
    json.dumps(obj)  # must be JSON-ready as is


def test_law_report_serializes():
    obj = law_report_to_obj(check_clock_laws(broken_clock(), samples=200))
    assert obj["clock"] == "broken"
    assert obj["failures"]
    json.dumps(obj)


def test_order_report_serializes(diamond):
    d, _ = diamond
    obj = order_report_to_obj(check_order_laws(d))
    assert obj["events"] == 6
    assert obj["reflexivity"] == []
    json.dumps(obj)


def test_corpus_params_cycle_profiles():
    kinds = {
        (corpus_params(s).tick_weight, corpus_params(s).perm_weight)
        for s in range(8)
    }
    assert len(kinds) == 4
