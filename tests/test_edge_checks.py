"""The clock condition is tested per step edge and the order rows are
certified per step edge, each row against the rows of its one-step
successors; when that passes, the checkers only count pairs. These
tests hold them to exhaustive pair loops kept here, on the corpus and
on planted faults in the closure rows."""

import random
from dataclasses import replace

from causalweft import paths
from causalweft.clocks import (
    CLOCK_NAMES,
    Clock,
    by_name,
    timestamp_all,
    update,
    vector_clock,
    zero_valuation,
)
from causalweft.diagram import Atom, Diagram, Leaf, Tensor, noop, sites
from causalweft.paths import (
    Event,
    causal_paths,
    events,
    future_rows,
    set_bits,
    span_enumerate,
    span_reachable,
    step_relation,
    step_successors,
)
from causalweft.verify import (
    GenParams,
    OrderLawReport,
    Violation,
    ViolationReport,
    broken_clock,
    check_clock_condition,
    check_order_laws,
    check_update_inflationary,
    gen_diagram,
    random_valuation,
    report_to_obj,
)

A = Atom("A")

# ---------------------------------------------------------------------------
# exhaustive references: one visit per ordered pair


def reference_clock_condition(d, lab, clock, valuation):
    stamps = timestamp_all(d, lab, clock, valuation)
    evs = events(d)
    checked, violations = 0, []
    for i, row in enumerate(future_rows(d)):
        checked += row.bit_count()
        for j in set_bits(row):
            s, t = stamps[evs[i]], stamps[evs[j]]
            if not clock.leq(s, t):
                witness = next(causal_paths(d, evs[i], evs[j]))
                violations.append(Violation(evs[i], evs[j], s, t, witness))
    return ViolationReport("clock-condition", checked, tuple(violations))


def reference_inflationary(d, lab, clock, valuation):
    out = update(d, lab, clock, valuation)
    checked, violations = 0, []
    for s1 in sites(d.initial):
        for s2 in sites(d.final):
            if not span_reachable(d, s1, s2):
                continue
            checked += 1
            if not clock.leq(valuation[s1], out[s2]):
                witness = next(span_enumerate(d, s1, s2))
                violations.append(
                    Violation(
                        Event(0, s1), Event(d.n_steps, s2), valuation[s1], out[s2], witness
                    )
                )
    return ViolationReport("update-inflationary", checked, tuple(violations))


def reference_order_laws(d):
    evs, rows = events(d), future_rows(d)
    reflexivity = tuple(e for i, e in enumerate(evs) if not rows[i] >> i & 1)
    antisymmetry, transitivity = [], []
    for i, row in enumerate(rows):
        for j in set_bits(row):
            if j > i and rows[j] >> i & 1:
                antisymmetry.append((evs[i], evs[j]))
            for k in set_bits(rows[j] & ~row):
                transitivity.append((evs[i], evs[j], evs[k]))
    return OrderLawReport(
        len(evs),
        sum(row.bit_count() for row in rows),
        reflexivity,
        tuple(antisymmetry),
        tuple(transitivity),
    )


def counting(clock):
    """The clock with a `leq` that records each call."""
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return clock.leq(a, b)

    return replace(clock, leq=leq), calls


# ---------------------------------------------------------------------------
# equivalence on the corpus


def test_clock_reports_equal_the_pair_loop_on_the_corpus(corpus):
    clocks = [by_name(name) for name in CLOCK_NAMES] + [broken_clock()]
    rng = random.Random(6)
    failing = 0
    for d, lab in corpus:
        for clock in clocks:
            for valuation in (
                zero_valuation(clock, d.initial),
                random_valuation(clock, d.initial, rng),
            ):
                got = check_clock_condition(d, lab, clock, valuation)
                want = reference_clock_condition(d, lab, clock, valuation)
                assert report_to_obj(got, clock) == report_to_obj(want, clock)
                failing += not got.ok
    assert failing > 0  # the broken clock reaches the pair loop


def test_inflationarity_and_order_laws_equal_the_pair_loop_on_the_corpus(corpus):
    rng = random.Random(7)
    failing = 0
    for d, lab in corpus:
        for clock in (vector_clock(), by_name("wb"), broken_clock()):
            valuation = random_valuation(clock, d.initial, rng)
            got = check_update_inflationary(d, lab, clock, valuation)
            want = reference_inflationary(d, lab, clock, valuation)
            assert report_to_obj(got, clock) == report_to_obj(want, clock)
            # the spanning violations of the clock condition, stamps and
            # witnesses included
            cond = check_clock_condition(d, lab, clock, valuation)
            assert got.violations == tuple(
                v for v in cond.violations
                if v.source.cut == 0 and v.dest.cut == d.n_steps
            )
            failing += not got.ok
        assert check_order_laws(d) == reference_order_laws(d)
    assert failing > 0


# ---------------------------------------------------------------------------
# which path is taken


def test_the_clock_condition_calls_leq_once_per_stamp_and_edge():
    d, lab = gen_diagram(GenParams(seed=3, max_steps=128, max_sites=24))
    clock, calls = counting(vector_clock())
    report = check_clock_condition(d, lab, clock)
    assert report.ok and report.checked_pairs == 170657
    edges = sum(len(step_relation(step)) for step in d.steps)
    assert len(calls) <= len(events(d)) + edges < report.checked_pairs


def test_check_order_sweeps_the_closure_once(monkeypatch):
    sweeps, closure = [], paths._closure

    def counted(successors):
        sweeps.append(len(successors))
        return closure(successors)

    monkeypatch.setattr(paths, "_closure", counted)
    d, _ = gen_diagram(GenParams(seed=3, max_steps=64, max_sites=16))
    assert check_order_laws(d).ok
    assert sweeps == [len(events(d))]


def test_inflationarity_calls_leq_once_per_connected_pair(small_corpus):
    rng = random.Random(8)
    for d, lab in small_corpus[:100]:
        clock, calls = counting(vector_clock())
        valuation = random_valuation(clock, d.initial, rng)
        report = check_update_inflationary(d, lab, clock, valuation)
        assert len(calls) == report.checked_pairs
        assert report.checked_pairs <= len(sites(d.initial)) * len(sites(d.final))


def test_step_successors_are_the_step_relation(small_corpus):
    for d, _ in small_corpus[:100]:
        evs = events(d)
        got = {
            (evs[i], evs[j])
            for i, nexts in enumerate(step_successors(d))
            for j in nexts
        }
        want = {
            (Event(t, a), Event(t + 1, b))
            for t, step in enumerate(d.steps)
            for a, b in step_relation(step)
        }
        assert got == want


def test_leq_is_still_called_on_each_stamp_against_itself():
    # `<` is transitive but not reflexive; every edge of these noops
    # carries one stamp object, so only the per-stamp call can see it
    strict = Clock(
        "strict", "classifier", int, lambda a, b: a < b,
        lambda action, t: t + 1, max, lambda rng: rng.randint(0, 3),
    )
    cfg = Tensor(Leaf(A), Leaf(A))
    d = Diagram(cfg, (noop(cfg), noop(cfg)))
    valuation = zero_valuation(strict, cfg)
    report = check_clock_condition(d, {}, strict, valuation)
    assert report == reference_clock_condition(d, {}, strict, valuation)
    assert len(report.violations) == report.checked_pairs == 12


# ---------------------------------------------------------------------------
# planted faults in the closure rows


def with_rows(d, change):
    """A fresh instance of `d` whose closure rows are those of `d` with
    `change` applied: a dict from row number to new row."""
    fresh = Diagram(d.initial, d.steps)
    rows = list(future_rows(fresh))
    for i, row in change.items():
        rows[i] = row
    fresh.__dict__["_paths_tables"].__dict__["future"] = tuple(rows)
    return fresh


def test_planted_faults_give_the_pair_loop_report(corpus):
    planted = 0
    for d, _ in corpus[:300]:
        evs, rows = events(d), future_rows(d)
        cut = [e.cut for e in evs]
        last = [k for k, t in enumerate(cut) if t == d.n_steps]
        # pairs at least two steps apart: clearing one leaves a gap
        far = [
            (i, j) for i, row in enumerate(rows) for j in set_bits(row)
            if cut[j] >= cut[i] + 2
        ]
        if not far:
            continue
        i, j = far[len(far) // 2]
        cleared = with_rows(d, {i: rows[i] & ~(1 << j)})
        report = check_order_laws(cleared)
        assert report == reference_order_laws(cleared)
        assert report.transitivity and not report.antisymmetry

        backward = with_rows(d, {j: rows[j] | 1 << i})
        report = check_order_laws(backward)
        assert report == reference_order_laws(backward)
        assert (evs[i], evs[j]) in report.antisymmetry

        both = with_rows(d, {i: rows[i] & ~(1 << j), j: rows[j] | 1 << i})
        assert check_order_laws(both) == reference_order_laws(both)

        # a last-cut row holding back an event that holds it
        k = next(k for k in last if rows[i] >> k & 1)
        looped = with_rows(d, {k: rows[k] | 1 << i})
        report = check_order_laws(looped)
        assert report == reference_order_laws(looped)
        assert (evs[i], evs[k]) in report.antisymmetry

        # an extra pair from a source event to a last-cut event breaks
        # the recurrence but not the laws: the pair loop says so
        spare = [k for k in last if not rows[0] >> k & 1]
        if spare:
            extra = with_rows(d, {0: rows[0] | 1 << spare[0]})
            report = check_order_laws(extra)
            assert report == reference_order_laws(extra)
            assert report.ok and report.pairs == sum(r.bit_count() for r in rows) + 1
        planted += 1
    assert planted > 100
