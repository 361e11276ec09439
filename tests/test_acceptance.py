"""End-to-end checks of the whole toolkit, one test per criterion.

Every test wraps its body in the `criterion` recorder, so the terminal
summary ends with one PASS/FAIL line per criterion regardless of how
the individual assertions fare.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from causalweft.clocks import (
    CLOCK_NAMES,
    Action,
    MatrixStamp,
    by_name,
    update,
    wb_clock,
)
from causalweft.diagram import Diagram, sites, validate
from causalweft.lamport import (
    CyclicExecutionError,
    Execution,
    derived_order,
    gen_execution,
    hb_closure,
    to_diagram,
)
from causalweft.paths import (
    Event,
    PathWitness,
    causally_ordered,
    event_order_pairs,
    events,
    span_count,
    span_enumerate,
    span_reachable,
    witness_valid,
)
from causalweft.render import to_dot
from causalweft.serialize import diagram_hash, diagram_to_json
from causalweft.verify import (
    broken_clock,
    check_clock_condition,
    check_clock_laws,
    check_order_laws,
    check_update_inflationary,
    gen_diagram,
    oracle_event_order,
    oracle_reachability,
    random_valuation,
    report_to_obj,
)

from conftest import build_diamond, build_message_flow, build_two_tick, corpus_params

SEED = 20260818


def test_clock_condition_holds_across_the_corpus(criterion):
    # generation is timed along with the check
    with criterion(1, "clock condition"):
        start = time.monotonic()
        clocks = [by_name(name) for name in CLOCK_NAMES]
        checked = 0
        for seed in range(1000):
            d, lab = gen_diagram(corpus_params(seed))
            for clock in clocks:
                report = check_clock_condition(d, lab, clock)
                assert report.violations == (), (seed, clock.name)
                checked += report.checked_pairs
        assert checked > 10_000
        assert time.monotonic() - start < 60.0


def test_updates_never_lose_ground(corpus, criterion):
    with criterion(2, "update inflationarity"):
        rng = random.Random(SEED)
        clocks = [by_name(name) for name in CLOCK_NAMES]
        for i, (d, lab) in enumerate(corpus):
            for clock in clocks:
                report = check_update_inflationary(d, lab, clock)
                assert report.violations == (), (i, clock.name)
            clock = clocks[i % len(clocks)]
            valuation = random_valuation(clock, d.initial, rng)
            report = check_update_inflationary(d, lab, clock, valuation)
            assert report.violations == (), (i, clock.name, "seeded valuation")


def test_reachability_and_order_match_brute_force(corpus, criterion):
    with criterion(3, "oracle agreement"):
        for i, (d, _) in enumerate(corpus):
            assert event_order_pairs(d) == oracle_event_order(d), i
            spans = {
                (s1, s2)
                for s1 in sites(d.initial)
                for s2 in sites(d.final)
                if span_reachable(d, s1, s2)
            }
            assert spans == oracle_reachability(d), i
        # pointwise cross-check of the pairwise query
        for i, (d, _) in enumerate(corpus[:100]):
            oracle = oracle_event_order(d)
            evs = events(d)
            for e1 in evs:
                for e2 in evs:
                    assert causally_ordered(d, e1, e2) == ((e1, e2) in oracle), i


def test_causal_order_is_a_partial_order(corpus, criterion):
    with criterion(4, "order laws"):
        for i, (d, _) in enumerate(corpus):
            report = check_order_laws(d)
            assert report.reflexivity == (), i
            assert report.antisymmetry == (), i
            assert report.transitivity == (), i


def test_worked_examples_are_exact(criterion):
    with criterion(5, "fixture exactness"):
        d, lab = build_message_flow()
        assert validate(d) == []
        assert str(d.final) == "([(t1' x t2)] * [t3])"

        # the tick bumps the left lane; the spectator payload stays at zero
        scalar = by_name("scalar")
        out = update(d, lab, scalar, {"L": scalar.zero(), "R": scalar.zero()})
        assert dict(out["L"].counts) == {"*": 1}
        assert dict(out["R"].counts) == {}

        spans = {
            (s1, s2)
            for s1 in sites(d.initial)
            for s2 in sites(d.final)
            if span_reachable(d, s1, s2)
        }
        assert spans == {("L", "L"), ("R", "L"), ("R", "R")}

        # the forked payload converges on the final right site only
        reached = [e for e in events(d) if e.cut == 3 and causally_ordered(d, Event(1, "RR"), e)]
        assert reached == [Event(3, "R")]

        dd, _ = build_diamond()
        found = list(span_enumerate(dd, "", ""))
        assert span_count(dd, "", "") == 2 == len(found)
        assert found == [
            PathWitness(0, ("", "L", "L", "")),
            PathWitness(0, ("", "R", "R", "")),
        ]
        assert all(witness_valid(dd, w) for w in found)


def test_clock_laws_hold_and_the_checker_can_fail(criterion):
    with criterion(6, "clock algebra laws"):
        for name in CLOCK_NAMES:
            report = check_clock_laws(by_name(name), seed=SEED, samples=10_000)
            assert report.samples == 10_000
            assert report.ok, report.failures[:3]

        bad = check_clock_laws(broken_clock(), seed=SEED, samples=10_000)
        assert not bad.ok
        assert "increment-inflationary" in {f.law for f in bad.failures}
        assert all(f.detail for f in bad.failures)

        # the diagram-level checker catches it too, with a witness
        d, lab = build_two_tick()
        report = check_clock_condition(d, lab, broken_clock())
        assert report.violations
        first = report.violations[0]
        assert witness_valid(d, first.witness)
        assert not broken_clock().leq(first.source_stamp, first.dest_stamp)


def test_matrix_merge_is_order_sensitive(criterion):
    with criterion(7, "asymmetric merge"):
        c = wb_clock()
        a = MatrixStamp(0, {(0, 0): 1})
        b = MatrixStamp(1, {(1, 1): 2})
        ab = c.merge(a, b)
        ba = c.merge(b, a)
        assert ab == MatrixStamp(0, {(0, 0): 1, (0, 1): 2, (1, 1): 2})
        assert ba == MatrixStamp(1, {(0, 0): 1, (1, 0): 1, (1, 1): 2})
        assert ab.cells != ba.cells
        for t in (a, b):
            assert c.leq(t, ab) and c.leq(t, ba)


def test_executions_round_trip_through_diagrams(criterion):
    with criterion(8, "execution round-trip"):
        start = time.monotonic()
        for seed in range(500):
            x = gen_execution(seed, max_processes=4, max_actions=12)
            hb = hb_closure(x)
            d, lab, tick_index = to_diagram(x)
            assert validate(Diagram(d.initial, d.steps)) == [], seed
            assert derived_order(d, tick_index) == hb, seed

        cyclic = Execution(
            {"p1": ("a1", "a4"), "p2": ("a2", "a3")},
            frozenset({("a4", "a2"), ("a3", "a1")}),
            {
                "a1": Action("p1", "p2"),
                "a4": Action("p1", "p2"),
                "a2": Action("p2", "p1"),
                "a3": Action("p2", "p1"),
            },
        )
        with pytest.raises(CyclicExecutionError):
            hb_closure(cyclic)
        with pytest.raises(CyclicExecutionError):
            to_diagram(cyclic)
        assert time.monotonic() - start < 30.0


def _run(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "causalweft", *args],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_equal_seeds_give_identical_bytes(criterion, tmp_path):
    with criterion(9, "determinism"):
        wb = by_name("wb")
        for seed in (0, 7, 123):
            d1, l1 = gen_diagram(corpus_params(seed))
            d2, l2 = gen_diagram(corpus_params(seed))
            assert diagram_to_json(d1, l1) == diagram_to_json(d2, l2)
            assert diagram_hash(d1, l1) == diagram_hash(d2, l2)
            assert to_dot(d1, l1) == to_dot(d2, l2)
            r1 = report_to_obj(check_clock_condition(d1, l1, wb), wb)
            r2 = report_to_obj(check_clock_condition(d2, l2, wb), wb)
            assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

        # and across separate interpreter runs
        doc = tmp_path / "gen.json"
        runs = []
        for _ in range(2):
            gen_bytes = _run(["gen", "--seed", "77"])
            doc.write_bytes(gen_bytes)
            runs.append(
                (
                    gen_bytes,
                    _run(["render", str(doc)]),
                    _run(["check-clock", str(doc), "--clock", "vector", "--json"]),
                )
            )
        assert runs[0] == runs[1]
