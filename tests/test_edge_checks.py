"""The clock condition is tested per step edge and the wire table is
certified per step edge; when that passes, the checkers only count
pairs, by wires. These tests hold them to exhaustive pair loops kept
here, over the rows the wire table expands to, on the corpus and on
planted faults in the wire table."""

import random
from dataclasses import replace

from causalweft import clocks, paths
from causalweft.cli import main
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
from causalweft.lamport import derived_order, gen_execution, hb_closure, to_diagram
from causalweft.paths import (
    Event,
    Wires,
    causal_paths,
    events,
    set_bits,
    span_enumerate,
    span_reachable,
    step_relation,
    step_successors,
    wire_table,
)
from causalweft.verify import (
    GenParams,
    OrderLawReport,
    Violation,
    ViolationReport,
    _wires_hold,
    broken_clock,
    check_clock_condition,
    check_order_laws,
    check_update_inflationary,
    gen_diagram,
    oracle_event_order,
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
    for i, row in enumerate(wire_table(d).rows()):
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
    evs, rows = events(d), wire_table(d).rows()
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


def test_one_wire_sweep_per_check_order_and_check_clock(tmp_path, monkeypatch, capsys):
    """`paths.sweep` is the one loop up the event numbers: `check-order`
    runs it once, for the wire table's history clock, `check-clock`
    twice, for the clock's stamps and then the history, and `timestamps`
    once, for the stamps."""
    sweeps, sweep = [], paths.sweep

    def counted(successors, ticks, start, *rest):
        sweeps.append((len(successors), type(start[0]).__name__))
        return sweep(successors, ticks, start, *rest)

    monkeypatch.setattr(paths, "sweep", counted)
    monkeypatch.setattr(clocks, "sweep", counted)
    doc = str(tmp_path / "d.json")
    argv = ["--seed", "3", "--max-steps", "64", "--max-sites", "16", "--out", doc]
    assert main(["gen", *argv]) == 0
    n = len(events(gen_diagram(GenParams(seed=3, max_steps=64, max_sites=16))[0]))
    history, stamps = (n, "int"), (n, "ClassifierStamp")
    for command, runs in (
        (["check-order", doc], [history]),
        (["check-clock", doc, "--clock", "vector"], [stamps, history]),
        (["timestamps", doc, "--clock", "vector"], [stamps]),
    ):
        sweeps.clear()
        assert main(command) == 0
        assert sweeps == runs, command
    assert "order laws hold" in capsys.readouterr().out


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
# the pair count


def past_sweep_pairs(d):
    """The ordered event pairs, counted by one pass over the cuts that
    keeps each site's causal past as a bitmask over events."""
    past = {s: 1 << k for k, s in enumerate(sites(d.initial))}
    n = pairs = len(past)
    for step in d.steps:
        nxt = {}
        for a, b in step_relation(step):
            nxt[b] = nxt.get(b, 0) | past[a]
        for b in nxt:
            nxt[b] |= 1 << n
            n += 1
            pairs += nxt[b].bit_count()
        past = nxt
    return pairs


def test_the_pair_count_is_exact(corpus):
    for d, _ in corpus:
        assert wire_table(d).pair_count() == len(oracle_event_order(d))

    x = gen_execution(5, 8, 800)
    d, _, tick_index = to_diagram(x)
    wires = wire_table(d)
    assert len(wires.history) == 1535 and len(wires.wire) == 47064
    lengths = [0] * len(wires.history)
    for w in wires.wire:
        lengths[w] += 1
    # the naive sum reads each history bit by bit, past 1024 bits wide
    naive = sum(
        n * (n + 1) // 2 + n * sum(lengths[u] for u in set_bits(past) if u != w)
        for w, (n, past) in enumerate(zip(lengths, wires.history))
    )
    assert wires.pair_count() == naive == past_sweep_pairs(d)
    assert derived_order(d, tick_index) == hb_closure(x)


def test_the_certificate_accepts_the_true_table(corpus):
    # a certificate that refused a true table would send `check_order_laws`
    # down its row expansion, quadratic in the events, with the same report
    for d, _ in corpus:
        assert _wires_hold(wire_table(d), step_successors(d))
    for seed in range(20):
        d, _, _ = to_diagram(gen_execution(seed, 8, 100))
        assert _wires_hold(wire_table(d), step_successors(d)), seed


# ---------------------------------------------------------------------------
# planted faults in the wire table


def with_wires(d, wire=(), history=()):
    """A fresh instance of `d` whose wire table is that of `d` with the
    (event number, wire) items of `wire` and the (wire, history) items
    of `history` written over it."""
    fresh = Diagram(d.initial, d.steps)
    table = wire_table(fresh)
    wires, histories = list(table.wire), list(table.history)
    for i, w in wire:
        wires[i] = w
    for w, past in history:
        histories[w] = past
    planted = Wires(tuple(wires), tuple(histories))
    fresh.__dict__["_paths_tables"].__dict__["wires"] = planted
    return fresh


def test_planted_faults_give_the_pair_loop_report(corpus):
    planted = dict.fromkeys(("own bit", "far bit", "near bit", "extra bit", "moved"), 0)
    for d, _ in corpus[:300]:
        table = wire_table(d)
        rows, successors = table.rows(), step_successors(d)
        wire, history = table.wire, table.history

        def plant(kind, **change):
            """The report on `d` with `change` planted, or None when the
            planted table still expands to the true rows."""
            fresh = with_wires(d, **change)
            got = wire_table(fresh)
            if got.rows() == rows:
                return None
            assert not _wires_hold(got, successors), kind
            report = check_order_laws(fresh)
            assert report == reference_order_laws(fresh), kind
            planted[kind] += 1
            return report

        # a wire that does not reach its own head
        w = wire[-1]
        report = plant("own bit", history=[(w, history[w] & ~(1 << w))])
        assert report.reflexivity

        # a wire cleared from a history, though a wire between them is
        # kept: transitivity fails
        for w, past in enumerate(history):
            between = [
                u for v in set_bits(past) if v != w
                for u in set_bits(history[v]) if u != v
            ]
            if between:
                u = between[len(between) // 2]
                report = plant("far bit", history=[(w, past & ~(1 << u))])
                assert report.transitivity and not report.reflexivity
                break

        # the last other wire cleared from a history
        for w, past in enumerate(history):
            near = [u for u in set_bits(past) if u != w]
            if near:
                plant("near bit", history=[(w, past & ~(1 << near[-1]))])
                break

        # an initial wire set into the history of the last event's wire:
        # the certificate fails but not the laws, and the pair loop says so
        w = wire[-1]
        spare = [wire[i] for i in range(len(sites(d.initial)))]
        spare = [u for u in spare if not history[w] >> u & 1]
        if spare:
            report = plant("extra bit", history=[(w, history[w] | 1 << spare[0])])
            assert report.ok and report.pairs > table.pair_count()

        # an event moved onto another wire
        for i in range(len(wire) - 1, -1, -1):
            others = [u for u in range(len(history)) if u != wire[i]]
            if others and plant("moved", wire=[(i, others[len(others) // 2])]):
                break
    assert min(planted.values()) > 100, planted
