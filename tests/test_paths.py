import random
import re

import pytest

from causalweft.diagram import (
    Atom,
    CompositionError,
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
    TickRef,
    identity,
    noop,
    perm_id,
    perm_swap,
    site_types,
    sites,
    subconfig,
    ticks,
    validate,
)
from causalweft.paths import (
    Event,
    PathWitness,
    action_order,
    causal_paths,
    causally_ordered,
    check_event,
    compose_witness,
    event_order_pairs,
    events,
    span_count,
    span_enumerate,
    span_reachable,
    step_relation,
    step_successors,
    tick_events,
    set_bits,
    tick_numbers,
    witness_valid,
)

from causalweft.clocks import Action, clock_at, event_stamps, vector_clock, zero_valuation
from causalweft.lamport import derived_order
from causalweft.render import to_dot
from causalweft.verify import GenParams, check_order_laws, gen_diagram

A, B, C = Atom("A"), Atom("B"), Atom("C")


# ---------------------------------------------------------------------------
# events

def test_events_enumeration(message_flow):
    d, _ = message_flow
    evs = events(d)
    assert evs[:2] == (Event(0, "L"), Event(0, "R"))
    assert Event(1, "RR") in evs
    assert Event(3, "L") in evs
    assert len(evs) == 2 + 3 + 3 + 2
    assert list(evs) == sorted(evs)
    assert events(d) is evs  # one tuple per diagram, kept with its tables


def test_check_event_rejects_bad_coordinates(message_flow):
    d, _ = message_flow
    assert [check_event(d, e) for e in events(d)] == list(range(len(events(d))))
    with pytest.raises(ValueError):
        check_event(d, Event(4, "L"))
    with pytest.raises(ValueError):
        check_event(d, Event(0, "LL"))


def test_a_cut_that_is_not_an_int_is_refused():
    # a bool would index as 0 or 1 and a float would not index at all
    d = Diagram(Leaf(Prod(A, A)), (Fork(A, A),))
    c = vector_clock()
    v = zero_valuation(c, d.initial)
    for cut in (True, 1.0, "1"):
        message = f"^{re.escape(f'cut {cut!r} is not an int')}$"
        for query in (
            lambda: causally_ordered(d, Event(cut, "L"), Event(1, "L")),
            lambda: causally_ordered(d, Event(0, ""), Event(cut, "L")),
            lambda: clock_at(d, {}, c, v, Event(cut, "L")),
            lambda: event_stamps(d, {}, c, v, cut),
        ):
            with pytest.raises(ValueError, match=message):
                query()
    assert causally_ordered(d, Event(0, ""), Event(1, "L"))
    assert event_stamps(d, {}, c, v, 1) == event_stamps(d, {}, c, v)


def test_an_ill_typed_diagram_gets_no_order():
    # the join reads L and R, but cut 0 holds only the root site
    d = Diagram(Leaf(A), (Join(A, A),))
    queries = (
        lambda: check_order_laws(d),
        lambda: causally_ordered(d, Event(0, ""), Event(1, "")),
        lambda: step_successors(d),
        lambda: to_dot(d),
    )
    missing = "step 0 at .: step expects ([A] * [A]), found [A]"
    for query in queries:
        with pytest.raises(ValueError, match=f"^{re.escape(missing)}$"):
            query()
    # perms built directly: one leaves R unread, one sends it off the tree
    pair = Tensor(Leaf(A), Leaf(A))
    for pairs, message in (
        ((("L", "L"),), "step 1 at .: source site 'R' unmapped"),
        ((("L", "L"), ("R", "RR")), "step 1 at .: target site 'R' not hit"),
    ):
        d = Diagram(pair, (noop(pair), PermStep(Perm(pair, pair, pairs))))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            events(d)


def test_a_fault_of_types_alone_gets_no_order():
    # every site is read once; only the tick's input type is wrong
    d = Diagram(Leaf(A), (Tick(B, B),))
    message = "step 0 at .: step expects [B], found [A]"
    assert [str(f) for f in validate(Diagram(d.initial, d.steps))] == [message]
    c = vector_clock()
    for query in (
        lambda: causally_ordered(d, Event(0, ""), Event(1, "")),
        lambda: event_stamps(d, {}, c, zero_valuation(c, d.initial)),
        lambda: to_dot(d),
        lambda: check_order_laws(d),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query()


def test_a_perm_that_sends_a_site_twice_gets_no_order():
    # built in code: L goes to both L and R, so keeping one successor
    # would drop (0:L, 1:L) or (0:L, 1:R) from the order without a word
    pair = Tensor(Leaf(A), Leaf(A))
    twice = Perm(pair, pair, (("L", "L"), ("L", "R"), ("R", "L")))
    d = Diagram(pair, (PermStep(twice),))
    message = "step 0 at .: source site 'L' mapped twice"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        event_order_pairs(d)


@pytest.mark.parametrize(
    "target, pairs, message",
    [
        # L and R both land on L, so nothing lands on R
        ("pair", (("L", "L"), ("R", "L")), "step 1 at .: target site 'L' hit twice (not injective)"),
        # a wider target: every pair lands once, but LR is never hit
        ("wide", (("L", "LL"), ("R", "R")), "step 1 at .: target site 'LR' not hit"),
    ],
    ids=["pair", "wide"],
)
def test_a_perm_that_misses_a_target_site_gets_no_order(target, pairs, message):
    pair = Tensor(Leaf(A), Leaf(A))
    wide = Tensor(pair, Leaf(A))
    bad = Perm(pair, {"pair": pair, "wide": wide}[target], pairs)
    d = Diagram(pair, (noop(pair), PermStep(bad), noop(bad.target)))
    for query in (
        lambda: events(d),
        lambda: event_order_pairs(d),
        lambda: to_dot(d),
        lambda: check_order_laws(d),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query()


def test_a_shared_perm_is_checked_where_it_first_runs():
    pair = Tensor(Leaf(A), Leaf(A))
    bad = PermStep(Perm(pair, pair, (("L", "L"), ("R", "L"))))
    d = Diagram(Tensor(pair, pair), (Par(noop(pair), bad), Par(bad, bad)))
    message = "step 0 at R: target site 'L' hit twice (not injective)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        events(d)


def _mirror(config, path, atom):
    """A step over `config` that holds every site idle, except that the
    node at `path` is replaced by `atom`."""
    if path == "":
        return atom
    if path[0] == "L":
        return Par(_mirror(config.left, path[1:], atom), noop(config.right))
    return Par(noop(config.left), _mirror(config.right, path[1:], atom))


def _mutated_diagram(seed: int, rng: random.Random) -> Diagram:
    """A generated diagram plus one random tick, fork, join or perm step
    at a random node of its final configuration. Types are drawn from
    those in play, so the step is sometimes well-typed; a perm's pairs
    may be dropped, repeated or misrouted."""
    d, _ = gen_diagram(GenParams(seed=seed, max_steps=4, max_sites=4))
    final = d.final
    nodes = [""] + [s[:i] for s in sites(final) for i in range(1, len(s) + 1)]
    path = rng.choice(sorted(set(nodes)))
    node = subconfig(final, path)
    types = sorted(set(site_types(final).values()), key=str) + [A, Prod(A, B)]
    kind = rng.choice(("tick", "fork", "join", "perm"))
    if kind == "tick":
        atom = Tick(rng.choice(types), rng.choice(types))
    elif kind == "fork":
        ty = node.ty if isinstance(node, Leaf) and rng.random() < 0.7 else rng.choice(types)
        atom = Fork(ty.left, ty.right) if isinstance(ty, Prod) else Fork(ty, ty)
    elif kind == "join":
        atom = Join(rng.choice(types), rng.choice(types))
    else:
        target = rng.choice([node, Tensor(node, Leaf(A)), Tensor(Leaf(A), node)])
        targets = list(sites(target))
        rng.shuffle(targets)
        pairs = list(zip(sites(node), targets))
        i, flaw = rng.randrange(len(pairs)), rng.randrange(7)
        if flaw == 0 and len(pairs) > 1:  # drop a pair
            del pairs[i]
        elif flaw == 1:  # repeat a target
            pairs[i] = (pairs[i][0], rng.choice(targets))
        elif flaw == 2:  # repeat a source
            pairs.append((pairs[i][0], rng.choice(targets)))
        elif flaw == 3:  # misroute a target off the tree
            pairs[i] = (pairs[i][0], pairs[i][1] + rng.choice("LR"))
        elif flaw == 4:  # a source the node lacks
            pairs[i] = (pairs[i][0] + rng.choice("LR"), pairs[i][1])
        atom = PermStep(Perm(node, target, tuple(sorted(pairs))))
    step = _mirror(final, path, atom)
    return Diagram(d.initial, d.steps + (step,))


def test_the_tables_refuse_an_ill_typed_diagram_in_validates_words():
    # every diagram `validate` faults, on site or on type, is refused by
    # each table query with its first fault; every other one builds its
    # tables. The queries run before `d` itself is validated.
    rng = random.Random(21)
    refused = accepted = 0
    for seed in range(1500):
        d = _mutated_diagram(seed, rng)
        faults = validate(Diagram(d.initial, d.steps))
        if not faults:
            step_successors(d)
            accepted += 1
            continue
        message = str(faults[0])
        c = vector_clock()
        lab = {r: Action("p") for r in ticks(d)}
        for query in (
            lambda: events(d),
            lambda: step_successors(d),
            lambda: causally_ordered(d, Event(0, ""), Event(0, "")),
            lambda: event_stamps(d, lab, c, zero_valuation(c, d.initial)),
        ):
            with pytest.raises(ValueError) as info:
                query()
            assert str(info.value) == message
        refused += 1
    assert refused > 1000 and accepted > 200


def test_event_str():
    assert str(Event(2, "RL")) == "2:RL"
    assert str(Event(0, "")) == "0:."


# ---------------------------------------------------------------------------
# one-step connectivity

def test_step_relation_atoms():
    assert step_relation(Tick(A, B)) == {("", "")}
    assert step_relation(Fork(A, B)) == {("", "L"), ("", "R")}
    assert step_relation(Join(A, B)) == {("L", ""), ("R", "")}
    assert step_relation(PermStep(perm_swap(Leaf(A), Leaf(B)))) == {
        ("L", "R"),
        ("R", "L"),
    }


def test_step_relation_par_tick_join():
    step = Par(Tick(A, A), Join(B, C))
    assert step_relation(step) == {("L", "L"), ("RL", "R"), ("RR", "R")}


def test_step_relation_pairs_are_live_endpoints():
    # every related pair really is an input site and an output site,
    # and every related pair can be walked as a one-step witness
    step = Par(Par(Tick(A, A), Fork(B, C)), PermStep(perm_swap(Leaf(A), Leaf(B))))
    d = Diagram(
        Tensor(Tensor(Leaf(A), Leaf(Prod(B, C))), Tensor(Leaf(A), Leaf(B))),
        (step,),
    )
    ins, outs = sites(d.initial), sites(d.final)
    for a, b in step_relation(step):
        assert a in ins and b in outs
        assert witness_valid(d, PathWitness(0, (a, b)))


def test_par_relation_stays_in_its_factor(small_corpus):
    for d, _ in small_corpus:
        for step in d.steps:
            if isinstance(step, Par):
                for a, b in step_relation(step):
                    assert a[:1] == b[:1]


# ---------------------------------------------------------------------------
# witnesses

def test_witness_shape():
    w = PathWitness(1, ("L", "R", ""))
    assert w.end == 3
    assert w.events() == (Event(1, "L"), Event(2, "R"), Event(3, ""))
    assert str(w) == "1:L -> 2:R -> 3:."
    with pytest.raises(ValueError):
        PathWitness(0, ())


def test_witness_valid_checks_every_hop(diamond):
    d, _ = diamond
    assert witness_valid(d, PathWitness(0, ("", "L", "L", "")))
    assert witness_valid(d, PathWitness(1, ("R", "R")))
    assert not witness_valid(d, PathWitness(0, ("", "L", "R", "")))  # jumps lanes
    assert not witness_valid(d, PathWitness(0, ("", "X")))
    assert not witness_valid(d, PathWitness(3, ("", "")))  # runs off the end


def test_compose_with_unit_is_unchanged():
    w = PathWitness(0, ("", "L"))
    unit_left = PathWitness(0, ("",))
    unit_right = PathWitness(1, ("L",))
    assert compose_witness(unit_left, w) == w
    assert compose_witness(w, unit_right) == w


def test_compose_two_hops():
    w1 = PathWitness(0, ("", "L"))
    w2 = PathWitness(1, ("L", ""))
    assert compose_witness(w1, w2) == PathWitness(0, ("", "L", ""))
    with pytest.raises(CompositionError):
        compose_witness(w1, PathWitness(1, ("R", "")))
    with pytest.raises(CompositionError):
        compose_witness(w1, PathWitness(2, ("L", "")))


def test_compose_is_associative_on_generated_chains(small_corpus):
    rng = random.Random(7)
    checked = 0
    for d, _ in small_corpus:
        if d.n_steps < 3:
            continue
        evs = events(d)
        e1 = rng.choice([e for e in evs if e.cut == 0])
        mids = [e for e in evs if 0 < e.cut < d.n_steps]
        e2 = rng.choice(mids)
        ends = [e for e in evs if e.cut == d.n_steps]
        e3 = rng.choice(ends)
        w1 = next(causal_paths(d, e1, e2), None)
        w2 = next(causal_paths(d, e2, e3), None)
        if w1 is None or w2 is None:
            continue
        # split w1 at its midpoint to get a genuine triple
        k = len(w1.trajectory) // 2
        a = PathWitness(w1.start, w1.trajectory[: k + 1])
        b = PathWitness(w1.start + k, w1.trajectory[k:])
        left = compose_witness(compose_witness(a, b), w2)
        right = compose_witness(a, compose_witness(b, w2))
        assert left == right
        assert witness_valid(d, left)
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# spanning queries

def test_identity_spans_are_diagonal():
    d = identity(Tensor(Leaf(A), Leaf(B)))
    assert span_reachable(d, "L", "L")
    assert not span_reachable(d, "L", "R")
    assert list(span_enumerate(d, "L", "L")) == [PathWitness(0, ("L",))]
    assert span_count(d, "L", "R") == 0


def test_span_rejects_unknown_sites(diamond):
    # cut 0 and cut 3 of the diamond hold only the root site
    d, _ = diamond
    for query in (span_reachable, span_count, lambda *a: list(span_enumerate(*a))):
        with pytest.raises(ValueError, match="^'L' is not a site at cut 0$"):
            query(d, "L", "")
        with pytest.raises(ValueError, match="^'R' is not a site at cut 3$"):
            query(d, "", "R")


def test_diamond_has_two_trajectories(diamond):
    d, _ = diamond
    assert span_count(d, "", "") == 2
    found = list(span_enumerate(d, "", ""))
    assert found == [
        PathWitness(0, ("", "L", "L", "")),
        PathWitness(0, ("", "R", "R", "")),
    ]


def test_enumeration_is_lexicographic(small_corpus):
    for d, _ in small_corpus[:60]:
        for s1 in sites(d.initial):
            for s2 in sites(d.final):
                trajs = [w.trajectory for w in span_enumerate(d, s1, s2)]
                assert trajs == sorted(trajs)
                assert len(set(trajs)) == len(trajs)


def test_span_count_matches_enumeration(small_corpus):
    for d, _ in small_corpus:
        for s1 in sites(d.initial):
            for s2 in sites(d.final):
                n = span_count(d, s1, s2)
                if n <= 10_000:
                    assert n == sum(1 for _ in span_enumerate(d, s1, s2))


def test_payload_site_lands_only_on_the_right(message_flow):
    # the forked-off payload site (cut 1, RR) flows to the final right
    # site and nowhere else
    d, _ = message_flow
    src = Event(1, "RR")
    assert causally_ordered(d, src, Event(3, "R"))
    assert not causally_ordered(d, src, Event(3, "L"))
    assert len(list(causal_paths(d, src, Event(3, "R")))) == 1


def test_message_flow_boundary_spans(message_flow):
    d, _ = message_flow
    reach = {
        (s1, s2)
        for s1 in sites(d.initial)
        for s2 in sites(d.final)
        if span_reachable(d, s1, s2)
    }
    assert reach == {("L", "L"), ("R", "L"), ("R", "R")}


# ---------------------------------------------------------------------------
# causal order

def test_order_is_reflexive_with_one_unit_witness(message_flow, diamond):
    for d, _ in (message_flow, diamond):
        for e in events(d):
            assert causally_ordered(d, e, e)
            assert list(causal_paths(d, e, e)) == [
                PathWitness(e.cut, (e.site,))
            ]


def test_no_order_backward_in_time(diamond):
    d, _ = diamond
    assert not causally_ordered(d, Event(2, "L"), Event(1, "L"))
    assert list(causal_paths(d, Event(2, "L"), Event(1, "L"))) == []


def test_diamond_endpoints_have_two_witnesses(diamond):
    d, _ = diamond
    found = list(causal_paths(d, Event(0, ""), Event(3, "")))
    assert len(found) == 2
    assert span_count(d, "", "") == len(found)


def test_event_order_pairs_agrees_with_pointwise_queries(message_flow, diamond):
    for d, _ in (message_flow, diamond):
        evs = events(d)
        pairs = {
            (e1, e2)
            for e1 in evs
            for e2 in evs
            if causally_ordered(d, e1, e2)
        }
        assert event_order_pairs(d) == pairs


# ---------------------------------------------------------------------------
# ticks as events

def test_tick_events_of_a_lone_tick():
    d = Diagram(Leaf(A), (Tick(A, B),))
    assert tick_events(d, TickRef(0, "")) == (Event(0, ""), Event(1, ""))


def test_tick_events_follow_tree_position():
    d = Diagram(Tensor(Leaf(A), Leaf(B)), (Par(Tick(A, A), noop(Leaf(B))),))
    assert tick_events(d, TickRef(0, "L")) == (Event(0, "L"), Event(1, "L"))


def test_tick_events_use_step_index(two_tick):
    d3 = Diagram(Leaf(A), (Tick(A, A), Tick(A, A), Tick(A, A)))
    assert tick_events(d3, TickRef(2, "")) == (Event(2, ""), Event(3, ""))


def test_tick_refs_with_other_path_characters_are_refused():
    # the tree walk reads any character but L as R, so "X" would name the
    # right tick at a site that no cut has
    d = Diagram(Tensor(Leaf(A), Leaf(A)), (Par(Tick(A, A), Tick(A, A)),))
    bad, good = TickRef(0, "X"), TickRef(0, "L")
    message = "^" + re.escape(f"{bad}: path contains 'X', expected L or R") + "$"
    with pytest.raises(ValueError, match=message):
        tick_events(d, bad)
    with pytest.raises(ValueError, match=message):
        action_order(d, bad, good)
    with pytest.raises(ValueError, match=message):
        tick_numbers(d, [good, bad])
    with pytest.raises(ValueError, match=message):
        derived_order(d, {"a": good, "b": bad})
    # the first character that is not L or R is named
    with pytest.raises(ValueError, match="contains 'Q', expected L or R$"):
        tick_events(d, TickRef(0, "LQRX"))
    assert tick_events(d, TickRef(0, "R")) == (Event(0, "R"), Event(1, "R"))


def test_tick_refs_of_other_field_types_are_refused():
    # a non-string path or a non-int step would fail inside the walk, and
    # a bool step would read as 0 or 1
    d = Diagram(Tensor(Leaf(A), Leaf(A)), (Par(Tick(A, A), Tick(A, A)),))
    good = TickRef(0, "L")
    for bad in (TickRef(0, 7), TickRef(0, None), TickRef("0", ""), TickRef(True, "L")):
        message = "^" + re.escape(f"{bad}: step must be an int and path a string") + "$"
        with pytest.raises(ValueError, match=message):
            tick_events(d, bad)
        with pytest.raises(ValueError, match=message):
            action_order(d, good, bad)
        with pytest.raises(ValueError, match=message):
            derived_order(d, {"a": good, "b": bad})


def test_a_lone_bad_tick_ref_is_refused():
    # one ref alone is resolved as a ref beside others is
    d = Diagram(Tensor(Leaf(A), Leaf(A)), (Par(Tick(A, A), Tick(A, A)),))
    for bad in (TickRef(99, "X"), TickRef(0, "X"), TickRef(0, 7), TickRef(1, "L")):
        with pytest.raises(ValueError) as want:
            tick_events(d, bad)
        with pytest.raises(ValueError) as got:
            derived_order(d, {"a": bad})
        assert str(got.value) == str(want.value)
    assert derived_order(d, {}) == frozenset()
    assert derived_order(d, {"a": TickRef(0, "L")}) == frozenset()


def test_action_order_is_irreflexive(small_corpus, two_tick):
    from causalweft.diagram import ticks

    d, _ = two_tick
    for r in ticks(d):
        assert not action_order(d, r, r)
    for d, _ in small_corpus[:60]:
        for r in ticks(d):
            assert not action_order(d, r, r)


def test_sequential_ticks_are_ordered(two_tick):
    d, _ = two_tick
    r1, r2 = TickRef(0, ""), TickRef(1, "")
    assert action_order(d, r1, r2)
    assert not action_order(d, r2, r1)


def test_parallel_ticks_are_concurrent(diamond):
    d, _ = diamond
    r1, r2 = TickRef(1, "L"), TickRef(1, "R")
    assert not action_order(d, r1, r2)
    assert not action_order(d, r2, r1)


def _low_bit_loop(row):
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def test_set_bits_agrees_with_the_low_bit_loop_up_to_40000_bits():
    # zero, then a single bit and sparse, random and dense rows at widths
    # up to 5,000 bits in steps of 43, and at a few up to 40,000
    rng = random.Random(3)
    widths = [*range(0, 5001, 43), 1, 2, 64, 1023, 1024, 1025, 5000, 40000]
    widths += [rng.randrange(40001) for _ in range(8)]
    for width in widths:
        rows = [rng.getrandbits(width), (1 << width) - 1]
        if width:
            rows += [1 << (width - 1), sum(1 << rng.randrange(width) for _ in range(5))]
        for row in rows:
            assert list(set_bits(row)) == _low_bit_loop(row), (width, row.bit_count())


def test_idle_holds_number_their_site_as_the_general_perm_read_does():
    # a hold on a leaf is taken as a tick is; a perm with the hold's one
    # pair whose target is not a leaf still fails as a perm
    d = Diagram(Tensor(Leaf(A), Leaf(B)), (Par(noop(Leaf(A)), Tick(B, B)), noop(Tensor(Leaf(A), Leaf(B)))))
    assert step_successors(d) == ((2,), (3,), (4,), (5,), (), ())
    bad = PermStep(Perm(Leaf(A), Tensor(Leaf(A), Leaf(A)), (("", ""),)))
    message = "step 0 at .: target site 'L' not hit"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        events(Diagram(Leaf(A), (bad,)))
    assert perm_id(Leaf(A)).pairs == (("", ""),)
