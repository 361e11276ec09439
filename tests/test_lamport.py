import gc
import random
import re
import weakref

import pytest
from reference_reads import reference_label_value

from causalweft.clocks import Action, by_name
from causalweft.diagram import (
    Atom,
    Diagram,
    Fork,
    GlobalStep,
    Join,
    Leaf,
    Par,
    PermStep,
    Tick,
    TickRef,
    cut_configs,
    labeling_faults,
    n_sites,
    step_atom_lists,
    step_atoms,
    ticks,
    validate,
)
from causalweft.lamport import (
    CyclicExecutionError,
    Execution,
    _Group,
    _PartPaths,
    _route,
    derived_order,
    execution_from_json,
    execution_from_obj,
    execution_to_obj,
    gen_execution,
    hb_closure,
    to_diagram,
    validate_execution,
)
from causalweft import paths
from causalweft.paths import action_order
from causalweft.serialize import SchemaError, _label_entry, label_value_from_obj
from causalweft.verify import check_clock_condition


def make_execution(processes, messages=(), targets=None):
    actions = {}
    owner = {a: p for p, acts in processes.items() for a in acts}
    for a in owner:
        target = (targets or {}).get(a, owner[a])
        actions[a] = Action(owner[a], target)
    return Execution(processes, frozenset(messages), actions)


PING = make_execution(
    {"p1": ("a1",), "p2": ("a2",)},
    messages=[("a1", "a2")],
    targets={"a1": "p2", "a2": "p1"},
)


def atoms_of(step: GlobalStep) -> list[str]:
    """Kinds of the non-noop atomic actions inside one global step."""
    match step:
        case Par(left, right):
            return atoms_of(left) + atoms_of(right)
        case PermStep(perm):
            return [] if perm.is_identity() else ["perm"]
        case _:
            return [type(step).__name__.lower()]


# ---------------------------------------------------------------------------
# execution validation

def test_duplicate_action_ids_are_rejected():
    x = make_execution({"p1": ("a1",), "p2": ("a1",)})
    assert any("appears twice" in f for f in validate_execution(x))


def test_metadata_must_match_the_actions():
    x = Execution({"p1": ("a1",)}, frozenset(), {})
    assert any("no metadata" in f for f in validate_execution(x))
    x = Execution(
        {"p1": ("a1",)},
        frozenset(),
        {"a1": Action("p1"), "ghost": Action("p1")},
    )
    assert any("unknown action" in f for f in validate_execution(x))


def test_message_endpoints_must_exist_and_cross_processes():
    x = make_execution({"p1": ("a1",)}, messages=[("a1", "a9")])
    assert any("not an action" in f for f in validate_execution(x))
    x = make_execution({"p1": ("a1", "a2")}, messages=[("a1", "a2")])
    assert any("stays on process" in f for f in validate_execution(x))


def test_actions_play_at_most_one_message_role():
    x = make_execution(
        {"p1": ("a1",), "p2": ("a2",), "p3": ("a3",)},
        messages=[("a1", "a2"), ("a2", "a3")],
    )
    assert any("message roles" in f for f in validate_execution(x))


def test_valid_execution_has_no_faults():
    assert validate_execution(PING) == []


# ---------------------------------------------------------------------------
# happens-before

def test_single_process_is_totally_ordered():
    x = make_execution({"p1": ("a1", "a2", "a3")})
    assert hb_closure(x) == frozenset(
        [("a1", "a2"), ("a1", "a3"), ("a2", "a3")]
    )


def test_one_message_orders_its_endpoints():
    assert hb_closure(PING) == frozenset([("a1", "a2")])


def test_cyclic_execution_is_rejected():
    x = make_execution(
        {"p1": ("a1", "a4"), "p2": ("a2", "a3")},
        messages=[("a4", "a2"), ("a3", "a1")],
    )
    with pytest.raises(CyclicExecutionError, match="happens before itself"):
        hb_closure(x)
    with pytest.raises(CyclicExecutionError):
        to_diagram(x)


def test_to_diagram_names_the_action_the_closure_names():
    # the cycle sits behind an acyclic process and a message into it
    x = make_execution(
        {"p1": ("a5", "a1", "a4"), "p2": ("a2", "a3"), "p3": ("a0",)},
        messages=[("a4", "a2"), ("a3", "a1"), ("a0", "a5")],
    )
    with pytest.raises(CyclicExecutionError) as closure:
        hb_closure(x)
    with pytest.raises(CyclicExecutionError) as compiled:
        to_diagram(x)
    assert str(compiled.value) == str(closure.value)
    assert str(compiled.value) == "action 'a1' happens before itself"


def test_invalid_execution_is_rejected_before_closure():
    x = make_execution({"p1": ("a1",), "p2": ("a1",)})
    with pytest.raises(ValueError, match="invalid execution"):
        hb_closure(x)


# ---------------------------------------------------------------------------
# compilation

def test_to_diagram_takes_400_one_action_processes():
    # one site per process, so the configuration nests 400 tensors deep
    wide = make_execution({f"p{i}": (f"a{i}",) for i in range(400)})
    d, lab, index = to_diagram(wide)
    assert n_sites(d.initial) == 400 and len(lab) == len(index) == 400
    assert validate(Diagram(d.initial, d.steps)) == []


def test_internal_actions_compile_to_bare_ticks():
    x = make_execution({"p1": ("a1", "a2")})
    d, lab, tick_index = to_diagram(x)
    assert d.n_steps == 2
    assert all(isinstance(s, Tick) for s in d.steps)
    assert all(n_sites(c) == 1 for c in cut_configs(d))
    assert set(tick_index) == {"a1", "a2"}
    assert lab[tick_index["a1"]] == Action("p1", "p1")


def test_ping_compiles_to_the_factored_form():
    d, lab, tick_index = to_diagram(PING)
    assert validate(Diagram(d.initial, d.steps)) == []
    assert [atoms_of(s) for s in d.steps] == [
        ["tick"],
        ["fork"],
        ["perm"],
        ["join"],
        ["tick"],
    ]
    # the in-flight message occupies its own site between fork and join
    assert max(n_sites(c) for c in cut_configs(d)) == 3
    assert n_sites(d.final) == 2
    assert labeling_faults(d, lab) == []
    assert lab[tick_index["a1"]] == Action("p1", "p2")


def step_kind(step: GlobalStep) -> str:
    """The one kind of atom a compiled step runs beside its holds: p(erm),
    j(oin), t(ick) or f(ork)."""
    kinds = {
        type(atom)
        for _, atom in step_atoms(step)
        if not (isinstance(atom, PermStep) and atom.perm.is_identity())
    }
    assert len(kinds) == 1, kinds
    return {PermStep: "p", Join: "j", Tick: "t", Fork: "f"}[kinds.pop()]


def compile_cases():
    yield "ping", PING
    yield "400 processes", make_execution({f"p{i}": (f"a{i}",) for i in range(400)})
    for seed in range(50):
        yield f"seed {seed}", gen_execution(seed, max_processes=8, max_actions=100)


def test_each_layer_compiles_to_at_most_four_steps():
    layers = 0
    for name, x in compile_cases():
        d, _, tick_index = to_diagram(x)
        # no emitted route is an identity perm
        assert not any(
            isinstance(s, PermStep) and s.perm.is_identity() for s in d.steps
        ), name
        # each layer is perm?, join?, tick, fork? in that order, one tick
        # step per layer
        kinds = "".join(step_kind(s) for s in d.steps)
        assert re.fullmatch("(p?j?tf?)*", kinds), (name, kinds)
        assert len({r.step for r in tick_index.values()}) == kinds.count("t"), name
        assert derived_order(d, tick_index) == hb_closure(x), name
        layers += kinds.count("t")
    assert layers > 1000


def test_the_compiler_keeps_each_steps_atom_list():
    # the kept lists stand in for a walk of each step in `paths` and
    # `ticks`; the same steps without them must give the same tables
    for name, x in compile_cases():
        d, _, tick_index = to_diagram(x)
        kept = d.__dict__["_step_atoms"]
        assert step_atom_lists(d) is kept and len(kept) == d.n_steps, name
        assert all(atoms == step_atoms(step) for atoms, step in zip(kept, d.steps)), name
        walked = Diagram(d.initial, d.steps)
        assert "_step_atoms" not in walked.__dict__
        assert paths.cut_numbers(d) == paths.cut_numbers(walked), name
        assert paths.step_successors(d) == paths.step_successors(walked), name
        assert paths.tick_outputs(d) == paths.tick_outputs(walked), name
        assert ticks(d) == ticks(walked), name
        assert derived_order(d, tick_index) == hb_closure(x), name


def test_every_emitted_perm_is_a_checked_bijection_onto_its_target():
    # the compiler checks each route against its slot maps, not with
    # `perm_from_table`, and keeps an empty fault list; the full checks
    # run here
    xs = [gen_execution(seed, 8, 100) for seed in range(200)]
    xs.append(gen_execution(910, 8, 800))
    assert len(xs[-1].action_ids()) == 797
    routes = 0
    for x in xs:
        d, _, _ = to_diagram(x)
        assert validate(Diagram(d.initial, d.steps)) == []
        perms = {
            id(atom.perm): atom.perm
            for step in d.steps
            for _, atom in step_atoms(step)
            if isinstance(atom, PermStep)
        }
        for perm in perms.values():
            assert perm.faults() == []
            assert perm.pairs == tuple(sorted(perm.pairs))
        routes += sum(isinstance(s, PermStep) for s in d.steps)
    assert routes > 1000


def test_a_bad_route_is_refused():
    A, B = Atom("A"), Atom("B")
    p, m = (("proc", "p"), A), (("msg", ("a1", "a2")), A)
    old = [_Group([p]), _Group([m])]
    parts = _PartPaths()
    with pytest.raises(ValueError, match="^bad permutation: the layouts"):
        _route(old, [_Group([p]), _Group([(("proc", "q"), A)])], parts)
    with pytest.raises(ValueError, match="^bad permutation: the layouts"):
        _route(old, [_Group([p, m]), _Group([m])], parts)
    with pytest.raises(ValueError, match="^bad permutation: slot"):
        _route(old, [_Group([m, (p[0], B)])], parts)
    # with two faults, a missing or repeated slot is named before a
    # changed type
    layouts = "^bad permutation: the layouts do not hold the same slots once each$"
    with pytest.raises(ValueError, match=layouts):
        _route(old, [_Group([(p[0], B)])], parts)
    with pytest.raises(ValueError, match=layouts):
        _route(old, [_Group([(m[0], B), p]), _Group([m])], parts)
    with pytest.raises(ValueError, match=layouts):
        _route(old, [_Group([p]), _Group([m]), _Group([m])], parts)
    with pytest.raises(ValueError, match=layouts):
        _route([_Group([p]), _Group([p])], [_Group([p, m])], parts)
    route = _route(old, [_Group([m, p])], parts)
    assert route.pairs == (("L", "R"), ("R", "L")) and route.faults() == []


def test_ping_round_trips_its_order():
    d, _, tick_index = to_diagram(PING)
    assert derived_order(d, tick_index) == hb_closure(PING)


def test_single_chain_round_trips():
    x = make_execution({"p1": ("a1", "a2", "a3")})
    d, _, tick_index = to_diagram(x)
    assert derived_order(d, tick_index) == hb_closure(x)


def test_three_processes_two_messages_round_trip():
    x = make_execution(
        {"p1": ("a1",), "p2": ("a2", "a3"), "p3": ("a4",)},
        messages=[("a1", "a2"), ("a3", "a4")],
        targets={"a1": "p2", "a2": "p1", "a3": "p3", "a4": "p2"},
    )
    d, _, tick_index = to_diagram(x)
    order = derived_order(d, tick_index)
    assert order == hb_closure(x)
    assert ("a1", "a4") in order  # ordered only through the relay


def test_unrelated_actions_stay_concurrent():
    x = make_execution({"p1": ("a1",), "p2": ("a2",)})
    d, _, tick_index = to_diagram(x)
    assert derived_order(d, tick_index) == frozenset()


def test_compiled_diagrams_satisfy_the_clock_condition():
    clock = by_name("wb")
    d, lab, _ = to_diagram(PING)
    report = check_clock_condition(d, lab, clock)
    assert report.ok


def test_no_cache_keeps_a_queried_diagram_alive():
    d, _, tick_index = to_diagram(gen_execution(3, max_actions=20))
    assert derived_order(d, tick_index)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_execution_needs_a_process():
    with pytest.raises(ValueError, match="at least one process"):
        to_diagram(Execution({}, frozenset(), {}))


def test_generated_executions_round_trip():
    for seed in range(100):
        x = gen_execution(seed)
        assert validate_execution(x) == []
        hb = hb_closure(x)  # acyclic by construction
        if not x.processes:
            continue
        d, lab, tick_index = to_diagram(x)
        assert validate(Diagram(d.initial, d.steps)) == []
        assert labeling_faults(d, lab) == []
        assert set(tick_index) == set(x.action_ids())
        assert derived_order(d, tick_index) == hb


def test_final_sites_count_processes_and_undelivered_messages():
    for seed in range(60):
        x = gen_execution(seed, message_rate=0.8)
        if not x.processes:
            continue
        d, _, _ = to_diagram(x)
        delivered = len(x.messages)  # every generated message is received
        assert n_sites(d.final) == len(x.processes) + len(x.messages) - delivered


def test_gen_execution_is_deterministic():
    assert gen_execution(42) == gen_execution(42)
    assert execution_to_obj(gen_execution(42)) == execution_to_obj(gen_execution(42))


# ---------------------------------------------------------------------------
# derived_order reads the closure rows


def pairwise_order(d, tick_index):
    """Reference: one `action_order` query per ordered pair of ids."""
    ids = sorted(tick_index)
    return frozenset(
        (a, b)
        for a in ids
        for b in ids
        if a != b and action_order(d, tick_index[a], tick_index[b])
    )


def test_derived_order_matches_pairwise_queries_on_generated_executions():
    for seed in range(200):
        x = gen_execution(seed)
        if not x.processes:
            continue
        d, _, tick_index = to_diagram(x)
        order = derived_order(d, tick_index)
        assert order == pairwise_order(d, tick_index), seed
        assert order == hb_closure(x), seed


def test_derived_order_matches_pairwise_queries_on_corpus_diagrams(small_corpus):
    twin_pairs = 0
    for d, _ in small_corpus:
        refs = ticks(d)
        if not refs:
            continue
        tick_index = {f"t{i:03d}": r for i, r in enumerate(refs)}
        # a second id on the last tick, sorting right after the first
        twin = f"t{len(refs) - 1:03d}+"
        tick_index[twin] = refs[-1]
        order = derived_order(d, tick_index)
        assert order == pairwise_order(d, tick_index)
        twin_pairs += sum(b == twin for _, b in order)
        assert derived_order(d, {"only": refs[0]}) == frozenset()
    # some tick precedes a shared one, so both of its ids must be reached
    assert twin_pairs > 0


def test_derived_order_raises_for_the_first_bad_id_in_sorted_order():
    d, _, tick_index = to_diagram(PING)
    fork, out_of_range = TickRef(1, "L"), TickRef(5, "L")
    cases = [
        ({**tick_index, "a3": fork, "a4": out_of_range},
         "TickRef(step=1, path='L') names a Fork, not a tick"),
        ({**tick_index, "a0": out_of_range, "a3": fork},
         "step 5 out of range 0..4"),
    ]
    for index, text in cases:
        for order in (derived_order, pairwise_order):
            with pytest.raises(ValueError) as err:
                order(d, index)
            assert str(err.value) == text
    # a single id is resolved too, though it has no pair
    with pytest.raises(ValueError) as err:
        derived_order(d, {"a9": fork})
    assert str(err.value) == "TickRef(step=1, path='L') names a Fork, not a tick"
    # both refs of a pair are checked before an ill-typed diagram's
    # tables raise (the join reads L and R, which cut 1 lacks)
    A = Atom("A")
    ill_typed = Diagram(Leaf(A), (Tick(A, A), Join(A, A)))
    index = {"a": TickRef(0, ""), "b": TickRef(1, "")}
    for order in (derived_order, pairwise_order):
        with pytest.raises(ValueError) as err:
            order(ill_typed, index)
        assert str(err.value) == "TickRef(step=1, path='') names a Join, not a tick"


def counted_tick_at(monkeypatch):
    """The refs `paths` walks with `tick_at` from now on, in call order."""
    calls, tick_at = [], paths.tick_at

    def counting_tick_at(d, ref):
        calls.append(ref)
        return tick_at(d, ref)

    monkeypatch.setattr(paths, "tick_at", counting_tick_at)
    return calls


def test_derived_order_resolves_each_tick_once(monkeypatch):
    x = gen_execution(910, max_processes=8, max_actions=800)
    assert (len(x.processes), len(x.action_ids())) == (8, 797)
    d, _, tick_index = to_diagram(x)
    calls = counted_tick_at(monkeypatch)
    # every ref names a tick output of the tables, so none is walked
    assert derived_order(d, tick_index) == hb_closure(x)
    assert calls == []
    # any other ref is walked once, and the first to fail raises
    d, _, tick_index = to_diagram(PING)
    fork, out_of_range = TickRef(1, "L"), TickRef(5, "L")
    with pytest.raises(ValueError, match="names a Fork"):
        derived_order(d, {**tick_index, "a3": fork, "a4": out_of_range})
    assert calls == [fork]
    # when the tables cannot be built, each ref is walked once, in order
    A = Atom("A")
    ill_typed = Diagram(Leaf(A), (Tick(A, A), Tick(A, A), Join(A, A)))
    index = {"a": TickRef(0, ""), "b": TickRef(1, "")}
    calls.clear()
    message = "step 2 at .: step expects ([A] * [A]), found [A]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        derived_order(ill_typed, index)
    assert calls == [TickRef(0, ""), TickRef(1, "")]


# refs that may name no tick: each is walked, once per diagram
ODD_REFS = [
    TickRef(1, "L"),
    TickRef(5, "L"),
    TickRef(-1, ""),
    TickRef(0, "LL"),
    TickRef(0, "X"),
    TickRef(True, ""),
    TickRef(0, 7),
]


def test_a_diagram_built_in_code_orders_and_fails_as_its_compiled_twin(monkeypatch):
    # the twin has the same steps and no kept atom lists, so its tables
    # come from a walk of each step
    calls = counted_tick_at(monkeypatch)

    def outcome(d, tick_index):
        try:
            return derived_order(d, tick_index)
        except (ValueError, AttributeError) as err:
            return type(err), str(err)

    raised = dict.fromkeys(ODD_REFS, 0)
    for name, x in [("ping", PING)] + [
        (f"seed {seed}", gen_execution(seed, max_processes=4, max_actions=20))
        for seed in range(30)
    ]:
        d, _, tick_index = to_diagram(x)
        twin = Diagram(d.initial, d.steps)
        assert "_step_atoms" not in twin.__dict__
        order = derived_order(twin, tick_index)
        assert order == derived_order(d, tick_index) == hb_closure(x), name
        assert calls == [], name
        if len(tick_index) < 2:
            continue
        first = min(tick_index)
        for odd in ODD_REFS:
            index = {**tick_index, first: odd}
            got = outcome(d, index)
            assert outcome(twin, index) == got, (name, odd)
            assert len(calls) <= 2 and all(r is odd for r in calls), (name, odd)
            raised[odd] += isinstance(got, tuple)
            calls.clear()
    assert all(raised.values()), raised


# ---------------------------------------------------------------------------
# execution JSON

def test_execution_round_trip():
    obj = execution_to_obj(PING)
    assert obj["processes"] == {"p1": ["a1"], "p2": ["a2"]}
    assert obj["messages"] == [["a1", "a2"]]
    assert execution_from_obj(obj) == PING


def test_execution_json_errors():
    with pytest.raises(SchemaError, match="not JSON"):
        execution_from_json("{")
    with pytest.raises(SchemaError, match="lacks 'messages'"):
        execution_from_obj({"processes": {}, "actions": {}})
    with pytest.raises(SchemaError, match="list of action ids"):
        execution_from_obj({"processes": {"p1": "a1"}, "messages": [], "actions": {}})
    with pytest.raises(SchemaError, match="pair"):
        execution_from_obj(
            {"processes": {"p1": ["a1"]}, "messages": [["a1"]], "actions": {}}
        )
    with pytest.raises(SchemaError, match="pair of action ids"):
        execution_from_obj(
            {"processes": {"p1": ["a1"]}, "messages": [["a1", 2]], "actions": {}}
        )
    with pytest.raises(SchemaError, match="needs an actor"):
        execution_from_obj(
            {"processes": {"p1": ["a1"]}, "messages": [], "actions": {"a1": {}}}
        )


def random_action_meta(rng):
    """An action's metadata: mostly objects with an actor, of every kind
    of actor and target JSON has, sometimes with a key too many, and
    sometimes no object at all."""
    scalars = ["p1", "", "é", 0, 7, -3, True, False, None, 1.5, [], ["p"], {}]
    if rng.random() < 0.1:
        return rng.choice(scalars + [[{"actor": "p1"}], {"target": "p1"}])
    meta = {"actor": rng.choice(scalars)}
    if rng.random() < 0.7:
        meta["target"] = rng.choice(scalars)
    if rng.random() < 0.15:
        meta[rng.choice(["note", "Actor", "targets"])] = rng.choice(scalars)
    return meta


def test_the_one_pass_action_read_agrees_with_label_value_from_obj():
    # `label_value_from_obj` reads the common action shape in one pass
    # and hands any other to the ordered checks; label entries and
    # `execution_from_obj` read actions through it, and all three agree
    # with the ordered checks alone
    rng = random.Random(17)

    class Refused(str):
        pass

    def read(f, *args):
        try:
            return f(*args)
        except SchemaError as err:
            return Refused(err)

    kinds = set()
    for _ in range(2000):
        meta = random_action_meta(rng)
        label = read(reference_label_value, meta)
        value = read(label_value_from_obj, meta)
        assert type(value) is type(label) and value == label, meta
        entry = read(_label_entry, {"step": 0, "path": "L", "value": meta})
        if isinstance(label, Refused):
            assert type(entry) is Refused and entry == label, meta
        else:
            assert entry == (TickRef(0, "L"), label), meta
        want = label
        if not isinstance(label, (Action, Refused)):
            want = Refused(f"action 'a1' needs an actor, got {meta!r}")
        doc = {"processes": {"p1": ["a1"]}, "messages": [], "actions": {"a1": meta}}
        got = read(lambda: execution_from_obj(doc).actions["a1"])
        assert type(got) is type(want) and got == want, meta
        if isinstance(want, Action):
            # == takes 1 for True: compare the field types too
            types = type(want.actor), type(want.target)
            assert (type(got.actor), type(got.target)) == types, meta
            assert (type(value.actor), type(value.target)) == types, meta
            assert (type(entry[1].actor), type(entry[1].target)) == types, meta
        kinds.add("action" if isinstance(want, Action) else want[:24])
    # actions, and each of the four refusals
    assert len(kinds) == 5, kinds
