import gc
import sys
import weakref
from dataclasses import fields, is_dataclass

import pytest
from test_golden import compiled_executions

from causalweft import diagram
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
    before,
    cut_config,
    cut_configs,
    during,
    identity,
    is_valid,
    labeling_faults,
    n_sites,
    noop,
    par,
    par_compose,
    perm_assoc,
    perm_from_table,
    perm_id,
    perm_swap,
    restrict_labeling,
    seq_concat,
    seq_extend,
    site_type,
    site_types,
    sites,
    step_atoms,
    step_input,
    step_output,
    subconfig,
    tensor,
    tick_at,
    tick_labels,
    ticks,
    validate,
)
from causalweft.clocks import Action
from causalweft.lamport import to_diagram
from causalweft.paths import cut_numbers, step_relation, step_successors
from causalweft.render import render

A, B, C = Atom("A"), Atom("B"), Atom("C")


# ---------------------------------------------------------------------------
# types and configurations

def test_type_rendering():
    assert str(Prod(A, B)) == "(A x B)"
    assert str(Leaf(Prod(A, B))) == "[(A x B)]"
    assert str(Tensor(Leaf(A), Leaf(B))) == "([A] * [B])"


def test_atom_name_must_be_nonempty():
    with pytest.raises(ValueError):
        Atom("")


def test_sites_left_to_right():
    cfg = Tensor(Tensor(Leaf(A), Leaf(B)), Leaf(C))
    assert sites(cfg) == ("LL", "LR", "R")
    assert n_sites(cfg) == 3
    assert sites(Leaf(A)) == ("",)

    # the site table's walk takes exact classes, as the step walks do,
    # and a tree it refuses keeps no table
    class Spot(Leaf):
        pass

    for bad in (Tensor(Leaf(A), Tick(A, A)), Tensor(Leaf(A), Spot(A))):
        with pytest.raises(TypeError, match=r"^not a configuration: \S*(Tick|Spot)\("):
            sites(bad)
        assert "_site_types" not in bad.__dict__


def test_sites_are_lexicographically_ordered():
    # no site is a prefix of another, so string order is leaf order
    cfg = Tensor(Leaf(A), Tensor(Tensor(Leaf(B), Leaf(C)), Leaf(A)))
    assert list(sites(cfg)) == sorted(sites(cfg))


def test_subconfig_and_site_type():
    cfg = Tensor(Leaf(A), Tensor(Leaf(B), Leaf(C)))
    assert subconfig(cfg, "R") == Tensor(Leaf(B), Leaf(C))
    assert site_type(cfg, "RL") == B
    with pytest.raises(ValueError):
        subconfig(cfg, "RLL")  # walks off a leaf
    with pytest.raises(ValueError):
        subconfig(cfg, "X")
    with pytest.raises(ValueError):
        site_type(cfg, "R")  # not a leaf


def test_site_table_is_built_once_and_freed_with_its_configuration():
    cfg = tensor([Leaf(A), Leaf(Prod(A, B)), Leaf(C)])
    table = site_types(cfg)
    assert table == {"LL": A, "LR": Prod(A, B), "R": C}
    assert site_types(cfg) is table
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None
    # no cache outside the configuration kept the table: this frame's
    # name and getrefcount's argument are its only references
    assert sys.getrefcount(table) == 2


def test_equal_configurations_do_not_share_a_site_table():
    a, b = tensor([Leaf(A), Leaf(B)]), tensor([Leaf(A), Leaf(B)])
    assert a == b and a is not b
    assert site_types(a) == site_types(b)
    assert site_types(a) is not site_types(b)


def test_site_walks_take_deep_configurations():
    # tensor nests to the left, so the tree is as deep as it is wide
    cfg = tensor([Leaf(A)] * 2999 + [Leaf(B)])
    paths = sites(cfg)
    assert len(paths) == n_sites(cfg) == 3000
    assert paths[0] == "L" * 2999 and paths[-1] == "R"
    assert site_type(cfg, "R") == B
    assert perm_id(cfg).faults() == []


def unbounded(call, *args):
    """`call(*args)`; a RecursionError fails the test without its
    traceback, which pytest would compare frame by frame."""
    try:
        return call(*args)
    except RecursionError:
        pass
    pytest.fail(f"{call.__name__} recursed once per level")


def test_deep_configurations_print():
    assert str(tensor([Leaf(A), Leaf(Prod(A, B)), Leaf(C)])) == "(([A] * [(A x B)]) * [C])"
    assert str(Tensor(Leaf(A), Tensor(Leaf(B), Leaf(C)))) == "([A] * ([B] * [C]))"
    cfg = tensor([Leaf(A)] * 2999 + [Leaf(B)])
    assert str(cfg) == "(" * 2999 + "[A]" + " * [A])" * 2998 + " * [B])"
    a, b = "Leaf(ty=Atom(name='A'))", "Leaf(ty=Atom(name='B'))"
    want = "Tensor(left=" * 2999 + a + f", right={a})" * 2998 + f", right={b})"
    assert unbounded(repr, cfg) == want


def test_deep_product_types_print():
    # 3,000 products deep, nested down the left and down the right
    left = right = B
    for _ in range(3000):
        left, right = Prod(left, A), Prod(A, right)
    assert str(left) == "(" * 3000 + "B" + " x A)" * 3000
    assert str(right) == "(A x " * 3000 + "B" + ")" * 3000
    assert str(Leaf(left)) == "[" + str(left) + "]"
    assert str(Leaf(right)) == "[" + str(right) + "]"
    a, b = "Atom(name='A')", "Atom(name='B')"
    assert unbounded(repr, left) == "Prod(left=" * 3000 + b + f", right={a})" * 3000
    assert unbounded(repr, right) == f"Prod(left={a}, right=" * 3000 + b + ")" * 3000


def test_deep_product_types_compare_and_hash_without_recursion():
    # equality and hashing read the leaves' paths, so a 3,000-deep
    # product compares, hashes and typechecks under the recursion limit
    p, q = A, A
    for _ in range(3000):
        p, q = Prod(p, A), Prod(q, A)
    assert p is not q and p == q and hash(p) == hash(q)
    r = A
    for k in range(3000):
        r = Prod(r, B if k == 1500 else A)
    assert p != r
    assert Prod(Prod(A, B), C) != Prod(A, Prod(B, C))
    assert Prod(Prod(A, B), C) == Prod(Prod(A, B), C)
    assert validate(Diagram(Leaf(p), (Tick(q, q),))) == []


def test_wide_steps_print_and_name_themselves_in_errors():
    # a 3,000-part par prints, and so do the errors that name a
    # 3,000-site tensor: in a perm that a tick ref walks into, and in
    # a par half that is not a step
    tick = "Tick(in_ty=Atom(name='A'), out_ty=Atom(name='A'))"
    wide_step = par([Tick(A, A)] * 3000)
    assert unbounded(repr, wide_step) == "Par(left=" * 2999 + tick + f", right={tick})" * 2999
    wide = tensor([Leaf(A)] * 3000)
    message = r"^TickRef\(step=0, path='L'\) leaves the step tree at PermStep\("
    with pytest.raises(ValueError, match=message):
        unbounded(tick_at, Diagram(wide, (noop(wide),)), TickRef(0, "L"))
    with pytest.raises(TypeError, match=r"^not a step: Tensor\(left=Tensor\("):
        unbounded(step_atoms, Par(Tick(A, A), wide))


def reference_str(term) -> str:
    """A type or configuration printed by recursion, as the printers
    print it."""
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Prod):
        return f"({reference_str(term.left)} x {reference_str(term.right)})"
    if isinstance(term, Leaf):
        return f"[{reference_str(term.ty)}]"
    return f"({reference_str(term.left)} * {reference_str(term.right)})"


def reference_repr(term) -> str:
    """A term's dataclass repr, recursing once per level."""
    if not is_dataclass(term):
        return repr(term)
    parts = [f"{f.name}={reference_repr(getattr(term, f.name))}" for f in fields(term) if f.repr]
    return f"{type(term).__qualname__}({', '.join(parts)})"


def test_the_printers_match_a_recursive_printer(corpus):
    configs = types = steps = 0
    for d, _ in corpus:
        for config in cut_configs(d):
            assert str(config) == reference_str(config)
            assert repr(config) == reference_repr(config)
            for ty in site_types(config).values():
                assert str(ty) == reference_str(ty)
                assert repr(ty) == reference_repr(ty)
                types += isinstance(ty, Prod)
            configs += isinstance(config, Tensor)
        for step in d.steps:
            assert repr(step) == reference_repr(step)
            steps += isinstance(step, Par)
    assert configs > 3000 and types > 3000 and steps > 1000


def test_a_tree_is_built_back_from_its_leaf_paths(corpus):
    # `_tree` inverts `_leaves` on every configuration, step and product
    # type of the corpus and of the compiled executions
    diagrams = [d for d, _ in corpus] + [to_diagram(x)[0] for x in compiled_executions()]
    built = {Tensor: 0, Par: 0, Prod: 0}
    for d in diagrams:
        configs = cut_configs(d)
        trees = [(c, Tensor) for c in configs] + [(s, Par) for s in d.steps]
        trees += [(ty, Prod) for c in configs for ty in site_types(c).values()]
        for tree, cls in trees:
            assert diagram._tree(diagram._leaves(tree, cls), cls) == tree
            built[cls] += type(tree) is cls
    assert min(built.values()) > 3000


def test_a_tree_needs_distinct_lr_paths_in_order():
    tree = diagram._tree
    assert tree([("", A)], Prod) is A
    assert tree([("L", A), ("RL", B), ("RR", C)], Prod) == Prod(A, Prod(B, C))
    for leaves in (
        [],
        [("L", A), ("L", B), ("R", C)],  # a duplicate
        [("", A), ("L", B), ("R", C)],  # a prefix
        [("L", A), ("LL", B), ("LR", C), ("R", A)],
        [("R", A), ("L", B)],  # out of order
        [("LR", A), ("LL", B), ("R", C)],
        [("X", A)],  # not L/R
        [("XL", A), ("XR", B)],
        [("L", A), ("RX", B)],
        [("L", A), ("RL", B)],  # a leaf short
    ):
        assert tree(leaves, Prod) is None, leaves


def test_the_ends_of_a_wide_step_are_built_without_recursing():
    # 3,000 parts, nested to the left and to the right
    def comb(parts, cls):
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = cls(part, node)
        return node

    parts, ins, outs = [Tick(A, B)] * 3000, [Leaf(A)] * 3000, [Leaf(B)] * 3000
    for step, want_in, want_out in (
        (par(parts), tensor(ins), tensor(outs)),
        (comb(parts, Par), comb(ins, Tensor), comb(outs, Tensor)),
    ):
        assert unbounded(step_input, step) == want_in
        assert unbounded(step_output, step) == want_out


def test_tensor_builder():
    assert tensor([Leaf(A)]) == Leaf(A)
    assert tensor([Leaf(A), Leaf(B), Leaf(C)]) == Tensor(
        Tensor(Leaf(A), Leaf(B)), Leaf(C)
    )
    with pytest.raises(ValueError):
        tensor([])


# ---------------------------------------------------------------------------
# permutations

def test_perm_swap_table():
    p = perm_swap(Leaf(A), Leaf(B))
    assert p.table == {"L": "R", "R": "L"}
    assert p.source == Tensor(Leaf(A), Leaf(B))
    assert p.target == Tensor(Leaf(B), Leaf(A))


def test_perm_assoc_preserves_leaves():
    p = perm_assoc(Leaf(A), Leaf(B), Leaf(C))
    assert p.table == {"L": "LL", "RL": "LR", "RR": "R"}
    for s, t in p.pairs:
        assert site_type(p.source, s) == site_type(p.target, t)


def test_perm_rejects_non_injective_table():
    cfg = Tensor(Leaf(A), Leaf(A))
    with pytest.raises(ValueError, match="not injective|hit twice"):
        perm_from_table(cfg, cfg, {"L": "L", "R": "L"})


def test_perm_rejects_incomplete_table():
    cfg = Tensor(Leaf(A), Leaf(B))
    with pytest.raises(ValueError, match="unmapped"):
        perm_from_table(cfg, cfg, {"L": "L"})


def test_perm_rejects_type_change():
    src = Tensor(Leaf(A), Leaf(B))
    tgt = Tensor(Leaf(A), Leaf(B))
    with pytest.raises(ValueError, match="type changed"):
        perm_from_table(src, tgt, {"L": "R", "R": "L"})


def test_perm_inverse_composes_to_identity():
    src = Tensor(Leaf(A), Tensor(Leaf(B), Leaf(C)))
    p = perm_assoc(Leaf(A), Leaf(B), Leaf(C))
    q = p.invert()
    for s in sites(src):
        assert q.apply(p.apply(s)) == s
    for t in sites(p.target):
        assert p.apply(q.apply(t)) == t


def test_perm_identity_predicate():
    assert perm_id(Leaf(A)).is_identity()
    assert not perm_swap(Leaf(A), Leaf(B)).is_identity()


def test_identity_predicate_takes_deep_configurations():
    cfg = tensor([Leaf(A)] * 3000)
    pairs = perm_id(cfg).pairs
    assert Perm(cfg, tensor([Leaf(A)] * 3000), pairs).is_identity()
    assert not Perm(cfg, tensor([Leaf(A)] * 2999 + [Leaf(B)]), pairs).is_identity()
    # same sites, other shape: the pairs match but the trees do not
    three = tensor([Leaf(A)] * 3)
    other = Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A)))
    assert not Perm(three, other, perm_id(three).pairs).is_identity()


# ---------------------------------------------------------------------------
# step boundaries

def test_step_boundaries():
    assert step_input(Tick(A, B)) == Leaf(A)
    assert step_output(Tick(A, B)) == Leaf(B)
    assert step_input(Fork(A, B)) == Leaf(Prod(A, B))
    assert step_output(Fork(A, B)) == Tensor(Leaf(A), Leaf(B))
    assert step_input(Join(A, B)) == Tensor(Leaf(A), Leaf(B))
    assert step_output(Join(A, B)) == Leaf(Prod(A, B))
    sw = perm_swap(Leaf(A), Leaf(B))
    assert step_input(PermStep(sw)) == sw.source
    assert step_output(PermStep(sw)) == sw.target
    both = Par(Tick(A, A), Fork(B, C))
    assert step_input(both) == Tensor(Leaf(A), Leaf(Prod(B, C)))
    assert step_output(both) == Tensor(Leaf(A), Tensor(Leaf(B), Leaf(C)))


def test_step_atoms_walk_left_to_right():
    swap = PermStep(perm_swap(Leaf(A), Leaf(B)))
    step = Par(Par(Tick(A, A), Fork(A, B)), Par(swap, Join(A, B)))
    assert list(step_atoms(step)) == [
        ("LL", Tick(A, A)),
        ("LR", Fork(A, B)),
        ("RL", swap),
        ("RR", Join(A, B)),
    ]
    assert list(step_atoms(Tick(A, B))) == [("", Tick(A, B))]
    with pytest.raises(TypeError, match="not a step"):
        step_atoms(Par(Tick(A, A), Leaf(A)))
    # every walk of the atoms refuses it: the event tables too
    bad = Diagram(Tensor(Leaf(A), Leaf(A)), (Par(Tick(A, A), Leaf(A)),))
    for walk in (cut_numbers, step_successors, ticks):
        with pytest.raises(TypeError, match="not a step"):
            walk(bad)

    # every judge of a step dispatches on exact classes: `validate`, the
    # step's ends, the event tables and the walks of atoms and ticks
    # refuse a subclass alike
    class Tock(Tick):
        pass

    tock = Tock(A, A)
    d = Diagram(Leaf(A), (tock,))
    for judge, arg in (
        (validate, d), (cut_numbers, d), (step_input, tock), (step_output, tock),
        (step_atoms, tock), (ticks, d),
    ):
        with pytest.raises(TypeError, match=r"^not a step: \S*Tock\("):
            judge(arg)
    with pytest.raises(ValueError, match=r"names a Tock, not a tick$"):
        tick_at(d, TickRef(0, ""))

    class Pair(Par):
        pass

    pair = Pair(Tick(A, A), Tick(A, A))
    d = Diagram(Tensor(Leaf(A), Leaf(A)), (pair,))
    for judge, arg in (
        (validate, d), (cut_numbers, d), (step_input, pair), (step_output, pair),
        (step_atoms, pair), (ticks, d),
    ):
        with pytest.raises(TypeError, match=r"^not a step: \S*Pair\("):
            judge(arg)


def test_a_parallel_step_is_walked_once(monkeypatch):
    # a wide step built in code keeps the atom list of its first walk,
    # as a configuration keeps its site table, and every reader of its
    # atoms reads that list
    walks = []
    leaves = diagram._leaves

    def counted(root, inner):
        if inner is Par:
            walks.append(id(root))
        return leaves(root, inner)

    monkeypatch.setattr(diagram, "_leaves", counted)
    a, b = par([Tick(A, A)] * 3000), par([Tick(A, A)] * 3000)
    for _ in range(3):
        assert hash(a) == hash(b) and a == b and b == a
    assert walks == [id(a), id(b)]
    assert a.__dict__["_step_atoms"] is step_atoms(a)
    d = Diagram(tensor([Leaf(A)] * 3000), (a, b))
    assert len(ticks(d)) == 6000 and len(step_relation(a)) == 3000
    assert len(cut_numbers(d)) == 3 and render(d, format="ascii").count("tick @") == 6000
    assert walks == [id(a), id(b)]
    # an atomic step keeps nothing, nor does a par with a leaf that is
    # not a step: it raises on every walk
    tick = Tick(A, A)
    assert step_atoms(tick) == [("", tick)] and "_step_atoms" not in vars(tick)
    bad = Par(Tick(A, A), Leaf(A))
    for _ in range(2):
        with pytest.raises(TypeError, match="not a step"):
            step_atoms(bad)
    assert "_step_atoms" not in bad.__dict__


def test_par_builder():
    assert par([Tick(A, A)]) == Tick(A, A)
    assert par([Tick(A, A), Tick(B, B), Tick(C, C)]) == Par(
        Par(Tick(A, A), Tick(B, B)), Tick(C, C)
    )
    with pytest.raises(ValueError):
        par([])


# ---------------------------------------------------------------------------
# validation

def test_identity_diagram_is_valid():
    d = identity(Tensor(Leaf(A), Leaf(B)))
    assert validate(d) == []
    assert d.n_steps == 0
    assert d.final == d.initial


def test_message_flow_is_valid(message_flow):
    d, _ = message_flow
    assert validate(d) == []
    assert str(d.final) == "([(t1' x t2)] * [t3])"


def test_misordered_steps_fault_at_the_join(message_flow):
    d, _ = message_flow
    tick_fork, assoc, join_noop = d.steps
    bad = Diagram(d.initial, (tick_fork, join_noop, assoc))
    faults = validate(bad)
    assert faults
    assert any(f.step == 1 for f in faults)
    assert not any(f.step == 0 for f in faults)


def test_par_fault_is_localized():
    # right half expects [B] but gets [C]
    d = Diagram(Tensor(Leaf(A), Leaf(C)), (Par(Tick(A, A), Tick(B, B)),))
    faults = validate(d)
    assert len(faults) == 1
    assert (faults[0].step, faults[0].path) == (0, "R")


def test_boundary_check_takes_equal_but_distinct_wide_configurations():
    # the boundary is compared by site tables, not by recursive ==
    wide = tensor([Leaf(A)] * 3000)
    assert validate(Diagram(wide, (noop(tensor([Leaf(A)] * 3000)),))) == []
    other = tensor([Leaf(A)] * 2999 + [Leaf(B)])
    [fault] = validate(Diagram(wide, (noop(other),)))
    assert (fault.step, fault.path) == (0, "")
    assert fault.message == f"step expects {other}, found {wide}"
    # same leaves, other shape
    three, other = tensor([Leaf(A)] * 3), Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A)))
    [fault] = validate(Diagram(three, (noop(other),)))
    assert fault.message == f"step expects {other}, found {three}"


def test_bad_perm_reported_with_path():
    cfg = Tensor(Leaf(A), Leaf(A))
    crooked = Perm(cfg, cfg, (("L", "L"), ("R", "L")))
    d = Diagram(
        Tensor(cfg, Leaf(B)), (Par(PermStep(crooked), Tick(B, B)),)
    )
    faults = validate(d)
    assert any("not injective" in f.message and f.path == "L" for f in faults)
    assert not is_valid(d)


def test_cut_configs_chain_through_step_boundaries(message_flow, small_corpus):
    for d, _ in [message_flow] + small_corpus[:40]:
        cfgs = cut_configs(d)
        assert cfgs[0] == d.initial
        assert cfgs[-1] == d.final
        for k, step in enumerate(d.steps):
            assert cfgs[k] == step_input(step)
            assert cfgs[k + 1] == step_output(step)


def test_cut_config_range():
    d = identity(Leaf(A))
    assert cut_config(d, 0) == Leaf(A)
    with pytest.raises(ValueError):
        cut_config(d, 1)
    with pytest.raises(ValueError):
        cut_config(d, -1)


def test_a_cut_is_judged_by_check_cut(message_flow):
    # `cut_config`, `during` and `before` refuse a bool or a float cut
    # in the words of `check_cut`, and name the one cut out of range
    d, _ = message_flow
    for bad in (True, 1.0):
        for slice_at in (
            lambda t: cut_config(d, t),
            lambda t: during(d, t, 2),
            lambda t: during(d, 0, t),
            lambda t: before(d, t),
        ):
            with pytest.raises(ValueError, match=rf"^cut {bad!r} is not an int$"):
                slice_at(bad)
    with pytest.raises(ValueError, match=rf"^cut 99 out of range 0\.\.{d.n_steps}$"):
        during(d, 0, 99)


def test_message_flow_middle_cuts(message_flow):
    d, _ = message_flow
    t1p, t2, t3 = Atom("t1'"), Atom("t2"), Atom("t3")
    assert cut_config(d, 2) == Tensor(Tensor(Leaf(t1p), Leaf(t2)), Leaf(t3))
    assert cut_config(d, 3) == Tensor(Leaf(Prod(t1p, t2)), Leaf(t3))


# ---------------------------------------------------------------------------
# composition

def test_seq_extend():
    d = seq_extend(identity(Leaf(A)), noop(Leaf(A)))
    assert d.n_steps == 1
    assert d.final == Leaf(A)
    with pytest.raises(CompositionError):
        seq_extend(identity(Leaf(A)), Tick(B, B))


def test_seq_concat_right_unit(message_flow):
    d, _ = message_flow
    assert seq_concat(d, identity(d.final)) == d
    assert seq_concat(identity(d.initial), d) == d


def _wide(n: int, ty=A) -> Diagram:
    # tensor and par nest to the left, so each tree is as deep as it is wide
    return Diagram(tensor([Leaf(ty)] * n), (par([Tick(ty, ty)] * n),))


def test_wide_diagrams_compare_and_hash_without_recursing():
    n = 3000
    a, b = _wide(n), _wide(n)
    assert a.initial is not b.initial and a.steps[0] is not b.steps[0]
    assert a == b and hash(a) == hash(b)
    assert a.initial == b.initial and hash(a.initial) == hash(b.initial)
    assert a.steps[0] == b.steps[0] and hash(a.steps[0]) == hash(b.steps[0])
    assert a != _wide(n, B) and a.initial != _wide(n - 1).initial
    assert a.steps[0] != _wide(n, B).steps[0]
    assert len({a, b, a.initial, b.initial, a.steps[0], b.steps[0]}) == 3


def test_wide_diagrams_compose():
    n = 3000
    a = _wide(n)
    assert seq_extend(a, a.steps[0]).n_steps == 2
    assert seq_concat(a, _wide(n)) == Diagram(a.initial, a.steps * 2)
    with pytest.raises(CompositionError):
        seq_concat(a, _wide(n, B))


def test_configurations_with_equal_leaves_but_other_shapes_differ():
    left = tensor([Leaf(A)] * 3000)
    right = Tensor(Leaf(A), tensor([Leaf(A)] * 2999))
    assert sorted(site_types(left).values(), key=str) == sorted(
        site_types(right).values(), key=str
    )
    assert left != right and right != left
    assert Tensor(tensor([Leaf(A)] * 2999), Leaf(A)) == left
    assert Tensor(Leaf(A), Leaf(B)) != Tensor(Leaf(B), Leaf(A))
    assert Tensor(Leaf(A), Leaf(A)) != Leaf(A) and Leaf(A) != Tensor(Leaf(A), Leaf(A))
    wide = par([Tick(A, A)] * 3000)
    other = Par(Tick(A, A), par([Tick(A, A)] * 2999))
    assert wide != other and other != wide
    assert Par(par([Tick(A, A)] * 2999), Tick(A, A)) == wide
    assert Par(Tick(A, A), Tick(A, B)) != Par(Tick(A, B), Tick(A, A))


def test_seq_concat_counts_steps():
    a = Diagram(Leaf(A), (Tick(A, B), Tick(B, A)))
    b = Diagram(Leaf(A), (Tick(A, C), Tick(C, C)))
    ab = seq_concat(a, b)
    assert ab.n_steps == 4
    assert validate(ab) == []
    with pytest.raises(CompositionError):
        seq_concat(b, a)  # b ends at [C], a starts at [A]


def test_par_compose_of_identities_is_identity():
    g1, g2 = Leaf(A), Tensor(Leaf(B), Leaf(C))
    assert par_compose(identity(g1), identity(g2)) == identity(Tensor(g1, g2))


def test_par_compose_pads_the_shorter_side():
    a = Diagram(Leaf(A), (Tick(A, B),))
    b = Diagram(Leaf(C), (Tick(C, C), Tick(C, C), Tick(C, A)))
    d = par_compose(a, b)
    assert d.n_steps == 3
    assert validate(d) == []
    for k in (1, 2):
        left = d.steps[k].left
        assert isinstance(left, PermStep) and left.perm.is_identity()


def test_par_compose_of_ticks_is_one_par_step():
    a = Diagram(Leaf(A), (Tick(A, A),))
    b = Diagram(Leaf(B), (Tick(B, B),))
    d = par_compose(a, b)
    assert d.steps == (Par(Tick(A, A), Tick(B, B)),)
    assert len(ticks(d)) == 2


def test_tick_counts_add_up(small_corpus):
    for (d1, _), (d2, _) in zip(small_corpus[:20], small_corpus[20:40]):
        both = par_compose(d1, d2)
        assert len(ticks(both)) == len(ticks(d1)) + len(ticks(d2))
    for d, _ in small_corpus[:20]:
        for t in range(d.n_steps + 1):
            head, tail = before(d, t), during(d, t, d.n_steps)
            glued = seq_concat(head, tail)
            assert len(ticks(glued)) == len(ticks(head)) + len(ticks(tail))


# ---------------------------------------------------------------------------
# ticks and labelings

def test_ticks_of_identity_is_empty():
    assert ticks(identity(Leaf(A))) == ()


def test_message_flow_has_one_tick(message_flow):
    d, _ = message_flow
    assert ticks(d) == (TickRef(0, "L"),)


def test_ticks_enumerate_in_step_then_tree_order():
    d = Diagram(
        Tensor(Leaf(A), Leaf(B)),
        (Par(Tick(A, A), Tick(B, B)), Par(Tick(A, A), noop(Leaf(B)))),
    )
    assert ticks(d) == (TickRef(0, "L"), TickRef(0, "R"), TickRef(1, "L"))


def test_tick_at_resolves_and_rejects():
    d = Diagram(Tensor(Leaf(A), Leaf(B)), (Par(Tick(A, A), noop(Leaf(B))),))
    assert tick_at(d, TickRef(0, "L")) == Tick(A, A)
    with pytest.raises(ValueError):
        tick_at(d, TickRef(0, "R"))  # names the noop
    with pytest.raises(ValueError):
        tick_at(d, TickRef(1, "L"))
    with pytest.raises(ValueError):
        tick_at(d, TickRef(0, "LL"))


def test_tick_labels_arity(diamond):
    d, _ = diamond
    lab = tick_labels(d, [Action("p1"), Action("p2")])
    assert set(lab) == set(ticks(d))
    with pytest.raises(ValueError):
        tick_labels(d, [Action("p1")])


def test_labeling_faults(two_tick):
    d, lab = two_tick
    assert labeling_faults(d, lab) == []
    partial = {TickRef(0, ""): Action("p1")}
    assert any("unlabeled" in f for f in labeling_faults(d, partial))
    stray = dict(lab)
    stray[TickRef(5, "")] = Action("p1")
    assert any("names no tick" in f for f in labeling_faults(d, stray))


def test_restrict_labeling_windows():
    d = Diagram(Leaf(A), (Tick(A, A), Tick(A, A), Tick(A, A)))
    lab = tick_labels(d, [Action("p1"), Action("p2"), Action("p3")])
    assert restrict_labeling(lab, 0, 0) == {}
    assert restrict_labeling(lab, 0, 3) == lab
    window = restrict_labeling(lab, 1, 2)
    assert set(window) == set(ticks(during(d, 1, 2)))
    assert window[TickRef(0, "")] == Action("p2")


# ---------------------------------------------------------------------------
# slicing

def test_before_zero_is_identity(message_flow):
    d, _ = message_flow
    assert before(d, 0) == identity(d.initial)


def test_during_same_cut_is_identity(message_flow):
    d, _ = message_flow
    for t in range(d.n_steps + 1):
        assert during(d, t, t) == identity(cut_config(d, t))


def test_during_rejects_reversed_interval(message_flow):
    d, _ = message_flow
    with pytest.raises(ValueError, match="uninhabited"):
        during(d, 2, 1)
    with pytest.raises(ValueError):
        during(d, 0, 99)


def test_slicing_rebuilds_the_diagram(message_flow, small_corpus):
    for d, _ in [message_flow] + small_corpus[:40]:
        n = d.n_steps
        for t in range(n + 1):
            assert seq_concat(before(d, t), during(d, t, n)) == d


def test_adjacent_windows_concatenate(small_corpus):
    for d, _ in small_corpus[:20]:
        n = d.n_steps
        for t1 in range(n + 1):
            for t2 in range(t1, n + 1):
                for t3 in range(t2, n + 1):
                    assert seq_concat(
                        during(d, t1, t2), during(d, t2, t3)
                    ) == during(d, t1, t3)
