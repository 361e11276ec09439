import json
import random
import re
import sys
import weakref
from dataclasses import fields, is_dataclass

import pytest
from conftest import corpus_params
from reference_json import config_to_obj, reference_json, type_to_obj
from reference_reads import read_document, reference_config, reference_perm, reference_step
from test_fuzz import mutants
from test_golden import compiled_executions

from causalweft.cli import main
from causalweft.clocks import Action
from causalweft.diagram import (
    Atom,
    Diagram,
    Fault,
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
    noop,
    par,
    sites,
    step_atom_lists,
    step_atoms,
    tensor,
    ticks,
    validate,
)
from causalweft.lamport import to_diagram
from causalweft.paths import PathWitness, cut_numbers, step_successors, tick_outputs
from causalweft.verify import GenParams, gen_diagram
from causalweft.serialize import (
    SchemaError,
    _Reader,
    _perm_fault,
    diagram_from_json,
    diagram_from_obj,
    diagram_hash,
    diagram_to_json,
    diagram_to_obj,
    to_canonical_json,
    witness_from_obj,
    witness_to_obj,
)

A, B = Atom("A"), Atom("B")


# ---------------------------------------------------------------------------
# node round trips

def test_type_round_trip():
    ty = Prod(Prod(A, B), A)
    assert _Reader().type(type_to_obj(ty)) == ty
    assert type_to_obj(A) == {"atom": "A"}


def test_config_round_trip():
    cfg = Tensor(Leaf(A), Tensor(Leaf(Prod(A, B)), Leaf(B)))
    assert _Reader().config(config_to_obj(cfg)) == cfg


def test_bad_nodes_rejected():
    with pytest.raises(SchemaError):
        _Reader().type({"atom": "A", "extra": 1})
    with pytest.raises(SchemaError):
        _Reader().type({"molecule": "A"})
    with pytest.raises(SchemaError):
        _Reader().type({"prod": [{"atom": "A"}]})
    with pytest.raises(SchemaError):
        _Reader().config({"tensor": [{"leaf": {"atom": "A"}}]})
    with pytest.raises(SchemaError):
        _Reader().config("leaf")


# ---------------------------------------------------------------------------
# documents

def test_document_round_trip(message_flow):
    d, lab = message_flow
    text = diagram_to_json(d, lab)
    d2, lab2 = diagram_from_json(text)
    assert (d2, lab2) == (d, lab)
    assert diagram_to_json(d2, lab2) == text


def test_round_trip_is_bit_stable_on_the_corpus(corpus):
    for d, lab in corpus:
        text = diagram_to_json(d, lab)
        d2, lab2 = diagram_from_json(text)
        assert (d2, lab2) == (d, lab)
        assert diagram_to_json(d2, lab2) == text


def test_labels_without_target_and_plain_values():
    d = Diagram(Leaf(A), (Tick(A, A), Tick(A, A)))
    lab = {TickRef(0, ""): Action("p1"), TickRef(1, ""): "checkpoint"}
    d2, lab2 = diagram_from_json(diagram_to_json(d, lab))
    assert lab2[TickRef(0, "")] == Action("p1")
    assert lab2[TickRef(0, "")].target is None
    assert lab2[TickRef(1, "")] == "checkpoint"


# ---------------------------------------------------------------------------
# the writer against the recursive reference encoder

def test_the_writer_matches_the_reference_on_the_corpus(corpus):
    for d, lab in corpus:
        assert diagram_to_json(d, lab) == reference_json(d, lab)


def test_the_writer_matches_the_reference_on_compiled_executions():
    for x in compiled_executions():
        d, lab, _ = to_diagram(x)
        text = diagram_to_json(d, lab)
        assert text == reference_json(d, lab)
        # a loaded document shares its equal terms; the bytes stay
        assert diagram_to_json(*diagram_from_json(text)) == text


def test_the_writer_escapes_names_as_json_does():
    names = [
        "\u00e9t\u00e9",
        'say "hi"',
        "back\\slash",
        "tab\tnew\nline",
        "\u2028\U0001f600",
        "\x00",
    ]
    ty = Prod(Atom(names[0]), Atom(names[1]))
    d = Diagram(
        tensor([Leaf(Atom(n)) for n in names[2:]] + [Leaf(ty)]),
        (Par(noop(tensor([Leaf(Atom(n)) for n in names[2:]])), Tick(ty, Atom(names[5]))),),
    )
    lab = {TickRef(0, "R"): Action(names[1], names[0])}
    text = diagram_to_json(d, lab)
    assert text == reference_json(d, lab)
    assert text.isascii()
    assert diagram_from_json(text) == (d, lab)


def test_the_writer_matches_the_reference_on_plain_label_values():
    d = Diagram(Leaf(A), (Tick(A, A),) * 7)
    values = [
        None,
        [[1, [2, [None]]], []],
        {"z": [True, False], "a": {"y": 1.5, "b": "\u00e9"}},
        "checkpoint",
        -3,
        Action(3, "p1"),
        Action(("p", 1)),
    ]
    lab = {TickRef(k, ""): v for k, v in enumerate(values)}
    assert diagram_to_json(d, lab) == reference_json(d, lab)
    # the reader takes all but the list-valued actor back
    del lab[TickRef(6, "")]
    assert diagram_from_json(diagram_to_json(d, lab))[1] == lab


def test_the_writer_matches_dict_of_a_perm_built_in_code():
    pair = Tensor(Leaf(A), Leaf(A))
    # unsorted, and R repeated: the table keeps its last target
    perm = Perm(pair, pair, (("R", "R"), ("L", "R"), ("R", "L")))
    d = Diagram(pair, (PermStep(perm),))
    text = diagram_to_json(d)
    assert text == reference_json(d)
    assert '{"perm":{"table":{"L":"R","R":"L"}}}' in text


def test_the_widest_tensor_the_writer_takes_loads_back():
    def write(n):
        return diagram_to_json(Diagram(tensor([Leaf(A)] * n), ()))

    lo, hi = 2, 3000  # write(lo) succeeds, write(hi) is refused
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        write(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            write(mid)
            lo = mid
        except SchemaError:
            hi = mid
    text = write(lo)
    d, _ = diagram_from_json(text)
    assert len(sites(d.initial)) == lo and diagram_to_json(d) == text
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        write(lo + 1)
    # the depth of a label value counts too
    deep = None
    for _ in range(3000):
        deep = [deep]
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        diagram_to_json(Diagram(Leaf(A), (Tick(A, A),)), {TickRef(0, ""): deep})


def json_nesting(text: str) -> int:
    """How deep objects and lists nest in a JSON text, counted on the
    text with its strings taken out."""
    depth = deepest = 0
    for c in re.sub(r'"(?:[^"\\]|\\.)*"', "", text):
        if c in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif c in "]}":
            depth -= 1
    return deepest


def right_nested(parts, cls):
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = cls(part, node)
    return node


def balanced(parts):
    half = len(parts) // 2
    return parts[0] if half == 0 else Tensor(balanced(parts[:half]), balanced(parts[half:]))


# shape -> (the diagram of size n, the recursion limit to write it under;
# a balanced tensor within the default limit would not fit in memory)
SHAPES = {
    "right-nested tensor": (lambda n: Diagram(right_nested([Leaf(A)] * n, Tensor)), None),
    "balanced tensor": (lambda n: Diagram(balanced([Leaf(A)] * n)), 120),
    "right-nested par of ticks": (
        lambda n: Diagram(
            right_nested([Leaf(A)] * n, Tensor), (right_nested([Tick(A, A)] * n, Par),)
        ),
        None,
    ),
    "product type nested to the right": (
        lambda n: Diagram(Leaf(right_nested([A] * n, Prod))), None
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_the_writer_takes_every_tree_shape_to_the_same_depth(shape):
    build, limit = SHAPES[shape]
    saved = sys.getrecursionlimit()
    room = (limit or saved) - 100

    def write(n):
        sys.setrecursionlimit(limit or saved)
        try:
            return diagram_to_json(build(n))
        finally:
            sys.setrecursionlimit(saved)

    lo, hi = 2, 3000  # write(lo) succeeds, write(hi) is refused
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        write(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            write(mid)
            lo = mid
        except SchemaError:
            hi = mid
    text = write(lo)
    # every shape nests two levels per node, so the largest text the
    # writer takes is one level short of the room at most
    assert room - 2 < json_nesting(text) <= room
    d, _ = diagram_from_json(text)
    assert diagram_to_json(d) == text
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        write(lo + 1)


def test_canonical_json_is_key_sorted():
    assert to_canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_diagram_hash_is_stable_and_discriminating(message_flow, diamond):
    d1, lab1 = message_flow
    d2, lab2 = diamond
    assert diagram_hash(d1, lab1) == diagram_hash(d1, lab1)
    assert diagram_hash(d1, lab1) != diagram_hash(d2, lab2)
    assert diagram_hash(d1, lab1) != diagram_hash(d1, {})


# ---------------------------------------------------------------------------
# one load hash-conses its terms

def _reachable(d: Diagram) -> list:
    """Every dataclass object reachable from a diagram's fields, once."""
    out, seen, stack = [], set(), [d]
    while stack:
        node = stack.pop()
        if is_dataclass(node) and id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(getattr(node, f.name) for f in fields(node))
        elif isinstance(node, tuple):
            stack.extend(node)
    return out


def test_one_load_shares_equal_terms(corpus):
    half = Tensor(Leaf(A), Leaf(Prod(A, B)))
    ticks = Par(Tick(A, A), Tick(Prod(A, B), Prod(A, B)))
    d0 = Diagram(Tensor(half, half), (noop(Tensor(half, half)),) * 2 + (Par(ticks, ticks),))
    d, _ = diagram_from_json(diagram_to_json(d0))
    assert d == d0
    left, right = d.initial.left, d.initial.right
    assert left is right
    assert left.left.ty is left.right.ty.left
    assert d.steps[2].right.left.in_ty is left.left.ty
    assert d.steps[0] is d.steps[1]
    # within any load, equal terms are one object, and an identity perm
    # (an idle hold, a noop) rebuilds its source object as its target
    kinds = (Atom, Prod, Leaf, Tensor, Tick, Fork, Join, PermStep)
    compiled = [to_diagram(x)[:2] for x in compiled_executions()]
    identities = 0
    for d, lab in [(d0, {}), *corpus, *compiled]:
        first: dict = {}
        for x in _reachable(diagram_from_json(diagram_to_json(d, lab))[0]):
            if type(x) in kinds:
                assert first.setdefault(x, x) is x
            if type(x) is PermStep and x.perm.is_identity():
                assert x.perm.target is x.perm.source
                identities += 1
    assert identities > 1000


def test_two_loads_share_no_term(small_corpus):
    kinds = (Atom, Prod, Leaf, Tensor, PermStep)
    text = next(
        diagram_to_json(d, lab)
        for d, lab in small_corpus
        if sum(isinstance(s, PermStep) for s in d.steps) > 1
    )
    one, two = diagram_from_json(text)[0], diagram_from_json(text)[0]
    assert one == two
    ids_one = {id(x) for x in _reachable(one) if isinstance(x, kinds)}
    ids_two = {id(x) for x in _reachable(two) if isinstance(x, kinds)}
    assert ids_one and not ids_one & ids_two


def test_a_loaded_diagram_is_freed_once_dropped(message_flow):
    d, lab = diagram_from_json(diagram_to_json(*message_flow))
    refs = [weakref.ref(x) for x in _reachable(d)]
    assert any(isinstance(r(), PermStep) for r in refs)
    del d, lab
    assert all(r() is None for r in refs)


PAIR = Tensor(Leaf(A), Leaf(A))
THREE = Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A)))


@pytest.mark.parametrize(
    "initial, tables, message",
    [
        # a table that was valid on an earlier configuration
        (
            Tensor(Leaf(Prod(A, A)), Leaf(A)),
            [{"L": "L", "R": "R"}, None, {"L": "L", "R": "R"}],
            "perm table keys ['L', 'R'] do not match the sites ['LL', 'LR', 'R'] at this position",
        ),
        # an unhashable site, after a valid table on the same configuration
        (Leaf(A), [{"": ""}, {"": ["L"]}], "bad site in perm table: '' -> ['L']"),
        # one path is a prefix of others
        (
            Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A))),
            [{"L": "L", "RL": "LL", "RR": "R"}],
            "table paths ['L', 'LL'] do not form a tree",
        ),
        (
            Tensor(Tensor(Leaf(A), Leaf(A)), Tensor(Leaf(A), Leaf(A))),
            [{"LL": "L", "LR": "LL", "RL": "LR", "RR": "R"}],
            "table paths ['L', 'LL', 'LR'] do not form a tree",
        ),
        # a path without its sibling
        (
            Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A))),
            [{"L": "LL", "RL": "LR", "RR": "RL"}],
            "table paths ['RL'] do not form a tree",
        ),
        # two broken subtrees: the first in pre-order is reported
        (
            Tensor(Leaf(A), Tensor(Leaf(A), Leaf(A))),
            [{"L": "LL", "RL": "RL", "RR": "RRL"}],
            "table paths ['LL'] do not form a tree",
        ),
        # keys that match the sites, values that are not strings: the
        # values must be checked before they are sorted
        (PAIR, [{"L": 1, "R": "L"}], "bad site in perm table: 'L' -> 1"),
        (PAIR, [{"L": "R", "R": None}], "bad site in perm table: 'R' -> None"),
        (PAIR, [{"L": ["R"], "R": "L"}], "bad site in perm table: 'L' -> ['R']"),
        # a string value with a character other than L and R
        (PAIR, [{"L": "R", "R": "X"}], "bad site in perm table: 'R' -> 'X'"),
        (THREE, [{"L": "RX", "RL": "L", "RR": "RL"}], "bad site in perm table: 'L' -> 'RX'"),
        # two keys sent to one site, adjacent once the values are sorted
        (PAIR, [{"L": "R", "R": "R"}], "perm table is not injective: {'L': 'R', 'R': 'R'}"),
        (
            THREE,
            [{"L": "RL", "RL": "RL", "RR": "L"}],
            "perm table is not injective: {'L': 'RL', 'RL': 'RL', 'RR': 'L'}",
        ),
    ],
)
def test_the_perm_memo_skips_no_check(initial, tables, message):
    # None stands for a step that forks the left site, so the next
    # configuration is a new object with other sites
    fork = {"par": [{"fork": {"l": {"atom": "A"}, "r": {"atom": "A"}}}, {"perm": {"table": {"": ""}}}]}
    steps = [fork if t is None else {"perm": {"table": t}} for t in tables]
    doc = {"initial": config_to_obj(initial), "steps": steps, "labels": []}
    with pytest.raises(SchemaError) as e:
        diagram_from_obj(doc)
    assert str(e.value) == message


def _random_tree(reader: _Reader, n: int, rng: random.Random):
    if n == 1:
        return reader.term(Leaf, rng.choice([A, B]))
    k = rng.randint(1, n - 1)
    return reader.term(Tensor, _random_tree(reader, k, rng), _random_tree(reader, n - k, rng))


def test_the_one_pass_perm_read_agrees_with_the_ordered_checks():
    # every table the one pass takes gives the perm the ordered checks
    # build; every other table fails one of those checks, and the
    # loader's fault reporter names the same fault
    rng = random.Random(11)
    taken = refused = 0
    for _ in range(3000):
        reader = _Reader()
        n = rng.randint(1, 6)
        context = _random_tree(reader, n, rng)
        keys = list(sites(context))
        values = list(sites(_random_tree(_Reader(), n, rng)))
        rng.shuffle(values)
        table = dict(zip(keys, values))
        flaw = rng.randrange(8)
        if flaw == 0:
            table[rng.choice(keys)] = rng.choice(values)  # maybe a repeat
        elif flaw == 1:
            table[rng.choice(keys)] = rng.choice(["X", "LX", "", "L", "RRR", 1, None, ["L"]])
        elif flaw == 2 and n > 1:
            del table[rng.choice(keys)]
        elif flaw == 3:
            table = {s: t + rng.choice(["L", "R", ""]) for s, t in table.items()}
        items = list(table.items())
        rng.shuffle(items)
        table = dict(items)
        got = reader.good_perm(table, context)
        try:
            want = reference_perm(reader.term, table, context)
        except SchemaError as fault:
            assert got is None, table
            with pytest.raises(SchemaError) as e:
                _perm_fault(table, context)
            assert str(e.value) == str(fault)
            refused += 1
            continue
        assert got is not None, table
        with pytest.raises(AssertionError):
            _perm_fault(table, context)  # never returns, even on a sound table
        assert (got.source, got.target, got.pairs) == (want.source, want.target, want.pairs)
        assert got.target is want.target  # both hash-consed by the reader
        taken += 1
    assert taken > 1000 and refused > 1000


def test_a_perm_target_deeper_than_the_recursion_limit_loads():
    # 2048 sites 11 levels deep, permuted onto a right comb 2047 deep
    level = [Leaf(A)] * 2048
    while len(level) > 1:
        level = [Tensor(a, b) for a, b in zip(level[::2], level[1::2])]
    comb = ["R" * i + "L" for i in range(2047)] + ["R" * 2047]
    table = dict(zip(sites(level[0]), comb))
    doc = {"initial": config_to_obj(level[0]), "steps": [{"perm": {"table": table}}]}
    d, _ = diagram_from_obj(doc)
    assert validate(d) == []
    assert sites(d.final) == tuple(comb)


# ---------------------------------------------------------------------------
# perm steps read their source from context

def _nodes(obj, key: str) -> list[dict]:
    """Every one-key `{key: ...}` object inside a JSON value, in order."""
    out, stack = [], [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if key in node:
                out.append(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return out


def _mutate(doc: dict, rng: random.Random) -> None:
    """Flip one to three atom names, or swap the halves of one par."""
    pars = _nodes(doc["steps"], "par")
    if pars and rng.random() < 0.3:
        node = rng.choice(pars)
        node["par"].reverse()
        return
    atoms = _nodes([doc["initial"], doc["steps"]], "atom")
    for node in rng.sample(atoms, min(len(atoms), rng.randint(1, 3))):
        node["atom"] = node["atom"] + "'"


def _loaded(d: Diagram, lab) -> Diagram:
    return diagram_from_json(diagram_to_json(d, lab))[0]


def test_the_loader_keeps_each_steps_atom_list(corpus):
    # the kept lists must be what a walk finds, and the tables and ticks
    # read from them what a diagram with the same steps and no kept
    # lists gives
    compiled = [to_diagram(x)[:2] for x in compiled_executions()[:200]]
    for d in [_loaded(*pair) for pair in corpus + compiled]:
        kept = d.__dict__["_step_atoms"]
        assert len(kept) == d.n_steps
        for k, step in enumerate(d.steps):
            assert kept[k] == step_atoms(step)
        fresh = Diagram(d.initial, d.steps)
        assert "_step_atoms" not in fresh.__dict__
        assert cut_numbers(d) == cut_numbers(fresh)
        assert step_successors(d) == step_successors(fresh)
        assert tick_outputs(d) == tick_outputs(fresh)
        assert ticks(d) == ticks(fresh)


def _reads_agree(obj) -> bool:
    """The loader's reads of a document equal the recursive reference
    walks' (steps, output configurations, faults in order, atom lists,
    SchemaError text), and `diagram_from_obj` keeps what they read.
    True if the document reads."""
    reader = _Reader()
    got = read_document(obj, reader.config, reader.step)
    want = read_document(obj, reference_config, reference_step)
    assert got == want
    if isinstance(got, str):
        with pytest.raises(SchemaError) as e:
            diagram_from_obj(obj)
        assert f"{type(e.value).__name__}: {e.value}" == got
        return False
    initial, steps, faults, atoms = got
    d, _ = diagram_from_obj(dict(obj, labels=[]))
    assert d.initial == initial and list(d.steps) == [step for step, _ in steps]
    assert validate(d) == faults
    assert list(step_atom_lists(d)) == atoms
    return True


def test_the_loader_agrees_with_the_recursive_walks():
    # the corpus, the compiled executions of the golden compile sum, and
    # the fuzzer's mutants of both kinds of document
    rng = random.Random(20240601)
    docs = [diagram_to_obj(d, lab) for d, lab in (gen_diagram(corpus_params(s)) for s in range(1000))]
    compiled = [diagram_to_obj(*to_diagram(x)[:2]) for x in compiled_executions()[:200]]
    small = [gen_diagram(GenParams(seed=seed, max_steps=6, max_sites=5)) for seed in range(12)]
    texts = [text for d, lab in small for text in mutants(diagram_to_obj(d, lab), rng, 40)]
    texts += [text for obj in compiled[:8] for text in mutants(obj, rng, 20)]
    mutated = []
    for text in texts:
        try:
            mutated.append(json.loads(text))
        except ValueError:
            continue  # a truncated text is refused before any walk
    read = [_reads_agree(obj) for obj in docs + compiled + mutated]
    assert all(read[: len(docs) + len(compiled)])
    refused = read.count(False)
    assert refused > 300 and len(mutated) - refused > 50


def test_a_3000_part_spine_reads_without_recursing(tmp_path, capsys):
    # a 3000-part left-nested tensor and one left-nested par over it, a
    # tick then idle holds, built as JSON values: the reader walks each
    # spine in a loop, so this loads where a walk of one call per level
    # would raise RecursionError
    def document(first):
        leaf = {"leaf": {"atom": "A"}}
        initial, step = leaf, {"tick": {"in": {"atom": first}, "out": {"atom": "B"}}}
        for _ in range(2999):
            initial = {"tensor": [initial, leaf]}
            step = {"par": [step, {"perm": {"table": {"": ""}}}]}
        return {"initial": initial, "steps": [step]}

    d, _ = diagram_from_obj(document("A"))
    assert validate(d) == []
    assert len(sites(d.initial)) == 3000
    [kept] = d.__dict__["_step_atoms"]
    assert kept == step_atoms(d.steps[0])
    assert kept[0] == ("L" * 2999, Tick(A, B)) and len(kept) == 3000
    assert d.steps[0] == par([Tick(A, B)] + [noop(Leaf(A))] * 2999)
    # a fault at the foot of the spine is found
    d, _ = diagram_from_obj(document("B"))
    assert validate(d) == [Fault(0, "L" * 2999, "step expects [B], found [A]")]
    # as text the same document is past what `json` parses
    leaf = '{"leaf":{"atom":"A"}}'
    tick = '{"tick":{"in":{"atom":"A"},"out":{"atom":"B"}}}'
    hold = '{"perm":{"table":{"":""}}}'
    text = (
        '{"initial":' + '{"tensor":[' * 2999 + leaf + ("," + leaf + "]}") * 2999
        + ',"steps":[' + '{"par":[' * 2999 + tick + ("," + hold + "]}") * 2999 + "]}"
    )
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        diagram_from_json(text)
    path = tmp_path / "spine.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: document nests too deeply\n")


def test_the_parser_finds_the_faults_validate_finds():
    # validate on a fresh Diagram of the same steps walks them itself
    rng = random.Random(5)
    parsed = ill_typed = 0
    seed = 0
    while parsed < 2000:
        d0, lab0 = gen_diagram(corpus_params(seed))
        doc = diagram_to_obj(d0, lab0)
        if seed % 2:
            _mutate(doc, rng)
        seed += 1
        try:
            d, _ = diagram_from_obj(doc)
        except SchemaError:
            continue  # a swapped par moved a perm off its sites
        parsed += 1
        faults = validate(d)
        assert faults == validate(Diagram(d.initial, d.steps))
        ill_typed += bool(faults)
    assert ill_typed >= 500


def test_perm_round_trip_rebuilds_source_and_target(message_flow):
    d, lab = message_flow
    d2, _ = diagram_from_json(diagram_to_json(d, lab))
    assert d2.steps[1] == d.steps[1]
    assert isinstance(d2.steps[1], PermStep)


def test_perm_without_context_is_rejected():
    # a par over a leaf has no halves to hand its parts
    doc = {
        "initial": config_to_obj(Leaf(A)),
        "steps": [{"par": [{"perm": {"table": {"L": "R", "R": "L"}}}, {"perm": {"table": {"": ""}}}]}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="no known configuration"):
        diagram_from_obj(doc)


def test_perm_table_must_match_the_sites():
    doc = {
        "initial": config_to_obj(Tensor(Leaf(A), Leaf(B))),
        "steps": [{"perm": {"table": {"LL": "L", "R": "R"}}}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="do not match the sites"):
        diagram_from_obj(doc)


def test_perm_table_must_be_injective():
    doc = {
        "initial": config_to_obj(Tensor(Leaf(A), Leaf(A))),
        "steps": [{"perm": {"table": {"L": "L", "R": "L"}}}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="not injective"):
        diagram_from_obj(doc)


def test_perm_values_must_form_a_tree():
    doc = {
        "initial": config_to_obj(Tensor(Leaf(A), Leaf(A))),
        "steps": [{"perm": {"table": {"L": "L", "R": "RL"}}}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="do not form a tree"):
        diagram_from_obj(doc)


def test_perm_sites_must_be_lr_strings():
    doc = {
        "initial": config_to_obj(Tensor(Leaf(A), Leaf(A))),
        "steps": [{"perm": {"table": {"L": "L", "R": "x"}}}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="bad site"):
        diagram_from_obj(doc)


# ---------------------------------------------------------------------------
# malformed documents

def test_not_json_is_a_schema_error():
    with pytest.raises(SchemaError, match="not JSON"):
        diagram_from_json("{nope")


def test_nesting_past_the_recursion_limit_is_a_schema_error():
    text = diagram_to_json(Diagram(tensor([Leaf(A)] * 300), ()))
    assert diagram_to_json(*diagram_from_json(text)) == text
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        diagram_to_json(Diagram(tensor([Leaf(A)] * 3000), ()))
    with pytest.raises(SchemaError, match="^document nests too deeply$"):
        diagram_from_json('{"initial":' + '{"tensor":[' * 3000)


EMPTY = {"atom": ""}
A_OBJ = {"atom": "A"}


@pytest.mark.parametrize(
    "initial, step",
    [
        ({"leaf": EMPTY}, None),
        ({"leaf": A_OBJ}, {"tick": {"in": EMPTY, "out": A_OBJ}}),
        ({"leaf": A_OBJ}, {"tick": {"in": A_OBJ, "out": EMPTY}}),
        ({"leaf": {"prod": [A_OBJ, A_OBJ]}}, {"fork": {"l": A_OBJ, "r": EMPTY}}),
        ({"tensor": [{"leaf": A_OBJ}, {"leaf": A_OBJ}]}, {"join": {"l": EMPTY, "r": A_OBJ}}),
        ({"leaf": {"prod": [A_OBJ, EMPTY]}}, None),
    ],
    ids=["initial leaf", "tick in", "tick out", "fork", "join", "prod part"],
)
def test_an_empty_atom_name_is_a_schema_error(initial, step, tmp_path, capsys):
    doc = {"initial": initial, "steps": [] if step is None else [step], "labels": []}
    with pytest.raises(SchemaError, match="^atom name must be nonempty$"):
        diagram_from_obj(doc)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: atom name must be nonempty\n"


def test_missing_fields_are_rejected():
    with pytest.raises(SchemaError, match="lacks 'initial'"):
        diagram_from_obj({"steps": []})
    with pytest.raises(SchemaError, match="lacks 'steps'"):
        diagram_from_obj({"initial": {"leaf": {"atom": "A"}}})
    with pytest.raises(SchemaError):
        diagram_from_obj([])


def test_unknown_step_kind_is_rejected():
    doc = {
        "initial": {"leaf": {"atom": "A"}},
        "steps": [{"warp": {}}],
        "labels": [],
    }
    with pytest.raises(SchemaError, match="unknown step"):
        diagram_from_obj(doc)


def test_malformed_step_bodies_are_rejected():
    base = {"initial": {"leaf": {"atom": "A"}}, "labels": []}
    with pytest.raises(SchemaError, match="tick takes"):
        diagram_from_obj(dict(base, steps=[{"tick": {"in": {"atom": "A"}}}]))
    with pytest.raises(SchemaError, match="fork takes"):
        diagram_from_obj(dict(base, steps=[{"fork": {"l": {"atom": "A"}}}]))
    with pytest.raises(SchemaError, match="par takes"):
        diagram_from_obj(dict(base, steps=[{"par": [{"tick": {"in": {"atom": "A"}, "out": {"atom": "A"}}}]}]))


def test_duplicate_labels_are_rejected():
    d = Diagram(Leaf(A), (Tick(A, A),))
    doc = diagram_to_obj(d, {TickRef(0, ""): Action("p1")})
    doc["labels"].append(doc["labels"][0])
    with pytest.raises(SchemaError, match="duplicate label"):
        diagram_from_obj(doc)


def test_bad_label_entries_are_rejected():
    d = Diagram(Leaf(A), (Tick(A, A),))
    doc = diagram_to_obj(d, None)
    doc["labels"] = [{"step": 0}]
    with pytest.raises(SchemaError, match="bad label entry"):
        diagram_from_obj(doc)
    doc["labels"] = [{"step": "0", "path": "", "value": 1}]
    with pytest.raises(SchemaError, match="bad label position"):
        diagram_from_obj(doc)
    doc["labels"] = [{"step": 0, "path": "Q", "value": 1}]
    with pytest.raises(SchemaError, match="bad label position"):
        diagram_from_obj(doc)
    doc["labels"] = [{"step": 0, "path": "", "value": {"actor": "p", "mood": "hasty"}}]
    with pytest.raises(SchemaError, match=r"^unknown action fields \['mood'\]$"):
        diagram_from_obj(doc)
    # a fourth key is refused: printing the entry again would drop it
    doc["labels"] = [{"step": 0, "path": "", "value": {"actor": "p"}, "note": 1}]
    with pytest.raises(SchemaError, match="^bad label entry "):
        diagram_from_obj(doc)
    # an integer actor and a null target read back as the same Action
    doc["labels"] = [{"step": 0, "path": "", "value": {"actor": 3, "target": None}}]
    assert diagram_from_obj(doc)[1] == {TickRef(0, ""): Action(3)}
    doc["labels"] = [{"step": 0, "path": "", "value": {"actor": "p", "target": None}}]
    assert diagram_from_obj(doc)[1] == {TickRef(0, ""): Action("p")}


# JSON true is an int to Python, so a loader that took it as a step
# would label step 1
BOOL_STEP_DOC = (
    '{"initial":{"leaf":{"atom":"A"}},'
    '"labels":[{"path":"","step":true,"value":{"actor":"p"}}],'
    '"steps":[{"tick":{"in":{"atom":"A"},"out":{"atom":"A"}}},'
    '{"tick":{"in":{"atom":"A"},"out":{"atom":"A"}}}]}'
)


def test_a_boolean_label_step_is_rejected():
    with pytest.raises(SchemaError, match="bad label position"):
        diagram_from_json(BOOL_STEP_DOC)
    # the same document with step 1 loads
    d, lab = diagram_from_json(BOOL_STEP_DOC.replace('"step":true', '"step":1'))
    assert list(lab) == [TickRef(1, "")]


def test_action_labels_reject_stray_fields():
    d = Diagram(Leaf(A), (Tick(A, A),))
    doc = diagram_to_obj(d, {TickRef(0, ""): Action("p1")})
    doc["labels"][0]["value"]["mood"] = "hasty"
    with pytest.raises(SchemaError, match="unknown action fields"):
        diagram_from_obj(doc)


@pytest.mark.parametrize(
    "value, message",
    [
        ({"actor": ["x"]}, "actor must be"),
        ({"actor": True}, "actor must be"),
        ({"actor": 1.5}, "actor must be"),
        ({"actor": None}, "actor must be"),
        ({"actor": "p1", "target": {"p": 2}}, "target must be"),
        ({"actor": "p1", "target": False}, "target must be"),
    ],
)
def test_action_labels_need_scalar_pids(value, message):
    d = Diagram(Leaf(A), (Tick(A, A),))
    doc = diagram_to_obj(d, None)
    doc["labels"] = [{"step": 0, "path": "", "value": value}]
    with pytest.raises(SchemaError, match=message):
        diagram_from_obj(doc)


def test_action_labels_take_string_and_integer_pids():
    d = Diagram(Leaf(A), (Tick(A, A),))
    doc = diagram_to_obj(d, None)
    doc["labels"] = [{"step": 0, "path": "", "value": {"actor": 3, "target": "p1"}}]
    assert diagram_from_obj(doc)[1] == {TickRef(0, ""): Action(3, "p1")}


# ---------------------------------------------------------------------------
# witnesses

def test_witness_round_trip():
    w = PathWitness(2, ("L", "R", ""))
    obj = witness_to_obj(w)
    assert obj == [
        {"cut": 2, "site": "L"},
        {"cut": 3, "site": "R"},
        {"cut": 4, "site": ""},
    ]
    assert witness_from_obj(obj) == w
    assert witness_from_obj(json.loads(json.dumps(obj))) == w


def test_witness_cuts_must_be_consecutive():
    with pytest.raises(SchemaError, match="consecutive"):
        witness_from_obj([{"cut": 0, "site": ""}, {"cut": 2, "site": ""}])
    with pytest.raises(SchemaError):
        witness_from_obj([])
    with pytest.raises(SchemaError):
        witness_from_obj([{"cut": 0}])


def test_a_bool_witness_cut_is_refused():
    # JSON true is an int to Python, so it would read as cut 1
    entry = {"cut": True, "site": ""}
    with pytest.raises(SchemaError) as e:
        witness_from_obj([{"cut": 0, "site": ""}, entry])
    assert str(e.value) == f"bad witness event {entry!r}"
    with pytest.raises(SchemaError, match="^bad witness event"):
        witness_from_obj(json.loads('[{"cut":false,"site":"L"}]'))
