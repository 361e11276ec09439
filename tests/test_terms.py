"""The hand-written constructors of the term classes against the
dataclass contract: keyword construction, `dataclasses.replace`, eq,
hash, repr and order read from the fields, frozen fields, pickling,
and room in the instance __dict__ for the derived tables."""

import dataclasses
import pickle

import pytest

from causalweft.clocks import Action
from causalweft.diagram import (
    Atom,
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
    perm_from_table,
    perm_swap,
    site_types,
)
from causalweft.lamport import to_diagram

from test_lamport import PING

A, B = Atom("A"), Atom("B")
AB = Tensor(Leaf(A), Leaf(B))
BA = Tensor(Leaf(B), Leaf(A))

# per class, field tuples to build from; equal tuples give equal terms
SAMPLES = {
    Atom: [("A",), ("B",), ("A",), ("é x",)],
    Prod: [(A, B), (B, A), (A, B), (Prod(A, B), A)],
    Leaf: [(A,), (B,), (A,), (Prod(A, B),)],
    Tensor: [(Leaf(A), Leaf(B)), (Leaf(B), Leaf(A)), (Leaf(A), Leaf(B)), (AB, Leaf(A))],
    Perm: [
        (AB, BA, (("L", "R"), ("R", "L"))),
        (AB, AB, (("L", "L"), ("R", "R"))),
        (AB, BA, (("L", "R"), ("R", "L"))),
    ],
    Tick: [(A, B), (B, A), (A, B), (A, A)],
    Fork: [(A, B), (B, A), (A, B)],
    Join: [(A, B), (B, A), (A, B)],
    PermStep: [(perm_swap(Leaf(A), Leaf(B)),), (perm_swap(Leaf(B), Leaf(A)),)],
    Par: [
        (Tick(A, A), Tick(B, B)),
        (Tick(B, B), Tick(A, A)),
        (Tick(A, A), Tick(B, B)),
        (Par(Tick(A, A), Join(A, B)), Fork(A, B)),
    ],
    TickRef: [(0, "L"), (1, ""), (0, "R"), (0, "L"), (2, "LR")],
    Action: [("p1", "p2"), ("p1", None), (2, "p1"), ("p1", "p2"), (0, 3)],
}
CLASSES = list(SAMPLES)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def fields_of(term):
    return tuple(getattr(term, n) for n in names(type(term)))


def built(cls):
    return [cls(*values) for values in SAMPLES[cls]]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction_and_replace(cls):
    for values in SAMPLES[cls]:
        term = cls(**dict(zip(names(cls), values)))
        assert fields_of(term) == values
        assert list(term.__dict__) == names(cls)
        assert term == cls(*values)
    first, other = SAMPLES[cls][0], SAMPLES[cls][1]
    for i, name in enumerate(names(cls)):
        changed = dataclasses.replace(cls(*first), **{name: other[i]})
        assert type(changed) is cls
        assert fields_of(changed) == first[:i] + (other[i],) + first[i + 1 :]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_eq_hash_repr_and_order_read_the_fields(cls):
    terms = built(cls)
    for a in terms:
        listed = ", ".join(f"{n}={v!r}" for n, v in zip(names(cls), fields_of(a)))
        assert repr(a) == f"{cls.__name__}({listed})"
        for b in built(cls):
            assert (a == b) == (fields_of(a) == fields_of(b))
            if a == b:
                assert hash(a) == hash(b)
            if cls is TickRef:
                assert (a < b) == (fields_of(a) < fields_of(b))
                assert (a <= b) == (fields_of(a) <= fields_of(b))
    assert len(set(terms)) == len(set(SAMPLES[cls]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    term = built(cls)[0]
    for name in names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(term, name)
    assert fields_of(term) == SAMPLES[cls][0]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    for term in built(cls):
        again = pickle.loads(pickle.dumps(term))
        assert type(again) is cls
        assert again == term
        assert fields_of(again) == fields_of(term)


def test_the_constructors_keep_their_checks_and_defaults():
    for bad in (
        lambda: Atom(""),
        lambda: Atom(name=""),
        lambda: dataclasses.replace(A, name=""),
    ):
        with pytest.raises(ValueError, match="atom name must be nonempty"):
            bad()
    assert Action("p").target is None
    assert Action(actor="p") == Action("p", None)
    with pytest.raises(TypeError):
        Tick(A)


def test_derived_tables_land_in_the_instance_dict():
    types = site_types(AB)
    assert AB.__dict__["_site_types"] is types
    perm = perm_from_table(AB, BA, {"L": "R", "R": "L"})
    assert perm.table == {"L": "R", "R": "L"}
    assert perm.__dict__["table"] is perm.table
    d = to_diagram(PING)[0]
    kept = d.__dict__["_step_atoms"]
    assert len(kept) == d.n_steps
    assert d.__dict__["_faults"] == []  # the compiler's steps have none
