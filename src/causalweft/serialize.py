"""JSON wire formats.

A diagram document is one JSON object:

    {"initial": CONFIG, "steps": [STEP, ...], "labels": [LABEL, ...]}

    TYPE    {"atom": name} | {"prod": [TYPE, TYPE]}
    CONFIG  {"leaf": TYPE} | {"tensor": [CONFIG, CONFIG]}
    STEP    {"tick": {"in": TYPE, "out": TYPE}}
          | {"fork": {"l": TYPE, "r": TYPE}}
          | {"join": {"l": TYPE, "r": TYPE}}
          | {"perm": {"table": {SITE: SITE, ...}}}
          | {"par": [STEP, STEP]}
    LABEL   {"step": int, "path": TREEPATH, "value": VALUE}

Sites and tree paths are strings over L/R, empty at the root. A perm
step carries only its table; the source configuration comes from the
step's position in the document and the target is rebuilt from the
table's value paths, which determine a unique tree shape (an identity
table's target is its source). Parsing is one walk per step, which
also yields the configuration the next step applies to. Parsing also
typechecks: the walk checks each step against the configuration it
applies to, and `validate` on a loaded diagram reads the faults it
found, so the paths table, which numbers only a diagram `validate`
accepts, walks no step to check it. The walk also lists each step's
atoms with their paths, in the order `step_atoms` gives, and the
loaded diagram keeps those lists, so its event tables and `ticks` read
them instead of walking the steps again. Each load hash-conses what it
reads (`_Reader`): equal types and configurations are one object, each
tick, fork and join over the same types is one object with its
boundary configurations, and a perm table met again on the same
configuration object is checked and rebuilt once. A table met for the
first time is read in one pass: its keys against the site table, its
values as strings, then one stack merge over the values in order that
builds the target. That pass is the only perm builder; a table it
refuses goes through the checks one by one, in their fixed order, only
to name its fault (`_perm_fault`). Label values of the form
{"actor": ..., "target": ...} are read back as Actions, whose actor
and target must be strings or integers; anything else passes through
as plain JSON. `label_value_from_obj`, the one action read for labels
and executions, reads the common shape (string actor and target) in
one pass, as a label entry reads its int step and L/R path.

Printing is canonical (sorted keys, no whitespace, labels sorted by
step then path), so parse-then-print is byte-stable and documents can
be hashed. `diagram_to_json` writes that text straight from the
diagram in one pass (`_Writer`): the bytes are those of `json.dumps`
with sorted keys over the document's JSON value, but no such value is
built, and each shared node (an idle hold, an atom) is written once.

Every JSON text (a diagram, an execution, a valuation) is parsed by
`read_json`, which turns bad JSON into a SchemaError. The stdlib
`json` parse recurses once per level of nesting, so a text nested
deeper than the recursion limit (about 1000 levels; a configuration,
step or type adds two per node) is rejected with a SchemaError, not a
RecursionError. The reader reads the left spine of each `tensor` and
`par` in one loop and recurses only into right halves and `prod`
types, so a JSON value whose configurations and steps nest to the
left, as `tensor` and `par` build them, reads at any width
(`diagram_from_obj`). A perm's target is rebuilt from its flat table
with an explicit stack, so it may nest deeper still. The writer
writes each configuration, step and product type from its leaves'
L/R paths (`diagram._join`), which nest it two levels per letter, and
refuses, with the same SchemaError, a document nested more than the
recursion limit less 100 levels (900 by default: a comb-shaped tensor
of 449 sites), the room left for the frames the `json` parse runs
under, so it writes no text the reader cannot read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from bisect import bisect_left
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, Mapping, NoReturn

from .clocks import Action
from .diagram import (
    Atom,
    AtomicStep,
    Config,
    Diagram,
    Fault,
    Fork,
    GlobalStep,
    Join,
    Leaf,
    Par,
    Perm,
    PermStep,
    Prod,
    StateType,
    Tensor,
    Tick,
    TickRef,
    _join,
    _keep_atoms,
    _keep_faults,
    _leaves,
    check_boundary,
    site_types,
    step_atom_lists,
)
from .paths import PathWitness


class SchemaError(ValueError):
    """The JSON does not describe a diagram."""


def read_json(text: str, read: Callable[[Any], Any] = lambda obj: obj, what: str = "") -> Any:
    """`read` of the JSON value in `text`. Bad JSON raises SchemaError
    (`what` + "not JSON: ..."), and a RecursionError in the parse or in
    `read`, and only there, becomes "document nests too deeply"."""
    try:
        return read(json.loads(text))
    except json.JSONDecodeError as e:
        raise SchemaError(f"{what}not JSON: {e}") from None
    except RecursionError:
        raise SchemaError("document nests too deeply") from None


# ---------------------------------------------------------------------------
# reading types, configurations and steps

def _site_ok(s: Any) -> bool:
    return isinstance(s, str) and not s.strip("LR")


def _perm_fault(table: dict, context: Config | None) -> NoReturn:
    """Raise the SchemaError naming the first check, in a fixed order,
    that a table `_Reader.good_perm` refused fails. The last finds the
    first pre-order node that is neither a leaf nor split into L and R
    halves; sorted values are in pre-order, so a node is the slice
    [i, j) of those below it."""
    for s, t in table.items():
        if not _site_ok(s) or not _site_ok(t):
            raise SchemaError(f"bad site in perm table: {s!r} -> {t!r}")
    if context is None:
        raise SchemaError("perm step in a position with no known configuration")
    types = site_types(context)
    if table.keys() != types.keys():
        raise SchemaError(
            f"perm table keys {sorted(table)} do not match the sites "
            f"{sorted(types)} at this position"
        )
    if len(set(table.values())) != len(table):
        raise SchemaError(f"perm table is not injective: {table!r}")
    paths = sorted(table.values())
    todo = [("", 0, len(paths))]
    while todo:
        prefix, i, j = todo.pop()
        if j - i == 1 and paths[i] == prefix:
            continue
        m = bisect_left(paths, prefix + "R", i, j)
        if paths[i] == prefix or m == i or m == j:
            raise SchemaError(f"table paths {paths[i:j]} do not form a tree")
        todo += ((prefix + "R", m, j), (prefix + "L", i, m))
    raise AssertionError(f"good_perm refused a sound perm table: {table!r}")


# The step object of an idle hold, which leaves one site alone.
_HOLD = {"perm": {"table": {"": ""}}}


class _Reader:
    """One call's parse, freed with it. Equal terms it builds are one
    object, so `check_boundary` settles a well-typed node by `is`.
    `config` and `step` read each left spine in one loop and recurse
    only into its right halves, and `type` recurses once per `prod`, so
    only nesting to the right or in types is bounded by the recursion
    limit, which `read_json` maps to a SchemaError. `good_perm` builds
    every perm it reads."""

    __slots__ = ("terms", "perms")

    def __init__(self) -> None:
        self.terms: dict[Any, Any] = {}  # types, configurations and atomic steps
        self.perms: dict[tuple[int, tuple], PermStep] = {}

    def term(self, cls: type, a: Any, b: Any = None) -> Any:
        """The one `cls(a)` or `cls(a, b)` of this call, keyed by the ids
        of its parts, which it keeps alive. `terms` keys an `Atom` by
        name and an atomic step as `atom` does."""
        key = (cls, id(a), id(b))
        made = self.terms.get(key)
        return made or self.terms.setdefault(key, cls(a) if b is None else cls(a, b))

    def type(self, obj: Any) -> StateType:
        if not isinstance(obj, dict) or len(obj) != 1:
            raise SchemaError(f"expected a one-key type object, got {obj!r}")
        name = obj.get("atom")  # the common case, read without dispatch
        if name and isinstance(name, str):
            return self.terms.get(name) or self.terms.setdefault(name, Atom(name))
        [(key, body)] = obj.items()
        if key == "atom":
            if body == "":
                raise SchemaError("atom name must be nonempty")
            raise SchemaError(f"atom name must be a string, got {body!r}")
        if key == "prod":
            if not isinstance(body, list) or len(body) != 2:
                raise SchemaError(f"prod takes two parts, got {body!r}")
            return self.term(Prod, self.type(body[0]), self.type(body[1]))
        raise SchemaError(f"unknown type node {obj!r}")

    def config(self, obj: Any) -> Config:
        """A configuration. A tensor's left spine is read in one loop:
        down the spine, checking each node, then the leftmost leaf, then
        the right halves bottom-up, so errors come in tree order."""
        rights = None  # the right halves met so far, linked, the last first
        while True:
            if not isinstance(obj, dict) or len(obj) != 1:
                raise SchemaError(f"expected a one-key config object, got {obj!r}")
            [(key, body)] = obj.items()
            if key != "tensor":
                break
            if not isinstance(body, list) or len(body) != 2:
                raise SchemaError(f"tensor takes two parts, got {body!r}")
            rights = body[1], rights
            obj = body[0]
        if key != "leaf":
            raise SchemaError(f"unknown config node {obj!r}")
        node = self.term(Leaf, self.type(body))
        while rights is not None:
            right, rights = rights
            node = self.term(Tensor, node, self.config(right))
        return node

    def atom(self, kind: str, a: StateType, b: StateType) -> tuple[AtomicStep, Config, Config]:
        """The one tick, fork or join of this call over the types `a` and
        `b`, with its input and output configurations, kept in `terms`
        under (kind, ids of the types), a key no term has; `terms` keeps
        the types alive."""
        key = (kind, id(a), id(b))
        made = self.terms.get(key)
        if made is None:
            if kind == "tick":
                made = Tick(a, b), self.term(Leaf, a), self.term(Leaf, b)
            else:
                one = self.term(Leaf, self.term(Prod, a, b))  # [a x b]
                two = self.term(Tensor, self.term(Leaf, a), self.term(Leaf, b))  # [a] * [b]
                made = (Fork(a, b), one, two) if kind == "fork" else (Join(a, b), two, one)
            self.terms[key] = made
        return made

    def perm(self, body: Any, context: Config | None) -> PermStep:
        """A perm applied to `context`. Only a table that passed every
        check on this context object is kept, under the object's id (the
        step keeps it alive) and the table's items, so a hit before the
        checks is exact; `step` looks idle holds up there. An unhashable
        table misses and fails them."""
        if not isinstance(body, dict) or len(body) != 1 or "table" not in body:
            raise SchemaError(f"perm takes a table, got {body!r}")
        table = body["table"]
        if not isinstance(table, dict) or not table:
            raise SchemaError(f"perm table must be a nonempty object, got {table!r}")
        key = (id(context), tuple(table.items()))
        try:
            step = self.perms.get(key)
        except TypeError:
            step = None
        if step is not None:
            return step
        perm = self.good_perm(table, context) or _perm_fault(table, context)
        step = self.perms[key] = PermStep(perm)
        return step

    def good_perm(self, table: dict, context: Config | None) -> Perm | None:
        """The perm of a table that passes every check on `context`, in
        one pass; None if any check fails. Its keys must be the context's
        sites and its values strings; then one stack merge over the
        values in order builds the target, pushing each value's leaf and
        fusing the top two entries while they are the L and R halves of
        one node. Every node it places sits at its own path, so the merge
        ends on the one root exactly when the values are distinct L/R
        paths that form a tree; a repeated value, or one with another
        character, is left on the stack. The nodes are this call's terms,
        so an identity table rebuilds `context` itself as its target."""
        if context is None:
            return None
        types = site_types(context)
        if table.keys() != types.keys():
            return None
        for t in table.values():
            if type(t) is not str:
                return None
        paths: list[str] = []
        nodes: list[Config] = []
        terms = self.terms  # each node is `term`, inline
        for t, s in sorted(zip(table.values(), table)):
            ty = types[s]
            key = (Leaf, id(ty), id(None))
            node = terms.get(key) or terms.setdefault(key, Leaf(ty))
            while t and t[-1] == "R" and paths and paths[-1] == t[:-1] + "L":
                paths.pop()
                left = nodes.pop()
                key = (Tensor, id(left), id(node))
                node = terms.get(key) or terms.setdefault(key, Tensor(left, node))
                t = t[:-1]
            paths.append(t)
            nodes.append(node)
        if paths != [""]:
            return None
        return Perm(context, nodes[0], tuple(sorted(table.items())))

    def step(
        self,
        obj: Any,
        context: Config | None,
        k: int,
        path: str,
        faults: list[Fault],
        atoms: list[tuple[str, AtomicStep]],
    ) -> tuple[GlobalStep, Config]:
        """Parse the node at `path` of step k, applied to `context`;
        return it with its output configuration, append to `faults` the
        boundary faults `validate` finds at it, in tree order, and to
        `atoms` its atomic steps with their paths, as `step_atoms` lists
        them. A parsed perm has no table faults: its keys are the sites
        of its source, its values are injective and its target is
        rebuilt.

        A par's left spine is read in one loop: down the spine, checking
        each node and splitting its context, then the leftmost part,
        then the right halves bottom-up, building each `Par` and output
        on the way up, so faults, atoms (whose paths `_Writer` writes
        the step from) and errors come in tree order. On the way up, an
        idle hold on a context already read is one lookup in `perms`;
        each output `Tensor` is hash-consed, so a par whose halves
        return their own contexts returns its own."""
        # the par nodes met so far, linked, the last first: each one's
        # right half, the context's right half and the half's path
        spine = None
        while True:
            if not isinstance(obj, dict) or len(obj) != 1:
                raise SchemaError(f"expected a one-key step object, got {obj!r}")
            [(key, body)] = obj.items()
            if key != "par":
                break
            if not isinstance(body, list) or len(body) != 2:
                raise SchemaError(f"par takes two steps, got {body!r}")
            if type(context) is Tensor:
                context, right = context.left, context.right
            else:
                check_boundary(faults, k, path, context, None)
                context = right = None
            spine = body[1], right, path + "R", spine
            obj, path = body[0], path + "L"
        if key == "perm":
            step = self.perm(body, context)
            out = step.perm.target
        else:
            if key == "tick":
                if not (
                    isinstance(body, dict) and len(body) == 2 and "in" in body and "out" in body
                ):
                    raise SchemaError(f"tick takes in/out types, got {body!r}")
                step, want, out = self.atom(key, self.type(body["in"]), self.type(body["out"]))
            elif key == "fork" or key == "join":
                if not (isinstance(body, dict) and len(body) == 2 and "l" in body and "r" in body):
                    raise SchemaError(f"{key} takes l/r types, got {body!r}")
                step, want, out = self.atom(key, self.type(body["l"]), self.type(body["r"]))
            else:
                raise SchemaError(f"unknown step node {obj!r}")
            if context is not want:  # the one term of this call fits as it is
                check_boundary(faults, k, path, context, want)
        atoms.append((path, step))
        while spine is not None:
            obj, context, path, spine = spine
            right = self.perms.get((id(context), (("", ""),))) if obj == _HOLD else None
            if right is None:
                right, right_out = self.step(obj, context, k, path, faults, atoms)
            else:
                atoms.append((path, right))
                right_out = context
            step = Par(step, right)
            key = (Tensor, id(out), id(right_out))  # `term`, inline
            out = self.terms.get(key) or self.terms.setdefault(key, Tensor(out, right_out))
        return step, out


# ---------------------------------------------------------------------------
# labels

def label_value_to_obj(value: Any) -> Any:
    if isinstance(value, Action):
        out: dict[str, Any] = {"actor": value.actor}
        if value.target is not None:
            out["target"] = value.target
        return out
    return value


def _pid_ok(p: Any) -> bool:
    return isinstance(p, (str, int)) and not isinstance(p, bool)


def label_value_from_obj(obj: Any) -> Any:
    """A label value read back: an object with an actor is an Action,
    anything else is plain JSON. The common shape, a string actor, an
    optional string or null target and no other key, is read in one
    pass; any other object with an actor goes through the checks in
    order, so the first that fails names the fault."""
    if type(obj) is dict:
        actor, target = obj.get("actor"), obj.get("target")
        if (
            type(actor) is str
            and (target is None or type(target) is str)
            and len(obj) == 1 + ("target" in obj)
        ):
            return Action(actor, target)
    if isinstance(obj, dict) and "actor" in obj:
        extra = set(obj) - {"actor", "target"}
        if extra:
            raise SchemaError(f"unknown action fields {sorted(extra)}")
        actor, target = obj["actor"], obj.get("target")
        if not _pid_ok(actor):
            raise SchemaError(f"action actor must be a string or an integer, got {actor!r}")
        if target is not None and not _pid_ok(target):
            raise SchemaError(
                f"action target must be a string, an integer or null, got {target!r}"
            )
        return Action(actor, target)
    return obj


# ---------------------------------------------------------------------------
# documents

def diagram_to_obj(d: Diagram, lab: Mapping[TickRef, Any] | None = None) -> dict:
    """The canonical document as a JSON value (`diagram_to_json`, parsed)."""
    return json.loads(diagram_to_json(d, lab))


def diagram_from_obj(obj: Any) -> tuple[Diagram, dict[TickRef, Any]]:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a diagram object, got {obj!r}")
    for key in ("initial", "steps"):
        if key not in obj:
            raise SchemaError(f"diagram object lacks {key!r}")
    reader = _Reader()
    initial = reader.config(obj["initial"])
    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise SchemaError(f"steps must be a list, got {raw_steps!r}")
    steps: list[GlobalStep] = []
    faults: list[Fault] = []
    atoms: list[list[tuple[str, AtomicStep]]] = []
    context = initial
    for k, raw in enumerate(raw_steps):
        here: list[tuple[str, AtomicStep]] = []
        step, context = reader.step(raw, context, k, "", faults, here)
        steps.append(step)
        atoms.append(here)
    raw_labels = obj.get("labels", [])
    if not isinstance(raw_labels, list):
        raise SchemaError(f"labels must be a list, got {raw_labels!r}")
    lab: dict[TickRef, Any] = {}
    for entry in raw_labels:
        ref, value = _label_entry(entry)
        if ref in lab:
            raise SchemaError(f"duplicate label for {ref}")
        lab[ref] = value
    d = Diagram(initial, tuple(steps))
    _keep_faults(d, faults)
    _keep_atoms(d, atoms)
    return d, lab


def _label_entry(entry: Any) -> tuple[TickRef, Any]:
    """One label entry read back. The common shape, an int step and an
    L/R path beside the value, is read in one pass; any other entry goes
    through the checks in order, so the first that fails names the
    fault."""
    if type(entry) is dict and len(entry) == 3 and "value" in entry:
        k, path = entry.get("step"), entry.get("path")
        if type(k) is int and type(path) is str and not path.strip("LR"):
            return TickRef(k, path), label_value_from_obj(entry["value"])
    if not isinstance(entry, dict) or entry.keys() != {"step", "path", "value"}:
        raise SchemaError(f"bad label entry {entry!r}")
    k = entry["step"]  # JSON true is an int to Python, not a step
    if not isinstance(k, int) or isinstance(k, bool) or not _site_ok(entry["path"]):
        raise SchemaError(f"bad label position {entry!r}")
    return TickRef(k, entry["path"]), label_value_from_obj(entry["value"])


# A constant, not a cache: built once at import from no input, and
# `encode` keeps nothing between calls.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_canonical_json(obj: Any) -> str:
    """What `json.dumps(obj, sort_keys=True, separators=(",", ":"))`
    returns, without building an encoder per call."""
    return _CANONICAL.encode(obj)


def diagram_to_json(d: Diagram, lab: Mapping[TickRef, Any] | None = None) -> str:
    """Canonical one-line document; parse-then-print reproduces it.
    Raises SchemaError for a document nested deeper than the reader
    takes (`_Writer`)."""
    w = _Writer()
    initial = w.tree(_leaves(d.initial, Tensor), '{"tensor":[', 1, w.term)[0]
    steps = ",".join([w.tree(atoms, '{"par":[', 2, w.term)[0] for atoms in step_atom_lists(d)])
    labels = ",".join([w.label(r, v) for r, v in sorted((lab or {}).items())])
    return '{"initial":' + initial + ',"labels":[' + labels + '],"steps":[' + steps + "]}"


class _Writer:
    """One call's canonical text, freed with it: what `json.dumps` with
    sorted keys and no whitespace makes of the document's JSON value,
    written straight from the diagram.

    Types, leaves and atomic steps are written once each and kept by id
    with their nesting depth: the diagram keeps every node alive for
    the call, and most of them are shared (idle holds, atoms). Trees
    (configurations, steps, products) are written from their leaves'
    paths by `diagram._join`, a step's from its atom list, the others'
    from one walk; a tree nests two levels per letter of a leaf's path
    plus that leaf's own depth.

    A document is refused with the reader's SchemaError when it nests
    more than `room` JSON levels: the reader's `json` parse recurses
    once per level, under the frames of whatever called it, so 100
    levels of the recursion limit are left for those."""

    __slots__ = ("terms", "room")

    def __init__(self) -> None:
        self.terms: dict[int, tuple[str, int]] = {}
        self.room = sys.getrecursionlimit() - 100

    def tree(self, leaves: list, head: str, above: int, write: Callable) -> tuple[str, int]:
        """The text and nesting depth of a tree of `head` nodes, nested
        `above` levels down, from its (path, leaf) list; `write` writes a
        leaf not yet kept."""
        terms, texts, deepest = self.terms, [], 0
        for path, node in leaves:
            text, depth = terms.get(id(node)) or write(node)
            deepest = max(deepest, 2 * len(path) + depth)
            texts.append((path, text))
        if above + deepest > self.room:
            raise SchemaError("document nests too deeply")
        return _join(texts, head, ",", "]}"), deepest

    def type(self, ty: StateType) -> tuple[str, int]:
        """The text and nesting depth of a type, kept: an atom, or a product from its atoms."""
        made = self.terms.get(id(ty))
        if made is None:
            if type(ty) is Atom:
                made = '{"atom":' + _string(ty.name) + "}", 1
            elif type(ty) is Prod:
                made = self.tree(_leaves(ty, Prod), '{"prod":[', 0, self.type)
            else:
                raise TypeError(f"not a type: {ty!r}")
            self.terms[id(ty)] = made
        return made

    def term(self, node: Leaf | AtomicStep) -> tuple[str, int]:
        """The text and nesting depth of a leaf or an atomic step, kept."""
        cls = type(node)
        if cls is PermStep:
            # as `dict(perm.pairs)` with sorted keys: the last pair wins
            table = sorted(dict(node.perm.pairs).items())
            entries = ",".join([_string(s) + ":" + _string(t) for s, t in table])
            made = '{"perm":{"table":{' + entries + "}}}", 3
        elif cls is Leaf:
            ty, depth = self.type(node.ty)
            made = '{"leaf":' + ty + "}", depth + 1
        else:
            if cls is Tick:
                (a, da), (b, db) = self.type(node.in_ty), self.type(node.out_ty)
                text = '{"tick":{"in":' + a + ',"out":' + b
            elif cls is Fork or cls is Join:
                (a, da), (b, db) = self.type(node.left_ty), self.type(node.right_ty)
                text = ('{"fork"' if cls is Fork else '{"join"') + ':{"l":' + a + ',"r":' + b
            else:
                raise TypeError(f"not a configuration or step: {node!r}")
            made = text + "}}", max(da, db) + 2
        self.terms[id(node)] = made
        return made

    def label(self, ref: TickRef, value: Any) -> str:
        """The text of one label entry, nested three levels down."""
        if (
            isinstance(value, Action)
            and type(value.actor) is str
            and (value.target is None or type(value.target) is str)
        ):
            text = '{"actor":' + _string(value.actor)
            if value.target is not None:
                text += ',"target":' + _string(value.target)
            text += "}"
        else:
            obj = label_value_to_obj(value)
            _check_nesting(obj, self.room - 3)
            text = to_canonical_json(obj)
        step = str(ref.step) if type(ref.step) is int else to_canonical_json(ref.step)
        return '{"path":' + _string(ref.path) + ',"step":' + step + ',"value":' + text + "}"


def _check_nesting(value: Any, room: int) -> None:
    """Raise the reader's SchemaError if a JSON value nests lists and
    objects more than `room` levels deep; an explicit stack, so the
    check itself is not bounded by the recursion limit."""
    todo = [(value, 1)]
    while todo:
        node, level = todo.pop()
        if isinstance(node, dict):
            parts = node.values()
        elif isinstance(node, (list, tuple)):
            parts = node
        else:
            continue
        if level > room:
            raise SchemaError("document nests too deeply")
        todo += ((part, level + 1) for part in parts)


def diagram_from_json(text: str) -> tuple[Diagram, dict[TickRef, Any]]:
    return read_json(text, diagram_from_obj)


def diagram_hash(d: Diagram, lab: Mapping[TickRef, Any] | None = None) -> str:
    """sha256 of the canonical document; stable across runs."""
    return hashlib.sha256(diagram_to_json(d, lab).encode()).hexdigest()


# ---------------------------------------------------------------------------
# witnesses

def witness_to_obj(w: PathWitness) -> list[dict]:
    return [{"cut": e.cut, "site": e.site} for e in w.events()]


def witness_from_obj(obj: Any) -> PathWitness:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"expected a nonempty list of events, got {obj!r}")
    cuts, trail = [], []
    for entry in obj:
        if not isinstance(entry, dict) or set(entry) != {"cut", "site"}:
            raise SchemaError(f"bad witness event {entry!r}")
        cut = entry["cut"]  # JSON true is an int to Python, not a cut
        if not isinstance(cut, int) or isinstance(cut, bool) or not _site_ok(entry["site"]):
            raise SchemaError(f"bad witness event {entry!r}")
        cuts.append(cut)
        trail.append(entry["site"])
    if cuts != list(range(cuts[0], cuts[0] + len(cuts))):
        raise SchemaError(f"witness cuts {cuts} are not consecutive")
    return PathWitness(cuts[0], tuple(trail))
