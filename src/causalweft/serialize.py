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
found. Label values of the form {"actor": ..., "target": ...} are read
back as Actions, whose actor and target must be strings or integers;
anything else passes through as plain JSON.

Printing is canonical (sorted keys, no whitespace, labels sorted by
step then path), so parse-then-print is byte-stable and documents can
be hashed.

The stdlib `json` module and the tree walks here recurse once per
level of nesting, so a document nested deeper than the recursion limit
(about 1000 levels; a configuration or type adds two per node) is
rejected with a SchemaError, not a RecursionError (`nesting_guard`).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from .clocks import Action
from .diagram import (
    Atom,
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
    _atom_input,
    _atom_output,
    _keep_faults,
    check_boundary,
    site_types,
)
from .paths import PathWitness


class SchemaError(ValueError):
    """The JSON does not describe a diagram."""


@contextmanager
def nesting_guard() -> Iterator[None]:
    """Read or write one JSON document: a RecursionError inside becomes
    a SchemaError. Used only where documents cross the JSON boundary,
    so a recursion bug elsewhere still surfaces as itself."""
    try:
        yield
    except RecursionError:
        raise SchemaError("document nests too deeply") from None


def _need(obj: Any, kind: str) -> dict:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key {kind} object, got {obj!r}")
    return obj


# ---------------------------------------------------------------------------
# types and configurations

def type_to_obj(ty: StateType) -> dict:
    match ty:
        case Atom(name):
            return {"atom": name}
        case Prod(left, right):
            return {"prod": [type_to_obj(left), type_to_obj(right)]}
    raise TypeError(f"not a state type: {ty!r}")


def type_from_obj(obj: Any) -> StateType:
    obj = _need(obj, "type")
    if "atom" in obj:
        if not isinstance(obj["atom"], str):
            raise SchemaError(f"atom name must be a string, got {obj['atom']!r}")
        return Atom(obj["atom"])
    if "prod" in obj:
        parts = obj["prod"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise SchemaError(f"prod takes two parts, got {parts!r}")
        return Prod(type_from_obj(parts[0]), type_from_obj(parts[1]))
    raise SchemaError(f"unknown type node {obj!r}")


def config_to_obj(config: Config) -> dict:
    match config:
        case Leaf(ty):
            return {"leaf": type_to_obj(ty)}
        case Tensor(left, right):
            return {"tensor": [config_to_obj(left), config_to_obj(right)]}
    raise TypeError(f"not a configuration: {config!r}")


def config_from_obj(obj: Any) -> Config:
    obj = _need(obj, "config")
    if "leaf" in obj:
        return Leaf(type_from_obj(obj["leaf"]))
    if "tensor" in obj:
        parts = obj["tensor"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise SchemaError(f"tensor takes two parts, got {parts!r}")
        return Tensor(config_from_obj(parts[0]), config_from_obj(parts[1]))
    raise SchemaError(f"unknown config node {obj!r}")


# ---------------------------------------------------------------------------
# steps

def step_to_obj(step: GlobalStep) -> dict:
    match step:
        case Tick(in_ty, out_ty):
            return {"tick": {"in": type_to_obj(in_ty), "out": type_to_obj(out_ty)}}
        case Fork(l, r):
            return {"fork": {"l": type_to_obj(l), "r": type_to_obj(r)}}
        case Join(l, r):
            return {"join": {"l": type_to_obj(l), "r": type_to_obj(r)}}
        case PermStep(perm):
            return {"perm": {"table": dict(perm.pairs)}}
        case Par(left, right):
            return {"par": [step_to_obj(left), step_to_obj(right)]}
    raise TypeError(f"not a step: {step!r}")


def _site_ok(s: Any) -> bool:
    return isinstance(s, str) and not s.strip("LR")


def _tree_from_paths(paths: set[str], type_of) -> Config:
    """Rebuild the unique configuration whose leaf set is `paths`."""
    def build(rest: set[str], prefix: str) -> Config:
        if rest == {""}:
            return Leaf(type_of(prefix))
        ls = {p[1:] for p in rest if p.startswith("L")}
        rs = {p[1:] for p in rest if p.startswith("R")}
        if "" in rest or len(ls) + len(rs) != len(rest) or not ls or not rs:
            raise SchemaError(
                f"table paths {sorted(prefix + p for p in rest)} do not form a tree"
            )
        return Tensor(build(ls, prefix + "L"), build(rs, prefix + "R"))

    return build(paths, "")


def _perm_from_obj(body: Any, context: Config | None) -> PermStep:
    if not isinstance(body, dict) or set(body) != {"table"}:
        raise SchemaError(f"perm takes a table, got {body!r}")
    table = body["table"]
    if not isinstance(table, dict) or not table:
        raise SchemaError(f"perm table must be a nonempty object, got {table!r}")
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
    if all(s == t for s, t in table.items()):
        target = context
    else:
        back = {t: s for s, t in table.items()}
        target = _tree_from_paths(set(back), lambda p: types[back[p]])
    return PermStep(Perm(context, target, tuple(sorted(table.items()))))


def _step_from_obj(
    obj: Any, context: Config | None, k: int, path: str, faults: list[Fault]
) -> tuple[GlobalStep, Config]:
    """Parse the node at `path` of step k, applied to `context`; return
    it with its output configuration, read off the same walk, and
    append to `faults` what `validate` finds at it, in tree order.
    Those are boundary faults only: a perm parsed here has no table
    faults, because its keys are the sites of its source (`context`),
    its values are injective, and its target is rebuilt from the values
    with the source's types, so `Perm.faults()` is empty."""
    obj = _need(obj, "step")
    if "par" in obj:
        parts = obj["par"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise SchemaError(f"par takes two steps, got {parts!r}")
        lctx = rctx = None
        if isinstance(context, Tensor):
            lctx, rctx = context.left, context.right
        else:
            check_boundary(faults, k, path, context, None)
        left, lout = _step_from_obj(parts[0], lctx, k, path + "L", faults)
        right, rout = _step_from_obj(parts[1], rctx, k, path + "R", faults)
        return Par(left, right), Tensor(lout, rout)
    if "perm" in obj:
        step = _perm_from_obj(obj["perm"], context)
        return step, step.perm.target
    if "tick" in obj:
        body = obj["tick"]
        if not isinstance(body, dict) or set(body) != {"in", "out"}:
            raise SchemaError(f"tick takes in/out types, got {body!r}")
        step: GlobalStep = Tick(type_from_obj(body["in"]), type_from_obj(body["out"]))
    elif "fork" in obj:
        body = obj["fork"]
        if not isinstance(body, dict) or set(body) != {"l", "r"}:
            raise SchemaError(f"fork takes l/r types, got {body!r}")
        step = Fork(type_from_obj(body["l"]), type_from_obj(body["r"]))
    elif "join" in obj:
        body = obj["join"]
        if not isinstance(body, dict) or set(body) != {"l", "r"}:
            raise SchemaError(f"join takes l/r types, got {body!r}")
        step = Join(type_from_obj(body["l"]), type_from_obj(body["r"]))
    else:
        raise SchemaError(f"unknown step node {obj!r}")
    check_boundary(faults, k, path, context, _atom_input(step))
    return step, _atom_output(step)


def step_from_obj(obj: Any, context: Config | None = None) -> GlobalStep:
    """Parse a step. `context` is the configuration the step is applied
    to; it is how a perm learns its source and is threaded into par
    halves."""
    return _step_from_obj(obj, context, 0, "", [])[0]


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
    labels = [
        {"step": r.step, "path": r.path, "value": label_value_to_obj(v)}
        for r, v in sorted((lab or {}).items())
    ]
    return {
        "initial": config_to_obj(d.initial),
        "steps": [step_to_obj(s) for s in d.steps],
        "labels": labels,
    }


def diagram_from_obj(obj: Any) -> tuple[Diagram, dict[TickRef, Any]]:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a diagram object, got {obj!r}")
    for key in ("initial", "steps"):
        if key not in obj:
            raise SchemaError(f"diagram object lacks {key!r}")
    initial = config_from_obj(obj["initial"])
    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise SchemaError(f"steps must be a list, got {raw_steps!r}")
    steps: list[GlobalStep] = []
    faults: list[Fault] = []
    context = initial
    for k, raw in enumerate(raw_steps):
        step, context = _step_from_obj(raw, context, k, "", faults)
        steps.append(step)
    raw_labels = obj.get("labels", [])
    if not isinstance(raw_labels, list):
        raise SchemaError(f"labels must be a list, got {raw_labels!r}")
    lab: dict[TickRef, Any] = {}
    for entry in raw_labels:
        if not isinstance(entry, dict) or not {"step", "path", "value"} <= set(entry):
            raise SchemaError(f"bad label entry {entry!r}")
        if not isinstance(entry["step"], int) or not _site_ok(entry["path"]):
            raise SchemaError(f"bad label position {entry!r}")
        ref = TickRef(entry["step"], entry["path"])
        if ref in lab:
            raise SchemaError(f"duplicate label for {ref}")
        lab[ref] = label_value_from_obj(entry["value"])
    d = Diagram(initial, tuple(steps))
    _keep_faults(d, faults)
    return d, lab


def to_canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def diagram_to_json(d: Diagram, lab: Mapping[TickRef, Any] | None = None) -> str:
    """Canonical one-line document; parse-then-print reproduces it."""
    with nesting_guard():
        return to_canonical_json(diagram_to_obj(d, lab))


def diagram_from_json(text: str) -> tuple[Diagram, dict[TickRef, Any]]:
    with nesting_guard():
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not JSON: {e}") from None
        return diagram_from_obj(obj)


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
        if not isinstance(entry["cut"], int) or not _site_ok(entry["site"]):
            raise SchemaError(f"bad witness event {entry!r}")
        cuts.append(entry["cut"])
        trail.append(entry["site"])
    if cuts != list(range(cuts[0], cuts[0] + len(cuts))):
        raise SchemaError(f"witness cuts {cuts} are not consecutive")
    return PathWitness(cuts[0], tuple(trail))
