"""An independent reference for the canonical document writer.

The recursive encoder the library used before `serialize.diagram_to_json`
wrote its text directly: each node becomes a JSON value, and
`json.dumps` with sorted keys and no whitespace prints the document.
Tests compare the writer's bytes with this one's.
"""

import json

from causalweft.diagram import (
    Atom,
    Fork,
    Join,
    Leaf,
    Par,
    PermStep,
    Prod,
    Tensor,
    Tick,
)
from causalweft.serialize import label_value_to_obj


def type_to_obj(ty):
    match ty:
        case Atom(name):
            return {"atom": name}
        case Prod(left, right):
            return {"prod": [type_to_obj(left), type_to_obj(right)]}
    raise TypeError(f"not a state type: {ty!r}")


def config_to_obj(config):
    match config:
        case Leaf(ty):
            return {"leaf": type_to_obj(ty)}
        case Tensor(left, right):
            return {"tensor": [config_to_obj(left), config_to_obj(right)]}
    raise TypeError(f"not a configuration: {config!r}")


def step_to_obj(step):
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


def diagram_to_obj(d, lab=None):
    labels = [
        {"step": r.step, "path": r.path, "value": label_value_to_obj(v)}
        for r, v in sorted((lab or {}).items())
    ]
    return {
        "initial": config_to_obj(d.initial),
        "steps": [step_to_obj(s) for s in d.steps],
        "labels": labels,
    }


def to_canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_json(d, lab=None):
    """The canonical document of `d` and `lab`, by the recursive encoder."""
    return to_canonical_json(diagram_to_obj(d, lab))
