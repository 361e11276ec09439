"""Independent references for the document reader.

The reads the library ran before its one-pass fast paths: every check
in a fixed order, so the first that fails names the fault, and the
value built only once all have passed; and the walks of types,
configurations and steps that recurse once per level, where the
library reads each left spine in one loop. Types, configurations and
atomic steps are built with the plain term constructors, one object
per node read, where the library shares equal terms within a load;
nothing here calls the library's reader. Tests compare the reads in
`serialize` with these.
"""

from bisect import bisect_left

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
    check_boundary,
    site_types,
)
from causalweft.serialize import SchemaError


def _site_ok(s):
    return isinstance(s, str) and not s.strip("LR")


def _pid_ok(p):
    return isinstance(p, (str, int)) and not isinstance(p, bool)


def plain_term(cls, a, b=None):
    """A new `cls(a)` or `cls(a, b)`: the term builder of the reads
    below, which share nothing."""
    return cls(a) if b is None else cls(a, b)


def reference_perm(term, table, context):
    """The perm of `table` applied to `context`, its target built with
    `term` (`plain_term`, or a reader's shared `_Reader.term`)."""
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
        target = _target(term, sorted(back), lambda p: types[back[p]])
    return Perm(context, target, tuple(sorted(table.items())))


def _target(term, paths, type_of):
    """The configuration whose leaf set is the sorted `paths`. Sorted
    order is pre-order, so one pass with a stack visits each node as the
    slice [i, j) of paths below it, merges its halves once built, and
    reports the first node that is neither a leaf nor split."""
    done = []
    todo = [("", 0, len(paths))]
    while todo:
        prefix, i, j = todo.pop()
        if prefix is None:  # both halves of a node are built
            right = done.pop()
            done[-1] = term(Tensor, done[-1], right)
        elif j - i == 1 and paths[i] == prefix:
            done.append(term(Leaf, type_of(prefix)))
        else:
            m = bisect_left(paths, prefix + "R", i, j)
            if paths[i] == prefix or m == i or m == j:
                raise SchemaError(f"table paths {paths[i:j]} do not form a tree")
            todo += ((None, 0, 0), (prefix + "R", m, j), (prefix + "L", i, m))
    return done[0]


def reference_label_value(obj):
    """A label value read back: an object with an actor is an Action,
    anything else passes through."""
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


def reference_type(obj):
    """A state type, one call per level."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key type object, got {obj!r}")
    [(key, body)] = obj.items()
    if key == "atom":
        if not isinstance(body, str):
            raise SchemaError(f"atom name must be a string, got {body!r}")
        if not body:
            raise SchemaError("atom name must be nonempty")
        return Atom(body)
    if key == "prod":
        if not isinstance(body, list) or len(body) != 2:
            raise SchemaError(f"prod takes two parts, got {body!r}")
        return Prod(reference_type(body[0]), reference_type(body[1]))
    raise SchemaError(f"unknown type node {obj!r}")


def reference_config(obj):
    """A configuration, one call per level."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key config object, got {obj!r}")
    [(key, body)] = obj.items()
    if key == "leaf":
        return Leaf(reference_type(body))
    if key == "tensor":
        if not isinstance(body, list) or len(body) != 2:
            raise SchemaError(f"tensor takes two parts, got {body!r}")
        return Tensor(reference_config(body[0]), reference_config(body[1]))
    raise SchemaError(f"unknown config node {obj!r}")


def reference_atom(key, a, b):
    """The tick, fork or join over the types `a` and `b`, with its input
    and output configurations: a tick rewrites [a] to [b], a fork splits
    [a x b] into [a] * [b], and a join fuses them back."""
    if key == "tick":
        return Tick(a, b), Leaf(a), Leaf(b)
    pair, halves = Leaf(Prod(a, b)), Tensor(Leaf(a), Leaf(b))
    if key == "fork":
        return Fork(a, b), pair, halves
    return Join(a, b), halves, pair


def reference_step(obj, context, k, path, faults, atoms):
    """The node at `path` of step k applied to `context`, with its output
    configuration, one call per level; appends its boundary faults to
    `faults` and its atomic steps with their paths to `atoms`, in tree
    order."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key step object, got {obj!r}")
    [(key, body)] = obj.items()
    if key == "perm":
        if not isinstance(body, dict) or len(body) != 1 or "table" not in body:
            raise SchemaError(f"perm takes a table, got {body!r}")
        table = body["table"]
        if not isinstance(table, dict) or not table:
            raise SchemaError(f"perm table must be a nonempty object, got {table!r}")
        step = PermStep(reference_perm(plain_term, table, context))
        atoms.append((path, step))
        return step, step.perm.target
    if key == "par":
        if not isinstance(body, list) or len(body) != 2:
            raise SchemaError(f"par takes two steps, got {body!r}")
        lctx = rctx = None
        if isinstance(context, Tensor):
            lctx, rctx = context.left, context.right
        else:
            check_boundary(faults, k, path, context, None)
        left, lout = reference_step(body[0], lctx, k, path + "L", faults, atoms)
        right, rout = reference_step(body[1], rctx, k, path + "R", faults, atoms)
        return Par(left, right), Tensor(lout, rout)
    if key == "tick":
        if not (isinstance(body, dict) and len(body) == 2 and "in" in body and "out" in body):
            raise SchemaError(f"tick takes in/out types, got {body!r}")
        step, want, out = reference_atom(key, reference_type(body["in"]), reference_type(body["out"]))
    elif key == "fork" or key == "join":
        if not (isinstance(body, dict) and len(body) == 2 and "l" in body and "r" in body):
            raise SchemaError(f"{key} takes l/r types, got {body!r}")
        step, want, out = reference_atom(key, reference_type(body["l"]), reference_type(body["r"]))
    else:
        raise SchemaError(f"unknown step node {obj!r}")
    check_boundary(faults, k, path, context, want)
    atoms.append((path, step))
    return step, out


def read_document(obj, read_config, read_step):
    """What `diagram_from_obj` reads of a diagram document before its
    labels, with the given config and step reads: the initial
    configuration, each step with its output configuration, the faults
    and each step's atom list; or the class and text of the SchemaError
    that refuses the document. Any other error propagates."""
    try:
        if not isinstance(obj, dict):
            raise SchemaError(f"expected a diagram object, got {obj!r}")
        for key in ("initial", "steps"):
            if key not in obj:
                raise SchemaError(f"diagram object lacks {key!r}")
        initial = read_config(obj["initial"])
        if not isinstance(obj["steps"], list):
            raise SchemaError(f"steps must be a list, got {obj['steps']!r}")
        steps, faults, atoms, context = [], [], [], initial
        for k, raw in enumerate(obj["steps"]):
            here = []
            step, context = read_step(raw, context, k, "", faults, here)
            steps.append((step, context))
            atoms.append(here)
    except SchemaError as e:
        return f"{type(e).__name__}: {e}"
    return initial, steps, faults, atoms
