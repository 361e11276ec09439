"""Independent references for the document reader.

The reads the library ran before its one-pass fast paths: every check
in a fixed order, so the first that fails names the fault, and the
value built only once all have passed; and the walks of configurations
and steps that recurse once per level, where the library reads each
left spine in one loop. Tests compare the reads in `serialize` with
these.
"""

from bisect import bisect_left

from causalweft.clocks import Action
from causalweft.diagram import Leaf, Par, Perm, Tensor, check_boundary, site_types
from causalweft.serialize import SchemaError


def _site_ok(s):
    return isinstance(s, str) and not s.strip("LR")


def _pid_ok(p):
    return isinstance(p, (str, int)) and not isinstance(p, bool)


def reference_perm(reader, table, context):
    """The perm of `table` applied to `context`, its target built with
    `reader`'s shared terms."""
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
        target = _target(reader, sorted(back), lambda p: types[back[p]])
    return Perm(context, target, tuple(sorted(table.items())))


def _target(reader, paths, type_of):
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
            done[-1] = reader.term(Tensor, done[-1], right)
        elif j - i == 1 and paths[i] == prefix:
            done.append(reader.term(Leaf, type_of(prefix)))
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


def reference_config(reader, obj):
    """A configuration, read with `reader`'s shared terms, one call per
    level."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key config object, got {obj!r}")
    [(key, body)] = obj.items()
    if key == "leaf":
        return reader.term(Leaf, reader.type(body))
    if key == "tensor":
        if not isinstance(body, list) or len(body) != 2:
            raise SchemaError(f"tensor takes two parts, got {body!r}")
        return reader.term(
            Tensor, reference_config(reader, body[0]), reference_config(reader, body[1])
        )
    raise SchemaError(f"unknown config node {obj!r}")


def reference_step(reader, obj, context, k, path, faults, atoms):
    """The node at `path` of step k applied to `context`, with its output
    configuration, read with `reader`'s shared terms, one call per
    level; appends its boundary faults to `faults` and its atomic steps
    with their paths to `atoms`, in tree order."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"expected a one-key step object, got {obj!r}")
    [(key, body)] = obj.items()
    if key == "perm":
        step = reader.perm(body, context)
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
        left, lout = reference_step(reader, body[0], lctx, k, path + "L", faults, atoms)
        right, rout = reference_step(reader, body[1], rctx, k, path + "R", faults, atoms)
        return Par(left, right), reader.term(Tensor, lout, rout)
    if key == "tick":
        if not (isinstance(body, dict) and len(body) == 2 and "in" in body and "out" in body):
            raise SchemaError(f"tick takes in/out types, got {body!r}")
        step, want, out = reader.atom(key, reader.type(body["in"]), reader.type(body["out"]))
    elif key == "fork" or key == "join":
        if not (isinstance(body, dict) and len(body) == 2 and "l" in body and "r" in body):
            raise SchemaError(f"{key} takes l/r types, got {body!r}")
        step, want, out = reader.atom(key, reader.type(body["l"]), reader.type(body["r"]))
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
