"""Independent references for the document reader.

The reads the library ran before its one-pass fast paths: every check
in a fixed order, so the first that fails names the fault, and the
value built only once all have passed. Tests compare the one-pass
reads in `serialize` with these.
"""

from bisect import bisect_left

from causalweft.clocks import Action
from causalweft.diagram import Leaf, Perm, Tensor, site_types
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
