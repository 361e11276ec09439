"""Inductive diagrams of concurrent executions.

An execution is modeled as a sequence of global steps acting on a
configuration of typed sites. A site is any place state can live: a
process, a thread, a message in flight. Configurations are binary
trees of sites, and each global step is a binary tree of atomic
actions (tick, fork, join, perm) whose shape mirrors the part of the
configuration it touches, so independence is structural: actions in
different branches of the same step cannot interact.

The atomic actions:

    tick    rewrite the state at one site in place
    fork    split one site holding a pair into two sites
    join    fuse two adjacent sites into one holding a pair
    perm    rearrange sites without touching their state

A diagram is a boundary-compatible sequence of such steps. The empty
sequence is the identity. Cuts (the boundaries between steps, numbered
0..N) are the moments of an execution; slicing a diagram at cuts gives
prefixes and windows that are diagrams in their own right.
`check_cut` is the one judge of a cut given as input, and `_site_ok`
of a site or tree path read from a document or the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")

# ---------------------------------------------------------------------------
# state types
#
# A compiled execution builds terms by the hundred, so each term class
# has its own __init__: the one `dataclass(frozen=True)` generates looks
# up object.__setattr__ anew per field. `dataclass` keeps a class-defined
# __init__ and still generates eq, hash, repr and order (the tree classes
# write their repr from their leaves: `_tree_repr`), and assigning or
# deleting a field still raises FrozenInstanceError. Configurations,
# perms and parallel steps fill the instance __dict__ in one statement,
# the cheapest way: all three keep derived tables there anyway. The
# other terms are hashed, compared and read over and over, so they set
# each field with `_setfield` and keep it in inline attribute storage;
# on CPython 3.11 a filled __dict__ makes each later read about three
# times slower and adds 64 bytes per instance. No __slots__: derived
# tables live in the instance __dict__.

# A constant: the setter that a frozen dataclass's own __setattr__ hides.
_setfield = object.__setattr__


# ---------------------------------------------------------------------------
# binary trees (product types, configurations, parallel steps): the
# leaves' L/R paths, left to right, fix a tree, so the printers and
# `serialize` write it from those, and `_tree` builds every tree that is
# built from them.

def _leaves(root: object, inner: type) -> list[tuple[str, object]]:
    """The leaves below the nodes of class `inner` (exactly), left to
    right, each with its L/R path: one walk with an explicit stack, so
    depth is not bounded by the recursion limit."""
    out, stack = [], [(root, "")]
    while stack:
        node, path = stack.pop()
        if type(node) is inner:
            stack.append((node.right, path + "R"))
            stack.append((node.left, path + "L"))
        else:
            out.append((path, node))
    return out


def _tree(leaves: Iterable[tuple[str, T]], pair: Callable[[T, T], T]) -> T | None:
    """The inverse of `_leaves`: the root whose leaves, left to right,
    are the (path, node) list, each inner node `pair(left, right)`; None
    unless the paths are distinct L/R paths, in order, that form a tree.
    One stack merge: push each leaf, and fuse the top two entries while
    they are the L and R halves of one node, so each sits at its path."""
    paths, nodes = [], []
    for path, node in leaves:
        while path and path[-1] == "R" and paths and paths[-1] == path[:-1] + "L":
            paths.pop()
            node = pair(nodes.pop(), node)
            path = path[:-1]
        paths.append(path)
        nodes.append(node)
    return nodes[0] if paths == [""] else None


def _join(leaves: Iterable[tuple[str, str]], head: str, sep: str, tail: str) -> str:
    """The text of a tree, each node `head` + left + `sep` + right + `tail`,
    from its leaves' (path, text) list: a leaf opens the node per trailing
    L of its path that it is leftmost in, and closes one per trailing R."""
    return sep.join([
        head * (len(p) - len(p.rstrip("L"))) + text + tail * (len(p) - len(p.rstrip("R")))
        for p, text in leaves
    ])


def _tree_repr(node: object) -> str:
    """The dataclass repr of a tree node, from its leaves: no recursion per level."""
    cls = type(node)
    leaves = [(p, repr(leaf)) for p, leaf in _leaves(node, cls)]
    return _join(leaves, cls.__qualname__ + "(left=", ", right=", ")")


@dataclass(frozen=True)
class Atom:
    """An opaque named state type."""

    name: str

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("atom name must be nonempty")
        _setfield(self, "name", name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Prod:
    """Two state values held together at a single site; equal by their leaves' paths."""

    left: "StateType"
    right: "StateType"

    def __init__(self, left: "StateType", right: "StateType") -> None:
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prod):
            return NotImplemented
        return self is other or _leaves(self, Prod) == _leaves(other, Prod)

    def __hash__(self) -> int:
        return hash(tuple(_leaves(self, Prod)))

    __repr__ = _tree_repr

    def __str__(self) -> str:
        return _join([(p, str(a)) for p, a in _leaves(self, Prod)], "(", " x ", ")")


StateType = Atom | Prod

# ---------------------------------------------------------------------------
# configurations and sites
#
# A site is addressed by its path from the configuration root: a string
# over {L, R}, empty for the root of a single-leaf configuration. Site
# paths of one configuration are never prefixes of one another, so
# plain lexicographic order on the strings is left-to-right leaf order.

@dataclass(frozen=True)
class Leaf:
    """A single site holding state of the given type."""

    ty: StateType

    def __init__(self, ty: StateType) -> None:
        self.__dict__["ty"] = ty

    def __str__(self) -> str:
        return f"[{self.ty}]"


@dataclass(frozen=True)
class Tensor:
    """Two disjoint halves of a configuration, side by side.

    Equality and hashing read the site table, which fixes the tree, so
    a wide tensor does not recurse once per level."""

    left: "Config"
    right: "Config"

    def __init__(self, left: "Config", right: "Config") -> None:
        self.__dict__["left"], self.__dict__["right"] = left, right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self is other or site_types(self) == site_types(other)

    def __hash__(self) -> int:
        return hash(tuple(site_types(self).items()))

    __repr__ = _tree_repr

    def __str__(self) -> str:
        return _join([(p, str(s)) for p, s in _leaves(self, Tensor)], "(", " * ", ")")


Config = Leaf | Tensor

SiteRef = str


def _site_ok(s: object) -> bool:
    """Is `s` a site path: a string over L and R?"""
    return isinstance(s, str) and not s.strip("LR")


_SITE_TYPES = "_site_types"


def site_types(config: Config) -> Mapping[SiteRef, StateType]:
    """Site path -> state type for every site of a configuration, in
    left-to-right order. Built on first use from `_leaves`, and kept in
    the instance's own __dict__, so it is freed with the configuration.
    Read-only: every caller shares it."""
    table = config.__dict__.get(_SITE_TYPES)
    if table is None:
        table = {}
        for path, leaf in _leaves(config, Tensor):
            if type(leaf) is not Leaf:
                raise TypeError(f"not a configuration: {leaf!r}")
            table[path] = leaf.ty
        config.__dict__[_SITE_TYPES] = table
    return table


def sites(config: Config) -> tuple[SiteRef, ...]:
    """All site paths of a configuration, in left-to-right order."""
    return tuple(site_types(config))


def n_sites(config: Config) -> int:
    return len(site_types(config))


def subconfig(config: Config, path: str) -> Config:
    """The subtree of a configuration at a (possibly partial) path."""
    node = config
    for c in path:
        if not isinstance(node, Tensor):
            raise ValueError(f"path {path!r} leaves the configuration at {node}")
        if c == "L":
            node = node.left
        elif c == "R":
            node = node.right
        else:
            raise ValueError(f"path {path!r} contains {c!r}, expected L or R")
    return node


def site_type(config: Config, site: SiteRef) -> StateType:
    """The state type at a site. The path must end on a leaf."""
    ty = site_types(config).get(site)
    if ty is None:
        subconfig(config, site)  # raises for a path that leaves the tree
        raise ValueError(f"site {site!r} is not a leaf of {config}")
    return ty


def tensor(parts: Sequence[Config]) -> Config:
    """Left-nested tensor of one or more configurations."""
    if not parts:
        raise ValueError("a configuration has at least one site")
    return reduce(Tensor, parts)


# ---------------------------------------------------------------------------
# permutations

@dataclass(frozen=True)
class Perm:
    """A type-preserving bijection between the sites of two configurations.

    `pairs` holds (source site, target site) entries sorted by source.
    Use `perm_from_table` to build a checked permutation; instances
    built directly are checked by `validate`, the one check the paths
    table relies on.
    """

    source: Config
    target: Config
    pairs: tuple[tuple[SiteRef, SiteRef], ...]

    def __init__(
        self, source: Config, target: Config, pairs: tuple[tuple[SiteRef, SiteRef], ...]
    ) -> None:
        self.__dict__.update(source=source, target=target, pairs=pairs)

    @cached_property
    def table(self) -> dict[SiteRef, SiteRef]:
        return dict(self.pairs)

    def apply(self, site: SiteRef) -> SiteRef:
        return self.table[site]

    def invert(self) -> "Perm":
        return Perm(
            self.target,
            self.source,
            tuple(sorted((t, s) for s, t in self.pairs)),
        )

    def is_identity(self) -> bool:
        if any(s != t for s, t in self.pairs):
            return False
        return self.source == self.target

    def faults(self) -> list[str]:
        """Why this is not a type-preserving bijection; empty if it is."""
        out = []
        src, tgt = site_types(self.source), site_types(self.target)
        seen_src, seen_tgt = set(), set()
        for s, t in self.pairs:
            if s in seen_src:
                out.append(f"source site {s!r} mapped twice")
            if t in seen_tgt:
                out.append(f"target site {t!r} hit twice (not injective)")
            seen_src.add(s)
            seen_tgt.add(t)
        for s in sorted(src.keys() - seen_src):
            out.append(f"source site {s!r} unmapped")
        for s in sorted(seen_src - src.keys()):
            out.append(f"{s!r} is not a site of the source")
        for t in sorted(tgt.keys() - seen_tgt):
            out.append(f"target site {t!r} not hit")
        for t in sorted(seen_tgt - tgt.keys()):
            out.append(f"{t!r} is not a site of the target")
        if out:
            return out
        for s, t in self.pairs:
            a, b = src[s], tgt[t]
            if a != b:
                out.append(f"{s!r}:{a} sent to {t!r}:{b} (type changed)")
        return out


def perm_from_table(
    source: Config, target: Config, table: Mapping[SiteRef, SiteRef]
) -> Perm:
    """Build a permutation, rejecting tables that are not type-preserving
    bijections between the sites of `source` and those of `target`."""
    p = Perm(source, target, tuple(sorted(table.items())))
    faults = p.faults()
    if faults:
        raise ValueError("bad permutation: " + "; ".join(faults))
    return p


def perm_id(config: Config) -> Perm:
    return Perm(config, config, tuple((s, s) for s in site_types(config)))


def perm_swap(left: Config, right: Config) -> Perm:
    """left * right  ->  right * left, every site keeping its state."""
    table = {"L" + s: "R" + s for s in sites(left)}
    table.update({"R" + s: "L" + s for s in sites(right)})
    return perm_from_table(Tensor(left, right), Tensor(right, left), table)


def perm_assoc(a: Config, b: Config, c: Config) -> Perm:
    """a * (b * c)  ->  (a * b) * c, every site keeping its state."""
    table = {"L" + s: "LL" + s for s in sites(a)}
    table.update({"RL" + s: "LR" + s for s in sites(b)})
    table.update({"RR" + s: "R" + s for s in sites(c)})
    return perm_from_table(
        Tensor(a, Tensor(b, c)), Tensor(Tensor(a, b), c), table
    )


# ---------------------------------------------------------------------------
# steps

@dataclass(frozen=True)
class Tick:
    """Rewrite the state at one site; the output type is unconstrained."""

    in_ty: StateType
    out_ty: StateType

    def __init__(self, in_ty: StateType, out_ty: StateType) -> None:
        _setfield(self, "in_ty", in_ty)
        _setfield(self, "out_ty", out_ty)


@dataclass(frozen=True)
class Fork:
    """Split a site holding a pair: [l x r] -> [l] * [r]."""

    left_ty: StateType
    right_ty: StateType

    def __init__(self, left_ty: StateType, right_ty: StateType) -> None:
        _setfield(self, "left_ty", left_ty)
        _setfield(self, "right_ty", right_ty)


@dataclass(frozen=True)
class Join:
    """Fuse two adjacent sites into a pair: [l] * [r] -> [l x r]."""

    left_ty: StateType
    right_ty: StateType

    def __init__(self, left_ty: StateType, right_ty: StateType) -> None:
        _setfield(self, "left_ty", left_ty)
        _setfield(self, "right_ty", right_ty)


@dataclass(frozen=True)
class PermStep:
    """Rearrange sites according to a permutation."""

    perm: Perm

    def __init__(self, perm: Perm) -> None:
        _setfield(self, "perm", perm)


@dataclass(frozen=True)
class Par:
    """Two steps running side by side on disjoint halves of the
    configuration.

    Equality and hashing read the list of atoms with their paths
    (`step_atoms`, kept on first use), which fixes the tree, so a wide
    step does not recurse once per level."""

    left: "GlobalStep"
    right: "GlobalStep"

    def __init__(self, left: "GlobalStep", right: "GlobalStep") -> None:
        self.__dict__["left"], self.__dict__["right"] = left, right

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Par):
            return NotImplemented
        return self is other or step_atoms(self) == step_atoms(other)

    def __hash__(self) -> int:
        return hash(tuple(step_atoms(self)))

    __repr__ = _tree_repr


GlobalStep = Tick | Fork | Join | PermStep | Par
AtomicStep = Tick | Fork | Join | PermStep


def noop(config: Config) -> PermStep:
    """The step that leaves a configuration alone (identity perm)."""
    return PermStep(perm_id(config))


# `validate` of a diagram built in code and `step_input`/`step_output`
# call these on every atom. They dispatch on exact classes, as the paths
# tables, the writer and the walks of atoms and ticks do, so all of them
# refuse a subclass alike.
def _atom_input(atom: AtomicStep) -> Config:
    kind = type(atom)
    if kind is Tick:
        return Leaf(atom.in_ty)
    if kind is Fork:
        return Leaf(Prod(atom.left_ty, atom.right_ty))
    if kind is Join:
        return Tensor(Leaf(atom.left_ty), Leaf(atom.right_ty))
    if kind is PermStep:
        return atom.perm.source
    raise TypeError(f"not a step: {atom!r}")


def _atom_output(atom: AtomicStep) -> Config:
    kind = type(atom)
    if kind is Tick:
        return Leaf(atom.out_ty)
    if kind is Fork:
        return Tensor(Leaf(atom.left_ty), Leaf(atom.right_ty))
    if kind is Join:
        return Leaf(Prod(atom.left_ty, atom.right_ty))
    if kind is PermStep:
        return atom.perm.target
    raise TypeError(f"not a step: {atom!r}")


def _outputs(atoms: list[tuple[str, AtomicStep]]) -> Config:
    """A step's output from its atom list, tensored along its tree."""
    return _tree([(p, _atom_output(a)) for p, a in atoms], Tensor)


def step_input(step: GlobalStep) -> Config:
    return _tree([(p, _atom_input(a)) for p, a in step_atoms(step)], Tensor)


def step_output(step: GlobalStep) -> Config:
    return _outputs(step_atoms(step))


_ATOMS = "_step_atoms"


def step_atoms(step: GlobalStep) -> list[tuple[str, AtomicStep]]:
    """The atomic actions of a step with their paths in its tree, in
    left-to-right order, as a list: every caller reads all of them.
    Built from `_leaves`; a parallel step keeps the list its own walk
    found in its __dict__, as a configuration keeps its site table, so
    a step built in code is walked once. Read-only: every caller shares
    it."""
    # an atom keeps nothing: reading its __dict__ would give up the
    # inline storage of its fields (see the note at the top)
    kept = type(step) is Par
    atoms = step.__dict__.get(_ATOMS) if kept else None
    if atoms is None:
        atoms = _leaves(step, Par)
        for _, atom in atoms:
            if type(atom) not in (Tick, Fork, Join, PermStep):
                raise TypeError(f"not a step: {atom!r}")
        if kept:
            step.__dict__[_ATOMS] = atoms
    return atoms


def par(steps: Sequence[GlobalStep]) -> GlobalStep:
    """Left-nested parallel composition of one or more steps."""
    if not steps:
        raise ValueError("empty parallel composition")
    return reduce(Par, steps)


# ---------------------------------------------------------------------------
# diagrams

@dataclass(frozen=True)
class Diagram:
    """A sequence of global steps whose boundaries chain up.

    `initial` is the configuration before the first step; an empty
    step sequence is the identity on it. Equality is structural.
    """

    initial: Config
    steps: tuple[GlobalStep, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> Config:
        return step_output(self.steps[-1]) if self.steps else self.initial


def identity(config: Config) -> Diagram:
    return Diagram(config)


def cut_configs(d: Diagram) -> tuple[Config, ...]:
    """The configuration at every cut 0..N, in order, from `step_atom_lists`."""
    return (d.initial, *map(_outputs, step_atom_lists(d)))


def check_cut(d: Diagram, cut: int) -> None:
    """Raise ValueError unless `cut` is an int, not a bool, in 0..n_steps."""
    if type(cut) is not int:
        raise ValueError(f"cut {cut!r} is not an int")
    if not 0 <= cut <= d.n_steps:
        raise ValueError(f"cut {cut} out of range 0..{d.n_steps}")


def cut_config(d: Diagram, t: int) -> Config:
    """The configuration at cut t (0 = before the first step)."""
    check_cut(d, t)
    return d.initial if t == 0 else step_output(d.steps[t - 1])


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Fault:
    """A typing defect at a step: `path` locates the offending node
    inside the step's tree."""

    step: int
    path: str
    message: str

    def __str__(self) -> str:
        at = self.path if self.path else "."
        return f"step {self.step} at {at}: {self.message}"


def check_boundary(
    faults: list[Fault], k: int, path: str, have: Config | None, want: Config | None
) -> None:
    """Append to `faults` the fault of applying the node at `path` of
    step k to `have`, if it does not fit. `want` is the input of an
    atomic action; None stands for a parallel step, which needs a
    tensor. `have` is None below a parallel step that met a leaf, where
    there is no boundary to check. Every typing walk reports its
    boundary faults here."""
    if have is None:
        return
    if want is None:
        if not isinstance(have, Tensor):
            faults.append(Fault(k, path, f"parallel step needs a tensor, found {have}"))
    elif have is not want and have != want:
        faults.append(Fault(k, path, f"step expects {want}, found {have}"))


def _step_faults(step: GlobalStep, have: Config, k: int) -> list[Fault]:
    """The faults of a step applied to `have`: those of its permutation
    tables, then its boundary mismatches, each in tree order. One walk
    with an explicit stack, as in `_leaves`."""
    perm_faults: list[Fault] = []
    boundary_faults: list[Fault] = []
    stack: list[tuple[GlobalStep, str, Config | None]] = [(step, "", have)]
    while stack:
        node, path, have = stack.pop()
        if type(node) is Par:
            want = None
            left = right = None
            if isinstance(have, Tensor):
                left, right = have.left, have.right
            stack.append((node.right, path + "R", right))
            stack.append((node.left, path + "L", left))
        else:
            want = _atom_input(node)
            if type(node) is PermStep:
                perm_faults.extend(Fault(k, path, m) for m in node.perm.faults())
        check_boundary(boundary_faults, k, path, have, want)
    return perm_faults + boundary_faults


_FAULTS = "_faults"


def _keep_faults(d: Diagram, faults: list[Fault]) -> None:
    """Record the faults of `d`, found by the code that built its steps
    (the loader, which typechecks every step as `validate` does, or the
    compiler, whose steps have none), so `validate` reads them instead
    of walking the steps again."""
    d.__dict__[_FAULTS] = faults


def _keep_atoms(d: Diagram, atoms: list[list[tuple[str, AtomicStep]]]) -> None:
    """Record each step's `step_atoms` list, made by the code that built
    the steps (the loader as it parses each step, the compiler as it
    emits each one), so `step_atom_lists` reads them instead of walking
    the steps again."""
    d.__dict__[_ATOMS] = atoms


def step_atom_lists(d: Diagram) -> Iterable[list[tuple[str, AtomicStep]]]:
    """`step_atoms` of each step of `d`, in step order: the lists a
    loaded document (see `serialize`) or a compiled execution (see
    `lamport.to_diagram`) brings, else `step_atoms` of each step as it
    is reached, which a parallel step keeps. Read-only: a kept list is
    shared."""
    atoms = d.__dict__.get(_ATOMS)
    return map(step_atoms, d.steps) if atoms is None else atoms


def validate(d: Diagram) -> list[Fault]:
    """All typing faults of a diagram, in step order; empty when the
    diagram is well-formed. Checks every permutation table and boundary
    compatibility between consecutive steps; within a step, table
    faults come before boundary faults. The list is kept in the
    instance's own __dict__: a loaded document brings the one its
    parser found (see `serialize`), a compiled execution an empty one
    (see `lamport.to_diagram`), any other diagram gets one from a walk
    on first use. Each call returns a fresh copy."""
    faults = d.__dict__.get(_FAULTS)
    if faults is None:
        faults, have = [], d.initial
        for k, step in enumerate(d.steps):
            faults += _step_faults(step, have, k)
            have = step_output(step)
        _keep_faults(d, faults)
    return list(faults)


def is_valid(d: Diagram) -> bool:
    return not validate(d)


# ---------------------------------------------------------------------------
# composition

class CompositionError(ValueError):
    """Raised when boundaries do not line up."""


def seq_extend(d: Diagram, step: GlobalStep) -> Diagram:
    """Append one step; its input must equal the diagram's final
    configuration."""
    want = step_input(step)
    if want != d.final:
        raise CompositionError(f"step expects {want}, diagram ends at {d.final}")
    return Diagram(d.initial, d.steps + (step,))


def seq_concat(a: Diagram, b: Diagram) -> Diagram:
    """Run `a`, then `b`; `b.initial` must equal `a.final`."""
    if b.initial != a.final:
        raise CompositionError(
            f"second diagram starts at {b.initial}, first ends at {a.final}"
        )
    return Diagram(a.initial, a.steps + b.steps)


def par_compose(a: Diagram, b: Diagram) -> Diagram:
    """Run `a` and `b` side by side. The shorter one is padded with
    noop steps at its tail, so step k of the result is Par(a_k, b_k)."""
    n = max(a.n_steps, b.n_steps)
    pad_a, pad_b = noop(a.final), noop(b.final)
    steps = tuple(
        Par(
            a.steps[k] if k < a.n_steps else pad_a,
            b.steps[k] if k < b.n_steps else pad_b,
        )
        for k in range(n)
    )
    return Diagram(Tensor(a.initial, b.initial), steps)


# ---------------------------------------------------------------------------
# ticks and labelings
#
# A labeling assigns a value (typically an Action) to every tick of a
# diagram; it is a plain dict keyed by TickRef.

@dataclass(frozen=True, order=True)
class TickRef:
    """One tick occurrence: the step index and the path to the tick
    inside that step's tree."""

    step: int
    path: str

    def __init__(self, step: int, path: str) -> None:
        _setfield(self, "step", step)
        _setfield(self, "path", path)


def ticks(d: Diagram) -> tuple[TickRef, ...]:
    """All ticks of a diagram in (step, left-to-right) order."""
    return tuple(
        TickRef(k, path)
        for k, atoms in enumerate(step_atom_lists(d))
        for path, atom in atoms
        if type(atom) is Tick
    )


def tick_at(d: Diagram, ref: TickRef) -> Tick:
    """Resolve a TickRef to the Tick it names."""
    if type(ref.step) is not int or type(ref.path) is not str:
        raise ValueError(f"{ref}: step must be an int and path a string")
    if not 0 <= ref.step < d.n_steps:
        raise ValueError(f"step {ref.step} out of range 0..{d.n_steps - 1}")
    # the walk below reads any character but L as R
    bad = ref.path.strip("LR")
    if bad:
        raise ValueError(f"{ref}: path contains {bad[0]!r}, expected L or R")
    node: GlobalStep = d.steps[ref.step]
    for c in ref.path:
        if type(node) is not Par:
            raise ValueError(f"{ref} leaves the step tree at {node!r}")
        node = node.left if c == "L" else node.right
    if type(node) is not Tick:
        raise ValueError(f"{ref} names a {type(node).__name__}, not a tick")
    return node


def tick_labels(d: Diagram, values: Sequence[T]) -> dict[TickRef, T]:
    """Label the ticks of a diagram in canonical order."""
    refs = ticks(d)
    if len(values) != len(refs):
        raise ValueError(f"{len(refs)} ticks, {len(values)} values")
    return dict(zip(refs, values))


def labeling_faults(d: Diagram, lab: Mapping[TickRef, T]) -> list[str]:
    """Totality check: every tick labeled, no stray keys."""
    refs = set(ticks(d))
    out = [f"tick {r} unlabeled" for r in sorted(refs - set(lab))]
    out += [f"label for {r} names no tick" for r in sorted(set(lab) - refs)]
    return out


def restrict_labeling(
    lab: Mapping[TickRef, T], start: int, stop: int
) -> dict[TickRef, T]:
    """Restrict a labeling to steps [start, stop), re-indexed so the
    result labels the window diagram produced by `during`."""
    return {
        TickRef(r.step - start, r.path): v
        for r, v in lab.items()
        if start <= r.step < stop
    }


# ---------------------------------------------------------------------------
# slicing

def during(d: Diagram, t1: int, t2: int) -> Diagram:
    """The window of a diagram between cuts t1 and t2 (t1 <= t2).

    `during(d, t, t)` is the identity on the cut-t configuration, and
    `seq_concat(before(d, t), during(d, t, n))` rebuilds the diagram.
    """
    check_cut(d, t1)
    check_cut(d, t2)
    if t1 > t2:
        raise ValueError(f"uninhabited interval: {t1} > {t2}")
    return Diagram(cut_config(d, t1), d.steps[t1:t2])


def before(d: Diagram, t: int) -> Diagram:
    """The prefix of a diagram up to cut t."""
    return during(d, 0, t)
