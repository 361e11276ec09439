"""Text renderings of diagrams.

Both formats flow top to bottom: earlier cuts above later ones. The
dot rendering is the event graph itself (one node per event, one edge
per step connection, one rank per cut); the ascii rendering prints
each cut as a rule of site columns with the step's actions between.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator, Mapping

from .clocks import Action
from .diagram import (
    Diagram,
    Fork,
    GlobalStep,
    Join,
    PermStep,
    Tick,
    TickRef,
    cut_configs,
    site_types,
    step_atoms,
)
from .paths import events, step_successors


def _q(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _action_text(value) -> str:
    if isinstance(value, Action):
        if value.target is None:
            return str(value.actor)
        return f"{value.actor}->{value.target}"
    return str(value)


def to_dot(d: Diagram, lab: Mapping[TickRef, Action] | None = None) -> str:
    """Graphviz source for the event graph: one node per event, one edge
    per step edge (`step_successors`); tick edges carry their label."""
    tick_edges = {}
    if lab:
        for ref, value in lab.items():
            tick_edges[(ref.step, ref.path, ref.path)] = _action_text(value)
    lines = [
        "digraph diagram {",
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10];",
    ]
    evs = events(d)
    names = [_q(str(e)) for e in evs]
    for _, rank in groupby(range(len(evs)), lambda i: evs[i].cut):
        lines.append("  { rank=same; " + " ".join(names[i] + ";" for i in rank) + " }")
    for i, (e, succ) in enumerate(zip(evs, step_successors(d))):
        for j in succ:
            edge = f"  {names[i]} -> {names[j]}"
            label = tick_edges.get((e.cut, e.site, evs[j].site))
            if label is not None:
                edge += f" [label={_q(label)}]"
            lines.append(edge + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _step_lines(
    step: GlobalStep, k: int, lab: Mapping[TickRef, Action] | None
) -> Iterator[str]:
    for path, atom in step_atoms(step):
        at = path if path else "."
        match atom:
            case Tick(in_ty, out_ty):
                line = f"tick @ {at}: {in_ty} -> {out_ty}"
                if lab and TickRef(k, path) in lab:
                    line += f"  ({_action_text(lab[TickRef(k, path)])})"
                yield line
            case Fork(l, r):
                yield f"fork @ {at}: ({l} x {r}) -> {l} | {r}"
            case Join(l, r):
                yield f"join @ {at}: {l} | {r} -> ({l} x {r})"
            case PermStep(perm):
                moved = [(s, t) for s, t in perm.pairs if s != t]
                if not moved:
                    yield f"hold @ {at}"
                else:
                    routes = ", ".join(f"{s or '.'}->{t or '.'}" for s, t in moved)
                    yield f"perm @ {at}: {routes}"


def to_ascii(d: Diagram, lab: Mapping[TickRef, Action] | None = None) -> str:
    """Plain-text rendering: one rule per cut listing its sites, with
    the step's actions indented between consecutive cuts."""
    cfgs = cut_configs(d)
    out = []
    for t, cfg in enumerate(cfgs):
        out.append(f"---- cut {t} ----")
        out.append("  ".join(f"{s or '.'}={cfg_site}" for s, cfg_site in _columns(cfg)))
        if t < d.n_steps:
            for line in _step_lines(d.steps[t], t, lab):
                out.append("    " + line)
    return "\n".join(out) + "\n"


def _columns(cfg):
    return [(s, f"[{ty}]") for s, ty in site_types(cfg).items()]


def render(
    d: Diagram,
    lab: Mapping[TickRef, Action] | None = None,
    format: str = "dot",
) -> str:
    """Render a diagram as `dot` or `ascii` text."""
    if format == "dot":
        return to_dot(d, lab)
    if format == "ascii":
        return to_ascii(d, lab)
    raise ValueError(f"unknown format {format!r}, expected dot or ascii")
