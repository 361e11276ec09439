"""Text renderings of diagrams.

Both formats flow top to bottom: earlier cuts above later ones. The
dot rendering is the event graph itself (one node per event, one edge
per step connection, one rank per cut); the ascii rendering prints
each cut as a rule of site columns with the step's actions between.
"""

from __future__ import annotations

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
from .paths import cut_numbers, step_successors, tick_outputs


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
    per step edge (`step_successors`); an edge into a tick's output
    event (`tick_outputs`) carries the tick's label, if it has one."""
    labels = {}
    if lab:
        at = {(ref.step, ref.path): value for ref, value in lab.items()}
        for j, ref in tick_outputs(d).items():
            if ref in at:
                labels[j] = _q(_action_text(at[ref]))
    lines = [
        "digraph diagram {",
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10];",
    ]
    names = []
    for t, here in enumerate(cut_numbers(d)):
        rank = [_q(f"{t}:{s or '.'}") for s in here]
        lines.append("  { rank=same; " + " ".join(name + ";" for name in rank) + " }")
        names += rank
    for i, succ in enumerate(step_successors(d)):
        for j in succ:
            if j in labels:
                lines.append(f"  {names[i]} -> {names[j]} [label={labels[j]}];")
            else:
                lines.append(f"  {names[i]} -> {names[j]};")
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
