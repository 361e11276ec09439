"""Command line interface.

Each command runs in three stages, each written once here: load (read
the input and refuse a diagram that does not typecheck, `_load_valid`;
only `validate` reads one unchecked), check (the library call), and
report (`_report`: a JSON object under --json or text lines, exit 1
when a check fails; documents, renderings and the text listing of
`timestamps` are written by `_emit`).

Exit codes: 0 on success, 1 when a check found violations, 2 when the
input was malformed (unreadable file, bad JSON, bad coordinates).

`main` pauses the cycle collector for the command and turns it back on
when the command returns or raises, argument errors included, unless
the caller had it off. The pause frees nothing late: a command builds
trees and DAGs (hash-consed terms, the paths table kept on its
`Diagram`, stamps passed on by reference), which reference counting
frees as their last reference drops. The only cycles a command leaves
are the few fixed objects `json.dumps(indent=2)` builds in `_report`,
whatever the input's size, and the first collection after `main`
returns frees them. Collections during a command found nothing to
free, yet took 11 to 14% of the time of the commands on an imported
100-action execution.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import chain, islice
from typing import Any, Iterable

from .clocks import (
    CLOCK_NAMES,
    Action,
    Clock,
    by_name,
    event_stamps,
    stamp_from_obj,
    stamp_to_obj,
    zero_valuation,
)
from .diagram import Diagram, ticks, validate
from .lamport import execution_from_json, to_diagram
from .paths import Event, causal_paths, cut_numbers
from .render import render
from .serialize import (
    SchemaError,
    diagram_from_json,
    diagram_hash,
    diagram_to_json,
    read_json,
    to_canonical_json,
    witness_to_obj,
)
from .verify import (
    GenParams,
    check_clock_condition,
    check_clock_laws,
    check_order_laws,
    gen_diagram,
    law_report_to_obj,
    order_report_to_obj,
    report_to_obj,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _emit(text: str, out: str | None) -> None:
    """Write a document or a rendering to `out`, or to stdout if None,
    ending in one newline."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _report(args, obj: Any, lines: Iterable[Any], ok: bool = True) -> int:
    """Print `obj` as indented JSON under --json, else each of `lines`
    (read only then) on its own line; exit 1 when the check failed."""
    if args.json:
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0 if ok else 1


def _load_valid(path: str) -> tuple[Diagram, dict]:
    """The diagram document at `path` with its labels, refused unless it
    typechecks."""
    d, lab = diagram_from_json(_read(path))
    faults = validate(d)
    if faults:
        raise SchemaError("diagram does not typecheck: " + "; ".join(map(str, faults)))
    return d, lab


def _parse_event(text: str, d: Diagram) -> Event:
    cut_text, sep, site = text.partition(":")
    if not sep:
        raise SchemaError(f"event {text!r} is not cut:site")
    if cut_text in ("N", "end"):
        cut = d.n_steps
    elif cut_text.isascii() and cut_text.isdigit():  # `int` also reads "+1", " 1" and "1_0"
        cut = int(cut_text)
    else:
        raise SchemaError(f"bad cut in event {text!r}")
    if site == ".":
        site = ""
    if not all(c in "LR" for c in site):
        raise SchemaError(f"bad site in event {text!r}, expected L/R path or .")
    return Event(cut, site)


def _load_clocked(args) -> tuple[Diagram, dict, Clock, dict]:
    """The load stage of the clock commands: the checked diagram, its
    action labels, the clock and the initial valuation."""
    d, lab = _load_valid(args.file)
    clock = by_name(args.clock)
    if args.valuation is None:
        valuation = zero_valuation(clock, d.initial)
    else:
        obj = read_json(_read(args.valuation), what="valuation file is ")
        if not isinstance(obj, dict):
            raise SchemaError("valuation must be a site-to-timestamp object")
        valuation = {}
        for site, stamp in obj.items():
            site = "" if site == "." else site
            if site in valuation:
                raise SchemaError(f"valuation names site {site or '.'!r} twice")
            valuation[site] = stamp_from_obj(clock, stamp)
    for ref, value in lab.items():
        if not isinstance(value, Action):
            raise SchemaError(f"label at {ref} is not an action: {value!r}")
    return d, lab, clock, valuation


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args) -> int:
    d, lab = diagram_from_json(_read(args.file))
    faults = [str(f) for f in validate(d)]
    strays = sorted(set(lab) - set(ticks(d)))
    faults += [f"label at {r} names no tick" for r in strays]
    if faults:
        return _report(args, {"ok": False, "faults": faults}, faults, False)
    final = str(d.final)
    return _report(args, {"ok": True, "faults": faults, "final": final}, [final])


def _cmd_render(args) -> int:
    _emit(render(*_load_valid(args.file), args.format), args.out)
    return 0


def _cmd_paths(args) -> int:
    if args.limit < 0:
        raise ValueError("limit must be >= 0")
    d, _ = _load_valid(args.file)
    src = _parse_event(args.src, d)
    dst = _parse_event(args.dst, d)
    found = list(islice(causal_paths(d, src, dst), args.limit or None))
    return _report(args, [witness_to_obj(w) for w in found], found)


def _cmd_timestamps(args) -> int:
    d, lab, clock, valuation = _load_clocked(args)
    stamps = event_stamps(d, lab, clock, valuation)
    # Perms, forks and idle sites pass stamps on by reference, so most
    # events share their stamp object with others: convert each object
    # once. `stamps` keeps every object alive, so their ids are stable.
    distinct = {id(v): v for v in stamps}
    objs = {i: stamp_to_obj(clock, v) for i, v in distinct.items()}
    # event numbers run in (cut, site) order
    cuts = cut_numbers(d)
    rows = [(t, s, id(stamps[j])) for t, here in enumerate(cuts) for s, j in here.items()]
    if args.json:
        events = [{"cut": t, "site": s, "stamp": objs[i]} for t, s, i in rows]
        return _report(args, {"clock": clock.name, "events": events}, ())
    texts = {i: to_canonical_json(obj) for i, obj in objs.items()}
    _emit("".join(f"{t}:{s or '.'}  {texts[i]}\n" for t, s, i in rows), None)
    return 0


def _cmd_check_clock(args) -> int:
    d, lab, clock, valuation = _load_clocked(args)
    report = check_clock_condition(d, lab, clock, valuation)
    obj = None
    if args.json:  # the hash writes the whole document
        obj = report_to_obj(report, clock) | {"diagram_hash": diagram_hash(d, lab)}
    head = f"clock {clock.name}: {report.checked_pairs} ordered pairs, "
    head += f"{len(report.violations)} violations"
    lines = (f"  {v.source} !<= {v.dest} via {v.witness}" for v in report.violations)
    return _report(args, obj, chain([head], lines), report.ok)


def _cmd_check_order(args) -> int:
    d, _ = _load_valid(args.file)
    report = check_order_laws(d)
    laws = "order laws hold" if report.ok else "order laws violated"
    lines = chain(
        [f"{report.events} events, {report.pairs} ordered pairs: {laws}"],
        (f"  not reflexive at {e}" for e in report.reflexivity),
        (f"  both {e1} <= {e2} and {e2} <= {e1}" for e1, e2 in report.antisymmetry),
        (f"  {e1} <= {e2} <= {e3} but not {e1} <= {e3}" for e1, e2, e3 in report.transitivity),
    )
    return _report(args, order_report_to_obj(report), lines, report.ok)


def _cmd_laws(args) -> int:
    clock = by_name(args.clock)
    report = check_clock_laws(clock, seed=args.seed, samples=args.samples)
    lines = chain(
        [f"clock {clock.name}: {report.samples} samples, {len(report.failures)} law failures"],
        (f"  {f.law}: {f.detail}" for f in report.failures),
    )
    return _report(args, law_report_to_obj(report), lines, report.ok)


def _cmd_gen(args) -> int:
    params = GenParams(seed=args.seed, max_steps=args.max_steps, max_sites=args.max_sites)
    _emit(diagram_to_json(*gen_diagram(params)), args.out)
    return 0


def _cmd_import_execution(args) -> int:
    x = execution_from_json(_read(args.file))
    d, lab, tick_index = to_diagram(x)
    index = {a: {"path": r.path, "step": r.step} for a, r in tick_index.items()}
    # canonical: "tick_index" sorts after the document's last key, "steps"
    text = diagram_to_json(d, lab)[:-1] + ',"tick_index":' + to_canonical_json(index) + "}"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalweft",
        description="Build, check, and render causal diagrams of concurrent executions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(*flags: str, **kw: Any) -> argparse.ArgumentParser:
        """One argument, declared once, for commands to take as a parent."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kw)
        return p

    def cmd(name: str, func, help: str, *args: argparse.ArgumentParser) -> None:
        """A command taking `args` in order, which fixes its usage line,
        its help and its "arguments are required" error."""
        sub.add_parser(name, help=help, parents=args).set_defaults(func=func)

    file, as_json, out = arg("file"), arg("--json", action="store_true"), arg("--out")
    clock = arg("--clock", choices=CLOCK_NAMES, required=True)
    valuation = arg("--valuation", help="JSON file of initial site timestamps")

    cmd("validate", _cmd_validate, "typecheck a diagram file", file, as_json)
    cmd("render", _cmd_render, "render a diagram as dot or ascii",
        file, arg("--format", choices=("dot", "ascii"), default="dot"), out)
    cmd("paths", _cmd_paths, "enumerate trajectories between two events",
        file,
        arg("--from", dest="src", required=True, metavar="CUT:SITE"),
        arg("--to", dest="dst", required=True, metavar="CUT:SITE"),
        arg("--limit", type=int, default=0, help="stop after N witnesses"),
        as_json)
    cmd("timestamps", _cmd_timestamps, "timestamp every event of a diagram",
        file, clock, valuation, as_json)
    cmd("check-clock", _cmd_check_clock, "check timestamps against causal order",
        file, clock, valuation, as_json)
    cmd("check-order", _cmd_check_order, "check causal order is a partial order",
        file, as_json)
    cmd("laws", _cmd_laws, "sample-check a clock's algebra laws",
        clock, arg("--seed", type=int, default=0), arg("--samples", type=int, default=10_000),
        as_json)
    cmd("gen", _cmd_gen, "generate a random labeled diagram",
        arg("--seed", type=int, required=True),
        arg("--max-steps", type=int, default=8), arg("--max-sites", type=int, default=6),
        out)
    cmd("import-execution", _cmd_import_execution,
        "compile a message-passing execution into a diagram", file, out)
    return parser


# Built once per process. `parse_args` returns a fresh Namespace and
# changes nothing here, so no call sees another call's arguments.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        try:
            return args.func(args)
        except (OSError, ValueError) as e:  # SchemaError, CyclicExecutionError included
            print(f"error: {e}", file=sys.stderr)
            return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
