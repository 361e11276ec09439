"""Command line interface.

Exit codes: 0 on success, 1 when a check found violations, 2 when the
input was malformed (unreadable file, bad JSON, bad coordinates).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .clocks import (
    CLOCK_NAMES,
    Action,
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
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text if text.endswith("\n") else text + "\n")


def _load_diagram(path: str):
    return diagram_from_json(_read(path))


def _require_valid(d: Diagram) -> None:
    faults = validate(d)
    if faults:
        raise SchemaError(
            "diagram does not typecheck: " + "; ".join(str(f) for f in faults)
        )


def _action_labels(lab: dict) -> dict:
    for ref, value in lab.items():
        if not isinstance(value, Action):
            raise SchemaError(f"label at {ref} is not an action: {value!r}")
    return lab


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


def _load_valuation(path: str | None, clock, d: Diagram):
    if path is None:
        return zero_valuation(clock, d.initial)
    obj = read_json(_read(path), what="valuation file is ")
    if not isinstance(obj, dict):
        raise SchemaError(f"valuation must be a site-to-timestamp object")
    out = {}
    for site, stamp in obj.items():
        out["" if site == "." else site] = stamp_from_obj(clock, stamp)
    return out


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args) -> int:
    d, lab = _load_diagram(args.file)
    faults = [str(f) for f in validate(d)]
    strays = sorted(set(lab) - set(ticks(d)))
    faults += [f"label at {r} names no tick" for r in strays]
    if args.json:
        out = {"ok": not faults, "faults": faults}
        if not faults:
            out["final"] = str(d.final)
        _print_json(out)
    else:
        for f in faults:
            print(f)
        if not faults:
            print(d.final)
    return 1 if faults else 0


def _cmd_render(args) -> int:
    d, lab = _load_diagram(args.file)
    _require_valid(d)
    _emit(render(d, lab, args.format), args.out)
    return 0


def _cmd_paths(args) -> int:
    if args.limit < 0:
        raise ValueError("limit must be >= 0")
    d, lab = _load_diagram(args.file)
    _require_valid(d)
    src = _parse_event(args.src, d)
    dst = _parse_event(args.dst, d)
    found = []
    for w in causal_paths(d, src, dst):
        found.append(w)
        if args.limit and len(found) >= args.limit:
            break
    if args.json:
        _print_json([witness_to_obj(w) for w in found])
    else:
        for w in found:
            print(w)
    return 0


def _cmd_timestamps(args) -> int:
    d, lab = _load_diagram(args.file)
    _require_valid(d)
    clock = by_name(args.clock)
    valuation = _load_valuation(args.valuation, clock, d)
    stamps = event_stamps(d, _action_labels(lab), clock, valuation)
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
        _print_json({"clock": clock.name, "events": events})
    else:
        texts = {i: to_canonical_json(obj) for i, obj in objs.items()}
        lines = (f"{t}:{s or '.'}  {texts[i]}\n" for t, s, i in rows)
        sys.stdout.write("".join(lines))
    return 0


def _cmd_check_clock(args) -> int:
    d, lab = _load_diagram(args.file)
    _require_valid(d)
    clock = by_name(args.clock)
    valuation = _load_valuation(args.valuation, clock, d)
    report = check_clock_condition(d, _action_labels(lab), clock, valuation)
    if args.json:
        obj = report_to_obj(report, clock)
        _print_json(obj | {"diagram_hash": diagram_hash(d, lab)})
    else:
        print(
            f"clock {clock.name}: {report.checked_pairs} ordered pairs, "
            f"{len(report.violations)} violations"
        )
        for v in report.violations:
            print(f"  {v.source} !<= {v.dest} via {v.witness}")
    return 0 if report.ok else 1


def _cmd_check_order(args) -> int:
    d, _ = _load_diagram(args.file)
    _require_valid(d)
    report = check_order_laws(d)
    if args.json:
        _print_json(order_report_to_obj(report))
    else:
        print(
            f"{report.events} events, {report.pairs} ordered pairs: "
            + ("order laws hold" if report.ok else "order laws violated")
        )
        for e in report.reflexivity:
            print(f"  not reflexive at {e}")
        for e1, e2 in report.antisymmetry:
            print(f"  both {e1} <= {e2} and {e2} <= {e1}")
        for e1, e2, e3 in report.transitivity:
            print(f"  {e1} <= {e2} <= {e3} but not {e1} <= {e3}")
    return 0 if report.ok else 1


def _cmd_laws(args) -> int:
    clock = by_name(args.clock)
    report = check_clock_laws(clock, seed=args.seed, samples=args.samples)
    if args.json:
        _print_json(law_report_to_obj(report))
    else:
        print(
            f"clock {clock.name}: {report.samples} samples, "
            f"{len(report.failures)} law failures"
        )
        for f in report.failures:
            print(f"  {f.law}: {f.detail}")
    return 0 if report.ok else 1


def _cmd_gen(args) -> int:
    params = GenParams(
        seed=args.seed, max_steps=args.max_steps, max_sites=args.max_sites
    )
    d, lab = gen_diagram(params)
    _emit(diagram_to_json(d, lab), args.out)
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

    def cmd(name: str, func, help: str):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = cmd("validate", _cmd_validate, "typecheck a diagram file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = cmd("render", _cmd_render, "render a diagram as dot or ascii")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "ascii"), default="dot")
    p.add_argument("--out")

    p = cmd("paths", _cmd_paths, "enumerate trajectories between two events")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True, metavar="CUT:SITE")
    p.add_argument("--to", dest="dst", required=True, metavar="CUT:SITE")
    p.add_argument("--limit", type=int, default=0, help="stop after N witnesses")
    p.add_argument("--json", action="store_true")

    p = cmd("timestamps", _cmd_timestamps, "timestamp every event of a diagram")
    p.add_argument("file")
    p.add_argument("--clock", choices=CLOCK_NAMES, required=True)
    p.add_argument("--valuation", help="JSON file of initial site timestamps")
    p.add_argument("--json", action="store_true")

    p = cmd("check-clock", _cmd_check_clock, "check timestamps against causal order")
    p.add_argument("file")
    p.add_argument("--clock", choices=CLOCK_NAMES, required=True)
    p.add_argument("--valuation", help="JSON file of initial site timestamps")
    p.add_argument("--json", action="store_true")

    p = cmd("check-order", _cmd_check_order, "check causal order is a partial order")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = cmd("laws", _cmd_laws, "sample-check a clock's algebra laws")
    p.add_argument("--clock", choices=CLOCK_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--json", action="store_true")

    p = cmd("gen", _cmd_gen, "generate a random labeled diagram")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument("--max-sites", type=int, default=6)
    p.add_argument("--out")

    p = cmd(
        "import-execution",
        _cmd_import_execution,
        "compile a message-passing execution into a diagram",
    )
    p.add_argument("file")
    p.add_argument("--out")

    return parser


# Built once per process. `parse_args` returns a fresh Namespace and
# changes nothing here, so no call sees another call's arguments.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # SchemaError, CyclicExecutionError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
