"""The repository benchmark: one workload per invocation.

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each set-up and each measurement runs
in a fresh interpreter started from here (`worker.py`), one at a time:
a closed loop with one client and no threads, timing one document per
operation. Every operation's output is checked against an oracle
outside the timed region; a mismatch, a wrong exit code or an exception
counts as a failed operation.

Times are reported at the reference pace of `pace.py`: each set-up's
and each operation's wall time is divided by the host's pace, read off
a fixed reference kernel run next to it, so that the host's drifting
speed cancels and a change to the library does not.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced measurement, next to an untraced one over the same documents
that gives the tracing overhead. The lines before it restate the
results for people, with the machine context, the seed, a SHA-256 of
the generated inputs and their size counts. A copy of that record, and
the spans of a traced run, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150


def _child(*argv: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker {argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def main() -> int:
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "causalweft" / "__init__.py").is_file():
        print(f"bench: no causalweft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load1": os.getloadavg()[0],
    }
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        seed = ["--workload", args.workload, "--seed", str(args.seed)]
        repeats = spec["setup_repeats"] if args.trace == 0 else 1

        def set_up(k: int) -> dict:
            return _child("setup", *seed, "--corpus", str(work / f"corpus{k}.jsonl"))

        # Half the set-ups run before the measurement and the rest after
        # it, so that their median spans the host's phases over the run.
        setups = [set_up(k) for k in range((repeats + 1) // 2)]
        corpus = ["--workload", args.workload, "--corpus", str(work / "corpus0.jsonl")]
        scratch = ["--scratch", str(work)]
        if args.trace == 0:
            runs = [_child("measure", *corpus, *scratch, "--seconds", str(args.seconds))]
        else:
            # Same documents, untraced then traced, each in a fresh interpreter.
            plain = _child("measure", *corpus, *scratch, "--seconds", str(args.seconds / 2))
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            traced = _child(
                "measure", *corpus, *scratch, "--ops", str(plain["ops"]), "--spans", str(spans)
            )
            runs = [plain, traced]
        setups += [set_up(k) for k in range(len(setups), repeats)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    inputs = {"seed": args.seed, "sha256": setups[0]["sha256"], **runs[0]["counts"]}
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failures += [{"measure": fault} for r in runs for fault in r["faults"]]
    if len({s["sha256"] for s in setups}) != 1:
        failures.append({"setup": "equal seeds gave different input bytes"})

    metrics: dict[str, tuple[float, str]]
    if args.trace == 0:
        run = runs[0]
        p50 = statistics.median(run["paced_s"])
        p90 = statistics.quantiles(run["paced_s"], n=10)[8]
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] / s["pace"] for s in setups), "s"),
            "ops_per_s": (run["ops"] / sum(run["paced_s"]), "1/s"),
            "op_p50_ms": (1000 * p50, "ms"),
            "op_p90_ms": (1000 * p90, "ms"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        declared = _declared("end_to_end")
    else:
        plain, traced = runs
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        traced_s, plain_s = sum(traced["paced_s"]), sum(plain["paced_s"])
        metrics["trace.ops_per_s"] = (traced["ops"] / traced_s, "1/s")
        metrics["trace.untraced_ops_per_s"] = (plain["ops"] / plain_s, "1/s")
        metrics["trace.overhead_pct"] = (100 * (traced_s / plain_s - 1), "%")
        declared = _declared("per_layer")
    if sorted(metrics) != sorted(declared):
        print(
            f"bench: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3

    lines = [
        f"workload {args.workload}  trace {args.trace}  python {context['python']}"
        f"  nproc {context['nproc']}  load1 {context['load1']:.2f}",
        "inputs " + "  ".join(f"{k} {v}" for k, v in inputs.items()),
        "setup_s wall samples " + " ".join(f"{s['setup_s']:.3f}" for s in setups),
        "setup pace samples " + " ".join(f"{s['pace']:.3f}" for s in setups),
    ]
    for label, run in zip(("untraced", "traced"), runs):
        lines.append(
            f"{label}: {run['ops']} of {run['documents']} documents,"
            f" timed wall {run['work_s']:.2f} s, cpu {run['cpu_s']:.2f} s,"
            f" paced {sum(run['paced_s']):.2f} s (median pace {run['pace']:.3f}),"
            f" loop wall {run['wall_s']:.2f} s, failed {run['failed']}"
        )
    lines.append(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"FAILED {json.dumps(f)}" for f in failures]
    print("\n".join(lines))

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context,
        "inputs": inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
