"""One set-up or one measurement, each in a fresh interpreter.

    python3 bench/worker.py setup   --workload W --seed S --corpus FILE
    python3 bench/worker.py measure --workload W --corpus FILE --scratch DIR
                                    (--seconds X | --ops N) [--spans FILE]

`run.py` starts these and reads the JSON object each prints last. The
corpus is one file with one document per line, written in one go:
writing hundreds of small files took from 0.02 to 0.45 s depending on
the directory, which set-up time would have measured instead of the
library. Before each operation, outside the timed region, the
measurement writes the document to its own file in the scratch
directory, where the operation reads it. A measurement takes each
document of the corpus at most once, in order, so no document is ever
served from a cache warmed by an earlier pass.
An untraced measurement also totals the corpus's size counts, after its
timed loop; a traced one (`--spans`) writes its spans instead.

The reference kernel of `pace.py` runs after each operation, outside
its timed region, and every few documents of a set-up, with its time
taken out, so that every operation's and every set-up's wall time can
also be given at the reference pace.
"""

import time

# Set-up time runs from here: importing the package is part of it.
_START = time.perf_counter()

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from pace import REFERENCE_S, reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (needs the path above)

# Stop a measurement after this much wall time even if it has not yet
# reached its minimum operation count, to stay inside the run's limit.
# A measurement stopped this way is reported as a fault, not a result.
WALL_CAP_S = 70.0

# An operation's pace is the median of the reference times taken this
# many operations around it: about a second of work, short beside the
# host's phases and long beside the jitter of a single reference run.
PACE_WINDOW = 4
# Documents generated between reference runs in a set-up.
PACE_EVERY = 20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spec() -> dict:
    return json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


def setup(args) -> dict:
    spec = _spec()
    workload = WORKLOADS[args.workload](spec["workloads"][args.workload])
    # The reference kernel runs every PACE_EVERY documents, so that the
    # pace is read all through a set-up of up to a few seconds; its own
    # time is taken out of setup_s.
    refs = [reference()]
    docs = []
    for text in workload.generate(random.Random(f"{args.workload}/{args.seed}")):
        docs.append(text)
        if len(docs) % PACE_EVERY == 0:
            refs.append(reference())
    data = "".join(text + "\n" for text in docs).encode("utf-8")
    Path(args.corpus).write_bytes(data)
    setup_s = time.perf_counter() - _START
    refs.append(reference())
    return {
        "setup_s": setup_s - sum(refs[:-1]),
        "pace": statistics.median(refs) / REFERENCE_S,
        "sha256": hashlib.sha256(data).hexdigest(),
        "documents": len(docs),
    }


def measure(args) -> dict:
    spec = _spec()
    workload = WORKLOADS[args.workload](spec["workloads"][args.workload])
    texts = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    scratch = Path(args.scratch)
    path = scratch / "document.json"
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    latencies: list[float] = []
    work_s = cpu_s = 0.0
    failures: list[dict] = []
    # Peak memory is read once the first min_ops documents and their
    # gates are done: a fixed amount of work, so it does not follow how
    # many documents a fast or slow host gets through.
    peak_rss_mb = None
    # refs[i] is taken before operation i and refs[i + 1] after it.
    refs = [reference()]
    loop_start = time.perf_counter()
    while True:
        i = len(latencies)
        if args.ops is not None:
            if i >= args.ops:
                break
        elif work_s >= args.seconds and i >= spec["min_ops"]:
            break
        if i == len(texts) or time.perf_counter() - loop_start > WALL_CAP_S:
            break
        path.write_text(texts[i], encoding="utf-8")
        if tracer:
            tracer.begin_op(i)
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.op(path, scratch)
        except (Exception, SystemExit) as e:  # any failure of an op is counted, not fatal
            error = f"raised {e!r}"
        t1 = time.perf_counter()
        cpu_s += time.process_time() - c0
        if tracer:
            tracer.end_op()
        refs.append(reference())
        latencies.append(t1 - t0)
        work_s += t1 - t0
        try:
            faults = [error] if error else workload.check(texts[i], result, scratch)
        except Exception as e:  # a gate that cannot read the output fails the op
            faults = [f"gate raised {e!r}"]
        if faults:
            failures.append({"document": i, "faults": faults[:3]})
        if len(latencies) == spec["min_ops"]:
            peak_rss_mb = _peak_rss_mb()
    wall_s = time.perf_counter() - loop_start

    # A measurement that ran other than the work it was asked for
    # is not comparable with one that did: say so instead of reporting it.
    ops = len(latencies)
    faults = []
    if args.ops is not None and ops != args.ops:
        faults.append(f"ran {ops} documents, asked for {args.ops}")
    if ops < spec["min_ops"]:
        faults.append(f"ran {ops} documents, fewer than {spec['min_ops']}")

    paced = [
        t * REFERENCE_S / statistics.median(refs[max(0, i - PACE_WINDOW + 1) : i + PACE_WINDOW + 1])
        for i, t in enumerate(latencies)
    ]
    out = {
        "ops": ops,
        "documents": len(texts),
        "paced_s": paced,
        "pace": statistics.median(refs) / REFERENCE_S,
        "work_s": work_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "failed": len(failures),
        "failures": failures[:5],
        "faults": faults,
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        tracer.write(args.spans)
        out["layers"] = tracer.metrics()
    else:
        totals: dict[str, int] = {"documents": len(texts)}
        for text in texts:
            for key, n in workload.counts(text).items():
                totals[key] = totals.get(key, 0) + n
        out["counts"] = totals
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--scratch")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
