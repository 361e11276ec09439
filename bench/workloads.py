"""Seeded inputs, timed operations and oracle gates of the workloads.

Every workload turns `--seed` into a fixed-size corpus of documents,
generated one at a time. An operation takes one document through
the library's public entry points; its gate, run outside the timed
region, compares what the operation returned or printed with an oracle
that does not share the code path being timed.

Documents are cut to a fixed size (ordered pairs for diagrams, actions
for executions) because the generators draw their size uniformly from
zero up to a maximum: over a corpus of a few hundred documents that
spread alone moved the per-run medians by 15 to 45 per cent between
seeds, which would hide any change to the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections.abc import Iterator
from pathlib import Path

from causalweft import cli, lamport, serialize, verify
from causalweft.diagram import before, restrict_labeling, sites
from causalweft.paths import step_relation


def _sweep(d) -> tuple[list[int], int, int]:
    """One forward pass over the events of `d`. Returns the ordered
    event pairs inside each prefix (entry t counts the pairs whose later
    event lies at cut t or before), the number of events and the number
    of step edges. Each site's causal past is kept as a bitmask over
    events."""
    past = {s: 1 << k for k, s in enumerate(sites(d.initial))}
    events = pairs = len(past)
    edges = 0
    prefix = [pairs]
    for step in d.steps:
        relation = step_relation(step)
        edges += len(relation)
        nxt: dict[str, int] = {}
        for a, b in relation:
            nxt[b] = nxt.get(b, 0) | past[a]
        for b in nxt:
            nxt[b] |= 1 << events
            events += 1
            pairs += nxt[b].bit_count()
        past = nxt
        prefix.append(pairs)
    return prefix, events, edges


def diagram_counts(d, lab) -> dict[str, int]:
    prefix, events, edges = _sweep(d)
    return {
        "steps": d.n_steps,
        "events": events,
        "step_edges": edges,
        "ordered_pairs": prefix[-1],
        "actions": len(lab),
        "messages": 0,
    }


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    def __init__(self, spec: dict):
        self.spec = spec


# ---------------------------------------------------------------------------
# check-corpus

class CheckCorpus(Workload):
    """Diagrams cut to a set number of ordered event pairs, each run
    through the four checking commands of the CLI."""

    def generate(self, rng: random.Random) -> Iterator[str]:
        spec = self.spec
        profiles = spec["profiles"]
        low, high = spec["pairs_per_doc"]
        for i in range(spec["docs"]):
            # Sizes spread evenly over [low, high) in every stretch of the
            # corpus (golden-ratio steps), so that latencies are not one
            # narrow peak whose median jumps when the host's speed shifts.
            target = low + (high - low) * (i * 0.6180339887498949 % 1)
            while True:
                d, lab = verify.gen_diagram(
                    verify.GenParams(
                        seed=rng.getrandbits(63),
                        max_steps=spec["max_steps"],
                        max_sites=spec["max_sites"],
                        **profiles[i % len(profiles)],
                    )
                )
                prefix = _sweep(d)[0]
                cut = next((t for t, n in enumerate(prefix) if n >= target), None)
                if cut is not None:
                    break
            yield serialize.diagram_to_json(before(d, cut), restrict_labeling(lab, 0, cut))

    def op(self, path: Path, scratch: Path):
        p = str(path)
        return [
            _run_cli(["validate", p]),
            _run_cli(["check-clock", p, "--clock", "vector"]),
            _run_cli(["check-clock", p, "--clock", "wb"]),
            _run_cli(["check-order", p]),
        ]

    def check(self, text: str, result, scratch: Path) -> list[str]:
        d, _ = serialize.diagram_from_json(text)
        pairs = len(verify.oracle_event_order(d))
        events = _sweep(d)[1]
        want = [
            f"{d.final}\n",
            f"clock vector: {pairs} ordered pairs, 0 violations\n",
            f"clock wb: {pairs} ordered pairs, 0 violations\n",
            f"{events} events, {pairs} ordered pairs: order laws hold\n",
        ]
        return [
            f"command {k}: exit {code}, printed {out!r}, expected exit 0 and {w!r}"
            for k, ((code, out), w) in enumerate(zip(result, want))
            if code != 0 or out != w
        ]

    def counts(self, text: str) -> dict[str, int]:
        return diagram_counts(*serialize.diagram_from_json(text))


# ---------------------------------------------------------------------------
# executions

def _drawn_shape(seed: int, max_processes: int, max_actions: int) -> tuple[int, int]:
    """The process and action counts gen_execution(seed, ...) draws
    first, replayed from the same Random(seed). Screening seeds with it
    spares most of the full generations a seed would reject, and with
    them most of the set-up time that varied with how many draws a seed
    rejected. The full check after generation stays the authority."""
    rng = random.Random(seed)
    return rng.randint(1, max_processes), rng.randint(0, max_actions)


def _trimmed_execution(rng: random.Random, spec: dict, i: int) -> lamport.Execution:
    """Document i: a generated execution with exactly the i-th entry of
    spec["processes"] (cycled) processes, cut to exactly spec["actions"]
    actions. gen_execution numbers actions a1, a2, ... along its global
    schedule and messages only point forward along it, so keeping the
    first n actions and the messages between them stays acyclic."""
    n = spec["actions"]
    processes = spec["processes"][i % len(spec["processes"])]
    while True:
        seed = rng.getrandbits(63)
        p, m = _drawn_shape(seed, processes, 2 * n)
        if p != processes or m < n:
            continue
        x = lamport.gen_execution(seed, max_processes=processes, max_actions=2 * n)
        ids = x.action_ids()
        if len(x.processes) == processes and len(ids) >= n:
            break
    keep = set(sorted(ids, key=lambda a: int(a[1:]))[:n])
    return lamport.Execution(
        {p: tuple(a for a in acts if a in keep) for p, acts in x.processes.items()},
        frozenset(m for m in x.messages if m[0] in keep and m[1] in keep),
        {a: v for a, v in x.actions.items() if a in keep},
    )


class ExecutionWorkload(Workload):
    def generate(self, rng: random.Random) -> Iterator[str]:
        for i in range(self.spec["docs"]):
            x = _trimmed_execution(rng, self.spec, i)
            yield serialize.to_canonical_json(lamport.execution_to_obj(x))

    def counts(self, text: str) -> dict[str, int]:
        x = lamport.execution_from_json(text)
        d, lab, _ = lamport.to_diagram(x)
        return dict(diagram_counts(d, lab), messages=len(x.messages))


class CausalQueries(ExecutionWorkload):
    """Small executions whose happens-before order is read back off the
    compiled diagram one action pair at a time."""

    def op(self, path: Path, scratch: Path):
        text = path.read_text(encoding="utf-8")
        x = lamport.execution_from_json(text)
        d, _, tick_index = lamport.to_diagram(x)
        return lamport.derived_order(d, tick_index)

    def check(self, text: str, result, scratch: Path) -> list[str]:
        want = lamport.hb_closure(lamport.execution_from_json(text))
        if result != want:
            return [f"derived_order differs from hb_closure on {len(result ^ want)} pairs"]
        return []


class ExecutionClocks(ExecutionWorkload):
    """Larger executions imported through the CLI, timestamped with the
    vector and wb clocks and rendered as dot."""

    def op(self, path: Path, scratch: Path):
        out = str(scratch / "imported.json")
        return [
            _run_cli(["import-execution", str(path), "--out", out]),
            _run_cli(["timestamps", out, "--clock", "vector"]),
            _run_cli(["timestamps", out, "--clock", "wb"]),
            _run_cli(["render", out, "--format", "dot"]),
        ]

    def check(self, text: str, result, scratch: Path) -> list[str]:
        faults = [f"command {k}: exit {code}" for k, (code, _) in enumerate(result) if code]
        if faults:
            return faults
        doc_text = (scratch / "imported.json").read_text(encoding="utf-8")
        doc = json.loads(doc_text)
        d, lab = serialize.diagram_from_obj(doc)
        again = dict(serialize.diagram_to_obj(d, lab), tick_index=doc["tick_index"])
        if serialize.to_canonical_json(again) + "\n" != doc_text:
            faults.append("imported document does not re-emit to the same bytes")

        vector = dict(line.split("  ", 1) for line in result[1][1].splitlines())
        wb = dict(line.split("  ", 1) for line in result[2][1].splitlines())
        _, events, step_edges = _sweep(d)
        if len(vector) != events or vector.keys() != wb.keys():
            faults.append(f"timestamps cover {len(vector)} and {len(wb)} events of {events}")

        # The vector stamp after an action's tick counts, per process,
        # that process's actions in the action's happens-before past.
        x = lamport.execution_from_json(text)
        past: dict[str, set[str]] = {a: {a} for a in x.actions}
        for a, b in lamport.hb_closure(x):
            past[b].add(a)
        owner = {a: p for p, acts in x.processes.items() for a in acts}
        if doc["tick_index"].keys() != x.actions.keys():
            faults.append("tick_index does not cover exactly the execution's actions")
        for a, ref in doc["tick_index"].items():
            event = f"{ref['step'] + 1}:{ref['path'] or '.'}"
            stamp = json.loads(vector.get(event, "{}"))
            want: dict[str, int] = {}
            for b in past[a]:
                want[owner[b]] = want.get(owner[b], 0) + 1
            if {p: n for p, n in stamp.items() if n} != want:
                faults.append(f"vector stamp of {a} at {event} is {stamp}, expected {want}")

        edges = sum(1 for line in result[3][1].splitlines() if " -> " in line)
        if edges != step_edges:
            faults.append(f"dot has {edges} edges, diagram has {step_edges}")
        return faults


WORKLOADS = {
    "check-corpus": CheckCorpus,
    "causal-queries": CausalQueries,
    "execution-clocks": ExecutionClocks,
}
