"""Span tracing of the library's public functions, from outside it.

Each traced function is replaced, in every causalweft module that binds
it, by a wrapper that records a span: operation id, span id, parent
span id, name, start and end. Rebinding every module-level name that
refers to the function catches calls from other modules (`cli` calls
`check_clock_condition` through its own global) and calls inside the
defining module (`verify` calls `event_order_pairs` through its global)
alike. Spans stay in memory until `write` puts them in a file.

Counts are taken at the same boundaries. Those that cost more than a
`len` are computed in `end_op`, after the operation's clock stopped,
so they do not land in any span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from causalweft.diagram import n_sites

TRACED = {
    "cli": ("main",),
    "serialize": ("diagram_from_json", "diagram_to_json", "to_canonical_json", "diagram_hash"),
    "diagram": ("validate", "cut_configs"),
    "paths": ("event_order_pairs", "action_order", "causally_ordered", "causal_paths"),
    "clocks": ("timestamp_all", "update"),
    "verify": ("check_clock_condition", "check_order_laws"),
    "lamport": ("execution_from_json", "to_diagram", "hb_closure", "derived_order"),
    "render": ("render",),
}


def _order_violations(report) -> int:
    return len(report.reflexivity) + len(report.antisymmetry) + len(report.transitivity)


# span name -> counts read from (args, result), cheap enough to take
# inline: (count name, unit, reader)
INLINE = {
    "serialize.diagram_from_json": [("serialize.bytes_in", "bytes", lambda a, r: len(a[0]))],
    "serialize.to_canonical_json": [("serialize.bytes_out", "bytes", lambda a, r: len(r))],
    "diagram.validate": [("diagram.steps", "count", lambda a, r: a[0].n_steps)],
    "paths.event_order_pairs": [("paths.ordered_pairs", "count", lambda a, r: len(r))],
    "clocks.timestamp_all": [("clocks.stamps", "count", lambda a, r: len(r))],
    "verify.check_clock_condition": [
        ("verify.checked_pairs", "count", lambda a, r: r.checked_pairs),
        ("verify.violations", "count", lambda a, r: len(r.violations)),
    ],
    "verify.check_order_laws": [
        ("verify.checked_pairs", "count", lambda a, r: r.pairs),
        ("verify.violations", "count", lambda a, r: _order_violations(r)),
    ],
    "lamport.execution_from_json": [
        ("lamport.actions", "count", lambda a, r: len(r.actions)),
        ("lamport.messages", "count", lambda a, r: len(r.messages)),
    ],
    "render.render": [("render.bytes_out", "bytes", lambda a, r: len(r))],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sites_max = 0
        self._deferred: list[tuple[str, object]] = []
        self._stack = [0]
        self._next_id = 1
        self._op = 0
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("causalweft")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"causalweft.{layer}")
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, inline = self.spans, self._stack, INLINE.get(name, ())
        counts, clock = self.counts, time.perf_counter
        calls = name + ".calls"
        deferred = name in ("diagram.cut_configs", "paths.event_order_pairs")
        iterates = name == "paths.causal_paths"

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self._op, sid, parent, name, start, end))
            counts[calls] += 1
            for key, _, read in inline:
                counts[key] += read(args, result)
            if deferred:
                self._deferred.append((name, result))
            if iterates:
                return self._iterate(name, result)
            return result

        return traced

    def _iterate(self, name: str, it):
        """Time each step of a lazy result as a span of its own."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        while True:
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                end = clock()
                stack.pop()
                spans.append((self._op, sid, parent, name, start, end))
            self.counts["paths.witnesses"] += 1
            yield item

    # -- per operation ----------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Record calls as spans of operation `op` until `end_op`; calls
        outside an operation, such as the oracle gates, pass through."""
        self._op = op
        self._active = True

    def end_op(self) -> None:
        self._active = False
        for name, result in self._deferred:
            if name == "diagram.cut_configs":
                self.sites_max = max(self.sites_max, *(n_sites(c) for c in result))
            else:
                self.counts["paths.events"] += sum(1 for e1, e2 in result if e1 == e2)
        self._deferred.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less the time
        its direct children cover."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, sid, parent, name, start, end in self.spans:
                f.write(f"{op}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit)."""
        self_s, incl_s = self.self_times(), self.inclusive_times()
        out: dict[str, tuple[float, str]] = {}
        for layer, names in TRACED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                out[name + ".self_ms"] = (1000 * self_s.get(name, 0.0), "ms")
                out[name + ".calls"] = (self.counts.get(name + ".calls", 0), "count")
        for entries in INLINE.values():
            for key, unit, _ in entries:
                out[key] = (self.counts.get(key, 0), unit)
        out["diagram.sites_max"] = (self.sites_max, "count")
        out["paths.events"] = (self.counts.get("paths.events", 0), "count")
        out["paths.witnesses"] = (self.counts.get("paths.witnesses", 0), "count")
        sweep_s = incl_s.get("paths.event_order_pairs", 0.0)
        pairs = self.counts.get("paths.ordered_pairs", 0)
        out["paths.pairs_per_s"] = (pairs / sweep_s if sweep_s else 0.0, "1/s")
        queries = self.counts.get("paths.action_order.calls", 0)
        query_s = incl_s.get("paths.action_order", 0.0)
        out["paths.action_order.us_per_call"] = (1e6 * query_s / queries if queries else 0.0, "us")
        return out
