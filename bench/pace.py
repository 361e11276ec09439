"""The host's pace, read off a fixed reference kernel.

The benchmark shares a host whose speed drifts in phases of seconds to
minutes: a fixed pure-Python loop runs anywhere from 0.7 to 1.3 times
its median rate, and CPU time moves with wall time, so the process is
not losing time slices but running slower. A measurement of 20 seconds
lands in one or two such phases: ten such runs of unchanged code
spread by 0.17 to 0.37 (interquartile range over median).

`reference()` is a fixed amount of pure-Python work that calls nothing
in the library. Timed right next to a library operation, its time over
`REFERENCE_S` is the host's pace at that moment: 1 at the speed it was
calibrated at, above 1 when the host runs slower. Dividing an
operation's wall time by that pace gives its time at the reference
speed ("paced" time). A change to the library moves an operation's
time and not the reference's, so it shows in paced time in full, while
a slow phase of the host moves both and cancels.

The kernel is a reachability sweep like the library's own: a forward
search from every node of a fixed graph with sets, frozensets of the
reached nodes, and the sorted list of ordered pairs. Of the kernels
tried (integer arithmetic with small dict updates, random reads of a
large dict, and a sweep of this kind), the sweep tracked the library's
slow phases closest over the three workloads, and its 1.5 MB at peak,
freed on return, leave the measuring process's peak memory nearly as
it was. It runs with the garbage collector off, so its time does not
grow with the number of objects the library keeps alive; what it
allocates is freed before it returns.
"""

from __future__ import annotations

import gc
import time

# About the median time of one reference() call on the 2-vCPU host the
# benchmark was built on (Intel Xeon, Python 3.11.7). Any fixed value
# would do: it only sets the scale of paced times, which are compared
# between commits measured on one host.
REFERENCE_S = 0.005

_NODES = 120
_SUCCESSORS = {v: ((v * 7 + 1) % _NODES, (v * 13 + 5) % _NODES) for v in range(_NODES)}


def reference() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    successors = _SUCCESSORS
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reach = {}
        for v in successors:
            seen = {v}
            stack = [v]
            while stack:
                for w in successors[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[v] = frozenset(seen)
        pairs = sorted((a, b) for a, past in reach.items() for b in past if a != b)
        del reach, pairs
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

