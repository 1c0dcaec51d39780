"""A fixed pure-Python task that gauges how fast the host runs right now.

The reference host is a shared virtual machine whose speed drifts by tens
of percent over seconds to minutes, so raw wall times of whole runs spread
far more than any change worth measuring.  The benchmark times this task
in its own process just before and just after every child and every
setup, and reports each time scaled to a host on which the task takes
REFERENCE_S.  The task never calls ``oddramsey``, so a change to the
program cannot move it.  Its work resembles the program's hot loops: a
degree-sum closure scan over bitmask rows (restarting after every added
edge), then set and dict churn.
"""

from __future__ import annotations

import time

from workloads import min_degree_graph

# Seconds the task takes on the reference host (2-vCPU Xeon virtual
# machine, Python 3.11) in one of its fast phases.
REFERENCE_S = 0.080
N = 64
GRAPH = min_degree_graph(N, N // 2 + 2, 0x5EED)


def reference_work() -> int:
    rows = [0] * N
    for u, v in GRAPH:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    deg = [r.bit_count() for r in rows]
    added = 0
    changed = True
    while changed:
        changed = False
        for u in range(N):
            for v in range(u + 1, N):
                if not rows[u] >> v & 1 and deg[u] + deg[v] >= N:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    deg[u] += 1
                    deg[v] += 1
                    added += 1
                    changed = True
                    break
            if changed:
                break
    nbrs = {u: {v for v in range(N) if rows[u] >> v & 1} for u in range(N)}
    common = sum(len(nbrs[u] & nbrs[v]) for u in range(N) for v in nbrs[u])
    return added + common


def sample() -> float:
    """Seconds the reference task takes once."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` as they would read at reference speed, given the task's
    times just before and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)
