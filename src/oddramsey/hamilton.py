"""Hamilton path/cycle machinery under degree conditions.

One closure engine (threshold-parametrized) backs every guaranteed-existence
route: closing the graph, taking the trivial Hamilton cycle of the complete
closure, and unwinding added edges by crossing-pair rotations.  The closure
always adds the lexicographically first eligible pair next: a sweep over the
non-edges in lexicographic order adds each pair eligible at its turn, which
is then that first pair, and at the first pair that falls short a min-heap
worklist of every eligible pair takes over.  One search kernel, an
iterative depth-first search that lists Hamilton paths in lexicographic
order, serves the three exhaustive jobs: the path fallback and the cycle
fallback for the cases the closure alone does not certify (each bounded by
FALLBACK_NODE_BUDGET), and the canonical cycle enumerator.  The enumerator
has two users: the test suite, where it is the oracle for everything else,
and ``constructions._cycle_lanes``, which builds the exact oracle's
(``oracle exact``) bit-sliced cycle lanes from it; the benchmark's
``hamilton.cycles_enumerated`` counts those cycles.

All "find" operations are deterministic: the kernel tries neighbors in
increasing vertex id, so each fallback returns the lexicographically first
path or cycle it accepts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator, NamedTuple, Sequence

from .colored_graph import CycleOrPath, Edge, SimpleGraph, _bits, min_degree
from .errors import (
    CapExceeded,
    InternalContradiction,
    NotFoundError,
    PreconditionFailed,
)

ENUMERATION_CAP = 12
# Search-kernel nodes (path extensions) the first-result fallbacks of
# hamilton_path_between and dirac_hamilton_cycle may spend before raising
# CapExceeded; enumeration is bounded by its vertex cap instead.
FALLBACK_NODE_BUDGET = 1_000_000


class ClosureTrace(NamedTuple):
    """A closure computation: base graph, ordered added edges, fixpoint.

    Each added edge carries the degree-sum witness at its insertion step;
    replaying ``added`` from ``base`` reproduces ``closure``.
    """

    base: SimpleGraph
    threshold: int
    added: tuple[tuple[Edge, int], ...]
    closure: SimpleGraph


def bondy_chvatal_closure(g: SimpleGraph, threshold: int) -> ClosureTrace:
    """Fixpoint of adding non-edges xy with deg(x)+deg(y) >= threshold.

    Insertion order is deterministic: each step adds the lexicographically
    first eligible pair.  Degrees only grow, so a pair stays eligible until
    it is added.  A sweep walks the non-edges in lexicographic order and
    adds each one that is eligible at its turn; every earlier non-edge is
    added by then, so it is the lexicographically first eligible pair.  At
    the first pair that falls short, a min-heap worklist takes over, built
    from the rest of the sweep's eligible pairs.  It holds every eligible
    pair once, so its minimum is the pair to add, and after uv is added
    only partners of u or v whose degree now exactly meets the threshold
    join it, found through one bitmask per degree.  At threshold n with
    minimum degree n/2, every non-edge is eligible from the start and the
    sweep alone reaches K_n.
    """
    n = g.n
    rows = [g.mask(v) for v in range(n)]
    deg = [row.bit_count() for row in rows]
    full = (1 << n) - 1
    # the non-edges above the diagonal, in lexicographic order; row u is
    # read when the sweep reaches it, so earlier additions are seen
    pairs = ((u, v) for u in range(n) for v in _bits(full & ~rows[u] & -(2 << u)))
    added: list[tuple[Edge, int]] = []
    for u, v in pairs:
        s = deg[u] + deg[v]
        if s < threshold:
            break
        added.append((Edge(u, v), s))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
    by_deg = [0] * n  # by_deg[d]: bitmask of the vertices of degree d
    for v in range(n):
        by_deg[deg[v]] |= 1 << v
    # the rest of the sweep is in increasing order, so this is already a heap
    heap = [(u, v) for u, v in pairs if deg[u] + deg[v] >= threshold]
    while heap:
        u, v = heappop(heap)
        added.append((Edge(u, v), deg[u] + deg[v]))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        for x in (u, v):
            d = deg[x]
            deg[x] = d + 1
            by_deg[d] ^= 1 << x
            by_deg[d + 1] |= 1 << x
            # x's newly eligible partners: non-neighbors of degree exactly
            # threshold - (d + 1); each pair thus enters the heap once
            need = threshold - d - 1
            if 0 <= need < n:
                for w in _bits(by_deg[need] & ~rows[x] & ~(1 << x)):
                    heappush(heap, (x, w) if x < w else (w, x))
    closure = SimpleGraph._from_rows(rows)
    return ClosureTrace(g, threshold, tuple(added), closure)


def unwind_closure(trace: ClosureTrace, cycle: CycleOrPath) -> CycleOrPath:
    """Turn a Hamilton cycle of the closure into one of the base graph.

    Added edges are eliminated in reverse insertion order.  For an added
    edge xy lying on the current cycle, the degree-sum witness guarantees a
    crossing pair: an index i with path[i] adjacent to y and path[i+1]
    adjacent to x in the pre-insertion graph, allowing the standard reroute.
    Positions are scanned in increasing index and the first valid pair wins.
    Each vertex's position on the current cycle is read from an array that
    is refreshed only after a reroute, so an added edge that is not on the
    cycle costs O(1).
    """
    n = trace.base.n
    if not cycle.closed or not cycle.is_hamilton(n):
        raise PreconditionFailed("need a Hamilton cycle of the closure graph")
    cycle.validate(trace.closure)
    rows = [trace.closure.mask(v) for v in range(n)]
    current = list(cycle.vertices)
    where = [0] * n  # w is at current[where[w]]
    for k, w in enumerate(current):
        where[w] = k
    for e, _witness in reversed(trace.added):
        u, v = e
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        # an edge occurs at most once on a Hamilton cycle: it joins u to
        # the vertex after it (index at + 1 - n wraps to 0 past the end)
        # or the one before it, or it is absent; pos = -1 slices like n - 1
        at = where[u]
        if current[at + 1 - n] == v:
            pos = at
        elif current[at - 1] == v:
            pos = at - 1
        else:
            continue
        # Hamilton path p with endpoints x=p[0], y=p[-1] joined by e.
        p = current[pos + 1 :] + current[: pos + 1]
        row_x, row_y = rows[p[0]], rows[p[-1]]
        for i in range(n - 1):
            if row_x >> p[i + 1] & 1 and row_y >> p[i] & 1:
                break
        else:
            raise InternalContradiction(
                f"no crossing pair for removed closure edge {e}"
            )
        current = p[: i + 1] + p[:i:-1]
        for k, w in enumerate(current):
            where[w] = k
    out = CycleOrPath(tuple(current), closed=True)
    out.validate(trace.base)
    return out


# ---------------------------------------------------------------------------
# The Hamilton path search kernel
# ---------------------------------------------------------------------------


def _hamilton_paths(
    g: SimpleGraph, start: int, end: int | None = None, budget: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every Hamilton path from ``start``, or only those ending at ``end``.

    An iterative depth-first search over bitmask rows that extends the path
    with unvisited neighbors in increasing id, so paths come out in
    lexicographic order.  ``end`` is held back until it is the only vertex
    left.  With a ``budget``, extending the path more than that many times
    raises CapExceeded.
    """
    n = g.n
    rows = [g.mask(v) for v in range(n)]
    path = [start]
    seen = 1 << start
    if end is not None:
        seen |= 1 << end
    goal = n if end is None else n - 1
    left = -1 if budget is None else budget
    # todo[i] holds the untried continuations of path[: i + 1].
    todo = [rows[start] & ~seen]
    while todo:
        m = todo[-1]
        if m:
            if not left:
                raise CapExceeded(f"Hamilton search stopped after {budget} nodes")
            left -= 1
            low = m & -m
            todo[-1] = m ^ low
            v = low.bit_length() - 1
            path.append(v)
            seen |= low
            todo.append(rows[v] & ~seen)
            continue
        if len(path) == goal:
            if end is None:
                yield tuple(path)
            elif rows[path[-1]] >> end & 1:
                yield (*path, end)
        todo.pop()
        seen ^= 1 << path.pop()


# ---------------------------------------------------------------------------
# Guaranteed-existence operations
# ---------------------------------------------------------------------------


def _path_via_closure(g: SimpleGraph, x: int, y: int) -> CycleOrPath | None:
    """Hamilton {x,y}-path through the auxiliary-vertex closure, if complete.

    An extra vertex w adjacent to exactly {x,y} forces any Hamilton cycle of
    the augmented graph through the edges wx and wy; closing at threshold
    n+1 and unwinding then yields the path after deleting w.
    """
    aux = g.add_vertex_with_neighbors([x, y])
    trace = bondy_chvatal_closure(aux, aux.n)
    if not trace.closure.is_complete():
        return None
    seed = CycleOrPath(tuple(range(aux.n)), closed=True)
    cyc = unwind_closure(trace, seed)
    w = g.n
    vs = list(cyc.vertices)
    i = vs.index(w)
    vs = vs[i + 1 :] + vs[:i]
    if {vs[0], vs[-1]} != {x, y}:
        raise InternalContradiction("auxiliary vertex not flanked by its stubs")
    if vs[0] != x:
        vs.reverse()
    out = CycleOrPath(tuple(vs))
    out.validate(g)
    return out


def hamilton_path_between(g: SimpleGraph, x: int, y: int) -> CycleOrPath:
    """Hamilton path with endpoints x and y.

    Guaranteed under the degree-sum condition d(u)+d(v) >= n+1 for all
    non-adjacent u,v; outside that regime the closure attempt falls back to
    the search kernel, which returns the lexicographically first x..y path,
    and the caller accepts NotFoundError (or CapExceeded once the search
    spends FALLBACK_NODE_BUDGET nodes).
    """
    if x == y:
        raise PreconditionFailed("endpoints must differ")
    found = _path_via_closure(g, x, y)
    if found is not None:
        return found
    vs = next(_hamilton_paths(g, x, y, budget=FALLBACK_NODE_BUDGET), None)
    if vs is None:
        raise NotFoundError(f"no Hamilton path between {x} and {y}")
    return CycleOrPath(vs)


def strong_ore_path(g: SimpleGraph, x: int, y: int) -> CycleOrPath:
    """Hamilton {x,y}-path under one of three degree-profile hypotheses.

    With minimum degree at least floor(n/2):
      1. n even and more than n/2 vertices of degree >= n/2+1: every pair
         is joined (closure route).
      2. n even and exactly n/2 such vertices: the closure route is tried
         first; when it fails, the degree-n/2 class V1 must be independent
         and pairs inside V1 are joined by an explicit interleaved path
         through an edge of the high-degree class.
      3. n odd and more than (n+3)/2 vertices of degree >= (n+1)/2: every
         pair is joined (closure route).
    """
    n = g.n
    if n < 3 or x == y:
        raise PreconditionFailed("need n >= 3 and distinct endpoints")
    if min_degree(g) < n // 2:
        raise PreconditionFailed("minimum degree below floor(n/2)")
    # n//2 + 1 is n/2+1 for even n and (n+1)/2 for odd n; the majority
    # bound is n/2 for even n and (n+3)/2 for odd n.
    high = [v for v in range(n) if g.degree(v) >= n // 2 + 1]
    if 2 * len(high) > n + 3 * (n % 2):
        try:
            return hamilton_path_between(g, x, y)
        except NotFoundError as exc:
            raise InternalContradiction(
                "high-degree majority case must admit a Hamilton path"
            ) from exc
    if n % 2 == 1:
        raise PreconditionFailed(
            "odd case needs more than (n+3)/2 vertices of degree >= (n+1)/2"
        )
    if len(high) < n // 2:
        raise PreconditionFailed(
            "even case needs at least n/2 vertices of degree >= n/2+1"
        )
    v1 = [v for v in range(n) if g.degree(v) == n // 2]
    low = sum(1 << v for v in v1)
    independent = not any(g.mask(v) & low for v in v1)
    if not (independent and x in v1 and y in v1):
        # An edge inside the low class forces the closure to complete;
        # for mixed pairs the closure is attempted and its failure is
        # reported, not papered over.
        found = _path_via_closure(g, x, y)
        if found is not None:
            return found
        if not independent:
            raise InternalContradiction(
                "closure must complete when the degree-n/2 class spans an edge"
            )
        raise PreconditionFailed(
            "balanced case without a closure path only serves pairs "
            "inside the degree-n/2 class"
        )
    u1, u2 = next(
        (a, b) for a in high for b in high if a < b and g.adjacent(a, b)
    )
    rest_high = [v for v in high if v not in (u1, u2)]
    mids = [v for v in v1 if v not in (x, y)]
    seq = [x, u1, u2]
    for mv, uv in zip(mids, rest_high):
        seq.extend((mv, uv))
    seq.append(y)
    out = CycleOrPath(tuple(seq))
    out.validate(g)
    if not out.is_hamilton(n):
        raise InternalContradiction("interleaved path misses vertices")
    return out


def dirac_hamilton_cycle(g: SimpleGraph) -> CycleOrPath:
    """A Hamilton cycle, via closure at threshold n with a search fallback.

    Guaranteed when the minimum degree is at least n/2; on weaker inputs the
    fallback returns the first Hamilton path from vertex 0 (in the search
    kernel's lexicographic order) that closes into a cycle, whenever one
    exists, or raises CapExceeded after FALLBACK_NODE_BUDGET search nodes.
    """
    n = g.n
    if n < 3:
        raise PreconditionFailed("cycles need at least 3 vertices")
    trace = bondy_chvatal_closure(g, n)
    if trace.closure.is_complete():
        return unwind_closure(trace, CycleOrPath(tuple(range(n)), closed=True))
    paths = _hamilton_paths(g, 0, budget=FALLBACK_NODE_BUDGET)
    vs = next((p for p in paths if g.adjacent(p[-1], 0)), None)
    if vs is None:
        raise NotFoundError("graph has no Hamilton cycle")
    found = CycleOrPath(vs, closed=True)
    found.validate(g)
    return found


def short_connectors(
    g: SimpleGraph, a: int, b: int, s: set[int] | frozenset[int] = frozenset()
) -> Iterator[CycleOrPath]:
    """Every {a,b}-path of length at most 2 disjoint from ``s``, shortest
    first: the direct edge, then cherries by increasing middle vertex."""
    if a == b or a in s or b in s:
        raise PreconditionFailed("connector endpoints must be distinct and off s")
    if g.adjacent(a, b):
        yield CycleOrPath((a, b))
    for x in _bits(g.mask(a) & g.mask(b)):
        if x not in s:
            yield CycleOrPath((a, x, b))


def short_connector(
    g: SimpleGraph, a: int, b: int, s: set[int] | frozenset[int] = frozenset()
) -> CycleOrPath:
    """The first of :func:`short_connectors`.

    Guaranteed when the minimum degree is at least (n+|s|+1)/2.
    """
    found = next(short_connectors(g, a, b, s), None)
    if found is None:
        raise NotFoundError(f"no short connector between {a} and {b}")
    return found


def enumerate_hamilton_cycles(
    g: SimpleGraph, cap: int = ENUMERATION_CAP
) -> Iterator[CycleOrPath]:
    """Yield every Hamilton cycle once, in canonical form.

    Canonical form: the cycle starts at vertex 0 and its second vertex is
    smaller than its last, which quotients out rotation and reflection.
    Graphs below three vertices yield nothing: at n = 1 the lone path (0,)
    does not close (no self-loops), and at n = 2 the path (0, 1) fails
    ``p[1] < p[-1]``.
    """
    n = g.n
    if n > cap:
        raise CapExceeded(f"enumeration capped at n <= {cap}, got n = {n}")
    closing = g.mask(0)
    for p in _hamilton_paths(g, 0):
        if closing >> p[-1] & 1 and p[1] < p[-1]:
            yield CycleOrPath(p, closed=True)


def search_in_ids(
    search: Callable[[SimpleGraph, int, int], CycleOrPath],
    g: SimpleGraph, ids: Sequence[int], x: int, y: int,
) -> CycleOrPath:
    """``search(g, x, y)`` with vertex k of g standing for ``ids[k]``: x and
    y are passed as their positions in ``ids`` and the path or cycle found
    comes back in ids.  ``search`` is a Hamilton {x,y}-path search such as
    :func:`hamilton_path_between` or :func:`strong_ore_path`, or another
    search keyed by a vertex pair of g; its errors propagate."""
    found = search(g, ids.index(x), ids.index(y))
    return CycleOrPath(tuple(ids[k] for k in found.vertices), found.closed)


def assert_valid_cycle(g: SimpleGraph, c: CycleOrPath, hamilton: bool = True) -> None:
    """Universal validator: vertex-distinct, host edges only, spanning."""
    c.validate(g)
    if hamilton and not (c.closed and c.is_hamilton(g.n)):
        raise InternalContradiction("expected a spanning closed cycle")
