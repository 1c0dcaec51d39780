import random
import time
from heapq import heappop, heappush
from itertools import permutations

import pytest

from oddramsey import hamilton
from oddramsey.colored_graph import CycleOrPath, Edge, SimpleGraph, edge
from oddramsey.constructions import random_min_degree_graph
from oddramsey.errors import (
    CapExceeded,
    NotFoundError,
    PreconditionFailed,
)
from oddramsey.hamilton import (
    FALLBACK_NODE_BUDGET,
    ClosureTrace,
    assert_valid_cycle,
    bondy_chvatal_closure,
    dirac_hamilton_cycle,
    enumerate_hamilton_cycles,
    hamilton_path_between,
    short_connector,
    short_connectors,
    strong_ore_path,
    unwind_closure,
)


def _closure_fixpoint_oracle(g: SimpleGraph, threshold: int) -> set:
    """Independent set-based fixpoint for cross-checking the closure."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    changed = True
    while changed:
        changed = False
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if v not in adj[u] and len(adj[u]) + len(adj[v]) >= threshold:
                    adj[u].add(v)
                    adj[v].add(u)
                    changed = True
    return {(u, v) for u in adj for v in adj[u] if u < v}


def _path_exists_oracle(g: SimpleGraph, x: int, y: int) -> bool:
    if x == y:
        return False
    rest = [v for v in range(g.n) if v not in (x, y)]
    for mid in permutations(rest):
        seq = (x, *mid, y)
        if all(g.adjacent(seq[i], seq[i + 1]) for i in range(g.n - 1)):
            return True
    return False


def test_closure_no_op_on_k5_and_c5():
    assert bondy_chvatal_closure(SimpleGraph.complete(5), 5).added == ()
    c5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bondy_chvatal_closure(c5, 5).added == ()


def test_closure_p4_matches_independent_fixpoint():
    p4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    trace = bondy_chvatal_closure(p4, 3)
    got = {(e.u, e.v) for e in trace.closure.edges()}
    assert got == _closure_fixpoint_oracle(p4, 3)
    # endpoints pair starts below threshold, middle pair already adjacent
    assert (0, 3) not in {(e.u, e.v) for e, _ in trace.added[:1]}
    # replay reproduces the closure and every witness met the threshold
    replay = trace.base.with_edges(e for e, _ in trace.added)
    assert replay == trace.closure
    assert all(w >= 3 for _, w in trace.added)


def test_closure_trace_replay_on_random_graphs():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(4, 10)
        es = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = SimpleGraph(n, es)
        trace = bondy_chvatal_closure(g, n)
        assert {(e.u, e.v) for e in trace.closure.edges()} == \
            _closure_fixpoint_oracle(g, n)
        assert trace.base.with_edges(e for e, _ in trace.added) == trace.closure


def test_unwind_identity_when_nothing_added():
    g = SimpleGraph.complete(5)
    trace = bondy_chvatal_closure(g, 5)
    cyc = CycleOrPath((0, 1, 2, 3, 4), closed=True)
    assert unwind_closure(trace, cyc) == cyc


def test_unwind_eliminates_added_edges():
    rng = random.Random(3)
    hit = 0
    for _ in range(120):
        n = rng.randrange(5, 10)
        es = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.62
        ]
        g = SimpleGraph(n, es)
        trace = bondy_chvatal_closure(g, n)
        if not trace.closure.is_complete():
            continue
        out = unwind_closure(
            trace, CycleOrPath(tuple(range(n)), closed=True)
        )
        assert_valid_cycle(g, out)
        added = {e for e, _ in trace.added}
        assert not (set(out.edges()) & added)
        if added:
            hit += 1
    assert hit > 20  # the rotation actually exercised


def test_hamilton_path_k5_and_c4():
    k5 = SimpleGraph.complete(5)
    p = hamilton_path_between(k5, 0, 3)
    assert p.is_hamilton(5) and set(p.endpoints) == {0, 3}
    c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # Opposite vertices share a side of the 4-cycle's bipartition, so no
    # spanning path joins them; adjacent ones ride the cycle (both facts
    # double-checked by the brute-force agreement test below).
    with pytest.raises(NotFoundError):
        hamilton_path_between(c4, 0, 2)
    adj = hamilton_path_between(c4, 0, 1)
    assert_valid_cycle(c4, adj, hamilton=False)
    assert adj.is_hamilton(4)


def test_hamilton_path_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(4, 8)
        es = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.55
        ]
        g = SimpleGraph(n, es)
        for x in range(n):
            for y in range(x + 1, n):
                exists = _path_exists_oracle(g, x, y)
                try:
                    p = hamilton_path_between(g, x, y)
                    assert exists
                    assert_valid_cycle(g, p, hamilton=False)
                    assert p.is_hamilton(n) and set(p.endpoints) == {x, y}
                except NotFoundError:
                    assert not exists


def test_ore_condition_always_served():
    rng = random.Random(7)
    for _ in range(60):
        n = 6
        while True:
            es = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.8
            ]
            g = SimpleGraph(n, es)
            degs = [g.degree(v) for v in range(n)]
            if all(
                g.adjacent(u, v) or degs[u] + degs[v] >= n + 1
                for u in range(n)
                for v in range(u + 1, n)
            ):
                break
        for x in range(n):
            for y in range(x + 1, n):
                p = hamilton_path_between(g, x, y)
                assert p.is_hamilton(n)


def test_strong_ore_case1_k6_minus_matching():
    g = SimpleGraph(
        6,
        [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in [(0, 1), (2, 3), (4, 5)]
        ],
    )
    assert all(g.degree(v) == 4 for v in range(6))  # n/2 + 1
    for x in range(6):
        for y in range(x + 1, 6):
            p = strong_ore_path(g, x, y)
            assert_valid_cycle(g, p, hamilton=False)
            assert p.is_hamilton(6) and set(p.endpoints) == {x, y}


def test_strong_ore_case2_interleaved_path():
    # high class = 4-cycle 0-1-2-3, low class {4..7} independent and
    # completely joined to the high class
    es = [(0, 1), (1, 2), (2, 3), (0, 3)] + [
        (u, v) for u in range(4) for v in range(4, 8)
    ]
    g = SimpleGraph(8, es)
    p = strong_ore_path(g, 4, 7)
    assert p.vertices[0] == 4 and p.vertices[-1] == 7
    # proof shape: x u1 u2 v2 u3 v3 u4 y with u1u2 an edge of the high class
    assert p.vertices[1] in range(4) and p.vertices[2] in range(4)
    assert g.adjacent(p.vertices[1], p.vertices[2])
    hi = [v for v in p.vertices if v < 4]
    lo = [v for v in p.vertices if v >= 4]
    assert len(hi) == 4 and len(lo) == 4
    # after the high-class edge, the path alternates low/high
    tail = p.vertices[3:-1]
    assert all((v >= 4) == (i % 2 == 0) for i, v in enumerate(tail))
    assert_valid_cycle(g, p, hamilton=False)
    assert p.is_hamilton(8)


def test_strong_ore_case2_mixed_pair_reports():
    # V0 = {0,1}, V1 = {2,3}: the pair inside V0 has no Hamilton path
    g = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    p = strong_ore_path(g, 2, 3)
    assert p.is_hamilton(4)
    with pytest.raises(PreconditionFailed):
        strong_ore_path(g, 0, 1)


def test_strong_ore_case3_k7():
    g = SimpleGraph.complete(7)
    for x in range(7):
        for y in range(x + 1, 7):
            assert strong_ore_path(g, x, y).is_hamilton(7)


def test_strong_ore_rejects_weak_hypotheses():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(PreconditionFailed):
        strong_ore_path(c6, 0, 3)  # min degree 2 < 3
    k44 = SimpleGraph(8, [(u, v) for u in range(4) for v in range(4, 8)])
    with pytest.raises(PreconditionFailed):
        strong_ore_path(k44, 0, 1)  # no vertex reaches n/2 + 1


def test_dirac_cycle_examples():
    assert dirac_hamilton_cycle(SimpleGraph.complete(4)).is_hamilton(4)
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    cyc = dirac_hamilton_cycle(c6)  # fallback: the graph is its own cycle
    assert_valid_cycle(c6, cyc)
    rng = random.Random(9)
    for _ in range(30):
        n = 10
        while True:
            es = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.75
            ]
            g = SimpleGraph(n, es)
            if min(g.degree(v) for v in range(n)) >= 5:
                break
        assert_valid_cycle(g, dirac_hamilton_cycle(g))


def test_cycle_avoiding_edge():
    k5 = SimpleGraph.complete(5)
    for e in k5.edges():
        cyc = dirac_hamilton_cycle(k5.without_edge(e))
        assert e not in set(cyc.edges())
        assert_valid_cycle(k5, cyc)
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotFoundError):
        dirac_hamilton_cycle(c6.without_edge(edge(0, 1)))
    rng = random.Random(31)
    for _ in range(30):
        while True:
            es = [
                (u, v)
                for u in range(8)
                for v in range(u + 1, 8)
                if rng.random() < 0.8
            ]
            g = SimpleGraph(8, es)
            if min(g.degree(v) for v in range(8)) >= 4:
                break
        forbidden = rng.choice(list(g.edges()))
        cyc = dirac_hamilton_cycle(g.without_edge(forbidden))
        assert forbidden not in set(cyc.edges())
        assert_valid_cycle(g, cyc)


def test_short_connector():
    k6 = SimpleGraph.complete(6)
    assert short_connector(k6, 0, 1).vertices == (0, 1)
    minus = k6.without_edge(edge(0, 1))
    cherry = short_connector(minus, 0, 1)
    assert len(cherry.vertices) == 3
    rng = random.Random(13)
    for _ in range(40):
        n = 10
        while True:
            es = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.85
            ]
            g = SimpleGraph(n, es)
            if min(g.degree(v) for v in range(n)) >= 7:
                break
        s = set(rng.sample(range(n), 4))
        a, b = rng.sample([v for v in range(n) if v not in s], 2)
        q = short_connector(g, a, b, s)
        assert not (set(q.vertices) & s)
        assert q.vertices[0] == a and q.vertices[-1] == b
        assert len(q.vertices) <= 3
        assert_valid_cycle(g, q, hamilton=False)
    # Every connector, in order, against the vertex-by-vertex scan, on
    # hosts whose rows span up to three 64-bit words.
    for n in (2, 3, 7, 40, 64, 65, 130):
        for density in (0.1, 0.5, 1.0):
            g = SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])
            for _ in range(6):
                a, b, *s = rng.sample(range(n), rng.randint(2, min(n, 6)))
                got = [q.vertices for q in short_connectors(g, a, b, set(s))]
                assert got == _scanned_connectors(g, a, b, set(s)), (n, a, b, s)


def _scanned_connectors(g, a, b, s):
    """Reference: the direct edge, then a scan of every vertex for cherries."""
    out = [(a, b)] if g.adjacent(a, b) else []
    for x in range(g.n):
        if x in s or x == a or x == b:
            continue
        if g.adjacent(a, x) and g.adjacent(b, x):
            out.append((a, x, b))
    return out


def test_enumeration_counts_and_canonical_form():
    for n, want in [(4, 3), (5, 12), (6, 60), (7, 360)]:
        cycles = list(enumerate_hamilton_cycles(SimpleGraph.complete(n)))
        assert len(cycles) == want
        assert len({c.vertices for c in cycles}) == want
        for c in cycles:
            assert c.vertices[0] == 0 and c.vertices[1] < c.vertices[-1]
    c5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert len(list(enumerate_hamilton_cycles(c5))) == 1
    with pytest.raises(CapExceeded):
        list(enumerate_hamilton_cycles(SimpleGraph.complete(13)))


def _random_graph(rng, n, density):
    return SimpleGraph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ],
    )


def test_enumeration_is_the_lexicographic_permutation_scan():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randrange(3, 8)
        g = _random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
        want = [
            (0, *mid)
            for mid in permutations(range(1, n))
            if mid[0] < mid[-1]
            and g.adjacent(0, mid[0])
            and g.adjacent(mid[-1], 0)
            and all(g.adjacent(mid[i], mid[i + 1]) for i in range(n - 2))
        ]
        got = [c.vertices for c in enumerate_hamilton_cycles(g)]
        assert got == want


def test_path_fallback_returns_lexicographically_first_path():
    rng = random.Random(43)
    checked = 0
    for _ in range(150):
        n = rng.randrange(4, 8)
        g = _random_graph(rng, n, 0.55)
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                aux = g.add_vertex_with_neighbors([x, y])
                if bondy_chvatal_closure(aux, aux.n).closure.is_complete():
                    continue
                rest = [v for v in range(n) if v not in (x, y)]
                first = next(
                    (
                        (x, *mid, y)
                        for mid in permutations(rest)
                        if all(
                            g.adjacent(a, b)
                            for a, b in zip((x, *mid), (*mid, y))
                        )
                    ),
                    None,
                )
                if first is None:
                    with pytest.raises(NotFoundError):
                        hamilton_path_between(g, x, y)
                else:
                    assert hamilton_path_between(g, x, y).vertices == first
                    checked += 1
    assert checked > 50


def test_path_fallback_has_no_recursion_limit():
    # a long path graph leaves the closure idle, so the search kernel walks
    # all 1200 vertices; a recursive search would hit Python's depth limit
    n = 1200
    g = SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])
    assert hamilton_path_between(g, 0, n - 1).vertices == tuple(range(n))


def _restart_scan_closure(g: SimpleGraph, threshold: int) -> list:
    """The closure as a restart-scan: after every addition, rescan all pairs
    for the lexicographically first eligible one."""
    n = g.n
    rows = [g.mask(v) for v in range(n)]
    deg = [g.degree(v) for v in range(n)]
    added = []
    while True:
        pair = next(
            (
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not rows[u] >> v & 1 and deg[u] + deg[v] >= threshold
            ),
            None,
        )
        if pair is None:
            return added
        u, v = pair
        added.append((Edge(u, v), deg[u] + deg[v]))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1


def _position_scan_unwind(trace, cycle: CycleOrPath) -> tuple:
    """Unwinding that locates each removed edge by scanning every position."""
    n = trace.base.n
    rows = [trace.closure.mask(v) for v in range(n)]
    current = list(cycle.vertices)
    for e, _ in reversed(trace.added):
        rows[e.u] &= ~(1 << e.v)
        rows[e.v] &= ~(1 << e.u)
        pos = next(
            (
                i
                for i in range(n)
                if {current[i], current[(i + 1) % n]} == {e.u, e.v}
            ),
            None,
        )
        if pos is None:
            continue
        p = current[pos + 1 :] + current[: pos + 1]
        x, y = p[0], p[-1]
        i = next(
            i
            for i in range(n - 1)
            if rows[x] >> p[i + 1] & 1 and rows[y] >> p[i] & 1
        )
        current = p[: i + 1] + p[i + 1 :][::-1]
    return tuple(current)


def _heap_closure(g: SimpleGraph, threshold: int) -> ClosureTrace:
    """The closure as a min-heap worklist over every eligible pair from the
    start, with no sweep in front of it."""
    n = g.n
    rows = [g.mask(v) for v in range(n)]
    deg = [row.bit_count() for row in rows]
    heap = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not rows[u] >> v & 1 and deg[u] + deg[v] >= threshold
    ]
    added = []
    while heap:
        u, v = heappop(heap)
        added.append((Edge(u, v), deg[u] + deg[v]))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        for x in (u, v):
            deg[x] += 1
            # pairs at x that reach the threshold exactly now
            for w in range(n):
                if w != x and not rows[x] >> w & 1 and \
                        deg[x] + deg[w] == threshold:
                    heappush(heap, (x, w) if x < w else (w, x))
    return ClosureTrace(g, threshold, tuple(added), SimpleGraph._from_rows(rows))


def test_closure_order_matches_restart_scan(monkeypatch):
    # edges and witnesses, in order, on plain and auxiliary-vertex graphs,
    # random ones and the parity workloads' shape (delta >= n/2 + 2); some
    # closures end in the lexicographic sweep and some hand over to the heap
    pops = []
    monkeypatch.setattr(
        hamilton, "heappop", lambda heap: pops.append(1) or heappop(heap)
    )
    ended = {"sweep": 0, "heap": 0}

    def check(g, x, y):
        for h in (g, g.add_vertex_with_neighbors([x, y])):
            for t in (0, h.n - 1, h.n, h.n + 1, 2 * h.n):
                before = len(pops)
                assert list(bondy_chvatal_closure(h, t).added) == \
                    _restart_scan_closure(h, t)
                ended["heap" if len(pops) > before else "sweep"] += 1

    rng = random.Random(53)
    for _ in range(100):
        n = rng.randrange(3, 31)
        g = _random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        check(g, *rng.sample(range(n), 2))
    for s in range(20):
        n = rng.randrange(6, 31)
        check(random_min_degree_graph(n, n // 2 + 2, s), *rng.sample(range(n), 2))
    assert ended["sweep"] > 0 and ended["heap"] > 0


def test_workload_closures_never_touch_the_heap(monkeypatch):
    # On the parity workloads' hosts the sweep alone reaches the fixpoint,
    # and the cycle and paths found are those of the heap closure.
    dense = [random_min_degree_graph(92, 48, s) for s in (1, 2, 3)]
    host = random_min_degree_graph(100, 52, 1)
    pairs = [(0, 99), (7, 3), (50, 51)]

    def found():
        return (
            [dirac_hamilton_cycle(g).vertices for g in dense],
            [hamilton_path_between(host, x, y).vertices for x, y in pairs],
        )

    with monkeypatch.context() as m:
        m.setattr(hamilton, "bondy_chvatal_closure", _heap_closure)
        want = found()

    def refuse(*args):
        raise AssertionError("the closure fell back to the heap")

    monkeypatch.setattr(hamilton, "heappop", refuse)
    monkeypatch.setattr(hamilton, "heappush", refuse)
    assert found() == want


def _rotated_seed(rng, n: int) -> CycleOrPath:
    """The cycle 0..n-1 from a random start, so removed edges lie across
    the wrap-around too."""
    r = rng.randrange(n)
    return CycleOrPath(tuple(range(r, n)) + tuple(range(r)), closed=True)


def test_unwind_matches_position_scan():
    rng = random.Random(59)
    unwound = 0
    for _ in range(120):
        n = rng.randrange(4, 31)
        g = _random_graph(rng, n, rng.choice([0.5, 0.6, 0.7]))
        trace = bondy_chvatal_closure(g, n)
        if not trace.closure.is_complete():
            continue
        seed = _rotated_seed(rng, n)
        got = unwind_closure(trace, seed).vertices
        assert got == _position_scan_unwind(trace, seed)
        unwound += bool(trace.added)
    assert unwound > 40
    # auxiliary-vertex traces at threshold n + 1, as hamilton_path_between
    # builds them, and threshold-n traces that add more than n^2/4 edges,
    # whose hosts sit below the Dirac bound
    aux_checked = long_checked = 0
    for s in range(40):
        n = rng.randrange(8, 45)
        g = random_min_degree_graph(n, n // 2 + rng.randrange(3), s)
        aux = g.add_vertex_with_neighbors(rng.sample(range(n), 2))
        below = random_min_degree_graph(n, n // 2 - 2, s)
        for trace in (bondy_chvatal_closure(aux, n + 1),
                      bondy_chvatal_closure(below, n)):
            m = trace.base.n
            if not trace.closure.is_complete():
                continue
            seed = _rotated_seed(rng, m)
            got = unwind_closure(trace, seed).vertices
            assert got == _position_scan_unwind(trace, seed)
            if m > n:
                aux_checked += 1
            elif len(trace.added) > n * n / 4:
                long_checked += 1
    assert aux_checked > 30 and long_checked > 20


def _two_cliques(k: int) -> SimpleGraph:
    """Two copies of K_k sharing vertex k-1: no Hamilton cycle, and no
    Hamilton path between two vertices of one clique."""
    m = 2 * k - 1
    return SimpleGraph(
        m,
        [(u, v) for u in range(k) for v in range(u + 1, k)]
        + [(u, v) for u in range(k - 1, m) for v in range(u + 1, m)],
    )


def test_fallbacks_stop_at_node_budget():
    # the closure stays incomplete, and an unbounded search runs for
    # minutes on two K_9 before it could report that nothing exists
    g = _two_cliques(9)
    for search in (lambda: hamilton_path_between(g, 0, 1),
                   lambda: dirac_hamilton_cycle(g)):
        started = time.monotonic()
        with pytest.raises(CapExceeded, match=str(FALLBACK_NODE_BUDGET)):
            search()
        assert time.monotonic() - started < 10
    # below the budget the same shapes are still decided
    with pytest.raises(NotFoundError):
        hamilton_path_between(_two_cliques(6), 0, 1)
