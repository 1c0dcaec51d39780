import random
import time
from itertools import combinations, permutations, product

import pytest

from oddramsey import constructions, hamilton
from oddramsey.colored_graph import (
    CycleOrPath,
    EdgeColoring,
    SimpleGraph,
    cycle_census,
    edge,
    min_degree,
)
from oddramsey.constructions import (
    exact_ramsey,
    random_coloring,
    random_edge_coloring,
    random_min_degree_graph,
    splitmix64_next,
    unique_upper_coloring,
    verify_every_cycle,
)
from oddramsey.errors import CapExceeded, InternalContradiction, PreconditionFailed
from oddramsey.hamilton import enumerate_hamilton_cycles

from conftest import coloring_with, mono_coloring


def test_upper_coloring_structure_n6():
    chi = unique_upper_coloring(6)
    assert chi.r == 4
    # blocks: {0..3} and {4,5}; intra-block edges share color 1 with the
    # crossing edges at vertex 0
    assert chi.color(0, 1) == 1 and chi.color(4, 5) == 1
    assert chi.color(0, 4) == 1  # crossing at vertex 0 reuses color 1
    assert chi.color(3, 4) == 4 and chi.color(2, 5) == 3
    cyc = CycleOrPath((0, 1, 2, 3, 4, 5), closed=True)
    assert cycle_census(chi, cyc).counts == {1: 5, 4: 1}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_upper_coloring_verified_exhaustively(n):
    ok, counterexample = verify_every_cycle(
        unique_upper_coloring(n), "has-unique-color"
    )
    assert ok and counterexample is None


def test_upper_coloring_rejects_odd_n():
    with pytest.raises(PreconditionFailed):
        unique_upper_coloring(5)


def test_verify_every_cycle_modes():
    mono = mono_coloring(6)
    ok, cex = verify_every_cycle(mono, "has-unique-color")
    assert not ok and cex is not None
    assert cycle_census(mono, cex).counts == {1: 6}
    assert verify_every_cycle(mono, "even-chromatic") == (True, None)
    assert verify_every_cycle(mono, "odd-chromatic")[0] is False
    with pytest.raises(PreconditionFailed):
        verify_every_cycle(mono, "no-such-predicate")
    with pytest.raises(CapExceeded):
        verify_every_cycle(mono_coloring(17), "even-chromatic")


_REFERENCE_PREDICATES = {
    "has-unique-color": lambda census: census.has_unique_color(),
    "odd-chromatic": lambda census: census.is_odd_chromatic(),
    "even-chromatic": lambda census: census.is_even_chromatic(),
}


def _verify_by_enumeration(chi, predicate):
    """The enumeration loop that verify_every_cycle replaced, as reference."""
    pred = _REFERENCE_PREDICATES[predicate]
    for cyc in enumerate_hamilton_cycles(chi.host, cap=14):
        if not pred(cycle_census(chi, cyc)):
            return False, cyc
    return True, None


def _small_instances(count):
    """Seeded random colorings of sparse-to-dense hosts, n = 3..9."""
    for i in range(count):
        n = 9 if i % 20 == 19 else 3 + i % 6
        dmin = max(0, n // 2 - 1) + i // 6 % 3
        host = random_min_degree_graph(n, min(dmin, n - 1), 1000 + i)
        yield random_edge_coloring(host, 1 + i // 18 % 4, 2000 + i)


def _sparse_instances(count):
    """Seeded colorings of sparse n = 13, 14 hosts: past the enumerator's
    default vertex cap, inside the table's."""
    for i in range(count):
        host = random_min_degree_graph(13 + i % 2, 3 + i // 2 % 2, 3000 + i)
        yield random_edge_coloring(host, 1 + i // 4 % 4, 4000 + i)


def test_verify_table_matches_enumeration():
    queries = failures = 0
    for chi in [*_small_instances(240), *_sparse_instances(16)]:
        for predicate in _REFERENCE_PREDICATES:
            got = verify_every_cycle(chi, predicate)
            want = _verify_by_enumeration(chi, predicate)
            assert got[0] == want[0], (chi, predicate)
            if not want[0]:
                assert got[1].closed
                assert got[1].vertices == want[1].vertices, (chi, predicate)
                failures += 1
            else:
                assert got[1] is None
            queries += 1
    assert queries == 768 and failures >= 150


def _counting_enumeration(listed):
    def enumeration(g, cap=12):
        for cyc in enumerate_hamilton_cycles(g, cap):
            listed.append(cyc)
            yield cyc

    return enumeration


def test_verify_over_budget_raises_without_listing_cycles(monkeypatch):
    listed = []
    monkeypatch.setattr(hamilton, "enumerate_hamilton_cycles",
                        _counting_enumeration(listed))
    cases = [
        (chi, p) for chi in _small_instances(12) if chi.host.n >= 6
        for p in _REFERENCE_PREDICATES
    ]
    for chi, p in cases:
        verify_every_cycle(chi, p)  # inside the real budget
    monkeypatch.setattr(constructions, "TABLE_STATE_BUDGET", 5)
    for chi, p in cases:
        if p == "odd-chromatic" and chi.host.n % 2:
            # odd n needs no table: every Hamilton cycle is odd-chromatic
            assert verify_every_cycle(chi, p) == (True, None)
            continue
        with pytest.raises(CapExceeded, match=r"^cycle verification table "
                                              r"passed 5 color states$"):
            verify_every_cycle(chi, p)
    assert len(cases) == 18 and listed == []


def test_verify_stops_at_the_real_state_budget(monkeypatch):
    # Under has-unique-color every color set of a rainbow K_12 path is its
    # own state; the old fallback then faced 19,958,400 cycles.
    listed = []
    monkeypatch.setattr(hamilton, "enumerate_hamilton_cycles",
                        _counting_enumeration(listed))
    host = SimpleGraph.complete(12)
    rainbow = EdgeColoring(host, 66, {e: i + 1 for i, e in enumerate(host.edges())})
    for chi in (rainbow, random_coloring(12, 12, 1)):
        started = time.monotonic()
        with pytest.raises(CapExceeded, match=r"^cycle verification table "
                                              r"passed 1000000 color states$"):
            verify_every_cycle(chi, "has-unique-color")
        assert time.monotonic() - started < 5.0
    assert listed == []


def test_verify_rechecks_the_located_cycle(monkeypatch):
    chi = coloring_with(6, 2, {(0, 1): 2})
    holding = CycleOrPath((0, 1, 2, 3, 4, 5), closed=True)
    monkeypatch.setattr(
        constructions, "_first_violating_cycle", lambda *args: holding
    )
    with pytest.raises(InternalContradiction):
        verify_every_cycle(chi, "odd-chromatic")


def test_verify_edges_of_the_range(monkeypatch):
    def no_table(*args):
        raise AssertionError("table built above the vertex cap")

    monkeypatch.setattr(constructions, "_path_state_table", no_table)
    with pytest.raises(CapExceeded, match=r"^cycle verification capped at n <= 16, got n = 17$"):
        verify_every_cycle(mono_coloring(17), "has-unique-color")
    single = EdgeColoring(SimpleGraph(1, []), 1, {})
    for chi in (single, mono_coloring(2)):
        for predicate in _REFERENCE_PREDICATES:
            assert verify_every_cycle(chi, predicate) == (True, None)


def test_odd_chromatic_holds_on_odd_n_without_a_table(monkeypatch):
    # A Hamilton cycle on odd n has odd length, so some color occurs an odd
    # number of times.  The four many-color hosts lie past the parity
    # budget: a table would answer cap_exceeded.
    def no_table(*args):
        raise AssertionError("parity table built")

    monkeypatch.setattr(constructions, "_parity_tables", no_table)
    hosts = [random_coloring(n, r, 1) for n, r in [(7, 20), (9, 14), (11, 12), (13, 10)]]
    hosts += [mono_coloring(n) for n in (3, 5, 9, 15)]
    hosts += [random_edge_coloring(random_min_degree_graph(9, 2, 4), 2, 4)]
    hosts += [random_edge_coloring(SimpleGraph(7, [(0, 1), (2, 3)]), 3, 1)]
    for chi in hosts:
        assert verify_every_cycle(chi, "odd-chromatic") == (True, None), chi
        with pytest.raises(AssertionError, match="parity table built"):
            verify_every_cycle(chi, "even-chromatic")
    with pytest.raises(AssertionError, match="parity table built"):
        verify_every_cycle(mono_coloring(8), "odd-chromatic")
    with pytest.raises(CapExceeded, match=r"^cycle verification capped at n <= 16, got n = 17$"):
        verify_every_cycle(mono_coloring(17), "odd-chromatic")


def _reference_table_verify(chi, predicate):
    """verify_every_cycle as it was before the parity predicates moved to
    flat tables: one frozenset of color states per (mask, endpoint) cell for
    every predicate, colors coded by their own index, the same walk."""
    n, r = chi.host.n, chi.r
    if n < 3:
        return True, None
    if predicate == "has-unique-color":
        once = (4**r - 1) // 3

        def combine(a, b):
            many = (a | b) >> 1 & once | a & b & once
            return many << 1 | (a | b) & once & ~many

        unit = lambda c: 1 << 2 * (c - 1)
        extend = lambda states, e: {s if s & e << 1 else s + e for s in states}
        violates = lambda x: not x & once
    else:
        unit, combine = (lambda c: 1 << (c - 1)), int.__xor__
        extend = lambda states, e: {s ^ e for s in states}
        violates = (lambda x: x == 0) if predicate == "odd-chromatic" else bool
    rows = [chi.host.mask(v) for v in range(n)]
    units = [[unit(chi.color(v, w)) if rows[v] >> w & 1 else 0 for w in range(n)]
             for v in range(n)]
    layer = {1: {0: frozenset((0,))}}
    table = dict(layer)
    for _ in range(n - 1):
        grown = {}
        for mask, cells in layer.items():
            for v, states in cells.items():
                for w in range(n):
                    if rows[v] >> w & 1 and not mask >> w & 1:
                        out = grown.setdefault(mask | 1 << w, {}).setdefault(w, set())
                        out |= extend(states, units[v][w])
        layer = {m: {w: frozenset(o) for w, o in cells.items()}
                 for m, cells in grown.items()}
        table.update(layer)
    full = (1 << n) - 1
    path, mask, state = [0], 1, 0
    while len(path) < n:
        u = path[-1]
        cells = table.get(full ^ mask | 1, {})
        for w in range(n):
            if not rows[u] >> w & 1 or mask >> w & 1:
                continue
            step = combine(state, units[u][w])
            if any(violates(combine(step, t)) for t in cells.get(w, ())):
                break
        else:
            assert u == 0
            return True, None
        path.append(w)
        mask |= 1 << w
        state = step
    return False, CycleOrPath(tuple(path), closed=True)


def _structured_colorings():
    """Block-pair, sum, min and mono colorings of complete and sparse hosts,
    n <= 10 and r <= 4, some declaring more colors than they use."""
    for n in range(3, 11):
        hosts = [SimpleGraph.complete(n), random_min_degree_graph(n, n // 2, 90 + n)]
        for host, r in product(hosts, (1, 2, 3, 4)):
            half = n // 2
            rules = [
                lambda u, v: 1 + ((u < half) + (v < half)) % r,
                lambda u, v: 1 + (u + v) % r,
                lambda u, v: 1 + min(u, v) % r,
                lambda u, v: r,  # mono in the last color
                lambda u, v: 1 + (u * v) % max(r - 1, 1),  # color r unused
            ]
            for rule in rules:
                yield EdgeColoring(host, r, {e: rule(*e) for e in host.edges()})


def test_flat_parity_tables_match_the_per_cell_sets():
    # Same verdict and the same first failing cycle as the frozenset
    # table, on seeded random and structured colorings, every predicate.
    rng = random.Random(23)
    random_cases = []
    for i in range(160):
        n = rng.randint(3, 9)
        host = random_min_degree_graph(n, rng.randint(n // 2, n - 1), 500 + i)
        r = rng.randint(1, 4)
        # a declared palette above the colors drawn, now and then
        random_cases.append(random_edge_coloring(host, r, 600 + i))
        if i % 4 == 0:
            random_cases.append(EdgeColoring(host, r + 2, dict(
                ((u, v), c) for (u, v), c in random_cases[-1].items())))
    cases = [*random_cases, *_structured_colorings()]
    seen = set()
    for chi in cases:
        present = len(chi.colors_present())
        for predicate in _REFERENCE_PREDICATES:
            got = verify_every_cycle(chi, predicate)
            assert got == _reference_table_verify(chi, predicate), (chi, predicate)
            seen.add((predicate, got[0], present < chi.r, present))
    for predicate in ("odd-chromatic", "even-chromatic"):
        for holds in (True, False):
            assert {(p, h) for p, h, _, _ in seen} >= {(predicate, holds)}
        # mono (one color present) and colors declared but absent both ran
        assert any(p == predicate and k == 1 for p, _, _, k in seen)
        assert any(p == predicate and unused for p, _, unused, _ in seen)
    assert len(cases) == 520


def test_parity_budget_counts_arrays_times_masks(monkeypatch):
    # 3 colors present (of 4 declared): 2^2 arrays of 2^7 masks on K_8.
    chi = EdgeColoring(
        SimpleGraph.complete(8), 4,
        {e: 1 + (e.u + e.v) % 3 for e in SimpleGraph.complete(8).edges()},
    )
    want = {p: verify_every_cycle(chi, p) for p in ("odd-chromatic", "even-chromatic")}
    monkeypatch.setattr(constructions, "TABLE_STATE_BUDGET", 4 * 128)
    for predicate, result in want.items():
        assert verify_every_cycle(chi, predicate) == result
    monkeypatch.setattr(constructions, "TABLE_STATE_BUDGET", 4 * 128 - 1)
    # nothing is read or allocated past the budget
    monkeypatch.setattr(EdgeColoring, "color_rows", None)
    for predicate in want:
        with pytest.raises(CapExceeded, match=r"^cycle verification table "
                                              r"passed 511 color states$"):
            verify_every_cycle(chi, predicate)
    # one color present: a single array
    monkeypatch.setattr(constructions, "TABLE_STATE_BUDGET", 127)
    with pytest.raises(CapExceeded, match="passed 127 color states"):
        verify_every_cycle(mono_coloring(8, r=3), "odd-chromatic")


def test_upper_coloring_n12_verified_by_table():
    # 19,958,400 Hamilton cycles; the table stores about 372,000 states
    assert verify_every_cycle(unique_upper_coloring(12), "has-unique-color") == (
        True,
        None,
    )


def test_exact_ramsey_forced_small_cases():
    # one color on K4: census {1:4} has no odd and no unique color
    assert exact_ramsey(4, "unique", 1).exists is False
    assert exact_ramsey(4, "odd", 1).exists is False


def test_exact_ramsey_witnesses_verify():
    for mode, predicate in [
        ("unique", "has-unique-color"),
        ("odd", "odd-chromatic"),
    ]:
        for r in (1, 2, 3):
            res = exact_ramsey(4, mode, r)
            if res.exists:
                ok, _ = verify_every_cycle(res.witness, predicate)
                assert ok
            else:
                assert res.witness is None


def test_exact_ramsey_rechecks_its_witness(monkeypatch):
    # With every lane zero no cycle ever closes, so the search answers "yes"
    # with the all-color-1 coloring, whose 4-cycles are all even-chromatic.
    monkeypatch.setattr(
        constructions, "_cycle_lanes",
        lambda host, width: ([0] * host.edge_count(),) * 2,
    )
    with pytest.raises(InternalContradiction, match="odd-chromatic"):
        exact_ramsey(4, "odd", 2)


def test_exact_ramsey_monotone_and_consistent():
    table = {}
    for mode in ("odd", "unique"):
        for r in (1, 2, 3):
            table[(mode, r)] = exact_ramsey(4, mode, r).exists
    for mode in ("odd", "unique"):
        for r in (1, 2):
            assert not table[(mode, r)] or table[(mode, r + 1)]
    for r in (1, 2, 3):
        # a unique color is in particular an odd one
        assert not table[("unique", r)] or table[("odd", r)]
    # upper construction says r_u(4, C_4) <= 4/2+1 = 3
    assert table[("unique", 3)]


def test_exact_ramsey_cap():
    with pytest.raises(CapExceeded):
        exact_ramsey(8, "odd", 3)


def test_exact_ramsey_cap_for_four_or_more_colors():
    # r >= 4 is capped at n <= 5
    res = exact_ramsey(5, "odd", 4)
    assert res.exists and res.nodes > 0
    assert verify_every_cycle(res.witness, "odd-chromatic") == (True, None)
    for r in (4, 9):
        with pytest.raises(CapExceeded, match=r"^exact oracle capped below n=6"):
            exact_ramsey(6, "odd", r)


def _count_loop_oracle(n, mode, r, cycles=None):
    """The exact oracle as it was before its cycles were bit-sliced: the
    same canonical search, checking each closing cycle by a count loop,
    over the Hamilton cycles of K_n or the given ones.  Returns (exists,
    nodes, witness items or None)."""
    host = SimpleGraph.complete(n)
    edges = list(host.edges())
    index = {e: i for i, e in enumerate(edges)}
    closing = [[] for _ in edges]
    for cyc in cycles or enumerate_hamilton_cycles(host):
        ids = [index[e] for e in cyc.edges()]
        closing[max(ids)].append(ids)
    ok = (
        (lambda counts: 1 in counts)
        if mode == "unique"
        else (lambda counts: any(c % 2 for c in counts))
    )
    assignment = [0] * len(edges)
    nodes = 0

    def assign(i, used):
        nonlocal nodes
        nodes += 1
        if i == len(edges):
            return True
        for color in range(1, min(used + 1, r) + 1):
            assignment[i] = color
            good = True
            for cyc in closing[i]:
                counts = [0] * r
                for j in cyc:
                    counts[assignment[j] - 1] += 1
                if not ok(counts):
                    good = False
                    break
            if good and assign(i + 1, max(used, color)):
                return True
        assignment[i] = 0
        return False

    if assign(0, 0):
        return True, nodes, list(zip(edges, assignment))
    return False, nodes, None


_PREDICATE = {"odd": "odd-chromatic", "unique": "has-unique-color"}
# Every (n, r) the caps admit with n <= 7 and r <= 5, plus palettes larger
# than the C(n, 2) edges, which no canonical coloring can fill.
_ADMITTED = [
    (n, r) for n in range(3, 8) for r in range(1, 6)
    if constructions._oracle_cap_ok(n, r)
] + [(4, 9), (5, 12)]


def _assert_same_search(got, want):
    exists, nodes, items = want
    assert (got.exists, got.nodes) == (exists, nodes)
    assert (got.witness and list(got.witness.items())) == items


@pytest.mark.parametrize("mode", ["odd", "unique"])
def test_exact_ramsey_matches_the_count_loop(mode, monkeypatch):
    # BATCH_LEAVES = 1 batches no palette above 1: one node at a time.
    for n, r in _ADMITTED:
        want = _count_loop_oracle(n, mode, r)
        for batch in (constructions.BATCH_LEAVES, 1):
            monkeypatch.setattr(constructions, "BATCH_LEAVES", batch)
            got = exact_ramsey(n, mode, r)
            _assert_same_search(got, want)
        if got.exists:
            assert got.witness.r == r
            assert verify_every_cycle(got.witness, _PREDICATE[mode]) == (True, None)


def test_exact_ramsey_batches_match_the_count_loop_on_cycle_subsets(monkeypatch):
    # On K_n's own cycles every witness lies below the all-color-1 prefix,
    # which no batch covers.  Some subsets of those cycles, such as cycles 5
    # and 11 of K_5 in unique mode with r = 2, are satisfied only inside a
    # batch, which must then count the nodes up to the leaf that succeeds.
    # The oracle's witness self-check sees the same subset as its search.
    rng = random.Random(7)
    for n in (5, 6):
        every = list(enumerate_hamilton_cycles(SimpleGraph.complete(n)))
        picks = [[every[5], every[11]]] if n == 5 else []
        picks += [rng.sample(every, rng.randint(1, 8)) for _ in range(30)]
        for cycles in picks:
            monkeypatch.setattr(
                hamilton, "enumerate_hamilton_cycles", lambda g: iter(cycles)
            )
            monkeypatch.setattr(
                constructions, "verify_every_cycle",
                lambda chi, p: (all(
                    constructions._PREDICATES[p](cycle_census(chi, c)) for c in cycles
                ), None),
            )
            for mode in ("odd", "unique")[n % 2 :]:
                for r in (2, 3):
                    got = exact_ramsey(n, mode, r)
                    _assert_same_search(got, _count_loop_oracle(n, mode, r, cycles))


def test_exact_ramsey_agrees_with_brute_force():
    # all r^m colorings, no canonical form and no pruning
    for n, top in ((4, 3), (5, 2)):
        edges = list(combinations(range(n), 2))
        cycles = [
            [edges.index(tuple(sorted(p))) for p in zip(c, c[1:] + c[:1])]
            for c in ((0, *rest) for rest in permutations(range(1, n)))
            if c[1] < c[-1]
        ]
        for r in range(1, top + 1):
            found = {"odd": False, "unique": False}
            for colors in product(range(1, r + 1), repeat=len(edges)):
                counts = [
                    [sum(colors[j] == k for j in cyc) for k in range(1, r + 1)]
                    for cyc in cycles
                ]
                found["odd"] |= all(any(c % 2 for c in cs) for cs in counts)
                found["unique"] |= all(1 in cs for cs in counts)
            for mode, exists in found.items():
                assert exact_ramsey(n, mode, r).exists is exists, (n, mode, r)


@pytest.mark.parametrize(
    "args, verdict, nodes",
    [
        ((8, "odd", 2), False, 528_384),
        ((6, "odd", 3), False, 46_325),
        ((6, "unique", 3), False, 35_945),
    ],
)
def test_exact_ramsey_pinned_work(args, verdict, nodes):
    res = exact_ramsey(*args)
    assert (res.exists, res.nodes) == (verdict, nodes)


def test_upper_coloring_table_matches_the_block_rule():
    for n in (4, 6, 10, 32):
        chi = unique_upper_coloring(n)
        big = n // 2 + 1
        host = SimpleGraph.complete(n)
        want = EdgeColoring(host, big, {
            e: 1 if (e.u < big) == (e.v < big) else e.u + 1
            for e in host.edges()
        })
        assert chi.host == host and chi.r == big
        assert list(chi.items()) == list(want.items())
        for c in range(1, big + 1):
            assert chi.color_rows(c) == want.color_rows(c)


def test_splitmix_reference_values():
    # frozen first outputs for seed 0 (documented update constants)
    state, w1 = splitmix64_next(0)
    _, w2 = splitmix64_next(state)
    assert w1 == 0xE220A8397B1DCDAF
    assert w2 == 0x6E789E6AA1B965F4


def test_random_coloring_determinism_and_fixture():
    a = random_coloring(6, 3, 42)
    b = random_coloring(6, 3, 42)
    assert [c for _, c in a.items()] == [c for _, c in b.items()]
    c = random_coloring(6, 3, 43)
    assert [x for _, x in a.items()] != [x for _, x in c.items()]
    # frozen fixture: n=5, r=3, seed=42, edges in lex order
    fixture = [c for _, c in random_coloring(5, 3, 42).items()]
    assert fixture == [2, 2, 1, 1, 2, 1, 2, 3, 2, 3]


def test_random_coloring_statistics():
    # ~1e5 edges: every color frequency within five sigmas of uniform
    n, r = 460, 3
    chi = random_coloring(n, r, 7)
    m = n * (n - 1) // 2
    counts = {c: 0 for c in range(1, r + 1)}
    for _, c in chi.items():
        counts[c] += 1
    expect = m / r
    sigma = (m * (1 / r) * (1 - 1 / r)) ** 0.5
    for c in counts:
        assert abs(counts[c] - expect) < 5 * sigma


def test_random_min_degree_graph():
    for seed in (0, 1, 2):
        g = random_min_degree_graph(10, 7, seed)
        assert min_degree(g) >= 7
    a = random_min_degree_graph(12, 8, 5)
    b = random_min_degree_graph(12, 8, 5)
    assert a == b
    chi = random_edge_coloring(a, 2, 5)
    assert chi.host == a
