import random

import pytest

from oddramsey.colored_graph import (
    CycleOrPath,
    EdgeColoring,
    SimpleGraph,
    cycle_census,
    edge,
    min_degree,
    parity_census,
    symmetric_difference,
)
from oddramsey.constructions import random_edge_coloring, random_min_degree_graph
from oddramsey.errors import BadWitness, PreconditionFailed
from oddramsey.hamilton import assert_valid_cycle, enumerate_hamilton_cycles
from oddramsey.parity_switch import (
    AgreementPartition,
    _hexagon_witness,
    agreement_partition,
    find_even_hamilton_2col,
    switch_c4,
    switch_c6,
)

from conftest import coloring_with


def check_outcome(g, chi, out):
    """Universal checks on a switch outcome."""
    assert_valid_cycle(g, out.cycle)
    assert cycle_census(chi, out.cycle).is_even_chromatic()
    if out.candidates is not None:
        c1, c2 = out.candidates
        assert_valid_cycle(g, c1)
        assert_valid_cycle(g, c2)
        even1 = cycle_census(chi, c1).is_even_chromatic()
        even2 = cycle_census(chi, c2).is_even_chromatic()
        assert even1 != even2
        diff = symmetric_difference(c1, c2)
        wit = out.witness
        if "case-1.2" in out.provenance:
            assert (
                parity_census(chi, diff).odd_colors
                == cycle_census(chi, wit).odd_colors
            )
        else:
            assert diff == set(wit.edges())


def test_switch_c4_on_k6():
    g = SimpleGraph.complete(6)
    chi = coloring_with(6, 2, {(0, 1): 2})
    witness = CycleOrPath((0, 1, 2, 3), closed=True)
    out = switch_c4(g, chi, witness)
    assert out.provenance == "c4-switch"
    assert cycle_census(chi, out.cycle).counts == {1: 6}
    assert edge(0, 1) not in set(out.cycle.edges())
    check_outcome(g, chi, out)
    assert symmetric_difference(*out.candidates) == set(witness.edges())


def test_switch_c4_rejects_even_witness():
    g = SimpleGraph.complete(6)
    chi = coloring_with(6, 2, {(0, 1): 2, (1, 2): 2})
    with pytest.raises(BadWitness):
        switch_c4(g, chi, CycleOrPath((0, 1, 2, 3), closed=True))


def test_switch_c4_rejects_weak_degree():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    chi = EdgeColoring(c6, 2, {e: 1 for e in c6.edges()})
    with pytest.raises(PreconditionFailed):
        switch_c4(c6, chi, CycleOrPath((0, 1, 2, 3), closed=True))


def _hexagon(n=10):
    return CycleOrPath((0, 1, 2, 3, 4, 5), closed=True)


def test_switch_c6_case_11_on_k10():
    g = SimpleGraph.complete(10)
    chi = coloring_with(10, 2, {(1, 2): 2})
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c6-switch case-1.1"
    check_outcome(g, chi, out)
    assert symmetric_difference(*out.candidates) == set(_hexagon().edges())


def test_switch_c6_rejects_even_witness():
    g = SimpleGraph.complete(10)
    chi = coloring_with(10, 2, {})
    with pytest.raises(BadWitness):
        switch_c6(g, chi, _hexagon())


def _case12_instance():
    """n = 12: the residual graph after removing {1,2,4,5} is K_{4,4} on
    {0,3,6,7 | 8,9,10,11}, every residual degree exactly half."""
    n = 12
    es = []
    for u in (1, 2, 4, 5):
        es += [(u, v) for v in range(n) if v != u]
    es += [(a, b) for a in (0, 3, 6, 7) for b in (8, 9, 10, 11)]
    g = SimpleGraph(n, sorted(set(edge(*e) for e in es)))
    assert min_degree(g) == 8
    chi_assign = {e: 1 for e in g.edges()}
    chi_assign[edge(1, 2)] = 2  # hexagon odd away from the a/d corners
    chi = EdgeColoring(g, 2, chi_assign)
    return g, chi


def test_switch_c6_case_12_profile():
    g, chi = _case12_instance()
    out = switch_c6(g, chi, _hexagon())
    assert "case-1.2" in out.provenance
    check_outcome(g, chi, out)


def test_switch_c6_case_12_delegates_on_odd_pretest():
    g, chi0 = _case12_instance()
    # make the corner pre-test 4-cycle odd: recolor one hexagon edge at a
    assign = {e: chi0.color(*e) for e in g.edges()}
    assign[edge(0, 1)] = 2
    assign[edge(1, 2)] = 1
    chi = EdgeColoring(g, 2, assign)
    out = switch_c6(g, chi, _hexagon())
    assert "c4-switch" in out.provenance and "delegated" in out.provenance
    check_outcome(g, chi, out)


def test_switch_c6_case_121_reroute():
    # residual K_{4,4} plus the chord {0,3}: the corners are high-degree,
    # so the first low-low cycle edge avoids them and the reroute applies
    n = 12
    es = []
    for u in (1, 2, 4, 5):
        es += [(u, v) for v in range(n) if v != u]
    es += [(a, b) for a in (0, 3, 6, 7) for b in (8, 9, 10, 11)]
    es += [(0, 3)]
    g = SimpleGraph(n, sorted(set(edge(*e) for e in es)))
    assert min_degree(g) == 8
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c6-switch case-1.2.1"
    check_outcome(g, chi, out)


def _split_host(parts, banned=()):
    """K_12 minus ``banned`` and every edge inside each of ``parts``."""
    ban = {edge(*e) for e in banned}
    for part in parts:
        ban |= {edge(a, b) for i, a in enumerate(part) for b in part[i + 1 :]}
    return SimpleGraph(
        12, [(u, v) for u in range(12) for v in range(u + 1, 12)
             if edge(u, v) not in ban]
    )


def _coloring_twos(g, twos):
    """Color 2 on ``twos``, color 1 on every other edge of ``g``."""
    twos = {edge(*e) for e in twos}
    return EdgeColoring(g, 2, {e: (2 if e in twos else 1) for e in g.edges()})


def test_switch_c6_case_121_reroute_on_the_d_to_a_arc():
    # residual K_{4,4} on {0,3,6,8 | 7,9,10,11}: the Dirac cycle avoiding
    # the a-d chord walks 3,7,6,9,8,10,0 from d back to a, and its first
    # low-low edge 9-8 lies on that arc.  Read from a, the arc gives
    # u = 8, v = 9, and the reroute opens 8-9: a..u Q1^-1 Q2 v..d, the
    # other arc's interior, back to a.
    g = _split_host([(0, 3, 6, 8), (7, 9, 10, 11)])
    assert min_degree(g) == 8
    chi = _coloring_twos(g, [(1, 2)])
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c6-switch case-1.2.1"
    check_outcome(g, chi, out)
    assert [c.vertices for c in out.candidates] == [
        (0, 10, 8, 5, 1, 2, 4, 9, 6, 7, 3, 11),
        (0, 10, 8, 1, 5, 4, 2, 9, 6, 7, 3, 11),
    ]


def test_switch_c6_case_122_delegates_on_odd_corner_quad():
    # residual K_{4,4} on {0,3,7,9 | 6,8,10,11}: the first low-low cycle
    # edge 11-0 meets the corner a = 0, and the 4-cycle v c d e = 11 2 3 4
    # is odd (its edge 11-2 has color 2), so case 1.2.2 hands it to the
    # 4-cycle switch
    g = _split_host([(0, 3, 7, 9), (6, 8, 10, 11)])
    chi = _coloring_twos(g, [(1, 2), (2, 11)])
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c4-switch (delegated)"
    assert out.witness.vertices == (11, 2, 3, 4)
    check_outcome(g, chi, out)


def test_switch_c6_case_3_delegates_on_odd_corner_quad():
    # connectors 1-6-5 and 2-7-4 are cherries, and the residual graph on
    # {0,3,8,9,10,11} has no Hamilton {0,3}-path; its first low vertex
    # w = 8 closes the 4-cycle w b a f = 8 1 0 5, odd through 8-1, so case 3
    # delegates before any relabeling
    g = _split_host([(0, 3, 6), (8, 9, 10)], banned=[(1, 5), (2, 4)])
    assert min_degree(g) >= 8
    chi = _coloring_twos(g, [(1, 2), (1, 8)])
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c4-switch (delegated)"
    assert out.witness.vertices == (8, 1, 0, 5)
    check_outcome(g, chi, out)


def test_switch_c6_case_13():
    # residual K_{4,4} plus a same-side matching: exactly half the residual
    # vertices exceed half degree
    n = 12
    es = []
    for u in (1, 2, 4, 5):
        es += [(u, v) for v in range(n) if v != u]
    es += [(a, b) for a in (0, 3, 6, 7) for b in (8, 9, 10, 11)]
    es += [(0, 6), (3, 7)]
    g = SimpleGraph(n, sorted(set(edge(*e) for e in es)))
    assert min_degree(g) == 8
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert "case-1.3" in out.provenance or "c4-switch" in out.provenance
    check_outcome(g, chi, out)


def test_switch_c6_case_2_first_branch():
    # remove the {2,4} chord so its connector becomes a cherry
    g = SimpleGraph.complete(12).without_edge(edge(2, 4))
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c6-switch case-2"
    check_outcome(g, chi, out)
    assert symmetric_difference(*out.candidates) == set(_hexagon().edges())


def test_switch_c6_case_2_relabel_branch():
    # residual graph K_{3,4} on {0,3,6 | 7,8,9,10}: no {0,3}-path exists
    # (same side of a bipartition), two low-degree residual vertices exist
    n = 12
    keep_parts = [(0, 3, 6), (7, 8, 9, 10)]
    banned = {edge(2, 4)}
    for part in keep_parts:
        banned |= {
            edge(a, b) for i, a in enumerate(part) for b in part[i + 1 :]
        }
    # vertex 11 is the cherry middle for the {2,4} connector
    es = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if edge(u, v) not in banned
    ]
    g = SimpleGraph(n, es)
    assert min_degree(g) >= 8
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance.startswith("c6-switch case-2 -> ")
    check_outcome(g, chi, out)


def test_switch_c6_case_3_first_branch():
    g = SimpleGraph.complete(12)
    g = g.without_edge(edge(1, 5)).without_edge(edge(2, 4))
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance == "c6-switch case-3"
    check_outcome(g, chi, out)
    assert symmetric_difference(*out.candidates) == set(_hexagon().edges())


def test_switch_c6_case_3_low_vertex_branch():
    # residual graph K_{3,3} on {0,3,8 | 9,10,11}: no {0,3}-path, every
    # residual degree at half
    n = 12
    banned = {edge(1, 5), edge(2, 4)}
    for part in [(0, 3, 8), (9, 10, 11)]:
        banned |= {
            edge(a, b) for i, a in enumerate(part) for b in part[i + 1 :]
        }
    es = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if edge(u, v) not in banned
    ]
    g = SimpleGraph(n, es)
    assert min_degree(g) >= 8
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert out.provenance.startswith("c6-switch case-3 -> ")
    check_outcome(g, chi, out)


def test_switch_c6_mixed_connector_normalized():
    # {b,f} connector is a cherry while {c,e} is an edge: the dispatcher
    # swaps roles through the a<->d relabeling
    g = SimpleGraph.complete(12).without_edge(edge(1, 5))
    chi = EdgeColoring(
        g, 2, {e: (2 if e == edge(1, 2) else 1) for e in g.edges()}
    )
    out = switch_c6(g, chi, _hexagon())
    assert "case-2" in out.provenance or "c4-switch" in out.provenance
    check_outcome(g, chi, out)


def test_agreement_partition_monochromatic():
    g = SimpleGraph.complete(8)
    chi = coloring_with(8, 2, {})
    res = agreement_partition(g, chi)
    assert isinstance(res, AgreementPartition)
    assert res.classes == (frozenset(range(8)),)
    assert all(v == "agree" for v, _ in res.witness_table.values())


def test_agreement_partition_reverified_exhaustively():
    # when a partition comes back, re-check every pair against every
    # common neighbor independently (n up to 14)
    for n, seed in [(8, 0), (10, 3), (12, 5), (14, 9)]:
        g = random_min_degree_graph(n, n // 2 + 2, seed)
        chi_assign = {
            e: (1 if (e.u < n // 2) == (e.v < n // 2) else 2)
            for e in g.edges()
        }
        chi = EdgeColoring(g, 2, chi_assign)
        res = agreement_partition(g, chi)
        if not isinstance(res, AgreementPartition):
            continue
        lookup = {v: i for i, block in enumerate(res.classes) for v in block}
        for x in range(n):
            for y in range(x + 1, n):
                same = lookup[x] == lookup[y]
                for u in range(n):
                    if g.adjacent(x, u) and g.adjacent(y, u):
                        equal = chi.color(x, u) == chi.color(y, u)
                        assert equal == same, (n, seed, x, y, u)


def test_agreement_partition_two_classes():
    g = SimpleGraph.complete(8)
    chi = EdgeColoring(
        g,
        2,
        {
            e: (1 if (e.u < 4) == (e.v < 4) else 2)
            for e in g.edges()
        },
    )
    res = agreement_partition(g, chi)
    assert isinstance(res, AgreementPartition)
    assert {frozenset(c) for c in res.classes} == {
        frozenset(range(4)),
        frozenset(range(4, 8)),
    }


def test_agreement_partition_mixed_pair_gives_odd_c4():
    g = SimpleGraph.complete(8)
    # pair (0,1): witness 2 agrees, witness 3 disagrees
    chi = coloring_with(8, 2, {(1, 3): 2})
    res = agreement_partition(g, chi)
    assert isinstance(res, CycleOrPath)
    assert len(res.vertices) == 4
    assert cycle_census(chi, res).is_odd_chromatic()


def _pair_scan_partition(g, chi):
    """Reference: the pair-by-pair scan over common neighbors in increasing
    order, stopping at the first pair with both an agreeing and a
    disagreeing neighbor, then the block/transitivity pass."""
    n = g.n
    verdicts, table = {}, {}
    for x in range(n):
        for y in range(x + 1, n):
            agree_w = disagree_w = None
            for u in range(n):
                if not (g.adjacent(x, u) and g.adjacent(y, u)):
                    continue
                if chi.color(x, u) == chi.color(y, u):
                    if agree_w is None:
                        agree_w = u
                elif disagree_w is None:
                    disagree_w = u
                if agree_w is not None and disagree_w is not None:
                    return CycleOrPath((x, agree_w, y, disagree_w), closed=True)
            verdicts[(x, y)] = agree_w is not None
            wit_u = agree_w if agree_w is not None else disagree_w
            table[(x, y)] = ("agree" if agree_w is not None else "disagree", wit_u)
    block_a = frozenset({0} | {v for v in range(1, n) if verdicts[(0, v)]})
    block_b = frozenset(range(n)) - block_a
    for x in range(1, n):
        for y in range(x + 1, n):
            same = (x in block_a) == (y in block_a)
            if same == verdicts[(x, y)]:
                continue
            if same:
                trip = (x, 0, y) if x in block_a else (0, x, y)
            else:
                trip = (0, x, y) if x in block_a else (0, y, x)
            return _hexagon_witness(g, chi, trip)
    classes = (block_a, block_b) if block_b else (block_a,)
    return AgreementPartition(classes, table)


def test_agreement_partition_matches_pair_scan():
    # Random colorings return a mixed-pair C4 early; planted 2-block
    # colorings run the full scan; a planted coloring with one flipped
    # edge returns a C4 from a later pair.
    partitions = 0
    for seed in range(210):
        n = 12 + 2 * (seed % 15)
        g = random_min_degree_graph(n, n // 2 + 2, seed)
        kind = ("random", "planted", "flipped")[seed % 3]
        if kind == "random":
            chi = random_edge_coloring(g, 2, seed)
        else:
            rng = random.Random(seed)
            signs = [rng.randrange(2) for _ in range(n)]
            assign = {e: 1 + (signs[e.u] ^ signs[e.v]) for e in g.edges()}
            if kind == "flipped":
                e = rng.choice(list(assign))
                assign[e] = 3 - assign[e]
            chi = EdgeColoring(g, 2, assign)
        got = agreement_partition(g, chi)
        want = _pair_scan_partition(g, chi)
        if isinstance(want, CycleOrPath):
            assert isinstance(got, CycleOrPath), (n, seed, kind)
            assert got.vertices == want.vertices, (n, seed, kind)
        else:
            partitions += 1
            assert isinstance(got, AgreementPartition), (n, seed, kind)
            assert got.classes == want.classes, (n, seed, kind)
            assert got.witness_table == want.witness_table, (n, seed, kind)
    assert partitions >= 70


def test_hexagon_witness_is_odd():
    g = SimpleGraph.complete(12)
    chi = coloring_with(12, 2, {(2, 5): 2})
    wit = _hexagon_witness(g, chi, (0, 1, 2))
    assert len(wit.vertices) == 6
    assert cycle_census(chi, wit).is_odd_chromatic()


def test_driver_monochromatic_and_random_complete():
    g = SimpleGraph.complete(8)
    chi = coloring_with(8, 2, {})
    out = find_even_hamilton_2col(g, chi)
    assert cycle_census(chi, out.cycle).counts == {1: 8}
    rng = random.Random(2)
    for seed in range(120):
        n = 10
        host = SimpleGraph.complete(n)
        chi = EdgeColoring(
            host, 2, {e: rng.choice([1, 2]) for e in host.edges()}
        )
        out = find_even_hamilton_2col(host, chi)
        assert cycle_census(chi, out.cycle).is_even_chromatic()


def test_driver_on_sparse_hosts_with_enumeration_membership():
    for n in (12, 14):
        for seed in range(40):
            g = random_min_degree_graph(n, n // 2 + 2, seed)
            chi = random_edge_coloring(g, 2, seed)
            out = find_even_hamilton_2col(g, chi)
            assert cycle_census(chi, out.cycle).is_even_chromatic()
    for seed in range(25):
        g = random_min_degree_graph(8, 6, seed + 1000)
        chi = random_edge_coloring(g, 2, seed)
        out = find_even_hamilton_2col(g, chi)
        evens = {
            c.canonical()
            for c in enumerate_hamilton_cycles(g)
            if cycle_census(chi, c).is_even_chromatic()
        }
        assert out.cycle.canonical() in evens


def test_driver_agreement_endgame_on_sign_colorings():
    # sign-structured colorings produce a clean partition; the driver then
    # returns some Hamilton cycle whose evenness follows from the partition
    for n, seed in [(8, 1), (10, 4), (12, 7)]:
        g = random_min_degree_graph(n, n // 2 + 2, seed * 7 + n)
        rng = random.Random(seed)
        signs = [rng.randrange(2) for _ in range(n)]
        chi = EdgeColoring(
            g, 2, {e: 1 + (signs[e.u] ^ signs[e.v]) for e in g.edges()}
        )
        out = find_even_hamilton_2col(g, chi)
        assert out.provenance == "agreement-endgame"
        assert cycle_census(chi, out.cycle).is_even_chromatic()
        if n <= 10:
            for c in enumerate_hamilton_cycles(g):
                assert cycle_census(chi, c).is_even_chromatic()


def test_driver_rejects_bad_settings():
    g = SimpleGraph.complete(8)
    chi3 = EdgeColoring(g, 3, {e: 1 for e in g.edges()})
    with pytest.raises(PreconditionFailed):
        find_even_hamilton_2col(g, chi3)
    sparse = random_min_degree_graph(8, 5, 0)  # min degree below n/2+2
    chi = random_edge_coloring(sparse, 2, 0)
    if min_degree(sparse) < 6:
        with pytest.raises(PreconditionFailed):
            find_even_hamilton_2col(sparse, chi)
