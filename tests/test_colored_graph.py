import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oddramsey.colored_graph import (
    CycleOrPath,
    Edge,
    EdgeColoring,
    SimpleGraph,
    edge,
    instance_from_json,
    instance_from_obj,
    instance_to_json,
    instance_to_obj,
    min_degree,
    parity_census,
    symmetric_difference,
)
from oddramsey.constructions import random_edge_coloring, random_min_degree_graph
from oddramsey.errors import PreconditionFailed

from conftest import coloring_with, instance_like, mono_coloring


@given(st.integers(0, 50), st.integers(0, 50))
def test_edge_normalization_idempotent(u, v):
    if u == v:
        with pytest.raises(PreconditionFailed):
            edge(u, v)
        return
    e = edge(u, v)
    assert e.u < e.v
    assert edge(e.u, e.v) == e
    assert edge(v, u) == e


def test_min_degree_examples():
    assert min_degree(SimpleGraph.complete(6)) == 5
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert min_degree(c6) == 2
    assert min_degree(SimpleGraph(1)) == 0


def _assert_graph_is(g, n, pairs):
    """``g`` has exactly the edges ``pairs`` on ``n`` vertices, and equals
    the graph built from that edge list."""
    es = {edge(a, b) for a, b in pairs}
    assert g.n == n
    for v in range(n):
        nbrs = tuple(u for u in range(n) if u != v and edge(u, v) in es)
        assert g.neighbors(v) == nbrs
        assert g.degree(v) == len(nbrs)
        assert g.mask(v) == sum(1 << u for u in nbrs)
    want = SimpleGraph(n, sorted(es))
    assert g == want and hash(g) == hash(want)


@st.composite
def _graph_and_pairs(draw):
    n = draw(st.integers(1, 14))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=30 * (n > 1))
    keep = draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    joined = draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    return n, draw(pairs), draw(pairs), keep, joined


@settings(max_examples=150, deadline=None)
@given(_graph_and_pairs())
def test_rows_built_graphs_match_edge_list_graphs(case):
    n, base, extra, keep, joined = case
    g = SimpleGraph(n, base)
    _assert_graph_is(g, n, base)
    _assert_graph_is(g.with_edges(extra), n, base + extra)
    _assert_graph_is(
        g.add_vertex_with_neighbors(joined), n + 1, base + [(x, n) for x in joined]
    )
    for e in {edge(a, b) for a, b in base}:
        rest = [p for p in base if edge(*p) != e]
        _assert_graph_is(g.without_edge(e), n, rest)
    if not keep:
        with pytest.raises(PreconditionFailed):
            g.induced(keep)
        return
    sub, old = g.induced(keep)
    assert old == sorted(set(keep))
    pos = {o: i for i, o in enumerate(old)}
    kept = [(pos[a], pos[b]) for a, b in base if a in pos and b in pos]
    _assert_graph_is(sub, len(old), kept)


def test_reprs_name_size_and_palette():
    assert repr(SimpleGraph.complete(4)) == "SimpleGraph(n=4, m=6)"
    assert repr(mono_coloring(5, r=3)) == "EdgeColoring(n=5, r=3)"


def test_rows_built_graphs_reject_loops_and_out_of_range():
    g = SimpleGraph(5, [(0, 1)])
    for bad in [(2, 2), (0, 5), (7, 1), (-1, 3)]:
        with pytest.raises(PreconditionFailed):
            g.with_edges([(1, 2), bad])
        with pytest.raises(PreconditionFailed):
            SimpleGraph(5, [bad])
    for bad in [5, 6, -1]:
        with pytest.raises(PreconditionFailed):
            g.add_vertex_with_neighbors([0, bad])


def test_color_rows_agree_with_color():
    rng = random.Random(4)
    for r in range(1, 5):
        for seed in range(6):
            n = rng.randrange(2, 16)
            if seed % 3 == 0:
                g = SimpleGraph.complete(n)
            else:
                g = random_min_degree_graph(n, rng.randrange(n), seed)
            assignment = {e: rng.randint(1, r) for e in g.edges()}
            chi = EdgeColoring(g, r, assignment)
            assert list(chi.items()) == sorted(assignment.items())
            for (u, v), c in assignment.items():
                assert chi.color(u, v) == chi.color(v, u) == c
            # non-edges, u == v included, then negative and out-of-range ids
            off = [(u, v) for u in range(n) for v in range(n) if not g.adjacent(u, v)]
            for u, v in off + [(-1, 1), (0, -1), (0, n), (n, 0), (n, n + 1)]:
                with pytest.raises(PreconditionFailed):
                    chi.color(u, v)
            with pytest.raises(PreconditionFailed):
                parity_census(chi, [(-1, 2)])
            rows = [chi.color_rows(c) for c in range(1, r + 1)]
            for u in range(n):
                assert sum(rows[c][u] for c in range(r)) == g.mask(u)
                for v in range(n):
                    for c in range(1, r + 1):
                        bit = rows[c - 1][u] >> v & 1
                        assert bit == (g.adjacent(u, v) and chi.color(u, v) == c)
            for c in (0, r + 1):
                with pytest.raises(PreconditionFailed):
                    chi.color_rows(c)


def test_census_paired_colors_even():
    chi = coloring_with(4, 2, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})
    cycle = CycleOrPath((0, 1, 2, 3), closed=True)
    census = parity_census(chi, cycle.edges())
    assert census.counts == {1: 2, 2: 2}
    assert census.is_even_chromatic()
    assert not census.has_unique_color()


def test_census_odd_and_unique():
    chi = coloring_with(4, 2, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 2})
    census = parity_census(chi, CycleOrPath((0, 1, 2, 3), closed=True).edges())
    assert census.odd_colors == {1, 2}
    assert census.unique_colors == {2}


def test_census_empty_edge_set():
    chi = mono_coloring(5)
    census = parity_census(chi, [])
    assert census.counts == {}
    assert census.is_even_chromatic()
    assert census.count(1) == 0


def test_census_rejects_foreign_edge():
    c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    chi = EdgeColoring(c4, 1, {e: 1 for e in c4.edges()})
    with pytest.raises(PreconditionFailed):
        parity_census(chi, [Edge(0, 2)])


def test_symmetric_difference_identity_and_k4():
    c1 = CycleOrPath((0, 1, 2, 3), closed=True)
    assert symmetric_difference(c1, c1) == set()
    c2 = CycleOrPath((0, 2, 1, 3), closed=True)
    assert symmetric_difference(c1, c2) == {
        edge(0, 1), edge(2, 3), edge(0, 2), edge(1, 3)
    }


def test_symmetric_difference_rejects_mismatch():
    c1 = CycleOrPath((0, 1, 2, 3), closed=True)
    c2 = CycleOrPath((0, 1, 2, 4), closed=True)
    with pytest.raises(PreconditionFailed):
        symmetric_difference(c1, c2)
    with pytest.raises(PreconditionFailed):
        symmetric_difference(c1, CycleOrPath((0, 1, 2, 3)))


def test_parity_xor_identity_over_random_cycle_pairs():
    # odd(C1) xor odd(C2) equals odd(symmetric difference), over seeded
    # random Hamilton cycle pairs of K_n.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(4, 11)
        chi = coloring_with(
            n,
            3,
            {},
        )
        host = chi.host
        assignment = {e: rng.randrange(1, 4) for e in host.edges()}
        chi = EdgeColoring(host, 3, assignment)
        perm1 = list(range(n))
        perm2 = list(range(n))
        rng.shuffle(perm1)
        rng.shuffle(perm2)
        c1 = CycleOrPath(tuple(perm1), closed=True)
        c2 = CycleOrPath(tuple(perm2), closed=True)
        diff = symmetric_difference(c1, c2)
        lhs = (
            parity_census(chi, c1.edges()).odd_colors
            ^ parity_census(chi, c2.edges()).odd_colors
        )
        assert lhs == parity_census(chi, diff).odd_colors


@given(st.integers(0, 2**32), st.integers(5, 9))
def test_census_additive_on_disjoint_edge_sets(seed, n):
    rng = random.Random(seed)
    host = SimpleGraph.complete(n)
    chi = EdgeColoring(host, 3, {e: rng.randrange(1, 4) for e in host.edges()})
    es = list(host.edges())
    rng.shuffle(es)
    cut = rng.randrange(len(es))
    a, b = es[:cut], es[cut:]
    combined = parity_census(chi, a) + parity_census(chi, b)
    assert combined.counts == parity_census(chi, es).counts


def test_cycle_or_path_contracts():
    with pytest.raises(PreconditionFailed):
        CycleOrPath((0, 1, 0))
    with pytest.raises(PreconditionFailed):
        CycleOrPath((0, 1), closed=True)
    p = CycleOrPath((3, 1, 2))
    assert p.endpoints == (3, 2)
    assert p.reversed().vertices == (2, 1, 3)
    cyc = CycleOrPath((2, 0, 1, 3), closed=True)
    assert cyc.canonical() == CycleOrPath((0, 1, 3, 2), closed=True).canonical()
    with pytest.raises(PreconditionFailed):
        cyc.endpoints


def test_canonical_is_least_rotation_or_reflection():
    rng = random.Random(17)
    for k in range(3, 13):
        for _ in range(30):
            vs = tuple(rng.sample(range(2 * k), k))
            brute = min(
                tuple(vs[(i + step * j) % k] for j in range(k))
                for i in range(k)
                for step in (1, -1)
            )
            assert CycleOrPath(vs, closed=True).canonical() == brute


def test_instance_round_trip():
    chi = coloring_with(5, 3, {(0, 1): 2, (2, 4): 3})
    text = instance_to_json(chi)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.color(0, 1) == 2 and back.color(2, 4) == 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj["edges"].append(dict(obj["edges"][0])),  # duplicate
        lambda obj: obj["edges"].__setitem__(0, {"u": 1, "v": 1, "c": 1}),
        lambda obj: obj["edges"].__setitem__(0, {"u": 2, "v": 1, "c": 1}),  # u >= v
        lambda obj: obj["edges"].__setitem__(0, {"u": 0, "v": 1, "c": 9}),
        lambda obj: obj.pop("n"),
    ],
)
def test_instance_parsing_rejections(mutate):
    chi = mono_coloring(4)
    obj = json.loads(instance_to_json(chi))
    mutate(obj)
    with pytest.raises(PreconditionFailed):
        instance_from_json(json.dumps(obj))


@settings(max_examples=250, deadline=None)
@given(instance_like())
def test_instance_parser_accepts_or_raises_precondition(obj):
    # The parse boundary: no JSON document escapes as another exception.
    try:
        chi = instance_from_obj(obj)
    except PreconditionFailed:
        return
    listed = sorted(obj["edges"], key=lambda rec: (rec["u"], rec["v"]))
    assert instance_to_obj(chi) == {**obj, "edges": listed}


def test_instance_rejects_invalid_json():
    with pytest.raises(PreconditionFailed):
        instance_from_json("{not json")


def test_incomplete_coloring_rejected():
    host = SimpleGraph.complete(4)
    assignment = {e: 1 for e in host.edges()}
    assignment.popitem()
    with pytest.raises(PreconditionFailed):
        EdgeColoring(host, 1, assignment)


def test_colors_present_matches_items():
    rng = random.Random(9)
    for seed in range(8):
        n = rng.randrange(2, 14)
        g = random_min_degree_graph(n, rng.randrange(n), seed)
        r = rng.randrange(1, 6)
        chi = EdgeColoring(g, r, {e: rng.randint(1, r) for e in g.edges()})
        assert chi.colors_present() == {c for _, c in chi.items()}
