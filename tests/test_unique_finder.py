import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oddramsey.colored_graph import EdgeColoring, SimpleGraph, edge
from oddramsey.constructions import random_coloring
from oddramsey.errors import InternalContradiction, PreconditionFailed
from oddramsey.unique_finder import (
    Claw,
    ColorLedger,
    PreservedCollection,
    _arc_through_edge,
    _endpoint_index,
    _iter_attachments,
    _merge_at,
    find_unique_free_hamilton,
    harvest_cherries_matchings,
    max_claw_collection,
    merge_cherries,
    merge_endpoints,
    resolve_dangerous,
    special_case_single_unused,
)

from conftest import coloring_with, mono_coloring


def proper_coloring_k(n: int, r: int) -> EdgeColoring:
    """Round-robin 1-factorization of K_n folded onto r colors."""
    host = SimpleGraph.complete(n)
    assignment = {}
    for e in host.edges():
        if e.v == n - 1:
            cls = (2 * e.u) % (n - 1)
        else:
            cls = (e.u + e.v) % (n - 1)
        assignment[e] = 1 + cls % r
    return EdgeColoring(host, r, assignment)


def test_claw_collection_empty_on_proper_coloring():
    chi = proper_coloring_k(8, 7)  # every color is a perfect matching
    coll = max_claw_collection(chi)
    assert coll.claws == []
    assert coll.remaining == set(range(8))


def test_claw_collection_star_center():
    chi = coloring_with(8, 2, {(0, v): 2 for v in range(1, 8)})
    ledger = ColorLedger.fresh(2)
    coll = max_claw_collection(chi, ledger)
    assert any(c.center == 0 and c.color == 2 for c in coll.claws)


def test_claw_collection_monochromatic():
    chi = mono_coloring(16)
    ledger = ColorLedger.fresh(1)
    coll = max_claw_collection(chi, ledger)
    assert len(coll.claws) >= 1
    assert not ledger.unused  # the single color is freed


def test_resolve_dangerous_fixpoint_is_noop():
    chi = mono_coloring(8)
    ledger = ColorLedger.fresh(1)
    coll = max_claw_collection(chi, ledger)
    before = list(coll.claws)
    coll = resolve_dangerous(chi, coll, ledger)
    assert coll.claws == before and coll.paths == []


def test_resolve_dangerous_single_exchange():
    # claw {0;1,2,3} in color 1; leaf 1 centers a color-2 claw into R
    n = 12
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(1, v): 2 for v in (8, 9, 10)})
    chi = coloring_with(n, 3, overrides, base=3)
    ledger = ColorLedger.fresh(3)
    coll = max_claw_collection(chi, ledger)
    s_before = len(coll.claws)
    assert 2 in ledger.unused
    coll = resolve_dangerous(chi, coll, ledger)
    assert len(coll.claws) == s_before  # exchange preserves the size
    assert 2 not in ledger.unused  # witness color freed
    assert any(c.center == 1 and c.color == 2 for c in coll.claws)
    # the displaced claw's remains retire as a cherry through its center
    assert [2, 0, 3] in coll.paths or [3, 0, 2] in coll.paths


def test_resolve_dangerous_double_witness_restarts():
    # two leaves of the first greedy claw center disjoint unused claws:
    # the maximality exchange must enlarge the family, not fail
    n = 16
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(1, v): 2 for v in (8, 9, 10)})
    overrides.update({(2, v): 3 for v in (11, 12, 13)})
    chi = coloring_with(n, 4, overrides, base=4)
    ledger = ColorLedger.fresh(4)
    coll = max_claw_collection(chi, ledger)
    coll = resolve_dangerous(chi, coll, ledger)
    assert any(ev["event"] == "restart" for ev in ledger.history)
    centers = {c.center for c in coll.claws}
    assert {1, 2} <= centers
    res = find_unique_free_hamilton(chi)
    assert not res.census.unique_colors


def test_harvest_prefers_cherry_and_falls_back_to_matching():
    # color 2 has a cherry centered at 8; color 3 only a 2-matching
    n = 16
    overrides = {(8, 9): 2, (8, 10): 2, (11, 12): 3, (13, 14): 3}
    overrides.update({(0, v): 1 for v in (1, 2, 3)})
    chi = coloring_with(n, 4, overrides, base=4)
    ledger = ColorLedger.fresh(4)
    coll = max_claw_collection(chi, ledger)
    coll = resolve_dangerous(chi, coll, ledger)
    assert {2, 3} <= ledger.unused
    coll = harvest_cherries_matchings(chi, coll, ledger)
    assert {2, 3} & ledger.unused == set()
    reasons = {
        ev["color"]: ev["reason"]
        for ev in ledger.history
        if ev["event"] == "free-color"
    }
    assert reasons[2] == "cherry"
    assert reasons[3] == "2-matching"
    # step-2 exit: each still-unused color spans at most one edge inside R
    for c in ledger.unused:
        inside = [
            (u, v)
            for u in coll.remaining
            for v in coll.remaining
            if u < v and chi.color(u, v) == c
        ]
        assert len(inside) <= 1
    assert len(coll.remaining) >= 4 * len(ledger.unused)


def test_harvest_splits_claws_and_installs_twins():
    chi = mono_coloring(8)
    ledger = ColorLedger.fresh(1)
    coll = max_claw_collection(chi, ledger)
    coll = resolve_dangerous(chi, coll, ledger)
    s = len(coll.claws)
    coll = harvest_cherries_matchings(chi, coll, ledger)
    assert coll.claws == []
    assert len(coll.virtual_real) == s
    twins = set(coll.virtual_real)
    assert twins == {8 + j for j in range(s)}
    assert all(len(p) >= 2 for p in coll.paths)
    assert all(c in ledger.free for c in coll.gadget_colors.values())


def _hand_state(n, r, paths, remaining, unused):
    ledger = ColorLedger.fresh(r)
    for c in sorted(set(range(1, r + 1)) - set(unused)):
        ledger.free_color(c, "test-setup")
    coll = PreservedCollection(n=n, paths=[list(p) for p in paths],
                               remaining=set(remaining))
    return coll, ledger


def _distinct_cross_coloring(n, paths, designated, base_internal=1):
    """Coloring for endpoint-merge scenarios: path-internal edges share
    color 1 (kept free, >= 2 occurrences), designated endpoint pairs get
    the stated colors, all other edges pairwise-distinct high colors so no
    accidental rule can fire."""
    host = SimpleGraph.complete(n)
    internal = set()
    for p in paths:
        for x, y in zip(p, p[1:]):
            internal.add(edge(x, y))
    assignment = {}
    next_color = 100
    for e in host.edges():
        if e in internal:
            assignment[e] = base_internal
        elif (e.u, e.v) in designated:
            assignment[e] = designated[(e.u, e.v)]
        else:
            assignment[e] = next_color
            next_color += 1
    return EdgeColoring(host, next_color, assignment)


def test_merge_endpoints_free_edge_rule():
    paths = [[0, 1], [2, 3]]
    chi = _distinct_cross_coloring(12, paths, {(1, 2): 1})
    coll, ledger = _hand_state(12, chi.r, paths, range(4, 12), set(range(2, chi.r + 1)))
    coll = merge_endpoints(chi, coll, ledger)
    assert len(coll.paths) == 1
    assert coll.paths[0] in ([0, 1, 2, 3], [3, 2, 1, 0])


def test_merge_endpoints_paired_unused_rule_four_paths():
    paths = [[0, 1], [2, 3], [4, 5], [6, 7]]
    chi = _distinct_cross_coloring(16, paths, {(1, 2): 2, (5, 6): 2})
    coll, ledger = _hand_state(16, chi.r, paths, range(8, 16), set(range(2, chi.r + 1)))
    coll = merge_endpoints(chi, coll, ledger)
    assert len(coll.paths) == 2
    assert 2 not in ledger.unused  # the doubled color was freed


def test_merge_endpoints_three_path_chain():
    # the two same-colored edges share the middle path [2,3]
    paths = [[0, 1], [2, 3], [4, 5]]
    chi = _distinct_cross_coloring(16, paths, {(1, 2): 2, (3, 4): 2})
    coll, ledger = _hand_state(16, chi.r, paths, range(6, 16), set(range(2, chi.r + 1)))
    coll = merge_endpoints(chi, coll, ledger)
    assert len(coll.paths) == 1
    assert 2 not in ledger.unused
    assert coll.paths[0] in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0])


def test_merge_endpoints_blocks_cycle_closure():
    # both same-colored edges join the same two paths: merging would close
    # a cycle, so the pair is skipped
    paths = [[0, 1], [2, 3]]
    chi = _distinct_cross_coloring(12, paths, {(1, 2): 2, (0, 3): 2})
    coll, ledger = _hand_state(12, chi.r, paths, range(4, 12), set(range(2, chi.r + 1)))
    coll = merge_endpoints(chi, coll, ledger)
    assert len(coll.paths) == 2
    assert 2 in ledger.unused


def _reference_merge_fixpoint(chi, coll, ledger):
    """The endpoint-merge fixpoint as it was before the single pass: every
    rule (i) merge relists all cross pairs and takes the first free one."""
    col = coll.color_fn(chi)

    def cross_pairs():
        idx = _endpoint_index(coll)
        eps = sorted(idx)
        return [
            (w1, w2)
            for a, w1 in enumerate(eps)
            for w2 in eps[a + 1 :]
            if idx[w1] != idx[w2]
        ]

    def rule_i():
        for w1, w2 in cross_pairs():
            if col(w1, w2) in ledger.free:
                _merge_at(coll, w1, w2)
                ledger.note("endpoint-merge", at=[w1, w2], color=col(w1, w2))
                return True
        return False

    def rule_ii():
        pairs = cross_pairs()
        idx = _endpoint_index(coll)
        for a, e1 in enumerate(pairs):
            c = col(*e1)
            if c not in ledger.unused:
                continue
            for e2 in pairs[a + 1 :]:
                if col(*e2) != c or set(e1) & set(e2):
                    continue
                spanned = {idx[w] for w in e1} | {idx[w] for w in e2}
                if len(spanned) < 3:
                    continue
                _merge_at(coll, *e1)
                _merge_at(coll, *e2)
                ledger.free_color(c, "endpoint-pair", edges=[list(e1), list(e2)])
                return True
        return False

    progressed = True
    while progressed:
        while rule_i():
            pass
        progressed = rule_ii()


def _assert_merge_matches_reference(chi, coll, ledger):
    """merge_endpoints and the reference fixpoint leave the same paths,
    ledger history and color sets; returns the merge_endpoints history."""
    ref_coll, ref_ledger = copy.deepcopy((coll, ledger))
    _reference_merge_fixpoint(chi, ref_coll, ref_ledger)
    try:
        merge_endpoints(chi, coll, ledger)
    except InternalContradiction as exc:
        # Only the unchanged postconditions may object; the merges before
        # them must still agree.
        assert "merge would close" not in str(exc)
    assert coll.paths == ref_coll.paths
    assert ledger.history == ref_ledger.history
    assert (ledger.unused, ledger.free) == (ref_ledger.unused, ref_ledger.free)
    return ledger.history


def _merge_events(history):
    return [
        ev["at"] if ev["event"] == "endpoint-merge" else ev["edges"]
        for ev in history
        if ev["event"] == "endpoint-merge" or ev.get("reason") == "endpoint-pair"
    ]


def test_merge_pass_skips_pairs_a_merge_invalidated():
    # (0,3) merges first; then (1,2) joins one path and 3 is interior, so
    # (1,2) and (3,4) must be skipped before (5,6) merges.
    paths = [[0, 1], [2, 3], [4, 5], [6, 7]]
    chi = _distinct_cross_coloring(
        16, paths, {(0, 3): 1, (1, 2): 1, (3, 4): 1, (5, 6): 1}
    )
    coll, ledger = _hand_state(16, chi.r, paths, range(8, 16), set(range(2, chi.r + 1)))
    history = _assert_merge_matches_reference(chi, coll, ledger)
    assert _merge_events(history) == [[0, 3], [5, 6]]


def test_merge_rule_ii_then_rule_i_through_the_freed_color():
    # Three unused color-2 pairs on six paths: rule (ii) merges the first
    # two and frees color 2, and only a fresh pass merges the third.
    paths = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]
    chi = _distinct_cross_coloring(24, paths, {(1, 2): 2, (5, 6): 2, (9, 10): 2})
    coll, ledger = _hand_state(24, chi.r, paths, range(12, 24), set(range(2, chi.r + 1)))
    history = _assert_merge_matches_reference(chi, coll, ledger)
    assert _merge_events(history) == [[[1, 2], [5, 6]], [9, 10]]
    assert len(coll.paths) == 3 and 2 in ledger.free


def test_merge_with_a_virtual_twin_endpoint():
    # Twin 16 stands for vertex 0 and proxies its colors.  Rule (i) merges
    # (0,2), which leaves the twin as an endpoint; rule (ii) then pairs
    # (5,10) with (9,16), whose color is that of the real edge (0,9).
    paths = [[0, 16], [2, 3], [4, 5], [8, 9], [10, 11]]
    chi = _distinct_cross_coloring(
        16, paths[1:], {(0, 2): 1, (0, 9): 2, (5, 10): 2}
    )
    coll, ledger = _hand_state(16, chi.r, paths, range(12, 16), set(range(2, chi.r + 1)))
    coll.virtual_real[16] = 0
    coll.gadget_colors[16] = 1
    history = _assert_merge_matches_reference(chi, coll, ledger)
    assert _merge_events(history) == [[0, 2], [[5, 10], [9, 16]]]


def test_merge_endpoints_matches_reference_on_pipeline_states():
    rng = random.Random(12)
    for trial in range(40):
        n = rng.randrange(8, 61)
        chi = random_coloring(n, rng.randrange(1, max(2, n // 3)), trial)
        ledger = ColorLedger.fresh(chi.r)
        try:
            coll = resolve_dangerous(chi, max_claw_collection(chi, ledger), ledger)
            coll = harvest_cherries_matchings(chi, coll, ledger)
        except InternalContradiction:
            continue  # best-effort palettes may fail before merging
        _assert_merge_matches_reference(chi, coll, ledger)


def test_merge_cherries_tracks_centers():
    # three paths, free color everywhere in R: merges via cherry centers
    chi = coloring_with(18, 2, {}, base=1)
    # color 1 free, color 2 unused-but-absent
    coll, ledger = _hand_state(
        18, 2, [[0, 1], [2, 3], [4, 5]], range(6, 18), {2}
    )
    start = len(coll.paths)
    coll = merge_cherries(chi, coll, ledger)
    assert len(coll.paths) == 2
    assert len(coll.cherry_centers) == start - 2
    assert coll.cherry_centers <= set(range(6, 18))


def test_merge_cherries_joins_the_far_end_of_the_second_path():
    # vertex 2 sees R only in the unused color 2, so the first cherry joins
    # w1 = 0 (path [0, 1] turned to end there) to the tail w2 = 3 of
    # [2, 3], which is turned to start at 3
    chi = coloring_with(18, 2, {(2, z): 2 for z in range(6, 18)}, base=1)
    coll, ledger = _hand_state(
        18, 2, [[0, 1], [2, 3], [4, 5]], range(6, 18), {2}
    )
    coll = merge_cherries(chi, coll, ledger)
    assert coll.paths == [[1, 0, 6, 3, 2], [4, 5]]
    assert coll.cherry_centers == {6}


def _colors_from(table):
    return lambda w, z: table.get((w, z), 2)


def test_iter_attachments_backtracks_in_lexicographic_order():
    # endpoint 0 may take 4 or 5 and endpoint 1 only 4: the first choice
    # 0->4 dead-ends and the search backtracks to 0->5, 1->4
    col = _colors_from({(0, 4): 1, (0, 5): 1, (1, 4): 1})
    got = list(_iter_attachments(col, [0, 1], [4, 5, 6], lambda c: c == 1))
    assert got == [[5, 4]]
    # against a filtered scan of all injective assignments, which
    # itertools lists in the same lexicographic order
    rng = random.Random(3)
    for _ in range(40):
        ws, pool = [0, 1, 2], [3, 4, 5, 6, 7]
        table = {(w, z): rng.choice((1, 1, 2)) for w in ws for z in pool}
        col = _colors_from(table)
        want = [
            list(zs)
            for zs in itertools.permutations(pool, len(ws))
            if all(col(w, z) == 1 for w, z in zip(ws, zs))
        ]
        assert list(_iter_attachments(col, ws, pool, lambda c: c == 1)) == want


def test_arc_through_edge_every_placement():
    pool = list(range(7))
    hot = (2, 3)
    for z_tail, z_head in [(2, 6), (3, 6), (0, 2), (0, 3), (0, 6), (6, 0)]:
        arc = _arc_through_edge(pool, z_tail, z_head, hot)
        assert sorted(arc) == pool, (z_tail, z_head)
        assert (arc[0], arc[-1]) == (z_tail, z_head)
        steps = {edge(x, y) for x, y in zip(arc, arc[1:])}
        assert edge(*hot) in steps, (z_tail, z_head)
    # both ends on the hot edge: no longer path can traverse it
    assert _arc_through_edge(pool, 2, 3, hot) is None
    assert _arc_through_edge(pool, 3, 2, hot) is None


def test_special_case_hot_edge_turns_the_second_path():
    # the hot edge 0-4 starts the closing at f1 = [0, 1]; its end 1 meets
    # f2 = [2, 3] in the unused color only at 3, so f2 is turned around
    chi = coloring_with(8, 2, {(0, 4): 2, (1, 3): 2}, base=1)
    coll, ledger = _hand_state(8, 2, [[0, 1], [2, 3]], range(4, 8), {2})
    seq = special_case_single_unused(chi, coll, ledger)
    assert seq == [4, 0, 1, 3, 2, 5, 6, 7]
    from oddramsey.colored_graph import CycleOrPath, cycle_census

    census = cycle_census(chi, CycleOrPath(tuple(seq), closed=True))
    assert census.count(2) == 2


def test_special_case_two_paths_hot_edge():
    # |U| = 1 with every cross-endpoint edge in the unused color and a hot
    # edge into R: the closing uses the color twice
    overrides = {}
    for w1 in (0, 1):
        for w2 in (2, 3):
            overrides[(w1, w2)] = 2
    overrides[(0, 4)] = 2  # hot edge into R
    chi = coloring_with(12, 2, overrides, base=1)
    coll, ledger = _hand_state(
        12, 2, [[0, 1], [2, 3]], range(4, 12), {2}
    )
    seq = special_case_single_unused(chi, coll, ledger)
    assert sorted(seq) == list(range(12))
    from oddramsey.colored_graph import CycleOrPath, cycle_census

    census = cycle_census(chi, CycleOrPath(tuple(seq), closed=True))
    assert census.count(2) != 1


def test_special_case_two_paths_all_free():
    overrides = {}
    for w1 in (0, 1):
        for w2 in (2, 3):
            overrides[(w1, w2)] = 2
    chi = coloring_with(12, 2, overrides, base=1)
    coll, ledger = _hand_state(
        12, 2, [[0, 1], [2, 3]], range(4, 12), {2}
    )
    seq = special_case_single_unused(chi, coll, ledger)
    assert sorted(seq) == list(range(12))
    from oddramsey.colored_graph import CycleOrPath, cycle_census

    census = cycle_census(chi, CycleOrPath(tuple(seq), closed=True))
    assert census.count(2) != 1


def test_pipeline_two_paths_closing():
    # two surviving paths with two unused colors: the contracted-standin
    # closing runs
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(1, 2): 2, (1, 3): 3})
    chi = coloring_with(12, 3, overrides, base=1)
    res = find_unique_free_hamilton(chi)
    modes = [ev["mode"] for ev in res.ledger.history if ev["event"] == "close"]
    assert modes == ["two-paths"]
    assert not res.census.unique_colors


def test_pipeline_single_unused_two_arc_closing():
    # one unused color, two surviving paths, no hot attachments: the
    # two-disjoint-arcs cover closes the cycle
    chi = coloring_with(8, 2, {(1, 2): 2, (1, 3): 2}, base=1)
    res = find_unique_free_hamilton(chi)
    modes = [ev["mode"] for ev in res.ledger.history if ev["event"] == "close"]
    assert modes == ["single-unused-two-arcs"]
    assert not res.census.unique_colors


def test_pipeline_single_path_closing():
    # one surviving path, two unused colors confined to single pool edges
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(8, 9): 2, (10, 11): 3})
    chi = coloring_with(12, 3, overrides, base=1)
    res = find_unique_free_hamilton(chi)
    modes = [ev["mode"] for ev in res.ledger.history if ev["event"] == "close"]
    assert modes == ["single-path"]
    assert not res.census.unique_colors


def test_pipeline_monochromatic():
    res = find_unique_free_hamilton(mono_coloring(8))
    assert res.census.counts == {1: 8}
    assert res.cycle.is_hamilton(8)


def test_pipeline_rejects_oversized_palette():
    chi = proper_coloring_k(8, 7)
    with pytest.raises(PreconditionFailed):
        find_unique_free_hamilton(chi)


def test_pipeline_best_effort_runs_beyond_bound():
    # palette declared larger than n/4; the absent colors are freed at
    # the harvest stage and the run succeeds
    chi = coloring_with(8, 3, {}, base=1)
    with pytest.raises(PreconditionFailed):
        find_unique_free_hamilton(chi)
    res = find_unique_free_hamilton(chi, best_effort=True)
    assert not res.census.unique_colors
    reasons = {
        ev["color"]: ev["reason"]
        for ev in res.ledger.history
        if ev["event"] == "free-color"
    }
    assert reasons[2] == "absent" and reasons[3] == "absent"


def test_pipeline_proper_derived_adversarial():
    res = find_unique_free_hamilton(proper_coloring_k(12, 3))
    assert not res.census.unique_colors
    assert res.cycle.is_hamilton(12)


def test_pipeline_boundary_one_off_color_edge():
    for pos in [(0, 1), (4, 5), (6, 7)]:
        chi = coloring_with(8, 2, {pos: 2})
        res = find_unique_free_hamilton(chi)
        assert not res.census.unique_colors


def test_ledger_events_are_auditable():
    res = find_unique_free_hamilton(random_coloring(12, 3, 5))
    freed = [ev for ev in res.ledger.history if ev["event"] == "free-color"]
    # every freed color appears once per epoch and carries a reason
    assert all("reason" in ev for ev in freed)
    assert not res.ledger.unused or res.ledger.unused <= set(range(1, 4))
    assert res.ledger.free | res.ledger.unused == set(range(1, 4))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(8, 14),
    st.integers(0, 10**6),
)
def test_pipeline_postcondition_property(n, seed):
    r = max(1, n // 4)
    res = find_unique_free_hamilton(random_coloring(n, r, seed))
    assert res.cycle.is_hamilton(n)
    assert not res.census.unique_colors
    counts = res.census.counts
    assert all(k != 1 for k in counts.values())


def test_virtual_expansion_census_preserved():
    # gadget colors are phantom: the final census never exposes them with
    # count one even when a twin sits at a stitching seam
    rng = random.Random(0)
    for seed in range(80):
        chi = random_coloring(rng.randrange(8, 15), 2, seed)
        res = find_unique_free_hamilton(chi)
        assert set(res.cycle.vertices) == set(range(chi.host.n))
