import collections
import copy
import itertools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oddramsey import unique_finder
from oddramsey.colored_graph import EdgeColoring, SimpleGraph, edge
from oddramsey.constructions import (
    random_coloring,
    random_edge_coloring,
    random_min_degree_graph,
)
from oddramsey.errors import (
    InternalContradiction,
    NotFoundError,
    OddRamseyError,
    PreconditionFailed,
)
from oddramsey.hamilton import dirac_hamilton_cycle, hamilton_path_between
from oddramsey.unique_finder import (
    Claw,
    ColorLedger,
    PreservedCollection,
    _arc_through_edge,
    _dangerous_witness,
    _endpoint_index,
    _exchange_pass,
    _greedy_claws,
    _iter_attachments,
    _merge_at,
    close_cycle,
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


def _reference_dangerous_witness(chi, v, remaining, unused):
    """The witness scan as it was before the bucket pass: one scan of the
    pool per unused color, in increasing color order."""
    pool = sorted(remaining - {v})
    for c in sorted(unused):
        leaves = [z for z in pool if chi.color(v, z) == c]
        if len(leaves) >= 3:
            return Claw(v, tuple(leaves[:3]), c)
    return None


def _reference_greedy_claws(chi, seed, ledger):
    """The greedy extension as it was before the bucket pass: one scan of
    ``range(n)`` per unused color at every center."""
    n = chi.host.n
    used = set()
    for claw in seed:
        used |= claw.vertices()
    claws = list(seed)
    for x0 in range(n):
        if x0 in used:
            continue
        for c in sorted(ledger.unused):
            leaves = [
                v
                for v in range(n)
                if v != x0 and v not in used and chi.color(x0, v) == c
            ][:3]
            if len(leaves) == 3:
                claw = Claw(x0, tuple(leaves), c)
                claws.append(claw)
                used |= claw.vertices()
                ledger.free_color(c, "claw", center=x0, leaves=leaves)
                break
    coll = PreservedCollection(n=n, claws=claws, remaining=set(range(n)) - used)
    for v in sorted(coll.remaining):
        if _reference_dangerous_witness(chi, v, coll.remaining, ledger.unused):
            raise InternalContradiction(
                f"greedy certificate failed: vertex {v} is dangerous inside R"
            )
    return coll


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InternalContradiction, PreconditionFailed) as exc:
        return type(exc), str(exc)


def _assert_witness_matches_reference(chi, v, remaining, unused):
    want = _outcome(_reference_dangerous_witness, chi, v, remaining, unused)
    assert _outcome(_dangerous_witness, chi, v, remaining, unused) == want
    return want


def _assert_greedy_matches_reference(chi, seed, ledger):
    ref_ledger = copy.deepcopy(ledger)
    want = _outcome(_reference_greedy_claws, chi, seed, ref_ledger)
    got = _outcome(_greedy_claws, chi, seed, ledger)
    if isinstance(want, PreservedCollection):
        assert (got.claws, got.remaining) == (want.claws, want.remaining)
    else:
        assert got == want
    assert ledger.history == ref_ledger.history
    assert ledger.unused == ref_ledger.unused
    return got


def test_claw_scans_match_reference_on_random_colorings():
    rng = random.Random(17)
    hosts = [random_coloring(n, r, seed) for seed, (n, r) in enumerate(
        [(8, 1), (9, 2), (12, 3), (16, 2), (20, 5), (25, 3), (33, 8), (40, 10)]
    )]
    # incomplete hosts: the scans must reject a non-edge as chi.color does
    hosts += [
        random_edge_coloring(random_min_degree_graph(n, n - 3, n), 3, n)
        for n in (9, 14)
    ]
    for chi in hosts:
        n, r = chi.host.n, chi.r
        for _ in range(30):
            remaining = {z for z in range(n) if rng.random() < 0.7}
            unused = {c for c in range(1, r + 1) if rng.random() < 0.6}
            _assert_witness_matches_reference(
                chi, rng.randrange(n), remaining, unused
            )
        _assert_greedy_matches_reference(chi, [], ColorLedger.fresh(r))


def test_claw_scans_match_reference_on_the_restart_seed():
    # the state of test_resolve_dangerous_double_witness_restarts at the
    # moment the enlarged seed is handed back to the greedy extension
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(1, v): 2 for v in (8, 9, 10)})
    overrides.update({(2, v): 3 for v in (11, 12, 13)})
    chi = coloring_with(16, 4, overrides, base=4)
    ledger = ColorLedger.fresh(4)
    coll = max_claw_collection(chi, ledger)
    seed = _exchange_pass(chi, coll, ledger)
    assert seed is not None
    ledger.reset_epoch({cl.color for cl in seed}, "test restart")
    for v in range(16):
        _assert_witness_matches_reference(chi, v, coll.remaining, ledger.unused)
    coll = _assert_greedy_matches_reference(chi, seed, ledger)
    assert {cl.center for cl in coll.claws} >= {1, 2}


def test_claw_scans_on_planted_buckets():
    # Center 4: color 1 is free, color 3 fills its bucket first (5, 6, 7),
    # and color 2, the smallest unused one with three leaves, has four free
    # leaves 8..11 once the used vertices 0..3 are excluded.
    overrides = {(0, v): 1 for v in (1, 2, 3)}
    overrides.update({(4, v): 1 for v in (12, 13, 14)})
    overrides.update({(4, v): 3 for v in (5, 6, 7)})
    overrides.update({(4, v): 2 for v in (1, 2, 8, 9, 10, 11)})
    chi = coloring_with(16, 5, overrides, base=5)
    seed = [Claw(0, (1, 2, 3), 1)]
    ledger = ColorLedger.fresh(5)
    ledger.reset_epoch({1}, "test seed")
    coll = _assert_greedy_matches_reference(chi, seed, ledger)
    assert coll.claws[1] == Claw(4, (8, 9, 10), 2)
    remaining = set(range(4, 16))
    want = Claw(4, (8, 9, 10), 2)
    assert _assert_witness_matches_reference(chi, 4, remaining, {2, 3, 4}) == want
    # exactly three color-2 leaves left in the pool
    assert _assert_witness_matches_reference(
        chi, 4, remaining - {9}, {2, 3}
    ) == Claw(4, (8, 10, 11), 2)
    # one short: the larger color 3 answers
    assert _assert_witness_matches_reference(
        chi, 4, remaining - {9, 10}, {2, 3}
    ) == Claw(4, (5, 6, 7), 3)
    # exactly three free color-2 leaves once used is excluded: the claw
    # takes all of them
    overrides[(4, 11)] = 5
    chi = coloring_with(16, 5, overrides, base=5)
    ledger = ColorLedger.fresh(5)
    ledger.reset_epoch({1}, "test seed")
    coll = _assert_greedy_matches_reference(chi, seed, ledger)
    assert coll.claws[1] == Claw(4, (8, 9, 10), 2)


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


def _block_pair_coloring(n: int, b: int) -> EdgeColoring:
    """K_n cut into b blocks of consecutive vertices, one color per pair of
    blocks (a block paired with itself included)."""
    host = SimpleGraph.complete(n)
    pairs = [(i, j) for i in range(b) for j in range(i, b)]
    return EdgeColoring(host, len(pairs), {
        e: 1 + pairs.index((e.u * b // n, e.v * b // n)) for e in host.edges()
    })


def _sum_mod_coloring(n: int, r: int) -> EdgeColoring:
    host = SimpleGraph.complete(n)
    return EdgeColoring(host, r, {e: 1 + (e.u + e.v) % r for e in host.edges()})


def test_harvest_c_edges_without_a_cherry_are_disjoint():
    # The 2-matching is the first two c-edges inside R: with no cherry, no
    # vertex of R has two c-edges there, so those edges are pairwise
    # disjoint.  Replay the harvest from its ledger and check that at every
    # color it reached.  Palettes past n/4 leave many colors unused here.
    taken = collections.Counter()
    for n in (8, 16, 24, 40):
        cases = [random_coloring(n, r, s)
                 for r in (n // 4, n // 2, n, 2 * n) for s in range(2)]
        cases += [_sum_mod_coloring(n, r) for r in (n // 4, n // 2, n - 1, 2 * n - 1)]
        cases += [_block_pair_coloring(n, b) for b in (2, 3, 5)]
        for chi in cases:
            ledger = ColorLedger.fresh(chi.r)
            coll = resolve_dangerous(chi, max_claw_collection(chi, ledger), ledger)
            rem, start = set(coll.remaining), len(ledger.history)
            reached = sorted(ledger.unused & chi.colors_present())
            try:
                harvest_cherries_matchings(chi, coll, ledger)
            except InternalContradiction:
                pass  # a best-effort palette failed the counts after the loop
            events = {
                ev["color"]: ev for ev in ledger.history[start:]
                if ev["event"] == "free-color" and ev["reason"] != "absent"
            }
            for c in reached:
                ev = events.get(c, {"reason": "kept unused"})
                taken[ev["reason"]] += 1
                if ev["reason"] == "cherry":
                    rem -= set(ev["cherry"])
                    continue
                c_edges = [
                    [u, v] for u, v in combinations(sorted(rem), 2)
                    if chi.color(u, v) == c
                ]
                ends = [x for e in c_edges for x in e]
                assert len(ends) == len(set(ends)), (c, c_edges)
                if ev["reason"] == "2-matching":
                    assert ev["edges"] == c_edges[:2]
                    rem -= set(ends[:4])
                else:
                    assert len(c_edges) <= 1
    assert min(taken.values()) > 0 and len(taken) == 3, taken


def test_twins_sit_next_to_their_real_vertices_before_expansion(monkeypatch):
    # A twin's stub path [real, twin] only grows at its ends, so in the
    # closed sequence every twin is still next to its real vertex, also
    # where a merge joined two twins to each other.
    expand = unique_finder._expand_virtuals
    seen = collections.Counter()

    def checked(seq, coll):
        real = coll.virtual_real
        for i, v in enumerate(seq):
            if v in real:
                around = (seq[i - 1], seq[(i + 1) % len(seq)])
                assert real[v] in around, (seq, real)
                seen["twins"] += 1
                seen["merged"] += around[1] in real
        return expand(seq, coll)

    monkeypatch.setattr(unique_finder, "_expand_virtuals", checked)
    for n in (12, 16, 24, 40):
        cases = [random_coloring(n, r, s)
                 for r in range(1, n // 4 + 1) for s in range(2)]
        cases += [mono_coloring(n), _sum_mod_coloring(n, n // 4),
                  _block_pair_coloring(n, 2)]
        for chi in cases:
            find_unique_free_hamilton(chi)
    assert seen["merged"] > 0 and seen["twins"] > seen["merged"], seen


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
    assert coll.gadget_color not in ledger.unused
    assert coll.gadget_color in chi.colors_present()


def test_twin_gadget_color_occurs_in_the_host():
    # every edge has color 2, so color 1 is freed as absent before the claws
    # split; a twin stub in color 1 would be that color's only occurrence
    chi = mono_coloring(8, color=2, r=2)
    res = find_unique_free_hamilton(chi)
    assert res.cycle.is_hamilton(8) and not res.census.unique_colors
    splits = [ev for ev in res.ledger.history if ev["event"] == "claw-split"]
    assert splits and all(ev["gadget_color"] == 2 for ev in splits)


def _one_base_coloring(rng):
    """K_n with r <= n/4: one base color, every other on 0-6 random edges."""
    n = rng.randrange(8, 24)
    r = rng.randrange(1, n // 4 + 1)
    base = rng.randrange(1, r + 1)
    pairs = list(combinations(range(n), 2))
    overrides = {}
    for c in range(1, r + 1):
        if c != base:
            overrides.update(dict.fromkeys(rng.sample(pairs, rng.randrange(7)), c))
    return coloring_with(n, r, overrides, base=base)


def test_sparse_colorings_close_a_cycle():
    rng = random.Random(20)
    for _ in range(1000):
        chi = _one_base_coloring(rng)
        res = find_unique_free_hamilton(chi)
        assert res.cycle.is_hamilton(chi.host.n) and not res.census.unique_colors


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
            if col(w1, w2) not in ledger.unused:
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
    assert ledger.unused == ref_ledger.unused
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
    assert len(coll.paths) == 3 and 2 not in ledger.unused


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
    coll.gadget_color = 1
    history = _assert_merge_matches_reference(chi, coll, ledger)
    assert _merge_events(history) == [[0, 2], [[5, 10], [9, 16]]]


def test_merge_pass_stops_the_row_of_an_endpoint_turned_interior():
    # Row 0 merges (0,2) and 0 turns interior, so (0,4) is never tried;
    # 2 turned interior too, so its row stops before (2,4).  Row 3 still
    # merges (3,6).
    paths = [[0, 1], [2, 3], [4, 5], [6, 7]]
    chi = _distinct_cross_coloring(
        16, paths, {(0, 2): 1, (0, 4): 1, (2, 4): 1, (3, 6): 1}
    )
    coll, ledger = _hand_state(16, chi.r, paths, range(8, 16), set(range(2, chi.r + 1)))
    history = _assert_merge_matches_reference(chi, coll, ledger)
    assert _merge_events(history) == [[0, 2], [3, 6]]
    assert coll.paths == [[1, 0, 2, 3, 6, 7], [4, 5]]


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
    # each merge moves one center of R onto a path
    centers = set(range(6, 18)) - coll.remaining
    assert len(centers) == start - 2
    assert centers <= {v for p in coll.paths for v in p}


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
    assert coll.remaining == set(range(7, 18))


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


def _reference_free_subgraph_path(chi, vertices, x, y, banned_colors):
    """The closers' arc search as it was before the pool graph: the graph
    is rebuilt from color reads on every call."""
    order = sorted(vertices)
    pos = {v: i for i, v in enumerate(order)}
    es = [
        (pos[u], pos[v])
        for u in order
        for v in order
        if u < v and chi.color(u, v) not in banned_colors
    ]
    try:
        path = hamilton_path_between(SimpleGraph(len(order), es), pos[x], pos[y])
    except NotFoundError:
        return None
    return [order[i] for i in path.vertices]


def _reference_close_cycle(chi, coll, ledger):
    """close_cycle with per-attempt graph building, as before the pool graph."""
    col = coll.color_fn(chi)
    pool = sorted(coll.remaining)
    free = lambda c: c not in ledger.unused  # noqa: E731
    if len(coll.paths) == 1:
        p = coll.paths[0]
        for z_tail, z_head in _iter_attachments(col, [p[-1], p[0]], pool, free):
            arc = _reference_free_subgraph_path(
                chi, pool, z_tail, z_head, ledger.unused
            )
            if arc is not None:
                ledger.note("close", mode="single-path", attachments=[z_tail, z_head])
                return p + arc
        raise InternalContradiction("single path admits no free closing arc")
    if len(coll.paths) != 2:
        raise InternalContradiction("closing expects one or two paths")
    f1, f2 = coll.paths
    for zs in _iter_attachments(col, [f1[0], f1[-1], f2[0], f2[-1]], pool, free):
        z1, z1p, z2, z2p = zs
        core = [v for v in pool if v not in zs]
        k = len(core)
        star1, star2 = k, k + 1
        edges = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if free(chi.color(core[i], core[j]))
        ]
        for i, v in enumerate(core):
            if free(chi.color(z1, v)) and free(chi.color(z1p, v)):
                edges.append((i, star1))
            if free(chi.color(z2, v)) and free(chi.color(z2p, v)):
                edges.append((i, star2))
        try:
            cyc = dirac_hamilton_cycle(SimpleGraph(k + 2, edges))
        except NotFoundError:
            continue
        rot = list(cyc.vertices)
        i1 = rot.index(star1)
        rot = rot[i1:] + rot[:i1]
        i2 = rot.index(star2)
        arc_a = [core[i] for i in rot[1:i2]]
        arc_b = [core[i] for i in rot[i2 + 1 :]]
        f2.reverse()
        ledger.note("close", mode="two-paths", attachments=zs)
        return [z1] + f1 + [z1p] + arc_b[::-1] + [z2p] + f2 + [z2] + arc_a[::-1]
    raise InternalContradiction("no attachment quadruple closes the two paths")


def _reference_special_case_single_unused(chi, coll, ledger):
    """special_case_single_unused (and its one-path closer) with
    per-attempt graph building and the -1 stand-in, as before the pool
    graph."""
    (c,) = ledger.unused
    col = coll.color_fn(chi)
    pool = sorted(coll.remaining)
    if len(coll.paths) == 1:
        p = coll.paths[0]
        f_c = sum(1 for x, y in zip(p, p[1:]) if col(x, y) == c)
        c_edges = [(u, v) for u in pool for v in pool if u < v and chi.color(u, v) == c]
        for z_tail in pool:
            for z_head in pool:
                if z_head == z_tail:
                    continue
                att = (col(p[-1], z_tail) == c) + (col(p[0], z_head) == c)
                if f_c + att != 1:
                    arc = _reference_free_subgraph_path(chi, pool, z_tail, z_head, {c})
                    if arc is not None:
                        ledger.note("close", mode="single-unused-one-path",
                                    attachments=[z_tail, z_head], hot_count=att)
                        return p + arc
                if c_edges and f_c + att + 1 != 1:
                    arc = _arc_through_edge(pool, z_tail, z_head, c_edges[0])
                    if arc is not None:
                        ledger.note("close", mode="single-unused-one-path-hot-arc",
                                    attachments=[z_tail, z_head], hot_count=att + 1)
                        return p + arc
        raise InternalContradiction("one-path closing exhausted every assignment")
    if len(coll.paths) != 2:
        raise InternalContradiction("the single-unused case caps the paths at two")
    f1, f2 = coll.paths
    ends = [(0, f1[0]), (0, f1[-1]), (1, f2[0]), (1, f2[-1])]
    hot = next(
        ((which, w, z) for which, w in ends for z in pool if col(w, z) == c), None
    )
    if hot is not None:
        which, w, z = hot
        if which == 1:
            f1, f2 = f2, f1
        if f1[0] != w:
            f1.reverse()
        if col(f1[-1], f2[0]) != c:
            f2.reverse()
        if col(f1[-1], f2[0]) != c:
            raise InternalContradiction(
                "cross endpoint edges must carry the unused color"
            )
        ledger.note("close", mode="single-unused-hot-edge", through=[z, w])
        return [z] + f1 + f2 + [v for v in pool if v != z]
    pos = {v: i for i, v in enumerate(pool)}
    stand_in = len(pool)
    base_edges = [
        (pos[u], pos[v]) for u in pool for v in pool if u < v and chi.color(u, v) != c
    ]
    for quad in combinations(pool, 4):
        for z_near, z_far, z_m1, z_m2 in (
            (quad[0], quad[1], quad[2], quad[3]),
            (quad[0], quad[2], quad[1], quad[3]),
            (quad[0], quad[3], quad[1], quad[2]),
        ):
            es = base_edges + [(pos[z_m1], stand_in), (pos[z_m2], stand_in)]
            try:
                walk = hamilton_path_between(
                    SimpleGraph(len(pool) + 1, es), pos[z_near], pos[z_far]
                )
            except NotFoundError:
                continue
            seq = [pool[i] if i < stand_in else -1 for i in walk.vertices]
            cut = seq.index(-1)
            arc_a, arc_b = seq[:cut], seq[cut + 1 :]
            f2seg = f2 if arc_a[-1] == z_m1 else list(reversed(f2))
            ledger.note("close", mode="single-unused-two-arcs",
                        attachments=[z_near, z_far, z_m1, z_m2])
            return f1 + arc_a + f2seg + arc_b
    raise InternalContradiction("no two-arc cover avoids the unused color")


def _planted_closing_state(rng):
    """A closing state with one or two paths, colored so that the unused
    colors are rare: most states close, some at the tight end, and small
    pools make some fail."""
    n = rng.randrange(10, 24)
    r = rng.randrange(2, 6)
    order = rng.sample(range(n), n)
    paths, at = [], 0
    for _ in range(rng.choice([1, 2])):
        k = rng.randrange(2, 5)
        paths.append(order[at : at + k])
        at += k
    unused = set(rng.sample(range(1, r + 1), rng.randrange(1, r)))
    free = sorted(set(range(1, r + 1)) - unused)
    share = rng.choice([0.0, 0.02, 0.05, 0.15, 0.3])
    host = SimpleGraph.complete(n)
    chi = EdgeColoring(host, r, {
        e: rng.choice(sorted(unused)) if rng.random() < share else rng.choice(free)
        for e in host.edges()
    })
    coll, ledger = _hand_state(n, r, paths, order[at:], unused)
    return chi, coll, ledger


def _closing_outcome(fn, chi, coll, ledger):
    try:
        out = fn(chi, coll, ledger)
    except OddRamseyError as exc:  # the search budget's CapExceeded included
        out = type(exc), str(exc)
    return out, coll.paths, ledger.history


def test_closers_match_per_attempt_graph_building_on_planted_states():
    rng = random.Random(19)
    modes = collections.Counter()
    for _ in range(400):
        chi, coll, ledger = _planted_closing_state(rng)
        if len(ledger.unused) == 1:
            fn, ref = special_case_single_unused, _reference_special_case_single_unused
        else:
            fn, ref = close_cycle, _reference_close_cycle
        want = _closing_outcome(ref, chi, copy.deepcopy(coll), copy.deepcopy(ledger))
        assert _closing_outcome(fn, chi, coll, ledger) == want
        modes.update(ev["mode"] for ev in ledger.history if ev["event"] == "close")
    assert set(modes) == {
        "single-path", "two-paths", "single-unused-one-path",
        "single-unused-one-path-hot-arc", "single-unused-two-arcs",
        "single-unused-hot-edge",
    }
    assert min(modes.values()) >= 5, modes


def _sparse_coloring(n, r, rng):
    """K_n in one base color, each other color on a few random edges."""
    host = SimpleGraph.complete(n)
    base = rng.randrange(1, r + 1)
    assignment = {e: base for e in host.edges()}
    edges = list(assignment)
    for c in range(1, r + 1):
        if c != base:
            for e in rng.sample(edges, rng.choice([0, 1, 1, 2, 2, 3, 4, 6])):
                assignment[e] = c
    return EdgeColoring(host, r, assignment)


def test_closers_match_per_attempt_graph_building_on_pipeline_states():
    # states the pipeline hands its closers, virtual twins included
    rng = random.Random(23)
    modes = collections.Counter()
    for _ in range(150):
        n = rng.randrange(8, 40)
        chi = _sparse_coloring(n, max(1, n // 4 - rng.choice([0, 0, 1])), rng)
        ledger = ColorLedger.fresh(chi.r)
        try:
            coll = max_claw_collection(chi, ledger)
            for stage in (resolve_dangerous, harvest_cherries_matchings,
                          merge_endpoints):
                coll = stage(chi, coll, ledger)
            if len(ledger.unused) > 1:
                coll = merge_cherries(chi, coll, ledger)
        except InternalContradiction:
            continue
        if not ledger.unused:
            continue
        if len(ledger.unused) == 1:
            fn, ref = special_case_single_unused, _reference_special_case_single_unused
        else:
            fn, ref = close_cycle, _reference_close_cycle
        want = _closing_outcome(ref, chi, copy.deepcopy(coll), copy.deepcopy(ledger))
        assert _closing_outcome(fn, chi, coll, ledger) == want
        modes.update(ev["mode"] for ev in ledger.history if ev["event"] == "close")
    assert {"single-path", "single-unused-one-path"} <= set(modes), modes


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
    # no restart here, so each color outside unused was freed exactly once
    assert not any(ev["event"] == "restart" for ev in res.ledger.history)
    assert sorted(ev["color"] for ev in freed) == sorted(
        set(range(1, 4)) - res.ledger.unused
    )


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
