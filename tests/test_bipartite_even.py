import random
from itertools import combinations
from math import comb

import pytest

from oddramsey import bipartite_even
from oddramsey.bipartite_even import (
    Bipartition,
    EvenCover,
    Miss,
    ParityHypergraph,
    StronglyEvenWitness,
    _even_mask_count,
    _even_masks,
    _first_even_mask,
    brute_force_even_kst,
    build_parity_hypergraph,
    even_neighborhoods,
    find_even_chromatic_kst,
    find_even_cover,
    find_strongly_even,
)
from oddramsey.colored_graph import (
    EdgeColoring,
    SimpleGraph,
    _bits,
    edge,
    parity_census,
)
from oddramsey.constructions import (
    random_coloring,
    random_edge_coloring,
    random_min_degree_graph,
)
from oddramsey.errors import CapExceeded, PreconditionFailed

from conftest import coloring_with, mono_coloring


def _even_star_oracle(chi, u, s):
    """Direct subset scan for even s-neighborhoods of u."""
    others = [v for v in range(chi.host.n) if v != u]
    out = set()
    for subset in combinations(others, s):
        counts = {}
        for v in subset:
            c = chi.color(u, v)
            counts[c] = counts.get(c, 0) + 1
        if all(k % 2 == 0 for k in counts.values()):
            out.add(frozenset(subset))
    return out


def test_even_neighborhoods_edge_cases():
    rainbow = EdgeColoring(
        SimpleGraph.complete(5),
        10,
        {e: i + 1 for i, e in enumerate(SimpleGraph.complete(5).edges())},
    )
    assert list(even_neighborhoods(rainbow, 0, 2)) == []
    chi = coloring_with(5, 2, {(0, 1): 2, (0, 2): 2})
    twos = list(even_neighborhoods(chi, 0, 2))
    assert frozenset({1, 2}) in twos and frozenset({3, 4}) in twos
    with pytest.raises(PreconditionFailed):
        list(even_neighborhoods(chi, 0, 3))


def test_even_neighborhoods_match_bruteforce():
    rng = random.Random(17)
    for trial in range(25):
        n = rng.randrange(6, 12)
        chi = random_coloring(n, rng.randrange(2, 4), trial)
        u = rng.randrange(n)
        s = rng.choice([2, 4])
        got = set(even_neighborhoods(chi, u, s))
        assert got == _even_star_oracle(chi, u, s)


def test_strongly_even_monochromatic_and_rainbow():
    wit = find_strongly_even(mono_coloring(6), 2, 2)
    assert isinstance(wit, StronglyEvenWitness)
    assert len(wit.side_a) == 2 and len(wit.side_b) == 2
    rainbow = EdgeColoring(
        SimpleGraph.complete(5),
        10,
        {e: i + 1 for i, e in enumerate(SimpleGraph.complete(5).edges())},
    )
    assert find_strongly_even(rainbow, 2, 1) == Miss("not_found", "strongly-even")


def test_strongly_even_agrees_with_bruteforce():
    def oracle(chi, sp, tp):
        n = chi.host.n
        for subset in combinations(range(n), sp):
            owners = [
                u
                for u in range(n)
                if u not in subset
                and all(
                    k % 2 == 0
                    for k in parity_census(
                        chi, (edge(u, v) for v in subset)
                    ).counts.values()
                )
            ]
            if len(owners) >= tp:
                return True
        return False

    for seed in range(40):
        chi = random_coloring(12, 2, seed)
        got = find_strongly_even(chi, 2, 3)
        expected = oracle(chi, 2, 3)
        if isinstance(got, StronglyEvenWitness):
            assert expected
            for u in got.side_b:
                census = parity_census(
                    chi, (edge(u, v) for v in got.side_a)
                )
                assert census.is_even_chromatic()
        else:
            assert not expected


def _reference_even_subsets(chi, u, s):
    """The even s-neighborhoods of u, enumerated as before the bitmask
    index: classes in color order, subsets lexicographically."""
    by_color = {}
    for v in chi.host.neighbors(u):
        by_color.setdefault(chi.color(u, v), []).append(v)
    classes = [sorted(by_color[c]) for c in sorted(by_color)]

    def rec(i, need):
        if need == 0:
            yield ()
            return
        if i >= len(classes):
            return
        cls = classes[i]
        for k in range(0, min(len(cls), need) + 1, 2):
            for chosen in combinations(cls, k):
                for rest in rec(i + 1, need - k):
                    yield chosen + rest

    return [frozenset(x) for x in rec(0, s)]


def _reference_strongly_even(chi, sp, tp):
    """The frozenset-keyed double-counting index on even_neighborhoods."""
    owners = {}
    for u in range(chi.host.n):
        for s_set in even_neighborhoods(chi, u, sp):
            got = owners.setdefault(s_set, [])
            got.append(u)
            if len(got) == tp:
                return StronglyEvenWitness(tuple(sorted(s_set)), tuple(got))
    return Miss("not_found", "strongly-even")


def test_even_neighborhoods_keep_their_order():
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randrange(6, 14)
        chi = random_coloring(n, rng.randrange(1, 5), trial)
        u, s = rng.randrange(n), rng.choice([2, 4, 6])
        got = list(even_neighborhoods(chi, u, s))
        assert got == _reference_even_subsets(chi, u, s)


def test_strongly_even_matches_frozenset_index():
    rng = random.Random(23)
    outcomes = set()
    for trial in range(60):
        sp = rng.choice([2, 4, 6])
        # Keep the full scan of a miss small: larger s' on smaller hosts.
        n = rng.randrange(10, {2: 41, 4: 23, 6: 15}[sp])
        chi = random_coloring(n, rng.randrange(2, 6), 1000 + trial)
        tp = rng.randrange(1, 9)
        got = find_strongly_even(chi, sp, tp)
        assert got == _reference_strongly_even(chi, sp, tp)
        outcomes.add(type(got))
    assert outcomes == {StronglyEvenWitness, Miss}


def _reference_even_masks(chi, u, s_prime):
    """The lazy recursive mask enumerator the per-class lists replaced."""
    if s_prime < 2 or s_prime % 2 == 1:
        raise PreconditionFailed("even neighborhoods need even s' >= 2")
    by_color = {}
    for v in chi.host.neighbors(u):
        by_color.setdefault(chi.color(u, v), []).append(1 << v)
    classes = [by_color[c] for c in sorted(by_color)]

    def rec(i, need):
        if i >= len(classes):
            return
        bits = classes[i]
        for k in range(0, min(len(bits), need) + 1, 2):
            if k == need:
                yield from map(sum, combinations(bits, k))
                return
            for chosen in combinations(bits, k):
                m = sum(chosen)
                for rest in rec(i + 1, need - k):
                    yield m | rest

    return rec(0, s_prime)


def _reference_owner_lists(chi, sp, tp):
    """The owners-dict index the prior-owner Counter replaced."""
    if sp == 0:
        return StronglyEvenWitness((), tuple(range(tp)))
    owners = {}
    for u in range(chi.host.n):
        for mask in _reference_even_masks(chi, u, sp):
            got = owners.setdefault(mask, [])
            got.append(u)
            if len(got) == tp:
                side_a = tuple(v for v in range(chi.host.n) if mask >> v & 1)
                return StronglyEvenWitness(side_a, tuple(got))
    return Miss("not_found", "strongly-even")


def _kernel_cases():
    rng = random.Random(41)
    for trial in range(64):
        sp = rng.choice([2, 4, 6])
        n = rng.randrange(10, {2: 41, 4: 23, 6: 15}[sp])
        r = rng.randrange(2, 6)
        tp = rng.randrange(1, 9)
        if trial % 8 == 7:
            host = random_min_degree_graph(n, n // 2, trial)
            chi = random_edge_coloring(host, r, 500 + trial)
        else:
            chi = random_coloring(n, r, 500 + trial)
        yield chi, sp, tp


def test_even_masks_match_the_recursive_enumerator():
    for chi, sp, _ in _kernel_cases():
        for u in range(0, chi.host.n, 3):
            assert _even_masks(chi, u, sp) == list(
                _reference_even_masks(chi, u, sp)
            )


def test_strongly_even_stops_at_its_mask_budget(monkeypatch):
    cases = [
        (chi, sp, tp, find_strongly_even(chi, sp, tp))
        for chi, sp, tp in _kernel_cases() if tp >= 2
    ]
    hits = 0
    for chi, sp, tp, want in cases:
        # The masks listed up to the answer: through the witness's vertex on
        # a hit, through every vertex on a certified miss.
        hit = isinstance(want, StronglyEvenWitness)
        last = want.side_b[-1] if hit else chi.host.n - 1
        listed = sum(_even_mask_count(chi, u, sp) for u in range(last + 1))
        monkeypatch.setattr(bipartite_even, "STRONGLY_EVEN_MASK_BUDGET", listed)
        assert find_strongly_even(chi, sp, tp) == want
        monkeypatch.setattr(bipartite_even, "STRONGLY_EVEN_MASK_BUDGET", listed - 1)
        assert find_strongly_even(chi, sp, tp) == Miss("unknown", "strongly-even")
        hits += hit
    assert len(cases) > 40 and 0 < hits < len(cases)
    # t'=1 lists nothing, so the budget does not bind it.
    monkeypatch.setattr(bipartite_even, "STRONGLY_EVEN_MASK_BUDGET", 0)
    chi = random_coloring(12, 3, 5)
    assert isinstance(find_strongly_even(chi, 4, 1), StronglyEvenWitness)


def test_strongly_even_budget_counts_machine_words(monkeypatch):
    # Past 64 vertices each listed mask is two machine words, so the budget
    # that admits a search is twice its mask count: one word less answers
    # "unknown" although it still covers every mask.
    cases = [(random_coloring(90, 12, 1), 2, 12), (random_coloring(66, 10, 1), 2, 20)]
    hits = []
    for chi, sp, tp in cases:
        want = find_strongly_even(chi, sp, tp)
        hit = isinstance(want, StronglyEvenWitness)
        hits.append(hit)
        last = want.side_b[-1] if hit else chi.host.n - 1
        assert last >= tp  # the answer comes from the counting pass
        words = 2 * sum(_even_mask_count(chi, u, sp) for u in range(last + 1))
        monkeypatch.setattr(bipartite_even, "STRONGLY_EVEN_MASK_BUDGET", words)
        assert find_strongly_even(chi, sp, tp) == want
        monkeypatch.setattr(bipartite_even, "STRONGLY_EVEN_MASK_BUDGET", words - 1)
        assert find_strongly_even(chi, sp, tp) == Miss("unknown", "strongly-even")
    assert hits == [True, False]


def _rule_coloring(host, r, rule):
    """Color each host edge uv (u < v) by ``1 + rule(u, v) % r``."""
    return EdgeColoring(host, r, {e: 1 + rule(*e) % r for e in host.edges()})


def _structured_cases():
    """Colorings far from uniform, where the witness may come late or not
    at all: block pairs, (u+v) mod r and min(u, v) mod r on complete and
    sparse hosts, with t' from 2 up to past n + 1."""
    rng = random.Random(77)
    for trial in range(48):
        sp = rng.choice([2, 4])
        n = rng.randrange(7, {2: 19, 4: 15}[sp])
        r = rng.randrange(2, 6)
        blocks = rng.randrange(2, 5)
        rule = [
            lambda u, v: (u * blocks // n) * blocks + v * blocks // n,
            lambda u, v: u + v,
            lambda u, v: min(u, v),
        ][trial % 3]
        if trial % 4 == 3:
            host = random_min_degree_graph(n, n // 2, trial)
        else:
            host = SimpleGraph.complete(n)
        tp = 2 if trial % 6 == 0 else rng.randrange(3, n + 4)
        yield _rule_coloring(host, r, rule), sp, tp


def test_prior_owner_counter_matches_owner_lists(monkeypatch):
    probes = []  # one entry per window probe: did it hit?
    probe = bipartite_even._window_hit

    def spy(chi, s_prime, t_prime):
        mask = probe(chi, s_prime, t_prime)
        probes.append(mask is not None)
        return mask

    monkeypatch.setattr(bipartite_even, "_window_hit", spy)
    routes = set()
    for chi, sp, tp in [*_kernel_cases(), *_structured_cases()]:
        probes.clear()
        got = find_strongly_even(chi, sp, tp)
        assert got == _reference_owner_lists(chi, sp, tp)
        n = chi.host.n
        if tp == 1:
            continue
        if tp == 2:
            routes.add("t'=2")
        if n < tp:
            # No vertex reaches position t'-1, so nothing is probed.
            assert probes == [] and got == Miss("not_found", "strongly-even")
            routes.add("n<t'-1" if n < tp - 1 else "n=t'-1")
        elif probes == [True]:
            assert got.side_b == tuple(range(tp))
            routes.add("window hit")
        elif isinstance(got, StronglyEvenWitness):
            assert probes == [False] and got.side_b[-1] >= tp
            routes.add("counter hit")
        else:
            assert probes == [False]
            routes.add("certified miss")
    assert routes >= {"window hit", "counter hit", "certified miss",
                      "n<t'-1", "t'=2"}


def test_window_keeps_to_the_common_neighborhood():
    # Vertex 1's first even pair is {2, 3}, which vertex 0 does not see:
    # weighing 1's whole neighborhood, 0's (absent) colors there would
    # count two of a kind and pass.  The window lists inside N(0) & N(1).
    host = SimpleGraph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (0, 4), (0, 5)])
    chi = EdgeColoring(host, 1, {e: 1 for e in host.edges()})
    assert _even_masks(chi, 1, 2)[0] == 1 << 2 | 1 << 3
    assert bipartite_even._window_hit(chi, 2, 2) == 1 << 4 | 1 << 5
    want = StronglyEvenWitness((4, 5), (0, 1))
    assert find_strongly_even(chi, 2, 2) == want == _reference_owner_lists(chi, 2, 2)


def test_window_count_fields_hold_s_prime():
    # At s'=6 vertices 0 and 1 see the witness's six vertices in one color:
    # a count of 6 needs all three bits of its field, and a carry out of a
    # two-bit field of vertex 0 would make vertex 1's field odd.
    chi = mono_coloring(10)
    window = [1 << v for v in range(3, 9)]
    assert bipartite_even._window_hit(chi, 6, 3) == sum(window)
    want = StronglyEvenWitness((3, 4, 5, 6, 7, 8), (0, 1, 2))
    assert find_strongly_even(chi, 6, 3) == want == _reference_owner_lists(chi, 6, 3)


@pytest.mark.parametrize("bits", [0, 12])
def test_window_survivor_census_matches_owner_lists(monkeypatch, bits):
    # Past WINDOW_FIELD_BITS the earlier vertices are checked by their star
    # census on the survivors: at 0 bits all but vertex 0, at 12 bits all
    # but the first few.
    calls = [0]
    owns = bipartite_even._owns

    def counted(*args):
        calls[0] += 1
        return owns(*args)

    monkeypatch.setattr(bipartite_even, "_owns", counted)
    cases = [*_kernel_cases(), *_structured_cases()]
    for chi, sp, tp in cases:
        find_strongly_even(chi, sp, tp)
    unbounded = calls[0]
    calls[0] = 0
    monkeypatch.setattr(bipartite_even, "WINDOW_FIELD_BITS", bits)
    for chi, sp, tp in cases:
        assert find_strongly_even(chi, sp, tp) == _reference_owner_lists(chi, sp, tp)
    assert calls[0] > unbounded


def test_strongly_even_budget_stops_before_any_list(monkeypatch):
    # Vertex 0 alone fits the budget (843k masks of two words each), so a
    # budget checked vertex by vertex would list them before vertex 1 passes it.
    chi = random_coloring(120, 5, 1)
    assert 2 * _even_mask_count(chi, 0, 4) <= bipartite_even.STRONGLY_EVEN_MASK_BUDGET
    built = []
    monkeypatch.setattr(bipartite_even, "_even_masks",
                        lambda *args: built.append(args) or [])
    assert find_strongly_even(chi, 4, 3) == Miss("unknown", "strongly-even")
    assert built == []


def test_prior_owner_counter_edge_parameters():
    chi = random_coloring(9, 3, 4)
    for sp in (0, 2, 4):
        assert find_strongly_even(chi, sp, 1) == _reference_owner_lists(chi, sp, 1)
    assert find_strongly_even(chi, 0, 9) == StronglyEvenWitness((), tuple(range(9)))
    assert find_strongly_even(chi, 0, 10) == Miss("not_found", "strongly-even")
    for sp in (1, 3, 5, -2):
        with pytest.raises(PreconditionFailed):
            find_strongly_even(chi, sp, 2)
        with pytest.raises(PreconditionFailed):
            find_strongly_even(chi, sp, 1)
        with pytest.raises(PreconditionFailed):
            _even_masks(chi, 0, sp)
        with pytest.raises(PreconditionFailed):
            _even_mask_count(chi, 0, sp)
    with pytest.raises(PreconditionFailed):
        find_strongly_even(chi, 2, 0)


def test_first_even_mask_is_the_head_of_the_list():
    sparse = [
        (random_edge_coloring(random_min_degree_graph(12, d, d), r, 7), sp)
        for d in (1, 2, 3) for r in (2, 4) for sp in (2, 4, 6)
    ]
    # tiny complete hosts, isolated vertices, one color and many colors
    small = [SimpleGraph.complete(n) for n in (1, 2, 7)]
    small.append(SimpleGraph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
    sparse += [
        (random_edge_coloring(g, r, 70 + i), sp)
        for i, g in enumerate(small) for r in (1, 3, 9) for sp in (2, 4, 6)
    ]
    nones = 0
    for chi, sp in [(chi, sp) for chi, sp, _ in _kernel_cases()] + sparse:
        for u in range(chi.host.n):
            masks = _even_masks(chi, u, sp)
            assert _first_even_mask(chi, u, sp) == (masks[0] if masks else None)
            assert _even_mask_count(chi, u, sp) == len(masks)
            nones += not masks
    assert nones > 0


def test_odd_colors_match_the_star_census():
    rng = random.Random(28)
    for trial in range(60):
        n = rng.randrange(4, 30)
        g = random_min_degree_graph(n, rng.randrange(1, n // 2 + 1), trial)
        chi = random_edge_coloring(g, rng.randrange(1, 9), trial)
        v = rng.randrange(n)
        nbrs = list(g.neighbors(v))
        side = tuple(rng.sample(nbrs, rng.randint(0, len(nbrs))))
        odd = bipartite_even._odd_colors(chi, v, side)
        census = bipartite_even._bipartite_census(chi, (v,), side)
        assert {b + 1 for b in _bits(odd)} == census.odd_colors
        missing = [w for w in range(n) if w not in nbrs]  # v itself included
        with pytest.raises(PreconditionFailed):
            bipartite_even._odd_colors(chi, v, side + (rng.choice(missing),))


def test_parity_hypergraph_support_rules():
    overrides = {(0, 5): 1, (1, 5): 1, (2, 5): 2,
                 (0, 6): 1, (1, 6): 2, (2, 6): 3,
                 (0, 7): 5, (1, 7): 5, (2, 7): 5}
    chi = coloring_with(10, 5, overrides, base=4)
    h = build_parity_hypergraph(chi, 0, 1, 2, (5, 6, 7))
    supports = dict(h.edges)
    assert supports[5] == frozenset({2})
    assert supports[6] == frozenset({1, 2, 3})
    assert supports[7] == frozenset({5})
    with pytest.raises(PreconditionFailed):
        build_parity_hypergraph(chi, 0, 1, 2, (2, 5))


def test_even_cover_basics():
    h = ParityHypergraph(3, ((10, frozenset({1, 2, 3})), (11, frozenset({1, 2, 3}))))
    got = find_even_cover(h, 2)
    assert isinstance(got, EvenCover) and sorted(got.labels) == [10, 11]
    h2 = ParityHypergraph(
        2, ((5, frozenset({1})), (6, frozenset({2})), (7, frozenset({1, 2})))
    )
    got2 = find_even_cover(h2, 3)
    assert isinstance(got2, EvenCover) and sorted(got2.labels) == [5, 6, 7]
    single = ParityHypergraph(1, ((9, frozenset({1})),))
    assert find_even_cover(single, 2) == Miss("not_found", "even-cover")
    with pytest.raises(PreconditionFailed):
        find_even_cover(h2, 1)


def _random_hypergraph(rng, max_edges=12, max_colors=10):
    m = rng.randrange(1, max_edges + 1)
    palette = rng.randrange(2, max_colors + 1)
    edges = []
    for label in range(m):
        size = rng.choice([1, 3])
        if size > palette:
            size = 1
        sup = frozenset(rng.sample(range(1, palette + 1), size))
        edges.append((label, sup))
    return ParityHypergraph(palette, tuple(edges))


def _cover_exists_oracle(h, k):
    masks = [sum(1 << (c - 1) for c in sup) for _, sup in h.edges]
    for combo in combinations(range(len(masks)), k):
        acc = 0
        for i in combo:
            acc ^= masks[i]
        if acc == 0:
            return True
    return False


def test_even_cover_oracle_equivalence():
    rng = random.Random(99)
    for trial in range(250):
        h = _random_hypergraph(rng)
        for k in (2, 3, 4, 6):
            got = find_even_cover(h, k)
            exists = k <= len(h.edges) and _cover_exists_oracle(h, k)
            if isinstance(got, EvenCover):
                assert exists
                assert len(set(got.labels)) == k
                counts = {}
                supports = dict(h.edges)
                for lab in got.labels:
                    for c in supports[lab]:
                        counts[c] = counts.get(c, 0) + 1
                assert all(v % 2 == 0 for v in counts.values())
            else:
                assert got.status == "not_found"
                assert not exists


def test_even_cover_mitm_matches_exhaustive():
    # a wide hypergraph at even k: duplicate pairing answers before the
    # meet-in-the-middle tier (the odd-k test below reaches that tier)
    rng = random.Random(5)
    edges = tuple(
        (i, frozenset(rng.sample(range(1, 13), rng.choice([1, 3]))))
        for i in range(26)
    )
    h = ParityHypergraph(12, edges)
    got = find_even_cover(h, 8)
    exists = _cover_exists_oracle(h, 8)
    assert isinstance(got, EvenCover) == exists


@pytest.mark.parametrize("sizes", [(1, 3), (1, 2, 3)])
def test_even_cover_odd_k_runs_meet_in_the_middle(sizes):
    # odd k skips duplicate pairing and C(26,7) = 657,800 lies between the
    # exhaustive and decisive caps, so only meet-in-the-middle answers; an
    # odd number of odd-size supports never XORs to zero, mixed sizes can
    rng = random.Random(5)
    edges = tuple(
        (i, frozenset(rng.sample(range(1, 13), rng.choice(sizes))))
        for i in range(26)
    )
    h = ParityHypergraph(12, edges)
    assert 200_000 < comb(26, 7) <= 10_000_000
    got = find_even_cover(h, 7)
    exists = _cover_exists_oracle(h, 7)
    assert exists == (sizes == (1, 2, 3))
    if exists:
        assert isinstance(got, EvenCover) and len(set(got.labels)) == 7
        counts = {}
        supports = dict(h.edges)
        for lab in got.labels:
            for c in supports[lab]:
                counts[c] = counts.get(c, 0) + 1
        assert all(v % 2 == 0 for v in counts.values())
    else:
        assert got == Miss("not_found", "even-cover")
    # beyond the decisive cap the search gives up instead of guessing
    wide = ParityHypergraph(12, edges + tuple(
        (26 + i, sup) for i, (_, sup) in enumerate(edges)
    ))
    assert find_even_cover(wide, 9) == Miss("unknown", "even-cover")


def test_find_even_kst_monochromatic():
    out = find_even_chromatic_kst(mono_coloring(20), 3, 4)
    assert isinstance(out, Bipartition)
    assert len(out.side_a) == 3 and len(out.side_b) == 4
    out5 = find_even_chromatic_kst(mono_coloring(16), 5, 6)
    assert isinstance(out5, Bipartition)


def test_find_even_kst_random_verified():
    for seed in range(60):
        chi = random_coloring(16, 2, seed)
        out = find_even_chromatic_kst(chi, 3, 4)
        if isinstance(out, Bipartition):
            census = parity_census(
                chi,
                (edge(a, b) for a in out.side_a for b in out.side_b),
            )
            assert census.is_even_chromatic()


def test_find_even_kst_even_s_direct_route():
    out = find_even_chromatic_kst(mono_coloring(12), 2, 2)
    assert isinstance(out, Bipartition)
    rainbow_host = SimpleGraph.complete(6)
    rainbow = EdgeColoring(
        rainbow_host,
        15,
        {e: i + 1 for i, e in enumerate(rainbow_host.edges())},
    )
    out2 = find_even_chromatic_kst(rainbow, 2, 2)
    assert out2 == Miss("not_found", "strongly-even")


def test_find_even_kst_planted_s5_pipeline():
    # every vertex sees the pair {0,1} monochromatically, so the
    # strongly-even stage finds side_a = {0,1} pools immediately
    n = 14
    overrides = {}
    for u in range(2, n):
        overrides[(0, u)] = 1 + (u % 2)
        overrides[(1, u)] = 1 + (u % 2)
    chi = coloring_with(n, 3, overrides, base=3)
    out = find_even_chromatic_kst(chi, 5, 4)
    assert isinstance(out, Bipartition)
    census = parity_census(
        chi, (edge(a, b) for a in out.side_a for b in out.side_b)
    )
    assert census.is_even_chromatic()


def test_find_even_kst_not_found_certified_small():
    # a rainbow coloring admits no even K_{3,4} (every census is all-ones);
    # the s-tuple sweep certifies it, in agreement with the brute oracle
    host = SimpleGraph.complete(7)
    rainbow = EdgeColoring(
        host, 21, {e: i + 1 for i, e in enumerate(host.edges())}
    )
    got = find_even_chromatic_kst(rainbow, 3, 4)
    assert got.status == "not_found"
    assert isinstance(brute_force_even_kst(rainbow, 3, 4), Miss)
    # random instances: found results verified, not_found agrees
    for seed in range(60):
        chi = random_coloring(8, 3, seed)
        got = find_even_chromatic_kst(chi, 3, 4)
        oracle = brute_force_even_kst(chi, 3, 4)
        if isinstance(got, Bipartition):
            assert isinstance(oracle, Bipartition)
        elif got.status == "not_found":
            assert isinstance(oracle, Miss)


def test_brute_force_oracle():
    rainbow_host = SimpleGraph.complete(5)
    rainbow = EdgeColoring(
        rainbow_host,
        10,
        {e: i + 1 for i, e in enumerate(rainbow_host.edges())},
    )
    assert isinstance(brute_force_even_kst(rainbow, 2, 2), Miss)
    found = brute_force_even_kst(mono_coloring(8), 2, 2)
    assert isinstance(found, Bipartition)
    with pytest.raises(CapExceeded):
        brute_force_even_kst(mono_coloring(24), 5, 8, budget=1000)


def test_kst_preconditions():
    chi = mono_coloring(6)
    with pytest.raises(PreconditionFailed):
        find_even_chromatic_kst(chi, 3, 4)  # s + t > n
    host = SimpleGraph(6, [(0, 1)])
    sparse = EdgeColoring(host, 1, {edge(0, 1): 1})
    with pytest.raises(PreconditionFailed):
        find_even_chromatic_kst(sparse, 2, 2)
    with pytest.raises(PreconditionFailed):
        find_even_chromatic_kst(mono_coloring(20), 5, 6, t_prime=3)
    # t' belongs to the odd-s pipeline; with an even s it is refused.
    for t_prime in (0, -7, 5):
        with pytest.raises(PreconditionFailed):
            find_even_chromatic_kst(random_coloring(12, 2, 1), 2, 2, t_prime)