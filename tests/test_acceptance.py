"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each (emitted outside pytest's capture so they show in any run)."""

import random
from itertools import combinations

import pytest

from oddramsey.bipartite_even import (
    Bipartition,
    EvenCover,
    Miss,
    ParityHypergraph,
    brute_force_even_kst,
    find_even_chromatic_kst,
    find_even_cover,
)
from oddramsey.cli import main as cli_main
from oddramsey.colored_graph import (
    CycleOrPath,
    EdgeColoring,
    SimpleGraph,
    cycle_census,
    edge,
    instance_to_json,
    parity_census,
    symmetric_difference,
)
from oddramsey.constructions import (
    exact_ramsey,
    random_coloring,
    random_edge_coloring,
    random_min_degree_graph,
    unique_upper_coloring,
    verify_every_cycle,
)
from oddramsey.errors import InternalContradiction, PreconditionFailed
from oddramsey.hamilton import (
    assert_valid_cycle,
    enumerate_hamilton_cycles,
    strong_ore_path,
)
from oddramsey.parity_switch import find_even_hamilton_2col, switch_c4, switch_c6
from oddramsey.unique_finder import find_unique_free_hamilton

from conftest import coloring_with


def _report(capsys, num, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: PASS — {text}")


# -- 1 -----------------------------------------------------------------


def test_acceptance_1_unique_upper_construction(capsys):
    """Explicit coloring: every Hamilton cycle keeps a unique color, n<=10."""
    total = 0
    for n in (4, 6, 8, 10):
        chi = unique_upper_coloring(n)
        ok, counterexample = verify_every_cycle(chi, "has-unique-color")
        assert ok, f"n={n} counterexample {counterexample}"
        total += 1
    _report(capsys, 1, "construction verified over all Hamilton cycles for n=4,6,8,10 "
               "(181,440 cycles at n=10)")


# -- 2 -----------------------------------------------------------------


def _adversarial_instances(n, r, count):
    """Structured instances biased against the pipeline's greedy stages."""
    host = SimpleGraph.complete(n)
    out = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            # claw traps: greedy leaves centering unused-color claws
            overrides = {(0, v): 1 for v in (1, 2, 3)}
            for j in range(min(r - 1, 3)):
                c = 2 + j
                base_leaf = 1 + j
                leaves = [n - 1 - 3 * j, n - 2 - 3 * j, n - 3 - 3 * j]
                for leaf in leaves:
                    if leaf > 3:
                        overrides[(min(base_leaf, leaf), max(base_leaf, leaf))] = c
            chi = coloring_with(n, r, overrides, base=r)
        elif kind == 1:
            # proper-coloring-derived: colors spread as 1-factorizations
            assignment = {}
            for e in host.edges():
                cls = (2 * e.u) % (n - 1) if e.v == n - 1 else (e.u + e.v) % (n - 1)
                assignment[e] = 1 + cls % r
            chi = EdgeColoring(host, r, assignment)
        elif kind == 2:
            # singleton colors on a scattered matching
            overrides = {
                (2 * i, 2 * i + 1): 2 + (i % max(1, r - 1))
                for i in range(min(r + k % 3, n // 2 - 1))
            }
            chi = coloring_with(n, r, overrides, base=1)
        elif kind == 3:
            # bipartition split plus one planted off edge
            assignment = {
                e: (1 if (e.u < n // 2) == (e.v < n // 2) else 2)
                for e in host.edges()
            }
            assignment[edge(k % (n - 1), n - 1)] = min(r, 1 + k % r)
            chi = EdgeColoring(host, r, assignment)
        else:
            # heavy majority color with r-1 sparse colors
            rng = random.Random(10_000 + k)
            assignment = {}
            for e in host.edges():
                assignment[e] = 1 if rng.random() < 0.85 else rng.randrange(2, r + 1) if r > 1 else 1
            chi = EdgeColoring(host, r, assignment)
        out.append(chi)
    return out


def test_acceptance_2_unique_pipeline_totality(capsys):
    """No unique color in the output cycle across 1000 seeded + 50
    structured instances per size; zero internal contradictions."""
    contradictions = 0
    runs = 0
    for n, r in ((8, 2), (12, 3), (16, 4), (20, 5)):
        for seed in range(1000):
            res = find_unique_free_hamilton(random_coloring(n, r, seed))
            assert res.cycle.is_hamilton(n)
            assert all(c != 1 for c in res.census.counts.values())
            runs += 1
        for chi in _adversarial_instances(n, r, 50):
            try:
                res = find_unique_free_hamilton(chi)
            except InternalContradiction:
                contradictions += 1
                raise
            assert all(c != 1 for c in res.census.counts.values())
            runs += 1
    assert contradictions == 0
    _report(capsys, 2, f"{runs} pipeline runs across (n,r) in "
               "{(8,2),(12,3),(16,4),(20,5)}, zero contradictions")


# -- 3 -----------------------------------------------------------------


def test_acceptance_3_even_hamilton_driver(capsys):
    """Driver totality on 500 seeded sparse 2-colorings per n, with the
    n=8 outputs cross-checked against the enumeration oracle."""
    for n in (8, 10):
        dmin = n // 2 + 2
        for seed in range(500):
            g = random_min_degree_graph(n, dmin, seed)
            chi = random_edge_coloring(g, 2, seed)
            out = find_even_hamilton_2col(g, chi)
            assert_valid_cycle(g, out.cycle)
            assert cycle_census(chi, out.cycle).is_even_chromatic()
            if n == 8:
                evens = {
                    c.canonical()
                    for c in enumerate_hamilton_cycles(g)
                    if cycle_census(chi, c).is_even_chromatic()
                }
                assert out.cycle.canonical() in evens
    _report(capsys, 3, "1000 driver runs (500 per n in {8,10}), all even-chromatic; "
               "n=8 outputs all members of the enumeration oracle's even set")


# -- 4 -----------------------------------------------------------------


def _first_cycle_of_length(g, length, rng):
    """Some cycle of the given length in g, by randomized vertex scan."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    for combo in combinations(verts, length):
        for arrangement in _cycle_arrangements(combo):
            if all(
                g.adjacent(arrangement[i], arrangement[(i + 1) % length])
                for i in range(length)
            ):
                return CycleOrPath(arrangement, closed=True)
    return None


def _cycle_arrangements(combo):
    head, rest = combo[0], combo[1:]
    seen = set()
    from itertools import permutations

    for perm in permutations(rest):
        if perm[0] < perm[-1]:
            arr = (head, *perm)
            if arr not in seen:
                seen.add(arr)
                yield arr


def _planted_odd_witness(n, length, seed):
    """Dense 2-colored instance with a known odd cycle of the length."""
    g = random_min_degree_graph(n, n // 2 + 2, seed)
    chi = random_edge_coloring(g, 2, seed * 31 + 7)
    rng = random.Random(seed)
    wit = _first_cycle_of_length(g, length, rng)
    assert wit is not None
    if cycle_census(chi, wit).is_even_chromatic():
        flip = wit.edges()[0]
        assignment = {e: c for e, c in chi.items()}
        assignment[flip] = 3 - assignment[flip]
        chi = EdgeColoring(g, 2, assignment)
    assert cycle_census(chi, wit).is_odd_chromatic()
    return g, chi, wit


def _check_switch_identity(chi, out):
    c1, c2 = out.candidates
    even1 = cycle_census(chi, c1).is_even_chromatic()
    even2 = cycle_census(chi, c2).is_even_chromatic()
    assert even1 != even2
    diff = symmetric_difference(c1, c2)
    if "case-1.2" in out.provenance:
        assert (
            parity_census(chi, diff).odd_colors
            == cycle_census(chi, out.witness).odd_colors
        )
    else:
        assert diff == set(out.witness.edges())


def test_acceptance_4_switch_identities(capsys):
    """200 constructed odd-C4 and odd-C6 instances: the candidate pair
    differs exactly by the effective witness (or matches its parity census
    in the reroute subcases) and exactly one candidate is even."""
    for idx in range(200):
        n = 8 + 2 * (idx % 3)
        g, chi, c4 = _planted_odd_witness(n, 4, idx)
        out = switch_c4(g, chi, c4)
        assert out.candidates is not None
        _check_switch_identity(chi, out)
    provenances = set()
    for idx in range(200):
        n = 8 + 2 * (idx % 3)
        g, chi, c6 = _planted_odd_witness(n, 6, 1000 + idx)
        out = switch_c6(g, chi, c6)
        assert out.candidates is not None
        _check_switch_identity(chi, out)
        provenances.add(out.provenance)
    _report(capsys, 4, f"400 switch runs, all identities exact; c6 provenances seen: "
               f"{sorted(provenances)}")


# -- 5 -----------------------------------------------------------------


def _path_exists_dfs(g, x, y):
    """Independent exhaustive {x,y}-Hamilton-path existence check."""
    n = g.n
    target = (1 << n) - 1

    def rec(v, visited):
        if visited == target:
            return v == y
        if v == y:
            return False
        for u in g.neighbors(v):
            if not visited >> u & 1:
                if rec(u, visited | 1 << u):
                    return True
        return False

    return rec(x, 1 << x)


def test_acceptance_5_strong_ore_vs_bruteforce(capsys):
    """2000 sampled graphs on n in {6,8} with min degree >= n/2: on graphs
    meeting the majority hypotheses every pair is served; elsewhere every
    returned path is real and guaranteed pairs are never refused."""
    served, refused, satisfying = 0, 0, 0
    for n in (6, 8):
        for seed in range(1000):
            # alternate degree floors so both the guaranteed regimes and
            # the boundary profiles are well represented
            floor = n // 2 + (seed % 3)
            if floor > n - 1:
                floor = n // 2
            g = random_min_degree_graph(n, floor, 7919 * n + seed)
            degrees = [g.degree(v) for v in range(n)]
            high = sum(1 for d in degrees if d >= n // 2 + 1)
            case1 = high > n // 2
            balanced = high == n // 2
            satisfying += case1
            v1 = {v for v in range(n) if degrees[v] == n // 2}
            independent = not any(
                g.adjacent(a, b) for a in v1 for b in v1 if a < b
            )
            for x in range(n):
                for y in range(x + 1, n):
                    try:
                        p = strong_ore_path(g, x, y)
                    except PreconditionFailed:
                        refused += 1
                        # contract refusals never hit a guaranteed pair
                        assert not case1
                        if balanced:
                            assert not (
                                independent and x in v1 and y in v1
                            )
                        continue
                    served += 1
                    assert_valid_cycle(g, p, hamilton=False)
                    assert p.is_hamilton(n)
                    assert set(p.endpoints) == {x, y}
                    assert _path_exists_dfs(g, x, y)
    assert satisfying >= 400  # the guaranteed regime is well represented
    _report(capsys, 5, f"2000 graphs x all pairs: {satisfying} "
               f"hypothesis-satisfying graphs, {served} paths served (every "
               f"one oracle-confirmed), {refused} contract refusals, none on "
               "guaranteed pairs")


# -- 6 -----------------------------------------------------------------


def test_acceptance_6_even_cover_oracle_equivalence(capsys):
    """1000 random hypergraphs, k in {2,3,4,6}: found <=> exists, and every
    found cover re-verified all-even."""
    rng = random.Random(606)
    checked = 0
    for trial in range(1000):
        m = rng.randrange(1, 13)
        palette = rng.randrange(2, 11)
        edges = tuple(
            (
                lab,
                frozenset(
                    rng.sample(
                        range(1, palette + 1), min(rng.choice([1, 3]), palette)
                    )
                ),
            )
            for lab in range(m)
        )
        h = ParityHypergraph(palette, edges)
        masks = [sum(1 << (c - 1) for c in sup) for _, sup in edges]
        for k in (2, 3, 4, 6):
            exists = k <= m and any(
                _xor(masks, combo) == 0
                for combo in combinations(range(m), k)
            )
            got = find_even_cover(h, k)
            if isinstance(got, EvenCover):
                assert exists
                counts = {}
                supports = dict(edges)
                for lab in got.labels:
                    for c in supports[lab]:
                        counts[c] = counts.get(c, 0) + 1
                assert all(v % 2 == 0 for v in counts.values())
            else:
                assert got.status == "not_found"
                assert not exists
            checked += 1
    assert checked == 4000
    _report(capsys, 6, "1000 hypergraphs x k in {2,3,4,6}: zero disagreements with "
               "the exhaustive subset oracle")


def _xor(masks, combo):
    acc = 0
    for i in combo:
        acc ^= masks[i]
    return acc


# -- 7 -----------------------------------------------------------------


def test_acceptance_7_kst_pipeline_soundness(capsys):
    """500 random instances (n <= 24, r <= 3, s in {3,5}, t=4): returned
    bipartitions verify even-chromatic; at n <= 12, not_found agrees with
    the brute-force oracle."""
    sizes = [8, 10, 12, 14, 16, 20, 24]
    found = misses = 0
    for idx in range(500):
        n = sizes[idx % len(sizes)]
        r = 2 + idx % 2
        s = 3 if idx % 3 else 5
        if s + 4 > n:
            s = 3
        chi = random_coloring(n, r, idx)
        got = find_even_chromatic_kst(chi, s, 4)
        if isinstance(got, Bipartition):
            found += 1
            census = parity_census(
                chi, (edge(a, b) for a in got.side_a for b in got.side_b)
            )
            assert census.is_even_chromatic()
            assert len(got.side_a) == s and len(got.side_b) == 4
        else:
            misses += 1
            if n <= 12 and got.status == "not_found":
                oracle = brute_force_even_kst(chi, s, 4)
                assert isinstance(oracle, Miss)
    # the rainbow certificate case (criterion's not_found side) is pinned:
    host = SimpleGraph.complete(7)
    rainbow = EdgeColoring(
        host, 21, {e: i + 1 for i, e in enumerate(host.edges())}
    )
    got = find_even_chromatic_kst(rainbow, 3, 4)
    assert got.status == "not_found"
    assert isinstance(brute_force_even_kst(rainbow, 3, 4), Miss)
    _report(capsys, 7, f"500 pipeline runs: {found} bipartitions (all verified), "
               f"{misses} misses, not_found always oracle-confirmed")


# -- 8 -----------------------------------------------------------------


def test_acceptance_8_exact_oracle_table(capsys):
    """Exact table for n=4 (r<=3) and n=6 (r<=2): monotone in r, unique
    implies odd, and the forced n=4 unique r=1 entry is false."""
    table = {}
    for mode in ("odd", "unique"):
        for r in (1, 2, 3):
            table[(4, mode, r)] = exact_ramsey(4, mode, r).exists
        for r in (1, 2):
            table[(6, mode, r)] = exact_ramsey(6, mode, r).exists
    assert table[(4, "unique", 1)] is False
    for n, top in ((4, 3), (6, 2)):
        for mode in ("odd", "unique"):
            for r in range(1, top):
                assert not table[(n, mode, r)] or table[(n, mode, r + 1)]
            for r in range(1, top + 1):
                assert not table[(n, mode, r)] or table[(n, "odd", r)]
    rendered = {f"n={k[0]},{k[1]},r={k[2]}": v for k, v in sorted(table.items())}
    _report(capsys, 8, f"oracle table consistent: {rendered}")


def test_acceptance_8_extended_n8_r2(capsys):
    # Branch-and-bound prunes the nominal 2^27 canonical colorings to well
    # under a second, so the extended entry runs unconditionally. Palette
    # 2 = floor(8/4) must fail: no 2-coloring of K_8 keeps a unique color
    # on every Hamilton cycle.
    res = exact_ramsey(8, "unique", 2)
    assert res.exists is False
    assert res.nodes == 524_544
    _report(capsys, "8x", f"extended n=8, r=2 entry false after {res.nodes} nodes")


# -- 9 -----------------------------------------------------------------


def test_acceptance_9_cli_determinism(tmp_path, capsys):
    """Byte-identical stdout across two consecutive runs per command."""
    inst = tmp_path / "inst.json"
    inst.write_text(instance_to_json(random_coloring(8, 2, 12)))
    commands = [
        ["gen", "random", "--n", "12", "--r", "3", "--seed", "5"],
        ["gen", "random", "--n", "20", "--r", "5", "--seed", "988"],
        ["construct", "unique-upper", "--n", "10"],
        ["find", "unique-free", "--input", str(inst)],
        ["find", "even-hamilton", "--input", str(inst)],
        ["find", "even-kst", "--input", str(inst), "--s", "3", "--t", "4"],
        ["oracle", "exact", "--n", "4", "--mode", "unique", "--r", "2"],
        ["verify", "cycles", "--input", str(inst), "--predicate",
         "odd-chromatic"],
        ["export", "dot", "--input", str(inst)],
    ]
    for argv in commands:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        assert first == second, argv
    _report(capsys, 9, f"{len(commands)} commands byte-identical across reruns")
