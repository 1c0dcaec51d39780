"""Explicit colorings, seeded instance generators, and exact oracles.

The generators use SplitMix64 so that identical (n, r, seed) inputs give
bit-identical instances on every platform; the update is documented in
:func:`splitmix64_next` and fixtures are frozen in the test suite.

The exact oracle enumerates colorings canonically up to color-class
permutation (the first edge gets color 1 and each new color is introduced
in order), pruning a branch as soon as some fully-colored Hamilton cycle
violates the requested predicate.  It checks the cycles bit-sliced: each
Hamilton cycle of K_n owns a few lane bits, one per tracked color, in two
big ints carried down the search, so coloring an edge is one or three int
operations and the cycles that close at that edge are tested together by
one masked add; the nodes above the first closing edge, which cannot
prune, are tested in batches of leaves (see :func:`exact_ramsey`).

:func:`verify_every_cycle` checks one coloring without listing its
Hamilton cycles: a Held–Karp table over (visited set, endpoint) holds the
color states the paths from vertex 0 can reach, and one walk over the
table recovers the first failing cycle of the canonical enumeration order.
The table has two layouts.  has-unique-color keeps a set of saturating
per-color counts in each cell, and its budget counts those states.  The
parity predicates keep one flat array of 2^(n-1) endpoint bitmasks per
parity vector of the colors present but one (the cycle's length fixes the
last), and their budget counts arrays times masks before any is allocated:
a 2-colored K_16 takes 2 x 32,768 = 65,536 cells.  Past the budget, its
one work limit, it raises CapExceeded, so a parity check with k colors
present on n vertices is capped once 2^(k-1) * 2^(n-1) passes 1,000,000
(k >= 6 at n = 16, k >= 10 at n = 12) whatever states its paths reach;
odd-chromatic on an odd n needs no table, since every Hamilton cycle has
odd length and so some color an odd number of times.
"""

from __future__ import annotations

from typing import NamedTuple

from .colored_graph import (
    CycleOrPath,
    EdgeColoring,
    SimpleGraph,
    _bits,
    cycle_census,
)
from .errors import CapExceeded, InternalContradiction, PreconditionFailed

_MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: new state and output word.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes
    state' by two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9,
    0x94D049BB133111EB) and a final 31-bit xor-shift.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def unique_upper_coloring(n: int) -> EdgeColoring:
    """The (n/2+1)-coloring under which every Hamilton cycle has a unique color.

    Vertices 0..n/2 form the large block, the rest the small one.  Edges
    inside either block get color 1; a crossing edge takes the color
    indexed by its large-block endpoint (vertex i maps to color i+1).  The
    n x n color table is written row by row from these two rules.
    """
    if n < 4 or n % 2 == 1:
        raise PreconditionFailed("construction needs even n >= 4")
    big = n // 2 + 1  # vertices 0..n//2
    small = n - big
    table = [[1] * big + [u + 1] * small for u in range(big)]
    table += [list(range(1, big + 1)) + [1] * small for _ in range(small)]
    for u in range(n):
        table[u][u] = 0
    return EdgeColoring._from_table(SimpleGraph.complete(n), big, table)


_PREDICATES = {
    "has-unique-color": lambda census: census.has_unique_color(),
    "odd-chromatic": lambda census: census.is_odd_chromatic(),
    "even-chromatic": lambda census: census.is_even_chromatic(),
}


# Cells the verification table may hold: color states summed over the
# cells of the has-unique-color table, endpoint bitmasks (one per parity
# vector and visited set) for the parity predicates.  The largest table
# the test suite builds, unique-upper n=12 under has-unique-color, holds
# about 372,000 states.
TABLE_STATE_BUDGET = 1_000_000
# Largest host either table is built for: a 2-colored K_16 parity table
# holds 65,536 endpoint bitmasks, while a has-unique-color table on a
# larger host can take many seconds to reach the budget.
TABLE_MAX_N = 16


def _over_budget() -> CapExceeded:
    return CapExceeded(
        f"cycle verification table passed {TABLE_STATE_BUDGET} color states"
    )


def _unique_rules(present: list[int]):
    """``(code, extend, combine, violates)`` for has-unique-color's states.

    A state keeps a two-bit count per color present that saturates at 2,
    so the "seen once" bits sit at the even positions.  ``code`` maps a
    color to the state of one edge of it, ``extend(states, e)`` adds such
    an edge to each state of a set, ``combine`` joins the states of two
    edge-disjoint paths, and ``violates`` tests a whole cycle.
    """
    once = (4 ** len(present) - 1) // 3

    def combine(a: int, b: int) -> int:
        many = (a | b) >> 1 & once | a & b & once
        return many << 1 | (a | b) & once & ~many

    return (
        {c: 1 << 2 * i for i, c in enumerate(present)},
        lambda states, e: {s if s & e << 1 else s + e for s in states},
        combine,
        lambda x: not x & once,
    )


def _parity_rules(present: list[int], predicate: str, n: int):
    """``(flips, violates)`` for the parity predicates' states.

    A state is the parity vector of the colors present but the last, one
    bit each: ``flips`` maps a color to the bit an edge of it flips, 0 for
    the last color.  A Hamilton cycle has n edges, so its last color's
    count is even iff the tracked counts sum to n's parity, and every
    count is even iff the state is 0 and n is even.  Absent colors always
    count 0.
    """
    flips = {c: 1 << i for i, c in enumerate(present[:-1])}
    flips.update({c: 0 for c in present[-1:]})

    def every_even(x: int) -> bool:
        return x == 0 and n % 2 == 0

    if predicate == "odd-chromatic":
        return flips, every_even
    return flips, lambda x: not every_even(x)


def _units(chi: EdgeColoring, code: dict[int, int]) -> list[list[int]]:
    """``units[v][w]``: the state of edge vw (``code`` of its color), 0 off
    the host."""
    code = {0: 0, **code}
    return [[code[c] for c in chi.row(v)] for v in range(chi.host.n)]


def _path_state_table(units: list[list[int]], rows: list[int], extend):
    """Held–Karp table over the paths from vertex 0; CapExceeded past budget.

    ``table[mask][v]`` is the set of color states of the paths that start
    at 0, end at v and visit exactly the vertices of ``mask``.  Each layer
    adds one vertex; equal state sets share one frozenset.
    """
    layer = {1: {0: frozenset((0,))}}
    table = dict(layer)
    shared: dict[frozenset, frozenset] = {}
    stored = 1
    for _ in range(len(rows) - 1):
        grown: dict[int, dict[int, set[int]]] = {}
        for mask, cells in layer.items():
            for v, states in cells.items():
                for w in _bits(rows[v] & ~mask):
                    out = grown.setdefault(mask | 1 << w, {}).setdefault(w, set())
                    before = len(out)
                    out |= extend(states, units[v][w])
                    stored += len(out) - before
                    if stored > TABLE_STATE_BUDGET:
                        raise _over_budget()
        layer = {
            mask: {w: shared.setdefault(fs := frozenset(out), fs)
                   for w, out in cells.items()}
            for mask, cells in grown.items()
        }
        table.update(layer)
    return table


def _parity_tables(chi: EdgeColoring, flips: dict[int, int]) -> list[list[int]]:
    """Flat Held–Karp tables for the parity predicates; CapExceeded past budget.

    A path's state is its parity vector over the colors present but one:
    ``flips`` maps each color present to the state bit it flips, 0 for the
    untracked one, whose parity the path's length fixes.  ``tables[s]``
    holds 2^(n-1) endpoint bitmasks, indexed by ``mask >> 1``: bit w of
    ``tables[s][mask >> 1]`` is set iff some path from vertex 0 visiting
    exactly ``mask`` ends at w with state s.  Arrays times masks is
    checked against the budget before any is allocated.  Masks are filled
    in increasing order, each pulled over its last vertex w: a path ends
    at w in state s iff, for some color c, a path through ``mask`` less w
    ends in state ``s ^ flips[c]`` at a c-neighbor of w, which is one AND
    of that entry with w's row of color c.
    """
    n = chi.host.n
    size = 1 << n - 1
    count = 1 << max(len(flips) - 1, 0)
    if count * size > TABLE_STATE_BUDGET:
        raise _over_budget()
    tables = [[0] * size for _ in range(count)]
    tables[0][0] = 1  # the path (0,)
    pulls = [(f, chi.color_rows(c)) for c, f in flips.items()]
    sources = [
        [[(tables[s ^ f], rows[w]) for f, rows in pulls if rows[w]]
         for w in range(n)]
        for s in range(count)
    ]
    for m in range(1, size):
        steps = []  # (endpoint bit, index without it, endpoint) per w in mask
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            steps.append((low << 1, m ^ low, low.bit_length()))
        for out, by_end in zip(tables, sources):
            ends = 0
            for bit, before, w in steps:
                for table, row in by_end[w]:
                    if table[before] & row:
                        ends |= bit
                        break
            out[m] = ends
    return tables


def _first_violating_cycle(states, units, rows, combine, violates):
    """The lexicographically first violating closed Hamilton path from 0.

    ``states(mask, w)`` lists the states of the paths from 0 to w that
    visit exactly ``mask``, read off either table layout.  Each step takes
    the smallest unvisited neighbour w whose completion can still violate:
    some path from 0 to w through the unvisited vertices (that path
    reversed closes the cycle) combines with the prefix into a violating
    state.  The first such path is canonical, since its reversal would
    violate too and be smaller, so it is the first failing cycle of the
    canonical enumeration.  None when no cycle violates.
    """
    n = len(rows)
    full = (1 << n) - 1
    path, mask, state = [0], 1, 0
    while len(path) < n:
        u = path[-1]
        rest = full ^ mask | 1
        for w in _bits(rows[u] & ~mask):
            step = combine(state, units[u][w])
            if any(violates(combine(step, t)) for t in states(rest, w)):
                break
        else:
            if u == 0:
                return None
            raise InternalContradiction(f"no violating completion of {path}")
        path.append(w)
        mask |= 1 << w
        state = step
    return CycleOrPath(tuple(path), closed=True)


def verify_every_cycle(
    chi: EdgeColoring, predicate: str
) -> tuple[bool, CycleOrPath | None]:
    """Check the predicate on every Hamilton cycle of the host.

    Returns (True, None) or (False, first failing cycle in canonical
    enumeration order).  No cycle is listed: a Held–Karp table carries the
    color states of the paths from vertex 0, the predicate fails iff some
    closed path reaches a violating state, and one greedy walk over the
    table recovers the first failing cycle, which is re-checked by its
    census.  has-unique-color keeps a set of saturating counts per cell
    (``_path_state_table``); the parity predicates keep flat endpoint
    bitmasks per parity vector (``_parity_tables``).  A table that would
    hold more than ``TABLE_STATE_BUDGET`` cells raises CapExceeded, and so
    does a host above ``TABLE_MAX_N`` vertices; no cycle is enumerated
    either way.  On odd n, odd-chromatic holds without a table: a cycle of
    odd length has some color an odd number of times.
    """
    try:
        pred = _PREDICATES[predicate]
    except KeyError:
        raise PreconditionFailed(
            f"unknown predicate {predicate!r}; choose from {sorted(_PREDICATES)}"
        ) from None
    n = chi.host.n
    if n > TABLE_MAX_N:
        raise CapExceeded(
            f"cycle verification capped at n <= {TABLE_MAX_N}, got n = {n}"
        )
    if n < 3 or predicate == "odd-chromatic" and n % 2:
        return True, None
    present = sorted(chi.colors_present())
    rows = [chi.host.mask(v) for v in range(n)]
    if predicate == "has-unique-color":
        code, extend, combine, violates = _unique_rules(present)
        units = _units(chi, code)
        table = _path_state_table(units, rows, extend)

        def states(mask: int, w: int):
            return table.get(mask, {}).get(w, ())

    else:
        code, violates = _parity_rules(present, predicate, n)
        tables = _parity_tables(chi, code)
        units, combine = _units(chi, code), int.__xor__

        def states(mask: int, w: int):
            return [s for s, t in enumerate(tables) if t[mask >> 1] >> w & 1]

    cyc = _first_violating_cycle(states, units, rows, combine, violates)
    if cyc is None:
        return True, None
    if pred(cycle_census(chi, cyc)):
        raise InternalContradiction(f"table counterexample {cyc.vertices} holds")
    return False, cyc


class OracleResult(NamedTuple):
    """Outcome of the exact oracle: an upper-bound witness or exhaustion.

    ``exists`` answers "is there an r-coloring making every Hamilton cycle
    satisfy the predicate"; ``witness`` carries the certifying coloring,
    ``nodes`` the number of search-tree nodes expanded, and ``scheme`` the
    canonical-form reduction applied.
    """

    exists: bool
    witness: EdgeColoring | None
    nodes: int
    scheme: str = "color-class-canonical: first edge color 1, new colors in order"


def _oracle_cap_ok(n: int, r: int) -> bool:
    if r <= 1:
        return n <= 10
    if r == 2:
        return n <= 8
    if r == 3:
        return n <= 6
    return n <= 5


def _cycle_lanes(host: SimpleGraph, width: int) -> tuple[list[int], list[int]]:
    """``(through, closing)`` masks over the Hamilton cycles of the host.

    Cycles are numbered by their highest edge index (edges in lexicographic
    order; ties in canonical enumeration order), and cycle c owns the
    ``width`` bits from ``c * width``.  ``through[j]`` sets the lowest of
    those bits for every cycle using edge j, ``closing[i]`` for every cycle
    whose highest edge is i.  The cycles closing at one edge therefore fill
    one bit window, low in the ints for the first closing edges, which
    carry most search nodes.  Each mask is filled in a bytearray and
    converted once, in time linear in the total length of the cycles.
    """
    # Imported here, its one use, so that no other command loads hamilton.
    from .hamilton import enumerate_hamilton_cycles

    index = [[0] * host.n for _ in range(host.n)]
    for j, (u, v) in enumerate(host.edges()):
        index[u][v] = index[v][u] = j
    m = host.edge_count()
    by_top: list[list[list[int]]] = [[] for _ in range(m)]
    for cyc in enumerate_hamilton_cycles(host):
        vs = cyc.vertices
        es = [index[a][b] for a, b in zip(vs, vs[1:] + vs[:1])]
        by_top[max(es)].append(es)
    size = (sum(map(len, by_top)) * width + 7) // 8
    through = [bytearray(size) for _ in range(m)]
    closing = [bytearray(size) for _ in range(m)]
    pos = 0
    for top, cycles in enumerate(by_top):
        for es in cycles:
            byte, bit = pos >> 3, 1 << (pos & 7)
            for e in es:
                through[e][byte] |= bit
            closing[top][byte] |= bit
            pos += width
    return (
        [int.from_bytes(b, "little") for b in through],
        [int.from_bytes(b, "little") for b in closing],
    )


# Most leaves one batch of the exact oracle tests at once.
BATCH_LEAVES = 4096


def _paint(odd: bool, q: int, seen: int, many: int) -> tuple[int, int]:
    """The exact oracle's lanes after one more edge in each lane set in q:
    a parity flip in odd mode, a count saturating at two in unique mode."""
    return (seen ^ q, many) if odd else (seen | q, many | seen & q)


def _batches(spread, closing, lanes: int, palette: int, odd: bool) -> list:
    """The exact oracle's batches, indexed by their first edge.

    A batch at edge i covers edges i..e-1, none of which closes a cycle,
    where e is the next edge that does, and it has at most
    ``BATCH_LEAVES`` leaves (colorings of those edges, the first edge's
    color most significant).  Its entry is ``(e, leaves, cols)``: for each
    lane bit p of a cycle closing at e, ``cols[p]`` holds two leaf-indexed
    ints, bit y of which is the ``seen`` and ``many`` bit that leaf y's
    colors put in lane bit p.  Entries grow from e downwards, one edge's
    colors at a time.
    """
    batches: list = [None] * len(spread)
    for i in reversed(range(len(spread) - 1)):
        if closing[i]:
            continue
        if closing[i + 1]:
            end, leaves = i + 1, 1
            cols = {p: (0, 0) for g in _bits(closing[end]) for p in range(g, g + lanes)}
        elif batches[i + 1] is None:
            continue
        if leaves * palette > BATCH_LEAVES:
            continue
        ones = (1 << leaves) - 1
        grown = {}
        for p, (s, t) in cols.items():
            parts = [
                _paint(odd, ones, s, t) if q >> p & 1 else (s, t) for q in spread[i]
            ]
            grown[p] = tuple(
                sum(x << k * leaves for k, x in enumerate(col)) for col in zip(*parts)
            )
        cols, leaves = grown, leaves * palette
        batches[i] = (end, leaves, cols)
    return batches


def exact_ramsey(n: int, mode: str, r: int) -> OracleResult:
    """Decide whether some r-coloring of K_n leaves every Hamilton cycle
    odd-chromatic (mode "odd") or with a unique color (mode "unique").

    Colorings are enumerated up to color-class permutation; a branch dies
    on the first fully-colored violating cycle, that is, when the edge it
    colors is the highest edge of some cycle that then fails.

    The check is bit-sliced over the cycles (``_cycle_lanes``): each cycle
    owns one lane bit per tracked color and a guard bit above them, in two
    ints carried down the recursion.  In unique mode every color is tracked
    and coloring edge i with color k sets ``many |= seen & q`` and then
    ``seen |= q``, where q is ``through[i]`` shifted to lane k; a lane then
    says "exactly once" iff its ``seen`` and ``many`` bits differ.  In odd
    mode a lane is the parity of its color, ``seen ^= q``, and ``many``
    stays 0.  A cycle is good iff one of its lanes is set, and adding the
    all-lanes mask carries exactly those cycles into their guard bits, so
    the cycles closing at edge i pass together iff ``(x + window) & guard``
    equals ``guard``, with x the lanes of those cycles and window, guard
    their lane and guard bits.  The test reads only that bit window and
    runs before the full update, which only surviving branches pay.

    Odd mode tracks r - 1 colors: for even n a cycle has even length, so
    the last color's count is even iff all the others' sum is, and all r
    counts are even iff the first r - 1 are.  For odd n every cycle has an
    odd count of some color, no branch can die, and no cycle is listed.
    Colors above m = C(n, 2) never occur, so they are not tracked either.

    Nodes that color no closing edge never die, so where every color is
    already in use and the next closing edge e is near, the whole subtree
    down to e is tested at once (``_batches``): the lanes of the cycles
    closing at e become leaf-indexed ints, and a few big-int operations per
    cycle give, for each color of e, the leaves that pass.  Only those are
    expanded, in search order, and the nodes the search would have visited
    are counted, up to the leaf that succeeds if one does.  A witness is
    re-checked by ``verify_every_cycle``, which lists no cycle.
    """
    if mode not in ("odd", "unique"):
        raise PreconditionFailed("mode must be 'odd' or 'unique'")
    if n < 3 or r < 1:
        raise PreconditionFailed("need n >= 3 and r >= 1")
    if not _oracle_cap_ok(n, r):
        raise CapExceeded(f"exact oracle capped below n={n}, r={r}")
    host = SimpleGraph.complete(n)
    edges = list(host.edges())
    m = len(edges)
    odd = mode == "odd"
    palette = min(r, m)
    lanes = palette - 1 if odd else palette
    if odd and n % 2:
        through = closing = [0] * m
    else:
        through, closing = _cycle_lanes(host, lanes + 1)
    spread = [[q << k for k in range(lanes)] + [0] * (palette - lanes)
              for q in through]
    windows = [c * ((1 << lanes) - 1) for c in closing]
    guards = [c << lanes for c in closing]
    batches = _batches(spread, closing, lanes, palette, odd)
    assignment = [0] * m
    nodes = 0

    def assign(i: int, used: int, seen: int, many: int) -> bool:
        nonlocal nodes
        nodes += 1
        if i == m:
            return True
        if used == palette and batches[i]:
            return expand(i, seen, many)
        qs, window, guard = spread[i], windows[i], guards[i]
        if guard:
            # The closing cycles use edge i, so color k flips lane k of
            # each unless that lane is already "many".
            many_w = many & window
            once = seen & window ^ many_w
            flip = window ^ many_w
        for k in range(used + 1 if used < palette else palette):
            q = qs[k]
            if guard and (once ^ q & flip) + window & guard != guard:
                continue
            # _paint, inlined: this loop runs once per search node
            s, t = (seen ^ q, many) if odd else (seen | q, many | seen & q)
            if assign(i + 1, used + (k == used), s, t):
                assignment[i] = k + 1
                return True
        return False

    def expand(i: int, seen: int, many: int) -> bool:
        nonlocal nodes
        e, leaves, cols = batches[i]
        ones = (1 << leaves) - 1
        passes = [ones] * palette
        for g in _bits(closing[e]):
            once, fresh = [], []
            for p in range(g, g + lanes):
                s, t = cols[p]
                if seen >> p & 1:
                    s, t = _paint(odd, ones, s, t)
                if many >> p & 1:
                    t = ones
                once.append(s ^ t)
                s, t = _paint(odd, ones, s, t)  # after edge e in this lane
                fresh.append(s ^ t)
            for k in range(palette):
                good = fresh[k] if k < lanes else 0
                for d, x in enumerate(once):
                    if d != k:
                        good |= x
                passes[k] &= good
        union = 0
        for x in passes:
            union |= x
        depth = e - i

        def walk(j: int, y: int, seen: int, many: int) -> bool:
            # Leaf y's first j edges are colored; enter only passing leaves.
            nonlocal nodes
            if j == depth:
                for k in range(palette):
                    if passes[k] >> y & 1 and assign(
                        e + 1, palette, *_paint(odd, spread[e][k], seen, many)
                    ):
                        assignment[e] = k + 1
                        nodes += visited(y)
                        return True
                return False
            span = palette ** (depth - j - 1)
            for c in range(palette):
                z = y + c * span
                if union >> z & (1 << span) - 1 and walk(
                    j + 1, z, *_paint(odd, spread[i + j][c], seen, many)
                ):
                    assignment[i + j] = c + 1
                    return True
            return False

        def visited(y: int) -> int:
            # nodes below i the search visits up to and including leaf y
            return sum(y // palette ** (depth - j) + 1 for j in range(1, depth + 1))

        if walk(0, 0, seen, many):
            return True
        nodes += visited(leaves - 1)
        return False

    if assign(0, 0, 0, 0):
        witness = EdgeColoring(
            host, r, {e: assignment[i] for i, e in enumerate(edges)}
        )
        predicate = "odd-chromatic" if odd else "has-unique-color"
        if not verify_every_cycle(witness, predicate)[0]:
            raise InternalContradiction(f"oracle witness fails {predicate}")
        return OracleResult(True, witness, nodes)
    return OracleResult(False, None, nodes)


def random_coloring(n: int, r: int, seed: int) -> EdgeColoring:
    """Uniform i.i.d. coloring of K_n, bit-reproducible from the seed.

    Edges are visited in lexicographic order; each takes color
    1 + (splitmix64 output mod r).
    """
    if r < 1:
        raise PreconditionFailed("palette size must be at least 1")
    host = SimpleGraph.complete(n)
    return random_edge_coloring(host, r, seed)


def random_edge_coloring(g: SimpleGraph, r: int, seed: int) -> EdgeColoring:
    """Seeded uniform coloring of an arbitrary host.

    Edges are visited in lexicographic order and each takes color
    1 + (splitmix64 output mod r), written straight into both cells of
    the n x n color table.
    """
    if r < 1:
        raise PreconditionFailed("palette size must be at least 1")
    state = seed & _MASK64
    table = [[0] * g.n for _ in range(g.n)]
    for u, row in enumerate(table):
        for v in g.neighbors(u):
            if v > u:
                state, word = splitmix64_next(state)
                row[v] = table[v][u] = 1 + word % r
    return EdgeColoring._from_table(g, r, table)


def random_min_degree_graph(n: int, dmin: int, seed: int) -> SimpleGraph:
    """Seeded graph with minimum degree at least ``dmin``.

    Starting from K_n, edges are visited in a seeded shuffle and removed
    whenever both endpoints stay above the degree floor, yielding a sparse
    graph at the floor.
    """
    if not 0 <= dmin <= n - 1:
        raise PreconditionFailed("degree floor out of range")
    es = [(u, v) for u in range(n) for v in range(u + 1, n)]
    state = seed & _MASK64
    for i in range(len(es) - 1, 0, -1):
        state, word = splitmix64_next(state)
        j = word % (i + 1)
        es[i], es[j] = es[j], es[i]
    deg = [n - 1] * n
    kept = []
    for u, v in es:
        state, word = splitmix64_next(state)
        if deg[u] > dmin and deg[v] > dmin and word % 4 != 0:
            deg[u] -= 1
            deg[v] -= 1
        else:
            kept.append((u, v))
    return SimpleGraph(n, kept)
