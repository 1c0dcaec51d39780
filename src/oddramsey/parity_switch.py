"""Even-chromatic Hamilton cycles in 2-colored graphs of minimum degree n/2+2.

The machinery: an odd-chromatic 4-cycle or 6-cycle acts as a parity switch.
Embedding it into a Hamilton cycle in two ways produces two candidate
cycles whose symmetric difference carries the witness's odd parity, so
exactly one candidate is even-chromatic.  When no odd short cycle exists,
the agree/disagree relation on vertex pairs partitions the graph into at
most two blocks and every Hamilton cycle is already even-chromatic.

Candidate pairs are built by segment concatenation: a path covering the
residual graph plus the two short connectors, traversed in the two
inequivalent orders.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from .colored_graph import (
    CycleOrPath,
    EdgeColoring,
    SimpleGraph,
    cycle_census,
    min_degree,
    parity_census,
    symmetric_difference,
)
from .colored_graph import edge as graph_edge
from .errors import (
    BadWitness,
    InternalContradiction,
    NotFoundError,
    PreconditionFailed,
)
from .hamilton import (
    assert_valid_cycle,
    dirac_hamilton_cycle,
    hamilton_path_between,
    search_in_ids,
    short_connector,
    short_connectors,
    strong_ore_path,
)


class _CaseExhausted(InternalContradiction):
    """A boundary configuration the case analysis cannot finish for the
    current hexagon labeling and connector choice; the caller retries the
    other existential choices before giving up."""


class SwitchOutcome(NamedTuple):
    """An even-chromatic Hamilton cycle plus how it was obtained.

    ``candidates`` are the two internally constructed Hamilton cycles and
    ``witness`` is the odd cycle their symmetric difference realizes (by
    edge set, or by parity census for the degree-profile subcases tagged
    ``case-1.2``).  The endgame route produces no candidate pair.
    """

    cycle: CycleOrPath
    provenance: str
    candidates: tuple[CycleOrPath, CycleOrPath] | None = None
    witness: CycleOrPath | None = None


class AgreementPartition(NamedTuple):
    """Vertex partition into at most two blocks of pairwise agreeing vertices."""

    classes: tuple[frozenset[int], ...]


def _check_setting(g: SimpleGraph, chi: EdgeColoring, n_min: int = 4) -> None:
    if chi.host != g:
        raise PreconditionFailed("coloring does not belong to this graph")
    if chi.r != 2:
        raise PreconditionFailed("switching requires a 2-coloring")
    n = g.n
    if n < n_min or n % 2 == 1:
        raise PreconditionFailed(f"need even n >= {n_min}")
    if min_degree(g) < n // 2 + 2:
        raise PreconditionFailed("minimum degree below n/2 + 2")


def _checked_odd_witness(
    g: SimpleGraph, chi: EdgeColoring, cyc: CycleOrPath, length: int
) -> None:
    if not cyc.closed or len(cyc.vertices) != length:
        raise BadWitness(f"witness must be a closed {length}-cycle")
    cyc.validate(g)
    if cycle_census(chi, cyc).is_even_chromatic():
        raise BadWitness("witness cycle is even-chromatic")


def _pick_even(
    g: SimpleGraph,
    chi: EdgeColoring,
    segs1: tuple[Sequence[int], ...],
    segs2: tuple[Sequence[int], ...],
    witness: CycleOrPath,
    provenance: str,
    exact: bool = True,
) -> SwitchOutcome:
    """Join each segment list into a Hamilton cycle and return the even one.

    Exactly one candidate must be even-chromatic.  Their symmetric
    difference must be the witness's edge set, or, for the reroutes of
    case 1.2 (``exact=False``), carry the witness's odd colors.
    """
    cand1, cand2 = (
        CycleOrPath(tuple(chain.from_iterable(segs)), closed=True)
        for segs in (segs1, segs2)
    )
    assert_valid_cycle(g, cand1)
    assert_valid_cycle(g, cand2)
    even1 = cycle_census(chi, cand1).is_even_chromatic()
    if even1 == cycle_census(chi, cand2).is_even_chromatic():
        raise InternalContradiction(
            "candidate cycles do not differ by an odd parity vector"
        )
    diff = symmetric_difference(cand1, cand2)
    if exact and diff != set(witness.edges()):
        raise InternalContradiction("candidates do not differ by the witness")
    if not exact and (
        parity_census(chi, diff).odd_colors != cycle_census(chi, witness).odd_colors
    ):
        raise InternalContradiction("reroute difference lost the witness parity")
    return SwitchOutcome(
        cycle=cand1 if even1 else cand2,
        provenance=provenance,
        candidates=(cand1, cand2),
        witness=witness,
    )


def _orient(p: CycleOrPath, start: int) -> CycleOrPath:
    """``p``, checked to start at ``start``: every caller builds it so."""
    if p.vertices[0] != start:
        raise InternalContradiction(f"path does not start at {start}")
    return p


def _rev(p: CycleOrPath) -> tuple[int, ...]:
    return tuple(reversed(p.vertices))


def switch_c4(
    g: SimpleGraph, chi: EdgeColoring, c4: CycleOrPath
) -> SwitchOutcome:
    """Turn an odd-chromatic 4-cycle u,v,w,x into an even Hamilton cycle.

    A short {v,x}-connector Q avoiding {u,w} plus a Hamilton {u,w}-path P
    of the rest gives the candidates u v Q x w P u and u x Q v w P u, which
    differ exactly in the witness's four edges.
    """
    _check_setting(g, chi)
    _checked_odd_witness(g, chi, c4, 4)
    u, v, w, x = c4.vertices
    q = short_connector(g, v, x, {u, w})
    sub, keep = g.induced(z for z in range(g.n) if z not in q.vertices)
    p = _orient(search_in_ids(hamilton_path_between, sub, keep, u, w), u)
    return _pick_even(
        g, chi, ((u,), q.vertices, _rev(p)[:-1]), ((u,), _rev(q), _rev(p)[:-1]),
        c4, "c4-switch",
    )


def _delegate_if_odd(
    g: SimpleGraph, chi: EdgeColoring, *quads: tuple[int, int, int, int]
) -> SwitchOutcome | None:
    """Run the 4-cycle switch on the first of ``quads`` that is an
    odd-chromatic C4."""
    for quad in quads:
        if len(set(quad)) < 4:
            continue  # degenerate comparison, parity trivially equal
        cyc = CycleOrPath(quad, closed=True)
        cyc.validate(g)
        if cycle_census(chi, cyc).is_odd_chromatic():
            inner = switch_c4(g, chi, cyc)
            return inner._replace(provenance=inner.provenance + " (delegated)")
    return None


def _generic_candidates(
    g: SimpleGraph,
    chi: EdgeColoring,
    hexa: tuple[int, ...],
    q1: CycleOrPath,
    q2: CycleOrPath,
    p: CycleOrPath,
    provenance: str,
) -> SwitchOutcome:
    """Candidate pair a P d c Q2 e f Q1 b a  /  a P d e Q2 c b Q1 f a.

    Their symmetric difference is exactly the hexagon's edge set.
    """
    return _pick_even(
        g, chi, (p.vertices, q2.vertices, _rev(q1)),
        (p.vertices, _rev(q2), q1.vertices), CycleOrPath(hexa, closed=True),
        provenance,
    )


def switch_c6(
    g: SimpleGraph, chi: EdgeColoring, c6: CycleOrPath
) -> SwitchOutcome:
    """Turn an odd-chromatic 6-cycle into an even Hamilton cycle.

    Shortest {b,f}- and {c,e}-connectors are chosen first; the case tree
    then branches on their lengths and on the degree profile of the graph
    left after removing them.  The relabeled re-applications end after at
    most two steps: connectors have length 1 or 2, the dispatcher's swap
    turns lengths (2,1) into (1,2), case 2 recurses on two edge connectors
    (case 1), and case 3 on an edge connector plus a short one (case 1 or
    2).

    The hexagon labeling and the connector interiors are existential
    choices; tight boundary profiles (tiny residual graphs) can strand one
    choice, in which case the twelve dihedral labelings and the remaining
    connector candidates are tried in order before failing.
    """
    _check_setting(g, chi, n_min=6)
    _checked_odd_witness(g, chi, c6, 6)
    vs = c6.vertices
    rotations = [vs[i:] + vs[:i] for i in range(6)]
    labelings = [h for seq in rotations for h in (seq, seq[:1] + seq[:0:-1])]
    last: _CaseExhausted | None = None
    for hexa in labelings:
        a, b, c, d, e, f = hexa
        for q1 in short_connectors(g, b, f, {a, c, d, e}):
            for q2 in short_connectors(g, c, e, {a, d} | set(q1.vertices)):
                try:
                    return _c6_dispatch(g, chi, hexa, q1, q2)
                except _CaseExhausted as exc:
                    last = exc
    raise InternalContradiction(
        f"every hexagon labeling and connector choice stranded: {last}"
    )


def _c6_dispatch(
    g: SimpleGraph,
    chi: EdgeColoring,
    hexa: tuple[int, ...],
    q1: CycleOrPath,
    q2: CycleOrPath,
) -> SwitchOutcome:
    hex_cycle = CycleOrPath(hexa, closed=True)
    hex_cycle.validate(g)
    if cycle_census(chi, hex_cycle).is_even_chromatic():
        raise InternalContradiction("relabeled hexagon lost its odd parity")
    a, b, c, d, e, f = hexa
    q1 = _orient(q1, b)
    q2 = _orient(q2, c)
    len1 = len(q1.vertices) - 1
    len2 = len(q2.vertices) - 1
    if len1 == 1 and len2 == 1:
        return _case1(g, chi, hexa, q1, q2)
    if len1 == 2 and len2 == 1:
        # Swap connector roles via the relabeling a<->d, b<->e, c<->f.
        return _c6_dispatch(
            g, chi, (d, e, f, a, b, c), q2.reversed(), q1.reversed()
        )
    if len1 == 1 and len2 == 2:
        return _case2(g, chi, hexa, q1, q2)
    return _case3(g, chi, hexa, q1, q2)


def _residual(
    g: SimpleGraph, q1: CycleOrPath, q2: CycleOrPath
) -> tuple[SimpleGraph, list[int], dict[int, int]]:
    """The subgraph induced after removing the hexagon's middle and
    connector interiors, its vertices' ids in g (ascending), and their
    degrees in it."""
    removed = set(q1.vertices) | set(q2.vertices)
    sub, keep = g.induced(z for z in range(g.n) if z not in removed)
    degs = {keep[i]: sub.degree(i) for i in range(sub.n)}
    return sub, keep, degs


def _try_ad_path(
    sub: SimpleGraph, keep: list[int], a: int, d: int
) -> CycleOrPath | None:
    """Hamilton {a,d}-path of the residual subgraph, in g's vertex ids."""
    try:
        found = search_in_ids(hamilton_path_between, sub, keep, a, d)
    except NotFoundError:
        return None
    return _orient(found, a)


def _case1(
    g: SimpleGraph,
    chi: EdgeColoring,
    hexa: tuple[int, ...],
    q1: CycleOrPath,
    q2: CycleOrPath,
) -> SwitchOutcome:
    a, b, c, d, e, f = hexa
    sub, keep, degs = _residual(g, q1, q2)
    np = len(keep)
    if any(2 * k < np for k in degs.values()):
        raise InternalContradiction("residual graph lost the half-degree bound")
    high = sum(1 for k in degs.values() if 2 * k >= np + 2)
    low = sum(1 for k in degs.values() if 2 * k == np)
    if 2 * high > np:
        p = _try_ad_path(sub, keep, a, d)
        if p is None:
            raise InternalContradiction(
                "high-degree majority residual graph must admit the path"
            )
        return _generic_candidates(g, chi, hexa, q1, q2, p, "c6-switch case-1.1")
    if 2 * low > np:
        return _case12(g, chi, hexa, q1, q2, sub, keep, degs)
    return _case13(g, chi, hexa, q1, q2, sub, keep, degs)


def _case12(
    g: SimpleGraph,
    chi: EdgeColoring,
    hexa: tuple[int, ...],
    q1: CycleOrPath,
    q2: CycleOrPath,
    sub: SimpleGraph,
    keep: list[int],
    degs: dict[int, int],
) -> SwitchOutcome:
    """Low-degree majority: Dirac cycle avoiding ad, rerouted at an edge
    both of whose endpoints see the whole removed quadruple."""
    a, b, c, d, e, f = hexa
    np = len(keep)
    try:
        found = search_in_ids(
            lambda h, i, j: dirac_hamilton_cycle(h.without_edge(graph_edge(i, j))),
            sub, keep, a, d,
        )
    except (NotFoundError, PreconditionFailed):
        # Tiny residual graphs can make the avoiding cycle impossible;
        # a direct Hamilton {a,d}-path still yields the generic candidates.
        p = _try_ad_path(sub, keep, a, d)
        if p is None:
            raise _CaseExhausted("no reroute edge and no fallback path")
        return _generic_candidates(
            g, chi, hexa, q1, q2, p, "c6-switch case-1.2-path-fallback"
        )
    cyc = list(found.vertices)
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        if 2 * degs[u] == np and 2 * degs[v] == np:
            break
    else:
        raise InternalContradiction(
            "a cycle with a low-degree majority must have two consecutive "
            "low vertices (pigeonhole)"
        )
    in_ad = [z for z in (u, v) if z in (a, d)]
    if len(in_ad) == 2:
        raise InternalContradiction("cycle uses the excluded chord")
    if len(in_ad) == 1:
        return _case122(g, chi, hexa, q1, q2, cyc, in_ad[0],
                        (u if v in in_ad else v))
    return _case121(g, chi, hexa, q1, q2, cyc, u, v)


def _split_arcs(cyc: list[int], a: int, d: int) -> tuple[list[int], list[int]]:
    """Rotate the cycle to start at ``a`` and split at ``d``: returns the
    arc a->..->d and the arc d->..->a (both inclusive)."""
    i = cyc.index(a)
    rot = cyc[i:] + cyc[:i]
    j = rot.index(d)
    return rot[: j + 1], rot[j:] + [a]


def _case121(
    g, chi, hexa, q1, q2, cyc: list[int], u: int, v: int
) -> SwitchOutcome:
    a, b, c, d, e, f = hexa
    arc1, arc2 = _split_arcs(cyc, a, d)
    # v follows u on the cycle and neither is a or d, so the edge uv lies
    # inside one arc: in order on arc1, or reversed on arc2 read from a.
    if u in arc1:
        p1, p2 = arc1, arc2
    else:
        p1, p2 = arc2[::-1], arc1[::-1]
        u, v = v, u
    iu = p1.index(u)
    delegated = _delegate_if_odd(g, chi, (u, b, a, f), (v, c, d, e))
    if delegated is not None:
        return delegated
    p1a, p1b, p2int = p1[: iu + 1], p1[iu + 1 :], p2[1:-1]
    return _pick_even(
        g, chi, (p1a, _rev(q1), q2.vertices, p1b, p2int),
        (p1a, q1.vertices, _rev(q2), p1b, p2int), CycleOrPath(hexa, closed=True),
        "c6-switch case-1.2.1", exact=False,
    )


def _case122(
    g, chi, hexa, q1, q2, cyc: list[int], special: int, v: int
) -> SwitchOutcome:
    a, b, c, d, e, f = hexa
    if special == d:
        # Relabel a<->d, b<->e, c<->f so the special endpoint plays a.
        hexa = (d, e, f, a, b, c)
        q1, q2 = q2.reversed(), q1.reversed()
        a, b, c, d, e, f = hexa
    delegated = _delegate_if_odd(g, chi, (v, c, d, e))
    if delegated is not None:
        return delegated
    arc1, arc2 = _split_arcs(cyc, a, d)
    if arc1[1] == v:
        p1, p2 = arc1, arc2
    elif arc2[-2] == v:
        p1, p2 = arc2[::-1], arc1[::-1]
    else:
        raise InternalContradiction("switch edge not incident to the cut vertex")
    p1p, p2int = p1[1:], p2[1:-1]
    return _pick_even(
        g, chi, (p1p, p2int, (a,), q1.vertices, _rev(q2)),
        (p1p, p2int, (a,), _rev(q1), q2.vertices), CycleOrPath(hexa, closed=True),
        "c6-switch case-1.2.2", exact=False,
    )


def _case13(
    g, chi, hexa, q1, q2, sub: SimpleGraph, keep: list[int], degs: dict[int, int]
) -> SwitchOutcome:
    """Balanced degree profile: either the direct path exists, or the path
    machinery joins two degree-np/2 vertices and the hexagon is relabeled
    around them."""
    a, b, c, d, e, f = hexa
    np = len(keep)
    p = _try_ad_path(sub, keep, a, d)
    if p is not None:
        return _generic_candidates(g, chi, hexa, q1, q2, p, "c6-switch case-1.3")
    lows = sorted(z for z in keep if 2 * degs[z] == np)
    if len(lows) < 2:
        raise _CaseExhausted("balanced case lost its low-degree class")
    u, v = lows[0], lows[1]
    delegated = _delegate_if_odd(g, chi, (u, b, a, f), (v, c, d, e))
    if delegated is not None:
        return delegated
    path = _orient(search_in_ids(strong_ore_path, sub, keep, u, v), u)
    new_hexa = (u, b, c, v, e, f)
    return _generic_candidates(
        g, chi, new_hexa, q1, q2, path, "c6-switch case-1.3"
    )


def _case2(g, chi, hexa, q1, q2) -> SwitchOutcome:
    """One edge connector, one cherry connector."""
    a, b, c, d, e, f = hexa
    sub, keep, degs = _residual(g, q1, q2)
    np = len(keep)
    if any(2 * k < np - 1 for k in degs.values()):
        raise InternalContradiction("residual graph lost the degree bound")
    p = _try_ad_path(sub, keep, a, d)
    if p is not None:
        return _generic_candidates(g, chi, hexa, q1, q2, p, "c6-switch case-2")
    lows = sorted(z for z in keep if 2 * degs[z] == np - 1)
    if len(lows) < 2:
        # The guarantee "at most one low vertex implies the path" only
        # binds for residual graphs above five vertices; at the boundary
        # the caller retries other labelings and connectors.
        raise _CaseExhausted(
            "cherry case with at most one low vertex and no path"
        )
    w, z = lows[0], lows[1]
    delegated = _delegate_if_odd(g, chi, (w, b, a, f), (z, c, d, e))
    if delegated is not None:
        return delegated
    new_hexa = (f, w, b, c, z, e)
    new_q1 = CycleOrPath((w, e))
    new_q2 = CycleOrPath((b, z))
    out = _c6_dispatch(g, chi, new_hexa, new_q1, new_q2)
    return out._replace(provenance="c6-switch case-2 -> " + out.provenance)


_CASE3_LABELINGS = (
    (0, 1, 2, 3, 4, 5),  # identity
    (3, 2, 1, 0, 5, 4),  # a<->d, b<->c, e<->f
    (3, 4, 5, 0, 1, 2),  # a<->d, b<->e, c<->f
    (0, 5, 4, 3, 2, 1),  # b<->f, c<->e
)


def _case3(g, chi, hexa, q1, q2) -> SwitchOutcome:
    """Two cherry connectors."""
    a, b, c, d, e, f = hexa
    sub, keep, degs = _residual(g, q1, q2)
    np = len(keep)
    p = _try_ad_path(sub, keep, a, d)
    if p is not None:
        return _generic_candidates(g, chi, hexa, q1, q2, p, "c6-switch case-3")
    lows = [z for z in keep if 2 * degs[z] <= np]
    if not lows:
        raise _CaseExhausted(
            "both-cherries case with high residual degrees and no path"
        )
    w = lows[0]
    for perm in _CASE3_LABELINGS:
        relabeled = tuple(hexa[i] for i in perm)
        _, rb, _, rd, re_, rf = relabeled
        if w == rd:
            continue  # w would collide with the relabeled hexagon
        if all(g.adjacent(w, x) for x in (rb, re_, rf)):
            break
    else:
        raise InternalContradiction(
            "low vertex misses two of the removed six, contradicting degrees"
        )
    a2, b2, c2, d2, e2, f2 = relabeled
    delegated = _delegate_if_odd(g, chi, (w, b2, a2, f2))
    if delegated is not None:
        return delegated
    new_hexa = (f2, w, b2, c2, d2, e2)
    new_q1 = CycleOrPath((w, e2))
    new_q2 = short_connector(g, b2, d2, {f2, c2, w, e2})
    out = _c6_dispatch(g, chi, new_hexa, new_q1, new_q2)
    return out._replace(provenance="c6-switch case-3 -> " + out.provenance)


# ---------------------------------------------------------------------------
# Agreement partition and the driver
# ---------------------------------------------------------------------------


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def agreement_partition(
    g: SimpleGraph, chi: EdgeColoring
) -> AgreementPartition | CycleOrPath:
    """Classify every vertex pair as agreeing or disagreeing.

    Two vertices agree when every common neighbor sees them in equal
    colors.  A mixed pair yields an odd 4-cycle witness; a transitivity or
    class-count violation yields an odd 6-cycle witness; otherwise the
    verified partition (at most two blocks) is returned.

    Pairs are read off adjacency rows: the common neighbors of x and y
    are ``rows[x] & rows[y]``, and those that see them in different colors
    are that mask ANDed with ``c1[x] ^ c1[y]`` (``c1`` the color-1 rows).
    Each witness is the lowest set bit of its mask, so the first mixed pair
    in lexicographic order gives ``x, a, y, d`` with ``a`` its least
    agreeing and ``d`` its least disagreeing common neighbor.

    Bit y > x of ``agree[x]`` is set iff x and y agree.  Block A is 0 and
    every vertex that agrees with it; the pairs (x, y > x) that break
    transitivity are the bits of ``agree[x]`` XOR x's block above x, and
    the lowest bit of the first nonzero row is the first such pair in
    lexicographic order.

    The 6-cycle route is needed at the degree bound: C5[K_6] (five
    6-cliques on a 5-cycle, n = 30, minimum degree 17 = n/2 + 2) with
    color 2 on exactly the edges between blocks 0 and 1 has an odd hexagon
    (once around with one step inside a block) but no odd 4-cycle, since a
    closed walk of length 4 cannot wind around C5 and so crosses that block
    pair an even number of times.
    """
    _check_setting(g, chi)
    n = g.n
    rows = [g.mask(v) for v in range(n)]
    c1 = chi.color_rows(1)
    agree = [0] * n
    for x in range(n):
        row_x, c1_x, agree_x = rows[x], c1[x], 0
        for y in range(x + 1, n):
            common = row_x & rows[y]
            dis = common & (c1_x ^ c1[y])
            agr = common ^ dis
            if agr and dis:
                wit = CycleOrPath((x, _lowest(agr), y, _lowest(dis)), closed=True)
                assert_valid_cycle(g, wit, hamilton=False)
                if cycle_census(chi, wit).is_even_chromatic():
                    raise InternalContradiction("mixed pair gave even C4")
                return wit
            if not common:
                raise InternalContradiction(
                    "degree bound guarantees common neighbors"
                )
            if agr:
                agree_x |= 1 << y
        agree[x] = agree_x

    full = (1 << n) - 1
    block_a = agree[0] | 1
    for x in range(1, n):
        in_a = block_a >> x & 1
        own = block_a if in_a else full ^ block_a
        bad = agree[x] ^ (own & (full << (x + 1)))
        if bad:
            y = _lowest(bad)
            if own >> y & 1:
                trip = (x, 0, y) if in_a else (0, x, y)
            else:
                trip = (0, x, y) if in_a else (0, y, x)
            return _hexagon_witness(g, chi, trip)

    a = frozenset(v for v in range(n) if block_a >> v & 1)
    b = frozenset(range(n)) - a
    return AgreementPartition((a, b) if b else (a,))


def _hexagon_witness(
    g: SimpleGraph, chi: EdgeColoring, trip: tuple[int, int, int]
) -> CycleOrPath:
    """Odd 6-cycle x u y v z w x from a violating triple (x, y, z)."""
    x, y, z = trip
    taken = 1 << x | 1 << y | 1 << z
    chosen: list[int] = []
    for p, q in ((x, y), (y, z), (z, x)):
        free = g.mask(p) & g.mask(q) & ~taken
        if not free:
            raise InternalContradiction(
                f"no free common neighbor of {p} and {q} for the hexagon"
            )
        chosen.append(_lowest(free))
        taken |= 1 << chosen[-1]
    u, v, w = chosen
    wit = CycleOrPath((x, u, y, v, z, w), closed=True)
    assert_valid_cycle(g, wit, hamilton=False)
    if cycle_census(chi, wit).is_even_chromatic():
        raise InternalContradiction("violating triple gave an even hexagon")
    return wit


def find_even_hamilton_2col(
    g: SimpleGraph, chi: EdgeColoring
) -> SwitchOutcome:
    """Driver: some Hamilton cycle of g is even-chromatic; find one.

    An odd 4- or 6-cycle witness routes into the corresponding switch;
    a clean agreement partition makes every Hamilton cycle even-chromatic,
    so any one found under the Dirac condition is returned after its census
    is re-verified.  A failing final census would be a genuine
    counterexample and is surfaced loudly.
    """
    _check_setting(g, chi)
    res = agreement_partition(g, chi)
    if isinstance(res, CycleOrPath):
        if len(res.vertices) == 4:
            out = switch_c4(g, chi, res)
        else:
            out = switch_c6(g, chi, res)
    else:
        cyc = dirac_hamilton_cycle(g)
        out = SwitchOutcome(cyc, "agreement-endgame")
    assert_valid_cycle(g, out.cycle)
    if not cycle_census(chi, out.cycle).is_even_chromatic():
        raise InternalContradiction(
            "driver produced an odd-chromatic Hamilton cycle; this would "
            "contradict the underlying theorem"
        )
    return out
