"""Hamilton cycles without unique colors in r-colored complete graphs, r <= n/4.

Pipeline: (1) a maximal family of disjoint monochromatic claws in distinct
colors, with dangerous leaves exchanged away; (2) per-color cherry or
2-matching harvests inside the remaining vertex set, claw splitting, and
virtual twins for the singletons; (3) path merging across free or paired
unused endpoint edges; (4) path merging through cherries centered in the
remaining set; (5) closing through a contracted auxiliary graph.  A color
leaves ``unused`` only when two occurrences are locked into preserved
structures (or it occurs nowhere), so the final census can never hit
exactly one.  Every color outside ``unused`` is free.

A vertex is dangerous while it centers a claw in an unused color with all
leaves inside the remaining set; the pipeline never leaves a dangerous
path endpoint behind, which bounds the unused-colored edges at every
attachment point.

Deviation from the bare exchange argument: a greedy-maximal claw family
can genuinely meet the "second disjoint unused claw" configuration that a
maximum family rules out.  When that happens the family is enlarged by the
offending claw and the stage restarts, realizing the exchange argument
constructively instead of failing.

Virtual twins proxy their real vertex's colors toward every merge
candidate (not only the remaining set): a merge through the twin
contracts, after expansion, to the same real edge with the same color, and
without the proxy the endpoint-pair bound on surviving paths fails.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations
from math import comb
from typing import NamedTuple

from .colored_graph import (
    CycleOrPath,
    EdgeColoring,
    ParityCensus,
    SimpleGraph,
    cycle_census,
)
from .errors import InternalContradiction, NotFoundError, PreconditionFailed
from .hamilton import assert_valid_cycle, dirac_hamilton_cycle
from .hamilton import hamilton_path_between, search_in_ids


class Claw(NamedTuple):
    center: int
    leaves: tuple[int, int, int]
    color: int

    def vertices(self) -> set[int]:
        return {self.center, *self.leaves}


class _State:
    """A mutable record over ``__slots__``: repr and equality by field value."""

    __slots__ = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


class ColorLedger(_State):
    """The unused colors plus the ordered transition log; every other color
    of the palette is free."""

    __slots__ = ("palette", "unused", "history")

    def __init__(self, palette: int, unused: set[int],
                 history: list[dict] | None = None):
        self.palette = palette
        self.unused = unused
        self.history = [] if history is None else history

    @classmethod
    def fresh(cls, palette: int) -> "ColorLedger":
        return cls(palette, set(range(1, palette + 1)))

    def free_color(self, color: int, reason: str, **info) -> None:
        if color not in self.unused:
            raise InternalContradiction(f"color {color} freed twice")
        self.unused.discard(color)
        self.note("free-color", color=color, reason=reason, **info)

    def note(self, event: str, **info) -> None:
        self.history.append({"event": event, **info})

    def reset_epoch(self, seed_colors: set[int], note: str) -> None:
        self.unused = set(range(1, self.palette + 1)) - seed_colors
        self.history.append({"event": "restart", "note": note})


class PreservedCollection(_State):
    """Mutable pipeline state: claws, preserved paths, remaining vertices.

    ``paths`` hold vertex lists (2 or more vertices each once the claws are
    split); a merge cherry's center leaves ``remaining`` for its path;
    virtual twins map through ``virtual_real`` and all their stub edges
    carry the one ``gadget_color``.
    """

    __slots__ = ("n", "claws", "paths", "remaining", "virtual_real",
                 "gadget_color")

    def __init__(self, n: int, claws: list[Claw] | None = None,
                 paths: list[list[int]] | None = None,
                 remaining: set[int] | None = None,
                 virtual_real: dict[int, int] | None = None,
                 gadget_color: int | None = None):
        self.n = n
        self.claws = [] if claws is None else claws
        self.paths = [] if paths is None else paths
        self.remaining = set() if remaining is None else remaining
        self.virtual_real = {} if virtual_real is None else virtual_real
        self.gadget_color = gadget_color

    def color_fn(self, chi: EdgeColoring):
        vr, gc = self.virtual_real, self.gadget_color

        def col(x: int, y: int) -> int:
            if vr.get(x) == y or vr.get(y) == x:
                return gc
            return chi.color(vr.get(x, x), vr.get(y, y))

        return col


class UniqueFreeResult(NamedTuple):
    cycle: CycleOrPath
    census: ParityCensus
    ledger: ColorLedger


# ---------------------------------------------------------------------------
# Step 1: claw collection and dangerous-leaf resolution
# ---------------------------------------------------------------------------


def _first_claw(
    chi: EdgeColoring, v: int, pool: list[int], unused: set[int]
) -> Claw | None:
    """The claw at v in the smallest unused color with three leaves in
    ``pool`` (increasing, without v), on its first three such leaves.

    One pass buckets the pool by the color of each vertex's edge to v.
    Buckets fill in increasing vertex order, so a bucket's first three
    entries are the three leaves a scan of the pool for that one color
    would take, and the smallest unused color whose bucket holds three is
    the first color a per-color scan in increasing order would accept.
    Bucket 0 collects non-edges and raises as ``chi.color`` would; in the
    pipeline it stays empty, as the host is checked complete and virtual
    twins appear only after the harvest.  Every caller draws v and the
    pool from ``range(n)``.
    """
    if not unused:
        return None
    row = chi.row(v)
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for z in pool:
        buckets[row[z]].append(z)
    if 0 in buckets:
        raise PreconditionFailed(
            f"edge {v}-{buckets[0][0]} is not in the coloring's host graph"
        )
    c = min(
        (c for c, b in buckets.items() if len(b) >= 3 and c in unused),
        default=None,
    )
    return None if c is None else Claw(v, tuple(buckets[c][:3]), c)


def _dangerous_witness(
    chi: EdgeColoring, v: int, remaining: set[int], unused: set[int]
) -> Claw | None:
    """First claw (min color, lexicographic leaves) showing v is dangerous:
    one bucket pass over v's color row, see :func:`_first_claw`."""
    return _first_claw(chi, v, sorted(remaining - {v}), unused)


def _greedy_claws(
    chi: EdgeColoring, seed: list[Claw], ledger: ColorLedger
) -> PreservedCollection:
    """Extend ``seed`` to a maximal claw family: centers in increasing id,
    colors in increasing id, leaves lexicographic.  Each center buckets its
    color row once over the vertices not yet used (:func:`_first_claw`)."""
    n = chi.host.n
    used: set[int] = set()
    for claw in seed:
        used |= claw.vertices()
    claws = list(seed)
    for x0 in range(n):
        if x0 in used:
            continue
        pool = [v for v in range(n) if v != x0 and v not in used]
        claw = _first_claw(chi, x0, pool, ledger.unused)
        if claw is not None:
            claws.append(claw)
            used |= claw.vertices()
            ledger.free_color(
                claw.color, "claw", center=x0, leaves=list(claw.leaves)
            )
    coll = PreservedCollection(
        n=n, claws=claws, remaining=set(range(n)) - used
    )
    for v in sorted(coll.remaining):
        if _dangerous_witness(chi, v, coll.remaining, ledger.unused):
            raise InternalContradiction(
                f"greedy certificate failed: vertex {v} is dangerous inside R"
            )
    return coll


def max_claw_collection(
    chi: EdgeColoring, ledger: ColorLedger | None = None
) -> PreservedCollection:
    """Maximal family of disjoint monochromatic claws in distinct colors.

    Maximality certificate: no vertex of the remaining set centers a claw
    in a still-unused color with leaves in the remaining set.
    """
    if not chi.host.is_complete():
        raise PreconditionFailed("the pipeline works on colored complete graphs")
    if ledger is None:
        ledger = ColorLedger.fresh(chi.r)
    return _greedy_claws(chi, [], ledger)


def resolve_dangerous(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> PreservedCollection:
    """Exchange away dangerous claw leaves.

    A dangerous leaf's witness claw replaces its host claw; the two other
    leaves and the center retire as a monochromatic cherry.  If one of
    those two is itself still dangerous, the two witness claws certify that
    the family was not maximum: it is enlarged and the stage restarts.
    """
    while True:
        seed = _exchange_pass(chi, coll, ledger)
        if seed is None:
            break
        ledger.reset_epoch(
            {cl.color for cl in seed},
            f"maximality exchange enlarged the claw family to {len(seed)}",
        )
        coll = _greedy_claws(chi, seed, ledger)
    _assert_no_dangerous(chi, coll, ledger)
    _assert_disjoint(coll)
    return coll


def _exchange_pass(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> list[Claw] | None:
    """One sweep over the claws; returns an enlarged seed on the bad case."""
    i = 0
    while i < len(coll.claws):
        claw = coll.claws[i]
        witness = None
        for leaf in claw.leaves:
            witness = _dangerous_witness(chi, leaf, coll.remaining, ledger.unused)
            if witness is not None:
                break
        if witness is None:
            i += 1
            continue
        others = [x for x in claw.leaves if x != witness.center]
        coll.claws[i] = witness
        coll.remaining -= set(witness.leaves)
        ledger.free_color(
            witness.color,
            "dangerous-exchange",
            old_center=claw.center,
            new_center=witness.center,
        )
        for x in others:
            second = _dangerous_witness(chi, x, coll.remaining, ledger.unused)
            if second is not None:
                # Two disjoint unused-color claws off one claw's leaves:
                # the family was not maximum.  Enlarge and restart.
                return coll.claws + [second]
        coll.paths.append([others[0], claw.center, others[1]])
        ledger.note(
            "retired-cherry", color=claw.color,
            cherry=[others[0], claw.center, others[1]],
        )
        i += 1
    return None


def _assert_disjoint(coll: PreservedCollection) -> None:
    """Claws, paths and the remaining set never share a vertex."""
    seen: set[int] = set()
    for claw in coll.claws:
        vs = claw.vertices()
        if seen & vs:
            raise InternalContradiction("claws overlap")
        seen |= vs
    for p in coll.paths:
        vs = set(p)
        if seen & vs or len(vs) != len(p):
            raise InternalContradiction("paths overlap preserved structures")
        seen |= vs
    if seen & coll.remaining:
        raise InternalContradiction("preserved structures intersect R")


def _assert_no_dangerous(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> None:
    exposed = [leaf for claw in coll.claws for leaf in claw.leaves]
    exposed += [p[0] for p in coll.paths] + [p[-1] for p in coll.paths]
    exposed += sorted(coll.remaining)
    for v in exposed:
        if _dangerous_witness(chi, v, coll.remaining, ledger.unused) is not None:
            raise InternalContradiction(f"vertex {v} left dangerous")


# ---------------------------------------------------------------------------
# Step 2: harvests, claw splitting, virtual twins
# ---------------------------------------------------------------------------


def harvest_cherries_matchings(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> PreservedCollection:
    """Preserve a cherry (preferred) or a 2-matching per unused color, then
    split each claw into a singleton plus a cherry and attach virtual twins
    to the singletons."""
    rem = coll.remaining
    # A color with no occurrence at all can never reach count one; treating
    # it as unused would only poison the counting (relevant for oversized
    # best-effort palettes).
    present = chi.colors_present()
    for c in sorted(ledger.unused - present):
        ledger.free_color(c, "absent")
    for c in sorted(ledger.unused):
        cherry = None
        for z2 in sorted(rem):
            nb = [z for z in sorted(rem) if z != z2 and chi.color(z2, z) == c]
            if len(nb) >= 2:
                cherry = [nb[0], z2, nb[1]]
                break
        if cherry is not None:
            coll.paths.append(cherry)
            rem -= set(cherry)
            ledger.free_color(c, "cherry", cherry=cherry)
            continue
        # No cherry: no vertex of R has two c-edges inside R, so those
        # edges are pairwise disjoint and the first two are a 2-matching.
        matching = [
            (u, v)
            for u in sorted(rem)
            for v in sorted(rem)
            if u < v and chi.color(u, v) == c
        ][:2]
        if len(matching) == 2:
            for u, v in matching:
                coll.paths.append([u, v])
                rem -= {u, v}
            ledger.free_color(c, "2-matching", edges=[list(e) for e in matching])
    for c in sorted(ledger.unused):
        inside = sum(
            1 for u in rem for v in rem if u < v and chi.color(u, v) == c
        )
        if inside > 1:
            raise InternalContradiction(
                f"unused color {c} still spans {inside} edges inside R"
            )
    if len(rem) < 4 * len(ledger.unused):
        raise InternalContradiction("remaining set shrank below four per unused color")
    # Split claws: smallest leaf becomes a singleton (virtual twin attached),
    # the center and the other two leaves a cherry in the claw's color; the
    # twins' stubs take the smallest free color the host has, never an
    # absent one.
    coll.gadget_color = min(present - ledger.unused, default=None)
    if coll.claws and coll.gadget_color is None:
        raise InternalContradiction("claws exist but no color is free")
    for j, claw in enumerate(coll.claws):
        leaves = sorted(claw.leaves)
        twin = coll.n + j
        coll.virtual_real[twin] = leaves[0]
        coll.paths.append([leaves[0], twin])
        coll.paths.append([leaves[1], claw.center, leaves[2]])
        ledger.note(
            "claw-split", color=claw.color, singleton=leaves[0], twin=twin,
            gadget_color=coll.gadget_color,
        )
    coll.claws = []
    if any(len(p) < 2 for p in coll.paths):
        raise InternalContradiction("every preserved path needs two endpoints")
    _assert_disjoint(coll)
    return coll


# ---------------------------------------------------------------------------
# Step 3: merging across endpoint edges
# ---------------------------------------------------------------------------


def _endpoint_index(coll: PreservedCollection) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, p in enumerate(coll.paths):
        out[p[0]] = i
        out[p[-1]] = i
    return out


def _merge_at(coll: PreservedCollection, w1: int, w2: int) -> None:
    idx = _endpoint_index(coll)
    i, j = idx[w1], idx[w2]
    if i == j:
        raise InternalContradiction("merge would close a cycle")
    pi, pj = coll.paths[i], coll.paths[j]
    if pi[-1] != w1:
        pi.reverse()
    if pj[0] != w2:
        pj.reverse()
    coll.paths[i] = pi + pj
    del coll.paths[j]


def merge_endpoints(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> PreservedCollection:
    """Fixpoint of the two endpoint-merging rules.

    (i) merge two paths across a free-colored endpoint edge; (ii) two
    same-colored unused endpoint edges on four distinct endpoints merge
    twice at once (across four paths, or chained through a middle path)
    and free their color.  Each rule takes the lexicographically first
    cross pair (endpoints of two different paths) it applies to.

    Rule (i) runs as one forward pass over the pairs of one sorted listing
    of the endpoints, row by row: w1 ascending, then w2 > w1 ascending.
    The pass is exact: paths only grow at their ends and never split, so a
    pair that stops being a cross pair never becomes one again, and rule
    (i) frees no color, so a skipped pair stays skipped.  Each merge of
    the pass is the first pair a fresh listing would find.  For the same
    reason an endpoint w1 that turns interior stays interior, so every
    later pair of its row would be skipped, and the row stops there.  A
    pass leaves no free-colored cross pair, so every cross pair rule (ii)
    sees carries an unused color.  When rule (ii) fires,
    the color it frees may open pairs before the pass's position, so the
    pass restarts on a fresh listing.
    """
    col = coll.color_fn(chi)

    def rule_i_pass() -> None:
        idx = _endpoint_index(coll)
        eps = sorted(idx)
        for a, w1 in enumerate(eps):
            for w2 in eps[a + 1 :]:
                i = idx.get(w1)
                if i is None:
                    break  # w1 is interior for good
                j = idx.get(w2)
                if j is None or i == j:
                    continue
                c = col(w1, w2)
                if c not in ledger.unused:
                    _merge_at(coll, w1, w2)
                    ledger.note("endpoint-merge", at=[w1, w2], color=c)
                    idx = _endpoint_index(coll)

    def rule_ii() -> bool:
        idx = _endpoint_index(coll)
        eps = sorted(idx)
        pairs = [
            (w1, w2)
            for a, w1 in enumerate(eps)
            for w2 in eps[a + 1 :]
            if idx[w1] != idx[w2]
        ]
        for a, e1 in enumerate(pairs):
            c = col(*e1)
            for e2 in pairs[a + 1 :]:
                if col(*e2) != c or set(e1) & set(e2):
                    continue
                spanned = {idx[w] for w in e1} | {idx[w] for w in e2}
                if len(spanned) < 3:
                    continue  # both edges join the same two paths: a cycle
                _merge_at(coll, *e1)
                _merge_at(coll, *e2)
                ledger.free_color(
                    c, "endpoint-pair", edges=[list(e1), list(e2)]
                )
                return True
        return False

    rule_i_pass()
    while rule_ii():
        rule_i_pass()

    counts: dict[int, int] = {}
    for p in coll.paths:
        for x, y in zip(p, p[1:]):
            counts[col(x, y)] = counts.get(col(x, y), 0) + 1
    if 1 in counts.values():
        raise InternalContradiction("a color occurs exactly once in the paths")
    if 2 * len(coll.paths) > len(ledger.unused) + 3:
        raise InternalContradiction(
            f"{len(coll.paths)} paths survive {len(ledger.unused)} unused colors"
        )
    _assert_disjoint(coll)
    return coll


# ---------------------------------------------------------------------------
# Step 4: merging through cherries centered in R
# ---------------------------------------------------------------------------


def merge_cherries(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> PreservedCollection:
    """Merge down to two paths through free cherries centered in R."""
    col = coll.color_fn(chi)
    unused = ledger.unused
    before = len(coll.paths) - len(coll.remaining)
    while len(coll.paths) > 2:
        centers = sorted(coll.remaining)
        found = next(
            (
                (w1, w2, v)
                for i, j in combinations(range(len(coll.paths)), 2)
                for w1 in (coll.paths[i][0], coll.paths[i][-1])
                for w2 in (coll.paths[j][0], coll.paths[j][-1])
                for v in centers
                if col(w1, v) not in unused and col(w2, v) not in unused
            ),
            None,
        )
        if found is None:
            raise InternalContradiction(
                "no common free cherry center; the counting bound failed"
            )
        w1, w2, v = found
        pi = coll.paths[_endpoint_index(coll)[w1]]
        if pi[-1] != w1:
            pi.reverse()
        # v is off every path (it is in R), so it is now an endpoint of
        # this path alone.
        pi.append(v)
        _merge_at(coll, v, w2)
        coll.remaining.remove(v)
        ledger.note("cherry-merge", center=v, joins=[w1, w2])
    # Each merge takes one center out of R and one path off the list.
    if len(coll.paths) - len(coll.remaining) != before:
        raise InternalContradiction("cherry-center count drifted")
    _assert_disjoint(coll)
    return coll


# ---------------------------------------------------------------------------
# Step 5 and the special closings
# ---------------------------------------------------------------------------


def _iter_attachments(col, ws: list[int], pool: list[int], allowed):
    """Assignments of distinct pool vertices to the endpoints in ``ws`` with
    every attachment color allowed, in lexicographic order."""

    taken: list[int] = []

    def rec(k: int):
        if k == len(ws):
            yield list(taken)
            return
        for z in pool:
            if z in taken or not allowed(col(ws[k], z)):
                continue
            taken.append(z)
            yield from rec(k + 1)
            taken.pop()

    yield from rec(0)


def _free_pool_graph(
    chi: EdgeColoring, pool: list[int], unused: set[int]
) -> SimpleGraph:
    """The closers' search graph: vertex i stands for ``pool[i]`` (sorted,
    real vertices), and ij is an edge iff its color is free (not unused).
    """
    return SimpleGraph(len(pool), [
        (i, j)
        for (i, u), (j, v) in combinations(enumerate(pool), 2)
        if chi.color(u, v) not in unused
    ])


def close_cycle(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> list[int]:
    """Close one or two surviving paths through the remaining free graph.

    With two paths, contracted stand-ins for the attachment pairs reduce
    the job to one Hamilton cycle found under Dirac's condition; expanding
    them back yields the two disjoint spanning arcs.

    The pipeline calls this with u >= 2 unused colors, and then the pool
    keeps at least eight vertices: harvest_cherries_matchings leaves
    |R| >= 4u, merge_endpoints at most (u+3)/2 paths, and merge_cherries
    spends one center of R per merge down to two paths, at most (u-1)/2.
    Four attachments thus leave a core of at least four vertices.
    """
    col = coll.color_fn(chi)
    pool = sorted(coll.remaining)
    free = lambda c: c not in ledger.unused  # noqa: E731
    graph = _free_pool_graph(chi, pool, ledger.unused)

    if len(coll.paths) == 1:
        p = coll.paths[0]
        for z_tail, z_head in _iter_attachments(col, [p[-1], p[0]], pool, free):
            try:
                arc = search_in_ids(hamilton_path_between, graph, pool, z_tail, z_head)
            except NotFoundError:
                continue
            ledger.note("close", mode="single-path", attachments=[z_tail, z_head])
            return p + list(arc.vertices)
        raise InternalContradiction("single path admits no free closing arc")

    if len(coll.paths) != 2:
        raise InternalContradiction("closing expects one or two paths")
    f1, f2 = coll.paths
    w1, w1p = f1[0], f1[-1]
    w2, w2p = f2[0], f2[-1]
    for zs in _iter_attachments(col, [w1, w1p, w2, w2p], pool, free):
        z1, z1p, z2, z2p = zs
        keep = [i for i, v in enumerate(pool) if v not in zs]
        # Stars first, then the core and both stars are kept: the kept set
        # is never empty, and the stars come out as vertices k and k + 1.
        aux, _ = graph.add_vertex_with_neighbors(
            i for i in keep if free(col(z1, pool[i])) and free(col(z1p, pool[i]))
        ).add_vertex_with_neighbors(
            i for i in keep if free(col(z2, pool[i])) and free(col(z2p, pool[i]))
        ).induced([*keep, len(pool), len(pool) + 1])
        core = [pool[i] for i in keep]
        star1, star2 = len(core), len(core) + 1
        try:
            cyc = dirac_hamilton_cycle(aux)
        except NotFoundError:
            continue
        # aux has no star1-star2 edge, so the stars are not consecutive on
        # the cycle and both arcs between them are nonempty.
        rot = list(cyc.vertices)
        i1 = rot.index(star1)
        rot = rot[i1:] + rot[:i1]
        i2 = rot.index(star2)
        arc_a = [core[i] for i in rot[1:i2]]
        arc_b = [core[i] for i in rot[i2 + 1 :]]
        f2.reverse()  # now runs w2p..w2
        ledger.note("close", mode="two-paths", attachments=zs)
        return (
            [z1] + f1 + [z1p] + arc_b[::-1] + [z2p] + f2 + [z2] + arc_a[::-1]
        )
    raise InternalContradiction("no attachment quadruple closes the two paths")


def _arc_through_edge(
    pool: list[int], z_tail: int, z_head: int, hot: tuple[int, int]
) -> list[int] | None:
    """Spanning {z_tail,z_head}-path of the complete pool traversing ``hot``.

    Only the hot edge can carry the unused color here, so every other
    consecutive pair is unconstrained.
    """
    a, b = hot
    ends = {z_tail, z_head}
    if ends >= {a, b}:
        return None
    rest = [v for v in pool if v not in ends | {a, b}]
    if z_tail == a:
        return [a, b] + rest + [z_head]
    if z_tail == b:
        return [b, a] + rest + [z_head]
    if z_head == a:
        return [z_tail] + rest + [b, a]
    if z_head == b:
        return [z_tail] + rest + [a, b]
    return [z_tail, a, b] + rest + [z_head]


def _close_one_path_one_unused(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger, c: int
) -> list[int]:
    """One surviving path, one unused color c: close so that c's final
    count is anything but one.

    Off-color attachments plus an off-color spanning arc is the main line;
    at the tight boundary that arc can be missing, and the closing instead
    routes c exactly twice through hot attachments or the single c-edge
    left in the pool.
    """
    col = coll.color_fn(chi)
    pool = sorted(coll.remaining)
    p = coll.paths[0]
    f_c = sum(1 for x, y in zip(p, p[1:]) if col(x, y) == c)
    c_edges = [e for e in combinations(pool, 2) if chi.color(*e) == c]
    graph = _free_pool_graph(chi, pool, ledger.unused)
    for z_tail, z_head in permutations(pool, 2):
        att = (col(p[-1], z_tail) == c) + (col(p[0], z_head) == c)
        if f_c + att != 1:
            try:
                arc = search_in_ids(hamilton_path_between, graph, pool, z_tail, z_head)
            except NotFoundError:
                pass
            else:
                ledger.note("close", mode="single-unused-one-path",
                            attachments=[z_tail, z_head], hot_count=att)
                return p + list(arc.vertices)
        if c_edges and f_c + att + 1 != 1:
            arc = _arc_through_edge(pool, z_tail, z_head, c_edges[0])
            if arc is not None:
                ledger.note("close", mode="single-unused-one-path-hot-arc",
                            attachments=[z_tail, z_head], hot_count=att + 1)
                return p + arc
    raise InternalContradiction("one-path closing exhausted every assignment")


def special_case_single_unused(
    chi: EdgeColoring, coll: PreservedCollection, ledger: ColorLedger
) -> list[int]:
    """Closing with exactly one unused color c.

    One path: attach both ends into the remaining set off-color and span
    the rest avoiding c.  Two paths: either all endpoint attachments are
    off-color, and two disjoint spanning arcs close the cycle; or some
    endpoint sees c in the remaining set, and routing through that edge
    plus the (necessarily c-colored) cross-endpoint link uses c twice,
    after which any completion works.
    """
    (c,) = ledger.unused
    col = coll.color_fn(chi)
    pool = sorted(coll.remaining)

    if len(coll.paths) == 1:
        return _close_one_path_one_unused(chi, coll, ledger, c)

    if len(coll.paths) != 2:
        raise InternalContradiction("the single-unused case caps the paths at two")
    f1, f2 = coll.paths
    ends = [(0, f1[0]), (0, f1[-1]), (1, f2[0]), (1, f2[-1])]
    hot = next(
        (
            (which, w, z)
            for which, w in ends
            for z in pool
            if col(w, z) == c
        ),
        None,
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
        rest = [v for v in pool if v != z]
        ledger.note("close", mode="single-unused-hot-edge", through=[z, w])
        return [z] + f1 + f2 + rest

    # All endpoint attachments into the pool are off-color: pick four
    # attachment vertices and split the pool into two spanning arcs by a
    # stand-in vertex wedged between the two far attachments.  The
    # stand-in is f2 contracted to one vertex, so it carries the id f2[0],
    # which no pool vertex has.
    graph = _free_pool_graph(chi, pool, ledger.unused)
    ids = [*pool, f2[0]]
    for quad in combinations(pool, 4):
        for z_near, z_far, z_m1, z_m2 in (
            (quad[0], quad[1], quad[2], quad[3]),
            (quad[0], quad[2], quad[1], quad[3]),
            (quad[0], quad[3], quad[1], quad[2]),
        ):
            sub = graph.add_vertex_with_neighbors([pool.index(z_m1), pool.index(z_m2)])
            try:
                walk = search_in_ids(hamilton_path_between, sub, ids, z_near, z_far)
            except NotFoundError:
                continue
            # walk runs z_near..{z_m1 or z_m2}, f2[0], the other..z_far.
            seq = list(walk.vertices)
            cut = seq.index(f2[0])
            seq[cut : cut + 1] = f2 if seq[cut - 1] == z_m1 else f2[::-1]
            ledger.note(
                "close",
                mode="single-unused-two-arcs",
                attachments=[z_near, z_far, z_m1, z_m2],
            )
            return f1 + seq
    raise InternalContradiction("no two-arc cover avoids the unused color")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _trivial_close(coll: PreservedCollection) -> list[int]:
    """With no unused colors left, chain the paths and append the rest.

    Every color is free, i.e. carries two locked occurrences inside the
    preserved paths, so arbitrary connector edges cannot create a unique
    color.
    """
    return [v for p in coll.paths for v in p] + sorted(coll.remaining)


def _expand_virtuals(seq: list[int], coll: PreservedCollection) -> list[int]:
    """Contract every (z, twin, real) stretch to (z, real).

    The twin's stub edge vanishes and the proxy edge becomes the real edge
    of the same color, so the census over real colors is unchanged.
    """
    # A twin's stub path [real, twin] only grows at its ends, so each twin
    # is still next to its real vertex and all of them drop in one pass.
    real = coll.virtual_real
    for i, v in enumerate(seq):
        if v in real and real[v] not in (seq[i - 1], seq[(i + 1) % len(seq)]):
            raise InternalContradiction(
                "a virtual twin drifted away from its real vertex"
            )
    return [v for v in seq if v not in real]


def find_unique_free_hamilton(
    chi: EdgeColoring, best_effort: bool = False
) -> UniqueFreeResult:
    """Hamilton cycle of the colored complete graph with no unique color.

    Guaranteed whenever the palette size is at most n/4; ``best_effort``
    runs the pipeline beyond that bound, up to C(n, 2) colors, and reports
    whatever happens (the guarantee is then void and internal counting
    steps may fail).
    """
    host = chi.host
    n = host.n
    if not host.is_complete():
        raise PreconditionFailed("the pipeline needs a colored complete graph")
    if n < 4:
        raise PreconditionFailed("need n >= 4")
    if chi.r > n // 4 and not best_effort:
        raise PreconditionFailed(
            f"palette {chi.r} exceeds n/4 = {n // 4}; pass best_effort to try anyway"
        )
    # K_n shows at most C(n, 2) colors, and the ledger costs one entry per
    # color of the palette, so a larger palette is refused before it is built.
    if chi.r > comb(n, 2):
        raise PreconditionFailed(
            f"palette {chi.r} exceeds the C(n, 2) = {comb(n, 2)} edges of K_{n}"
        )
    ledger = ColorLedger.fresh(chi.r)
    coll = max_claw_collection(chi, ledger)
    coll = resolve_dangerous(chi, coll, ledger)
    coll = harvest_cherries_matchings(chi, coll, ledger)
    coll = merge_endpoints(chi, coll, ledger)
    if not coll.paths:
        raise InternalContradiction("no structures preserved; r <= n/4 forbids this")
    if not ledger.unused:
        seq = _trivial_close(coll)
    elif len(ledger.unused) == 1:
        seq = special_case_single_unused(chi, coll, ledger)
    else:
        coll = merge_cherries(chi, coll, ledger)
        seq = close_cycle(chi, coll, ledger)
    seq = _expand_virtuals(seq, coll)
    cycle = CycleOrPath(tuple(seq), closed=True)
    assert_valid_cycle(host, cycle)
    census = cycle_census(chi, cycle)
    if census.unique_colors:
        raise InternalContradiction(
            f"pipeline closed a cycle with unique colors {census.unique_colors}"
        )
    ledger.note("done", census={str(k): v for k, v in sorted(census.counts.items())})
    return UniqueFreeResult(cycle, census, ledger)
