"""Even-chromatic complete bipartite subgraphs via parity hypergraphs.

The constructive route: a strongly-even-chromatic K_{s-3,t'} pins down a
vertex pool V_2; three extra vertices w_1,w_2,w_3 induce, for every
u in V_2, the odd-support set of the three colors u sees toward them.
These supports are hyperedges over the color palette, and a size-t even
cover (every color covered an even number of times) marks a t-set B that
makes {w_1,w_2,w_3} x B even-chromatic, hence the assembled K_{s,t} too.

The strongly-even search lists every vertex's even s'-neighborhoods as
int vertex masks, one list per vertex built class by class.  Vertex t'-1
is answered from one list: its even s'-neighborhoods inside the common
neighborhood of 0..t'-1, each vertex weighted with count fields that add
up the colors every earlier vertex sees at the mask, so a sum whose fields
are all even is a mask every earlier list holds.  Only a miss there builds
the first t' lists and starts one Counter of earlier owners.  Only the
witness mask is decoded, and its owners are recovered by a parity test of
their stars.  Past ``STRONGLY_EVEN_MASK_BUDGET`` machine words of masks,
counted from the class sizes before any list is built, the search answers
"unknown".

A K_{s,t} is even-chromatic iff the odd-supports of its t-side XOR to
zero, so exhausting all s-tuples in the role of the w's decides existence
outright at small n; the top-level search only reports ``not_found`` with
that certificate and says ``unknown`` otherwise.  Odd-supports are palette
masks (``_odd_colors``), and one k-subset XOR-to-zero search serves both
the even covers and that sweep.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress, repeat
from math import comb
from operator import indexOf, not_
from typing import Iterable, Iterator, NamedTuple

from .colored_graph import EdgeColoring, ParityCensus, _bits, parity_census
from .errors import CapExceeded, InternalContradiction, PreconditionFailed


class Miss(NamedTuple):
    """A search that ended without a bipartition.

    ``status`` is "not_found" only when the failing stage carries an
    exhaustion certificate for its claim; budget-limited searches report
    "unknown".  ``stage`` names the pipeline stage that stopped.
    """

    status: str
    stage: str


class ParityHypergraph(NamedTuple):
    """Hypergraph on the color palette; edges are labeled odd-supports."""

    palette: int
    edges: tuple[tuple[int, frozenset[int]], ...]


class EvenCover(NamedTuple):
    labels: tuple[int, ...]


class StronglyEvenWitness(NamedTuple):
    """K_{s',t'} in which every t'-side vertex sees an all-even census."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


class Bipartition(NamedTuple):
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def _bipartite_census(
    chi: EdgeColoring, side_a: tuple[int, ...], side_b: tuple[int, ...]
) -> ParityCensus:
    return parity_census(chi, ((a, b) for a in side_a for b in side_b))


def _odd_colors(chi: EdgeColoring, v: int, side: Iterable[int]) -> int:
    """Palette mask of the colors v sees an odd number of times toward
    ``side``, bit c - 1 for color c; a non-edge raises."""
    acc = 0
    for w in side:
        acc ^= 1 << chi.color(v, w) - 1
    return acc


def _check_s_prime(s_prime: int) -> None:
    if s_prime < 2 or s_prime % 2 == 1:
        raise PreconditionFailed("even neighborhoods need even s' >= 2")


def _color_classes(
    chi: EdgeColoring, u: int, s_prime: int, weights: dict[int, int] | None = None
) -> list[list[int]]:
    """u's color classes in color order, each its vertices' weights ascending.

    A neighbor v weighs ``1 << v``.  Given ``weights`` (keys: neighbors of u
    in increasing order), the classes keep only those vertices, each with
    its weight.
    """
    _check_s_prime(s_prime)
    if weights is None:
        weights = {v: 1 << v for v in chi.host.neighbors(u)}
    row = chi.row(u)
    by_color: dict[int, list[int]] = {}
    for v, w in weights.items():
        by_color.setdefault(row[v], []).append(w)
    return [by_color[c] for c in sorted(by_color)]


def _first_even_mask(chi: EdgeColoring, u: int, s_prime: int) -> int | None:
    """The first mask ``_even_masks`` would list, without building the list.

    In that order each class takes the smallest even block that the later
    classes can still complete, and a block is the class's lowest vertices.
    ``room[i]`` counts the vertices classes i.. can supply in even blocks.
    """
    classes = _color_classes(chi, u, s_prime)
    room = [0] * (len(classes) + 1)
    for i in range(len(classes) - 1, -1, -1):
        room[i] = room[i + 1] + len(classes[i]) // 2 * 2
    if room[0] < s_prime:
        return None
    mask, need = 0, s_prime
    for bits, later in zip(classes, room[1:]):
        k = max(0, need - later)  # even, since need and later are
        mask |= sum(bits[:k])
        need -= k
    return mask


def _even_mask_count(chi: EdgeColoring, u: int, s_prime: int) -> int:
    """``len(_even_masks(chi, u, s_prime))``, from u's class sizes alone:
    the counts of the colors in u's row (0 marks a non-edge), of which only
    those of two or more change the count."""
    _check_s_prime(s_prime)
    sizes = [k for c, k in Counter(chi.row(u)).items() if c and k > 1]
    ways = [1] + [0] * (s_prime // 2)  # ways[h]: even-block picks of 2h
    for size in sizes:
        ways = [sum(ways[h - i] * comb(size, 2 * i) for i in range(h + 1))
                for h in range(len(ways))]
    return ways[-1]


def _even_masks(
    chi: EdgeColoring, u: int, s_prime: int, weights: dict[int, int] | None = None
) -> list[int]:
    """The even s'-neighborhoods of u as vertex bitmasks, in one list.

    Every such S splits into even-size blocks inside u's color classes, so
    choosing an even-size subset per class lists each S exactly once.
    Classes come in color order, block sizes ascending and subsets
    lexicographically; an entry is the sum of the chosen vertices' weights
    (``_color_classes``), which for plain ``1 << v`` weights is the mask.
    The list is built from the last class backwards: ``tails[k]`` holds the
    sums that pick k more vertices from the classes after the current one,
    and each class extends them by one list comprehension.
    """
    tails: dict[int, list[int]] = {k: [] for k in range(2, s_prime + 1, 2)}
    for bits in reversed(_color_classes(chi, u, s_prime, weights)):
        subsets = {
            k: list(map(sum, combinations(bits, k)))
            for k in range(2, min(len(bits), s_prime) + 1, 2)
        }
        grown = {}
        for need, rest in tails.items():
            out = list(rest)  # the class contributes no vertex
            for k, picks in subsets.items():
                if k == need:
                    out += picks
                elif k < need:
                    out += [m + t for m in picks for t in tails[need - k]]
            grown[need] = out
        tails = grown
    return tails[s_prime]


def even_neighborhoods(
    chi: EdgeColoring, u: int, s_prime: int
) -> Iterator[frozenset[int]]:
    """All vertex sets S of size s' whose star at u has an all-even census.

    The masks of ``_even_masks``, in its order, decoded to frozensets, so
    this view and the strongly-even index share one enumerator.  Test
    reference: ``test_strongly_even_matches_frozenset_index`` rebuilds
    find_strongly_even as a frozenset-keyed index over it.
    """
    return (frozenset(_bits(m)) for m in _even_masks(chi, u, s_prime))


# Machine words of even s'-neighborhoods find_strongly_even may list in all
# before it answers "unknown": a mask of an n-vertex host counts (n + 63) // 64
# words, so wide hosts list fewer masks.  Whole lists count even where the
# window (``_window_hit``) builds fewer; the benchmark's K_60 s'=4 inputs
# count at most about 450,000.
STRONGLY_EVEN_MASK_BUDGET = 2_000_000

# Count-field bits one window list may carry above its n vertex bits (past
# vertex 0's own).  Wider sums cost more per addition than the star censuses
# they save, so earlier vertices past the bound are checked on the window's
# survivors instead; 128 to 512 bits time alike on random colorings.
WINDOW_FIELD_BITS = 256


def find_strongly_even(
    chi: EdgeColoring, s_prime: int, t_prime: int
) -> StronglyEvenWitness | Miss:
    """Search for a strongly-even-chromatic K_{s',t'} by double counting.

    Each vertex takes the first even s'-neighborhood in its list (vertex
    bitmasks from ``_even_masks``) that t'-1 earlier vertices own.  Before
    vertex t'-1 no mask has that many owners, and at t'-1 the masks with
    t'-1 earlier owners are those in every earlier list, since no list
    repeats a mask; ``_window_hit`` finds the first of them without
    building the earlier lists.  If none is, counting starts there: one
    Counter takes the lists of vertices 0..t'-1, then each later vertex
    probes it and, failing, enters its whole list in one update.  On a hit
    only that mask is decoded, and its earlier owners are recovered by
    testing the star of each earlier vertex at it for odd colors.
    The index is exhaustive, so a miss certifies that no witness exists,
    unless the lists, counted before any is built, would pass
    ``STRONGLY_EVEN_MASK_BUDGET`` machine words, (n + 63) // 64 per mask:
    then the miss is "unknown".  With t'=1 the first mask of the first
    vertex that has one is the witness, and ``_first_even_mask`` finds it
    without listing the rest.
    """
    n = chi.host.n
    if t_prime < 1:
        raise PreconditionFailed("need t' >= 1")
    if s_prime == 0:
        # Empty left side: every vertex sees an empty, vacuously even star.
        if n < t_prime:
            return Miss("not_found", "strongly-even")
        return StronglyEvenWitness((), tuple(range(t_prime)))
    if t_prime == 1:
        # Any one even s'-neighborhood is a witness: skip the lists, which
        # can be huge on dense hosts.
        for u in range(n):
            mask = _first_even_mask(chi, u, s_prime)
            if mask is not None:
                return StronglyEvenWitness(tuple(_bits(mask)), (u,))
        return Miss("not_found", "strongly-even")
    words = (n + 63) // 64
    listed = 0
    for u in range(min(n, t_prime)):
        listed += words * _even_mask_count(chi, u, s_prime)
        if listed > STRONGLY_EVEN_MASK_BUDGET:
            return Miss("unknown", "strongly-even")
    if n < t_prime:
        return Miss("not_found", "strongly-even")
    u = t_prime - 1
    mask = _window_hit(chi, s_prime, t_prime)
    if mask is None:
        owners: Counter[int] = Counter()
        for v in range(t_prime):
            owners.update(_even_masks(chi, v, s_prime))
        for u in range(t_prime, n):
            listed += words * _even_mask_count(chi, u, s_prime)
            if listed > STRONGLY_EVEN_MASK_BUDGET:
                return Miss("unknown", "strongly-even")
            masks = _even_masks(chi, u, s_prime)
            try:
                at = indexOf(map(owners.get, masks, repeat(0)), t_prime - 1)
            except ValueError:
                owners.update(masks)
                continue
            mask = masks[at]
            break
        else:
            return Miss("not_found", "strongly-even")
    side_a = tuple(_bits(mask))
    prior = [v for v in range(u) if _owns(chi, v, mask, side_a)]
    if len(prior) != t_prime - 1:
        raise InternalContradiction("strongly-even index miscounted owners")
    return StronglyEvenWitness(side_a, (*prior, u))


def _owns(chi: EdgeColoring, v: int, mask: int, side_a: tuple[int, ...]) -> bool:
    """Whether ``mask`` (decoded: ``side_a``) is an even s'-neighborhood of v."""
    return chi.host.mask(v) & mask == mask and not _odd_colors(chi, v, side_a)


def _window_hit(chi: EdgeColoring, s_prime: int, t_prime: int) -> int | None:
    """The first mask in vertex u = t'-1's list that 0..u-1 all own, if any.

    Such a mask lies in W, the common neighborhood of 0..u, so only u's
    even s'-neighborhoods inside W are listed.  They keep their relative
    order from u's whole list: that list is ordered lexicographically by
    (block size, subset) per color class, and restricting each class to W
    leaves the block sizes and the order of the subsets of W unchanged.
    Each v in W weighs ``1 << v`` plus a one in the count field of
    (i, color(i, v)) for each earlier vertex i; a field is
    ``s'.bit_length()`` bits wide, so the s' picks of a sum never carry out
    of it, and summing (not OR-ing) the picks leaves the mask in the low n
    bits and, in each field, how often i sees that color at the mask.  A sum
    whose fields are all even is thus a mask every earlier list holds.
    Vertex 0's fields always go in; later ones only while all fields fit in
    ``WINDOW_FIELD_BITS`` bits.  The earlier vertices that do not fit are
    checked for odd colors in their stars on the survivors, in list order.
    """
    n, u = chi.host.n, t_prime - 1
    common = chi.host.mask(u)
    for i in range(u):
        common &= chi.host.mask(i)
    span = tuple(_bits(common))
    weights = {v: 1 << v for v in span}
    width = s_prime.bit_length()
    top = odd = fitted = 0
    for i in range(u):
        row = chi.row(i)
        colors = {row[v] for v in span}
        if fitted and top + width * len(colors) > WINDOW_FIELD_BITS:
            break
        field = {c: 1 << (n + top + width * k) for k, c in enumerate(colors)}
        for v in span:
            weights[v] += field[row[v]]
        odd += sum(field.values())
        top += width * len(colors)
        fitted = i + 1
    vertices = (1 << n) - 1
    sums = _even_masks(chi, u, s_prime, weights)
    for total in compress(sums, map(not_, map(odd.__and__, sums))):
        mask = total & vertices
        side_a = tuple(_bits(mask))
        if all(_owns(chi, i, mask, side_a) for i in range(fitted, u)):
            return mask
    return None


def build_parity_hypergraph(
    chi: EdgeColoring, w1: int, w2: int, w3: int, v2: tuple[int, ...]
) -> ParityHypergraph:
    """Odd-support hyperedges of the 3-edge color multisets toward w1,w2,w3.

    All three colors distinct: the support is all three; exactly two equal:
    the remaining singleton; all equal: that singleton.
    """
    trio = (w1, w2, w3)
    if len(set(trio)) != 3 or set(trio) & set(v2):
        raise PreconditionFailed("w-triple must be distinct and disjoint from V2")
    edges = []
    for u in v2:
        odd = _odd_colors(chi, u, trio)
        if odd.bit_count() not in (1, 3):
            raise InternalContradiction("odd support of a triple has size 1 or 3")
        edges.append((u, frozenset(b + 1 for b in _bits(odd))))
    return ParityHypergraph(chi.r, tuple(edges))


def _masks(h: ParityHypergraph) -> list[int]:
    return [sum(1 << c - 1 for c in sup) for _, sup in h.edges]


_EXHAUSTIVE_CAP = 200_000
_DECISIVE_CAP = 10_000_000


def _xor(masks: list[int], idx: Iterable[int]) -> int:
    # A plain loop: reduce(xor, map(...)) runs a full scan 2-3x slower.
    acc = 0
    for i in idx:
        acc ^= masks[i]
    return acc


def _zero_xor_subset(masks: list[int], k: int) -> list[int] | None:
    """Sorted indices of k masks that XOR to zero, or None if none exist.

    Up to ``_EXHAUSTIVE_CAP`` k-subsets a lexicographic scan returns the
    first such subset; up to ``_DECISIVE_CAP`` a meet-in-the-middle search
    splits the indices into halves and matches the XOR signatures of the
    two parts.  Both are exhaustive, so None proves absence; a larger space
    raises CapExceeded.
    """
    m = len(masks)
    space = comb(m, k)
    if space <= _EXHAUSTIVE_CAP:
        for combo in combinations(range(m), k):
            if not _xor(masks, combo):
                return list(combo)
        return None
    if space > _DECISIVE_CAP:
        raise CapExceeded(f"{space} {k}-subsets exceed {_DECISIVE_CAP}")
    half = m // 2
    left, right = range(half), range(half, m)
    for a in range(max(0, k - len(right)), min(k, half) + 1):
        sigs: dict[int, tuple[int, ...]] = {}
        for combo in combinations(left, a):
            sigs.setdefault(_xor(masks, combo), combo)
        for combo in combinations(right, k - a):
            match = sigs.get(_xor(masks, combo))
            if match is not None:
                return sorted(match + combo)
    return None


def find_even_cover(
    h: ParityHypergraph, k: int
) -> EvenCover | Miss:
    """A set of exactly k distinct hyperedges covering every color evenly.

    Tier 1 pairs up duplicate supports (k even); otherwise the masks'
    k-subset XOR-to-zero search runs (lexicographic exhaustion, or
    meet-in-the-middle over the GF(2) incidence rows on larger spaces).
    ``not_found`` is only reported when that search was exhaustive; beyond
    its budget the result is ``unknown``.
    """
    if k < 2:
        raise PreconditionFailed("even covers of interest have size >= 2")
    masks = _masks(h)
    if k % 2 == 0:
        pairs: list[tuple[int, int]] = []
        grouped: dict[int, list[int]] = {}
        for i, msk in enumerate(masks):
            grouped.setdefault(msk, []).append(i)
        for msk in grouped.values():
            for j in range(0, len(msk) - 1, 2):
                pairs.append((msk[j], msk[j + 1]))
        if len(pairs) >= k // 2:
            idx = [i for pair in pairs[: k // 2] for i in pair]
            return _checked_cover(h, masks, sorted(idx))
    try:
        found = _zero_xor_subset(masks, k)
    except CapExceeded:
        return Miss("unknown", "even-cover")
    if found is None:
        return Miss("not_found", "even-cover")
    return _checked_cover(h, masks, found)


def _checked_cover(
    h: ParityHypergraph, masks: list[int], idx: list[int]
) -> EvenCover:
    if _xor(masks, idx):
        raise InternalContradiction("search tier returned an uneven cover")
    return EvenCover(tuple(h.edges[i][0] for i in idx))


def find_even_chromatic_kst(
    chi: EdgeColoring, s: int, t: int, t_prime: int | None = None
) -> Bipartition | Miss:
    """Search for an even-chromatic K_{s,t} in a colored complete graph.

    Odd s runs the constructive pipeline (strongly-even K_{s-3,t'} pool,
    w-triple supports, even cover); when that stalls, an exhaustive sweep
    over all s-tuples in the w-role decides existence outright if its
    C(n,s)*C(n-s,t) candidate splits fit ``_EXHAUSTIVE_CAP``.  Even s goes
    through the strongly-even search directly, whose "not_found" certifies
    only the absence of *strongly*-even copies ("unknown" past its budget);
    ``t_prime`` belongs to the odd pipeline and is refused with an even s.
    Every returned bipartition is verified even-chromatic.
    """
    n = chi.host.n
    if not chi.host.is_complete():
        raise PreconditionFailed("the host graph must be complete")
    # The construction is side-symmetric, so s > t is accepted even though
    # the interesting regime has s <= t.
    if s < 2 or t < 1 or s + t > n:
        raise PreconditionFailed("need s >= 2, t >= 1 with s + t <= n")
    if s % 2 == 0:
        if t_prime is not None:
            raise PreconditionFailed("t' applies to odd s only")
        wit = find_strongly_even(chi, s, t)
        if isinstance(wit, Miss):
            return wit
        out = Bipartition(wit.side_a, wit.side_b)
        _assert_even(chi, out)
        return out
    res = _odd_pipeline(chi, s, t, t_prime)
    if isinstance(res, Bipartition):
        return res
    if comb(n, s) * comb(n - s, t) <= _EXHAUSTIVE_CAP:
        return _sweep_all_tuples(chi, s, t)
    return Miss("unknown", res.stage)


def _odd_pipeline(
    chi: EdgeColoring, s: int, t: int, t_prime: int | None
) -> Bipartition | Miss:
    n = chi.host.n
    tp = t_prime if t_prime is not None else n - s
    if tp < t:
        raise PreconditionFailed("t' below t leaves the cover search empty")
    wit = find_strongly_even(chi, s - 3, tp)
    if isinstance(wit, Miss):
        return Miss("unknown", "strongly-even")
    pool = set(wit.side_a) | set(wit.side_b)
    outside = [v for v in range(n) if v not in pool]
    if len(outside) < 3:
        raise PreconditionFailed(
            "no room for the w-triple next to the strongly-even copy"
        )
    trio = tuple(outside[:3])
    cover = find_even_cover(build_parity_hypergraph(chi, *trio, wit.side_b), t)
    if isinstance(cover, Miss):
        return cover
    out = Bipartition(
        tuple(sorted(wit.side_a + trio)), tuple(sorted(cover.labels))
    )
    _assert_even(chi, out)
    return out


def _sweep_all_tuples(
    chi: EdgeColoring, s: int, t: int
) -> Bipartition | Miss:
    """Decide existence by trying every s-tuple in the w-role.

    A bipartition (A, B) is even-chromatic iff the odd-supports of the
    B-vertices toward A XOR to zero, so exhausting A decides the question.
    The caller bounds C(n,s)*C(n-s,t) by ``_EXHAUSTIVE_CAP``, so every
    per-tuple search is a lexicographic scan and none can run out of budget.
    """
    n = chi.host.n
    for a_side in combinations(range(n), s):
        rest = [v for v in range(n) if v not in a_side]
        masks = [_odd_colors(chi, u, a_side) for u in rest]
        found = _zero_xor_subset(masks, t)
        if found is not None:
            out = Bipartition(
                tuple(a_side), tuple(sorted(rest[i] for i in found))
            )
            _assert_even(chi, out)
            return out
    return Miss("not_found", "s-tuple-sweep")


def _assert_even(chi: EdgeColoring, b: Bipartition) -> None:
    if set(b.side_a) & set(b.side_b):
        raise InternalContradiction("bipartition sides overlap")
    if not _bipartite_census(chi, b.side_a, b.side_b).is_even_chromatic():
        raise InternalContradiction("pipeline produced an odd-chromatic K_{s,t}")


def brute_force_even_kst(
    chi: EdgeColoring, s: int, t: int, budget: int = 10_000_000
) -> Bipartition | Miss:
    """Oracle: exhaustive scan of all (A, B) splits by direct census.

    Test reference: ``test_acceptance_7_kst_pipeline_soundness`` checks every
    ``not_found`` of find_even_chromatic_kst at n <= 12 against it.
    """
    n = chi.host.n
    if s < 1 or t < 1 or s + t > n:
        raise PreconditionFailed("need s, t >= 1 with s + t <= n")
    space = comb(n, s) * comb(n - s, t)
    if space > budget:
        raise CapExceeded(f"{space} censuses exceed the budget {budget}")
    for a_side in combinations(range(n), s):
        rest = [v for v in range(n) if v not in a_side]
        for b_side in combinations(rest, t):
            if _bipartite_census(chi, a_side, b_side).is_even_chromatic():
                return Bipartition(a_side, b_side)
    return Miss("not_found", "brute-force")
