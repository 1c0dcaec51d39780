"""Core value types: graphs, edge colorings, parity censuses, cycles/paths.

Vertices are dense integers ``0..n-1`` and colors are integers ``1..r``,
which keeps adjacency rows as plain bitmask ints, a coloring as one n x n
table of colors (0 off the host), and censuses as small dicts.  All types
are immutable values after construction; every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress, starmap
from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionFailed


class Edge(NamedTuple):
    """An undirected edge, normalized so that ``u < v``."""

    u: int
    v: int


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair into an :class:`Edge`.

    Normalization is idempotent and rejects self-loops.
    """
    if u == v:
        raise PreconditionFailed(f"self-loop {u}-{v} is not an edge")
    return Edge(u, v) if u < v else Edge(v, u)


class SimpleGraph:
    """Undirected simple graph on vertices ``0..n-1`` with O(1) adjacency.

    The graph is stored as adjacency rows: bit ``v`` of row ``u`` is set
    iff ``uv`` is an edge.  The derived graphs (``with_edges``,
    ``without_edge``, ``induced``, ``add_vertex_with_neighbors``) are built
    straight from rows; only the pairs they add are validated.

    Instances are immutable; "mutators" return new graphs.
    """

    __slots__ = ("n", "_rows", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        rows = [0] * n
        _add_pairs(rows, edges)
        self._set_rows(rows)

    @classmethod
    def _from_rows(cls, rows: list[int]) -> "SimpleGraph":
        g = cls.__new__(cls)
        g._set_rows(rows)
        return g

    def _set_rows(self, rows: list[int]) -> None:
        n = len(rows)
        if n < 1:
            raise PreconditionFailed("graph needs at least one vertex")
        self.n = n
        self._rows = tuple(rows)
        # Neighbor lists from the reversed binary digits of each row: a
        # C-level pass that beats a per-bit Python loop on dense rows.
        span = range(n)
        self._nbrs = tuple(
            tuple(compress(span, bin(row)[:1:-1].encode().translate(_BIT_BYTES)))
            for row in rows
        )

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        # n < 1 leaves no rows, which _set_rows rejects
        full = (1 << max(n, 0)) - 1
        return cls._from_rows([full ^ (1 << v) for v in range(n)])

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def mask(self, v: int) -> int:
        """Adjacency row of ``v`` as a bitmask int."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def edges(self) -> Iterator[Edge]:
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    yield Edge(u, v)

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._nbrs) // 2

    def has_edge(self, e: Edge) -> bool:
        return self.adjacent(e.u, e.v)

    def is_complete(self) -> bool:
        return all(len(nb) == self.n - 1 for nb in self._nbrs)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Test reference: ``test_closure_trace_replay_on_random_graphs``
        replays a closure trace through it to rebuild the closure."""
        rows = list(self._rows)
        _add_pairs(rows, extra)
        return SimpleGraph._from_rows(rows)

    def without_edge(self, e: Edge) -> "SimpleGraph":
        rows = list(self._rows)
        rows[e.u] &= ~(1 << e.v)
        rows[e.v] &= ~(1 << e.u)
        return SimpleGraph._from_rows(rows)

    def induced(self, keep: Iterable[int]) -> tuple["SimpleGraph", list[int]]:
        """Induced subgraph on ``keep`` plus the new->old vertex id map."""
        old = sorted(set(keep))
        pos = {o: i for i, o in enumerate(old)}
        rows = []
        for a in old:
            row = 0
            for b in self._nbrs[a]:
                i = pos.get(b)
                if i is not None:
                    row |= 1 << i
            rows.append(row)
        return SimpleGraph._from_rows(rows), old

    def add_vertex_with_neighbors(self, nbrs: Iterable[int]) -> "SimpleGraph":
        """New graph on n+1 vertices; vertex ``n`` is joined to ``nbrs``."""
        w = self.n
        rows = list(self._rows) + [0]
        _add_pairs(rows, ((x, w) for x in nbrs))
        return SimpleGraph._from_rows(rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGraph) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count()})"


# Maps the digits of ``bin(row)`` to the 0/1 bytes ``compress`` selects by.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _add_pairs(rows: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Set the bits of each vertex pair in ``rows``, rejecting self-loops
    and vertices outside ``0..len(rows)-1``."""
    n = len(rows)
    for a, b in pairs:
        e = edge(a, b)
        if not (0 <= e.u and e.v < n):
            raise PreconditionFailed(f"edge {e} outside vertex range 0..{n - 1}")
        rows[e.u] |= 1 << e.v
        rows[e.v] |= 1 << e.u


def min_degree(g: SimpleGraph) -> int:
    return min(g.degree(v) for v in range(g.n))


class ParityCensus(NamedTuple):
    """Per-color edge counts of a designated edge set.

    Full counts are stored (not just parities) because the unique-color
    predicate needs "exactly once".  Colors absent from the edge set have
    count 0.
    """

    counts: dict[int, int]

    def count(self, color: int) -> int:
        return self.counts.get(color, 0)

    @property
    def odd_colors(self) -> set[int]:
        return {c for c, k in self.counts.items() if k % 2 == 1}

    @property
    def unique_colors(self) -> set[int]:
        return {c for c, k in self.counts.items() if k == 1}

    def is_even_chromatic(self) -> bool:
        return not self.odd_colors

    def is_odd_chromatic(self) -> bool:
        return bool(self.odd_colors)

    def has_unique_color(self) -> bool:
        return bool(self.unique_colors)

    def __add__(self, other: "ParityCensus") -> "ParityCensus":
        return ParityCensus(dict(Counter(self.counts) + Counter(other.counts)))


class EdgeColoring:
    """A total map from the host graph's edges to colors ``1..r``.

    The map is one color table: ``table[u][v]`` is the color of ``uv``, and
    0 marks a non-edge.  Every read (``color``, ``row``, the censuses,
    ``items``, ``color_rows``, ``colors_present``, the JSON and DOT
    emitters) indexes it.
    """

    __slots__ = ("host", "r", "_table")

    def __init__(self, host: SimpleGraph, r: int, assignment: dict[Edge, int]):
        if r < 1:
            raise PreconditionFailed("palette size must be at least 1")
        n = host.n
        table = [[0] * n for _ in range(n)]
        for e, c in assignment.items():
            u, v = e
            if not (0 <= u < n and 0 <= v < n and host.adjacent(u, v)):
                raise PreconditionFailed(f"colored edge {e} is not in the host graph")
            if not 1 <= c <= r:
                raise PreconditionFailed(f"color {c} outside palette 1..{r}")
            table[u][v] = table[v][u] = c
        missing = host.edge_count() - len(assignment)
        if missing:
            raise PreconditionFailed(f"{missing} host edges left uncolored")
        self.host, self.r, self._table = host, r, table

    @classmethod
    def _from_table(cls, host: SimpleGraph, r: int, table: list) -> "EdgeColoring":
        # The caller vouches that the nonzero cells are exactly host edges.
        chi = cls.__new__(cls)
        chi.host, chi.r, chi._table = host, r, table
        return chi

    def color(self, u: int, v: int) -> int:
        """Color of the host edge ``uv``; a non-edge raises."""
        n = self.host.n
        if 0 <= u < n and 0 <= v < n and self._table[u][v]:
            return self._table[u][v]
        raise PreconditionFailed(f"edge {u}-{v} is not in the coloring's host graph")

    def row(self, u: int) -> list[int]:
        """Vertex ``u``'s row of the color table, shared and not to be
        mutated: ``row(u)[v]`` is ``color(u, v)`` on a host edge, 0 on a
        non-edge (``v == u`` included)."""
        if not 0 <= u < self.host.n:
            raise PreconditionFailed(f"vertex {u} is not in the coloring's host graph")
        return self._table[u]

    def color_rows(self, c: int) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks of color ``c``: bit ``v`` of row
        ``u`` is set iff ``uv`` is a host edge of color ``c``."""
        if not 1 <= c <= self.r:
            raise PreconditionFailed(f"color {c} outside palette 1..{self.r}")
        return tuple(
            sum(1 << v for v, x in enumerate(row) if x == c) for row in self._table
        )

    def colors_present(self) -> set[int]:
        """The colors that occur on at least one host edge."""
        return set().union(*self._table) - {0}

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """``((u, v), color)`` per host edge, ``u < v``, lexicographically."""
        for u, row in enumerate(self._table):
            for v in compress(range(u + 1, len(row)), row[u + 1 :]):
                yield (u, v), row[v]

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.host.n}, r={self.r})"


class _CycleOrPathFields(NamedTuple):
    vertices: tuple[int, ...]
    closed: bool = False


class CycleOrPath(_CycleOrPathFields):
    """A vertex-distinct path, or a cycle when ``closed`` is True.

    ``__new__`` checks every construction, ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[int, ...], closed: bool = False):
        if len(set(vertices)) != len(vertices):
            raise PreconditionFailed("repeated vertex in cycle/path")
        if closed and len(vertices) < 3:
            raise PreconditionFailed("a cycle needs at least 3 vertices")
        return tuple.__new__(cls, (vertices, closed))

    @classmethod
    def _make(cls, iterable) -> "CycleOrPath":
        return cls(*iterable)

    def edges(self) -> list[Edge]:
        vs = self.vertices
        es = [edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
        if self.closed:
            es.append(edge(vs[-1], vs[0]))
        return es

    @property
    def endpoints(self) -> tuple[int, int]:
        if self.closed:
            raise PreconditionFailed("a cycle has no endpoints")
        return self.vertices[0], self.vertices[-1]

    def is_hamilton(self, n: int) -> bool:
        return len(self.vertices) == n

    def reversed(self) -> "CycleOrPath":
        return CycleOrPath(tuple(reversed(self.vertices)), self.closed)

    def canonical(self) -> tuple[int, ...]:
        """Rotation/reflection-invariant form of a closed cycle.

        The lexicographically least rotation or reflection: it starts at the
        smallest vertex and walks towards the smaller of its two neighbors.
        """
        if not self.closed:
            raise PreconditionFailed("canonical form is defined for cycles")
        vs = self.vertices
        i = vs.index(min(vs))
        out = vs[i:] + vs[:i]
        if out[-1] < out[1]:
            out = out[:1] + out[:0:-1]
        return out

    def validate(self, g: SimpleGraph) -> None:
        """Check every consecutive pair is a host edge; raises otherwise."""
        for e in self.edges():
            if not g.has_edge(e):
                raise PreconditionFailed(f"edge {e} not present in host graph")


def parity_census(coloring: EdgeColoring, pairs: Iterable[tuple]) -> ParityCensus:
    """Count color occurrences over ``pairs`` (vertex pairs; host edges)."""
    return ParityCensus(dict(Counter(starmap(coloring.color, pairs))))


def cycle_census(coloring: EdgeColoring, cycle: CycleOrPath) -> ParityCensus:
    vs = cycle.vertices
    succ = vs[1:] + vs[:1] if cycle.closed else vs[1:]
    return parity_census(coloring, zip(vs, succ))


def symmetric_difference(c1: CycleOrPath, c2: CycleOrPath) -> set[Edge]:
    """Edge set ``E(c1) xor E(c2)`` of two Hamilton cycles on one vertex set."""
    if not (c1.closed and c2.closed):
        raise PreconditionFailed("symmetric difference is defined for cycles")
    if set(c1.vertices) != set(c2.vertices):
        raise PreconditionFailed("cycles live on different vertex sets")
    return set(c1.edges()) ^ set(c2.edges())


# ---------------------------------------------------------------------------
# JSON instance format, shared by every module and the CLI:
#   {"n": <int>, "r": <int>, "edges": [{"u": <int>, "v": <int>, "c": <int>}]}
# Edges are listed once with u < v; for complete hosts all C(n,2) edges
# must appear.  n must lie in 1..MAX_INSTANCE_N.
# ---------------------------------------------------------------------------

# Largest vertex count an instance document may declare.  Checked before
# any graph is built, since building costs O(n^2) even without edges.
MAX_INSTANCE_N = 2000


def check_instance_size(n: int) -> None:
    """Reject a vertex count outside 1..MAX_INSTANCE_N, whether read from
    an instance document or asked of a generator."""
    if not 1 <= n <= MAX_INSTANCE_N:
        raise PreconditionFailed(f"instance size n = {n} outside 1..{MAX_INSTANCE_N}")


def instance_to_obj(coloring: EdgeColoring) -> dict:
    return {
        "n": coloring.host.n,
        "r": coloring.r,
        "edges": [{"u": u, "v": v, "c": c} for (u, v), c in coloring.items()],
    }


def instance_from_obj(obj: dict) -> EdgeColoring:
    # Fields must be JSON integers and a list: a bool or float is rejected,
    # not coerced.
    try:
        n, r, raw = obj["n"], obj["r"], obj["edges"]
    except (KeyError, TypeError) as exc:
        raise PreconditionFailed(f"malformed instance object: {exc}") from exc
    if type(n) is not int or type(r) is not int or type(raw) is not list:
        raise PreconditionFailed(
            "malformed instance object: n and r must be integers, edges a list"
        )
    check_instance_size(n)
    table = [[0] * n for _ in range(n)]
    rows = [0] * n
    for item in raw:
        try:
            u, v, c = item["u"], item["v"], item["c"]
        except (KeyError, TypeError) as exc:
            raise PreconditionFailed(f"malformed edge record {item!r}") from exc
        if type(u) is not int or type(v) is not int or type(c) is not int:
            raise PreconditionFailed(
                f"malformed edge record {item!r}: u, v and c must be integers"
            )
        if u == v:
            raise PreconditionFailed(f"self-loop {u}-{v} rejected")
        if not u < v:
            raise PreconditionFailed(f"edge {u}-{v} must be listed with u < v")
        if not (0 <= u and v < n):
            raise PreconditionFailed(f"edge {u}-{v} outside vertex range")
        row = table[u]
        if row[v]:
            raise PreconditionFailed(f"duplicate edge {u}-{v}")
        if not 1 <= c <= r:
            raise PreconditionFailed(f"color {c} outside palette 1..{r}")
        row[v] = table[v][u] = c
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if r < 1:
        raise PreconditionFailed("palette size must be at least 1")
    return EdgeColoring._from_table(SimpleGraph._from_rows(rows), r, table)


def instance_to_json(coloring: EdgeColoring) -> str:
    return json.dumps(instance_to_obj(coloring), sort_keys=True)


def instance_from_json(text: str) -> EdgeColoring:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the parser's depth
        raise PreconditionFailed(f"invalid JSON: {exc}") from exc
    return instance_from_obj(obj)
