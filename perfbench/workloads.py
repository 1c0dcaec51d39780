"""Seeded inputs for the four benchmark workloads.

Everything here is standard library only and never imports ``oddramsey``:
the benchmark seed decides the inputs, and the program under test only
ever sees the JSON files and arguments built here.  The two parity
workloads are streams of independent same-size instances; the other two
are a fixed *round* of different commands, which a run repeats whole, so
every run has the same mix whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step, as documented in the project README."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class Rng:
    """SplitMix64 stream; ``derive`` gives independent per-instance streams."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state, word = splitmix64_next(self.state)
        return word

    def below(self, k: int) -> int:
        return self.next() % k

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive(seed: int, *labels: int) -> int:
    """Mix a workload seed with slot labels into a fresh 64-bit seed."""
    state = seed & MASK64
    for label in labels:
        state, word = splitmix64_next(state ^ (label * 0xD1B54A32D192ED03 & MASK64))
        state = word
    return state


# ---------------------------------------------------------------------------
# Graphs and colourings.  An instance is (n, r, {(u, v): colour}) with u < v.
# ---------------------------------------------------------------------------


def min_degree_graph(n: int, dmin: int, seed: int) -> list[tuple[int, int]]:
    """Sparse host with minimum degree at least ``dmin``.

    Starting from K_n, edges are visited in a seeded shuffle and dropped
    with probability 3/4 while both endpoints stay above the floor, which
    leaves a graph sitting at the floor.
    """
    es = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = Rng(seed)
    rng.shuffle(es)
    deg = [n - 1] * n
    kept = []
    for u, v in es:
        drop = rng.below(4) != 0
        if drop and deg[u] > dmin and deg[v] > dmin:
            deg[u] -= 1
            deg[v] -= 1
        else:
            kept.append((u, v))
    kept.sort()
    return kept


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def random_colouring(edges: list[tuple[int, int]], r: int, seed: int) -> dict:
    """Edges in lexicographic order each take colour 1 + (SplitMix64 mod r)."""
    state = seed & MASK64
    out = {}
    for e in sorted(edges):
        state, word = splitmix64_next(state)
        out[e] = 1 + word % r
    return out


def two_block_colouring(n: int, edges: list[tuple[int, int]], seed: int) -> dict:
    """Colour 1 inside each of two seeded blocks, colour 2 across them.

    Both blocks are non-empty.  Such a colouring has no odd-chromatic 4- or
    6-cycle, and every Hamilton cycle crosses between the blocks an even
    number of times.
    """
    rng = Rng(seed)
    side = [rng.below(2) for _ in range(n)]
    side[0], side[n - 1] = 0, 1
    return {(u, v): 1 if side[u] == side[v] else 2 for u, v in edges}


def unique_upper_colouring(n: int) -> dict:
    """The documented rule: vertices 0..n/2 form the large block; edges
    inside either block get colour 1; a crossing edge takes colour u+1 of
    its large-block endpoint u."""
    big = n // 2 + 1
    return {
        (u, v): 1 if (u < big) == (v < big) else u + 1
        for u, v in complete_edges(n)
    }


def relabelled(n: int, r: int, colouring: dict, seed: int) -> dict:
    """Isomorphic copy: seeded vertex permutation and colour permutation."""
    rng = Rng(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    palette = list(range(1, r + 1))
    rng.shuffle(palette)
    out = {}
    for (u, v), c in colouring.items():
        a, b = perm[u], perm[v]
        out[(min(a, b), max(a, b))] = palette[c - 1]
    return out


def instance_text(n: int, r: int, colouring: dict) -> str:
    """The project's JSON instance format, edges sorted, written exactly as
    ``json.dumps`` with sorted keys would (but several times faster)."""
    edges = ", ".join(
        f'{{"c": {colouring[e]}, "u": {e[0]}, "v": {e[1]}}}' for e in sorted(colouring)
    )
    return f'{{"edges": [{edges}], "n": {n}, "r": {r}}}'


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    """One CLI invocation plus what the checker needs to judge its output.

    ``argv`` may contain ``{input}``, replaced by the path of ``text`` once
    it is written.  ``expect`` names the check; ``facts`` carries the input
    (n, r, colouring) and any pinned answers.
    """

    label: str
    argv: list[str]
    expect: str
    text: str | None = None
    facts: dict = field(default_factory=dict)


# The parity workloads are streams of independent instances of one size: a
# run may stop after any of them without changing the mix.
STREAM_POOL = 30
SWITCH_N = 100
ENDGAME_N = 92


def _stream(seed: int, n: int, tag: str, labels: tuple[int, int], colour) -> list[Instance]:
    out = []
    for i in range(STREAM_POOL):
        edges = min_degree_graph(n, n // 2 + 2, derive(seed, labels[0], i))
        col = colour(n, edges, derive(seed, labels[1], i))
        out.append(_even_hamilton(f"{tag}-n{n}-{i}", n, col))
    return out


def _parity_switch(seed: int) -> list[Instance]:
    return _stream(
        seed, SWITCH_N, "switch", (1, 2), lambda n, es, s: random_colouring(es, 2, s)
    )


def _parity_endgame(seed: int) -> list[Instance]:
    return _stream(seed, ENDGAME_N, "endgame", (3, 4), two_block_colouring)


def _even_hamilton(label: str, n: int, col: dict) -> Instance:
    return Instance(
        label,
        ["find", "even-hamilton", "--input", "{input}"],
        "even-hamilton",
        instance_text(n, 2, col),
        {"n": n, "r": 2, "colouring": col},
    )


# Known exact-oracle verdicts, with the n=8, r=2 search-node counts pinned
# exactly (None: the count is not pinned).
ORACLE_PINS = {
    (8, "odd", 2): (False, 528_384),
    (8, "unique", 2): (False, 524_544),
    (6, "odd", 3): (False, None),
    (6, "unique", 3): (False, None),
}


def _oracle(seed: int) -> list[Instance]:
    k9 = [
        _verify(
            f"verify-odd-k9-{i}", 9, 2,
            two_block_colouring(9, complete_edges(9), derive(seed, 5, i)),
            "odd-chromatic",
        )
        for i in range(6)
    ]
    col = relabelled(10, 6, unique_upper_colouring(10), derive(seed, 6, 0))
    k10 = _verify("verify-unique-k10", 10, 6, col, "has-unique-color")
    exact = [
        Instance(
            f"oracle-n{n}-{mode}-r{r}",
            ["oracle", "exact", "--n", str(n), "--mode", mode, "--r", str(r)],
            "oracle",
            facts={"n": n, "mode": mode, "r": r, "pin": pin},
        )
        for (n, mode, r), pin in ORACLE_PINS.items()
    ]
    # The K_9 checks hold the median; spreading them over the round makes
    # it sample the whole round rather than one stretch of it.
    return [
        k9[0], exact[3], k9[1], exact[0], k9[2], exact[2], k9[3], k10, k9[4],
        exact[1], k9[5],
    ]


def _verify(label: str, n: int, r: int, col: dict, predicate: str) -> Instance:
    return Instance(
        label,
        ["verify", "cycles", "--input", "{input}", "--predicate", predicate],
        "verify-holds",
        instance_text(n, r, col),
        {"n": n, "r": r, "colouring": col},
    )


def _complete_instance(label, argv, expect, n, r, seed, **facts) -> Instance:
    col = random_colouring(complete_edges(n), r, seed)
    facts.update(n=n, r=r, colouring=col)
    return Instance(label, argv, expect, instance_text(n, r, col), facts)


def _constructive(seed: int) -> list[Instance]:
    def gen(i: int) -> Instance:
        s = derive(seed, 7, i) >> 1
        return Instance(
            "gen-random-n400",
            ["gen", "random", "--n", "400", "--r", "3", "--seed", str(s)],
            "gen-random",
            facts={"n": 400, "r": 3, "seed": s},
        )

    def unique_free(i: int, n: int) -> Instance:
        return _complete_instance(
            f"unique-free-n{n}-{i}", ["find", "unique-free", "--input", "{input}"],
            "unique-free", n, n // 4, derive(seed, 8, i),
        )

    # Even s runs the strongly-even index; odd s also builds the parity
    # hypergraph and searches an even cover.
    def kst(i: int, s: int, *extra: str) -> Instance:
        return _complete_instance(
            f"even-kst-n60-s{s}-{i}",
            ["find", "even-kst", "--input", "{input}", "--s", str(s), "--t", "6", *extra],
            "even-kst", 60, 4, derive(seed, 9, i), s=s, t=6,
        )

    def dot(i: int, n: int, r: int) -> Instance:
        return _complete_instance(
            f"export-dot-n{n}", ["export", "dot", "--input", "{input}"],
            "dot", n, r, derive(seed, 10, i),
        )

    upper = Instance(
        "construct-unique-upper-n400",
        ["construct", "unique-upper", "--n", "400"],
        "unique-upper",
        facts={"n": 400},
    )
    # Five short commands (the emitters, export dot and odd-s even-kst),
    # five unique-free n=360 and four longer ones (even-kst s=4,
    # unique-free n=400), interleaved.  The median then falls inside the
    # n=360 group and the tail (ten runs beyond it) in its upper part:
    # dense stretches of the latency distribution, not the gaps between
    # groups.
    return [
        gen(0), kst(0, 4), unique_free(0, 360), dot(0, 200, 5),
        unique_free(1, 400), unique_free(2, 360), upper, kst(1, 4),
        unique_free(3, 360), kst(2, 5, "--t-prime", "10"), unique_free(4, 360),
        kst(3, 4), unique_free(5, 360), dot(1, 300, 7),
    ]


WORKLOADS = {
    "parity-switch": _parity_switch,
    "parity-endgame": _parity_endgame,
    "oracle": _oracle,
    "constructive": _constructive,
}
STREAMS = {"parity-switch", "parity-endgame"}


def build(workload: str, seed: int) -> list[Instance]:
    return WORKLOADS[workload](seed)


def round_size(workload: str, instances: list[Instance]) -> int:
    """Instances a run must finish together: one for a stream, else all."""
    return 1 if workload in STREAMS else len(instances)


def write_inputs(instances: list[Instance], directory: Path) -> list[list[str]]:
    """Write each instance's input file; return the concrete argv lists."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, inst in enumerate(instances):
        argv = list(inst.argv)
        if inst.text is not None:
            path = directory / f"{i:02d}-{inst.label}.json"
            path.write_text(inst.text, encoding="utf-8")
            argv = [str(path) if a == "{input}" else a for a in argv]
        argvs.append(argv)
    return argvs
