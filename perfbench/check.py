"""Independent output checker for every benchmark instance.

It never imports ``oddramsey``: answers are recomputed from the input the
benchmark generated (Hamilton cycles against the host, censuses from the
colouring, generators from the documented SplitMix64 update and
construction rule) or compared with pinned known answers.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from workloads import complete_edges, splitmix64_next, unique_upper_colouring

# First two SplitMix64 outputs from seed 0, pinned in the project README.
PINNED_SPLITMIX = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)

STATUS_EXIT = {"ok": 0, "not_found": 2, "unknown": 3}


def splitmix_matches_readme() -> bool:
    state, first = splitmix64_next(0)
    _, second = splitmix64_next(state)
    return (first, second) == PINNED_SPLITMIX


def check(inst, exit_code: int, stdout: str) -> list[str]:
    """All problems with one instance's result; an empty list means correct."""
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if not isinstance(obj, dict):
        return ["stdout is not a JSON object"]
    return CHECKS[inst.expect](inst.facts, exit_code, obj)


def _ok(exit_code: int, obj: dict) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}, status {obj.get('status')!r}: {obj.get('error')}"]
    if obj.get("status", "ok") != "ok":
        return [f"status {obj.get('status')!r} with exit code 0"]
    return []


def _census(colouring: dict, edges) -> dict[str, int]:
    counts = Counter(colouring[e] for e in edges)
    return {str(c): k for c, k in sorted(counts.items())}


def _cycle_problems(facts: dict, cycle) -> tuple[list[str], dict | None]:
    """Validate a Hamilton cycle of the input host; return its census."""
    n, colouring = facts["n"], facts["colouring"]
    if not isinstance(cycle, list) or sorted(cycle) != list(range(n)):
        return ["cycle is not a permutation of the vertices"], None
    edges = [
        (min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    ]
    missing = [e for e in edges if e not in colouring]
    if missing:
        return [f"cycle uses non-edge {missing[0]}"], None
    return [], _census(colouring, edges)


def _even_hamilton(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    problems, census = _cycle_problems(facts, obj.get("cycle"))
    if census is None:
        return problems
    if any(k % 2 for k in census.values()):
        problems.append(f"cycle is not even-chromatic: {census}")
    if obj.get("census") != census:
        problems.append("reported census differs from the recomputed one")
    return problems


def _unique_free(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    problems, census = _cycle_problems(facts, obj.get("cycle"))
    if census is None:
        return problems
    unique = [c for c, k in census.items() if k == 1]
    if unique:
        problems.append(f"cycle keeps unique colours {unique}")
    if obj.get("census") != census:
        problems.append("reported census differs from the recomputed one")
    return problems


def _even_kst(facts, exit_code, obj):
    status = obj.get("status")
    if status in ("not_found", "unknown"):
        if exit_code != STATUS_EXIT[status]:
            return [f"status {status} with exit code {exit_code}"]
        if not isinstance(obj.get("stage"), str) or not obj["stage"]:
            return ["a miss must name its stage"]
        return []
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    a, b = obj.get("A"), obj.get("B")
    n, s, t = facts["n"], facts["s"], facts["t"]
    if not (isinstance(a, list) and isinstance(b, list)):
        return ["missing sides A and B"]
    if len(set(a)) != s or len(set(b)) != t or len(a) != s or len(b) != t:
        return [f"side sizes {len(a)}x{len(b)}, expected {s}x{t}"]
    if set(a) & set(b) or not all(
        isinstance(v, int) and 0 <= v < n for v in a + b
    ):
        return ["sides overlap or leave the vertex range"]
    census = _census(
        facts["colouring"], [(min(x, y), max(x, y)) for x in a for y in b]
    )
    if any(k % 2 for k in census.values()):
        problems.append(f"K_{{s,t}} is not even-chromatic: {census}")
    if obj.get("census") != census:
        problems.append("reported census differs from the recomputed one")
    return problems


def _verify_holds(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if not problems and (obj.get("holds") is not True or "counterexample" in obj):
        problems.append(f"verdict {obj.get('holds')!r}, known answer True")
    return problems


def _oracle(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    exists, nodes = facts["pin"]
    if obj.get("exists") is not exists:
        problems.append(f"verdict {obj.get('exists')!r}, known answer {exists}")
    if nodes is not None and obj.get("nodes") != nodes:
        problems.append(f"{obj.get('nodes')} oracle nodes, pinned {nodes}")
    if not exists and "witness" in obj:
        problems.append("a witness came with a negative verdict")
    return problems


def _same_instance(obj: dict, n: int, r: int, colouring: dict) -> list[str]:
    if obj.get("n") != n or obj.get("r") != r:
        return [f"header n={obj.get('n')} r={obj.get('r')}, expected n={n} r={r}"]
    edges = obj.get("edges")
    want = [{"u": u, "v": v, "c": colouring[(u, v)]} for u, v in complete_edges(n)]
    if edges != want:
        if not isinstance(edges, list) or len(edges) != len(want):
            return ["edge list has the wrong length"]
        bad = next(i for i, (x, y) in enumerate(zip(edges, want)) if x != y)
        return [f"edge record {bad} is {edges[bad]!r}, expected {want[bad]!r}"]
    return []


def _gen_random(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    n, r = facts["n"], facts["r"]
    state = facts["seed"]
    colouring = {}
    for e in complete_edges(n):
        state, word = splitmix64_next(state)
        colouring[e] = 1 + word % r
    return _same_instance(obj, n, r, colouring)


def _unique_upper(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    n = facts["n"]
    return _same_instance(obj, n, n // 2 + 1, unique_upper_colouring(n))


_DOT_EDGE = re.compile(r'^  (\d+) -- (\d+) \[label="(\d+)"')
_DOT_VERTEX = re.compile(r"^  (\d+);$")


def _dot(facts, exit_code, obj):
    problems = _ok(exit_code, obj)
    if problems:
        return problems
    text = obj.get("dot")
    if not isinstance(text, str):
        return ["no dot text"]
    lines = text.split("\n")
    if lines[0] != "graph instance {" or lines[-1] != "}":
        return ["dot text is not one graph block"]
    if f'  graph [palette="{facts["r"]}"];' not in lines:
        return ["palette attribute missing"]
    vertices = [int(m[1]) for m in map(_DOT_VERTEX.match, lines) if m]
    edges = {
        (int(m[1]), int(m[2])): int(m[3]) for m in map(_DOT_EDGE.match, lines) if m
    }
    if vertices != list(range(facts["n"])):
        problems.append("vertex statements differ from the input")
    if edges != facts["colouring"]:
        problems.append("edge statements differ from the input colouring")
    return problems


CHECKS = {
    "even-hamilton": _even_hamilton,
    "unique-free": _unique_free,
    "even-kst": _even_kst,
    "verify-holds": _verify_holds,
    "oracle": _oracle,
    "gen-random": _gen_random,
    "unique-upper": _unique_upper,
    "dot": _dot,
}
