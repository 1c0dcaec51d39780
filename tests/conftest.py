from pathlib import Path

import pytest
from hypothesis import strategies as st

from oddramsey.colored_graph import EdgeColoring, SimpleGraph


def mono_coloring(n: int, color: int = 1, r: int = 1) -> EdgeColoring:
    host = SimpleGraph.complete(n)
    return EdgeColoring(host, r, {e: color for e in host.edges()})


def coloring_with(n: int, r: int, overrides: dict, base: int = 1) -> EdgeColoring:
    """Complete-host coloring: ``base`` everywhere except ``overrides``."""
    from oddramsey.colored_graph import edge

    host = SimpleGraph.complete(n)
    assignment = {e: base for e in host.edges()}
    for (u, v), c in overrides.items():
        assignment[edge(u, v)] = c
    return EdgeColoring(host, r, assignment)


@pytest.fixture
def k6_mono():
    return mono_coloring(6)


# Any small JSON document.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def instance_like(draw):
    """A valid instance document, or one with a field, an edge record or a
    key replaced by a small integer or any JSON value, or dropped."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs), max_size=8))) if pairs else []
    edges = [{"u": u, "v": v, "c": draw(st.integers(1, r))} for u, v in chosen]
    obj = {"n": n, "r": r, "edges": edges}
    where = draw(st.sampled_from(
        ["none", "whole", "drop", "n", "r", "edges", "record", "u", "v", "c"]
    ))
    value = draw(
        st.integers(-2, 6) | st.sampled_from([True, 1.0, "1", None]) | json_values
    )
    if where == "whole":
        return value
    if where == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif where in obj:
        obj[where] = value
    elif where != "none" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        if where == "record":
            edges[i] = value
        else:
            edges[i][where] = value
    return obj


def readme_usage_lines() -> list[str]:
    """The ``oddramsey ...`` lines of the README's CLI usage block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("oddramsey ")]
