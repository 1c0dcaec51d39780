"""Outside-in layer spans for one CLI child process.

Usage (from the checkout root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANFILE -- find even-hamilton --input X

Before ``oddramsey.cli.main`` runs, every public function of every
``oddramsey`` module is replaced by a timing wrapper, in its defining
module and in every module that imported it by name, so calls through
either binding record a span.  ``SimpleGraph`` and ``EdgeColoring``
construction and ``cli.main`` itself are spans too.  A few wrappers also
read exact work counts off return values.  Spans stay in memory; when the
command ends they are written to ``SPANFILE.bin`` (four flat arrays) and
``SPANFILE.json`` (span names, counters, teardown time).  The parent turns
them into per-layer numbers with :func:`aggregate`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MODULES = (
    "colored_graph",
    "hamilton",
    "parity_switch",
    "unique_finder",
    "bipartite_even",
    "constructions",
    "cli",
)
CLASSES = (("colored_graph", "SimpleGraph"), ("colored_graph", "EdgeColoring"))
# Pair normalisation runs once per edge inside every graph constructor; a
# span there would cost more than the call it measures.
UNWRAPPED = {"colored_graph.edge"}

clock = time.perf_counter


class SpanStore:
    """Append-only span arrays plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = clock()
        self.stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, path: str, teardown_started: float) -> None:
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "counters": self.counters,
            "teardown_s": clock() - teardown_started,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def read_spans(path: str) -> tuple[dict, list[str], array, array, array, array]:
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    k = header["spans"]
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, k)
    return (header, header["names"], *arrays)


def aggregate(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children (spans of one thread never overlap, so that is the covered
    part).  Inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.  Parents always precede their
    children in the arrays.
    """
    k = len(name)
    dur = [end[i] - start[i] for i in range(k)]
    child = [0.0] * k
    for i in range(k):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(k):
        nid = name[i]
        row = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur[i] - child[i]
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            row["s"] += dur[i]
    return out


# Exact work counts read off return values, keyed by span name.
def _closure(store, ret):
    store.count("hamilton.closure_edges_added", len(ret.added))


def _oracle(store, ret):
    store.count("constructions.oracle_nodes", ret.nodes)


def _route(store, ret):
    prefix = ret.provenance.split()[0]
    route = {"c4-switch": "c4", "c6-switch": "c6", "agreement-endgame": "endgame"}
    store.count("parity_switch.route." + route[prefix])


def _ledger(store, ret):
    history = ret.ledger.history
    store.count("unique_finder.ledger_events", len(history))
    store.count(
        "unique_finder.restarts", sum(1 for ev in history if ev["event"] == "restart")
    )


def _kst(store, ret):
    store.count("bipartite_even.searches")
    store.count("bipartite_even.found", int(hasattr(ret, "side_a")))


HOOKS = {
    "hamilton.bondy_chvatal_closure": _closure,
    "constructions.exact_ramsey": _oracle,
    "parity_switch.find_even_hamilton_2col": _route,
    "unique_finder.find_unique_free_hamilton": _ledger,
    "bipartite_even.find_even_chromatic_kst": _kst,
}
YIELD_COUNTERS = {"hamilton.enumerate_hamilton_cycles": "hamilton.cycles_enumerated"}


def _wrap_function(store: SpanStore, fn, span: str):
    nid = store.name_id(span)
    hook = HOOKS.get(span)
    if inspect.isgeneratorfunction(fn):
        # Time spent inside the generator only: one span per resumption.
        per_item = YIELD_COUNTERS.get(span)

        def steps(gen):
            while True:
                i = store.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    store.close(i)
                if per_item:
                    store.count(per_item)
                yield item

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = store.open(nid)
        try:
            ret = fn(*args, **kwargs)
        finally:
            store.close(i)
        if hook is not None:
            hook(store, ret)
        return ret

    return wrapper


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(store: SpanStore) -> dict[str, object]:
    """Wrap every public function and the traced constructors.

    Returns the ``oddramsey`` modules by short name.
    """
    import importlib

    mods = {m: importlib.import_module("oddramsey." + m) for m in MODULES}
    mods["__init__"] = importlib.import_module("oddramsey")
    wrapped: dict[int, object] = {}
    for short in MODULES:
        for name, fn in public_functions(mods[short]).items():
            span = f"{short}.{name}"
            if span not in UNWRAPPED:
                wrapped[id(fn)] = _wrap_function(store, fn, span)
    # Rebind in the defining module and wherever it was imported by name.
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    for short, cls_name in CLASSES:
        cls = getattr(mods[short], cls_name)
        cls.__init__ = _wrap_function(store, cls.__init__, f"{short}.{cls_name}")
    return mods


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANFILE -- <oddramsey arguments>", file=sys.stderr)
        return 64
    store = SpanStore()
    mods = install(store)
    try:
        code = mods["cli"].main(argv[2:])
    finally:
        sys.stdout.flush()
        store.write(argv[0], clock())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
