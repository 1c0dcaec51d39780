"""Self-tests of the benchmark: generators, checker, span arithmetic, coverage.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*argv: str, stdin: str | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "oddramsey.cli", *argv],
        input=stdin, capture_output=True, text=True, env=ENV, check=False,
    )
    return proc.returncode, proc.stdout


def run_inst(inst: workloads.Instance, tmp_path: Path) -> tuple[int, str]:
    (argv,) = workloads.write_inputs([inst], tmp_path)
    return cli(*argv)


# --- generators ------------------------------------------------------------


def _written(workload: str, seed: int, directory: Path) -> list:
    argvs = workloads.write_inputs(workloads.build(workload, seed), directory)
    files = sorted(directory.iterdir())
    return [[a.replace(str(directory), "") for a in argv] for argv in argvs] + [
        (f.name, f.read_bytes()) for f in files
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _written(workload, 11, tmp_path / "a")
    assert first == _written(workload, 11, tmp_path / "b")
    assert first != _written(workload, 12, tmp_path / "c")


def test_generator_matches_library_reference():
    """The benchmark's host generator reproduces the library's procedure."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from oddramsey.constructions import random_min_degree_graph
    finally:
        sys.path.remove(str(ROOT / "src"))
    g = random_min_degree_graph(40, 22, 9)
    assert sorted(g.edges()) == workloads.min_degree_graph(40, 22, 9)


def test_two_block_colouring_has_both_blocks():
    col = workloads.two_block_colouring(9, workloads.complete_edges(9), 3)
    assert set(col.values()) == {1, 2}


# --- checker ---------------------------------------------------------------


def test_splitmix_reference_matches_readme_pins():
    assert check.splitmix_matches_readme()


def _switch_instance() -> workloads.Instance:
    edges = workloads.min_degree_graph(12, 8, 4)
    col = workloads.random_colouring(edges, 2, 5)
    return workloads._even_hamilton("small", 12, col)


def test_checker_rejects_corrupted_cycle(tmp_path):
    inst = _switch_instance()
    code, out = run_inst(inst, tmp_path)
    assert check.check(inst, code, out) == []
    obj = json.loads(out)
    repeated = dict(obj, cycle=[obj["cycle"][0]] + obj["cycle"][:-1])
    assert check.check(inst, 0, json.dumps(repeated))
    census = dict(obj["census"])
    census["1"] += 2
    assert check.check(inst, 0, json.dumps(dict(obj, census=census)))
    assert check.check(inst, 5, out)


def test_instance_text_matches_json_dumps():
    col = workloads.random_colouring(workloads.complete_edges(7), 3, 5)
    edges = [{"c": col[e], "u": e[0], "v": e[1]} for e in sorted(col)]
    obj = {"edges": edges, "n": 7, "r": 3}
    assert workloads.instance_text(7, 3, col) == json.dumps(obj, sort_keys=True)


def test_checker_rejects_odd_cycle():
    col = dict.fromkeys(workloads.complete_edges(6), 1)
    col[(0, 1)] = 2
    inst = workloads._even_hamilton("k6", 6, col)
    out = {"census": {"1": 5, "2": 1}, "cycle": list(range(6)), "status": "ok"}
    assert check.check(inst, 0, json.dumps(out))
    col[(0, 1)] = 1
    assert check.check(inst, 0, json.dumps(dict(out, census={"1": 6}))) == []


def test_checker_rejects_wrong_verdicts():
    inst = workloads.build("oracle", 1)
    verify = next(i for i in inst if i.expect == "verify-holds")
    assert check.check(verify, 0, '{"holds": true, "status": "ok"}') == []
    assert check.check(verify, 0, '{"counterexample": [0, 1, 2], "holds": false, "status": "ok"}')
    oracle = next(i for i in inst if i.facts.get("n") == 8 and i.facts["mode"] == "odd")
    good = {"exists": False, "nodes": 528384, "scheme": "s", "status": "ok"}
    assert check.check(oracle, 0, json.dumps(good)) == []
    assert check.check(oracle, 0, json.dumps(dict(good, exists=True)))
    assert check.check(oracle, 0, json.dumps(dict(good, nodes=528385)))


def test_checker_rejects_flipped_generator_byte():
    inst = workloads.Instance(
        "gen", [], "gen-random", facts={"n": 7, "r": 3, "seed": 5}
    )
    code, out = cli("gen", "random", "--n", "7", "--r", "3", "--seed", "5")
    assert check.check(inst, code, out) == []
    at = out.index('"c": ') + len('"c": ')
    flipped = out[:at] + str(1 + int(out[at]) % 3) + out[at + 1 :]
    assert check.check(inst, code, flipped)

    upper = workloads.Instance("up", [], "unique-upper", facts={"n": 8})
    code, out = cli("construct", "unique-upper", "--n", "8")
    assert check.check(upper, code, out) == []
    assert check.check(upper, code, out.replace('"c": 5', '"c": 4', 1))


def test_checker_accepts_kst_miss_and_rejects_bad_sides():
    inst = workloads.Instance(
        "kst", [], "even-kst",
        facts={"n": 6, "r": 1, "s": 2, "t": 2,
               "colouring": dict.fromkeys(workloads.complete_edges(6), 1)},
    )
    assert check.check(inst, 3, '{"stage": "even-cover", "status": "unknown"}') == []
    assert check.check(inst, 3, '{"stage": "", "status": "unknown"}')
    good = {"A": [0, 1], "B": [2, 3], "census": {"1": 4}, "status": "ok"}
    assert check.check(inst, 0, json.dumps(good)) == []
    assert check.check(inst, 0, json.dumps(dict(good, B=[1, 3])))


# --- spans -----------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # A(0,10) -> B(1,4) -> B(2,3); A -> C(5,9) -> D(6,8)
    names = ["A", "B", "C", "D"]
    name = [0, 1, 1, 2, 3]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    agg = tracer.aggregate(names, name, parent, start, end)
    assert agg["A"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["B"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert agg["C"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert agg["D"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 21)]
    assert run.tail(lat) == (10.0, 50.0)
    assert run.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3))


def test_times_scale_by_the_reference_task_around_them():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(1.0, ref, ref) == pytest.approx(1.0)
    # On a host running at half the reference speed, reported times halve.
    assert calibrate.scale(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert calibrate.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)


# --- wrapper coverage ------------------------------------------------------

# Seed at which the constructive round reaches both unique-free closing
# branches (single unused colour, and cherry merge plus close) and a
# claw-family restart.
COVERAGE_SEED = 1


def _span_metrics() -> set[str]:
    spans = set()
    for metric in run.PER_LAYER_UNITS:
        for suffix in run.SPAN_FIELDS:
            if metric.endswith(suffix):
                spans.add(metric[: -len(suffix)])
    return spans


def test_every_layer_metric_names_a_wrapped_function():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer;"
        "s = tracer.SpanStore(); tracer.install(s); print(json.dumps(s.names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH)],
        capture_output=True, text=True, env=ENV, check=True,
    )
    wrapped = set(json.loads(proc.stdout))
    assert _span_metrics() <= wrapped


def test_every_layer_metric_fires_on_some_workload(tmp_path):
    fired: set[str] = set()
    counters: dict[str, int] = {}
    for workload in workloads.WORKLOADS:
        instances = workloads.build(workload, COVERAGE_SEED)
        # One instance per command kind keeps this quick, except where
        # different inputs take different branches.
        if workload != "constructive":
            seen, picked = set(), []
            for inst in instances:
                kind = (inst.expect, inst.facts.get("mode"), inst.facts.get("r"))
                if kind not in seen and inst.label != "verify-unique-k10":
                    seen.add(kind)
                    picked.append(inst)
            instances = picked
        argvs = workloads.write_inputs(instances, tmp_path / workload)
        for inst, argv in zip(instances, argvs):
            res = run.run_instance(inst, argv, tmp_path, ENV, traced=True)
            assert res.problems == [], (inst.label, res.problems)
            fired |= {span for span, row in res.layers.items() if row["calls"]}
            for key, v in res.counters.items():
                counters[key] = counters.get(key, 0) + v
    assert _span_metrics() - fired == set()
    quiet = {"parity_switch.route.c6"}  # no workload input reaches a C6 switch
    for key in (set(run.SENTINELS) - quiet) | {"unique_finder.restarts"}:
        assert counters.get(key, 0) > 0, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_file_lists_exactly_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {m["unit"] for m in doc["end_to_end"]} >= set(run.END_TO_END_UNITS.values())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
