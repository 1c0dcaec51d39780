"""Benchmark of the oddramsey CLI, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload parity-switch --seed 1 --seconds 18 --trace 0

Every instance is one fresh ``python3 -m oddramsey.cli`` child, so
interpreter start, imports, JSON parsing and printing are all measured.
The load is a closed loop: one client runs one child at a time and checks
its output (``check.py``) before starting the next; a workload made of a
round of different commands always finishes its round.  Every child and
every setup is bracketed by two timings of a fixed reference task
(``calibrate.py``), and the end-to-end times are reported scaled to the
reference host's speed; the unscaled values go to the report and the
result file.  A run lasts until the children's scaled times add up to
``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass over the traced set (a round, or the first instances of a
stream), then at least two passes under ``tracer.py``, and prints the
per-layer metrics; the exact work counters of the traced passes must
agree, otherwise the drift is reported and the run fails.  The last
stdout line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); a readable report and the provenance go to stderr and to
``.perfbench/results/``.  The exit code is nonzero when any output check
fails or the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Setup is sampled again after every SETUP_EVERY_S seconds of measuring: on
# a shared virtual machine CPU speed drifts over seconds, and samples spread
# over the run give a steadier median than back-to-back ones.
SETUP_EVERY_S = 15.0
INSTANCE_TIMEOUT_S = 120
TAIL_BEYOND = 10
# A traced run of a stream workload covers its first few instances.
TRACE_STREAM = 6

END_TO_END_UNITS = {
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: "<span>.s" is inclusive time, "<span>.self_s" the time
# not covered by child spans, "<span>.calls" the number of spans; other
# names are exact counters or derived ratios.  Values are means per traced
# instance.
STAGES = (
    "max_claw_collection",
    "resolve_dangerous",
    "harvest_cherries_matchings",
    "merge_endpoints",
    "merge_cherries",
    "close_cycle",
    "special_case_single_unused",
)
PER_LAYER_UNITS = {
    "hamilton.bondy_chvatal_closure.s": "s",
    "hamilton.bondy_chvatal_closure.calls": "count",
    "hamilton.closure_edges_added": "count",
    "hamilton.unwind_closure.s": "s",
    "hamilton.hamilton_path_between.self_s": "s",
    "hamilton.dirac_hamilton_cycle.self_s": "s",
    "parity_switch.agreement_partition.s": "s",
    "parity_switch.switch_c4.self_s": "s",
    "parity_switch.route.c4": "count",
    "parity_switch.route.c6": "count",
    "parity_switch.route.endgame": "count",
    "hamilton.enumerate_hamilton_cycles.s": "s",
    "hamilton.cycles_enumerated": "count",
    "constructions.verify_every_cycle.self_s": "s",
    "constructions.exact_ramsey.s": "s",
    "constructions.oracle_nodes": "count",
    "colored_graph.instance_from_json.s": "s",
    "colored_graph.SimpleGraph.calls": "count",
    "colored_graph.SimpleGraph.s": "s",
    "colored_graph.cycle_census.calls": "count",
    "colored_graph.instance_to_obj.s": "s",
    "constructions.random_coloring.s": "s",
    "constructions.unique_upper_coloring.s": "s",
    **{f"unique_finder.{stage}.s": "s" for stage in STAGES},
    "unique_finder.ledger_events": "count",
    "unique_finder.restarts": "count",
    "bipartite_even.find_strongly_even.s": "s",
    "bipartite_even.build_parity_hypergraph.s": "s",
    "bipartite_even.find_even_cover.s": "s",
    "bipartite_even.found_ratio": "ratio",
    "cli.process_start_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.layer_coverage": "ratio",
}
SPAN_FIELDS = {".s": "s", ".self_s": "self_s", ".calls": "calls"}
# Counters that must repeat exactly for identical inputs.
SENTINELS = (
    "hamilton.closure_edges_added",
    "hamilton.cycles_enumerated",
    "constructions.oracle_nodes",
    "parity_switch.route.c4",
    "parity_switch.route.c6",
    "parity_switch.route.endgame",
    "unique_finder.ledger_events",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, broken setup)."""


@dataclass
class Result:
    inst: workloads.Instance
    wall: float
    exit_code: int
    rss_mb: float
    problems: list[str]
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    teardown_s: float = 0.0
    # Wall time at reference speed, and the reference task's mean time
    # around this child.
    scaled: float = 0.0
    gauge: float = 0.0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], workdir: Path, env: dict) -> tuple[float, int, float, str]:
    """Run one child to completion: wall seconds, exit code, peak RSS, stdout."""
    out, err = workdir / "stdout", workdir / "stderr"
    mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), mode, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), mode, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    timer = threading.Timer(INSTANCE_TIMEOUT_S, _kill, (pid,))
    timer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:
            _kill(pid)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    return wall, code, usage.ru_maxrss / 1024.0, out.read_text(encoding="utf-8")


def run_instance(inst, argv, workdir, env, traced: bool) -> Result:
    spans = str(workdir / "spans")
    if traced:
        cmd = [str(HERE / "tracer.py"), spans, "--", *argv]
    else:
        cmd = ["-m", "oddramsey.cli", *argv]
    wall, code, rss, stdout = spawn(cmd, workdir, env)
    res = Result(inst, wall, code, rss, check.check(inst, code, stdout))
    if traced:
        try:
            header, names, *arrays = tracer.read_spans(spans)
        except OSError as exc:
            res.problems.append(f"tracer wrote no spans: {exc}")
            return res
        res.layers = tracer.aggregate(names, *arrays)
        res.counters = header["counters"]
        res.teardown_s = header["teardown_s"]
    return res


def run_loop(
    instances, argvs, workdir, env, seconds, traced, rounds_of, min_rounds=1,
    resetup=None,
):
    """Run the instances in order, cycling, until the children's times at
    reference speed add up to ``seconds`` and at least ``min_rounds`` whole
    rounds of ``rounds_of`` instances ran.  Counting scaled time keeps the
    number of rounds the same in fast and slow phases of the host, and
    with it the percentile the tail reads.  ``resetup``, when given, is
    called between instances every SETUP_EVERY_S seconds of wall time,
    outside the measured time.  The reference task is timed before the
    first instance and after every one."""
    results: list[Result] = []
    measured = since_setup = 0.0
    before = calibrate.sample()
    while (
        len(results) < min_rounds * rounds_of
        or len(results) % rounds_of
        or measured < seconds
    ):
        if resetup is not None and since_setup >= SETUP_EVERY_S:
            resetup()
            before = calibrate.sample()
            since_setup = 0.0
        i = len(results) % len(instances)
        started = time.perf_counter()
        res = run_instance(instances[i], argvs[i], workdir, env, traced)
        spent = time.perf_counter() - started
        after = calibrate.sample()
        res.scaled = calibrate.scale(res.wall, before, after)
        res.gauge = (before + after) / 2
        before = after
        results.append(res)
        measured += res.scaled
        since_setup += spent
    return results


def setup(workload: str, seed: int, workdir: Path, env: dict):
    """Build and write the inputs, then run one warm-up command; timed,
    and scaled to reference speed."""
    before = calibrate.sample()
    started = time.perf_counter()
    instances = workloads.build(workload, seed)
    argvs = workloads.write_inputs(instances, workdir / "inputs")
    warm_up(workdir, env)
    spent = time.perf_counter() - started
    return calibrate.scale(spent, before, calibrate.sample()), instances, argvs


def warm_up(workdir: Path, env: dict) -> None:
    """One tiny command: fails fast without a program and pays lazy costs
    such as byte-code compilation before anything is measured."""
    _, code, _, stdout = spawn(
        ["-m", "oddramsey.cli", "construct", "unique-upper", "--n", "4"], workdir, env
    )
    if code != 0 or not stdout.strip():
        err = (workdir / "stderr").read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"the program does not run (exit {code}): {err.strip()[-300:]}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND instances beyond it, and which one."""
    lat = sorted(latencies)
    k = len(lat)
    if k <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k


def latency_metrics(lat: list[float]) -> tuple[dict, float]:
    """The timing metrics of a run's latencies, and the tail percentile."""
    tail_s, tail_pct = tail(lat)
    values = {
        "latency_s.p50": statistics.median(lat),
        "latency_s.tail": tail_s,
        "instances_per_s": len(lat) / sum(lat),
    }
    return values, tail_pct


def _layer_value(name: str, layers: dict, counters: dict) -> float:
    for suffix, key in SPAN_FIELDS.items():
        if name.endswith(suffix):
            row = layers.get(name[: -len(suffix)])
            return row[key] if row else 0
    return counters.get(name, 0)


def per_layer(traced: list[Result], untraced: list[Result]) -> tuple[dict, dict, int]:
    """Means per traced instance, the summed spans, and the instance count."""
    k = len(traced)
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for res in traced:
        for span, row in res.layers.items():
            acc = layers.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, v in res.counters.items():
            counters[key] = counters.get(key, 0) + v
    values = {}
    for name in PER_LAYER_UNITS:
        values[name] = _layer_value(name, layers, counters) / k
    main = layers.get("cli.main", {"s": 0.0, "self_s": 0.0})
    dispatch = layers.get("cli.dispatch", {"self_s": 0.0})
    walls = sum(r.wall for r in traced)
    start = walls - main["s"] - sum(r.teardown_s for r in traced)
    values["cli.process_start_s"] = start / k
    searches = counters.get("bipartite_even.searches", 0)
    values["bipartite_even.found_ratio"] = (
        counters.get("bipartite_even.found", 0) / searches if searches else 0.0
    )
    passes = len(traced) / len(untraced)
    values["trace.overhead_ratio"] = walls / passes / sum(r.wall for r in untraced)
    uncovered = start + main["self_s"] + dispatch["self_s"]
    values["trace.layer_coverage"] = 1.0 - uncovered / walls
    return values, layers, k


def drift(traced: list[Result], passes_of: int) -> list[str]:
    """Sentinel counters that differ between passes over the same inputs."""
    out = []
    for i in range(passes_of, len(traced)):
        first, later = traced[i % passes_of], traced[i]
        for key in SENTINELS:
            a, b = first.counters.get(key, 0), later.counters.get(key, 0)
            if a != b:
                out.append(f"{first.inst.label}: {key} {a} then {b}")
    return out


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(
    args, instances: list, results: list[Result], tail_pct: float | None
) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    dirty = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": _git("rev-parse", "HEAD") if in_repo else "not a git checkout",
        "git_dirty": bool(dirty) if in_repo else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "distinct_instances": len(instances),
        "instances_run": len(results),
        "tail_percentile": tail_pct,
        "reference_s": calibrate.REFERENCE_S,
        "reference_task_s.p50": statistics.median(r.gauge for r in results),
    }


def top_layers(layers: dict, k: int, count: int = 8) -> list[tuple[str, float]]:
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:count]
    return [(span, row["self_s"] / k) for span, row in rows]


def report(prov, metrics, units, failures, extra_lines) -> None:
    err = sys.stderr
    print(
        f"perfbench {prov['workload']} seed={prov['seed']} trace={prov['trace']}: "
        f"{prov['instances_run']} runs of {prov['distinct_instances']} instances"
        + (f", tail = p{prov['tail_percentile']:.1f}" if prov["tail_percentile"] else ""),
        file=err,
    )
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {units[name]}", file=err)
    for line in extra_lines:
        print("  " + line, file=err)
    for res, problem in failures[:20]:
        print(f"  FAIL {res.inst.label}: {problem}", file=err)
    print("  provenance " + json.dumps(prov, sort_keys=True), file=err)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "oddramsey" / "cli.py").is_file():
        print("perfbench: no program under src/oddramsey", file=sys.stderr)
        return 2
    if not check.splitmix_matches_readme():
        print("perfbench: SplitMix64 reference disagrees with the README", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        first_setup, instances, argvs = setup(args.workload, args.seed, workdir, env)
        setups = [first_setup]
        unscaled = {}
        if args.trace:
            if args.workload in workloads.STREAMS:
                instances, argvs = instances[:TRACE_STREAM], argvs[:TRACE_STREAM]
            m = len(instances)
            untraced = run_loop(instances, argvs, workdir, env, 0, False, m)
            traced = run_loop(instances, argvs, workdir, env, args.seconds, True, m, 2)
            results = untraced + traced
            metrics, layers, k = per_layer(traced, untraced)
            units = PER_LAYER_UNITS
            drifted = drift(traced, m)
            tail_pct = None
            fired = sorted(s for s, row in layers.items() if row["calls"])
            extra = ["top self time per instance:"] + [
                f"  {span:43s} {sec:14.6f} s" for span, sec in top_layers(layers, k)
            ]
            extra += [f"DRIFT {d}" for d in drifted] or [
                f"sentinel counters repeat exactly across {len(traced) // m} traced passes"
            ]
        else:
            size = workloads.round_size(args.workload, instances)
            results = run_loop(
                instances, argvs, workdir, env, args.seconds, False, size, 2,
                resetup=lambda: setups.append(
                    setup(args.workload, args.seed, workdir, env)[0]
                ),
            )
            metrics, tail_pct = latency_metrics([r.scaled for r in results])
            metrics["peak_rss_mb"] = max(r.rss_mb for r in results)
            metrics["setup_s"] = statistics.median(setups)
            unscaled, _ = latency_metrics([r.wall for r in results])
            units = END_TO_END_UNITS
            drifted, fired = [], []
            extra = [f"fail_ratio {sum(1 for r in results if r.problems) / len(results)}"]
            extra += [f"unscaled {m} {v:.6f} {units[m]}" for m, v in unscaled.items()]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r, msg) for r in results for msg in r.problems]
    failed = sum(1 for r in results if r.problems)
    prov = provenance(args, instances, results, tail_pct)
    report(prov, metrics, units, failures, extra)
    base.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": prov,
        "metrics": metrics,
        "unscaled_metrics": unscaled,
        "failed": failed,
        "attempted": len(results),
        "drift": drifted,
        "fired_spans": fired,
        "latencies_s": [[r.inst.label, r.wall, r.scaled] for r in results],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (base / "results" / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not drifted,
                "attempted": len(results),
                "failed": failed,
                "metrics": {
                    m: {"value": v, "unit": units[m]} for m, v in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 and not drifted else 1


if __name__ == "__main__":
    sys.exit(main())
