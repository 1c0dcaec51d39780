import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
import time

import pytest
from hypothesis import given, settings

from oddramsey.cli import STATUS_CODES, USAGE_EXIT, main, parse_args
from oddramsey.colored_graph import (
    EdgeColoring,
    SimpleGraph,
    instance_from_json,
    instance_to_json,
    instance_to_obj,
)
from oddramsey.constructions import (
    random_coloring,
    random_edge_coloring,
    random_min_degree_graph,
    splitmix64_next,
)

from conftest import coloring_with, instance_like, readme_usage_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_emits_instance(capsys):
    code, out, _ = run_cli(capsys, "construct", "unique-upper", "--n", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 6 and obj["r"] == 4 and len(obj["edges"]) == 15
    # the bare document round-trips through the instance parser
    instance_from_json(out)


def test_gen_verify_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "random", "--n", "6", "--r", "2",
                           "--seed", "3")
    assert code == 0
    instance = tmp_path / "inst.json"
    instance.write_text(out)
    code, out2, _ = run_cli(
        capsys, "verify", "cycles", "--input", str(instance),
        "--predicate", "even-chromatic",
    )
    assert code == 0
    payload = json.loads(out2)
    assert payload["status"] == "ok"
    assert isinstance(payload["holds"], bool)
    if not payload["holds"]:
        assert "counterexample" in payload


def test_find_unique_free_with_trace(tmp_path, capsys):
    inst = tmp_path / "mono8.json"
    inst.write_text(instance_to_json(random_coloring(8, 2, 0)))
    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "find", "unique-free", "--input", str(inst),
        "--trace", str(trace),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert len(payload["cycle"]) == 8
    assert all(count != 1 for count in payload["census"].values())
    logged = json.loads(trace.read_text())
    assert logged["palette"] == 2
    assert any(ev["event"] == "free-color" for ev in logged["events"])
    assert payload["trace_summary"]["events"] == len(logged["events"])


def test_find_even_hamilton(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(instance_to_json(random_coloring(8, 2, 11)))
    code, out, _ = run_cli(
        capsys, "find", "even-hamilton", "--input", str(inst)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cycle"]) == 8
    assert all(v % 2 == 0 for v in payload["census"].values())
    assert "provenance" in payload


def test_find_even_kst_statuses(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(instance_to_json(random_coloring(12, 2, 2)))
    code, out, _ = run_cli(
        capsys, "find", "even-kst", "--input", str(inst),
        "--s", "3", "--t", "4",
    )
    payload = json.loads(out)
    if code == 0:
        assert len(payload["A"]) == 3 and len(payload["B"]) == 4
    else:
        assert code in (STATUS_CODES["not_found"], STATUS_CODES["unknown"])
        assert "stage" in payload


def test_oracle_exact(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "exact", "--n", "4", "--mode", "unique", "--r", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    code, out, _ = run_cli(
        capsys, "oracle", "exact", "--n", "4", "--mode", "unique", "--r", "3"
    )
    payload = json.loads(out)
    if payload["exists"]:
        assert "witness" in payload


def test_export_dot(tmp_path, capsys):
    inst = tmp_path / "i.json"
    chi = random_coloring(5, 2, 9)
    inst.write_text(instance_to_json(chi))
    code, out, _ = run_cli(capsys, "export", "dot", "--input", str(inst))
    assert code == 0
    dot = json.loads(out)["dot"]
    assert dot.startswith("graph ") and dot.rstrip().endswith("}")
    assert dot.count("--") == 10  # one line per edge
    assert dot.count("{") == dot.count("}")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(
        capsys, "verify", "cycles", "--input", str(bad),
        "--predicate", "even-chromatic",
    )
    assert code == USAGE_EXIT and "usage error" in err
    code, _, _ = run_cli(capsys, "construct", "unique-upper", "--n", "5")
    assert code == STATUS_CODES["precondition_failed"]
    big = tmp_path / "big.json"
    big.write_text(instance_to_json(random_coloring(17, 2, 0)))
    code, out, _ = run_cli(
        capsys, "verify", "cycles", "--input", str(big),
        "--predicate", "even-chromatic",
    )
    assert code == STATUS_CODES["cap_exceeded"]
    inst = tmp_path / "k8r3.json"
    inst.write_text(instance_to_json(random_coloring(8, 3, 0)))
    code, out, _ = run_cli(capsys, "find", "unique-free", "--input", str(inst))
    assert code == STATUS_CODES["precondition_failed"]
    code, out, err = run_cli(capsys, "find", "even-kst", "--input", str(inst),
                             "--s", "3", "--t", "4", "--retry-w")
    assert code == USAGE_EXIT and out == ""
    assert "unrecognized arguments: --retry-w" in err


def test_even_kst_t_prime_with_even_s_is_a_usage_error(tmp_path, capsys):
    # Even s searches the strongly-even K_{s,t} directly and has no t'.
    inst = tmp_path / "k8.json"
    inst.write_text(instance_to_json(random_coloring(8, 2, 0)))
    for s, t, t_prime in [("2", "1", "0"), ("4", "2", "3")]:
        code, out, err = run_cli(capsys, "find", "even-kst", "--input",
                                 str(inst), "--s", s, "--t", t,
                                 "--t-prime", t_prime)
        assert code == USAGE_EXIT and out == ""
        assert err.startswith("usage error: --t-prime applies to odd --s only")
    with pytest.raises(SystemExit):
        main(["find", "even-kst", "--help"])
    assert "odd s only; default n - s" in capsys.readouterr().out


def test_max_n_env_is_ignored(tmp_path, capsys, monkeypatch):
    small, big = tmp_path / "k5.json", tmp_path / "k17.json"
    small.write_text(instance_to_json(random_coloring(5, 2, 0)))
    big.write_text(instance_to_json(random_coloring(17, 2, 0)))
    for raw in ("abc", "-1", "20"):
        monkeypatch.setenv("ODDRAMSEY_MAX_N", raw)
        for path, status in ((small, "ok"), (big, "cap_exceeded")):
            code, out, _ = run_cli(capsys, "verify", "cycles", "--input",
                                   str(path), "--predicate", "odd-chromatic")
            assert code == STATUS_CODES[status]
            assert json.loads(out)["status"] == status


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 4, "r": 1, "edges": 5}',
        '{"n": true, "r": 1, "edges": []}',
        '{"n": 2, "r": 1, "edges": [{"u": 0.7, "v": 1, "c": 1}]}',
        '{"n": 2, "r": "1", "edges": [{"u": 0, "v": 1, "c": 1}]}',
        '{"n": 2, "r": 1, "edges": [{"u": 0, "v": 1, "c": true}]}',
        '{"n": 2, "r": 1, "edges": [[0, 1, 1]]}',
        '[2, 1]',
    ],
)
def test_malformed_instance_fields_are_usage_errors(tmp_path, capsys, text):
    inst = tmp_path / "bad.json"
    inst.write_text(text)
    code, out, err = run_cli(capsys, "export", "dot", "--input", str(inst))
    assert code == USAGE_EXIT and out == ""
    assert "usage error: invalid instance: malformed" in err


@pytest.mark.parametrize("n", [0, -3, 2001, 30000])
def test_instance_size_outside_cap_is_usage_error(tmp_path, capsys, n):
    # rejected before any graph is built: building one costs O(n^2) even
    # with no edges, over 20 s at n = 30000
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({"n": n, "r": 1, "edges": []}))
    code, out, err = run_cli(capsys, "export", "dot", "--input", str(inst))
    assert code == USAGE_EXIT and out == ""
    assert f"instance size n = {n} outside 1..2000" in err


def test_input_dash_reads_stdin(tmp_path, capsys, monkeypatch):
    text = instance_to_json(random_coloring(8, 2, 12))
    inst = tmp_path / "i.json"
    inst.write_text(text)
    for argv in (["find", "even-hamilton"], ["export", "dot"]):
        code, from_file, _ = run_cli(capsys, *argv, "--input", str(inst))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code_stdin, from_stdin, _ = run_cli(capsys, *argv, "--input", "-")
        assert code == code_stdin == 0 and from_stdin == from_file


@pytest.mark.parametrize("name", ["absent.json", "."])
def test_unreadable_input_is_usage_error(tmp_path, capsys, name):
    path = tmp_path / name  # a missing file, or a directory
    code, out, err = run_cli(capsys, "export", "dot", "--input", str(path))
    assert code == USAGE_EXIT and out == ""
    assert f"usage error: cannot read {path}" in err


def test_non_utf8_input_file_is_usage_error(tmp_path, capsys, monkeypatch):
    raw = b'\xff\xfe{"n": 3}'
    path = tmp_path / "latin.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "export", "dot", "--input", str(path))
    assert code == USAGE_EXIT and out == ""
    assert err.startswith(f"usage error: cannot read {path}: 'utf-8' codec")
    assert err.count("\n") == 1 and "Traceback" not in err
    # stdin decodes with surrogateescape, so the same bytes reach the parser
    text = raw.decode("utf-8", "surrogateescape")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "export", "dot", "--input", "-")
    assert code == USAGE_EXIT and out == ""
    assert "usage error: invalid instance: invalid JSON" in err


def test_deeply_nested_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "export", "dot", "--input", str(path))
    assert code == USAGE_EXIT and out == ""
    assert err.startswith(
        "usage error: invalid instance: invalid JSON: maximum recursion depth"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "random", "--n", "-3", "--r", "2", "--seed", "1"),
        ("gen", "random", "--n", "0", "--r", "2", "--seed", "1"),
        ("gen", "random", "--n", "2001", "--r", "2", "--seed", "1"),
        ("construct", "unique-upper", "--n", "0"),
        ("construct", "unique-upper", "--n", "2002"),
    ],
)
def test_generator_sizes_outside_the_cap_fail_before_building(
    capsys, monkeypatch, argv
):
    # the size is checked before any table is built: the generators must not run
    from oddramsey import constructions

    def refuse(*args):
        raise AssertionError(f"generator ran with {args}")

    monkeypatch.setattr(constructions, "random_coloring", refuse)
    monkeypatch.setattr(constructions, "unique_upper_coloring", refuse)
    code, out, err = run_cli(capsys, *argv)
    n = argv[argv.index("--n") + 1]
    assert code == STATUS_CODES["precondition_failed"] == 4
    assert json.loads(out) == {
        "error": f"instance size n = {n} outside 1..2000",
        "status": "precondition_failed",
    }
    assert "Traceback" not in err


def test_generators_accept_the_cap_boundaries(capsys):
    for argv in (["gen", "random", "--n", "1", "--r", "1", "--seed", "0"],
                 ["construct", "unique-upper", "--n", "4"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        instance_from_json(out)


@settings(max_examples=120, deadline=None)
@given(instance_like())
def test_cli_parse_boundary_exits_0_or_64(obj):
    # Twin of the library fuzz test: any JSON document on stdin either
    # parses (exit 0) or is a usage error (exit 64); no other exception
    # escapes main.
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(obj))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["export", "dot", "--input", "-"])
    finally:
        sys.stdin = saved
    if code == USAGE_EXIT:
        assert out.getvalue() == "" and "usage error" in err.getvalue()
    else:
        assert code == 0 and "dot" in json.loads(out.getvalue())


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["nonsense"]) == USAGE_EXIT


def test_best_effort_counting_failure_exits_5(monkeypatch, capsys):
    # Beyond r <= n/4 the unique-free pipeline's counting steps may fail;
    # the InternalContradiction becomes an internal_contradiction status.
    _, inst, _ = run_cli(capsys, "gen", "random", "--n", "8", "--r", "3",
                         "--seed", "0")
    monkeypatch.setattr(sys, "stdin", io.StringIO(inst))
    code, out, _ = run_cli(capsys, "find", "unique-free", "--input", "-",
                           "--best-effort")
    assert code == STATUS_CODES["internal_contradiction"] == 5
    assert out == (
        '{"error": "remaining set shrank below four per unused color", '
        '"status": "internal_contradiction"}\n'
    )


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_trace_path_is_a_usage_error(tmp_path, capsys, where):
    inst = tmp_path / "i.json"
    inst.write_text(instance_to_json(random_coloring(8, 2, 0)))
    trace = tmp_path / "missing" / "t.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "find", "unique-free", "--input",
                             str(inst), "--trace", str(trace))
    assert code == USAGE_EXIT == 64
    assert out == ""
    assert err.startswith(f"usage error: cannot write {trace}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_best_effort_palette_is_capped_at_the_edge_count(tmp_path, capsys):
    # K_8 has C(8, 2) = 28 edges.  A one-color K_8 declaring 28 colors
    # frees the 27 absent ones and closes; one color more is refused
    # before the ledger is built.
    for r, code, payload in [
        (28, 0, {"census": {"1": 8}}),
        (29, 4, {"error": "palette 29 exceeds the C(n, 2) = 28 edges of K_8",
                 "status": "precondition_failed"}),
    ]:
        inst = tmp_path / f"mono8-r{r}.json"
        inst.write_text(instance_to_json(coloring_with(8, r, {})))
        got, out, _ = run_cli(capsys, "find", "unique-free", "--input",
                              str(inst), "--best-effort")
        assert got == code
        obj = json.loads(out)
        assert {k: obj[k] for k in payload} == payload


def test_stdout_byte_identical(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(instance_to_json(random_coloring(10, 2, 4)))
    commands = [
        ["gen", "random", "--n", "9", "--r", "3", "--seed", "17"],
        ["construct", "unique-upper", "--n", "8"],
        ["find", "unique-free", "--input", str(inst)],
        ["find", "even-hamilton", "--input", str(inst)],
        ["oracle", "exact", "--n", "4", "--mode", "odd", "--r", "2"],
        ["export", "dot", "--input", str(inst)],
    ]
    for argv in commands:
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2, argv


# SHA-256 of each command's stdout, taken before the color table replaced
# the edge-keyed color map (the two after `oracle-exact-6` before `verify
# cycles` lost its enumeration fallback and `find even-kst` its --retry-w
# flag, the next five before the exact oracle's cycles were bit-sliced, and
# the two at workload size before the closure became a lexicographic sweep).
# A change of representation must not change a single output byte.
PINNED_STDOUT_SHA256 = {
    "gen-random-12": (
        0,
        "91a5a8633d44cdcaac1b04e1c84d79e608bb7cc5f226e8fb33e98bcc23f45e7b",
    ),
    "construct-unique-upper-10": (
        0,
        "9a9aecab0ff6ca7a13e8570c7bb26987b2c1bf45ec4588893eb90839e6ee84a0",
    ),
    "export-dot": (
        0,
        "5aa62ef87999037acd07ad9143892a28425ffd14224d715579b6886010b8dc88",
    ),
    "find-even-hamilton-20": (
        0,
        "f9b9dd4ee82decff1b50dda936b8417423d973a368d50fc6093bb5d29dae72ba",
    ),
    "find-unique-free-16": (
        0,
        "aedea1c8e9bf629d0a15894902819aaf641c66e6f7d265c7e2d291c0da8e1e08",
    ),
    "find-even-kst-14": (
        0,
        "718073cd842741133039ad872644a18cd22a5386c1f7cea1acd802b52760d092",
    ),
    "verify-cycles-8": (
        0,
        "1969e333989f4acf3448c7e8e61efd5e7ebf3dd1faf5df96a63e95d0fc86fc52",
    ),
    "oracle-exact-6": (
        0,
        "1194b04027c0e968ec3e06634717aef9ffd67b486211b9edc15d014e42c63d82",
    ),
    "verify-cycles-unique-upper-10": (
        0,
        "482012205d8a44f3caad23046b94409786f61b0daadc37a67aa39c154367d4c3",
    ),
    "find-even-kst-60-s5": (
        0,
        "7d486b7471d0be99fbdc0e7d76ff41cf13461e082267952a8cee6dc1cf14bcc2",
    ),
    "oracle-exact-4-odd-3": (
        0,
        "23baae8af360995307a61c623d1a680b16b2bb2836088fe00b56171897abd778",
    ),
    "oracle-exact-5-unique-3": (
        0,
        "9cf8d291e6d392f55acd4fd38282e26f53d3f9dc334f8a49651c2a2aeca66f46",
    ),
    "oracle-exact-5-unique-4": (
        0,
        "707593ae8582c4a9194688fd14aafdc3e55c6db88d1a1c59e3209e54bf9b1b6e",
    ),
    "oracle-exact-6-odd-3": (
        0,
        "c3b0db1852ff81e5e5cd8eb05be92778f09a880e4f211b41913dba510ddb6b35",
    ),
    "oracle-exact-6-unique-3": (
        0,
        "20a76810e59ae78f9a817f24370a51dbee65a6992aa56caace4f99f955a4caee",
    ),
    "find-even-hamilton-100-c4": (
        0,
        "00ab25f2c53ab2747ec1edf30417cc25445fd7c45b7c92bfbf1139d46b157f65",
    ),
    "find-even-hamilton-92-endgame": (
        0,
        "9ac58b485d0c20f66b0ebf1d22e3aaa8abe34d81cb4e7722c4d2229c39810f68",
    ),
}


def _pinned_outputs(tmp_path, capsys) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of a small fixed command set, by name."""
    out: dict[str, tuple[int, str]] = {}

    def run(name, *argv):
        code, text, _ = run_cli(capsys, *argv)
        out[name] = (code, text)
        return text

    def written(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    gen12 = written("gen12", run("gen-random-12", "gen", "random", "--n", "12",
                                 "--r", "3", "--seed", "1"))
    upper10 = written("upper10", run("construct-unique-upper-10", "construct",
                                     "unique-upper", "--n", "10"))
    run("export-dot", "export", "dot", "--input", gen12)
    floor20 = random_min_degree_graph(20, 12, 1)  # delta >= n/2 + 2
    run("find-even-hamilton-20", "find", "even-hamilton", "--input",
        written("floor20", instance_to_json(random_edge_coloring(floor20, 2, 1))))
    _, gen16, _ = run_cli(capsys, "gen", "random", "--n", "16", "--r", "4",
                          "--seed", "1")
    run("find-unique-free-16", "find", "unique-free", "--input",
        written("gen16", gen16))
    _, gen14, _ = run_cli(capsys, "gen", "random", "--n", "14", "--r", "2",
                          "--seed", "1")
    run("find-even-kst-14", "find", "even-kst", "--input", written("gen14", gen14),
        "--s", "3", "--t", "4")
    run("verify-cycles-8", "verify", "cycles", "--input",
        written("gen8", instance_to_json(random_coloring(8, 2, 1))),
        "--predicate", "odd-chromatic")
    run("oracle-exact-6", "oracle", "exact", "--n", "6", "--mode", "odd",
        "--r", "2")
    run("verify-cycles-unique-upper-10", "verify", "cycles", "--input", upper10,
        "--predicate", "has-unique-color")
    _, gen60, _ = run_cli(capsys, "gen", "random", "--n", "60", "--r", "4",
                          "--seed", "1")
    run("find-even-kst-60-s5", "find", "even-kst", "--input",
        written("gen60", gen60), "--s", "5", "--t", "6", "--t-prime", "10")
    for n, mode, r in ((4, "odd", 3), (5, "unique", 3), (5, "unique", 4),
                       (6, "odd", 3), (6, "unique", 3)):
        run(f"oracle-exact-{n}-{mode}-{r}", "oracle", "exact", "--n", str(n),
            "--mode", mode, "--r", str(r))
    # the two routes of the parity workloads at their sizes, delta = n/2 + 2:
    # a random 2-coloring takes the C4 switch; two color blocks (ids divisible
    # by 3 against the rest) leave no odd C4 or C6, so the endgame runs
    host100 = random_min_degree_graph(100, 52, 1)
    run("find-even-hamilton-100-c4", "find", "even-hamilton", "--input",
        written("host100", instance_to_json(random_edge_coloring(host100, 2, 1))))
    host92 = random_min_degree_graph(92, 48, 1)
    blocks = {e: 1 if (e.u % 3 == 0) == (e.v % 3 == 0) else 2
              for e in host92.edges()}
    run("find-even-hamilton-92-endgame", "find", "even-hamilton", "--input",
        written("host92", instance_to_json(EdgeColoring(host92, 2, blocks))))
    return out


def test_stdout_pinned_across_commits(tmp_path, capsys):
    got = {
        name: (code, hashlib.sha256(text.encode()).hexdigest())
        for name, (code, text) in _pinned_outputs(tmp_path, capsys).items()
    }
    assert got == PINNED_STDOUT_SHA256


# SHA-256 of the stdout of the two constructive kernels' commands, taken
# before merge_endpoints became a single pass and the strongly-even index
# took bitmask keys: the same merge order and the same first witness.
PINNED_CONSTRUCTIVE_SHA256 = {
    "find-unique-free-120": (
        0,
        "44c759a67bf67d285e689d1f28e015b4775789f555dc851cb4ddd62d29291bcf",
    ),
    "find-even-kst-40": (
        0,
        "d50a7215afe0ceea5be884569af2f9cb8c68d6c1eb47d16cd4ff1f2ac2dcafe5",
    ),
}


def test_constructive_stdout_pinned_across_commits(tmp_path, capsys):
    got = {}
    for name, n, r, find in [
        ("find-unique-free-120", 120, 30, ["unique-free"]),
        ("find-even-kst-40", 40, 4, ["even-kst", "--s", "4", "--t", "6"]),
    ]:
        _, text, _ = run_cli(capsys, "gen", "random", "--n", str(n), "--r",
                             str(r), "--seed", "1")
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "find", find[0], "--input", str(path),
                               *find[1:])
        got[name] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == PINNED_CONSTRUCTIVE_SHA256


# SHA-256 of find even-kst --s S --t T on gen random --n N --r R --seed 1,
# taken while every vertex's masks entered the prior-owner Counter (s=4) or
# while vertices 0..t-2 held their whole lists (s=6): at n=60, r=4 the
# witness's owners are vertices 0-5 (the first t' vertices), at n=40, r=6
# the last owner is vertex 10, and both s=6 witnesses are owned by the
# first t' vertices.
PINNED_STRONGLY_EVEN_SHA256 = {
    "find-even-kst-60-r4": (
        0,
        "42aaf9a62a160bda7c1f4bf660242efb555b3bf1d27d9d3e461e18efd7e2dca7",
    ),
    "find-even-kst-40-r6": (
        0,
        "8afbc5dae4d6bc09743904263d6ac4bf5dcc03ba6f4c8a6da60b028474890b48",
    ),
    "find-even-kst-30-r2-s6-t5": (
        0,
        "3b0193c91d2c9d9dd1f0ea99dccb56f2b79e68becd778cffeb42721cdb666b8d",
    ),
    "find-even-kst-36-r3-s6-t3": (
        0,
        "0474f0d59813beb910a74cfaea9ca251539e4d6d3f2bae65e19b84e797adb6dc",
    ),
}


def test_strongly_even_stdout_pinned_across_commits(tmp_path, capsys):
    got = {}
    for name, n, r, s, t in [
        ("find-even-kst-60-r4", 60, 4, 4, 6),
        ("find-even-kst-40-r6", 40, 6, 4, 6),
        ("find-even-kst-30-r2-s6-t5", 30, 2, 6, 5),
        ("find-even-kst-36-r3-s6-t3", 36, 3, 6, 3),
    ]:
        _, text, _ = run_cli(capsys, "gen", "random", "--n", str(n), "--r",
                             str(r), "--seed", "1")
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "find", "even-kst", "--input", str(path),
                               "--s", str(s), "--t", str(t))
        got[name] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == PINNED_STRONGLY_EVEN_SHA256


# SHA-256 of the stdout and the --trace file of find unique-free on the
# K_360 instance of gen random --n 360 --r 90 --seed 1, taken while the
# claw scans still scanned the pool once per unused color: the same
# claws, merges and ledger events in the same order.
PINNED_UNIQUE_FREE_360_SHA256 = {
    "stdout": "b3284175ee513dd77cb82349afe62cd0915e163a294449f8d57bb207d3e43a9a",
    "trace": "1fd514a5318246a2c51fa6fd6769632d101e75b0d9c05a2b31a2414d52415dd1",
}


def test_unique_free_360_stdout_and_trace_pinned(tmp_path, capsys):
    _, text, _ = run_cli(capsys, "gen", "random", "--n", "360", "--r", "90",
                         "--seed", "1")
    instance, trace = tmp_path / "gen360.json", tmp_path / "trace.json"
    instance.write_text(text)
    code, out, _ = run_cli(capsys, "find", "unique-free", "--input",
                           str(instance), "--trace", str(trace))
    assert code == 0
    assert {
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
    } == PINNED_UNIQUE_FREE_360_SHA256


# SHA-256 of the stdout and the --trace file of find unique-free on one
# small instance per closing route the 360 pin does not take, taken while
# the ledger still kept a free-color set beside ``unused`` and merge
# cherries kept their centers in a side set of R: (exit code, stdout,
# trace).  "no-unused" closes by chaining the paths; "cherry-merge" merges
# three paths through one center of R, then closes by two paths.
PINNED_UNIQUE_FREE_ROUTES_SHA256 = {
    "no-unused": (
        0,
        "e9b7b5c170c5845cd03b1e22f551280eb4cbc933a7d685737eabbc985fcfa4d0",
        "b2e6b8f138c1b8b010e51a9d8bae8cb9b7fad3a031d15568af1383fc7d4796f1",
    ),
    "single-unused-one-path": (
        0,
        "aad90ff0c5f86a70570c1cfe5bb2195d874da247a80670d4f4fb3813a062fadd",
        "79984e079860aeef42dd813699201eb7b875c016b2e9d839dab84a8292b9a65f",
    ),
    "single-unused-hot-edge": (
        0,
        "0981ba54413ce2bc48fde6d21fb725e96acbcf56135ccaaebc5d8f36749ecdd8",
        "83a02690851aa7638900bdf2ae17ff7c94867d478a6a6c98e03e88c045382e55",
    ),
    "single-unused-one-path-hot-arc": (
        0,
        "ebba9e6a0a217cf17901cee22df9ef67facec73e17e5dedff9fdf43b425bdec0",
        "4f9ffb029bf66a16a2716462d85c3eae76b735051d1d5c67346b3de21db40fa0",
    ),
    "two-paths": (
        0,
        "98d7376b56277d0afb1b714bd37b592918b99965b67f4972b11905ad4f336527",
        "9868614d811c41c2039d745ed8f3f4fd89d1930d0f7f54d6f0303d2c90cfe3e5",
    ),
    "single-unused-two-arcs": (
        0,
        "c60eba2f96e398c7538cb8764b61cc455118a1e955534eb4fe61d07abada6be4",
        "f02d79b975f5ad6e884cf1677bc2a351a0e8d35cd0c087aadf51237ccd09e237",
    ),
    "cherry-merge": (
        0,
        "e7f2bdd7f2680e0fc1b981b90e475dd2871d5cde0eae3b477383b876e18aed1c",
        "1ab99bad2e3d7511a0058a3abefad3bc84766f685777e3074612ab7a30b113b8",
    ),
}


def _unique_free_route_instances():
    """name -> (coloring, close modes in the trace, cherry merges)."""
    # cherry-merge: vertex 0 centers a color-1 claw on 1, 2, 3, color 10 a
    # cherry 4-5-6 in R, and the eight cross endpoint edges of the three
    # paths [4, 5, 6], [1, twin] and [2, 0, 3] carry eight distinct colors
    # that occur nowhere else, so they stay unused and no endpoint rule fires
    cross = {(1, 2): 2, (1, 3): 3, (1, 4): 4, (1, 6): 5, (2, 4): 6,
             (2, 6): 7, (3, 4): 8, (3, 6): 9}
    return {
        "no-unused": (random_coloring(8, 2, 0), [], 0),
        "single-unused-one-path": (
            random_coloring(8, 2, 49), ["single-unused-one-path"], 0),
        "single-unused-hot-edge": (
            random_coloring(8, 2, 55), ["single-unused-hot-edge"], 0),
        "single-unused-one-path-hot-arc": (
            random_coloring(8, 2, 176), ["single-unused-one-path-hot-arc"], 0),
        "two-paths": (coloring_with(12, 3, {(1, 2): 2, (1, 3): 3}),
                      ["two-paths"], 0),
        "single-unused-two-arcs": (
            coloring_with(8, 2, {(1, 2): 2, (1, 3): 2}),
            ["single-unused-two-arcs"], 0),
        "cherry-merge": (
            coloring_with(40, 10, {**cross, (4, 5): 10, (5, 6): 10}),
            ["two-paths"], 1),
    }


def test_unique_free_closing_routes_stdout_and_trace_pinned(tmp_path, capsys):
    got = {}
    for name, (chi, modes, merges) in _unique_free_route_instances().items():
        instance, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.trace"
        instance.write_text(instance_to_json(chi))
        code, out, _ = run_cli(capsys, "find", "unique-free", "--input",
                               str(instance), "--trace", str(trace))
        events = json.loads(trace.read_text())["events"]
        assert [ev["mode"] for ev in events if ev["event"] == "close"] == modes
        assert sum(ev["event"] == "cherry-merge" for ev in events) == merges
        got[name] = (code, hashlib.sha256(out.encode()).hexdigest(),
                     hashlib.sha256(trace.read_bytes()).hexdigest())
    assert got == PINNED_UNIQUE_FREE_ROUTES_SHA256


# SHA-256 of the two n=400 emitters' stdout, taken while they still built
# an Edge-keyed dict and printed json.dumps of instance_to_obj.
PINNED_EMITTER_SHA256 = {
    "gen-random-400": (
        0,
        "5ce7f75f349d9c10d9fe1721dcd063539779cab58c94219733173639d2677538",
    ),
    "construct-unique-upper-400": (
        0,
        "b85a7258df55d9b7b1c470b6b58a2d7b98b93f101b87981dcec40341d0921333",
    ),
}


def test_emitter_stdout_pinned_across_commits(capsys):
    got = {}
    for name, argv in [
        ("gen-random-400", ["gen", "random", "--n", "400", "--r", "3",
                            "--seed", "1"]),
        ("construct-unique-upper-400", ["construct", "unique-upper",
                                        "--n", "400"]),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        got[name] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == PINNED_EMITTER_SHA256


def test_instance_text_is_sorted_key_json_dumps():
    colorings = [random_coloring(1, 3, 0), random_coloring(2, 1, 5)]
    colorings += [random_coloring(n, r, 70 + n) for n, r in [(7, 2), (23, 5)]]
    colorings += [
        random_edge_coloring(random_min_degree_graph(n, d, n), 4, n)
        for n, d in [(9, 2), (30, 6), (41, 20)]
    ]
    for chi in colorings:
        assert instance_to_json(chi) == json.dumps(
            instance_to_obj(chi), sort_keys=True
        )


def _edge_dict_coloring(g, r, seed):
    """The Edge-keyed construction the direct table fill replaced."""
    state = seed & ((1 << 64) - 1)
    assignment = {}
    for e in g.edges():
        state, word = splitmix64_next(state)
        assignment[e] = 1 + word % r
    return EdgeColoring(g, r, assignment)


def test_random_edge_coloring_table_matches_edge_dict():
    for n, d, r in [(6, 1, 2), (17, 3, 3), (40, 5, 4), (52, 30, 6)]:
        g = random_min_degree_graph(n, d, n + d)
        chi, want = random_edge_coloring(g, r, n), _edge_dict_coloring(g, r, n)
        assert chi.host is g and chi.r == r
        assert list(chi.items()) == list(want.items())
        for c in range(1, r + 1):
            assert chi.color_rows(c) == want.color_rows(c)


def test_oracle_past_its_four_color_cap_exits_6(capsys):
    code, out, _ = run_cli(capsys, "oracle", "exact", "--n", "6", "--mode",
                           "odd", "--r", "4")
    assert code == STATUS_CODES["cap_exceeded"] == 6
    assert json.loads(out) == {
        "error": "exact oracle capped below n=6, r=4",
        "status": "cap_exceeded",
    }


def test_even_kst_strongly_even_miss_payload(tmp_path, capsys):
    # A rainbow K_6: no two edges at a vertex share a color, so no vertex
    # has an even 2-neighborhood and the strongly-even index misses.
    host = SimpleGraph.complete(6)
    chi = EdgeColoring(host, 15, {e: i + 1 for i, e in enumerate(host.edges())})
    inst = tmp_path / "rainbow6.json"
    inst.write_text(instance_to_json(chi))
    code, out, _ = run_cli(capsys, "find", "even-kst", "--input", str(inst),
                           "--s", "2", "--t", "3")
    assert code == STATUS_CODES["not_found"] == 2
    assert out == '{"stage": "strongly-even", "status": "not_found"}\n'


def test_even_kst_past_the_mask_budget_is_unknown(tmp_path, capsys):
    # Vertex 0 of this 2-colored K_400 has about 5*10^8 even
    # 4-neighborhoods: its count alone passes the budget, so none is listed.
    inst = tmp_path / "k400.json"
    inst.write_text(instance_to_json(random_coloring(400, 2, 3)))
    started = time.monotonic()
    code, out, _ = run_cli(capsys, "find", "even-kst", "--input", str(inst),
                           "--s", "4", "--t", "2")
    assert time.monotonic() - started < 10.0
    assert code == STATUS_CODES["unknown"] == 3
    assert out == '{"stage": "strongly-even", "status": "unknown"}\n'


def test_even_kst_single_column_answers_fast_on_a_dense_host(tmp_path, capsys):
    # t=1 needs one even s-neighborhood; listing all of them at one vertex
    # of this 2-colored K_400 would take ~5*10^8 masks (s=4), ~10^12 (s=6).
    inst = tmp_path / "k400.json"
    inst.write_text(instance_to_json(random_coloring(400, 2, 3)))
    for s, side_a in [("4", [1, 2, 3, 4]), ("6", [1, 2, 3, 4, 6, 12])]:
        started = time.monotonic()
        code, out, _ = run_cli(capsys, "find", "even-kst", "--input",
                               str(inst), "--s", s, "--t", "1")
        assert time.monotonic() - started < 10.0
        assert code == 0
        assert json.loads(out) == {"A": side_a, "B": [0],
                                   "census": {"2": len(side_a)},
                                   "status": "ok"}


def test_readme_usage_parses_with_and_without_optional_flags():
    lines = readme_usage_lines()
    assert len(lines) == 8
    for line in lines:
        for variant in (re.sub(r"\[([^]]*)\]", r"\1", line),
                        re.sub(r"\s*\[[^]]*\]", "", line)):
            argv = shlex.split(variant, comments=True)[1:]
            if ">" in argv:
                argv = argv[: argv.index(">")]
            parse_args(argv)  # a usage error raises
