"""The one-pass argument reader against the argparse tree it replaced.

``_reference_parser`` is the subcommand tree the CLI used to build with
argparse, with abbreviated flags turned off.  Every generated argv must be
accepted by both readers with equal values, rejected by both, or answered
with help by both.
"""

import argparse
import contextlib
import io
import random

import pytest

from oddramsey import cli
from oddramsey.cli import COMMANDS, USAGE_EXIT, main, parse_args


class _RefError(Exception):
    pass


class _RefParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _RefError(message)


def _reference_parser() -> _RefParser:
    p = _RefParser(prog="oddramsey")
    sub = p.add_subparsers(dest="group", required=True)

    find = sub.add_parser("find", help="search operations")
    fsub = find.add_subparsers(dest="op", required=True)
    f1 = fsub.add_parser("even-hamilton", help="even-chromatic Hamilton cycle")
    f1.add_argument("--input", required=True)
    f2 = fsub.add_parser("unique-free", help="Hamilton cycle with no unique color")
    f2.add_argument("--input", required=True)
    f2.add_argument("--trace", default=None)
    f2.add_argument("--best-effort", action="store_true")
    f3 = fsub.add_parser("even-kst", help="even-chromatic complete bipartite subgraph")
    f3.add_argument("--input", required=True)
    f3.add_argument("--s", type=int, required=True)
    f3.add_argument("--t", type=int, required=True)
    f3.add_argument("--t-prime", type=int, default=None,
                    help="odd s only; default n - s")

    construct = sub.add_parser("construct", help="explicit colorings")
    csub = construct.add_subparsers(dest="op", required=True)
    c1 = csub.add_parser("unique-upper", help="coloring with a unique color on every cycle")
    c1.add_argument("--n", type=int, required=True)

    oracle = sub.add_parser("oracle", help="exact small-case oracles")
    osub = oracle.add_subparsers(dest="op", required=True)
    o1 = osub.add_parser("exact", help="does some r-coloring satisfy the mode everywhere")
    o1.add_argument("--n", type=int, required=True)
    o1.add_argument("--mode", choices=["odd", "unique"], required=True)
    o1.add_argument("--r", type=int, required=True)

    gen = sub.add_parser("gen", help="instance generators")
    gsub = gen.add_subparsers(dest="op", required=True)
    g1 = gsub.add_parser("random", help="seeded uniform coloring of a complete graph")
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--r", type=int, required=True)
    g1.add_argument("--seed", type=int, required=True)

    verify = sub.add_parser("verify", help="exhaustive verification")
    vsub = verify.add_subparsers(dest="op", required=True)
    v1 = vsub.add_parser("cycles", help="check a predicate on every Hamilton cycle")
    v1.add_argument("--input", default="-")
    v1.add_argument(
        "--predicate",
        choices=["has-unique-color", "odd-chromatic", "even-chromatic"],
        required=True,
    )

    export = sub.add_parser("export", help="exports")
    esub = export.add_subparsers(dest="op", required=True)
    e1 = esub.add_parser("dot", help="DOT rendering of a colored instance")
    e1.add_argument("--input", required=True)
    return p


REFERENCE = _reference_parser()


def _outcome(parse, argv):
    """("ok", attributes), ("help", printed) or ("error",)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            args = parse(argv)
    except (_RefError, cli._UsageError):
        return ("error",)
    except SystemExit as exc:
        assert exc.code == 0, argv
        return ("help", out.getvalue())
    return ("ok", vars(args))


STR_VALUES = ["inst.json", "-", "", "a=b", "-3", "-0", "-.5", "-1.5", "-1.",
              "-x", "--x", "-a b", "--s=a b", "--input", "--s=3", "-h"]
INT_VALUES = ["5", "0", "-3", "+4", " 7 ", "1_000", "x", "1.5", "-1.5", "", "--n"]


def _good_value(kind, rng):
    if kind is bool:
        return None
    if kind is int:
        return rng.choice(["5", "0", "-3", "+4", " 7 ", "1_000"])
    if kind is str:
        return rng.choice(["inst.json", "-", "", "a=b", "-3", "-.5", "-a b"])
    return rng.choice(kind)


def _any_value(kind, rng):
    if kind is bool:
        return None
    if kind is int:
        return rng.choice(INT_VALUES)
    if kind is str:
        return rng.choice(STR_VALUES)
    return rng.choice([*kind, "bogus", "-x", "ODD"])


def _flag_words(name, kind, value, rng):
    if kind is bool:
        return [f"--{name}"]
    if rng.random() < 0.4:
        return [f"--{name}={value}"]
    return [f"--{name}", value]


def _well_formed(rng):
    """Every flag of a random command (optional ones at random), shuffled,
    some repeated, in both value forms."""
    group, op = rng.choice(list(COMMANDS))
    pieces = []
    for name, kind, default, _ in COMMANDS[group, op][1]:
        if default is cli.REQUIRED or rng.random() < 0.6:
            for _ in range(1 + (rng.random() < 0.25)):
                pieces.append(_flag_words(name, kind, _good_value(kind, rng), rng))
    rng.shuffle(pieces)
    return [group, op, *(w for p in pieces for w in p)]


def _mangled(rng):
    """A well-formed argv with one or two words changed, dropped or added."""
    argv = _well_formed(rng)
    flags = [f for key in COMMANDS for f in COMMANDS[key][1]]
    for _ in range(rng.randint(1, 2)):
        how = rng.randrange(6)
        at = rng.randint(0, len(argv))
        if how == 0 and len(argv) > 2:  # drop a word
            del argv[rng.randrange(2, len(argv))]
        elif how == 1:  # some flag of some command, with any value
            name, kind, _, _ = rng.choice(flags)
            argv[at:at] = _flag_words(name, kind, _any_value(kind, rng), rng)
        elif how == 2:  # a stray word
            argv.insert(at, rng.choice(
                ["--", "extra", "--bogus", "--inp", "--best", "--pred", "-n",
                 "-", "-h", "--help", "--help=x", "--best-effort=", "-hx",
                 "--input", "--n", "--t-prime"]))
        elif how == 3 and at < len(argv):  # replace a word by a value
            argv[at] = rng.choice(STR_VALUES + INT_VALUES)
        elif how == 4 and len(argv) > 1:  # a bad group or op
            argv[rng.randrange(2)] = rng.choice(
                ["nonsense", "find", "gen", "cycles", "-h", "--n", ""])
        else:  # cut the argv short
            argv = argv[: rng.randint(0, len(argv))]
    return argv


def _picks_a_command(argv):
    """Whether the first two words are a group and an op, or help in place
    of either."""
    if argv[:1] == ["-h"] or argv[:1] == ["--help"]:
        return True
    ops = [op for group, op in COMMANDS if argv[:1] == [group]]
    return bool(ops) and len(argv) > 1 and argv[1] in ops + ["-h", "--help"]


def _outcomes_agree(argv):
    want = _outcome(REFERENCE.parse_args, argv)
    got = _outcome(parse_args, argv)
    if want[0] == "help" and got[0] == "error":
        # argparse set unknown flag words in the group or op slot aside and
        # still printed help for a later -h; the first two words now pick
        # the command, so such a line is a usage error.
        assert not _picks_a_command(argv), argv
        return "error"
    assert got[0] == want[0], (argv, want, got)
    if want[0] == "ok":
        assert got[1] == want[1], argv
    return want[0]


ACCEPTED = [
    ["gen", "random", "--n", "-3", "--r", "2", "--seed", "1"],
    ["verify", "cycles", "--predicate", "odd-chromatic"],
    ["find", "even-kst", "--input=-", "--s", "3", "--t=4", "--t-prime", "-1"],
    ["oracle", "exact", "--r", "1", "--mode=odd", "--n", "4", "--n", "5"],
    ["find", "unique-free", "--best-effort", "--input", "x", "--trace=t.json"],
]
REJECTED = [
    [], ["find"], ["nonsense"], ["find", "nonsense"], ["gen", "random"],
    ["gen", "random", "--n", "4", "--r", "2", "--seed", "x"],
    ["oracle", "exact", "--n", "4", "--mode", "even", "--r", "2"],
    ["find", "unique-free", "--input", "x", "--best-effort=yes"],
    ["export", "dot", "--input", "--n"],
    ["export", "dot", "--input", "x", "--depth", "3"],
    ["export", "dot", "--input", "x", "extra"],
    ["export", "dot", "--input", "x", "--"],
]


def test_reader_accepts_what_argparse_accepted_with_equal_values():
    assert [_outcomes_agree(argv) for argv in ACCEPTED] == ["ok"] * len(ACCEPTED)
    assert [_outcomes_agree(argv) for argv in REJECTED] == ["error"] * len(REJECTED)
    rng = random.Random(27)
    kinds = [_outcomes_agree(_well_formed(rng)) for _ in range(1500)]
    assert kinds.count("ok") > 1200
    kinds = [_outcomes_agree(_mangled(rng)) for _ in range(4000)]
    assert min(kinds.count(k) for k in ("ok", "help", "error")) > 100


def test_abbreviated_flags_are_usage_errors(capsys):
    # argparse's default tree took --inp for --input and --best for
    # --best-effort; neither was ever documented, and both now exit 64.
    for argv in (["export", "dot", "--inp", "x"],
                 ["find", "unique-free", "--input", "x", "--best"]):
        assert main(argv) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
    assert main(["export", "dot", "--input", "x", "--inp", "y"]) == USAGE_EXIT
    assert "usage error: unrecognized arguments: --inp y" in capsys.readouterr().err


@pytest.mark.parametrize("argv,commands", [
    (["-h"], list(COMMANDS)),
    (["find", "--help"], [k for k in COMMANDS if k[0] == "find"]),
    (["find", "even-kst", "--input", "x", "-h"], [("find", "even-kst")]),
])
def test_help_at_each_level_lists_the_flags(argv, commands, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: oddramsey")
    for key in COMMANDS:
        assert (f"oddramsey {key[0]} {key[1]}:" in out) == (key in commands)
    for key in commands:
        for name, _, _, text in COMMANDS[key][1]:
            assert f"--{name}" in out and text in out
    if ("find", "even-kst") in commands:
        assert "odd s only; default n - s" in out
