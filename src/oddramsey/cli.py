"""Command-line interface: one binary, a subcommand tree, JSON in and out.

The commands and their flags are one table, ``COMMANDS``, keyed by
(group, op); ``parse_args`` reads an argv against it in one pass, without
argparse, whose import and parser tree would cost every run more than
some of the searches it starts.  Every command writes a single JSON
document (sorted keys) to stdout; logs and wall-clock timing go to stderr
so that stdout stays byte-identical across reruns with the same seed.
Statuses map one-to-one onto exit codes: ok 0, not_found 2, unknown 3,
precondition_failed 4, internal_contradiction 5, cap_exceeded 6; usage
errors exit 64.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace

from .colored_graph import (
    EdgeColoring,
    check_instance_size,
    cycle_census,
    instance_from_json,
    instance_to_obj,
)
from .errors import (
    BadWitness,
    CapExceeded,
    InternalContradiction,
    NotFoundError,
    OddRamseyError,
    PreconditionFailed,
)

STATUS_CODES = {
    "ok": 0,
    "not_found": 2,
    "unknown": 3,
    "precondition_failed": 4,
    "internal_contradiction": 5,
    "cap_exceeded": 6,
}
USAGE_EXIT = 64


class _UsageError(Exception):
    pass


def _census_obj(census) -> dict:
    return {str(c): k for c, k in sorted(census.counts.items())}


def _read_instance(path: str) -> EdgeColoring:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return instance_from_json(text)
    except PreconditionFailed as exc:
        raise _UsageError(f"invalid instance: {exc}") from exc


REQUIRED = object()  # the default of a flag that must be given

# (group, op) -> (summary, flags).  A flag is (name, kind, default, help):
# kind is int or str for a flag that takes one value, a tuple of the values
# it accepts, or bool for a flag that takes none (False unless given); a
# default of REQUIRED makes the flag mandatory.  A flag --x-y is read into
# the attribute x_y.
COMMANDS = {
    ("find", "even-hamilton"): ("even-chromatic Hamilton cycle", (
        ("input", str, REQUIRED, "instance file; - reads stdin"),
    )),
    ("find", "unique-free"): ("Hamilton cycle with no unique color", (
        ("input", str, REQUIRED, "instance file; - reads stdin"),
        ("trace", str, None, "write the color ledger to this file"),
        ("best-effort", bool, False, "run past the r <= n/4 guarantee"),
    )),
    ("find", "even-kst"): ("even-chromatic complete bipartite subgraph", (
        ("input", str, REQUIRED, "instance file; - reads stdin"),
        ("s", int, REQUIRED, "size of side A"),
        ("t", int, REQUIRED, "size of side B"),
        ("t-prime", int, None, "odd s only; default n - s"),
    )),
    ("construct", "unique-upper"): (
        "coloring with a unique color on every cycle",
        (("n", int, REQUIRED, "vertices, 1..2000"),),
    ),
    ("oracle", "exact"): ("does some r-coloring satisfy the mode everywhere", (
        ("n", int, REQUIRED, "vertices of K_n"),
        ("mode", ("odd", "unique"), REQUIRED, "predicate every cycle must meet"),
        ("r", int, REQUIRED, "colors"),
    )),
    ("gen", "random"): ("seeded uniform coloring of a complete graph", (
        ("n", int, REQUIRED, "vertices, 1..2000"),
        ("r", int, REQUIRED, "colors"),
        ("seed", int, REQUIRED, "SplitMix64 seed"),
    )),
    ("verify", "cycles"): ("check a predicate on every Hamilton cycle", (
        ("input", str, "-", "instance file; - reads stdin"),
        ("predicate", ("has-unique-color", "odd-chromatic", "even-chromatic"),
         REQUIRED, "checked on every Hamilton cycle"),
    )),
    ("export", "dot"): ("DOT rendering of a colored instance", (
        ("input", str, REQUIRED, "instance file; - reads stdin"),
    )),
}
_HELP = ("-h", "--help")


def _help(keys) -> None:
    """Print the usage of the commands ``keys`` to stdout and exit 0."""
    lines = ["usage: oddramsey GROUP OP [--flag VALUE | --flag=VALUE] ..."]
    for group, op in keys:
        summary, flags = COMMANDS[group, op]
        lines += ["", f"oddramsey {group} {op}: {summary}"]
        for name, kind, default, text in flags:
            if isinstance(kind, tuple):
                meta = " {" + ",".join(kind) + "}"
            else:
                meta = {bool: "", int: " INT", str: " STR"}[kind]
            if default is REQUIRED:
                text += " (required)"
            elif isinstance(default, str):
                text += f" (default {default})"
            lines.append(f"  --{name}{meta}".ljust(28) + text)
    print("\n".join(lines))
    raise SystemExit(0)


def _is_value(word: str, flags) -> bool:
    """Whether ``word`` may follow a flag as its value.  As argparse read
    it: anything but a word that starts with ``-``, except ``-`` itself, a
    negative number and, unless it names a flag before an ``=``, a word
    with a space in it."""
    if word[:1] != "-" or word == "-":
        return True
    if word.partition("=")[0] in flags:
        return False
    return " " in word or re.match(r"-\d+$|-\d*\.\d+$", word) is not None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against :data:`COMMANDS` in one pass.

    The first two words pick the command; each later word is one of its
    flags, ``--flag VALUE`` or ``--flag=VALUE``, in any order, the last
    one winning.  Flags are never abbreviated.  ``-h``/``--help`` in place
    of the group or the op, or among the flags, prints usage and exits 0.
    Every other mistake raises a usage error: at once for a bad value,
    after the last word for a missing flag or unknown words (so a later
    ``-h`` still prints usage, as argparse had it).
    """
    group = argv[0] if argv else None
    if group in _HELP:
        _help(COMMANDS)
    groups = list(dict.fromkeys(g for g, _ in COMMANDS))
    if group not in groups:
        raise _UsageError(f"expected a group, one of: {', '.join(groups)}")
    ops = [key for key in COMMANDS if key[0] == group]
    op = argv[1] if len(argv) > 1 else None
    if op in _HELP:
        _help(ops)
    if (group, op) not in COMMANDS:
        names = ", ".join(o for _, o in ops)
        raise _UsageError(f"expected an op after {group}, one of: {names}")
    kinds = {"--" + name: kind for name, kind, _, _ in COMMANDS[group, op][1]}
    values = {}
    unknown = []
    i = 2
    while i < len(argv):
        word = argv[i]
        i += 1
        if word in _HELP:
            _help([(group, op)])
        name, eq, value = word.partition("=")
        if name not in kinds:
            if word.startswith(("-h", "--help=")):
                raise _UsageError(f"{word}: help takes no value")
            unknown.append(word)
            continue
        kind = kinds[name]
        if kind is bool:
            if eq:
                raise _UsageError(f"{name} takes no value")
            values[name] = True
            continue
        if not eq:
            if i == len(argv) or not _is_value(argv[i], kinds.keys() | _HELP):
                raise _UsageError(f"{name} expects one value")
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{name}: invalid int value {value!r}") from None
        elif kind is not str and value not in kind:
            raise _UsageError(f"{name}: {value!r} is not one of {', '.join(kind)}")
        values[name] = value
    args = SimpleNamespace(group=group, op=op)
    for name, _, default, _ in COMMANDS[group, op][1]:
        value = values.get("--" + name, default)
        if value is REQUIRED:
            raise _UsageError(f"--{name} is required")
        setattr(args, name.replace("-", "_"), value)
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


_DOT_PALETTE = [
    "black", "red", "blue", "green3", "orange", "purple",
    "brown", "cyan3", "magenta", "gold3",
]


def _to_dot(chi: EdgeColoring) -> str:
    lines = ["graph instance {"]
    lines.append('  graph [palette="%d"];' % chi.r)
    for v in range(chi.host.n):
        lines.append(f"  {v};")
    for (u, v), c in chi.items():
        tone = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
        lines.append(f'  {u} -- {v} [label="{c}", color="{tone}"];')
    lines.append("}")
    return "\n".join(lines)


def dispatch(args) -> tuple[str, dict]:
    """Route to the owning module; returns (status, stdout payload).

    Each branch imports only the module it calls, so a command does not
    pay for loading the pipelines it never runs.
    """
    if args.group == "find" and args.op == "even-hamilton":
        from . import parity_switch

        chi = _read_instance(args.input)
        out = parity_switch.find_even_hamilton_2col(chi.host, chi)
        return "ok", {
            "cycle": list(out.cycle.vertices),
            "provenance": out.provenance,
            "census": _census_obj(cycle_census(chi, out.cycle)),
        }
    if args.group == "find" and args.op == "unique-free":
        from . import unique_finder

        chi = _read_instance(args.input)
        res = unique_finder.find_unique_free_hamilton(
            chi, best_effort=args.best_effort
        )
        if args.trace:
            trace = {
                "palette": chi.r,
                "events": res.ledger.history,
            }
            try:
                with open(args.trace, "w", encoding="utf-8") as fh:
                    json.dump(trace, fh, sort_keys=True, indent=1)
            except OSError as exc:
                raise _UsageError(f"cannot write {args.trace}: {exc}") from exc
        freed = [
            ev["color"] for ev in res.ledger.history if ev["event"] == "free-color"
        ]
        return "ok", {
            "cycle": list(res.cycle.vertices),
            "census": _census_obj(res.census),
            "trace_summary": {
                "events": len(res.ledger.history),
                "freed_colors": freed,
                "restarts": sum(
                    1 for ev in res.ledger.history if ev["event"] == "restart"
                ),
            },
        }
    if args.group == "find" and args.op == "even-kst":
        from . import bipartite_even

        if args.t_prime is not None and args.s % 2 == 0:
            raise _UsageError("--t-prime applies to odd --s only")
        chi = _read_instance(args.input)
        res = bipartite_even.find_even_chromatic_kst(
            chi, args.s, args.t, t_prime=args.t_prime
        )
        if isinstance(res, bipartite_even.Miss):
            return res.status, {"status": res.status, "stage": res.stage}
        census = bipartite_even._bipartite_census(chi, res.side_a, res.side_b)
        return "ok", {
            "A": list(res.side_a),
            "B": list(res.side_b),
            "census": _census_obj(census),
        }
    if args.group == "construct":
        from . import constructions

        # Bare instance document: the output pipes into any --input slot.
        check_instance_size(args.n)
        chi = constructions.unique_upper_coloring(args.n)
        return "ok", instance_to_obj(chi)
    if args.group == "oracle":
        from . import constructions

        res = constructions.exact_ramsey(args.n, args.mode, args.r)
        payload = {
            "exists": res.exists,
            "nodes": res.nodes,
            "scheme": res.scheme,
        }
        if res.witness is not None:
            payload["witness"] = instance_to_obj(res.witness)
        return "ok", payload
    if args.group == "gen":
        from . import constructions

        check_instance_size(args.n)
        chi = constructions.random_coloring(args.n, args.r, args.seed)
        return "ok", instance_to_obj(chi)
    if args.group == "verify":
        from . import constructions

        chi = _read_instance(args.input)
        holds, counterexample = constructions.verify_every_cycle(
            chi, args.predicate
        )
        payload = {"holds": holds}
        if counterexample is not None:
            payload["counterexample"] = list(counterexample.vertices)
            payload["counterexample_census"] = _census_obj(
                cycle_census(chi, counterexample)
            )
        return "ok", payload
    if args.group == "export":
        chi = _read_instance(args.input)
        return "ok", {"dot": _to_dot(chi)}
    raise _UsageError(f"unhandled command {args.group}")


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        status, payload = dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (BadWitness, PreconditionFailed) as exc:
        status, payload = "precondition_failed", {"error": str(exc)}
    except NotFoundError as exc:
        status, payload = "not_found", {"error": str(exc)}
    except CapExceeded as exc:
        status, payload = "cap_exceeded", {"error": str(exc)}
    except (InternalContradiction, OddRamseyError) as exc:
        status, payload = "internal_contradiction", {"error": str(exc)}
    # Instance documents stay in the bare interchange format; everything
    # else is self-describing (the exit code carries the status either way).
    if "status" not in payload and "edges" not in payload:
        payload = {"status": status, **payload}
    print(json.dumps(payload, sort_keys=True))
    elapsed_ms = (time.monotonic() - started) * 1000.0
    print(f"# timing_ms={elapsed_ms:.1f}", file=sys.stderr)
    return STATUS_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
