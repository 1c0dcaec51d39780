"""Command-line interface: one binary, a subcommand tree, JSON in and out.

Every command writes a single JSON document (sorted keys) to stdout; logs
and wall-clock timing go to stderr so that stdout stays byte-identical
across reruns with the same seed.  Statuses map one-to-one onto exit
codes: ok 0, not_found 2, unknown 3, precondition_failed 4,
internal_contradiction 5, cap_exceeded 6; usage errors exit 64.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


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


def build_parser() -> _Parser:
    p = _Parser(prog="oddramsey", description=__doc__)
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
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(trace, fh, sort_keys=True, indent=1)
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
        parser = build_parser()
        args = parser.parse_args(argv)
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
