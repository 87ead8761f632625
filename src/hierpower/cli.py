"""Command-line front end.

Subcommands: ``classify`` (structure and regularity flags), ``measure``
(power gauges by label), ``core`` (membership check or Core generators) and
``verify`` (theorem clauses over one network or a seeded random family).
All numbers are printed exactly as ``p/q``; decimals are annotations.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 cap
exceeded (both :class:`HierPowerError`), 4 internal error: any other
exception, a fault in the program, reported with its traceback.  141
(128 + SIGPIPE): the reader closed standard output early, as ``head``
does; no traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from . import __version__
from .coalitions import members
from .documents import NetworkDocument, _indented_json, load_document
from .errors import CapExceededError, HierPowerError, InputError
from .games import DEFAULT_PLAYER_CAP, Imputation, _check_player_cap
from .generators import generate_random
from .measures import (
    _beta,
    _degree,
    _egalitarian,
    _gately,
    _proportional,
    _vertex_degrees,
    core_violation,
)
from .networks import DEFAULT_SUBNETWORK_CAP, HierNet, classify, partition
from .rationals import as_exact
from .verification import verify_networks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

MEASURES = {  # each as (numerators, unit): numerators[i] / unit is node i's entry
    "beta": _beta,
    "gately": _gately,
    "egalitarian": _egalitarian,
    "proportional": _proportional,
    "degree": _degree,
}


def build_parser() -> argparse.ArgumentParser:
    def cap(text: str) -> int:  # argparse reports a non-int as "invalid cap value"
        if (value := int(text)) < 0:
            raise argparse.ArgumentTypeError(f"a cap cannot be negative, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="hierpower",
        description="Power measures and Core diagnostics for directed hierarchical networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON result document")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument(
        "--cap", type=cap, default=DEFAULT_PLAYER_CAP,
        help="largest node count for coalition enumeration (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="network class and node partition")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("input", help="network file (JSON or edge list)")

    p = sub.add_parser("measure", parents=[common], help="compute power gauges")
    p.set_defaults(run=_cmd_measure)
    p.add_argument("input", help="network file (JSON or edge list)")
    for name in MEASURES:
        p.add_argument(f"--{name}", action="store_true", help=f"include the {name} measure")
    p.add_argument("--all", action="store_true", help="include every measure")

    p = sub.add_parser("core", parents=[capped], help="Core membership and generating gauges")
    p.set_defaults(run=_cmd_core)
    p.add_argument("input", help="network file (JSON or edge list)")
    p.add_argument(
        "--subnetwork-cap", type=cap, default=DEFAULT_SUBNETWORK_CAP,
        help="largest simple-subnetwork count to enumerate (default %(default)s)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", choices=sorted(MEASURES), help="test one measure's gauge")
    group.add_argument("--vertices", action="store_true", help="list the out-degree gauges "
                       "of the simple subnetworks, whose convex hull is the Core")

    p = sub.add_parser("verify", parents=[capped], help="verify theorem clauses")
    p.set_defaults(run=_cmd_verify)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="verify on one network file")
    group.add_argument("--random", type=int, metavar="COUNT", help="verify on random networks")
    p.add_argument("--nodes", type=int, default=6, help="nodes per random network (default 6)")
    p.add_argument(
        "--edge-prob", default="1/2", metavar="P",
        help="edge probability as a rational, e.g. 1/4 (default 1/2)",
    )
    p.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    return parser


_parser = functools.cache(build_parser)  # built on the first call, reused after


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader stopped reading: not a fault in the program
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError, OSError):  # no real descriptor to redirect
            pass
        else:  # the exit-time flush of what is still buffered then goes nowhere, quietly
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except HierPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not bad input; argparse's SystemExit passes
        import traceback  # here, so that no run which succeeds pays for the module
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _load(args) -> tuple[NetworkDocument, HierNet]:
    doc = load_document(args.input)
    return doc, doc.to_network()


def _network_summary(doc: NetworkDocument, net: HierNet) -> dict:
    parts = partition(net)
    flags = classify(net)
    return {
        "nodes": list(doc.labels),
        "node_count": net.n,
        "edge_count": net.edge_count(),
        "dominated": parts.dominated_count,
        "single_pred": len(parts.single_pred),
        "multi_pred": len(parts.multi_pred),
        "class": {
            "simple": flags.simple,
            "regular": flags.regular,
            "weakly_regular": flags.weakly_regular,
            "principal": flags.principal,
        },
    }


def _ratio(k: int, unit: int) -> str:
    """``str(Fraction(k, unit))`` for ``unit`` > 0, with no Fraction built."""
    g = math.gcd(k, unit)
    return f"{k // g}/{unit // g}" if unit != g else str(k // g)


def _gauge_block(labels: tuple[str, ...], numerators: list[int], unit: int, indent: str) -> str:
    """``_indented_json`` of {label: {"exact": ..., "decimal": ...}} at ``indent`` for the
    gauge ``numerators[i] / unit`` over one or more labels, each numerator's text made once.
    Int true division rounds correctly, so the decimal is float(Fraction(k, unit))."""
    inner = indent + "  "
    text = {k: f': {{{inner}  "exact": "{_ratio(k, unit)}",{inner}  "decimal": {k / unit!r}'
               f'{inner}}}' for k in set(numerators)}
    rows = map(str.__add__, map(encode_basestring_ascii, labels), map(text.__getitem__, numerators))
    return "{" + inner + ("," + inner).join(rows) + indent + "}"


def _coalition_labels(mask: int, labels: tuple[str, ...]) -> str:
    return "{" + ", ".join(labels[i] for i in members(mask)) + "}"


def _cmd_classify(args) -> int:
    doc, net = _load(args)
    summary = _network_summary(doc, net)
    if args.json:
        print(_indented_json({"network": summary}))
        return EXIT_OK
    cls = summary["class"]
    print("\n".join([
        f"nodes: {summary['node_count']}   edges: {summary['edge_count']}",
        f"dominated: {summary['dominated']}   "
        f"single-predecessor: {summary['single_pred']}   "
        f"multi-predecessor: {summary['multi_pred']}",
        "   ".join(
            f"{name.replace('_', ' ')}: {'yes' if cls[name] else 'no'}"
            for name in ("simple", "regular", "weakly_regular", "principal")
        ),
    ]))
    return EXIT_OK


def _cmd_measure(args) -> int:
    doc, net = _load(args)
    requested = [name for name in MEASURES if getattr(args, name)]
    if args.all:
        requested = list(MEASURES)
    if not requested:
        raise InputError("choose at least one measure flag or --all")
    results = {name: MEASURES[name](net) for name in requested}
    if args.json:
        print(_indented_json({
            "network": _network_summary(doc, net),
            "measures": {name: functools.partial(_gauge_block, doc.labels, *gauge)
                         for name, gauge in results.items()},
        }))
    else:
        print("\n".join(_measure_rows(doc.labels, results)))
    return EXIT_OK


def _measure_rows(labels: tuple[str, ...], gauges: dict[str, tuple[list[int], int]]) -> list[str]:
    """The text table: one column per gauge, one row per node, then the totals."""
    width = max(5, *(len(label) for label in labels))
    texts = [{k: f"  {_ratio(k, unit):>14}" for k in set(nums)} for nums, unit in gauges.values()]
    columns = [map(text.__getitem__, nums) for text, (nums, _) in zip(texts, gauges.values())]
    rows = ["node".ljust(width) + "".join(f"  {name:>14}" for name in gauges)]
    rows.extend(label.ljust(width) + "".join(cells) for label, *cells in zip(labels, *columns))
    rows.append("total".ljust(width) + "".join(f"  {_ratio(sum(nums), unit):>14}"
                                               for nums, unit in gauges.values()))
    return rows


def _cmd_core(args) -> int:
    doc, net = _load(args)
    if args.vertices:
        rows = _vertex_degrees(net, args.subnetwork_cap)
        digits = [str(d) for d in range(net.n)]  # an out-degree is below n
        if args.json:
            sep, cell = ",\n      ", [f'"{d}"' for d in digits].__getitem__
            body = ",\n".join([f"    [\n      {sep.join(map(cell, row))}\n    ]" for row in rows])
            summary = _indented_json(_network_summary(doc, net), "\n  ")
            print(f'{{\n  "network": {summary},\n  "core_vertices": [\n{body}\n  ]\n}}')
        else:
            nodes = ", ".join(doc.labels)
            header = f"{len(rows)} distinct Core vertex gauge(s) over nodes ({nodes}):"
            lines = (f"({', '.join(map(digits.__getitem__, row))})" for row in rows)
            print("\n".join([header, *lines]))
        return EXIT_OK

    numerators, unit = MEASURES[args.check](net)
    violation = core_violation(net, Imputation._from_numerators(numerators, unit), cap=args.cap)
    if not args.json:
        if violation is None:
            print(f"gauge {args.check}: in core")
        else:
            print(
                f"gauge {args.check}: NOT in core; violating coalition "
                f"{_coalition_labels(violation.mask, doc.labels)}: "
                f"{violation.assigned} < {violation.required} (short by {violation.shortfall})"
            )
        return EXIT_OK
    payload = {
        "network": _network_summary(doc, net),
        "measure": args.check,
        "gauge": functools.partial(_gauge_block, doc.labels, numerators, unit),
        "in_core": violation is None,
    }
    if violation is not None:
        payload["violation"] = {
            "coalition": [doc.labels[i] for i in members(violation.mask)],
            "assigned": str(violation.assigned),
            "required": str(violation.required),
            "shortfall": str(violation.shortfall),
        }
    print(_indented_json(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.input is not None:
        doc = load_document(args.input)
        nets = [doc.to_network()]
        sources = [args.input]
    else:
        if args.random < 1:
            raise InputError("--random needs a positive count")
        if args.nodes < 1:
            raise InputError(f"node count must be >= 1, got {args.nodes}")
        try:
            prob = as_exact(args.edge_prob)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if not 0 <= prob <= 1:
            raise InputError(f"edge probability must be in [0, 1], got {prob}")
        _check_player_cap(args.nodes, args.cap)  # before drawing O(n^2) edges per network
        nets = [
            generate_random(args.nodes, prob, seed=args.seed + k) for k in range(args.random)
        ]
        sources = [f"random(nodes={args.nodes}, seed={args.seed + k})" for k in range(len(nets))]

    report = verify_networks(nets, sources, cap=args.cap)
    if args.json:
        print(_indented_json({
            "networks": report.networks,
            "clauses": [
                {"name": c.name, "status": c.status, "pass": c.passed, "fail": c.failed,
                 "skip": c.skipped, "detail": c.detail}
                for c in report.clauses
            ],
            "ok": report.ok,
        }))
    else:
        width = max(len(c.name) for c in report.clauses)
        lines = [
            f"verified {report.networks} network(s)",
            f"{'clause'.ljust(width)}  status  pass/fail/skip",
        ]
        for c in report.clauses:
            line = f"{c.name.ljust(width)}  {c.status:<6}  {c.passed}/{c.failed}/{c.skipped}"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line)
        lines.append("RESULT: " + ("all clauses hold" if report.ok else "FAILURES detected"))
        print("\n".join(lines))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
