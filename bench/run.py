"""hierpower benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

A query is one in-process ``hierpower.cli.main(argv)`` call with stdout
captured, so it takes the path a user's command takes, minus interpreter
start-up. Inputs are written at set-up from the seeded generator in
``inputs.py``; the program sees only the document files. The query list
repeats in whole passes, as many as bring the run closest to ``--seconds``
and at least 100 queries. Every output is checked outside the timed
region (see ``checks.py``); a failed check counts against the run and
makes the exit code non-zero.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every query
once untraced and once traced, in alternating order, and prints per-layer
self time and call counts per pass over the query list, work counts
computed from the inputs and tracing overhead. ``--workload all`` runs
each workload in a fresh process and prints every metric; with
``--trace 1`` it then times the table-building layers once per size
(the layer sweep). The last line of standard output is always one JSON
object.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # every run compiles the program from source alike

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench-work"

import inputs  # noqa: E402  (from this script's directory, after the flag above)

MIN_QUERIES = 100
# Set-up is timed in this many fresh processes, spread over the timed run so
# that they meet the machine at different speeds; setup_s is their median.
SETUP_PROBES = 7
SWEEP_SIZES = (8, 12, 16, 20)
SWEEP_LAYERS = ("successor_game", "strong_successor_game", "harsanyi_dividends", "shapley",
                "core_violation")
# The dominant layer each workload was chosen for, as (share metric, workload).
# A prediction holds when that layer takes more than half of query time.
PREDICTIONS = {
    "share.shapley_permutation": "verify-small",
    "share.is_convex_concave": "verify-mid",
    "share.core_violation_subtree": "core-check",
    "share.edge_list_parse": "docs-large",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "hierpower" / "cli.py").is_file():
        print(f"error: no hierpower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- set-up and one query --------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs and run one query of each form."""
    from hierpower import cli

    queries = inputs.build_queries(workload, seed)
    inputs.write_documents(queries, workdir)
    for q in inputs.warmup_queries(queries):
        call(cli, q.argv(workdir))
    return cli, queries


def call(cli, argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI query; returns (exit code or exception name, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising query is a failed query
        code = type(exc).__name__
    return code, out.getvalue(), time.perf_counter() - start


class Outcomes:
    """Checks every output: each distinct query's first output in full, and
    every repeat against that first output."""

    def __init__(self, queries, workdir):
        self.queries = queries
        self.workdir = workdir
        self.first: dict[int, tuple[object, str]] = {}
        self.attempted = 0
        self.per_query = [0] * len(queries)
        self.reasons: dict[int, str] = {}

    def record(self, index: int, code, out: str) -> None:
        self.attempted += 1
        self.per_query[index] += 1
        if index not in self.first:
            self.first[index] = (code, out)
        elif self.first[index] != (code, out):
            self.reasons.setdefault(index, "output differs between repeats")

    def failed(self) -> int:
        """Failed attempts: any attempt of a query whose output is wrong or unstable."""
        from checks import Facts, check

        facts: dict[str, Facts] = {}
        for index, (code, out) in self.first.items():
            q = self.queries[index]
            if q.doc.name not in facts:
                facts[q.doc.name] = Facts(q.doc.net)
            reason = check(q, facts[q.doc.name], code, out)
            if reason:
                self.reasons.setdefault(index, reason)
        return sum(self.per_query[i] for i in self.reasons)

    def report(self) -> None:
        for index, reason in sorted(self.reasons.items()):
            argv = " ".join(self.queries[index].argv(self.workdir))
            print(f"FAILED {argv}: {reason}", file=sys.stderr)

    def verdicts(self) -> dict[str, dict[str, int]]:
        """Checked Core verdicts per measure over the distinct queries, as
        {measure: {"in": count, "out": count}}."""
        tally: dict[str, dict[str, int]] = {}
        for index, (_, out) in sorted(self.first.items()):
            args = self.queries[index].args
            if "--check" in args and index not in self.reasons:
                counts = tally.setdefault(args[args.index("--check") + 1], {"in": 0, "out": 0})
                counts["in" if json.loads(out)["in_core"] else "out"] += 1
        return tally


def describe_inputs(queries) -> None:
    """One line per command: its documents' sizes and measured edge density."""
    groups: dict[str, dict] = {}
    for q in queries:
        command = " ".join(a for a in q.args if a.startswith("--") and a != "--json")
        groups.setdefault(f"{q.args[0]} {command}".strip(), {})[q.doc.name] = q.doc.net
    for command, nets in groups.items():
        sizes = sorted({net.n for net in nets.values()})
        density = statistics.fmean(len(net.edges) / (net.n * (net.n - 1)) for net in nets.values())
        per_node = statistics.fmean(len(net.edges) / net.n for net in nets.values())
        print(f"inputs for {command}: {len(nets)} documents, n {sizes[0]}..{sizes[-1]}, "
              f"mean {per_node:.2f} out-edges per node, mean edge density {density:.4f}")


# --- untraced run: end-to-end metrics --------------------------------------------

def run_workload(args, workdir: Path) -> int:
    cli, queries = setup(args.workload, args.seed, workdir)
    if args.trace:
        return run_traced(args, workdir, cli, queries)
    outcomes = Outcomes(queries, workdir)
    latencies: list[float] = []
    by_query: list[list[float]] = [[] for _ in queries]
    setups: list[float] = []
    gc.collect()
    start = time.perf_counter()
    paused = 0.0  # time spent in set-up probes, which is not timed run
    passes = 0
    while (more_passes(passes, time.perf_counter() - start - paused, args.seconds)
           or len(latencies) < MIN_QUERIES):
        for index, q in enumerate(queries):
            elapsed = time.perf_counter() - start - paused
            if len(setups) < SETUP_PROBES and elapsed >= len(setups) * args.seconds / SETUP_PROBES:
                setups.append(setup_probe(args.workload, args.seed))
                paused = time.perf_counter() - start - elapsed
            code, out, seconds = call(cli, q.argv(workdir))
            latencies.append(seconds)
            by_query[index].append(seconds)
            outcomes.record(index, code, out)
        passes += 1
    wall = time.perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = outcomes.failed()
    outcomes.report()
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES - len(setups))]
    # The machine's speed can switch between two levels for seconds at a time.
    # A median over all samples then jumps between the levels, so the median
    # is taken over the distinct queries, each timed by its mean over the run.
    p50 = statistics.median(statistics.fmean(times) for times in by_query)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_qps": ((len(latencies) - failed) / wall, "queries/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  {len(queries)} distinct queries  "
          f"{len(latencies)} queries in {wall:.2f} s  failed {failed}  "
          f"failed_ratio {failed / len(latencies):.4f}")
    describe_inputs(queries)
    verdicts = outcomes.verdicts()
    if verdicts:
        print(f"core verdicts {json.dumps(verdicts)}")
    print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return finish(metrics, outcomes.attempted, failed)


def more_passes(passes: int, elapsed: float, seconds: float) -> bool:
    """Whole passes only, as many as bring the run closest to ``seconds``."""
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to it being ready for its first timed query."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def finish(metrics: dict, attempted: int, failed: int) -> int:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


# --- traced run: per-layer metrics -----------------------------------------------

def run_traced(args, workdir: Path, cli, queries) -> int:
    from tracing import WORK_COUNTERS, Tracer, traced_names

    tracer = Tracer()
    outcomes = Outcomes(queries, workdir)
    plain = traced = 0.0
    written = edges = passes = 0
    start = time.perf_counter()
    while more_passes(passes, time.perf_counter() - start, args.seconds):
        for index, q in enumerate(queries):
            for tracing in ((False, True) if (index + passes) % 2 == 0 else (True, False)):
                tracer.query = index
                if tracing:
                    tracer.install()
                code, out, seconds = call(cli, q.argv(workdir))
                tracer.uninstall()
                outcomes.record(index, code, out)
                if tracing:
                    traced += seconds
                    written += len(out.encode())
                    edges += len(q.doc.net.edges)
                else:
                    plain += seconds
        passes += 1
    failed = outcomes.failed()
    outcomes.report()
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")

    own, inclusive = tracer.times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in traced_names():
        if name in tracer.names:
            nid = tracer.names.index(name)
            metrics[f"{name}.self_s"] = (own.get(name, 0.0) / passes, "s")
            metrics[f"{name}.calls"] = (tracer.calls[nid] / passes, "count")
    counts = {"documents.edges_parsed": edges, "cli.bytes_written": written}
    counts.update((c, tracer.work[c]) for c in WORK_COUNTERS if c not in tracer.work_failed)
    for name, value in counts.items():
        metrics[name] = (value / passes, "bytes" if name == "cli.bytes_written" else "count")
    metrics["trace.untraced_qps"] = (passes * len(queries) / plain, "queries/s")
    metrics["trace.traced_qps"] = (passes * len(queries) / traced, "queries/s")
    metrics["trace.qps_ratio"] = (plain / traced, "fraction")
    if inclusive.get("cli.main"):
        metrics.update(shares(tracer, queries, own, inclusive))

    print(f"workload {args.workload}  seed {args.seed}  traced run: {passes} pass(es) over "
          f"{len(queries)} queries, each untraced and traced; failed {failed}")
    print("per pass; work counts are computed from the inputs, not counted by the program")
    absent = [n for n in traced_names() if n not in tracer.names]
    absent += [f"{c} (work count)" for c in WORK_COUNTERS if c in tracer.work_failed]
    for name in absent:
        print(f"  absent: {name}")
    for share, workload in PREDICTIONS.items():
        if workload == args.workload and share in metrics:
            value = metrics[share][0]
            print(f"prediction {share} > 0.5 on {workload}: "
                  f"{'HOLDS' if value > 0.5 else 'FAILS'} ({value:.3f})")
    return finish(metrics, outcomes.attempted, failed)


def shares(tracer, queries, own, inclusive) -> dict[str, tuple[float, str]]:
    """Share of query time spent in each predicted dominant layer."""
    total = inclusive.get("cli.main", 0.0)
    edge_list = {i for i, q in enumerate(queries) if q.doc.edge_list}
    parse_own, parse_incl = tracer.times(edge_list) if edge_list else ({}, {})
    parse_total = parse_incl.get("cli.main", 0.0)
    out = {
        "share.shapley_permutation": own.get("games.shapley_permutation", 0.0) / total,
        "share.is_convex_concave":
            (own.get("games.is_convex", 0.0) + own.get("games.is_concave", 0.0)) / total,
        "share.core_violation_subtree": inclusive.get("measures.core_violation", 0.0) / total,
        "share.edge_list_parse":
            parse_own.get("documents.document_from_edge_list", 0.0) / parse_total
            if parse_total else 0.0,
    }
    return {name: (value, "fraction") for name, value in out.items()}


def layer_sweep(seed: int) -> dict[str, float]:
    """Seconds of each table-building layer, timed once per size on seeded
    networks with p = 1/4. A layer that is gone is left out."""
    sys.path.insert(0, str(ROOT / "src"))
    from hierpower import games, measures, networks

    out = {}
    for n in SWEEP_SIZES:
        net = inputs.dense_network(random.Random(f"sweep/{seed}/{n}"), n, Fraction(1, 4))
        try:
            hnet = networks.HierNet(n, net.successors())
            weak = games.successor_game(hnet)
            gauge = measures.beta_measure(hnet)
        except (AttributeError, TypeError):
            continue
        steps = {
            "successor_game": lambda: games.successor_game(hnet),
            "strong_successor_game": lambda: games.strong_successor_game(hnet),
            "harsanyi_dividends": lambda: games.harsanyi_dividends(weak),
            "shapley": lambda: games.shapley(weak),
            "core_violation": lambda: measures.core_violation(hnet, gauge),
        }
        for layer, step in steps.items():
            gc.collect()
            start = time.perf_counter()
            try:
                step()
            except (AttributeError, TypeError):
                continue
            out[f"sweep.n{n}.{layer}.s"] = time.perf_counter() - start
        del weak
    return out


# --- every workload --------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric by name,
    then with ``--trace 1`` runs the layer sweep once."""
    results, status = {}, 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        status = status or proc.returncode
        if lines:
            results[workload] = {**json.loads(lines[-1]), "report": lines[:-1]}
    sweep = layer_sweep(args.seed) if args.trace else {}
    if args.trace:
        print("== layer sweep (s), one timing per layer and size")
        for n in SWEEP_SIZES:
            for layer in SWEEP_LAYERS:
                name = f"sweep.n{n}.{layer}.s"
                print(f"   {name:<40} {sweep[name]:.6g}" if name in sweep
                      else f"   absent: {name}")
    print(json.dumps({"workloads": results, "sweep": sweep}))
    return status


if __name__ == "__main__":
    sys.exit(main())
