"""Answer checks for every query form, computed from the benchmark's own inputs.

Nothing here imports ``hierpower``: gauges are recomputed from their closed
forms, Core verdicts by the benchmark's own integer subset scan or by
recomputing the witness's shortfall, and vertex lists by enumerating
one-controller selections directly. Each check returns ``None`` when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

from inputs import Network, Query


class Facts:
    """Structure of one network, derived from its edge list."""

    def __init__(self, net: Network):
        self.net = net
        self.labels = net.labels
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.succ = net.successors()
        self.pred = net.predecessors()
        self.npred = npred = [len(p) for p in self.pred]
        self.dominated = sum(1 for c in npred if c)
        self.single = sum(1 for c in npred if c == 1)
        self.multi = self.dominated - self.single
        counts = {c for c in npred if c}
        multi_counts = {c for c in npred if c >= 2}
        self.flags = {
            "simple": counts <= {1},
            "regular": len(counts) <= 1,
            "weakly_regular": len(multi_counts) <= 1,
            "principal": self.single == 0,
        }

    def measures(self) -> dict[str, list[Fraction]]:
        """The five measures from their closed forms."""
        n, npred = self.net.n, self.npred
        solo = [sum(1 for j in self.succ[i] if npred[j] == 1) for i in range(n)]
        contested = [sum(1 for j in self.succ[i] if npred[j] >= 2) for i in range(n)]
        degree = [len(s) for s in self.succ]
        pool = sum(c for c in npred if c >= 2)
        controllers = sum(1 for c in contested if c)
        edges = len(self.net.edges)
        return {
            "beta": [sum((Fraction(1, npred[j]) for j in self.succ[i]), Fraction(0))
                     for i in range(n)],
            "gately": [solo[i] + (Fraction(contested[i] * self.multi, pool) if pool else 0)
                       for i in range(n)],
            "egalitarian": [solo[i] + (Fraction(self.multi, controllers) if contested[i] else 0)
                            for i in range(n)],
            "proportional": [Fraction(d * self.dominated, edges) if edges else Fraction(0)
                             for d in degree],
            "degree": [Fraction(d) for d in degree],
        }

    def required(self, members: list[int]) -> int:
        """Number of controlled nodes all of whose controllers are in ``members``."""
        inside = set(members)
        return sum(1 for p in self.pred if p and inside.issuperset(p))

    def in_core(self, gauge: list[Fraction]) -> bool:
        """Integer scan: every coalition is paid at least what it fully controls."""
        n = self.net.n
        scale = math.lcm(*(g.denominator for g in gauge))
        pay = [int(g * scale) for g in gauge]
        need = [0] * (1 << n)
        for p in self.pred:
            if p:
                need[sum(1 << i for i in p)] += scale
        for i in range(n):  # zeta transform: need[S] = scale * #{j : pred(j) within S}
            bit = 1 << i
            for s in range(1 << n):
                if s & bit:
                    need[s] += need[s ^ bit]
        paid = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            paid[s] = paid[s ^ low] + pay[low.bit_length() - 1]
            if paid[s] < need[s]:
                return False
        return True

    def vertices(self, order: list[str]) -> list[list[int]]:
        """Distinct out-degree vectors of the one-controller selections, sorted."""
        position = [order.index(label) for label in self.labels]
        controlled = [p for p in self.pred if p]
        seen = set()
        for picks in itertools.product(*controlled):
            degree = [0] * self.net.n
            for i in picks:
                degree[position[i]] += 1
            seen.add(tuple(degree))
        return [list(v) for v in sorted(seen)]


def check(query: Query, facts: Facts, code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code!r}"
    args = query.args
    try:
        if args[0] == "verify":
            payload = json.loads(out)
            return None if payload.get("ok") is True else "verify reports ok != true"
        if args[0] == "core" and "--vertices" in args:
            return _check_vertices(facts, json.loads(out))
        if args[0] == "core":
            return _check_core(facts, args[args.index("--check") + 1], json.loads(out))
        if "--json" in args:
            payload = json.loads(out)
            problem = _check_summary(facts, payload["network"])
            if problem or args[0] == "classify":
                return problem
            return _check_measure_json(facts, payload["measures"])
        if args[0] == "classify":
            return _check_classify_text(facts, out)
        return _check_measure_text(facts, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_summary(facts: Facts, summary: dict) -> str | None:
    expected = {
        "node_count": facts.net.n,
        "edge_count": len(facts.net.edges),
        "dominated": facts.dominated,
        "single_pred": facts.single,
        "multi_pred": facts.multi,
        "class": facts.flags,
    }
    for key, value in expected.items():
        if summary[key] != value:
            return f"network {key} is {summary[key]!r}, expected {value!r}"
    if sorted(summary["nodes"]) != sorted(facts.labels):
        return "node labels differ"
    return None


def _check_gauge(facts: Facts, name: str, values: dict[str, Fraction],
                 expected: list[Fraction]) -> str | None:
    if sorted(values) != sorted(facts.labels):
        return f"{name}: node labels differ"
    total = sum(values.values(), Fraction(0))
    want = len(facts.net.edges) if name == "degree" else facts.dominated
    if total != want:
        return f"{name} sums to {total}, expected {want}"
    for label, value in values.items():
        if value != expected[facts.index[label]]:
            return f"{name}[{label}] is {value}, closed form gives {expected[facts.index[label]]}"
    return None


def _check_measure_json(facts: Facts, measures: dict) -> str | None:
    expected = facts.measures()
    if sorted(measures) != sorted(expected):
        return f"measures {sorted(measures)} reported"
    for name, gauge in measures.items():
        values = {label: Fraction(v["exact"]) for label, v in gauge.items()}
        problem = _check_gauge(facts, name, values, expected[name])
        if problem:
            return problem
    return None


def _check_measure_text(facts: Facts, out: str) -> str | None:
    rows = [line.split() for line in out.splitlines() if line.strip()]
    names = rows[0][1:]
    expected = facts.measures()
    if rows[-1][0] != "total" or sorted(names) != sorted(expected):
        return "measure table has unexpected header or footer"
    for col, name in enumerate(names, start=1):
        values = {row[0]: Fraction(row[col]) for row in rows[1:-1]}
        problem = _check_gauge(facts, name, values, expected[name])
        if problem:
            return problem
        if Fraction(rows[-1][col]) != sum(values.values(), Fraction(0)):
            return f"{name} total row differs from the column sum"
    return None


def _check_classify_text(facts: Facts, out: str) -> str | None:
    fields = dict(re.findall(r"([a-z][a-z -]*?): (\S+)", out))
    expected = {
        "nodes": str(facts.net.n),
        "edges": str(len(facts.net.edges)),
        "dominated": str(facts.dominated),
        "single-predecessor": str(facts.single),
        "multi-predecessor": str(facts.multi),
    }
    expected.update(
        (name.replace("_", " "), "yes" if flag else "no") for name, flag in facts.flags.items()
    )
    if fields != expected:
        return f"classify text reads {fields}, expected {expected}"
    return None


def _check_core(facts: Facts, measure: str, payload: dict) -> str | None:
    problem = _check_summary(facts, payload["network"])
    if problem:
        return problem
    values = {label: Fraction(v["exact"]) for label, v in payload["gauge"].items()}
    expected = facts.measures()[measure]
    problem = _check_gauge(facts, measure, values, expected)
    if problem:
        return problem
    gauge = [values[label] for label in facts.labels]
    if payload["in_core"] is True:
        if facts.in_core(gauge):
            return None
        return f"{measure} reported in core, scan finds a violation"
    witness = payload["violation"]
    members = [facts.index[label] for label in witness["coalition"]]
    assigned = sum((gauge[i] for i in members), Fraction(0))
    required = facts.required(members)
    reported = tuple(Fraction(witness[k]) for k in ("assigned", "required", "shortfall"))
    if reported != (assigned, required, required - assigned) or assigned >= required:
        return (f"{measure} witness {witness['coalition']}: reported {reported}, "
                f"recomputed assigned {assigned} required {required}")
    return None


def _check_vertices(facts: Facts, payload: dict) -> str | None:
    order = payload["network"]["nodes"]
    got = [[Fraction(v) for v in gauge] for gauge in payload["core_vertices"]]
    if got != facts.vertices(order):
        return f"{len(got)} vertices reported, enumeration differs"
    return None
