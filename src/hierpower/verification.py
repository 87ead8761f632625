"""Mechanical verification of the structural results on concrete networks.

``check_axioms`` tests a candidate power measure against the three
characterising properties (normalisation, normality, restricted
proportionality) over a finite family of networks.  ``verify_theorems``
evaluates every provable clause on one network: duality of the successor
representations, the unanimity decomposition, convexity/concavity, the
Shapley and disruption-value identities, Core membership conditions and
the propensity balance.  It computes the facts several clauses share,
then reads one row per clause: name, hypothesis, check, failure text.
Clauses whose hypothesis fails are reported as skipped, never as
failures.  ``verify_networks`` counts every network's clauses, the three
axiom rows and the weighted-marginal Shapley oracle row in one tally.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .coalitions import coalition
from .games import (
    BALANCED_PROPENSITY,
    DEFAULT_PLAYER_CAP,
    Imputation,
    TUGame,
    _shapley_from_dividends,
    dual,
    gately,
    harsanyi_dividends,
    in_core,
    is_concave,
    is_convex,
    propensity_to_disrupt,
    shapley,
    shapley_permutation,
    strong_successor_game,
    successor_game,
)
from .measures import (
    beta_measure,
    core_vertices,
    gately_measure,
    unique_simple_gauge,
)
from .networks import HierNet, classify, partition, principal_restriction

Measure = Callable[[HierNet], Sequence[Fraction]]

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True, slots=True)
class AxiomReport:
    """Pass/fail per axiom over a network family, with each failure's first network."""

    normalisation: bool
    normality: bool
    restricted_proportionality: bool
    first_failure: dict[str, int]  # failed axiom -> index of its first failing network

    @property
    def all_pass(self) -> bool:
        return self.normalisation and self.normality and self.restricted_proportionality


def check_axioms(measure: Measure, nets: Sequence[HierNet]) -> AxiomReport:
    """Test the three characterising axioms on every network in ``nets``.

    Normalisation: outputs sum to the dominated-node count.  Normality:
    the output equals the solely-controlled counts plus the output on the
    principal restriction.  Restricted proportionality: on principal
    networks the output is a positive multiple of the out-degree vector
    (vacuous on non-principal networks; two zero vectors are proportional).
    """
    failed: dict[str, int] = {}
    for index, net in enumerate(nets):
        parts = partition(net)
        out = Imputation(measure(net))
        if "normalisation" not in failed and out.total() != parts.dominated_count:
            failed["normalisation"] = index
        if "normality" not in failed:
            restricted = Imputation(measure(principal_restriction(net)))
            expected = tuple(parts.succs_single[i] + restricted[i] for i in range(net.n))
            if out != expected:
                failed["normality"] = index
        if "restricted_proportionality" not in failed and not parts.single_pred:
            if not _positively_proportional(out, parts.succs):
                failed["restricted_proportionality"] = index
    return AxiomReport(
        normalisation="normalisation" not in failed,
        normality="normality" not in failed,
        restricted_proportionality="restricted_proportionality" not in failed,
        first_failure=failed,
    )


def _positively_proportional(out: tuple[Fraction, ...], degrees: Sequence[int]) -> bool:
    if all(d == 0 for d in degrees):
        return all(v == 0 for v in out)
    pivot = next(i for i, d in enumerate(degrees) if d != 0)
    ratio = out[pivot] / degrees[pivot]
    if ratio <= 0:
        return False
    return all(v == ratio * d for v, d in zip(out, degrees))


@dataclass(frozen=True, slots=True)
class ClauseResult:
    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class TheoremReport:
    net: HierNet
    clauses: tuple[ClauseResult, ...]
    shapley_values: tuple[Imputation, ...] = ()  # of the two games, in their order

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.clauses)

    def failures(self) -> tuple[ClauseResult, ...]:
        return tuple(c for c in self.clauses if c.status == FAIL)


def verify_theorems(net: HierNet, games: tuple[TUGame, TUGame]) -> TheoremReport:
    """Evaluate every theorem clause on one network.

    ``games`` are ``(successor_game(net), strong_successor_game(net))``.  A
    pair over another player count or grand worth than ``net``'s nodes and
    dominated nodes is refused with ``ValueError``; any other pair of
    successor games that differs from ``net``'s fails the duality or the
    unanimity clause, which pin both games to ``net``.  The strong game's
    dividends, inverted from its table, serve that clause and its Shapley value.
    """
    weak, strong = games
    parts = partition(net)
    worths, dominated = (weak.grand_worth(), strong.grand_worth()), parts.dominated_count
    if (weak.n, strong.n, *worths) != (net.n, net.n, dominated, dominated):
        raise ValueError(f"games over {weak.n} and {strong.n} players for {net.n} nodes, "
                         f"worth {worths[0]} and {worths[1]} for {dominated} dominated nodes")
    flags = classify(net)
    beta = beta_measure(net)
    xi = gately_measure(net)
    expected_dividends = [0] * (1 << net.n)  # per mask: the nodes with that predecessor set
    for j in parts.dominated:
        expected_dividends[coalition(net.predecessors(j))] += 1
    dividends = harsanyi_dividends(strong)  # from the table; Shapley reads them too
    unanimity = dividends == tuple(expected_dividends)
    values = shapley(weak), _shapley_from_dividends(net.n, dividends)
    del dividends, expected_dividends  # 2**n entries: freed before the convexity and Core scans
    xi_core = in_core(strong, xi)
    small = sum(1 for s in parts.succs if s) <= 3  # nodes with successors
    weakly_regular = flags.weakly_regular or "not applicable (not weakly regular)"

    # (name, hypothesis, check, failure text[, pass text]): a hypothesis is True
    # or the skip detail, and a check runs only when its hypothesis holds.
    rows = (
        ("duality", True, lambda: dual(weak) == strong and dual(strong) == weak,
         "dual of the successor game differs from the strong successor game"),
        ("unanimity-decomposition", True, lambda: unanimity,
         "dividends of the strong successor game are not the predecessor-set multiset"),
        ("convexity", True, lambda: is_convex(strong), "strong successor game is not convex"),
        ("concavity", True, lambda: is_concave(weak), "successor game is not concave"),
        ("shapley-identity", True, lambda: values == (beta, beta),
         "Shapley values disagree with the closed-form equal-split measure"),
        ("beta-core", True, lambda: in_core(strong, beta),
         "equal-split gauge violates a Core constraint"),
        ("simple-unique-core", flags.simple or "not applicable (not simple)",
         lambda: all([in_core(strong, gauge := unique_simple_gauge(net)),  # both always run
                      core_vertices(net) == (gauge,)]),
         "out-degree gauge is not the unique Core gauge of a simple network"),
        ("gately-identity", True, lambda: gately(weak) == xi and gately(strong) == xi,
         "disruption-balancing values disagree with the closed-form measure"),
        ("propensity-balance", True, lambda: _propensities_balanced(weak, xi, parts),
         "propensities to disrupt are not constant over contested controllers"),
        ("gately-core-small",
         small or "not applicable (more than three nodes have successors)", lambda: xi_core,
         "gauge leaves the Core although at most three nodes have successors"),
        ("gately-core-weakly-regular", weakly_regular, lambda: xi_core,
         "gauge leaves the Core although the network is weakly regular"),
        ("gately-beta-weakly-regular", weakly_regular, lambda: xi == beta,
         "proportional and equal-split gauges differ on a weakly regular network"),
        ("gately-core",
         xi_core or small or flags.weakly_regular
         or "fails, as permitted (conditions of the Core theorem not met)",
         lambda: xi_core, "gauge leaves the Core despite a covering condition",
         "gauge satisfies every Core constraint"),
    )
    clauses = tuple(
        ClauseResult(name, SKIP, hypothesis) if isinstance(hypothesis, str)
        else _outcome(name, check(), failure, *passed)
        for name, hypothesis, check, failure, *passed in rows
    )
    return TheoremReport(net=net, clauses=clauses, shapley_values=values)


def _outcome(name: str, ok: bool, failure: str, passed: str = "") -> ClauseResult:
    return ClauseResult(name, PASS if ok else FAIL, passed if ok else failure)


def _propensities_balanced(weak, x: Imputation, parts) -> bool:
    contested = [i for i in range(parts.n) if parts.succs_multi[i] > 0]
    values = [propensity_to_disrupt(weak, x, i) for i in contested]
    if len(set(values)) > 1:
        return False
    for i in range(parts.n):
        if parts.succs_multi[i] == 0:
            if propensity_to_disrupt(weak, x, i) is not BALANCED_PROPENSITY:
                return False
    return True


def shapley_oracle_agrees(games: Iterable[TUGame]) -> bool:
    """Cross-check the dividend Shapley against the permutation average on each game."""
    return all(shapley(game) == shapley_permutation(game) for game in games)


@dataclass(frozen=True, slots=True)
class ClauseTally:
    """One clause's outcome counts over a network family."""

    name: str
    passed: int
    failed: int
    skipped: int
    detail: str = ""

    @property
    def status(self) -> str:
        return FAIL if self.failed else (PASS if self.passed else SKIP)


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Every clause, axiom and oracle tally over a network family, in report order."""

    networks: int
    clauses: tuple[ClauseTally, ...]

    @property
    def ok(self) -> bool:
        return not any(c.failed for c in self.clauses)


def verify_networks(
    nets: Sequence[HierNet], sources: Sequence[str], cap: int = DEFAULT_PLAYER_CAP
) -> VerifyReport:
    """Tally the theorem clauses, the disruption measure's axioms and the
    Shapley oracle over ``nets``, as (source, clause result) pairs counted
    by one loop: clauses per network, axiom and oracle rows once per family.

    ``sources`` names each network in first-failure details.  With a
    single network, each clause keeps its own detail instead.  Each
    network's two successor games are built once and serve both the
    clauses and the oracle, which checks the Shapley values the clauses
    computed: two Moebius inversions per network, the strong game's for
    both the unanimity clause and its Shapley value.
    """
    outcomes: list[tuple[str, ClauseResult]] = []  # (network source, outcome)
    oracle = "", ClauseResult("shapley-oracle", SKIP)  # until a network is small enough for it
    for net, source in zip(nets, sources, strict=True):
        games = successor_game(net, cap), strong_successor_game(net, cap)
        report = verify_theorems(net, games)
        outcomes.extend((source, clause) for clause in report.clauses)
        if net.n <= 6 and oracle[1].status != FAIL:  # the report's oracle row covers n <= 6
            agrees = report.shapley_values == tuple(map(shapley_permutation, games))
            oracle = source, _outcome(
                "shapley-oracle", agrees, "Shapley values differ from the weighted-marginal oracle"
            )

    failed = check_axioms(gately_measure, nets).first_failure
    for axiom in ("normalisation", "normality", "restricted_proportionality"):
        name = "axiom-" + axiom.replace("_", "-")
        source = sources[failed[axiom]] if axiom in failed else ""
        outcomes.append((source, _outcome(name, axiom not in failed, "axiom failed")))
    outcomes.append(oracle)  # the axiom and oracle rows count the family once

    counts: dict[str, Counter[str]] = {}
    details: dict[str, str] = {}
    for source, clause in outcomes:
        counts.setdefault(clause.name, Counter())[clause.status] += 1
        if clause.status == FAIL:
            details.setdefault(clause.name, f"first failure on {source}: {clause.detail}")
        elif len(nets) == 1:
            details[clause.name] = clause.detail
    return VerifyReport(
        networks=len(nets),
        clauses=tuple(
            ClauseTally(name, c[PASS], c[FAIL], c[SKIP], details.get(name, ""))
            for name, c in counts.items()
        ),
    )
