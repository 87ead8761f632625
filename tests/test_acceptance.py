"""Acceptance criteria, one test per criterion.

Every assertion is exact rational equality unless a runtime bound is
stated.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion.
"""

import time
from fractions import Fraction

from hierpower import (
    BALANCED_PROPENSITY,
    beta_measure,
    check_axioms,
    classify,
    coalition,
    core_vertices,
    core_violation,
    degree_measure,
    dual,
    gately,
    gately_measure,
    harsanyi_dividends,
    in_core,
    is_concave,
    is_convex,
    partition,
    propensity_to_disrupt,
    proportional_measure,
    shapley,
    shapley_permutation,
    strong_successor_game,
    successor_game,
)
from tests.builders import standard_suite

F = Fraction


def announce(number: int, summary: str) -> None:
    print(f"ACCEPTANCE {number} ({summary}): PASS")


def test_criterion_1_eight_node_core_counterexample(fig1):
    start = time.perf_counter()
    beta = beta_measure(fig1)
    xi = gately_measure(fig1)
    assert tuple(beta) == (F(1, 2), F(1, 2), F(2, 3), F(2, 3), F(2, 3), 0, 0, 0)
    assert tuple(xi) == (F(3, 8), F(3, 8), F(3, 4), F(3, 4), F(3, 4), 0, 0, 0)
    assert core_violation(fig1, beta) is None
    assert core_violation(fig1, xi) is not None
    violation = core_violation(fig1, xi)
    assert violation.mask == 0b11  # nodes 1 and 2
    assert violation.shortfall == F(1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(1, "8-node golden example")


def test_criterion_2_five_node_core_hull(fig2):
    start = time.perf_counter()
    vertices = {tuple(int(x) for x in gauge) for gauge in core_vertices(fig2)}
    assert vertices == {
        (2, 1, 1, 0, 0),
        (3, 0, 1, 0, 0),
        (3, 1, 0, 0, 0),
        (2, 2, 0, 0, 0),
        (4, 0, 0, 0, 0),
    }
    beta = beta_measure(fig2)
    xi = gately_measure(fig2)
    assert tuple(beta) == (F(17, 6), F(5, 6), F(1, 3), 0, 0)
    assert tuple(xi) == (F(14, 5), F(4, 5), F(2, 5), 0, 0)
    assert core_violation(fig2, beta) is None
    assert core_violation(fig2, xi) is None
    assert tuple(beta) != tuple(xi)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(2, "5-node golden example")


def test_criterion_3_weakly_regular_by_definition(fig3):
    flags = classify(fig3)
    assert flags.weakly_regular is True
    beta = beta_measure(fig3)
    xi = gately_measure(fig3)
    expected = (F(1, 2), F(1, 2), F(3, 2), F(3, 2), 0, 0, 0, 0)
    assert tuple(xi) == expected
    assert tuple(beta) == expected
    announce(3, "8-node equal-measure example")


def test_criterion_4_property_suite_200_networks():
    start = time.perf_counter()
    nets = standard_suite(200, seed=42)
    assert len(nets) == 200
    weakly_regular_seen = 0
    small_active_seen = 0
    for net in nets:
        parts = partition(net)
        weak = successor_game(net)
        strong = strong_successor_game(net)
        beta = beta_measure(net)
        xi = gately_measure(net)

        # (a) duality, table-exact
        assert dual(weak) == strong
        # (b) shapes
        assert is_convex(strong)
        assert is_concave(weak)
        # (c) Shapley identities against the closed form
        assert tuple(shapley(weak)) == tuple(shapley(strong)) == tuple(beta)
        # (d) disruption-value identities against the closed form
        assert tuple(gately(weak)) == tuple(gately(strong)) == tuple(xi)
        # (e) equal-split gauge always clears every Core constraint
        assert in_core(strong, beta)
        # (f) weakly regular networks: measures coincide and stay in the Core
        if classify(net).weakly_regular:
            weakly_regular_seen += 1
            assert tuple(xi) == tuple(beta)
            assert in_core(strong, xi)
        # (g) at most three nodes with successors: Core membership guaranteed
        if sum(1 for i in range(net.n) if net.successors(i)) <= 3:
            small_active_seen += 1
            assert in_core(strong, xi)
        # (h) propensities to disrupt balanced at the proportional gauge
        values = {
            propensity_to_disrupt(weak, xi, i)
            for i in range(net.n)
            if parts.succs_multi[i] > 0
        }
        assert len(values) <= 1
        for i in range(net.n):
            if parts.succs_multi[i] == 0:
                assert propensity_to_disrupt(weak, xi, i) is BALANCED_PROPENSITY

    assert weakly_regular_seen > 0 and small_active_seen > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(4, f"property suite, 200 networks in {elapsed:.1f}s")


def test_criterion_5_shapley_oracle_cross_check():
    checked = 0
    for net in standard_suite(200, seed=42):
        if net.n > 6:
            continue
        for game in (successor_game(net), strong_successor_game(net)):
            assert tuple(shapley(game)) == tuple(shapley_permutation(game))
            checked += 1
    assert checked > 0
    announce(5, f"permutation oracle agreement on {checked} games")


def test_criterion_6_axiom_suite(fig1, fig2, fig3):
    nets = [fig1, fig2, fig3] + standard_suite(200, seed=42)

    gately_report = check_axioms(gately_measure, nets)
    assert gately_report.all_pass

    beta_report = check_axioms(beta_measure, nets)
    assert beta_report.normalisation and beta_report.normality
    assert not beta_report.restricted_proportionality
    assert classify(nets[beta_report.first_failure["restricted_proportionality"]]).principal

    proportional_report = check_axioms(proportional_measure, nets)
    assert proportional_report.normalisation and proportional_report.restricted_proportionality
    assert not proportional_report.normality

    degree_report = check_axioms(degree_measure, nets)
    assert degree_report.normality and degree_report.restricted_proportionality
    assert not degree_report.normalisation

    announce(6, "axiom non-redundancy matrix")


def test_criterion_7_unanimity_decomposition():
    for net in standard_suite(200, seed=42):
        parts = partition(net)
        expected: dict[int, int] = {}
        for j in sorted(parts.dominated):
            mask = coalition(net.predecessors(j))
            expected[mask] = expected.get(mask, 0) + 1
        dividends = harsanyi_dividends(strong_successor_game(net))
        for mask, value in enumerate(dividends):
            assert isinstance(value, int)
            assert value >= 0
            assert value == expected.get(mask, 0)
    announce(7, "strong-game dividends are the predecessor multiset")
