from collections import Counter
from fractions import Fraction

import pytest

from hierpower import (
    HierNet,
    beta_measure,
    check_axioms,
    classify,
    degree_measure,
    gately_measure,
    generate_random,
    proportional_measure,
    restricted_egalitarian,
    shapley,
    shapley_oracle_agrees,
    strong_successor_game,
    successor_game,
    verify_networks,
    verify_theorems,
)
from hierpower import TUGame, games, harsanyi_dividends, verification
from hierpower.errors import CapExceededError
from hierpower.verification import FAIL, PASS, SKIP

F = Fraction


def axiom_suite(*figs) -> list[HierNet]:
    return list(figs) + [generate_random(5, F(1, 2), seed=500 + k) for k in range(40)]


def both_games(net: HierNet):
    return successor_game(net), strong_successor_game(net)


class TestCheckAxioms:
    def test_gately_measure_satisfies_all_three(self, fig1, fig2, fig3):
        report = check_axioms(gately_measure, axiom_suite(fig1, fig2, fig3))
        assert report.all_pass
        assert report.first_failure == {}

    def test_beta_fails_only_restricted_proportionality(self, fig1, fig2, fig3):
        report = check_axioms(beta_measure, axiom_suite(fig1, fig2, fig3))
        assert report.normalisation and report.normality
        assert not report.restricted_proportionality
        # the witness network must actually be principal
        nets = axiom_suite(fig1, fig2, fig3)
        assert classify(nets[report.first_failure["restricted_proportionality"]]).principal

    def test_egalitarian_fails_only_restricted_proportionality(self, fig1, fig2, fig3):
        report = check_axioms(restricted_egalitarian, axiom_suite(fig1, fig2, fig3))
        assert report.normalisation and report.normality
        assert not report.restricted_proportionality

    def test_proportional_fails_only_normality(self, fig1, fig2, fig3):
        report = check_axioms(proportional_measure, axiom_suite(fig1, fig2, fig3))
        assert report.normalisation and report.restricted_proportionality
        assert not report.normality

    def test_degree_fails_only_normalisation(self, fig1, fig2, fig3):
        report = check_axioms(degree_measure, axiom_suite(fig1, fig2, fig3))
        assert not report.normalisation
        assert report.normality and report.restricted_proportionality


AXIOM_NETS = [generate_random(5, F(1, 2), seed=s) for s in range(12)]
FIRST_FAILURES = {"normalisation": 7, "normality": 5, "restricted_proportionality": 7}


def faulty(net):
    """Gately, but proportional on net 5 (normality fails) and one more for node 0
    on net 7 (normalisation and restricted proportionality fail)."""
    xi = proportional_measure(net) if net == AXIOM_NETS[5] else gately_measure(net)
    return (xi[0] + 1, *xi[1:]) if net == AXIOM_NETS[7] else xi


class TestAxiomFirstFailures:
    def test_check_axioms_keeps_each_first_failure(self):
        assert check_axioms(faulty, AXIOM_NETS).first_failure == FIRST_FAILURES

    def test_verify_names_each_axiom_row_by_its_own_network(self, monkeypatch):
        monkeypatch.setattr(verification, "check_axioms", lambda _, ns: check_axioms(faulty, ns))
        report = verify_networks(AXIOM_NETS, [f"net{k}" for k in range(12)])
        for axiom, k in FIRST_FAILURES.items():
            (row,) = [c for c in report.clauses if c.name == "axiom-" + axiom.replace("_", "-")]
            assert row.detail == f"first failure on net{k}: axiom failed"


def clause_status(report, name: str) -> str:
    (clause,) = [c for c in report.clauses if c.name == name]
    return clause.status


class TestVerifyTheorems:
    def test_fig1_report(self, fig1):
        report = verify_theorems(fig1, both_games(fig1))
        assert report.passed
        assert clause_status(report, "duality") == PASS
        assert clause_status(report, "beta-core") == PASS
        assert clause_status(report, "gately-identity") == PASS
        assert clause_status(report, "gately-core-small") == SKIP
        assert clause_status(report, "gately-core-weakly-regular") == SKIP
        # outside the Core, but no theorem clause demanded membership
        (core_clause,) = [c for c in report.clauses if c.name == "gately-core"]
        assert core_clause.status == SKIP
        assert "permitted" in core_clause.detail

    def test_fig2_report(self, fig2):
        report = verify_theorems(fig2, both_games(fig2))
        assert report.passed
        assert clause_status(report, "gately-core-small") == PASS
        assert clause_status(report, "gately-core-weakly-regular") == SKIP
        assert clause_status(report, "gately-beta-weakly-regular") == SKIP
        assert clause_status(report, "gately-core") == PASS

    def test_fig3_report(self, fig3):
        report = verify_theorems(fig3, both_games(fig3))
        assert report.passed
        assert clause_status(report, "gately-core-weakly-regular") == PASS
        assert clause_status(report, "gately-beta-weakly-regular") == PASS

    def test_simple_network_clause(self, chain2):
        report = verify_theorems(chain2, both_games(chain2))
        assert report.passed
        assert clause_status(report, "simple-unique-core") == PASS

    @pytest.mark.parametrize("fig, failed", [
        ("fig2", {"gately-core-small", "gately-core"}),  # at most three nodes have successors
        ("fig3", {"gately-core-weakly-regular", "gately-core"}),  # weakly regular
    ], ids=("fig2", "fig3"))
    def test_gately_gauge_outside_the_core_fails_a_covering_clause(
        self, request, monkeypatch, fig, failed
    ):
        net = request.getfixturevalue(fig)
        xi = gately_measure(net)
        monkeypatch.setattr(verification, "in_core", lambda v, x: x != xi and games.in_core(v, x))
        report = verify_theorems(net, both_games(net))
        assert failed <= {c.name for c in report.failures()}
        (core_clause,) = [c for c in report.clauses if c.name == "gately-core"]
        assert core_clause.detail == "gauge leaves the Core despite a covering condition"

    def test_gately_gauge_outside_the_core_is_permitted_without_a_covering_condition(
        self, monkeypatch, fig1
    ):
        xi = gately_measure(fig1)
        monkeypatch.setattr(verification, "in_core", lambda v, x: x != xi and games.in_core(v, x))
        report = verify_theorems(fig1, both_games(fig1))
        (core_clause,) = [c for c in report.clauses if c.name == "gately-core"]
        assert core_clause.status == SKIP
        assert core_clause.detail.startswith("fails, as permitted")

    def test_simple_network_with_a_second_core_gauge_fails(self, monkeypatch, chain2):
        gauge = verification.unique_simple_gauge(chain2)
        monkeypatch.setattr(verification, "core_vertices", lambda net: (gauge, gauge[::-1]))
        report = verify_theorems(chain2, both_games(chain2))
        assert clause_status(report, "simple-unique-core") == FAIL

    def test_random_networks_all_pass(self):
        for k in range(60):
            net = generate_random(3 + k % 5, F(1, 2), seed=7000 + k)
            report = verify_theorems(net, both_games(net))
            assert report.passed, report.failures()

    def test_failures_listed(self, fig1):
        report = verify_theorems(fig1, both_games(fig1))
        assert report.failures() == ()

    def test_games_of_another_size_refused(self, fig1, fig2):
        assert fig1.n != fig2.n
        with pytest.raises(ValueError, match="players for"):
            verify_theorems(fig1, both_games(fig2))

    def test_games_of_another_network_fail(self):
        net = HierNet(3, {0: [1, 2]})
        other = HierNet(3, {0: [1], 1: [2]})
        weak, strong = both_games(net)
        other_weak, other_strong = both_games(other)
        failed = {c.name for c in verify_theorems(net, (weak, other_strong)).failures()}
        assert "unanimity-decomposition" in failed
        failed = {c.name for c in verify_theorems(net, (other_weak, strong)).failures()}
        assert "duality" in failed

    def test_cap_refused_where_the_tables_are_built(self, monkeypatch):
        # Only the table builders check the cap: no consumer of a table is reached.
        def unreachable(*args):
            raise AssertionError("a table consumer ran past the cap")

        for name in ("harsanyi_dividends", "is_convex", "in_core"):
            monkeypatch.setattr(verification, name, unreachable)
        n = 6
        nets = [generate_random(n, F(1, 2), seed=7100 + k) for k in range(2)]
        with pytest.raises(CapExceededError) as exc:
            verify_networks(nets, ["a", "b"], cap=n - 1)
        assert (exc.value.required, exc.value.cap) == (n, n - 1)


class TestShapleyOracle:
    def test_agreement_on_random_networks(self):
        for k in range(10):
            net = generate_random(5, F(1, 2), seed=8000 + k)
            assert shapley_oracle_agrees(both_games(net))

    def test_report_carries_both_shapley_values(self, fig1):
        weak, strong = both_games(fig1)
        report = verify_theorems(fig1, (weak, strong))
        assert report.shapley_values == (shapley(weak), shapley(strong))

    def test_verify_computes_each_shapley_value_once(self, monkeypatch):
        computed = []

        def counting(game):
            computed.append(game)
            return shapley(game)

        def counting_from_dividends(n, dividends):
            computed.append(dividends)
            return games._shapley_from_dividends(n, dividends)

        monkeypatch.setattr(verification, "shapley", counting)
        monkeypatch.setattr(verification, "_shapley_from_dividends", counting_from_dividends)
        nets = [generate_random(5, F(1, 2), seed=8100 + k) for k in range(3)]
        report = verify_networks(nets, ["a", "b", "c"])
        assert len(computed) == 2 * len(nets)
        assert {c.name: c.status for c in report.clauses}["shapley-oracle"] == PASS

    def test_verify_inverts_each_table_once(self, monkeypatch):
        # The unanimity clause's dividends of the strong game serve its
        # Shapley value too: one transform per game, two per network.
        computed = []

        def counting(game):
            computed.append(game)
            return harsanyi_dividends(game)

        monkeypatch.setattr(games, "harsanyi_dividends", counting)
        monkeypatch.setattr(verification, "harsanyi_dividends", counting)
        nets = [generate_random(n, F(1, 2), seed=8200 + n) for n in (4, 6, 9)]
        report = verify_networks(nets, ["a", "b", "c"])
        assert report.ok
        assert Counter(computed) == Counter(game for net in nets for game in both_games(net))

    def test_shapley_reads_the_dividends_of_the_table_given(self, fig2):
        # One worth of the strong table off by one: its dividends are no longer
        # the predecessor multiset, so a Shapley value read off them is not the
        # equal-split gauge either.  Read off the expected dividends, it would be.
        weak, strong = both_games(fig2)
        worths = list(strong.worths)
        worths[0b00110] += 1
        altered = TUGame(fig2.n, worths)
        report = verify_theorems(fig2, (weak, altered))
        failed = {c.name for c in report.failures()}
        assert {"duality", "unanimity-decomposition", "shapley-identity"} <= failed
        assert report.shapley_values == (beta_measure(fig2), shapley(altered))
        assert shapley(altered) != beta_measure(fig2)

    def test_oracle_disagreement_fails(self, monkeypatch):
        monkeypatch.setattr(verification, "shapley_permutation", lambda game: ())
        nets = [generate_random(n, F(1, 2), seed=3) for n in (7, 4, 5)]
        report = verify_networks(nets, ["a", "b", "c"])
        (row,) = [c for c in report.clauses if c.name == "shapley-oracle"]
        assert (row.status, row.passed, row.failed, row.skipped) == (FAIL, 0, 1, 0)
        assert row.detail == (
            "first failure on b: Shapley values differ from the weighted-marginal oracle"
        )
