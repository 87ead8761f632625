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
from hierpower import verification
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
        assert report.witness is None

    def test_beta_fails_only_restricted_proportionality(self, fig1, fig2, fig3):
        report = check_axioms(beta_measure, axiom_suite(fig1, fig2, fig3))
        assert report.normalisation and report.normality
        assert not report.restricted_proportionality
        # the witness network must actually be principal
        nets = axiom_suite(fig1, fig2, fig3)
        assert classify(nets[report.witness.net_index]).principal

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

        def counting(game, cap):
            computed.append(game)
            return shapley(game, cap)

        monkeypatch.setattr(verification, "shapley", counting)
        nets = [generate_random(5, F(1, 2), seed=8100 + k) for k in range(3)]
        report = verify_networks(nets, ["a", "b", "c"])
        assert len(computed) == 2 * len(nets)
        assert {c.name: c.status for c in report.clauses}["shapley-oracle"] == PASS

    def test_oracle_disagreement_fails(self, monkeypatch):
        monkeypatch.setattr(verification, "shapley_permutation", lambda game: ())
        report = verify_networks([generate_random(4, F(1, 2), seed=3)], ["a"])
        assert {c.name: c.status for c in report.clauses}["shapley-oracle"] == FAIL
