from fractions import Fraction

import pytest

from hierpower import (
    AllocatorError,
    GaugeError,
    HierNet,
    beta_measure,
    check_gauge,
    coalition,
    core_vertices,
    core_violation,
    degree_measure,
    gately,
    gately_measure,
    generate_random,
    in_convex_hull,
    is_core_gauge,
    partition,
    proportional_allocator,
    proportional_measure,
    restricted_egalitarian,
    shapley,
    simple_subnetwork_count,
    strong_successor_game,
    successor_game,
    unique_simple_gauge,
)

F = Fraction


def random_nets(count: int, n: int, seed: int) -> list[HierNet]:
    return [generate_random(n, F(1, 2), seed=seed + k) for k in range(count)]


class TestBetaMeasure:
    def test_fig1(self, fig1):
        assert tuple(beta_measure(fig1)) == (F(1, 2), F(1, 2), F(2, 3), F(2, 3), F(2, 3), 0, 0, 0)

    def test_fig2(self, fig2):
        assert tuple(beta_measure(fig2)) == (F(17, 6), F(5, 6), F(1, 3), 0, 0)

    def test_edgeless(self, edgeless):
        assert all(v == 0 for v in beta_measure(edgeless))

    def test_equals_shapley_of_both_representations(self, fig2):
        beta = tuple(beta_measure(fig2))
        assert tuple(shapley(successor_game(fig2))) == beta
        assert tuple(shapley(strong_successor_game(fig2))) == beta


class TestGatelyMeasure:
    def test_fig1(self, fig1):
        assert tuple(gately_measure(fig1)) == (F(3, 8), F(3, 8), F(3, 4), F(3, 4), F(3, 4), 0, 0, 0)

    def test_fig2(self, fig2):
        assert tuple(gately_measure(fig2)) == (F(14, 5), F(4, 5), F(2, 5), 0, 0)

    def test_fig3_coincides_with_beta(self, fig3):
        expected = (F(1, 2), F(1, 2), F(3, 2), F(3, 2), 0, 0, 0, 0)
        assert tuple(gately_measure(fig3)) == expected
        assert tuple(beta_measure(fig3)) == expected

    def test_equals_game_value_of_both_representations(self, fig2):
        xi = tuple(gately_measure(fig2))
        assert tuple(gately(successor_game(fig2))) == xi
        assert tuple(gately(strong_successor_game(fig2))) == xi

    def test_zero_on_nodes_without_successors(self):
        for net in random_nets(20, 6, seed=300):
            xi = gately_measure(net)
            for i in range(net.n):
                if not net.successors(i):
                    assert xi[i] == 0


class TestProportionalAllocator:
    def test_fig1_shares(self, fig1):
        shares = proportional_allocator(fig1)
        assert shares[0] == F(1, 8)
        assert shares[2] == F(1, 4)

    def test_fig3_share(self, fig3):
        assert proportional_allocator(fig3)[2] == F(3, 8)

    def test_shares_sum_to_one_over_controllers(self, fig2):
        assert sum(proportional_allocator(fig2), F(0)) == 1

    def test_undefined_without_contested_nodes(self, chain2):
        with pytest.raises(AllocatorError, match="undefined"):
            proportional_allocator(chain2)

    def test_reconstructs_gately_measure(self, fig2):
        parts = partition(fig2)
        shares = proportional_allocator(fig2)
        pool = len(parts.multi_pred)
        xi = gately_measure(fig2)
        for i in range(fig2.n):
            assert xi[i] == parts.succs_single[i] + shares[i] * pool


class TestRestrictedEgalitarian:
    def test_fig1_equal_shares(self, fig1):
        assert tuple(restricted_egalitarian(fig1)) == (
            F(3, 5), F(3, 5), F(3, 5), F(3, 5), F(3, 5), 0, 0, 0)

    def test_fig3(self, fig3):
        assert tuple(restricted_egalitarian(fig3)) == (1, 1, 1, 1, 0, 0, 0, 0)

    def test_fig2(self, fig2):
        assert tuple(restricted_egalitarian(fig2)) == (F(8, 3), F(2, 3), F(2, 3), 0, 0)

    def test_edgeless(self, edgeless):
        assert all(v == 0 for v in restricted_egalitarian(edgeless))

    def test_uncontested_network_reduces_to_solo_counts(self, chain2):
        assert tuple(restricted_egalitarian(chain2)) == (1, 0)


class TestProportionalMeasure:
    def test_fig1_coincides_with_gately_measure(self, fig1):
        assert tuple(proportional_measure(fig1)) == tuple(gately_measure(fig1))

    def test_single_edge(self, chain2):
        assert tuple(proportional_measure(chain2)) == (1, 0)

    def test_fig2(self, fig2):
        assert tuple(proportional_measure(fig2)) == (F(16, 7), F(8, 7), F(4, 7), 0, 0)

    def test_edgeless_zero_by_convention(self, edgeless):
        assert all(v == 0 for v in proportional_measure(edgeless))


class TestDegreeMeasure:
    def test_fig1(self, fig1):
        assert degree_measure(fig1) == (1, 1, 2, 2, 2, 0, 0, 0)

    def test_fig2(self, fig2):
        assert degree_measure(fig2) == (4, 2, 1, 0, 0)

    def test_edgeless(self, edgeless):
        assert degree_measure(edgeless) == (0, 0, 0, 0)

    def test_generally_not_a_gauge(self, fig1):
        with pytest.raises(GaugeError, match="sum"):
            check_gauge(degree_measure(fig1), partition(fig1))


class TestGaugeInvariants:
    def test_every_measure_is_a_valid_gauge(self):
        measures = (beta_measure, gately_measure, restricted_egalitarian, proportional_measure)
        for net in random_nets(30, 6, seed=900):
            parts = partition(net)
            for measure in measures:
                gauge = measure(net)
                check_gauge(gauge, parts)  # raises on violation
                assert gauge.total() == parts.dominated_count

    def test_rejects_negative_weight(self, chain2):
        with pytest.raises(GaugeError, match="negative"):
            check_gauge((F(2), F(-1)), partition(chain2))

    def test_rejects_wrong_length(self, chain2):
        with pytest.raises(GaugeError, match="entries"):
            check_gauge((F(1),), partition(chain2))


class TestCoreGauge:
    def test_fig1_gately_gauge_excluded_with_witness(self, fig1):
        violation = core_violation(fig1, gately_measure(fig1))
        assert violation is not None
        assert violation.mask == coalition([0, 1])
        assert violation.assigned == F(3, 4)
        assert violation.required == 1
        assert violation.shortfall == F(1, 4)
        assert not is_core_gauge(fig1, gately_measure(fig1))

    def test_fig1_beta_gauge_included(self, fig1):
        assert is_core_gauge(fig1, beta_measure(fig1))

    def test_fig2_both_gauges_included(self, fig2):
        assert is_core_gauge(fig2, gately_measure(fig2))
        assert is_core_gauge(fig2, beta_measure(fig2))

    def test_simple_network_out_degree_gauge(self, chain2):
        assert is_core_gauge(chain2, unique_simple_gauge(chain2))

    def test_beta_always_in_core(self):
        for net in random_nets(40, 5, seed=50):
            assert is_core_gauge(net, beta_measure(net))

    def test_invalid_gauge_is_an_error(self, fig1):
        with pytest.raises(GaugeError):
            is_core_gauge(fig1, degree_measure(fig1))


class TestCoreVertices:
    def test_fig2_matches_known_hull(self, fig2):
        expected = {
            (2, 1, 1, 0, 0),
            (3, 0, 1, 0, 0),
            (3, 1, 0, 0, 0),
            (2, 2, 0, 0, 0),
            (4, 0, 0, 0, 0),
        }
        got = {tuple(int(x) for x in gauge) for gauge in core_vertices(fig2)}
        assert got == expected

    def test_simple_network_single_vertex(self, chain2):
        assert core_vertices(chain2) == (unique_simple_gauge(chain2),)

    def test_edgeless_zero_vertex(self, edgeless):
        (vertex,) = core_vertices(edgeless)
        assert all(v == 0 for v in vertex)

    def test_deduplication_can_shrink_the_list(self, fig1):
        assert simple_subnetwork_count(fig1) == 18
        assert len(core_vertices(fig1)) == 12

    def test_every_vertex_is_a_core_gauge(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            for gauge in core_vertices(net):
                assert is_core_gauge(net, gauge)


class TestHullMembership:
    def test_core_membership_matches_hull_membership(self, fig1, fig2, fig3):
        nets = [fig1, fig2, fig3] + random_nets(15, 5, seed=77)
        measures = (beta_measure, gately_measure, restricted_egalitarian, proportional_measure)
        for net in nets:
            if simple_subnetwork_count(net) > 2000:
                continue
            vertices = [tuple(v) for v in core_vertices(net)]
            for measure in measures:
                gauge = measure(net)
                assert is_core_gauge(net, gauge) == in_convex_hull(tuple(gauge), vertices)

    def test_fig1_gately_gauge_outside_hull(self, fig1):
        vertices = [tuple(v) for v in core_vertices(fig1)]
        assert not in_convex_hull(tuple(gately_measure(fig1)), vertices)
        assert in_convex_hull(tuple(beta_measure(fig1)), vertices)
