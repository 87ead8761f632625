import itertools
import operator
import random
from fractions import Fraction

import pytest

import hierpower.measures
import hierpower.networks
from hypothesis import given
from hypothesis import strategies as st

from hierpower import (
    CoreViolation,
    GaugeError,
    HierNet,
    Imputation,
    beta_measure,
    check_gauge,
    classify,
    coalition,
    core_vertices,
    core_violation,
    degree_measure,
    find_core_violation,
    gately,
    gately_measure,
    generate_random,
    members,
    partition,
    proportional_measure,
    restricted_egalitarian,
    shapley,
    simple_subnetwork_count,
    simple_subnetworks,
    strong_successor_game,
    successor_game,
    unique_simple_gauge,
)
from tests.builders import standard_suite
from tests.oracles.core import least_max_shortfall_coalition, subset_payoffs
from tests.oracles.hull import in_convex_hull

F = Fraction

CORE_GAUGES = (beta_measure, gately_measure, restricted_egalitarian, proportional_measure)


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
        parts = partition(fig1)
        assert F(parts.succs_multi[0], parts.multi_pred_total) == F(1, 8)
        assert F(parts.succs_multi[2], parts.multi_pred_total) == F(1, 4)

    def test_fig3_share(self, fig3):
        assert F(partition(fig3).succs_multi[2], partition(fig3).multi_pred_total) == F(3, 8)

    def test_shares_sum_to_one_over_controllers(self, fig2):
        assert sum(partition(fig2).succs_multi) == partition(fig2).multi_pred_total > 0

    def test_reconstructs_gately_measure(self, fig2):
        parts = partition(fig2)
        pool = len(parts.multi_pred)
        xi = gately_measure(fig2)
        for i in range(fig2.n):
            share = F(parts.succs_multi[i], parts.multi_pred_total)
            assert xi[i] == parts.succs_single[i] + share * pool


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


def fraction_formulas(net: HierNet) -> dict:
    """Each measure as one Fraction per entry, added the way the closed
    forms read, independent of the integer numerators the package uses."""
    parts = partition(net)
    single, multi = parts.succs_single, parts.succs_multi
    pool, contested = parts.multi_pred_total, len(parts.multi_pred)
    controllers = sum(1 for m in multi if m)
    total = sum(parts.succs)
    return {
        beta_measure: [sum((F(1, parts.preds[j]) for j in net.successors(i)), F(0))
                       for i in range(net.n)],
        gately_measure: [F(single[i]) + (multi[i] * F(contested, pool) if pool else 0)
                         for i in range(net.n)],
        restricted_egalitarian: [F(single[i]) + (F(contested, controllers) if multi[i] else 0)
                                 for i in range(net.n)],
        proportional_measure: [s * F(parts.dominated_count, total) if total else F(0)
                               for s in parts.succs],
        degree_measure: [F(s) for s in parts.succs],
    }


class TestFractionFormulas:
    def test_measures_match_fraction_formulas_on_seeded_suite(self):
        nets = standard_suite(200) + [generate_random(n, F(1, 4), seed=n) for n in (20, 40)]
        for net in nets:
            for measure, expected in fraction_formulas(net).items():
                got = measure(net)
                assert type(got) is Imputation and all(type(v) is F for v in got)
                assert list(got) == expected, (net, measure.__name__)
            if classify(net).simple:
                assert list(unique_simple_gauge(net)) == fraction_formulas(net)[degree_measure]


class TestGaugeInvariants:
    def test_every_measure_is_a_valid_gauge(self):
        for net in random_nets(30, 6, seed=900):
            parts = partition(net)
            for measure in CORE_GAUGES:
                gauge = measure(net)
                check_gauge(gauge, parts)  # raises on violation
                assert gauge.total() == parts.dominated_count

    def test_rejects_negative_weight(self, chain2):
        with pytest.raises(GaugeError, match="negative"):
            check_gauge((F(2), F(-1)), partition(chain2))

    def test_rejects_wrong_length(self, chain2):
        with pytest.raises(GaugeError, match="entries"):
            check_gauge((F(1),), partition(chain2))

    @pytest.mark.parametrize("values, message", [
        ((F(1),), "gauge has 1 entries for 2 nodes"),
        ((F(4, 3), F(-1, 3)), "negative weight -1/3 at node 1"),
        ((2, -1), "negative weight -1 at node 1"),
        ((F(1, 2), F(1, 3)), "weights sum to 5/6, expected 1"),
        ((F(3, 2), 1), "weights sum to 5/2, expected 1"),
        ((1, 1), "weights sum to 2, expected 1"),
    ])
    def test_messages_name_the_exact_fault(self, chain2, values, message):
        with pytest.raises(GaugeError) as exc:
            check_gauge(values, partition(chain2))
        assert str(exc.value) == message

    def test_returns_its_argument(self, chain2):
        values = [F(1, 2), F(1, 2)]
        assert check_gauge(values, partition(chain2)) is values


class TestCoreGauge:
    def test_fig1_gately_gauge_excluded_with_witness(self, fig1):
        violation = core_violation(fig1, gately_measure(fig1))
        assert violation is not None
        assert violation.mask == coalition([0, 1])
        assert violation.assigned == F(3, 4)
        assert violation.required == 1
        assert violation.shortfall == F(1, 4)
        assert core_violation(fig1, gately_measure(fig1)) is not None

    def test_fig1_beta_gauge_included(self, fig1):
        assert core_violation(fig1, beta_measure(fig1)) is None

    def test_fig2_both_gauges_included(self, fig2):
        assert core_violation(fig2, gately_measure(fig2)) is None
        assert core_violation(fig2, beta_measure(fig2)) is None

    def test_simple_network_out_degree_gauge(self, chain2):
        assert core_violation(chain2, unique_simple_gauge(chain2)) is None

    def test_beta_always_in_core(self):
        for net in random_nets(40, 5, seed=50):
            assert core_violation(net, beta_measure(net)) is None

    def test_invalid_gauge_is_an_error(self, fig1):
        with pytest.raises(GaugeError):
            core_violation(fig1, degree_measure(fig1))

    @pytest.mark.parametrize("entries, outcome", [
        ((1.0, 0.0), TypeError("refusing inexact float 1.0")),
        ((True, 0), TypeError("booleans are not numbers here")),
        (("1", "0"), None),
        (("1/2", "1/2"), CoreViolation(mask=0b1, assigned=F(1, 2), required=F(1))),
    ])
    def test_gauge_entries_read_as_exact(self, chain2, entries, outcome):
        if isinstance(outcome, TypeError):
            for call in (lambda: check_gauge(entries, partition(chain2)),
                         lambda: core_violation(chain2, entries)):
                with pytest.raises(TypeError, match=str(outcome)):
                    call()
        else:
            assert check_gauge(entries, partition(chain2)) is entries
            assert core_violation(chain2, entries) == outcome


def seeded_core_suite() -> list[HierNet]:
    """400 seeded networks, n = 2..10 at four edge probabilities: both Core
    verdicts well represented for every gauge in CORE_GAUGES."""
    probs = (F(1, 8), F(1, 4), F(1, 2), F(3, 4))
    return [generate_random(2 + k % 9, probs[(k // 9) % 4], seed=5000 + k) for k in range(400)]


class TestCoreViolationFlows:
    """Both verdicts, and the witness, come from one cut."""

    def test_one_flow_per_call_on_seeded_suite(self, monkeypatch):
        calls = []
        flow = hierpower.measures._max_flow
        monkeypatch.setattr(hierpower.measures, "_max_flow", lambda *a: calls.append(a) or flow(*a))
        verdicts = set()
        for net in seeded_core_suite():
            for measure in CORE_GAUGES:
                before = len(calls)
                verdicts.add(core_violation(net, measure(net)) is None)
                assert len(calls) == before + 1, (net, measure.__name__)
        assert verdicts == {True, False}

    def test_five_node_gately_witness(self):
        net = HierNet(5, {0: {2}, 1: {2}, 2: {0}, 3: {0}, 4: {0}})
        violation = core_violation(net, gately_measure(net))
        assert violation == CoreViolation(mask=0b11, assigned=F(4, 5), required=F(1))


def oracle_violation(net: HierNet, gauge) -> CoreViolation | None:
    """The Core witness found by scanning the 2^n strong successor table for
    the largest shortfall: the intersection of the coalitions that attain it."""
    strong = strong_successor_game(net)
    mask = least_max_shortfall_coalition(strong, gauge)
    assert (mask is None) == (find_core_violation(strong, gauge) is None)
    if mask is None:
        return None
    assigned = sum((gauge[i] for i in members(mask)), F(0))
    violation = CoreViolation(mask=mask, assigned=assigned, required=F(strong.worths[mask]))
    # the maximisers form a lattice, so their intersection attains the largest shortfall too
    assert violation.shortfall == max(map(operator.sub, strong.worths, subset_payoffs(gauge)))
    return violation


@st.composite
def nets_with_near_core_gauges(draw) -> tuple[HierNet, tuple[Fraction, ...], bool]:
    """A network, a convex mix of Core vertices with part of one node's
    weight moved to another node, and whether anything was moved."""
    n = draw(st.integers(min_value=2, max_value=7))
    net = HierNet(n, [{j for j in range(n) if j != i and draw(st.booleans())} for i in range(n)])
    dominated = [j for j in range(n) if net.predecessors(j)]
    # each pick chooses one predecessor per dominated node: a simple
    # subnetwork, whose out-degree vector is a Core vertex
    picks = draw(st.lists(
        st.tuples(*(st.sampled_from(sorted(net.predecessors(j))) for j in dominated)),
        min_size=1, max_size=3,
    ))
    weights = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=len(picks), max_size=len(picks)))
    gauge = [F(0)] * n
    for pick, weight in zip(picks, weights):
        for i in pick:
            gauge[i] += F(weight, sum(weights))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    moved = draw(st.fractions(min_value=0, max_value=1, max_denominator=8)) * gauge[source]
    gauge[source] -= moved
    gauge[target] += moved
    return net, tuple(gauge), moved != 0 and source != target


class TestCoreViolationOracle:
    def test_matches_table_scan_on_seeded_suite(self):
        violations = 0
        for net in seeded_core_suite():
            for measure in CORE_GAUGES:
                gauge = measure(net)
                expected = oracle_violation(net, gauge)
                got = core_violation(net, gauge)
                assert got == expected, (net, measure.__name__)
                violations += expected is not None
        assert 100 < violations < 1500  # both verdicts well represented

    @given(nets_with_near_core_gauges())
    def test_matches_table_scan_near_the_core(self, case):
        net, gauge, moved = case
        got = core_violation(net, gauge)
        assert got == oracle_violation(net, gauge)
        if not moved:
            assert got is None  # a convex mix of Core vertices is in the Core

    def test_witness_does_not_depend_on_node_numbering(self):
        violations = 0
        for k, net in enumerate(seeded_core_suite()):
            order = random.Random(k).sample(range(net.n), net.n)  # node i is renamed order[i]
            renamed = HierNet(net.n, {order[i]: {order[j] for j in net.successors(i)}
                                      for i in range(net.n)})
            for measure in CORE_GAUGES:
                gauge = measure(net)
                renamed_gauge = [F(0)] * net.n
                for i, value in enumerate(gauge):
                    renamed_gauge[order[i]] = value
                got, again = core_violation(net, gauge), core_violation(renamed, renamed_gauge)
                if got is None:
                    assert again is None
                    continue
                violations += 1
                assert again.mask == coalition(order[i] for i in members(got.mask)), (net, order)
                assert (again.assigned, again.required) == (got.assigned, got.required)
        assert violations > 100


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

    def test_matches_out_degrees_of_simple_subnetworks(self, fig1, fig2, fig3):
        nets = [fig1, fig2, fig3] + [
            generate_random(n, p, seed=900 + 10 * n + k)
            for n in range(3, 9)
            for p in (F(1, 4), F(1, 2))
            for k in range(3)
        ]
        for net in nets:
            if simple_subnetwork_count(net) > 5000:
                continue
            expected = {
                tuple(len(sub.successors(i)) for i in range(sub.n))
                for sub in simple_subnetworks(net)
            }
            assert core_vertices(net) == tuple(Imputation(v) for v in sorted(expected))

    def test_tallies_without_enumerating_selections(self, monkeypatch):
        # A and B jointly control 30 nodes: 2^30 selections, 31 distinct tallies.
        def refuse(*args, **kwargs):
            raise AssertionError("selections enumerated")

        monkeypatch.setattr(hierpower.networks, "simple_subnetworks", refuse)
        monkeypatch.setattr(itertools, "product", refuse)
        net = HierNet(32, {0: set(range(2, 32)), 1: set(range(2, 32))})
        expected = tuple(Imputation((30 - d, d) + (0,) * 30) for d in range(30, -1, -1))
        assert core_vertices(net, cap=2**30) == expected

    def test_every_marginal_vector_is_listed(self, fig2):
        # The strong successor game is convex, so its marginal vectors are
        # the Core's extreme points; each must be among the listed gauges.
        nets = [fig2, HierNet(4, {0: {2, 3}, 1: {2, 3}})] + [
            generate_random(n, p, seed=300 + 10 * n + k)
            for n in range(2, 8)
            for p in (F(1, 4), F(1, 2), F(3, 4))
            for k in range(2)
        ]
        for net in nets:
            worths = strong_successor_game(net).worths
            listed = set(core_vertices(net))
            for order in itertools.permutations(range(net.n)):
                vector, mask = [0] * net.n, 0
                for i in order:
                    vector[i] = worths[mask | 1 << i] - worths[mask]
                    mask |= 1 << i
                assert Imputation(vector) in listed, (net, order)

    def test_every_vertex_is_a_core_gauge(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            for gauge in core_vertices(net):
                assert core_violation(net, gauge) is None


class TestHullMembership:
    def test_core_membership_matches_hull_membership(self, fig1, fig2, fig3):
        nets = [fig1, fig2, fig3] + random_nets(15, 5, seed=77)
        for net in nets:
            if simple_subnetwork_count(net) > 2000:
                continue
            vertices = [tuple(v) for v in core_vertices(net)]
            for measure in CORE_GAUGES:
                gauge = measure(net)
                in_core = core_violation(net, gauge) is None
                assert in_core == in_convex_hull(tuple(gauge), vertices)

    def test_fig1_gately_gauge_outside_hull(self, fig1):
        vertices = [tuple(v) for v in core_vertices(fig1)]
        assert not in_convex_hull(tuple(gately_measure(fig1)), vertices)
        assert in_convex_hull(tuple(beta_measure(fig1)), vertices)
