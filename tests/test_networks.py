import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierpower import (
    CapExceededError,
    HierNet,
    classify,
    coalition,
    members,
    partition,
    principal_restriction,
    simple_subnetwork_count,
    simple_subnetworks,
    strong_successors,
)
from tests.builders import weak_successors


# --- independent oracles --------------------------------------------------------

def predecessors_of(net: HierNet, j: int) -> set[int]:
    return {i for i in range(net.n) if j in net.successors(i)}


def weak_successors_oracle(net: HierNet, h: set[int]) -> set[int]:
    return {j for j in range(net.n) if predecessors_of(net, j) & h}


def strong_successors_oracle(net: HierNet, h: set[int]) -> set[int]:
    return {
        j
        for j in range(net.n)
        if predecessors_of(net, j) and predecessors_of(net, j) <= h
    }


@st.composite
def networks(draw, max_n: int = 6) -> HierNet:
    n = draw(st.integers(min_value=1, max_value=max_n))
    succ = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        succ.append(draw(st.sets(st.sampled_from(others))) if others else set())
    return HierNet(n, succ)


@st.composite
def networks_with_two_coalitions(draw):
    net = draw(networks())
    full = (1 << net.n) - 1
    h = draw(st.integers(min_value=0, max_value=full))
    k = draw(st.integers(min_value=0, max_value=full))
    return net, h, k


# --- construction ---------------------------------------------------------------

class TestHierNet:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="own successor"):
            HierNet(2, [{0}, set()])

    def test_rejects_out_of_range_successor(self):
        with pytest.raises(ValueError, match="outside"):
            HierNet(2, [{5}, set()])

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            HierNet(0, [])

    def test_accepts_cycles_and_mutual_edges(self):
        net = HierNet(3, [{1}, {2, 0}, {0}])
        assert net.successors(1) == (0, 2)

    def test_mapping_input(self):
        net = HierNet(3, {0: {1}, 2: {1}})
        assert net.predecessors(1) == (0, 2)

    def test_rows_are_sorted_and_a_repeated_successor_counts_once(self):
        net = HierNet(3, [[2, 1, 1], [], []])
        assert net == HierNet(3, [[1, 2], [], []]) == HierNet(3, {0: (2, 1, 2)})
        assert net.edge_count() == 2
        assert net.successors(0) == (1, 2)
        assert net.predecessors(1) == net.predecessors(2) == (0,)

    def test_rejects_a_non_integer_node_id(self):
        with pytest.raises(TypeError):
            HierNet(3, [[1.0], [], []])

    def test_equality_and_hash(self):
        a = HierNet(2, [{1}, set()])
        b = HierNet(2, {0: [1]})
        assert a == b and hash(a) == hash(b)


# --- successor operators --------------------------------------------------------

class TestSuccessorOperators:
    def test_weak_fig1_pair(self, fig1):
        assert weak_successors(fig1, coalition([0, 1])) == coalition([5])

    def test_weak_empty_coalition(self, fig1):
        assert weak_successors(fig1, 0) == 0

    def test_weak_fig2_pair(self, fig2):
        assert weak_successors(fig2, coalition([1, 2])) == coalition([3, 4])

    def test_strong_fig1_controlling_pair(self, fig1):
        assert strong_successors(fig1, coalition([0, 1])) == coalition([5])

    def test_strong_fig1_insufficient_pair(self, fig1):
        assert strong_successors(fig1, coalition([2, 3])) == 0

    def test_strong_full_coalition_is_dominated_set(self, fig1):
        full = (1 << fig1.n) - 1
        assert strong_successors(fig1, full) == coalition([5, 6, 7])

    def test_rejects_out_of_range_coalition(self, fig2):
        with pytest.raises(ValueError):
            weak_successors(fig2, 1 << 9)

    @given(networks_with_two_coalitions())
    def test_weak_matches_oracle(self, case):
        net, h, _ = case
        expected = coalition(weak_successors_oracle(net, set(members(h))))
        assert weak_successors(net, h) == expected

    @given(networks_with_two_coalitions())
    def test_strong_matches_oracle(self, case):
        net, h, _ = case
        expected = coalition(strong_successors_oracle(net, set(members(h))))
        assert strong_successors(net, h) == expected

    @given(networks_with_two_coalitions())
    def test_weak_is_union_distributive(self, case):
        net, h, k = case
        assert weak_successors(net, h | k) == weak_successors(net, h) | weak_successors(net, k)

    @given(networks_with_two_coalitions())
    def test_weak_is_monotone(self, case):
        net, h, k = case
        small = weak_successors(net, h & k)
        assert small & ~weak_successors(net, h) == 0

    @given(networks_with_two_coalitions())
    def test_strong_within_weak(self, case):
        net, h, _ = case
        assert strong_successors(net, h) & ~weak_successors(net, h) == 0

    @given(networks())
    def test_operators_agree_on_full_coalition(self, net):
        full = (1 << net.n) - 1
        dominated = coalition(sorted(partition(net).dominated))
        assert weak_successors(net, full) == dominated
        assert strong_successors(net, full) == dominated


# --- partition ------------------------------------------------------------------

class TestPartition:
    def test_fig1(self, fig1):
        parts = partition(fig1)
        assert parts.no_pred == {0, 1, 2, 3, 4}
        assert parts.single_pred == frozenset()
        assert parts.multi_pred == {5, 6, 7}
        assert parts.preds == (0, 0, 0, 0, 0, 2, 3, 3)
        assert parts.succs == (1, 1, 2, 2, 2, 0, 0, 0)

    def test_fig2(self, fig2):
        parts = partition(fig2)
        assert parts.single_pred == {1, 2}
        assert parts.multi_pred == {3, 4}
        assert parts.succs_single == (2, 0, 0, 0, 0)
        assert parts.succs_multi == (2, 2, 1, 0, 0)

    def test_edgeless(self, edgeless):
        parts = partition(edgeless)
        assert parts.no_pred == {0, 1, 2, 3}
        assert parts.single_pred == parts.multi_pred == frozenset()
        assert parts.dominated_count == 0

    @given(networks())
    def test_classes_partition_node_set(self, net):
        parts = partition(net)
        assert parts.no_pred | parts.single_pred | parts.multi_pred == set(range(net.n))
        assert not parts.no_pred & parts.single_pred
        assert not parts.no_pred & parts.multi_pred
        assert not parts.single_pred & parts.multi_pred

    @given(networks())
    def test_predecessor_count_matches_class(self, net):
        parts = partition(net)
        for j in range(net.n):
            if parts.preds[j] == 0:
                assert j in parts.no_pred
            elif parts.preds[j] == 1:
                assert j in parts.single_pred
            else:
                assert j in parts.multi_pred

    @given(networks())
    def test_counting_identities(self, net):
        parts = partition(net)
        assert parts.succs == tuple(
            a + b for a, b in zip(parts.succs_single, parts.succs_multi)
        )
        assert sum(parts.succs_single) == len(parts.single_pred)
        assert sum(parts.succs_multi) == parts.multi_pred_total
        assert parts.dominated_count == len(parts.single_pred) + len(parts.multi_pred)

    def test_kept_on_the_net(self, fig2):
        assert partition(fig2) is partition(fig2)

    @given(networks(max_n=5))
    def test_derived_networks_get_their_own_partition(self, net):
        partition(net)  # the parent's partition exists before anything is derived
        for sub in (principal_restriction(net), *simple_subnetworks(net, cap=10_000)):
            fresh = HierNet(sub.n, [sub.successors(i) for i in range(sub.n)])
            assert partition(sub) == partition(fresh)
            assert [sub.predecessors(j) for j in range(sub.n)] == [
                fresh.predecessors(j) for j in range(sub.n)]


# --- classification -------------------------------------------------------------

class TestClassify:
    def test_fig3_is_weakly_regular_and_regular(self, fig3):
        flags = classify(fig3)
        assert flags.weakly_regular
        assert flags.regular
        assert not flags.simple
        assert flags.principal

    def test_fig2_not_weakly_regular(self, fig2):
        flags = classify(fig2)
        assert not flags.weakly_regular
        assert not flags.principal

    def test_fig1_not_weakly_regular_but_principal(self, fig1):
        flags = classify(fig1)
        assert not flags.weakly_regular
        assert flags.principal

    def test_edgeless_is_simple(self, edgeless):
        flags = classify(edgeless)
        assert flags.simple and flags.regular and flags.weakly_regular and flags.principal

    @given(networks())
    def test_containment_chain(self, net):
        flags = classify(net)
        if flags.simple:
            assert flags.regular
        if flags.regular:
            assert flags.weakly_regular

    @given(networks())
    def test_principal_iff_no_single_pred_nodes(self, net):
        assert classify(net).principal == (not partition(net).single_pred)


# --- principal restriction ------------------------------------------------------

class TestPrincipalRestriction:
    def test_fig2_drops_uncontested_edges(self, fig2):
        restricted = principal_restriction(fig2)
        assert sorted(restricted.edges()) == [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]

    def test_edgeless_fixed_point(self, edgeless):
        assert principal_restriction(edgeless) == edgeless

    @given(networks())
    def test_idempotent(self, net):
        once = principal_restriction(net)
        assert principal_restriction(once) == once

    @given(networks())
    def test_result_is_principal(self, net):
        assert classify(principal_restriction(net)).principal


# --- simple subnetworks ---------------------------------------------------------

class TestSimpleSubnetworks:
    def test_simple_network_yields_itself(self, chain2):
        assert list(simple_subnetworks(chain2)) == [chain2]

    def test_fig1_count(self, fig1):
        subs = list(simple_subnetworks(fig1))
        assert len(subs) == 18 == simple_subnetwork_count(fig1)

    def test_edgeless_yields_itself(self, edgeless):
        assert list(simple_subnetworks(edgeless)) == [edgeless]

    def test_cap_refusal(self, fig1):
        with pytest.raises(CapExceededError):
            list(simple_subnetworks(fig1, cap=17))

    def test_enumeration_is_deterministic(self, fig1):
        first = list(simple_subnetworks(fig1))
        assert first == list(simple_subnetworks(fig1))

    @given(networks(max_n=5))
    def test_emitted_networks_are_simple_spanning_subsets(self, net):
        parts = partition(net)
        count = 0
        for sub in simple_subnetworks(net, cap=10_000):
            count += 1
            assert classify(sub).simple
            for i in range(net.n):
                assert set(sub.successors(i)) <= set(net.successors(i))
            assert partition(sub).dominated == parts.dominated
        assert count == simple_subnetwork_count(net)
