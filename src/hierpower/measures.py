"""Closed-form power measures and Core diagnostics for hierarchical networks.

A power gauge distributes the number of dominated nodes over the whole
node set.  The measures here differ in how they hand out control over
contested (multi-predecessor) nodes: per-edge equal split, proportional
to contested out-degree, equal among controllers, proportional to raw
out-degree, or raw out-degree itself (which is not a gauge at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coalitions import Coalition, coalition, members
from .errors import GaugeError
from .games import DEFAULT_PLAYER_CAP, Imputation, _check_player_cap
from .networks import (
    DEFAULT_SUBNETWORK_CAP,
    HierNet,
    NodePartition,
    _check_subnetwork_cap,
    partition,
)
from .rationals import _common_denominator, as_exact


def check_gauge(values: Imputation, parts: NodePartition) -> Imputation:
    """Return ``values`` unless they break a power-gauge invariant.

    A gauge has one nonnegative weight per node, summing to the number of
    dominated nodes; anything else raises :class:`GaugeError`.  Each entry
    is read by :func:`as_exact`, so a float or a bool raises ``TypeError``.
    """
    _gauge(*_common_denominator(list(map(as_exact, values))), parts)
    return values


def _gauge(numerators: list[int], unit: int, parts: NodePartition) -> tuple[list[int], int]:
    """``(numerators, unit)`` of the gauge ``numerators[i] / unit`` once it passes
    :func:`check_gauge`: what each measure's private form returns and the CLI renders."""
    if len(numerators) != parts.n:
        raise GaugeError(f"gauge has {len(numerators)} entries for {parts.n} nodes")
    for i, k in enumerate(numerators):
        if k < 0:
            raise GaugeError(f"negative weight {Fraction(k, unit)} at node {i}")
    total = sum(numerators)
    if total != parts.dominated_count * unit:
        raise GaugeError(
            f"weights sum to {Fraction(total, unit)}, expected {parts.dominated_count}"
        )
    return numerators, unit


def beta_measure(net: HierNet) -> Imputation:
    """Each dominated node's unit of control split equally among its predecessors.

    Coincides with the Shapley value of both successor representations.
    """
    return Imputation._from_numerators(*_beta(net))


def _beta(net: HierNet) -> tuple[list[int], int]:
    parts = partition(net)
    unit = math.lcm(*filter(None, parts.preds))
    share = [unit // k if k else 0 for k in parts.preds]
    numerators = [sum(map(share.__getitem__, row)) for row in net._succ]
    return _gauge(numerators, unit, parts)


def gately_measure(net: HierNet) -> Imputation:
    """Full credit for solely-controlled nodes plus a proportional share of
    the contested pool.

    The contested nodes are treated as one collective resource, split in
    proportion to each node's count of contested successors.  Coincides
    with the disruption-balancing value of both successor representations.
    """
    return Imputation._from_numerators(*_gately(net))


def _gately(net: HierNet) -> tuple[list[int], int]:
    parts = partition(net)
    pool = parts.multi_pred_total or 1  # no contested node: no share to hand out
    contested = len(parts.multi_pred)
    split = zip(parts.succs_single, parts.succs_multi)
    return _gauge([single * pool + multi * contested for single, multi in split], pool, parts)


def restricted_egalitarian(net: HierNet) -> Imputation:
    """Like the proportional split, but the contested pool is shared equally
    among the nodes that control at least one contested node."""
    return Imputation._from_numerators(*_egalitarian(net))


def _egalitarian(net: HierNet) -> tuple[list[int], int]:
    parts = partition(net)
    controllers = sum(1 for multi in parts.succs_multi if multi) or 1
    contested = len(parts.multi_pred)
    split = zip(parts.succs_single, parts.succs_multi)
    numerators = [single * controllers + (contested if multi else 0) for single, multi in split]
    return _gauge(numerators, controllers, parts)


def proportional_measure(net: HierNet) -> Imputation:
    """Out-degree vector rescaled to distribute the dominated-node total.

    An edgeless network yields the zero gauge by convention.
    """
    return Imputation._from_numerators(*_proportional(net))


def _proportional(net: HierNet) -> tuple[list[int], int]:
    parts = partition(net)
    total = sum(parts.succs) or 1  # edgeless: every out-degree is 0
    dominated = parts.dominated_count
    return _gauge([s * dominated for s in parts.succs], total, parts)


def degree_measure(net: HierNet) -> Imputation:
    """Raw out-degree vector; in general not a power gauge."""
    return Imputation._from_numerators(*_degree(net))


def _degree(net: HierNet) -> tuple[list[int], int]:
    return list(map(len, net._succ)), 1  # not checked: in general not a gauge


@dataclass(frozen=True, slots=True)
class CoreViolation:
    """A coalition paid less than the number of nodes it fully controls.

    :func:`core_violation` reports the coalition paid furthest short, the
    smallest one when several are.
    """

    mask: Coalition
    assigned: Fraction
    required: Fraction

    @property
    def shortfall(self) -> Fraction:
        return self.required - self.assigned


def core_violation(
    net: HierNet, delta: Imputation, cap: int = DEFAULT_PLAYER_CAP
) -> CoreViolation | None:
    """The coalition ``delta`` pays furthest short, if ``delta`` is not a Core gauge.

    The gauge is validated first, each entry read by :func:`as_exact`; the
    Core requirement is checked against full control, i.e. the strong
    successor representation: coalition S needs at least v(S), the number
    of nodes whose predecessors all lie in S.  The largest shortfall
    max_S (v(S) - delta(S)) is a maximum-weight closure (Picard 1976),
    found by one integer min-cut, never by a 2^n table: each dominated
    node is worth ``unit`` once all its predecessors are in S, and each
    predecessor costs its weight times ``unit``.  The best closure is the
    total worth minus a minimum cut of source -> dominated node (``unit``),
    dominated node -> predecessor (unbounded) and predecessor -> sink (its
    cost).  The predecessors the residual network still reaches from the
    source are the witness: of the coalitions with the largest shortfall,
    the one that lies inside all the others, whatever the node numbering.
    Networks with more than ``cap`` nodes are still refused up front.
    """
    cost, unit = _common_denominator(list(map(as_exact, delta)))
    parts = partition(net)
    _gauge(cost, unit, parts)
    _check_player_cap(net.n, cap)
    worth = unit * parts.dominated_count
    n, source, sink = net.n, net.n, net.n + 1  # node i is vertex i; dominated nodes follow
    arcs = [{sink: c} for c in cost] + [{}, dict.fromkeys(range(n), 0)]
    for pred in filter(None, net._pred):
        j = len(arcs)
        arcs.append({**dict.fromkeys(pred, worth), source: 0})  # no cut exceeds the worth
        arcs[source][j] = unit
        for i in pred:
            arcs[i][j] = 0
    flow, side = _max_flow(arcs, source, sink)
    if flow == worth:
        return None
    # Below the worth, the flow saturates no unbounded arc: the side is a closure,
    # and by its maximality its dominated nodes are all that its predecessors control.
    mask = coalition(v for v in side if v < n)
    assigned = Fraction(sum(cost[i] for i in members(mask)), unit)
    return CoreViolation(mask, assigned, required=Fraction(sum(v > sink for v in side)))


def _max_flow(arcs: list[dict[int, int]], source: int, sink: int) -> tuple[int, dict[int, int]]:
    """Value of a maximum flow by shortest augmenting paths (Edmonds-Karp),
    and the vertices the source still reaches: a minimum cut's source side.

    ``arcs[u][v]`` is the residual capacity of u -> v, and every arc's
    reverse is present; both are updated in place.  Capacities are ints,
    so the result is exact.
    """
    total = 0
    while True:
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v, capacity in arcs[u].items():
                if capacity and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if sink in parent:
                break
        else:
            return total, parent
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(arcs[u][v] for u, v in path)
        for u, v in path:
            arcs[u][v] -= push
            arcs[v][u] += push
        total += push


def core_vertices(
    net: HierNet, cap: int = DEFAULT_SUBNETWORK_CAP
) -> tuple[Imputation, ...]:
    """Out-degree gauges of the simple subnetworks, whose convex hull is the
    Core, deduplicated (distinct subnetworks may tie) and sorted.

    Every extreme point of the Core is among them, but not every gauge
    listed is an extreme point: a tally can lie between two others.

    Each simple subnetwork keeps one predecessor per dominated node, and
    its out-degree gauge counts how often each node was kept.  The counts
    are folded in one dominated node at a time and ties merge as they
    arise, so the work follows the number of distinct gauges, not of
    subnetworks, and no subnetwork is built.  Refuses up front when there
    are more than ``cap`` subnetworks, like :func:`simple_subnetworks`.
    """
    return tuple(Imputation._from_numerators(degrees, 1) for degrees in _vertex_degrees(net, cap))


def _vertex_degrees(net: HierNet, cap: int) -> list[tuple[int, ...]]:
    """The integer out-degree tuples behind :func:`core_vertices`, in its order.

    A tally is one int with a k-byte field per node, node 0 the most
    significant, so ints order as their tuples do."""
    _check_subnetwork_cap(net, cap)
    k = max(1, (max(partition(net).succs).bit_length() + 7) // 8)
    unit = [1 << 8 * k * i for i in reversed(range(net.n))]
    base, tallies = 0, {0}
    for pred in filter(None, net._pred):
        steps = [unit[i] for i in pred]
        if len(steps) == 1:
            base += steps[0]
        else:
            tallies = {t + step for t in tallies for step in steps}
    packed = b"".join((base + t).to_bytes(net.n * k, "big") for t in sorted(tallies))
    degrees = list(packed[::k])  # each field's top byte, then one byte plane at a time
    for plane in range(1, k):
        degrees = [d << 8 | low for d, low in zip(degrees, packed[plane::k])]
    return list(zip(*[iter(degrees)] * net.n))


def unique_simple_gauge(net: HierNet) -> Imputation:
    """The out-degree gauge, which for a simple network is the only Core gauge."""
    return Imputation._from_numerators(*_gauge(*_degree(net), partition(net)))
