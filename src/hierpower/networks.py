"""Directed hierarchical networks and their structural analysis.

A hierarchical network maps each node to the set of nodes it controls
(its successors).  This module classifies nodes by how many controllers
they have, classifies whole networks by the regularity of those counts,
restricts a network to its contested part, and enumerates the spanning
single-controller selections (simple subnetworks).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .coalitions import Coalition, check_coalition, coalition, members
from .errors import CapExceededError

DEFAULT_SUBNETWORK_CAP = 10**6


class HierNet:
    """Immutable directed network over dense node ids ``0..n-1``.

    Self-succession is rejected; cycles and mutual edges are allowed.
    """

    __slots__ = ("n", "_succ", "_pred", "_parts")

    def __init__(self, n: int, succ: Mapping[int, Iterable[int]] | Iterable[Iterable[int]]):
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if isinstance(succ, Mapping):
            rows = [succ.get(i, ()) for i in range(n)]
            extra = set(succ) - set(range(n))
            if extra:
                raise ValueError(f"successor map mentions unknown nodes {sorted(extra)}")
        else:
            rows = [row for row in succ]
            if len(rows) != n:
                raise ValueError(f"expected {n} successor rows, got {len(rows)}")
        succ_masks = []
        pred_masks = [0] * n
        for i, row in enumerate(rows):
            mask = 0
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"successor {j} of node {i} is outside 0..{n - 1}")
                if j == i:
                    raise ValueError(f"node {i} cannot be its own successor")
                mask |= 1 << j
                pred_masks[j] |= 1 << i
            succ_masks.append(mask)
        self._set_masks(n, succ_masks, pred_masks)

    @classmethod
    def _from_masks(cls, n: int, succ_masks: list[int], pred_masks: list[int]) -> HierNet:
        # Skips validation: callers derive both lists, each the other's transpose.
        net = cls.__new__(cls)
        net._set_masks(n, succ_masks, pred_masks)
        return net

    def _set_masks(self, n: int, succ_masks: list[int], pred_masks: list[int]) -> None:
        self.n = n
        self._succ = tuple(succ_masks)
        self._pred = tuple(pred_masks)
        self._parts = None

    @property
    def succ_masks(self) -> tuple[int, ...]:
        return self._succ

    @property
    def pred_masks(self) -> tuple[int, ...]:
        return self._pred

    def successors(self, i: int) -> frozenset[int]:
        return frozenset(members(self._succ[i]))

    def predecessors(self, j: int) -> frozenset[int]:
        return frozenset(members(self._pred[j]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All (predecessor, successor) pairs, sorted."""
        for i in range(self.n):
            for j in members(self._succ[i]):
                yield i, j

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierNet):
            return NotImplemented
        return self.n == other.n and self._succ == other._succ

    def __hash__(self) -> int:
        return hash((self.n, self._succ))

    def __repr__(self) -> str:
        edges = ", ".join(f"{i}->{j}" for i, j in self.edges())
        return f"HierNet(n={self.n}, edges=[{edges}])"


@dataclass(frozen=True, slots=True)
class NodePartition:
    """Per-node controller statistics and the induced node classes.

    ``no_pred`` / ``single_pred`` / ``multi_pred`` partition the node set
    by predecessor count 0 / 1 / >=2.  ``succs_single`` and ``succs_multi``
    split each node's out-degree by the class of the controlled node.
    """

    n: int
    no_pred: frozenset[int]
    single_pred: frozenset[int]
    multi_pred: frozenset[int]
    preds: tuple[int, ...]
    succs: tuple[int, ...]
    succs_single: tuple[int, ...]
    succs_multi: tuple[int, ...]

    @property
    def dominated(self) -> frozenset[int]:
        """Nodes that have at least one predecessor."""
        return self.single_pred | self.multi_pred

    @property
    def dominated_count(self) -> int:
        return len(self.single_pred) + len(self.multi_pred)

    @property
    def multi_pred_total(self) -> int:
        """Sum of predecessor counts over the multi-predecessor nodes."""
        return sum(self.preds[j] for j in self.multi_pred)


@dataclass(frozen=True, slots=True)
class NetworkClass:
    """Regularity flags; simple implies regular implies weakly regular."""

    simple: bool
    regular: bool
    weakly_regular: bool
    principal: bool


def strong_successors(net: HierNet, h: Coalition) -> Coalition:
    """Nodes with a nonempty predecessor set lying entirely inside ``h``."""
    check_coalition(h, net.n)
    out = 0
    for j, pred in enumerate(net.pred_masks):
        if pred and pred & ~h == 0:
            out |= 1 << j
    return out


def partition(net: HierNet) -> NodePartition:
    """Per-node predecessor and successor counts, split by node class.

    Computed once, on first use, and kept on the net: every later call
    returns the same object.
    """
    if net._parts is not None:
        return net._parts
    n = net.n
    preds = tuple(mask.bit_count() for mask in net.pred_masks)
    succs = tuple(mask.bit_count() for mask in net.succ_masks)
    multi = coalition(j for j in range(n) if preds[j] >= 2)
    single = coalition(j for j in range(n) if preds[j] == 1)
    succs_single = tuple((mask & single).bit_count() for mask in net.succ_masks)
    succs_multi = tuple((mask & multi).bit_count() for mask in net.succ_masks)
    net._parts = NodePartition(
        n=n,
        no_pred=frozenset(j for j in range(n) if preds[j] == 0),
        single_pred=frozenset(members(single)),
        multi_pred=frozenset(members(multi)),
        preds=preds,
        succs=succs,
        succs_single=succs_single,
        succs_multi=succs_multi,
    )
    return net._parts


def classify(net: HierNet) -> NetworkClass:
    """Compute the regularity flags of a network.

    Weakly regular: all multi-predecessor nodes share one predecessor
    count.  Regular: all dominated nodes do.  Simple: every dominated
    node has exactly one predecessor.  Principal: no node has exactly
    one predecessor, i.e. the network equals its principal restriction.
    """
    parts = partition(net)
    multi_counts = {parts.preds[j] for j in parts.multi_pred}
    dominated_counts = {parts.preds[j] for j in parts.dominated}
    return NetworkClass(
        simple=dominated_counts <= {1},
        regular=len(dominated_counts) <= 1,
        weakly_regular=len(multi_counts) <= 1,
        principal=not parts.single_pred,
    )


def principal_restriction(net: HierNet) -> HierNet:
    """Keep only edges into multi-predecessor nodes; idempotent."""
    multi = coalition(partition(net).multi_pred)
    kept = [mask if multi >> j & 1 else 0 for j, mask in enumerate(net.pred_masks)]
    return HierNet._from_masks(net.n, [mask & multi for mask in net.succ_masks], kept)


def simple_subnetwork_count(net: HierNet) -> int:
    """Product of predecessor counts over the dominated nodes."""
    parts = partition(net)
    count = 1
    for j in sorted(parts.dominated):
        count *= parts.preds[j]
    return count


def _check_subnetwork_cap(net: HierNet, cap: int) -> None:
    """Refuse a network with more than ``cap`` simple subnetworks."""
    if (total := simple_subnetwork_count(net)) > cap:
        raise CapExceededError("simple-subnetwork enumeration", total, cap)


def simple_subnetworks(
    net: HierNet, cap: int = DEFAULT_SUBNETWORK_CAP
) -> Iterator[HierNet]:
    """Enumerate every spanning selection of one predecessor per dominated node.

    Each emitted network keeps, for every node that has predecessors,
    exactly one of them; nothing else carries edges.  Enumeration is
    lexicographic over predecessor choices, dominated nodes ordered by id.
    Refuses upfront when the total count exceeds ``cap``.
    """
    _check_subnetwork_cap(net, cap)
    dominated = [j for j, pred in enumerate(net.pred_masks) if pred]
    for picks in itertools.product(*(members(net.pred_masks[j]) for j in dominated)):
        succ_masks = [0] * net.n
        pred_masks = [0] * net.n
        for i, j in zip(picks, dominated):
            succ_masks[i] |= 1 << j
            pred_masks[j] = 1 << i
        yield HierNet._from_masks(net.n, succ_masks, pred_masks)
