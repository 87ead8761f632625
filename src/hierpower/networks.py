"""Directed hierarchical networks and their structural analysis.

A hierarchical network maps each node to the set of nodes it controls
(its successors).  This module classifies nodes by how many controllers
they have, classifies whole networks by the regularity of those counts,
restricts a network to its contested part, and enumerates the spanning
single-controller selections (simple subnetworks).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .coalitions import Coalition, check_coalition
from .errors import CapExceededError

DEFAULT_SUBNETWORK_CAP = 10**6


class HierNet:
    """Immutable directed network over dense node ids ``0..n-1``.

    Each node's successors and predecessors are kept as sorted tuples of
    node ids, O(n + E) in all.  Self-succession is rejected; cycles and
    mutual edges are allowed, and a successor listed twice counts once.
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
        succ_rows = [tuple(sorted(set(map(operator.index, row)))) for row in rows]
        pred_rows: list[list[int]] = [[] for _ in range(n)]
        for i, row in enumerate(succ_rows):
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"successor {j} of node {i} is outside 0..{n - 1}")
                if j == i:
                    raise ValueError(f"node {i} cannot be its own successor")
                pred_rows[j].append(i)
        self.n, self._succ, self._pred = n, tuple(succ_rows), tuple(map(tuple, pred_rows))
        self._parts = None

    @classmethod
    def _from_rows(cls, n: int, succ: Iterable[Iterable[int]],
                   pred: Iterable[Iterable[int]]) -> HierNet:
        # Skips validation: the rows are sorted and duplicate-free, pred is succ transposed.
        net = cls.__new__(cls)
        net.n, net._succ, net._pred = n, tuple(map(tuple, succ)), tuple(map(tuple, pred))
        net._parts = None
        return net

    def successors(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def predecessors(self, j: int) -> tuple[int, ...]:
        return self._pred[j]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All (predecessor, successor) pairs, sorted."""
        for i, row in enumerate(self._succ):
            for j in row:
                yield i, j

    def edge_count(self) -> int:
        return sum(map(len, self._succ))

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
    for j, pred in enumerate(net._pred):
        if pred and all(h >> i & 1 for i in pred):
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
    preds = tuple(map(len, net._pred))
    succs = tuple(map(len, net._succ))
    contested = [k >= 2 for k in preds]
    succs_multi = tuple(sum(map(contested.__getitem__, row)) for row in net._succ)
    net._parts = NodePartition(
        n=n,
        no_pred=frozenset(j for j in range(n) if preds[j] == 0),
        single_pred=frozenset(j for j in range(n) if preds[j] == 1),
        multi_pred=frozenset(j for j in range(n) if preds[j] >= 2),
        preds=preds,
        succs=succs,
        # every successor of i has i as a predecessor: it is single or multi
        succs_single=tuple(map(operator.sub, succs, succs_multi)),
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
    multi = partition(net).multi_pred
    succ = [[j for j in row if j in multi] for row in net._succ]
    pred = [row if j in multi else () for j, row in enumerate(net._pred)]
    return HierNet._from_rows(net.n, succ, pred)


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
    dominated = [j for j, pred in enumerate(net._pred) if pred]
    for picks in itertools.product(*(net._pred[j] for j in dominated)):
        succ: list[list[int]] = [[] for _ in range(net.n)]
        pred: list[tuple[int, ...]] = [()] * net.n
        for i, j in zip(picks, dominated):  # j ascending: each successor row stays sorted
            succ[i].append(j)
            pred[j] = (i,)
        yield HierNet._from_rows(net.n, succ, pred)
