from fractions import Fraction

from hierpower import (
    Coalition,
    HierNet,
    InputError,
    NetworkDocument,
    TUGame,
    coalition,
    generate_random,
    members,
)
from hierpower.coalitions import check_coalition
from hierpower.documents import _indented_json


def unanimity_game(n: int, carrier: int) -> TUGame:
    return TUGame(n, [int(h & carrier == carrier) for h in range(1 << n)])


def additive_game(values) -> TUGame:
    n = len(values)
    return TUGame(n, [sum((values[i] for i in range(n) if h >> i & 1), 0) for h in range(1 << n)])


def standard_suite(count: int = 200, seed: int = 42) -> list[HierNet]:
    """Network k: 3 + k % 5 nodes, edge probability (1 + k // 5 % 3) / 4, seed + k."""
    return [generate_random(3 + k % 5, Fraction(1 + k // 5 % 3, 4), seed=seed + k)
            for k in range(count)]


def weak_successors(net: HierNet, h: Coalition) -> Coalition:
    """Nodes with at least one predecessor in ``h``: the union of successor sets."""
    check_coalition(h, net.n)
    return coalition(j for i in members(h) for j in net.successors(i))


def document_from_network(net: HierNet, labels: tuple[str, ...] | None = None) -> NetworkDocument:
    if labels is None:
        labels = tuple(str(i) for i in range(net.n))
    if len(labels) != net.n:
        raise InputError(f"{len(labels)} labels for {net.n} nodes")
    edges = tuple((labels[i], labels[j]) for i, j in net.edges())
    return NetworkDocument(labels=labels, edges=edges)


def document_to_json(doc: NetworkDocument) -> str:
    return _indented_json({"nodes": doc.labels, "edges": doc.edges}) + "\n"


def document_to_edge_list(doc: NetworkDocument) -> str:
    lines = [f"node {label}" for label in doc.labels]
    lines.extend(f"{pred} {succ}" for pred, succ in doc.edges)
    return "\n".join(lines) + "\n"
