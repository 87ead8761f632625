"""The network-document parsers as they were before they built the network
while reading: a document of string edges, checked once more by
``__post_init__`` through a set of string pairs, then mapped to ids by
``to_network``.  Kept unchanged as the oracle for ``hierpower.documents``:
on every text both must accept the same documents, or refuse with the same
message and location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from hierpower import HierNet, InputError


@dataclass(frozen=True, slots=True)
class NetworkDocument:
    """Validated labelled network: unique labels, no self-loops, no duplicate edges."""

    labels: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise InputError("document declares no nodes")
        seen: set[str] = set()
        for label in self.labels:
            if label in seen:
                raise InputError(f"duplicate node label {label!r}")
            seen.add(label)
        pairs: set[tuple[str, str]] = set()
        for pred, succ in self.edges:
            if pred == succ:
                raise InputError(f"self-loop on node {pred!r} is not allowed")
            for label in (pred, succ):
                if label not in seen:
                    raise InputError(f"edge mentions undeclared node {label!r}")
            if (pred, succ) in pairs:
                raise InputError(f"duplicate edge {pred!r} -> {succ!r}")
            pairs.add((pred, succ))

    def to_network(self) -> HierNet:
        # Validation already ruled out self-loops, undeclared labels and
        # duplicate edges: sorted, the rows are what HierNet would build.
        index = {label: i for i, label in enumerate(self.labels)}
        succ: list[list[int]] = [[] for _ in index]
        pred: list[list[int]] = [[] for _ in index]
        for p, s in self.edges:
            i, j = index[p], index[s]
            succ[i].append(j)
            pred[j].append(i)
        for row in succ + pred:
            row.sort()
        return HierNet._from_rows(len(index), succ, pred)


# --- JSON format ----------------------------------------------------------------

def document_from_json(text: str) -> NetworkDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("top-level JSON value must be an object")
    nodes = payload.get("nodes")
    if not isinstance(nodes, list):
        raise InputError("missing or non-list field", location="nodes")
    labels = []
    for i, label in enumerate(nodes):
        if not isinstance(label, str):
            raise InputError("node labels must be strings", location=f"nodes[{i}]")
        labels.append(label)
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InputError("must be a list of [pred, succ] pairs", location="edges")
    edges = []
    for i, pair in enumerate(raw_edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not (isinstance(pair[0], str) and isinstance(pair[1], str))
        ):
            raise InputError("each edge must be a [pred, succ] pair of strings",
                             location=f"edges[{i}]")
        edges.append((pair[0], pair[1]))
    return NetworkDocument(labels=tuple(labels), edges=tuple(edges))


# --- edge-list format -----------------------------------------------------------

def document_from_edge_list(text: str) -> NetworkDocument:
    """Parse the line format; node labels are taken in order of first mention."""
    labels: list[str] = []
    known: set[str] = set()
    edges: dict[tuple[str, str], None] = {}  # insertion-ordered set

    def declare(label: str) -> None:
        if label not in known:
            known.add(label)
            labels.append(label)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        where = f"line {lineno}"
        if fields[0] == "node":
            if len(fields) != 2:
                raise InputError("expected: node <label>", location=where)
            if fields[1] in known:
                raise InputError(f"duplicate node label {fields[1]!r}", location=where)
            declare(fields[1])
        elif len(fields) == 2:
            pred, succ = fields
            if pred == succ:
                raise InputError(f"self-loop on node {pred!r} is not allowed", location=where)
            declare(pred)
            declare(succ)
            if (pred, succ) in edges:
                raise InputError(f"duplicate edge {pred!r} -> {succ!r}", location=where)
            edges[pred, succ] = None
        else:
            raise InputError("expected: <pred> <succ> or node <label>", location=where)
    if not labels:
        raise InputError("document declares no nodes")
    doc = object.__new__(NetworkDocument)  # skips __post_init__: its checks were all made above
    object.__setattr__(doc, "labels", tuple(labels))
    object.__setattr__(doc, "edges", tuple(edges))
    return doc
