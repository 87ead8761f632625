"""Network documents: labelled networks and their two file formats.

Computation uses dense integer node ids; this module owns the boundary
where external labels are attached.  Two formats are supported: a JSON
object ``{"nodes": [...], "edges": [["A", "B"], ...]}`` and a plain
edge-list text format with one ``pred succ`` pair per line, ``node X``
lines for isolated nodes and ``#`` comments.  Both parsers give each label
an id as they read it and build the network from integer rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .networks import HierNet


@dataclass(frozen=True, slots=True)
class NetworkDocument:
    """A parsed document: ``labels[i]`` names node ``i`` of ``network``.  Only the
    parsers check labels and edges; the constructor checks the label count."""

    labels: tuple[str, ...]
    network: HierNet

    def __post_init__(self) -> None:
        if len(self.labels) != self.network.n:
            raise InputError(f"{len(self.labels)} labels for {self.network.n} nodes")

    def to_network(self) -> HierNet:
        return self.network


def _edge_fault(pred: str, succ: str, p: int | None, s: int | None,
                seen: set[tuple[int, int]]) -> str | None:
    """The first fault of edge ``pred -> succ`` (ids ``p``, ``s``; None if undeclared) after
    those in ``seen``: a self-loop, an undeclared label or a repeat; if none, it joins ``seen``."""
    if pred == succ:
        return f"self-loop on node {pred!r} is not allowed"
    if p is None or s is None:
        return f"edge mentions undeclared node {pred if p is None else succ!r}"
    if (p, s) in seen:
        return f"duplicate edge {pred!r} -> {succ!r}"
    seen.add((p, s))
    return None


def _document(labels: list[str], succ: list[list[int]], pred: list[list[int]],
              location) -> NetworkDocument:
    """The document of ``labels`` and checked rows, pred being succ transposed; a label
    with a lone surrogate has no UTF-8 form to print, and ``location(label)`` places it."""
    try:
        "".join(labels).encode()
    except UnicodeEncodeError as exc:
        label = next(label for label in labels if exc.object[exc.start] in label)
        raise InputError(f"node label {label!r} cannot be encoded as UTF-8",
                         location=location(label)) from None
    for row in succ + pred:
        row.sort()
    return NetworkDocument(tuple(labels), HierNet._from_rows(len(labels), succ, pred))


# --- JSON format ----------------------------------------------------------------

def document_from_json(text: str) -> NetworkDocument:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an int past Python's digit limit, or nesting too deep
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("top-level JSON value must be an object")
    nodes = payload.get("nodes")
    if not isinstance(nodes, list):
        raise InputError("missing or non-list field", location="nodes")
    ids: dict[str, int] = {}  # a repeated label keeps its first position
    for i, label in enumerate(nodes):
        if not isinstance(label, str):
            raise InputError("node labels must be strings", location=f"nodes[{i}]")
        ids.setdefault(label, i)
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InputError("must be a list of [pred, succ] pairs", location="edges")
    for i, pair in enumerate(raw_edges):
        if type(pair) is not list or len(pair) != 2 or not (
                type(pair[0]) is str and type(pair[1]) is str):  # json makes no subclasses
            raise InputError("each edge must be a [pred, succ] pair of strings",
                             location=f"edges[{i}]")
    if not nodes:
        raise InputError("document declares no nodes")
    if len(ids) < len(nodes):
        label = next(label for i, label in enumerate(nodes) if ids[label] != i)
        raise InputError(f"duplicate node label {label!r}")
    get = ids.get
    succ, pred = [[] for _ in nodes], [[] for _ in nodes]
    for a, b in raw_edges:
        p, s = get(a), get(b)
        if p is not None and s is not None and p != s:  # else left out, and named below
            succ[p].append(s)
            pred[s].append(p)
    if sum(map(len, map(set, succ))) < len(raw_edges):  # an edge left out or repeated
        seen: set[tuple[int, int]] = set()
        raise InputError(next(message for a, b in raw_edges
                              if (message := _edge_fault(a, b, get(a), get(b), seen))))
    return _document(nodes, succ, pred, lambda label: f"nodes[{ids[label]}]")


# --- edge-list format -----------------------------------------------------------

def document_from_edge_list(text: str) -> NetworkDocument:
    """Parse the line format; node labels are taken in order of first mention."""
    return _read_edge_list(text, None)


def _read_edge_list(text: str, seen: set[tuple[int, int]] | None) -> NetworkDocument:
    """With ``seen`` None an edge is checked for a self-loop only; if one repeats before
    the first fault, the text is read again checking every edge against ``seen``."""
    ids: dict[str, int] = {}
    succ: list[list[int]] = []
    pred: list[list[int]] = []

    def label_id(label: str) -> int:
        if label not in ids:
            ids[label] = len(succ)
            succ.append([])
            pred.append([])
        return ids[label]

    get = ids.get
    fault = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(fields) == 2 and fields[0] != "node":
            a, b = fields
            p, s = get(a), get(b)
            if p is None or s is None:
                p, s = label_id(a), label_id(b)
            if (seen is not None or p == s) and (fault := _edge_fault(a, b, p, s, seen)):
                break
            succ[p].append(s)
            pred[s].append(p)
        elif not fields:
            continue
        elif fields[0] != "node":
            fault = "expected: <pred> <succ> or node <label>"
            break
        elif len(fields) != 2:
            fault = "expected: node <label>"
            break
        elif fields[1] in ids:
            fault = f"duplicate node label {fields[1]!r}"
            break
        else:
            label_id(fields[1])
    if seen is None and sum(map(len, map(set, succ))) < sum(map(len, succ)):
        return _read_edge_list(text, set())
    if fault:
        raise InputError(fault, location=f"line {lineno}")
    if not ids:
        raise InputError("document declares no nodes")
    return _document(list(ids), succ, pred, lambda label: next(  # its first line
        f"line {lineno}" for lineno, raw in enumerate(text.splitlines(), start=1)
        if label in raw.split("#", 1)[0].split()))


def load_document(path: str | Path) -> NetworkDocument:
    """Read a document from disk, sniffing JSON (leading ``{``) vs edge list."""
    path = Path(path)
    try:
        # drop a byte-order mark here, not by "utf-8-sig", so error offsets count it
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc
    if text.lstrip().startswith("{"):
        return document_from_json(text)
    return document_from_edge_list(text)
