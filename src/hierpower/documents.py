"""Network documents: label-level descriptions and their two file formats.

Computation uses dense integer node ids; this module owns the boundary
where external labels are attached.  Two formats are supported: a JSON
object ``{"nodes": [...], "edges": [["A", "B"], ...]}`` and a plain
edge-list text format with one ``pred succ`` pair per line, ``node X``
lines for isolated nodes and ``#`` comments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InputError
from .networks import HierNet


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


# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _indented_json(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for str-keyed dicts, lists,
    tuples, str, int, float, bool and None; other types raise TypeError.  json
    indents in pure Python; this joins the strings its C encoders make.  A
    callable value is a writer for a known shape: it is called with the indent
    of the line its value ends on and returns the value's text."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        ends = "{}"
        items = [encode_basestring_ascii(k) + ": " + _indented_json(v, inner)
                 for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends = "[]"  # str items, such as Core vertex entries, skip the recursive call
        items = [encode_basestring_ascii(v) if type(v) is str else _indented_json(v, inner)
                 for v in value]
    elif value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    elif isinstance(value, float):
        return _NON_FINITE.get(text := float.__repr__(value), text)
    elif callable(value):
        return value(indent)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


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


def load_document(path: str | Path) -> NetworkDocument:
    """Read a document from disk, sniffing JSON (leading ``{``) vs edge list."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if text.lstrip().startswith("{"):
        return document_from_json(text)
    return document_from_edge_list(text)
