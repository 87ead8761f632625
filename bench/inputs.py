"""Seeded networks, their documents and each workload's query list.

This module must not import ``hierpower``: the program under test sees
only the files written here, so no change to the program can change the
inputs. The same seed gives byte-identical documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Core-check networks have at most this many simple subnetworks (one
# controller kept per controlled node), so their Core vertices can be listed.
VERTEX_LIMIT = 4096


@dataclass(frozen=True)
class Network:
    """A directed network over nodes ``0..n-1`` labelled ``v0..v{n-1}``."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"v{i}" for i in range(self.n))

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            succ[i].append(j)
        return succ

    def predecessors(self) -> list[list[int]]:
        pred: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            pred[j].append(i)
        return pred

    def subnetwork_count(self) -> int:
        count = 1
        for preds in self.predecessors():
            count *= max(1, len(preds))
        return count


def dense_network(rng: random.Random, n: int, p: Fraction) -> Network:
    """Each ordered pair is an edge with probability ``p`` (exact when ``p`` is dyadic)."""
    threshold = float(p)
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < threshold
    )
    return Network(n, edges)


def sparse_network(rng: random.Random, n: int) -> Network:
    """Each node controls 2 to 6 distinct other nodes, 4 on average."""
    edges = []
    for i in range(n):
        for j in sorted(rng.sample(range(n - 1), rng.randint(2, 6))):
            edges.append((i, j + 1 if j >= i else j))
    return Network(n, tuple(edges))


def to_json(net: Network) -> str:
    labels = net.labels
    payload = {"nodes": list(labels), "edges": [[labels[i], labels[j]] for i, j in net.edges]}
    return json.dumps(payload, indent=1) + "\n"


def to_edge_list(net: Network) -> str:
    """Edge lines, then ``node`` lines for the nodes no edge mentions."""
    labels = net.labels
    lines = [f"# {net.n} nodes, {len(net.edges)} edges"]
    lines.extend(f"{labels[i]} {labels[j]}" for i, j in net.edges)
    mentioned = {k for edge in net.edges for k in edge}
    lines.extend(f"node {labels[i]}" for i in range(net.n) if i not in mentioned)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Doc:
    name: str
    net: Network
    text: str

    @property
    def edge_list(self) -> bool:
        return not self.text.startswith("{")


@dataclass(frozen=True)
class Query:
    """One CLI call; ``{doc}`` in ``args`` stands for the document's path."""

    doc: Doc
    args: tuple[str, ...]

    @property
    def form(self) -> tuple:
        """The command with the document abstracted to its format."""
        return (self.doc.edge_list, self.args)

    def argv(self, directory: Path) -> list[str]:
        path = str(directory / self.doc.name)
        return [path if a == "{doc}" else a for a in self.args]


def _doc(index: int, net: Network, edge_list: bool) -> Doc:
    if edge_list:
        return Doc(f"net{index:02d}.txt", net, to_edge_list(net))
    return Doc(f"net{index:02d}.json", net, to_json(net))


def _verify(rng, count, n, probs):
    docs = [_doc(k, dense_network(rng, n, probs[k % len(probs)]), k % 2 == 0) for k in range(count)]
    return [Query(d, ("verify", "--input", "{doc}", "--json")) for d in docs]


def _core(rng, count, n, probs):
    # Core checks run on `count` networks drawn at the stated densities, an
    # equal share at each. A vertex query enumerates every simple subnetwork,
    # so it runs on `count` further networks at the sparsest density, network
    # k drawn again until that count lies in the k-th of `count` log-spaced
    # bins from 64 to VERTEX_LIMIT. The vertex queries (a fifth of all
    # queries, where the 90th percentile falls) and the largest of them, which
    # sets peak memory, are then alike from seed to seed.
    queries = []
    for k in range(count):
        doc = _doc(k, dense_network(rng, n, probs[k * len(probs) // count]), k % 2 == 0)
        for measure in ("beta", "gately", "egalitarian", "proportional"):
            queries.append(Query(doc, ("core", "{doc}", "--check", measure, "--json")))
    for k in range(count):
        low, high = (64 * (VERTEX_LIMIT / 64) ** (b / count) for b in (k, k + 1))
        net = dense_network(rng, n, probs[0])
        while not low <= net.subnetwork_count() <= high:
            net = dense_network(rng, n, probs[0])
        doc = _doc(count + k, net, k % 2 == 0)
        queries.append(Query(doc, ("core", "{doc}", "--vertices", "--json")))
    return queries


def _docs(rng, count, smallest, largest):
    # Sizes are log-spaced and alternate between the two formats, so each
    # format covers the whole range and latencies have no gap between groups.
    queries = []
    for k in range(count):
        n = round(smallest * (largest / smallest) ** (k / (count - 1)))
        doc = _doc(k, sparse_network(rng, n), k % 2 == 0)
        for args in (("classify",), ("classify", "--json"), ("measure", "--all"),
                     ("measure", "--all", "--json")):
            queries.append(Query(doc, (args[0], "{doc}") + args[1:]))
    return queries


# name -> (builder, its arguments, the query mix in words). Why each workload
# exists is stated in BENCHMARK.json.
WORKLOADS = {
    "verify-small": (
        _verify, (48, 6, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))),
        "verify --input DOC --json; 48 networks, n=6, p in {1/4,1/2,3/4}",
    ),
    "verify-mid": (
        _verify, (24, 10, (Fraction(1, 4), Fraction(1, 2))),
        "verify --input DOC --json; 24 networks, n=10, p in {1/4,1/2}",
    ),
    "core-check": (
        _core, (16, 14, (Fraction(1, 8), Fraction(3, 16))),
        "core DOC --check {beta,gately,egalitarian,proportional} --json on 16 networks, n=14, "
        "p=1/8 for 8 and 3/16 for 8, not redrawn; core DOC --vertices --json on 16 more at "
        f"p=1/8, redrawn until their simple-subnetwork counts fill 16 log-spaced bins over "
        f"64..{VERTEX_LIMIT}",
    ),
    "docs-large": (
        _docs, (16, 250, 1500),
        "classify and measure --all, text and --json; 16 sparse networks of 250..1500 nodes "
        "(log-spaced), ~4 out-edges per node, edge list and JSON alternating",
    ),
}


def build_queries(workload: str, seed: int) -> list[Query]:
    """The workload's distinct queries, in a seeded order."""
    builder, args, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    queries = builder(rng, *args)
    rng.shuffle(queries)
    return queries


def documents(queries: list[Query]) -> list[Doc]:
    """Each document once, in query order."""
    seen: dict[str, Doc] = {}
    for q in queries:
        seen.setdefault(q.doc.name, q.doc)
    return list(seen.values())


def write_documents(queries: list[Query], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for doc in documents(queries):
        (directory / doc.name).write_text(doc.text, encoding="utf-8")


def warmup_queries(queries: list[Query]) -> list[Query]:
    """One query per command form, on the smallest document that has it."""
    smallest: dict[tuple, Query] = {}
    for q in queries:
        best = smallest.get(q.form)
        if best is None or len(q.doc.text) < len(best.doc.text):
            smallest[q.form] = q
    return list(smallest.values())

