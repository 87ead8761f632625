"""The network-side steps stay O(n + E) in memory on a large sparse network.

The network comes from the benchmark's own generator, ``bench/inputs.py``,
which does not import ``hierpower``.
"""

import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

from hierpower import NetworkDocument, beta_measure, gately_measure, partition

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_twenty_thousand_nodes_fit_in_24_mib():
    sparse = load_inputs().sparse_network(random.Random(0), 20_000)
    labels = sparse.labels
    doc = NetworkDocument(labels, tuple((labels[i], labels[j]) for i, j in sparse.edges))
    tracemalloc.start()
    try:
        net = doc.to_network()
        partition(net)
        beta_measure(net)
        gately_measure(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 20_000 and net.edge_count() == len(sparse.edges)
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
