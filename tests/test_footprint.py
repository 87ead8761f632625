"""The network-side steps stay O(n + E) in memory on a large sparse network.

The network comes from the benchmark's own generator, ``bench/inputs.py``,
which does not import ``hierpower``.  Parsing builds the network, so each
traced region starts from the document text.
"""

import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

from hierpower import (
    beta_measure,
    document_from_edge_list,
    document_from_json,
    gately_measure,
    partition,
)

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def peak_from_text(write, parse) -> int:
    """Peak traced bytes of parsing 20,000 seeded nodes written by ``write``,
    then partitioning them and computing two gauges."""
    inputs = load_inputs()
    sparse = inputs.sparse_network(random.Random(0), 20_000)
    text = getattr(inputs, write)(sparse)
    tracemalloc.start()
    try:
        net = parse(text).network
        partition(net)
        beta_measure(net)
        gately_measure(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 20_000 and net.edge_count() == len(sparse.edges)
    return peak


def test_twenty_thousand_nodes_fit_in_24_mib():
    peak = peak_from_text("to_edge_list", document_from_edge_list)
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_twenty_thousand_nodes_as_json_fit_in_30_mib():
    peak = peak_from_text("to_json", document_from_json)
    assert peak <= 30 * 2**20, f"peak {peak / 2**20:.1f} MiB"
