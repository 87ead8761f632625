"""Tests of the benchmark's input generator and answer checks.

    python3 -m pytest bench/test_inputs.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402


def _written(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    inputs.write_documents(inputs.build_queries(workload, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(inputs.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = _written(workload, 7, tmp_path / "a")
    again = _written(workload, 7, tmp_path / "b")
    other = _written(workload, 8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other
    a = [q.args for q in inputs.build_queries(workload, 7)]
    assert a == [q.args for q in inputs.build_queries(workload, 7)]


def test_generator_does_not_import_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import checks, inputs; "
            "inputs.build_queries('docs-large', 1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hierpower'))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_core_vertex_networks_are_stratified_by_subnetwork_count():
    queries = inputs.build_queries("core-check", 3)
    vertex = sorted(inputs.documents([q for q in queries if "--vertices" in q.args]),
                    key=lambda d: d.name)
    counts = [d.net.subnetwork_count() for d in vertex]
    assert len(counts) == 16
    assert counts == sorted(counts)  # network k lies in the k-th bin
    assert 64 <= counts[0] and counts[-1] <= inputs.VERTEX_LIMIT
    checked = inputs.documents([q for q in queries if "--check" in q.args])
    assert len(checked) == 16 and not set(checked) & set(vertex)


# fig1 of the paper: nodes 1, 2 jointly control 6; 3, 4, 5 jointly control 7 and 8.
FIG1 = inputs.Network(8, ((0, 5), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 6), (4, 7)))


def test_closed_forms_on_fig1():
    m = checks.Facts(FIG1).measures()
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert m["beta"] == [half, half, 2 * third, 2 * third, 2 * third, 0, 0, 0]
    # three contested nodes, eight controlling edges: each edge earns 3/8
    assert m["gately"] == [Fraction(3, 8)] * 2 + [Fraction(3, 4)] * 3 + [0] * 3
    assert sum(m["egalitarian"]) == sum(m["proportional"]) == 3


def test_core_scan_and_witness_on_fig1():
    facts = checks.Facts(FIG1)
    beta = facts.measures()["beta"]
    assert facts.in_core(beta)
    gately = facts.measures()["gately"]
    assert not facts.in_core(gately)
    # the paper's counterexample: {1, 2} fully controls node 6 but gets 3/4
    assert facts.required([0, 1]) == 1 and gately[0] + gately[1] == Fraction(3, 4)


def test_checks_reject_wrong_answers():
    doc = inputs.Doc("fig1.json", FIG1, inputs.to_json(FIG1))
    query = inputs.Query(doc, ("core", "{doc}", "--check", "beta", "--json"))
    facts = checks.Facts(FIG1)
    labels = FIG1.labels
    network = {"nodes": list(labels), "node_count": 8, "edge_count": 8, "dominated": 3,
               "single_pred": 0, "multi_pred": 3,
               "class": {"simple": False, "regular": False, "weakly_regular": False,
                         "principal": True}}
    beta = facts.measures()["beta"]
    payload = {"network": network, "measure": "beta", "in_core": True,
               "gauge": {lab: {"exact": str(v)} for lab, v in zip(labels, beta)}}
    assert checks.check(query, facts, 0, json.dumps(payload)) is None
    assert checks.check(query, facts, 2, json.dumps(payload)) == "exit code 2"
    wrong = dict(payload, gauge={lab: {"exact": str(v)} for lab, v in
                                 zip(labels, [Fraction(1)] * 3 + [0] * 5)})
    assert "closed form" in checks.check(query, facts, 0, json.dumps(wrong))
    bad_witness = dict(payload, in_core=False, violation={
        "coalition": ["v0"], "assigned": "1/2", "required": "1", "shortfall": "1/2"})
    assert "witness" in checks.check(query, facts, 0, json.dumps(bad_witness))
