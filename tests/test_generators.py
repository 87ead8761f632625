import json
from fractions import Fraction
from pathlib import Path

import pytest

from hierpower import classify, coalition, generate_random
from tests.builders import standard_suite

F = Fraction
PINNED = Path(__file__).resolve().parent / "golden" / "random_networks.json"


def test_same_seed_same_network():
    a = generate_random(6, F(1, 2), seed=7)
    b = generate_random(6, F(1, 2), seed=7)
    assert a == b


def test_different_seeds_usually_differ():
    nets = {generate_random(6, F(1, 2), seed=s) for s in range(20)}
    assert len(nets) > 1


def test_single_node_is_edgeless():
    net = generate_random(1, F(9, 10), seed=3)
    assert net.edge_count() == 0


def test_probability_zero_and_one():
    assert generate_random(5, 0, seed=1).edge_count() == 0
    assert generate_random(5, 1, seed=1).edge_count() == 20


def test_edge_count_within_bounds():
    net = generate_random(6, F(1, 2), seed=7)
    assert 0 <= net.edge_count() <= 30


def test_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_random(4, F(3, 2), seed=0)


def test_rejects_bad_node_count():
    with pytest.raises(ValueError):
        generate_random(0, F(1, 2), seed=0)


def test_rejects_float_probability():
    with pytest.raises(TypeError):
        generate_random(4, 0.5, seed=0)


def test_standard_suite_is_deterministic():
    first = standard_suite(30, seed=42)
    second = standard_suite(30, seed=42)
    assert first == second
    assert len(first) == 30
    assert {net.n for net in first} == {3, 4, 5, 6, 7}


def test_suite_networks_are_valid():
    for net in standard_suite(20, seed=11):
        classify(net)  # must not raise


def test_seeds_pin_the_same_edge_sets():
    """Edge sets recorded before the draw comparison moved to integers; any
    change to how ``random()`` draws are compared with the probability
    must leave every one of them intact."""
    recorded = json.loads(PINNED.read_text(encoding="utf-8"))
    for case in recorded:
        net = generate_random(case["nodes"], F(case["edge_prob"]), seed=case["seed"])
        masks = [coalition(net.successors(i)) for i in range(net.n)]
        assert masks == case["succ_masks"], case
