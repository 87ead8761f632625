"""Seeded random hierarchical networks.

Edges are drawn independently per ordered pair using Python's Mersenne
Twister (``random.Random``), scanning pairs in row-major order, so a
seed pins the network exactly across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .networks import HierNet
from .rationals import as_exact


def generate_random(n: int, edge_prob: object = Fraction(1, 2), seed: int = 0) -> HierNet:
    """Random network on ``n`` nodes: each ordered pair (i, j), i != j, is an
    edge independently with probability ``edge_prob`` (an exact rational)."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    prob = Fraction(as_exact(edge_prob))
    if not 0 <= prob <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {prob}")
    # random() returns k / 2**53 for an integer k, and k / 2**53 < num / den
    # exactly when k * den < num * 2**53: same draws, same edges, no Fraction.
    draw = random.Random(seed).random
    den, bound = prob.denominator, prob.numerator << 53
    succ: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and int(draw() * 2**53) * den < bound:
                succ[i].add(j)
    return HierNet(n, succ)


# The standard verification suite mixes node counts 3..7 with sparse,
# balanced and dense edge probabilities, one derived seed per network.
SUITE_SIZES = (3, 4, 5, 6, 7)
SUITE_PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def standard_suite(count: int = 200, seed: int = 42) -> list[HierNet]:
    """Deterministic family of small random networks for property suites."""
    nets = []
    for k in range(count):
        n = SUITE_SIZES[k % len(SUITE_SIZES)]
        prob = SUITE_PROBS[(k // len(SUITE_SIZES)) % len(SUITE_PROBS)]
        nets.append(generate_random(n, prob, seed=seed + k))
    return nets
