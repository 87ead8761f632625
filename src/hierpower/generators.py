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
