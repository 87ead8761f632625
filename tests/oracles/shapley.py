"""Shapley value by its definition: the average over all n! arrival orders.

Each player's marginal contribution is added as a Fraction in every
order, so this walk shares nothing with ``hierpower.games``: neither the
dividend route of ``shapley`` nor the integer weighted-marginal formula
of ``shapley_permutation``.  O(n * n!) steps, a test oracle for n <= 7.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hierpower import TUGame


def shapley_by_orders(v: TUGame) -> tuple[Fraction, ...]:
    """Each player's marginal contribution averaged over every arrival order."""
    orders = list(itertools.permutations(range(v.n)))
    totals = [Fraction(0)] * v.n
    for order in orders:
        mask = 0
        for i in order:
            totals[i] += v.worths[mask | 1 << i] - v.worths[mask]
            mask |= 1 << i
    return tuple(t / len(orders) for t in totals)
