"""Convexity and concavity by the definition: every pair of coalitions.

Supermodularity asks ``v(S) + v(T) <= v(S | T) + v(S & T)`` for all S, T;
submodularity asks the reverse.  This scan compares about 2^(2n-1) pairs,
so it is a test oracle for the local second-difference test in
``hierpower.games``, not a way to decide either property.
"""

from __future__ import annotations

from hierpower import TUGame


def is_convex_pairs(v: TUGame) -> bool:
    """Exhaustive supermodularity check over all coalition pairs."""
    w = v.worths
    for h in range(1 << v.n):
        for k in range(h, 1 << v.n):
            if w[h] + w[k] > w[h | k] + w[h & k]:
                return False
    return True


def is_concave_pairs(v: TUGame) -> bool:
    """Exhaustive submodularity check over all coalition pairs."""
    w = v.worths
    for h in range(1 << v.n):
        for k in range(h, 1 << v.n):
            if w[h] + w[k] < w[h | k] + w[h & k]:
                return False
    return True
