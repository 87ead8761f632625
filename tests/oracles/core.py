"""Core membership by Fraction subset sums, one coalition at a time.

Each coalition's payoff is the payoff of the coalition without its
lowest member plus that member's entry, added as Fractions, and the
first coalition in ascending mask order paid less than its worth is the
witness.  This is the test oracle for ``hierpower.games.coalition_payoffs``
and ``find_core_violation``, which add integer numerators over one
common denominator instead.
"""

from __future__ import annotations

from fractions import Fraction

from hierpower import TUGame


def subset_payoffs(x) -> list[Fraction]:
    """What ``x`` pays each coalition, indexed by mask."""
    sums = [Fraction(0)] * (1 << len(x))
    for h in range(1, len(sums)):
        low = h & -h
        sums[h] = sums[h ^ low] + x[low.bit_length() - 1]
    return sums


def first_deficient_coalition(v: TUGame, x) -> int | None:
    """Smallest coalition mask that ``x`` pays less than its worth in ``v``."""
    sums = subset_payoffs(x)
    for h, worth in enumerate(v.worths):
        if sums[h] < worth:
            return h
    return None
