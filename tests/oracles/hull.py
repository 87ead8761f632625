"""Exact convex-hull membership via a rational phase-1 simplex.

Decides whether a point is a convex combination of a finite vertex set
by solving the feasibility system (weights nonnegative, summing to one,
reproducing the point) with Bland's rule over Fractions.  No floating
point is involved, so answers are exact at the scale used here (few
dimensions, modest vertex counts).

A test oracle: the Core is the hull of the simple subnetworks' out-degree
gauges, so this linear program checks the min-cut Core test independently.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from hierpower.rationals import as_exact


def in_convex_hull(point: Sequence, vertices: Sequence[Sequence]) -> bool:
    """True when ``point`` lies in the convex hull of ``vertices``."""
    verts = [tuple(Fraction(as_exact(c)) for c in v) for v in vertices]
    x = tuple(Fraction(as_exact(c)) for c in point)
    if not verts:
        return False
    dim = len(x)
    if any(len(v) != dim for v in verts):
        raise ValueError("point and vertices must share one dimension")

    # Feasibility of: sum_i w_i * verts[i] = x, sum_i w_i = 1, w >= 0.
    rows = [[verts[i][r] for i in range(len(verts))] for r in range(dim)]
    rows.append([Fraction(1)] * len(verts))
    rhs = [*x, Fraction(1)]
    return _phase_one_feasible(rows, rhs)


def _phase_one_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Whether A w = b admits w >= 0: minimise the artificial total to zero.

    Full tableau with explicit artificial columns and Bland's pivoting
    rule on both entering and leaving variables, so termination is
    guaranteed even on degenerate systems.
    """
    m = len(rows)
    k = len(rows[0])
    zero, one = Fraction(0), Fraction(1)

    tab: list[list[Fraction]] = []
    for r in range(m):
        row = list(rows[r])
        b = rhs[r]
        if b < 0:
            row = [-c for c in row]
            b = -b
        row.extend(one if a == r else zero for a in range(m))
        row.append(b)
        tab.append(row)
    basis = [k + r for r in range(m)]

    # Cost row for min(sum of artificials), reduced against the all-artificial
    # basis; its last entry is minus the current objective value.
    cost = [zero] * k + [one] * m + [zero]
    for row in tab:
        cost = [c - t for c, t in zip(cost, row)]

    width = k + m
    while True:
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            return -cost[-1] == 0
        leaving = None
        best: Fraction | None = None
        for r in range(m):
            coef = tab[r][entering]
            if coef > 0:
                ratio = tab[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            # Objective is bounded below by zero, so this cannot occur; bail
            # out defensively rather than loop.
            return False
        piv = tab[leaving][entering]
        tab[leaving] = [c / piv for c in tab[leaving]]
        for r in range(m):
            if r != leaving and tab[r][entering] != 0:
                factor = tab[r][entering]
                tab[r] = [c - factor * d for c, d in zip(tab[r], tab[leaving])]
        if cost[entering] != 0:
            factor = cost[entering]
            cost = [c - factor * d for c, d in zip(cost, tab[leaving])]
        basis[leaving] = entering
