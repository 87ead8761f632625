"""Coalitions as fixed-width bit patterns.

A coalition over nodes ``0..n-1`` is an ``int`` whose bit ``i`` is set
exactly when node ``i`` is a member.  All subset machinery in this
package works on these masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Coalition = int


def coalition(members: Iterable[int]) -> Coalition:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def members(mask: Coalition) -> Iterator[int]:
    """Yield node ids in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_coalition(n: int) -> Coalition:
    return (1 << n) - 1


def check_coalition(mask: Coalition, n: int) -> Coalition:
    """Validate that ``mask`` only mentions nodes below ``n``."""
    if mask < 0 or mask >> n:
        raise ValueError(f"coalition {bin(mask)} mentions nodes outside 0..{n - 1}")
    return mask
