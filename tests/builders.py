from fractions import Fraction

from hierpower import HierNet, TUGame, generate_random


def unanimity_game(n: int, carrier: int) -> TUGame:
    return TUGame(n, [int(h & carrier == carrier) for h in range(1 << n)])


def additive_game(values) -> TUGame:
    n = len(values)
    return TUGame(n, [sum((values[i] for i in range(n) if h >> i & 1), 0) for h in range(1 << n)])


def standard_suite(count: int = 200, seed: int = 42) -> list[HierNet]:
    """Network k: 3 + k % 5 nodes, edge probability (1 + k // 5 % 3) / 4, seed + k."""
    return [generate_random(3 + k % 5, Fraction(1 + k // 5 % 3, 4), seed=seed + k)
            for k in range(count)]
