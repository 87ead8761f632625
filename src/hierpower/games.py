"""Transferable-utility games over coalitions, with exact arithmetic.

Holds the two successor representations of a network (count of nodes a
coalition partially controls, and of nodes it fully controls), generic
game operations (dual, convexity, Harsanyi dividends, Shapley value),
and the disruption-balancing value with its propensity diagnostics.
All worths are exact rationals; no float ever enters a computation.
Only the table builders take the player cap; whole-table steps work on
the 2**n table they build, packed into one int.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .coalitions import Coalition, full_coalition, members
from .errors import CapExceededError, EfficiencyError, NotRegularError
from .networks import HierNet
from .rationals import Exact, _common_denominator, as_exact

DEFAULT_PLAYER_CAP = 24


def _check_player_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError("coalition enumeration", n, cap)


class TUGame:
    """A worth for every coalition of ``n`` players, dense over all 2**n masks.

    The empty coalition is worth zero by definition.  Entries are ints or
    Fractions; floats are rejected.
    """

    __slots__ = ("n", "worths")

    def __init__(self, n: int, worths: list[Exact] | tuple[Exact, ...]):
        if len(worths) != 1 << n:
            raise ValueError(f"need {1 << n} worths for {n} players, got {len(worths)}")
        table = tuple(as_exact(w) for w in worths)
        if table[0] != 0:
            raise ValueError(f"empty coalition must be worth 0, got {table[0]}")
        self.n = n
        self.worths = table

    @classmethod
    def _from_table(cls, n: int, worths: list[Exact]) -> TUGame:
        # Skips coercion and checks: callers build ``worths`` exactly, empty coalition 0.
        game = cls.__new__(cls)
        game.n = n
        game.worths = tuple(worths)
        return game

    def worth(self, h: Coalition) -> Exact:
        return self.worths[h]

    @property
    def grand_coalition(self) -> Coalition:
        return full_coalition(self.n)

    def grand_worth(self) -> Exact:
        return self.worths[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TUGame):
            return NotImplemented
        return self.n == other.n and self.worths == other.worths

    def __hash__(self) -> int:
        return hash((self.n, self.worths))

    def __repr__(self) -> str:
        return f"TUGame(n={self.n})"


class Imputation(tuple):
    """Payoff vector over the players of a game, one Fraction per player.

    Also the type of every power gauge: a gauge is a payoff vector of the
    network's strong successor game.  Entries are coerced exactly; floats
    are rejected.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[Exact] = ()) -> Imputation:
        return super().__new__(cls, (Fraction(as_exact(v)) for v in values))

    @classmethod
    def _from_numerators(cls, numerators: Iterable[int], denominator: int) -> Imputation:
        # Skips coercion: callers pass ints and a positive int denominator.
        return super().__new__(cls, (Fraction(k, denominator) for k in numerators))

    def total(self) -> Fraction:
        numerators, unit = _common_denominator(self)
        return Fraction(sum(numerators), unit)


# --- packed tables -------------------------------------------------------------
# One int holds a table as a k-byte unsigned field per coalition: mask h owns
# bytes k*h .. k*h + k - 1, little-endian.  A right shift by 8k * 2**i bits
# puts t(S + i) in the field of every S without player i.  Whole-table sums
# act field by field while every field's result stays in 0 .. 2**(8k) - 1.

def _pack(values: Iterable[int], k: int) -> int:
    """Nonnegative ``values`` below 2**(8k) as k-byte fields, 4,096 at a time, one
    slice per byte plane up to the first plane that holds every value left."""
    rest, packed = iter(values), bytearray()
    while chunk := list(itertools.islice(rest, 4096)):
        fields = bytearray(k * len(chunk))
        for b in range(k):
            try:  # a table of counts takes one ``bytes`` call at any k
                fields[b::k] = bytes(chunk)
                break
            except ValueError:  # some value is 256 or more: its low byte, then the rest
                fields[b::k] = bytes(map(operator.and_, chunk, itertools.repeat(255)))
                chunk = list(map(operator.rshift, chunk, itertools.repeat(8)))
        packed += fields
    return int.from_bytes(packed, "little")


def _unpack(table: int, k: int, count: int, off: int) -> Iterator[int]:
    """The ``count`` k-byte fields of ``table``, each less ``off``, a multiple of
    256**(k-1), in blocks of 4,096: the top byte plane less off / 256**(k-1),
    then for each lower plane b, 256 times the value so far plus byte b."""
    raw, eight = table.to_bytes(k * count, "little"), itertools.repeat(8)
    for start in range(0, len(raw), k << 12):
        chunk = raw[start:start + (k << 12)]
        values = map(operator.sub, chunk[k - 1::k], itertools.repeat(off >> 8 * k - 8))
        for b in reversed(range(k - 1)):
            values = list(map(operator.add, map(operator.lshift, values, eight), chunk[b::k]))
        yield from values


def _stripes(n: int, i: int, without: bytes, held: bytes) -> int:
    """Packed table of field ``without`` where player ``i`` is out, ``held`` where in."""
    return int.from_bytes((without * (1 << i) + held * (1 << i)) * (1 << n >> i + 1), "little")


def _reach_game(net: HierNet, cap: int, strong: bool) -> TUGame:
    """How many nodes each coalition reaches, one byte each: the sum over the
    dominated nodes of the OR (weak) or AND (strong) of "predecessor i is inside"."""
    _check_player_cap(net.n, cap)
    inside = [_stripes(net.n, i, b"\0", b"\1") for i in range(net.n)]
    combine = operator.and_ if strong else operator.or_
    table = sum(
        functools.reduce(combine, map(inside.__getitem__, pred))
        for pred in net._pred if pred
    )
    return TUGame._from_table(net.n, table.to_bytes(1 << net.n, "little"))


# --- successor representations -------------------------------------------------

def successor_game(net: HierNet, cap: int = DEFAULT_PLAYER_CAP) -> TUGame:
    """Worth of a coalition: how many nodes have a predecessor inside it.
    The player cap is enforced here: more than ``cap`` nodes are refused."""
    return _reach_game(net, cap, strong=False)


def strong_successor_game(net: HierNet, cap: int = DEFAULT_PLAYER_CAP) -> TUGame:
    """Worth of a coalition: how many nodes it fully controls.  The player
    cap is enforced here: more than ``cap`` nodes are refused."""
    return _reach_game(net, cap, strong=True)


# --- generic game operations ---------------------------------------------------

def dual(v: TUGame) -> TUGame:
    """Dual game: what the complement cannot withhold.  An involution."""
    grand = v.grand_worth()
    # the complement of h is full ^ h == full - h: the table read backwards
    return TUGame._from_table(v.n, [grand - w for w in v.worths[::-1]])


def is_convex(v: TUGame) -> bool:
    """Supermodularity: no second difference of the worths is negative."""
    return _second_differences_keep_sign(v, 1)


def is_concave(v: TUGame) -> bool:
    """Submodularity: no second difference of the worths is positive."""
    return _second_differences_keep_sign(v, -1)


def _second_differences_keep_sign(v: TUGame, sign: int) -> bool:
    """True when ``sign * (v(S+i+j) - v(S+i) - v(S+j) + v(S)) >= 0`` for every
    coalition S and players i < j outside it.

    Equivalent to comparing ``v(S) + v(T)`` with ``v(S | T) + v(S & T)``
    over all coalition pairs (Shapley 1971).  The worths over their common
    denominator, less their minimum, fill fields of W = 8k >= bits(E) + 2
    bits, E the largest entry.  Per pair, shifted copies hold the bias
    2**(W-1) plus ``sign`` times the second difference in every field:
    within 2E of the bias, so in range, with the top bit set exactly when
    the difference is not negative.  One AND reads the coalitions without
    i and j.  O(n^2) big-int operations on W * 2**n bits.
    """
    n = v.n
    worths, _ = _common_denominator(v.worths)
    low = min(worths)
    k = ((max(worths) - low).bit_length() + 9) // 8  # ceil((bits(E) + 2) / 8)
    table = _pack(map(operator.sub, worths, itertools.repeat(low)), k)
    top = (1 << 8 * k - 1).to_bytes(k, "little")
    bias = int.from_bytes(top * (1 << n), "little")
    lacking = [_stripes(n, i, top, bytes(k)) for i in range(n)]
    for i in range(n):
        with_i = table >> (8 * k << i)  # field S holds t(S + i)
        for j in range(i + 1, n):
            with_j = table >> (8 * k << j)
            signs = bias + sign * ((with_i >> (8 * k << j)) - with_i - with_j + table)
            tested = lacking[i] & lacking[j]
            if signs & tested != tested:
                return False
    return True


def harsanyi_dividends(v: TUGame) -> tuple[Exact, ...]:
    """Moebius inverse of the worth table, indexed by coalition mask.

    Reconstruction holds: the worth of any coalition is the sum of the
    dividends of its subsets.  The worths over their common denominator
    fill fields of W = 8k >= n + bits(max|w|) + 1 bits, offset by OFF =
    2**(W-1).  Stage i sets D += OFF_i - ((D & CLEAR_i) << W * 2**i): each
    coalition with player i less the one without.  Entries stay within
    2**n * max|w| < OFF, so in range.  O(n) big-int operations on W * 2**n bits.
    """
    n = v.n
    worths, unit = _common_denominator(v.worths)
    low, high = min(worths), max(worths)
    k = (n + max(high, -low).bit_length() + 8) // 8  # ceil((n + bits + 1) / 8)
    off = 1 << 8 * k - 1
    top, zero = off.to_bytes(k, "little"), bytes(k)
    table = int.from_bytes((off + low).to_bytes(k, "little") * (1 << n), "little")
    table += _pack(map(operator.sub, worths, itertools.repeat(low)), k)
    for i in range(n):
        clear = _stripes(n, i, b"\xff" * k, zero)
        table += _stripes(n, i, zero, top) - ((table & clear) << (8 * k << i))
    div = _unpack(table, k, 1 << n, off)  # fields hold d + OFF
    return tuple(div) if unit == 1 else tuple(Fraction(d, unit) for d in div)


def shapley(v: TUGame) -> Imputation:
    """Shapley value via Harsanyi dividends: each coalition's dividend is
    split evenly among its members."""
    return _shapley_from_dividends(v.n, harsanyi_dividends(v))


def _shapley_from_dividends(n: int, dividends: tuple[Exact, ...]) -> Imputation:
    """Shapley value of the n-player game with these Harsanyi dividends."""
    div, unit = _common_denominator(dividends)
    sizes = math.lcm(*range(1, n + 1))  # every coalition size divides it
    out = [0] * n
    for h, d in enumerate(div):
        if d:
            share = d * (sizes // h.bit_count())
            for i in members(h):
                out[i] += share
    return Imputation._from_numerators(out, unit * sizes)


def shapley_permutation(v: TUGame) -> Imputation:
    """Shapley value by the weighted-marginal formula (Shapley 1953): a test
    oracle for ``shapley`` that reads the worths, never the dividends.

    Player i follows S in b(|S|) = |S|!(n-|S|-1)! of the n! orders, so
    n!·φ_i = Σ_{T∋i} (b(|T|-1) + b(|T|))·v(T) − Σ_T b(|T|)·v(T), b = 0 off
    0..n-1: n halvings of the table, O(2^n) integer additions, one division.
    """
    n = v.n
    worths, unit = _common_denominator(v.worths)
    after = [math.factorial(s) * math.factorial(n - s - 1) for s in range(n)] + [0]  # b
    sizes = list(map(int.bit_count, range(1 << n)))
    rest = sum(map(operator.mul, map(after.__getitem__, sizes), worths))
    weight = list(map(operator.add, [0, *after], after))  # b(s - 1) + b(s)
    table = list(map(operator.mul, map(weight.__getitem__, sizes), worths))
    totals = [0] * n
    for i in reversed(range(n)):  # table[h] sums the masks that agree with h below bit i + 1
        totals[i] = sum(table[1 << i:]) - rest
        table = list(map(operator.add, table[:1 << i], table[1 << i:]))
    return Imputation._from_numerators(totals, math.factorial(n) * unit)


def marginal(v: TUGame, i: int) -> Exact:
    """Worth the grand coalition loses if player ``i`` walks away."""
    if not 0 <= i < v.n:
        raise ValueError(f"player {i} outside 0..{v.n - 1}")
    full = v.grand_coalition
    return v.grand_worth() - v.worths[full ^ (1 << i)]


# --- disruption-balancing value ------------------------------------------------

def gately(v: TUGame) -> Imputation:
    """Allocation that equalises every player's propensity to disrupt.

    Each player gets their stand-alone worth plus a share of the joint
    surplus proportional to their marginal stake.  Defined when the grand
    worth sits between the stand-alone total and the marginal total, in
    either order (gain or cost reading); refused otherwise.  When the two
    totals coincide the surplus is zero and the stand-alone vector is
    forced.
    """
    singles = [v.worths[1 << i] for i in range(v.n)]
    margins = [marginal(v, i) for i in range(v.n)]
    low, high, grand = sum(singles), sum(margins), v.grand_worth()
    if not (low <= grand <= high or high <= grand <= low):
        raise NotRegularError(
            "grand worth must lie between the stand-alone total and the "
            f"marginal total: stand-alone {low}, grand {grand}, marginal {high}"
        )
    if high == low:
        return Imputation(singles)
    scale = Fraction(grand - low, high - low)
    return Imputation(s + (m - s) * scale for s, m in zip(singles, margins))


@dataclass(frozen=True, slots=True)
class PropensityMarker:
    """Sentinel for the two degenerate propensity cases."""

    kind: str

    def __repr__(self) -> str:
        return f"<propensity:{self.kind}>"


INFINITE_PROPENSITY = PropensityMarker("infinite")
BALANCED_PROPENSITY = PropensityMarker("balanced")


def propensity_to_disrupt(
    v: TUGame, x: Imputation, i: int
) -> Fraction | PropensityMarker:
    """Marginal stake of player ``i`` relative to their concession at ``x``.

    The ratio (marginal worth - stand-alone worth) / (payoff - stand-alone
    worth); the cost reading negates numerator and denominator and is the
    same number.  A zero concession with a live stake is the infinite
    marker; zero over zero is the balanced marker.
    """
    if x.total() != v.grand_worth():
        raise EfficiencyError(
            f"allocation sums to {x.total()}, grand worth is {v.grand_worth()}"
        )
    num = Fraction(marginal(v, i) - v.worths[1 << i])
    den = x[i] - v.worths[1 << i]
    if den == 0:
        return BALANCED_PROPENSITY if num == 0 else INFINITE_PROPENSITY
    return num / den


# --- core membership -----------------------------------------------------------

def coalition_payoffs(x: Imputation) -> tuple[list[int], int]:
    """Subset sums of a payoff vector over one denominator: ``(sums, unit)``,
    where ``sums[h] / unit`` is what ``x`` pays coalition mask ``h``."""
    numerators, unit = _common_denominator(x)
    sums = [0]
    for k in numerators:  # masks that hold player i follow those that do not
        sums += [s + k for s in sums]
    return sums, unit


def find_core_violation(v: TUGame, x: Imputation) -> Coalition | None:
    """First coalition (ascending mask order) paid less than its worth.

    Raises :class:`EfficiencyError` first when ``x`` does not distribute
    the grand worth, which is a malformed query rather than a refusal.
    """
    if len(x) != v.n:
        raise ValueError(f"allocation has {len(x)} entries for {v.n} players")
    sums, unit = coalition_payoffs(x)
    if sums[-1] != v.grand_worth() * unit:
        raise EfficiencyError(
            f"allocation sums to {Fraction(sums[-1], unit)}, grand worth is {v.grand_worth()}"
        )
    for h, worth in enumerate(v.worths):
        if sums[h] < worth * unit:
            return h
    return None


def in_core(v: TUGame, x: Imputation) -> bool:
    """Exact check that every coalition is paid at least its worth."""
    return find_core_violation(v, x) is None
