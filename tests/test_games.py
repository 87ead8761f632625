import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpower import (
    BALANCED_PROPENSITY,
    INFINITE_PROPENSITY,
    EfficiencyError,
    Imputation,
    NotRegularError,
    TUGame,
    coalition,
    dual,
    find_core_violation,
    gately,
    generate_random,
    harsanyi_dividends,
    in_core,
    is_concave,
    is_convex,
    marginal,
    propensity_to_disrupt,
    shapley,
    shapley_permutation,
    strong_successor_game,
    strong_successors,
    successor_game,
)
from hierpower import games as games_module
from hierpower.errors import CapExceededError
from hierpower.games import coalition_payoffs
from tests.builders import additive_game, unanimity_game, weak_successors
from tests.oracles.convexity import is_concave_pairs, is_convex_pairs
from tests.oracles.core import first_deficient_coalition, subset_payoffs
from tests.oracles.shapley import shapley_by_orders

F = Fraction


# --- independent oracles --------------------------------------------------------

def moebius_oracle(v: TUGame) -> list:
    """Direct inclusion-exclusion over subsets; independent of the transform."""
    out = []
    for h in range(1 << v.n):
        total = 0
        t = h
        while True:
            sign = -1 if (bin(h ^ t).count("1")) % 2 else 1
            total += sign * v.worths[t]
            if t == 0:
                break
            t = (t - 1) & h
        out.append(total)
    return out


def majority_game() -> TUGame:
    """Three players; a coalition wins exactly when it has two or more members."""
    return TUGame(3, [0, 0, 0, 1, 0, 1, 1, 1])


def sample_games() -> list[TUGame]:
    games = [
        majority_game(),
        unanimity_game(4, coalition([1, 3])),
        additive_game([3, F(-1, 2), F(7, 4), 2]),
        TUGame(3, [0, 2, -1, 4, 0, F(1, 2), 3, F(9, 2)]),
    ]
    for seed in (1, 2, 3):
        net = generate_random(5, F(1, 2), seed=seed)
        games.append(successor_game(net))
        games.append(strong_successor_game(net))
    return games


@st.composite
def fraction_games(draw) -> TUGame:
    n = draw(st.integers(min_value=1, max_value=5))
    worths = [0] + [
        draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
        for _ in range((1 << n) - 1)
    ]
    return TUGame(n, worths)


def game_around(x: list, slack) -> TUGame:
    """A game worth what ``x`` pays each coalition less ``slack(h)``, and
    exactly what it pays the grand coalition."""
    sums = subset_payoffs(x)
    full = len(sums) - 1
    return TUGame(len(x), [0] + [sums[h] - (slack(h) if h != full else 0)
                                 for h in range(1, full + 1)])


@st.composite
def allocations_and_games(draw) -> tuple[Imputation, TUGame]:
    """Mixed-denominator payoffs and a Fraction-worth game they distribute;
    the game sits at or below the payoffs (so they are in its Core) when
    ``inside`` is drawn, and anywhere around them otherwise."""
    n = draw(st.integers(min_value=1, max_value=5))
    x = draw(st.lists(st.fractions(min_value=-2, max_value=4, max_denominator=12),
                      min_size=n, max_size=n))
    inside = draw(st.booleans())
    low = 0 if inside else -1
    slacks = draw(st.lists(st.fractions(min_value=low, max_value=2, max_denominator=7),
                           min_size=1 << n, max_size=1 << n))
    return Imputation(x), game_around(x, slacks.__getitem__)


@st.composite
def small_games(draw) -> TUGame:
    n = draw(st.integers(min_value=0, max_value=4))
    worths = [0] + [
        draw(st.integers(min_value=-5, max_value=5)) for _ in range((1 << n) - 1)
    ]
    return TUGame(n, worths)


@st.composite
def oracle_games(draw) -> TUGame:
    """Int or Fraction worths for up to seven players, the walk oracle's reach."""
    n = draw(st.integers(min_value=0, max_value=7))
    entries = draw(st.sampled_from([
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    ]))
    return TUGame(n, [0] + [draw(entries) for _ in range((1 << n) - 1)])


# --- construction ---------------------------------------------------------------

class TestTUGame:
    def test_empty_coalition_must_be_zero(self):
        with pytest.raises(ValueError, match="empty coalition"):
            TUGame(1, [1, 0])

    def test_table_length(self):
        with pytest.raises(ValueError, match="need 4 worths"):
            TUGame(2, [0, 1])

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            TUGame(1, [0, 0.5])

    def test_accepts_fraction_strings(self):
        game = TUGame(1, [0, "3/4"])
        assert game.worth(1) == F(3, 4)

    def test_additive_game(self):
        game = additive_game([1, 2, 4])
        assert game.worth(coalition([0, 2])) == 5
        assert game.grand_worth() == 7


# --- successor representations --------------------------------------------------

class TestSuccessorGames:
    def test_fig1_worths(self, fig1):
        game = successor_game(fig1)
        assert game.worth(coalition([2])) == 2
        assert game.grand_worth() == 3

    def test_fig2_star_node(self, fig2):
        assert successor_game(fig2).worth(coalition([0])) == 4

    def test_edgeless_is_zero_game(self, edgeless):
        assert set(successor_game(edgeless).worths) == {0}
        assert set(strong_successor_game(edgeless).worths) == {0}

    def test_strong_fig1_controlling_pair(self, fig1):
        game = strong_successor_game(fig1)
        assert game.worth(coalition([0, 1])) == 1
        assert game.grand_worth() == 3

    def test_strong_fig1_singletons_all_zero(self, fig1):
        game = strong_successor_game(fig1)
        assert all(game.worth(1 << i) == 0 for i in range(fig1.n))

    def test_cap_refusal(self, fig1):
        with pytest.raises(CapExceededError):
            successor_game(fig1, cap=7)

    def test_tables_count_the_reach_sets(self):
        # Every entry against the reach sets of the definitions, coalition by
        # coalition, from one node to 1,024 coalitions, edgeless nets included.
        for n in range(1, 11):
            for p in (F(0), F(1, 4), F(1, 2), F(1)):
                net = generate_random(n, p, seed=31 * n + p.numerator)
                weak, strong = successor_game(net), strong_successor_game(net)
                for h in range(1 << n):
                    assert weak.worths[h] == weak_successors(net, h).bit_count()
                    assert strong.worths[h] == strong_successors(net, h).bit_count()

    @given(st.integers(min_value=0, max_value=40))
    def test_tables_hold_ints_as_the_public_constructor_would(self, seed):
        net = generate_random(5, F(1, 2), seed=seed)
        for game in (successor_game(net), strong_successor_game(net)):
            for table in (game, dual(game)):
                assert all(type(w) is int for w in table.worths)
                assert table == TUGame(net.n, list(table.worths))


# --- packed tables --------------------------------------------------------------

def boundary_fields(k: int, length: int) -> list[int]:
    """0, 255, 256 and 2**(8k) - 1 in turn (those that fit k bytes), except
    in every second run of 4,096 fields, which holds only 0 and 255."""
    wide = [v for v in (0, 255, 256, (1 << 8 * k) - 1) if v < 1 << 8 * k]
    return [(0, 255)[i % 2] if i >> 12 & 1 else wide[i % len(wide)] for i in range(length)]


def unpacked(table: int, k: int, count: int, off: int = 0) -> list[int]:
    """The fields of ``table`` less ``off``, as one list."""
    return list(games_module._unpack(table, k, count, off))


class TestPackedFields:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_single_field_round_trip(self, k):
        for value in (0, 255, 256, (1 << 8 * k) - 1):
            if value < 1 << 8 * k:
                table = games_module._pack([value], k)
                assert table == value
                assert unpacked(table, k, 1) == [value]

    @pytest.mark.parametrize("length", [1 << 12, (1 << 12) + 1, (1 << 13) + 1, 1 << 14])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_round_trip_across_blocks(self, k, length):
        # Runs of wide values alternate with runs of one-byte values: at k = 1
        # every value fits one byte (the slice path), past it 256 does not.
        values = boundary_fields(k, length)
        table = games_module._pack(values, k)
        assert table == int.from_bytes(b"".join(v.to_bytes(k, "little") for v in values), "little")
        assert unpacked(table, k, length) == values
        off = 1 << 8 * k - 1
        assert unpacked(table, k, length, off) == [v - off for v in values]


def straddling_games() -> list[TUGame]:
    """Integer tables whose entries, less their minimum, lie either all below
    256 or on both sides of 255/256: one-byte-plane and multi-plane packs."""
    rng = random.Random(255)
    games = []
    for _ in range(40):
        n = rng.randint(2, 5)
        singles = additive_game([rng.choice((1, 64, 85, 127, 128)) for _ in range(n)])
        carriers = {rng.randrange(1, 1 << n): rng.choice((-2, -1, 1, 2, 129)) for _ in range(3)}
        games.append(TUGame(n, [
            w + sum(c for t, c in carriers.items() if h & t == t)
            for h, w in enumerate(singles.worths)
        ]))
        entries = [rng.choice((1, 254, 255, 256, 257)) for _ in range(1, 1 << n)]
        games.append(TUGame(n, [0, *entries]))
    return games


class TestStraddlingTables:
    def test_both_pack_paths_occur(self):
        spans = {max(g.worths) - min(g.worths) >= 256 for g in straddling_games()}
        assert spans == {True, False}

    def test_dividends_match_the_moebius_oracle(self):
        for game in straddling_games():
            assert list(harsanyi_dividends(game)) == moebius_oracle(game)

    def test_shapes_match_the_pair_scan(self):
        verdicts = set()
        for game in straddling_games():
            verdict = is_convex(game), is_concave(game)
            assert verdict == (is_convex_pairs(game), is_concave_pairs(game))
            verdicts.add(verdict)
        assert verdicts == {(True, False), (False, True), (False, False), (True, True)}


# --- dual -----------------------------------------------------------------------

class TestDual:
    def test_fig1_duality(self, fig1):
        assert dual(successor_game(fig1)) == strong_successor_game(fig1)

    def test_zero_game_self_dual(self):
        zero = TUGame(3, [0] * 8)
        assert dual(zero) == zero

    def test_additive_game_self_dual(self):
        game = additive_game([3, F(-1, 2), F(7, 4), 2])
        assert dual(game) == game

    @given(small_games())
    def test_involution(self, game):
        assert dual(dual(game)) == game

    @given(st.integers(min_value=0, max_value=60))
    def test_duality_on_random_networks(self, seed):
        net = generate_random(6, F(1, 2), seed=seed)
        assert dual(successor_game(net)) == strong_successor_game(net)
        assert dual(strong_successor_game(net)) == successor_game(net)


# --- convexity ------------------------------------------------------------------

class TestShape:
    def test_strong_game_is_convex(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            assert is_convex(strong_successor_game(net))

    def test_successor_game_is_concave(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            assert is_concave(successor_game(net))

    def test_unanimity_game_is_convex(self):
        assert is_convex(unanimity_game(4, coalition([0, 2])))

    def test_non_convex_game_detected(self):
        assert not is_convex(majority_game())

    def test_unanimity_game_is_not_concave(self):
        v = unanimity_game(2, coalition([0, 1]))
        assert is_convex(v)
        assert not is_concave(v)

    def test_additive_game_is_convex_and_concave(self):
        v = additive_game([1, F(1, 2), -3])
        assert is_convex(v)
        assert is_concave(v)

    @pytest.mark.parametrize("scale", [1, 2 ** 40 + 1])
    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_tables_past_one_pack_chunk(self, n, scale):
        # 4,096 to 16,384 coalitions, packed in one pass: the only nonzero
        # second differences sit at the top of the table, in its last fields.
        v = TUGame(n, [scale * w for w in unanimity_game(n, (1 << n) - 1).worths])
        assert (is_convex(v), is_concave(v)) == (True, False)
        negated = TUGame(n, [-w for w in v.worths])
        assert (is_convex(negated), is_concave(negated)) == (False, True)

    @given(st.integers(min_value=0, max_value=60))
    def test_shapes_on_random_networks(self, seed):
        net = generate_random(5, F(3, 4), seed=seed)
        assert is_convex(strong_successor_game(net))
        assert is_concave(successor_game(net))


def signed_unanimity_sum(rng: random.Random, n: int) -> TUGame:
    """A few unanimity games with random signed, partly fractional weights."""
    terms = [
        (rng.randrange(1, 1 << n), rng.choice((-2, -1, F(-1, 2), F(1, 3), 1, 2)))
        for _ in range(rng.randint(1, 4))
    ]
    return TUGame(n, [
        sum((c for carrier, c in terms if h & carrier == carrier), 0) for h in range(1 << n)
    ])


@st.composite
def dividend_games(draw) -> TUGame:
    """Worths summed from random Fraction dividends, zero for most coalitions,
    so that convex, concave and neither all occur."""
    n = draw(st.integers(min_value=1, max_value=4))
    dividend = st.one_of(
        st.just(F(0)), st.fractions(min_value=-2, max_value=2, max_denominator=4)
    )
    div = [F(0)] + [draw(dividend) for _ in range((1 << n) - 1)]
    worths = [sum((div[t] for t in range(h + 1) if t & h == t), F(0)) for h in range(1 << n)]
    return TUGame(n, worths)


def wide_games() -> list[TUGame]:
    """Signed unanimity sums, scaled, shifted by large additive games, or
    spread over large denominators."""
    rng = random.Random(4096)
    games = []
    for scale in (1, 257, -(2 ** 8) - 1, 2 ** 40 + 3, -(2 ** 41), 2 ** 70 + 1,
                  F(1, 10 ** 12 + 39), F(-(2 ** 50), 999_999_937)):
        for _ in range(12):
            n = rng.randint(1, 6)
            base = signed_unanimity_sum(rng, n)
            shift = additive_game([rng.randint(-(2 ** 45), 2 ** 45) for _ in range(n)])
            games.append(TUGame(n, [w * scale for w in base.worths]))
            games.append(TUGame(n, [w * scale + a for w, a in zip(base.worths, shift.worths)]))
        games.append(additive_game([scale, -scale]))
    return games


class TestShapeMatchesPairScan:
    """The local second-difference test against the definition's pair scan."""

    @staticmethod
    def assert_same_verdicts(v: TUGame) -> tuple[bool, bool]:
        convex, concave = is_convex(v), is_concave(v)
        assert convex == is_convex_pairs(v)
        assert concave == is_concave_pairs(v)
        return convex, concave

    def test_successor_games_of_seeded_networks(self):
        verdicts = []
        for n in range(2, 9):
            for p in (F(1, 8), F(1, 4), F(1, 2), F(3, 4)):
                net = generate_random(n, p, seed=100 * n + p.denominator)
                for game in (successor_game(net), strong_successor_game(net)):
                    verdicts.append(self.assert_same_verdicts(game))
        # the weak game is concave and the strong one convex, but not conversely
        assert {convex for convex, _ in verdicts} == {True, False}
        assert {concave for _, concave in verdicts} == {True, False}

    def test_signed_unanimity_sums(self):
        rng = random.Random(2024)
        verdicts = [
            self.assert_same_verdicts(signed_unanimity_sum(rng, rng.randint(1, 6)))
            for _ in range(600)
        ]
        convex = sum(c for c, _ in verdicts)
        concave = sum(c for _, c in verdicts)
        assert 100 < convex < 500
        assert 100 < concave < 500

    @given(dividend_games())
    def test_fraction_tables(self, game):
        self.assert_same_verdicts(game)

    @pytest.mark.parametrize("scale", [1, -1, 2 ** 8, -(2 ** 24), 2 ** 56])
    @pytest.mark.parametrize("worths", [[0, 84, 117, 7], [0, 42, 58, 3]])
    def test_second_difference_near_twice_the_largest_entry(self, worths, scale):
        # Entries just under 2^7 (or 2^6) times |scale|, and a second
        # difference of -194 (or -97) times scale: the field needs a bias bit
        # and a sign bit above the entries, at every field width.
        game = TUGame(2, [w * scale for w in worths])
        expected = (False, True) if scale > 0 else (True, False)
        assert self.assert_same_verdicts(game) == expected

    def test_wide_fields(self):
        # Worths past one byte, past 2^40 and past 2^64, negative ones, and
        # Fractions over large denominators all need fields wider than a
        # byte; a huge additive part leaves the second differences small.
        verdicts = set()
        for game in wide_games():
            verdicts.add(self.assert_same_verdicts(game))
        assert verdicts == {(True, False), (False, True), (False, False), (True, True)}


# --- dividends and Shapley ------------------------------------------------------

class TestDividends:
    def test_majority_game_frozen_values(self):
        # Derived with moebius_oracle: pair coalitions carry 1, the grand
        # coalition carries -2, everything else 0.
        div = harsanyi_dividends(majority_game())
        assert list(div) == [0, 0, 0, 1, 0, 1, 1, -2]
        assert list(div) == moebius_oracle(majority_game())

    def test_matches_oracle_on_sample_games(self):
        for game in sample_games():
            assert list(harsanyi_dividends(game)) == moebius_oracle(game)

    def test_matches_oracle_on_wide_fields(self):
        for game in wide_games():
            assert list(harsanyi_dividends(game)) == moebius_oracle(game)

    @pytest.mark.parametrize("n, bits", [(4, 4), (4, 12), (6, 26), (6, 58), (3, 61)])
    def test_dividends_at_the_width_bound(self, n, bits):
        # Worths +-(2^bits - 1) alternating with coalition size: the grand
        # coalition's dividend is (2^n - 1) times the largest worth, past what
        # a field of n + bits bits holds.
        top = (1 << bits) - 1
        for sign in (1, -1):
            game = TUGame(n, [0] + [sign * top * (-1) ** h.bit_count() for h in range(1, 1 << n)])
            div = harsanyi_dividends(game)
            assert list(div) == moebius_oracle(game)
            assert abs(div[-1]) == ((1 << n) - 1) * top

    def test_int_tables_give_ints(self):
        div = harsanyi_dividends(TUGame(2, [0, -(2 ** 70), 3, 2 ** 80]))
        assert div == (0, -(2 ** 70), 3, 2 ** 80 + 2 ** 70 - 3)
        assert all(type(d) is int for d in div)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_dividends_past_one_pack_chunk(self, n):
        # Unanimity games on carriers across the table plus an additive part,
        # over 4,096 to 16,384 coalitions packed in one pass.
        full = (1 << n) - 1
        weights = {full: 7, full ^ 1: -3, 0b1011 << n - 4: 2 ** 33, 0b110: -1}
        singles = [(-1) ** i * i for i in range(n)]
        worths = [
            sum(c for t, c in weights.items() if h & t == t)
            + sum(singles[i] for i in range(n) if h >> i & 1)
            for h in range(1 << n)
        ]
        expected = [weights.get(h, 0) for h in range(1 << n)]
        for i, a in enumerate(singles):
            expected[1 << i] += a
        assert list(harsanyi_dividends(TUGame(n, worths))) == expected

    def test_additive_game_supported_on_singletons(self):
        div = harsanyi_dividends(additive_game([2, -3, F(1, 2)]))
        for h, d in enumerate(div):
            if bin(h).count("1") != 1:
                assert d == 0

    def test_strong_game_dividends_are_predecessor_multiset(self, fig1):
        div = harsanyi_dividends(strong_successor_game(fig1))
        expected = {coalition([0, 1]): 1, coalition([2, 3, 4]): 2}
        assert {h: d for h, d in enumerate(div) if d} == expected

    @given(small_games())
    def test_reconstruction_identity(self, game):
        div = harsanyi_dividends(game)
        for h in range(1 << game.n):
            total = 0
            t = h
            while True:
                total += div[t]
                if t == 0:
                    break
                t = (t - 1) & h
            assert total == game.worth(h)


class TestShapley:
    def test_fig1_equals_equal_split_vector(self, fig1):
        expected = (F(1, 2), F(1, 2), F(2, 3), F(2, 3), F(2, 3), 0, 0, 0)
        assert tuple(shapley(successor_game(fig1))) == expected

    def test_additive_game_gets_singleton_worths(self):
        values = [3, F(-1, 2), F(7, 4), 2]
        assert list(shapley(additive_game(values))) == values

    def test_majority_game_symmetric_split(self):
        assert tuple(shapley(majority_game())) == (F(1, 3), F(1, 3), F(1, 3))

    def test_matches_permutation_oracle_on_sample_games(self):
        for game in sample_games():
            assert tuple(shapley(game)) == tuple(shapley_permutation(game))

    def test_permutation_oracle_on_fraction_worths(self):
        # player 0: (1/3 + (3/2 - 1/2)) / 2; player 1: (1/2 + (3/2 - 1/3)) / 2
        game = TUGame(2, [0, F(1, 3), F(1, 2), F(3, 2)])
        assert tuple(shapley_permutation(game)) == (F(2, 3), F(5, 6))
        assert tuple(shapley(game)) == (F(2, 3), F(5, 6))

    @given(small_games())
    def test_matches_permutation_oracle(self, game):
        assert tuple(shapley(game)) == tuple(shapley_permutation(game))

    def test_given_dividends_are_not_recomputed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("shapley recomputed the dividends it was given")

        games = wide_games()
        for seed in (1, 2, 3):
            net = generate_random(7, F(1, 2), seed=seed)
            games += [successor_game(net), strong_successor_game(net)]
        cases = [(game, harsanyi_dividends(game), shapley(game)) for game in games]
        monkeypatch.setattr(games_module, "harsanyi_dividends", refuse)
        for game, dividends, expected in cases:
            assert games_module._shapley_from_dividends(game.n, dividends) == expected

    def test_zero_player_game(self):
        assert harsanyi_dividends(TUGame(0, [0])) == (0,)
        assert tuple(shapley(TUGame(0, [0]))) == ()

    @settings(max_examples=50)
    @given(fraction_games())
    def test_matches_permutation_oracle_on_fraction_worths(self, game):
        assert tuple(shapley(game)) == tuple(shapley_permutation(game))

    @given(st.integers(min_value=0, max_value=60))
    def test_same_value_for_both_representations(self, seed):
        net = generate_random(5, F(1, 2), seed=seed)
        assert tuple(shapley(successor_game(net))) == tuple(
            shapley(strong_successor_game(net))
        )

    def test_permutation_oracle_adds_no_fractions(self, monkeypatch):
        nets = [generate_random(n, p, seed=seed) for n in range(1, 7)
                for p in (F(1, 4), F(1, 2), F(3, 4)) for seed in (1, 2)]

        def refuse(self, other):
            raise AssertionError("a Fraction addition")

        monkeypatch.setattr(Fraction, "__add__", refuse)
        monkeypatch.setattr(Fraction, "__radd__", refuse)
        for net in nets:
            for game in (successor_game(net), strong_successor_game(net)):
                assert tuple(shapley_permutation(game)) == tuple(shapley(game))

    @settings(max_examples=50, deadline=None)
    @given(oracle_games())
    def test_permutation_oracle_equals_a_fraction_average(self, game):
        assert tuple(shapley_permutation(game)) == shapley_by_orders(game)

    @pytest.mark.parametrize("n", range(8))
    def test_weighted_marginals_equal_the_order_walk_at_each_size(self, n):
        rng = random.Random(n)
        entries = (lambda: rng.randint(-(2 ** 40), 2 ** 40),
                   lambda: F(rng.randint(-99, 99), rng.randint(1, 30)))
        games = [TUGame(n, [0] + [draw() for _ in range((1 << n) - 1)]) for draw in entries]
        if n:
            net = generate_random(n, F(1, 2), seed=n)
            games += [successor_game(net), strong_successor_game(net)]
        for game in games:
            assert tuple(shapley_permutation(game)) == shapley_by_orders(game)

    def test_permutation_oracle_reads_no_dividends(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle took the dividend route")

        games = [*sample_games(), TUGame(7, [0] + [h % 11 - 5 for h in range(1, 128)])]
        cases = [(game, shapley_by_orders(game)) for game in games]
        monkeypatch.setattr(games_module, "harsanyi_dividends", refuse)
        monkeypatch.setattr(games_module, "shapley", refuse)
        for game, expected in cases:
            assert tuple(shapley_permutation(game)) == expected


# --- marginal contributions -----------------------------------------------------

class TestMarginal:
    def test_strong_game_marginal_is_out_degree(self, fig1):
        assert marginal(strong_successor_game(fig1), 2) == 2

    def test_successor_game_marginal_is_solo_count(self, fig1):
        assert marginal(successor_game(fig1), 0) == 0

    def test_zero_game(self):
        assert marginal(TUGame(2, [0, 0, 0, 0]), 1) == 0

    def test_rejects_unknown_player(self):
        with pytest.raises(ValueError):
            marginal(TUGame(2, [0, 0, 0, 0]), 2)


# --- disruption-balancing value -------------------------------------------------

class TestGately:
    def test_fig1_successor_game(self, fig1):
        expected = (F(3, 8), F(3, 8), F(3, 4), F(3, 4), F(3, 4), 0, 0, 0)
        assert tuple(gately(successor_game(fig1))) == expected

    def test_fig1_strong_game_agrees(self, fig1):
        assert tuple(gately(strong_successor_game(fig1))) == tuple(
            gately(successor_game(fig1))
        )

    def test_additive_game_degenerate_case(self):
        values = [3, F(-1, 2), F(7, 4), 2]
        assert list(gately(additive_game(values))) == values

    def test_refuses_irregular_game(self):
        # Stand-alone total 0 and marginal total 6 both sit below the grand
        # worth 12, so neither the gain nor the cost reading applies.
        worths = [0, 0, 0, 10, 0, 10, 10, 12]
        with pytest.raises(NotRegularError):
            gately(TUGame(3, worths))

    @pytest.mark.parametrize("pairs, grand, expected", [
        (-1, 0, (0, 0, 0)),  # grand worth = stand-alone total 0, marginal total 3
        (2, 3, (1, 1, 1)),  # grand worth = marginal total 3, stand-alone total 0
        (1, 0, (0, 0, 0)),  # cost reading: grand = stand-alone 0, marginal -3
        (-2, -3, (-1, -1, -1)),  # cost reading: grand = marginal total -3
    ])
    def test_grand_worth_on_either_bound(self, pairs, grand, expected):
        # Singles worth 0, each pair worth ``pairs``: the grand worth sits
        # exactly on one end of the regular range, which is allowed.
        game = TUGame(3, [0, 0, 0, pairs, 0, pairs, pairs, grand])
        assert gately(game) == expected

    def test_output_is_efficient_whenever_defined(self):
        defined = 0
        for game in sample_games():
            try:
                values = gately(game)
            except NotRegularError:
                continue
            defined += 1
            assert values.total() == game.grand_worth()
        assert defined >= 8  # all successor representations qualify

    @given(st.integers(min_value=0, max_value=60))
    def test_same_value_for_both_representations(self, seed):
        net = generate_random(6, F(1, 2), seed=seed)
        assert tuple(gately(successor_game(net))) == tuple(
            gately(strong_successor_game(net))
        )


class TestPropensity:
    def test_fig1_balanced_at_gately_point(self, fig1):
        game = successor_game(fig1)
        x = gately(game)
        for i in range(5):
            assert propensity_to_disrupt(game, x, i) == F(8, 5)
        for i in (5, 6, 7):
            assert propensity_to_disrupt(game, x, i) is BALANCED_PROPENSITY

    def test_fig1_unbalanced_at_equal_split_point(self, fig1):
        game = successor_game(fig1)
        x = shapley(game)
        assert propensity_to_disrupt(game, x, 0) == 2
        assert propensity_to_disrupt(game, x, 2) == F(3, 2)

    def test_additive_game_is_balanced_marker(self):
        game = additive_game([1, 2])
        x = Imputation((F(1), F(2)))
        assert propensity_to_disrupt(game, x, 0) is BALANCED_PROPENSITY

    def test_infinite_marker(self):
        game = TUGame(2, [0, 0, 0, 1])
        x = Imputation((F(0), F(1)))
        assert propensity_to_disrupt(game, x, 0) is INFINITE_PROPENSITY

    def test_rejects_inefficient_allocation(self):
        game = TUGame(2, [0, 0, 0, 1])
        with pytest.raises(EfficiencyError):
            propensity_to_disrupt(game, Imputation((F(0), F(0))), 0)


class TestImputation:
    @settings(max_examples=50)
    @given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60))))
    def test_total_equals_fraction_sum(self, values):
        x = Imputation(values)
        assert x.total() == sum(x, F(0))
        assert type(x.total()) is F

    def test_entries_are_fractions(self):
        x = Imputation([1, F(1, 2), "-3/4"])
        assert x == (F(1), F(1, 2), F(-3, 4))
        assert all(type(v) is F for v in x)


# --- core -----------------------------------------------------------------------

class TestCore:
    def test_fig1_gately_point_excluded(self, fig1):
        game = strong_successor_game(fig1)
        x = gately(game)
        assert not in_core(game, x)
        assert find_core_violation(game, x) == coalition([0, 1])

    def test_fig1_shapley_point_included(self, fig1):
        game = strong_successor_game(fig1)
        assert in_core(game, shapley(game))

    def test_zero_game_zero_vector(self):
        game = TUGame(2, [0, 0, 0, 0])
        assert in_core(game, Imputation((F(0), F(0))))

    def test_efficiency_violation_is_an_error_not_false(self, fig1):
        game = strong_successor_game(fig1)
        with pytest.raises(EfficiencyError):
            in_core(game, Imputation(tuple(F(0) for _ in range(fig1.n))))

    def test_efficiency_error_names_the_exact_sum(self):
        game = TUGame(2, [0, 0, 0, 1])
        with pytest.raises(EfficiencyError, match=r"^allocation sums to 5/6, grand worth is 1$"):
            find_core_violation(game, Imputation((F(1, 2), F(1, 3))))

    @settings(max_examples=50)
    @given(allocations_and_games())
    def test_matches_fraction_scan(self, case):
        x, game = case
        sums, unit = coalition_payoffs(x)
        assert [F(s, unit) for s in sums] == subset_payoffs(x)
        assert find_core_violation(game, x) == first_deficient_coalition(game, x)

    def test_matches_fraction_scan_on_seeded_games(self):
        rng = random.Random(2024)
        verdicts = {True: 0, False: 0}
        for k in range(300):
            n = 1 + k % 6
            x = [F(rng.randint(-6, 12), rng.randint(1, 12)) for _ in range(n)]
            low = 0 if k % 2 else -1  # odd k: every coalition is paid at least its worth
            game = game_around(x, lambda h: F(rng.randint(low * 5, 9), rng.randint(1, 5)))
            got = find_core_violation(game, Imputation(x))
            assert got == first_deficient_coalition(game, x), (k, x)
            verdicts[got is None] += 1
        assert min(verdicts.values()) > 60  # both verdicts well represented

    def test_convex_game_contains_its_shapley_point(self):
        for seed in (4, 5, 6):
            net = generate_random(5, F(1, 2), seed=seed)
            game = strong_successor_game(net)
            assert in_core(game, shapley(game))
