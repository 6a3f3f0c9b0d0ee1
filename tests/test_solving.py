import functools
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from conftest import (
    X1_NUMERATORS,
    Y2_NUMERATORS,
    binary_blocks,
    bordered_fraction_solve,
    canonicalize,
    coordination_game,
    enumerate_pairs,
    extreme_equilibria,
    matching_pennies,
    pad_game,
    random_binary_matrix,
    random_int_matrix,
)
from nashrand import solving
from nashrand.cli import resolve_max_n
from nashrand.errors import DimensionTooLarge
from nashrand.exact import IntMatrix, cofactor_sum, det, eliminate
from nashrand.families import (
    beta_game,
    constant_sum_beta,
    constant_sum_prime_block,
    prime_block_game,
)
from nashrand.games import (
    Game,
    MixedStrategy,
    Profile,
    complexity,
    is_nash,
    pure,
    uniform,
)
from nashrand.solving import (
    _certify,
    _pairs,
    _ruled_out,
    _solve,
    bounded_ne_exists,
    complexity_upper_bound,
    fully_mixed_ne,
    min_complexities,
    pure_nash,
    support_enumeration,
)

# the equilibria are x = (t, 1 - t, 0) against y = e2, t in [1/3, 2/3]; the
# extreme ones pair supports of sizes 2 and 1
UNEQUAL_SUPPORTS = Game(
    IntMatrix([[0, 1, 1], [1, 1, 0], [0, 0, 0]]),
    IntMatrix([[3, 2, 0], [0, 2, 3], [0, 0, 0]]),
)
# two unflagged games whose reports miss a less complex equilibrium
G1 = Game(
    IntMatrix([[2, -1, -1, -1], [2, -1, -1, -1], [0, 2, 0, 0], [1, 1, 0, 2]]),
    IntMatrix([[1, 2, -1, 0], [1, 0, 2, 0], [2, -1, 1, -1], [1, 2, 1, -1]]),
)
G2 = Game(
    IntMatrix([[-2, 1, -1, -1], [-3, 1, -3, 1], [-3, 0, -1, -1], [-3, 0, -1, -2]]),
    IntMatrix([[1, 2, -2, 3], [2, 1, -3, 1], [-3, 3, -1, -2], [1, -2, 0, -2]]),
)


def test_pure_nash_coordination():
    got = pure_nash(coordination_game())
    assert got == [
        Profile(pure(2, 1), pure(2, 1)),
        Profile(pure(2, 2), pure(2, 2)),
    ]


def test_pure_nash_empty_cases():
    assert pure_nash(beta_game(8)) == []
    assert pure_nash(matching_pennies()) == []


def test_support_enumeration_showcase_game(corpus):
    report = support_enumeration(corpus["example1"])
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert eq.x == MixedStrategy(X1_NUMERATORS, 34)
    assert eq.y == uniform(8)
    assert (report.c1_min, report.c2_min) == (34, 8)
    assert not report.degenerate_flag


def test_support_enumeration_constant_sum_showcase(corpus):
    report = support_enumeration(corpus["example2"])
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert eq.x == MixedStrategy(X1_NUMERATORS, 34)
    assert eq.y == MixedStrategy(Y2_NUMERATORS, 34)
    assert (report.c1_min, report.c2_min) == (34, 34)


def test_support_enumeration_coordination():
    report = support_enumeration(coordination_game())
    assert len(report.equilibria) == 3
    kinds = {(p.x.numerators, p.y.numerators) for p in report.equilibria}
    assert kinds == {((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))}
    assert (report.c1_min, report.c2_min) == (1, 1)


def test_coordination_equilibria_by_brute_force_grid():
    # independent route: scan all profiles with denominators up to 8 and
    # keep the best-response-stable ones; the equilibrium set is finite
    # here, so the grid finds exactly the three points enumeration reports
    game = coordination_game()
    grid = [
        MixedStrategy((p // math.gcd(p, q), (q - p) // math.gcd(p, q)),
                      q // math.gcd(p, q))
        for q in range(1, 9)
        for p in range(q + 1)
        if math.gcd(p, math.gcd(q - p, q)) == 1
    ]
    stable = {
        (x.numerators, y.numerators)
        for x in grid
        for y in grid
        if is_nash(game, Profile(x, y))
    }
    assert stable == {((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))}


def test_support_enumeration_respects_limit():
    with pytest.raises(DimensionTooLarge):
        support_enumeration(beta_game(11), max_n=10)


def test_max_n_resolution_precedence(monkeypatch):
    assert resolve_max_n(None) == 10
    monkeypatch.setenv("NASHRAND_MAX_N", "12")
    assert resolve_max_n(None) == 12
    assert resolve_max_n(7) == 7
    monkeypatch.setenv("NASHRAND_MAX_N", "junk")
    with pytest.raises(ValueError):
        resolve_max_n(None)
    # a limit below 1 is refused from either source
    assert resolve_max_n(1) == 1
    for bad in (0, -3):
        with pytest.raises(ValueError):
            resolve_max_n(bad)
        monkeypatch.setenv("NASHRAND_MAX_N", str(bad))
        with pytest.raises(ValueError):
            resolve_max_n(None)
    assert resolve_max_n(5) == 5


def test_library_calls_ignore_the_max_n_environment(corpus, monkeypatch):
    # only the command line reads NASHRAND_MAX_N; library calls keep their limit
    monkeypatch.setenv("NASHRAND_MAX_N", "5")
    example1 = corpus["example1"]
    assert min_complexities(example1) == (34, 8)
    assert bounded_ne_exists(example1, 34, 8) is True


def test_every_reported_equilibrium_is_nash(corpus):
    for game in corpus.values():
        for profile in support_enumeration(game).equilibria:
            assert is_nash(game, profile)


def test_imitation_games_have_nested_supports(corpus):
    # whenever the row player's payoffs are the identity, supp x subseteq
    # supp y and y is uniform on its support
    for game in corpus.values():
        if game.A != IntMatrix.identity(game.n):
            continue
        for profile in support_enumeration(game).equilibria:
            sx = set(profile.x.support())
            sy = set(profile.y.support())
            assert sx <= sy
            seen = {profile.y.numerators[j - 1] for j in sy}
            assert len(seen) == 1


def test_min_complexities_examples(corpus):
    assert min_complexities(corpus["example1"]) == (34, 8)
    assert min_complexities(corpus["example2"]) == (34, 34)
    assert min_complexities(coordination_game()) == (1, 1)


def test_fully_mixed_ne_showcase(corpus):
    profile = fully_mixed_ne(corpus["example1"])
    assert profile is not None
    assert profile.x == MixedStrategy(X1_NUMERATORS, 34)
    assert profile.y == uniform(8)


def test_fully_mixed_ne_coordination():
    profile = fully_mixed_ne(coordination_game())
    assert profile == Profile(uniform(2), uniform(2))


def test_fully_mixed_ne_absent_when_negative():
    game = Game(IntMatrix.identity(2), IntMatrix([[1, 1], [0, 1]]))
    assert fully_mixed_ne(game) is None


def test_fully_mixed_ne_singular():
    # every x is an equilibrium against uniform y, so the x-side system of
    # the full-support pair is singular and the loop accepts no such pair
    game = Game(IntMatrix.identity(2), IntMatrix([[1, 1], [1, 1]]))
    assert fully_mixed_ne(game) is None


def test_fully_mixed_ne_matches_pair_loop_including_singular_games():
    # fully_mixed_ne is the loop's last pair: it returns the oracle's one
    # equilibrium whose two supports are full, or None when there is none
    pennies = IntMatrix([[1, -1], [-1, 1]])  # value 0, and singular
    games = [Game(pennies, IntMatrix([[-1, 1], [1, -1]]))]
    rng = random.Random(1111)
    for lo, hi in ((-2, 2), (0, 1)):
        for _ in range(1000):
            n = rng.randint(2, 4)
            games.append(
                Game(random_int_matrix(rng, n, lo, hi), random_int_matrix(rng, n, lo, hi))
            )
    singular = singular_hits = 0
    for game in games:
        n = game.n
        full = [
            p
            for p in enumerate_pairs(n, game.A.rows, game.B.rows).equilibria
            if len(p.x.support()) == len(p.y.support()) == n
        ]
        assert len(full) <= 1
        got = fully_mixed_ne(game)
        assert got == (full[0] if full else None)
        if det(game.A) == 0 or det(game.B) == 0:
            singular += 1
            singular_hits += got is not None
    assert fully_mixed_ne(games[0]) == Profile(uniform(2), uniform(2))
    assert singular >= 1000 and singular_hits >= 10


def test_bounded_ne_exists_gate(corpus):
    game = corpus["example1"]
    assert bounded_ne_exists(game, 34, 8)
    assert not bounded_ne_exists(game, 33, 8)
    assert not bounded_ne_exists(game, 34, 7)
    assert bounded_ne_exists(coordination_game(), 1, 1)


def test_complexity_upper_bound_matching_pennies():
    assert complexity_upper_bound(matching_pennies()) == (336, 336)


def test_complexity_upper_bound_zero_game_positive():
    zero = IntMatrix([[0, 0], [0, 0]])
    b1, b2 = complexity_upper_bound(Game(zero, zero))
    assert b1 == b2 == 336  # max payoff clamped to 1


def test_complexity_upper_bound_dominates_measured(corpus):
    for game in corpus.values():
        c1, c2 = min_complexities(game)
        b1, b2 = complexity_upper_bound(game)
        assert b1 >= c1 and b2 >= c2


def test_bound_depends_on_opponent_matrix():
    a = IntMatrix([[7, 0], [0, 7]])
    b = IntMatrix([[0, 1], [1, 0]])
    bounds = complexity_upper_bound(Game(a, b))
    assert bounds[0] == complexity_upper_bound(Game(b, b))[0]
    assert bounds[1] == complexity_upper_bound(Game(a, a))[1]


def test_random_binary_matrix_matches_randint():
    # the next test's 30 instances depend on this stream staying the same,
    # whether it is read one matrix at a time or in bulk
    randint = random.Random(404).randint
    want = bytes([randint(0, 1) for _ in range(20_000 * 16)])
    matrices = [want[i:i + 16] for i in range(0, len(want), 16)]
    fast = random.Random(404)
    assert [
        b"".join(map(bytes, random_binary_matrix(fast, 4).rows)) for _ in matrices
    ] == matrices
    blocks = binary_blocks(random.Random(404), 16)
    assert list(islice(blocks, len(matrices))) == matrices


# The first 30 games of the seeded stream below with both payoff matrices
# nonsingular and a fully mixed equilibrium, each matrix as 16 bits,
# row-major, the first entry most significant.
FULLY_MIXED_BINARY_GAMES = [
    (0x8563, 0x358E), (0x2C95, 0x497A), (0x9CA5, 0x7DEB), (0xD7BE, 0xA947),
    (0x9C6A, 0x8412), (0x3A49, 0x16CB), (0x3AD6, 0xB52C), (0xC6B5, 0x94A7),
    (0x9563, 0x92C5), (0xA1C6, 0xE835), (0x59E3, 0x94A3), (0xCA96, 0xE583),
    (0xC935, 0x853E), (0x8365, 0x943A), (0x9C3A, 0x34A9), (0x7BDE, 0xA3D4),
    (0x8563, 0x16BC), (0xDB7E, 0xE953), (0x7C9A, 0x68B5), (0xA936, 0xAC16),
    (0x4812, 0xBD7E), (0x53A9, 0xE439), (0x5C69, 0x72C9), (0x9A35, 0xCB56),
    (0xAC97, 0x27C9), (0x3D6A, 0x29E5), (0x9A43, 0xCB61), (0x952C, 0x56BC),
    (0x4182, 0xE395), (0x6A3D, 0xC6A1),
]


def test_fully_mixed_complexity_bounded_by_cofactor_sum():
    # binary games with a fully mixed equilibrium: the canonical denominators
    # divide the opponent matrix's cofactor sum
    eye = IntMatrix.identity(4)

    # A fully mixed equilibrium of (A, B) pairs the y that makes A's rows
    # indifferent with the x that makes B's columns indifferent, so it
    # exists iff (A, I) and (I, B) have one.  Reordering a matrix's rows
    # flips at most det's sign, keeps y and permutes x, so each check runs
    # once per multiset of rows: C(19, 4) = 3,876 of them.
    @functools.cache
    def checks(rows: tuple[bytes, ...]) -> tuple[bool, bool]:
        """Whether the matrix is nonsingular with a fully mixed y side as A,
        and nonsingular with a fully mixed x side as B."""
        m = IntMatrix(rows)
        if det(m) == 0:
            return False, False
        return (
            fully_mixed_ne(Game(m, eye)) is not None,
            fully_mixed_ne(Game(eye, m)) is not None,
        )

    def rows(entries: bytes) -> tuple[bytes, ...]:
        return entries[0:4], entries[4:8], entries[8:12], entries[12:16]

    usable = functools.cache(lambda entries: checks(tuple(sorted(rows(entries)))))
    blocks, kept = binary_blocks(random.Random(404), 16), []
    # each game is two blocks: A's 16 entries, then B's
    for drawn, (a, b) in enumerate(zip(blocks, blocks), 1):
        if not (usable(a)[0] and usable(b)[1]):
            continue
        game = Game(IntMatrix(rows(a)), IntMatrix(rows(b)))
        profile = fully_mixed_ne(game)
        assert profile is not None
        assert complexity(profile.x) <= abs(cofactor_sum(game.B))
        assert complexity(profile.y) <= abs(cofactor_sum(game.A))
        kept.append(tuple(int("".join(map(str, m)), 2) for m in (a, b)))
        if len(kept) == 30:
            break
    assert kept == FULLY_MIXED_BINARY_GAMES
    assert drawn == 412_781


def test_padding_preserves_min_complexities(corpus):
    game = corpus["example1"]
    assert min_complexities(pad_game(game)) == min_complexities(game)


def test_padded_equilibrium_gets_trailing_zero(corpus):
    report = support_enumeration(pad_game(corpus["example1"]))
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert eq.x.numerators == X1_NUMERATORS + (0,)
    assert eq.y.numerators == (1,) * 8 + (0,)


def test_constant_sum_equilibria_form_a_rectangle():
    # equilibrium strategies of a constant-sum game combine freely
    for n in (8,):
        game, _, _ = constant_sum_beta(n)
        report = support_enumeration(game)
        xs = {p.x for p in report.equilibria}
        ys = {p.y for p in report.equilibria}
        for x in xs:
            for y in ys:
                assert is_nash(game, Profile(x, y))


def test_negative_payoffs_are_handled_exactly():
    # three independent routes agree on a mixed 2x2 game with negative entries
    from nashrand.families import two_by_two_complexities

    game = Game(IntMatrix([[2, -1], [0, 1]]), IntMatrix([[-1, 3], [2, -2]]))
    assert pure_nash(game) == []
    report = support_enumeration(game)
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert fully_mixed_ne(game) == eq
    closed = two_by_two_complexities(game)
    assert closed == (complexity(eq.x), complexity(eq.y))
    # player 2 indifference: -x1 + 2x2 = 3x1 - 2x2 -> x = (1/2, 1/2)
    # player 1 indifference: 2y1 - y2 = y2 -> y = (1/2, 1/2)
    assert eq.x == uniform(2)
    assert eq.y == uniform(2)


def test_degenerate_flag_raised_on_tied_off_support_column():
    # row player indifferent between both rows against column 1; the pure
    # equilibrium (1,1) leaves column 2 exactly tied for the column player
    a = IntMatrix([[1, 0], [1, 0]])
    b = IntMatrix([[1, 1], [0, 0]])
    report = support_enumeration(Game(a, b))
    assert report.degenerate_flag


def test_unequal_support_equilibria_are_flagged_degenerate():
    # the extreme equilibria pair supports of sizes 2 and 1, which the loop
    # never examines, so its answer is incomplete and must carry the flag
    game = UNEQUAL_SUPPORTS
    assert is_nash(game, Profile(MixedStrategy((1, 2, 0), 3), pure(3, 2)))
    assert support_enumeration(game).degenerate_flag


def test_unflagged_games_hold_less_complex_unequal_support_equilibria():
    # G1 and G2 each have an equilibrium x against a pure y, on supports of
    # sizes 2 and 1, that the equal-size pair loop does not examine; on
    # these two games it sets no degeneracy flag, so an unset flag proves
    # nothing.  These facts hold whatever the loop reports.
    for game, x, j, c in (
        (G1, MixedStrategy((1, 1, 0, 0), 2), 1, (2, 1)),
        (G2, MixedStrategy((0, 0, 1, 2), 3), 3, (3, 1)),
    ):
        profile = Profile(x, pure(4, j))
        assert is_nash(game, profile)
        assert (complexity(profile.x), complexity(profile.y)) == c


def test_vertex_oracle_pins_the_extreme_equilibria():
    # the conftest oracle on the pinned games: G1 has seven extreme
    # equilibria, least complexities (2, 1), where the loop reports one
    # with (4, 2); G2 has two, one with C = (3, 1), where the loop reports
    # (3, 3); the 3x3 game has its two, x = (1, 2, 0)/3 and (2, 1, 0)/3
    # against e2, where the loop reports none.  Every reported equilibrium
    # is one of the oracle's.
    def least(profiles):
        return min(map(complexity, (p.x for p in profiles))), min(
            map(complexity, (p.y for p in profiles)))

    for game, count, c, reported in (
        (G1, 7, (2, 1), (4, 2)),
        (G2, 2, (3, 1), (3, 3)),
        (UNEQUAL_SUPPORTS, 2, (3, 1), (None, None)),
    ):
        oracle = extreme_equilibria(game)
        report = support_enumeration(game)
        assert len(oracle) == count and least(oracle) == c
        assert all(is_nash(game, p) for p in oracle)
        assert (report.c1_min, report.c2_min) == reported
        assert set(report.equilibria) < oracle
    assert Profile(MixedStrategy((1, 1, 0, 0), 2), pure(4, 1)) in extreme_equilibria(G1)
    assert extreme_equilibria(UNEQUAL_SUPPORTS) == {
        Profile(MixedStrategy(x, 3), pure(3, 2)) for x in ((1, 2, 0), (2, 1, 0))
    }


def test_reported_equilibria_are_extreme_equilibria():
    # Every equilibrium the loop accepts solves two nonsingular bordered
    # systems, so it is a vertex pair and the oracle holds it.  On small
    # entries (0..1, -2..2) most games are degenerate and the oracle finds
    # more; on -99..99 games that carry no flag the two sets are equal.
    rng = random.Random(4001)
    missed = unflagged = 0
    for lo, hi, sizes in ((0, 1, (3, 4)), (-2, 2, (4, 5)), (-99, 99, (4, 5))):
        for n in sizes:
            for _ in range(40):
                game = Game(*(random_int_matrix(rng, n, lo, hi) for _ in range(2)))
                report = support_enumeration(game)
                oracle = extreme_equilibria(game)
                assert set(report.equilibria) <= oracle, game
                assert len(set(report.equilibria)) == len(report.equilibria)
                missed += set(report.equilibria) != oracle
                if hi == 99 and not report.degenerate_flag:
                    assert set(report.equilibria) == oracle, game
                    unflagged += 1
    assert missed > 100 and unflagged > 70


def test_imitation_path_matches_pair_loop():
    # on imitation games J = I and the uniform y must reproduce the pair
    # loop over all (I, J) exactly, equilibrium order and degeneracy flag
    # included; entries in 0..1 and 0..99 make many of these games degenerate
    rng = random.Random(2312)
    degenerate = 0
    for hi in (1, 99):
        for _ in range(60):
            n = rng.randint(1, 6)
            game = Game(IntMatrix.identity(n), random_int_matrix(rng, n, 0, hi))
            fast = support_enumeration(game)
            slow = enumerate_pairs(n, game.A.rows, game.B.rows)
            assert fast.equilibria == slow.equilibria
            assert (fast.c1_min, fast.c2_min) == (slow.c1_min, slow.c2_min)
            assert fast.degenerate_flag == slow.degenerate_flag
            assert fast.enumerated_supports == 2**n - 1
            assert slow.enumerated_supports == math.comb(2 * n, n) - 1
            degenerate += slow.degenerate_flag
    assert degenerate > 0


def test_imitation_path_on_paper_games(corpus):
    for key in ("example1", "primeblock1", "primeblock2"):
        game = corpus[key]
        n = game.n
        report = support_enumeration(game)
        assert report.enumerated_supports == 2**n - 1
        slow = enumerate_pairs(n, game.A.rows, game.B.rows)
        assert report.equilibria == slow.equilibria
        assert report.degenerate_flag == slow.degenerate_flag


def test_support_enumeration_matches_pair_loop_on_general_games():
    # each side's off-support rows are checked right after its own solve, so
    # y is rejected before x is solved; the pair loop solved both first.
    # Equal reports, order and degeneracy flag included, pin that this
    # reordering changes nothing.  Entries in 0..1 and 0..2 make many of
    # these games degenerate.
    rng = random.Random(5077)
    games = [
        constant_sum_beta(8)[0],
        constant_sum_prime_block(1)[0],
        constant_sum_prime_block(2)[0],
        pad_game(beta_game(8)),
    ]
    for lo, hi in ((-9, 9), (0, 1), (0, 2)):
        for _ in range(100):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n, lo, hi)
            games.append(Game(a, random_int_matrix(rng, n, lo, hi)))
    degenerate = 0
    for game in games:
        n = game.n
        report = support_enumeration(game)
        slow = enumerate_pairs(n, game.A.rows, game.B.rows)
        assert report.equilibria == slow.equilibria
        assert (report.c1_min, report.c2_min) == (slow.c1_min, slow.c2_min)
        assert report.degenerate_flag == slow.degenerate_flag
        if game.A == IntMatrix.identity(n):
            assert report.enumerated_supports == 2**n - 1
        elif game.constant_sum is not None:
            assert report.enumerated_supports == 1
        else:
            assert report.enumerated_supports == math.comb(2 * n, n) - 1
        degenerate += slow.degenerate_flag
    assert degenerate > 0


def _beaten_by_definition(m) -> list[int]:
    """Row r is beaten on column mask S iff some other row is greater on
    every column of S; read straight off that definition."""
    n_cols = len(m[0])
    table = []
    for mask in range(1 << n_cols):
        cols = [j for j in range(n_cols) if mask >> j & 1]
        table.append(sum(
            1 << r for r, row in enumerate(m)
            if cols and any(
                o != r and all(other[j] > row[j] for j in cols)
                for o, other in enumerate(m)
            )
        ))
    return table


def _twins_by_definition(m, twins) -> list[int]:
    """Rows r < s are twins on column mask S iff S is nonempty and some t
    in ``twins`` has t[r][j] == t[s][j] for every j in S; read straight off
    that definition, with the pair's bit the one ``_pairs`` puts above the
    len(m) row bits."""
    n_rows, n_cols = len(m), len(m[0])
    pairs = _pairs(n_rows)
    table = []
    for mask in range(1 << n_cols):
        cols = [j for j in range(n_cols) if mask >> j & 1]
        table.append(sum(
            pairs[1 << r | 1 << s] ^ (1 << r | 1 << s)
            for s in range(n_rows) for r in range(s)
            if cols and any(all(t[r][j] == t[s][j] for j in cols) for t in twins)
        ))
    return table


def _ruled_out_cases():
    """The builder's tables on square, copied-row and copied-column
    (non-square) matrices and their transposes, each with no twin matrices
    (the beaten-only input of imitation games), the matrix alone, and the
    matrix with another of its shape: yields (m, twins, table), then
    (copied_row, None, table) for each copied-row matrix built with itself
    as twin."""
    rng = random.Random(6101)
    for n in range(1, 8):
        for lo, hi in ((-99, 99), (0, 1)):
            for rep in range(2):
                rows = random_int_matrix(rng, n, lo, hi).rows
                # a copy of one row (equal rows never beat each other), and
                # a copy of one column
                copied_row = rows + (rows[rng.randrange(n)],)
                columns = tuple(zip(*rows))
                copied_column = tuple(zip(*columns, columns[rng.randrange(n)]))
                for base in (rows, copied_row, copied_column):
                    for m in (base, tuple(zip(*base))):
                        other = tuple(
                            tuple(rng.randint(lo, hi) for _ in row) for row in m
                        )
                        # the second draw checks the beaten rows alone
                        for twins in ((), (m,), (m, other))[: 3 - 2 * rep]:
                            yield m, twins, _ruled_out(m, *twins)
                yield copied_row, None, _ruled_out(copied_row, copied_row)


def test_beaten_table_matches_definition():
    # the builder's row bits are the beaten rows of the definition, whatever
    # twin matrices it is given, and with none they are the whole table
    checked = beaten = 0
    for m, twins, table in _ruled_out_cases():
        if twins is None:
            continue
        low = (1 << len(m)) - 1
        beaten_rows = _beaten_by_definition(m)
        assert [v & low for v in table] == beaten_rows
        if not twins:
            assert table == beaten_rows
        checked += 1
        beaten += any(v & low for v in table)
    # all entries equal: no row is beaten
    same = ((5, 5, 5),) * 4
    assert _ruled_out(same) == [0] * 8
    assert _ruled_out(tuple(zip(*same))) == [0] * 16
    assert _ruled_out(((3, -1, 4),) * 3) == [0] * 8
    assert checked == 336 and beaten > 250


def test_twin_table_matches_definition():
    # _pairs gives each index its own bit, each pair r < s one bit above
    # them, and a mask its own bits and the bits of the pairs that lie in it
    for n in range(1, 9):
        pairs = _pairs(n)
        assert [pairs[1 << r] for r in range(n)] == [1 << r for r in range(n)]
        bits = {
            (r, s): pairs[1 << r | 1 << s] ^ (1 << r | 1 << s)
            for s in range(n) for r in range(s)
        }
        assert sorted(bits.values()) == [1 << n + b for b in range(len(bits))]
        assert list(pairs) == [
            mask + sum(
                bit for (r, s), bit in bits.items() if mask >> r & 1 and mask >> s & 1
            )
            for mask in range(1 << n)
        ]
    # the bits above the rows are the twin pairs of the definition
    checked = twinned = copies = 0
    for m, twins, table in _ruled_out_cases():
        if twins is None:
            # the copied row is twinned with its source on every mask
            n = len(m) - 1
            assert all(table[mask] >> n + 1 for mask in range(1, 1 << n))
            copies += 1
            continue
        assert [v >> len(m) << len(m) for v in table] == _twins_by_definition(m, twins)
        checked += 1
        twinned += any(v >> len(m) for v in table)
    # all entries equal: every pair is twinned on every nonempty mask
    same = ((5, 5, 5),) * 4
    assert _ruled_out(same, same) == [0] + [0b111111 << 4] * 7
    same_t = tuple(zip(*same))
    assert _ruled_out(same_t, same_t) == [0] + [0b111 << 3] * 15
    assert checked == 336 and twinned > 100 and copies == 28


def test_dominance_skip_keeps_pair_loop_reports(monkeypatch):
    # seeded games where strict conditional dominance skips most pairs:
    # entries in -99..99 at n = 6 and 7, binary ones at n = 6 (mostly
    # degenerate), and the 3x3 game whose extreme equilibria have unequal
    # supports; every report must equal the full pair loop's
    rng = random.Random(3659)
    unequal = UNEQUAL_SUPPORTS
    ints = [
        Game(random_int_matrix(rng, n, -99, 99), random_int_matrix(rng, n, -99, 99))
        for n in (6,) * 6 + (7,) * 4
    ]
    binary = [
        Game(random_binary_matrix(rng, 6), random_binary_matrix(rng, 6))
        for _ in range(6)
    ]
    # every system the loop asks a side for, counted before that side's
    # memo can answer it, so repeated systems make the bound no easier
    requested, side_of = [], {}
    project, answer = solving._project, solving._answer

    def tagged_project(columns, cols):
        # a projection is alive while it is asked, so its id names it then
        rows = project(columns, cols)
        side_of[id(rows)] = columns
        return rows

    def counted_answer(rows, support, solved):
        requested.append(side_of[id(rows)])
        return answer(rows, support, solved)

    monkeypatch.setattr(solving, "_project", tagged_project)
    monkeypatch.setattr(solving, "_answer", counted_answer)
    solving._enumerate.cache_clear()
    degenerate = 0
    for game in [unequal, *ints, *binary]:
        n = game.n
        report = support_enumeration(game)
        slow = enumerate_pairs(n, game.A.rows, game.B.rows)
        assert report.equilibria == slow.equilibria
        assert (report.c1_min, report.c2_min) == (slow.c1_min, slow.c2_min)
        assert report.degenerate_flag == slow.degenerate_flag
        assert report.enumerated_supports == math.comb(2 * n, n) - 1
        degenerate += slow.degenerate_flag
    assert support_enumeration(unequal).equilibria == ()
    assert support_enumeration(unequal).degenerate_flag
    assert degenerate >= 3
    # the skip fires: on the -99..99 games most y systems are never asked
    # for; the count must not be empty, or the bound would show nothing
    a_columns = {tuple(zip(*game.A.rows)) for game in ints}
    pairs = sum(math.comb(2 * game.n, game.n) - 1 for game in ints)
    asked = sum(columns in a_columns for columns in requested)
    assert 0 < asked < pairs // 5


def _with_copied_line(rng: random.Random, n: int, copy_column: bool) -> Game:
    """A -9..9 game whose A and B both repeat one row (or one column)."""
    a, b = (random_int_matrix(rng, n, -9, 9).rows for _ in range(2))
    src, dst = rng.sample(range(n), 2)
    if copy_column:
        a, b = (tuple(zip(*m)) for m in (a, b))
    a, b = ([*m[:dst], m[src], *m[dst + 1:]] for m in (a, b))
    if copy_column:
        a, b = (list(zip(*m)) for m in (a, b))
    return Game(IntMatrix(a), IntMatrix(b))


def _repeats_a_line(m, rows, cols) -> bool:
    """Whether the block m[rows][cols] has two equal rows or two equal columns."""
    block = [tuple(m[r][c] for c in cols) for r in rows]
    return len(set(block)) < len(rows) or len(set(zip(*block))) < len(cols)


def test_memoized_sides_match_bordered_pair_loop(monkeypatch):
    # Each side solves a distinct (k-1) x (k-1) system once per support
    # size and answers repeats from its memo; the oracle solves every
    # pair's bordered (k+1) x (k+1) system afresh.  Every corpus here repeats
    # systems: 0/1 and -1..1 entries, a copied row or column, dummy
    # strategies padded onto the paper games, and the 3x3 game whose
    # extreme equilibria have unequal supports.  The same corpora are full
    # of pairs whose blocks repeat a row or a column; those are skipped
    # unsolved, so no side is ever asked for one.
    rng = random.Random(8087)
    corpora: dict[str, list[Game]] = {
        "0..1": [], "-1..1": [], "copied row": [], "copied column": []
    }
    for n, count in ((4, 12), (5, 8), (6, 3), (7, 1)):
        for _ in range(count):
            corpora["0..1"].append(
                Game(random_binary_matrix(rng, n), random_binary_matrix(rng, n))
            )
            corpora["-1..1"].append(
                Game(random_int_matrix(rng, n, -1, 1), random_int_matrix(rng, n, -1, 1))
            )
    for n in (3, 4, 4, 5, 5, 6):
        corpora["copied row"].append(_with_copied_line(rng, n, False))
        corpora["copied column"].append(_with_copied_line(rng, n, True))
    corpora["padded paper games"] = [
        pad_game(g) for g in (prime_block_game(1), prime_block_game(2), beta_game(8))
    ]
    unequal = UNEQUAL_SUPPORTS
    requested, solved, current, side_of = [], [], [], {}
    project, answer, solve_key = solving._project, solving._answer, solving._solve

    def tagged_project(columns, cols):
        # a projection is alive while it is asked, so its id names it then
        rows = project(columns, cols)
        side_of[id(rows)] = columns, cols
        return rows

    def checked_answer(rows, support, memo):
        game = current[-1]
        columns, cols = side_of[id(rows)]
        # the y side is asked for (I, J) on A, the x side, whose columns
        # are the rows of B, for (J, I) on B^T
        I, J = (cols, support) if columns is game.B.rows else (support, cols)
        for m in (game.A.rows, game.B.rows):
            assert not _repeats_a_line(m, I, J), (I, J)
        requested.append(1)
        return answer(rows, support, memo)

    monkeypatch.setattr(solving, "_project", tagged_project)
    monkeypatch.setattr(solving, "_answer", checked_answer)
    monkeypatch.setattr(
        solving, "_solve", lambda key: solved.append(1) or solve_key(key)
    )
    solving._enumerate.cache_clear()
    degenerate = 0
    for name, games in [*corpora.items(), ("unequal supports", [unequal])]:
        asked, fresh = len(requested), len(solved)
        for game in games:
            current.append(game)
            report = support_enumeration(game)
            slow = enumerate_pairs(game.n, game.A.rows, game.B.rows)
            assert report.equilibria == slow.equilibria, name
            assert report.c1_min == slow.c1_min, name
            assert report.c2_min == slow.c2_min, name
            assert report.degenerate_flag == slow.degenerate_flag, name
            degenerate += slow.degenerate_flag
        # the memo answered part of each random or padded corpus's requests
        if name in corpora:
            assert len(solved) - fresh < len(requested) - asked, name
    assert degenerate > 20


def _solve_keys(rng: random.Random, k: int) -> list[tuple[str, tuple]]:
    """Keys of k rows over k columns, each tagged with what it is built to be:
    random small or wide entries, singular ones (a copied row, a copied
    column, or every row the same), ones whose solution has a zero
    coordinate (rows paying the same against (0, 1, ..., 1)), and ones
    shifted by a constant, which moves the value but not the solution."""
    keys = []
    for lo, hi in ((-1, 1), (0, 1), (-9, 9), (-10**12, 10**12)):
        for _ in range(6):
            rows = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]
            keys.append(("random", rows))
    if k > 1:
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        src, dst = rng.sample(range(k), 2)
        keys.append(("singular", [*rows[:dst], rows[src], *rows[dst + 1:]]))
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        copied = [[*row[:dst], row[src], *row[dst + 1:]] for row in rows]
        keys.append(("singular", copied))
        keys.append(("singular", [rows[0]] * k))
        value = rng.randint(-20, 20)
        rows = [[rng.randint(-9, 9) for _ in range(k - 1)] for _ in range(k)]
        keys.append(("zero", [[*row, value - sum(row[1:])] for row in rows]))
    shift = rng.randint(-50, 50)
    keys.append(("shifted", [[v + shift for v in row] for row in keys[-1][1]]))
    return [(kind, tuple(map(tuple, rows))) for kind, rows in keys]


def test_solve_matches_bordered_fraction_solve():
    # _solve's (k - 1) x (k - 1) system against the bordered (k + 1) x (k + 1)
    # one over Fractions, for k = 1..7: singular together, and otherwise
    # d = |det| of the bordered system, z = d times its solution integer for
    # integer, and the value; None exactly when a coordinate is negative
    rng = random.Random(7121)
    seen = {"singular": 0, "negative": 0, "zero": 0, "positive": 0}
    for k in range(1, 8):
        for kind, key in _solve_keys(rng, k):
            expected = bordered_fraction_solve(key)
            got = _solve(key)
            if expected is None:
                assert got is None, key
                seen["singular"] += 1
                continue
            size, z, value = expected
            assert size.denominator == 1, key
            if min(z) < 0:
                assert got is None, key
                seen["negative"] += 1
                continue
            d, w, scaled_value = got
            assert d == size and list(w) == [t * d for t in z], key
            assert scaled_value == value * d and sum(w) == d, key
            seen["zero" if 0 in w else "positive"] += 1
            assert kind != "zero" or w[0] == 0, key
    # k = 1 is the empty system: d = 1, z = (1,), the value the one payoff
    assert _solve(((-7,),)) == (1, (1,), -7)
    assert all(count >= 15 for count in seen.values()), seen


def _bordered_full_support(game: Game) -> Profile | None:
    """Both players' (n+1) x (n+1) bordered systems on the full supports,
    solved with no memo; the profile when both are strictly positive."""
    n = game.n
    strategies = []
    for m in (tuple(zip(*game.B.rows)), game.A.rows):
        system = [[*row, -1] for row in m]
        system.append([1] * n + [0])
        d, z = eliminate(system, [0] * n + [1])
        if not d:
            return None
        probs = [Fraction(t, d) for t in z[:n]]
        if min(probs) <= 0:
            return None
        strategies.append(canonicalize(probs))
    return Profile(*strategies)


def _permutation_with_noise(rng: random.Random, n: int) -> IntMatrix:
    """A 0/1 permutation matrix with each other entry set at rate 1/10."""
    cols = list(range(n))
    rng.shuffle(cols)
    return IntMatrix([[int(j == c or rng.random() < 0.1) for j in range(n)] for c in cols])


def test_fully_mixed_ne_matches_bordered_full_support_solve():
    # 4x4 binary games: uniformly random ones, which almost never have a
    # fully mixed equilibrium, and noisy permutation matrices, which often do
    rng = random.Random(4447)
    found = 0
    for draw in (random_binary_matrix, _permutation_with_noise):
        for _ in range(1000):
            game = Game(draw(rng, 4), draw(rng, 4))
            expected = _bordered_full_support(game)
            assert fully_mixed_ne(game) == expected
            found += expected is not None
    assert 50 < found < 500


def test_near_identity_row_payoffs_take_pair_loop():
    n = 4
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[2][3] = 1
    game = Game(IntMatrix(rows), random_binary_matrix(random.Random(7), n))
    report = support_enumeration(game)
    assert report.enumerated_supports == math.comb(2 * n, n) - 1


def _constant_sum_game(rows, c: int) -> Game:
    b = IntMatrix([[c - v for v in row] for row in rows])
    return Game(IntMatrix(rows), b, constant_sum=c)


def _fully_mixed_core(rng: random.Random, k: int) -> list[list[int]]:
    """k x k payoffs in -2..9: a permutation of 7s over noise in -2..2, so the
    zero-sum game on them almost always has a fully mixed equilibrium."""
    rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    cols = list(range(k))
    rng.shuffle(cols)
    for row, j in zip(rows, cols):
        row[j] += 7
    return rows


def _one_sided_game(rng: random.Random, k: int) -> list[list[int]]:
    """(k+1) x (k+1) payoffs on which only one player can mix fully.

    A core whose zero-sum game the pair loop solves with full supports gets
    a copy of one of its rows and a column of 10s, which the column player
    (who minimizes A) never plays: the row player may spread the copied
    row's weight over both copies, the column player never uses every
    column.  Or the same with the roles swapped: a copied column and a row
    of -9s.  Rows and columns are then shuffled.
    """
    while True:
        rows = _fully_mixed_core(rng, k)
        eqs = enumerate_pairs(k, rows, [[-v for v in row] for row in rows]).equilibria
        if any(len(p.x.support()) == len(p.y.support()) == k for p in eqs):
            break
    r = rng.randrange(k)
    if rng.random() < 0.5:
        rows = [row + [10] for row in rows + [list(rows[r])]]
    else:
        rows = [row + [row[r]] for row in rows] + [[-9] * (k + 1)]
    rng.shuffle(rows)
    cols = list(range(k + 1))
    rng.shuffle(cols)
    return [[row[j] for j in cols] for row in rows]


def _row_value(game: Game, profile: Profile) -> Fraction:
    x, y = profile.x, profile.y
    total = sum(
        p * v * q for p, row in zip(x.numerators, game.A.rows)
        for v, q in zip(row, y.numerators)
    )
    return Fraction(total, x.denominator * y.denominator)


def test_constant_sum_certificate_matches_pair_loop():
    # Constant-sum games (A, c - A) with c in -7..2: random entries in -9..9,
    # 0..1 and 0..2 (many with a pure saddle point, few fully mixed), games
    # built around a fully mixed core, and games on which only one player
    # can mix fully (the union of that player's equilibrium supports, and
    # only that player's, covers every strategy).  The report must equal
    # the pair loop's, order and degeneracy flag included, whichever path
    # it took: the certificate (1 support pair, exactly when the pair loop
    # finds an equilibrium on all strategies), the imitation path for
    # A = I, or the full loop.
    # Kaplansky's value det(A) / K(A) checks every certified game whose
    # cofactor sum K(A) is nonzero.
    rng = random.Random(6151)
    games = []
    for lo, hi in ((-9, 9), (0, 1), (0, 2)):
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            games.append((_constant_sum_game(rows, rng.randint(-7, 2)), False))
    for _ in range(30):
        rows = _fully_mixed_core(rng, rng.randint(2, 6))
        games.append((_constant_sum_game(rows, rng.randint(-7, 2)), False))
    for _ in range(30):
        rows = _one_sided_game(rng, rng.randint(2, 5))
        games.append((_constant_sum_game(rows, rng.randint(-7, 2)), True))
    paths = {"certified": 0, "imitation": 0, "loop": 0}
    saddle = kaplansky = 0
    for game, one_sided in games:
        n = game.n
        report = support_enumeration(game)
        slow = enumerate_pairs(n, game.A.rows, game.B.rows)
        assert report.equilibria == slow.equilibria
        assert (report.c1_min, report.c2_min) == (slow.c1_min, slow.c2_min)
        assert report.degenerate_flag == slow.degenerate_flag
        every = tuple(range(1, n + 1))
        full = [p for p in slow.equilibria if p.x.support() == p.y.support() == every]
        if game.A.is_identity():
            path, count = "imitation", 2**n - 1
        elif full:
            path, count = "certified", 1
        else:
            path, count = "loop", math.comb(2 * n, n) - 1
        assert report.enumerated_supports == count
        if n > 1:
            paths[path] += 1
        if one_sided:
            xs = set().union(*(p.x.support() for p in slow.equilibria))
            ys = set().union(*(p.y.support() for p in slow.equilibria))
            assert (len(xs) == n) != (len(ys) == n)
        saddle += any(complexity(p.x) == complexity(p.y) == 1 for p in slow.equilibria)
        if full and cofactor_sum(game.A):
            value = Fraction(det(game.A), cofactor_sum(game.A))
            assert _row_value(game, report.equilibria[0]) == value
            kaplansky += 1
    assert min(paths.values()) > 0 and saddle > 0 and kaplansky > 0


def _check_certified(game: Game, profile: Profile) -> None:
    report = _certify(game.n, game.A.rows, tuple(zip(*game.B.rows)))
    assert report is not None
    assert report.equilibria == (profile,)
    assert report.c1_min == complexity(profile.x)
    assert report.c2_min == complexity(profile.y)
    assert report.degenerate_flag is False
    assert report.enumerated_supports == 1
    k = cofactor_sum(game.A)
    if k:
        assert _row_value(game, profile) == Fraction(det(game.A), k)


def test_certificate_returns_constant_sum_beta_closed_form():
    for n in (*range(8, 25), *range(25, 81, 7), *range(81, 152, 14)):
        game, profile, _ = constant_sum_beta(n)
        _check_certified(game, profile)


def test_certificate_returns_constant_sum_prime_block_closed_form():
    for k in range(1, 11):
        game, profile, _ = constant_sum_prime_block(k)
        _check_certified(game, profile)
