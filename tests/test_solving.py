import math
import random
from fractions import Fraction

import pytest

from conftest import (
    X1_NUMERATORS,
    Y2_NUMERATORS,
    coordination_game,
    enumerate_pairs,
    matching_pennies,
    random_binary_matrix,
    random_int_matrix,
)
from nashrand.errors import DimensionTooLarge
from nashrand.exact import IntMatrix, cofactor_sum, det
from nashrand.families import (
    beta_game,
    constant_sum_beta,
    constant_sum_prime_block,
    pad_game,
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
    bounded_ne_exists,
    complexity_upper_bound,
    fully_mixed_ne,
    min_complexities,
    pure_nash,
    resolve_max_n,
    support_enumeration,
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
    # the next test's 30 instances depend on this stream staying the same
    fast, slow = random.Random(404), random.Random(404)
    randint = slow.randint
    for _ in range(200_000):
        want = [[randint(0, 1) for _ in range(4)] for _ in range(4)]
        assert random_binary_matrix(fast, 4).rows == tuple(map(tuple, want))


def test_fully_mixed_complexity_bounded_by_cofactor_sum():
    # binary games with a fully mixed equilibrium: the canonical denominators
    # divide the opponent matrix's cofactor sum
    rng = random.Random(404)
    found = 0
    while found < 30:
        a = random_binary_matrix(rng, 4)
        b = random_binary_matrix(rng, 4)
        if det(a) == 0 or det(b) == 0:
            continue
        game = Game(a, b)
        profile = fully_mixed_ne(game)
        if profile is None:
            continue
        assert complexity(profile.x) <= abs(cofactor_sum(b))
        assert complexity(profile.y) <= abs(cofactor_sum(a))
        found += 1


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
    # the equilibria are x = (t, 1 - t, 0) against y = e2, t in [1/3, 2/3];
    # the extreme ones pair supports of sizes 2 and 1, which the loop never
    # examines, so its answer is incomplete and must carry the flag
    game = Game(
        IntMatrix([[0, 1, 1], [1, 1, 0], [0, 0, 0]]),
        IntMatrix([[3, 2, 0], [0, 2, 3], [0, 0, 0]]),
    )
    assert is_nash(game, Profile(MixedStrategy((1, 2, 0), 3), pure(3, 2)))
    assert support_enumeration(game).degenerate_flag


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
