import math
import random
from fractions import Fraction

import pytest

from conftest import (
    X1_NUMERATORS,
    canonicalize,
    coordination_game,
    random_binary_matrix,
    random_int_matrix,
)
from nashrand.errors import NotADistribution
from nashrand.exact import IntMatrix
from nashrand.families import beta_game, beta_ne
from nashrand.games import (
    Game,
    MixedStrategy,
    Profile,
    capability_admissible,
    complexity,
    entropy,
    is_nash,
    pure,
    storage_bits,
    uniform,
)

X1 = MixedStrategy(X1_NUMERATORS, 34)


def test_canonicalize_keeps_common_denominator_with_coprime_numerators():
    got = canonicalize([Fraction(25, 100), Fraction(51, 100), Fraction(24, 100)])
    assert got.numerators == (25, 51, 24)
    assert got.denominator == 100


def test_canonicalize_half_half():
    assert canonicalize([Fraction(1, 2), Fraction(1, 2)]) == uniform(2)


def test_canonicalize_reduces_gcd():
    got = canonicalize([Fraction(2, 6), Fraction(4, 6)])
    assert (got.numerators, got.denominator) == ((1, 2), 3)


def test_canonicalize_rejects_bad_input():
    with pytest.raises(NotADistribution):
        canonicalize([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(NotADistribution):
        canonicalize([Fraction(3, 2), Fraction(-1, 2)])


def test_canonicalize_idempotent_on_random_distributions():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        weights = [rng.randint(0, 20) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        x = canonicalize([Fraction(w, total) for w in weights])
        again = canonicalize([Fraction(p, x.denominator) for p in x.numerators])
        assert again == x


def test_complexity_examples():
    assert complexity(X1) == 34
    assert complexity(uniform(8)) == 8
    for n in (1, 2, 5):
        for i in range(1, n + 1):
            assert complexity(pure(n, i)) == 1


def test_complexity_one_only_for_pure():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        weights = [rng.randint(0, 6) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = 1
        x = canonicalize([Fraction(w, sum(weights)) for w in weights])
        assert complexity(x) >= 1
        is_pure = sorted(x.numerators) == [0] * (n - 1) + [1]
        assert (complexity(x) == 1) == is_pure


def test_storage_bits():
    assert storage_bits(uniform(8)) == 8
    assert storage_bits(X1) == 21  # 3+2+2+1+3+3+3+4


def test_storage_bits_window():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 6)
        weights = [rng.randint(0, 50) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = 1
        x = canonicalize([Fraction(w, sum(weights)) for w in weights])
        bits = storage_bits(x)
        q = complexity(x)
        assert bits >= x.n
        assert bits >= math.log2(q)
        assert bits <= x.n * q.bit_length()


def test_entropy_values():
    assert entropy(uniform(2)) == pytest.approx(1.0, abs=1e-12)
    assert entropy(uniform(8)) == pytest.approx(3.0, abs=1e-12)
    # direct evaluation; strictly below the uniform maximum log2(8)
    assert entropy(X1) == pytest.approx(2.7814737826059854, abs=1e-12)
    assert entropy(X1) < 3.0


def test_entropy_of_uniform_matches_log():
    for n in (2, 3, 7, 64, 1000):
        assert entropy(uniform(n)) == pytest.approx(math.log2(n), abs=1e-12)


def test_entropy_skips_probabilities_below_the_smallest_float():
    # 1 / 2^1100 rounds to 0.0, where log2 raised a math domain error
    h = entropy(MixedStrategy((1, 2**1100 - 1), 2**1100))
    assert math.isfinite(h) and h >= 0.0
    # an entropy of zero is +0.0, never -0.0
    for x in (MixedStrategy((1,), 1), MixedStrategy((0, 1, 0), 1)):
        assert math.copysign(1.0, entropy(x)) == 1.0
    # skipping an underflowed outcome leaves the others' terms as they were
    tiny = MixedStrategy((1, 2**1100 - 1, 2**1100), 2**1101)
    assert entropy(tiny) == entropy(MixedStrategy((1, 1), 2))


def test_is_nash_accepts_the_known_equilibrium():
    game = beta_game(8)
    profile, _ = beta_ne(8)
    assert is_nash(game, profile)
    assert profile.x == X1
    assert not is_nash(game, Profile(uniform(8), uniform(8)))


def test_is_nash_coordination_pure():
    game = coordination_game()
    assert is_nash(game, Profile(pure(2, 1), pure(2, 1)))
    assert not is_nash(game, Profile(pure(2, 1), pure(2, 2)))


def _is_nash_by_deviation(game: Game, profile: Profile) -> bool:
    x = [Fraction(p, profile.x.denominator) for p in profile.x.numerators]
    y = [Fraction(q, profile.y.denominator) for q in profile.y.numerators]
    n = game.n
    u1 = sum(x[i] * game.A.rows[i][j] * y[j] for i in range(n) for j in range(n))
    u2 = sum(x[i] * game.B.rows[i][j] * y[j] for i in range(n) for j in range(n))
    for i in range(n):
        if sum(game.A.rows[i][j] * y[j] for j in range(n)) > u1:
            return False
    for j in range(n):
        if sum(x[i] * game.B.rows[i][j] for i in range(n)) > u2:
            return False
    return True


def test_is_nash_agrees_with_deviation_check():
    rng = random.Random(23)
    for _ in range(150):
        game = Game(random_int_matrix(rng, 3, 0, 4), random_int_matrix(rng, 3, 0, 4))
        raw = [Fraction(rng.randint(0, 5)) for _ in range(3)]
        if sum(raw) == 0:
            raw[0] = Fraction(1)
        x = canonicalize([v / sum(raw) for v in raw])
        raw = [Fraction(rng.randint(0, 5)) for _ in range(3)]
        if sum(raw) == 0:
            raw[0] = Fraction(1)
        y = canonicalize([v / sum(raw) for v in raw])
        profile = Profile(x, y)
        assert is_nash(game, profile) == _is_nash_by_deviation(game, profile)
    # binary games are full of payoff ties: every pure profile, and profiles
    # uniform on random supports, go against the same Fraction reference
    accepted = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        game = Game(random_binary_matrix(rng, n), random_binary_matrix(rng, n))
        profiles = [
            Profile(pure(n, i), pure(n, j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        for _ in range(5):
            strategies = []
            for _ in range(2):
                support = rng.sample(range(n), rng.randint(1, n))
                numerators = tuple(int(i in support) for i in range(n))
                strategies.append(MixedStrategy(numerators, len(support)))
            profiles.append(Profile(*strategies))
        for profile in profiles:
            expected = _is_nash_by_deviation(game, profile)
            assert is_nash(game, profile) == expected
            accepted += expected
    assert accepted >= 50


def test_capability_admissible():
    assert capability_admissible(X1, 34)
    assert not capability_admissible(X1, 33)
    assert capability_admissible(pure(4, 1), 1)


def test_strategy_supports_zero_entries():
    x = MixedStrategy((0, 1, 0, 2), 3)
    assert x.support() == (2, 4)


def test_game_constant_sum_validation():
    ones_minus = IntMatrix([[1, 0], [0, 1]])
    b = IntMatrix([[0, 1], [1, 0]])
    game = Game(ones_minus, b, constant_sum=1)
    assert game.constant_sum == 1
    with pytest.raises(ValueError):
        Game(ones_minus, ones_minus, constant_sum=1)


def test_game_refuses_zero_strategies():
    # a 0x0 game has no equilibrium and no complexity: parse_game refuses
    # n < 1, and so does the constructor
    empty = IntMatrix([])
    with pytest.raises(ValueError, match="at least one strategy"):
        Game(empty, empty)
    Game(IntMatrix([[0]]), IntMatrix([[0]]))
