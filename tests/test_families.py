import math
import random
from fractions import Fraction

import pytest

from conftest import X1_NUMERATORS, Y2_NUMERATORS, EXAMPLE1_B_ROWS, mat_vec
from nashrand.errors import (
    HasPureNE,
    HypothesisViolation,
    SymmetryViolation,
    UnsupportedDimension,
)
from nashrand.exact import IntMatrix, cofactor_sum, det
from nashrand.families import (
    Permutation,
    RecurrenceTable,
    _check_table,
    asymptotic_checks,
    banded_matrix,
    beta_game,
    beta_matrix,
    beta_ne,
    block_matrix,
    constant_sum_beta,
    constant_sum_prime_block,
    constant_sum_transform,
    first_primes,
    is_symmetric_under,
    pad_game,
    permutation_game,
    prime_block_game,
    prime_block_ne,
    prime_block_symmetry,
    recurrence_constants,
    recurrence_table,
    two_by_two_complexities,
)
from nashrand.games import Game, MixedStrategy, complexity, is_nash, uniform
from nashrand.solving import min_complexities, support_enumeration

# matrix displays used as golden values ------------------------------------

BLOCK5 = (
    (1, 1, 1, 1, 1, 0),
    (0, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 1, 1),
    (1, 1, 0, 1, 1, 1),
    (1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 0, 1),
)

BANDED5 = (
    (1, 1, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (1, 0, 1, 1, 0),
    (0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1),
)

BETA11 = (
    (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)

PRIME_BLOCK_1 = (
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (1, 0, 0, 0),
)

CONSTANT_SUM_8_A = (
    (1, 0, 0, 1, 1, 1, 1, 1),
    (1, 1, 0, 0, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 1, 1, 1),
    (1, 1, 0, 1, 0, 0, 1, 1),
    (1, 1, 1, 0, 1, 0, 0, 1),
    (1, 1, 1, 1, 0, 1, 0, 0),
    (1, 1, 1, 1, 1, 0, 1, 0),
    (0, 1, 1, 1, 1, 1, 1, 1),
)


# entrywise definitions of the family matrices, references for the builders


def banded_reference(m):
    return tuple(
        tuple(1 if j - i in (0, 1) or i - j == 2 else 0 for j in range(m))
        for i in range(m)
    )


def beta_reference(n):
    # zero first column but for a 1 in the last row; the band in the upper right
    inner = banded_reference(n - 1)
    return tuple(
        tuple(
            int(j == 0) if i == n - 1 else (0 if j == 0 else inner[i][j - 1])
            for j in range(n)
        )
        for i in range(n)
    )


def block_reference(k):
    m = k + 1
    return tuple(
        tuple(0 if (i - j - 1) % m == 0 else 1 for j in range(m)) for i in range(m)
    )


def prime_block_reference(num_primes):
    # block (p + 1) x (p + 1) on the diagonal shifted one column right,
    # plus the border entry in the bottom-left corner
    starts, offset = [], 0
    for p in first_primes(num_primes):
        starts.append((offset, p))
        offset += p + 1
    big_n = offset + 1

    def entry(i, j):
        if i == big_n - 1:
            return int(j == 0)
        o, p = next((o, p) for o, p in starts if o <= i <= o + p)
        c = j - 1 - o
        return block_reference(p)[i - o][c] if 0 <= c <= p else 0

    return tuple(tuple(entry(i, j) for j in range(big_n)) for i in range(big_n))


def permutation_reference(p):
    n = p.n
    return tuple(
        tuple(1 if r + 1 == p(c + 1) else 0 for c in range(n)) for r in range(n)
    )


def test_primes():
    assert first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_block_matrix_displays():
    assert block_matrix(5).rows == BLOCK5
    assert block_matrix(2).rows == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    for k in range(1, 41):
        assert block_matrix(k).rows == block_reference(k)


def test_block_matrix_determinants():
    for k in (2, 3, 5, 7):
        assert det(block_matrix(k)) == k


def test_banded_and_bordered_displays():
    assert banded_matrix(5).rows == BANDED5
    assert beta_matrix(11).rows == BETA11
    assert beta_matrix(8).rows == EXAMPLE1_B_ROWS
    for m in range(1, 61):
        assert banded_matrix(m).rows == banded_reference(m)
    for n in range(2, 61):
        assert beta_matrix(n).rows == beta_reference(n)


def test_beta_game_is_imitation():
    game = beta_game(8)
    assert game.A == IntMatrix.identity(8)
    assert game.B.rows == EXAMPLE1_B_ROWS


def test_prime_block_game_small():
    game = prime_block_game(1)
    assert game.B.rows == PRIME_BLOCK_1
    assert game.A == IntMatrix.identity(4)
    assert prime_block_game(2).n == 8
    assert prime_block_game(3).n == 14
    assert prime_block_reference(1) == PRIME_BLOCK_1
    for k in range(1, 9):
        assert prime_block_game(k).B.rows == prime_block_reference(k)


def test_prime_block_ne_small():
    profile, c1 = prime_block_ne(1)
    assert profile.x == MixedStrategy((1, 1, 1, 2), 5)
    assert profile.y == uniform(4)
    assert c1 == 5


def test_prime_block_ne_two_blocks():
    profile, c1 = prime_block_ne(2)
    assert c1 == 3 * 6 + (3 + 2) == 23
    assert complexity(profile.x) == 23
    assert profile.y == uniform(8)


def test_prime_block_closed_form_matches_enumeration(corpus):
    for key, blocks in (("primeblock1", 1), ("primeblock2", 2)):
        report = support_enumeration(corpus[key])
        profile, c1 = prime_block_ne(blocks)
        assert report.equilibria == (profile,)
        assert report.c1_min == c1
        assert report.c2_min == corpus[key].n


def test_prime_block_denominator_is_the_closed_form():
    for blocks in range(1, 9):
        profile, c1 = prime_block_ne(blocks)
        primes = first_primes(blocks)
        n = blocks
        expected = (n + 1) * math.prod(primes) + sum(
            math.prod(primes) // p for p in primes
        )
        assert c1 == expected
        assert complexity(profile.x) == expected
        assert complexity(profile.y) == profile.y.n


def test_recurrence_base_and_continuation():
    t = recurrence_table(12)
    assert [t.b(n) for n in range(1, 10)] == [0, 1, 0, 1, -1, 2, -2, 4, -5]
    assert [t.a(n) for n in range(1, 9)] == [1, 1, 1, 0, 1, 0, 2, -1]
    assert [t.det_b(n) for n in range(1, 8)] == [1, 1, 2, 3, 4, 6, 9]
    assert t.a(8) == t.b(8) + t.b(9) == -1
    assert t.g(8) == math.gcd(4, 5) == 1


def test_recurrence_table_rejects_tiny():
    with pytest.raises(UnsupportedDimension):
        recurrence_table(3)


def test_recurrence_identities_long_range():
    t = recurrence_table(200)
    for n in range(1, 201):
        assert t.b(n) + t.b(n + 1) == t.a(n)
        if n >= 4:
            assert (t.b(n) > 0) == (n % 2 == 0)
            assert t.b(n) != 0
    for n in range(4, 201):
        assert t.det_b(n) == t.det_b(n - 1) + t.det_b(n - 3)


def test_recurrence_check_rejects_a_corrupted_det_b():
    good = recurrence_table(30)
    _check_table(good)
    det_b = list(good.det_b_values)
    det_b[19] += 1
    bad = RecurrenceTable(good.upto, good.a_values, good.b_values, tuple(det_b),
                          good.g_values)
    with pytest.raises(AssertionError, match=r"det_b\(20\) != 2\|b\(21\)\|"):
        _check_table(bad)


def test_banded_determinants_match_table():
    t = recurrence_table(40)
    for m in range(1, 41):
        assert det(banded_matrix(m)) == t.det_b(m)


def test_determinants_stay_cheap_at_scale():
    # fraction-free elimination keeps these banded determinants subsecond
    # even at n = 200 (the entries are only ~110 bits)
    t = recurrence_table(200)
    assert det(banded_matrix(200)) == t.det_b(200)
    d = det(beta_matrix(150))
    assert abs(d) == 2 * abs(t.b(150)) + abs(t.a(150))


def test_bordered_determinant_identity():
    # |det beta_n| = det B_{n-1} = 2|b_n| + |a_n|, sign (-1)^(n+1)
    t = recurrence_table(41)
    for n in range(8, 41):
        d = det(beta_matrix(n))
        assert abs(d) == 2 * abs(t.b(n)) + abs(t.a(n))
        assert d == (-1) ** (n + 1) * t.det_b(n - 1)


def test_pairwise_linear_independence():
    t = recurrence_table(61)
    dependent = {(1, 3), (4, 6), (5, 7)}
    for m in range(1, 61):
        for n in range(m + 1, 61):
            lhs = t.a(n) * t.b(m)
            rhs = t.a(m) * t.b(n)
            if (m, n) in dependent:
                assert lhs == rhs
            else:
                assert lhs != rhs


def test_beta_ne_is_the_showcase_equilibrium():
    profile, c1 = beta_ne(8)
    assert profile.x == MixedStrategy(X1_NUMERATORS, 34)
    assert profile.y == uniform(8)
    assert c1 == 34


def test_beta_ne_rejects_small_dimensions():
    for n in (2, 5, 7):
        with pytest.raises(UnsupportedDimension):
            beta_ne(n)


def test_beta_ne_matches_enumeration(corpus):
    for key, n in (("example1", 8), ("beta9", 9), ("beta10", 10)):
        report = support_enumeration(corpus[key])
        profile, c1 = beta_ne(n)
        assert report.equilibria == (profile,)
        assert report.c1_min == c1
        assert not report.degenerate_flag


def test_beta_complexity_equals_cofactor_sum_over_gcd():
    t = recurrence_table(40)
    for n in range(8, 41):
        profile, c1 = beta_ne(n)
        k = abs(cofactor_sum(beta_matrix(n), method="solve"))
        assert c1 * t.g(n) == k
        # sharpened lower bound with column sums <= 3
        assert 3 * k >= n * abs(det(beta_matrix(n)))


def test_beta_equilibrium_is_balanced():
    for n in range(8, 41):
        profile, _ = beta_ne(n)
        nums = profile.x.numerators
        assert max(nums) <= 10 * min(nums)


def test_beta_growth_rate_window():
    for n in range(12, 41):
        _, c1 = beta_ne(n)
        rate = math.log2(c1) / n
        assert 0.3 <= rate <= 0.8


def test_beta_equilibria_satisfy_best_response_up_to_40():
    for n in (12, 23, 31, 40):
        profile, _ = beta_ne(n)
        assert is_nash(beta_game(n), profile)


def test_beta_closed_form_matches_recurrence_free_matrix_solve():
    # fully_mixed_ne inverts the payoff matrix directly, so this route never
    # touches the recurrences the closed form is built from
    from nashrand.solving import fully_mixed_ne

    for n in (13, 17, 25, 33, 40):
        profile, _ = beta_ne(n)
        assert fully_mixed_ne(beta_game(n)) == profile


def test_symmetry_predicate():
    rev = Permutation.reversal(8)
    assert is_symmetric_under(beta_matrix(8), rev, rev)
    ident = Permutation.identity(8)
    assert not is_symmetric_under(beta_matrix(8), ident, ident)


def _is_symmetric_entrywise(b, pi, tau):
    """The entrywise form of the predicate: B[j][i] == B[tau(i)][pi(j)]."""
    n = b.n
    if pi.n != n or tau.n != n:
        return False
    return all(
        b.rows[j - 1][i - 1] == b.rows[tau(i) - 1][pi(j) - 1]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def _symmetric_rows(rng, pi, tau):
    """Random binary rows constant on each orbit of the position map
    (r, c) -> (tau(c), pi(r)), hence symmetric under (pi, tau)."""
    n = pi.n
    rows = [[None] * n for _ in range(n)]
    for r0 in range(n):
        for c0 in range(n):
            v = rng.randint(0, 1)
            r, c = r0, c0
            while rows[r][c] is None:
                rows[r][c] = v
                r, c = tau.mapping[c] - 1, pi.mapping[r] - 1
    return rows


def test_symmetry_predicate_matches_entrywise_check():
    # a third of the cases built symmetric, a third symmetric with one entry
    # flipped, a third plain random
    rng = random.Random(1729)
    symmetric = 0
    for case in range(12000):
        n = rng.randint(1, 5)
        pi = Permutation(rng.sample(range(1, n + 1), n))
        tau = Permutation(rng.sample(range(1, n + 1), n))
        if case % 3 == 2:
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        else:
            rows = _symmetric_rows(rng, pi, tau)
            if case % 3 == 1:
                r, c = rng.randrange(n), rng.randrange(n)
                rows[r][c] = 1 - rows[r][c]
        b = IntMatrix(rows)
        want = _is_symmetric_entrywise(b, pi, tau)
        assert is_symmetric_under(b, pi, tau) == want
        symmetric += want
    assert 4000 <= symmetric < 12000
    # mismatched sizes are never symmetric
    assert not is_symmetric_under(beta_matrix(8), Permutation.identity(7),
                                  Permutation.identity(8))


def test_prime_block_symmetry_pairs():
    for blocks in (1, 2, 3):
        pi, tau = prime_block_symmetry(blocks)
        assert is_symmetric_under(prime_block_game(blocks).B, pi, tau)


def test_symmetry_transport():
    # with x = pi(y): B^T x = tau(B y), for any distribution y
    rng = random.Random(71)
    cases = [
        (beta_matrix(9), Permutation.reversal(9), Permutation.reversal(9)),
        (prime_block_game(2).B, *prime_block_symmetry(2)),
    ]
    for b, pi, tau in cases:
        for _ in range(20):
            y = [Fraction(rng.randint(0, 9)) for _ in range(b.n)]
            if sum(y) == 0:
                y[0] = Fraction(1)
            y = [v / sum(y) for v in y]
            x = pi.apply(y)
            assert mat_vec(IntMatrix(zip(*b.rows)), x) == tau.apply(mat_vec(b, y))


def test_constant_sum_transform_showcase():
    rev = Permutation.reversal(8)
    game = constant_sum_transform(beta_game(8), rev, rev)
    assert game.constant_sum == 1
    assert game.A.rows == CONSTANT_SUM_8_A
    assert game.B.rows == EXAMPLE1_B_ROWS
    for row_a, row_b in zip(game.A.rows, game.B.rows):
        assert all(a + b == 1 for a, b in zip(row_a, row_b))


def test_constant_sum_beta_equilibrium():
    game, profile, c1 = constant_sum_beta(8)
    assert profile.x == MixedStrategy(X1_NUMERATORS, 34)
    assert profile.y == MixedStrategy(Y2_NUMERATORS, 34)
    assert c1 == 34
    assert is_nash(game, profile)


def test_constant_sum_prime_block_equilibrium():
    game, profile, c1 = constant_sum_prime_block(2)
    assert c1 == 23
    assert complexity(profile.x) == complexity(profile.y) == 23
    assert is_nash(game, profile)
    assert min_complexities(game) == (23, 23)


def test_constant_sum_transform_rejects_bad_input():
    rev = Permutation.reversal(8)
    with pytest.raises(HypothesisViolation):
        constant_sum_transform(
            Game(beta_matrix(8), beta_matrix(8)), rev, rev
        )
    with pytest.raises(SymmetryViolation):
        constant_sum_transform(
            beta_game(8), Permutation.identity(8), Permutation.identity(8)
        )
    ident2 = Permutation.identity(2)
    singular = Game(IntMatrix.identity(2), IntMatrix([[1, 1], [1, 1]]))
    with pytest.raises(HypothesisViolation):
        constant_sum_transform(singular, ident2, ident2)
    sum_equals_det = Game(IntMatrix.identity(2), IntMatrix([[2, 0], [0, 2]]))
    with pytest.raises(HypothesisViolation):
        constant_sum_transform(sum_equals_det, ident2, ident2)


def test_pad_game_shape_and_tags():
    padded = pad_game(beta_game(8))
    assert padded.n == 9
    assert padded.A.rows[8] == (0,) * 8 + (1,)
    assert [row[8] for row in padded.A.rows] == [1] * 9
    assert padded.B.rows[8] == (1,) * 8 + (0,)
    assert [row[8] for row in padded.B.rows] == [0] * 9


def test_pad_game_preserves_unit_constant_sum():
    game, _, _ = constant_sum_beta(8)
    padded = pad_game(game)
    assert padded.constant_sum == 1


def test_pad_game_hypotheses():
    with pytest.raises(HypothesisViolation):
        pad_game(Game(IntMatrix([[1, 0], [1, 0]]), IntMatrix.identity(2)))
    with pytest.raises(HypothesisViolation):
        pad_game(Game(IntMatrix.identity(2), IntMatrix([[0, 0], [1, 1]])))


def test_permutation_cycles_and_inverse():
    p = Permutation.from_cycles(5, [(1, 4, 3), (2, 5)])
    assert p(1) == 4 and p(4) == 3 and p(3) == 1
    assert sorted(len(c) for c in p.cycles()) == [2, 3]
    assert p.compose(p.inverse()) == Permutation.identity(5)


def test_permutation_matrix_convention():
    p = Permutation.from_cycles(3, [(1, 2)])
    m = p.matrix()
    for i in range(1, 4):
        col = [row[i - 1] for row in m.rows]
        assert col.index(1) + 1 == p(i)
    rng = random.Random(30)
    for n in range(1, 31):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(images)
        assert p.matrix().rows == permutation_reference(p)


def test_permutation_game_identity():
    _, c = permutation_game(Permutation.identity(3), Permutation.identity(3))
    assert c == 1


def test_permutation_game_full_cycle():
    game, c = permutation_game(
        Permutation.identity(5), Permutation.forward_cycle(5)
    )
    assert c == 5
    report = support_enumeration(game)
    assert report.equilibria == (
        next(iter(report.equilibria)),
    )  # single equilibrium
    assert report.equilibria[0].y == uniform(5)
    assert (report.c1_min, report.c2_min) == (5, 5)


def test_permutation_game_two_transpositions():
    game, c = permutation_game(
        Permutation.identity(4), Permutation.from_cycles(4, [(1, 2), (3, 4)])
    )
    assert c == 2
    assert min_complexities(game) == (2, 2)


def test_two_by_two_closed_form():
    mp = Game(IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]]))
    assert two_by_two_complexities(mp) == (2, 2)
    asym = Game(IntMatrix([[3, 0], [0, 2]]), IntMatrix([[0, 1], [2, 0]]))
    assert two_by_two_complexities(asym) == (3, 5)
    with pytest.raises(HasPureNE) as info:
        two_by_two_complexities(
            Game(IntMatrix.identity(2), IntMatrix.identity(2))
        )
    assert info.value.complexities == (1, 1)


def test_recurrence_constants_match_displayed_values():
    c = recurrence_constants()
    assert c.rho == pytest.approx(-1.4656, abs=5e-5)
    assert c.z.real == pytest.approx(0.2328, abs=5e-5)
    assert c.z.imag == pytest.approx(-0.7926, abs=5e-5)
    assert abs(c.z) == pytest.approx(0.826, abs=5e-4)
    assert c.w0 == pytest.approx(1 / 3, abs=1e-9)
    assert c.w1 == pytest.approx(0.169, abs=5e-4)
    assert c.w2.real == pytest.approx(-0.251, abs=5e-4)
    assert c.w2.imag == pytest.approx(0.02, abs=5e-4)
    # the values a float Gauss-Jordan fit to b_1..b_4 gives
    assert abs(c.w1 - 0.16922568795898119) < 1e-12
    assert abs(c.w2 - complex(-0.2512795106461572, 0.019978170675162273)) < 1e-12


def test_recurrence_constants_are_roots():
    c = recurrence_constants()
    assert abs(c.rho**3 + c.rho**2 + 1) < 1e-10
    assert abs(c.z**3 + c.z**2 + 1) < 1e-10


def test_closed_form_reproduces_the_recurrence():
    c = recurrence_constants()
    t = recurrence_table(40)
    for n in range(1, 41):
        approx = c.w0 + c.w1 * c.rho**n + 2 * (c.w2 * c.z**n).real
        assert approx == pytest.approx(t.b(n), abs=1e-6 * max(1, abs(t.b(n))))


def test_asymptotic_checks_report():
    report = asymptotic_checks(recurrence_table(41), recurrence_constants())
    assert report.sandwich_ok
    assert report.ratio_error < 1e-3
    assert report.claim_one == pytest.approx(1.38263, abs=1e-2)
    assert report.claim_two == pytest.approx(2.02635, abs=1e-2)
    assert report.gcd_envelope_violations == ()
    assert report.claim_one_target == pytest.approx(1.3826330119, abs=1e-9)
    assert report.claim_two_target == pytest.approx(2.0263471665, abs=1e-9)


def test_asymptotic_checks_needs_forty():
    with pytest.raises(UnsupportedDimension):
        asymptotic_checks(recurrence_table(20), recurrence_constants())
