import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from conftest import (
    EXAMPLE1_B_ROWS,
    X1_NUMERATORS,
    Y2_NUMERATORS,
    banded_reference,
    block_reference,
    constant_sum_transform,
    is_symmetric_under,
    mat_vec,
    pad_game,
    prime_block_symmetry,
    same_as_checked,
)
from nashrand.errors import (
    HasPureNE,
    HypothesisViolation,
    UnsupportedDimension,
)
from nashrand import families
from nashrand.exact import IntMatrix, cofactor_sum, det
from nashrand.families import (
    Permutation,
    RecurrenceTable,
    _band_cells,
    _block_cells,
    _cell_matrix,
    asymptotic_checks,
    beta_game,
    beta_matrix,
    beta_ne,
    constant_sum_beta,
    constant_sum_prime_block,
    first_primes,
    permutation_game,
    prime_block_game,
    prime_block_matrix,
    prime_block_ne,
    recurrence_constants,
    recurrence_table,
    two_by_two_complexities,
)
from nashrand.games import Game, MixedStrategy, complexity, is_nash, uniform
from nashrand.solving import min_complexities, pure_nash, support_enumeration

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


def test_first_primes_refuses_negative_count():
    assert first_primes(0) == []
    for count in (-1, -3):
        with pytest.raises(ValueError):
            first_primes(count)
    assert first_primes(3) == [2, 3, 5]


def test_first_primes_grows_to_5000_like_a_sieve():
    # trial division stops at each candidate's square root; a sieve of
    # Eratosthenes up to the 5,000th prime is the second source
    limit = 48612
    sieve = bytearray([1]) * limit
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    expected = [p for p in range(limit) if sieve[p]]
    assert len(expected) == 5000
    for count in (7, 500, 5000):
        assert first_primes(count) == expected[:count], count


def test_block_matrix_displays():
    assert block_reference(5) == BLOCK5
    assert block_reference(2) == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    for k in range(1, 41):
        assert _cell_matrix(k + 1, _block_cells(k + 1, 0, 0)).rows == block_reference(k)


def test_block_matrix_determinants():
    for k in (2, 3, 5, 7):
        assert det(IntMatrix(block_reference(k))) == k


def test_banded_and_bordered_displays():
    assert banded_reference(5) == BANDED5
    assert beta_matrix(11).rows == BETA11
    assert beta_matrix(8).rows == EXAMPLE1_B_ROWS
    for m in range(1, 61):
        assert _cell_matrix(m, _band_cells(m, 0)).rows == banded_reference(m)
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


# the recurrence store as the module starts it: the seeds, and no g yet
SEED_RECURRENCES = ((1, 1, 1, 0), (0, 1, 0, 1), (1, 1, 2), ())


def _recurrence_by_definition(upto: int) -> RecurrenceTable:
    """The table by the definitions in RecurrenceTable's docstring, one loop
    per sequence and no store."""
    a, b, det_b = [1, 1, 1, 0], [0, 1, 0, 1], [1, 1, 2]
    for n in range(5, upto + 2):
        b.append(b[n - 3] - b[n - 4] + b[n - 5])
    for n in range(5, upto + 1):
        a.append(a[n - 3] - a[n - 4] + a[n - 5])
    for n in range(4, upto + 1):
        det_b.append(det_b[n - 2] + det_b[n - 4])
    g = [math.gcd(b[i], b[i + 1]) for i in range(upto)]
    return RecurrenceTable(upto, tuple(a), tuple(b), tuple(det_b), tuple(g))


def test_recurrence_store_grows_to_the_largest_table_and_matches_the_definitions(
        monkeypatch):
    # the store only grows, to the largest upto asked for so far; a smaller
    # table is a slice of it and a larger one extends it
    monkeypatch.setattr(families, "_RECURRENCES", SEED_RECURRENCES)
    largest = 0
    for upto in (40, 400, 8, 1000, 41):
        assert recurrence_table(upto) == _recurrence_by_definition(upto), upto
        largest = max(largest, upto)
        a, b, det_b, g = families._RECURRENCES
        assert (len(a), len(b), len(det_b), len(g)) == (
            largest, largest + 1, largest, largest)


def test_prime_and_recurrence_caches_survive_concurrent_growth(monkeypatch):
    # the recurrence store grows in a local and is published by one
    # assignment, so four threads growing it at once at this switch interval
    # leave one whole table; a list of primes shared by such threads once
    # took duplicates, so each thread also checks first_primes
    expected_primes = [p for p in range(2, 1988)
                       if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(expected_primes) == 300
    uptos = (40, 120, 300, 500)
    tables = {upto: _recurrence_by_definition(upto) for upto in uptos}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(200):
            monkeypatch.setattr(families, "_RECURRENCES", SEED_RECURRENCES,
                                raising=False)
            barrier = threading.Barrier(len(uptos), timeout=30)
            results = []

            def work(upto):
                barrier.wait()
                results.append((first_primes(300), recurrence_table(upto)))

            threads = [threading.Thread(target=work, args=(u,)) for u in uptos]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), trial
            assert len(results) == len(uptos), trial
            for primes, table in results:
                assert primes == expected_primes, trial
                assert table == tables[table.upto], trial
            # whichever thread published last, the store is one whole table
            a, b, det_b, g = families._RECURRENCES
            assert (len(a), len(b), len(det_b)) == (len(g), len(g) + 1, len(g))
            assert RecurrenceTable(len(g), a, b, det_b, g) == tables[len(g)], trial
    finally:
        sys.setswitchinterval(switch)
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_unchecked_matrices_equal_checked_ones():
    # _cell_matrix, IntMatrix.identity and the twins' 1 - B build through
    # IntMatrix._of_ints, which skips the entry check; each must build what
    # the checked IntMatrix(rows) builds, entries exact ints
    rng = random.Random(29)
    for n in range(41):
        identity = IntMatrix.identity(n)
        assert same_as_checked(identity) and identity.is_identity()
        assert identity == IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    for n in range(2, 61):
        assert same_as_checked(beta_matrix(n)), n
    for k in range(1, 9):
        assert same_as_checked(prime_block_matrix(k)), k
    for _ in range(60):
        n = rng.randint(1, 12)
        images = rng.sample(range(1, n + 1), n)
        pi = Permutation(images)
        m = pi.matrix()
        assert same_as_checked(m)
        assert m == IntMatrix([[int(images[c] == r + 1) for c in range(n)]
                               for r in range(n)])
    for build, params in ((constant_sum_beta, range(8, 30)),
                          (constant_sum_prime_block, range(1, 6))):
        for k in params:
            game = build(k)[0]
            assert same_as_checked(game.A), (build.__name__, k)
            assert game.A == IntMatrix([[1 - v for v in row] for row in game.B.rows])


def test_one_based_accessors_refuse_indices_below_one():
    # a plain tuple lookup would wrap index 0 around to the last entry
    t = recurrence_table(10)
    p = Permutation.identity(3)
    for accessor in (t.a, t.b, t.det_b, t.g, p):
        for index in (0, -1):
            with pytest.raises(IndexError):
                accessor(index)
    assert (t.a(1), t.b(1), t.det_b(1), t.g(1), p(1)) == (1, 0, 1, 1, 1)
    assert (t.a(10), t.b(11), t.det_b(10), p(3)) == (-3, -11, 28, 3)


def test_recurrence_identities_long_range():
    t = recurrence_table(200)
    for n in range(1, 201):
        assert t.b(n) + t.b(n + 1) == t.a(n)
        if n >= 4:
            assert (t.b(n) > 0) == (n % 2 == 0)
            assert t.b(n) != 0
    for n in range(4, 201):
        assert t.det_b(n) == t.det_b(n - 1) + t.det_b(n - 3)
    # |det beta_n| = det B_{n-1} = 2|b_n| + |a_n|, read off the table alone
    for n in range(3, 201):
        assert t.det_b(n - 1) == 2 * abs(t.b(n)) + abs(t.a(n))


def test_recurrence_check_rejects_a_corrupted_det_b(monkeypatch):
    # recurrence_table checks nothing itself; the recurrence command is the
    # runtime check, and it must pass the true table and reject a det_b that
    # is off by one, as a HypothesisViolation rather than an assert
    import argparse

    from nashrand import families
    from nashrand.cli import cmd_recurrence

    args = argparse.Namespace(to=30)
    good = recurrence_table(30)
    lines = cmd_recurrence(args).splitlines()
    assert len(lines) == 32 and lines[-1].startswith("# identities verified")
    det_b = list(good.det_b_values)
    det_b[19] += 1
    bad = RecurrenceTable(good.upto, good.a_values, good.b_values, tuple(det_b),
                          good.g_values)
    monkeypatch.setattr(families, "recurrence_table", lambda upto: bad)
    with pytest.raises(HypothesisViolation,
                       match=r"det_b\(n-1\) = 2\|b\(n\)\| \+ \|a\(n\)\| fails at n=21"):
        cmd_recurrence(args)


def test_banded_determinants_match_table():
    t = recurrence_table(40)
    for m in range(1, 41):
        assert det(IntMatrix(banded_reference(m))) == t.det_b(m)


def test_determinants_stay_cheap_at_scale():
    # fraction-free elimination keeps these banded determinants subsecond
    # even at n = 200 (the entries are only ~110 bits)
    t = recurrence_table(200)
    assert det(IntMatrix(banded_reference(200))) == t.det_b(200)
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


def _beta_raw(t: RecurrenceTable, n: int) -> list[int]:
    """beta_ne's raw coordinates x'_1..x'_n as its docstring states them."""
    an, bn = abs(t.a(n)), abs(t.b(n))
    raw = {n - k: t.a(k) * bn + t.b(k) * an for k in range(2, n)}
    raw[n - 4], raw[n - 1], raw[n] = an, bn, 2 * bn + an
    return [raw[i] for i in range(1, n + 1)]


def test_beta_raw_coordinates_have_gcd_g():
    # beta_ne divides the raw coordinates by the store's g(n) and takes no
    # gcd; the gcd of coordinates built here from the table is the second
    # source for that divisor past the n the enumeration tests reach
    t = recurrence_table(2000)
    for n in [*range(8, 601), *range(700, 2001, 100)]:
        raw = _beta_raw(t, n)
        assert math.gcd(*raw) == t.g(n) == math.gcd(t.a(n), t.b(n)), n
        numerators = beta_ne(n)[0].x.numerators
        assert [p * t.g(n) for p in numerators] == raw, n


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
    with pytest.raises(HypothesisViolation, match="not symmetric"):
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


def test_constant_sum_builders_match_the_checked_transform():
    # the builders construct (1 - B, B) without checking the transform's
    # hypotheses; the conftest transform checks them all and must give the
    # same game from n = 8 up to the family cap 500
    for n in [*range(8, 40), *range(40, 501, 23)]:
        rev = Permutation.reversal(n)
        assert constant_sum_beta(n)[0] == constant_sum_transform(beta_game(n), rev, rev), n
    for k in range(1, 18):
        twin = constant_sum_transform(prime_block_game(k), *prime_block_symmetry(k))
        assert constant_sum_prime_block(k)[0] == twin, k


def test_constant_sum_builders_run_no_elimination(monkeypatch):
    # the builders' hypotheses are proved (families._column_image), not
    # checked: no eliminate runs, and families does not import it at all
    from nashrand import exact, families

    assert not hasattr(families, "eliminate")
    calls = []

    def counted(*args):
        calls.append(args)
        return exact.eliminate(*args)

    monkeypatch.setattr(exact, "eliminate", counted)
    monkeypatch.setattr(families, "eliminate", counted, raising=False)
    for n in (8, 9, 151):
        constant_sum_beta(n)
    for k in (1, 2, 12):
        constant_sum_prime_block(k)
    assert calls == []


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
    # an entry outside 1..n is refused, not wrapped or left to IndexError
    for bad in (0, -1, 4):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(1, bad)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(3, 0)])
    # overlapping cycles are refused, not resolved by the last write
    for cycles in ([(1, 2), (1, 2)], [(1, 2, 3), (3, 2, 1)], [(1, 2, 1)], [(2, 3), (1, 3)],
                   [(2,), (2, 3)]):
        with pytest.raises(ValueError, match="appears twice"):
            Permutation.from_cycles(3, cycles)


def test_permutation_refuses_floats_and_strings():
    # int() would truncate [1.9, 2.2] to the bijection (1, 2)
    for mapping in ([1.9, 2.2], ["1", "2"], [1.0]):
        with pytest.raises(TypeError):
            Permutation(mapping)


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
    # every 0/1 game and a seeded corpus per payoff range, in every
    # orientation: rows swapped, columns swapped, and the players exchanged,
    # (A, B) -> (B^T, A^T), which swaps C_1 and C_2
    binary = [[[v >> 3, v >> 2 & 1], [v >> 1 & 1, v & 1]] for v in range(16)]
    games = [(a, b) for a in binary for b in binary]
    rng = random.Random(30)
    for lo, hi in ((-2, 2), (-9, 9), (-99, 99)):
        games += [
            [[[rng.randint(lo, hi) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
            for _ in range(4000)
        ]
    mixed = 0
    for a, b in games:
        game = Game(IntMatrix(a), IntMatrix(b))
        try:
            c = two_by_two_complexities(game)
        except HasPureNE:
            assert pure_nash(game), (a, b)
            continue
        assert not pure_nash(game), (a, b)
        mixed += 1
        assert c == min_complexities(game), (a, b)
        for twin in (
            Game(IntMatrix(a[::-1]), IntMatrix(b[::-1])),
            Game(IntMatrix([r[::-1] for r in a]), IntMatrix([r[::-1] for r in b])),
        ):
            assert two_by_two_complexities(twin) == c, (a, b)
        exchanged = Game(IntMatrix(zip(*b)), IntMatrix(zip(*a)))
        assert two_by_two_complexities(exchanged) == c[::-1], (a, b)
    assert mixed >= 1000


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
