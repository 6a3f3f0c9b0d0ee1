import math
import random
from fractions import Fraction
from operator import mul

import pytest

from conftest import (
    block_reference,
    cofactor_sum_definition,
    fraction_det,
    random_binary_matrix,
    random_int_matrix,
    replace_column,
)
from nashrand.exact import IntMatrix, cofactor_sum, det, eliminate
from nashrand.families import (
    beta_matrix,
    beta_ne,
    first_primes,
    prime_block_game,
    prime_block_matrix,
    prime_block_ne,
    recurrence_table,
)


def det_cofactor_expansion(m: IntMatrix) -> int:
    """Determinant by first-row cofactor expansion.

    Factorial cost; an oracle independent of the elimination kernel.
    """
    return _det_expand(m.rows)


def _det_expand(rows: tuple[tuple[int, ...], ...]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    rest = rows[1:]
    for j, v in enumerate(rows[0]):
        if v == 0:
            continue
        minor = tuple(r[:j] + r[j + 1:] for r in rest)
        total += (-1) ** j * v * _det_expand(minor)
    return total


def test_det_identity():
    assert det(IntMatrix.identity(8)) == 1


def test_det_empty_matrix_is_one():
    assert det(IntMatrix(())) == 1


def test_int_matrix_refuses_floats_and_strings():
    # int() would truncate 1.5 to 1 and parse '7'; the entries must be ints
    for rows in ([[1.5, 2], [3, 4.9]], [["7", 1], [0, 1]], [[1.0]]):
        with pytest.raises(TypeError):
            IntMatrix(rows)
    assert IntMatrix([[True, 0], [0, 2**70]]).rows == ((1, 0), (0, 2**70))


def test_det_block_matrix_six():
    assert det(IntMatrix(block_reference(5))) == 5


def test_det_bordered_banded_eight():
    value = det(beta_matrix(8))
    assert abs(value) == 9


def test_det_shortcut_on_repeated_and_zero_rows(monkeypatch):
    # det returns 0 with no elimination on two equal rows or a zero row; on
    # seeded 0/1 and -1..1 matrices with n = 0..6, a third of them with a
    # copied row and a third with a zeroed one, it must equal eliminate and
    # the cofactor expansion everywhere, and eliminate only the others
    from nashrand import exact

    kernel, eliminated = exact.eliminate, []
    monkeypatch.setattr(
        exact, "eliminate", lambda a, *rhs: eliminated.append(1) or kernel(a, *rhs)
    )
    rng = random.Random(6007)
    shortcut = nonzero = 0
    for n in range(7):
        for lo in (0, -1):
            for case in range(60):
                rows = [[rng.randint(lo, 1) for _ in range(n)] for _ in range(n)]
                if n and case % 3 == 1:
                    rows[rng.randrange(n)] = [0] * n
                elif n > 1 and case % 3 == 2:
                    src, dst = rng.sample(range(n), 2)
                    rows[dst] = list(rows[src])
                m = IntMatrix(rows)
                before = len(eliminated)
                value = det(m)
                skipped = len(set(m.rows)) < n or [0] * n in rows
                assert len(eliminated) - before == (not skipped)
                assert value == kernel([list(r) for r in rows])[0]
                assert value == det_cofactor_expansion(m)
                shortcut += skipped
                nonzero += value != 0
    assert det(IntMatrix(())) == 1
    assert shortcut > 400 and nonzero > 200


def test_det_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(101)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 5), -4, 4)
        assert det(m) == det_cofactor_expansion(m)


# Zero-lead patterns worked by hand.  A row skipped at a step keeps its stored
# entries and its base, the pivot it last saw; its next update divides by that
# base, and only a row that becomes the pivot row is rescaled to the latest
# pivot.  In the first, the second row is skipped at the first step and
# rescaled by the pivot 2 when it becomes the pivot row; in the second, both
# rows are skipped at the first step, at the second the third row rotates up
# past the second (a one-row rotation, which is a swap), and the last row is
# rescaled by the pivot 6.  In the third, step 0 (pivot 2) skips the third
# row, whose base stays 1, and step 1 (pivot 5, the second row now
# (5, 2, -1)) updates it dividing by 1: (5 * (2, 1) - 1 * (2, -1)) / 1 =
# (8, 6), as (5 * (4, 2) - 2 * (2, -1)) / 2 gives on the row rescaled by 2.
# The last row is (-1, 2, 5) after step 0 and (6, 12) after step 1, so
# step 2 leaves (8 * 12 - 6 * 6) / 5 = 12, the determinant.
DEFERRED_CASES = (
    ((2, 1, 0), (0, 3, 1), (1, 1, 1)),
    ((2, 0, 1), (0, 0, 1), (0, 3, 0)),
    ((2, 1, 0, 1), (1, 3, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)),
)
# Step 0 cancels the tail of the second row to (0, 1, 0, 0), so the pivot
# of step 1 has trailing zeros its input row did not have, and it updates
# the third row, which ends one column past it.
CANCELLING_CASE = ((1, 2, 3, 4), (1, 3, 3, 4), (0, 1, 2, 0), (1, 0, 0, 5))


def _random_rows(rng: random.Random, n: int, density: float) -> list[list[int]]:
    return [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _kernel_cases(rng: random.Random) -> list[IntMatrix]:
    """Matrices up to 8x8: dense and sparse, upper triangular with shuffled
    rows (zero leads that force row rotations, and rows skipped at some
    steps that a later step updates from their stored entries),
    singular ones (a row that is a multiple of another), the row-extent
    shapes of ``_extent_cases`` and ``CANCELLING_CASE``."""
    cases = [IntMatrix(rows) for rows in DEFERRED_CASES]
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = _random_rows(rng, n, rng.choice((0.2, 0.4, 0.7, 1.0)))
        shape = rng.random()
        if shape < 0.25:
            rows = [[v if j >= i else 0 for j, v in enumerate(r)]
                    for i, r in enumerate(rows)]
            rng.shuffle(rows)
        elif shape < 0.4 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] = [2 * v for v in rows[j]]
        cases.append(IntMatrix(rows))
    # a stream of its own, so the cases above and their rhs draws stay put
    return cases + _extent_cases(random.Random(1968)) + [IntMatrix(CANCELLING_CASE)]


def _entry(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 4)


def _banded_border(rng: random.Random, n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in (i - 2, i, i + 1):
            if 0 <= j < n - 1:
                rows[i][j + 1] = _entry(rng)
    rows[n - 1][0] = _entry(rng)
    return rows


def _shifted_blocks(rng: random.Random, sizes: list[int]) -> list[list[int]]:
    n = sum(sizes) + 1
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for m in sizes:
        for i in range(m):
            for j in range(m):
                if rng.random() < 0.8:
                    rows[offset + i][offset + 1 + j] = _entry(rng)
        offset += m
    rows[n - 1][0] = _entry(rng)
    return rows


def _extent_cases(rng: random.Random) -> list[IntMatrix]:
    """Shapes whose rows end well before the last column, so the kernel's
    row extents decide which entries it updates:

    * banded + border, like ``beta_matrix``: the band {i-2, i, i+1} one
      column right and a border cell in the bottom-left corner;
    * shifted blocks + border, like the prime-block B: dense blocks down the
      diagonal one column right, and the same border cell;
    * short rows under a long first row, whose extents grow by fill-in;
    * a short row with a zero lead above a long one, so the rotation at the
      first step lifts the long row over it and the short row, the next
      pivot, ends before the rows it updates.
    """
    cases = [IntMatrix(_banded_border(rng, n)) for n in range(2, 9)]
    for sizes in ((2,), (2, 3), (3, 2, 2), (2, 2, 3)):
        cases.append(IntMatrix(_shifted_blocks(rng, sizes)))
    for n in range(3, 8):
        # row i > 0 ends at column i + 1; step 0 widens every such row to n
        rows = [[_entry(rng) for _ in range(n)]]
        rows += [[_entry(rng) if j <= i else 0 for j in range(n)] for i in range(1, n)]
        cases.append(IntMatrix(rows))
        # row 0 is short and has a zero lead; the long row n - 1 rotates up
        rows = [[0, _entry(rng)] + [0] * (n - 2)]
        rows += [[0] * i + [_entry(rng) for _ in range(n - i)] for i in range(1, n - 1)]
        rows.append([_entry(rng) for _ in range(n)])
        cases.append(IntMatrix(rows))
    return cases


def test_eliminate_matches_cofactor_expansion():
    # the third deferred case, worked by hand in the comment above it
    assert det_cofactor_expansion(IntMatrix(DEFERRED_CASES[2])) == 12
    rng = random.Random(4242)
    singular = 0
    for m in _kernel_cases(rng):
        d = det_cofactor_expansion(m)
        assert det(m) == d
        rhs = [rng.randint(-5, 5) for _ in range(m.n)]
        got, y = eliminate([list(r) for r in m.rows], rhs)
        assert got == d
        if d == 0:
            assert y is None
            singular += 1
        else:
            # y = adj(m) @ rhs, so m @ y = det(m) * rhs
            assert [sum(map(mul, r, y)) for r in m.rows] == [d * v for v in rhs]
            # a unit rhs, all zeros but the last, as in the solver's systems
            unit = [0] * (m.n - 1) + [1]
            got, y = eliminate([list(r) for r in m.rows], unit)
            assert got == d
            assert [sum(map(mul, r, y)) for r in m.rows] == [d * v for v in unit]
    assert singular >= 20


def _mid_size_cases(rng: random.Random) -> list[list[list[int]]]:
    """Sides 9..40 past what cofactor expansion reaches, in four shapes:
    sparse random, banded + border and shifted blocks + border (as in
    ``_extent_cases``, rows shuffled half the time), and dense.  Their zero
    leads skip rows over long runs of steps under pivots of many digits
    before a step updates them."""
    cases = []
    for n in range(9, 41, 3):
        sizes = []
        while sum(sizes) < n - 1:
            sizes.append(min(rng.randint(1, 6), n - 1 - sum(sizes)))
        shaped = [_banded_border(rng, n), _shifted_blocks(rng, sizes)]
        for rows in shaped:
            if rng.random() < 0.5:
                rng.shuffle(rows)
        sparse = _random_rows(rng, n, rng.choice((0.1, 0.2, 0.3)))
        cases += [sparse, *shaped, _random_rows(rng, n, 1.0)]
    return cases


def test_eliminate_matches_fraction_elimination_at_mid_size():
    rng = random.Random(4040)
    nonzero = 0
    for rows in _mid_size_cases(rng):
        n = len(rows)
        d = fraction_det(rows)
        assert eliminate([list(r) for r in rows]) == (d, None)
        for rhs in ([1] * n, [rng.randint(-5, 5) for _ in range(n)]):
            got, y = eliminate([list(r) for r in rows], rhs)
            assert got == d
            if d:
                assert [sum(map(mul, r, y)) for r in rows] == [d * v for v in rhs]
            else:
                assert y is None
        nonzero += d != 0
    assert nonzero >= 30


# Zero leads whose first nonzero lead lies 2 or 3 rows below the pivot, with
# the determinant worked by hand.  The first two rotate at step 0; the last
# two at step 1, moving down rows that step 0 skipped (still divided by 1,
# while the pivot is 2) and one that it updated.  Rotating row s up to k
# flips the sign only when s - k is odd.
ROTATION_CASES = (
    (((0, 1, 2), (0, 3, 1), (2, 1, 1)), -10),  # s - k = 2
    (((0, 1, 0, 2), (0, 2, 1, 0), (0, 0, 3, 1), (1, 1, 1, 1)), -13),  # 3
    (((2, 1, 0, 1), (0, 0, 1, 2), (2, 1, 3, 0), (0, 3, 1, 1)), -42),  # 2
    (((2, 1, 0, 1, 0), (0, 0, 1, 2, 0), (0, 0, 3, 0, 1), (2, 1, 1, 0, 0),
      (0, 3, 0, 1, 1)), -18),  # 3
)


def test_eliminate_rotates_rows_at_a_zero_lead():
    for rows, d in ROTATION_CASES:
        m = IntMatrix(rows)
        n = m.n
        assert det_cofactor_expansion(m) == d
        assert eliminate([list(r) for r in rows]) == (d, None)
        for rhs in ([1] * n, list(range(1, n + 1)), [0] * (n - 1) + [1]):
            got, y = eliminate([list(r) for r in rows], rhs)
            assert got == d
            assert [sum(map(mul, r, y)) for r in rows] == [d * v for v in rhs]


def _nonzeros(a: list[list[int]]) -> int:
    return sum(v != 0 for row in a for v in row)


def test_prime_block_elimination_is_fill_free():
    # B's border row is its only row with a nonzero first entry; lifted to
    # the top, it leaves the blocks J - C on the diagonal, and eliminating
    # a block diagonal fills nothing outside its blocks.  So B must end with
    # as many nonzeros as its blocks eliminated one at a time, plus the
    # border cell.  A swap sends the first block's first row to the bottom
    # instead, where it fills in the next block.
    for k in range(1, 9):
        a = [list(r) for r in prime_block_matrix(k).rows]
        eliminate(a)
        blocks = 0
        for p in first_primes(k):
            block = [[int((i - j - 1) % (p + 1) != 0) for j in range(p + 1)]
                     for i in range(p + 1)]
            eliminate(block)
            blocks += _nonzeros(block)
        assert _nonzeros(a) == blocks + 1


def test_family_matrices_match_closed_forms_up_to_n_400():
    # Second sources for the kernel on the paper's sparse families, well
    # past what cofactor expansion reaches: |det beta_n| = det_b(n - 1) and
    # |K(beta_n)| = C1 * g(n), the sum of beta_ne's raw coordinates (the
    # closed form divides them by g(n), a divisor that
    # test_beta_raw_coordinates_have_gcd_g checks), det B = -(the product of
    # the primes) and K(B) = -C1 for the prime-block matrix, signs included,
    # for every k up to the family cap (scan reads both from the closed
    # form).  Every beta n up to 40, then a stride, keeps the test under two
    # seconds.
    t = recurrence_table(400)
    for n in sorted({*range(8, 41), *range(41, 400, 23), 400}):
        m = beta_matrix(n)
        assert abs(det(m)) == t.det_b(n - 1)
        assert abs(cofactor_sum(m)) == beta_ne(n)[1] * t.g(n)
    for k in range(1, 18):
        b = prime_block_matrix(k)
        assert det(b) == -math.prod(first_primes(k))
        assert cofactor_sum(b) == -prime_block_ne(k)[1]


def test_det_transpose_and_column_swap():
    rng = random.Random(7)
    for _ in range(40):
        m = random_int_matrix(rng, 4, -9, 9)
        assert det(IntMatrix(zip(*m.rows))) == det(m)
        swapped = IntMatrix(
            [(r[1], r[0], r[2], r[3]) for r in m.rows]
        )
        assert det(swapped) == -det(m)


def test_replace_column_basic():
    m = replace_column(IntMatrix.identity(2), 1, (5, 7))
    assert m.rows == ((5, 0), (7, 1))


def test_replace_column_ones_keeps_det_one():
    m = replace_column(IntMatrix.identity(2), 2, (1, 1))
    assert m.rows == ((1, 1), (0, 1))
    assert det(m) == 1


def test_replace_column_in_block_matrix():
    got = replace_column(IntMatrix(block_reference(2)), 1, (1, 1, 1))
    assert det(got) == 1


def test_replace_column_rejects_bad_index():
    with pytest.raises(IndexError):
        replace_column(IntMatrix.identity(3), 0, (1, 1, 1))
    with pytest.raises(IndexError):
        replace_column(IntMatrix.identity(3), 4, (1, 1, 1))


def test_cofactor_sum_identity():
    for n in (1, 3, 6):
        assert cofactor_sum(IntMatrix.identity(n)) == n


def test_cofactor_sum_two_by_two_antidiagonal():
    assert cofactor_sum(IntMatrix([[0, 1], [1, 0]])) == -2


def test_cofactor_sum_bordered_banded_eight():
    assert abs(cofactor_sum(beta_matrix(8))) == 34


def test_cofactor_sum_matches_full_cofactor_grid():
    rng = random.Random(33)
    for _ in range(25):
        m = random_int_matrix(rng, 5, -3, 3)
        grid = 0
        for i in range(1, 6):
            for j in range(1, 6):
                minor = IntMatrix(
                    [
                        [m.rows[r][c] for c in range(5) if c != j - 1]
                        for r in range(5)
                        if r != i - 1
                    ]
                )
                grid += (-1) ** (i + j) * det(minor)
        assert cofactor_sum(m) == grid


def test_cofactor_sum_solve_shortcut_agrees():
    rng = random.Random(55)
    checked = 0
    while checked < 20:
        m = random_int_matrix(rng, 4, -5, 5)
        if det(m) == 0:
            continue
        assert cofactor_sum(m, method="solve") == cofactor_sum_definition(m)
        checked += 1
    structured = [beta_matrix(n) for n in range(2, 31)]
    structured += [prime_block_game(k).B for k in range(1, 5)]
    while len(structured) < 33 + 40:
        rows = _random_rows(rng, rng.randint(1, 6), rng.choice((0.3, 0.6, 1.0)))
        if det(IntMatrix(rows)):
            structured.append(IntMatrix(rows))
    for m in structured:
        assert cofactor_sum(m, method="solve") == cofactor_sum_definition(m)


def _singular_cases(rng: random.Random) -> list[IntMatrix]:
    """Singular matrices up to 6x6: a duplicated row, a zero row, or rank
    at most n - 1 from rows that are integer combinations of fewer rows."""
    cases = [IntMatrix([[1, 1], [1, 1]]), IntMatrix([[0]]), IntMatrix([[0, 0], [0, 0]])]
    for i in range(150):
        n = rng.randint(2, 6)
        rows = _random_rows(rng, n, rng.choice((0.3, 0.6, 1.0)))
        kind = i % 3
        if kind == 0:
            a, b = rng.sample(range(n), 2)
            rows[a] = list(rows[b])
        elif kind == 1:
            rows[rng.randrange(n)] = [0] * n
        else:
            rank = rng.randint(1, n - 1)
            basis = rows[:rank]
            rows = [
                [sum(c * r[j] for c, r in zip(coef, basis)) for j in range(n)]
                for coef in ([rng.randint(-2, 2) for _ in basis] for _ in range(n))
            ]
            rng.shuffle(rows)
        cases.append(IntMatrix(rows))
    return cases


def test_cofactor_sum_singular_matches_definition():
    # det(M + J) = det M + 1^T adj(M) 1, so a singular M needs no inverse
    rng = random.Random(8080)
    cases = _singular_cases(rng)
    assert len(cases) >= 100
    nonzero = 0
    for m in cases:
        assert det(m) == 0
        k = cofactor_sum(m, method="solve")
        assert k == cofactor_sum_definition(m)
        nonzero += k != 0
    assert nonzero >= 20
    with pytest.raises(ValueError):
        cofactor_sum(cases[0], method="definition")


def test_eliminate_identity():
    assert eliminate([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3]) == (1, [1, 2, 3])


def test_eliminate_two_by_two():
    # x = y / d = (1, 1)
    assert eliminate([[1, 1], [1, -1]], [2, 0]) == (-2, [-2, -2])


def test_eliminate_bordered_banded_transpose():
    d, y = eliminate([list(col) for col in zip(*beta_matrix(8).rows)], [1] * 8)
    assert [Fraction(v, d) for v in y] == [
        Fraction(p, 9) for p in (6, 2, 3, 1, 4, 5, 4, 9)
    ]


def test_eliminate_backsubstitution_on_scaled_rational_rhs():
    rng = random.Random(99)
    solved = 0
    while solved < 25:
        m = random_int_matrix(rng, 4, -6, 6)
        if det(m) == 0:
            continue
        rhs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)
        )
        scale = math.lcm(*(v.denominator for v in rhs))
        rhs = [int(v * scale) for v in rhs]
        d, y = eliminate([list(r) for r in m.rows], rhs)
        assert [sum(map(mul, r, y)) for r in m.rows] == [d * v for v in rhs]
        solved += 1


def _hypothesis_matrix(rng: random.Random, n: int) -> IntMatrix:
    """Random binary invertible matrix whose all-ones solve is nonnegative."""
    while True:
        m = random_binary_matrix(rng, n)
        d, y = eliminate([list(r) for r in m.rows], [1] * n)
        if d and all(v * d >= 0 for v in y):
            return m


def test_cofactor_det_inequalities():
    # |det| <= |K| <= n |det| for binary invertible m with m^-1 1 >= 0,
    # sharpened by the largest column sum: |K| >= (n / colmax) |det|.
    # (The sharpening genuinely needs column sums: pairing 1 with the solve
    # vector gives n = sum_j colsum_j x_j.  A 6x6 binary matrix with
    # det = K = 1, max row sum 5, and an all-ones column disproves the
    # row-sum variant.)
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 6)
        m = _hypothesis_matrix(rng, n)
        d = abs(det(m))
        k = abs(cofactor_sum(m))
        assert d <= k <= n * d
        colmax = max(sum(col) for col in zip(*m.rows))
        assert colmax * k >= n * d
