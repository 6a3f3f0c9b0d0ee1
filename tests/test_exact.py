import math
import random
from fractions import Fraction
from operator import mul

import pytest

from conftest import (
    cofactor_sum_definition,
    random_binary_matrix,
    random_int_matrix,
    replace_column,
)
from nashrand.exact import IntMatrix, cofactor_sum, det, eliminate
from nashrand.families import beta_matrix, block_matrix, prime_block_game


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


def test_det_block_matrix_six():
    assert det(block_matrix(5)) == 5


def test_det_bordered_banded_eight():
    value = det(beta_matrix(8))
    assert abs(value) == 9


def test_det_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(101)
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 5), -4, 4)
        assert det(m) == det_cofactor_expansion(m)


# Zero-lead patterns worked by hand.  In the first, the second row is skipped
# at the first step and rescaled by the pivot 2 when it becomes the pivot
# row; in the second, two skipped rows are swapped, and the last row is
# rescaled by the pivot 6.
DEFERRED_CASES = (
    ((2, 1, 0), (0, 3, 1), (1, 1, 1)),
    ((2, 0, 1), (0, 0, 1), (0, 3, 0)),
)


def _random_rows(rng: random.Random, n: int, density: float) -> list[list[int]]:
    return [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def _kernel_cases(rng: random.Random) -> list[IntMatrix]:
    """Matrices up to 7x7: dense and sparse, upper triangular with shuffled
    rows (zero leads that force row swaps and deferred rescaling), and
    singular ones (a row that is a multiple of another)."""
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
    return cases


def test_eliminate_matches_cofactor_expansion():
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
    assert singular >= 20


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
    got = replace_column(block_matrix(2), 1, (1, 1, 1))
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
