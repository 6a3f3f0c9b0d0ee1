"""Exact linear algebra over square integer matrices.

Everything here is computed with unbounded Python integers and
``fractions.Fraction``; no floating point is involved.  Determinants use
fraction-free (Bareiss) elimination, which keeps intermediate entries
integral and divisions exact, so matrices of a few hundred rows stay cheap.

Column indices at the public API are 1-based, matching the usual
linear-algebra convention for "replace column i".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SingularMatrix

Rational = int | Fraction


class IntMatrix:
    """Immutable square matrix of integers."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(grid)
        for row in grid:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.n = n
        self.rows = grid

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows)) if self.n else IntMatrix(())

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[int, ...]:
        """1-based column extraction."""
        return tuple(row[j - 1] for row in self.rows)

    def max_abs(self) -> int:
        return max((abs(v) for row in self.rows for v in row), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"IntMatrix({self.n}x{self.n}: {body})"


def det(m: IntMatrix) -> int:
    """Exact determinant; the empty 0x0 matrix has determinant 1."""
    return _det_rows([list(row) for row in m.rows])


def _det_rows(a: list[list[int]]) -> int:
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_cofactor_expansion(m: IntMatrix) -> int:
    """Determinant by first-row cofactor expansion.

    Factorial cost; kept as an independent cross-check for small matrices.
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


def replace_column(m: IntMatrix, i: int, column: Sequence[int]) -> IntMatrix:
    """Copy of ``m`` with 1-based column ``i`` replaced by ``column``."""
    if not 1 <= i <= m.n:
        raise IndexError(f"column index {i} out of range 1..{m.n}")
    col = [int(v) for v in column]
    if len(col) != m.n:
        raise ValueError(f"replacement column has length {len(col)}, need {m.n}")
    j = i - 1
    return IntMatrix(
        row[:j] + (col[r],) + row[j + 1:] for r, row in enumerate(m.rows)
    )


def cofactor_sum(m: IntMatrix, *, method: str = "definition") -> int:
    """Sum of all cofactors of ``m``.

    Equals the sum over columns of the determinant after replacing that
    column with all-ones.  ``method="definition"`` evaluates those n
    determinants; ``method="solve"`` uses one exact solve instead
    (valid only for invertible input, cubic instead of quartic cost).
    """
    n = m.n
    if method == "solve":
        d = det(m)
        if d == 0:
            raise SingularMatrix("solve-based cofactor sum needs det != 0")
        total = sum(solve_exact(m.transpose(), [1] * n))
        value = total * d
        if value.denominator != 1:
            raise ArithmeticError("det times the solve sum must be an integer")
        return int(value)
    if method != "definition":
        raise ValueError(f"unknown method {method!r}")
    ones = [1] * n
    return sum(det(replace_column(m, i, ones)) for i in range(1, n + 1))


def solve_exact(m: IntMatrix, rhs: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Unique exact solution of ``m @ x = rhs``.

    Raises SingularMatrix when the determinant is zero.  Rational
    right-hand sides are supported by clearing denominators first.
    """
    if len(rhs) != m.n:
        raise ValueError(f"rhs has length {len(rhs)}, need {m.n}")
    b = [Fraction(v) for v in rhs]
    scale = 1
    for v in b:
        scale = scale * v.denominator // _gcd(scale, v.denominator)
    b_int = [int(v * scale) for v in b]
    sol = solve_int(list(list(row) for row in m.rows), b_int)
    if sol is None:
        raise SingularMatrix("matrix has determinant zero")
    return tuple(v / scale for v in sol)


def solve_scaled(a: list[list[int]], rhs: list[int]) -> tuple[int, list[int]] | None:
    """Integer solve of ``a @ x = rhs``: returns (d, y) with x = y / d.

    Bareiss forward elimination followed by integer back-substitution; d is
    the final pivot (the determinant up to row-swap sign), and every y_i is
    an integer by Cramer's rule.  Mutates ``a``.  Returns None when the
    matrix is singular.  This is the hot path of support enumeration, hence
    the plain list-of-lists surface and the all-integer arithmetic.
    """
    n = len(a)
    for i in range(n):
        a[i].append(rhs[i])
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                return None
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    d = a[n - 1][n - 1]
    if d == 0:
        return None
    y = [0] * n
    y[n - 1] = a[n - 1][n]
    for i in range(n - 2, -1, -1):
        row = a[i]
        acc = row[n] * d
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        q, r = divmod(acc, row[i])
        if r:
            raise ArithmeticError("scaled back-substitution must divide exactly")
        y[i] = q
    return d, y


def solve_int(a: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Exact rational solution of an integer system, or None if singular."""
    scaled = solve_scaled(a, rhs)
    if scaled is None:
        return None
    d, y = scaled
    return [Fraction(v, d) for v in y]


def mat_vec(m: IntMatrix, v: Sequence[Rational]) -> tuple[Fraction, ...]:
    """m @ v with exact rationals."""
    return tuple(
        sum((Fraction(row[j]) * v[j] for j in range(m.n)), Fraction(0))
        for row in m.rows
    )


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
