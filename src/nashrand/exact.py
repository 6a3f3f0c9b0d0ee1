"""Exact linear algebra over square integer matrices.

Everything here is computed with unbounded Python integers; no fraction
or floating point is involved.  Determinants, solves and cofactor sums
all run through one fraction-free (Bareiss) elimination, ``eliminate``,
which keeps intermediate entries integral and divisions exact, so
matrices of a few hundred rows stay cheap.

Bareiss step k replaces each row i below the pivot p_k by
(row_i * p_k - a_ik * row_k) / p_{k-1}; by Sylvester's identity every
entry produced is a minor of the input (Bareiss, Math. Comp. 1968).  A row
whose lead a_ik is zero would only be multiplied by p_k / p_{k-1}, so the
kernel skips it and keeps the invariant

    stored row i = eliminated row i * base[i] / prev,

where prev is the latest pivot and base[i] the pivot row i is currently
divided by (the one current when it was last updated).  The skipped
factors telescope, so when the row is next needed (nonzero lead, pivot
row, or last row) one rescale ``v * prev // base[i]`` restores it, and the
division is exact because the result is a minor.  Sparse and banded
matrices thus skip most of the arithmetic.

The cofactor sum K(M) = 1^T adj(M) 1 comes from the same kernel by the
matrix determinant lemma det(M + 1 1^T) = det(M) + 1^T adj(M) 1: when
det(M) != 0 it is the entry sum of adj(M) @ 1, and otherwise it is
det(M + J), with J the all-ones matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class IntMatrix:
    """Immutable square matrix of integers."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        # exact-size tuples: tuple() of a generator over-allocates and then
        # shrinks, which hands the memory back to another size's free list
        grid = tuple([tuple([*map(int, row)]) for row in rows])
        n = len(grid)
        for row in grid:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.n = n
        self.rows = grid

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls(rows)

    def is_identity(self) -> bool:
        """Whether each row holds a single 1, on the diagonal, and n - 1 zeros."""
        zeros = self.n - 1
        return all(
            row[i] == 1 and row.count(0) == zeros for i, row in enumerate(self.rows)
        )

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
    return eliminate([list(row) for row in m.rows])[0]


def eliminate(
    a: list[list[int]], rhs: Sequence[int] | None = None
) -> tuple[int, list[int] | None]:
    """Bareiss elimination of ``a``: the one kernel behind this module.

    Returns ``(det(a), y)``.  When ``rhs`` is given and det(a) != 0, y is the
    integer vector adj(a) @ rhs, so x = y / det(a) solves ``a @ x = rhs``;
    otherwise y is None.  Mutates ``a``: rows are swapped, rescaled and
    extended by ``rhs``.

    The list-of-lists surface lets support enumeration call this directly
    on its hot path.

    Rows whose lead is zero at step k are left unscaled, as the module
    docstring describes.  A zero test on such a row is still exact, because
    the skipped factor is nonzero.  Row swaps carry ``base`` along.
    """
    n = len(a)
    if rhs is not None:
        for row, v in zip(a, rhs):
            row.append(v)
    width = len(a[0]) if n else 0
    sign = 1
    prev = 1
    base = [1] * n
    for k in range(n):
        row_k = a[k]
        if row_k[k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], row_k
                    base[k], base[r] = base[r], base[k]
                    row_k = a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        b = base[k]
        if b != prev:
            row_k[k:] = [v * prev // b for v in row_k[k:]]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            if lead == 0:
                continue
            b = base[i]
            if b != prev:
                row_i[k:] = [v * prev // b for v in row_i[k:]]
                lead = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            base[i] = pivot
        prev = pivot
    d = sign * prev
    if rhs is None:
        return d, None
    # back-substitution on the triangle, scaled by d so y stays integral
    y = [0] * n
    if n:
        y[-1] = sign * a[-1][n]
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


def cofactor_sum(m: IntMatrix, *, method: str = "solve") -> int:
    """Sum of all cofactors of ``m``, 1^T adj(m) 1, at cubic cost.

    Invertible ``m``: the entry sum of y = adj(m) @ 1.  Singular ``m``:
    det(m + J), which the determinant lemma in the module docstring makes
    equal.  ``method`` accepts only ``"solve"``.
    """
    if method != "solve":
        raise ValueError(f"unknown method {method!r}")
    d, y = eliminate([list(row) for row in m.rows], [1] * m.n)
    if d:
        return sum(y)
    return eliminate([[v + 1 for v in row] for row in m.rows])[0]

