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

where prev is the latest pivot and base[i] the pivot of the step that
last updated row i (1 before any).  With s the stored row and
t = s * prev / base[i] the eliminated one,

    (p_k * s - s_ik * row_k) / base[i] = (p_k * t - t_ik * row_k) / prev,

the textbook step: a skipped row costs nothing until it is updated as
stored, dividing by its own base, exactly since the result is a minor.
Only a pivot row is rescaled, once, by ``v * prev // base[k]``, and a
zero test on a stored lead is exact, no pivot being zero.

Each row also carries an extent, ends[i]: every entry of row i at or past
column ends[i] is zero.  Extents start at n, so a dense row costs nothing
to set up; a scan over trailing zeros cuts a row's extent back to one past
its last nonzero when the row becomes the pivot, or when a pivot that ends
before it updates it.  Step k then updates row i over columns k+1 .. e
only, with e = max(ends[i], ends[k]), and sets ends[i] = e; the pivot
rescale covers row k up to ends[k], and back-substitution stops there.
The entries skipped lie past both rows' extents, where the full-width
update would write 0 * p_k - a_ik * 0 = 0 over a stored 0, and a rescale
would leave 0.  So every stored entry is the same minor as in the
full-width loop, and det, the solve, the signs and every exact division
are unchanged bit for bit, while a banded or block-shifted row costs its
span rather than n.  The right-hand side is held apart in a vector of its
own, so an all-ones rhs widens no row.

A zero lead at step k is met by a rotation, not a swap: the first row
s > k with a nonzero lead moves up to place k and rows k .. s-1 move down
by one place, each row taking its base, its extent and its rhs entry along.
Both invariants are facts about a row's stored entries, not about its place,
so they still hold after the move; and only rows k .. s move, all below the
finished rows 0 .. k-1, so the triangle built so far is untouched.  A
rotation over s - k places is s - k adjacent swaps, so it flips the sign of
the determinant exactly when s - k is odd.

A rotation also keeps a row-shifted block diagonal free of fill-in.  In the
prime-block B each block sits one column right of the diagonal, so every
diagonal entry is zero and only the border row, last, has a nonzero first
entry.  Rotating it to the top moves every other row down one place, which
puts each block on the diagonal.  Bareiss on a block diagonal updates a row
only from a pivot row of its own block, since the rows of other blocks are
zero in the pivot column, and only over that block's columns, since both
rows' extents end there; so no entry outside the blocks turns nonzero, and
B costs what its blocks cost one at a time.  A swap would instead send the
first block's first row to the bottom, and from there it fills in the next
block, and so on down the chain of blocks.

The cofactor sum K(M) = 1^T adj(M) 1 comes from the same kernel by the
matrix determinant lemma det(M + 1 1^T) = det(M) + 1^T adj(M) 1: when
det(M) != 0 it is the entry sum of adj(M) @ 1, and otherwise it is
det(M + J), with J the all-ones matrix.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable square matrix of integers.

    ``IntMatrix(rows)`` is the one validating constructor: it refuses a
    float or a string entry (TypeError) and a grid that is not square
    (ValueError).  Builders whose grids are square and hold ints by
    construction (the identity, the family matrices, a parsed game's
    already checked payoffs) go through ``_of_ints``, which only copies.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        # exact-size tuples: tuple() of a generator over-allocates and then
        # shrinks, which hands the memory back to another size's free list;
        # index refuses a float or a string where int would truncate or parse
        grid = tuple([tuple([*map(index, row)]) for row in rows])
        n = len(grid)
        for row in grid:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.n = n
        self.rows = grid

    @classmethod
    def _of_ints(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        """The matrix of a square grid of ints, with no check of either;
        rows become exact-size tuples, as in ``__init__``."""
        m = cls.__new__(cls)
        m.rows = grid = tuple([tuple(row) for row in rows])
        m.n = len(grid)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls._of_ints(rows)

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
    """Exact determinant; the empty 0x0 matrix has determinant 1.

    Two equal rows or a row of zeros make it 0 with no elimination.
    """
    rows = set(m.rows)
    if len(rows) < m.n or (0,) * m.n in rows:
        return 0
    return eliminate([list(row) for row in m.rows])[0]


def eliminate(
    a: list[list[int]], rhs: Sequence[int] | None = None
) -> tuple[int, list[int] | None]:
    """Bareiss elimination of ``a``: the one kernel behind this module.

    Returns ``(det(a), y)``.  When ``rhs`` is given and det(a) != 0, y is the
    integer vector adj(a) @ rhs, so x = y / det(a) solves ``a @ x = rhs``;
    otherwise y is None.  Mutates ``a`` (rows are moved and rescaled in
    place); ``rhs`` is copied into a vector of its own and left untouched.

    The list-of-lists surface lets support enumeration call this directly
    on its hot path.

    A row whose lead is zero at step k is left as stored, and its next
    update divides by the pivot it last saw; only a pivot row is rescaled.
    Rows are updated over their extents only (see the module docstring).
    At a zero lead the first row below with a nonzero lead rotates up to
    the pivot place, carrying its ``base``, ``ends`` and rhs entry, and the
    rows it passes move down by one with theirs.
    """
    n = len(a)
    solve = rhs is not None
    r = list(rhs) if solve else None
    ends = [n] * n
    sign = 1
    prev = 1
    base = [1] * n
    for k in range(n):
        row_k = a[k]
        if not row_k[k]:
            for s in range(k + 1, n):
                if a[s][k]:
                    break
            else:
                return 0, None
            # rotate row s up to k; rows k .. s-1 each move down by one
            row_k = a.pop(s)
            a.insert(k, row_k)
            base.insert(k, base.pop(s))
            ends.insert(k, ends.pop(s))
            if solve:
                r.insert(k, r.pop(s))
            if (s - k) & 1:
                sign = -sign
        end = ends[k]
        while not row_k[end - 1]:  # stops at the pivot, row_k[k] != 0
            end -= 1
            ends[k] = end
        b = base[k]
        if b != prev:
            row_k[k:end] = [v * prev // b for v in row_k[k:end]]
            if solve:
                r[k] = r[k] * prev // b
        pivot = row_k[k]
        if solve:
            rk = r[k]
        k1 = k + 1
        for i in range(k1, n):
            row_i = a[i]
            lead = row_i[k]
            if not lead:
                continue
            e = ends[i]
            if e != end:
                if e > end:
                    while not row_i[e - 1]:  # stops at the lead
                        e -= 1
                if e < end:
                    e = end
                ends[i] = e
            b = base[i]
            for j in range(k1, e):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // b
            if solve:
                r[i] = (r[i] * pivot - lead * rk) // b
            base[i] = pivot
        prev = pivot
    d = sign * prev
    if not solve:
        return d, None
    # back-substitution on the triangle, scaled by d so y stays integral
    y = [0] * n
    if n:
        y[-1] = sign * r[n - 1]
    for i in range(n - 2, -1, -1):
        row = a[i]
        acc = r[i] * d
        for j in range(i + 1, ends[i]):
            acc -= row[j] * y[j]
        q, rem = divmod(acc, row[i])
        if rem:
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

