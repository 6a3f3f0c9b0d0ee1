"""Game families with closed-form equilibria and their supporting sequences.

Two constructions carry the heavy lifting:

* ``prime_block_game`` glues circulant-complement blocks sized by the first
  primes into one bordered imitation game.  Its unique equilibrium forces
  the row player's denominator to the product of those primes (times a
  small integer factor), while the column player just mixes uniformly.

* ``beta_game`` is a bordered banded binary matrix whose equilibrium
  coordinates are driven by a pair of order-4 integer recurrences; the
  equilibrium denominator grows geometrically with the dimension, with
  occasional dips where consecutive recurrence values share a gcd.

Both therefore exhibit an extreme randomness asymmetry between the two
players.  Each family's constant-sum twin (1 - B, B), whose payoffs are
symmetric under a pair of permutations, hands the large denominator to
*both* players.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

from .errors import HasPureNE, UnsupportedDimension
from .exact import IntMatrix
from .games import Game, MixedStrategy, Profile, uniform
from .solving import pure_nash

# ---------------------------------------------------------------------------
# primes

def first_primes(count: int) -> list[int]:
    """First ``count`` primes, by trial division on each call.

    Each candidate is divided only by the primes up to its square root, so
    one candidate never costs a pass over the whole list.  Callers ask for
    few primes (the CLI's cap check for at most 500, about 0.7 ms on a
    shared 2-core host), so no list is kept between calls.
    """
    if count < 0:
        raise ValueError(f"prime count must be >= 0, got {count}")
    primes = [2, 3]
    candidate = 5
    while len(primes) < count:
        # a candidate is below twice the last prime (Bertrand), so some
        # p found so far has p * p > candidate and the loop always breaks
        for p in primes:
            if p * p > candidate:
                primes.append(candidate)
                break
            if candidate % p == 0:
                break
        candidate += 2
    return primes[:count]


# ---------------------------------------------------------------------------
# 0/1 matrices


def _cell_matrix(n: int, cells: Iterable[tuple[int, int]]) -> IntMatrix:
    """n x n matrix with ones exactly at the given 0-based (row, column) cells."""
    rows = [[0] * n for _ in range(n)]
    for i, j in cells:
        rows[i][j] = 1
    return IntMatrix._of_ints(rows)


def _band_cells(m: int, shift: int) -> list[tuple[int, int]]:
    """Cells j in {i-2, i, i+1} of an m x m band, moved ``shift`` columns right."""
    return [(i, j + shift) for i in range(m) for j in (i - 2, i, i + 1) if 0 <= j < m]


def _block_cells(m: int, row: int, col: int) -> list[tuple[int, int]]:
    """Ones of an m x m block, zero exactly where i = j+1 mod m, put at (row, col)."""
    return [(row + i, col + j) for i in range(m) for j in range(m) if (i - j - 1) % m]


# ---------------------------------------------------------------------------
# the linear recurrences


def _one_based(values: Sequence[int], i: int) -> int:
    """values[i - 1]; an index below 1 raises instead of wrapping to the end."""
    if i < 1:
        raise IndexError(f"index {i} is below 1")
    return values[i - 1]


@dataclass(frozen=True)
class RecurrenceTable:
    """Exact values of the coupled order-4 recurrences.

    a starts (1, 1, 1, 0) and b starts (0, 1, 0, 1); both continue with
    s(n) = s(n-2) - s(n-3) + s(n-4).  det_b tracks the determinant sequence
    of the banded matrices (base 1, 1, 2; then d(n) = d(n-1) + d(n-3)), and
    g(n) = gcd(b(n), b(n+1)) = gcd(a(n), b(n)) is the divisor that
    occasionally shrinks the equilibrium denominator.  The second form holds
    because a(n) = b(n) + b(n+1) for every n: a - b - (b shifted by one)
    obeys the same linear recurrence and is 0 at n = 1..4.
    """

    upto: int
    a_values: tuple[int, ...]      # a_1 .. a_upto
    b_values: tuple[int, ...]      # b_1 .. b_{upto+1}
    det_b_values: tuple[int, ...]  # det B_1 .. det B_upto
    g_values: tuple[int, ...]      # g_1 .. g_upto

    def a(self, n: int) -> int:
        return _one_based(self.a_values, n)

    def b(self, n: int) -> int:
        return _one_based(self.b_values, n)

    def det_b(self, n: int) -> int:
        return _one_based(self.det_b_values, n)

    def g(self, n: int) -> int:
        return _one_based(self.g_values, n)


# a, b, det_b and g so far: the seeds of a, b and det_b, and no g yet.
# recurrence_table grows it in local lists and publishes it by one
# assignment, so a thread that reads it mid-growth sees the old store, never
# a torn one; two threads that grow it at once at worst repeat the work.
_RECURRENCES: tuple[tuple[int, ...], ...] = ((1, 1, 1, 0), (0, 1, 0, 1), (1, 1, 2), ())


def recurrence_table(upto: int) -> RecurrenceTable:
    """The recurrences' values up to index ``upto`` (b one index further).

    The values come from one store per process that grows to the largest
    ``upto`` asked for, so a scan over n costs each recurrence step once;
    tables are slices of it.  The store keeps every value it has computed;
    the entries at n of a, b and det_b have about 0.55 n bits each, so it
    holds about 88 KB after ``recurrence_table(500)`` and 12.3 MB after
    10,000, the cap of the ``recurrence`` command (``tracemalloc``).

    A pure computation: the identities linking the sequences are checked by
    the ``recurrence`` command, which prints the table, and by the tests
    (``test_recurrence_identities_long_range``).
    """
    global _RECURRENCES
    if upto < 4:
        raise UnsupportedDimension("table needs upto >= 4")
    a, b, det_b, g = _RECURRENCES
    if len(g) < upto:
        a, b, det_b = list(a), list(b), list(det_b)
        for _ in range(len(b), upto + 1):
            b.append(b[-2] - b[-3] + b[-4])
        for _ in range(len(a), upto):
            a.append(a[-2] - a[-3] + a[-4])
        for _ in range(len(det_b), upto):
            det_b.append(det_b[-1] + det_b[-3])
        g += tuple(map(math.gcd, b[len(g):upto], b[len(g) + 1:upto + 1]))
        a, b, det_b = tuple(a), tuple(b), tuple(det_b)
        _RECURRENCES = a, b, det_b, g
    return RecurrenceTable(upto, a[:upto], b[: upto + 1], det_b[:upto], g[:upto])


@dataclass(frozen=True)
class RecurrenceConstants:
    """Floating-point roots and weights of the recurrence's characteristic
    polynomial x^3 + x^2 + 1 (plus the root 1 split off from x^4 - x^2 + x - 1).

    b_n = w0 + w1 rho^n + 2 Re(w2 z^n), with the weight of each root r of
    p(x) = x^4 - x^2 + x - 1 in closed form: w_r = r / p'(r) =
    r / (4 r^3 - 2 r + 1).

    Everything exact goes through RecurrenceTable; these constants appear
    only in tolerance-based asymptotic checks.
    """

    rho: float
    z: complex
    w0: float
    w1: float
    w2: complex

    @property
    def growth_rate_bits(self) -> float:
        """log2 |rho|, the geometric growth rate of the sequences in bits."""
        return math.log2(-self.rho)


def recurrence_constants() -> RecurrenceConstants:
    """Machine-precision constants, Newton-polished from 4-digit seeds."""
    rho = -1.4656
    for _ in range(8):
        rho -= (rho**3 + rho**2 + 1) / (3 * rho**2 + 2 * rho)
    # remaining quadratic factor x^2 + (1 + rho) x + (rho^2 + rho)
    half = -(1 + rho) / 2
    imag = math.sqrt((rho**2 + rho) - half * half)
    z = complex(half, -imag)
    # b_n = sum of w_r r^n over the roots r of p(x) = x^4 - x^2 + x - 1.  The
    # sums sum_r r^k / p'(r) are 0 for k < 3 and h_{k-3} (complete homogeneous
    # symmetric polynomial of the roots) for k >= 3, so w_r = r / p'(r) gives
    # h_{n-2} = 0, 1, e1 = 0, e1^2 - e2 = 1 for n = 1..4: the Vandermonde
    # system's solution without an elimination.
    w0, w1, w2 = (r / (4 * r**3 - 2 * r + 1) for r in (1.0, rho, z))
    return RecurrenceConstants(rho=rho, z=z, w0=w0, w1=w1, w2=w2)


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """Bijection on {1, ..., n}.

    Applied to a vector v, the image w satisfies w_j = v_{pi(j)}.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        images = tuple(map(index, mapping))
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("mapping is not a bijection on 1..n")
        self.mapping = images

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return _one_based(self.mapping, i)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    @classmethod
    def forward_cycle(cls, n: int) -> "Permutation":
        """i -> i + 1 with wraparound."""
        return cls([i % n + 1 for i in range(1, n + 1)])

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """The product of disjoint cycles; an entry that appears twice raises."""
        mapping = [0] * n  # 0 until an entry's image is set
        for cycle in cycles:
            for pos, i in enumerate(cycle):
                if not 1 <= i <= n:
                    raise ValueError(f"cycle entry {i} is outside 1..{n}")
                if mapping[i - 1]:
                    raise ValueError(f"cycle entry {i} appears twice")
                mapping[i - 1] = cycle[(pos + 1) % len(cycle)]
        return cls([img or i for i, img in enumerate(mapping, start=1)])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.mapping, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        return Permutation([self(other(i)) for i in range(1, self.n + 1)])

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            i, cycle = start, []
            while i not in seen:
                seen.add(i)
                cycle.append(i)
                i = self(i)
            if cycle:
                out.append(tuple(cycle))
        return tuple(out)

    def apply(self, vector: Sequence) -> tuple:
        """Vector image under this permutation: result_j = v_{pi(j)}."""
        if len(vector) != self.n:
            raise ValueError("vector length does not match permutation size")
        return tuple(vector[self(j) - 1] for j in range(1, self.n + 1))

    def matrix(self) -> IntMatrix:
        """Permutation matrix P with P e_i = e_{pi(i)}."""
        return _cell_matrix(self.n, ((img - 1, c) for c, img in enumerate(self.mapping)))


# ---------------------------------------------------------------------------
# prime-block construction


def prime_block_matrix(num_primes: int) -> IntMatrix:
    """Payoff matrix B of ``prime_block_game``.

    B holds, for each of the first ``num_primes`` primes p, a (p+1) x (p+1)
    block with zeros exactly where i = j+1 mod p+1, down the diagonal
    shifted one column right, and a 1 in the bottom-left border cell.
    """
    if num_primes < 1:
        raise UnsupportedDimension("need at least one prime block")
    cells, offset = [], 0
    for p in first_primes(num_primes):
        cells += _block_cells(p + 1, offset, offset + 1)
        offset += p + 1
    return _cell_matrix(offset + 1, [*cells, (offset, 0)])


def prime_block_game(num_primes: int) -> Game:
    """Imitation game against ``prime_block_matrix(num_primes)``."""
    b = prime_block_matrix(num_primes)
    return Game(IntMatrix.identity(b.n), b, family_tag="primeblock")


def prime_block_ne(num_primes: int) -> tuple[Profile, int]:
    """Closed-form unique equilibrium of ``prime_block_game`` and its C_1.

    The column player mixes uniformly over all N strategies.  The row
    player puts weight 1/(p_k D) on every strategy of block k and the large
    weight 1/D on the bordered strategy N, where D = n + 1 + sum(1/p_k).
    The exact denominator is (n+1) * prod(p) + sum_k prod_{l != k}(p).

    The matrix B = ``prime_block_matrix(n)`` has det B = -prod(p) and
    cofactor sum K(B) = -C_1, so no elimination is needed for either:

    * Expand det B along its last row, e_1^T.  What is left is the block
      diagonal of the J_m - C_m, m = p + 1, with J_m all ones and C_m the
      cyclic shift.  They commute and share the Fourier eigenvectors, on
      which J_m - C_m takes m - 1 (on the ones vector) and -w^j for
      j = 1..m-1 (w = e^(2 pi i / m), prod w^j = (-1)^(m-1)), so
      det(J_m - C_m) = m - 1 = p.  The expansion's sign is (-1)^(N+1), and
      N - 1 = sum(p) + n is odd (sum(p) has the parity of n - 1), so
      det B = -prod(p).
    * B x = 1 is solved by x_1 = 1 and x = 1/p on the block of p: a block
      row holds m - 1 = p ones.  Hence K(B) = det B * 1^T B^-1 1 =
      -prod(p) * (1 + sum (p+1)/p) = -C_1.

    ``test_family_matrices_match_closed_forms_up_to_n_400`` checks both
    signs against the Bareiss kernel for n = 1..17, every n the family cap
    admits.
    """
    return closed_form("primeblock", num_primes)[:2]


def _prime_block_form(num_primes: int) -> tuple:
    """``prime_block_ne``'s row: |det B| = prod(p), |K(B)| = C_1, no g_n."""
    if num_primes < 1:
        raise UnsupportedDimension("need at least one prime block")
    primes = first_primes(num_primes)
    n = num_primes
    prod = math.prod(primes)
    c1 = (n + 1) * prod + sum(prod // p for p in primes)
    numerators: list[int] = []
    for p in primes:
        numerators.extend([prod // p] * (p + 1))
    numerators.append(prod)
    x = MixedStrategy(tuple(numerators), c1)
    return Profile(x, uniform(len(numerators))), c1, None, prod, c1


# ---------------------------------------------------------------------------
# banded recurrence construction


def beta_matrix(n: int) -> IntMatrix:
    """Bordered banded matrix: zero first column except a 1 in the last row,
    with the (n-1)-sized banded matrix in the upper right."""
    if n < 2:
        raise UnsupportedDimension("bordered banded matrix needs n >= 2")
    return _cell_matrix(n, [*_band_cells(n - 1, 1), (n - 1, 0)])


def beta_game(n: int) -> Game:
    """Imitation game against the bordered banded matrix."""
    return Game(IntMatrix.identity(n), beta_matrix(n), family_tag="beta")


def beta_ne(n: int) -> tuple[Profile, int]:
    """Closed-form unique equilibrium of ``beta_game(n)`` for n >= 8.

    The unnormalized coordinates come straight from the recurrences:
    x'_{n-1} = |b_n|, x'_{n-4} = |a_n|, x'_{n-k} = a_k |b_n| + b_k |a_n|
    for the remaining k < n, and x'_n = 2 |b_n| + |a_n|.  Their sum is
    |K(beta_n)|, and no matrix is built here.

    The raw coordinates' gcd is g(n), so the canonical x is raw / g(n) and
    C_1 = |K(beta_n)| / g(n) with no gcd taken.  Proof: |b_n| and |a_n| are
    raw coordinates, and every other one is an integer combination of them,
    so gcd(raw) = gcd(a_n, b_n); and a_n = b_n + b_{n+1} (see
    ``RecurrenceTable``), so gcd(a_n, b_n) = gcd(b_{n+1}, b_n) = g(n).

    ``test_family_matrices_match_closed_forms_up_to_n_400`` and
    ``test_beta_complexity_equals_cofactor_sum_over_gcd`` check the sum
    against the Bareiss cofactor sum, and
    ``test_beta_raw_coordinates_have_gcd_g`` checks the gcd from the table.
    """
    return closed_form("beta", n)[:2]


def _beta_form(n: int) -> tuple:
    """``beta_ne``'s row from one recurrence table (see ``_column_image``)."""
    if n < 8:
        raise UnsupportedDimension("closed form restricted to n >= 8")
    t = recurrence_table(n)
    a, b = t.a_values, t.b_values
    bn, an = abs(b[n - 1]), abs(a[n - 1])
    # raw[i - 1] = x'_i: x'_{n-k} for k = n-1 .. 2 (x'_{n-4} replaced by
    # |a_n|), then x'_{n-1} and x'_n
    raw = [ak * bn + bk * an for ak, bk in zip(a[n - 2:0:-1], b[n - 2:0:-1])]
    raw[n - 5] = an
    raw += bn, 2 * bn + an
    if min(raw) <= 0:
        raise AssertionError("closed-form coordinates must be positive")
    g, k = t.g_values[n - 1], sum(raw)
    x = MixedStrategy(tuple([v // g for v in raw]), k // g)
    return Profile(x, uniform(n)), x.denominator, g, t.det_b_values[n - 2], k


# ---------------------------------------------------------------------------
# constant-sum twins and special cases


def _column_image(profile: Profile, pi: Permutation) -> Profile:
    """The equilibrium (x, pi^-1 x) of the constant-sum twin (1 - B, B) of
    an imitation game (I, B) with equilibrium ``profile`` = (x, uniform).

    ``closed_form`` takes every twin's profile from here, for gen and scan.
    Let column i of B be the pi-permuted row tau(i): B[j][i] =
    B[tau(i)][pi(j)].  Then (B y)_tau(i) = (B^T x)_i for y = pi^-1 x, and
    B^T x = u 1 since x makes the imitation game's column player
    indifferent; so B y = u 1, every row of 1 - B pays 1 - u against y,
    every column of B pays u against x, and (x, y) is an equilibrium.  With
    det B != 0 and K(B) != det B (K the cofactor sum), det(1 - B) =
    (-1)^n (det B - K(B)) != 0 by the determinant lemma, and (x, y) is the
    twin's one fully mixed equilibrium.  Both families meet these
    hypotheses by construction, so no twin is checked when it is built:

    * beta, pi = tau = the reversal: the cells of ``beta_matrix(n)`` are
      invariant under (i, j) -> (n + 1 - j, n + 1 - i), which fixes the
      border cell (n, 1), keeps j - i and swaps the band's rows 1..n-1
      with its columns 2..n.  |det B| = det_b(n - 1) > 0, and
      |K(B)| = C_1 g(n) is the sum of ``beta_ne``'s positive raw
      coordinates, the last of which is 2|b(n)| + |a(n)| = det_b(n - 1).
    * prime blocks, pi = the forward cycle: B with its columns rotated by
      pi is diag(J_m - S_m, ..., 1), with m = p + 1 and S_m the cyclic
      shift (ones at i = j + 1 mod m).  B^T holds the blocks
      J_m - S_m^-1 one row lower and the border 1 in its first row, and
      row i of J_m - S_m^-1 is row i + 2 of J_m - S_m; so tau sends row 1
      to row N and twists each block by two.  det B = -prod(p) and
      K(B) = -C_1 (see ``prime_block_ne``), and C_1 > prod(p).

    ``test_constant_sum_builders_match_the_checked_transform`` rebuilds both
    twins through a transform that checks every hypothesis.
    """
    x = profile.x
    return Profile(x, MixedStrategy(pi.inverse().apply(x.numerators), x.denominator))


# each base family's closed-form row, its B and its twin's pi, as argued above
_FAMILIES = {
    "beta": (_beta_form, beta_matrix, Permutation.reversal),
    "primeblock": (_prime_block_form, prime_block_matrix, Permutation.forward_cycle),
}


def closed_form(family: str, n: int) -> tuple[Profile, int, int | None, int, int]:
    """Closed-form (profile, C_1, g_n, |det B|, |K(B)|) of ``family`` at n, no
    matrix built: ``beta``, ``primeblock`` (g_n None), or a twin ``constsum-*``,
    which keeps B, so every value but the profile is its base family's."""
    base = family.removeprefix("constsum-")
    form, _, pi_of = _FAMILIES[base]
    row = form(n)
    if base != family:
        row = (_column_image(row[0], pi_of(row[0].x.n)), *row[1:])
    return row


def _twin(base: str, n: int) -> tuple[Game, Profile, int]:
    """The constant-sum twin (1 - B, B) of a base family, its equilibrium and C."""
    b = _FAMILIES[base][1](n)
    profile, c1, *_ = closed_form(f"constsum-{base}", n)
    a = IntMatrix._of_ints([[1 - v for v in row] for row in b.rows])
    return Game(a, b, family_tag=f"constsum-{base}", constant_sum=1), profile, c1


def constant_sum_beta(n: int) -> tuple[Game, Profile, int]:
    """Constant-sum twin of ``beta_game`` with its equilibrium and C."""
    return _twin("beta", n)


def constant_sum_prime_block(num_primes: int) -> tuple[Game, Profile, int]:
    """Constant-sum twin of ``prime_block_game``."""
    return _twin("primeblock", num_primes)


def permutation_game(pi: Permutation, tau: Permutation) -> tuple[Game, int]:
    """Game of two permutation matrices and its common minimal complexity.

    Equilibria are uniform mixes over unions of cycles of pi^-1 tau (paired
    with the pi-image support for the row player), so both players' minimal
    complexity is the length of the shortest cycle.
    """
    if pi.n != tau.n:
        raise ValueError("permutations act on different sets")
    game = Game(pi.matrix(), tau.matrix(), family_tag="permutation")
    shortest = min(len(c) for c in pi.inverse().compose(tau).cycles())
    return game, shortest


def two_by_two_complexities(game: Game) -> tuple[int, int]:
    """Closed-form minimal complexities of a 2x2 game without pure equilibria.

    The unique equilibrium makes each player indifferent.  The row player's
    x solves x_1 beta_1 = x_2 beta_2 with beta_1 = B12 - B11 and
    beta_2 = B21 - B22, so x = (beta_2, beta_1) / (beta_1 + beta_2) and

        C_1 = |beta_1 + beta_2| / gcd(beta_1, beta_2),

    and C_2 likewise from A, with alpha_1 = A11 - A21 and alpha_2 =
    A22 - A12.  Without a pure equilibrium each pair is nonzero and of one
    sign (otherwise a column, or a row, weakly dominates and a pure
    equilibrium exists), so neither sum is 0.  The rows need no orientation:
    swapping them sends (beta_1, beta_2) to (-beta_2, -beta_1) and the
    alphas to their negatives, which flips each sum's sign and keeps each
    gcd.  Raises HasPureNE when a pure equilibrium exists (both
    complexities are 1 then).
    """
    if game.n != 2:
        raise UnsupportedDimension("closed form only covers 2x2 games")
    if pure_nash(game):
        raise HasPureNE()
    (a11, a12), (a21, a22) = game.A.rows
    (b11, b12), (b21, b22) = game.B.rows
    beta_1, beta_2 = b12 - b11, b21 - b22
    alpha_1, alpha_2 = a11 - a21, a22 - a12
    c1 = abs(beta_1 + beta_2) // math.gcd(beta_1, beta_2)
    c2 = abs(alpha_1 + alpha_2) // math.gcd(alpha_1, alpha_2)
    return c1, c2


# ---------------------------------------------------------------------------
# asymptotics


@dataclass(frozen=True)
class AsymptoticReport:
    upto: int
    top_ratio: float               # b(upto+1) / b(upto)
    ratio_error: float             # |top_ratio - rho|
    sandwich_ok: bool              # ratios alternate around rho, distances shrink
    sandwich_checked_upto: int
    claim_one: float               # b_l - b_{l+1} b_{l-1} / b_l at l = upto - 1
    claim_one_target: float
    claim_two: float               # b_{l+2} - b_{l+1}^2 / b_l at l = upto - 1
    claim_two_target: float
    gcd_envelope_violations: tuple[int, ...]


def asymptotic_checks(
    table: RecurrenceTable, consts: RecurrenceConstants
) -> AsymptoticReport:
    """Float spot checks of the limits the integer sequences approach.

    The gcd envelope gamma^n (gamma = sqrt(2) + 0.01) is known to fail on a
    sparse exceptional set; violating indices are reported, never hidden.
    """
    if table.upto < 40:
        raise UnsupportedDimension("asymptotic checks need a table up to >= 40")
    rho = consts.rho
    top = table.upto
    ratios = {n: table.b(n + 1) / table.b(n) for n in range(5, top + 1)}
    # Ratios with even index sit above rho, odd ones below, and from n = 7
    # the distances shrink strictly.  (They do not shrink from n = 5: the
    # ratios at 5 and 7 are both exactly -2.)  Monotonicity is only judged
    # while the distances stay above double-precision resolution.
    sandwich_ok = True
    checked = 5
    prev_dist = None
    for n in range(5, top + 1):
        dist = abs(ratios[n] - rho)
        if dist <= 1e-12:
            break
        side_ok = ratios[n] > rho if n % 2 == 0 else ratios[n] < rho
        if not side_ok:
            sandwich_ok = False
        if n >= 8 and prev_dist is not None and dist >= prev_dist:
            sandwich_ok = False
        prev_dist = dist
        checked = n
    l = top - 1
    claim_one = table.b(l) - Fraction(table.b(l + 1) * table.b(l - 1), table.b(l))
    claim_two = table.b(l + 2) - Fraction(table.b(l + 1) ** 2, table.b(l))
    gamma = math.sqrt(2) + 0.01
    violations = tuple(
        n for n in range(1, top + 1) if table.g(n) > gamma**n
    )
    return AsymptoticReport(
        upto=top,
        top_ratio=ratios[top],
        ratio_error=abs(ratios[top] - rho),
        sandwich_ok=sandwich_ok,
        sandwich_checked_upto=checked,
        claim_one=float(claim_one),
        claim_one_target=-((rho - 1) ** 2) / (3 * rho),
        claim_two=float(claim_two),
        claim_two_target=((rho - 1) ** 2) / 3,
        gcd_envelope_violations=violations,
    )
