import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from nashrand.errors import HypothesisViolation, NotADistribution, SamplerStall
from nashrand.exact import IntMatrix, det, eliminate
from nashrand.families import (
    Permutation,
    beta_game,
    constant_sum_beta,
    first_primes,
    permutation_game,
    prime_block_game,
)
from nashrand.games import Game, MixedStrategy, Profile, complexity
from nashrand.sampling import DEPTH_CAP
from nashrand.solving import SolveReport

Rows = tuple[tuple[int, ...], ...]

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# Distributions of the two showcase 8x8 games, frozen from the closed forms.
X1_NUMERATORS = (6, 2, 3, 1, 4, 5, 4, 9)
Y2_NUMERATORS = (9, 4, 5, 4, 1, 3, 2, 6)

EXAMPLE1_B_ROWS = (
    (0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0),
    (0, 1, 0, 1, 1, 0, 0, 0),
    (0, 0, 1, 0, 1, 1, 0, 0),
    (0, 0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 1, 1),
    (0, 0, 0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 0),
)


def canonicalize(raw: Sequence[int | Fraction]) -> MixedStrategy:
    """Reduce a distribution to its canonical numerators-over-q form."""
    probs = [Fraction(v) for v in raw]
    if any(p < 0 for p in probs):
        raise NotADistribution("negative probability")
    if sum(probs) != 1:
        raise NotADistribution(f"probabilities sum to {sum(probs)}, not 1")
    q = math.lcm(*(p.denominator for p in probs))
    nums = [int(p * q) for p in probs]
    g = math.gcd(*nums)
    return MixedStrategy(tuple(p // g for p in nums), q // g)


def pad_game(game: Game) -> Game:
    """Append one dummy strategy per player without changing the equilibria.

    The row player's dummy row earns 1 only against the dummy column; the
    column player's dummy column always earns 0.  Requires no all-zero
    column in A and no all-zero row in B, else the dummies could matter.
    """
    n = game.n
    a = game.A.rows
    b = game.B.rows
    for j in range(n):
        if all(a[i][j] == 0 for i in range(n)):
            raise HypothesisViolation(f"column {j + 1} of A is all zeros")
    for i in range(n):
        if all(v == 0 for v in b[i]):
            raise HypothesisViolation(f"row {i + 1} of B is all zeros")
    a_rows = [row + (1,) for row in a]
    a_rows.append((0,) * n + (1,))
    b_rows = [row + (0,) for row in b]
    b_rows.append((1,) * n + (0,))
    constant = game.constant_sum if game.constant_sum == 1 else None
    return Game(
        IntMatrix(a_rows),
        IntMatrix(b_rows),
        family_tag=game.family_tag,
        constant_sum=constant,
    )


def coordination_game() -> Game:
    return Game(IntMatrix.identity(2), IntMatrix.identity(2))


def matching_pennies() -> Game:
    return Game(IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]]))


def asymmetric_2x2() -> Game:
    return Game(IntMatrix([[3, 0], [0, 2]]), IntMatrix([[0, 1], [2, 0]]))


@pytest.fixture(autouse=True)
def _no_max_n_from_the_shell(monkeypatch):
    """Tier-1 verdicts must not depend on the developer's NASHRAND_MAX_N.

    A test that needs the variable sets it itself with ``monkeypatch.setenv``.
    """
    monkeypatch.delenv("NASHRAND_MAX_N", raising=False)


@pytest.fixture(scope="session")
def corpus() -> dict[str, Game]:
    """Solvable games (n <= 10) exercised across the acceptance suite.

    Support enumeration results are cached inside the library, so repeated
    solves of these games across tests cost one enumeration each.
    """
    games: dict[str, Game] = {
        "example1": beta_game(8),
        "example2": constant_sum_beta(8)[0],
        "beta9": beta_game(9),
        "beta10": beta_game(10),
        "primeblock1": prime_block_game(1),
        "primeblock2": prime_block_game(2),
        "coordination": coordination_game(),
        "matching_pennies": matching_pennies(),
        "asymmetric_2x2": asymmetric_2x2(),
        "padded_example1": pad_game(beta_game(8)),
        "permutation_2_2": permutation_game(
            Permutation.identity(4), Permutation.from_cycles(4, [(1, 2), (3, 4)])
        )[0],
    }
    return games


def random_binary_matrix(rng: random.Random, n: int) -> IntMatrix:
    """The matrix ``rng.randint(0, 1)`` entries would give, drawn faster.

    CPython's ``randint(0, 1)`` draws ``getrandbits(2)`` until the value is
    below 2; this inlines that loop, so seeded streams are unchanged
    (pinned by ``test_random_binary_matrix_matches_randint``).
    """
    bits = rng.getrandbits
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            r = bits(2)
            while r >= 2:
                r = bits(2)
            row.append(r)
        rows.append(row)
    return IntMatrix(rows)


# each 32-bit output's top byte, mapped to getrandbits(2) and cleared of the
# values randint(0, 1) rejects
_TOP_TWO_BITS = bytes(t >> 6 for t in range(256))
_REJECTED = bytes(range(128, 256))


def binary_blocks(rng: random.Random, size: int) -> Iterator[bytes]:
    """Successive blocks of ``size`` ``rng.randint(0, 1)`` values, read in bulk.

    ``getrandbits(2)`` is the top two bits of one 32-bit output, and
    ``randint(0, 1)`` draws it until the value is below 2.  This reads
    1,024 outputs at a time from the little-endian bytes of
    ``getrandbits(32 * 1024)``, where every fourth byte is an output's top
    byte, as ``BitSource`` reads ``WORDS`` (256) at a time.  With
    size = n^2, a block holds the entries of the
    ``random_binary_matrix(rng, n)`` call it replaces, row-major (pinned by
    ``test_random_binary_matrix_matches_randint``).  The reader draws ahead,
    so nothing else may use ``rng`` meanwhile.
    """
    pending = b""
    while True:
        top = rng.getrandbits(32 * 1024).to_bytes(4 * 1024, "little")[3::4]
        pending += top.translate(_TOP_TWO_BITS, _REJECTED)
        end = len(pending) - len(pending) % size
        yield from (pending[i:i + size] for i in range(0, end, size))
        pending = pending[end:]


def random_int_matrix(rng: random.Random, n: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# oracles: independent of the elimination shortcuts the library takes ------


def same_as_checked(m: IntMatrix) -> bool:
    """Whether m, built without IntMatrix's entry check, is what the checked
    constructor builds from its rows: equal, with the same hash and side, as
    a tuple of tuples of exact ints (no bool, float or int subclass)."""
    checked = IntMatrix(m.rows)
    return (m == checked and hash(m) == hash(checked) and m.n == checked.n
            and type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
            and all(type(v) is int for row in m.rows for v in row))


def banded_reference(m: int) -> Rows:
    """m x m 0/1 rows with ones on the diagonal, the superdiagonal and the
    second subdiagonal, entry by entry."""
    return tuple(
        tuple(1 if j - i in (0, 1) or i - j == 2 else 0 for j in range(m))
        for i in range(m)
    )


def block_reference(k: int) -> Rows:
    """(k+1) x (k+1) 0/1 rows with zeros exactly where i = j+1 mod k+1."""
    m = k + 1
    return tuple(
        tuple(0 if (i - j - 1) % m == 0 else 1 for j in range(m)) for i in range(m)
    )


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


def cofactor_sum_definition(m: IntMatrix) -> int:
    """Sum of all cofactors as the sum over columns of det(m with that
    column replaced by all-ones): n determinants, quartic cost, and valid
    for singular ``m`` too."""
    ones = [1] * m.n
    return sum(det(replace_column(m, i, ones)) for i in range(1, m.n + 1))


def bordered_fraction_solve(
    rows: Rows,
) -> tuple[Fraction, list[Fraction], Fraction] | None:
    """The bordered system [R -1; 1^T 0] [z; v] = [0; 1] on the k rows of
    ``rows``, by Gauss-Jordan elimination over Fractions, with no integer
    kernel.  Returns (|det|, z, v), or None when the system is singular."""
    k = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(-1), Fraction(0)] for row in rows]
    m.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    size = k + 1
    det_value = Fraction(1)
    for c in range(size):
        p = next((r for r in range(c, size) if m[r][c]), None)
        if p is None:
            return None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det_value = -det_value
        pivot = m[c][c]
        det_value *= pivot
        m[c] = [v / pivot for v in m[c]]
        for r in range(size):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return abs(det_value), [m[r][size] for r in range(k)], m[k][size]


def fraction_det(rows: Rows) -> int:
    """Determinant by Gaussian elimination over Fractions, with no integer
    kernel: the product of the pivots, negated once per row swap."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det_value = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det_value = -det_value
        pivot = m[c][c]
        det_value *= pivot
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / pivot
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    if det_value.denominator != 1:
        raise ArithmeticError("a determinant of integers must be an integer")
    return det_value.numerator


def mat_vec(m: IntMatrix, v: Sequence) -> tuple[Fraction, ...]:
    """m @ v with exact rationals."""
    return tuple(
        sum((Fraction(row[j]) * v[j] for j in range(m.n)), Fraction(0))
        for row in m.rows
    )


def enumerate_pairs(n: int, a: Rows, b: Rows) -> SolveReport:
    """Support enumeration over all equal-size support pairs (I, J), written
    out inline: both systems are solved before either payoff scan, and
    imitation games get no special case.  A second source for
    ``nashrand.solving.support_enumeration``."""
    equilibria: list[Profile] = []
    degenerate = False
    pairs = 0
    rng_all = range(n)
    for k in range(1, n + 1):
        supports = list(combinations(rng_all, k))
        rhs = [0] * k + [1]
        for I in supports:
            iset = set(I)
            a_rows = [a[i] for i in I]
            b_rows = [b[i] for i in I]
            for J in supports:
                pairs += 1
                # column player's strategy y makes rows of I indifferent
                m1 = [[row[j] for j in J] + [-1] for row in a_rows]
                m1.append([1] * k + [0])
                d1, yv = eliminate(m1, rhs)
                if not d1:
                    continue
                if d1 < 0:
                    yv = [-t for t in yv]
                    d1 = -d1
                if any(t < 0 for t in yv[:k]):
                    continue
                # row player's strategy x makes columns of J indifferent
                m2 = [[row[j] for row in b_rows] + [-1] for j in J]
                m2.append([1] * k + [0])
                d2, xv = eliminate(m2, rhs)
                if not d2:
                    continue
                if d2 < 0:
                    xv = [-t for t in xv]
                    d2 = -d2
                if any(t < 0 for t in xv[:k]):
                    continue
                v = yv[k]
                u = xv[k]
                extra_ties = False
                feasible = True
                jset = set(J)
                for i in rng_all:
                    if i in iset:
                        continue
                    row = a[i]
                    payoff = sum(row[j] * yv[idx] for idx, j in enumerate(J))
                    if payoff > v:
                        feasible = False
                        break
                    if payoff == v:
                        extra_ties = True
                if not feasible:
                    continue
                for j in rng_all:
                    if j in jset:
                        continue
                    payoff = sum(row[j] * xv[idx] for idx, row in enumerate(b_rows))
                    if payoff > u:
                        feasible = False
                        break
                    if payoff == u:
                        extra_ties = True
                if not feasible:
                    continue
                if any(t == 0 for t in xv[:k]) or any(t == 0 for t in yv[:k]):
                    # a valid equilibrium whose true support is smaller; it is
                    # (or will be) found there, so only record the degeneracy
                    degenerate = True
                    continue
                if extra_ties:
                    degenerate = True
                x = [Fraction(0)] * n
                for idx, i in enumerate(I):
                    x[i] = Fraction(xv[idx], d2)
                y = [Fraction(0)] * n
                for idx, j in enumerate(J):
                    y[j] = Fraction(yv[idx], d1)
                equilibria.append(Profile(canonicalize(x), canonicalize(y)))
    c1 = min((complexity(p.x) for p in equilibria), default=None)
    c2 = min((complexity(p.y) for p in equilibria), default=None)
    return SolveReport(tuple(equilibria), c1, c2, degenerate, pairs)


def extreme_equilibria(game: Game) -> set[Profile]:
    """Every extreme equilibrium of ``game``, by brute force over vertices.

    With both payoff matrices shifted to be positive, which moves no
    equilibrium, x ranges over the vertices of P = {x >= 0, B^T x <= 1} and
    y over those of Q = {y >= 0, A y <= 1}.  x has label i where x_i = 0
    and label n + j where (B^T x)_j = 1; y has label i where (A y)_i = 1
    and label n + j where y_j = 0.  The nonzero pairs that carry all 2n
    labels, each scaled to sum 1, are the extreme equilibria (Avis,
    Rosenberg, Savani and von Stengel, "Enumeration of Nash equilibria for
    two-player games", Economic Theory 2010).  Every vertex is the
    solution of n of its player's 2n constraints, so all n-subsets are
    solved with ``eliminate``: C(2n, n) systems per player, and no solver
    code of the library.  A second source for
    ``nashrand.solving.support_enumeration`` on games of any degeneracy.
    """
    n = game.n
    a, b = (_shifted_positive(m.rows) for m in (game.A, game.B))
    xs = _labelled_vertices(tuple(zip(*b)), n)
    ys = _labelled_vertices(a, 0)
    labels = set(range(2 * n))
    return {
        Profile(x, y) for x, x_labels in xs.items() for y, y_labels in ys.items()
        if x_labels | y_labels == labels
    }


def _shifted_positive(rows: Rows) -> Rows:
    low = min(map(min, rows))
    return tuple(tuple(v - low + 1 for v in row) for row in rows)


def _labelled_vertices(m: Rows, shift: int) -> dict[MixedStrategy, frozenset[int]]:
    """The nonzero vertices z of {z >= 0, m z <= 1}, keyed by z scaled to sum
    1, with their labels: c where row c of m is tight and n + j where
    z_j = 0, each moved by ``shift`` modulo 2n.  No two vertices share a
    key: a vertex is not a convex combination of 0 and another point."""
    n = len(m)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    found = {}
    for tight in combinations(range(2 * n), n):
        system = [list(m[c]) if c < n else unit[c - n][:] for c in tight]
        d, w = eliminate(system, [int(c < n) for c in tight])
        if d < 0:
            d, w = -d, [-t for t in w]
        if not d or min(w) < 0 or not any(w):
            continue
        pays = [sum(map(mul, row, w)) for row in m]
        if max(pays) > d:
            continue
        g = math.gcd(*w)
        labels = [c for c in range(n) if pays[c] == d]
        labels += [n + j for j in range(n) if not w[j]]
        key = MixedStrategy(tuple(t // g for t in w), sum(w) // g)
        found[key] = frozenset((c + shift) % (2 * n) for c in labels)
    return found


def is_symmetric_under(b: IntMatrix, pi: Permutation, tau: Permutation) -> bool:
    """Whether column i of ``b`` equals the pi-permuted row tau(i) for all i."""
    n = b.n
    if pi.n != n or tau.n != n:
        return False
    rows = b.rows
    p = [j - 1 for j in pi.mapping]
    return all(
        col == tuple([rows[t - 1][j] for j in p])
        for col, t in zip(zip(*rows), tau.mapping)
    )


def prime_block_symmetry(num_primes: int) -> tuple[Permutation, Permutation]:
    """The (pi, tau) symmetry pair of the prime-block payoffs.

    pi is the forward shift cycle.  tau sends the border column to the
    border row and twists each block by two positions -- the pair under
    which column i of B equals the pi-permuted row tau(i).
    """
    sizes = [p + 1 for p in first_primes(num_primes)]
    big_n = sum(sizes) + 1
    pi = Permutation.forward_cycle(big_n)
    tau = [0] * big_n
    tau[0] = big_n
    offset = 0
    for m in sizes:
        for c in range(1, m + 1):
            tau[offset + c] = offset + (c + 1) % m + 1
        offset += m
    return pi, Permutation(tau)


def constant_sum_transform(game: Game, pi: Permutation, tau: Permutation) -> Game:
    """The constant-sum twin (1 - B, B) of a symmetric imitation game (I, B),
    built only after every hypothesis of ``families._column_image``'s
    argument is checked: A = I, the (pi, tau) symmetry, det B != 0 and
    K(B) != det B (by one elimination).  A second source for
    ``families.constant_sum_beta`` and ``constant_sum_prime_block``, which
    build the twin without these checks."""
    n = game.n
    if not game.A.is_identity():
        raise HypothesisViolation("row player payoffs must be the identity")
    if not is_symmetric_under(game.B, pi, tau):
        raise HypothesisViolation("payoffs are not symmetric under (pi, tau)")
    d, y = eliminate([list(row) for row in game.B.rows], [1] * n)
    if not d:
        raise HypothesisViolation("payoff matrix must be invertible")
    if sum(y) == d:
        raise HypothesisViolation("cofactor sum equals determinant")
    a_rows = [[1 - v for v in row] for row in game.B.rows]
    tag = f"constsum-{game.family_tag}" if game.family_tag else "constsum"
    return Game(IntMatrix(a_rows), game.B, family_tag=tag, constant_sum=1)


def knuth_yao_draws(
    dist: MixedStrategy, rng: random.Random, count: int
) -> tuple[list[int], list[int]]:
    """``count`` draws of the bit-by-bit Knuth-Yao walk of ``dist`` on the
    bits of ``rng.getrandbits(1)``, and the bits each draw consumed.

    Level k's leaves are the outcomes whose k-th binary digit of p/q is
    set, in index order, found by long division: the remainders start at
    p; on each level an outcome whose remainder reaches q is a leaf and has
    q subtracted, and then every remainder doubles (level 0 holds p == q);
    one bit per level moves the walk to node 2x + bit.  A second
    source for ``nashrand.sampling.DdgSampler``, which reads the digits off
    floor(p 2^k / q), and for ``BitSource`` alike."""
    q, rem = dist.denominator, list(dist.numerators)
    levels: list[list[int]] = []
    outcomes, used = [], []
    for _ in range(count):
        x = 0
        for k in range(DEPTH_CAP + 1):
            if k == len(levels):
                levels.append([i for i, r in enumerate(rem, 1) if r >= q])
                rem = [(r - q if r >= q else r) << 1 for r in rem]
            if k:
                x = 2 * x + rng.getrandbits(1)
            if x < len(levels[k]):
                outcomes.append(levels[k][x])
                used.append(k)
                break
            x -= len(levels[k])
        else:
            raise SamplerStall(f"no resolution within {DEPTH_CAP} bits")
    return outcomes, used
