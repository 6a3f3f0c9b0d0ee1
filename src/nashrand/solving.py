r"""Equilibrium computation by exact support enumeration.

For every pair of equal-size supports (I, J) the two indifference systems
are solved over the rationals:

    sum_{i in I} x_i B_{ i j } = u   for j in J,   sum x_i = 1
    sum_{j in J} A_{ i j } y_j = v   for i in I,   sum y_j = 1

A candidate is accepted when both solutions are strictly positive on their
nominal supports and no off-support pure strategy beats the support payoff.
Equal-size supports capture every equilibrium of a nondegenerate game; a
degeneracy flag is raised whenever evidence to the contrary shows up
(an off-support pure strategy tied with the support payoff, or a solved
support coordinate landing on zero).

Imitation games (A the identity) take a one-sided path instead: 2^n - 1
supports S rather than C(2n, n) - 1 pairs.  Only the x-system is solved,
with J = I = S, and y is uniform on S (McLennan and Tourky, "Simple
complexity from imitation games", GEB 2010).  The pair loop, run on such a
game, accepts only pairs with I = J, so both paths report the same
equilibria and the same degeneracy flag, and no fallback is needed:

    |I \ J| >= 2: two rows of the y-system read -v = 0, so it is singular.
    |I \ J| = 1: v = 0 and y = e_j with j in J \ I, whose row pays
        1 > 0; the pair is rejected before any tie or zero counts.
    I = J: y is uniform, and off-support rows pay 0 < 1/|S|, never a tie.

Enumeration order is ascending support size, then lexicographic supports,
which makes reports deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DimensionTooLarge, NoEquilibriumFound
from .exact import eliminate, solve_exact
from .games import (
    Game,
    MixedStrategy,
    Profile,
    canonicalize,
    complexity,
    is_nash,
    pure,
)

DEFAULT_MAX_N = 10
MAX_N_ENV = "NASHRAND_MAX_N"

Rows = tuple[tuple[int, ...], ...]


def resolve_max_n(max_n: int | None = None) -> int:
    """Explicit argument beats the NASHRAND_MAX_N environment variable."""
    if max_n is not None:
        return max_n
    env = os.environ.get(MAX_N_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}")
    return DEFAULT_MAX_N


@dataclass(frozen=True)
class SolveReport:
    """Every equilibrium support enumeration found, in enumeration order.

    ``enumerated_supports`` counts the supports examined: support pairs
    (I, J) on the generic path, C(2n, n) - 1 of them, and single supports
    S on imitation games, 2^n - 1 of them.
    """

    equilibria: tuple[Profile, ...]
    c1_min: int | None
    c2_min: int | None
    degenerate_flag: bool
    enumerated_supports: int


def pure_nash(game: Game) -> list[Profile]:
    """All pure-strategy equilibria (e_i, e_j), in row-major order."""
    n = game.n
    a = game.A.rows
    b = game.B.rows
    col_max = [max(a[r][j] for r in range(n)) for j in range(n)]
    out = []
    for i in range(n):
        row_max = max(b[i])
        for j in range(n):
            if a[i][j] == col_max[j] and b[i][j] == row_max:
                out.append(Profile(pure(n, i + 1), pure(n, j + 1)))
    return out


def support_enumeration(game: Game, max_n: int | None = None) -> SolveReport:
    limit = resolve_max_n(max_n)
    if game.n > limit:
        raise DimensionTooLarge(f"n={game.n} exceeds enumeration limit {limit}")
    return _enumerate(game)


@lru_cache(maxsize=128)
def _enumerate(game: Game) -> SolveReport:
    # All candidate tests run on integers: eliminate returns the solution
    # as (determinant d, integer vector y) with probabilities y_i / d, so
    # sign feasibility and payoff comparisons multiply through by sign(d)
    # instead of building Fractions.  Rationals appear only for accepted
    # equilibria.
    a = game.A.rows
    if all(v == (i == j) for i, row in enumerate(a) for j, v in enumerate(row)):
        return _enumerate_imitation(game.n, game.B.rows)
    return _enumerate_pairs(game.n, a, game.B.rows)


def _enumerate_imitation(n: int, b: Rows) -> SolveReport:
    """One-sided enumeration of the imitation game (I, B)."""
    equilibria: list[Profile] = []
    degenerate = False
    supports = 0
    rng_all = range(n)
    for k in range(1, n + 1):
        rhs = [0] * k + [1]
        for S in combinations(rng_all, k):
            supports += 1
            # x makes the columns of S indifferent under B
            b_rows = [b[i] for i in S]
            m = [[row[j] for row in b_rows] + [-1] for j in S]
            m.append([1] * k + [0])
            d, xv = eliminate(m, rhs)
            if not d:
                continue
            if d < 0:
                xv = [-t for t in xv]
                d = -d
            if any(t < 0 for t in xv[:k]):
                continue
            u = xv[k]
            sset = set(S)
            extra_ties = False
            feasible = True
            for j in rng_all:
                if j in sset:
                    continue
                payoff = sum(row[j] * xv[idx] for idx, row in enumerate(b_rows))
                if payoff > u:
                    feasible = False
                    break
                if payoff == u:
                    extra_ties = True
            if not feasible:
                continue
            if any(t == 0 for t in xv[:k]):
                degenerate = True
                continue
            if extra_ties:
                degenerate = True
            x = [Fraction(0)] * n
            for idx, i in enumerate(S):
                x[i] = Fraction(xv[idx], d)
            y = MixedStrategy(tuple(int(i in sset) for i in rng_all), k)
            equilibria.append(Profile(canonicalize(x), y))
    return _report(equilibria, degenerate, supports)


def _enumerate_pairs(n: int, a: Rows, b: Rows) -> SolveReport:
    """Generic enumeration over all equal-size support pairs (I, J)."""
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
    return _report(equilibria, degenerate, pairs)


def _report(
    equilibria: list[Profile], degenerate: bool, examined: int
) -> SolveReport:
    c1 = min((complexity(p.x) for p in equilibria), default=None)
    c2 = min((complexity(p.y) for p in equilibria), default=None)
    return SolveReport(tuple(equilibria), c1, c2, degenerate, examined)


def min_complexities(game: Game, max_n: int | None = None) -> tuple[int, int]:
    """Least complexities any equilibrium demands of each player."""
    report = support_enumeration(game, max_n)
    if report.c1_min is None or report.c2_min is None:
        # cannot happen for a full enumeration: every finite game has a NE
        raise NoEquilibriumFound("no equilibrium found within support limits")
    return report.c1_min, report.c2_min


def fully_mixed_ne(game: Game) -> Profile | None:
    """The unique fully mixed equilibrium candidate, if it is one.

    Solves B^T x = 1 and A y = 1, normalizes, and returns the profile only
    when every coordinate is positive and the best-response check passes.
    """
    n = game.n
    x_raw = solve_exact(game.B.transpose(), [1] * n)
    y_raw = solve_exact(game.A, [1] * n)
    sx = sum(x_raw)
    sy = sum(y_raw)
    if sx == 0 or sy == 0:
        return None
    x = [v / sx for v in x_raw]
    y = [v / sy for v in y_raw]
    if any(v <= 0 for v in x) or any(v <= 0 for v in y):
        return None
    profile = Profile(canonicalize(x), canonicalize(y))
    if not is_nash(game, profile):
        return None
    return profile


def bounded_ne_exists(
    game: Game, c1: int, c2: int, max_n: int | None = None
) -> bool:
    """Whether the capability-restricted game still has an equilibrium.

    Restricting players to complexities c1, c2 admits an equilibrium
    exactly when the unrestricted game has one within those caps.
    """
    if c1 < 1 or c2 < 1:
        raise ValueError("capabilities must be >= 1")
    report = support_enumeration(game, max_n)
    return any(
        complexity(p.x) <= c1 and complexity(p.y) <= c2
        for p in report.equilibria
    )


def complexity_upper_bound(game: Game) -> tuple[int, int]:
    """Explicit worst-case complexity bounds from the payoff magnitudes.

    For an n x n game the minimal equilibrium denominator of a player is at
    most n(n+1) * ceil(M^n * (2n+1)^((2n+1)/2)) where M is the largest
    absolute payoff in the opponent-relevant matrix (clamped to >= 1 so the
    all-zero game still gets a positive bound).
    """
    n = game.n
    return (
        _explicit_bound(n, max(1, game.B.max_abs())),
        _explicit_bound(n, max(1, game.A.max_abs())),
    )


def _explicit_bound(n: int, m: int) -> int:
    # ceil(m^n * (2n+1)^(n + 1/2)) computed exactly: the half power is
    # a square root of an integer, so use isqrt on the squared value.
    r = 2 * n + 1
    p = m**n * r**n
    sq = p * p * r
    root = math.isqrt(sq)
    ceilval = root if root * root == sq else root + 1
    return n * (n + 1) * ceilval
