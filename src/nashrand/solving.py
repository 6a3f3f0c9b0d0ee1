r"""Equilibrium computation by exact support enumeration.

One loop runs over pairs of equal-size supports (I, J).  For each pair the
two indifference systems are solved exactly by ``_indifferent``, once per
player side:

    sum_{j in J} A_{ i j } y_j = v   for i in I,   sum y_j = 1
    sum_{i in I} x_i B_{ i j } = u   for j in J,   sum x_i = 1

The column player's y comes from (A, I, J), the row player's x from
(B^T, J, I).  A candidate is accepted when both solutions are strictly
positive on their nominal supports and no off-support pure strategy beats
the support payoff.  Equal-size supports capture every equilibrium of a
nondegenerate game; a degeneracy flag is raised whenever evidence to the
contrary shows up (an off-support pure strategy tied with the support
payoff, or a solved support coordinate landing on zero).

Imitation games (A the identity) differ in two data choices only: J ranges
over (I,) alone, so 2^n - 1 supports S are examined rather than C(2n, n) - 1
pairs, and y is the constant uniform strategy on S (McLennan and Tourky,
"Simple complexity from imitation games", GEB 2010).  Over all pairs such a
game accepts only those with I = J, with the same degeneracy evidence, so
the choices are exact:

    |I \ J| >= 2: two rows of the y-system read -v = 0, so it is singular.
    |I \ J| = 1: v = 0 and y = e_j with j in J \ I, whose row pays
        1 > 0; the pair is rejected before any tie or zero counts.
    I = J: y is uniform, and off-support rows pay 0 < 1/|S|, never a tie.

Constant-sum games (A + B equal to one constant c everywhere, read off the
payoffs) that are not imitation games first try a certificate: the loop's
own last pair, I = J = all strategies, is solved on its own.  When both
sides return a solution with no zero coordinate, that profile is the whole
report, and the loop is skipped:

    Uniqueness.  Every equilibrium of (A, c - A) is a pair of maximin
        strategies (von Neumann).  Let y* be the fully mixed optimal y just
        found, v the value, and x' any optimal x.  Then x'^T A >= v 1^T and
        x'^T A y* = v; as y* > 0 everywhere, this forces x'^T A = v 1^T.
        With sum x' = 1 that is the bordered system [A^T -1; 1^T 0], which
        is nonsingular, so x' is unique.  The system the x side solves,
        built on B^T = (cJ - A)^T, is singular exactly when this one is:
        subtract c times the last row from the others, then negate them
        and the last column.  The same argument, against the fully mixed
        x*, makes y unique.
    The flag stays False.  Any pair that passes both sides' checks is an
        equilibrium, so it must be the fully supported one: the loop would
        accept only I = J = all strategies, which has no off-support
        strategy to tie and no zero coordinate.  So ``equilibria``,
        ``c1_min``, ``c2_min`` and ``degenerate_flag`` equal the loop's.

Otherwise (a singular system, a negative or zero coordinate) the loop runs
unchanged.  Imitation games (I, J - I) are constant-sum too, and keep
their own path.

Enumeration order is ascending support size, then lexicographic supports,
which makes reports deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import DimensionTooLarge, NoEquilibriumFound, SingularMatrix
from .exact import eliminate
from .games import (
    Game,
    MixedStrategy,
    Profile,
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

    ``enumerated_supports`` counts the support pairs (I, J) examined:
    C(2n, n) - 1 of them in general, and 2^n - 1 on imitation games, where
    J = I, so each is a single support S.  It is 1 on a constant-sum game
    certified from the full-support pair alone (see the module docstring).
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
    # All candidate tests run on integers: eliminate returns each side's
    # solution as (determinant d, integer vector z) with probabilities
    # z_i / d, and accepted strategies are reduced by gcd(z), so no
    # Fraction is ever built.
    n = game.n
    a = game.A.rows
    bt = tuple(zip(*game.B.rows))
    imitation = game.A.is_identity()
    if not imitation:
        report = _certify(n, a, bt)
        if report is not None:
            return report
    equilibria: list[Profile] = []
    degenerate = False
    examined = 0
    for k in range(1, n + 1):
        supports = list(combinations(range(n), k))
        rhs = [0] * k + [1]
        uniform_y = (k, [1] * k, False)
        for I in supports:
            for J in (I,) if imitation else supports:
                examined += 1
                y = uniform_y if imitation else _indifferent(a, I, J, rhs)
                if y is None:
                    continue
                x = _indifferent(bt, J, I, rhs)
                if x is None:
                    continue
                (dy, yv, y_ties), (dx, xv, x_ties) = y, x
                if 0 in xv or 0 in yv:
                    # a valid equilibrium whose true support is smaller; it is
                    # (or will be) found there, so only record the degeneracy
                    degenerate = True
                    continue
                degenerate = degenerate or y_ties or x_ties
                equilibria.append(
                    Profile(_strategy(n, I, xv, dx), _strategy(n, J, yv, dy))
                )
    c1 = min((complexity(p.x) for p in equilibria), default=None)
    c2 = min((complexity(p.y) for p in equilibria), default=None)
    return SolveReport(tuple(equilibria), c1, c2, degenerate, examined)


def _certify(n: int, a: Rows, bt: Rows) -> SolveReport | None:
    """The report of a constant-sum game from its full-support pair alone.

    None unless A + B is constant and both sides' indifference systems on
    all strategies have strictly positive solutions; then that profile is
    the unique equilibrium (module docstring).
    """
    c = a[0][0] + bt[0][0]
    if any(v + w != c for row, col in zip(a, zip(*bt)) for v, w in zip(row, col)):
        return None
    full = tuple(range(n))
    rhs = [0] * n + [1]
    y = _indifferent(a, full, full, rhs)
    if y is None or 0 in y[1]:
        return None
    x = _indifferent(bt, full, full, rhs)
    if x is None or 0 in x[1]:
        return None
    profile = Profile(_strategy(n, full, x[1], x[0]), _strategy(n, full, y[1], y[0]))
    return SolveReport(
        (profile,), complexity(profile.x), complexity(profile.y), False, 1
    )


def _indifferent(
    m: Rows, rows: tuple[int, ...], cols: tuple[int, ...], rhs: list[int]
) -> tuple[int, list[int], bool] | None:
    """The strategy on ``cols`` that makes ``rows`` of ``m`` indifferent.

    Solves the bordered system sum_{c in cols} m[r][c] z_c = value for r in
    rows, sum z_c = 1, and returns ``(d, z, ties)``: probabilities z_c / d
    with d > 0 (so sum(z) == d), and whether an off-support row of ``m``
    ties the support payoff.  None when the system is singular, a
    coordinate is negative, or an off-support row pays more.
    """
    k = len(cols)
    system = [[m[r][c] for c in cols] + [-1] for r in rows]
    system.append([1] * k + [0])
    d, z = eliminate(system, rhs)
    if not d:
        return None
    if d < 0:
        d = -d
        z = [-t for t in z]
    value = z.pop()
    if any(t < 0 for t in z):
        return None
    ties = False
    for r, row in enumerate(m):
        if r in rows:
            continue
        payoff = sum(row[c] * t for c, t in zip(cols, z))
        if payoff > value:
            return None
        if payoff == value:
            ties = True
    return d, z, ties


def _strategy(
    n: int, support: Iterable[int], z: list[int], d: int
) -> MixedStrategy:
    """The canonical strategy z / d on ``support``; needs sum(z) == d > 0."""
    g = math.gcd(*z)
    nums = [0] * n
    for i, t in zip(support, z):
        nums[i] = t // g
    return MixedStrategy(tuple(nums), d // g)


def min_complexities(game: Game, max_n: int | None = None) -> tuple[int, int]:
    """Least complexities any equilibrium demands of each player."""
    report = support_enumeration(game, max_n)
    if report.c1_min is None or report.c2_min is None:
        # cannot happen for a full enumeration: every finite game has a NE
        raise NoEquilibriumFound("no equilibrium found within support limits")
    return report.c1_min, report.c2_min


def fully_mixed_ne(game: Game) -> Profile | None:
    """The unique fully mixed equilibrium candidate, if it is one.

    Solves B^T x = 1 and A y = 1 (SingularMatrix if either is singular),
    normalizes, and returns the profile only when every coordinate is
    positive and the best-response check passes.
    """
    x = _normalized_solution([list(col) for col in zip(*game.B.rows)])
    y = _normalized_solution([list(row) for row in game.A.rows])
    if x is None or y is None:
        return None
    profile = Profile(x, y)
    if not is_nash(game, profile):
        return None
    return profile


def _normalized_solution(m: list[list[int]]) -> MixedStrategy | None:
    """m^-1 1 scaled to sum 1, or None unless every coordinate is positive."""
    n = len(m)
    d, z = eliminate(m, [1] * n)
    if not d:
        raise SingularMatrix("matrix has determinant zero")
    s = sum(z)
    if s < 0:
        s, z = -s, [-t for t in z]
    # z != 0 because m z = d 1, so a zero sum leaves a negative coordinate
    if any(t <= 0 for t in z):
        return None
    return _strategy(n, range(n), z, s)


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
