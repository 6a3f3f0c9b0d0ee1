r"""Equilibrium computation by exact support enumeration.

``support_enumeration`` reads the kind of game once, in ``_enumerate``,
and takes one of two loops:

- an imitation game (A the identity) runs ``_imitation_loop`` over the
  2^n - 1 supports S, with the second support J = S and y uniform on S;
- any other game runs ``_pair_loop`` over the C(2n, n) - 1 pairs of
  equal-size supports (I, J).  A constant-sum one first tries
  ``_certify``, which can settle it from the full-support pair alone.

Each loop yields candidates (I, J, x, y): exact solutions of the two
indifference systems

    sum_{j in J} A_{ i j } y_j = v   for i in I,   sum y_j = 1
    sum_{i in I} x_i B_{ i j } = u   for j in J,   sum x_i = 1

that are nonnegative on the nominal supports and that no off-support pure
strategy beats.  The column player's y comes from (A, I, J), the row
player's x from (B^T, J, I).  On each side ``_project`` restricts every
row of the side's matrix to the other support, and ``_answer`` solves the
system of this support's rows, through a memo, and checks the rows off
it.

``_enumerate`` collects the candidates.  Equal-size supports capture
every equilibrium of a nondegenerate game, and the degeneracy flag is
raised when a candidate shows evidence to the contrary.  One with a zero
coordinate is a valid equilibrium whose true support is smaller; it is
(or will be) found there, so it only raises the flag.  The others are the
equilibria, and an off-support pure strategy tied with the support payoff
raises the flag too.  So a set flag means degeneracy was seen, and an
unset flag proves nothing: a degenerate game can hold that evidence only
on pairs with a singular side.

Enumeration order is ascending support size, then lexicographic supports,
I before J, which makes reports deterministic.  ``fully_mixed_ne`` is the
pair loop's last pair, I = J = all strategies, solved by the same
``_full_support`` on any game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from operator import eq, gt, mul
from typing import Iterable, Iterator

from .errors import DimensionTooLarge, NoEquilibriumFound
from .exact import eliminate
from .games import (
    Game,
    MixedStrategy,
    Profile,
    complexity,
    pure,
)

DEFAULT_MAX_N = 10

Rows = tuple[tuple[int, ...], ...]
Support = tuple[int, ...]
Solution = tuple[int, tuple[int, ...], bool]
Candidate = tuple[Support, Support, Solution, Solution]


@dataclass(frozen=True)
class SolveReport:
    """Every equilibrium support enumeration found, in enumeration order.

    ``enumerated_supports`` counts what the game's loop covered, those
    skipped unsolved included: the C(2n, n) - 1 support pairs (I, J) of
    ``_pair_loop``, whose skips are strict dominance and a repeated row or
    column, and on imitation games the 2^n - 1 supports S of
    ``_imitation_loop``, where J = S.  It is 1 on a constant-sum game that
    ``_certify`` settles from the full-support pair alone.
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


def support_enumeration(game: Game, max_n: int = DEFAULT_MAX_N) -> SolveReport:
    """Every equilibrium over equal-size supports, as a ``SolveReport``.

    Raises DimensionTooLarge before any work when ``game.n`` exceeds max_n.
    """
    if game.n > max_n:
        raise DimensionTooLarge(f"n={game.n} exceeds enumeration limit {max_n}")
    return _enumerate(game)


@lru_cache(maxsize=128)
def _enumerate(game: Game) -> SolveReport:
    # All candidate tests run on integers: eliminate returns each side's
    # solution as (determinant d, integer vector z) with probabilities
    # z_i / d, and accepted strategies are reduced by gcd(z), so no
    # Fraction is ever built.
    n = game.n
    a, b = game.A.rows, game.B.rows
    bt = tuple(zip(*b))
    if game.A.is_identity():
        candidates, covered = _imitation_loop(n, b, bt), 2**n - 1
    else:
        report = _certify(n, a, bt)
        if report is not None:
            return report
        candidates, covered = _pair_loop(n, a, b, bt), math.comb(2 * n, n) - 1
    equilibria: list[Profile] = []
    degenerate = False
    for I, J, (dx, xv, x_ties), (dy, yv, y_ties) in candidates:
        if 0 in xv or 0 in yv:
            degenerate = True
            continue
        degenerate = degenerate or x_ties or y_ties
        equilibria.append(Profile(_strategy(n, I, xv, dx), _strategy(n, J, yv, dy)))
    c1 = min((complexity(p.x) for p in equilibria), default=None)
    c2 = min((complexity(p.y) for p in equilibria), default=None)
    return SolveReport(tuple(equilibria), c1, c2, degenerate, covered)


def _imitation_loop(n: int, b: Rows, bt: Rows) -> Iterator[Candidate]:
    r"""The candidates of an imitation game (A the identity), one per support.

    Two data choices set it apart from ``_pair_loop``: J ranges over (I,)
    alone, so 2^n - 1 supports S are examined rather than C(2n, n) - 1
    pairs, and y is the constant uniform strategy on S (McLennan and
    Tourky, "Simple complexity from imitation games", GEB 2010).  Over all
    pairs such a game accepts only those with I = J, with the same
    degeneracy evidence, so the choices are exact:

        |I \ J| >= 2: two rows of the y-system read -v = 0, so it is
            singular.
        |I \ J| = 1: v = 0 and y = e_j with j in J \ I, whose row pays
            1 > 0; the pair is rejected before any tie or zero counts.
        I = J: y is uniform, and off-support rows pay 0 < 1/|S|, never a
            tie.

    A support is skipped unsolved when ``_ruled_out`` finds a column of B
    in it strictly beaten on its rows (``_pair_loop`` gives the argument).
    No row of the identity beats row r on a column set that contains r,
    so the y side needs no table, and with J = S no pair bits either.
    The x memo lasts one support size, whose supports are walked one at a
    time and never held as a list.
    """
    dead = _ruled_out(bt)
    bits = [1 << i for i in range(n)]
    for k in range(1, n + 1):
        y = k, (1,) * k, False
        x_solved = {}
        for S, mask in zip(combinations(range(n), k), map(sum, combinations(bits, k))):
            if dead[mask] & mask:
                continue
            x = _answer(_project(b, S), S, x_solved)
            if x is not None:
                yield S, S, x, y


def _pair_loop(n: int, a: Rows, b: Rows, bt: Rows) -> Iterator[Candidate]:
    """The candidates of a general game, over all pairs of equal-size supports.

    Before a pair is solved, it is skipped when strict conditional
    dominance (Porter, Nudelman and Shoham, "Simple search methods for
    finding a Nash equilibrium", GEB 2008) rules it out:

        some row i in I of A is strictly beaten, on every column of J, by
            another row of A (on or off I); or
        some column j in J of B is strictly beaten, on every row of I, by
            another column of B.

    The skip is exact.  Take such a row i and its beating row o.  Against
    any y >= 0 on J with sum 1, row o pays strictly more than row i.  So
    the y side returns None on (I, J): if o is off I it pays more than the
    support payoff, and if o is in I the system asks o and i to pay the
    same, so it is singular or its solution has a negative coordinate.
    The column case is the same argument on (B^T, J, I).  A pair with a
    None side yields no candidate, so it never touches ``equilibria``,
    their order, the minima or the degeneracy flag, and every report is
    the one the full loop gives.  The test must be strict: a weakly
    beaten row can still tie, and ties and zero coordinates raise the
    flag.

    A pair is also skipped when its payoff blocks repeat a line, which
    shows before any elimination and is common when payoffs take few
    values (0/1):

        two rows of I are equal on J in A or in B; or
        two columns of J are equal on I in A or in B.

    This skip is exact too.  If A[I][J] has two equal rows, the bordered
    y system [A[I][J] -1; 1^T 0] has two equal rows; if A[I][J] has two
    equal columns, the system has two equal columns, since the border row
    holds a 1 in both.  Either way it is singular and the y side returns
    None.  The same holds for B[I][J] and the x system, built on
    B^T[J][I].  So, as above, no report changes.

    Both skips read one ``_ruled_out`` table per player: A's, over masks
    J, is y_dead; B^T's, over masks I with A^T as the other matrix, is
    x_dead.  With ``_pairs``'s table test, a pair survives both skips on
    two ANDs, x_dead[I] & test[J] == 0 and y_dead[J] & test[I] == 0.

    What the loop keeps, and for how long: each side's memo of solved
    systems (``x_solved``, ``y_solved``) and each J's y projection
    (``y_rows``, built the first time a pair asks for it) last one support
    size, and the x projection lasts one I, which is fixed over its pairs.
    A size's supports are held as a list, which the J loop walks once per
    I.  Keys of different sizes never match, so what one size keeps can
    never answer another, and dropping it bounds the memo by one size's
    systems (a memo kept for the whole game measured +15 MB RSS on a
    random binary n = 10 game).
    """
    at = tuple(zip(*a))
    x_dead, y_dead, test = _ruled_out(bt, bt, at), _ruled_out(a, a, b), _pairs(n)
    bits = [1 << i for i in range(n)]
    for k in range(1, n + 1):
        level = list(zip(combinations(range(n), k), map(sum, combinations(bits, k))))
        x_solved, y_solved, y_rows = {}, {}, {}
        for I, i_mask in level:
            i_dead, i_test = x_dead[i_mask], test[i_mask]
            pairs = [
                J for J, j_mask in level
                if not i_dead & test[j_mask] and not y_dead[j_mask] & i_test
            ]
            if not pairs:
                continue
            x_rows = _project(b, I)
            for J in pairs:
                if J not in y_rows:
                    y_rows[J] = _project(at, J)
                y = _answer(y_rows[J], I, y_solved)
                if y is None:
                    continue
                x = _answer(x_rows, J, x_solved)
                if x is not None:
                    yield I, J, x, y


def _ruled_out(m: Rows, *twins: Rows) -> list[int]:
    """For each mask of columns of ``m``, the rows and row pairs it rules out.

    Row r's bit is set when some other row of ``m`` pays strictly more on
    every column in the mask.  Above the len(m) row bits, pair r < s has
    its ``_pairs`` bit set when rows r and s are equal on the mask in one
    of the same-shape matrices ``twins`` (the game's A and B, read the
    same way round as ``m``).  With no ``twins``, as on imitation games,
    the row bits are the whole entry.

    The table has 2^width ints (1,024 at n = 10), built once per game
    after the ``max_n`` check, so it stays small for every n whose loop
    could finish.  It is one walk over the pairs of rows of ``m``: each
    pair marks its bit on the columns g where it relates (greater, or
    equal), and the mark visits the nonempty submasks of g, so the table
    costs the sum of 2^|g| over the marks, not (number of marks) 2^width.
    """
    n, bits = len(m), [1 << j for j in range(len(m[0]))]
    marks = [
        (sum(compress(bits, map(gt, other, row))), 1 << r)
        for r, row in enumerate(m) for other in m
    ] + [
        (sum(compress(bits, map(eq, t[r], t[s]))), 1 << n + s * (s - 1) // 2 + r)
        for t in twins for s in range(n) for r in range(s)
    ]
    table = [0] * (1 << len(bits))
    for g, bit in marks:
        sub = g
        while sub:
            table[sub] |= bit
            sub = (sub - 1) & g
    return table


@lru_cache(maxsize=DEFAULT_MAX_N)
def _pairs(n: int) -> tuple[int, ...]:
    """For each mask of n indices, its own bits and the pairs inside it.

    An entry holds one bit per index and, above those n bits, one bit per
    pair r < s, bit n + s(s - 1)/2 + r, the layout of ``_ruled_out``'s
    pair bits.  The pairs whose larger index is s are the mask's lower
    bits shifted to n + s(s - 1)/2.  The table depends on n alone, so one
    per n is kept.
    """
    pairs = [0] * (1 << n)
    for mask in range(1, 1 << n):
        s = mask.bit_length() - 1
        rest = mask ^ 1 << s
        pairs[mask] = pairs[rest] | 1 << s | rest << n + s * (s - 1) // 2
    return tuple(pairs)


def _certify(n: int, a: Rows, bt: Rows) -> SolveReport | None:
    """The report of a constant-sum game from its full-support pair alone.

    None unless A + B equals one constant c everywhere, read off the
    payoffs, and ``_full_support`` finds an equilibrium, a solution with
    no zero coordinate on both sides.  Then that profile is the whole
    report, and ``_pair_loop`` is skipped:

        Uniqueness.  Every equilibrium of (A, c - A) is a pair of maximin
            strategies (von Neumann).  Let y* be the fully mixed optimal y
            just found, v the value, and x' any optimal x.  Then
            x'^T A >= v 1^T and x'^T A y* = v; as y* > 0 everywhere, this
            forces x'^T A = v 1^T.  With sum x' = 1 that is the bordered
            system [A^T -1; 1^T 0], which is nonsingular, so x' is
            unique.  The system the x side solves, built on
            B^T = (cJ - A)^T, is singular exactly when this one is:
            subtract c times the last row from the others, then negate
            them and the last column.  The same argument, against the
            fully mixed x*, makes y unique.
        The flag stays False.  Any pair that passes both sides' checks is
            an equilibrium, so it must be the fully supported one: the
            loop would accept only I = J = all strategies, which has no
            off-support strategy to tie and no zero coordinate.  So
            ``equilibria``, ``c1_min``, ``c2_min`` and ``degenerate_flag``
            equal the loop's.

    Otherwise (a singular system, a negative or zero coordinate) the loop
    runs unchanged.  Imitation games (I, J - I) are constant-sum too, and
    keep their own loop.
    """
    c = a[0][0] + bt[0][0]
    if any(v + w != c for row, col in zip(a, zip(*bt)) for v, w in zip(row, col)):
        return None
    profile = _full_support(n, a, bt)
    if profile is None:
        return None
    return SolveReport(
        (profile,), complexity(profile.x), complexity(profile.y), False, 1
    )


def _full_support(n: int, a: Rows, bt: Rows) -> Profile | None:
    """The pair loop's last pair, I = J = all strategies, solved on its own.

    The profile when both sides' indifference systems have strictly
    positive solutions, else None.  Such a profile leaves no pure strategy
    off the support, so it is an equilibrium.  Each side's system is asked
    for once and has no off-support row to check, so ``_solve`` takes it
    straight, with no ``_answer``, and in any row order (``_answer`` shows
    why the order does not matter).
    """
    y = _solve(a)
    if y is None or 0 in y[1]:
        return None
    x = _solve(bt)
    if x is None or 0 in x[1]:
        return None
    full = range(n)
    return Profile(_strategy(n, full, x[1], x[0]), _strategy(n, full, y[1], y[0]))


def _project(columns: Rows, cols: Support) -> list[tuple[int, ...]]:
    """Every row of a side's matrix, restricted to ``cols``, from its ``columns``."""
    return list(zip(*map(columns.__getitem__, cols)))


def _answer(
    rows: list[tuple[int, ...]],
    support: Support,
    solved: dict[Rows, tuple[int, tuple[int, ...], int] | None],
) -> Solution | None:
    """The strategy that makes the ``support`` rows of ``rows`` indifferent.

    ``rows`` is a ``_project`` of the side's matrix.  Returns ``(d, z, ties)``,
    with probabilities z_c / d, d > 0 (so sum(z) == d), and whether an
    off-support row ties the support payoff; None when the system is
    singular, a coordinate is negative, or an off-support row pays more.
    The system is looked up in ``solved`` under the sorted tuple of the
    support rows and solved by ``_solve`` on a miss:

        The order-free key.  Permuting the rows of R, the support rows,
            permutes the rows of the bordered system [R -1; 1^T 0], which
            changes only the sign of its determinant, and ``_solve`` makes
            that sign positive.  So (d, d z, d v) depends on the multiset
            of the rows of R alone, and a side keeps each solved system
            under the sorted tuple of those rows: the supports as indices
            do not enter, so supports that restrict to the same rows
            (repeated rows or columns, entries from a small set) share one
            solve.  Which rows lie off the support does depend on the
            supports, so the off-support check runs on every call.
    """
    key = tuple(sorted([rows[r] for r in support]))
    system = solved.get(key, False)
    if system is False:
        system = solved[key] = _solve(key)
    if system is None:
        return None
    d, z, value = system
    ties = False
    for r, row in enumerate(rows):
        if r in support:
            continue
        payoff = sum(map(mul, row, z))
        if payoff > value:
            return None
        if payoff == value:
            ties = True
    return d, z, ties


def _solve(key: Rows) -> tuple[int, tuple[int, ...], int] | None:
    """The (k - 1) x (k - 1) indifference system on the restricted rows ``key``.

    Returns ``(d, z, value)`` with d > 0, z_c / d the probabilities and
    value / d the support payoff, or None when the system is singular or a
    coordinate is negative.  It solves the bordered (k + 1) x (k + 1)
    system [R -1; 1^T 0] [z; v] = [0; 1] of the k rows R of ``key`` in two
    smaller steps.  Write r0 for the first row, t_r = r[k-1] - r0[k-1] and
    N_r[j] = r[j] - r0[j] - t_r (j < k - 1) for each other row r.

        The row step.  Subtracting row r0 of the bordered system from
            every other row of R leaves rows (r - r0, 0) for r != r0, row
            (r0, -1) and the row (1^T, 0).  Expanding along the last
            column, whose one nonzero is the -1 of row r0, gives
            det[R -1; 1^T 0] = +-det D, where D is the k x k matrix of the
            rows r - r0 and 1^T.  So the two systems are singular
            together.  Otherwise both have the one solution z with
            D z = e_k, where e_k is the unit vector on the ones row, and
            the value is v = r0 . z.
        The column step.  Subtracting the last column of D from every
            other column keeps the determinant and leaves the rows
            (N_r, t_r) and the ones row (0, ..., 0, 1); expanding along
            that row gives det D = det N, with N the (k - 1) x (k - 1)
            matrix of the rows N_r.  In the unknowns the step is the
            substitution z[k-1] = 1 - sum z', with z' the first k - 1
            coordinates, and the rows r - r0 then read N z' = -t.
            ``eliminate(N, -t)`` returns d = det N and w = adj(N) (-t) =
            d z', so d z = (w, d - sum w) = adj(D) e_k, integer for
            integer.  Once d is made positive, z's integers and d equal
            the bordered solve's.  k = 1 leaves the empty system: d = 1
            and z = (1,).
    """
    r0 = key[0]
    head, last = r0[:-1], r0[-1]
    system, rhs = [], []
    for row in key[1:]:
        t = row[-1] - last
        system.append([v - w - t for v, w in zip(row, head)])
        rhs.append(-t)
    d, w = eliminate(system, rhs)
    if d < 0:
        d, w = -d, [-t for t in w]
    elif not d:
        return None
    w.append(d - sum(w))
    if min(w) < 0:
        return None
    # a tuple is exact-size, where the list has grown; the memo keeps it
    return d, tuple(w), sum(map(mul, r0, w))


def _strategy(
    n: int, support: Iterable[int], z: tuple[int, ...], d: int
) -> MixedStrategy:
    """The canonical strategy z / d on ``support``; needs sum(z) == d > 0."""
    g = math.gcd(*z)
    nums = [0] * n
    for i, t in zip(support, z):
        nums[i] = t // g
    return MixedStrategy(tuple(nums), d // g)


def min_complexities(game: Game) -> tuple[int, int]:
    """Least complexities any equilibrium demands of each player (default limit)."""
    report = support_enumeration(game)
    if report.c1_min is None or report.c2_min is None:
        # only equal-size supports are searched, so a degenerate game can
        # come back empty, so far always flagged degenerate (not proved)
        raise NoEquilibriumFound("no equilibrium found within support limits")
    return report.c1_min, report.c2_min


def fully_mixed_ne(game: Game) -> Profile | None:
    """The equilibrium the support loop accepts on its last pair, or None.

    That pair is I = J = all strategies.  A singular payoff matrix needs no
    special case: only the bordered indifference systems must be
    nonsingular, as on every other pair.
    """
    return _full_support(game.n, game.A.rows, tuple(zip(*game.B.rows)))


def bounded_ne_exists(game: Game, c1: int, c2: int) -> bool:
    """Whether the capability-restricted game still has an equilibrium.

    True when an equilibrium found by ``support_enumeration``, at its
    default limit, lies within the caps c1, c2.  Only equal-size supports
    are searched, so a False can miss an equilibrium.  The report's
    degeneracy flag does not settle it: a set flag means degeneracy was
    seen, and an unset flag proves nothing (module docstring).
    """
    if c1 < 1 or c2 < 1:
        raise ValueError("capabilities must be >= 1")
    report = support_enumeration(game)
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
