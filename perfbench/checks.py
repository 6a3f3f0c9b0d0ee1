"""Output checks that do not lean on the library's own cross-checks.

Every check raises ``CheckFailed`` instead of using ``assert``, so that the
checks still run under ``python -O``.
"""

from __future__ import annotations

import json
import math


class CheckFailed(Exception):
    """An output of nashrand is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def strategy_text(x) -> str:
    return " ".join(map(str, x.numerators)) + "/" + str(x.denominator)


def profile_text(profile) -> str:
    return strategy_text(profile.x) + "|" + strategy_text(profile.y)


def _check_distribution(nums, den, who: str) -> None:
    require(den > 0 and all(p >= 0 for p in nums), f"{who}: negative entry")
    require(sum(nums) == den, f"{who}: numerators do not sum to {den}")
    require(math.gcd(*nums) == 1, f"{who}: numerators share a factor")


def check_equilibrium(a_rows, b_rows, profile, who: str) -> None:
    """Mutual best response, in integers scaled by the denominators."""
    x, y = profile.x.numerators, profile.y.numerators
    n = len(a_rows)
    require(len(x) == n and len(y) == n, f"{who}: profile has the wrong size")
    _check_distribution(x, profile.x.denominator, f"{who} x")
    _check_distribution(y, profile.y.denominator, f"{who} y")
    row_pay = [sum(r[j] * y[j] for j in range(n)) for r in a_rows]
    col_pay = [sum(x[i] * b_rows[i][j] for i in range(n)) for j in range(n)]
    best_row, best_col = max(row_pay), max(col_pay)
    require(
        all(row_pay[i] == best_row for i in range(n) if x[i]),
        f"{who}: the row player has a better reply",
    )
    require(
        all(col_pay[j] == best_col for j in range(n) if y[j]),
        f"{who}: the column player has a better reply",
    )


def check_profile_json(text: str, profile, who: str) -> None:
    """The written profile reads back as the same decimal strings."""
    obj = json.loads(text)
    for key, s in (("x", profile.x), ("y", profile.y)):
        require(
            obj[key]["numerators"] == [str(p) for p in s.numerators]
            and obj[key]["denominator"] == str(s.denominator),
            f"{who}: written profile differs in {key}",
        )


def check_analyze(report, target, depth: int, who: str) -> None:
    """The exact accounting invariants of an ``analyze`` report."""
    q = target.denominator
    n = len(target.numerators)
    resolved, tail = report.resolved, report.tail
    require(report.depth == depth and len(resolved) == n, f"{who}: wrong shape")
    require(sum(resolved) + tail == 1, f"{who}: masses do not sum to 1")
    require(0 <= tail * (1 << depth) <= n, f"{who}: tail above n / 2^depth")
    for r, p in zip(resolved, target.numerators):
        # 0 <= p/q - r <= tail, multiplied through by q
        require(r >= 0 and r * q <= p, f"{who}: resolved mass above target")
        require(p - r * q <= tail * q, f"{who}: gap to target above tail")


# Upper 1e-6 point of the standard normal: with four chi-square tests per
# run, a correct sampler fails about one run in 250,000.
_Z = 4.753


def chi_square(counts, numerators, q) -> tuple[float, float]:
    """(statistic, fixed 1e-6 threshold) for observed counts against p/q.

    Adjacent outcomes are pooled until each bin expects at least five
    draws.  The threshold is the Wilson-Hilferty approximation of the
    chi-square quantile.
    """
    total = sum(counts)
    bins: list[list[float]] = []
    obs = exp = 0.0
    for c, p in zip(counts, numerators):
        obs += c
        exp += total * p / q
        if exp >= 5:
            bins.append([obs, exp])
            obs = exp = 0.0
    if bins:
        bins[-1][0] += obs
        bins[-1][1] += exp
    dof = len(bins) - 1
    if dof < 1:
        return 0.0, math.inf
    stat = sum((o - e) ** 2 / e for o, e in bins)
    h = 2 / (9 * dof)
    return stat, dof * (1 - h + _Z * math.sqrt(h)) ** 3
