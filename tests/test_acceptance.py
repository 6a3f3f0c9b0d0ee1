"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest still shows them for failing tests.
Criteria with wallclock budgets measure a cold solve (the library's
enumeration cache is cleared first).
"""

import math
import random
import time
from fractions import Fraction

from conftest import (
    X1_NUMERATORS,
    Y2_NUMERATORS,
    canonicalize,
    cofactor_sum_definition,
    random_binary_matrix,
)
from nashrand.errors import HasPureNE
from nashrand.exact import IntMatrix, cofactor_sum, det, eliminate
from nashrand.families import (
    Permutation,
    asymptotic_checks,
    beta_game,
    beta_matrix,
    beta_ne,
    first_primes,
    permutation_game,
    prime_block_game,
    prime_block_ne,
    recurrence_constants,
    recurrence_table,
    two_by_two_complexities,
)
from nashrand.games import (
    Game,
    MixedStrategy,
    complexity,
    entropy,
    uniform,
)
from nashrand.sampling import BitSource, DdgSampler, analyze
from nashrand.solving import (
    _enumerate,
    bounded_ne_exists,
    complexity_upper_bound,
    min_complexities,
    pure_nash,
    support_enumeration,
)

LOG2_RHO = 0.5514630897455954
CHI2_CRITICAL_DF7 = 24.322  # upper 1e-3 tail


def _verdict(num: int, ok: bool, elapsed: float, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({elapsed:.2f}s) {detail}")
    return ok


def test_criterion_01_showcase_imitation_game():
    _enumerate.cache_clear()
    start = time.perf_counter()
    report = support_enumeration(beta_game(8))
    elapsed = time.perf_counter() - start
    ok = (
        len(report.equilibria) == 1
        and report.equilibria[0].x == MixedStrategy(X1_NUMERATORS, 34)
        and report.equilibria[0].y == uniform(8)
        and (report.c1_min, report.c2_min) == (34, 8)
        and elapsed < 1.0
    )
    assert _verdict(
        1, ok, elapsed,
        f"unique NE x={X1_NUMERATORS}/34, y=uniform/8, C=(34,8), budget 1s",
    )


def test_criterion_02_showcase_constant_sum_game():
    from nashrand.families import constant_sum_beta

    game, _, _ = constant_sum_beta(8)
    _enumerate.cache_clear()
    start = time.perf_counter()
    report = support_enumeration(game)
    elapsed = time.perf_counter() - start
    ok = (
        len(report.equilibria) == 1
        and report.equilibria[0].x == MixedStrategy(X1_NUMERATORS, 34)
        and report.equilibria[0].y == MixedStrategy(Y2_NUMERATORS, 34)
        and (report.c1_min, report.c2_min) == (34, 34)
        and elapsed < 1.0
    )
    assert _verdict(
        2, ok, elapsed,
        f"unique NE, y'={Y2_NUMERATORS}/34, C=(34,34), budget 1s",
    )


def test_criterion_03_enumeration_matches_closed_forms():
    _enumerate.cache_clear()
    start = time.perf_counter()
    ok = True
    details = []
    for n in (8, 9, 10):
        report = support_enumeration(beta_game(n))
        profile, c1 = beta_ne(n)
        ok = ok and report.equilibria == (profile,) and report.c1_min == c1
        details.append(f"banded n={n}: C1={c1}")
    for blocks in (1, 2):
        report = support_enumeration(prime_block_game(blocks))
        profile, c1 = prime_block_ne(blocks)
        ok = ok and report.equilibria == (profile,) and report.c1_min == c1
        details.append(f"blocks N={profile.x.n}: C1={c1}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert _verdict(3, ok, elapsed, "; ".join(details) + ", budget 120s")


def test_criterion_04_recurrence_identities():
    start = time.perf_counter()
    t = recurrence_table(200)
    ok = True
    for n in range(1, 201):
        ok = ok and t.b(n) + t.b(n + 1) == t.a(n)
        if n >= 4:
            ok = ok and (t.b(n) > 0) == (n % 2 == 0)
    for n in range(4, 201):
        ok = ok and t.det_b(n) == t.det_b(n - 1) + t.det_b(n - 3)
    for n in range(8, 41):
        d = det(beta_matrix(n))
        ok = ok and abs(d) == 2 * abs(t.b(n)) + abs(t.a(n))
    dependent = {(1, 3), (4, 6), (5, 7)}
    for m in range(1, 60):
        for n in range(m + 1, 61):
            equal = t.a(n) * t.b(m) == t.a(m) * t.b(n)
            ok = ok and (equal == ((m, n) in dependent))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        4, ok, elapsed,
        "sum/sign identities to n=200, bordered dets to 40, "
        "pairwise independence to 60, budget 60s",
    )


def test_criterion_05_complexity_identity():
    start = time.perf_counter()
    t = recurrence_table(40)
    ok = True
    for n in range(8, 41):
        _, c1 = beta_ne(n)
        k = abs(cofactor_sum_definition(beta_matrix(n)))  # n-determinant definition
        d = abs(det(beta_matrix(n)))
        ok = ok and c1 * t.g(n) == k
        ok = ok and 3 * k >= n * d
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert _verdict(
        5, ok, elapsed,
        "C(x) * g(n) = |K| and 3|K| >= n|det| for 8 <= n <= 40, budget 120s",
    )


def test_criterion_06_growth_window_and_mean():
    # KNOWN RED, second clause: the mean of (1/n) log2 C(x_n) over
    # n = 31..40 is deterministically 0.6098.  At this scale the metric
    # carries a +log2(n * const)/n bias over log2|rho| that only decays
    # around n ~ 70, so no correct implementation can land within 0.05.
    # The checked values are quadruple-sourced: closed form, cofactor-sum
    # identity, enumeration at n <= 10, and a recurrence-free exact matrix
    # solve at n up to 40 all agree.  Nearby readings of the same growth
    # statistic do pass and are printed for context.
    start = time.perf_counter()
    rates = {}
    c_values = {}
    for n in range(12, 41):
        _, c1 = beta_ne(n)
        rates[n] = math.log2(c1) / n
        c_values[n] = c1
    window_ok = all(0.3 <= r <= 0.8 for r in rates.values())
    last10_mean = sum(rates[n] for n in range(31, 41)) / 10
    mean_ok = abs(last10_mean - LOG2_RHO) <= 0.05
    cumulative_mean = sum(rates.values()) / len(rates)
    increment_mean = (math.log2(c_values[40]) - math.log2(c_values[30])) / 10
    elapsed = time.perf_counter() - start
    ok = window_ok and mean_ok
    assert _verdict(
        6, ok, elapsed,
        f"window [0.3,0.8] {'holds' if window_ok else 'FAILS'}; "
        f"last-10 mean {last10_mean:.4f} vs log2|rho|={LOG2_RHO:.4f} "
        f"(tolerance 0.05) {'holds' if mean_ok else 'FAILS'} "
        f"[context: cumulative mean {cumulative_mean:.4f}, "
        f"last-10 increment mean {increment_mean:.4f}]",
    )


def test_criterion_07_prime_block_closed_form():
    start = time.perf_counter()
    ok = True
    for blocks in range(1, 9):
        profile, c1 = prime_block_ne(blocks)
        primes = first_primes(blocks)
        prod = math.prod(primes)
        expected = (blocks + 1) * prod + sum(prod // p for p in primes)
        ok = ok and c1 == expected == complexity(profile.x)
        ok = ok and complexity(profile.y) == profile.y.n
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _verdict(
        7, ok, elapsed,
        "closed-form C1 equals canonical denominator for k <= 8, C2 = N, budget 10s",
    )


def test_criterion_08_upper_bound_dominates(corpus):
    start = time.perf_counter()
    ok = True
    for game in corpus.values():
        c1, c2 = min_complexities(game)
        b1, b2 = complexity_upper_bound(game)
        ok = ok and b1 >= c1 and b2 >= c2
    rng = random.Random(808)
    for _ in range(100):
        game = Game(random_binary_matrix(rng, 3), random_binary_matrix(rng, 3))
        c1, c2 = min_complexities(game)
        b1, b2 = complexity_upper_bound(game)
        ok = ok and b1 >= c1 and b2 >= c2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    assert _verdict(
        8, ok, elapsed,
        "bound >= measured C on corpus plus 100 random 3x3 binary games, budget 180s",
    )


def test_criterion_09_cofactor_determinant_inequalities():
    start = time.perf_counter()
    rng = random.Random(909)
    ok = True
    for i in range(200):
        n = 3 + i % 4
        while True:
            m = random_binary_matrix(rng, n)
            d, y = eliminate([list(r) for r in m.rows], [1] * n)
            if d and all(v * d >= 0 for v in y):
                break
        d = abs(d)
        k = abs(cofactor_sum(m))
        ok = ok and d <= k <= n * d
        colmax = max(sum(col) for col in zip(*m.rows))
        ok = ok and colmax * k >= n * d
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        9, ok, elapsed,
        "|det| <= |K| <= n|det| and colsum-sharpened bound on 200 matrices, budget 60s",
    )


def test_criterion_10_capability_gate(corpus):
    start = time.perf_counter()
    ok = True
    for game in corpus.values():
        report = support_enumeration(game)
        c1, c2 = report.c1_min, report.c2_min
        grid1 = sorted({1, 2, max(1, c1 - 1), c1, c1 + 1})
        grid2 = sorted({1, 2, max(1, c2 - 1), c2, c2 + 1})
        for cap1 in grid1:
            for cap2 in grid2:
                direct = any(
                    complexity(p.x) <= cap1 and complexity(p.y) <= cap2
                    for p in report.equilibria
                )
                ok = ok and bounded_ne_exists(game, cap1, cap2) == direct
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        10, ok, elapsed,
        "restricted-game existence matches direct NE filtering on capability grids, "
        "budget 60s",
    )


def test_criterion_11_sampler_accounting():
    start = time.perf_counter()
    x1 = beta_ne(8)[0].x
    distributions = [
        uniform(2),
        uniform(8),
        canonicalize([Fraction(1, 3), Fraction(2, 3)]),
        x1,
        prime_block_ne(1)[0].x,
        beta_ne(12)[0].x,
        beta_ne(20)[0].x,
    ]
    ok = True
    for dist in distributions:
        report = analyze(DdgSampler(dist), 64)
        h = entropy(dist)
        ok = ok and report.tail <= Fraction(dist.n, 2**64)
        for r, p in zip(report.resolved, dist.numerators):
            ok = ok and abs(r - Fraction(p, dist.denominator)) <= Fraction(dist.n, 2**64)
        ok = ok and h - 1e-9 <= report.expected_bits <= h + 2
    sampler = DdgSampler(x1)
    bits = BitSource(42)
    counts = [0] * 8
    draws = 100_000
    for _ in range(draws):
        counts[sampler.sample(bits) - 1] += 1
    expected = [p * draws / 34 for p in x1.numerators]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    ok = ok and chi2 < CHI2_CRITICAL_DF7
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        11, ok, elapsed,
        f"depth-64 resolution exact within n*2^-64, bits in [H, H+2], "
        f"chi2={chi2:.2f} < {CHI2_CRITICAL_DF7}, budget 60s",
    )


def test_criterion_12_special_case_formulas():
    start = time.perf_counter()
    rng = random.Random(1212)
    ok = True
    produced = 0
    while produced < 100:
        a = IntMatrix([[rng.randint(0, 6) for _ in range(2)] for _ in range(2)])
        b = IntMatrix([[rng.randint(0, 6) for _ in range(2)] for _ in range(2)])
        game = Game(a, b)
        try:
            closed = two_by_two_complexities(game)
        except HasPureNE as exc:
            closed = exc.complexities
            if not pure_nash(game):
                ok = False
        produced += 1
        ok = ok and closed == min_complexities(game)
    for _ in range(100):
        n = rng.randint(2, 6)
        pi = Permutation(rng.sample(range(1, n + 1), n))
        tau = Permutation(rng.sample(range(1, n + 1), n))
        game, shortest = permutation_game(pi, tau)
        ok = ok and min_complexities(game) == (shortest, shortest)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        12, ok, elapsed,
        "2x2 closed form and min-cycle formula match enumeration on 100 "
        "random instances each, budget 60s",
    )


def test_criterion_13_asymptotic_spot_checks():
    start = time.perf_counter()
    t40 = recurrence_table(40)
    consts = recurrence_constants()
    ratio_err = abs(t40.b(41) / t40.b(40) - consts.rho)
    report = asymptotic_checks(recurrence_table(41), consts)
    ok = (
        ratio_err < 1e-3
        and abs(report.claim_one - 1.38263) < 1e-2
        and abs(report.claim_two - 2.02635) < 1e-2
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _verdict(
        13, ok, elapsed,
        f"|b41/b40 - rho| = {ratio_err:.2e} < 1e-3; limits "
        f"{report.claim_one:.5f} ~ 1.38263, {report.claim_two:.5f} ~ 2.02635, "
        "budget 1s",
    )
