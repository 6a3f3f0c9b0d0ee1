import random
import sys
import threading
from fractions import Fraction

import pytest

from conftest import canonicalize, knuth_yao_draws
from nashrand.errors import SamplerStall
from nashrand.families import beta_ne, prime_block_ne, recurrence_table
from nashrand.games import (
    MixedStrategy,
    entropy,
    storage_bits,
    uniform,
)
from nashrand.sampling import DEPTH_CAP, BitSource, DdgSampler, analyze

X1 = beta_ne(8)[0].x

# Distributions walked over every bit string up to depth 12: non-dyadic
# ones, the paper's showcase strategies, a point mass and zero entries.
ENUMERATION_CASES = [
    uniform(3),
    canonicalize([Fraction(1, 3), Fraction(2, 3)]),
    X1,
    prime_block_ne(1)[0].x,
    MixedStrategy((0, 1, 0), 1),
    canonicalize([0, Fraction(1, 5), 0, Fraction(3, 10), Fraction(1, 2)]),
]

CHI2_CRITICAL_DF7 = 24.322  # upper 1e-3 tail, 7 degrees of freedom


class FixedBits(BitSource):
    """Bit source replaying a given pattern (for convention tests).

    A peek past the end of the pattern reads zeros; consuming past it
    counts the bits and then raises IndexError.
    """

    def __init__(self, pattern: str):
        super().__init__(0)
        self._pattern = pattern

    def peek(self, k: int) -> int:
        pos = self.bits_consumed
        return int("0" + self._pattern[pos:pos + k].ljust(k, "0"), 2)

    def skip(self, k: int) -> None:
        self.bits_consumed += k
        if self.bits_consumed > len(self._pattern):
            raise IndexError("consumed past the end of the pattern")


def test_uniform_two_uses_single_bit():
    s = DdgSampler(uniform(2))
    bits = FixedBits("01")
    assert s.sample(bits) == 1
    assert bits.bits_consumed == 1
    assert s.sample(bits) == 2
    assert bits.bits_consumed == 2


def test_uniform_eight_uses_exactly_three_bits():
    s = DdgSampler(uniform(8))
    bits = BitSource(3)
    for _ in range(200):
        before = bits.bits_consumed
        s.sample(bits)
        assert bits.bits_consumed - before == 3


def test_msb_first_leaf_labeling():
    # prefix 101 places the variate in [5/8, 6/8) -> outcome 6 of uniform/8
    s = DdgSampler(uniform(8))
    assert s.sample(FixedBits("101")) == 6
    assert s.sample(FixedBits("000")) == 1
    assert s.sample(FixedBits("111")) == 8


def test_point_mass_needs_no_bits():
    s = DdgSampler(MixedStrategy((1, 0), 1))
    bits = BitSource(0)
    assert s.sample(bits) == 1
    assert bits.bits_consumed == 0
    trailing = DdgSampler(MixedStrategy((0, 0, 1), 1))
    assert trailing.sample(bits) == 3
    assert bits.bits_consumed == 0


def test_seeded_runs_reproduce():
    s = DdgSampler(X1)
    runs = []
    for _ in range(2):
        bits = BitSource(12345)
        runs.append([s.sample(bits) for _ in range(500)])
    assert runs[0] == runs[1]


def next_bit(bits: BitSource) -> int:
    bit = bits.peek(1)
    bits.skip(1)
    return bit


def test_bit_source_deals_the_getrandbits_stream():
    # Buffering must not change the stream that seeded outcomes rest on.
    for seed in (0, 12345):
        bits, rng = BitSource(seed), random.Random(seed)
        assert [next_bit(bits) for _ in range(1000)] == [
            rng.getrandbits(1) for _ in range(1000)
        ]
        assert bits.bits_consumed == 1000
    # Multi-bit reads keep it too: seeded peek and skip widths of 0 to 300
    # bits straddle the 256-bit refill, and a peek consumes nothing.
    widths = random.Random(2718)
    for seed in (0, 12345):
        bits, rng = BitSource(seed), random.Random(seed)
        stream = "".join(str(rng.getrandbits(1)) for _ in range(40_000))
        pos = 0
        while pos < 39_000:
            k = widths.randint(0, 300)
            if widths.random() < 0.5:
                assert bits.peek(k) == int("0" + stream[pos:pos + k], 2)
            else:
                bits.skip(k)
                pos += k
            assert bits.bits_consumed == pos
        assert next_bit(bits) == int(stream[pos])


def random_distribution(rng: random.Random) -> MixedStrategy:
    """Up to 30 outcomes, some of them zero, numerators up to 10^30."""
    n = rng.randint(1, 30)
    nums = [rng.randint(0, 10 ** rng.randint(1, 30)) if rng.random() < 0.8 else 0
            for _ in range(n)]
    if not any(nums):
        nums[rng.randrange(n)] = 1
    total = sum(nums)
    return canonicalize([Fraction(p, total) for p in nums])


def test_sampler_matches_bit_by_bit_walk():
    # The peek-and-bisect draw against the walk it replaces, on the same
    # seeded stream: a fresh sampler builds its levels while drawing, and a
    # warmed one meets draws that pass its deepest built level.
    rng = random.Random(31337)
    cases = ENUMERATION_CASES + [
        beta_ne(40)[0].x,
        beta_ne(200)[0].x,
        prime_block_ne(10)[0].x,
        *(uniform(n) for n in (*range(1, 10), 999, 1000)),
        *(random_distribution(rng) for _ in range(40)),
    ]
    warm, draws = 1000, 300
    passed_deepest = 0
    for case, dist in enumerate(cases):
        expected, used = knuth_yao_draws(dist, random.Random(case), draws)
        fresh, bits = DdgSampler(dist), BitSource(case)
        assert [fresh.sample(bits) for _ in range(draws)] == expected
        assert bits.bits_consumed == sum(used)
        warm_out, warm_used = knuth_yao_draws(dist, random.Random(10_000 + case), warm)
        warmed, bits = DdgSampler(dist), BitSource(10_000 + case)
        assert [warmed.sample(bits) for _ in range(warm)] == warm_out
        assert bits.bits_consumed == sum(warm_used)
        bits = BitSource(case)
        assert [warmed.sample(bits) for _ in range(draws)] == expected
        assert bits.bits_consumed == sum(used)
        passed_deepest += max(used) > max(warm_used)
    assert passed_deepest >= 5


def test_exhaustive_three_bit_enumeration_matches_uniform():
    s = DdgSampler(uniform(8))
    seen = [s.sample(FixedBits(format(v, "03b"))) for v in range(8)]
    assert seen == list(range(1, 9))


def test_analyze_dyadic_resolves_exactly():
    report = analyze(DdgSampler(uniform(8)), 3)
    assert report.resolved == tuple(Fraction(1, 8) for _ in range(8))
    assert report.tail == 0
    assert report.expected_bits == pytest.approx(3.0)


def test_analyze_thirds():
    report = analyze(DdgSampler(canonicalize([Fraction(1, 3), Fraction(2, 3)])), 10)
    assert abs(report.resolved[0] - Fraction(1, 3)) <= Fraction(1, 512)
    assert abs(report.resolved[1] - Fraction(2, 3)) <= Fraction(1, 512)
    assert report.tail <= Fraction(2, 1024)


def test_analyze_showcase_distribution_deep():
    report = analyze(DdgSampler(X1), 64)
    assert report.tail <= Fraction(8, 2**64)
    for r, p in zip(report.resolved, X1.numerators):
        assert abs(r - Fraction(p, X1.denominator)) <= report.tail
    h = entropy(X1)
    assert h - 1e-9 <= report.expected_bits <= h + 2


def test_analyze_error_shrinks_geometrically():
    s = DdgSampler(X1)
    tails = [analyze(s, d).tail for d in (8, 16, 24, 32)]
    for shallow, deep in zip(tails, tails[1:]):
        assert deep <= shallow / 2**7


def test_expected_bits_within_entropy_window():
    cases = [
        uniform(2),
        uniform(8),
        canonicalize([Fraction(1, 3), Fraction(2, 3)]),
        X1,
        prime_block_ne(1)[0].x,
        beta_ne(12)[0].x,
        beta_ne(20)[0].x,
    ]
    for dist in cases:
        report = analyze(DdgSampler(dist), 64)
        h = entropy(dist)
        assert h - 1e-9 <= report.expected_bits <= h + 2


def test_empirical_frequencies_pass_chi_square():
    s = DdgSampler(X1)
    bits = BitSource(42)
    counts = [0] * 8
    draws = 100_000
    for _ in range(draws):
        counts[s.sample(bits) - 1] += 1
    expected = [p * draws / 34 for p in X1.numerators]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    assert chi2 < CHI2_CRITICAL_DF7
    assert bits.bits_consumed / draws == pytest.approx(3.8824, abs=0.05)


def test_sampler_stall_guard():
    # (1/3, 2/3) never terminates in binary, so every level of its tree has
    # one leaf (on the left) and one internal node (on the right).  The
    # all-ones path always takes the internal node and never resolves.
    class OneBits(BitSource):
        def peek(self, k: int) -> int:
            return (1 << k) - 1

        def skip(self, k: int) -> None:
            self.bits_consumed += k

    s = DdgSampler(canonicalize([Fraction(1, 3), Fraction(2, 3)]))
    bits = OneBits(0)
    with pytest.raises(SamplerStall):
        s.sample(bits)
    assert bits.bits_consumed == DEPTH_CAP


def test_tree_is_as_deep_as_the_deepest_walk():
    # Levels are built only until the walk that asked for them resolves, so
    # after seeded draws the tree is exactly as deep as the longest draw.
    # The depths and bit counts are pinned: the benchmark's distributions
    # after 20k draws at BitSource(1).
    dists = {
        "beta40": beta_ne(40)[0].x,
        "beta200": beta_ne(200)[0].x,
        "primeblock10": prime_block_ne(10)[0].x,
        "uniform1000": uniform(1000),
    }
    got = {}
    for name, x in dists.items():
        s, bits, longest = DdgSampler(x), BitSource(1), 0
        for _ in range(20_000):
            before = bits.bits_consumed
            s.sample(bits)
            longest = max(longest, bits.bits_consumed - before)
        depth = len(s._marks) - 1
        assert depth == longest, name
        got[name] = (depth, bits.bits_consumed)
    assert got == {
        "beta40": (18, 130367),
        "beta200": (21, 169662),
        "primeblock10": (20, 152100),
        "uniform1000": (27, 203111),
    }


def test_bit_string_enumeration_matches_analyze():
    # Independent second source for analyze: replay all 2^D bit strings of
    # length D through the walk, each weighing 2^-D.  A string still
    # undecided after D bits asks for bit D + 1 and runs off its end.
    depth = 12
    for dist in ENUMERATION_CASES:
        s = DdgSampler(dist)
        counts = [0] * dist.n
        consumed = 0
        for v in range(2**depth):
            bits = FixedBits(format(v, f"0{depth}b"))
            try:
                counts[s.sample(bits) - 1] += 1
            except IndexError:
                pass
            consumed += min(bits.bits_consumed, depth)
        report = analyze(s, depth)
        assert report.resolved == tuple(Fraction(c, 2**depth) for c in counts)
        assert report.expected_bits == float(Fraction(consumed, 2**depth))


def _remainder_loop(dist: MixedStrategy, depth: int):
    """analyze's account by the level-by-level remainder recurrence, in
    n * depth steps: per level, add up the remainders p_i 2^d mod q, then
    double and reduce each.  Returns (resolved, tail, expected_bits)."""
    q, nums = dist.denominator, dist.numerators
    rem = [p % q for p in nums]
    scaled = 0
    for _ in range(depth):
        scaled = (scaled << 1) + sum(rem)
        rem = [(r << 1) % q for r in rem]
    floors = [(p << depth) // q for p in nums]
    pow2 = 1 << depth
    return (tuple(Fraction(f, pow2) for f in floors), Fraction(pow2 - sum(floors), pow2),
            scaled / (q << (depth - 1)))


def test_analyze_equals_the_remainder_loop():
    # analyze's floor read-off against the remainder recurrence, with the
    # floats compared by ==: the benchmark's four distributions, 300-bit
    # numerators, a point mass (floor 2^D: bit D set) and an outcome of
    # mass 2^-1100, at depths around a word and up to DEPTH_CAP.
    rng = random.Random(33)
    wide = [rng.getrandbits(300) for _ in range(64)]
    cases = {
        "beta40": beta_ne(40)[0].x,
        "beta200": beta_ne(200)[0].x,
        "primeblock10": prime_block_ne(10)[0].x,
        "uniform1000": uniform(1000),
        "random300": MixedStrategy(tuple(wide), sum(wide)),
        "point": MixedStrategy((0, 1, 0), 1),
        "tiny": MixedStrategy((1, 2**1100 - 1), 2**1100),
    }
    for name, dist in cases.items():
        sampler = DdgSampler(dist)
        for depth in (1, 2, 63, 64, 65, 1000, DEPTH_CAP):
            report = analyze(sampler, depth)
            got = (report.resolved, report.tail, report.expected_bits)
            assert got == _remainder_loop(dist, depth), (name, depth)


def test_expected_bits_match_closed_form():
    # The walk stops after k bits exactly on a level-k leaf, so it spends
    # sum_i sum_k k * bit_k(p_i/q) * 2^-k bits on average.  Summing to
    # k = 200 and analyzing to depth 64 each leave less than 1e-15.
    for dist in ENUMERATION_CASES + [beta_ne(40)[0].x]:
        q = dist.denominator
        closed = sum(
            Fraction(k * ((p << k) // q & 1), 2**k)
            for p in dist.numerators
            for k in range(1, 200)
        )
        report = analyze(DdgSampler(dist), 64)
        assert report.expected_bits == pytest.approx(float(closed), abs=1e-12)
    assert analyze(DdgSampler(X1), 64).expected_bits == pytest.approx(3.8824, abs=1e-4)


def test_shared_sampler_across_threads_matches_a_private_one():
    # Eight threads start drawing from one fresh sampler at once, with a
    # short switch interval, so they race to build the same levels.
    dist = uniform(999)
    shared = DdgSampler(dist)
    start = threading.Barrier(8)
    results = {}

    def draw(seed):
        bits = BitSource(seed)
        start.wait(timeout=30)
        results[seed] = [shared.sample(bits) for _ in range(300)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(8))
    for seed, drawn in results.items():
        bits, private = BitSource(seed), DdgSampler(dist)
        assert drawn == [private.sample(bits) for _ in range(300)]


def test_storage_asymmetry_for_banded_family():
    # The row player's numerators need on the order of n^2 bits while the
    # uniform column player needs exactly n.  The lower constant is violated
    # precisely at the gcd-collapse indices (g > 3 early on), the desk-scale
    # trace of the known exceptional subsequence; those are asserted instead
    # of hidden.
    table = recurrence_table(41)
    dips = []
    for n in range(12, 41):
        profile, _ = beta_ne(n)
        ratio = storage_bits(profile.x) / n**2
        assert storage_bits(profile.y) == n
        assert ratio <= 1.5
        if ratio < 0.3:
            dips.append(n)
    assert dips == [13, 14, 16]
    assert all(table.g(n) > 3 for n in dips)


def test_prime_block_storage_trend():
    # superlinear, subquadratic: bits/N keeps rising, bits/N^2 trends down
    lin = []
    quad = []
    for blocks in range(1, 9):
        profile, _ = prime_block_ne(blocks)
        n = profile.x.n
        bits = storage_bits(profile.x)
        lin.append(bits / n)
        quad.append(bits / n**2)
    assert all(a < b for a, b in zip(lin, lin[1:]))
    assert quad[-1] < quad[0]
    assert max(quad) <= 0.35


def test_analyze_rejects_bad_depth():
    with pytest.raises(ValueError):
        analyze(DdgSampler(uniform(2)), 0)
