"""Exact sampling from canonical rational distributions with fair bits.

The sampler walks the implicit binary tree of dyadic intervals: after d
bits with prefix value v, the uniform variate is known to lie in
[v / 2^d, (v + 1) / 2^d).  The walk stops as soon as that interval fits
inside one bucket [T_{i-1}/q, T_i/q) of the cumulative numerator
thresholds, which reproduces each probability p_i/q exactly in the limit
and needs no precomputed tree -- per-sample state is just the integer pair
(v, d).  Expected consumption is within two bits of the entropy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import SamplerStall
from .games import MixedStrategy

DEPTH_CAP = 4096


class BitSource:
    """Deterministic seeded fair-bit stream that counts what it deals out."""

    def __init__(self, seed: int):
        self.seed = seed
        self.bits_consumed = 0
        self._rng = random.Random(seed)

    def next_bit(self) -> int:
        self.bits_consumed += 1
        return self._rng.getrandbits(1)


class DdgSampler:
    """Immutable sampler for one canonical rational distribution."""

    def __init__(self, target: MixedStrategy):
        self.target = target
        thresholds = []
        acc = 0
        for p in target.numerators:
            acc += p
            thresholds.append(acc)
        self._thresholds = tuple(thresholds)  # T_1 .. T_n, T_n == q
        self._q = target.denominator

    @property
    def n(self) -> int:
        return self.target.n

    def _locate(self, scaled_lo: int, scaled_hi: int, pow2: int) -> int | None:
        """Outcome index if [lo, hi) * q fits a single bucket, else None.

        ``scaled_lo``/``scaled_hi`` are v*q and (v+1)*q; buckets are scaled
        by 2^d = ``pow2``.
        """
        t = self._thresholds
        lo_idx, hi_idx = 0, len(t) - 1
        # first bucket whose scaled upper threshold exceeds scaled_lo
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            if t[mid] * pow2 > scaled_lo:
                hi_idx = mid
            else:
                lo_idx = mid + 1
        if scaled_hi <= t[lo_idx] * pow2:
            return lo_idx + 1
        return None

    def sample(self, bits: BitSource) -> int:
        """Draw one outcome (1-based), consuming bits until resolved."""
        q = self._q
        v = 0
        pow2 = 1
        for _ in range(DEPTH_CAP):
            outcome = self._locate(v * q, (v + 1) * q, pow2)
            if outcome is not None:
                return outcome
            v = (v << 1) | bits.next_bit()
            pow2 <<= 1
        raise SamplerStall(f"no resolution within {DEPTH_CAP} bits")


def build_sampler(x: MixedStrategy) -> DdgSampler:
    return DdgSampler(x)


@dataclass(frozen=True)
class AnalyzeReport:
    """Exact resolution accounting of the sampler tree up to a depth."""

    depth: int
    resolved: tuple[Fraction, ...]   # per-outcome mass decided by the depth
    tail: Fraction                   # mass still undecided at the depth
    expected_bits: float             # partial expectation of bits consumed

    def max_error(self) -> Fraction:
        return self.tail


def analyze(sampler: DdgSampler, depth: int) -> AnalyzeReport:
    """Resolve the sampler's leaf masses exactly up to ``depth`` levels.

    At depth d the cells fully inside bucket i have total measure
    (floor(T_i 2^d / q) - ceil(T_{i-1} 2^d / q)) / 2^d; everything else is
    tail mass, bounded by one cell per interior threshold, so at most
    n * 2^-depth.  The partial expected bit count sums the alive mass over
    depths 0..depth-1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    q = sampler._q
    thresholds = (0,) + sampler._thresholds
    n = sampler.n
    expected = 0.0
    for d in range(depth):
        expected += float(_alive_mass(thresholds, q, d))
    pow2 = 1 << depth
    resolved = []
    for i in range(1, n + 1):
        lo = -(-thresholds[i - 1] * pow2 // q)   # ceil
        hi = thresholds[i] * pow2 // q           # floor
        resolved.append(Fraction(max(0, hi - lo), pow2))
    tail = 1 - sum(resolved)
    probs = sampler.target.probabilities()
    if any(abs(r - p) > tail for r, p in zip(resolved, probs)):
        raise ArithmeticError("resolved mass is off by more than the tail")
    if tail > Fraction(n, pow2):
        raise ArithmeticError("tail mass exceeds n * 2^-depth")
    return AnalyzeReport(depth, tuple(resolved), tail, expected)


def _alive_mass(thresholds: tuple[int, ...], q: int, d: int) -> Fraction:
    """Measure of depth-d cells that straddle an interior bucket boundary."""
    pow2 = 1 << d
    cells = set()
    for t in thresholds[1:-1]:
        scaled = t * pow2
        if scaled % q:
            cells.add(scaled // q)
    return Fraction(len(cells), pow2)
