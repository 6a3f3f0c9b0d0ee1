"""Exact sampling from canonical rational distributions with fair bits.

The sampler is a Knuth-Yao walk of the discrete distribution generating
(DDG) tree of p_1/q .. p_n/q (Knuth and Yao 1976; Saad et al., "The Fast
Loaded Dice Roller", AISTATS 2020).  Level d of the tree has one leaf for
each outcome whose d-th binary digit of p_i/q is 1; level 0 holds an
outcome with p_i == q.  Leaves sit left of the internal nodes, so after
each bit the walk is at node d = 2d + bit of the level: a leaf if d is
below the level's leaf count, else internal node d - count.  Outcome i is
reached with probability sum_d bit_d(p_i/q) 2^-d = p_i/q exactly, and no
exact sampler spends fewer expected bits (under H + 2).

Levels are built lazily from the integer remainders r_i = p_i 2^d mod q
(r <- 2r; emit i and subtract q when r >= q), cached on the sampler and
shared by all samples, so a bit costs one list lookup and no bigint work.
The cache holds only the levels some walk has reached, about log2(n draws)
of them, as lists of references into one list of outcome ints: 22 to 25
levels and 0.12 MB for n = 40 to 1000 after 20k draws (64-bit CPython).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthTooLarge, SamplerStall
from .games import MixedStrategy

DEPTH_CAP = 4096
WORDS = 256                                  # 32-bit outputs per refill
TOP_BIT = bytes(b >> 7 for b in range(256))  # byte -> its most significant bit


class BitSource:
    """Deterministic seeded fair-bit stream that counts what it deals out.

    The bits are those of ``random.Random(seed).getrandbits(1)`` calls: the
    top bit of each 32-bit output, read WORDS outputs at a time from the
    little-endian bytes of ``getrandbits(32 * WORDS)``.
    """

    def __init__(self, seed: int):
        # random.Random seeds with abs(seed): -s would replay the stream of s
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.bits_consumed = 0
        self._rng = random.Random(seed)
        self._bits = iter(b"")

    def next_bit(self) -> int:
        self.bits_consumed += 1
        for bit in self._bits:  # cheapest next() that falls through when empty
            return bit
        words = self._rng.getrandbits(32 * WORDS).to_bytes(4 * WORDS, "little")
        self._bits = iter(words[3::4].translate(TOP_BIT))
        return next(self._bits)


class DdgSampler:
    """Sampler for one canonical rational distribution, levels built lazily."""

    def __init__(self, target: MixedStrategy):
        self.target = target
        self._outcomes = list(range(1, target.n + 1))  # ints shared by all levels
        q, nums = target.denominator, target.numerators
        self._levels = [[i for i, p in zip(self._outcomes, nums) if p == q]]
        self._rem = [p % q for p in nums]  # p_i 2^d mod q, d = last level built
        self._lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.target.n

    def _level(self, depth: int) -> list[int]:
        """Level ``depth`` of the tree, building the missing levels above it."""
        with self._lock:  # concurrent walks must not build a level twice
            q, levels = self.target.denominator, self._levels
            while len(levels) <= depth:
                doubled = [r << 1 for r in self._rem]
                levels.append([i for i, r in zip(self._outcomes, doubled) if r >= q])
                self._rem = [r - q if r >= q else r for r in doubled]
            return levels[depth]

    def sample(self, bits: BitSource) -> int:
        """Draw one outcome (1-based), consuming bits until resolved."""
        levels = self._levels
        if levels[0]:
            return levels[0][0]
        next_bit = bits.next_bit
        d = 0
        for depth in range(1, DEPTH_CAP + 1):
            try:
                level = levels[depth]
            except IndexError:
                level = self._level(depth)
            d = (d << 1) | next_bit()
            if d < len(level):
                return level[d]
            d -= len(level)
        raise SamplerStall(f"no resolution within {DEPTH_CAP} bits")


@dataclass(frozen=True)
class AnalyzeReport:
    """Exact resolution accounting of the sampler tree up to a depth."""

    depth: int
    resolved: tuple[Fraction, ...]   # per-outcome mass decided by the depth
    tail: Fraction                   # mass still undecided at the depth
    expected_bits: float             # partial expectation of bits consumed


def analyze(sampler: DdgSampler, depth: int) -> AnalyzeReport:
    """Resolve the sampler's leaf masses exactly up to ``depth`` levels.

    Outcome i resolves floor(p_i 2^D / q) / 2^D by depth D, so the tail is
    below one 2^-D per outcome, at most n * 2^-D.  The partial expected bit
    count sums the tail over depths 0..D-1, which is
    sum_{d<D} sum_i (p_i 2^d mod q) / (q 2^d); it is accumulated in one
    integer over q 2^(D-1) and divided once.  D may not exceed DEPTH_CAP,
    the deepest level a walk reaches.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n, q, nums = sampler.n, sampler.target.denominator, sampler.target.numerators
    if depth > DEPTH_CAP:
        raise DepthTooLarge(
            f"depth {depth} exceeds the sampler's depth cap {DEPTH_CAP} "
            f"(estimated work n*depth = {n * depth} remainder steps)"
        )
    rem = [p % q for p in nums]
    scaled = 0
    for _ in range(depth):
        scaled = (scaled << 1) + sum(rem)
        rem = [(r << 1) % q for r in rem]
    floors = [(p << depth) // q for p in nums]
    pow2, undecided = 1 << depth, (1 << depth) - sum(floors)
    if any((p << depth) != f * q + r for p, f, r in zip(nums, floors, rem)):
        raise ArithmeticError("remainders disagree with the resolved mass")
    if undecided > n:
        raise ArithmeticError("tail mass exceeds n * 2^-depth")
    resolved = tuple(Fraction(f, pow2) for f in floors)
    return AnalyzeReport(depth, resolved, Fraction(undecided, pow2),
                         scaled / (q << (depth - 1)))
