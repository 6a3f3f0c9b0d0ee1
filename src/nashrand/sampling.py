"""Exact sampling from canonical rational distributions with fair bits.

The sampler is a Knuth-Yao walk of the discrete distribution generating
(DDG) tree of p_1/q .. p_n/q (Knuth and Yao 1976; Saad et al., "The Fast
Loaded Dice Roller", AISTATS 2020).  Level l of the tree has c_l leaves,
one for each outcome whose l-th binary digit of p_i/q is 1; level 0 holds
an outcome with p_i == q.  Leaves sit left of the internal nodes, so after
each bit the walk is at node x = 2x + bit of the level: a leaf if x is
below c_l, else internal node x - c_l.  Outcome i is reached with
probability sum_l bit_l(p_i/q) 2^-l = p_i/q exactly, and no exact sampler
spends fewer expected bits (under H + 2).

A draw resolves that walk with one peek.  Let u_l be the next l bits as
an integer and S_l = sum_{l' <= l} c_l' 2^(l - l'), with S_-1 = 0.  The
walk, unresolved, is at x_l = u_l - 2 S_(l-1) on level l: x_0 = 0, and
x_(l+1) = 2 (x_l - c_l) + bit = u_(l+1) - 2 S_l.  So it stops at the first
l with u_l < S_l, on leaf u_l - 2 S_(l-1).  With D the deepest level built,
v the next D bits and the marks T_l = S_l 2^(D - l), which do not
decrease, u_l < S_l holds exactly when v < T_l, because u_l 2^(D - l) <= v
< (u_l + 1) 2^(D - l).  Hence l = bisect_right(T, v); the draw skips l
bits and returns leaf (v - T_(l-1)) >> (D - l) of level l.  If v >= T_D it
builds levels D + 1, D + 2, ... until the first l with u_l < S_l, the level
that walk resolves on, rescales the old marks once, and peeks again; a walk
that reaches DEPTH_CAP unresolved skips DEPTH_CAP bits and raises
SamplerStall.  Building stops where the bit-by-bit walk would stop, so the
tree is exactly as deep as the deepest walk so far, and a walk that adds L
levels costs O(D + L) mark shifts.  Outcomes and bits consumed are those of
the bit-by-bit walk, at one peek, one bisect and one skip per draw.

Levels are built lazily from the integer remainders r_i = p_i 2^l mod q
(r <- 2r; emit i and subtract q when r >= q) and shared by all draws.  The
sampler holds the remainders, the levels some walk has reached (about
log2(n draws) of them, as lists of references into one list of outcome
ints: 22 to 25 levels and 0.12 MB for n = 40 to 1000 after 20k draws,
64-bit CPython) and the D + 1 marks, each at most 2^D since
sum_l c_l 2^-l <= 1.

The tree can also be read without building a level: for any D >= l,
level l's leaves are the outcomes whose floor(p_i 2^D / q) has bit D - l
set, since the bits D - 1 .. 0 of that floor are the first D binary
digits of p_i/q (and bit D is set only for p_i = q).  analyze reads its
exact account to depth D off those floors, one per distinct numerator,
in O(distinct * log2 D) big-int steps.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthTooLarge, SamplerStall
from .games import MixedStrategy

DEPTH_CAP = 4096
# largest n * depth that analyze accepts, counted in the remainder steps
# of the level-by-level loop it once ran (the unit and value are kept, as
# the refusal states them): at the cap, n = 16384 at depth 4096, analyze
# takes 1.2 ms on uniform(n) and 0.30 s or 0.42 s with random 64- or
# 300-bit numerators, and `nashrand analyze` about 1.6 s on the 300-bit
# ones, about half of it printing 16384 exact fractions (shared 2-core host)
ANALYZE_CAP = 1 << 26
WORDS = 256                                       # 32-bit outputs per refill
TOP_DIGIT = bytes(48 + (b >> 7) for b in range(256))  # byte -> ASCII digit of its top bit


class BitSource:
    """Deterministic seeded fair-bit stream that counts what it deals out.

    The bits are those of ``random.Random(seed).getrandbits(1)`` calls: the
    top bit of each 32-bit output, read WORDS outputs at a time from the
    little-endian bytes of ``getrandbits(32 * WORDS)``.  Unread bits wait in
    one int, the next bit most significant.
    """

    def __init__(self, seed: int):
        # random.Random seeds with abs(seed): -s would replay the stream of s
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.bits_consumed = 0
        self._rng = random.Random(seed)
        self._buf = 0   # the _len unread bits
        self._len = 0

    def peek(self, k: int) -> int:
        """The next k bits as an integer, first bit most significant; none consumed."""
        while self._len < k:
            words = self._rng.getrandbits(32 * WORDS).to_bytes(4 * WORDS, "little")
            self._buf = self._buf << WORDS | int(words[3::4].translate(TOP_DIGIT), 2)
            self._len += WORDS
        return self._buf >> (self._len - k)

    def skip(self, k: int) -> None:
        """Consume the next k bits."""
        if self._len < k:
            self.peek(k)
        self._len -= k
        self._buf &= (1 << self._len) - 1
        self.bits_consumed += k


class DdgSampler:
    """Sampler for one canonical rational distribution, levels built lazily."""

    def __init__(self, target: MixedStrategy):
        self.target = target
        self._outcomes = list(range(1, target.n + 1))  # ints shared by all levels
        q, nums = target.denominator, target.numerators
        self._levels = [[i for i, p in zip(self._outcomes, nums) if p == q]]
        self._rem = [p % q for p in nums]  # p_i 2^D mod q
        self._marks = [len(self._levels[0])]  # T_0 .. T_D; replaced, never mutated
        self._lock = threading.Lock()

    @property
    def n(self) -> int:
        return self.target.n

    def _deepen(self, bits: BitSource) -> list[int]:
        """Marks of a tree deep enough to resolve the walk ``bits`` starts,
        or DEPTH_CAP levels deep if it does not resolve by then."""
        with self._lock:  # concurrent walks must not build a level twice
            marks = self._marks
            depth, s = len(marks) - 1, marks[-1]  # s = S_depth = T_depth
            if bits.peek(depth) < s:  # another walk has built the level
                return marks
            q, rem, added = self.target.denominator, self._rem, []
            while depth < DEPTH_CAP:
                depth += 1
                doubled = [r << 1 for r in rem]
                level = [i for i, r in zip(self._outcomes, doubled) if r >= q]
                rem = [r - q if r >= q else r for r in doubled]
                self._levels.append(level)  # before the marks that reach it
                s = (s << 1) + len(level)
                added.append(s)
                if bits.peek(depth) < s:
                    break
            self._rem = rem
            k = len(added)  # one rescale: T_l = S_l 2^(depth - l)
            self._marks = [t << k for t in marks] + [
                t << (k - 1 - j) for j, t in enumerate(added)]
            return self._marks

    def sample(self, bits: BitSource) -> int:
        """Draw one outcome (1-based), consuming bits until resolved."""
        levels, marks = self._levels, self._marks
        if levels[0]:
            return levels[0][0]
        while True:
            depth = len(marks) - 1
            v = bits.peek(depth)
            level = bisect_right(marks, v)
            if level <= depth:
                bits.skip(level)
                return levels[level][(v - marks[level - 1]) >> (depth - level)]
            if depth == DEPTH_CAP:
                bits.skip(DEPTH_CAP)
                raise SamplerStall(f"no resolution within {DEPTH_CAP} bits")
            marks = self._deepen(bits)


@dataclass(frozen=True)
class AnalyzeReport:
    """Exact resolution accounting of the sampler tree up to a depth."""

    depth: int
    resolved: tuple[Fraction, ...]   # per-outcome mass decided by the depth
    tail: Fraction                   # mass still undecided at the depth
    expected_bits: float             # partial expectation of bits consumed


def analyze(sampler: DdgSampler, depth: int) -> AnalyzeReport:
    """Resolve the sampler's leaf masses exactly up to ``depth`` levels.

    Outcome i resolves f_i / 2^D by depth D, with f_i = floor(p_i 2^D / q)
    and D = depth: its leaves on levels 1..D are the set bits D - 1 .. 0 of
    f_i, and bit D is set only for p_i = q.  So the tail is
    (2^D - sum_i f_i) / 2^D, below one 2^-D per outcome, at most n 2^-D.
    Equal numerators share one floor, one divmod of p 2^D by q each.

    The partial expected bit count sums the tail over depths 0..D-1, which
    is E = sum_{d<D} sum_i rem_i(d) / (q 2^d) with rem_i(d) = p_i 2^d mod q.
    With F_d = sum_i floor(p_i 2^d / q):

    1. sum_i rem_i(d) = q (2^d - F_d), because sum_i p_i = q; so
       E = D - sum_{d<D} F_d 2^-d.
    2. F_d = sum_i floor(f_i / 2^(D-d)), because floor(floor(x) / m) =
       floor(x / m) for a positive integer m; with s = D - d,
       E = D - 2^-D sum_i sum_{s=1..D} 2^s floor(f_i / 2^s).
    3. sum_{s=1..D} 2^s floor(f / 2^s) = sum_b b bit_b(f) 2^b: the term of
       s keeps the bits b >= s of f, so bit b is counted min(b, D) times,
       which is b because f <= 2^D.
    4. Writing b = sum_t 2^t bit_t(b) regroups that sum as
       sum_t 2^t (f & M_t), where M_t has the bits b <= D whose index b
       has bit t set (``_index_masks``).

    So E = (D 2^D - sum_p c_p sum_t 2^t (f_p & M_t)) / 2^D, with c_p the
    number of outcomes of numerator p, divided once as integers; that is
    the correctly rounded float of the exact sum.  The cost is one divmod
    and about log2(D) masked adds on (D + log2 q)-bit integers per distinct
    numerator, plus O(n) to count them and lay out ``resolved``.  Each
    remainder p 2^D mod q of the divmod is checked against p (2^D mod q)
    mod q, the tail against n.

    D may not exceed DEPTH_CAP, the deepest level a walk reaches, nor n * D
    the work cap ANALYZE_CAP.  Both refusals count n * D in remainder
    steps, n per level, the unit of the level-by-level loop analyze once
    ran; the unit, the cap and the messages are kept for compatibility.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n, q, nums = sampler.n, sampler.target.denominator, sampler.target.numerators
    if depth > DEPTH_CAP:
        raise DepthTooLarge(
            f"depth {depth} exceeds the sampler's depth cap {DEPTH_CAP} "
            f"(estimated work n*depth = {n * depth} remainder steps)"
        )
    if n * depth > ANALYZE_CAP:
        raise DepthTooLarge(
            f"estimated work n*depth = {n} * {depth} = {n * depth} remainder steps "
            f"exceeds the analyze cap {ANALYZE_CAP}"
        )
    pow2, pow2_mod_q = 1 << depth, pow(2, depth, q)
    masks = _index_masks(depth)
    share, resolved_sum, weighted = {}, 0, 0
    for p, count in Counter(nums).items():
        f, r = divmod(p << depth, q)
        if r != p * pow2_mod_q % q:
            raise ArithmeticError("remainders disagree with the resolved mass")
        share[p] = Fraction(f, pow2)
        resolved_sum += count * f
        weighted += count * sum((f & m) << t for t, m in enumerate(masks))
    undecided = pow2 - resolved_sum
    if undecided > n:
        raise ArithmeticError("tail mass exceeds n * 2^-depth")
    return AnalyzeReport(depth, tuple(map(share.__getitem__, nums)),
                         Fraction(undecided, pow2), (depth * pow2 - weighted) / pow2)


def _index_masks(depth: int) -> list[int]:
    """M_t for t < depth.bit_length(): the bits b <= depth with bit t of b set.

    Bit t of b is set in runs of 2^t, every 2^(t+1).  Each mask starts as
    one run and doubles by a shift and an or until it spans depth + 1
    bits: at most log2(depth) steps on integers of under 2 (depth + 1)
    bits, O(depth) bit work per mask and no loop over the bits.
    """
    width, masks = depth + 1, []
    for t in range(depth.bit_length()):
        run, period = 1 << t, 2 << t
        m = ((1 << run) - 1) << run
        while period < width:
            m |= m << period
            period <<= 1
        masks.append(m & ((1 << width) - 1))
    return masks
