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

A draw resolves that walk with one read of the next D bits.  Let u_l be
the next l bits as an integer and S_l = sum_{l' <= l} c_l' 2^(l - l'), with
S_-1 = 0.  The walk, unresolved, is at x_l = u_l - 2 S_(l-1) on level l:
x_0 = 0, and x_(l+1) = 2 (x_l - c_l) + bit = u_(l+1) - 2 S_l.  So it stops
at the first l with u_l < S_l, on leaf u_l - 2 S_(l-1).  With D the deepest
level built, v the next D bits and the marks T_l = S_l 2^(D - l), which do
not decrease, u_l < S_l holds exactly when v < T_l, because
u_l 2^(D - l) <= v < (u_l + 1) 2^(D - l).  Hence l = bisect_right(T, v);
the draw consumes l bits and returns leaf (v - T_(l-1)) >> (D - l) of
level l.  If v >= T_D it builds levels D + 1, D + 2, ... until the first l
with u_l < S_l, the level that walk resolves on, rescales the old marks
once, and reads again; a walk that reaches DEPTH_CAP unresolved consumes
DEPTH_CAP bits and raises SamplerStall.  Building stops where the
bit-by-bit walk would stop, so the tree of a sampler that one thread draws
from is exactly as deep as its deepest walk so far, and a walk that adds
L levels costs O(D + L) mark shifts.
Outcomes and bits consumed are those of the bit-by-bit walk.

The draw reads the BitSource's buffer in place: v is one shift and mask of
its int, and consuming l bits is one store to its unread count.  A resolved
draw calls nothing but bisect_right, and the buffer is refilled only when
fewer than D bits are left, about once per 256 bits consumed.  A warm
draw takes 0.50 to 0.57 us on the benchmark's four distributions
(n = 40 to 1000, D = 18 to 27; CPython 3.11 on a shared 2-core host),
against 0.68 to 0.77 us with a peek and a skip method call per draw.

One identity reads the tree off the numerators.  Write p_i/q in binary
as d_0.d_1 d_2 ..., ending in zeros if it terminates, so d_0 = 1 only for
p_i = q.  For every L >= 0, floor(p_i 2^L / q) = sum_{l <= L} d_l 2^(L - l),
since the digits past L add less than one.  So for every L >= l, level
l's leaves are the outcomes whose floor(p_i 2^L / q) has bit L - l set.
The sampler builds level l at L = l: its leaves are the outcomes whose
floor(p_i 2^l / q) is odd, level 0 included.  analyze builds no level: it
reads levels 0 .. D at once off the floors at L = D, one per distinct
numerator, in O(distinct * log2 D) big-int steps.

The sampler holds one snapshot of the tree and nothing more: the marks
T_0 .. T_D, D, 2^D - 1 and levels 0 .. D, each level a list of references
into one list of outcome ints, shared by all draws.  A draw that must
build levels extends the snapshot it read and publishes the result by one
assignment; a published snapshot is never mutated.  Every snapshot is a
prefix of the one tree, so draws that race to build the same levels at
worst build them twice (a later publisher may even put back a shallower
snapshot), and no draw reads a torn state.  The tree grows to about
log2(draws) levels: after 20k draws at BitSource(1), beta_ne(40).x,
beta_ne(200).x, prime_block_ne(10).x and uniform(1000) are 18, 21, 20 and
27 levels deep, and their samplers hold 4.1, 13.6, 10.7 and 84 KB
(tracemalloc, 64-bit CPython 3.11).  Each mark is at most 2^D, since
sum_l c_l 2^-l <= 1.

Building level l costs n divisions of (l + log2 q)-bit numerators by q.
The remainder recurrence (r_i <- 2 r_i; emit i and subtract q when
r_i >= q) costs n shifts and subtractions of log2 q bits per level, but
holds n log2 q bits of remainders for the next level; the sampler keeps
no such state.  On the four distributions above, 28 levels take 0.22,
1.3, 0.84 and 3.1 ms, against 0.27, 1.2, 0.85 and 3.8 ms by remainders
(medians of 7 builds, same host).  The divisions cost more
only deep in a tree with wide numerators: for 50 outcomes over a
15,000-bit q, 64 levels take 15 ms against 4.8 ms by remainders, and 4096
levels 13 s against 0.25 s.  A walk reaches depth d with probability at
most n 2^-d, so only a contrived bit source (all ones, say) goes that
deep.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthTooLarge, SamplerStall
from .games import MixedStrategy

DEPTH_CAP = 4096
# largest n * depth that analyze accepts.  It bounds the report, not the
# arithmetic: each resolved entry is f/2^depth with f <= 2^depth, so it
# prints in at most about 0.6 depth characters (2,464 for each entry of
# uniform(1000) at depth 4096), and n * depth <= 2^26 keeps `nashrand
# analyze` to about 40 MB of output; uniform(200000) at depth 4096, which
# the cap refuses, would print about 0.5 GB.  The refusal counts n * depth
# in the remainder steps of the level-by-level loop analyze once ran (the
# unit and value are kept, as the messages state them).  At the cap,
# n = 16384 at depth 4096, analyze takes 1.2 ms on uniform(n) and 0.30 s or
# 0.42 s with random 64- or 300-bit numerators, and `nashrand analyze`
# about 1.6 s on the 300-bit ones, about half of it printing 16384 exact
# fractions (shared 2-core host)
ANALYZE_CAP = 1 << 26
WORDS = 256                                       # 32-bit outputs per refill
TOP_DIGIT = bytes(48 + (b >> 7) for b in range(256))  # byte -> ASCII digit of its top bit


class BitSource:
    """Deterministic seeded fair-bit stream, read as a cursor over the bits
    it has dealt.

    The bits are those of ``random.Random(seed).getrandbits(1)`` calls: the
    top bit of each 32-bit output, read WORDS outputs at a time from the
    little-endian bytes of ``getrandbits(32 * WORDS)``.  They wait in one
    int ``_buf`` whose low ``_len`` bits are unread, the next bit most
    significant; the bits above them are read and are dropped at the next
    refill.  So consuming k buffered bits is the one store ``_len -= k``:
    ``DdgSampler.sample`` reads and consumes the buffer in place, and
    ``bits_consumed`` is the bits dealt minus ``_len``, not a second count.
    """

    def __init__(self, seed: int):
        # random.Random seeds with abs(seed): -s would replay the stream of s
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._rng = random.Random(seed)
        self._buf = 0   # unread bits in the low _len, read ones above them
        self._len = 0
        self._dealt = 0

    @property
    def bits_consumed(self) -> int:
        """Bits consumed so far (read-only): those dealt minus the unread."""
        return self._dealt - self._len

    def _fill(self, k: int) -> None:
        """Drop the read bits and append refills until at least k are unread."""
        buf = self._buf & ((1 << self._len) - 1)
        while self._len < k:
            words = self._rng.getrandbits(32 * WORDS).to_bytes(4 * WORDS, "little")
            buf = buf << WORDS | int(words[3::4].translate(TOP_DIGIT), 2)
            self._len += WORDS
            self._dealt += WORDS
        self._buf = buf

    def peek(self, k: int) -> int:
        """The next k bits as an integer, first bit most significant; none consumed."""
        if self._len < k:
            self._fill(k)
        return self._buf >> (self._len - k) & ((1 << k) - 1)

    def skip(self, k: int) -> None:
        """Consume the next k bits."""
        if self._len < k:
            self._fill(k)
        self._len -= k


class DdgSampler:
    """Sampler for one canonical rational distribution, its tree built lazily."""

    def __init__(self, target: MixedStrategy):
        self.target = target
        self._outcomes = list(range(1, target.n + 1))  # ints shared by all levels
        root = self._level(0)
        # (marks T_0 .. T_D, D, 2^D - 1, levels 0 .. D); replaced, never mutated
        self._tree = ([len(root)], 0, 0, (root,))

    @property
    def n(self) -> int:
        return self.target.n

    def _level(self, l: int) -> list[int]:
        """Level l's leaves: the outcomes whose floor(p_i 2^l / q) is odd."""
        q, nums = self.target.denominator, self.target.numerators
        return [i for i, p in zip(self._outcomes, nums) if (p << l) // q & 1]

    def _deepen(self, bits: BitSource, tree: tuple) -> tuple:
        """``tree`` extended until the walk ``bits`` starts resolves, or to
        DEPTH_CAP levels if it does not resolve by then; published as the
        sampler's tree."""
        marks, depth, _, levels = tree
        s, added = marks[-1], []  # S_depth = T_depth
        while depth < DEPTH_CAP:
            depth += 1
            level = self._level(depth)
            levels += (level,)
            s = (s << 1) + len(level)
            added.append(s)
            if bits.peek(depth) < s:
                break
        k = len(added)  # one rescale: T_l = S_l 2^(depth - l)
        marks = [t << k for t in marks] + [t << (k - 1 - j) for j, t in enumerate(added)]
        self._tree = tree = (marks, depth, (1 << depth) - 1, levels)
        return tree

    def sample(self, bits: BitSource) -> int:
        """Draw one outcome (1-based), consuming bits until resolved."""
        tree = self._tree
        marks, depth, mask, levels = tree
        if levels[0]:
            return levels[0][0]
        while True:
            if bits._len < depth:
                bits._fill(depth)
            v = bits._buf >> (bits._len - depth) & mask  # the next depth bits
            level = bisect_right(marks, v)
            if level <= depth:
                bits._len -= level
                return levels[level][(v - marks[level - 1]) >> (depth - level)]
            if depth == DEPTH_CAP:
                bits.skip(DEPTH_CAP)
                raise SamplerStall(f"no resolution within {DEPTH_CAP} bits")
            marks, depth, mask, levels = tree = self._deepen(bits, tree)


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
    the cap ANALYZE_CAP.  That cap bounds the report: each resolved entry
    f_i / 2^D takes up to about 0.6 D decimal characters, so n * D bounds
    what a caller prints (about 40 MB at the cap).  Both refusals count
    n * D in remainder steps, n per level, the unit of the level-by-level
    loop analyze once ran; the unit, the cap and the messages are kept for
    compatibility.
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
