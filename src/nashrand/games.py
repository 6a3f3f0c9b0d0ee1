"""Games, mixed strategies, and the randomness-complexity measure.

A mixed strategy over n pure strategies is kept in the canonical shape
(p_1/q, ..., p_n/q): nonnegative integer numerators over one positive
denominator, with gcd(p_1, ..., p_n) = 1.  The denominator q of that
canonical shape is the strategy's complexity C -- the quantity this whole
library is about.  It equals the least common multiple of the reduced
coordinate denominators, so it is exactly the figure a numerator-array
sampler has to store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, NotADistribution
from .exact import IntMatrix


@dataclass(frozen=True)
class MixedStrategy:
    """Canonical rational distribution (p_1/q, ..., p_n/q)."""

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        if not self.numerators:
            raise NotADistribution("empty distribution")
        if self.denominator <= 0:
            raise NotADistribution("denominator must be positive")
        if any(p < 0 for p in self.numerators):
            raise NotADistribution("negative numerator")
        if sum(self.numerators) != self.denominator:
            raise NotADistribution("numerators must sum to the denominator")
        if math.gcd(*self.numerators) != 1:
            raise NotADistribution("numerators must have gcd 1")

    @property
    def n(self) -> int:
        return len(self.numerators)

    def support(self) -> tuple[int, ...]:
        """1-based indices played with positive probability."""
        return tuple(i + 1 for i, p in enumerate(self.numerators) if p > 0)


def canonicalize(raw: Sequence[int | Fraction]) -> MixedStrategy:
    """Reduce a distribution to its canonical numerators-over-q form."""
    probs = [Fraction(v) for v in raw]
    if any(p < 0 for p in probs):
        raise NotADistribution("negative probability")
    if sum(probs) != 1:
        raise NotADistribution(f"probabilities sum to {sum(probs)}, not 1")
    q = math.lcm(*(p.denominator for p in probs))
    nums = [int(p * q) for p in probs]
    g = math.gcd(*nums)
    return MixedStrategy(tuple(p // g for p in nums), q // g)


def pure(n: int, i: int) -> MixedStrategy:
    """Point mass on 1-based pure strategy i."""
    return MixedStrategy(tuple(1 if k == i - 1 else 0 for k in range(n)), 1)


def uniform(n: int) -> MixedStrategy:
    return MixedStrategy((1,) * n, n)


def complexity(x: MixedStrategy) -> int:
    """The canonical denominator q of the strategy."""
    return x.denominator


def storage_bits(x: MixedStrategy) -> int:
    """Total bits to store the numerator array; a zero still occupies a bit."""
    return sum(max(1, p.bit_length()) for p in x.numerators)


def entropy(x: MixedStrategy) -> float:
    """Shannon entropy in bits (the only floating-point quantity here)."""
    q = x.denominator
    return -sum(
        p / q * math.log2(p / q) for p in x.numerators if p > 0
    )


def capability_admissible(x: MixedStrategy, cap: int) -> bool:
    """Whether a player with randomness capability ``cap`` may play ``x``."""
    if cap < 1:
        raise ValueError("capability must be >= 1")
    return complexity(x) <= cap


@dataclass(frozen=True)
class Game:
    """Two-player game given by row-player payoffs A and column-player B."""

    A: IntMatrix
    B: IntMatrix
    family_tag: str | None = None
    constant_sum: int | None = None

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise DimensionMismatch("payoff matrices differ in size")
        if self.constant_sum is not None:
            u = self.constant_sum
            for ra, rb in zip(self.A.rows, self.B.rows):
                if any(a + b != u for a, b in zip(ra, rb)):
                    raise ValueError("constant_sum tag does not match payoffs")

    @property
    def n(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class Profile:
    """A mixed-strategy pair (row player x, column player y)."""

    x: MixedStrategy
    y: MixedStrategy

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise DimensionMismatch("profile strategies differ in size")

    @property
    def n(self) -> int:
        return self.x.n


def is_nash(game: Game, profile: Profile) -> bool:
    """Exact mutual best-response check.

    Only pure unilateral deviations need to be considered: every pure
    strategy in a player's support must attain the maximum payoff against
    the opponent's strategy.  Payoffs are compared scaled by the opponent's
    positive denominator, A q and p^T B on the integer numerators, so no
    rational arithmetic is needed.
    """
    if game.n != profile.n:
        raise DimensionMismatch("profile does not match game dimension")
    p = profile.x.numerators
    q = profile.y.numerators
    a_q = [sum(map(mul, row, q)) for row in game.A.rows]
    pt_b = [sum(map(mul, p, col)) for col in zip(*game.B.rows)]
    best_row = max(a_q)
    best_col = max(pt_b)
    for i in profile.x.support():
        if a_q[i - 1] != best_row:
            return False
    for j in profile.y.support():
        if pt_b[j - 1] != best_col:
            return False
    return True
