"""Exception types shared across the library and the command-line front end."""


class NashrandError(Exception):
    """Base class for all library errors."""


class SingularMatrix(NashrandError):
    """A matrix has determinant zero.

    No library function raises it: every exact solve reports a singular
    system as a zero determinant.  It stays exported for callers that catch
    it, such as the ``fully_mixed_ne`` screen in ``perfbench``.
    """


class NotADistribution(NashrandError):
    """Input is not a probability distribution (negative entry or sum != 1)."""


class DimensionTooLarge(NashrandError):
    """A dimension exceeds a configured limit (enumeration, recurrence table)."""


class DepthTooLarge(NashrandError):
    """Analysis depth exceeds the sampler's hard depth cap, or n * depth
    the analysis work cap."""


class NoEquilibriumFound(NashrandError):
    """Enumeration finished without equilibria.

    Only equal-size supports are searched, so this happens on degenerate
    games whose equilibria all have unequal supports.  Every such empty
    report seen so far carries the degeneracy flag, but that is not proved.
    """


class UnsupportedDimension(NashrandError):
    """Family generator called outside its valid dimension range."""


class HypothesisViolation(NashrandError):
    """A construction's precondition fails (zero determinant, bad shape...)."""


class HasPureNE(NashrandError):
    """2x2 closed form does not apply: the game has a pure equilibrium.

    Both minimal complexities are 1 in that case; the values are carried in
    the ``complexities`` attribute for callers that want them.
    """

    def __init__(self, message: str = "game has a pure equilibrium"):
        super().__init__(message)
        self.complexities = (1, 1)


class SamplerStall(NashrandError):
    """Sampling walk exceeded the hard depth cap (implementation bug guard)."""


class ParseError(NashrandError):
    """Malformed input file; the message names the offending field."""


class DimensionMismatch(NashrandError):
    """Profile and game dimensions disagree."""
