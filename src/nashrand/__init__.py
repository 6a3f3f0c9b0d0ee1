"""Exact Nash equilibria and the randomness complexity of mixed strategies.

The library is organized around one number: the canonical denominator q of
a rational mixed strategy, which measures the storage a player needs to
sample that strategy exactly.  It provides exact integer/rational linear
algebra, support enumeration for bimatrix games, game families whose unique
equilibria have extreme denominators, and a bit-exact sampler.
"""

from .errors import (
    DepthTooLarge,
    DimensionMismatch,
    DimensionTooLarge,
    HasPureNE,
    HypothesisViolation,
    NashrandError,
    NoEquilibriumFound,
    NotADistribution,
    ParseError,
    SamplerStall,
    SingularMatrix,
    SymmetryViolation,
    UnknownFamily,
    UnsupportedDimension,
)
from .exact import IntMatrix, cofactor_sum, det
from .families import (
    AsymptoticReport,
    Permutation,
    RecurrenceConstants,
    RecurrenceTable,
    asymptotic_checks,
    banded_matrix,
    beta_game,
    beta_matrix,
    beta_ne,
    block_matrix,
    constant_sum_beta,
    constant_sum_prime_block,
    constant_sum_transform,
    first_primes,
    is_symmetric_under,
    pad_game,
    permutation_game,
    prime_block_game,
    prime_block_ne,
    prime_block_symmetry,
    recurrence_constants,
    recurrence_table,
    two_by_two_complexities,
)
from .games import (
    Game,
    MixedStrategy,
    Profile,
    canonicalize,
    capability_admissible,
    complexity,
    entropy,
    is_nash,
    pure,
    storage_bits,
    uniform,
)
from .sampling import AnalyzeReport, BitSource, DdgSampler, analyze
from .solving import (
    SolveReport,
    bounded_ne_exists,
    complexity_upper_bound,
    fully_mixed_ne,
    min_complexities,
    pure_nash,
    support_enumeration,
)

__version__ = "0.1.0"
