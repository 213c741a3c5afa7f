"""Exception hierarchy for lumpchain.

Validation errors cover malformed inputs (matrices, lumping maps, patterns,
model files). Analysis errors cover well-formed inputs that an operation
cannot handle (reducible chains, work beyond a size budget). The CLI maps
the two groups to exit codes 1 and 2.
"""


class LumpchainError(Exception):
    """Base class for all lumpchain errors."""


class ValidationError(LumpchainError):
    """Malformed input value."""


class DimensionMismatch(ValidationError):
    """Matrix or vector dimensions do not line up with the state set."""


class NegativeEntry(ValidationError):
    """Probability entry below zero."""


class NonStochasticRow(ValidationError):
    """Transition row does not sum to one within tolerance."""


class UnknownState(ValidationError):
    """State label not present in the chain."""


class UnknownBlock(ValidationError):
    """Block label not present in the lumping."""


class EmptyPattern(ValidationError):
    """Pattern for occurrence statistics is empty."""


class UnrealisablePattern(ValidationError):
    """Pattern has zero path probability and cannot be observed."""


class KTooSmall(ValidationError):
    """Order parameter below the smallest meaningful value."""


class TrivialLumping(ValidationError):
    """Lumping has fewer than two blocks or is injective (override required)."""


class ParseError(ValidationError):
    """Model file could not be parsed."""


class AnalysisError(LumpchainError):
    """Well-formed input that an analysis operation rejects."""


class NotIrreducible(AnalysisError):
    """Transition graph is not strongly connected."""


class NoConvergence(AnalysisError):
    """Stationary solve failed or left a residual above tolerance."""


class HorizonTooLarge(AnalysisError):
    """A block-word pass exceeds its cell budget, word ids exceed 64 bits,
    the SFS pair tables exceed their cell budget, the loss bound's minimal
    block words their step budget, or a seeded draw (filter steps, sampled
    length) the float64 cells numpy can address; the message names the size."""


class ZeroMassUpdate(AnalysisError):
    """Belief filter drew an observation of numerically zero mass."""
