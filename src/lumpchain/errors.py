"""Exception hierarchy for lumpchain.

Validation errors cover malformed inputs (matrices, distributions, lumping
maps, model files). Analysis errors cover well-formed inputs that an
operation cannot handle (reducible chains, work beyond a size budget). The
CLI maps the two groups to exit codes 1 and 2.
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


class NotADistribution(ValidationError):
    """Vector or joint matrix is not a probability distribution."""


class UnknownState(ValidationError):
    """State label not present in the chain."""


class UnknownBlock(ValidationError):
    """Block label not present in the lumping."""


class BadStartVector(ValidationError):
    """Start distribution for sampling is malformed."""


class EmptyPattern(ValidationError):
    """Pattern for traversal statistics is empty."""


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


class NotAperiodic(AnalysisError):
    """Chain is periodic."""


class NoConvergence(AnalysisError):
    """Iterative solver exhausted its budget."""


class StateSpaceTooLarge(AnalysisError):
    """Lifted or enumerated state space exceeds the configured cap."""


class HorizonTooLarge(AnalysisError):
    """Requested horizon or block count exceeds the block-word lattice budget,
    a word exceeds its length cap, or the SFS pair tables exceed their cell
    budget; the message names the predicted size."""


class PreconditionViolated(AnalysisError):
    """Operation called outside its guaranteed regime."""


class ZeroMassUpdate(AnalysisError):
    """Belief filter drew an observation of numerically zero mass."""
