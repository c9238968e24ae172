"""Exception hierarchy shared by all cogrowth modules.

The CLI maps these onto process exit codes; see cli.EXIT_CODES.
"""


class CogrowthError(Exception):
    """Base class for all errors raised by this package."""


class WordParseError(CogrowthError):
    """A word or alphabet string could not be parsed; carries a column."""

    def __init__(self, message, column=None):
        super().__init__(message if column is None else f"{message} (column {column})")
        self.column = column


class PreconditionError(CogrowthError):
    """An operation was called on input violating its contract."""


class EmptyGeneratorError(PreconditionError):
    pass


class CyclicOrTrivialSubgroupError(PreconditionError):
    pass


class NoCutVertexError(CogrowthError):
    """The Whitehead graph has no cut vertex.

    This certifies (contrapositive of the cut-vertex theorem) that the
    subgroup is not a free factor.  Otherwise the first cut vertex always
    gives a collapse (see the whitehead module).
    """


class FoldingViolationError(CogrowthError):
    """An edge contraction would produce a label clash."""


class DeterminismViolationError(CogrowthError):
    """A transition collapse would doubly define delta(state, letter)."""


class DecompositionViolationError(CogrowthError):
    """The block structure of the matrix under the NSE is not as guaranteed."""


class EntryOverflowError(CogrowthError):
    """A row transformation produced a matrix entry above 1."""


class NonIntegerCensusError(CogrowthError):
    """Path counts were not divisible by the ambiguity degree."""


class NumericalError(CogrowthError):
    pass


class ConvergenceFailureError(NumericalError):
    pass


class CertificateFailureError(NumericalError):
    """The inequality certificate could not be validated; the message
    names the row, if one failed."""
