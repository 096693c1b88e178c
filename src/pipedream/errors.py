"""Exception types shared across the package, and the ids of the named checks."""


class PipedreamError(Exception):
    """Base class for all errors raised by this package."""


class NotAPermutation(PipedreamError):
    """The input word is not a bijection of 1..n."""


class GridError(PipedreamError):
    """A tile grid violates the pipe-network invariants."""


class BrokenStrand(GridError):
    """Adjacent tiles disagree about a shared edge, or a tile is unusable.

    ``cell`` is the offending 1-based (row, column) position.
    """

    def __init__(self, cell, message=""):
        self.cell = cell
        super().__init__(f"broken strand at {cell}" + (f": {message}" if message else ""))


class BoundaryLeak(GridError):
    """A strand escapes through the north or west boundary.

    ``edge`` names the offending boundary edge as ("N"|"W", index).
    """

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"strand leaks through boundary edge {edge}")


class NotBijective(GridError):
    """The grid does not carry one strand per column and per row."""


class InconsistentAsm(PipedreamError):
    """Matrix entries violate the alternating-sign constraints."""


class NegativeExponent(PipedreamError):
    """A weight was requested with a reference length exceeding the blank count."""


class WitnessNotFound(PipedreamError):
    """A guaranteed pattern occurrence could not be located (falsifies a check)."""


class GuardExceeded(PipedreamError):
    """A computation was requested beyond the configured size guard."""


class UnknownCheck(PipedreamError):
    """No verification check is registered under the requested identifier."""


# the ids of ``checks._CHECKS`` in run order, here so the parser need not load it
CHECK_IDS = ("upper-bound", "thm-1243", "vexillary-K", "nonreduced-pattern",
             "bijection-roundtrip", "reduced-restriction", "weight-preservation",
             "groth-1243-2143", "conj-gao", "conj-groth", "skew", "pattern-sum",
             "stanley", "bk-order")


class NotMinimal(PipedreamError):
    """The grid still has removable pipes where a minimal one is required."""


class CheckFailed(PipedreamError):
    """An invariant asserted inside an operation did not hold."""


class SubwordMismatch(PipedreamError):
    """The subword, host permutation, and image grid do not fit together."""
