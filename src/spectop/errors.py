"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SpectopError(Exception):
    """Base class for every error raised deliberately by this package."""


class UnsupportedForPresentation(SpectopError):
    """The requested operation is not defined for this ring presentation."""


class EmptyProduct(SpectopError):
    """A direct product needs at least one factor."""


class RingTooLarge(SpectopError):
    """A finite ring has more elements than its presentations admit, or an
    integer is too large for its primality to be decided."""


class SpectrumTooLarge(SpectopError):
    """Topology families are materialized only for small spectra."""


class NotZariskiClosed(SpectopError):
    """The given point set is not closed in the Zariski topology."""


class NotGenStable(SpectopError):
    """The given point set is not stable under generalization."""


class InvalidChain(SpectopError):
    """A multiplicative chain is not ascending: some f_n differs from
    f_n * f_{n+1}.

    ``index`` is the 1-based position of the first offending pair.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class HypothesisViolated(SpectopError):
    """A covering hypothesis failed; ``witness`` is the uncovered maximal point."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotPrime(SpectopError):
    """An integer that had to be prime is not; ``factor`` divides it, or is
    None when n < 2 or no factor up to the search ``bound`` exists."""

    def __init__(self, n: int, factor: int | None, bound: int | None = None):
        reason = ("primes are at least 2" if n < 2
                  else f"divisible by {factor}" if factor is not None
                  else f"it has no factor up to {bound}")
        super().__init__(f"{n} is not prime ({reason})")
        self.n = n
        self.factor = factor


class NotPrimePower(SpectopError):
    """A Galois field size must be a prime power."""


class ParseError(SpectopError):
    """Text input rejected; carries the 0-based ``position`` and the expected tokens."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"at position {position}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class CorpusError(SpectopError):
    """A corpus document is malformed; ``index`` locates the offending entry."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"entry {index}: {message}"
        super().__init__(message)
        self.index = index
