"""Exception types shared across the toolkit."""


class CycleCertError(Exception):
    """Base class for all toolkit errors."""


class InputError(CycleCertError):
    """Malformed input: bad dimensions, unknown system id, invalid config."""


class NumericError(CycleCertError):
    """Non-finite value produced where a finite one is required."""


class DivergedError(NumericError):
    """Simulation produced a non-finite state.

    Attributes
    ----------
    first_bad_index : int
        Index of the first node that is not finite.
    reason : str
        What made it so, without the index: ``"non-finite state"``,
        ``"state overflowed"`` or the repr of the error the right-hand side
        raised.
    """

    def __init__(self, msg, first_bad_index, reason):
        super().__init__(msg)
        self.first_bad_index = first_bad_index
        self.reason = reason


class EquilibriumProximityError(CycleCertError):
    """|f(x)| fell below the floor; the transverse split is undefined there."""


class TransversalityLossError(CycleCertError):
    """The moving-section phase rate lost its sign (degenerate denominator)."""


class InvalidReparametrizationError(CycleCertError):
    """Phase-rate lower bound a <= 0: step too large or tube too fat."""


class SynchronizationLostError(CycleCertError):
    """No bracketing root for the synchronized time within the search window."""

    def __init__(self, msg, sample_index):
        super().__init__(msg)
        self.sample_index = sample_index


class CertificateBlockedError(CycleCertError):
    """A sub-computation failed in a way that prevents any verdict."""
