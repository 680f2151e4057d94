"""Exception hierarchy shared across the package."""


class NoisepadError(Exception):
    """Base class for all protocol and transport errors."""


class ProtocolError(NoisepadError):
    """Session-level contract violation (bad lengths, unexpected frames, ...)."""


class OneTimeViolationError(ProtocolError):
    """Key material was offered as basis material more than once."""


class ReconciliationError(ProtocolError):
    """Residual key mismatch survived reconciliation."""


class KeyExhaustedError(ProtocolError):
    """Not enough key material left; a fresh shared seed is required."""


class ConfirmMismatchError(ProtocolError):
    """Peers' session confirmation tags disagree."""


class HandshakeError(ProtocolError):
    """Peer rejected the proposed session parameters."""


class ChannelError(NoisepadError):
    """Underlying byte channel failed (closed, timed out, ...)."""


class FrameError(NoisepadError):
    """Malformed wire frame."""


class BadMagicError(FrameError):
    pass


class BadVersionError(FrameError):
    pass


class TruncatedFrameError(FrameError):
    pass


class OversizeFrameError(FrameError):
    pass
