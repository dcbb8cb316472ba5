"""Exceptions shared by all speechprint modules, and the integer check."""

import numbers


class SpeechprintError(Exception):
    """Base class for everything raised on purpose by this package."""


class DecodeError(SpeechprintError):
    """Audio bytes could not be parsed (malformed or truncated container)."""


class UnsupportedFormat(DecodeError):
    """Audio container parsed fine but uses an encoding we do not handle."""


class ConfigError(SpeechprintError):
    """A configuration value violates its documented constraints."""


class RangeError(SpeechprintError):
    """A requested slice or interval falls outside the available data."""


class TooShort(SpeechprintError):
    """The audio is shorter than the minimum the operation requires."""


class SilentSignal(SpeechprintError):
    """The operation needs a non-silent signal (e.g. SNR scaling)."""


class DuplicateId(SpeechprintError):
    """An id is already present where uniqueness is required."""


class IncompatibleIndex(SpeechprintError):
    """Index or fingerprint built under a different configuration."""


class CorruptIndex(SpeechprintError):
    """A persisted artifact failed structural or checksum validation."""


class NotFound(SpeechprintError):
    """A referenced id does not exist in the registry."""


class IoError(SpeechprintError):
    """Filesystem access failed for a path the caller supplied."""


def require_int(value, what: str, bits: int | None = None) -> int:
    """``value`` as an ``int``, in [0, 2^bits) given ``bits``; ConfigError
    for a bool or a non-integer, which no stored id or header field holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if bits is not None and not 0 <= value < 1 << bits:
        raise ConfigError(f"{what} {value} is outside [0, 2^{bits})")
    return value
