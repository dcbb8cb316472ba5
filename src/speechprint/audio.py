"""WAV decoding, resampling and slicing.

All downstream processing works on :class:`AudioBuffer`: mono float64
samples in [-1, 1] plus a sample rate. Telephony sources arrive at a mix
of rates, so callers normalise to :data:`CANONICAL_RATE` (8000 Hz)
before fingerprinting; :func:`decode_canonical` does both steps. Files
and streams share one :class:`Resampler`: :func:`resample` feeds it a
whole buffer at once, a streaming session feeds it samples as they
arrive, and both get the same bits.

Samples that fall outside [-1, 1] (float WAV input, resampler overshoot,
additive noise) are clipped; every clip increments a module-level counter
and logs one warning so bulk jobs can audit how much clipping happened.
"""

import logging
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import ConfigError, DecodeError, RangeError, UnsupportedFormat, require_int

logger = logging.getLogger(__name__)

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
#: format code -> (name, the one bit depth decoded)
_SAMPLE_FORMATS = {_WAVE_FORMAT_PCM: ("PCM", 16), _WAVE_FORMAT_IEEE_FLOAT: ("float", 32)}

_PCM16_SCALE = 32768.0


class ClipStats:
    """Counter of samples clipped into [-1, 1] across the process."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int, context: str) -> None:
        if n:
            self.count += n
            logger.warning("clipped %d samples to [-1, 1] (%s)", n, context)

    def reset(self) -> None:
        self.count = 0


clip_stats = ClipStats()


def _clip_unit(samples: np.ndarray, context: str) -> np.ndarray:
    """Clips to [-1, 1], recording how many samples were touched."""
    n_out = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    if n_out:
        samples = np.clip(samples, -1.0, 1.0)
        clip_stats.add(n_out, context)
    return samples


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Immutable mono audio: float64 samples in [-1, 1] plus a rate, held
    as a positive ``int``; a bool or a non-integer rate raises ConfigError."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        rate = require_int(self.sample_rate, "sample_rate")
        if rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {rate}")
        object.__setattr__(self, "sample_rate", rate)
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ConfigError("AudioBuffer samples must be 1-D (mono)")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("AudioBuffer samples must be finite")
        if samples is self.samples or samples.flags.writeable:
            samples = samples.copy() if samples is self.samples else samples
            samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_seconds(self) -> float:
        return self.samples.shape[0] / self.sample_rate

    def __repr__(self) -> str:  # keep reprs short in logs
        return (
            f"AudioBuffer(n={len(self)}, rate={self.sample_rate}, "
            f"dur={self.duration_seconds:.3f}s)"
        )


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _parse_fmt_chunk(body: bytes) -> tuple[int, int, int, int]:
    """Returns (format_code, channels, sample_rate, bits_per_sample).

    Both decoders parse the fmt chunk here, so a header neither can decode
    fails the same way in each, before any sample is read.

    Raises:
        DecodeError: a chunk under 16 bytes, or a sample rate of 0.
        UnsupportedFormat: a channel count other than 1 or 2, a format
            code and bit depth other than 16-bit PCM and 32-bit float, or
            a sample rate whose ratio to :data:`CANONICAL_RATE` in lowest
            terms has a term above :data:`MAX_RATE_TERM`.
    """
    if len(body) < 16:
        raise DecodeError("fmt chunk too small")
    format_code, channels, rate, _byte_rate, _block_align, bits = struct.unpack(
        "<HHIIHH", body[:16]
    )
    if rate == 0:
        raise DecodeError("invalid sample rate in fmt chunk")
    # the canonical rate's own term is at most 8000
    if rate // gcd(rate, CANONICAL_RATE) > MAX_RATE_TERM:
        raise UnsupportedFormat(
            f"unsupported sample rate {rate} Hz: its ratio to {CANONICAL_RATE} Hz "
            f"has a term above {MAX_RATE_TERM}"
        )
    if channels not in (1, 2):
        raise UnsupportedFormat(f"unsupported channel count {channels}")
    if format_code not in _SAMPLE_FORMATS:
        raise UnsupportedFormat(f"unsupported WAV format code 0x{format_code:04x}")
    name, depth = _SAMPLE_FORMATS[format_code]
    if bits != depth:
        raise UnsupportedFormat(f"unsupported {name} bit depth {bits}")
    return format_code, channels, rate, bits


def _samples_from_raw(
    raw: bytes, fmt: tuple[int, int, int, int]
) -> tuple[np.ndarray, bytes]:
    """Mono samples of raw's whole frames, and the bytes of a partial one.

    ``fmt`` is what _parse_fmt_chunk returns.
    """
    format_code, channels, _rate, bits = fmt
    usable = len(raw) - (len(raw) % (channels * bits // 8))
    if format_code == _WAVE_FORMAT_PCM:
        data = np.frombuffer(raw[:usable], dtype="<i2").astype(np.float64)
        samples = data / _PCM16_SCALE
    else:
        samples = np.frombuffer(raw[:usable], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise DecodeError("float WAV contains non-finite samples")
        samples = _clip_unit(samples, "float wav decode")
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples, raw[usable:]


#: Most bytes a WAV file may hold before its data chunk's body. Both
#: decoders reject a longer header, so a stream cannot make the server
#: buffer an unbounded header, and a file is read alike either way.
_MAX_HEADER_BYTES = 1 << 24


def _walk_header(data: bytes) -> tuple[tuple[int, int, int, int], int, int] | int:
    """Reads a WAV header's chunks up to its first data chunk.

    Both decoders read chunk headers here only, so they agree on what a
    file holds: fmt must come before data, the first data chunk is the
    audio, its body starts within the first :data:`_MAX_HEADER_BYTES`
    bytes, and nothing after it is read. Returns the parsed fmt chunk and
    the data body's offset and declared size or, when ``data`` ends
    before that body starts, the length ``data`` must reach before
    another walk can get further. Raises DecodeError for a non-RIFF
    input, a data chunk before fmt or a header over the cap, and what
    _parse_fmt_chunk raises for its chunk.
    """
    if len(data) < 12:
        return 12
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DecodeError("not a RIFF/WAVE file")
    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if chunk_id == b"data":
            if fmt is None:
                raise DecodeError("data chunk before fmt chunk")
            return fmt, body, size
        end = body + size
        if end + (size & 1) + 8 > _MAX_HEADER_BYTES:
            raise DecodeError(
                f"more than {_MAX_HEADER_BYTES} bytes before the data chunk"
            )
        if end > len(data):
            return end
        if chunk_id == b"fmt ":
            fmt = _parse_fmt_chunk(data[body:end])
        pos = end + (size & 1)  # chunks are word aligned
    return pos + 8


def decode_wav(data: bytes) -> AudioBuffer:
    """Decodes a RIFF/WAVE byte string into a mono :class:`AudioBuffer`.

    Accepts 16-bit PCM and 32-bit IEEE float, 1 or 2 channels. Stereo is
    downmixed by averaging. 16-bit values are scaled by 1/32768 so the
    most negative code maps exactly to -1.0. The audio is the first data
    chunk, which must follow the fmt chunk; chunks after it are ignored.

    Unlike :class:`WavStreamDecoder`, which cannot tell a short stream
    from one still arriving and decodes whatever data arrives, a whole
    file whose data chunk is shorter than its declared size is an error.

    Raises:
        DecodeError: malformed or truncated container.
        UnsupportedFormat: valid container, unsupported encoding.
    """
    header = _walk_header(data)
    if isinstance(header, int):
        raise DecodeError("WAV header ends before a data chunk")
    fmt, start, size = header
    raw = data[start : start + size]
    if len(raw) < size:
        raise DecodeError("truncated data chunk")
    samples, _partial_frame = _samples_from_raw(raw, fmt)
    return AudioBuffer(samples, fmt[2])


def decode_canonical(data: bytes) -> AudioBuffer:
    """Decodes whole WAV bytes and resamples them to :data:`CANONICAL_RATE`."""
    return resample(decode_wav(data), CANONICAL_RATE)


class WavStreamDecoder:
    """Incremental RIFF/WAVE decoder for chunked byte streams.

    Buffers until the data chunk's header has arrived, then converts
    every complete frame as it arrives, up to the data chunk's declared
    size. It walks the header as :func:`decode_wav` does, so both decode
    the same samples from the same bytes or raise the same error, except
    for a data chunk cut short (see :func:`decode_wav`).
    """

    def __init__(self) -> None:
        self._header = bytearray()
        self._header_need = 0  # buffered bytes the next header walk needs
        self._fmt: tuple[int, int, int, int] | None = None
        self._tail = b""
        self._data_left = 0  # bytes of the data chunk not yet seen

    @property
    def sample_rate(self) -> int | None:
        return self._fmt[2] if self._fmt else None

    def feed(self, chunk: bytes) -> np.ndarray:
        """Returns the samples completed by this chunk (may be empty).

        Raises DecodeError or UnsupportedFormat for a header that
        decode_wav rejects, as soon as the offending chunk has arrived.
        The header is walked again only once the bytes the last walk
        stopped short of have arrived, so a long one costs linear time.
        """
        if self._fmt is not None:
            return self._convert(chunk)
        self._header += chunk
        if len(self._header) < self._header_need:
            return np.empty(0)
        header = _walk_header(self._header)
        if isinstance(header, int):
            self._header_need = header
            return np.empty(0)
        self._fmt, start, self._data_left = header
        buf, self._header = self._header, bytearray()
        return self._convert(buf[start:])

    def _convert(self, raw: bytes) -> np.ndarray:
        raw = raw[: self._data_left]
        self._data_left -= len(raw)
        samples, self._tail = _samples_from_raw(self._tail + raw, self._fmt)
        return samples


def encode_wav(audio: AudioBuffer, bit_depth: int = 16) -> bytes:
    """Encodes to RIFF/WAVE bytes (mono, 16-bit PCM or 32-bit float).

    The 16-bit path is the exact inverse of :func:`decode_wav` for values
    that a 16-bit file can represent: decode(encode(x)) == x sample for
    sample when x came from a 16-bit file.
    """
    if bit_depth == 16:
        scaled = np.round(audio.samples * _PCM16_SCALE)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        format_code, bits = _WAVE_FORMAT_PCM, 16
    elif bit_depth == 32:
        payload = audio.samples.astype("<f4").tobytes()
        format_code, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
    else:
        raise ConfigError(f"bit_depth must be 16 or 32, got {bit_depth}")
    byte_rate = audio.sample_rate * bits // 8
    fmt = struct.pack(
        "<HHIIHH", format_code, 1, audio.sample_rate, byte_rate, bits // 8, bits
    )
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def dump_raw(audio: AudioBuffer) -> bytes:
    """Raw little-endian float32 samples, for debugging dumps."""
    return audio.samples.astype("<f4").tobytes()


#: The rate every fingerprint and index is made at: telephony's 8 kHz.
CANONICAL_RATE = 8000
#: Largest term of a resampling ratio in lowest terms; its filter has 20
#: taps per unit of the larger term. A WAV rate past it is refused (every
#: rate up to 10 kHz and the usual ones up to 192 kHz pass, largest term
#: 441), and :func:`~speechprint.degrade.change_rate` rounds within it.
MAX_RATE_TERM = 10000


@lru_cache(maxsize=8)
def _rate_filter(up: int, down: int) -> np.ndarray:
    """The Kaiser low-pass ``resample_poly`` designs for ``up``/``down``.

    At the factors in the thousands that a few-percent clock drift gives,
    its design takes milliseconds, so a repeated ratio reuses it.
    """
    from scipy.signal import firwin

    n = max(up, down)
    taps = firwin(20 * n + 1, 1.0 / n, window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


class Resampler:
    """Polyphase resampling by ``up``/``down`` of a file or a stream.

    :meth:`feed` takes input in pieces of any size and returns each output
    whose filter taps have all arrived; :meth:`finish` takes the last
    piece and returns the rest. However the input is split, the outputs
    are scipy's ``resample_poly(x, up, down, window=_rate_filter(up,
    down))`` bit for bit, cut or zero-padded to the length given to
    :meth:`finish` and clipped to [-1, 1] (``context`` names the step in
    the clip log): each ``upfirdn`` call starts at a multiple of ``down``
    input samples, so each output is the same sum over the same taps in
    the same order. A stream's last ``len(taps) / up`` or so input
    samples wait for the next feed or the end. Equal factors copy; only
    unequal ones import scipy, whose import costs more than the rest of
    the package's.
    """

    def __init__(self, up: int, down: int, context: str) -> None:
        g = gcd(up, down)
        self.up, self.down = up // g, down // g
        self._context = context
        self._n_in = 0  # input samples taken
        self._n_out = 0  # output samples returned
        self._start = 0  # input index of _buffer[0], a multiple of down
        self._buffer = np.empty(0)
        self._delay, self._reach = 0, 1  # a copy's
        if self.up != self.down:
            taps = _rate_filter(self.up, self.down)
            # resample_poly's padding: output 0 is the filter's centre tap
            half_len = (len(taps) - 1) // 2
            pre_pad = self.down - half_len % self.down
            self._taps = np.concatenate((np.zeros(pre_pad), taps * self.up))
            self._delay = (half_len + pre_pad) // self.down
            self._reach = -(-len(self._taps) // self.up)  # input samples per sum

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Takes more input; returns the outputs it completed."""
        self._take(samples)
        # output j reads input up to (j + delay) * down // up
        return self._emit((self._n_in * self.up - 1) // self.down + 1 - self._delay)

    def finish(self, n_out: int, samples: np.ndarray = ()) -> np.ndarray:
        """Takes the last input; returns the rest of an ``n_out``-sample output."""
        self._take(samples)
        # resample_poly's own length is ceil(n_in * up / down); zeros follow
        out = self._emit(min(n_out, -(-self._n_in * self.up // self.down)))
        pad = max(0, n_out - self._n_out)
        self._n_out += pad
        return np.pad(out, (0, pad))

    def _take(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.float64)
        self._n_in += samples.size
        self._buffer = np.concatenate((self._buffer, samples))

    def _emit(self, stop: int) -> np.ndarray:
        """Outputs from the next one up to ``stop``, clipped."""
        if stop <= self._n_out:
            return np.empty(0)
        # output m of _buffer is the stream's output m + start * up / down,
        # before the delay is trimmed
        first = self._n_out + self._delay - self._start // self.down * self.up
        out = self._buffer
        if self.up != self.down:
            from scipy.signal import upfirdn

            out = upfirdn(self._taps, self._buffer, self.up, self.down)
        out = out[first : first + stop - self._n_out]
        self._n_out += out.size
        # keep the input the next output's sum starts at, from a multiple of down
        oldest = ((self._n_out + self._delay) * self.down) // self.up - self._reach + 1
        keep = max(self._start, oldest // self.down * self.down)
        self._buffer = self._buffer[keep - self._start :]
        self._start = keep
        return _clip_unit(out, self._context)


def resampled_length(n_samples: int, source_rate: int, target_rate: int) -> int:
    """round(n_samples * target_rate / source_rate), rounding half up."""
    return (2 * n_samples * target_rate + source_rate) // (2 * source_rate)


def resample(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited resampling to ``target_rate``.

    Passes the whole input to one :class:`Resampler` at the rational rate
    ratio (a Kaiser-windowed sinc) and fixes the length to
    :func:`resampled_length`, so durations stay predictable. Equal rates
    return the input unchanged.
    """
    if target_rate <= 0:
        raise ConfigError(f"target_rate must be positive, got {target_rate}")
    if target_rate == audio.sample_rate:
        return audio
    resampler = Resampler(target_rate, audio.sample_rate, "resample")
    n_out = resampled_length(len(audio), audio.sample_rate, target_rate)
    return AudioBuffer(resampler.finish(n_out, audio.samples), target_rate)


def slice_seconds(audio: AudioBuffer, start_s: float, duration_s: float) -> AudioBuffer:
    """Cuts [start_s, start_s + duration_s) out of the buffer.

    Boundaries are converted to sample counts with half-up rounding.

    Raises:
        RangeError: the window is not fully inside the buffer.
    """
    if not 0 < duration_s < np.inf:
        raise RangeError(f"duration_s must be positive and finite, got {duration_s}")
    if not 0 <= start_s < np.inf:
        raise RangeError(f"start_s must be non-negative and finite, got {start_s}")
    start = _round_half_up(start_s * audio.sample_rate)
    count = _round_half_up(duration_s * audio.sample_rate)
    if start + count > len(audio):
        raise RangeError(
            f"slice [{start_s:.6g}, {start_s + duration_s:.6g})s exceeds "
            f"{audio.duration_seconds:.6g}s buffer"
        )
    return AudioBuffer(audio.samples[start : start + count], audio.sample_rate)
