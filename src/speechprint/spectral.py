"""Spectral images: STFT magnitudes reduced to a narrow analysis band.

Speech identity lives mostly in the low end, so instead of the classic
wide-band fingerprinting layout we render one of three images:

* ``linear-vocal``: raw magnitude bins between 100 and 350 Hz.
* ``mel-vocal``: 40 mel-spaced triangular filters over 100-350 Hz.
* ``mel-wide``: 40 mel-spaced filters over 300-2000 Hz.

All variants share the same framing (Hann window, 100 ms default window,
configurable stride) and the same log compression log1p(1000 * x), which
keeps quiet harmonics visible without letting the floor dominate.

An image is computed at an analysis rate: the input rate divided by a
power of two, as far as the band and the frame grid allow (see
:class:`FrameTransform`). At 8 kHz the vocal variants read a 2 kHz copy
of the signal, made by one :class:`Decimator`, and take a 256-point FFT
per frame instead of a 1024-point one; the frames, the bin spacing and
the image's shape are the same as at the input rate.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, TooShort

LOG_GAIN = 1000.0
VOCAL_BAND = (100.0, 350.0)
WIDE_BAND = (300.0, 2000.0)
N_MEL_BINS = 40


class Variant(str, Enum):
    """Which band/axis layout the spectral image uses."""

    LINEAR_VOCAL = "linear-vocal"
    MEL_VOCAL = "mel-vocal"
    MEL_WIDE = "mel-wide"


_VARIANT_BANDS = {
    Variant.LINEAR_VOCAL: VOCAL_BAND,
    Variant.MEL_VOCAL: VOCAL_BAND,
    Variant.MEL_WIDE: WIDE_BAND,
}


@dataclass(frozen=True)
class SpectralConfig:
    """Framing plus band layout for one image variant.

    Only the window and stride are chosen; the band edges and the mel bin
    count are properties of the variant.
    """

    variant: Variant
    window_s: float = 0.1
    stride_s: float = 0.025

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        if not 0 < self.stride_s < np.inf:
            raise ConfigError(
                f"stride_s must be positive and finite, got {self.stride_s}"
            )
        if not self.stride_s <= self.window_s < np.inf:
            raise ConfigError(
                f"window_s ({self.window_s}) must be finite and "
                f">= stride_s ({self.stride_s})"
            )

    @property
    def f_min(self) -> float:
        return _VARIANT_BANDS[self.variant][0]

    @property
    def f_max(self) -> float:
        return _VARIANT_BANDS[self.variant][1]

    @property
    def n_bins(self) -> int | None:
        """Mel bins, or None for linear-vocal, whose FFT sets its bin count."""
        return None if self.variant is Variant.LINEAR_VOCAL else N_MEL_BINS

    @classmethod
    def for_variant(
        cls, variant: Variant | str, window_s: float = 0.1, stride_s: float = 0.025
    ) -> "SpectralConfig":
        return cls(Variant(variant), window_s=window_s, stride_s=stride_s)


@dataclass(frozen=True, eq=False)
class SpectralImage:
    """Log-compressed band-limited spectrogram: [n_bins, n_frames]."""

    data: np.ndarray
    config: SpectralConfig

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ConfigError("SpectralImage data must be 2-D")
        if not np.all(np.isfinite(data)) or np.any(data < 0):
            raise ConfigError("SpectralImage values must be finite and >= 0")
        object.__setattr__(self, "data", data)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    """Mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def frame_params(sample_rate: int, window_s: float, stride_s: float) -> tuple[int, int, int]:
    """Window length, hop length and FFT size in samples.

    FFT size is the next power of two at or above the window length.
    """
    window = int(np.floor(window_s * sample_rate + 0.5))
    hop = int(np.floor(stride_s * sample_rate + 0.5))
    if window < 2 or hop < 1:
        raise ConfigError(
            f"window/stride too small at {sample_rate} Hz "
            f"({window_s}s window, {stride_s}s stride)"
        )
    n_fft = 1 << (window - 1).bit_length()
    return window, hop, n_fft


def _linear_bin_range(
    sample_rate: int, n_fft: int, f_min: float, f_max: float
) -> tuple[int, int]:
    """Inclusive FFT bin range covering [f_min, f_max]."""
    if f_min < 0 or f_min >= f_max:
        raise ConfigError(f"need 0 <= f_min < f_max, got {f_min:g}..{f_max:g}")
    if f_max > sample_rate / 2:
        raise ConfigError(
            f"f_max {f_max:g} Hz exceeds Nyquist ({sample_rate / 2:g} Hz)"
        )
    df = sample_rate / n_fft
    lo = int(np.ceil(f_min / df - 1e-9))
    hi = int(np.floor(f_max / df + 1e-9))
    if hi < lo:
        raise ConfigError(
            f"band {f_min:g}-{f_max:g} Hz holds no FFT bins at {df:g} Hz spacing"
        )
    return lo, hi


@lru_cache(maxsize=32)
def _mel_weight_matrix(
    sample_rate: int, n_fft: int, n_mels: int, f_min: float, f_max: float
) -> np.ndarray:
    """Triangular mel filterbank, [n_mels, n_fft // 2 + 1], peak weight 1."""
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    if f_min < 0 or f_min >= f_max:
        raise ConfigError(f"need 0 <= f_min < f_max, got {f_min:g}..{f_max:g}")
    if f_max > sample_rate / 2:
        raise ConfigError(
            f"f_max {f_max:g} Hz exceeds Nyquist ({sample_rate / 2:g} Hz)"
        )
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lower = edges[:-2, None]
    centre = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (freqs - lower) / np.maximum(centre - lower, 1e-12)
    falling = (upper - freqs) / np.maximum(upper - centre, 1e-12)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(weights.sum(axis=1) == 0.0):
        raise ConfigError(
            f"band {f_min:g}-{f_max:g} Hz too narrow for {n_mels} distinct "
            f"filters at {sample_rate / n_fft:g} Hz bin spacing"
        )
    weights.flags.writeable = False
    return weights


#: Bins per step of a mel product's prefix; see :class:`FrameTransform`.
_PREFIX_BINS = 64


@lru_cache(maxsize=32)
def _mel_weight_prefix(
    sample_rate: int, n_fft: int, n_mels: int, f_min: float, f_max: float
) -> np.ndarray:
    """The [n_mels, width] prefix of :func:`_mel_weight_matrix`'s rows.

    ``width`` is the least multiple of ``_PREFIX_BINS``, capped at
    ``n_fft // 2 + 1``, that covers every bin with a nonzero weight.
    """
    weights = _mel_weight_matrix(sample_rate, n_fft, n_mels, f_min, f_max)
    last = int(np.flatnonzero(weights.any(axis=0))[-1])
    width = min(-(-(last + 1) // _PREFIX_BINS) * _PREFIX_BINS, weights.shape[1])
    prefix = np.ascontiguousarray(weights[:, :width])
    prefix.flags.writeable = False
    return prefix


#: Taps of the decimation filter per unit of the factor (plus one centre
#: tap), and its Kaiser window's beta: 33 taps at a factor of 4
_TAPS_PER_FACTOR = 8
_KAISER_BETA = 6.0


@lru_cache(maxsize=8)
def _decimation_taps(factor: int) -> np.ndarray:
    """The low-pass filter a :class:`Decimator` by ``factor`` applies.

    A Kaiser-windowed (beta 6.0) sinc of ``8 * factor + 1`` taps, cut off
    at the decimated signal's Nyquist frequency, with DC gain ``factor``:
    scipy's ``firwin(8 * factor + 1, 1 / factor, window=("kaiser", 6.0))``
    times ``factor``, except that the sinc's zeros, every ``factor``-th
    tap from the centre, are exactly zero. The image's band ends at most a
    quarter of the decimated rate up, where the passband is still flat to
    0.01 dB; what would fold onto the band lies at three quarters of that
    rate or more, and the stopband is at least 60 dB down from 0.74 of
    it. The gain keeps a band's FFT magnitudes on the input rate's scale,
    since a Hann window of 1 / ``factor`` the samples sums to 1 /
    ``factor`` as much.
    """
    n_taps = _TAPS_PER_FACTOR * factor + 1
    offsets = np.arange(n_taps) - n_taps // 2
    taps = np.sinc(offsets / factor) * np.kaiser(n_taps, _KAISER_BETA)
    taps[(offsets % factor == 0) & (offsets != 0)] = 0.0
    taps *= factor / taps.sum()
    taps.flags.writeable = False
    return taps


class Decimator:
    """Low-pass filtering and decimation by ``factor`` of a file or a stream.

    Output k is the filter of :func:`_decimation_taps` centred on input
    sample ``k * factor``, with zeros before the first sample. It is the
    centre tap times that sample, plus, for each pair of equal nonzero
    taps from the outermost in, the tap times the sum of its two samples:
    the same sum in the same order however the input is split, so a
    stream and a whole file get the same bits. Each output is returned
    once the last sample it reads has arrived, :attr:`reach` samples past
    its centre, and nothing is padded at the end: an input's last outputs
    wait for more input. The outputs equal scipy's ``resample_poly(x, 1,
    factor, window=_decimation_taps(factor))`` to rounding, cut where the
    taps run out. Each tap reads one phase of the input, every
    ``factor``-th sample, so only the outputs kept are computed.

    Nothing is clipped, and :data:`~speechprint.audio.clip_stats` is not
    touched: the filter's gain can take a sample past 1, and the image
    reads magnitudes, not samples. A factor of 1 returns its input. (The
    rate changer :class:`~speechprint.audio.Resampler` clips, and imports
    scipy, which would cost a fresh process a second or more.)
    """

    def __init__(self, factor: int) -> None:
        self.factor = factor
        self.reach = 0
        if factor > 1:
            taps = _decimation_taps(factor)
            self.reach = len(taps) // 2
            self._centre = taps[self.reach]
            self._pairs = [(j, taps[j]) for j in range(self.reach) if taps[j]]
            # the input from the next output's first tap on
            self._buffer = np.zeros(self.reach)

    def feed(self, samples: np.ndarray) -> np.ndarray:
        """Takes more input; returns the outputs it completed."""
        samples = np.asarray(samples, dtype=np.float64)
        if self.factor == 1:
            return samples
        x = np.concatenate((self._buffer, samples))
        span, step = 2 * self.reach + 1, self.factor
        n_out = (len(x) - span) // step + 1 if len(x) >= span else 0
        if not n_out:
            self._buffer = x
            return np.empty(0)

        def phase(tap: int) -> np.ndarray:
            return x[tap : tap + (n_out - 1) * step + 1 : step]

        out = self._centre * phase(self.reach)
        pair = np.empty(n_out)
        for tap, weight in self._pairs:
            np.add(phase(tap), phase(span - 1 - tap), out=pair)
            pair *= weight
            out += pair
        self._buffer = x[n_out * step :]
        return out


#: Upper bound on the samples one FFT call transforms: 256 frames of the
#: vocal variants' 256-point FFT, 64 of mel-wide's 1024-point one at
#: 8 kHz. A bounded step keeps a long file's FFT temporaries bounded too.
#: At 256 points the per-frame cost of a column call (taper, FFT, band
#: magnitudes, mel product) on a 2-CPU box, in microseconds at 16, 32,
#: 64, 128, 256, 512 and 1024 frames a call, four runs each: mel-vocal
#: 2.4-2.8, 1.8-2.8, 1.6-2.2, 1.6-1.8, 1.5-1.8, 1.6-2.2 and 3.1-5.3;
#: linear-vocal 1.7-2.1, 1.3-1.6, 1.2-1.4, 1.0-1.9, 1.0-1.7, 1.2-1.8 and
#: 2.8-4.0. The cost is flat from 64 to 512 frames, so 256 stays. (At
#: 1024 points it levelled off from about 32 frames a call and for
#: mel-vocal rose again at 256.)
STACK_SAMPLES = 1 << 16


class FrameTransform:
    """Spectral column computation shared by batch and streaming.

    Frames are cut from the signal at the analysis rate, the input rate
    divided by :attr:`decimation`: the largest power of two for which the
    analysis rate is at least four times the band's top frequency and
    which divides both the window and the hop in input samples. The
    input goes through a :class:`Decimator` by that factor first (none at
    a factor of 1), so frame i covers the same input samples as it would
    at the input rate, and the FFT of the ``window / decimation`` samples
    has the same bin spacing. :attr:`window`, :attr:`hop` and
    :attr:`n_fft` count samples at the analysis rate. At 8 kHz the vocal
    variants decimate by 4 (a 200-sample window, a 50-sample hop and a
    256-point FFT at 2 kHz); mel-wide, whose band reaches 2 kHz, and every
    variant at 11.025 kHz, whose 1103-sample window is odd, decimate by 1.

    :meth:`column` takes one frame or a stack of frames, and a frame's
    column never depends on the stack it came in: the Hann taper is an
    elementwise product, ``np.fft.rfft`` along the last axis transforms
    each row on its own with the same plan, and the mel product is a
    stacked matrix-vector product, one gemv per frame exactly as for a
    single frame. (One matrix-matrix product over the stack reorders the
    sums inside BLAS and changes about 1-5% of the mel values in their
    last bits, and so the fingerprints.) A streaming consumer, however it
    is chunked, and a whole-file pass therefore produce bit-identical
    images.

    Each FFT call does only the work the image's bits depend on, and its
    columns equal the reference path of ``tests/oracle.py`` bit for bit:

    * The tapered frames are written into a zero-filled ``[k, n_fft]``
      array, which ``rfft`` transforms as it would pad them itself.
    * Magnitudes are taken only of the bins the image reads, which is
      elementwise: linear-vocal's band, or a mel variant's prefix.
    * The mel product reads that prefix against the same prefix of the
      weights. Bins past the last nonzero weight add only ``+0.0``, and a
      prefix keeps every bin at its own position in the row, so BLAS
      groups the same nonzero terms in the same order. A prefix that is
      a multiple of ``_PREFIX_BINS`` bins long matched the full-width
      product bit for bit at rates of 4-44.1 kHz and windows of
      32-200 ms on OpenBLAS 0.3.31; a prefix cut at the last weighted
      bin, or a slice starting at the first, did not. The oracle tests
      guard that property of the BLAS, which the golden pins miss.
    """

    def __init__(self, sample_rate: int, config: SpectralConfig) -> None:
        self.sample_rate = sample_rate
        self.config = config
        window, hop, n_fft = frame_params(sample_rate, config.window_s, config.stride_s)
        factor = 1
        while (
            sample_rate / (2 * factor) >= 4 * config.f_max
            and window % (2 * factor) == 0
            and hop % (2 * factor) == 0
        ):
            factor *= 2
        self.decimation = factor
        # input samples an analysis sample reads past its own position
        self.reach = len(_decimation_taps(factor)) // 2 if factor > 1 else 0
        rate = sample_rate / factor
        self.window, self.hop, self.n_fft = window // factor, hop // factor, n_fft // factor
        self._taper = np.hanning(self.window)
        self._step = max(1, STACK_SAMPLES // self.n_fft)
        if config.variant is Variant.LINEAR_VOCAL:
            lo, hi = _linear_bin_range(rate, self.n_fft, config.f_min, config.f_max)
            self._bins = slice(lo, hi + 1)
            self._weights = None
            self.n_bins = hi - lo + 1
        else:
            self._weights = _mel_weight_prefix(
                rate, self.n_fft, config.n_bins, config.f_min, config.f_max
            )
            self._bins = slice(0, self._weights.shape[1])
            self.n_bins = config.n_bins

    def column(self, frame: np.ndarray) -> np.ndarray:
        """Image columns from a [window] frame or a [n_frames, window] stack.

        Returns one [n_bins] column, or [n_frames, n_bins] for a stack,
        which is transformed at most ``STACK_SAMPLES // n_fft`` frames
        per FFT call.
        """
        if frame.ndim == 1 or len(frame) <= self._step:
            return self._columns(frame)
        out = np.empty((frame.shape[0], self.n_bins))
        for start in range(0, frame.shape[0], self._step):
            out[start : start + self._step] = self._columns(
                frame[start : start + self._step]
            )
        return out

    def _columns(self, frames: np.ndarray) -> np.ndarray:
        padded = np.zeros(frames.shape[:-1] + (self.n_fft,))
        np.multiply(frames, self._taper, out=padded[..., : self.window])
        banded = np.abs(np.fft.rfft(padded, axis=-1)[..., self._bins])
        if self._weights is not None:
            # one gemv per frame; a gemm over the stack changes the bits
            banded = np.matmul(self._weights, banded[..., None])[..., 0]
        return np.log1p(LOG_GAIN * banded)

    def frames(self, samples: np.ndarray) -> np.ndarray:
        """[n_frames, window] view of every full frame in ``samples``, a
        signal at the analysis rate (a :class:`Decimator`'s output)."""
        if len(samples) < self.window:
            return np.empty((0, self.window))
        view = np.lib.stride_tricks.sliding_window_view(samples, self.window)
        return view[:: self.hop]

    def samples_for(self, n_frames: int) -> int:
        """Fewest input samples whose decimated signal holds ``n_frames``
        (at least one) full frames: the last frame's end, plus the
        decimation filter's reach past its last sample."""
        end = (n_frames - 1) * self.hop + self.window
        return (end - 1) * self.decimation + self.reach + 1


def make_image(audio: AudioBuffer, config: SpectralConfig) -> SpectralImage:
    """Renders the spectral image ``config`` describes.

    Dispatches to the linear band selection or the mel filterbank based
    on ``config.variant``; all variants share framing and compression.
    The audio is decimated to the analysis rate first (see
    :class:`FrameTransform`).
    """
    transform = FrameTransform(audio.sample_rate, config)
    frames = transform.frames(Decimator(transform.decimation).feed(audio.samples))
    if len(frames) < 1:
        raise TooShort(
            f"{audio.duration_seconds:.4f}s of audio is shorter than the "
            f"{transform.samples_for(1) / audio.sample_rate:.4f}s one "
            f"{config.window_s:g}s analysis window needs"
        )
    return SpectralImage(transform.column(frames).T, config)
