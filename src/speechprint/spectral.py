"""Spectral images: STFT magnitudes reduced to a narrow analysis band.

Speech identity lives mostly in the low end, so instead of the classic
wide-band fingerprinting layout we render one of three images:

* ``linear-vocal``: raw magnitude bins between 100 and 350 Hz.
* ``mel-vocal``: 40 mel-spaced triangular filters over 100-350 Hz.
* ``mel-wide``: 40 mel-spaced filters over 300-2000 Hz.

All variants share the same framing (Hann window, 100 ms default window,
configurable stride) and the same log compression log1p(1000 * x), which
keeps quiet harmonics visible without letting the floor dominate.
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

    The band edges and mel bin count are pinned per variant; construct
    via :meth:`for_variant` and only choose window/stride.
    """

    variant: Variant
    window_s: float = 0.1
    stride_s: float = 0.025
    f_min: float | None = None
    f_max: float | None = None
    n_bins: int | None = None

    def __post_init__(self) -> None:
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        if self.stride_s <= 0:
            raise ConfigError(f"stride_s must be positive, got {self.stride_s}")
        if self.window_s < self.stride_s:
            raise ConfigError(
                f"window_s ({self.window_s}) must be >= stride_s ({self.stride_s})"
            )
        f_min, f_max = _VARIANT_BANDS[variant]
        if self.f_min is None:
            object.__setattr__(self, "f_min", f_min)
        if self.f_max is None:
            object.__setattr__(self, "f_max", f_max)
        if (self.f_min, self.f_max) != (f_min, f_max):
            raise ConfigError(
                f"{variant.value} analyses {f_min:g}-{f_max:g} Hz, "
                f"got {self.f_min:g}-{self.f_max:g}"
            )
        if variant is Variant.LINEAR_VOCAL:
            if self.n_bins is not None:
                raise ConfigError("linear-vocal derives its bin count from the FFT")
        else:
            if self.n_bins is None:
                object.__setattr__(self, "n_bins", N_MEL_BINS)
            if self.n_bins != N_MEL_BINS:
                raise ConfigError(
                    f"mel variants use {N_MEL_BINS} bins, got {self.n_bins}"
                )

    @classmethod
    def for_variant(
        cls, variant: Variant | str, window_s: float = 0.1, stride_s: float = 0.025
    ) -> "SpectralConfig":
        return cls(Variant(variant), window_s=window_s, stride_s=stride_s)


@dataclass(frozen=True, eq=False)
class SpectralImage:
    """Log-compressed band-limited spectrogram: [n_bins, n_frames]."""

    data: np.ndarray
    frame_stride_s: float
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


def n_frames_for(n_samples: int, window: int, hop: int) -> int:
    """Number of full analysis frames for ``n_samples`` of audio."""
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


def stft_magnitude(
    audio: AudioBuffer, window_s: float = 0.1, stride_s: float = 0.025
) -> np.ndarray:
    """Magnitude spectrogram, shape [n_fft // 2 + 1, n_frames].

    Hann-windowed frames, zero padded to the power-of-two FFT size.
    Raises TooShort when not even one frame fits.
    """
    window, hop, n_fft = frame_params(audio.sample_rate, window_s, stride_s)
    n_frames = n_frames_for(len(audio), window, hop)
    if n_frames < 1:
        raise TooShort(
            f"{audio.duration_seconds:.3f}s of audio is shorter than one "
            f"{window_s:g}s analysis window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(audio.samples, window)[::hop]
    frames = frames[:n_frames] * np.hanning(window)
    return np.abs(np.fft.rfft(frames, n=n_fft, axis=1)).T


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


def band_select_linear(
    spec: np.ndarray, sample_rate: int, f_min: float, f_max: float
) -> np.ndarray:
    """Keeps the FFT rows whose centres lie in [f_min, f_max], compressed.

    Args:
        spec: magnitude spectrogram from :func:`stft_magnitude`.
        sample_rate: rate of the audio the spectrogram came from.

    Returns:
        log1p(LOG_GAIN * selected rows), shape [n_band_bins, n_frames].
    """
    n_fft = 2 * (spec.shape[0] - 1)
    lo, hi = _linear_bin_range(sample_rate, n_fft, f_min, f_max)
    return np.log1p(LOG_GAIN * spec[lo : hi + 1])


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


def mel_filterbank(
    spec: np.ndarray,
    sample_rate: int,
    n_mels: int = N_MEL_BINS,
    f_min: float = VOCAL_BAND[0],
    f_max: float = VOCAL_BAND[1],
) -> np.ndarray:
    """Applies a triangular mel filterbank and log compression.

    Filter centres are mel-spaced between f_min and f_max (mel(f) =
    2595 log10(1 + f/700)); each filter rises from its left neighbour's
    centre and falls to its right neighbour's, peak weight 1.

    Returns:
        log1p(LOG_GAIN * filterbank @ spec), shape [n_mels, n_frames].
    """
    n_fft = 2 * (spec.shape[0] - 1)
    weights = _mel_weight_matrix(sample_rate, n_fft, n_mels, f_min, f_max)
    return np.log1p(LOG_GAIN * (weights @ spec))


#: Upper bound on the samples one FFT call transforms: 64 frames of a
#: 1024-point FFT. Per-frame cost levels off from about 32 frames a call,
#: and a bounded step keeps a long file's FFT temporaries bounded too.
STACK_SAMPLES = 1 << 16


class FrameTransform:
    """Spectral column computation shared by batch and streaming.

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
    """

    def __init__(self, sample_rate: int, config: SpectralConfig) -> None:
        self.sample_rate = sample_rate
        self.config = config
        self.window, self.hop, self.n_fft = frame_params(
            sample_rate, config.window_s, config.stride_s
        )
        self._taper = np.hanning(self.window)
        self._step = max(1, STACK_SAMPLES // self.n_fft)
        if config.variant is Variant.LINEAR_VOCAL:
            lo, hi = _linear_bin_range(
                sample_rate, self.n_fft, config.f_min, config.f_max
            )
            self._rows = slice(lo, hi + 1)
            self._weights = None
            self.n_bins = hi - lo + 1
        else:
            self._weights = _mel_weight_matrix(
                sample_rate, self.n_fft, config.n_bins, config.f_min, config.f_max
            )
            self._rows = None
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
        spec = np.abs(np.fft.rfft(frames * self._taper, n=self.n_fft, axis=-1))
        if self._weights is None:
            banded = spec[..., self._rows]
        else:
            # one gemv per frame; a gemm over the stack changes the bits
            banded = np.matmul(self._weights, spec[..., None])[..., 0]
        return np.log1p(LOG_GAIN * banded)

    def frames(self, samples: np.ndarray) -> np.ndarray:
        """[n_frames, window] view of every full frame in ``samples``."""
        if len(samples) < self.window:
            return np.empty((0, self.window))
        view = np.lib.stride_tricks.sliding_window_view(samples, self.window)
        return view[:: self.hop]


def make_image(audio: AudioBuffer, config: SpectralConfig) -> SpectralImage:
    """Renders the spectral image ``config`` describes.

    Dispatches to the linear band selection or the mel filterbank based
    on ``config.variant``; all variants share framing and compression.
    """
    transform = FrameTransform(audio.sample_rate, config)
    frames = transform.frames(audio.samples)
    if len(frames) < 1:
        raise TooShort(
            f"{audio.duration_seconds:.3f}s of audio is shorter than one "
            f"{config.window_s:g}s analysis window"
        )
    return SpectralImage(
        transform.column(frames).T, frame_stride_s=config.stride_s, config=config
    )
