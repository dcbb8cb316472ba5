"""Reference oracles: whole-array versions of what the package computes
in stages, which no production path calls.

The tests compare the package against them: the streaming fingerprint
kernel against whole padded blocks (:func:`blocks`), the 2-D Haar
transform against its exact inverse (:func:`ihaar2d`), and
:class:`~speechprint.spectral.FrameTransform`'s columns against a plain
STFT (:func:`stft_magnitude`) reduced by :func:`band_select_linear` or
:func:`mel_filterbank`.
"""

import numpy as np

from speechprint.audio import AudioBuffer
from speechprint.errors import TooShort
from speechprint.fingerprint import SQRT2, FingerprintConfig, _check_sides, _next_pow2
from speechprint.spectral import (
    LOG_GAIN,
    N_MEL_BINS,
    VOCAL_BAND,
    SpectralImage,
    _linear_bin_range,
    _mel_weight_matrix,
    frame_params,
)


def blocks(
    image: SpectralImage, config: FingerprintConfig, centred: bool = True
) -> np.ndarray:
    """Overlapping frame blocks, zero padded to a power of two.

    Returns a [n_blocks, rows, block_frames] stack. Block k covers frames
    [k * hop, k * hop + block_frames); the count is
    floor((n_frames - block_frames) / hop) + 1. Rows are padded so the
    Haar transform sees power-of-two sides.

    When ``centred`` (version 1's definition), each block's real rows have
    their scalar mean subtracted: one pairwise sum over the block's real
    values flattened in row-major order, divided by their count. Spectral
    image values are all positive, so without centring every block in
    every file shares a strong same-sign energy offset (and near-silent
    blocks are virtually identical everywhere); centring leaves only the
    content-dependent structure to be hashed. Version 2 centres after the
    transform instead (see the module docstring) and starts from the
    uncentred blocks.

    Reference oracle with no production caller, kept for tests to compare
    the streaming kernel against the stages run on whole padded blocks.
    """
    n_frames = image.n_frames
    if n_frames < config.block_frames:
        raise TooShort(
            f"{n_frames} frames < one {config.block_frames}-frame block"
        )
    n_blocks = (n_frames - config.block_frames) // config.block_hop_frames + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        image.data.T, config.block_frames, axis=0
    )[:: config.block_hop_frames][:n_blocks]
    real = np.array(windows, dtype=np.float64, order="C")
    if centred:
        real -= real.reshape(n_blocks, -1).mean(axis=1)[:, None, None]
    stack = np.zeros((n_blocks, _next_pow2(image.n_bins), config.block_frames))
    stack[:, : image.n_bins] = real
    return stack


def _ihaar_axis(a: np.ndarray, axis: int) -> None:
    n = a.shape[axis]
    length = 2
    while length <= n:
        half = length // 2
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(0, half)
        s = a[tuple(idx)].copy()
        idx[axis] = slice(half, length)
        d = a[tuple(idx)].copy()
        idx[axis] = slice(0, length, 2)
        a[tuple(idx)] = (s + d) / SQRT2
        idx[axis] = slice(1, length, 2)
        a[tuple(idx)] = (s - d) / SQRT2
        length *= 2


def ihaar2d(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`haar2d`, for a block or a stack of blocks.

    Reference oracle with no production caller, kept for tests to check
    :func:`haar2d` against.
    """
    _check_sides(coeffs.shape)
    out = np.array(coeffs, dtype=np.float64, copy=True)
    _ihaar_axis(out, axis=-2)
    _ihaar_axis(out, axis=-1)
    return out


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

    Reference oracle with no production caller, kept for tests to compare
    :class:`FrameTransform`'s columns against.
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


def band_select_linear(
    spec: np.ndarray, sample_rate: int, f_min: float, f_max: float
) -> np.ndarray:
    """Keeps the FFT rows whose centres lie in [f_min, f_max], compressed.

    Args:
        spec: magnitude spectrogram from :func:`stft_magnitude`.
        sample_rate: rate of the audio the spectrogram came from.

    Returns:
        log1p(LOG_GAIN * selected rows), shape [n_band_bins, n_frames].

    Reference oracle with no production caller, kept for tests to compare
    :class:`FrameTransform`'s columns against.
    """
    n_fft = 2 * (spec.shape[0] - 1)
    lo, hi = _linear_bin_range(sample_rate, n_fft, f_min, f_max)
    return np.log1p(LOG_GAIN * spec[lo : hi + 1])


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

    Reference oracle with no production caller, kept for tests to compare
    :class:`FrameTransform`'s columns against.
    """
    n_fft = 2 * (spec.shape[0] - 1)
    weights = _mel_weight_matrix(sample_rate, n_fft, n_mels, f_min, f_max)
    return np.log1p(LOG_GAIN * (weights @ spec))
