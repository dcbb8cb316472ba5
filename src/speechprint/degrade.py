"""Seeded degradations that mimic lossy telephony capture.

A benchmark query is built from a clean enrolled file in a fixed order:
slice a random-offset window, stretch or squeeze the clock rate a few
percent, then add white Gaussian noise at an exact signal-to-noise ratio.
Every step is driven by an explicit seed so a (file, spec, seed) triple
always reproduces the same query bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio import AudioBuffer, Resampler, _clip_unit, slice_seconds
from .errors import ConfigError, SilentSignal, TooShort

RATE_RANGE = (0.97, 1.03)


@dataclass(frozen=True)
class DeteriorationSpec:
    """What to do to a clean file to produce one degraded query.

    snr_db None skips the noise stage; offset_s None draws the slice
    offset uniformly from the legal range. rate is the playback clock
    factor and must stay within the few-percent regime the protocol
    models.
    """

    query_len_s: float
    snr_db: float | None = None
    rate: float = 1.0
    offset_s: float | None = None

    def __post_init__(self) -> None:
        if self.query_len_s <= 0:
            raise ConfigError(
                f"query_len_s must be positive, got {self.query_len_s}"
            )
        if not RATE_RANGE[0] <= self.rate <= RATE_RANGE[1]:
            raise ConfigError(
                f"rate must lie in [{RATE_RANGE[0]}, {RATE_RANGE[1]}], "
                f"got {self.rate}"
            )
        if self.offset_s is not None and self.offset_s < 0:
            raise ConfigError(f"offset_s must be >= 0, got {self.offset_s}")


def _draw_offset_samples(
    n_total: int, n_query: int, rng: np.random.Generator
) -> int:
    """Uniform integer offset with the whole query inside the buffer."""
    return int(rng.integers(0, n_total - n_query + 1))


def random_offset_slice(
    audio: AudioBuffer,
    query_len_s: float,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> AudioBuffer:
    """Slices ``query_len_s`` starting at a seeded uniform random offset.

    The offset is drawn in whole samples from [0, len - query]; the
    window always fits, so no padding is ever involved.

    Raises TooShort when the buffer is shorter than the query.
    """
    if query_len_s <= 0:
        raise ConfigError(f"query_len_s must be positive, got {query_len_s}")
    n_query = int(np.floor(query_len_s * audio.sample_rate + 0.5))
    if n_query > len(audio):
        raise TooShort(
            f"cannot cut {query_len_s:g}s from {audio.duration_seconds:.3f}s"
        )
    rng = np.random.default_rng(seed)
    start = _draw_offset_samples(len(audio), n_query, rng)
    return AudioBuffer(
        audio.samples[start : start + n_query], audio.sample_rate
    )


def change_rate(audio: AudioBuffer, rate: float) -> AudioBuffer:
    """Plays the audio back ``rate`` times faster, keeping the nominal rate.

    rate 1.03 makes everything 3% shorter and shifts every frequency up
    by 3%; the buffer's sample_rate field is unchanged, exactly like a
    capture whose clock drifted. Output length is round(len / rate).

    The input goes through one :class:`~speechprint.audio.Resampler` at
    the rational ratio nearest ``rate`` with a denominator of at most
    10000.
    """
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if rate == 1.0:
        return audio
    ratio = Fraction(rate).limit_denominator(10000)
    n_out = int(np.floor(len(audio) / rate + 0.5))
    # a rate this close to 1 can round to the ratio 1/1, which is a copy
    resampler = Resampler(ratio.denominator, ratio.numerator, "rate change")
    return AudioBuffer(resampler.finish(n_out, audio.samples), audio.sample_rate)


def add_noise(
    audio: AudioBuffer,
    snr_db: float,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> AudioBuffer:
    """Adds white Gaussian noise at an exact realised SNR.

    The noise is scaled against its own realised power, not its nominal
    variance, so 10*log10(P_signal / P_noise) equals ``snr_db`` to within
    float error before the final clip to [-1, 1].

    Raises SilentSignal for an all-zero signal (SNR is undefined).
    """
    signal_power = float(np.mean(np.square(audio.samples)))
    if signal_power == 0.0:
        raise SilentSignal("cannot set an SNR against a silent signal")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(audio))
    noise_power = float(np.mean(np.square(noise)))
    target_power = signal_power / (10.0 ** (snr_db / 10.0))
    noise *= np.sqrt(target_power / noise_power)
    out = _clip_unit(audio.samples + noise, "additive noise")
    return AudioBuffer(out, audio.sample_rate)


def make_query(
    audio: AudioBuffer,
    spec: DeteriorationSpec,
    seed: int | np.random.SeedSequence,
) -> AudioBuffer:
    """Applies the full protocol: offset slice, rate change, noise.

    One seed drives everything; the offset and noise stages get
    independent child streams so toggling one stage never perturbs the
    other.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    offset_seed, noise_seed = seed.spawn(2)
    if spec.offset_s is None:
        out = random_offset_slice(audio, spec.query_len_s, offset_seed)
    else:
        out = slice_seconds(audio, spec.offset_s, spec.query_len_s)
    if spec.rate != 1.0:
        out = change_rate(out, spec.rate)
    if spec.snr_db is not None:
        out = add_noise(out, spec.snr_db, noise_seed)
    return out
