"""Synthetic speech-like audio for tests and benchmarks.

Real early-media recordings cannot ship with the code, so the benchmark
corpus is synthesised with the statistics the fingerprinter cares about.
Each file is a sequence of syllable-like events: a voiced harmonic stack
whose fundamental glides inside the 100-320 Hz vocal range, filtered
through per-syllable vowel formants drawn from a per-file inventory,
shaped by an attack/sustain/release envelope and separated by irregular
pauses. That gives every few hundred milliseconds of a file its own
pitch/formant trajectory, the property that makes short fingerprint
blocks distinguishable across files, while different seeds produce
corpora as mutually distinct as different recorded announcements.

Everything is a deterministic function of the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import AudioBuffer, encode_wav
from .errors import ConfigError, IoError
from .fileio import write_atomic

_N_HARMONICS = 12
_MAX_HARMONIC_HZ = 3500.0


def _syllable(
    rng: np.random.Generator,
    n: int,
    sample_rate: int,
    f0_start: float,
    f0_end: float,
    formants: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    """One voiced syllable: glide f0, fixed vowel formants, AM envelope."""
    f0 = np.linspace(f0_start, f0_end, n)
    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    out = np.zeros(n)
    ceiling = min(_MAX_HARMONIC_HZ, 0.45 * sample_rate)
    for k in range(1, _N_HARMONICS + 1):
        freq = k * f0
        gain = np.exp(-0.5 * ((freq[:, None] - formants) / widths) ** 2).sum(axis=1)
        amp = (0.12 + gain) / k**0.6
        amp[freq > ceiling] = 0.0
        out += amp * np.sin(k * phase + rng.uniform(0.0, 2.0 * np.pi))
    attack = max(int(0.025 * sample_rate), 1)
    release = max(int(0.045 * sample_rate), 1)
    envelope = np.ones(n)
    envelope[: min(attack, n)] = np.linspace(0.0, 1.0, min(attack, n))
    envelope[-min(release, n) :] *= np.linspace(1.0, 0.0, min(release, n))
    wobble = 1.0 + 0.15 * np.sin(
        2.0 * np.pi * rng.uniform(3.0, 7.0) * np.arange(n) / sample_rate
        + rng.uniform(0.0, 2.0 * np.pi)
    )
    return out * envelope * wobble


def synth_speech_like(
    duration_s: float,
    sample_rate: int = 8000,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> AudioBuffer:
    """One synthetic utterance-like clip, fully determined by the seed."""
    if not 0 < duration_s < np.inf:
        raise ConfigError(f"duration_s must be positive and finite, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(np.floor(duration_s * sample_rate + 0.5))
    signal = np.zeros(n)

    # per-file voice: base pitch, speaking rate and a small vowel inventory
    base_f0 = rng.uniform(105.0, 250.0)
    rate_scale = rng.uniform(0.8, 1.3)
    n_vowels = int(rng.integers(4, 7))
    inventory_f = np.stack(
        [
            rng.uniform(280.0, 850.0, n_vowels),
            rng.uniform(900.0, 2300.0, n_vowels),
            rng.uniform(2300.0, 3200.0, n_vowels),
        ],
        axis=1,
    )
    inventory_w = np.stack(
        [
            rng.uniform(90.0, 180.0, n_vowels),
            rng.uniform(150.0, 320.0, n_vowels),
            rng.uniform(250.0, 450.0, n_vowels),
        ],
        axis=1,
    )

    pos = int(rng.uniform(0.0, 0.1) * sample_rate)
    pitch = base_f0
    while pos < n:
        dur = rng.uniform(0.10, 0.32) * rate_scale
        length = min(int(dur * sample_rate), n - pos)
        if length > int(0.04 * sample_rate):
            vowel = int(rng.integers(n_vowels))
            jump = rng.uniform(0.80, 1.30) if rng.random() < 0.2 else rng.uniform(0.90, 1.14)
            f0_start = float(np.clip(pitch * jump, 95.0, 310.0))
            f0_end = float(np.clip(f0_start * rng.uniform(0.72, 1.12), 95.0, 310.0))
            pitch = 0.6 * base_f0 + 0.4 * f0_end  # slow declination pull
            amplitude = rng.uniform(0.45, 1.0)
            signal[pos : pos + length] += amplitude * _syllable(
                rng,
                length,
                sample_rate,
                f0_start,
                f0_end,
                inventory_f[vowel],
                inventory_w[vowel],
            )
        pos += length
        if rng.random() < 0.3:  # inter-word pause
            pos += int(rng.uniform(0.05, 0.35) * sample_rate)
        else:  # articulation gap
            pos += int(rng.uniform(0.01, 0.05) * sample_rate)

    signal += 10 ** (-34.0 / 20.0) * rng.standard_normal(n)
    peak = np.abs(signal).max()
    if peak > 0:
        signal *= 0.65 / peak
    return AudioBuffer(signal, sample_rate)


def synth_corpus(
    out_dir: str | Path,
    n_files: int = 30,
    duration_s: float = 15.0,
    seed: int = 0,
) -> list[Path]:
    """Writes ``n_files`` synthetic 8 kHz WAV files and returns their paths.

    Files are named file000.wav, file001.wav, ... and each one's content
    depends only on (seed, its position), so a corpus regenerates
    identically from the same arguments.
    """
    if n_files < 1:
        raise ConfigError(f"n_files must be >= 1, got {n_files}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create corpus dir {out_dir}: {exc}") from exc
    children = np.random.SeedSequence(seed).spawn(n_files)
    paths = []
    for i, child in enumerate(children):
        clip = synth_speech_like(duration_s, seed=child)
        path = out_dir / f"file{i:03d}.wav"
        write_atomic(path, encode_wav(clip), "corpus file")
        paths.append(path)
    return paths
