"""Seeded degradation protocol: offset slice, rate change, exact-SNR noise."""

import numpy as np
import pytest
from scipy.stats import kstest

from speechprint.audio import AudioBuffer, slice_seconds
from speechprint.bench import ExperimentGrid
from speechprint.corpus import synth_speech_like
from speechprint.degrade import (
    RATE_RANGE,
    DeteriorationSpec,
    _draw_offset_samples,
    add_noise,
    change_rate,
    make_query,
    random_offset_slice,
)
from speechprint.errors import ConfigError, RangeError, SilentSignal, TooShort
from speechprint.spectral import SpectralConfig

NAN, INF = float("nan"), float("inf")
# A call with a NaN or an infinity, and the error it raises. NaN fails
# every comparison, so a check written as ``x <= 0`` lets it through.
NON_FINITE = {
    "stride-nan": (lambda a: SpectralConfig.for_variant("mel-vocal", stride_s=NAN),
                   ConfigError),
    "window-inf": (lambda a: SpectralConfig.for_variant("mel-vocal", window_s=INF),
                   ConfigError),
    "grid-stride-nan": (lambda a: ExperimentGrid(strides_ms=(NAN,)), ConfigError),
    "grid-len-inf": (lambda a: ExperimentGrid(query_lens_s=(INF,)), ConfigError),
    "grid-snr-nan": (lambda a: ExperimentGrid(snr_db_range=(NAN, 3.0)), ConfigError),
    "grid-snr-inf": (lambda a: ExperimentGrid(snr_db_range=(3.0, INF)), ConfigError),
    "spec-len-nan": (lambda a: DeteriorationSpec(query_len_s=NAN), ConfigError),
    "spec-offset-inf": (lambda a: DeteriorationSpec(1.0, offset_s=INF), ConfigError),
    "spec-snr-nan": (lambda a: DeteriorationSpec(1.0, snr_db=NAN), ConfigError),
    "slice-start-nan": (lambda a: slice_seconds(a, NAN, 1.0), RangeError),
    "slice-len-inf": (lambda a: slice_seconds(a, 0.0, INF), RangeError),
    "offset-slice-nan": (lambda a: random_offset_slice(a, NAN, 0), ConfigError),
    "synth-inf": (lambda a: synth_speech_like(INF), ConfigError),
    "rate-nan": (lambda a: change_rate(a, NAN), ConfigError),
}


@pytest.mark.parametrize("call, error", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_values_are_refused(call, error):
    with pytest.raises(error):
        call(synth_speech_like(2.0, seed=5))


class TestSpecValidation:
    def test_rate_outside_protocol_range_rejected(self):
        with pytest.raises(ConfigError):
            DeteriorationSpec(query_len_s=6.0, rate=0.9)
        with pytest.raises(ConfigError):
            DeteriorationSpec(query_len_s=6.0, rate=1.05)
        DeteriorationSpec(query_len_s=6.0, rate=RATE_RANGE[0])
        DeteriorationSpec(query_len_s=6.0, rate=RATE_RANGE[1])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConfigError):
            DeteriorationSpec(query_len_s=0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigError):
            DeteriorationSpec(query_len_s=1.0, offset_s=-0.5)


class TestOffsetSlice:
    def test_length_and_determinism(self, speech_clip):
        a = random_offset_slice(speech_clip, 6.0, seed=42)
        b = random_offset_slice(speech_clip, 6.0, seed=42)
        assert len(a) == round(6.0 * speech_clip.sample_rate)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, speech_clip):
        a = random_offset_slice(speech_clip, 6.0, seed=1)
        b = random_offset_slice(speech_clip, 6.0, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_too_short_raises(self, speech_clip):
        with pytest.raises(TooShort):
            random_offset_slice(speech_clip, speech_clip.duration_seconds + 1, 0)

    def test_slice_is_contiguous_window(self):
        n = 80000
        ramp = AudioBuffer(np.arange(n, dtype=np.float64) / n, 8000)
        for seed in range(20):
            out = random_offset_slice(ramp, 6.0, seed)
            start = int(round(out.samples[0] * n))
            expect = ramp.samples[start : start + len(out)]
            assert np.array_equal(out.samples, expect)
            assert 0 <= start <= n - len(out)

    def test_offset_uniform_over_legal_range(self):
        """10 s file, 6 s query: offsets spread uniformly over [0, 4] s."""
        n_total, n_query = 80000, 48000
        rng = np.random.default_rng(7)
        draws = np.array(
            [_draw_offset_samples(n_total, n_query, rng) for _ in range(10000)]
        )
        hi = n_total - n_query
        assert draws.min() >= 0 and draws.max() <= hi
        assert kstest(draws / hi, "uniform").pvalue > 0.01

    def test_offset_never_exceeds_legal_maximum(self):
        n_total, n_query = 80000, 48000
        rng = np.random.default_rng(11)
        limit = n_total - n_query
        for _ in range(100_000):
            assert _draw_offset_samples(n_total, n_query, rng) <= limit


class TestRateChange:
    def test_output_length(self, speech_clip):
        for rate in (0.97, 1.0, 1.013, 1.03):
            out = change_rate(speech_clip, rate)
            assert len(out) == round(len(speech_clip) / rate)
            assert out.sample_rate == speech_clip.sample_rate

    def test_tone_frequency_shifts_with_rate(self, tone):
        tone = tone(200.0, 4.0, 8000)
        out = change_rate(tone, 1.03)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * out.sample_rate / len(out)
        bin_hz = out.sample_rate / len(out)
        assert abs(peak_hz - 206.0) <= bin_hz

    @pytest.mark.parametrize("rate", [0.98, 1.02, 1.0001, 1.00004])
    def test_cached_filter_bit_identical_to_designed(self, speech_clip, rate):
        from fractions import Fraction

        from scipy.signal import resample_poly

        from speechprint.audio import _clip_unit

        ratio = Fraction(rate).limit_denominator(10000)
        designed = resample_poly(speech_clip.samples, ratio.denominator, ratio.numerator)
        n_out = int(np.floor(len(speech_clip) / rate + 0.5))
        designed = np.pad(designed[:n_out], (0, max(0, n_out - len(designed))))
        expected = _clip_unit(designed, "rate change")
        for _ in range(2):  # the second call reuses the cached filter
            out = change_rate(speech_clip, rate)
            assert out.samples.tobytes() == expected.tobytes()

    def test_identity_rate_returns_input(self, speech_clip):
        assert change_rate(speech_clip, 1.0) is speech_clip

    def test_nonpositive_rate_rejected(self, speech_clip):
        with pytest.raises(ConfigError):
            change_rate(speech_clip, 0.0)


# an SNR whose power ratio 10 ** (snr_db / 10) is no normal float64:
# it overflows, is 0 or subnormal, or is NaN
UNUSABLE_SNR_DB = [3100.0, 4000.0, -3090.0, -4000.0, INF, -INF, NAN]


@pytest.mark.parametrize("snr_db", UNUSABLE_SNR_DB)
def test_snr_without_a_usable_power_ratio_is_refused(snr_db):
    audio = synth_speech_like(2.0, seed=5)
    with pytest.raises(ConfigError, match=f"snr_db must be finite.*got {snr_db}"):
        add_noise(audio, snr_db, 0)
    with pytest.raises(ConfigError, match="snr_db must be finite"):
        DeteriorationSpec(1.0, snr_db=snr_db)
    with pytest.raises(ConfigError, match="must be finite"):
        ExperimentGrid(snr_db_range=(min(snr_db, 3.0), max(snr_db, 3.0)))


@pytest.mark.parametrize("snr_db", [3000.0, -3000.0])
def test_extreme_snr_with_a_normal_power_ratio_is_kept(snr_db):
    """Noise 3,000 dB down leaves the signal; noise 3,000 dB up clips it
    to full scale, and both stay finite."""
    audio = synth_speech_like(2.0, seed=5)
    out = add_noise(audio, snr_db, 0)
    if snr_db > 0:
        np.testing.assert_array_equal(out.samples, audio.samples)
    else:
        assert np.abs(out.samples).min() == 1.0
    DeteriorationSpec(1.0, snr_db=snr_db)


class TestNoise:
    def test_exact_snr(self, tone):
        tone = tone(440.0, 2.0, 8000, amp=0.3)
        for snr_db in (0.0, 10.0, 20.0):
            out = add_noise(tone, snr_db, seed=5)
            noise = out.samples - tone.samples
            measured = 10.0 * np.log10(
                np.mean(tone.samples**2) / np.mean(noise**2)
            )
            assert abs(measured - snr_db) <= 0.01

    def test_determinism(self, tone):
        tone = tone(440.0, 1.0, 8000)
        a = add_noise(tone, 15.0, seed=3)
        b = add_noise(tone, 15.0, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_silent_signal_raises(self):
        silent = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(SilentSignal):
            add_noise(silent, 20.0, seed=0)

    def test_output_stays_in_unit_range(self, tone):
        loud = tone(440.0, 1.0, 8000, amp=0.98)
        out = add_noise(loud, 0.0, seed=1)
        assert np.abs(out.samples).max() <= 1.0


class TestFullProtocol:
    def test_determinism(self, speech_clip):
        spec = DeteriorationSpec(query_len_s=6.0, snr_db=20.0, rate=1.02)
        a = make_query(speech_clip, spec, seed=9)
        b = make_query(speech_clip, spec, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_output_length_follows_rate(self, speech_clip):
        spec = DeteriorationSpec(query_len_s=6.0, snr_db=20.0, rate=0.97)
        out = make_query(speech_clip, spec, seed=4)
        n_slice = round(6.0 * speech_clip.sample_rate)
        assert len(out) == round(n_slice / 0.97)

    def test_noise_stage_independent_of_slice(self, speech_clip):
        """Same seed, noise on or off: the underlying slice is identical."""
        clean_spec = DeteriorationSpec(query_len_s=6.0)
        noisy_spec = DeteriorationSpec(query_len_s=6.0, snr_db=30.0)
        clean = make_query(speech_clip, clean_spec, seed=17)
        noisy = make_query(speech_clip, noisy_spec, seed=17)
        residual = noisy.samples - clean.samples
        measured = 10.0 * np.log10(
            np.mean(clean.samples**2) / np.mean(residual**2)
        )
        assert abs(measured - 30.0) <= 0.01

    def test_explicit_offset_is_deterministic_slice(self, speech_clip):
        spec = DeteriorationSpec(query_len_s=2.0, offset_s=1.5)
        out = make_query(speech_clip, spec, seed=0)
        start = round(1.5 * speech_clip.sample_rate)
        expect = speech_clip.samples[start : start + len(out)]
        assert np.array_equal(out.samples, expect)

    def test_too_short_propagates(self, speech_clip):
        spec = DeteriorationSpec(query_len_s=60.0)
        with pytest.raises(TooShort):
            make_query(speech_clip, spec, seed=0)
