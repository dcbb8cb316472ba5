"""Spectral image construction: framing, band selection, mel filters."""

import numpy as np
import pytest

from speechprint.audio import AudioBuffer
from speechprint.corpus import synth_speech_like
from speechprint.errors import ConfigError, TooShort
from speechprint.spectral import (
    LOG_GAIN,
    STACK_SAMPLES,
    FrameTransform,
    SpectralConfig,
    Variant,
    band_select_linear,
    frame_params,
    hz_to_mel,
    make_image,
    mel_filterbank,
    mel_to_hz,
    n_frames_for,
    stft_magnitude,
)


class TestMelScale:
    def test_known_point(self):
        # 700 Hz sits one doubling up the (1 + f/700) curve
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))

    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_round_trip(self):
        f = np.array([100.0, 350.0, 700.0, 2000.0, 3999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_monotone(self):
        f = np.linspace(1.0, 4000.0, 200)
        assert np.all(np.diff(hz_to_mel(f)) > 0)


class TestFraming:
    def test_fft_size_next_power_of_two(self):
        window, hop, n_fft = frame_params(8000, 0.1, 0.025)
        assert (window, hop, n_fft) == (800, 200, 1024)

    def test_exact_power_of_two_kept(self):
        _, _, n_fft = frame_params(8192, 0.125, 0.125)
        assert n_fft == 1024

    def test_frame_count(self):
        assert n_frames_for(800, 800, 200) == 1
        assert n_frames_for(999, 800, 200) == 1
        assert n_frames_for(1000, 800, 200) == 2
        assert n_frames_for(799, 800, 200) == 0

    def test_too_small_window_rejected(self):
        with pytest.raises(ConfigError):
            frame_params(8000, 0.0001, 0.0001)


class TestStft:
    def test_tone_lands_in_expected_bin(self, tone):
        spec = stft_magnitude(tone(200.0, 1.0, 8000))
        # bin spacing 8000/1024; a 200 Hz tone peaks at the nearest bin
        expected = round(200.0 / (8000.0 / 1024.0))
        np.testing.assert_array_equal(np.argmax(spec, axis=0), expected)

    def test_shape(self, tone):
        spec = stft_magnitude(tone(100.0, 1.0, 8000))
        assert spec.shape == (513, n_frames_for(8000, 800, 200))

    def test_too_short_raises(self, tone):
        with pytest.raises(TooShort):
            stft_magnitude(tone(100.0, 0.05, 8000))


class TestBandSelect:
    def test_bin_arithmetic_at_10hz_spacing(self):
        # synthetic 800-point-FFT spectrogram: rows are exactly 10 Hz apart,
        # so the 100-350 Hz band keeps rows 10..35 inclusive, 26 of them
        spec = np.zeros((401, 3))
        spec[10] = 1.0
        out = band_select_linear(spec, 8000, 100.0, 350.0)
        assert out.shape == (26, 3)
        np.testing.assert_allclose(out[0], np.log1p(LOG_GAIN * 1.0))

    def test_band_edges_inclusive(self):
        spec = np.ones((401, 1))
        assert band_select_linear(spec, 8000, 100.0, 350.0).shape[0] == 26
        assert band_select_linear(spec, 8000, 100.0, 349.9).shape[0] == 25

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            band_select_linear(np.ones((401, 1)), 8000, 100.0, 5000.0)

    def test_empty_band_rejected(self):
        with pytest.raises(ConfigError):
            band_select_linear(np.ones((11, 1)), 8000, 150.0, 300.0)


class TestMelFilterbank:
    def test_output_shape(self):
        spec = np.abs(np.random.default_rng(3).normal(size=(513, 7)))
        out = mel_filterbank(spec, 8000, 40, 100.0, 350.0)
        assert out.shape == (40, 7)

    def test_tone_excites_expected_filter(self, tone):
        spec = stft_magnitude(tone(225.0, 1.0, 8000))
        out = mel_filterbank(spec, 8000, 40, 100.0, 350.0)
        centres = mel_to_hz(
            np.linspace(hz_to_mel(100.0), hz_to_mel(350.0), 42)
        )[1:-1]
        expected = int(np.argmin(np.abs(centres - 225.0)))
        hot = int(np.argmax(out.mean(axis=1)))
        assert abs(hot - expected) <= 1

    def test_too_narrow_band_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(np.ones((513, 1)), 8000, 200, 100.0, 140.0)

    def test_wide_band_uses_40_bins(self, speech_clip):
        image = make_image(
            speech_clip, SpectralConfig.for_variant(Variant.MEL_WIDE)
        )
        assert image.n_bins == 40


class TestConfig:
    def test_variant_bands_pinned(self):
        cfg = SpectralConfig.for_variant("mel-vocal")
        assert (cfg.f_min, cfg.f_max, cfg.n_bins) == (100.0, 350.0, 40)
        wide = SpectralConfig.for_variant("mel-wide")
        assert (wide.f_min, wide.f_max) == (300.0, 2000.0)

    def test_contradicting_band_rejected(self):
        with pytest.raises(ConfigError):
            SpectralConfig(Variant.MEL_VOCAL, f_min=50.0)

    def test_linear_variant_rejects_forced_bins(self):
        with pytest.raises(ConfigError):
            SpectralConfig(Variant.LINEAR_VOCAL, n_bins=40)

    def test_stride_beyond_window_rejected(self):
        with pytest.raises(ConfigError):
            SpectralConfig(Variant.MEL_VOCAL, window_s=0.02, stride_s=0.05)


class TestStackedColumns:
    """A stack of frames gives exactly the columns of its frames one by one."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("sample_rate", [8000, 16000])
    @pytest.mark.parametrize("stride_s", [0.025, 0.0125, 0.01])
    def test_rows_equal_per_frame_columns(self, variant, sample_rate, stride_s):
        transform = FrameTransform(
            sample_rate, SpectralConfig.for_variant(variant, stride_s=stride_s)
        )
        clip = synth_speech_like(3.0, sample_rate, seed=11)
        frames = transform.frames(clip.samples)
        single = np.array([transform.column(frame) for frame in frames])
        # more frames than one FFT call takes, so the stack is split
        assert len(frames) > STACK_SAMPLES // transform.n_fft
        spans = [(0, 1), (5, 1), (0, 2), (7, 2), (11, 17), (3, len(frames) - 3)]
        for start, size in spans:
            stacked = transform.column(frames[start : start + size])
            assert stacked.shape == (size, transform.n_bins)
            np.testing.assert_array_equal(stacked, single[start : start + size])

    def test_frames_match_frame_count(self):
        transform = FrameTransform(8000, SpectralConfig.for_variant("mel-vocal"))
        for n in (0, 799, 800, 999, 1000, 8000):
            frames = transform.frames(np.zeros(n))
            assert frames.shape == (n_frames_for(n, 800, 200), 800)


class TestMakeImage:
    def test_variants_share_frame_count(self, speech_clip):
        images = [
            make_image(speech_clip, SpectralConfig.for_variant(v))
            for v in Variant
        ]
        frames = {im.n_frames for im in images}
        assert len(frames) == 1
        bins = [im.n_bins for im in images]
        assert bins[1] == bins[2] == 40
        assert bins[0] != 40  # linear bin count follows the FFT grid

    def test_linear_bin_count_follows_fft(self, speech_clip):
        image = make_image(
            speech_clip, SpectralConfig.for_variant(Variant.LINEAR_VOCAL)
        )
        # 8000 Hz / 1024-point FFT = 7.8125 Hz spacing; 100-350 Hz keeps
        # bins ceil(12.8)=13 .. floor(44.8)=44, 32 rows
        assert image.n_bins == 32

    def test_matches_batch_band_select(self, speech_clip):
        cfg = SpectralConfig.for_variant(Variant.LINEAR_VOCAL)
        image = make_image(speech_clip, cfg)
        spec = stft_magnitude(speech_clip, cfg.window_s, cfg.stride_s)
        expected = band_select_linear(
            spec, speech_clip.sample_rate, cfg.f_min, cfg.f_max
        )
        np.testing.assert_allclose(image.data, expected, atol=1e-12)

    def test_values_non_negative(self, speech_clip):
        image = make_image(speech_clip, SpectralConfig.for_variant("mel-vocal"))
        assert np.all(image.data >= 0.0)

    def test_too_short_raises(self):
        buf = AudioBuffer(np.zeros(400), 8000)
        with pytest.raises(TooShort):
            make_image(buf, SpectralConfig.for_variant("mel-vocal"))
