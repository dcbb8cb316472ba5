"""Spectral image construction: framing, band selection, mel filters."""

import numpy as np
import pytest

from speechprint.audio import AudioBuffer, clip_stats
from speechprint.corpus import synth_speech_like
from speechprint.errors import ConfigError, TooShort
from speechprint.spectral import (
    LOG_GAIN,
    STACK_SAMPLES,
    Decimator,
    FrameTransform,
    SpectralConfig,
    Variant,
    frame_params,
    hz_to_mel,
    make_image,
    mel_to_hz,
    _decimation_taps,
)

from oracle import band_select_linear, mel_filterbank, n_frames_for, stft_magnitude


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
        clip = synth_speech_like(8.0, sample_rate, seed=11)
        frames = transform.frames(Decimator(transform.decimation).feed(clip.samples))
        single = np.array([transform.column(frame) for frame in frames])
        # more frames than one FFT call takes, so the stack is split
        assert len(frames) > STACK_SAMPLES // transform.n_fft
        spans = [(0, 1), (5, 1), (0, 2), (7, 2), (11, 17), (3, len(frames) - 3)]
        for start, size in spans:
            stacked = transform.column(frames[start : start + size])
            assert stacked.shape == (size, transform.n_bins)
            np.testing.assert_array_equal(stacked, single[start : start + size])

    def test_frames_match_frame_count(self):
        """Frames are cut at the analysis rate: 2 kHz for mel-vocal at 8 kHz."""
        transform = FrameTransform(8000, SpectralConfig.for_variant("mel-vocal"))
        assert (transform.decimation, transform.window, transform.hop) == (4, 200, 50)
        assert transform.n_fft == 256
        for n in (0, 199, 200, 249, 250, 2000):
            frames = transform.frames(np.zeros(n))
            assert frames.shape == (n_frames_for(n, 200, 50), 200)


def analysis_factor(sample_rate: int, cfg: SpectralConfig) -> int:
    """The decimation the frame transform should choose: the largest power
    of two at which the band's top is at most a quarter of the rate and
    which divides the window and the hop."""
    window, hop, _n_fft = frame_params(sample_rate, cfg.window_s, cfg.stride_s)
    return max(
        d for d in (1, 2, 4, 8, 16, 32)
        if sample_rate / d >= 4 * cfg.f_max and window % d == 0 and hop % d == 0
    )


class TestOracle:
    """Columns equal the reference path frame by frame, bit for bit.

    The reference STFT runs on the decimated signal at the analysis rate.
    The mel product reads a 64-aligned prefix of the FFT bins and of the
    weights, where the reference multiplies all of them; the golden pins
    cover only the 100 ms window.
    """

    @pytest.mark.parametrize("signal", ["speech", "noise"])
    @pytest.mark.parametrize("window_s", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("sample_rate", [8000, 11025, 16000, 44100])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_columns_equal_reference(self, variant, sample_rate, window_s, signal):
        cfg = SpectralConfig.for_variant(variant, window_s=window_s, stride_s=0.01)
        factor = analysis_factor(sample_rate, cfg)
        assert sample_rate % factor == 0
        rate = sample_rate // factor
        window, hop, n_fft = frame_params(sample_rate, cfg.window_s, cfg.stride_s)
        step = STACK_SAMPLES // (n_fft // factor)
        # long enough for more frames than one FFT call takes
        seconds = max(2.0, ((step + 8) * hop + window) / sample_rate + 0.05)
        if signal == "speech":
            clip = synth_speech_like(seconds, sample_rate, seed=5)
        else:
            rng = np.random.default_rng(sample_rate)
            n = round(seconds * sample_rate)
            clip = AudioBuffer(rng.uniform(-1.0, 1.0, n), sample_rate)
        analysis = AudioBuffer(Decimator(factor).feed(clip.samples), rate)
        spec = stft_magnitude(analysis, cfg.window_s, cfg.stride_s)
        try:
            transform = FrameTransform(sample_rate, cfg)
        except ConfigError:
            # too few bins for 40 filters: the reference rejects it too
            with pytest.raises(ConfigError):
                mel_filterbank(spec, rate, cfg.n_bins, cfg.f_min, cfg.f_max)
            return
        assert transform.decimation == factor
        assert transform.n_fft == 2 * (spec.shape[0] - 1) == n_fft // factor
        if variant is Variant.LINEAR_VOCAL:
            expected = band_select_linear(spec, rate, cfg.f_min, cfg.f_max).T
        else:
            expected = np.array([
                mel_filterbank(
                    spec[:, i : i + 1], rate, cfg.n_bins, cfg.f_min, cfg.f_max
                )[:, 0]
                for i in range(spec.shape[1])
            ])
        frames = transform.frames(analysis.samples)
        assert len(frames) > step + 3
        for i in (0, len(frames) // 2, len(frames) - 1):
            np.testing.assert_array_equal(transform.column(frames[i]), expected[i])
        # stacks that start and end off the FFT call boundary
        for start, stop in ((0, len(frames)), (3, len(frames)), (1, step + 2)):
            np.testing.assert_array_equal(
                transform.column(frames[start:stop]), expected[start:stop]
            )


class TestMakeImage:
    def test_variants_share_frame_count(self, speech_clip):
        """Every variant frames the same input grid. The vocal variants'
        last frame also needs the decimation filter's reach past its end,
        16 samples less 3 at 8 kHz: the clip ends 100 samples past a frame,
        which covers it; the full 10 s clip ends on a frame's last sample
        and the vocal images lack that frame."""
        clip = AudioBuffer(speech_clip.samples[:-100], 8000)
        images = [make_image(clip, SpectralConfig.for_variant(v)) for v in Variant]
        frames = {im.n_frames for im in images}
        assert frames == {n_frames_for(len(clip), 800, 200)}
        vocal = make_image(speech_clip, SpectralConfig.for_variant("mel-vocal"))
        assert vocal.n_frames == n_frames_for(len(speech_clip), 800, 200) - 1
        bins = [im.n_bins for im in images]
        assert bins[1] == bins[2] == 40
        assert bins[0] != 40  # linear bin count follows the FFT grid

    def test_linear_bin_count_follows_fft(self, speech_clip):
        image = make_image(
            speech_clip, SpectralConfig.for_variant(Variant.LINEAR_VOCAL)
        )
        # 2000 Hz / 256-point FFT = 8000 Hz / 1024 = 7.8125 Hz spacing;
        # 100-350 Hz keeps bins ceil(12.8)=13 .. floor(44.8)=44, 32 rows
        assert image.n_bins == 32

    def test_matches_batch_band_select(self, speech_clip):
        cfg = SpectralConfig.for_variant(Variant.LINEAR_VOCAL)
        image = make_image(speech_clip, cfg)
        analysis = AudioBuffer(Decimator(4).feed(speech_clip.samples), 2000)
        spec = stft_magnitude(analysis, cfg.window_s, cfg.stride_s)
        expected = band_select_linear(spec, 2000, cfg.f_min, cfg.f_max)
        np.testing.assert_array_equal(image.data, expected)

    def test_values_non_negative(self, speech_clip):
        image = make_image(speech_clip, SpectralConfig.for_variant("mel-vocal"))
        assert np.all(image.data >= 0.0)

    def test_too_short_raises(self):
        buf = AudioBuffer(np.zeros(400), 8000)
        with pytest.raises(TooShort):
            make_image(buf, SpectralConfig.for_variant("mel-vocal"))

    def test_image_matches_the_input_rate_image(self, speech_clip):
        """The 2 kHz image is close to the 8 kHz one, frame for frame; the
        decimator's reach costs the last frame. A gain other than the
        factor would shift every value by about its log."""
        for variant in (Variant.LINEAR_VOCAL, Variant.MEL_VOCAL):
            cfg = SpectralConfig.for_variant(variant)
            image = make_image(speech_clip, cfg)
            spec = stft_magnitude(speech_clip, cfg.window_s, cfg.stride_s)
            if variant is Variant.LINEAR_VOCAL:
                full = band_select_linear(spec, 8000, cfg.f_min, cfg.f_max)
            else:
                full = mel_filterbank(spec, 8000, cfg.n_bins, cfg.f_min, cfg.f_max)
            assert image.data.shape == (full.shape[0], full.shape[1] - 1)
            error = np.abs(image.data - full[:, :-1])
            assert np.median(error) < 0.02 and np.percentile(error, 99) < 0.25


# factors the vocal variants take at 8 and 16 kHz and mel-wide at 16 kHz
DECIMATION_FACTORS = [2, 4, 8]


class TestDecimator:
    @pytest.mark.parametrize("factor", DECIMATION_FACTORS)
    def test_any_split_equals_whole(self, factor):
        """Fed whole or in random pieces down to 1 sample, the outputs are
        the same bits, and resample_poly's with the same taps to rounding,
        up to the last output whose taps have all arrived."""
        from scipy.signal import resample_poly

        rng = np.random.default_rng(factor)
        x = rng.uniform(-1.0, 1.0, 4000 + factor - 1)
        taps = _decimation_taps(factor)
        reach = len(taps) // 2
        whole = Decimator(factor).feed(x)
        assert len(whole) == (len(x) - 1 - reach) // factor + 1
        np.testing.assert_allclose(
            whole, resample_poly(x, 1, factor, window=taps)[: len(whole)],
            rtol=0, atol=1e-13,
        )
        for _ in range(4):
            cuts = rng.choice(len(x) - 40, rng.integers(1, 30), replace=False)
            ones = rng.integers(0, len(x) - 40)  # a run of 1-sample pieces
            cuts = np.unique(np.concatenate((cuts, np.arange(ones, ones + 40))))
            decimator = Decimator(factor)
            pieces = [decimator.feed(piece) for piece in np.split(x, cuts)]
            assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("factor", DECIMATION_FACTORS)
    def test_taps_are_a_kaiser_sinc_with_gain_factor(self, factor):
        from scipy.signal import firwin

        taps = _decimation_taps(factor)
        designed = firwin(8 * factor + 1, 1.0 / factor, window=("kaiser", 6.0))
        np.testing.assert_allclose(taps, factor * designed, rtol=0, atol=1e-15)
        assert taps.sum() == pytest.approx(factor, rel=1e-14)
        # the sinc's zeros are exact, and the filter is symmetric
        offsets = np.arange(len(taps)) - len(taps) // 2
        assert np.all(taps[(offsets % factor == 0) & (offsets != 0)] == 0.0)
        assert np.array_equal(taps, taps[::-1])

    def test_does_not_clip(self):
        """The gain takes a full-scale square wave past 1; nothing is clipped
        or counted."""
        x = np.sign(np.sin(np.arange(8000) / 40.0))
        before = clip_stats.count
        out = Decimator(4).feed(x)
        assert np.abs(out).max() > 4.0
        assert clip_stats.count == before

    def test_factor_1_returns_its_input(self):
        x = np.array([0.5, -2.0, 0.25])
        decimator = Decimator(1)
        assert decimator.reach == 0
        assert np.array_equal(decimator.feed(x), x)

    def test_short_input_waits(self):
        decimator = Decimator(4)
        assert decimator.feed(np.ones(16)).size == 0  # output 0 reads sample 16
        assert decimator.feed(np.ones(1)).size == 1
        assert decimator.feed(np.ones(3)).size == 0
        assert decimator.feed(np.ones(1)).size == 1
