"""WAV codec, resampling and slicing behavior."""

import struct

import numpy as np
import pytest

from speechprint.audio import (
    MAX_RATE_TERM,
    AudioBuffer,
    clip_stats,
    decode_wav,
    dump_raw,
    encode_wav,
    resample,
    slice_seconds,
)
from speechprint.errors import (
    ConfigError,
    DecodeError,
    RangeError,
    UnsupportedFormat,
)


def pcm16_wav(values, rate=8000, channels=1):
    """Hand-built RIFF container around raw int16 values."""
    payload = np.asarray(values, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestDecode:
    def test_silence_decodes_to_zeros(self):
        buf = decode_wav(pcm16_wav(np.zeros(8000, dtype=np.int16)))
        assert buf.sample_rate == 8000
        assert len(buf) == 8000
        assert np.all(buf.samples == 0.0)

    def test_stereo_downmix_is_channel_mean(self):
        left = np.full(100, 16384, dtype=np.int16)
        right = np.full(100, -16384, dtype=np.int16)
        interleaved = np.empty(200, dtype=np.int16)
        interleaved[0::2] = left
        interleaved[1::2] = right
        buf = decode_wav(pcm16_wav(interleaved, channels=2))
        assert len(buf) == 100
        np.testing.assert_allclose(buf.samples, 0.0)

    def test_most_negative_code_maps_to_minus_one(self):
        buf = decode_wav(pcm16_wav([-32768, 32767]))
        assert buf.samples[0] == -1.0
        assert buf.samples[1] == pytest.approx(32767 / 32768)

    def test_not_riff_raises(self):
        with pytest.raises(DecodeError):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_truncated_chunk_raises(self):
        data = pcm16_wav(np.zeros(100, dtype=np.int16))
        with pytest.raises(DecodeError):
            decode_wav(data[:-50])

    def test_missing_data_chunk_raises(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        data = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        with pytest.raises(DecodeError):
            decode_wav(data)

    def test_unsupported_bit_depth_raises(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", 4) + b"\x00\x00\x00\x00"
        data = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        with pytest.raises(UnsupportedFormat):
            decode_wav(data)

    def test_unsupported_format_code_raises(self):
        fmt = struct.pack("<HHIIHH", 0x55, 1, 8000, 16000, 2, 16)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        data = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        with pytest.raises(UnsupportedFormat):
            decode_wav(data)

    @pytest.mark.parametrize(
        "rate",
        [1, 7919, 10_000, 11_025, 16_000, 22_050, 32_000, 44_100, 48_000, 192_000],
    )
    def test_rates_within_the_resampling_bound_decode(self, rate):
        """Every rate up to 10 kHz and the usual ones up to 192 kHz."""
        assert MAX_RATE_TERM == 10_000
        assert decode_wav(pcm16_wav([1, 2, 3], rate=rate)).sample_rate == rate

    def test_float32_input_clipped_and_counted(self):
        clip_stats.reset()
        payload = np.array([0.25, 1.5, -2.0], dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", len(payload)) + payload
        chunks += b"\x00" * (len(payload) & 1)
        data = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        buf = decode_wav(data)
        np.testing.assert_allclose(buf.samples, [0.25, 1.0, -1.0])
        assert clip_stats.count == 2


class TestEncodeRoundTrip:
    def test_pcm16_round_trip_is_sample_exact(self, rng):
        values = rng.integers(-32768, 32768, size=4000, dtype=np.int16)
        first = decode_wav(pcm16_wav(values, rate=16000))
        second = decode_wav(encode_wav(first))
        assert second.sample_rate == 16000
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_float32_round_trip(self, tone):
        buf = tone(440.0, 0.25, 8000)
        back = decode_wav(encode_wav(buf, bit_depth=32))
        np.testing.assert_allclose(back.samples, buf.samples, atol=1e-6)

    def test_bad_bit_depth_rejected(self, tone):
        with pytest.raises(ConfigError):
            encode_wav(tone(100.0, 0.1, 8000), bit_depth=24)

    def test_dump_raw_is_float32_stream(self, tone):
        buf = tone(100.0, 0.01, 8000)
        raw = np.frombuffer(dump_raw(buf), dtype="<f4")
        np.testing.assert_allclose(raw, buf.samples, atol=1e-6)


class TestBufferInvariants:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            AudioBuffer(np.zeros(10), 0)

    def test_rejects_non_mono(self):
        with pytest.raises(ConfigError):
            AudioBuffer(np.zeros((2, 10)), 8000)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            AudioBuffer(np.array([0.0, np.nan]), 8000)

    def test_samples_are_read_only(self):
        buf = AudioBuffer(np.zeros(4), 8000)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_duration(self):
        assert AudioBuffer(np.zeros(4000), 8000).duration_seconds == 0.5


class TestResample:
    def test_identity_when_rates_equal(self, tone):
        buf = tone(200.0, 0.5, 8000)
        assert resample(buf, 8000) is buf

    def test_length_ratio(self):
        buf = AudioBuffer(np.zeros(1000), 16000)
        assert len(resample(buf, 8000)) == 500

    def test_odd_length_rounds_half_up(self):
        buf = AudioBuffer(np.zeros(1001), 16000)
        # 1001 * 8000 / 16000 = 500.5 -> 501
        assert len(resample(buf, 8000)) == 501

    def test_tone_survives_downsample(self, tone):
        buf = tone(200.0, 1.0, 16000)
        out = resample(buf, 8000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * 8000 / len(out)
        assert abs(peak_hz - 200.0) <= 8000 / len(out)

    def test_down_up_round_trip_correlates(self, speech_clip):
        up = resample(speech_clip, 16000)
        back = resample(up, 8000)
        a, b = speech_clip.samples, back.samples
        corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert corr >= 0.99

    def test_rejects_bad_target(self, tone):
        with pytest.raises(ConfigError):
            resample(tone(100.0, 0.1, 8000), -1)

    @pytest.mark.parametrize(
        "source, up, down",
        [(16000, 1, 2), (11025, 320, 441), (44100, 80, 441), (4000, 2, 1)],
    )
    def test_equals_scipy_design_with_shared_taps(self, source, up, down):
        from scipy.signal import resample_poly

        from speechprint.audio import _clip_unit, _rate_filter

        rng = np.random.default_rng(source)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, source // 5 | 1), source)
        n_out = (2 * len(buf) * 8000 + source) // (2 * source)
        designed = resample_poly(buf.samples, up, down)  # scipy designs the filter
        designed = np.pad(designed[:n_out], (0, max(0, n_out - len(designed))))
        expected = _clip_unit(designed, "resample").tobytes()
        hits = _rate_filter.cache_info().hits
        for _ in range(2):  # the second call reuses the first call's taps
            assert resample(buf, 8000).samples.tobytes() == expected
        assert _rate_filter.cache_info().hits >= hits + 1
        taps = _rate_filter(up, down)
        assert _rate_filter(up, down) is taps and not taps.flags.writeable


def _change_rate_ratio(rate):
    from fractions import Fraction

    ratio = Fraction(rate).limit_denominator(10000)
    return ratio.denominator, ratio.numerator


# (up, down) before reduction: 11.025-48 kHz to 8 kHz, 8 kHz to 16 kHz,
# and change_rate's ratios at four sweep rates and a 4-digit denominator
RESAMPLER_RATIOS = [(8000, source) for source in (11025, 16000, 22050, 44100, 48000)]
RESAMPLER_RATIOS += [(16000, 8000)]
RESAMPLER_RATIOS += [_change_rate_ratio(r) for r in (0.97, 0.985, 1.015, 1.03, 1.0123)]


class TestResampler:
    @pytest.mark.parametrize("up, down", RESAMPLER_RATIOS)
    def test_any_split_equals_resample_poly(self, up, down):
        """Fed whole or in random pieces down to 1 sample, the outputs are
        resample_poly's, cut or zero-padded to n_out and clipped."""
        from math import gcd

        from scipy.signal import resample_poly

        from speechprint.audio import Resampler, _rate_filter, resampled_length

        g = gcd(up, down)
        rng = np.random.default_rng(up * 7919 + down)
        # louder than [-1, 1] in places, so the clip is exercised
        x = rng.uniform(-1.1, 1.1, 3 * down // g + 4000)
        designed = resample_poly(x, up, down, window=_rate_filter(up // g, down // g))
        for n_out in (resampled_length(len(x), down, up), len(designed) + 3):
            expected = np.clip(
                np.pad(designed[:n_out], (0, max(0, n_out - len(designed)))), -1, 1
            )
            splits = [[]]  # whole
            for _ in range(3):
                cuts = rng.choice(len(x) - 40, rng.integers(1, 30), replace=False)
                ones = rng.integers(0, len(x) - 40)  # a run of 1-sample pieces
                cuts = np.concatenate((cuts, np.arange(ones, ones + 40)))
                splits.append(np.unique(cuts))
            for k, cuts in enumerate(splits):
                resampler = Resampler(up, down, "test")
                *head, last = np.split(x, cuts)
                if k % 2:  # every piece fed, and finish given none
                    head, last = head + [last], ()
                pieces = [resampler.feed(p) for p in head]
                got = np.concatenate(pieces + [resampler.finish(n_out, last)])
                assert np.array_equal(got, expected)

    def test_clip_count_does_not_depend_on_the_split(self):
        from speechprint.audio import Resampler

        x = np.sign(np.sin(np.arange(16000) / 7.0))  # a square wave overshoots
        counts = []
        for cuts in ([], np.arange(500, 16000, 500)):
            before = clip_stats.count
            resampler = Resampler(8000, 16000, "test")
            for piece in np.split(x, cuts):
                resampler.feed(piece)
            resampler.finish(8000)
            counts.append(clip_stats.count - before)
        assert counts[0] == counts[1] > 0

    def test_equal_factors_copy(self):
        from speechprint.audio import Resampler

        x = np.array([0.5, -2.0, 0.25])
        resampler = Resampler(3, 3, "test")
        out = resampler.feed(x[:2])
        assert np.array_equal(out, [0.5, -1.0]) and not np.shares_memory(out, x)
        assert np.array_equal(resampler.finish(5, x[2:]), [0.25, 0.0, 0.0])
        assert np.array_equal(Resampler(2, 2, "test").finish(2, x), [0.5, -1.0])


class TestSlice:
    def test_whole_buffer_identity(self, tone):
        buf = tone(100.0, 10.0, 8000)
        out = slice_seconds(buf, 0.0, 10.0)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_out_of_range_raises(self, tone):
        buf = tone(100.0, 10.0, 8000)
        with pytest.raises(RangeError):
            slice_seconds(buf, 9.5, 1.0)

    def test_index_arithmetic(self, tone):
        buf = tone(100.0, 10.0, 8000)
        out = slice_seconds(buf, 2.0, 3.0)
        assert len(out) == 24000
        np.testing.assert_array_equal(out.samples, buf.samples[16000:40000])

    def test_slice_composition(self, speech_clip):
        a, b, c = 1.25, 3.0, 2.0
        outer = slice_seconds(speech_clip, a, b + c)
        left = slice_seconds(outer, 0.0, b)
        direct = slice_seconds(speech_clip, a, b)
        np.testing.assert_array_equal(left.samples, direct.samples)

    def test_negative_start_raises(self, tone):
        with pytest.raises(RangeError):
            slice_seconds(tone(100.0, 1.0, 8000), -0.1, 0.5)
