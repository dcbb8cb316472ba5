"""Block extraction, Haar transform, sign encoding, min-hash, streaming."""

from dataclasses import replace

import numpy as np
import pytest

from speechprint.audio import AudioBuffer
from speechprint.corpus import synth_speech_like
from speechprint.degrade import add_noise
from speechprint.errors import ConfigError, TooShort
from speechprint.fingerprint import (
    FingerprintConfig,
    Fingerprint,
    MinHasher,
    SparseBits,
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
    get_minhasher,
    haar2d,
    min_audio_seconds,
    top_t_signs,
    _haar_axis,
    _haar_live,
    _support,
)
from speechprint.hashing import mix64, splitmix64
from speechprint.index import RetrievalIndex
from speechprint.spectral import SpectralConfig, SpectralImage, Variant, make_image

from oracle import blocks, ihaar2d

SMALL = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=30)


def image_of(n_bins, n_frames, seed=0):
    data = np.abs(np.random.default_rng(seed).normal(size=(n_bins, n_frames)))
    cfg = SpectralConfig.for_variant("mel-vocal")
    return SpectralImage(data, cfg)


def v2_coefficients(image, cfg):
    """Version 2 coefficients of every block, from the per-block oracles.

    Each uncentred padded block is transformed along frequency, then along
    time; then its mean, the per-frame sums added pairwise in the Haar
    tree's order over n_bins * block_frames, times sqrt(block_frames) *
    H(1) comes off the time-DC column.
    """
    stack = blocks(image, cfg, centred=False)
    n_bins, width, hop = image.n_bins, cfg.block_frames, cfg.block_hop_frames
    freq = np.zeros(stack.shape)
    _haar_axis(stack[:, :n_bins], freq, axis=-2)
    coeffs = np.empty(stack.shape)
    _haar_axis(freq, coeffs, axis=-1)
    ones = np.zeros((stack.shape[1], 1))
    _haar_axis(np.ones((n_bins, 1)), ones, axis=-2)
    dc = np.sqrt(width) * ones[:, 0]
    frame_sums = np.ascontiguousarray(image.data.T).sum(axis=1)
    for k, block in enumerate(coeffs):
        total = frame_sums[k * hop : k * hop + width]
        while len(total) > 1:
            total = total[0::2] + total[1::2]
        block[:, 0] -= (total[0] / (n_bins * width)) * dc
    return coeffs


def v2_signatures(image, cfg):
    """The version 2 reference signatures: top-t and min-hash per block."""
    coeffs = v2_coefficients(image, cfg)
    hasher = get_minhasher(cfg.n_permutations, 2 * coeffs[0].size, cfg.seed)
    return hasher.signature(top_t_signs(coeffs, cfg.top_t))


class TestConfig:
    def test_block_frames_power_of_two(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(block_frames=48)
        # the min-hash layout is a class constant, not a setting
        cfg = FingerprintConfig(block_frames=64)
        assert cfg.n_permutations == cfg.band_count * cfg.band_width == 100
        with pytest.raises(TypeError):
            FingerprintConfig(block_frames=64, band_count=3)

    def test_hop_bounded_by_block(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(block_frames=32, block_hop_frames=33)


class TestBlocks:
    def test_single_block_when_exact(self):
        cfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        assert len(blocks(image_of(40, 128), cfg)) == 1

    def test_count_formula(self):
        cfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        got = blocks(image_of(40, 192), cfg)
        assert len(got) == (192 - 128) // 32 + 1 == 3

    def test_offsets_follow_hop(self):
        image = image_of(40, 192)
        cfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        got = blocks(image, cfg)
        for k, block in enumerate(got):
            window = image.data[:, 32 * k : 32 * k + 128]
            np.testing.assert_allclose(block[:40], window - window.mean())

    def test_rows_padded_to_power_of_two(self):
        cfg = FingerprintConfig(block_frames=32, block_hop_frames=32, top_t=30)
        block = blocks(image_of(40, 32), cfg)[0]
        assert block.shape == (64, 32)
        assert np.all(block[40:] == 0.0)

    def test_real_rows_are_centred(self):
        block = blocks(image_of(40, 32), SMALL)[0]
        assert block[:40].mean() == pytest.approx(0.0, abs=1e-12)

    def test_too_few_frames_raises(self):
        with pytest.raises(TooShort):
            blocks(image_of(40, 100), FingerprintConfig())

    @pytest.mark.parametrize("block_frames", [32, 256, 1024])
    def test_matches_per_block_reference_exactly(self, block_frames):
        """Centring is bit-identical to a mean over each block on its own."""
        image = image_of(26, block_frames + 12, seed=4)
        cfg = FingerprintConfig(block_frames=block_frames, block_hop_frames=3, top_t=8)
        got = blocks(image, cfg)
        assert got.shape == (5, 32, block_frames)
        for k, block in enumerate(got):
            want = np.zeros((32, block_frames))
            want[:26] = image.data[:, 3 * k : 3 * k + block_frames]
            want[:26] -= want[:26].mean()
            np.testing.assert_array_equal(block, want)

    def test_uncentred_blocks_are_the_windows(self):
        image = image_of(26, 40, seed=2)
        cfg = FingerprintConfig(block_frames=32, block_hop_frames=3, top_t=8)
        got = blocks(image, cfg, centred=False)
        assert got.shape == (3, 32, 32)
        for k, block in enumerate(got):
            np.testing.assert_array_equal(block[:26], image.data[:, 3 * k : 3 * k + 32])
            assert np.all(block[26:] == 0.0)

    def test_stack_matches_streaming_subs(self, speech_clip):
        """The stages run one after another on blocks() reproduce the stream."""
        cfg = SpectralConfig.for_variant("mel-vocal")
        signatures = v2_signatures(make_image(speech_clip, cfg), SMALL)
        fp = fingerprint_audio(speech_clip, cfg, SMALL)
        np.testing.assert_array_equal(signatures, fp.signatures)

    # 11.025 kHz linear-vocal has 47 real rows; with 32-frame blocks the
    # mel variants' 40 rows leave 1344 of 2048 coefficients possibly
    # non-zero, so top_t 1500 ranks more than the compact area
    @pytest.mark.parametrize(
        "variant,rate,top_t",
        [
            ("mel-vocal", 8000, 1344),
            ("mel-vocal", 8000, 1500),
            ("mel-wide", 16000, 2048),
            ("linear-vocal", 11025, 30),
            ("linear-vocal", 11025, 1568),
            ("linear-vocal", 11025, 1700),
        ],
    )
    def test_padded_reference_reproduces_the_stream(self, variant, rate, top_t):
        """The kernel on real rows gives the bits of whole padded blocks."""
        clip = synth_speech_like(3.0, rate, seed=5)
        spectral = SpectralConfig.for_variant(variant)
        cfg = FingerprintConfig(block_frames=32, block_hop_frames=3, top_t=top_t)
        signatures = v2_signatures(make_image(clip, spectral), cfg)
        fp = fingerprint_audio(clip, spectral, cfg)
        np.testing.assert_array_equal(signatures, fp.signatures)


class TestHaar:
    def test_constant_block_is_dc_only(self):
        block = np.full((8, 16), 3.0)
        coeffs = haar2d(block)
        assert coeffs[0, 0] == pytest.approx(3.0 * np.sqrt(8 * 16))
        coeffs[0, 0] = 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_two_by_two_oracle(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        coeffs = haar2d(np.array([[a, b], [c, d]]))
        assert coeffs[0, 0] == pytest.approx((a + b + c + d) / 2.0)
        assert coeffs[0, 1] == pytest.approx((a - b + c - d) / 2.0)
        assert coeffs[1, 0] == pytest.approx((a + b - c - d) / 2.0)
        assert coeffs[1, 1] == pytest.approx((a - b - c + d) / 2.0)

    def test_round_trip_identity(self, rng):
        block = rng.normal(size=(64, 32))
        np.testing.assert_allclose(ihaar2d(haar2d(block)), block, atol=1e-9)

    def test_preserves_l2_norm(self, rng):
        block = rng.normal(size=(16, 128))
        assert np.linalg.norm(haar2d(block)) == pytest.approx(
            np.linalg.norm(block), abs=1e-9
        )

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            haar2d(np.zeros((3, 4)))
        with pytest.raises(ConfigError):
            ihaar2d(np.zeros((4, 6)))
        with pytest.raises(ConfigError):
            haar2d(np.zeros((2, 3, 4)))

    def test_stack_equals_per_block(self, rng):
        stack = rng.normal(size=(5, 16, 8))
        coeffs = haar2d(stack)
        assert coeffs.shape == stack.shape
        for block, got in zip(stack, coeffs):
            np.testing.assert_array_equal(got, haar2d(block))
        np.testing.assert_allclose(ihaar2d(coeffs), stack, atol=1e-9)

    def test_input_left_untouched(self, rng):
        stack = rng.normal(size=(3, 4, 8))
        before = stack.copy()
        haar2d(stack)
        np.testing.assert_array_equal(stack, before)


class TestTopTSigns:
    def test_all_zero_gives_empty(self):
        bits = top_t_signs(np.zeros((4, 4)), 5)
        assert len(bits) == 0
        assert bits.dimension == 32

    def test_all_positive_full_t(self):
        coeffs = np.arange(1.0, 9.0).reshape(2, 4)
        bits = top_t_signs(coeffs, 8)
        np.testing.assert_array_equal(bits.indices, 2 * np.arange(8))

    def test_sign_encoding_oracle(self):
        bits = top_t_signs(np.array([[5.0, -3.0, 1.0, 0.0]]), 2)
        np.testing.assert_array_equal(bits.indices, [0, 3])

    def test_popcount_bounded_by_t(self, rng):
        coeffs = rng.normal(size=(8, 8))
        assert len(top_t_signs(coeffs, 10)) == 10

    def test_boundary_tie_prefers_lower_index(self):
        coeffs = np.array([[2.0, 1.0, -1.0, 1.0]])
        bits = top_t_signs(coeffs, 2)
        # three magnitude-1 candidates tie for the second slot; index 1 wins
        np.testing.assert_array_equal(bits.indices, [0, 2])

    def test_zeros_inside_top_set_no_bits(self):
        bits = top_t_signs(np.array([[1.0, 0.0, 0.0, 0.0]]), 3)
        # the two ranked zeros hold the no-bit marker, the dimension
        np.testing.assert_array_equal(bits.indices, [0, 8, 8])
        np.testing.assert_array_equal(real_bits(bits), [[0]])
        assert len(bits) == 1

    def test_rejects_bad_t(self):
        with pytest.raises(ConfigError):
            top_t_signs(np.ones((2, 2)), 0)

    def test_stack_equals_per_block(self, rng):
        stack = np.stack(
            [
                np.array([[2.0, 1.0, -1.0, 1.0]]),  # a tie at the cut
                np.array([[1.0, 0.0, 0.0, 0.0]]),  # zeros inside the top set
                np.zeros((1, 4)),  # no bits at all
                np.array([[-1.0, -1.0, -1.0, -1.0]]),  # every entry ties
                rng.normal(size=(1, 4)),
            ]
        )
        for t in (1, 2, 3, 4, 5):
            stacked = top_t_signs(stack, t)
            assert stacked.dimension == 8
            assert stacked.indices.shape == (len(stack), min(t, 4))
            assert len(stacked) == sum(len(top_t_signs(block, t)) for block in stack)
            for block, row in zip(stack, stacked.indices):
                np.testing.assert_array_equal(row, top_t_signs(block, t).indices)

    def test_single_block_gives_one_row(self):
        assert top_t_signs(np.ones((2, 2)), 2).indices.shape == (2,)
        assert top_t_signs(np.ones((1, 2, 2)), 2).indices.shape == (1, 2)


def real_bits(bits: SparseBits) -> list[np.ndarray]:
    """The set bits of each vector of a stack, or of a single vector: the
    entries below the dimension, ascending."""
    return [row[row < bits.dimension] for row in np.atleast_2d(bits.indices)]


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bits, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def zero_padded(stack: np.ndarray, height: int) -> np.ndarray:
    padded = np.zeros(stack.shape[:-2] + (height, stack.shape[-1]))
    padded[..., : stack.shape[-2], :] = stack
    return padded


class TestRealRowKernel:
    """haar2d and top_t_signs on a block's real rows give the bits of the
    padded reference, top_t_signs(haar2d(zero-padded block), t)."""

    def check(self, stack: np.ndarray, height: int, t: int) -> None:
        real_rows = stack.shape[-2]
        padded = zero_padded(stack, height)
        want_coeffs = haar2d(padded)
        got_coeffs = haar2d(stack, height)
        assert bitwise_equal(got_coeffs, want_coeffs)
        want = top_t_signs(want_coeffs, t)
        live, _flat = _support(real_rows, height, stack.shape[-1])
        compact = got_coeffs[..., live, :]
        # the frequency pass alone, on the live rows only
        freq = np.zeros(padded.shape)
        _haar_axis(stack, freq, axis=-2)
        freq_live = _haar_live(np.swapaxes(stack, -1, -2), height)
        assert bitwise_equal(np.swapaxes(freq_live, -1, -2), freq[..., live, :])
        got = top_t_signs(compact, t, real_rows=real_rows, height=height)
        assert got.dimension == want.dimension == 2 * height * stack.shape[-1]
        # a row of the compact area may be narrower and hold its markers
        # elsewhere, never other bits
        assert got.indices.ndim == want.indices.ndim == stack.ndim - 1
        got_rows, want_rows = real_bits(got), real_bits(want)
        assert len(got_rows) == len(want_rows)
        for got_row, want_row in zip(got_rows, want_rows):
            np.testing.assert_array_equal(got_row, want_row)

    @staticmethod
    def compact_area(real_rows: int, height: int, cols: int) -> int:
        """Coefficients of a random block the padding does not force to zero."""
        block = np.random.default_rng(1).normal(size=(real_rows, cols))
        return int(np.count_nonzero(haar2d(zero_padded(block, height))))

    # odd real row counts pair their last row with a padding zero
    @pytest.mark.parametrize(
        "real_rows,height",
        [(40, 64), (47, 64), (33, 64), (63, 64), (13, 16), (5, 8), (3, 4),
         (1, 1), (1, 8), (32, 32)],
    )
    def test_random_stacks(self, rng, real_rows, height):
        stack = rng.normal(size=(6, real_rows, 16))
        for t in (1, 7, 25, 100):
            self.check(stack, height, t)

    def test_magnitude_ties_at_the_cut(self, rng):
        # few distinct integer values give many equal coefficient magnitudes
        stack = rng.integers(-2, 3, size=(8, 40, 8)).astype(np.float64)
        for t in (1, 2, 5, 16, 40, 100, 300):
            self.check(stack, 64, t)

    def test_all_zero_real_block(self, rng):
        stack = rng.normal(size=(3, 40, 8))
        stack[1] = 0.0
        stack[2, :, :] = -0.0
        for t in (1, 25, 336, 512):
            self.check(stack, 64, t)
        live, _flat = _support(40, 64, 8)
        assert len(top_t_signs(haar2d(stack[1], 64)[live], 25, 40, 64)) == 0

    def test_single_block(self, rng):
        block = rng.normal(size=(40, 32))
        self.check(block[None], 64, 25)
        self.check(block, 64, 25)

    # 40 real rows leave 22 of the 64 coefficient rows zero, 47 leave 15
    @pytest.mark.parametrize("real_rows,live_rows,cols", [(40, 42, 8), (47, 49, 4)])
    def test_top_t_around_the_compact_area(self, rng, real_rows, live_rows, cols):
        compact = self.compact_area(real_rows, 64, cols)
        assert compact == live_rows * cols
        stack = rng.normal(size=(5, real_rows, cols))
        for t in (compact - 1, compact, compact + 1, compact + 60, 64 * cols):
            self.check(stack, 64, t)

    def test_height_must_be_a_power_of_two_at_least_the_rows(self):
        with pytest.raises(ConfigError):
            haar2d(np.zeros((40, 8)), 48)
        with pytest.raises(ConfigError):
            haar2d(np.zeros((40, 8)), 32)
        with pytest.raises(ConfigError):
            haar2d(np.zeros((40, 6)), 64)
        with pytest.raises(ConfigError):
            haar2d(np.zeros((0, 8)), 8)

    def test_input_left_untouched(self, rng):
        stack = rng.normal(size=(3, 5, 8))
        before = stack.copy()
        haar2d(stack, 8)
        np.testing.assert_array_equal(stack, before)

    def test_compact_rows_must_match_the_support(self, rng):
        coeffs = rng.normal(size=(2, 40, 8))
        with pytest.raises(ConfigError, match="leave 42 coefficient rows"):
            top_t_signs(coeffs, 5, real_rows=40, height=64)
        with pytest.raises(ConfigError, match="leave 42 coefficient rows"):
            top_t_signs(rng.normal(size=(2, 64, 8)), 5, real_rows=40)


# the blocks/hop geometries the version 2 kernel is checked at: the
# benchmark's, the library's, the library's dense and an odd hop
V2_GEOMETRIES = {
    "32/1": FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=30),
    "128/32": FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200),
    "128/1": FingerprintConfig(block_frames=128, block_hop_frames=1, top_t=200),
    "256/3": FingerprintConfig(block_frames=256, block_hop_frames=3, top_t=200),
}


class TestVersion2Kernel:
    """The streaming kernel equals the per-block version 2 reference, bit
    for bit in every coefficient, however the audio is fed. (A coefficient
    off by an ulp rarely moves a signature, so signatures alone would not
    show it.)"""

    @staticmethod
    def fed(clip, spectral, cfg, chunk, monkeypatch):
        """Signatures of the clip fed in ``chunk``-sample pieces, and the
        coefficient stacks the kernel ranked, back to back."""
        from speechprint import fingerprint

        stacks = []
        top_t = fingerprint.top_t_signs

        def capture(coeffs, t, real_rows=None, height=None):
            stacks.append(coeffs.copy())
            return top_t(coeffs, t, real_rows, height)

        monkeypatch.setattr(fingerprint, "top_t_signs", capture)
        streamer = StreamingFingerprinter(clip.sample_rate, spectral, cfg)
        rows = [
            streamer.feed(clip.samples[start : start + chunk])
            for start in range(0, len(clip), chunk)
        ]
        streamer.finish()
        monkeypatch.undo()
        return np.concatenate(rows), np.concatenate(stacks)

    # 11.025 kHz linear-vocal has 47 real rows, 8 and 16 kHz 32; the mel
    # variants have 40 at every rate
    @pytest.mark.parametrize("geometry", sorted(V2_GEOMETRIES))
    @pytest.mark.parametrize("rate", [8000, 11025, 16000])
    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_stream_equals_reference(self, variant, rate, geometry, monkeypatch):
        cfg = V2_GEOMETRIES[geometry]
        spectral = SpectralConfig.for_variant(variant)
        clip = synth_speech_like(9.0, rate, seed=11)
        image = make_image(clip, spectral)
        coeffs = v2_coefficients(image, cfg)
        live, _flat = _support(image.n_bins, coeffs.shape[1], cfg.block_frames)
        want = v2_signatures(image, cfg)
        assert len(want) >= 8
        hop = round(cfg.block_hop_frames * spectral.stride_s * rate)
        for chunk in (57, hop, len(clip)):
            signatures, got = self.fed(clip, spectral, cfg, chunk, monkeypatch)
            assert bitwise_equal(got, coeffs[:, live])
            np.testing.assert_array_equal(signatures, want)

    # hop equal to the block, hops that share 16 or 4 frames with the
    # block's powers of two (so levels stride over their lattice), and
    # blocks of one and two frames, on 4 s of speech fed whole; then
    # other audio at the benchmark's and the library's geometry: 40 s,
    # whose blocks span several runs of one time recursion when fed
    # whole; silence, every coefficient zero and every slot a marker;
    # and speech rounded to whole units, nearly silent, whose magnitudes
    # tie at the cut, zeros and non-zeros alike
    @pytest.mark.parametrize(
        "audio,width,hop,top_t,pieces",
        [
            pytest.param("speech", 32, 32, 20, False, id="32-32"),
            pytest.param("speech", 64, 48, 20, False, id="64-48"),
            pytest.param("speech", 16, 12, 20, False, id="16-12"),
            pytest.param("speech", 2, 1, 20, False, id="2-1"),
            pytest.param("speech", 1, 1, 20, False, id="1-1"),
            pytest.param("long", 32, 1, 30, True, id="long-32-1"),
            pytest.param("silence", 32, 1, 30, True, id="silence-32-1"),
            pytest.param("silence", 128, 32, 200, True, id="silence-128-32"),
            pytest.param("rounded", 32, 1, 30, True, id="rounded-32-1"),
            pytest.param("rounded", 128, 32, 200, True, id="rounded-128-32"),
        ],
    )
    def test_other_geometries_equal_reference(
        self, audio, width, hop, top_t, pieces, monkeypatch
    ):
        cfg = FingerprintConfig(block_frames=width, block_hop_frames=hop, top_t=top_t)
        spectral = SpectralConfig.for_variant("mel-vocal")
        clip = {
            "speech": lambda: synth_speech_like(4.0, 8000, seed=13),
            "long": lambda: synth_speech_like(40.0, 8000, seed=13),
            "silence": lambda: AudioBuffer(np.zeros(9 * 8000), 8000),
            "rounded": lambda: AudioBuffer(
                np.round(synth_speech_like(9.0, 8000, seed=11).samples), 8000
            ),
        }[audio]()
        image = make_image(clip, spectral)
        coeffs = v2_coefficients(image, cfg)
        live, _flat = _support(image.n_bins, coeffs.shape[1], width)
        want = v2_signatures(image, cfg)
        if audio == "long":
            assert len(want) > 2 * StreamingFingerprinter(8000, spectral, cfg)._max_run
        if audio == "silence":
            assert not np.any(coeffs) and np.all(want == 255)
        for chunk in (len(clip), 57) if pieces else (len(clip),):
            signatures, got = self.fed(clip, spectral, cfg, chunk, monkeypatch)
            assert bitwise_equal(got, coeffs[:, live])
            np.testing.assert_array_equal(signatures, want)

    @pytest.mark.parametrize("geometry", sorted(V2_GEOMETRIES))
    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_coefficients_agree_with_version_1(self, variant, geometry):
        """Centring after the transform equals centring first in exact
        arithmetic: each block's coefficients are within 1e-12 times its
        norm of haar2d of the version 1 centred block."""
        cfg = V2_GEOMETRIES[geometry]
        image = make_image(synth_speech_like(7.0, 8000, seed=12), SpectralConfig.for_variant(variant))
        got = v2_coefficients(image, cfg)
        want = haar2d(blocks(image, cfg))
        norms = np.linalg.norm(blocks(image, cfg, centred=False), axis=(1, 2))
        error = np.abs(got - want).max(axis=(1, 2))
        assert np.all(error <= 1e-12 * norms)
        assert np.any(got != want)  # the definitions differ in rounding


class TestMinHash:
    def test_empty_set_is_all_cap(self):
        hasher = get_minhasher(SMALL.n_permutations, 4096, SMALL.seed)
        sig = hasher.signature(SparseBits(np.array([], dtype=np.int64), 4096))
        assert sig.dtype == np.uint8
        assert np.all(sig == 255)

    def test_determinism(self):
        bits = SparseBits(np.array([3, 100, 999]), 4096)
        a = get_minhasher(SMALL.n_permutations, 4096, SMALL.seed).signature(bits)
        b = get_minhasher(SMALL.n_permutations, 4096, SMALL.seed).signature(bits)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_signature(self):
        bits = SparseBits(np.arange(0, 4096, 37), 4096)
        a = get_minhasher(100, 4096, 1).signature(bits)
        b = get_minhasher(100, 4096, 2).signature(bits)
        assert np.any(a != b)

    def test_permutations_are_bijections(self):
        """Each permutation gives positions 0-254 to one bit each and caps
        the other 257 at 255; the marker row is 255 throughout."""
        hasher = MinHasher(8, 512, seed=42)
        capped = np.minimum(np.arange(512), 255)
        for column in hasher.table[:512].T:
            assert np.array_equal(np.sort(column), capped)
        assert np.all(hasher.table[512] == 255)

    @pytest.mark.parametrize(
        "n_permutations, dimension, seed",
        [(1, 1, 0), (5, 3, -5), (17, 1000, 2**64 - 1), (100, 4096, 0x5EED), (0, 8, 1)],
    )
    def test_table_equals_one_stable_sort_per_permutation(
        self, n_permutations, dimension, seed
    ):
        """The one-pass capped table against the reference: a stable sort a
        row, capped at 255, plus the marker row."""
        base = np.arange(dimension, dtype=np.uint64)
        want = np.full((dimension + 1, n_permutations), 255, dtype=np.int64)
        for j in range(n_permutations):
            keys = splitmix64(base ^ np.uint64(mix64(seed * 0x1F123BB5 + j)))
            want[np.argsort(keys, kind="stable"), j] = np.arange(dimension)
        hasher = MinHasher(n_permutations, dimension, seed)
        assert hasher.table.dtype == np.uint8 and hasher.table.flags.c_contiguous
        np.testing.assert_array_equal(hasher.table, np.minimum(want, 255))

    def test_match_fraction_estimates_jaccard(self, rng):
        """Mean |match fraction - exact Jaccard| stays within 0.05 at p=1000."""
        hasher = MinHasher(1000, 2048, seed=9)
        errors = []
        for _ in range(100):
            a = rng.random(2048) < 0.05
            b = rng.random(2048) < 0.05
            if not (a.any() and b.any()):
                continue
            jaccard = (a & b).sum() / (a | b).sum()
            sig_a = hasher.signature(SparseBits(np.flatnonzero(a), 2048))
            sig_b = hasher.signature(SparseBits(np.flatnonzero(b), 2048))
            errors.append(abs((sig_a == sig_b).mean() - jaccard))
        assert np.mean(errors) <= 0.05

    def test_dimension_mismatch_rejected(self):
        hasher = MinHasher(10, 64, seed=0)
        with pytest.raises(ConfigError):
            hasher.signature(SparseBits(np.array([1]), 128))

    def test_stack_equals_per_vector(self):
        """Rows padded with the no-bit marker hash as their set bits alone,
        and the signature is the least capped position of any of them."""
        hasher = MinHasher(20, 300, seed=3)
        vectors = [[], [5], [0, 7, 299], [], [1, 2, 3, 4, 40], []]
        rows = np.full((len(vectors), 5), 300)
        for row, vector in zip(rows, vectors):
            row[: len(vector)] = vector
        stacked = SparseBits(rows, 300)
        assert len(stacked) == 9
        signatures = hasher.signature(stacked)
        assert signatures.shape == (len(vectors), 20)
        assert signatures.dtype == np.uint8
        for vector, got in zip(vectors, signatures):
            want = hasher.signature(SparseBits(np.array(vector, dtype=np.int64), 300))
            np.testing.assert_array_equal(got, want)
            least = hasher.table[vector].min(axis=0) if vector else 255
            np.testing.assert_array_equal(got, np.broadcast_to(least, (20,)))
        assert np.all(signatures[0] == 255) and np.all(signatures[-1] == 255)

    def test_indices_are_a_vector_or_rows(self):
        with pytest.raises(ConfigError):
            SparseBits(np.zeros((2, 2, 2), dtype=np.int64), 64)
        with pytest.raises(ConfigError):
            SparseBits(np.array(3), 64)

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ConfigError):
            SparseBits(np.array([3, 65, 5]), 64)
        with pytest.raises(ConfigError):
            SparseBits(np.array([[3, 64], [-1, 5]]), 64)
        # the dimension itself is the no-bit marker
        assert len(SparseBits(np.array([3, 64, 5]), 64)) == 2


class TestFingerprintAudio:
    CFG = SpectralConfig.for_variant("mel-vocal")

    def test_sub_count_formula(self, speech_clip):
        fcfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        fp = fingerprint_audio(speech_clip, self.CFG, fcfg)
        # 10 s at 25 ms stride = 397 full frames -> floor((397-128)/32)+1
        assert fp.signatures.shape == ((397 - 128) // 32 + 1, 100) == (9, 100)

    def test_determinism(self, speech_clip):
        a = fingerprint_audio(speech_clip, self.CFG, SMALL)
        b = fingerprint_audio(speech_clip, self.CFG, SMALL)
        np.testing.assert_array_equal(a.signatures, b.signatures)

    def test_shift_covariance(self, speech_clip):
        """Dropping exactly one block hop of audio shifts sub indices by one."""
        from speechprint.audio import AudioBuffer

        fcfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        cut = round(32 * self.CFG.stride_s * speech_clip.sample_rate)
        shifted = AudioBuffer(
            speech_clip.samples[cut:], speech_clip.sample_rate
        )
        full = fingerprint_audio(speech_clip, self.CFG, fcfg)
        late = fingerprint_audio(shifted, self.CFG, fcfg)
        n = len(late.signatures) - 1
        np.testing.assert_array_equal(full.signatures[1 : n + 1], late.signatures[:n])

    def test_too_short_raises(self, tone):
        with pytest.raises(TooShort):
            fingerprint_audio(tone(200.0, 0.5, 8000), self.CFG, SMALL)

    def test_min_audio_seconds_is_tight(self, tone):
        need = min_audio_seconds(self.CFG, SMALL)
        fp = fingerprint_audio(tone(200.0, need + 0.001, 8000), self.CFG, SMALL)
        assert len(fp.signatures) == 1
        with pytest.raises(TooShort):
            fingerprint_audio(tone(200.0, need - 0.03, 8000), self.CFG, SMALL)

    def test_digest_tracks_config(self):
        base = config_digest(self.CFG, SMALL, 8000)
        assert base == config_digest(self.CFG, SMALL, 8000)
        other_rate = config_digest(self.CFG, SMALL, 16000)
        other_stride = config_digest(
            SpectralConfig.for_variant("mel-vocal", stride_s=0.05), SMALL, 8000
        )
        assert len({base, other_rate, other_stride}) == 3


LIBRARY = FingerprintConfig()
# input samples that complete the first library block: 128 frames of the
# input grid, plus the decimation filter's reach past the last one's end
# less the factor's other phases (16 - 3 samples at 8 kHz, 32 - 7 at
# 16 kHz for the vocal variants, 8 - 1 for mel-wide at 16 kHz). At
# 11.025 kHz nothing is decimated, and the frames are 1103 samples with a
# 276-sample hop, 48 samples more than 3.275 s
LIBRARY_MINIMUM = {
    ("linear-vocal", 8000): 26213,
    ("mel-vocal", 8000): 26213,
    ("mel-wide", 8000): 26200,
    ("linear-vocal", 11025): 36155,
    ("mel-vocal", 11025): 36155,
    ("mel-wide", 11025): 36155,
    ("linear-vocal", 16000): 52425,
    ("mel-vocal", 16000): 52425,
    ("mel-wide", 16000): 52407,
}


class TestLengthBoundary:
    """min_audio_seconds is exact at the input rate, for every variant."""

    @pytest.mark.parametrize("rate", [8000, 11025, 16000])
    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_minimum_yields_one_block_and_one_less_none(self, variant, rate):
        spectral = SpectralConfig.for_variant(variant)
        need = round(min_audio_seconds(spectral, LIBRARY, rate) * rate)
        assert need == LIBRARY_MINIMUM[(variant, rate)]
        samples = synth_speech_like(need / rate + 0.1, rate, seed=41).samples
        fp = fingerprint_audio(AudioBuffer(samples[:need], rate), spectral, LIBRARY)
        assert len(fp.signatures) == 1
        with pytest.raises(TooShort):
            fingerprint_audio(AudioBuffer(samples[: need - 1], rate), spectral, LIBRARY)
        for n, blocks_wanted in ((need, 1), (need - 1, 0)):
            streamer = StreamingFingerprinter(rate, spectral, LIBRARY)
            rows = [streamer.feed(samples[i : min(i + 997, n)]) for i in range(0, n, 997)]
            assert len(np.concatenate(rows)) == streamer.blocks_emitted == blocks_wanted
            assert streamer.seconds_consumed == n / rate
            if blocks_wanted:
                streamer.finish()
                np.testing.assert_array_equal(np.concatenate(rows), fp.signatures)
            else:
                with pytest.raises(TooShort):
                    streamer.finish()

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_six_seconds_complete_four_library_blocks(self, variant):
        """The first decision point still has four blocks: the fourth's
        last frame ends at 5.675 s, and the reach adds 13 samples."""
        spectral = SpectralConfig.for_variant(variant)
        streamer = StreamingFingerprinter(8000, spectral, LIBRARY)
        streamer.feed(synth_speech_like(6.0, 8000, seed=42).samples)
        assert streamer.blocks_emitted == 4
        fourth = min_audio_seconds(spectral, LIBRARY) + 3 * 32 * spectral.stride_s
        assert fourth < 6.0


class TestStreaming:
    CFG = SpectralConfig.for_variant("mel-vocal")

    @pytest.mark.parametrize("chunk", [160, 1000, 8000, 1_000_000])
    def test_any_chunking_matches_batch(self, speech_clip, chunk):
        batch = fingerprint_audio(speech_clip, self.CFG, SMALL)
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        rows = [
            streamer.feed(speech_clip.samples[start : start + chunk])
            for start in range(0, len(speech_clip), chunk)
        ]
        streamer.finish()
        assert streamer.blocks_emitted == len(batch.signatures)
        np.testing.assert_array_equal(np.concatenate(rows), batch.signatures)

    def test_subs_arrive_as_blocks_complete(self, speech_clip):
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        need = min_audio_seconds(self.CFG, SMALL)
        first = streamer.feed(speech_clip.samples[: round(need * 8000) + 1])
        assert first.shape == (1, SMALL.n_permutations) and first.dtype == np.uint8
        assert streamer.feed(np.zeros(10)).shape == (0, SMALL.n_permutations)

    def test_finish_raises_when_never_filled(self):
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        streamer.feed(np.zeros(4000))
        with pytest.raises(TooShort):
            streamer.finish()

    def test_buffer_stays_bounded(self, speech_clip):
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        for start in range(0, len(speech_clip), 800):
            streamer.feed(speech_clip.samples[start : start + 800])
            assert len(streamer._buffer) <= 2 * 800 + 800

    def test_top_t_beyond_block_area_rejected(self):
        big_t = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=4096)
        with pytest.raises(ConfigError):
            StreamingFingerprinter(8000, self.CFG, big_t)

    def test_stacks_sized_by_real_row_area(self, speech_clip, monkeypatch):
        """A stack holds STACK_ELEMENTS of real rows: 25 blocks of 40 x 32."""
        from speechprint import fingerprint

        sizes = []
        top_t = fingerprint.top_t_signs

        def counting_top_t(coeffs, t, real_rows=None, height=None):
            sizes.append(coeffs.shape)
            return top_t(coeffs, t, real_rows, height)

        monkeypatch.setattr(fingerprint, "top_t_signs", counting_top_t)
        fp = fingerprint_audio(speech_clip, self.CFG, SMALL)
        assert fingerprint.STACK_ELEMENTS // (40 * 32) == 25
        # 40 real rows padded to 64 leave 42 coefficient rows
        assert sizes[0] == (25, 42, 32)
        assert sum(n for n, _rows, _cols in sizes) == len(fp.signatures)
        assert len(sizes) == -(-len(fp.signatures) // 25)

    def test_top_t_limit_is_the_padded_area(self):
        """40 real rows pad to 64, so 32-frame blocks allow top_t <= 2048."""
        cfg = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=2049)
        message = "top_t 2049 exceeds padded block area 2048"
        with pytest.raises(ConfigError, match=message):
            StreamingFingerprinter(8000, self.CFG, cfg)
        StreamingFingerprinter(8000, self.CFG, replace(cfg, top_t=2048))


def mixed_width_rows():
    """Two signatures of 100 and 98 bytes, as a list of rows would hold them."""
    rows = np.empty(2, dtype=object)
    rows[:] = [np.zeros(100, np.uint8), np.ones(98, np.uint8)]
    return rows


class TestFingerprintColumns:
    @pytest.mark.parametrize(
        "signatures",
        [
            np.zeros(100, np.uint8),
            np.zeros((2, 4, 25), np.uint8),
            np.zeros((2, 100), np.int64),
            np.zeros((2, 100)),
            mixed_width_rows(),
        ],
        ids=["1-D", "3-D", "int64", "float", "mixed-width"],
    )
    def test_signatures_must_be_a_uint8_matrix(self, signatures):
        with pytest.raises(ConfigError, match="2-D uint8"):
            Fingerprint(1, signatures)

    def test_a_block_column_in_third_place_is_refused(self):
        """The third field is the config digest: a caller that still passes
        a block column there fails at once."""
        with pytest.raises(ConfigError, match="config digest"):
            Fingerprint(1, np.zeros((3, 100), np.uint8), np.arange(3))

    def test_columns_are_read_only(self):
        signatures = np.zeros((3, 100), np.uint8)
        fp = Fingerprint(1, signatures)
        assert np.shares_memory(fp.signatures, signatures)
        with pytest.raises(ValueError):
            fp.signatures[0, 0] = 1
        # the caller's array stays writable
        signatures[0, 0] = 1

    @pytest.mark.parametrize(
        "file_id,digest",
        [(-1, 0), (2**64, 0), (0, 2**64), (0, -1)],
        ids=["id-1", "id-2^64", "digest-2^64", "digest-1"],
    )
    def test_out_of_range_id_or_digest_refused(self, file_id, digest):
        """Ids and config digests must fit the u64 an index file stores;
        any other value stops at construction with ConfigError."""
        with pytest.raises(ConfigError, match="outside"):
            Fingerprint(file_id, np.zeros((1, 100), np.uint8), digest)

    @pytest.mark.parametrize("file_id", [1.5, True, 3.0], ids=["1.5", "True", "3.0"])
    def test_non_integer_id_refused(self, speech_clip, file_id):
        """An index file stores the id as a u64, so 1.5 would load as 1
        and True as 1: neither is a file id."""
        with pytest.raises(ConfigError, match="file id must be an integer"):
            Fingerprint(file_id, np.zeros((1, 100), np.uint8))
        with pytest.raises(ConfigError, match="file id must be an integer"):
            fingerprint_audio(
                speech_clip, SpectralConfig.for_variant("mel-vocal"), SMALL, file_id
            )

    def test_bool_digest_refused(self):
        with pytest.raises(ConfigError, match="config digest must be an integer"):
            Fingerprint(1, np.zeros((1, 100), np.uint8), True)

    def test_numpy_integer_id_held_as_int(self, tmp_path):
        """A numpy integer id and digest are held as ``int``, so the id
        reads the same before and after an index save and load."""
        digest = np.uint64(2**64 - 1)
        fp = Fingerprint(np.int64(3), np.zeros((1, 100), np.uint8), digest)
        assert type(fp.file_id) is int and fp.file_id == 3
        assert type(fp.config_digest) is int and fp.config_digest == 2**64 - 1
        index = RetrievalIndex.for_config(fp.config_digest, FingerprintConfig())
        index.enroll(fp)
        index.save(tmp_path / "one.spix")
        loaded = RetrievalIndex.load(tmp_path / "one.spix")
        assert loaded.file_ids == [3]
        assert loaded.query(fp).file_id == 3


class TestRobustnessSmoke:
    def test_band_keys_survive_noise_but_not_content_change(self):
        """20 dB noise keeps >=30% of band keys; other audio shares <=5%.

        Measured on the wide-band variant: broadband noise lands flat
        across the spectrum, so the narrow vocal band sees a worse
        effective SNR than the clip-level figure and its raw key
        survival sits lower (retrieval absorbs that through the
        2-of-20-bands vote rather than through key identity).
        """
        from speechprint.corpus import synth_speech_like

        cfg = SpectralConfig.for_variant("mel-wide")
        original = synth_speech_like(8.0, 8000, seed=100)
        other = synth_speech_like(8.0, 8000, seed=101)
        noisy = add_noise(original, 20.0, seed=5)

        index = RetrievalIndex.for_config(config_digest(cfg, SMALL, 8000), SMALL)

        def band_keys(buf):
            fp = fingerprint_audio(buf, cfg, SMALL)
            digests = index._band_digests(fp.signatures)
            return {
                (band, int(key))
                for row in digests
                for band, key in enumerate(row)
            }

        base = band_keys(original)
        noisy_keys = band_keys(noisy)
        other_keys = band_keys(other)
        assert len(noisy_keys & base) / len(noisy_keys) >= 0.30
        assert len(other_keys & base) / len(other_keys) <= 0.05
