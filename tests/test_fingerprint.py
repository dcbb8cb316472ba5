"""Block extraction, Haar transform, sign encoding, min-hash, streaming."""

from dataclasses import replace

import numpy as np
import pytest

from speechprint.corpus import synth_speech_like
from speechprint.degrade import add_noise
from speechprint.errors import ConfigError, CorruptIndex, TooShort
from speechprint.fingerprint import (
    FingerprintConfig,
    Fingerprint,
    MinHasher,
    SparseBits,
    StreamingFingerprinter,
    SubFingerprint,
    blocks,
    config_digest,
    deserialize_fingerprint,
    fingerprint_audio,
    get_minhasher,
    haar2d,
    ihaar2d,
    min_audio_seconds,
    serialize_fingerprint,
    top_t_signs,
)
from speechprint.index import RetrievalIndex
from speechprint.spectral import SpectralConfig, SpectralImage, Variant, make_image

SMALL = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=30)


def image_of(n_bins, n_frames, seed=0):
    data = np.abs(np.random.default_rng(seed).normal(size=(n_bins, n_frames)))
    cfg = SpectralConfig.for_variant("mel-vocal")
    return SpectralImage(data, frame_stride_s=cfg.stride_s, config=cfg)


class TestConfig:
    def test_band_product_must_match_permutations(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(band_count=3, band_width=5, n_permutations=100)

    def test_block_frames_power_of_two(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(block_frames=48)

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

    def test_stack_matches_streaming_subs(self, speech_clip):
        """The stages run one after another on blocks() reproduce the stream."""
        cfg = SpectralConfig.for_variant("mel-vocal")
        stack = blocks(make_image(speech_clip, cfg), SMALL)
        hasher = get_minhasher(SMALL.n_permutations, 2 * stack[0].size, SMALL.seed)
        signatures = hasher.signature(top_t_signs(haar2d(stack), SMALL.top_t))
        fp = fingerprint_audio(speech_clip, cfg, SMALL)
        np.testing.assert_array_equal(signatures, fp.signature_matrix)

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
        stack = blocks(make_image(clip, spectral), cfg)
        hasher = get_minhasher(cfg.n_permutations, 2 * stack[0].size, cfg.seed)
        signatures = hasher.signature(top_t_signs(haar2d(stack), cfg.top_t))
        fp = fingerprint_audio(clip, spectral, cfg)
        np.testing.assert_array_equal(signatures, fp.signature_matrix)


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
        np.testing.assert_array_equal(bits.indices, [0])

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
            assert stacked.counts.tolist() == [
                len(top_t_signs(block, t)) for block in stack
            ]
            pieces = np.split(stacked.indices, np.cumsum(stacked.counts)[:-1])
            for block, piece in zip(stack, pieces):
                np.testing.assert_array_equal(piece, top_t_signs(block, t).indices)

    def test_single_block_has_no_counts(self):
        assert top_t_signs(np.ones((2, 2)), 2).counts is None


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
        got = top_t_signs(got_coeffs, t, real_rows=real_rows)
        assert got.dimension == want.dimension == 2 * height * stack.shape[-1]
        np.testing.assert_array_equal(got.indices, want.indices)
        if want.counts is None:
            assert got.counts is None
        else:
            np.testing.assert_array_equal(got.counts, want.counts)

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
        assert len(top_t_signs(haar2d(stack[1], 64), 25, real_rows=40)) == 0

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
        hasher = MinHasher(8, 512, seed=42)
        for row in hasher._positions:
            assert np.array_equal(np.sort(row), np.arange(512))

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
        hasher = MinHasher(20, 64, seed=3)
        vectors = [[], [5], [0, 7, 63], [], [1, 2, 3, 4, 40], []]
        stacked = SparseBits(
            np.concatenate([np.array(v, dtype=np.int64) for v in vectors]),
            64,
            [len(v) for v in vectors],
        )
        signatures = hasher.signature(stacked)
        assert signatures.shape == (len(vectors), 20)
        assert signatures.dtype == np.uint8
        for vector, got in zip(vectors, signatures):
            want = hasher.signature(SparseBits(np.array(vector, dtype=np.int64), 64))
            np.testing.assert_array_equal(got, want)
        assert np.all(signatures[0] == 255) and np.all(signatures[-1] == 255)

    def test_counts_must_cover_indices(self):
        with pytest.raises(ConfigError):
            SparseBits(np.array([1, 2, 3]), 64, [1, 1])
        with pytest.raises(ConfigError):
            SparseBits(np.array([1, 2]), 64, [3, -1])

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ConfigError):
            SparseBits(np.array([3, 64, 5]), 64, [3])


class TestFingerprintAudio:
    CFG = SpectralConfig.for_variant("mel-vocal")

    def test_sub_count_formula(self, speech_clip):
        fcfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        fp = fingerprint_audio(speech_clip, self.CFG, fcfg)
        # 10 s at 25 ms stride = 397 full frames -> floor((397-128)/32)+1
        assert len(fp.subs) == (397 - 128) // 32 + 1 == 9

    def test_block_indices_strictly_increase(self, speech_clip):
        fp = fingerprint_audio(speech_clip, self.CFG, SMALL)
        indices = [s.block_index for s in fp.subs]
        assert indices == sorted(set(indices))

    def test_time_offsets(self, speech_clip):
        fcfg = FingerprintConfig(block_frames=128, block_hop_frames=32, top_t=200)
        fp = fingerprint_audio(speech_clip, self.CFG, fcfg)
        for sub in fp.subs:
            assert sub.time_offset_s == pytest.approx(
                sub.block_index * 32 * self.CFG.stride_s
            )

    def test_determinism(self, speech_clip):
        a = fingerprint_audio(speech_clip, self.CFG, SMALL)
        b = fingerprint_audio(speech_clip, self.CFG, SMALL)
        np.testing.assert_array_equal(a.signature_matrix, b.signature_matrix)

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
        for k in range(len(late.subs) - 1):
            np.testing.assert_array_equal(
                full.subs[k + 1].signature, late.subs[k].signature
            )

    def test_too_short_raises(self, tone):
        with pytest.raises(TooShort):
            fingerprint_audio(tone(200.0, 0.5, 8000), self.CFG, SMALL)

    def test_min_audio_seconds_is_tight(self, tone):
        need = min_audio_seconds(self.CFG, SMALL)
        fp = fingerprint_audio(tone(200.0, need + 0.001, 8000), self.CFG, SMALL)
        assert len(fp.subs) == 1
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


class TestStreaming:
    CFG = SpectralConfig.for_variant("mel-vocal")

    @pytest.mark.parametrize("chunk", [160, 1000, 8000, 1_000_000])
    def test_any_chunking_matches_batch(self, speech_clip, chunk):
        batch = fingerprint_audio(speech_clip, self.CFG, SMALL)
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        subs = []
        for start in range(0, len(speech_clip), chunk):
            subs.extend(streamer.feed(speech_clip.samples[start : start + chunk]))
        subs.extend(streamer.finish())
        assert len(subs) == len(batch.subs)
        for mine, ref in zip(subs, batch.subs):
            np.testing.assert_array_equal(mine.signature, ref.signature)

    def test_subs_arrive_as_blocks_complete(self, speech_clip):
        streamer = StreamingFingerprinter(8000, self.CFG, SMALL)
        need = min_audio_seconds(self.CFG, SMALL)
        first = streamer.feed(speech_clip.samples[: round(need * 8000) + 1])
        assert len(first) == 1

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
        haar = fingerprint.haar2d

        def counting_haar(stack, height=None):
            sizes.append(stack.shape)
            return haar(stack, height)

        monkeypatch.setattr(fingerprint, "haar2d", counting_haar)
        fp = fingerprint_audio(speech_clip, self.CFG, SMALL)
        assert fingerprint.STACK_ELEMENTS // (40 * 32) == 25
        assert sizes[0] == (25, 40, 32)
        assert sum(n for n, _rows, _cols in sizes) == len(fp.subs)
        assert len(sizes) == -(-len(fp.subs) // 25)

    def test_top_t_limit_is_the_padded_area(self):
        """40 real rows pad to 64, so 32-frame blocks allow top_t <= 2048."""
        cfg = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=2049)
        message = "top_t 2049 exceeds padded block area 2048"
        with pytest.raises(ConfigError, match=message):
            StreamingFingerprinter(8000, self.CFG, cfg)
        StreamingFingerprinter(8000, self.CFG, replace(cfg, top_t=2048))


class TestSerialization:
    CFG = SpectralConfig.for_variant("mel-vocal")

    def test_round_trip(self, speech_clip):
        fp = fingerprint_audio(speech_clip, self.CFG, SMALL, file_id=77)
        back = deserialize_fingerprint(
            serialize_fingerprint(fp), block_period_s=self.CFG.stride_s
        )
        assert back.file_id == 77
        assert back.config_digest == fp.config_digest
        np.testing.assert_array_equal(back.signature_matrix, fp.signature_matrix)
        assert [s.block_index for s in back.subs] == [
            s.block_index for s in fp.subs
        ]
        assert [s.time_offset_s for s in back.subs] == [
            pytest.approx(s.time_offset_s) for s in fp.subs
        ]

    def test_empty_fingerprint_round_trip(self):
        fp = Fingerprint(5, (), config_digest(self.CFG, SMALL, 8000))
        back = deserialize_fingerprint(serialize_fingerprint(fp))
        assert back.file_id == 5 and back.subs == ()

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptIndex):
            deserialize_fingerprint(b"NOPE" + b"\x00" * 30)

    def test_truncated_record_rejected(self, speech_clip):
        data = serialize_fingerprint(fingerprint_audio(speech_clip, self.CFG, SMALL))
        with pytest.raises(CorruptIndex):
            deserialize_fingerprint(data[:-3])


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
            digests = index._band_digests(fp.signature_matrix)
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
