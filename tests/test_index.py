"""Banded retrieval index: enrolment, querying, dedup, persistence."""

import dataclasses
import hashlib
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from speechprint import index as index_module
from speechprint.audio import decode_wav
from speechprint.degrade import DeteriorationSpec, make_query
from speechprint.errors import (
    ConfigError,
    CorruptIndex,
    DuplicateId,
    IncompatibleIndex,
    IoError,
)
from speechprint.fingerprint import (
    Fingerprint,
    FingerprintConfig,
    config_digest,
    fingerprint_audio,
)
from speechprint.index import IndexStats, MatchResult, RetrievalIndex
from speechprint.spectral import SpectralConfig

FCFG = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=25)
SCFG = SpectralConfig.for_variant("mel-vocal")
DIGEST = config_digest(SCFG, FCFG, 8000)
HEADER_LEN = 4 + struct.calcsize("<HQHHHdI")
# the files of the version 1 index file, re-saved as version 2 (see
# tests/test_golden.py)
V1_RESAVED = Path(__file__).parent / "data" / "index_v1_resaved.spix"


def with_checksum(body: bytes) -> bytes:
    """``body`` plus its checksum, the same in versions 2 and 3."""
    return body + hashlib.blake2b(body, digest_size=8).digest()


def as_version_2(blob: bytes, low: int = 0) -> bytes:
    """A version 3 file's index as version 2 writes it: each file's block
    indices 0..n-1 before the digests, and u64 digests whose top halves
    are the band keys and whose low halves read ``low``."""
    (n_files,) = struct.unpack("<I", blob[HEADER_LEN - 4 : HEADER_LEN])
    pos = HEADER_LEN + 12 * n_files
    counts = np.frombuffer(blob, "<u4", n_files, HEADER_LEN + 8 * n_files)
    blocks = np.concatenate([np.arange(n, dtype="<u4") for n in counts])
    keys = np.frombuffer(blob[pos:-8], "<u4").astype("<u8")
    digests = keys << np.uint64(32) | np.uint64(low)
    body = blob[:4] + struct.pack("<H", 2) + blob[6:pos] + blocks.tobytes()
    return with_checksum(body + digests.tobytes())


@pytest.fixture(scope="module")
def corpus(small_corpus_dir):
    paths = sorted(Path(small_corpus_dir).glob("*.wav"))
    return [decode_wav(p.read_bytes()) for p in paths]


@pytest.fixture(scope="module")
def prints(corpus):
    return [
        fingerprint_audio(buf, SCFG, FCFG, file_id=i)
        for i, buf in enumerate(corpus)
    ]


def build_index(prints, **thresholds):
    idx = RetrievalIndex(DIGEST, FCFG.band_count, FCFG.band_width, **thresholds)
    for fp in prints:
        idx.enroll(fp)
    return idx


@pytest.fixture()
def index(prints):
    return build_index(prints)


def split_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The u32 keys and int32 rows of band words ``key << 32 | row``."""
    keys = (words >> np.uint64(32)).astype(np.uint32)
    return keys, (words & np.uint64(0xFFFFFFFF)).astype(np.int32)


class TestEnroll:
    def test_self_retrieval_confidence_one(self, index, prints):
        result = index.query(prints[2])
        assert result.file_id == 2
        assert result.confidence == 1.0
        assert result.matched_subs == len(prints[2].signatures)

    def test_exact_subs_with_strict_thresholds(self, prints):
        index = build_index(prints, min_band_votes=1, min_confidence=0.5)
        result = index.query(prints[4])
        assert result.file_id == 4
        assert result.confidence == 1.0

    def test_duplicate_id_rejected(self, index, prints):
        with pytest.raises(DuplicateId):
            index.enroll(prints[0])

    def test_wrong_config_digest_rejected(self, index, corpus):
        other = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=30)
        fp = fingerprint_audio(corpus[0], SCFG, other, file_id=99)
        with pytest.raises(IncompatibleIndex):
            index.enroll(fp)

    @pytest.mark.parametrize("file_id", [-3, -1, 2**64, 2**70])
    def test_file_id_outside_u64_rejected(self, prints, file_id):
        fp = prints[0]
        with pytest.raises(ConfigError, match="outside"):
            Fingerprint(file_id, fp.signatures, DIGEST)

    def test_membership_and_ids(self, index):
        assert 3 in index and 99 not in index
        assert len(index) == 6
        assert index.file_ids == list(range(6))

    def test_stats_counting(self, index, prints):
        stats = index.stats()
        n_subs = sum(len(fp.signatures) for fp in prints)
        assert isinstance(stats, IndexStats)
        assert stats.n_files == 6
        assert stats.n_subs == n_subs
        assert stats.n_postings == n_subs * FCFG.band_count
        assert 0 < stats.n_buckets <= stats.n_postings
        one = RetrievalIndex.for_config(DIGEST, FCFG)
        one.enroll(Fingerprint(7, prints[0].signatures[:1], DIGEST))
        assert one.stats() == IndexStats(1, 1, FCFG.band_count, FCFG.band_count)

    def test_enroll_past_the_row_cap_refused(self, prints, monkeypatch):
        """An enrolment that would number a row at the cap or beyond is
        refused, and leaves the index as it was."""
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        idx.enroll(prints[0])
        n_rows = len(prints[0].signatures)
        monkeypatch.setattr(index_module, "_MAX_ROWS", n_rows + 1)
        bands, row_file = idx._bands.copy(), idx._row_file.copy()
        with pytest.raises(ConfigError, match=f"at most {n_rows + 1} subs"):
            idx.enroll(Fingerprint(9, prints[1].signatures[:2], DIGEST))
        assert idx.file_ids == [0] and 9 not in idx
        np.testing.assert_array_equal(idx._bands, bands)
        np.testing.assert_array_equal(idx._row_file, row_file)
        idx.enroll(Fingerprint(9, prints[1].signatures[:1], DIGEST))
        assert idx.stats().n_subs == n_rows + 1


class TestQuery:
    def test_empty_index_returns_none(self, prints):
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        assert idx.query(prints[0]) is None

    def test_degraded_query_finds_source(self, index, corpus):
        spec = DeteriorationSpec(query_len_s=6.0, snr_db=20.0, rate=1.02)
        for truth in (0, 3, 5):
            q = make_query(corpus[truth], spec, seed=truth)
            fp = fingerprint_audio(q, SCFG, FCFG)
            result = index.query(fp)
            assert result is not None and result.file_id == truth

    def test_unrelated_audio_not_found(self, index):
        from speechprint.corpus import synth_speech_like

        stranger = synth_speech_like(8.0, 8000, seed=555)
        fp = fingerprint_audio(stranger, SCFG, FCFG)
        result = index.query(fp)
        assert result is None or result.confidence < 0.5

    def test_threshold_validation(self):
        with pytest.raises(ConfigError, match="min_band_votes"):
            build_index([], min_band_votes=0)
        with pytest.raises(ConfigError, match="min_confidence"):
            build_index([], min_confidence=0.0)
        with pytest.raises(ConfigError, match="min_confidence"):
            build_index([], min_confidence=1.5)

    def test_votes_beyond_band_count_rejected(self, prints):
        """A pair of subs shares at most band_count keys, so more votes
        could only ever find nothing."""
        bands = FCFG.band_count
        with pytest.raises(ConfigError, match="min_band_votes"):
            build_index([], min_band_votes=bands + 1)
        # every band key of an exact copy is shared
        index = build_index(prints, min_band_votes=bands)
        assert index.query(prints[2]).file_id == 2
        index.enroll(dataclasses.replace(prints[2], file_id=100))
        assert index.find_duplicates() == [(2, 100, 1.0)]

    def test_query_of_another_config_rejected(self, index, corpus):
        linear = SpectralConfig.for_variant("linear-vocal")
        fp = fingerprint_audio(corpus[0], linear, FCFG)
        with pytest.raises(IncompatibleIndex):
            index.query(fp)
        with pytest.raises(IncompatibleIndex):
            index.query_batch([fp])

    def test_empty_query_is_none(self, index):
        empty = Fingerprint(0, np.empty((0, 100), np.uint8), DIGEST)
        assert index.query(empty) is None

    def test_relaxing_thresholds_never_loses_matches(self, prints, corpus):
        """Monotonicity: lowering v or c keeps every found result found."""
        strict_index = build_index(prints, min_band_votes=3, min_confidence=0.3)
        relaxed_index = build_index(prints, min_band_votes=2, min_confidence=0.1)
        spec = DeteriorationSpec(query_len_s=4.0, snr_db=15.0, rate=0.98)
        for seed in range(6):
            q = make_query(corpus[seed % 6], spec, seed=seed)
            fp = fingerprint_audio(q, SCFG, FCFG)
            if strict_index.query(fp) is not None:
                assert relaxed_index.query(fp) is not None

    def test_tie_breaks_toward_lower_id(self, prints):
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        fp = prints[0]
        idx.enroll(fp)
        idx.enroll(dataclasses.replace(fp, file_id=7))
        result = idx.query(fp)
        assert result.file_id == 0


class TestBatch:
    def test_batch_of_one_equals_single(self, index, prints):
        single = index.query(prints[1])
        batch = index.query_batch([prints[1]])
        assert batch == [single]

    def test_identical_queries_identical_results(self, index, prints):
        batch = index.query_batch([prints[2]] * 5)
        assert all(r == batch[0] for r in batch)

    def test_mixed_batch_matches_serial(self, index, corpus):
        from speechprint.corpus import synth_speech_like

        queries = []
        spec = DeteriorationSpec(query_len_s=5.0, snr_db=18.0, rate=1.01)
        for seed in range(16):
            queries.append(
                fingerprint_audio(
                    make_query(corpus[seed % 6], spec, seed=seed), SCFG, FCFG
                )
            )
        for seed in range(4):
            queries.append(
                fingerprint_audio(
                    synth_speech_like(5.0, 8000, seed=900 + seed), SCFG, FCFG
                )
            )
        serial = [index.query(q) for q in queries]
        assert index.query_batch(queries) == serial

    def test_empty_fingerprints_in_one_batch(self, index, prints):
        """A query of no rows answers None, whether or not it has a width."""
        empty = Fingerprint(50, np.empty((0, 100), np.uint8), DIGEST)
        unsized = Fingerprint(50, np.empty((0, 0), np.uint8), DIGEST)
        batch = index.query_batch([unsized, prints[3], prints[1], empty])
        assert batch[0] is None and batch[3] is None
        assert batch[1] == index.query(prints[3]) and batch[1].file_id == 3
        assert batch[2] == index.query(prints[1]) and batch[2].file_id == 1
        assert index.query_batch([]) == []
        assert index.query_batch([unsized, empty]) == [None, None]

    def test_fingerprint_of_another_config_anywhere_rejected(self, index, prints, corpus):
        linear = SpectralConfig.for_variant("linear-vocal")
        other = fingerprint_audio(corpus[0], linear, FCFG)
        with pytest.raises(IncompatibleIndex):
            index.query_batch([prints[0], prints[1], other])

    def test_fingerprint_of_another_width_anywhere_rejected(self, index, prints):
        width = FCFG.band_count * FCFG.band_width
        other = Fingerprint(0, np.zeros((3, width + 5), np.uint8), DIGEST)
        for batch in ([other], [prints[0], other], [other, prints[1]]):
            with pytest.raises(IncompatibleIndex, match="signature width"):
                index.query_batch(batch)


class TestRecallVsOracle:
    def test_top1_matches_exhaustive_signature_search(self, desk_corpus_dir):
        """LSH voting agrees with exact nearest-signature search >=95%."""
        paths = sorted(Path(desk_corpus_dir).glob("*.wav"))
        corpus = [decode_wav(p.read_bytes()) for p in paths]
        prints = [
            fingerprint_audio(buf, SCFG, FCFG, file_id=i)
            for i, buf in enumerate(corpus)
        ]
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for fp in prints:
            idx.enroll(fp)
        sig_by_file = [fp.signatures for fp in prints]

        def oracle(fp):
            q = fp.signatures
            best, best_score = None, -1.0
            for file_id, sigs in enumerate(sig_by_file):
                # mean over query subs of each sub's best signature match
                eq = (q[:, None, :] == sigs[None, :, :]).sum(axis=2)
                score = eq.max(axis=1).mean()
                if score > best_score:
                    best, best_score = file_id, score
            return best

        rng = np.random.default_rng(2024)
        agreements = 0
        correct = 0
        found = 0
        for trial in range(12):
            truth = trial % 30
            spec = DeteriorationSpec(
                query_len_s=6.0,
                snr_db=float(rng.uniform(20.0, 30.0)),
                rate=float(rng.uniform(0.97, 1.03)),
            )
            q = make_query(corpus[truth], spec, seed=trial)
            fp = fingerprint_audio(q, SCFG, FCFG)
            result = idx.query(fp)
            if result is None:
                continue
            found += 1
            if result.file_id == truth:
                correct += 1
            if result.file_id == oracle(fp):
                agreements += 1
        assert found >= 10
        assert correct / found >= 0.9
        assert agreements / found >= 0.95


class TestDuplicates:
    def test_planted_duplicate_found(self, prints):
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for fp in prints:
            idx.enroll(fp)
        idx.enroll(dataclasses.replace(prints[1], file_id=100))
        pairs = idx.find_duplicates(threshold=0.8)
        assert [(a, b) for a, b, _ in pairs] == [(1, 100)]
        assert pairs[0][2] == pytest.approx(1.0)

    def test_distinct_corpus_clean_at_default_threshold(self, index):
        assert index.find_duplicates(threshold=0.8) == []

    def test_bad_threshold_rejected(self, index):
        # a pair is reported when its overlap, at most 1, exceeds the
        # threshold, so 1.0 could report nothing
        for threshold in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError, match=r"threshold must be in \(0, 1\)"):
                index.find_duplicates(threshold=threshold)


# small indexes over a 3-letter signature alphabet, so that band keys
# collide often and pairs reach every vote count
ORACLE_BANDS, ORACLE_WIDTH = 6, 2
ORACLE_IDS = (0, 5, 2**32, 2**32 + 1, 2**40, 2**63, 2**63 + 7, 2**64 - 2, 2**64 - 1)


def oracle_prints(rng, ids, repeated=False, sources=()):
    """Random fingerprints; every other file is a perturbed mix of the
    earlier ones and ``sources``. With ``repeated``, the first file is one
    sub repeated, so its band keys recur within the file."""
    sigs = []
    for k in range(len(ids)):
        n = int(rng.integers(1, 9))
        if k % 2:
            pool = np.concatenate([fp.signatures for fp in sources] + sigs)
            sig = pool[rng.integers(len(pool), size=n)]
            flip = rng.random(sig.shape) < 0.2
            sig[flip] = rng.integers(3, size=int(flip.sum()))
        else:
            sig = rng.integers(3, size=(n, ORACLE_BANDS * ORACLE_WIDTH))
        sigs.append(sig.astype(np.uint8))
    if repeated:
        sigs[0] = np.repeat(sigs[0][:1], 5, axis=0)
    return [
        Fingerprint(file_id, sig) for file_id, sig in zip(ids, sigs)
    ]


def shared_bands(a: Fingerprint, b: Fingerprint) -> np.ndarray:
    """[len(a.signatures), len(b.signatures)]: how many bands each pair of subs shares."""
    def bands(fp):
        return fp.signatures.reshape(len(fp.signatures), ORACLE_BANDS, ORACLE_WIDTH)

    return (bands(a)[:, None] == bands(b)[None]).all(axis=3).sum(axis=2)


def oracle_duplicates(prints, threshold, votes):
    """find_duplicates by its definition, over every ordered pair of files."""
    overlap = {}
    for a in prints:
        for b in prints:
            if a.file_id != b.file_id:
                matched = (shared_bands(a, b) >= votes).any(axis=1)
                frac = int(np.count_nonzero(matched)) / len(a.signatures)
                pair = (min(a.file_id, b.file_id), max(a.file_id, b.file_id))
                overlap[pair] = max(overlap.get(pair, 0.0), frac)
    found = [(a, b, frac) for (a, b), frac in overlap.items() if frac > threshold]
    return sorted(found, key=lambda item: (-item[2], item[0], item[1]))


def oracle_query(prints, query, votes, confidence):
    """query by its definition: per file the query subs with a sub sharing
    ``votes`` bands, and the bands shared summed over those sub pairs."""
    ranked = []
    for fp in prints:
        shared = shared_bands(query, fp)
        qualifies = shared >= votes
        matched = int(np.count_nonzero(qualifies.any(axis=1)))
        if matched:
            ranked.append((-matched, -int(shared[qualifies].sum()), fp.file_id))
    if not ranked:
        return None
    matched, score, file_id = min(ranked)
    if -matched / len(query.signatures) < confidence:
        return None
    return MatchResult(file_id, -score, -matched, -matched / len(query.signatures))


def oracle_index(prints, votes, confidence=0.01):
    idx = RetrievalIndex(
        0,
        band_count=ORACLE_BANDS,
        band_width=ORACLE_WIDTH,
        min_band_votes=votes,
        min_confidence=confidence,
    )
    for fp in prints:
        idx.enroll(fp)
    return idx


class TestAgainstOracle:
    """Duplicates and queries equal their brute-force definitions."""

    def check_duplicates(self, make_index, prints):
        """``make_index(votes)`` holds ``prints`` at that vote threshold."""
        for votes in range(1, 6):
            idx = make_index(votes)
            for threshold in (0.0001, 0.3, 0.5, 0.8):
                assert idx.find_duplicates(threshold) == (
                    oracle_duplicates(prints, threshold, votes)
                ), (threshold, votes)

    @pytest.mark.parametrize("seed", range(4))
    def test_ids_enrolled_out_of_order(self, seed):
        rng = np.random.default_rng(seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])
        self.check_duplicates(lambda votes: oracle_index(prints, votes), prints)

    @pytest.mark.parametrize("seed", range(4))
    def test_files_enrolled_after_load(self, seed, tmp_path):
        rng = np.random.default_rng(10 + seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])

        def loaded_then_enrolled(votes):
            oracle_index(prints[:5], votes).save(tmp_path / "idx.spix")
            idx = RetrievalIndex.load(tmp_path / "idx.spix")
            for fp in prints[5:]:
                idx.enroll(fp)
            return idx

        self.check_duplicates(loaded_then_enrolled, prints)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_band_keys_in_one_file(self, seed):
        rng = np.random.default_rng(20 + seed)
        prints = oracle_prints(rng, ORACLE_IDS[::-1], repeated=True)
        self.check_duplicates(lambda votes: oracle_index(prints, votes), prints)

    @pytest.mark.parametrize("cap", [1, 3, 17])
    def test_sliced_pair_expansion(self, cap, monkeypatch):
        monkeypatch.setattr(index_module, "PAIR_ELEMENTS", cap)
        rng = np.random.default_rng(30 + cap)
        prints = oracle_prints(rng, ORACLE_IDS, repeated=True)
        self.check_duplicates(lambda votes: oracle_index(prints, votes), prints)
        queries = oracle_prints(rng, range(12), sources=prints)
        for votes in (1, 2, 4):
            assert oracle_index(prints, votes).query_batch(queries) == [
                oracle_query(prints, q, votes, 0.01) for q in queries
            ]

    def test_rows_per_slice_capped_by_pair_bits(self, monkeypatch):
        """A slice holds no more rows than its pair numbers can count."""
        rng = np.random.default_rng(35)
        prints = oracle_prints(rng, ORACLE_IDS, repeated=True)
        idx = oracle_index(prints, 1)
        # two rows a slice
        bits = (idx._row_file.size - 1).bit_length()
        monkeypatch.setattr(index_module, "_PAIR_BITS", bits + 1)
        for rows, _, _ in idx._join(*idx._later_partners()):
            assert rows.max() - rows.min() < 2
        self.check_duplicates(lambda votes: oracle_index(prints, votes), prints)
        queries = oracle_prints(rng, range(12), sources=prints)
        assert oracle_index(prints, 2).query_batch(queries) == [
            oracle_query(prints, q, 2, 0.01) for q in queries
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_queries(self, seed):
        rng = np.random.default_rng(40 + seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])
        # every other query mixes enrolled subs
        queries = oracle_prints(rng, range(16), sources=prints)
        for votes in range(1, 6):
            for confidence in (0.01, 0.5, 1.0):
                idx = oracle_index(prints, votes, confidence)
                expected = [oracle_query(prints, q, votes, confidence) for q in queries]
                assert [idx.query(q) for q in queries] == expected
                assert idx.query_batch(queries) == expected


class TestPersistence:
    def test_round_trip_scores_identical(self, index, corpus, tmp_path):
        spec = DeteriorationSpec(query_len_s=5.0, snr_db=12.0, rate=0.99)
        queries = [
            fingerprint_audio(make_query(corpus[i % 6], spec, seed=i), SCFG, FCFG)
            for i in range(8)
        ]
        before = [index.query(q) for q in queries]
        path = tmp_path / "idx.spix"
        index.save(path)
        loaded = RetrievalIndex.load(path, expected_config_digest=DIGEST)
        after = [loaded.query(q) for q in queries]
        assert before == after
        assert loaded.stats() == index.stats()

    def test_truncation_detected(self, index, tmp_path):
        path = tmp_path / "idx.spix"
        index.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptIndex):
            RetrievalIndex.load(path)

    def test_bit_flip_detected(self, index, tmp_path):
        path = tmp_path / "idx.spix"
        index.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndex):
            RetrievalIndex.load(path)

    def test_config_mismatch_detected(self, index, tmp_path):
        path = tmp_path / "idx.spix"
        index.save(path)
        with pytest.raises(IncompatibleIndex):
            RetrievalIndex.load(path, expected_config_digest=DIGEST ^ 1)

    def test_file_stored_twice_rejected(self, prints, tmp_path):
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        idx.enroll(prints[0])
        path = tmp_path / "idx.spix"
        idx.save(path)
        blob = path.read_bytes()
        pos = HEADER_LEN
        file_id, count = blob[pos : pos + 8], blob[pos + 8 : pos + 12]
        keys = blob[pos + 12 : -8]
        twice = (
            blob[: HEADER_LEN - 4] + struct.pack("<I", 2) + file_id * 2 + count * 2
            + keys * 2
        )
        path.write_bytes(with_checksum(twice))
        with pytest.raises(CorruptIndex, match="stored twice"):
            RetrievalIndex.load(path)

    @pytest.mark.parametrize(
        "blocks", [[1, 2, 3], [0, 2, 1], [0, 1, 3]], ids=["from-1", "swapped", "gap"]
    )
    def test_blocks_other_than_each_files_row_numbers_rejected(
        self, prints, tmp_path, blocks
    ):
        """A file's rows are its blocks 0..n-1 in order; a version 2 file
        that stores other block indices is refused, not renumbered."""
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        idx.enroll(Fingerprint(3, prints[0].signatures[:2], DIGEST))
        idx.enroll(Fingerprint(5, prints[1].signatures[:1], DIGEST))
        path = tmp_path / "idx.spix"
        idx.save(path)
        blob = as_version_2(path.read_bytes())
        pos = HEADER_LEN + 12 * 2
        assert blob[pos : pos + 12] == np.array([0, 1, 0], "<u4").tobytes()
        body = blob[:pos] + np.array(blocks, "<u4").tobytes() + blob[pos + 12 : -8]
        path.write_bytes(with_checksum(body))
        with pytest.raises(CorruptIndex, match="0..n-1"):
            RetrievalIndex.load(path)

    @pytest.mark.parametrize("n_files, count", [(1, 2**32 - 1), (2**32 - 1, 1)])
    def test_counts_beyond_payload_rejected_before_allocating(
        self, index, tmp_path, n_files, count
    ):
        """A header or sub count claiming ~2**32 entries is corrupt, not OOM."""
        path = tmp_path / "idx.spix"
        index.save(path)
        blob = path.read_bytes()
        body = (
            blob[: HEADER_LEN - 4] + struct.pack("<I", n_files)
            + blob[HEADER_LEN : HEADER_LEN + 8] + struct.pack("<I", count)
            + blob[HEADER_LEN + 12 * len(index) : -8]
        )
        path.write_bytes(with_checksum(body))
        with pytest.raises(CorruptIndex):
            RetrievalIndex.load(path)

    def test_unknown_version_rejected(self, index, tmp_path):
        path = tmp_path / "idx.spix"
        index.save(path)
        blob = path.read_bytes()
        for version in (1, 4):
            path.write_bytes(blob[:4] + struct.pack("<H", version) + blob[6:])
            with pytest.raises(
                IncompatibleIndex, match=f"version {version}; this build reads versions 2 and 3"
            ):
                RetrievalIndex.load(path)

    @pytest.mark.parametrize("low", [0, 0xFFFFFFFF, 0x9E3779B9])
    def test_version_2_file_loads_to_the_same_index(self, index, tmp_path, low):
        """A version 2 file's digests load as their top halves, whatever
        their low halves, and re-save as the version 3 file."""
        path = tmp_path / "idx.spix"
        index.save(path)
        v3 = path.read_bytes()
        assert v3[4:6] == b"\x03\x00"
        old = tmp_path / "v2.spix"
        old.write_bytes(as_version_2(v3, low))
        loaded = RetrievalIndex.load(old, expected_config_digest=DIGEST)
        np.testing.assert_array_equal(loaded._bands, index._bands)
        loaded.save(path)
        assert path.read_bytes() == v3

    @pytest.mark.parametrize("version", [2, 3])
    def test_file_of_no_subs_rejected(self, prints, tmp_path, version):
        """enroll refuses a fingerprint of no subs, so a file stored with
        none is corrupt, named by its id."""
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        idx.enroll(Fingerprint(5, prints[0].signatures[:1], DIGEST))
        path = tmp_path / "idx.spix"
        idx.save(path)
        blob = path.read_bytes()
        body = (
            blob[: HEADER_LEN - 4] + struct.pack("<I", 2)
            + np.array([3, 5], "<u8").tobytes() + np.array([0, 1], "<u4").tobytes()
            + blob[HEADER_LEN + 12 : -8]
        )
        blob = with_checksum(body)
        path.write_bytes(as_version_2(blob) if version == 2 else blob)
        with pytest.raises(CorruptIndex, match="file id 3 stored with no subs"):
            RetrievalIndex.load(path)

    def test_loaded_bands_equal_enrolled_bands(self, prints, tmp_path):
        """Merging file by file and one stable sort on load agree exactly."""
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for fp in prints:
            idx.enroll(fp)
        # a copy makes every key recur, so the order among equal keys counts
        idx.enroll(dataclasses.replace(prints[0], file_id=100))
        path = tmp_path / "idx.spix"
        idx.save(path)
        loaded = RetrievalIndex.load(path)
        np.testing.assert_array_equal(loaded._bands, idx._bands)

    def test_loaded_order_among_equal_keys_is_stable(self, prints, tmp_path):
        """Loading orders each band as a stable argsort of the saved
        keys, and enrolling file by file as one build of all rows, when
        buckets hold many postings of several files."""
        sub = prints[1].signatures[:1]
        files = [
            *prints,
            dataclasses.replace(prints[1], file_id=100),
            Fingerprint(50, np.repeat(sub, 120, axis=0), DIGEST),
        ]
        order = np.random.default_rng(3).permutation(len(files))
        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for k in order:
            idx.enroll(files[k])
        keys, rows = split_words(idx._bands)
        bucket = keys[0] == idx._band_digests(sub)[0, 0]
        assert bucket.sum() >= 100
        assert len(set(idx._row_file[rows[0, bucket]].tolist())) >= 3
        path = tmp_path / "idx.spix"
        idx.save(path)
        blob = path.read_bytes()
        _, _, keys = index_module._read_payload(blob, 3, len(files), FCFG.band_count)
        stable = np.argsort(keys.T, axis=1, kind="stable")
        loaded_keys, loaded_rows = split_words(RetrievalIndex.load(path)._bands)
        np.testing.assert_array_equal(loaded_rows, stable)
        np.testing.assert_array_equal(
            loaded_keys, np.take_along_axis(keys.T, stable, axis=1)
        )
        # the same rows in enrolment order, built at once
        built = RetrievalIndex.for_config(DIGEST, FCFG)
        rows = [files[k] for k in order]
        built._build(
            [fp.file_id for fp in rows],
            np.array([len(fp.signatures) for fp in rows]),
            built._band_digests(np.concatenate([fp.signatures for fp in rows])),
        )
        np.testing.assert_array_equal(built._bands, idx._bands)

    @pytest.mark.parametrize("seed", range(4))
    def test_band_sort_equals_stable_argsort(self, seed):
        """Equal keys in any column order, the largest key, and keys
        spread over the whole u32 range: the band sort agrees with a
        stable argsort."""
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 7, 300):
            keys = rng.integers(0, 4, (5, n), dtype=np.uint32)
            keys[0] = 0xFFFFFFFF
            keys[1] |= np.uint32(0xFFFFFFFC)
            keys[2] = rng.integers(0, 2**32, n, dtype=np.uint32)
            words = index_module._sort_bands(keys)
            assert words.dtype == np.uint64
            sorted_keys, order = split_words(words)
            stable = np.argsort(keys, axis=1, kind="stable")
            np.testing.assert_array_equal(order, stable)
            np.testing.assert_array_equal(
                sorted_keys, np.take_along_axis(keys, stable, axis=1)
            )

    def test_header_votes_beyond_band_count_rejected(self, index, tmp_path):
        path = tmp_path / "idx.spix"
        index.save(path)
        blob = path.read_bytes()
        # min_band_votes follows magic, version, digest, bands and width
        at = 4 + struct.calcsize("<HQHH")
        body = blob[:at] + struct.pack("<H", FCFG.band_count + 1) + blob[at + 2 : -8]
        path.write_bytes(with_checksum(body))
        with pytest.raises(CorruptIndex, match="min_band_votes"):
            RetrievalIndex.load(path)

    def test_load_past_the_row_cap_refused(self, index, tmp_path, monkeypatch):
        path = tmp_path / "idx.spix"
        index.save(path)
        n_rows = index.stats().n_subs
        monkeypatch.setattr(index_module, "_MAX_ROWS", n_rows - 1)
        with pytest.raises(ConfigError, match=f"at most {n_rows - 1} subs"):
            RetrievalIndex.load(path)
        monkeypatch.setattr(index_module, "_MAX_ROWS", n_rows)
        assert RetrievalIndex.load(path).stats() == index.stats()

    def test_largest_band_key_found(self, tmp_path, monkeypatch):
        """A bucket keyed 2**32 - 1, whose words end their band, is found
        from a version 3 file and from a version 2 file's digest
        2**64 - 1."""
        keys = np.random.default_rng(5).integers(0, 2**31, (4, 20), dtype=np.uint32)
        keys[:, 0] = 2**32 - 1  # every sub of band 0
        keys[1, 7] = 2**32 - 1  # and one of band 7
        header = struct.pack("<HQHHHdI", 3, DIGEST, 20, 5, 20, 0.1, 2)
        body = (
            b"SPIX" + header + np.array([1, 2], "<u8").tobytes()
            + np.array([4, 4], "<u4").tobytes() + keys.astype("<u4").tobytes() * 2
        )
        v3 = with_checksum(body)
        v2 = as_version_2(v3, low=0xFFFFFFFF)
        assert v2.count((2**64 - 1).to_bytes(8, "little")) == 10
        path = tmp_path / "idx.spix"
        for blob in (v3, v2):
            path.write_bytes(blob)
            loaded = RetrievalIndex.load(path)
            assert loaded.find_duplicates(0.8) == [(1, 2, 1.0)]
            # a query holding those keys finds the bucket too
            with monkeypatch.context() as patch:
                patch.setattr(loaded, "_band_digests", lambda signatures: keys)
                fp = Fingerprint(0, np.zeros((4, 100), np.uint8), DIGEST)
                assert loaded.query(fp) == MatchResult(1, 80, 4, 1.0)
            # band 0: one bucket; band 7: the 2**32 - 1 bucket and 3
            # others; the other 18 bands: 4 buckets each
            assert loaded.stats().n_buckets == 1 + 4 + 18 * 4

    def test_failed_save_keeps_old_file(self, index, prints, tmp_path, monkeypatch):
        from speechprint import fileio

        path = tmp_path / "idx.spix"
        small = RetrievalIndex.for_config(DIGEST, FCFG)
        small.enroll(prints[0])
        small.save(path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(IoError, match="disk full"):
            index.save(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["idx.spix"]

    def test_save_into_missing_directory_raises_io_error(self, index, tmp_path):
        with pytest.raises(IoError):
            index.save(tmp_path / "absent" / "idx.spix")

    def test_not_an_index_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK" * 10)
        with pytest.raises(CorruptIndex):
            RetrievalIndex.load(path)


def test_cli_index_stats_prints_geometry(capsys):
    from speechprint.cli import main

    assert main(["index", "stats", "--index", str(V1_RESAVED)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "files:    3" in out
    assert "geometry: 20 bands x 5" in out
    assert "variant:  none matches" in out
    assert "min_band_votes: 2" in out
    assert "min_confidence: 0.1" in out


def test_cli_dedup_threshold_one_is_an_error(capsys):
    from speechprint.cli import main

    assert main(["index", "dedup", "--index", str(V1_RESAVED), "--threshold", "1.0"]) == 2
    assert "threshold must be in (0, 1), got 1.0" in capsys.readouterr().err
