"""Banded retrieval index: enrolment, querying, dedup, persistence."""

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
    SubFingerprint,
    config_digest,
    fingerprint_audio,
)
from speechprint.hashing import fnv1a64
from speechprint.index import IndexStats, MatchResult, RetrievalIndex
from speechprint.spectral import SpectralConfig

FCFG = FingerprintConfig(block_frames=32, block_hop_frames=1, top_t=25)
SCFG = SpectralConfig.for_variant("mel-vocal")
DIGEST = config_digest(SCFG, FCFG, 8000)
HEADER_LEN = 4 + struct.calcsize("<HQHHHdI")
V1_FIXTURE = Path(__file__).parent / "data" / "index_v1.spix"


def with_checksum(body: bytes) -> bytes:
    """``body`` plus the checksum its version (bytes 4-5) calls for."""
    if body[4:6] == b"\x01\x00":
        return body + struct.pack("<Q", fnv1a64(body))
    return body + hashlib.blake2b(body, digest_size=8).digest()


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


@pytest.fixture()
def index(prints):
    idx = RetrievalIndex.for_config(DIGEST, FCFG)
    for fp in prints:
        idx.enroll(fp)
    return idx


class TestEnroll:
    def test_self_retrieval_confidence_one(self, index, prints):
        result = index.query(prints[2])
        assert result.file_id == 2
        assert result.confidence == 1.0
        assert result.matched_subs == len(prints[2].subs)

    def test_exact_subs_with_strict_thresholds(self, index, prints):
        result = index.query(list(prints[4].subs), min_band_votes=1, min_confidence=0.5)
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

    def test_block_index_beyond_u32_rejected(self, prints):
        from speechprint.fingerprint import Fingerprint, SubFingerprint

        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        sub = SubFingerprint(prints[0].subs[0].signature, 1 << 32, 0.0)
        with pytest.raises(ConfigError):
            idx.enroll(Fingerprint(7, (sub,), DIGEST))
        assert 7 not in idx

    @pytest.mark.parametrize("file_id", [-3, -1, 2**64, 2**70])
    def test_file_id_outside_u64_rejected(self, index, prints, file_id):
        stats, ids = index.stats(), index.file_ids
        with pytest.raises(ConfigError, match="outside"):
            index.enroll(Fingerprint(file_id, prints[0].subs, DIGEST))
        assert file_id not in index
        assert index.stats() == stats
        assert index.file_ids == ids

    def test_membership_and_ids(self, index):
        assert 3 in index and 99 not in index
        assert len(index) == 6
        assert index.file_ids == list(range(6))

    def test_stats_counting(self, index, prints):
        stats = index.stats()
        n_subs = sum(len(fp.subs) for fp in prints)
        assert isinstance(stats, IndexStats)
        assert stats.n_files == 6
        assert stats.n_subs == n_subs
        assert stats.n_postings == n_subs * FCFG.band_count
        assert 0 < stats.n_buckets <= stats.n_postings


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

    def test_threshold_validation(self, index, prints):
        with pytest.raises(ConfigError):
            index.query(prints[0], min_band_votes=0)
        with pytest.raises(ConfigError):
            index.query(prints[0], min_confidence=0.0)
        with pytest.raises(ConfigError):
            index.query(prints[0], min_confidence=1.5)

    def test_query_of_another_config_rejected(self, index, corpus):
        linear = SpectralConfig.for_variant("linear-vocal")
        fp = fingerprint_audio(corpus[0], linear, FCFG)
        with pytest.raises(IncompatibleIndex):
            index.query(fp)
        with pytest.raises(IncompatibleIndex):
            index.query_batch([fp])

    def test_empty_query_is_none(self, index):
        assert index.query([]) is None

    def test_relaxing_thresholds_never_loses_matches(self, index, corpus):
        """Monotonicity: lowering v or c keeps every found result found."""
        spec = DeteriorationSpec(query_len_s=4.0, snr_db=15.0, rate=0.98)
        for seed in range(6):
            q = make_query(corpus[seed % 6], spec, seed=seed)
            fp = fingerprint_audio(q, SCFG, FCFG)
            strict = index.query(fp, min_band_votes=3, min_confidence=0.3)
            if strict is not None:
                relaxed = index.query(fp, min_band_votes=2, min_confidence=0.1)
                assert relaxed is not None

    def test_tie_breaks_toward_lower_id(self, prints):
        from speechprint.fingerprint import Fingerprint

        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        fp = prints[0]
        idx.enroll(fp)
        idx.enroll(Fingerprint(7, fp.subs, fp.config_digest))
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

    def test_empty_fingerprint_and_list_in_one_batch(self, index, prints):
        empty = Fingerprint(50, (), DIGEST)
        batch = index.query_batch([[], prints[3], list(prints[1].subs), empty])
        assert batch[0] is None and batch[3] is None
        assert batch[1] == index.query(prints[3]) and batch[1].file_id == 3
        assert batch[2] == index.query(prints[1]) and batch[2].file_id == 1
        assert index.query_batch([]) == []
        assert index.query_batch([[], empty]) == [None, None]

    def test_fingerprint_of_another_config_anywhere_rejected(self, index, prints, corpus):
        linear = SpectralConfig.for_variant("linear-vocal")
        other = fingerprint_audio(corpus[0], linear, FCFG)
        with pytest.raises(IncompatibleIndex):
            index.query_batch([prints[0], list(prints[1].subs), other])

    def test_sub_list_of_another_width_anywhere_rejected(self, index, prints):
        width = FCFG.band_count * FCFG.band_width
        other = [SubFingerprint(np.zeros(width + 5, np.uint8), 0, 0.0)] * 3
        for batch in ([other], [prints[0], other], [other, list(prints[1].subs)]):
            with pytest.raises(IncompatibleIndex):
                index.query_batch(batch)

    def test_overrides_match_single_queries(self, index, corpus):
        spec = DeteriorationSpec(query_len_s=4.0, snr_db=12.0, rate=1.02)
        queries = [
            fingerprint_audio(make_query(corpus[i % 6], spec, seed=i), SCFG, FCFG)
            for i in range(8)
        ]
        for votes, confidence in [(1, 0.01), (3, 0.2), (5, 0.9), (20, 0.01)]:
            assert index.query_batch(queries, votes, confidence) == [
                index.query(q, votes, confidence) for q in queries
            ]
        with pytest.raises(ConfigError):
            index.query_batch(queries, min_band_votes=0)
        with pytest.raises(ConfigError):
            index.query_batch(queries, min_confidence=1.5)


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
        sig_by_file = [fp.signature_matrix for fp in prints]

        def oracle(fp):
            q = fp.signature_matrix
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
        from speechprint.fingerprint import Fingerprint

        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for fp in prints:
            idx.enroll(fp)
        idx.enroll(Fingerprint(100, prints[1].subs, prints[1].config_digest))
        pairs = idx.find_duplicates(threshold=0.8)
        assert [(a, b) for a, b, _ in pairs] == [(1, 100)]
        assert pairs[0][2] == pytest.approx(1.0)

    def test_distinct_corpus_clean_at_default_threshold(self, index):
        assert index.find_duplicates(threshold=0.8) == []

    def test_bad_threshold_rejected(self, index):
        with pytest.raises(ConfigError):
            index.find_duplicates(threshold=0.0)


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
            pool = np.concatenate([fp.signature_matrix for fp in sources] + sigs)
            sig = pool[rng.integers(len(pool), size=n)]
            flip = rng.random(sig.shape) < 0.2
            sig[flip] = rng.integers(3, size=int(flip.sum()))
        else:
            sig = rng.integers(3, size=(n, ORACLE_BANDS * ORACLE_WIDTH))
        sigs.append(sig.astype(np.uint8))
    if repeated:
        sigs[0] = np.repeat(sigs[0][:1], 5, axis=0)
    return [
        Fingerprint(file_id, tuple(SubFingerprint(s, b, 0.0) for b, s in enumerate(sig)))
        for file_id, sig in zip(ids, sigs)
    ]


def shared_bands(a: Fingerprint, b: Fingerprint) -> np.ndarray:
    """[len(a.subs), len(b.subs)]: how many bands each pair of subs shares."""
    def bands(fp):
        return fp.signature_matrix.reshape(len(fp.subs), ORACLE_BANDS, ORACLE_WIDTH)

    return (bands(a)[:, None] == bands(b)[None]).all(axis=3).sum(axis=2)


def oracle_duplicates(prints, threshold, votes):
    """find_duplicates by its definition, over every ordered pair of files."""
    overlap = {}
    for a in prints:
        for b in prints:
            if a.file_id != b.file_id:
                matched = (shared_bands(a, b) >= votes).any(axis=1)
                frac = int(np.count_nonzero(matched)) / len(a.subs)
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
    if -matched / len(query.subs) < confidence:
        return None
    return MatchResult(file_id, -score, -matched, -matched / len(query.subs))


def oracle_index(prints):
    idx = RetrievalIndex(0, band_count=ORACLE_BANDS, band_width=ORACLE_WIDTH)
    for fp in prints:
        idx.enroll(fp)
    return idx


class TestAgainstOracle:
    """Duplicates and queries equal their brute-force definitions."""

    def check_duplicates(self, idx, prints):
        for votes in range(1, 6):
            for threshold in (0.0001, 0.3, 0.5, 0.8):
                assert idx.find_duplicates(threshold, min_band_votes=votes) == (
                    oracle_duplicates(prints, threshold, votes)
                ), (threshold, votes)

    @pytest.mark.parametrize("seed", range(4))
    def test_ids_enrolled_out_of_order(self, seed):
        rng = np.random.default_rng(seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])
        self.check_duplicates(oracle_index(prints), prints)

    @pytest.mark.parametrize("seed", range(4))
    def test_files_enrolled_after_load(self, seed, tmp_path):
        rng = np.random.default_rng(10 + seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])
        oracle_index(prints[:5]).save(tmp_path / "idx.spix")
        idx = RetrievalIndex.load(tmp_path / "idx.spix")
        for fp in prints[5:]:
            idx.enroll(fp)
        self.check_duplicates(idx, prints)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_band_keys_in_one_file(self, seed):
        rng = np.random.default_rng(20 + seed)
        prints = oracle_prints(rng, ORACLE_IDS[::-1], repeated=True)
        self.check_duplicates(oracle_index(prints), prints)

    @pytest.mark.parametrize("cap", [1, 3, 17])
    def test_sliced_pair_expansion(self, cap, monkeypatch):
        monkeypatch.setattr(index_module, "PAIR_ELEMENTS", cap)
        rng = np.random.default_rng(30 + cap)
        prints = oracle_prints(rng, ORACLE_IDS, repeated=True)
        idx = oracle_index(prints)
        self.check_duplicates(idx, prints)
        queries = oracle_prints(rng, range(12), sources=prints)
        for votes in (1, 2, 4):
            assert idx.query_batch(queries, min_band_votes=votes, min_confidence=0.01) == [
                oracle_query(prints, q, votes, 0.01) for q in queries
            ]

    @pytest.mark.parametrize("seed", range(4))
    def test_queries(self, seed):
        rng = np.random.default_rng(40 + seed)
        prints = oracle_prints(rng, [ORACLE_IDS[k] for k in rng.permutation(9)])
        idx = oracle_index(prints)
        # every other query mixes enrolled subs
        queries = oracle_prints(rng, range(16), sources=prints)
        for votes in range(1, 6):
            for confidence in (0.01, 0.5, 1.0):
                expected = [oracle_query(prints, q, votes, confidence) for q in queries]
                assert [idx.query(q, votes, confidence) for q in queries] == expected
                assert idx.query_batch(queries, votes, confidence) == expected


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
        n = len(prints[0].subs)
        pos = HEADER_LEN
        file_id, count = blob[pos : pos + 8], blob[pos + 8 : pos + 12]
        pos += 12
        blocks, digests = blob[pos : pos + 4 * n], blob[pos + 4 * n : -8]
        twice = (
            blob[: HEADER_LEN - 4] + struct.pack("<I", 2) + file_id * 2 + count * 2
            + blocks * 2 + digests * 2
        )
        path.write_bytes(with_checksum(twice))
        with pytest.raises(CorruptIndex, match="stored twice"):
            RetrievalIndex.load(path)

    def test_file_stored_twice_rejected_v1(self, tmp_path):
        blob = V1_FIXTURE.read_bytes()
        assert blob[4:6] == b"\x01\x00"
        (n_subs,) = struct.unpack("<I", blob[HEADER_LEN + 8 : HEADER_LEN + 12])
        record = blob[HEADER_LEN : HEADER_LEN + 12 + n_subs * (4 + 8 * 20)]
        twice = blob[: HEADER_LEN - 4] + struct.pack("<I", 2) + record * 2
        path = tmp_path / "idx.spix"
        path.write_bytes(with_checksum(twice))
        with pytest.raises(CorruptIndex, match="stored twice"):
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
        path.write_bytes(blob[:4] + struct.pack("<H", 3) + blob[6:])
        with pytest.raises(IncompatibleIndex, match="version 3"):
            RetrievalIndex.load(path)

    def test_loaded_bands_equal_enrolled_bands(self, prints, tmp_path):
        """Merging file by file and one stable sort on load agree exactly."""
        from speechprint.fingerprint import Fingerprint

        idx = RetrievalIndex.for_config(DIGEST, FCFG)
        for fp in prints:
            idx.enroll(fp)
        # a copy makes every key recur, so the order among equal keys counts
        idx.enroll(Fingerprint(100, prints[0].subs, DIGEST))
        path = tmp_path / "idx.spix"
        idx.save(path)
        loaded = RetrievalIndex.load(path)
        np.testing.assert_array_equal(loaded._keys, idx._keys)
        np.testing.assert_array_equal(loaded._postings, idx._postings)

    def test_largest_band_key_found(self, tmp_path, monkeypatch):
        """A bucket keyed 2**64 - 1 is found, though its key + 1 wraps to 0."""
        keys = np.random.default_rng(5).integers(0, 2**63, (4, 20), dtype=np.uint64)
        keys[:, 0] = 2**64 - 1  # every sub of band 0
        keys[1, 7] = 2**64 - 1  # and one of band 7
        header = struct.pack("<HQHHHdI", 2, DIGEST, 20, 5, 2, 0.1, 2)
        body = (
            b"SPIX" + header + np.array([1, 2], "<u8").tobytes()
            + np.array([4, 4], "<u4").tobytes() + np.arange(8, dtype="<u4").tobytes()
            + keys.astype("<u8").tobytes() * 2
        )
        path = tmp_path / "idx.spix"
        path.write_bytes(with_checksum(body))
        loaded = RetrievalIndex.load(path)
        assert loaded.find_duplicates(0.8) == [(1, 2, 1.0)]
        # a query holding those keys finds the bucket too
        with monkeypatch.context() as patch:
            patch.setattr(loaded, "_band_digests", lambda signatures: keys)
            subs = [SubFingerprint(np.zeros(100, np.uint8), 0, 0.0)] * 4
            assert loaded.query(subs, min_band_votes=20) == MatchResult(1, 80, 4, 1.0)
        # band 0: one bucket; band 7: the 2**64 - 1 bucket and 3 others;
        # the other 18 bands: 4 buckets each
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

    assert main(["index", "stats", "--index", str(V1_FIXTURE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "files:    3" in out
    assert "geometry: 20 bands x 5" in out
    assert "min_band_votes: 2" in out
    assert "min_confidence: 0.1" in out


def test_cli_index_add_rejects_file_id_outside_u64(small_corpus_dir, tmp_path, capsys):
    from speechprint.cli import main

    path = tmp_path / "idx.spix"
    build = ["index", "build", "--corpus", str(small_corpus_dir), "--out", str(path)]
    assert main(build) == 0
    saved = path.read_bytes()
    wav = str(sorted(Path(small_corpus_dir).glob("*.wav"))[0])
    for file_id in ("-3", str(2**64)):
        capsys.readouterr()
        add = ["index", "add", "--index", str(path), "--file-id", file_id, wav]
        assert main(add) == 2
        err = capsys.readouterr().err
        assert err == f"error: file id {file_id} is outside [0, 2^64)\n"
    assert path.read_bytes() == saved
