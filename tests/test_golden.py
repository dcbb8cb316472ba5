"""Golden pins on fingerprint bits and retrieval results.

The digests and results below were first recorded from the per-block
fingerprint pipeline and the tuple-posting vote tally of
FINGERPRINT_VERSION 1; the index stats and the version 1 file pins from
the index that kept each band in a dict. FINGERPRINT_VERSION 2 (the
shared-transform kernel, which centres a block after its transform)
re-recorded every pin whose value it changed: the wire bytes and saved
index bytes (the config digest includes the version), the 11.025 and
16 kHz mel pins at the benchmark geometry, and the benchmark geometry's
query results, stats and loose duplicates. FINGERPRINT_VERSION 3 (vocal
images at a 2 kHz analysis rate, every variant decimated at 16 kHz)
re-recorded the 8 kHz vocal pins, the 16 kHz pins except mel-wide's at
the library geometry, the wire and saved index bytes, and the planted
index's results, duplicates and stats. An 8 s clip ends on a frame's
last sample, which a vocal image now lacks, so the benchmark geometry
has 285 blocks there, not 286. Mel-wide at 8 kHz and every 11.025 kHz
pin kept its value. The fingerprint wire record and its byte pins are
gone; the config digests those pins covered are pinned on their own.
Index file version 3 (32-bit band keys) re-recorded the saved index
bytes only, and the version 2 bytes stay pinned in a recorded file.
Any refactor of the kernel or the index that changes one bit of a
signature, one block index, one vote or one duplicate overlap fails
here; a deliberate change of the bits must bump FINGERPRINT_VERSION and
re-record the pins.
"""

import dataclasses
import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from speechprint.bench import BENCH_FINGERPRINT
from speechprint.corpus import synth_speech_like
from speechprint.degrade import DeteriorationSpec, add_noise, make_query
from speechprint.fingerprint import (
    FINGERPRINT_VERSION,
    Fingerprint,
    FingerprintConfig,
    MinHasher,
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
    get_minhasher,
)
from speechprint.errors import IncompatibleIndex
from speechprint.index import IndexStats, RetrievalIndex
from speechprint.pipeline import Pipeline
from speechprint.registry import LabelRegistry
from speechprint.spectral import SpectralConfig, Variant

LIBRARY = FingerprintConfig()
GEOMETRIES = {"library": LIBRARY, "bench": BENCH_FINGERPRINT}

# sha256 over the signature matrix bytes, then the block indices (row k
# is block k) as <i8
GOLDEN_DIGESTS = {
    ("linear-vocal", "library"): (
        6, "cce44f7fa1cca5978666ab8c51513b70e5bc896af61d6207980854db1d5ff0d9"
    ),
    ("linear-vocal", "bench"): (
        285, "1226106ead270c0839cd620e9a0616b2527c255dd04ac1c4513f6769756fcd42"
    ),
    ("mel-vocal", "library"): (
        6, "e8fa122c410b582bd7505364cb9a4c81056f9cc0b4aac8536856f2b73cb44cb9"
    ),
    ("mel-vocal", "bench"): (
        285, "934ea001875890dfdeb3f5b930c0e9a6d38c5260664379b2073304155dc7bf2b"
    ),
    ("mel-wide", "library"): (
        6, "82ff3ea5b76bdde9b8a1d3f9330423abb59c149ffaf4924196881e26ca6180ad"
    ),
    ("mel-wide", "bench"): (
        286, "ef4b9cc755dbb14410b566ac1c2d75b6a1bf479f73c4f0583c7b4f01766633ab"
    ),
}


@pytest.fixture(scope="module")
def clip():
    return synth_speech_like(8.0, 8000, seed=2024)


def fingerprint_digest(fp) -> str:
    h = hashlib.sha256(fp.signatures.tobytes())
    h.update(np.arange(len(fp.signatures), dtype="<i8").tobytes())
    return h.hexdigest()


def test_fingerprint_version_unchanged():
    assert FINGERPRINT_VERSION == 3


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_batch_fingerprint_matches_golden_digest(clip, variant, geometry):
    fp = fingerprint_audio(
        clip, SpectralConfig.for_variant(variant), GEOMETRIES[geometry]
    )
    n_subs, digest = GOLDEN_DIGESTS[(variant, geometry)]
    assert len(fp.signatures) == n_subs
    assert fingerprint_digest(fp) == digest


# config_digest of each (variant, geometry) at 8 kHz, as fingerprint
# version 3 made it. Saved indexes store this digest and refuse to load
# against another, so a change to the canonical config string fails here
GOLDEN_CONFIG_DIGESTS = {
    ("linear-vocal", "bench"): 0x936EC424FA3E179E,
    ("linear-vocal", "library"): 0x2005472E25A511A9,
    ("mel-vocal", "bench"): 0x8C2CD91EF8B1D669,
    ("mel-vocal", "library"): 0xC03294C60AEECA54,
    ("mel-wide", "bench"): 0x90BD776DDF12DA33,
    ("mel-wide", "library"): 0xA2778249125FC8F6,
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_config_digest_matches_golden(variant, geometry):
    digest = config_digest(
        SpectralConfig.for_variant(variant), GEOMETRIES[geometry], 8000
    )
    assert digest == GOLDEN_CONFIG_DIGESTS[(variant, geometry)]


# the same pins for an 8 s clip synthesised at 11.025 and 16 kHz,
# recorded from the stacked kernel that transformed whole zero-padded
# blocks. At 11.025 kHz linear-vocal has 47 real rows padded to 64, an odd
# count; at 16 kHz it fills 32 rows; the mel variants have 40 rows at
# every rate
GOLDEN_DIGESTS_AT_RATE = {
    ("linear-vocal", "bench", 11025): (
        285, "89ac6f93b35d6860c33f30e2f0bebf026ab90af3498f509d888dd6fade21d253"
    ),
    ("linear-vocal", "library", 11025): (
        6, "fce1befbf749e9ed875375d8a78b42ba00745a904816b7b4e880f3381d5e729b"
    ),
    ("mel-vocal", "bench", 11025): (
        285, "82718c03d05ac5990c6364cfc53bd36d5eb9cb76749eb736911a8092d5800ccd"
    ),
    ("mel-vocal", "library", 11025): (
        6, "39423da30953074f77ad787f4c38329d529a4c914938319760ece20ccd067584"
    ),
    ("mel-wide", "bench", 11025): (
        285, "8abd8ea6bdfaecde91fcfe1404ebdf23536d486307fdb35f578dd78c7063258f"
    ),
    ("mel-wide", "library", 11025): (
        6, "2d8e10a3ea319cc8ab7a3266a4271d5345ae3680f8fc544efbc063f61b2c0551"
    ),
    ("linear-vocal", "bench", 16000): (
        285, "c0f031b539c16faa2e7b80c0db26974b3a9fce3d375db1207876652c0f22715a"
    ),
    ("linear-vocal", "library", 16000): (
        6, "b48c43ec5536308f547001bcdee04fe9b2f8bd9603981fe29eae08799a5269a6"
    ),
    ("mel-vocal", "bench", 16000): (
        285, "49c07845f646814f0a25e17df7dacf0a63cdb6ba3076f83a5755a61c250d63bf"
    ),
    ("mel-vocal", "library", 16000): (
        6, "09573f2297f7e5c82e61d1db6fb3db05d4fd8c981adc3d86f03967d7d14ff2d4"
    ),
    ("mel-wide", "bench", 16000): (
        285, "70f8c6b599764413f831a6d545f1425fbd205b7da66a804b7078767646b51ca4"
    ),
    ("mel-wide", "library", 16000): (
        6, "79a76bae82752af520bfc83f1c511d1b1114a74cb84d1f5d5d91215ffc047018"
    ),
}


@pytest.mark.parametrize("rate", [11025, 16000])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_fingerprint_at_rate_matches_golden_digest(variant, geometry, rate):
    clip = synth_speech_like(8.0, rate, seed=2024)
    fp = fingerprint_audio(
        clip, SpectralConfig.for_variant(variant), GEOMETRIES[geometry]
    )
    n_subs, digest = GOLDEN_DIGESTS_AT_RATE[(variant, geometry, rate)]
    assert len(fp.signatures) == n_subs
    assert fingerprint_digest(fp) == digest


# sha256 of the capped bit-major rank table (``MinHasher.table``, uint8,
# [dimension + 1, n_permutations]) at the benchmark geometry's dimension
# and the library's; each equals the digest of min(255, the full int32
# rank table that one stable sort per permutation gives), with the
# all-255 marker row appended
GOLDEN_MINHASH_TABLES = {
    4096: "25742f85db1e17e6cb9c4f27d001cd04fa6a776b8d71a96bba04a6be8009f38d",
    16384: "d0e3a5d42404e91dc7aa9d841d301e5d2182c2267f50eabf2f96f92f64ad88f1",
}


@pytest.mark.parametrize("dimension", sorted(GOLDEN_MINHASH_TABLES))
def test_minhash_table_matches_golden_digest(dimension):
    table = get_minhasher(LIBRARY.n_permutations, dimension, LIBRARY.seed).table
    assert table.shape == (dimension + 1, LIBRARY.n_permutations)
    assert table.dtype == np.uint8 and table.flags.c_contiguous
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == GOLDEN_MINHASH_TABLES[dimension]


# the smallest tables, recorded the same way: row b is bit b's position
# under each permutation, and the last row the marker's; seed 2**64 - 1
# and a negative seed give other salts
@pytest.mark.parametrize(
    "shape, seed, positions",
    [
        ((1, 1), LIBRARY.seed, [[0], [255]]),
        ((3, 2), LIBRARY.seed, [[1, 0, 0], [0, 1, 1], [255, 255, 255]]),
        ((3, 2), 2**64 - 1, [[1, 0, 1], [0, 1, 0], [255, 255, 255]]),
        ((3, 2), -5, [[1, 1, 0], [0, 0, 1], [255, 255, 255]]),
    ],
)
def test_smallest_minhash_tables(shape, seed, positions):
    hasher = MinHasher(*shape, seed)
    assert hasher.table.tolist() == positions
    assert hasher.table.flags.c_contiguous


@pytest.mark.parametrize(
    "n_permutations, dimension", [(1, 1), (3, 2), (7, 33), (100, 4096), (100, 16384)]
)
def test_minhash_rows_are_permutations(n_permutations, dimension):
    """Each permutation gives positions 0 to min(dimension, 255) - 1 to
    one bit each and caps every other bit, and the marker, at 255."""
    table = MinHasher(n_permutations, dimension, LIBRARY.seed).table
    assert table.shape == (dimension + 1, n_permutations)
    capped = np.minimum(np.arange(dimension + 1), 255)
    capped[-1] = 255
    np.testing.assert_array_equal(
        np.sort(table, axis=0),
        np.broadcast_to(capped[:, None], table.shape),
    )


# 57 samples completes no block on most feeds and one on some; one block
# hop of samples completes about one block per feed; the whole clip
# completes every block in a single feed
@pytest.mark.parametrize("chunking", ["57", "block-hop", "whole"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_streaming_fingerprint_matches_golden_digest(clip, variant, geometry, chunking):
    spectral = SpectralConfig.for_variant(variant)
    cfg = GEOMETRIES[geometry]
    chunk = {
        "57": 57,
        "block-hop": round(cfg.block_hop_frames * spectral.stride_s * clip.sample_rate),
        "whole": len(clip),
    }[chunking]
    streamer = StreamingFingerprinter(clip.sample_rate, spectral, cfg)
    rows = [
        streamer.feed(clip.samples[start : start + chunk])
        for start in range(0, len(clip), chunk)
    ]
    streamer.finish()
    per_feed = [len(fresh) for fresh in rows]
    signatures = np.concatenate(rows)
    fp = Fingerprint(0, signatures)
    assert len(signatures) == streamer.blocks_emitted
    n_subs, digest = GOLDEN_DIGESTS[(variant, geometry)]
    assert len(signatures) == n_subs
    assert fingerprint_digest(fp) == digest
    if chunking == "57":
        assert 0 in per_feed and max(per_feed) == 1
    elif chunking == "whole":
        assert per_feed == [n_subs]


# ids include values at and above 2**32 and the largest u64
FILE_IDS = (3, 17, 2**32 + 5, 2**40 + 1, 2**64 - 1)
PLANTED_COPY = 2**33  # the same fingerprint as file 17
NOISY_COPY = 9  # file 2**40 + 1 under 30 dB noise

# per geometry: find_duplicates(0.8), then find_duplicates(0.05) of the
# loose index (the planted files at min_band_votes=1)
GOLDEN_DUPLICATES = {
    "library": (
        [(9, 1099511627777, 1.0), (17, 8589934592, 1.0)],
        [
            (9, 1099511627777, 1.0),
            (17, 8589934592, 1.0),
            (17, 18446744073709551615, 0.09090909090909091),
            (8589934592, 18446744073709551615, 0.09090909090909091),
        ],
    ),
    "bench": (
        [(9, 1099511627777, 1.0), (17, 8589934592, 1.0)],
        [
            (9, 1099511627777, 1.0),
            (17, 8589934592, 1.0),
            (3, 4294967301, 0.8426966292134831),
            (17, 18446744073709551615, 0.8426966292134831),
            (8589934592, 18446744073709551615, 0.8426966292134831),
            (3, 18446744073709551615, 0.8224719101123595),
            (3, 17, 0.6629213483146067),
            (3, 8589934592, 0.6629213483146067),
            (17, 1099511627777, 0.5910112359550562),
            (8589934592, 1099511627777, 0.5910112359550562),
            (9, 17, 0.5707865168539326),
            (9, 8589934592, 0.5707865168539326),
            (9, 18446744073709551615, 0.4786516853932584),
            (4294967301, 18446744073709551615, 0.4651685393258427),
            (1099511627777, 18446744073709551615, 0.46292134831460674),
            (17, 4294967301, 0.2943820224719101),
            (4294967301, 8589934592, 0.2943820224719101),
            (3, 1099511627777, 0.27191011235955054),
            (3, 9, 0.24943820224719102),
            (4294967301, 1099511627777, 0.1842696629213483),
            (9, 4294967301, 0.15056179775280898),
        ],
    ),
}

# per geometry and query: (default thresholds, the loose index's
# min_band_votes=1 with min_confidence=0.01), each (file_id, score,
# matched_subs, confidence)
# or None. Queries: per enrolled file an 8 s slice at 1.6 s under 20 dB
# noise, then one at 0.8 s under 12 dB noise and rate 1.01; last, two
# clips that were never enrolled.
GOLDEN_RESULTS = {
    "library": [
        [(3, 11, 3, 0.5), (3, 14, 6, 1.0)],
        [None, (3, 1, 1, 0.16666666666666666)],
        [(17, 30, 6, 1.0), (17, 31, 6, 1.0)],
        [None, (17, 1, 1, 0.16666666666666666)],
        [
            (4294967301, 16, 4, 0.6666666666666666),
            (4294967301, 17, 5, 0.8333333333333334),
        ],
        [None, None],
        [(1099511627777, 31, 6, 1.0), (1099511627777, 31, 6, 1.0)],
        [None, (1099511627777, 4, 4, 0.6666666666666666)],
        [(18446744073709551615, 29, 6, 1.0), (18446744073709551615, 29, 6, 1.0)],
        [None, None],
        [None, None],
        [None, None],
    ],
    "bench": [
        [(3, 2973, 254, 0.8912280701754386), (3, 4832, 283, 0.9929824561403509)],
        [(3, 634, 113, 0.40070921985815605), (3, 1917, 253, 0.8971631205673759)],
        [(17, 3048, 272, 0.9543859649122807), (17, 4362, 285, 1.0)],
        [(17, 955, 144, 0.5106382978723404), (17, 1975, 248, 0.8794326241134752)],
        [
            (4294967301, 2871, 251, 0.8807017543859649),
            (4294967301, 4981, 281, 0.9859649122807017),
        ],
        [
            (4294967301, 1014, 133, 0.4716312056737589),
            (4294967301, 2518, 245, 0.8687943262411347),
        ],
        [(9, 5004, 280, 0.9824561403508771), (9, 6720, 285, 1.0)],
        [(9, 2030, 232, 0.8226950354609929), (9, 3514, 275, 0.975177304964539)],
        [
            (18446744073709551615, 3997, 262, 0.9192982456140351),
            (18446744073709551615, 6363, 283, 0.9929824561403509),
        ],
        [
            (18446744073709551615, 1366, 172, 0.6099290780141844),
            (18446744073709551615, 3204, 259, 0.9184397163120568),
        ],
        [None, (1099511627777, 571, 190, 0.6666666666666666)],
        [
            (18446744073709551615, 369, 75, 0.2631578947368421),
            (3, 1775, 243, 0.8526315789473684),
        ],
    ],
}

# stats() of the planted index: the sorted band arrays must count
# postings and buckets (distinct keys per band) exactly as the per-band
# dicts did
GOLDEN_STATS = {
    "library": IndexStats(n_files=7, n_subs=77, n_postings=1540, n_buckets=1195),
    "bench": IndexStats(n_files=7, n_subs=3115, n_postings=62300, n_buckets=32630),
}

SPECTRAL = SpectralConfig.for_variant(Variant.MEL_VOCAL)


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def planted(request):
    """(geometry name, index with two planted duplicates, query prints)."""
    cfg = GEOMETRIES[request.param]
    digest = config_digest(SPECTRAL, cfg, 8000)
    audios = [synth_speech_like(12.0, 8000, seed=300 + i) for i in range(len(FILE_IDS))]
    index = RetrievalIndex.for_config(digest, cfg)
    prints = {}
    for file_id, audio in zip(FILE_IDS, audios):
        prints[file_id] = fingerprint_audio(audio, SPECTRAL, cfg, file_id)
        index.enroll(prints[file_id])
    index.enroll(dataclasses.replace(prints[17], file_id=PLANTED_COPY))
    noisy = add_noise(audios[3], 30.0, seed=1)
    index.enroll(fingerprint_audio(noisy, SPECTRAL, cfg, NOISY_COPY))
    return request.param, index, planted_queries(cfg, audios)


def planted_queries(cfg, audios):
    """The query prints of GOLDEN_RESULTS from the planted files' audio."""
    queries = []
    for i, audio in enumerate(audios):
        queries.append(
            make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=20.0, rate=1.0, offset_s=1.6),
                np.random.SeedSequence((77, i)),
            )
        )
        queries.append(
            make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=12.0, rate=1.01, offset_s=0.8),
                np.random.SeedSequence((78, i)),
            )
        )
    queries.extend(synth_speech_like(8.0, 8000, seed=900 + j) for j in range(2))
    return [fingerprint_audio(q, SPECTRAL, cfg) for q in queries]


def as_tuple(result):
    if result is None:
        return None
    return (result.file_id, result.score, result.matched_subs, result.confidence)


def test_query_results_match_golden(planted, planted_loose):
    geometry, index, prints = planted
    got = [[as_tuple(index.query(fp)), as_tuple(planted_loose.query(fp))] for fp in prints]
    assert got == GOLDEN_RESULTS[geometry]


def test_batched_results_match_golden(planted):
    geometry, index, prints = planted
    got = [as_tuple(r) for r in index.query_batch(prints)]
    assert got == [pair[0] for pair in GOLDEN_RESULTS[geometry]]


def test_find_duplicates_matches_golden(planted, planted_loose):
    geometry, index, _prints = planted
    strict, loose = GOLDEN_DUPLICATES[geometry]
    assert index.find_duplicates(0.8) == strict
    assert planted_loose.find_duplicates(0.05) == loose


def test_stats_match_golden(planted):
    geometry, index, _prints = planted
    assert index.stats() == GOLDEN_STATS[geometry]


# sha256 of the save bytes of the planted index, first recorded from the
# index that kept a per-file copy of every band digest, again for
# fingerprint version 2's and version 3's config digests and bits, and
# again for index file version 3: each is the version 2 save with its
# block column dropped, every digest shifted right by 32, the version set
# to 3 and the checksum recomputed
GOLDEN_SAVE_SHA256 = {
    "library": "ef88aa4a34cd700612bcb080031997facd8f315231a3bd26ff20e86b3a23aa20",
    "bench": "a22203576ce06aabd51244a868652f04c88ff9fdbcdcd8ca166a6e7e826b63e7",
}


@pytest.fixture(scope="module")
def planted_prints(planted):
    """The planted index's enrolled fingerprints, by file id."""
    geometry, index, _prints = planted
    cfg = GEOMETRIES[geometry]
    audios = [synth_speech_like(12.0, 8000, seed=300 + i) for i in range(len(FILE_IDS))]
    prints = {
        file_id: fingerprint_audio(audio, SPECTRAL, cfg, file_id)
        for file_id, audio in zip(FILE_IDS, audios)
    }
    prints[PLANTED_COPY] = dataclasses.replace(prints[17], file_id=PLANTED_COPY)
    noisy = add_noise(audios[3], 30.0, seed=1)
    prints[NOISY_COPY] = fingerprint_audio(noisy, SPECTRAL, cfg, NOISY_COPY)
    return prints


@pytest.fixture(scope="module")
def planted_loose(planted, planted_prints):
    """The planted index's files at min_band_votes=1, min_confidence=0.01."""
    geometry, index, _prints = planted
    cfg = GEOMETRIES[geometry]
    loose = RetrievalIndex(
        index.config_digest,
        cfg.band_count,
        cfg.band_width,
        min_band_votes=1,
        min_confidence=0.01,
    )
    for file_id in sorted(planted_prints):
        loose.enroll(planted_prints[file_id])
    return loose


def test_saved_bytes_match_golden(planted, planted_prints, tmp_path):
    """The saved file is pinned, and enrolment order does not change it."""
    geometry, index, _prints = planted
    path = tmp_path / "planted.spix"
    index.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SAVE_SHA256[geometry]
    for seed in range(3):
        shuffled = RetrievalIndex.for_config(index.config_digest, GEOMETRIES[geometry])
        ids = sorted(planted_prints)
        for k in np.random.default_rng(seed).permutation(len(ids)):
            shuffled.enroll(planted_prints[ids[k]])
        other = tmp_path / f"shuffled{seed}.spix"
        shuffled.save(other)
        assert other.read_bytes() == path.read_bytes()


def test_version_2_round_trip_matches_golden(planted, planted_loose, tmp_path):
    geometry, index, prints = planted
    loaded = []
    for name, saved in (("planted", index), ("loose", planted_loose)):
        path = tmp_path / f"{name}.spix"
        saved.save(path)
        loaded.append(RetrievalIndex.load(path, expected_config_digest=index.config_digest))
        assert loaded[-1].stats() == GOLDEN_STATS[geometry]
    strict_index, loose_index = loaded
    assert (loose_index.min_band_votes, loose_index.min_confidence) == (1, 0.01)
    got = [
        [as_tuple(strict_index.query(fp)), as_tuple(loose_index.query(fp))]
        for fp in prints
    ]
    assert got == GOLDEN_RESULTS[geometry]
    strict, loose = GOLDEN_DUPLICATES[geometry]
    assert strict_index.find_duplicates(0.8) == strict
    assert loose_index.find_duplicates(0.05) == loose


# tests/data/planted_library_v2.spix is the planted library-geometry
# index as the index version 2 writer saved it, with the version 2 pin
# that GOLDEN_SAVE_SHA256["library"] held before index version 3
PLANTED_V2 = Path(__file__).parent / "data" / "planted_library_v2.spix"
PLANTED_V2_SHA256 = "db931c9a0cb12eef6bc62227baaa4f7ab7e88aa84c41a3734a883d4c656a6df5"


def test_planted_version_2_file_matches_golden(tmp_path):
    """The recorded version 2 save of the planted library index loads to
    its golden stats, answers and duplicates, and re-saves as the pinned
    version 3 bytes."""
    blob = PLANTED_V2.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == PLANTED_V2_SHA256
    assert blob[4:6] == b"\x02\x00"
    digest = config_digest(SPECTRAL, LIBRARY, 8000)
    index = RetrievalIndex.load(PLANTED_V2, expected_config_digest=digest)
    stats = index.stats()
    assert stats == GOLDEN_STATS["library"]
    # a posting is a u32 band key and an int32 row; a row, its file
    assert index.nbytes == 8 * stats.n_postings + 4 * stats.n_subs
    audios = [synth_speech_like(12.0, 8000, seed=300 + i) for i in range(len(FILE_IDS))]
    got = [as_tuple(r) for r in index.query_batch(planted_queries(LIBRARY, audios))]
    assert got == [pair[0] for pair in GOLDEN_RESULTS["library"]]
    assert index.find_duplicates(0.8) == GOLDEN_DUPLICATES["library"][0]
    path = tmp_path / "resaved.spix"
    index.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SAVE_SHA256["library"]


# tests/data/index_v1.spix was written by the index version 1 writer
# (per-file records, FNV-1a checksum) from fingerprint version 1 at the
# library geometry and mel-vocal spectra: 12 s clips
# synth_speech_like(12.0, 8000, seed=610 + i) as files V1_IDS, plus the
# first under 25 dB noise (add_noise seed 3) as V1_NOISY_COPY. Its config
# digest is the version 1 one, which no build of version 2 computes. This
# build reads index version 2 only, so the pins below run on
# V1_RESAVED, the same index saved as version 2 by the last build that
# read version 1
V1_FIXTURE = Path(__file__).parent / "data" / "index_v1.spix"
V1_RESAVED = Path(__file__).parent / "data" / "index_v1_resaved.spix"
V1_RESAVED_SHA256 = "4195e9d7bf3c51af487009088c227078e3881e35f6e961be84a7957ef224f8e6"
V1_CONFIG_DIGEST = 0x081BC0055B668542
V1_IDS = (6, 2**32 + 7)
V1_NOISY_COPY = 2**64 - 1
V1_STATS = IndexStats(n_files=3, n_subs=33, n_postings=660, n_buckets=566)
V1_DUPLICATES = [(6, 18446744073709551615, 1.0)]
# per query: (default thresholds, min_band_votes=1 with min_confidence
# 0.01, stored in a copy of V1_RESAVED's header). Queries: per enrolled
# clip an 8 s slice at 1.6 s under 20 dB noise, then one at 0.8 s under
# 12 dB noise and rate 1.01; last, a clip that was never enrolled.
V1_RESULTS = [
    [(18446744073709551615, 36, 6, 1.0), (18446744073709551615, 36, 6, 1.0)],
    [None, (18446744073709551615, 2, 2, 0.3333333333333333)],
    [(4294967303, 11, 4, 0.6666666666666666), (4294967303, 12, 5, 0.8333333333333334)],
    [None, (4294967303, 2, 2, 0.3333333333333333)],
    [None, None],
]
# the version 1 fingerprints of those five queries, made by the version 1
# kernel: their signature rows back to back, the block of each row and
# the row count of each query
V1_QUERIES = Path(__file__).parent / "data" / "index_v1_queries.npz"


@pytest.fixture(scope="module")
def v1_queries():
    with np.load(V1_QUERIES) as data:
        signatures, blocks, counts = data["signatures"], data["blocks"], data["counts"]
    ends = np.cumsum(counts)
    # row k of each query is its block k, so the stored blocks carry nothing
    for n, end in zip(counts, ends):
        np.testing.assert_array_equal(blocks[end - n : end], np.arange(n))
    return [
        Fingerprint(0, signatures[end - n : end], V1_CONFIG_DIGEST)
        for n, end in zip(counts, ends)
    ]


def test_version_1_file_is_refused():
    """A version 1 index file raises, naming its version, whatever digest
    is expected."""
    assert V1_FIXTURE.read_bytes()[4:6] == b"\x01\x00"
    for digest in (None, V1_CONFIG_DIGEST, config_digest(SPECTRAL, LIBRARY, 8000)):
        with pytest.raises(IncompatibleIndex, match="index version 1; .* rebuild"):
            RetrievalIndex.load(V1_FIXTURE, digest)


def test_version_1_file_resaved_as_version_2(v1_queries, tmp_path):
    """The recorded re-save holds the version 1 file's index: its stats,
    query answers and duplicates."""
    blob = V1_RESAVED.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == V1_RESAVED_SHA256
    assert blob[4:6] == b"\x02\x00"
    index = RetrievalIndex.load(V1_RESAVED, V1_CONFIG_DIGEST)
    assert index.stats() == V1_STATS
    assert index.file_ids == sorted(V1_IDS + (V1_NOISY_COPY,))
    assert index.find_duplicates(0.8) == V1_DUPLICATES
    # the same file with min_band_votes 1 and min_confidence 0.01 stored
    # in its header, which follow magic, version, digest, bands and width
    at = 4 + struct.calcsize("<HQHH")
    body = blob[:at] + struct.pack("<Hd", 1, 0.01) + blob[at + 10 : -8]
    loose_path = tmp_path / "loose.spix"
    loose_path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
    loose = RetrievalIndex.load(loose_path, V1_CONFIG_DIGEST)
    got = [[as_tuple(index.query(fp)), as_tuple(loose.query(fp))] for fp in v1_queries]
    assert got == V1_RESULTS


def test_version_1_data_is_refused(v1_queries):
    """The digest of this build's config differs from the version 1 one,
    so the version 1 index, re-saved as version 2, or a version 1
    fingerprint raises, naming the version."""
    digest = config_digest(SPECTRAL, LIBRARY, 8000)
    assert digest != V1_CONFIG_DIGEST
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3"):
        RetrievalIndex.load(V1_RESAVED, digest)
    index = RetrievalIndex.for_config(digest, LIBRARY)
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3"):
        index.query(v1_queries[0])
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3"):
        index.enroll(dataclasses.replace(v1_queries[0], file_id=1))
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3"):
        Pipeline(RetrievalIndex.load(V1_RESAVED), LabelRegistry(), SPECTRAL, LIBRARY)


# tests/data/index_v2.spix was saved by fingerprint version 2 (index file
# version 2) at the library geometry and mel-vocal spectra: 12 s clips
# synth_speech_like(12.0, 8000, seed=630 + i) as files V2_IDS. Its config
# digest is the version 2 one, which no build of version 3 computes
V2_FIXTURE = Path(__file__).parent / "data" / "index_v2.spix"
V2_CONFIG_DIGEST = 0x544F39BA1A33958D
V2_IDS = (4, 2**36 + 9)
V2_STATS = IndexStats(n_files=2, n_subs=22, n_postings=440, n_buckets=440)


def test_version_2_data_is_refused():
    """The version 2 file loads under its own digest only: this build's
    digest, and so a pipeline over it, raises naming version 3."""
    assert V2_FIXTURE.read_bytes()[4:6] == b"\x02\x00"
    index = RetrievalIndex.load(V2_FIXTURE, V2_CONFIG_DIGEST)
    assert index.stats() == V2_STATS and index.file_ids == list(V2_IDS)
    digest = config_digest(SPECTRAL, LIBRARY, 8000)
    assert digest not in (V2_CONFIG_DIGEST, V1_CONFIG_DIGEST)
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3 in this build"):
        RetrievalIndex.load(V2_FIXTURE, digest)
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3 in this build"):
        Pipeline(RetrievalIndex.load(V2_FIXTURE), LabelRegistry(), SPECTRAL, LIBRARY)
    fp = fingerprint_audio(synth_speech_like(4.0, 8000, seed=630), SPECTRAL, LIBRARY)
    with pytest.raises(IncompatibleIndex, match="fingerprint version, 3"):
        index.query(fp)
