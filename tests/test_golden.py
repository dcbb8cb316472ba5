"""Golden pins on fingerprint bits and retrieval results.

The digests and results below were recorded from the per-block
fingerprint pipeline and the tuple-posting vote tally of
FINGERPRINT_VERSION 1; the index stats and the version 1 file pins from
the index that kept each band in a dict. Any refactor of the kernel or the index that
changes one bit of a signature, one block index, one vote or one
duplicate overlap fails here; a deliberate change of the bits must bump
FINGERPRINT_VERSION and re-record the pins.
"""

import hashlib
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
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
)
from speechprint.index import IndexStats, RetrievalIndex
from speechprint.spectral import SpectralConfig, Variant

LIBRARY = FingerprintConfig()
GEOMETRIES = {"library": LIBRARY, "bench": BENCH_FINGERPRINT}

# sha256 over the signature matrix bytes, then the block indices as <i8
GOLDEN_DIGESTS = {
    ("linear-vocal", "library"): (
        6, "5eb5e08aa59dc61907b3fe2a066834f85139ee30168c857da944d6ee2110519d"
    ),
    ("linear-vocal", "bench"): (
        286, "bb01537de705f206f46d93dec0db9997f1b99a5c017b3a4095ad8f801283ca59"
    ),
    ("mel-vocal", "library"): (
        6, "216c79310121c5ee324cc71f8da6d9507d8084b75b032c47c905381201af89b4"
    ),
    ("mel-vocal", "bench"): (
        286, "50bef65f8a52f712893350f27b7d8379b2ed808c1066cc4f0cc4d603a6d4184a"
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


def subs_digest(subs) -> str:
    h = hashlib.sha256(np.stack([s.signature for s in subs]).tobytes())
    h.update(np.array([s.block_index for s in subs], dtype="<i8").tobytes())
    return h.hexdigest()


def test_fingerprint_version_unchanged():
    assert FINGERPRINT_VERSION == 1


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_batch_fingerprint_matches_golden_digest(clip, variant, geometry):
    fp = fingerprint_audio(
        clip, SpectralConfig.for_variant(variant), GEOMETRIES[geometry]
    )
    n_subs, digest = GOLDEN_DIGESTS[(variant, geometry)]
    assert len(fp.subs) == n_subs
    assert subs_digest(fp.subs) == digest


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
        285, "70563a78a95bf3f5f177e276d6586dcf67a6ddedebc8e515f40fb36026f5a062"
    ),
    ("mel-vocal", "library", 11025): (
        6, "39423da30953074f77ad787f4c38329d529a4c914938319760ece20ccd067584"
    ),
    ("mel-wide", "bench", 11025): (
        285, "524ec847feca1b71ba982b779ed03974b886eab7f769592aa1119bff32ccf53d"
    ),
    ("mel-wide", "library", 11025): (
        6, "2d8e10a3ea319cc8ab7a3266a4271d5345ae3680f8fc544efbc063f61b2c0551"
    ),
    ("linear-vocal", "bench", 16000): (
        286, "0562d8ed098bc9e7aa3b1750bf9244c2292118c315f32b75295f76eaa8c53aa8"
    ),
    ("linear-vocal", "library", 16000): (
        6, "6d313a4b0eb75226e298b2a7d5872e8273a50df99a9dc74b4a276e021451b2ab"
    ),
    ("mel-vocal", "bench", 16000): (
        286, "002a43465051c31db7129312543753cbce0583a5e417242f6978d6b2dd6dfc64"
    ),
    ("mel-vocal", "library", 16000): (
        6, "f97eb40dae27eff7099dba72ee8bc441769facf8aceba518978065580e33fa66"
    ),
    ("mel-wide", "bench", 16000): (
        286, "cb39983b668b7e312049a5d697f1c6a93b873b48e5096d5ade2ce85d16cd38aa"
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
    assert len(fp.subs) == n_subs
    assert subs_digest(fp.subs) == digest


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
    subs, per_feed = [], []
    for start in range(0, len(clip), chunk):
        fresh = streamer.feed(clip.samples[start : start + chunk])
        per_feed.append(len(fresh))
        subs.extend(fresh)
    subs.extend(streamer.finish())
    n_subs, digest = GOLDEN_DIGESTS[(variant, geometry)]
    assert len(subs) == n_subs
    assert subs_digest(subs) == digest
    if chunking == "57":
        assert 0 in per_feed and max(per_feed) == 1
    elif chunking == "whole":
        assert per_feed == [n_subs]


# ids include values at and above 2**32 and the largest u64
FILE_IDS = (3, 17, 2**32 + 5, 2**40 + 1, 2**64 - 1)
PLANTED_COPY = 2**33  # the same fingerprint as file 17
NOISY_COPY = 9  # file 2**40 + 1 under 30 dB noise

# per geometry: find_duplicates(0.8), find_duplicates(0.05, min_band_votes=1)
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
            (17, 18446744073709551615, 0.8452914798206278),
            (8589934592, 18446744073709551615, 0.8452914798206278),
            (3, 4294967301, 0.8385650224215246),
            (3, 18446744073709551615, 0.8116591928251121),
            (3, 17, 0.6591928251121076),
            (3, 8589934592, 0.6591928251121076),
            (17, 1099511627777, 0.5807174887892377),
            (8589934592, 1099511627777, 0.5807174887892377),
            (9, 17, 0.5672645739910314),
            (9, 8589934592, 0.5672645739910314),
            (9, 18446744073709551615, 0.47533632286995514),
            (4294967301, 18446744073709551615, 0.45964125560538116),
            (1099511627777, 18446744073709551615, 0.45739910313901344),
            (17, 4294967301, 0.2914798206278027),
            (4294967301, 8589934592, 0.2914798206278027),
            (3, 1099511627777, 0.26681614349775784),
            (3, 9, 0.23542600896860988),
            (4294967301, 1099511627777, 0.18385650224215247),
            (9, 4294967301, 0.15246636771300448),
        ],
    ),
}

# per geometry and query: (default thresholds, min_band_votes=1 with
# min_confidence=0.01), each (file_id, score, matched_subs, confidence)
# or None. Queries: per enrolled file an 8 s slice at 1.6 s under 20 dB
# noise, then one at 0.8 s under 12 dB noise and rate 1.01; last, two
# clips that were never enrolled.
GOLDEN_RESULTS = {
    "library": [
        [(3, 12, 3, 0.5), (3, 15, 6, 1.0)],
        [None, (3, 1, 1, 0.16666666666666666)],
        [(17, 27, 6, 1.0), (17, 27, 6, 1.0)],
        [None, (17, 1, 1, 0.16666666666666666)],
        [
            (4294967301, 15, 4, 0.6666666666666666),
            (4294967301, 16, 5, 0.8333333333333334),
        ],
        [None, None],
        [(1099511627777, 31, 6, 1.0), (1099511627777, 31, 6, 1.0)],
        [None, (1099511627777, 3, 3, 0.5)],
        [(18446744073709551615, 30, 6, 1.0), (18446744073709551615, 30, 6, 1.0)],
        [None, None],
        [None, None],
        [None, None],
    ],
    "bench": [
        [(3, 2931, 256, 0.8951048951048951), (3, 4781, 284, 0.993006993006993)],
        [(3, 633, 109, 0.38652482269503546), (3, 1926, 257, 0.9113475177304965)],
        [(17, 3040, 275, 0.9615384615384616), (17, 4363, 286, 1.0)],
        [(17, 940, 143, 0.5070921985815603), (17, 1961, 248, 0.8794326241134752)],
        [
            (4294967301, 2887, 253, 0.8846153846153846),
            (4294967301, 5021, 283, 0.9895104895104895),
        ],
        [
            (4294967301, 994, 135, 0.4787234042553192),
            (4294967301, 2531, 247, 0.875886524822695),
        ],
        [(9, 5087, 280, 0.9790209790209791), (1099511627777, 6639, 286, 1.0)],
        [(9, 2046, 232, 0.8226950354609929), (9, 3546, 275, 0.975177304964539)],
        [
            (18446744073709551615, 4039, 265, 0.9265734265734266),
            (18446744073709551615, 6417, 284, 0.993006993006993),
        ],
        [
            (18446744073709551615, 1394, 173, 0.6134751773049646),
            (18446744073709551615, 3217, 259, 0.9184397163120568),
        ],
        [None, (1099511627777, 586, 191, 0.6678321678321678)],
        [
            (18446744073709551615, 389, 77, 0.2692307692307692),
            (3, 1762, 243, 0.8496503496503497),
        ],
    ],
}

# stats() of the planted index: the sorted band arrays must count
# postings and buckets (distinct keys per band) exactly as the per-band
# dicts did
GOLDEN_STATS = {
    "library": IndexStats(n_files=7, n_subs=77, n_postings=1540, n_buckets=1197),
    "bench": IndexStats(n_files=7, n_subs=3122, n_postings=62440, n_buckets=32703),
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
    index.enroll(Fingerprint(PLANTED_COPY, prints[17].subs, digest))
    noisy = add_noise(audios[3], 30.0, seed=1)
    index.enroll(fingerprint_audio(noisy, SPECTRAL, cfg, NOISY_COPY))
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
    prints = [fingerprint_audio(q, SPECTRAL, cfg) for q in queries]
    return request.param, index, prints


def as_tuple(result):
    if result is None:
        return None
    return (result.file_id, result.score, result.matched_subs, result.confidence)


def test_query_results_match_golden(planted):
    geometry, index, prints = planted
    got = [
        [
            as_tuple(index.query(fp)),
            as_tuple(index.query(fp, min_band_votes=1, min_confidence=0.01)),
        ]
        for fp in prints
    ]
    assert got == GOLDEN_RESULTS[geometry]


def test_batched_results_match_golden(planted):
    geometry, index, prints = planted
    got = [as_tuple(r) for r in index.query_batch(prints)]
    assert got == [pair[0] for pair in GOLDEN_RESULTS[geometry]]


def test_find_duplicates_matches_golden(planted):
    geometry, index, _prints = planted
    strict, loose = GOLDEN_DUPLICATES[geometry]
    assert index.find_duplicates(0.8) == strict
    assert index.find_duplicates(0.05, min_band_votes=1) == loose


def test_stats_match_golden(planted):
    geometry, index, _prints = planted
    assert index.stats() == GOLDEN_STATS[geometry]


# sha256 of the version 2 save bytes of the planted index, recorded from
# the index that kept a per-file copy of every band digest
GOLDEN_SAVE_SHA256 = {
    "library": "7119721b21d3d5a5d5abe7c02baa4b53451b9ad53d9f656a90a302fefdd03b7f",
    "bench": "fea0850b3b51caa46ca1b2702aee59a2d91bb68cce526fb93a34f6f71987712d",
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
    prints[PLANTED_COPY] = Fingerprint(PLANTED_COPY, prints[17].subs, index.config_digest)
    noisy = add_noise(audios[3], 30.0, seed=1)
    prints[NOISY_COPY] = fingerprint_audio(noisy, SPECTRAL, cfg, NOISY_COPY)
    return prints


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


def test_version_2_round_trip_matches_golden(planted, tmp_path):
    geometry, index, prints = planted
    path = tmp_path / "planted.spix"
    index.save(path)
    loaded = RetrievalIndex.load(path, expected_config_digest=index.config_digest)
    assert loaded.stats() == GOLDEN_STATS[geometry]
    got = [
        [
            as_tuple(loaded.query(fp)),
            as_tuple(loaded.query(fp, min_band_votes=1, min_confidence=0.01)),
        ]
        for fp in prints
    ]
    assert got == GOLDEN_RESULTS[geometry]
    strict, loose = GOLDEN_DUPLICATES[geometry]
    assert loaded.find_duplicates(0.8) == strict
    assert loaded.find_duplicates(0.05, min_band_votes=1) == loose


# tests/data/index_v1.spix was written by the version 1 writer (per-file
# records, FNV-1a checksum) at the library geometry and mel-vocal
# spectra: 12 s clips synth_speech_like(12.0, 8000, seed=610 + i) as
# files V1_IDS, plus the first under 25 dB noise (add_noise seed 3) as
# V1_NOISY_COPY
V1_FIXTURE = Path(__file__).parent / "data" / "index_v1.spix"
V1_IDS = (6, 2**32 + 7)
V1_NOISY_COPY = 2**64 - 1
V1_STATS = IndexStats(n_files=3, n_subs=33, n_postings=660, n_buckets=566)
V1_DUPLICATES = [(6, 18446744073709551615, 1.0)]
# per query: (default thresholds, min_band_votes=1 with min_confidence
# 0.01). Queries: per enrolled clip an 8 s slice at 1.6 s under 20 dB
# noise, then one at 0.8 s under 12 dB noise and rate 1.01; last, a
# clip that was never enrolled.
V1_RESULTS = [
    [(18446744073709551615, 36, 6, 1.0), (18446744073709551615, 36, 6, 1.0)],
    [None, (18446744073709551615, 2, 2, 0.3333333333333333)],
    [(4294967303, 11, 4, 0.6666666666666666), (4294967303, 12, 5, 0.8333333333333334)],
    [None, (4294967303, 2, 2, 0.3333333333333333)],
    [None, None],
]


@pytest.fixture(scope="module")
def v1_queries():
    audios = [synth_speech_like(12.0, 8000, seed=610 + i) for i in range(len(V1_IDS))]
    queries = []
    for i, audio in enumerate(audios):
        queries.append(
            make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=20.0, rate=1.0, offset_s=1.6),
                np.random.SeedSequence((61, i)),
            )
        )
        queries.append(
            make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=12.0, rate=1.01, offset_s=0.8),
                np.random.SeedSequence((62, i)),
            )
        )
    queries.append(synth_speech_like(8.0, 8000, seed=990))
    return [fingerprint_audio(q, SPECTRAL, LIBRARY) for q in queries]


def check_v1_pins(index, queries):
    assert index.stats() == V1_STATS
    assert index.file_ids == sorted(V1_IDS + (V1_NOISY_COPY,))
    got = [
        [
            as_tuple(index.query(fp)),
            as_tuple(index.query(fp, min_band_votes=1, min_confidence=0.01)),
        ]
        for fp in queries
    ]
    assert got == V1_RESULTS
    assert index.find_duplicates(0.8) == V1_DUPLICATES


def test_version_1_file_still_loads(v1_queries):
    digest = config_digest(SPECTRAL, LIBRARY, 8000)
    assert V1_FIXTURE.read_bytes()[4:6] == b"\x01\x00"
    check_v1_pins(RetrievalIndex.load(V1_FIXTURE, digest), v1_queries)


def test_version_1_file_resaved_as_version_2(v1_queries, tmp_path):
    digest = config_digest(SPECTRAL, LIBRARY, 8000)
    path = tmp_path / "resaved.spix"
    RetrievalIndex.load(V1_FIXTURE, digest).save(path)
    assert path.read_bytes()[4:6] == b"\x02\x00"
    check_v1_pins(RetrievalIndex.load(path, digest), v1_queries)
