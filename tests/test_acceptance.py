"""Release acceptance gate: every criterion prints one pass/fail line.

Each test owns one numbered criterion and asserts it at its stated
tolerance. The printed line carries the measured value so a failing run
shows how far off the build is, not just that it failed.
"""

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Thread

import numpy as np
import pytest

from speechprint.audio import AudioBuffer, encode_wav, slice_seconds
from speechprint.bench import (
    BENCH_FINGERPRINT,
    ExperimentGrid,
    check_hypotheses,
    load_corpus,
    run_grid,
)
from speechprint.corpus import synth_speech_like
from speechprint.degrade import DeteriorationSpec, add_noise, make_query
from speechprint.fingerprint import (
    FingerprintConfig,
    MinHasher,
    SparseBits,
    config_digest,
    fingerprint_audio,
    haar2d,
)
from speechprint.index import RetrievalIndex
from speechprint.pipeline import STATUS_IDENTIFIED, Pipeline
from speechprint.registry import LabelRegistry
from speechprint.server import identify_over_socket, serve
from speechprint.spectral import SpectralConfig, Variant

from oracle import ihaar2d

LIBRARY_FP = FingerprintConfig()
VARIANTS = (Variant.LINEAR_VOCAL, Variant.MEL_VOCAL, Variant.MEL_WIDE)


def record(criterion: int, name: str, passed: bool, detail: str) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"acceptance {criterion:02d} {name}: {flag} ({detail})", flush=True)
    assert passed, f"criterion {criterion} {name}: {detail}"


def build_index(corpus, spectral, fp_config):
    digest = config_digest(spectral, fp_config, corpus[0][1].sample_rate)
    index = RetrievalIndex.for_config(digest, fp_config)
    for file_id, audio in corpus:
        index.enroll(fingerprint_audio(audio, spectral, fp_config, file_id))
    return index, digest


@pytest.fixture(scope="module")
def corpus(desk_corpus_dir):
    return load_corpus(desk_corpus_dir)


@pytest.fixture(scope="module")
def library_index(corpus):
    spectral = SpectralConfig.for_variant(Variant.MEL_VOCAL)
    index, digest = build_index(corpus, spectral, LIBRARY_FP)
    return index, spectral, digest


@pytest.fixture(scope="module")
def full_grid_report(desk_corpus_dir):
    results = run_grid(desk_corpus_dir, ExperimentGrid())
    return check_hypotheses(results)


def test_01_self_retrieval_is_perfect(corpus):
    t0 = time.perf_counter()
    worst = 1.0
    for variant in VARIANTS:
        spectral = SpectralConfig.for_variant(variant)
        index, _digest = build_index(corpus, spectral, LIBRARY_FP)
        correct = 0
        for file_id, audio in corpus:
            result = index.query(fingerprint_audio(audio, spectral, LIBRARY_FP))
            correct += result is not None and result.file_id == file_id
        worst = min(worst, correct / len(corpus))
    elapsed = time.perf_counter() - t0
    record(
        1,
        "undegraded self-retrieval",
        worst == 1.0 and elapsed < 60.0,
        f"worst variant accuracy {worst:.3f} in {elapsed:.1f}s (need 1.0, < 60s)",
    )


def test_02_degraded_six_second_retrieval_beats_floor(desk_corpus_dir):
    grid = ExperimentGrid(
        strides_ms=(25.0,),
        query_lens_s=(6.0,),
        snr_db_range=(20.0, 30.0),
    )
    t0 = time.perf_counter()
    results = run_grid(desk_corpus_dir, grid)
    elapsed = time.perf_counter() - t0
    floor = min(cell.accuracy for cell in results)
    per_variant = ", ".join(
        f"{cell.variant.value} {cell.accuracy:.3f}" for cell in results
    )
    record(
        2,
        "degraded 6 s retrieval",
        floor >= 0.9 and elapsed < 300.0,
        f"{per_variant} in {elapsed:.0f}s (need >= 0.9 each, < 300s)",
    )


def test_03_accuracy_plateaus_by_six_seconds(full_grid_report):
    h1 = full_grid_report.h1
    worst_gap = max(h1.metrics["gaps"].values())
    record(
        3,
        "6 s within 0.05 of longest query",
        h1.passed,
        f"max accuracy gap {worst_gap:.6f} (allowed 0.05)",
    )


def test_04_accuracy_decays_with_stride(full_grid_report):
    h2 = full_grid_report.h2
    worst_rho = max(h2.metrics["rho"].values())
    record(
        4,
        "stride decay rank correlation",
        h2.passed,
        f"max Spearman rho {worst_rho:.3f} (allowed -0.5)",
    )


def test_05_variants_agree(full_grid_report):
    h3 = full_grid_report.h3
    record(
        5,
        "variant parity",
        h3.passed,
        f"mean max pairwise gap {h3.metrics['mean_gap']:.3f} (allowed 0.1)",
    )


def test_06_minhash_matches_exact_jaccard():
    dimension, n_permutations = 200, 1000
    hasher = MinHasher(n_permutations, dimension, seed=0x5EED)
    rng = np.random.default_rng(606)
    errors = []
    while len(errors) < 100:
        union = rng.permutation(dimension)[: int(rng.integers(10, 120))]
        split = rng.random(union.size)
        hi = float(rng.uniform(0.5, 1.0))
        lo = float(rng.uniform(0.0, 0.5))
        a = union[split < hi]
        b = union[split >= lo]
        if a.size == 0 or b.size == 0:
            continue
        exact = np.intersect1d(a, b).size / np.union1d(a, b).size
        sig_a = hasher.signature(SparseBits(np.sort(a), dimension))
        sig_b = hasher.signature(SparseBits(np.sort(b), dimension))
        errors.append(abs(float(np.mean(sig_a == sig_b)) - exact))
    mae = float(np.mean(errors))
    record(
        6,
        "min-hash similarity fidelity",
        mae <= 0.05,
        f"MAE {mae:.4f} over 100 pairs at p={n_permutations} (allowed 0.05)",
    )


def test_07_haar_round_trip_preserves_signal_and_norm():
    rng = np.random.default_rng(707)
    worst_round_trip = 0.0
    worst_norm_drift = 0.0
    for shape in [(2, 2), (8, 8), (16, 64), (64, 32), (256, 128)]:
        block = rng.standard_normal(shape)
        coeffs = haar2d(block)
        rebuilt = ihaar2d(coeffs)
        worst_round_trip = max(
            worst_round_trip, float(np.max(np.abs(rebuilt - block)))
        )
        worst_norm_drift = max(
            worst_norm_drift,
            abs(float(np.linalg.norm(coeffs)) - float(np.linalg.norm(block))),
        )
    record(
        7,
        "Haar round-trip and norm",
        worst_round_trip <= 1e-9 and worst_norm_drift <= 1e-9,
        f"round-trip {worst_round_trip:.2e}, norm drift {worst_norm_drift:.2e} "
        f"(allowed 1e-9 each)",
    )


def test_08_batch_and_concurrent_results_match_serial(corpus, library_index):
    index, spectral, _digest = library_index
    queries = []
    for i in range(256):
        file_id, audio = corpus[i % len(corpus)]
        kind = i % 4
        if kind == 0:
            clip = audio
        elif kind == 1:
            clip = make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=25.0, rate=1.01),
                np.random.SeedSequence((808, i)),
            )
        elif kind == 2:
            clip = synth_speech_like(7.0, seed=10_000 + i)
        else:
            clip = slice_seconds(audio, 0.0, 6.5)
        queries.append(fingerprint_audio(clip, spectral, LIBRARY_FP))
    serial = [index.query(fp) for fp in queries]
    batch = index.query_batch(queries)
    batch_ok = batch == serial

    pipeline = Pipeline(index, LabelRegistry(), spectral, LIBRARY_FP)
    server = serve("127.0.0.1:0", pipeline)
    thread = Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        host, port = server.server_address[:2]
        payloads = [
            encode_wav(slice_seconds(corpus[i % len(corpus)][1], 0.0, 8.0))
            for i in range(32)
        ]
        serial_outcomes = [identify_over_socket(host, port, p) for p in payloads]
        with ThreadPoolExecutor(max_workers=32) as pool:
            concurrent_outcomes = list(
                pool.map(lambda p: identify_over_socket(host, port, p), payloads)
            )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    server_ok = concurrent_outcomes == serial_outcomes and all(
        outcome.status == STATUS_IDENTIFIED for outcome in serial_outcomes
    )
    record(
        8,
        "batch and concurrent equivalence",
        batch_ok and server_ok,
        f"256 batched queries {'==' if batch_ok else '!='} serial, "
        f"32 concurrent sessions {'==' if server_ok else '!='} serial oracle",
    )


def test_09_realised_snr_within_hundredth_db():
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4000, 24000))
        clip = AudioBuffer(0.1 * rng.standard_normal(n), 8000)
        requested = float(rng.uniform(5.0, 30.0))
        noisy = add_noise(clip, requested, np.random.SeedSequence((909, trial)))
        residual = noisy.samples - clip.samples
        realised = 10.0 * np.log10(
            np.mean(np.square(clip.samples)) / np.mean(np.square(residual))
        )
        worst = max(worst, abs(float(realised) - requested))
    record(
        9,
        "SNR calibration",
        worst <= 0.01,
        f"max |realised - requested| {worst:.6f} dB over 100 trials "
        f"(allowed 0.01)",
    )


def test_10_duplicate_detection_exact_at_threshold(corpus):
    spectral = SpectralConfig.for_variant(Variant.MEL_VOCAL)
    index, _digest = build_index(corpus, spectral, LIBRARY_FP)
    audio_by_id = dict(corpus)
    planted = [(3, 31), (12, 32), (21, 33)]
    for source_id, duplicate_id in planted:
        index.enroll(
            fingerprint_audio(
                audio_by_id[source_id], spectral, LIBRARY_FP, duplicate_id
            )
        )
    pairs = index.find_duplicates(0.8)
    found = {(a, b) for a, b, _overlap in pairs}
    n_files = len(index)
    distinct_pairs = n_files * (n_files - 1) // 2 - len(planted)
    passed = (
        found == set(planted)
        and all(overlap == 1.0 for _a, _b, overlap in pairs)
        and distinct_pairs >= 400
    )
    record(
        10,
        "duplicate detection",
        passed,
        f"found {sorted(found)} at threshold 0.8, zero false positives "
        f"among {distinct_pairs} distinct pairs",
    )


def test_11_median_query_latency_under_50ms(corpus):
    spectral = SpectralConfig.for_variant(Variant.MEL_VOCAL)
    index, _digest = build_index(corpus, spectral, BENCH_FINGERPRINT)
    timings = []
    for trial in range(15):
        _file_id, audio = corpus[trial % len(corpus)]
        query = make_query(
            audio,
            DeteriorationSpec(6.0, snr_db=25.0, rate=1.0),
            np.random.SeedSequence((1111, trial)),
        )
        t0 = time.perf_counter()
        fp = fingerprint_audio(query, spectral, BENCH_FINGERPRINT)
        index.query(fp)
        timings.append(time.perf_counter() - t0)
    median_s = statistics.median(timings)
    record(
        11,
        "fingerprint+query latency",
        median_s <= 0.050,
        f"median {median_s * 1000:.1f} ms over 15 runs of a 6 s query at "
        f"25 ms stride (allowed 50 ms)",
    )


def test_12_saved_index_reproduces_scores(tmp_path, corpus, library_index):
    index, spectral, digest = library_index
    queries = []
    for i, (_file_id, audio) in enumerate(corpus):
        queries.append(fingerprint_audio(audio, spectral, LIBRARY_FP))
        if i % 2 == 0:
            degraded = make_query(
                audio,
                DeteriorationSpec(8.0, snr_db=22.0, rate=0.99),
                np.random.SeedSequence((1212, i)),
            )
            queries.append(fingerprint_audio(degraded, spectral, LIBRARY_FP))
    for j in range(3):
        queries.append(
            fingerprint_audio(
                synth_speech_like(7.0, seed=5000 + j), spectral, LIBRARY_FP
            )
        )
    before = [index.query(fp) for fp in queries]
    path = tmp_path / "acceptance.idx"
    index.save(path)
    loaded = RetrievalIndex.load(path, expected_config_digest=digest)
    after = [loaded.query(fp) for fp in queries]
    passed = after == before and loaded.stats() == index.stats()
    record(
        12,
        "persistence round trip",
        passed,
        f"{len(queries)} query results bit-identical after save/load",
    )
