"""The package's public names: each resolves, and the list is pinned."""

import dataclasses
import inspect

import speechprint

# Adding or removing a public name is an API change: update this list in
# the same change and say so in CHANGES.md.
PUBLIC_NAMES = [
    "AudioBuffer",
    "BENCH_FINGERPRINT",
    "CANONICAL_RATE",
    "CellResult",
    "DeteriorationSpec",
    "ExperimentGrid",
    "Fingerprint",
    "FingerprintConfig",
    "HypothesisReport",
    "IdentifyOutcome",
    "IndexStats",
    "LabelRegistry",
    "MatchResult",
    "Pipeline",
    "PipelineServer",
    "RetrievalIndex",
    "SpectralConfig",
    "SpectralImage",
    "StreamingFingerprinter",
    "TranscriptDoc",
    "Variant",
    "add_noise",
    "build_registry_from_transcripts",
    "change_rate",
    "check_hypotheses",
    "cluster_dbscan",
    "cluster_kmeans",
    "config_digest",
    "decode_wav",
    "emit",
    "encode_wav",
    "errors",
    "fingerprint_audio",
    "identify_over_socket",
    "load_results_csv",
    "load_transcript",
    "make_image",
    "make_query",
    "min_audio_seconds",
    "parse_grid_config",
    "random_offset_slice",
    "resample",
    "run_grid",
    "serve",
    "slice_seconds",
    "stream_wav_bytes",
    "synth_corpus",
    "synth_speech_like",
    "vectorize",
]


def test_public_names_resolve_and_are_pinned():
    assert sorted(speechprint.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(speechprint, name)]
    assert missing == []


def test_fingerprint_fields_are_pinned():
    """Row k of the signatures is block k, so no block column is stored."""
    fields = [field.name for field in dataclasses.fields(speechprint.Fingerprint)]
    assert fields == ["file_id", "signatures", "config_digest"]


def test_fingerprint_config_sets_only_the_block_geometry():
    """The min-hash layout, 100 permutations read as 20 bands of 5 under
    one seed, is a class constant that config digests still cover."""
    config = speechprint.FingerprintConfig
    fields = [field.name for field in dataclasses.fields(config)]
    assert fields == ["block_frames", "block_hop_frames", "top_t"]
    layout = (config.band_count, config.band_width, config.seed, config.n_permutations)
    assert layout == (20, 5, 0x53504650, 100)


# RetrievalIndex's read API and its parameter names. An index answers with
# the thresholds it was made with, so no query or dedup call takes one:
# update this table in the same change as the API and say so in CHANGES.md.
INDEX_SIGNATURES = {
    "__init__": ["self", "config_digest", "min_band_votes", "min_confidence"],
    "for_config": ["config_digest", "fingerprint_config"],
    "query": ["self", "fp"],
    "query_batch": ["self", "queries"],
    "find_duplicates": ["self", "threshold"],
    "load": ["path", "expected_config_digest"],
}


def test_index_read_api_is_pinned():
    index = speechprint.RetrievalIndex
    got = {
        name: list(inspect.signature(getattr(index, name)).parameters)
        for name in INDEX_SIGNATURES
    }
    assert got == INDEX_SIGNATURES


# The parameter names of every library call the benchmark makes, each with
# its line in perfbench/workloads.py. The benchmark runs the same script on
# two commits, so a change that renames or drops one of these breaks the
# comparison: keep them, or change the benchmark first.
BENCHMARK_CALLS = {
    "Pipeline.__init__": ["self", "index", "registry", "spectral_config",
                          "fingerprint_config"],  # :358
    "PipelineServer.__init__": ["self", "address", "pipeline"],  # :359
    "identify_over_socket": ["host", "port", "wav_bytes", "chunk_size",
                             "timeout_s"],  # :418
    "fingerprint_audio": ["audio", "spectral_config", "fingerprint_config",
                          "file_id"],  # :212
    "decode_wav": ["data"],  # :212
    "config_digest": ["spectral", "fingerprint", "sample_rate"],  # :216
    "RetrievalIndex.for_config": ["config_digest", "fingerprint_config"],  # :217
    "RetrievalIndex.load": ["path", "expected_config_digest"],  # :578
    "StreamingFingerprinter": ["sample_rate", "spectral_config",
                               "fingerprint_config"],  # :498
    "SpectralConfig.for_variant": ["variant", "window_s", "stride_s"],  # :497
    "DeteriorationSpec": ["query_len_s", "snr_db", "rate", "offset_s"],  # :199
    "make_query": ["audio", "spec", "seed"],  # :204
    "add_noise": ["audio", "snr_db", "seed"],  # :347
    "slice_seconds": ["audio", "start_s", "duration_s"],  # :345
    "synth_speech_like": ["duration_s", "sample_rate", "seed"],  # :155
    "AudioBuffer": ["samples", "sample_rate"],  # :172, :349
    "encode_wav": ["audio", "bit_depth"],  # :205
}


def test_benchmark_calls_are_pinned():
    got = {}
    for name in BENCHMARK_CALLS:
        owner, _, attr = name.rpartition(".")
        obj = getattr(getattr(speechprint, owner) if owner else speechprint, attr)
        got[name] = list(inspect.signature(obj).parameters)
    assert got == BENCHMARK_CALLS
