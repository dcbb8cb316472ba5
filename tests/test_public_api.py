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
    "TranscriptLabeler",
    "Variant",
    "add_noise",
    "build_registry_from_transcripts",
    "change_rate",
    "check_hypotheses",
    "cluster_dbscan",
    "cluster_kmeans",
    "config_digest",
    "decode_wav",
    "deserialize_fingerprint",
    "emit",
    "encode_wav",
    "errors",
    "extract_keywords",
    "fingerprint_audio",
    "identify_over_socket",
    "load_results_csv",
    "load_transcript",
    "make_image",
    "make_query",
    "mel_filterbank",
    "min_audio_seconds",
    "parse_grid_config",
    "random_offset_slice",
    "resample",
    "run_grid",
    "serialize_fingerprint",
    "serve",
    "slice_seconds",
    "stft_magnitude",
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


# RetrievalIndex's read API and its parameter names. An index answers with
# the thresholds it was made with, so no query or dedup call takes one:
# update this table in the same change as the API and say so in CHANGES.md.
INDEX_SIGNATURES = {
    "__init__": [
        "self", "config_digest", "band_count", "band_width", "min_band_votes",
        "min_confidence",
    ],
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
