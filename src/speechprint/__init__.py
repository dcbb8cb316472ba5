"""Speech-adapted audio fingerprinting and retrieval.

Fingerprints band-limited spectral images with a 2-D Haar transform,
top-coefficient sign encoding and min-hash, retrieves over a banded LSH
index, and wraps the lot in a streaming identify-or-enroll pipeline with
a transcript-clustering label registry and a degradation benchmark.
"""

from . import errors
from .audio import AudioBuffer, decode_wav, encode_wav, resample, slice_seconds
from .bench import (
    BENCH_FINGERPRINT,
    CellResult,
    ExperimentGrid,
    HypothesisReport,
    check_hypotheses,
    emit,
    load_results_csv,
    parse_grid_config,
    run_grid,
)
from .corpus import synth_corpus, synth_speech_like
from .degrade import (
    DeteriorationSpec,
    add_noise,
    change_rate,
    make_query,
    random_offset_slice,
)
from .fingerprint import (
    Fingerprint,
    FingerprintConfig,
    StreamingFingerprinter,
    config_digest,
    fingerprint_audio,
    min_audio_seconds,
)
from .index import IndexStats, MatchResult, RetrievalIndex
from .pipeline import (
    CANONICAL_RATE,
    IdentifyOutcome,
    Pipeline,
    stream_wav_bytes,
)
from .registry import (
    LabelRegistry,
    TranscriptDoc,
    build_registry_from_transcripts,
    cluster_dbscan,
    cluster_kmeans,
    load_transcript,
    vectorize,
)
from .server import PipelineServer, identify_over_socket, serve
from .spectral import (
    SpectralConfig,
    SpectralImage,
    Variant,
    make_image,
    mel_filterbank,
    stft_magnitude,
)

__version__ = "0.1.0"

__all__ = [
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
    "mel_filterbank",
    "min_audio_seconds",
    "parse_grid_config",
    "random_offset_slice",
    "resample",
    "run_grid",
    "serve",
    "slice_seconds",
    "stft_magnitude",
    "stream_wav_bytes",
    "synth_corpus",
    "synth_speech_like",
    "vectorize",
]
