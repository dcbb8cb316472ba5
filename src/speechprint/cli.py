"""Command line interface.

Subcommands mirror the library layout: corpus synthesis, index
construction and inspection, degradation, identification (streaming or
served over TCP), registry training and the benchmark grid.
"""

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import corpus as corpus_mod
from .audio import CANONICAL_RATE, decode_canonical, decode_wav, dump_raw, encode_wav
from .degrade import DeteriorationSpec, make_query
from .errors import IncompatibleIndex, IoError, SpeechprintError
from .fileio import read_bytes, write_atomic
from .fingerprint import VERSION_NOTE, FingerprintConfig, config_digest, fingerprint_audio
from .index import DEFAULT_DUPLICATE_THRESHOLD, RetrievalIndex
from .pipeline import Pipeline, stream_wav_bytes
from .registry import (
    LabelRegistry,
    build_registry_from_transcripts,
    load_transcript,
    load_transcript_dir,
)
from .server import serve
from .spectral import SpectralConfig, Variant, make_image

logger = logging.getLogger(__name__)

#: The command line's one block geometry, at 8 kHz; other geometries are
#: built through the library API
GEOMETRY = FingerprintConfig()


def _add_variant_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.MEL_VOCAL.value,
        help="spectral image layout (default %(default)s)",
    )


def _spectral_of(index: RetrievalIndex) -> SpectralConfig | None:
    """The spectral config of the variant that made ``index``, or None."""
    for variant in Variant:
        spectral = SpectralConfig.for_variant(variant)
        if config_digest(spectral, GEOMETRY, CANONICAL_RATE) == index.config_digest:
            return spectral
    return None


def _pipeline(index_path, registry_path) -> Pipeline:
    """The pipeline over the index file, at the variant it was built with,
    and the registry file or a new empty one."""
    index = RetrievalIndex.load(index_path)
    spectral = _spectral_of(index)
    if spectral is None:
        raise IncompatibleIndex(
            f"index built for config 0x{index.config_digest:016x}, which no "
            f"--variant of index build makes{VERSION_NOTE}"
        )
    registry = LabelRegistry.load(registry_path) if registry_path else LabelRegistry()
    return Pipeline(index, registry, spectral, GEOMETRY)


def _load_audio(path):
    return decode_canonical(read_bytes(path, "audio"))


def _load_transcript(args):
    """The --transcript file's document, or None; an unreadable file is an
    error before any audio is read or the index touched."""
    if args.transcript is None:
        return None
    return load_transcript(args.transcript, file_id=0)


def cmd_synth(args) -> int:
    paths = corpus_mod.synth_corpus(
        args.out_dir,
        n_files=args.n_files,
        duration_s=args.duration_s,
        seed=args.seed,
    )
    print(f"wrote {len(paths)} files to {args.out_dir}")
    return 0


def cmd_inspect_audio(args) -> int:
    audio = decode_wav(read_bytes(args.wav, "audio"))
    # written before anything is printed, so a failed write prints only
    # its error line
    if args.dump_raw:
        write_atomic(args.dump_raw, dump_raw(audio), "raw samples")
    peak = np.abs(audio.samples).max(initial=0.0)
    print(
        f"{args.wav}: {len(audio)} samples @ {audio.sample_rate} Hz "
        f"({audio.duration_seconds:.3f}s), peak {peak:.4f}"
    )
    if args.dump_raw:
        print(f"raw float32 samples -> {args.dump_raw}")
    return 0


def cmd_inspect_image(args) -> int:
    spectral = SpectralConfig.for_variant(args.variant)
    image = make_image(_load_audio(args.wav), spectral)
    rows = ([f"{v:.6g}" for v in row] for row in image.data)
    write_atomic(args.out, bench_mod._csv_bytes(rows), "spectral image")
    print(
        f"{image.n_bins} bins x {image.n_frames} frames "
        f"({spectral.variant.value}) -> {args.out}"
    )
    return 0


def cmd_index_build(args) -> int:
    spectral = SpectralConfig.for_variant(args.variant)
    digest = config_digest(spectral, GEOMETRY, CANONICAL_RATE)
    index = RetrievalIndex.for_config(digest, GEOMETRY)
    for file_id, path in bench_mod._corpus_files(args.corpus):
        index.enroll(fingerprint_audio(_load_audio(path), spectral, GEOMETRY, file_id))
        print(f"enrolled {path.name} as file {file_id}")
    index.save(args.out)
    print(f"index with {len(index)} files -> {args.out}")
    return 0


def cmd_index_stats(args) -> int:
    index = RetrievalIndex.load(args.index)
    stats = index.stats()
    print(f"files:    {stats.n_files}")
    print(f"subs:     {stats.n_subs}")
    print(f"postings: {stats.n_postings}")
    print(f"buckets:  {stats.n_buckets}")
    per_sub = index.nbytes / stats.n_subs if stats.n_subs else 0.0
    print(f"arrays:   {index.nbytes} bytes ({per_sub:.1f} per sub)")
    print(f"config:   0x{index.config_digest:016x}")
    spectral = _spectral_of(index)
    print(f"variant:  {spectral.variant.value if spectral else 'none matches'}")
    print(f"geometry: {index.band_count} bands x {index.band_width}")
    print(f"min_band_votes: {index.min_band_votes}")
    print(f"min_confidence: {index.min_confidence:g}")
    return 0


def cmd_index_dedup(args) -> int:
    index = RetrievalIndex.load(args.index)
    pairs = index.find_duplicates(threshold=args.threshold)
    for a, b, overlap in pairs:
        print(f"{a}\t{b}\t{overlap:.3f}")
    if not pairs:
        print("no duplicates found", file=sys.stderr)
    return 0


def cmd_degrade(args) -> int:
    audio = _load_audio(args.wav)
    spec = DeteriorationSpec(
        query_len_s=args.len_s,
        snr_db=args.snr_db,
        rate=args.rate,
        offset_s=args.offset_s,
    )
    out = make_query(audio, spec, args.seed)
    write_atomic(args.out, encode_wav(out), "audio")
    print(f"{args.wav} -> {args.out} ({out.duration_seconds:.3f}s)")
    return 0


def cmd_identify(args) -> int:
    transcript = _load_transcript(args)
    pipeline = _pipeline(args.index, args.registry)
    outcome = pipeline.identify_stream(
        stream_wav_bytes(read_bytes(args.wav, "audio")), transcript
    )
    print(
        f"status={outcome.status} file_id={outcome.file_id} "
        f"label_id={outcome.label_id} confidence={outcome.confidence:.3f} "
        f"consumed={outcome.audio_consumed_s:.2f}s {outcome.message}"
    )
    if outcome.status == "enrolled" and args.save_index:
        pipeline.index.save(args.index)
        if args.registry:
            pipeline.registry.save(args.registry)
    return 0 if outcome.status != "error" else 1


def cmd_enroll(args) -> int:
    transcript = _load_transcript(args)
    pipeline = _pipeline(args.index, args.registry)
    audio = _load_audio(args.wav)
    outcome = pipeline.enroll_file(pipeline.fingerprint(audio), transcript)
    pipeline.index.save(args.index)
    if args.registry:
        pipeline.registry.save(args.registry)
    print(f"enrolled file {outcome.file_id} label={outcome.label_id}")
    return 0


def cmd_serve(args) -> int:
    pipeline = _pipeline(args.index, args.registry)
    server = serve(args.listen, pipeline)
    host, port = server.server_address
    print(f"listening on {host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def cmd_train_cluster(args) -> int:
    docs = load_transcript_dir(args.transcripts)
    registry = build_registry_from_transcripts(
        docs,
        algo=args.algo,
        k=args.k,
        eps=args.eps,
        min_pts=args.min_pts,
        seed=args.seed,
        top_k=args.top_k,
    )
    registry.save(args.out)
    print(
        f"{len(registry.clusters())} clusters over {len(docs)} transcripts "
        f"-> {args.out}"
    )
    for info in registry.clusters():
        terms = ", ".join(t for t, _w in info.keywords[:5])
        print(f"  label {info.label_id} [{info.language}] {info.name}: {terms}")
    return 0


def cmd_train_keywords(args) -> int:
    docs = load_transcript_dir(args.transcripts)
    registry = LabelRegistry.load(args.registry)
    registry.refresh_keywords(docs, args.top_k)
    registry.save(args.registry)
    print(f"refreshed keywords for {len(registry.clusters())} clusters")
    return 0


def cmd_name_cluster(args) -> int:
    registry = LabelRegistry.load(args.registry)
    registry.name_cluster(args.label_id, args.name)
    registry.save(args.registry)
    print(f"label {args.label_id} named {args.name!r}")
    return 0


def cmd_label_lookup(args) -> int:
    registry = LabelRegistry.load(args.registry)
    label = registry.lookup(args.file_id)
    if label is None:
        state = "pending" if args.file_id in registry.pending() else "unknown"
        print(f"file {args.file_id}: {state}")
        return 1
    info = registry.cluster(label)
    print(f"file {args.file_id}: label {label} [{info.language}] {info.name}")
    return 0


def cmd_bench_run(args) -> int:
    grid = bench_mod.ExperimentGrid()
    if args.grid:
        grid = bench_mod.parse_grid_config(args.grid)
    if not Path(args.out).parent.is_dir():
        raise IoError(f"cannot write results to {args.out}: no such directory")
    results = bench_mod.run_grid(
        args.corpus,
        grid,
        progress=lambda cell: print(
            f"{cell.variant.value} stride={cell.stride_ms:g}ms "
            f"len={cell.query_len_s:g}s accuracy={cell.accuracy:.3f}"
        ),
    )
    paths = bench_mod.emit(results, args.out)
    report = bench_mod.check_hypotheses(results)
    print(report.render())
    print("results -> " + ", ".join(str(p) for p in paths))
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechprint",
        description="speech-adapted audio fingerprinting and retrieval",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic speech-like corpus")
    p.add_argument("out_dir")
    p.add_argument("--n-files", type=int, default=30)
    p.add_argument("--duration-s", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    inspect = sub.add_parser("inspect", help="inspect audio or spectral images")
    isub = inspect.add_subparsers(dest="what", required=True)
    p = isub.add_parser("audio")
    p.add_argument("wav")
    p.add_argument("--dump-raw", metavar="PATH")
    p.set_defaults(func=cmd_inspect_audio)
    p = isub.add_parser("image")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    _add_variant_arg(p)
    p.set_defaults(func=cmd_inspect_image)

    index = sub.add_parser("index", help="build and inspect retrieval indexes")
    xsub = index.add_subparsers(dest="action", required=True)
    p = xsub.add_parser("build")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_variant_arg(p)
    p.set_defaults(func=cmd_index_build)
    p = xsub.add_parser("stats")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_index_stats)
    p = xsub.add_parser("dedup")
    p.add_argument("--index", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_DUPLICATE_THRESHOLD)
    p.set_defaults(func=cmd_index_dedup)

    p = sub.add_parser("degrade", help="apply the degradation protocol to a file")
    p.add_argument("wav")
    p.add_argument("out")
    p.add_argument("--len-s", type=float, required=True)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--offset-s", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("identify", help="stream a file through identify-or-enroll")
    p.add_argument("wav")
    p.add_argument("--index", required=True)
    p.add_argument("--registry")
    p.add_argument("--transcript")
    p.add_argument("--save-index", action="store_true")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("enroll", help="enroll a file directly")
    p.add_argument("wav")
    p.add_argument("--index", required=True)
    p.add_argument("--registry")
    p.add_argument("--transcript")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("serve", help="run the TCP identification server")
    p.add_argument("--listen", default="127.0.0.1:9311")
    p.add_argument("--index", required=True)
    p.add_argument("--registry")
    p.set_defaults(func=cmd_serve)

    train = sub.add_parser("train", help="cluster transcripts into labels")
    tsub = train.add_subparsers(dest="action", required=True)
    p = tsub.add_parser("cluster")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--algo", choices=["kmeans", "dbscan"], default="kmeans")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--min-pts", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(func=cmd_train_cluster)
    p = tsub.add_parser("keywords")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(func=cmd_train_keywords)
    p = tsub.add_parser("name-cluster")
    p.add_argument("--registry", required=True)
    p.add_argument("label_id", type=int)
    p.add_argument("name")
    p.set_defaults(func=cmd_name_cluster)

    label = sub.add_parser("label", help="query the label registry")
    lsub = label.add_subparsers(dest="action", required=True)
    p = lsub.add_parser("lookup")
    p.add_argument("--registry", required=True)
    p.add_argument("file_id", type=int)
    p.set_defaults(func=cmd_label_lookup)

    benchp = sub.add_parser("bench", help="run the accuracy benchmark")
    bsub = benchp.add_subparsers(dest="action", required=True)
    p = bsub.add_parser("run")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", help="key=value grid config file")
    p.set_defaults(func=cmd_bench_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SpeechprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
