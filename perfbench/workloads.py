"""The three workloads of the speechprint benchmark.

Each workload makes its inputs from the seed before anything is timed
(WAV bytes only reach the program), sets the program up several times,
runs its operations for the requested number of seconds, and checks
every output against the source it was cut from. The rationale for each
workload, and which layer it is meant to expose, is in DESIGN.md.

Calls into speechprint go through module attributes (``sp.decode_wav``,
``sp.fingerprint_audio``) so that a traced run, which rebinds those
names, sees them.
"""

import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

import speechprint as sp
from speechprint.bench import BENCH_FINGERPRINT

RATE = sp.CANONICAL_RATE
CATALOG_S = 15.0
QUERY_S = 6.0
STREAM_S = 8.0
NEW_STREAM_S = 10.0
CHUNK_BYTES = 4096
DEDUP_THRESHOLD = 0.8
PERSIST_REPEATS = 3
SESSION_TIMEOUT_S = 60.0
# query-dense asks this many distinct queries per second of --seconds (at
# least four), a quarter of them never enrolled
QUERIES_PER_S = 12.0
# call-sessions prepares this many streams per second of --seconds (at
# least eight), each sent at most once
STREAMS_PER_S = 35.0
# a run whose known inputs are identified less often than this is wrong,
# not slow: the benchmark refuses to report it as a valid measurement
HIT_RATE_FLOOR = {"query-dense": 0.5, "call-sessions": 0.3, "catalog-build": 0.5}

SPECTRAL = sp.SpectralConfig.for_variant(sp.Variant.MEL_VOCAL)
LIBRARY_FINGERPRINT = sp.FingerprintConfig()


@dataclass(frozen=True)
class Scale:
    """Input sizes. The defaults are the benchmark; tests use TINY."""

    dense_files: int = 80
    session_files: int = 32
    build_files: int = 12
    build_known: int = 24
    build_unknown: int = 8
    dense_setup_repeats: int = 2  # index builds, each followed by a round of queries
    setup_repeats: int = 5


TINY = Scale(
    dense_files=3, session_files=3,
    build_files=3, build_known=3, build_unknown=1,
    dense_setup_repeats=2, setup_repeats=2,
)

_TAGS = {"query-dense": 1, "call-sessions": 2, "catalog-build": 3}


class _NoTracer:
    """Stands in for the tracer in untraced runs."""

    phase = "setup"

    def begin(self, name):
        return -1

    def end(self, index, amount=0.0):
        pass

    def set_op(self, op_id):
        pass


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    metrics: dict  # end-to-end name -> value
    notes: dict  # end-to-end name -> sample count or definition detail
    attempted: int
    failed: int
    problems: list
    n_ops: int
    audio_in_s: float
    extra_layers: dict  # per-layer values only the workload can measure


def _rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it.

    That is the 11th largest sample, which sits at percentile
    100 * (1 - 10 / n). Fewer than 11 samples give the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (1.0 - 10.0 / n)


def _latency_metrics(latencies_s: list[float], what: str) -> tuple[dict, dict]:
    value, pct = tail(latencies_s)
    metrics = {
        "p50_ms": 1000.0 * statistics.median(latencies_s),
        "tail_ms": 1000.0 * value,
    }
    notes = {
        "p50_ms": f"median {what} latency over {len(latencies_s)} samples",
        "tail_ms": f"p{pct:.1f} {what} latency over {len(latencies_s)} samples",
    }
    return metrics, notes


def _done(elapsed_s: float, target_s: float, unit_s: float) -> bool:
    """Whether to stop after a whole unit (a pass, a cycle) of ``unit_s``.

    Stops at the unit boundary nearest the target, so a run never
    overshoots by more than half a unit.
    """
    return elapsed_s >= target_s - unit_s / 2


def _seq(seed: int, workload: str, role: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _TAGS[workload], role, i])


def _synth(args) -> np.ndarray:
    seed, workload, role, i, duration_s = args
    return sp.synth_speech_like(duration_s, RATE, _seq(seed, workload, role, i)).samples


def _clips(seed: int, workload: str, *groups: tuple[int, int, float]):
    """Synthetic clips for each (role, count, seconds) group, in order.

    They are made on two worker processes: input generation is not
    measured but takes a large share of a run's wall time. Each clip
    depends only on its own seed, so the split does not change the inputs.
    The workers are forked: a spawned pool also starts multiprocessing's
    resource tracker, a process that outlives the run by a moment.
    Leaving the ``with`` block joins both workers.
    """
    jobs = [(seed, workload, role, i, seconds)
            for role, count, seconds in groups for i in range(count)]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        clips = [sp.AudioBuffer(samples, RATE) for samples in pool.map(_synth, jobs)]
    out = []
    for _role, count, _seconds in groups:
        out.append(clips[:count])
        clips = clips[count:]
    return out


def _degraded_queries(seed, workload, known, unknown, n_known, n_unknown):
    """6 s queries: random offset, rate 0.98-1.02, SNR 10-30 dB.

    Sources are spread evenly over each pool, so that no clip weighs more
    than another in the timings. Returns [(wav bytes, expected file id or
    None, seconds)], known ones expecting the 1-based catalogue id of their
    source.
    """
    rng = np.random.default_rng(_seq(seed, workload, 9, 0))

    def spread(n_pool, n):
        rounds = [rng.permutation(n_pool) for _ in range(-(-n // n_pool))]
        return [int(i) for i in np.concatenate(rounds)[:n]] if n else []

    sources = spread(len(known), n_known) + spread(len(unknown), n_unknown)
    out = []
    for k, src in enumerate(sources):
        is_known = k < n_known
        pool = known if is_known else unknown
        spec = sp.DeteriorationSpec(
            QUERY_S,
            snr_db=float(rng.uniform(10.0, 30.0)),
            rate=float(rng.uniform(0.98, 1.02)),
        )
        query = sp.make_query(pool[src], spec, _seq(seed, workload, 10, k))
        out.append((sp.encode_wav(query), src + 1 if is_known else None,
                    query.duration_seconds))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _fingerprint_wav(wav: bytes, config, file_id: int = 0):
    return sp.fingerprint_audio(sp.decode_wav(wav), SPECTRAL, config, file_id)


def _build_index(catalog: list[tuple[int, bytes]], config):
    digest = sp.config_digest(SPECTRAL, config, RATE)
    index = sp.RetrievalIndex.for_config(digest, config)
    for file_id, wav in catalog:
        index.enroll(_fingerprint_wav(wav, config, file_id))
    return index


def _index_layers(index) -> dict:
    stats = index.stats()
    return {"index.postings": stats.n_postings, "index.buckets": stats.n_buckets}


# -- query-dense -------------------------------------------------------------


def query_dense(seed: int, seconds: float, tracer=None, scale: Scale = Scale()):
    """One closed-loop client: decode_wav -> fingerprint_audio -> query."""
    tracer = tracer or _NoTracer()
    name = "query-dense"
    n_queries = max(4, round(QUERIES_PER_S * seconds))
    n_unknown = n_queries // 4
    clean, unknown = _clips(
        seed, name, (0, scale.dense_files, CATALOG_S),
        (1, math.ceil(n_unknown / 3), CATALOG_S),
    )
    catalog = [(i + 1, sp.encode_wav(clip)) for i, clip in enumerate(clean)]
    queries = _degraded_queries(
        seed, name, clean, unknown, n_queries - n_unknown, n_unknown
    )
    del clean, unknown
    rss0 = _rss_mib()

    # Set-up and timed rounds alternate (build, queries, build, queries), so
    # both sample the machine's speed across the whole run rather than in
    # one stretch: on a shared 2-CPU box that speed drifts by tens of
    # percent from one minute to the next. Each round asks its share of the
    # distinct queries once: a repeated query finds its postings warm in
    # the CPU caches and runs faster than a new one, so repeats would make
    # the median depend on how many fit in the run.
    rounds = scale.dense_setup_repeats
    setup, latencies, results = [], [], {}
    problems, failed, attempted, audio_in_s, wall = [], 0, 0, 0.0, 0.0
    index = None
    for r in range(rounds):
        index = None  # drop the previous build before timing the next
        tracer.phase = "setup"
        t0 = time.perf_counter()
        index = _build_index(catalog, BENCH_FINGERPRINT)
        setup.append(time.perf_counter() - t0)
        tracer.phase = "run"
        start = time.perf_counter()
        for i in range(r, len(queries), rounds):
            wav, _expected, duration_s = queries[i]
            attempted += 1
            audio_in_s += duration_s
            tracer.set_op(("query", i))
            span = tracer.begin("bench.query")
            t0 = time.perf_counter()
            try:
                results[i] = index.query(_fingerprint_wav(wav, BENCH_FINGERPRINT))
            except Exception as exc:  # counted, reported, run goes on
                tracer.end(span)
                failed += 1
                problems.append(f"query {i}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - t0)
            tracer.end(span)
        wall += time.perf_counter() - start
    tracer.phase = "end"

    known = [i for i, q in enumerate(queries) if q[1] is not None]
    hits = sum(1 for i in known if results.get(i) and results[i].file_id == queries[i][1])
    false_ids = sum(
        1 for i, r in results.items() if r is not None and r.file_id != queries[i][1]
    )
    metrics, notes = _latency_metrics(latencies, "query")
    metrics.update(
        ops_per_s=len(latencies) / wall,
        hit_rate=hits / len(known),
        setup_s=statistics.median(setup),
        mem_mib=_rss_mib() - rss0,
        false_id_rate=false_ids / len(queries),
    )
    notes.update(
        ops_per_s="queries per second, one closed-loop client",
        hit_rate=f"{hits}/{len(known)} known queries identified",
        setup_s=(f"median of {len(setup)} index builds ({len(catalog)} files), "
                 f"one before each round of queries"),
        false_id_rate=f"{false_ids}/{len(queries)} distinct queries",
    )
    return Outcome(
        metrics, notes, attempted, failed, problems,
        n_ops=len(latencies),
        audio_in_s=audio_in_s,
        extra_layers=_index_layers(index),
    )


# -- call-sessions -----------------------------------------------------------


# stream kinds: 0 known from its start, 1 known at a 0-1 s offset, 2 known
# resampled to 16 kHz, 3 never enrolled. Per six sessions two are kind 0 and
# two kind 2, so the median session lands inside one latency cluster (equal
# quarters put it in the gap between the 16 kHz and the offset clusters).
SESSION_MIX = (0, 2, 1, 0, 2, 3)


def _session_kinds(n_streams: int) -> list[int]:
    return [SESSION_MIX[s % len(SESSION_MIX)] for s in range(n_streams)]


def _session_streams(seed, kinds, catalog_clips, new_clips):
    """Session inputs in SESSION_MIX order.

    Returns [(wav bytes, source key, seconds, kind)]; a source key is
    ("catalog", file id) or ("new", n).
    """
    name = "call-sessions"
    rng = np.random.default_rng(_seq(seed, name, 9, 0))
    streams, n_new = [], 0
    for s, kind in enumerate(kinds):
        snr = float(rng.uniform(20.0, 30.0))
        if kind == 3:
            clip, key = new_clips[n_new], ("new", n_new)
            n_new += 1
        else:
            src = int(rng.integers(len(catalog_clips)))
            offset = float(rng.uniform(0.0, 1.0)) if kind == 1 else 0.0
            clip = sp.slice_seconds(catalog_clips[src], offset, STREAM_S)
            key = ("catalog", src + 1)
        clip = sp.add_noise(clip, snr, _seq(seed, name, 10, s))
        if kind == 2:
            clip = sp.AudioBuffer(
                np.clip(resample_poly(clip.samples, 2, 1), -1.0, 1.0), 2 * RATE
            )
        streams.append((sp.encode_wav(clip), key, clip.duration_seconds, kind))
    return streams


def _start_server(catalog):
    index = _build_index(catalog, LIBRARY_FINGERPRINT)
    pipeline = sp.Pipeline(index, sp.LabelRegistry(), SPECTRAL, LIBRARY_FINGERPRINT)
    server = sp.PipelineServer(("127.0.0.1", 0), pipeline)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, thread


def _stop_server(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=SESSION_TIMEOUT_S)


def call_sessions(seed: int, seconds: float, tracer=None, scale: Scale = Scale()):
    """Two closed-loop connections stream WAV frames to a PipelineServer.

    The run ends early if every prepared stream has been sent, so that the
    mix never changes by streaming an input twice.
    """
    tracer = tracer or _NoTracer()
    name = "call-sessions"
    kinds = _session_kinds(max(8, math.ceil(STREAMS_PER_S * seconds)))
    clean, new_clips = _clips(
        seed, name, (0, scale.session_files, CATALOG_S), (1, kinds.count(3), NEW_STREAM_S),
    )
    catalog = [(i + 1, sp.encode_wav(clip)) for i, clip in enumerate(clean)]
    streams = _session_streams(seed, kinds, clean, new_clips)
    del clean, new_clips
    rss0 = _rss_mib()

    setup = []
    server = thread = None
    for _ in range(scale.setup_repeats):
        if server is not None:
            _stop_server(server, thread)
        t0 = time.perf_counter()
        server, thread = _start_server(catalog)
        setup.append(time.perf_counter() - t0)
    port = server.server_address[1]

    tracer.phase = "run"
    lock = threading.Lock()
    next_stream = [0]
    done: dict[int, tuple] = {}
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while True:
            with lock:
                s = next_stream[0]
                if s >= len(streams) or time.perf_counter() >= deadline:
                    return
                next_stream[0] += 1
            tracer.set_op(("client", s))
            span = tracer.begin("bench.session")
            t0 = time.perf_counter()
            try:
                outcome = sp.identify_over_socket(
                    "127.0.0.1", port, streams[s][0], CHUNK_BYTES, SESSION_TIMEOUT_S
                )
            except Exception as exc:  # counted as a failed session
                outcome = exc
            took = time.perf_counter() - t0
            tracer.end(span)
            with lock:
                done[s] = (outcome, took)

    clients = [threading.Thread(target=client, name=f"client-{c}") for c in range(2)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=seconds + 10 * SESSION_TIMEOUT_S)
    wall = time.perf_counter() - start
    tracer.phase = "end"
    index = server.pipeline.index
    _stop_server(server, thread)
    if any(c.is_alive() for c in clients):
        raise RuntimeError("a client thread did not finish")

    # enrolled file id -> source key, so that a later stream identified as
    # a copy enrolled earlier in the run counts as identified
    source = {i + 1: ("catalog", i + 1) for i in range(scale.session_files)}
    for s, (outcome, _t) in done.items():
        if isinstance(outcome, sp.IdentifyOutcome) and outcome.status == "enrolled":
            source[outcome.file_id] = streams[s][1]
    problems, failed = [], 0
    hits = known = false_ids = 0
    latencies, by_kind = [], ([], [], [], [])
    for s, (outcome, took) in sorted(done.items()):
        key = streams[s][1]
        if not isinstance(outcome, sp.IdentifyOutcome) or outcome.status == "error":
            failed += 1
            problems.append(f"session {s}: {getattr(outcome, 'message', outcome)!r}")
            continue
        latencies.append(took)
        by_kind[streams[s][3]].append(took)
        if key[0] == "catalog":
            known += 1
        if outcome.status != "identified":
            continue
        if source.get(outcome.file_id) != key:
            false_ids += 1
        elif key[0] == "catalog":
            hits += 1
    metrics, notes = _latency_metrics(latencies, "session")
    metrics.update(
        ops_per_s=len(done) / wall,
        hit_rate=hits / max(known, 1),
        setup_s=statistics.median(setup),
        mem_mib=_rss_mib() - rss0,
        false_id_rate=false_ids / max(len(done), 1),
    )
    notes["p50_ms"] += "; by kind (start, offset, 16 kHz, new): " + ", ".join(
        f"{1000 * statistics.median(k):.1f}" if k else "-" for k in by_kind
    ) + " ms"
    notes.update(
        ops_per_s=f"sessions per second at 2 connections ({len(done)} sessions)",
        hit_rate=f"{hits}/{known} known streams identified",
        setup_s=f"median of {len(setup)} index builds plus server starts",
        false_id_rate=f"{false_ids}/{len(done)} sessions",
    )
    return Outcome(
        metrics, notes, len(done), failed, problems,
        n_ops=len(done),
        audio_in_s=sum(streams[s][2] for s in done),
        extra_layers=_index_layers(index),
    )


# -- catalog-build -----------------------------------------------------------

_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import speechprint as sp
from speechprint.bench import BENCH_FINGERPRINT as fp
spectral = sp.SpectralConfig.for_variant("mel-vocal")
sp.StreamingFingerprinter(8000, spectral, fp)
sp.RetrievalIndex.for_config(sp.config_digest(spectral, fp, 8000), fp)
"""


def _cold_start_s() -> float:
    """A fresh interpreter importing speechprint and readying an empty index."""
    src = Path(sp.__file__).resolve().parent.parent
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _COLD_START, str(src)], check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def catalog_build(seed: int, seconds: float, tracer=None, scale: Scale = Scale(),
                  workdir: Path = Path(".perfbench")):
    """Enrol a catalogue with 2 planted duplicates, dedup, save, load.

    The saved index lives in ``workdir`` while a cycle runs.
    """
    tracer = tracer or _NoTracer()
    name = "catalog-build"
    clean, unknown = _clips(
        seed, name, (0, scale.build_files, CATALOG_S),
        (1, math.ceil(scale.build_unknown / 3), CATALOG_S),
    )
    rng = np.random.default_rng(_seq(seed, name, 8, 0))
    originals = sorted(int(i) + 1 for i in rng.choice(len(clean), 2, replace=False))
    entries = [(i + 1, sp.encode_wav(clip)) for i, clip in enumerate(clean)]
    entries += [(len(clean) + 1 + k, entries[orig - 1][1]) for k, orig in enumerate(originals)]
    expected_pairs = [(orig, len(clean) + 1 + k, 1.0) for k, orig in enumerate(originals)]
    queries = _degraded_queries(
        seed, name, clean, unknown, scale.build_known, scale.build_unknown
    )
    del clean, unknown
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"catalog-{os.getpid()}.spix"
    digest = sp.config_digest(SPECTRAL, BENCH_FINGERPRINT, RATE)
    rss0 = _rss_mib()

    tracer.phase = "check"
    query_fps = [_fingerprint_wav(wav, BENCH_FINGERPRINT) for wav, _e, _d in queries]

    setup, latencies, dedups, saves, loads = [], [], [], [], []
    problems, failed, attempted, hits_seen, timed_s = [], 0, 0, [], 0.0
    try:
        # Whole cycles, each from an empty index, so every cycle is
        # identical. A cold start precedes each of the first cycles, so that
        # set-up and cycles both sample the machine's speed across the run.
        while True:
            if len(setup) < scale.setup_repeats:
                tracer.phase = "setup"
                setup.append(_cold_start_s())
            tracer.phase = "run"
            cycle_start = time.perf_counter()
            index = sp.RetrievalIndex.for_config(digest, BENCH_FINGERPRINT)
            for file_id, wav in entries:
                attempted += 1
                tracer.set_op(("file", attempted))
                span = tracer.begin("bench.enroll_file")
                t0 = time.perf_counter()
                index.enroll(_fingerprint_wav(wav, BENCH_FINGERPRINT, file_id))
                latencies.append(time.perf_counter() - t0)
                tracer.end(span)
            tracer.set_op(("cycle", len(dedups)))
            attempted += 1
            t0 = time.perf_counter()
            pairs = index.find_duplicates(DEDUP_THRESHOLD)
            dedups.append(time.perf_counter() - t0)
            if pairs != expected_pairs:
                failed += 1
                problems.append(f"dedup found {pairs}, planted {expected_pairs}")
            for _ in range(PERSIST_REPEATS):
                t0 = time.perf_counter()
                index.save(path)
                saves.append(time.perf_counter() - t0)
            for _ in range(PERSIST_REPEATS):
                t0 = time.perf_counter()
                loaded = sp.RetrievalIndex.load(path, expected_config_digest=digest)
                loads.append(time.perf_counter() - t0)
            attempted += 1
            if loaded.stats() != index.stats():
                failed += 1
                problems.append(f"loaded {loaded.stats()} != saved {index.stats()}")
            before = [index.query(fp) for fp in query_fps]
            after = [loaded.query(fp) for fp in query_fps]
            if before != after:
                failed += 1
                problems.append("loaded index answers the query set differently")
            hits_seen.append(sum(
                1 for r, q in zip(after, queries)
                if q[1] is not None and r is not None and r.file_id == q[1]
            ))
            cycle_s = time.perf_counter() - cycle_start
            timed_s += cycle_s
            if len(setup) == scale.setup_repeats and _done(timed_s, seconds, cycle_s):
                break
        file_mib = path.stat().st_size / 2**20
    finally:
        path.unlink(missing_ok=True)
    tracer.phase = "end"

    n_known = sum(1 for q in queries if q[1] is not None)
    false_ids = sum(
        1 for r, q in zip(after, queries) if r is not None and r.file_id != q[1]
    )
    metrics, notes = _latency_metrics(latencies, "file enrolment")
    # The tail spans every timed call of a cycle, so that the slowest ones,
    # find_duplicates and load, set it and a dedup or persistence
    # regression shows in it.
    calls = latencies + dedups + saves + loads
    value, pct = tail(calls)
    metrics["tail_ms"] = 1000.0 * value
    notes["tail_ms"] = (f"p{pct:.1f} over {len(calls)} timed calls: file enrolments, "
                        f"find_duplicates, saves and loads")
    metrics.update(
        ops_per_s=(len(dedups) + len(saves) + len(loads))
        / (sum(dedups) + sum(saves) + sum(loads)),
        hit_rate=hits_seen[-1] / n_known,
        setup_s=statistics.median(setup),
        mem_mib=_rss_mib() - rss0,
        false_id_rate=false_ids / len(queries),
        enroll_audio_s_per_s=len(latencies) * CATALOG_S / sum(latencies),
        dedup_s=statistics.median(dedups),
        save_s=statistics.median(saves),
        load_s=statistics.median(loads),
    )
    if len(set(hits_seen)) != 1:
        failed += 1
        problems.append(f"hit counts differ between cycles: {hits_seen}")
    notes.update(
        ops_per_s=(f"find_duplicates, save and load calls per second of their "
                   f"time, over {len(dedups)} builds of {len(entries)} files"),
        hit_rate=f"{hits_seen[-1]}/{n_known} known queries identified by the loaded index",
        setup_s=f"median of {len(setup)} cold starts of a fresh interpreter",
        false_id_rate=f"{false_ids}/{len(queries)} queries",
        dedup_s=f"median of {len(dedups)} find_duplicates({DEDUP_THRESHOLD})",
        save_s=f"median of {len(saves)} saves of a {file_mib:.2f} MiB index",
        load_s=f"median of {len(loads)} loads",
    )
    layers = _index_layers(loaded)
    layers["index.file_mib"] = file_mib
    return Outcome(
        metrics, notes, attempted, failed, problems,
        n_ops=len(latencies),
        audio_in_s=len(latencies) * CATALOG_S,
        extra_layers=layers,
    )


WORKLOADS = {
    "query-dense": query_dense,
    "call-sessions": call_sessions,
    "catalog-build": catalog_build,
}
