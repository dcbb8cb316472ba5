"""Runs one workload of the speechprint benchmark and prints its metrics.

    python3 perfbench/run.py --workload query-dense --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/``. The human-readable report goes to standard output first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken from a
run in which every layer's public functions are wrapped in spans.

Each run also leaves its full record, with the environment it ran in, in
``.perfbench/results/`` and, when traced, its spans in
``.perfbench/trace/``. A traced run reports its tracing overhead against
the untraced run of the same workload and seed, when one is recorded.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark cannot run here.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# the end-to-end metrics of DESIGN.md by their own names, and the
# benchmark metric each one is on the workloads where it is measured
_COMMON = {name: name for name in
           ("hit_rate", "false_id_rate", "error_rate", "setup_s", "mem_mib")}
REPORT_NAMES = {
    "query-dense": {"query_p50_ms": "p50_ms", "query_tail_ms": "tail_ms", **_COMMON},
    "call-sessions": {
        "session_p50_ms": "p50_ms", "session_tail_ms": "tail_ms",
        "sessions_per_s": "ops_per_s", **_COMMON,
    },
    "catalog-build": {
        **{name: name for name in ("enroll_audio_s_per_s", "dedup_s", "save_s", "load_s")},
        **_COMMON,
    },
}
REPORT_UNITS = {
    "query_p50_ms": "ms", "query_tail_ms": "ms", "session_p50_ms": "ms",
    "session_tail_ms": "ms", "sessions_per_s": "1/s", "enroll_audio_s_per_s": "s/s",
    "dedup_s": "s", "save_s": "s", "load_s": "s", "hit_rate": "ratio",
    "false_id_rate": "ratio", "error_rate": "ratio", "setup_s": "s", "mem_mib": "MiB",
}
LAYER_UNITS = {
    "audio.decode_ms": "ms", "audio.resample_ms": "ms", "audio.resample_calls": "count",
    "spectral.column_ms": "ms", "spectral.frames": "count",
    "fingerprint.haar_ms": "ms", "fingerprint.topt_ms": "ms",
    "fingerprint.minhash_ms": "ms", "fingerprint.self_ms": "ms",
    "fingerprint.blocks": "count", "fingerprint.audio_ratio": "ratio",
    "hashing.rows_ms": "ms", "hashing.checksum_ms": "ms",
    "index.query_ms": "ms", "index.query_calls": "count", "index.dedup_ms": "ms",
    "index.save_ms": "ms", "index.load_ms": "ms", "index.file_mib": "MiB",
    "index.enroll_ms": "ms", "index.postings": "count", "index.buckets": "count",
    "pipeline.enroll_file_ms": "ms", "pipeline.enrolls": "count",
    "server.submit_ms": "ms", "server.batch_wait_ms": "ms",
    "server.batch_size": "count", "server.batches": "count",
}
OP_SPAN = {
    "query-dense": "bench.query",
    "call-sessions": "bench.session",
    "catalog-build": "bench.enroll_file",
}


def _cannot_run(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Imports speechprint from this checkout's ``src/``, or exits with 2."""
    src = ROOT / "src"
    if not (src / "speechprint" / "__init__.py").is_file():
        _cannot_run(f"no speechprint sources under {src}; "
                    f"run from the root of a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import speechprint
    except ImportError as exc:
        _cannot_run(f"cannot import speechprint from {src}: {exc}")
    if Path(speechprint.__file__).resolve().parent != (src / "speechprint").resolve():
        _cannot_run(f"speechprint came from {speechprint.__file__}, not {src}")


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """Machine, toolchain and source facts recorded with every result."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def layer_metrics(spans: list, workload: str, outcome) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run's spans.

    Times and counts are per operation of the workload (query, session or
    enrolled file) over the timed phase, except the per-call figures
    index.enroll_ms (every enrolment, set-up included), index.dedup_ms,
    index.save_ms, index.load_ms, pipeline.enroll_file_ms and
    server.batch_size, and the index sizes at the end of the run.
    """
    from spans import summarize

    run, every = summarize(spans, "run"), summarize(spans, None)

    def get(table, name, field):
        return table.get(name, {}).get(field, 0.0)

    n = max(outcome.n_ops, 1)

    def per_op_ms(name, field="total_s"):
        return 1000.0 * get(run, name, field) / n

    def per_call_ms(table, name, field="total_s"):
        calls = get(table, name, "calls")
        return 1000.0 * get(table, name, field) / calls if calls else 0.0

    batches = get(run, "index.query_batch", "calls")
    metrics = {
        "audio.decode_ms": per_op_ms("audio.decode"),
        "audio.resample_ms": per_op_ms("audio.resample"),
        "audio.resample_calls": get(run, "audio.resample", "calls") / n,
        "spectral.column_ms": per_op_ms("spectral.column"),
        "spectral.frames": get(run, "spectral.column", "calls") / n,
        "fingerprint.haar_ms": per_op_ms("fingerprint.haar"),
        "fingerprint.topt_ms": per_op_ms("fingerprint.topt"),
        "fingerprint.minhash_ms": per_op_ms("fingerprint.minhash"),
        "fingerprint.self_ms": per_op_ms("fingerprint.audio", "self_s")
        + per_op_ms("fingerprint.feed", "self_s"),
        "fingerprint.blocks": get(run, "fingerprint.haar", "calls") / n,
        "fingerprint.audio_ratio": (
            get(run, "fingerprint.audio", "root_amount")
            + get(run, "fingerprint.feed", "root_amount")
        ) / max(outcome.audio_in_s, 1e-9),
        "hashing.rows_ms": per_op_ms("hashing.rows"),
        "hashing.checksum_ms": per_op_ms("hashing.checksum"),
        "index.query_ms": per_op_ms("index.query", "self_s"),
        "index.query_calls": get(run, "index.query", "calls") / n,
        "index.dedup_ms": per_call_ms(run, "index.dedup"),
        "index.save_ms": per_call_ms(run, "index.save", "self_s"),
        "index.load_ms": per_call_ms(run, "index.load", "self_s"),
        "index.file_mib": 0.0,
        "index.enroll_ms": per_call_ms(every, "index.enroll", "self_s"),
        "pipeline.enroll_file_ms": per_call_ms(run, "pipeline.enroll_file"),
        "pipeline.enrolls": get(run, "pipeline.enroll_file", "calls") / n,
        "server.submit_ms": per_op_ms("server.submit"),
        "server.batch_wait_ms": per_op_ms("server.submit", "amount"),
        "server.batch_size": get(run, "index.query_batch", "amount") / batches
        if batches else 0.0,
        "server.batches": batches / n,
    }
    metrics.update(outcome.extra_layers)
    op_s = get(run, OP_SPAN[workload], "total_s")
    save_s = get(run, "index.save", "total_s")
    shares = {
        "lookup_share_of_op": get(run, "index.query", "self_s") / op_s if op_s else 0.0,
        "fingerprint_share_of_op": (
            get(run, "fingerprint.audio", "root_total_s")
            + get(run, "fingerprint.feed", "root_total_s")
        ) / op_s if op_s else 0.0,
        "checksum_share_of_save": get(run, "hashing.checksum<index.save", "total_s") / save_s
        if save_s else 0.0,
    }
    return metrics, shares


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> int:
    """Runs one workload and prints its report; returns the exit code.

    ``scale`` (a ``workloads.Scale``) defaults to the benchmark's sizes.
    """
    import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        kwargs = {"workdir": OUT} if workload == "catalog-build" else {}
        outcome = workloads.WORKLOADS[workload](
            seed, seconds, tracer, scale or workloads.Scale(), **kwargs
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    env = environment()
    metrics = dict(outcome.metrics)
    metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    floor = workloads.HIT_RATE_FLOOR[workload]
    problems = list(outcome.problems)
    if metrics["hit_rate"] < floor:
        problems.append(f"hit_rate {metrics['hit_rate']:.3f} is below {floor}")
    correct = outcome.failed == 0 and not problems

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": problems,
        "metrics": metrics, "notes": outcome.notes,
    }
    print(f"# speechprint benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    print("# env: " + json.dumps(env, sort_keys=True))
    for name, unit in REPORT_UNITS.items():
        key = REPORT_NAMES[workload].get(name)
        if key is None:
            print(f"{name:22s} {'n/a':>12s} {unit:6s} not measured on {workload}")
        else:
            print(f"{name:22s} {metrics[key]:12.4f} {unit:6s} {outcome.notes.get(key, '')}")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        print(f"{name:22s} {metrics[name]:12.4f} {entry['unit']:6s} benchmark metric")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        from spans import write_spans

        spans = tracer.all_spans()
        layers, shares = layer_metrics(spans, workload, outcome)
        record.update(layers=layers, shares=shares)
        for name, unit in LAYER_UNITS.items():
            print(f"{name:26s} {layers[name]:14.4f} {unit}")
        for name, value in shares.items():
            print(f"{name:26s} {value:14.4f} ratio")
        untraced = results_dir / f"{workload}-seed{seed}-trace0.json"
        base = json.loads(untraced.read_text(encoding="utf-8")) if untraced.is_file() else {}
        # only an untraced run of the same sources is a baseline
        if base.get("env", {}).get("source_sha256") == env["source_sha256"]:
            base = base["metrics"]
            overhead = {k: metrics[k] - base[k] for k in base if k in metrics}
            record["tracing_overhead"] = overhead
            for name, value in overhead.items():
                print(f"overhead {name:17s} {value:+14.4f} (traced minus untraced)")
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_spans(trace_dir / f"{workload}-seed{seed}.tsv", spans)
        chosen = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layers
    else:
        chosen = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = metrics
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["query-dense", "call-sessions", "catalog-build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run unwinds, so its worker processes and server stop too
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
