"""Records a benchmark entry in perfbench/history.json.

    python3 perfbench/record.py --label "what changed"

For seeds 1 and 2 and every workload it runs the benchmark for
BENCHMARK.json's ``run_seconds``, untraced and then traced (so the traced
run can report its tracing overhead), collects the records the runs
leave in ``.perfbench/results/``, checks the layer shares each workload
was chosen for, and appends one entry to ``perfbench/history.json``.
Seed 1 is the default seed; seed 2 checks that the shares hold on a seed
the workloads were not tuned on. When any run fails, nothing is appended
and the exit code is 1. Run it from the root of a source checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("query-dense", "call-sessions", "catalog-build")
SEEDS = (1, 2)

# (workload, share, lowest, highest): the split each workload was chosen for
SHARE_CHECKS = (
    ("query-dense", "lookup_share_of_op", 0.40, 1.0),
    ("call-sessions", "lookup_share_of_op", 0.0, 0.05),
    ("catalog-build", "checksum_share_of_save", 0.80, 1.0),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results_dir = Path(".perfbench") / "results"
    entry = {"label": args.label, "seconds": float(seconds), "runs": {}, "share_checks": []}
    failed_runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            paths = [results_dir / f"{workload}-seed{seed}-trace{t}.json" for t in (0, 1)]
            # a record left by an earlier recording must not stand in for this one
            for path in paths:
                path.unlink(missing_ok=True)
            for trace in ("0", "1"):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                    capture_output=True, text=True, timeout=900,
                )
                print(done.stdout.splitlines()[-1] if done.stdout else done.stderr,
                      flush=True)
                if done.returncode != 0:
                    failed_runs.append(f"{workload} seed {seed} trace {trace}: "
                                       f"exit {done.returncode}")
            if not all(path.is_file() for path in paths):
                failed_runs.append(f"{workload} seed {seed}: no result record")
                continue
            untraced, traced = (json.loads(path.read_text()) for path in paths)
            entry["env"] = untraced["env"]
            entry["runs"][f"{workload}/seed{seed}"] = {
                "correct": untraced["correct"] and traced["correct"],
                "metrics": untraced["metrics"],
                "notes": untraced["notes"],
                "layers": traced["layers"],
                "shares": traced["shares"],
                "tracing_overhead": traced.get("tracing_overhead"),
            }
    if failed_runs:
        for failure in failed_runs:
            print(f"FAILED: {failure}", file=sys.stderr)
        print("nothing appended to history.json", file=sys.stderr)
        return 1
    for workload, share, low, high in SHARE_CHECKS:
        for seed in SEEDS:
            value = entry["runs"][f"{workload}/seed{seed}"]["shares"][share]
            held = low <= value <= high
            entry["share_checks"].append({
                "workload": workload, "seed": seed, "share": share,
                "value": value, "expected": [low, high], "held": held,
            })
            print(f"{workload} seed {seed}: {share} = {value:.3f} "
                  f"(expected {low}..{high}) {'held' if held else 'DID NOT HOLD'}")
    history_path = HERE / "history.json"
    history = json.loads(history_path.read_text()) if history_path.exists() else []
    history.append(entry)
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
