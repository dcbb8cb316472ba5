"""Smoke tests of the benchmark itself, at a tiny input scale."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run(workload, seed=5, seconds=0.05, trace=trace, scale=workloads.TINY)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(tmp_path, monkeypatch, workload):
    code, lines, result = _run(tmp_path, monkeypatch, workload, trace=False)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in run.REPORT_UNITS:
        assert any(line.startswith(name + " ") for line in lines), name

    code, lines, traced = _run(tmp_path, monkeypatch, workload, trace=True)
    assert code == 0, lines
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["spectral.frames"]["value"] > 0
    assert any(line.startswith("overhead p50_ms") for line in lines)
    assert (tmp_path / "trace" / f"{workload}-seed5.tsv").is_file()


def test_tracer_restores_every_function():
    import speechprint
    from speechprint import fingerprint, index, server

    before = (speechprint.fingerprint_audio, fingerprint.haar2d, index.fnv1a64,
              index.RetrievalIndex.__dict__["load"], server.PipelineServer.__dict__.get(
                  "finish_request"))
    tracer = Tracer()
    tracer.install()
    assert speechprint.fingerprint_audio is not before[0]
    tracer.uninstall()
    after = (speechprint.fingerprint_audio, fingerprint.haar2d, index.fnv1a64,
             index.RetrievalIndex.__dict__["load"], server.PipelineServer.__dict__.get(
                 "finish_request"))
    assert after == before


def test_tail_is_eleventh_largest():
    value, pct = workloads.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
