"""Smoke test of the benchmark harness at tiny sizes (--scale smoke).

Run from the checkout root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_untraced_and_traced(workload, tmp_path):
    out = tmp_path / "r.jsonl"
    common = ["--workload", workload, "--seed", "3", "--seconds", "1",
              "--scale", "smoke", "--out", str(out)]

    res = result_line(bench(*common, "--trace", "0"))
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name

    traced = bench(*common, "--trace", "1")
    res = result_line(traced)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["trace.unfired_wrappers"]["value"] == 0
    assert "unfired wrappers: none" in traced.stdout

    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert recs[0]["exact"] == recs[1]["exact"]
    assert recs[0]["host"]["blas_threads"] >= 1
    for c in recs[1]["commands"]:
        if "resnet" in c["argv"]:
            assert c["counters"]["nfe"] == 0, c


def test_compare_mode(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path, seed in ((a, "1"), (b, "1")):
        result_line(bench("--workload", "toy1d", "--seed", seed, "--seconds",
                          "1", "--trace", "0", "--scale", "smoke",
                          "--out", str(path)))
    proc = bench("--compare", str(a), str(b))
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if ln.startswith("toy1d")]
    assert any("wall_s" in ln for ln in rows)
    assert any("exact values, seed 1: same" in ln for ln in rows)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "toy1d", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_keeps_gc_points_and_cancels_host_speed():
    sys.path.insert(0, str(BENCH))
    import gc

    import calib

    sampler = calib.Sampler()
    start = sampler.mark()
    before = gc.get_count()[0]
    for _ in range(20):
        sampler._take()
    assert gc.get_count()[0] == before
    end = sampler.mark()
    raw, norm = sampler.normalize(start, end)
    kernel = sum(sampler.kernels) / len(sampler.kernels)
    assert norm == pytest.approx(raw * calib.REF_S / kernel)
