#!/usr/bin/env python3
"""anodelab benchmark: run one workload, or compare two result files.

Run, from the root of a checkout:
    python3 bench/run.py --workload toy1d --seed 1 --seconds 30 --trace 0
        [--out results.jsonl] [--scale full|smoke]
Compare:
    python3 bench/run.py --compare base.jsonl change.jsonl

A run is a closed loop: it spawns one fresh child process per iteration of
the workload's command sequence (bench/child.py) and starts another only
while the next one is expected to end within --seconds.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json as medians over the
iterations, times in reference-host seconds (calib.py).  With --trace 1 it
alternates an untraced and a traced child and reports the per-layer metrics
plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--out appends the full record (checks, exact values, host block) to a JSONL
file, which --compare reads.  README.md beside this file has the schema.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import compare_files  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

BLAS_THREADS = 1          # pinned in every child; 1 <= nproc on any host
CHILD_TIMEOUT_S = 170.0   # a run must end within 180 s


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, workdir: Path, trace: bool, spans: Path | None,
          deadline: float) -> dict:
    """Run one child to completion; returns its report plus peak RSS and
    exit status.  The child is killed if it outlives ``deadline``."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    report = workdir / "report.json"
    log = workdir / "child.log"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--report", str(report), "--scale", args.scale]
    if trace:
        cmd += ["--trace"] + (["--spans", str(spans)] if spans else [])
    with open(log, "w") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn-time", repr(t_spawn)],
                                cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and report.exists():
        with open(report) as fh:
            out.update(json.load(fh))
        if "e2e" in out:
            out["e2e"]["peak_rss_mb"] = out["peak_rss_mb"]
    else:
        with open(log) as fh:
            tail = fh.read()[-4000:]
        print(f"child failed (exit {proc.returncode}):\n{tail}", file=sys.stderr)
    shutil.rmtree(workdir)
    return out


def summarize(metrics: list[dict], samples: list[dict]) -> dict:
    """Median over iterations of each listed metric an iteration reported."""
    out = {}
    for m in metrics:
        vals = [s[m["name"]] for s in samples if m["name"] in s]
        if vals:
            out[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"],
                              "samples": vals}
    return out


def run(args) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "anodelab" / "__init__.py").is_file():
        print(f"no anodelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = host_block()
    build = ROOT / ".bench_build" / "anodelab-bench"
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans = build / "traces" / f"{args.workload}-seed{args.seed}.spans.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    hard_deadline = t0 + CHILD_TIMEOUT_S
    plain, traced = [], []
    while True:
        t_iter = time.monotonic()
        plain.append(spawn(args, build / tag, False, None, hard_deadline))
        if args.trace:
            traced.append(spawn(args, build / tag, True, spans, hard_deadline))
        now = time.monotonic()
        if now - t0 + (now - t_iter) > min(args.seconds, CHILD_TIMEOUT_S):
            break

    # correctness: children, commands and output checks, exact values repeating
    attempted = failed = 0
    failures = []
    for rep in plain + traced:
        results = [("child", rep["exit"] == 0, f"exit {rep['exit']}")]
        results += [(" ".join(c["argv"][:1]), c["exit"] == 0, f"exit {c['exit']}")
                    for c in rep.get("commands", [])]
        results += [(c["name"], c["ok"], c["detail"]) for c in rep.get("checks", [])]
        for name, ok, detail in results:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{name}: {detail}")
    exact = {json.dumps(r.get("exact"), sort_keys=True) for r in plain + traced}
    attempted += 1
    if len(exact) != 1 or "null" in exact:
        failed += 1
        failures.append("exact values (losses, NFE, CSV hashes) missing or "
                        "different between iterations of one seed")

    ok_plain = [r for r in plain if "e2e" in r]
    e2e = summarize(spec["end_to_end"], [r["e2e"] for r in ok_plain])
    per_layer = {}
    if args.trace:
        ok_traced = [r for r in traced if "per_layer" in r]
        for p, t in zip(plain, traced):
            if "wall_s" in p and "per_layer" in t:
                t["per_layer"]["trace.overhead_s"] = t["wall_s"] - p["wall_s"]
        per_layer = summarize(spec["per_layer"], [r["per_layer"] for r in ok_traced])
        unfired = sorted({s for r in ok_traced for s in r["unfired"]})
        print("unfired wrappers: " + (", ".join(unfired) or "none"))

    chosen = per_layer if args.trace else e2e
    host.update({k: ok_plain[0]["host"][k] for k in ("python", "numpy", "blas")}
                if ok_plain else {})
    host["peak_rss_mb_max"] = max((r["peak_rss_mb"] for r in plain + traced),
                                  default=0.0)
    kernels = [r["calib_kernel_ms"] for r in plain + traced if "calib_kernel_ms" in r]
    if kernels:
        host["calib_kernel_ms"] = statistics.median(kernels)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale,
        "iterations": len(plain), "host": host,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": chosen,
        "exact": ok_plain[0].get("exact") if ok_plain else None,
        "raw": [r["raw"] for r in plain if "raw" in r],
        "commands": [{k: c[k] for k in ("argv", "exit", "seconds", "counters")
                      if k in c} for c in (traced or plain)[-1].get("commands", [])],
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"host {json.dumps(host, sort_keys=True)}")
    for f in failures:
        print(f"FAILED {f}")
    if record["exact"]:
        print(f"exact {json.dumps(record['exact'], sort_keys=True)}")
    for name, m in chosen.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:10s} n={len(m['samples'])}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in chosen.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--out", default=None,
                    help="append the full result record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                    help="compare two result files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare, load_spec())
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
