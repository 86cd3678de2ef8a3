"""One iteration of a workload, run in a fresh interpreter by run.py.

Usage (run.py builds this command line):
    python3 bench/child.py --workload NAME --seed N --workdir DIR
        --report FILE --spawn-time T [--trace] [--spans FILE] [--scale S]

It imports anodelab from the checkout's src/ (run.py puts it first on
PYTHONPATH), generates the workload's inputs, issues its commands one after
another through ``anodelab.expcli.main``, then reads the artifacts back for
checks and exact values and writes one JSON report.  Set-up time runs from
``--spawn-time`` (the parent's CLOCK_MONOTONIC reading just before the
spawn) to the start of the first command.

Every time it reports is given raw and in reference-host seconds (see
calib.py): a sampler times a short fixed kernel every 0.1 s from just after
NumPy is imported, and around each command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

from calib import Mark, Sampler

# Sample host speed from here on, so that importing anodelab and preparing
# the inputs (set-up time) is sampled too.
SAMPLER = Sampler()
SAMPLER.start()

import anodelab  # noqa: E402
from anodelab import data, expcli, models, odeint, svg, tensorgrad, train  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Check, common_checks, deterministic_hash  # noqa: E402


def run_step(step) -> int | str:
    try:
        if step.argv is not None:
            code = expcli.main(step.argv)
        else:
            step.fn()
            code = 0
    except SystemExit as exc:          # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # report it, keep the workload going
        traceback.print_exc()
        code = "exception"
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    if src not in Path(anodelab.__file__).resolve().parents:
        print(f"anodelab imported from {anodelab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed, args.scale)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"expcli": expcli, "models": models, "train": train,
                        "data": data, "tensorgrad": tensorgrad,
                        "odeint": odeint, "svg": svg})
    workload.prepare()
    steps = workload.steps()

    commands = []
    mark = first = SAMPLER.mark()
    for step in steps:
        before = tracer.snapshot() if tracer else None
        with contextlib.redirect_stdout(sys.stderr):
            code = run_step(step)
        prev, mark = mark, SAMPLER.mark()
        raw, secs = SAMPLER.normalize(prev, mark)
        cmd = {"kind": step.kind, "argv": step.argv or ["<bench inference>"],
               "exit": code, "seconds": secs, "raw_seconds": raw,
               "points": step.points}
        if tracer:
            after = tracer.snapshot()
            cmd["counters"] = {k: after[k] - before[k] for k in
                               ("nfe", "accepted", "rejected", "tape_nodes",
                                "adam_steps")}
        commands.append(cmd)
    SAMPLER.stop()
    wall_s = sum(c["seconds"] for c in commands)
    spawn = Mark(args.spawn_time, args.spawn_time, 0.0, 0.0)
    setup_raw_s, setup_s = SAMPLER.normalize(spawn, first)

    report = {"wall_s": wall_s, "commands": commands,
              "raw": {"wall_s": sum(c["raw_seconds"] for c in commands),
                      "setup_s": setup_raw_s},
              "calib_kernel_ms": 1e3 * statistics.median(SAMPLER.kernels)}
    checks = []
    if tracer:
        tracer.uninstall()
        unfired = tracer.unfired(workload.expected_sites)
        report["unfired"] = unfired
        report["per_layer"] = dict(tracer.metrics(workload.expected_sites),
                                   **{"trace.unfired_wrappers": len(unfired)})
        if args.spans:
            tracer.write_spans(Path(args.spans))
        c = tracer.c
        checks.append(Check("nfe_identity", c["dopri5_solves"] > 0 and
                            c["nfe_identity_violations"] == 0,
                            f"{c['nfe_identity_violations']} of "
                            f"{c['dopri5_solves']} dopri5 solves violate "
                            "nfe == 1 + 6*(accepted + rejected)"))
        checks.append(Check("all_wrappers_fired", not unfired, ", ".join(unfired)))

    if all(c["exit"] == 0 for c in commands):
        checks += common_checks(workload) + workload.extra_checks()
        train_s = sum(c["seconds"] for c in commands if c["kind"] == "train")
        infer = [c for c in commands if c["kind"] != "train"]
        nfe = workload.nfe_per_forward()
        report["e2e"] = {
            "wall_s": wall_s,
            "train_samples_per_s": workload.train_samples() / train_s,
            "infer_points_per_s": (sum(c["points"] for c in infer)
                                   / sum(c["seconds"] for c in infer)),
            "nfe_per_forward": nfe,
            "setup_s": setup_s,
        }
        report["exact"] = {
            "final_loss": workload.final_loss(),
            "nfe_per_forward": nfe,
            "train_csv_sha256": {p.relative_to(workdir).as_posix():
                                 deterministic_hash(p)
                                 for p in workload.train_csvs()},
        }
        if tracer:
            report["per_layer"]["expcli.artifact_bytes"] = workload.artifact_bytes()
            report["per_layer"]["train.final_loss"] = report["exact"]["final_loss"]
    report["checks"] = [c.__dict__ for c in checks]
    report["host"] = {"python": sys.version.split()[0],
                      "numpy": np.__version__, "blas": blas_info()}
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
