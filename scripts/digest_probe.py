#!/usr/bin/env python3
"""Print one SHA-256 line for each output of a fixed set of runs, so that two
checkouts can be compared byte for byte by diffing this script's output.

It runs CLI commands (toy, generalization, nfe, sweep, mnist-mini on
synthetic IDX files, export-flows) in a temporary directory and hashes every
file they write, their exit codes, stdout and stderr, with the wall-clock
column ``wall_ms`` left out of each ``*_train.csv``.  Three of the runs
fail in training (exit 3), so the artifacts a failure leaves are hashed
too.  Then it runs taped
in-process solves (dopri5, Euler and RK4) and hashes their states,
evaluation and step counts, and the gradients of a loss with respect to the
input and every parameter, and hashes one vector field.

    python scripts/digest_probe.py > a.txt      # in one checkout
    python scripts/digest_probe.py > b.txt      # in the other
    diff a.txt b.txt

The package is imported from the ``src/`` beside this script.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from anodelab import data, expcli  # noqa: E402
from anodelab import tensorgrad as tg  # noqa: E402
from anodelab.models import Model, ModelSpec, vector_field  # noqa: E402
from anodelab.odeint import SolverConfig, integrate  # noqa: E402

COMMANDS = [
    ("toy-1d-anode", ["toy", "--dim", "1", "--model", "anode", "--aug", "2",
                      "--epochs", "3", "--svg"]),
    ("toy-1d-node", ["toy", "--dim", "1", "--model", "node", "--epochs", "3"]),
    ("toy-1d-resnet", ["toy", "--dim", "1", "--model", "resnet", "--layers", "3",
                       "--epochs", "3"]),
    ("toy-2d-anode", ["toy", "--dim", "2", "--model", "anode", "--aug", "1",
                      "--epochs", "2", "--svg", "--wd", "1e-3"]),
    ("toy-2d-node", ["toy", "--dim", "2", "--model", "node", "--epochs", "2"]),
    ("generalization", ["generalization", "--epochs", "2", "--svg"]),
    ("nfe", ["nfe", "--epochs", "2", "--snapshot-every", "1", "--svg"]),
    ("sweep", ["sweep", "--model", "node", "--epochs", "1", "--cv-folds", "2",
               "--n-inner", "40", "--n-outer", "40"]),
    ("mnist-mini", ["mnist-mini", "--data-dir", "idx", "--train-limit", "48",
                    "--test-limit", "16", "--epochs", "1", "--svg"]),
    ("export-flows-1d", ["export-flows", "--checkpoint", "toy-1d-anode/anode.ckpt",
                         "--n-points", "40", "--n-times", "9", "--svg"]),
    ("export-flows-2d", ["export-flows", "--checkpoint", "toy-2d-node/node.ckpt",
                         "--n-points", "40", "--n-times", "9", "--svg"]),
    ("export-flows-resnet", ["export-flows", "--checkpoint",
                             "toy-1d-resnet/resnet.ckpt", "--n-points", "20"]),
    # failing runs: a stiff solve, a stiff solve after the epoch-0 features
    # snapshot, and both generalization fits diverging
    ("toy-2d-node-stiff", ["toy", "--dim", "2", "--model", "node", "--lr", "1e3",
                           "--epochs", "1"]),
    ("nfe-stiff", ["nfe", "--lr", "1e3", "--epochs", "2", "--snapshot-every", "1"]),
    ("generalization-diverging", ["generalization", "--lr", "1e3", "--epochs", "1"]),
]


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def file_bytes(path: Path) -> bytes:
    raw = path.read_bytes()
    if not path.name.endswith("_train.csv"):
        return raw
    lines = raw.decode().splitlines()
    col = lines[0].split(",").index("wall_ms")
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != col)
                     for line in lines).encode()


def write_synthetic_idx(root: Path) -> None:
    """Two classes of 6x6 images, rings and bars, with noise."""
    root.mkdir()
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:6, 0:6]
    for (images_name, labels_name), n in ((expcli.MNIST_FILES[:2], 48),
                                          (expcli.MNIST_FILES[2:], 16)):
        labels = rng.integers(0, 2, n).astype(np.uint8)
        images = rng.uniform(0, 60, (n, 6, 6))
        ring = np.abs(np.hypot(yy - 2.5, xx - 2.5) - 2.0) < 0.75
        bar = np.abs(xx - 2.5) < 0.75
        images[labels == 0] += 180 * ring
        images[labels == 1] += 180 * bar
        data.write_idx(root / images_name, root / labels_name,
                       np.clip(images, 0, 255).astype(np.uint8), labels)


def run_commands(work: Path) -> None:
    write_synthetic_idx(work / "idx")
    for name, argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = expcli.main(argv + ["--out", name])
        print(f"{sha(out.getvalue().encode(), str(code).encode())}  {name}/<exit, stdout>")
        print(f"{sha(err.getvalue().encode())}  {name}/<stderr>")
        for path in sorted(p for p in (work / name).rglob("*") if p.is_file()):
            print(f"{sha(file_bytes(path))}  {path.relative_to(work).as_posix()}")


def tol(value: float) -> SolverConfig:
    return SolverConfig(rtol=value, atol=value)


NODE = ModelSpec(kind="node", input_dim=2, hidden_dim=16)
ANODE = ModelSpec(kind="anode", input_dim=2, p=3, hidden_dim=8)
CONV = ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=4, conv=True)
SOLVES = [
    # (name, spec, input shape, t0, times, solver, per_sample)
    ("node", NODE, (64, 2), 0.0, [1.0], tol(1e-3), False),
    ("anode-dense", ANODE, (16, 2), 0.0, [0.0, 0.3, 0.7, 1.0], tol(1e-5), False),
    ("node-rejected", NODE, (8, 2), 0.0, [0.37, 1.0], tol(1e-7), False),
    ("anode-backward-per-sample", ANODE, (8, 2), 1.0, [0.5, -0.4], tol(1e-5), True),
    ("node-batch1-1d", ModelSpec(kind="node", input_dim=1, hidden_dim=8), (1, 1),
     0.0, [0.5, 1.0], tol(1e-7), False),
    ("conv", CONV, (3, 1, 4, 4), 0.0, [0.5, 1.0], tol(1e-6), False),
    ("euler-anode", ANODE, (16, 2), 0.0, [0.5, 1.0],
     SolverConfig(method="euler", fixed_step=0.1), False),
    ("rk4-node-backward", NODE, (8, 2), 1.0, [0.3, -0.2],
     SolverConfig(method="rk4", fixed_step=0.15), False),
    ("rk4-conv", CONV, (3, 1, 4, 4), 0.0, [1.0],
     SolverConfig(method="rk4", fixed_step=0.25), False),
]


def run_solves() -> None:
    for name, spec, shape, t0, times, cfg, per_sample in SOLVES:
        model = Model(spec, seed=3)
        x0 = np.random.default_rng(5).standard_normal(shape)
        if spec.aug:
            pad = list(shape)
            pad[1 if spec.conv else -1] = spec.aug
            x0 = np.concatenate([x0, np.zeros(pad)], axis=1 if spec.conv else -1)
        x = tg.Tensor(x0)
        x.grad = np.zeros_like(x0)
        with tg.CompGraph() as g:
            sol = integrate(model.dynamics, x, t0, times, cfg, per_sample=per_sample)
            weights = tuple(0.5 + i for i in range(len(sol.states)))
            loss = tg.mse(tg.lincomb(weights, sol.states), np.zeros(x.size))
        tg.backward(g, loss)
        counts = f"{sol.nfe},{sol.steps_accepted},{sol.steps_rejected}"
        print(f"{sha(*(s.data.tobytes() for s in sol.states))}  solve/{name}/states")
        print(f"{sha(counts.encode())}  solve/{name}/counts {counts}")
        print(f"{sha(x.grad.tobytes())}  solve/{name}/input_grad")
        for pname, p in model.params.items():
            print(f"{sha(p.grad.tobytes())}  solve/{name}/grad/{pname}")
    model = Model(ModelSpec(kind="anode", input_dim=2, p=1, hidden_dim=16), seed=3)
    grid = np.random.default_rng(6).uniform(-2.0, 2.0, (50, 3))
    field = vector_field(model, grid, [0.0, 0.45, 1.0])
    print(f"{sha(field.tobytes())}  vector_field/anode")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            run_commands(Path(tmp))
        finally:
            os.chdir(cwd)
    run_solves()
    return 0


if __name__ == "__main__":
    sys.exit(main())
