"""The benchmark's workloads: the CLI commands each one issues, the inputs it
generates from the workload seed, and the checks and exact values read back
from the artifacts the commands leave behind.

Every workload is a closed loop: one client issues its commands one after
another, each waiting for the previous one to finish.  Why each workload
exists, and which layer it stresses, is recorded in README.md beside this
file.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The pinned header of every *_train.csv artifact.  It is written out here,
# not imported from the program, so that a change to it fails a check.
TRAIN_CSV_HEADER = ("epoch,train_loss,train_acc,val_loss,val_acc,"
                    "nfe_forward_mean,wall_ms")

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")

# Problem sizes.  "full" is what the benchmark measures; "smoke" only proves
# that the harness runs end to end in a few seconds.
SCALES = {
    "full": {"toy_seeds": 3, "toy_epochs": 50, "toy_points": 2000,
             "gen_epochs": 10, "gen_points": 2000,
             "conv_size": 6, "conv_train": 256, "conv_test": 64,
             "conv_epochs": 3},
    "smoke": {"toy_seeds": 1, "toy_epochs": 2, "toy_points": 50,
              "gen_epochs": 1, "gen_points": 50,
              "conv_size": 4, "conv_train": 32, "conv_test": 16,
              "conv_epochs": 1},
}

SEED_STRIDE = 1000      # toy1d runs seeds s, s + 1000, s + 2000, ...


@dataclass
class Step:
    """One command of a workload.

    ``kind`` is "train" (counts toward train_samples_per_s), "export" or
    "infer" (count toward infer_points_per_s).  A step either runs the CLI
    with ``argv`` or calls ``fn`` (a bench-side call into the public API)."""

    kind: str
    argv: list[str] | None = None
    fn: Callable[[], None] | None = None
    points: int = 0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Base class: subclasses fill in the commands, the train-set sizes and
    the loss the workload reports."""

    name = ""
    # Wrapper sites of the traced run that must fire on this workload.
    expected_sites: frozenset[str] = frozenset()

    def __init__(self, workdir: Path, seed: int, scale: str):
        self.dir = workdir
        self.seed = seed
        self.size = SCALES[scale]

    def prepare(self) -> None:
        """Generate input files; counted in set-up time."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def train_samples(self) -> int:
        """Epochs x train-set size, summed over the models trained."""
        raise NotImplementedError

    def final_loss(self) -> float:
        raise NotImplementedError

    def extra_checks(self) -> list[Check]:
        return []

    # -- shared artifact readers ---------------------------------------
    def train_csvs(self) -> list[Path]:
        return sorted(self.dir.rglob("*_train.csv"))

    def ode_csvs(self) -> list[Path]:
        return [p for p in self.train_csvs() if p.stem != "resnet_train"]

    def nfe_per_forward(self) -> float:
        vals = [float(r["nfe_forward_mean"])
                for p in self.ode_csvs() for r in read_rows(p)]
        return float(np.mean(vals))

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.dir.rglob("*")
                   if p.is_file() and p.parent.name != "idx")


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def deterministic_hash(path: Path) -> str:
    """SHA-256 of a *_train.csv with its wall_ms column removed, the CSV
    form of TrainRecord.deterministic_rows."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms") if rows and "wall_ms" in rows[0] else None
    text = "\n".join(",".join(c for i, c in enumerate(r) if i != drop)
                     for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def common_checks(w: Workload) -> list[Check]:
    """Pinned CSV header and finite losses in every *_train.csv."""
    out = []
    csvs = w.train_csvs()
    out.append(Check("train_csvs_present", bool(csvs), f"{len(csvs)} files"))
    for p in csvs:
        rel = p.relative_to(w.dir).as_posix()
        with open(p) as fh:
            header = fh.readline().rstrip("\n")
        out.append(Check(f"header:{rel}", header == TRAIN_CSV_HEADER, header))
        rows = read_rows(p)
        losses = [r[k] for r in rows for k in ("train_loss", "val_loss")
                  if r.get(k)]
        finite = bool(rows) and all(math.isfinite(float(v)) for v in losses)
        out.append(Check(f"finite_losses:{rel}", finite, f"{len(rows)} rows"))
    return out


def count_csv_rows(path: Path) -> int:
    """Data rows of a CSV file, or -1 if it is missing."""
    if not path.exists():
        return -1
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class Toy1d(Workload):
    name = "toy1d"
    MODELS = (("anode", ["--aug", "5"]),
              ("node", []),
              ("resnet", ["--layers", "5", "--lr", "1e-2"]))
    RESNET_LAYERS = 5
    N_TIMES = 25
    expected_sites = frozenset({
        "expcli.main", "expcli.write_manifest", "expcli.write_csv",
        "expcli.write_flow_csv", "expcli.write_record_csvs",
        "expcli.save_checkpoint", "svg.line_plot", "svg.trajectory_plot",
        "train.fit", "train.adam_step", "train.node_forward",
        "train.backward", "models.integrate", "models.flow_trajectory",
        "models.vector_field", "models.MlpDynamics.eval", "data.gen_g1d"})

    def seeds(self) -> list[int]:
        return [self.seed + SEED_STRIDE * j for j in range(self.size["toy_seeds"])]

    def steps(self) -> list[Step]:
        out = []
        for s in self.seeds():
            base = self.dir / f"seed{s}"
            for model, flags in self.MODELS:
                out.append(Step("train", [
                    "toy", "--dim", "1", "--model", model, *flags,
                    "--epochs", str(self.size["toy_epochs"]), "--seed", str(s),
                    "--out", str(base / model), "--svg"]))
            for model, _ in self.MODELS:
                out.append(Step("export", [
                    "export-flows", "--checkpoint",
                    str(base / model / f"{model}.ckpt"),
                    "--n-points", str(self.size["toy_points"]),
                    "--n-times", str(self.N_TIMES), "--seed", str(s),
                    "--out", str(base / model / "flows"), "--svg"],
                    points=self.size["toy_points"]))
        return out

    def train_samples(self) -> int:
        from anodelab import data
        return sum(self.size["toy_epochs"] * len(data.gen_g1d(64, seed=s))
                   for s in self.seeds() for _ in self.MODELS)

    def final_loss(self) -> float:
        """anode's last-epoch train MSE, averaged over the seeds."""
        return float(np.mean([
            float(read_rows(self.dir / f"seed{s}/anode/anode_train.csv")[-1]
                  ["train_loss"]) for s in self.seeds()]))

    def extra_checks(self) -> list[Check]:
        out = []
        for s in self.seeds():
            for model, _ in self.MODELS:
                n_times = (self.RESNET_LAYERS + 1 if model == "resnet"
                           else self.N_TIMES)
                p = self.dir / f"seed{s}/{model}/flows/flow.csv"
                rows = count_csv_rows(p)
                out.append(Check(f"flow_rows:seed{s}/{model}",
                                 rows == self.size["toy_points"] * n_times,
                                 f"{rows} rows"))
        return out


class Concentric2d(Workload):
    name = "concentric2d"
    N_TIMES = 25
    HEAT_GRID = 100 * 100
    expected_sites = frozenset({
        "expcli.main", "expcli.write_manifest", "expcli.write_csv",
        "expcli.write_flow_csv", "expcli.write_record_csvs",
        "expcli.save_checkpoint", "svg.line_plot", "train.fit",
        "train.evaluate", "train.adam_step", "train.node_forward",
        "train.backward", "models.node_forward", "models.integrate",
        "models.flow_trajectory", "models.vector_field",
        "models.MlpDynamics.eval", "data.gen_concentric",
        "data.angular_split"})

    def steps(self) -> list[Step]:
        gen = self.dir / "gen"
        n = self.size["gen_points"]
        out = [Step("train", ["generalization",
                              "--epochs", str(self.size["gen_epochs"]),
                              "--seed", str(self.seed), "--out", str(gen),
                              "--svg"])]
        for kind in ("node", "anode"):
            out.append(Step("export", [
                "export-flows", "--checkpoint", str(gen / f"{kind}.ckpt"),
                "--n-points", str(n), "--n-times", str(self.N_TIMES),
                "--seed", str(self.seed), "--out", str(gen / f"flows_{kind}")],
                points=n))
        return out

    def train_samples(self) -> int:
        from anodelab import data
        full = data.gen_concentric(data.SphereAnnulusConfig(d=2, seed=self.seed))
        train_set, _ = data.angular_split(full, 0.0, np.pi / 5)
        return 2 * self.size["gen_epochs"] * len(train_set)

    def final_loss(self) -> float:
        """anode's last-epoch held-out validation MSE."""
        return float(read_rows(self.dir / "gen/anode_train.csv")[-1]["val_loss"])

    def extra_checks(self) -> list[Check]:
        out = []
        for kind in ("node", "anode"):
            p = self.dir / f"gen/{kind}_heatgrid.csv"
            rows = count_csv_rows(p)
            out.append(Check(f"heatgrid_rows:{kind}", rows == self.HEAT_GRID,
                             f"{rows} rows"))
            p = self.dir / f"gen/flows_{kind}/flow.csv"
            rows = count_csv_rows(p)
            want = self.size["gen_points"] * self.N_TIMES
            out.append(Check(f"flow_rows:{kind}", rows == want, f"{rows} rows"))
        return out


def synth_digits(rng: np.random.Generator, n: int, size: int):
    """Two-class uint8 images: class 0 is a ring, class 1 a vertical bar,
    each with a random offset, random stroke brightness and uniform noise."""
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = (size - 1) / 2.0
    images = rng.uniform(0.0, 60.0, size=(n, size, size))
    shift = rng.uniform(-0.5, 0.5, size=(n, 2))
    ink = rng.uniform(150.0, 195.0, size=n)
    for i in range(n):
        cy, cx = c + shift[i, 0], c + shift[i, 1]
        if labels[i] == 0:
            r = np.hypot(yy - cy, xx - cx)
            stroke = np.abs(r - size / 3.0) < 0.75
        else:
            stroke = np.abs(xx - cx) < 0.75
        images[i][stroke] += ink[i]
    return np.clip(images, 0, 255).astype(np.uint8), labels


class ConvIdx(Workload):
    name = "conv-idx"
    INFER_BATCH = 64
    MAX_PARAM_MISMATCH = 0.02
    expected_sites = frozenset({
        "expcli.main", "expcli.write_manifest", "expcli.write_record_csvs",
        "expcli.save_checkpoint", "svg.line_plot", "train.fit",
        "train.evaluate", "train.adam_step", "train.node_forward",
        "train.backward", "models.node_forward", "models.integrate",
        "models.match_conv_filters", "models.ConvDynamics.eval",
        "tensorgrad.conv2d", "data.write_idx", "data.load_idx"})

    def prepare(self) -> None:
        from anodelab import data
        idx = self.dir / "idx"
        idx.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        s = self.size
        for (img, lab), n in ((MNIST_FILES[:2], s["conv_train"]),
                              (MNIST_FILES[2:], s["conv_test"])):
            images, labels = synth_digits(rng, n, s["conv_size"])
            data.write_idx(idx / img, idx / lab, images, labels)

    def steps(self) -> list[Step]:
        s = self.size
        out = [Step("train", [
            "mnist-mini", "--data-dir", str(self.dir / "idx"),
            "--train-limit", str(s["conv_train"]),
            "--test-limit", str(s["conv_test"]),
            "--epochs", str(s["conv_epochs"]), "--seed", str(self.seed),
            "--out", str(self.dir / "mnist"), "--svg"])]
        for kind in ("node", "anode"):
            out.append(Step("infer", fn=lambda k=kind: self._infer(k),
                            points=s["conv_train"] + s["conv_test"]))
        return out

    def _infer(self, kind: str) -> None:
        """Classify the training and test images with a trained checkpoint,
        no tape."""
        from anodelab import data, expcli, models, tensorgrad
        idx = self.dir / "idx"
        model = expcli.load_checkpoint(self.dir / f"mnist/{kind}.ckpt")
        for img, lab in (MNIST_FILES[:2], MNIST_FILES[2:]):
            images = data.load_idx(idx / img, idx / lab).inputs
            with tensorgrad.no_grad():
                for i in range(0, len(images), self.INFER_BATCH):
                    x = tensorgrad.Tensor(images[i:i + self.INFER_BATCH])
                    models.node_forward(model, x)

    def train_samples(self) -> int:
        return 2 * self.size["conv_epochs"] * self.size["conv_train"]

    def final_loss(self) -> float:
        """anode's last-epoch test cross-entropy."""
        return float(read_rows(self.dir / "mnist/anode_train.csv")[-1]["val_loss"])

    def extra_checks(self) -> list[Check]:
        from anodelab import expcli
        try:
            counts = {k: expcli.load_checkpoint(
                self.dir / f"mnist/{k}.ckpt").param_count()
                for k in ("node", "anode")}
        except OSError as exc:
            return [Check("param_mismatch", False, str(exc))]
        rel = abs(counts["node"] - counts["anode"]) / counts["node"]
        return [Check("param_mismatch", rel <= self.MAX_PARAM_MISMATCH,
                      f"{counts} mismatch {rel:.2%}")]


WORKLOADS = {w.name: w for w in (Toy1d, Concentric2d, ConvIdx)}
