"""Command-line entry point reproducing each experiment at desk scale.

Subcommands: toy, nfe, generalization, mnist-mini, sweep, export-flows, one
entry each in COMMANDS, whose flags are generated from the entry's defaults.
Each command's plan checks its config, loads its input files and builds
every object the run uses; only then is the experiment manifest written, and
the planned step trains and writes CSV artifacts (always) and SVG plots (with
--svg).  Exit codes: 0 success, 2 config error, 3 training or
solver failure, 4 I/O error or malformed input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import data as dat
from . import models as mdl
from . import svg
from . import train as trn
from .odeint import DivergenceError, SolverConfig, StepLimitError
from .tensorgrad import Tensor, no_grad

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4

CKPT_MAGIC = b"ANODELAB"
CKPT_VERSION = 1


class ConfigError(ValueError):
    pass


def write_csv(path, header: str, rows) -> None:
    """The one CSV writer of every artifact: an int or str cell (bool
    included) is written with str, None as an empty cell, and any other
    value as a float in .9g, byte for byte format(float(c), ".9g").  Rows
    are drawn and written one at a time, each through one % template built
    once per tuple of cell types."""
    templates: dict[tuple[type, ...], str] = {}
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            row = tuple(row)
            key = tuple(map(type, row))
            template = templates.get(key)
            if template is None:
                template = templates[key] = ",".join(
                    "%s" if issubclass(t, (int, str)) else
                    "%.0s" if t is type(None) else "%.9g" for t in key) + "\n"
            fh.write(template % row)


def save_checkpoint(path, model: mdl.Model) -> None:
    """Versioned binary: magic, version, model spec as JSON, then parameters
    as little-endian float64 in declaration order."""
    spec_json = json.dumps(asdict(model.spec), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(spec_json)))
        fh.write(spec_json)
        for _, t in model.params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> mdl.Model:
    """Inverse of save_checkpoint; every malformed file raises OSError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:8] != CKPT_MAGIC:
        raise OSError(f"{path}: not a model checkpoint")
    version, spec_len = struct.unpack("<II", raw[8:16])
    if version != CKPT_VERSION:
        raise OSError(f"{path}: unsupported checkpoint version {version}")
    off = 16 + spec_len
    try:  # undecodable bytes, bad JSON, unknown keys and invalid values
        spec = mdl.ModelSpec(**json.loads(raw[16:off].decode()))
    except (TypeError, ValueError) as exc:
        raise OSError(f"{path}: malformed model spec: {exc}") from None
    end = off  # the file must hold every parameter before any is allocated
    for name, shape in mdl.param_shapes(spec):
        end += 8 * math.prod(shape)
        if len(raw) < end:
            raise OSError(f"{path}: truncated parameter data at {name!r}")
    if len(raw) != end:
        raise OSError(f"{path}: {len(raw) - end} bytes after the parameters")
    model = mdl.Model(spec, seed=0)
    for _, t in model.params.items():
        t.data[...] = np.frombuffer(raw, dtype="<f8", count=t.size,
                                    offset=off).reshape(t.shape)
        off += 8 * t.size
    return model


def parse_config_file(path) -> dict[str, str]:
    """Line-oriented key=value config; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def resolve_config(defaults: dict, file_cfg: dict[str, str],
                   cli: dict) -> dict:
    """Precedence: defaults < config file < CLI flags."""
    cfg = dict(defaults)
    for key, raw in file_cfg.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        try:  # the type build_parser gives the key's flag
            cfg[key] = type(defaults[key])(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}")
    for key, val in cli.items():
        if val is not None and key in cfg:
            cfg[key] = val
    return cfg


def write_manifest(out_dir: Path, name: str, cfg: dict, seeds: list[int]) -> dict:
    resolved = {k: v for k, v in sorted(cfg.items())}
    payload = json.dumps({"experiment": name, "config": resolved,
                          "seeds": seeds}, sort_keys=True)
    manifest = {
        "experiment": name,
        "config": resolved,
        "seeds": seeds,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest(),
        "output_dir": str(out_dir),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def write_record_csvs(out_dir: Path, stem: str, record: trn.TrainRecord,
                      want_svg: bool) -> None:
    write_csv(out_dir / f"{stem}_train.csv", trn.TrainRecord.CSV_HEADER,
              ((e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc,
                e.nfe_forward_mean, e.wall_ms) for e in record.epochs))
    if want_svg:
        ep = record.metric("epoch")
        svg.line_plot(out_dir / f"{stem}_loss.svg",
                      {"train_loss": (ep, record.metric("train_loss"))},
                      title=f"{stem}: training loss")


def write_flow_csv(path, snap: mdl.FlowSnapshot) -> None:
    dim = snap.states.shape[2]
    header = "point_id,label,time," + ",".join(f"s{i}" for i in range(dim))
    times = np.asarray(snap.times, dtype=float).tolist()
    labels = np.asarray(snap.labels, dtype=float).tolist()
    write_csv(path, header, ((i, label, t, *state)
                             for i, label in enumerate(labels)
                             for t, state in zip(times, snap.states[i].tolist())))


@dataclass
class Run:
    """Where and how a planned step writes: the output directory, --svg,
    the training config (with its solver config), and the training failures
    so far."""

    out: Path
    svg: bool
    train: trn.TrainConfig
    failures: list[str] = field(default_factory=list)

    def fit(self, stem: str, model: mdl.Model, train_set, val_set=None,
            epoch_callback=None) -> trn.TrainRecord:
        """Train one model, write its CSVs and checkpoint, note a failure."""
        record = trn.fit(model, train_set, val_set, self.train, epoch_callback)
        write_record_csvs(self.out, stem, record, self.svg)
        save_checkpoint(self.out / f"{stem}.ckpt", model)
        if record.error is not None:
            self.failures.append(f"{stem}: training failed: {record.error}")
        return record


Step = Callable[[Run], None]


# ModelSpec field -> the flag of the toy, nfe and generalization commands
SPEC_FLAGS = {"hidden_dim": "--hidden", "p": "--aug", "resnet_layers": "--layers"}


def _toy_model(cfg: dict, kind: str, dim: int) -> mdl.Model:
    # 1-d node/resnet train the bare flow (the crossing obstruction is the
    # point of the task); everything else uses the affine head
    head = "identity" if dim == 1 and kind != "anode" else "affine"
    try:
        spec = mdl.ModelSpec(kind=kind, input_dim=dim, hidden_dim=cfg["hidden"],
                             p=cfg["aug"] if kind == "anode" else 0,
                             output_dim=1, head=head,
                             resnet_layers=cfg["layers"] if kind == "resnet" else 0)
    except ValueError as exc:  # the spec's range errors start with the field
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{SPEC_FLAGS.get(name, name)} {rest}") from None
    return mdl.Model(spec, seed=cfg["seed"])


def _toy_dataset(dim: int, seed: int) -> dat.LabeledSet:
    if dim == 1:
        return dat.gen_g1d(64, seed=seed)
    return dat.gen_concentric(dat.SphereAnnulusConfig(d=2, seed=seed))


def plan_toy(cfg: dict) -> Step:
    kind, dim = cfg["model"], cfg["dim"]
    if dim not in (1, 2):
        raise ConfigError("--dim must be one of (1, 2)")
    dataset = _toy_dataset(dim, cfg["seed"])
    model = _toy_model(cfg, kind, dim)

    def step(run: Run) -> None:
        record = run.fit(kind, model, dataset)
        if record.error is not None:  # no solve with a blown-up model
            return
        snap = mdl.flow_trajectory(model, dataset.inputs[:20], 25,
                                   run.train.solver, dataset.targets[:20])
        write_flow_csv(run.out / f"{kind}_flow.csv", snap)
        if run.svg:
            svg.trajectory_plot(run.out / f"{kind}_flow.svg", snap.states,
                                snap.labels, title="flow trajectories")
        print(f"final train loss {record.epochs[-1].train_loss:.6g} "
              f"(artifacts in {run.out})")
    return step


def plan_nfe(cfg: dict) -> Step:
    kind, every = cfg["model"], cfg["snapshot_every"]
    if kind not in ("node", "anode"):
        raise ConfigError("--model must be one of ('node', 'anode')")
    if every < 1:
        raise ConfigError("--snapshot-every must be >= 1")
    dataset = _toy_dataset(2, cfg["seed"])
    model = _toy_model(cfg, kind, 2)
    probe = dataset.inputs[:: max(1, len(dataset) // 200)]

    def step(run: Run) -> None:
        def snapshot(epoch, m):
            if epoch % every == 0:
                with no_grad():
                    feats = mdl.features(m, Tensor(probe), run.train.solver).data
                header = ",".join(f"s{i}" for i in range(feats.shape[1]))
                write_csv(run.out / f"features_epoch{epoch:03d}.csv", header,
                          feats.tolist())

        record = run.fit(kind, model, dataset, epoch_callback=snapshot)
        write_csv(run.out / "nfe_vs_epoch.csv", "epoch,nfe_forward_mean",
                  ((e.epoch, e.nfe_forward_mean) for e in record.epochs))
        write_csv(run.out / "nfe_vs_loss.csv", "nfe_forward_mean,train_loss",
                  ((e.nfe_forward_mean, e.train_loss) for e in record.epochs))
        if run.svg:
            svg.line_plot(run.out / "nfe.svg",
                          {"nfe": (record.metric("epoch"),
                                   record.metric("nfe_forward_mean"))},
                          title="NFE per epoch")
        if record.error is None:
            nfes = record.metric("nfe_forward_mean")
            print(f"NFE epoch0 {nfes[0]:.1f} -> final {nfes[-1]:.1f} "
                  f"(ratio {nfes[-1] / nfes[0]:.2f}); artifacts in {run.out}")
    return step


def plan_generalization(cfg: dict) -> Step:
    train_set, val_set = dat.angular_split(_toy_dataset(2, cfg["seed"]),
                                           0.0, np.pi / 5)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 100),
                                np.linspace(-2, 2, 100),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    models = {kind: _toy_model(cfg, kind, 2) for kind in ("node", "anode")}

    def step(run: Run) -> None:
        for kind, model in models.items():
            record = run.fit(kind, model, train_set, val_set)
            if record.error is not None:  # no solve with a blown-up model
                continue
            with no_grad():
                preds = np.concatenate(
                    [mdl.node_forward(model, Tensor(grid[i:i + 500]),
                                      run.train.solver)[0].data.reshape(-1)
                     for i in range(0, len(grid), 500)])
            write_csv(run.out / f"{kind}_heatgrid.csv", "x0,x1,prediction",
                      ((*g, p) for g, p in zip(grid.tolist(), preds.tolist())))
            print(f"{kind}: final val loss {record.epochs[-1].val_loss:.6g}")
        if not run.failures:
            print(f"artifacts in {run.out}")
    return step


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def plan_mnist_mini(cfg: dict) -> Step:
    if cfg["aug"] < 0 or cfg["filters"] < 1:
        raise ConfigError("--aug must be >= 0 and --filters >= 1")
    data_dir = Path(cfg["data_dir"])
    paths = [data_dir / f for f in MNIST_FILES]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise FileNotFoundError(
            "missing MNIST IDX files:\n  " + "\n  ".join(missing) +
            "\nDownload train-images-idx3-ubyte(.gz) etc. from an MNIST "
            f"mirror, gunzip them, and place them in {data_dir}/ "
            "(this tool performs no network access).")
    train_set = dat.load_idx(paths[0], paths[1], limit=cfg["train_limit"],
                             class_filter={0, 1})
    test_set = dat.load_idx(paths[2], paths[3], limit=cfg["test_limit"],
                            class_filter={0, 1})
    if not len(train_set) or not len(test_set):
        raise ConfigError("no digits 0/1 among the training or test images read")
    k_anode, k_node = mdl.match_conv_filters(
        channels_a=1 + cfg["aug"], channels_b=1, base_filters=cfg["filters"],
        output_dim=2)
    models = {kind: mdl.Model(mdl.ModelSpec(kind=kind, input_dim=1, hidden_dim=k, p=p,
                                            output_dim=2, conv=True), seed=cfg["seed"])
              for kind, k, p in (("anode", k_anode, cfg["aug"]), ("node", k_node, 0))}

    def step(run: Run) -> None:
        counts = {k: m.param_count() for k, m in models.items()}
        print(f"parameter counts: {counts} (mismatch "
              f"{abs(counts['node'] - counts['anode']) / counts['node']:.2%})")
        for kind, model in models.items():
            record = run.fit(kind, model, train_set, test_set)
            if record.error is None:
                print(f"{kind}: test acc {record.epochs[-1].val_acc:.4f}, "
                      f"mean NFE {record.epochs[-1].nfe_forward_mean:.1f}")
        if not run.failures:
            print(f"artifacts in {run.out}")
    return step


def sweep_grid(model_kind: str) -> dict:
    grid = {"batch_size": [64, 128], "lr": [1e-3, 5e-4, 1e-4], "hidden": [16, 32]}
    if model_kind == "anode":
        grid["aug"] = [1, 2, 5]
    elif model_kind == "resnet":
        grid["layers"] = [2, 5, 10]
    return grid


def plan_sweep(cfg: dict) -> Step:
    kind, dim, folds = cfg["model"], cfg["dim"], cfg["cv_folds"]
    dataset = dat.gen_concentric(dat.SphereAnnulusConfig(
        d=dim, n_inner=cfg["n_inner"], n_outer=cfg["n_outer"],
        seed=cfg["seed"]))
    if not 2 <= folds <= len(dataset):
        raise ConfigError(f"--cv-folds must lie in [2, {len(dataset)}] "
                          "(n-inner + n-outer)")
    grid = sweep_grid(kind)

    def spec(cell: dict) -> mdl.ModelSpec:
        return mdl.ModelSpec(kind=kind, input_dim=dim, hidden_dim=cell["hidden"],
                             p=cell.get("aug", 0), output_dim=1,
                             resnet_layers=cell.get("layers", 0))

    spec({k: v[0] for k, v in grid.items()})  # checks the kind; grid values are valid

    def step(run: Run) -> None:
        results = trn.grid_search(
            grid, lambda cell, seed: mdl.Model(spec(cell), seed=seed), dataset,
            folds, run.train)
        keys = sorted({k for r in results for k in r.cell})
        write_csv(run.out / "sweep_folds.csv", ",".join(keys) + ",fold,val_loss",
                  ((*(r.cell.get(k, "") for k in keys), fold, loss)
                   for r in results for fold, loss in enumerate(r.fold_losses)))
        write_csv(run.out / "sweep_summary.csv",
                  ",".join(keys) + ",mean_val_loss,error",
                  ((*(r.cell.get(k, "") for k in keys),
                    r.mean_val_loss if r.fold_losses else None, r.error)
                   for r in results))
        best = results[0]
        print(f"{len(results)} cells; best {best.cell} "
              f"mean val loss {best.mean_val_loss:.6g}; artifacts in {run.out}")
    return step


def plan_export_flows(cfg: dict) -> Step:
    n_points, n_times = cfg["n_points"], cfg["n_times"]
    if not cfg["checkpoint"]:
        raise ConfigError("--checkpoint is required")
    if n_points < 1 or n_times < 2:
        raise ConfigError("--n-points must be >= 1 and --n-times >= 2")
    model = load_checkpoint(cfg["checkpoint"])
    if model.spec.conv:
        raise ConfigError(f"{cfg['checkpoint']}: flows of image (conv) models "
                          "are unsupported")
    d = model.spec.input_dim
    if d == 1:
        points = np.linspace(-1.5, 1.5, n_points)[:, None]
    else:
        points = np.random.default_rng(cfg["seed"]).uniform(
            -1.5, 1.5, size=(n_points, d))

    def step(run: Run) -> None:
        snap = mdl.flow_trajectory(model, points, n_times, run.train.solver)
        write_flow_csv(run.out / "flow.csv", snap)
        if model.spec.kind != "resnet":
            sd = model.spec.state_dim
            axis = np.linspace(-2.0, 2.0, 10)
            mesh = np.stack(np.meshgrid(*([axis] * min(sd, 2)), indexing="ij"),
                            axis=-1).reshape(-1, min(sd, 2))
            mesh = np.pad(mesh, ((0, 0), (0, sd - mesh.shape[1])))  # zero aug dims
            times = [0.0, 0.5, 1.0]
            vecs = mdl.vector_field(model, mesh, times)
            header = ("t," + ",".join(f"x{i}" for i in range(sd)) + "," +
                      ",".join(f"f{i}" for i in range(sd)))
            write_csv(run.out / "field.csv", header,
                      ((t, *pt, *vec) for t, at_t in zip(times, vecs.tolist())
                       for pt, vec in zip(mesh.tolist(), at_t)))
            if run.svg and sd == 2:
                svg.field_plot(run.out / "field.svg", mesh, vecs[0],
                               title="vector field at t=0")
        if run.svg:
            svg.trajectory_plot(run.out / "flow.svg", snap.states, snap.labels,
                                title="flow trajectories")
        print(f"artifacts in {run.out}")
    return step


@dataclass(frozen=True)
class Command:
    """One subcommand.  Its flags are the dash-cased keys of ``defaults``,
    typed like their default values.  ``plan`` checks the resolved config,
    loads the input files and builds every object the run uses, before the
    manifest is written; the step it returns trains and writes the rest."""

    help: str
    defaults: dict
    plan: Callable[[dict], Step]


COMMANDS = {
    "toy": Command(
        "train one model on the 1-d crossing task or 2-d concentric data",
        {"dim": 1, "model": "node", "aug": 5, "hidden": 32, "layers": 5,
         "lr": 1e-3, "batch": 64, "epochs": 50, "seed": 0, "wd": 0.0,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/toy"},
        plan_toy),
    "nfe": Command(
        "track solver evaluations during training on 2-d concentric data",
        {"model": "node", "aug": 5, "hidden": 32, "lr": 1e-3, "batch": 64,
         "epochs": 30, "seed": 0, "wd": 0.0, "snapshot_every": 6,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/nfe"},
        plan_nfe),
    "generalization": Command(
        "train/val comparison with an angular slice held out",
        {"aug": 5, "hidden": 32, "lr": 1e-3, "batch": 64, "epochs": 30,
         "seed": 0, "wd": 0.0, "solver_rtol": 1e-3, "solver_atol": 1e-3,
         "out": "out/generalization"},
        plan_generalization),
    "mnist-mini": Command(
        "parameter-matched conv models on MNIST digits 0/1",
        {"data_dir": "data/mnist", "lr": 1e-3, "batch": 64, "epochs": 3,
         "seed": 0, "wd": 0.0, "filters": 32, "aug": 5,
         "train_limit": 2000, "test_limit": 500,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/mnist"},
        plan_mnist_mini),
    "sweep": Command(
        "hyperparameter grid search with cross validation",
        {"model": "anode", "dim": 1, "epochs": 10, "seed": 0,
         "n_inner": 150, "n_outer": 300, "cv_folds": 3,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/sweep"},
        plan_sweep),
    "export-flows": Command(
        "flow trajectory and vector field CSVs from a checkpoint",
        {"checkpoint": "", "n_points": 20, "n_times": 25,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/flows",
         "seed": 0},
        plan_export_flows),
}

# config key -> TrainConfig field, for the keys a command has
TRAIN_FIELDS = {"lr": "lr", "batch": "batch_size", "epochs": "epochs",
                "wd": "weight_decay", "seed": "seed"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anodelab",
                                description="Neural ODE / augmented neural ODE "
                                            "desk-scale experiment runner")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for key, default in cmd.defaults.items():
            sp.add_argument("--" + key.replace("_", "-"), type=type(default))
        sp.add_argument("--svg", action="store_true")
        sp.add_argument("--config", type=str)
    return p


def run_command(name: str, args: argparse.Namespace) -> int:
    """Resolve the config, build the solver and training configs, plan the
    run, write the manifest, run the planned step, and return the exit code;
    every check is done before the manifest is written."""
    cmd = COMMANDS[name]
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(cmd.defaults, file_cfg, vars(args))
    solver = SolverConfig(rtol=cfg["solver_rtol"], atol=cfg["solver_atol"])
    train = trn.TrainConfig(solver=solver, **{
        f: cfg[k] for k, f in TRAIN_FIELDS.items() if k in cfg})
    try:
        step = cmd.plan(cfg)
    except MemoryError as exc:
        raise ConfigError(f"the planned run does not fit in memory ({exc})") from exc
    run = Run(Path(cfg["out"]), args.svg, train)
    write_manifest(run.out, name, cfg, [cfg["seed"]])
    try:  # a training failure is reported even if a later solve raises
        step(run)
    finally:
        for msg in run.failures:
            print(msg, file=sys.stderr)
    return EXIT_TRAINING if run.failures else EXIT_OK


# exception -> (exit code, label); the first matching row wins, so
# IdxFormatError (a ValueError raised for a malformed file) precedes ValueError
EXIT_CODES = {dat.IdxFormatError: (EXIT_IO, "I/O error"),
              ValueError: (EXIT_CONFIG, "config error"),
              OSError: (EXIT_IO, "I/O error"),
              StepLimitError: (EXIT_TRAINING, "solver failure"),
              DivergenceError: (EXIT_TRAINING, "solver failure")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args.command, args)
    except tuple(EXIT_CODES) as exc:
        code, label = next(v for t, v in EXIT_CODES.items() if isinstance(exc, t))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
