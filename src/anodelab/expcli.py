"""Command-line entry point reproducing each experiment at desk scale.

Subcommands: toy, nfe, generalization, mnist-mini, sweep, export-flows, one
entry each in COMMANDS, whose flags are generated from the entry's defaults.
Every command checks its config and loads its input files, writes an
experiment manifest, then trains and writes CSV artifacts (always) and SVG
plots (with --svg).  Exit codes: 0 success, 2 config error, 3 training or
solver failure, 4 I/O error or malformed input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import asdict, dataclass, field, replace
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
    """The one CSV writer of every artifact: an int or str cell is written
    with str, None as an empty cell, and any other value as a float in .9g."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else
                              "" if c is None else format(float(c), ".9g")
                              for c in row) + "\n")


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
        model = mdl.Model(spec, seed=0)
    except (TypeError, ValueError) as exc:
        raise OSError(f"{path}: malformed model spec: {exc}") from None
    for name, t in model.params.items():
        n = t.size
        if len(raw) < off + 8 * n:
            raise OSError(f"{path}: truncated parameter data at {name!r}")
        vals = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
        t.data[...] = vals.reshape(t.shape)
        off += 8 * n
    if len(raw) != off:
        raise OSError(f"{path}: {len(raw) - off} bytes after the parameters")
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
        ref = cfg[key]
        try:
            if isinstance(ref, bool):
                cfg[key] = raw.lower() in ("1", "true", "yes")
            elif isinstance(ref, int):
                cfg[key] = int(raw)
            elif isinstance(ref, float):
                cfg[key] = float(raw)
            else:
                cfg[key] = raw
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
              [(e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc,
                e.nfe_forward_mean, e.wall_ms) for e in record.epochs])
    if want_svg:
        ep = record.metric("epoch")
        svg.line_plot(out_dir / f"{stem}_loss.svg",
                      {"train_loss": (ep, record.metric("train_loss"))},
                      title=f"{stem}: training loss")


def write_flow_csv(path, snap: mdl.FlowSnapshot) -> None:
    dim = snap.states.shape[2]
    header = "point_id,label,time," + ",".join(f"s{i}" for i in range(dim))
    write_csv(path, header, [[i, snap.labels[i], t, *snap.states[i, j]]
                             for i in snap.point_ids
                             for j, t in enumerate(snap.times)])


@dataclass
class Run:
    """One command invocation after its config and inputs were checked: the
    resolved config, the solver and training configs built from it, what
    the command's prepare step loaded, and the training failures so far."""

    cfg: dict
    out: Path
    svg: bool
    solver: SolverConfig
    train: trn.TrainConfig
    inputs: object = None
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


def _choices(**allowed) -> Callable[[dict], None]:
    """A prepare step that checks each key against its allowed values."""
    def check(cfg: dict) -> None:
        for key, values in allowed.items():
            if cfg[key] not in values:
                raise ConfigError(f"--{key} must be one of {values}")
    return check


def _toy_model(cfg: dict, kind: str, dim: int) -> mdl.Model:
    # 1-d node/resnet train the bare flow (the crossing obstruction is the
    # point of the task); everything else uses the affine head
    head = "identity" if dim == 1 and kind != "anode" else "affine"
    spec = mdl.ModelSpec(kind=kind, input_dim=dim, hidden_dim=cfg["hidden"],
                         p=cfg["aug"] if kind == "anode" else 0,
                         output_dim=1, head=head,
                         resnet_layers=cfg["layers"] if kind == "resnet" else 0)
    return mdl.Model(spec, seed=cfg["seed"])


def _toy_dataset(dim: int, seed: int) -> dat.LabeledSet:
    if dim == 1:
        return dat.gen_g1d(64, seed=seed)
    return dat.gen_concentric(dat.SphereAnnulusConfig(d=2, seed=seed))


def run_toy(run: Run) -> None:
    cfg, kind = run.cfg, run.cfg["model"]
    dataset = _toy_dataset(cfg["dim"], cfg["seed"])
    model = _toy_model(cfg, kind, cfg["dim"])
    record = run.fit(kind, model, dataset)
    n_show = min(20, len(dataset))
    snap = mdl.flow_trajectory(model, dataset.inputs[:n_show], 25,
                               run.solver, dataset.targets[:n_show])
    write_flow_csv(run.out / f"{kind}_flow.csv", snap)
    if run.svg:
        svg.trajectory_plot(run.out / f"{kind}_flow.svg", snap.states,
                            snap.labels, title="flow trajectories")
    if record.error is None:
        print(f"final train loss {record.epochs[-1].train_loss:.6g} "
              f"(artifacts in {run.out})")


def _prepare_nfe(cfg: dict) -> None:
    _choices(model=("node", "anode"))(cfg)
    if cfg["snapshot_every"] < 1:
        raise ConfigError("--snapshot-every must be >= 1")


def run_nfe(run: Run) -> None:
    cfg, out = run.cfg, run.out
    dataset = _toy_dataset(2, cfg["seed"])
    model = _toy_model(cfg, cfg["model"], 2)
    probe = dataset.inputs[:: max(1, len(dataset) // 200)]

    def snapshot(epoch, m):
        if epoch % cfg["snapshot_every"] == 0:
            with no_grad():
                feats = mdl.features(m, Tensor(probe), run.solver).data
            header = ",".join(f"s{i}" for i in range(feats.shape[1]))
            write_csv(out / f"features_epoch{epoch:03d}.csv", header, feats)

    record = run.fit(cfg["model"], model, dataset, epoch_callback=snapshot)
    write_csv(out / "nfe_vs_epoch.csv", "epoch,nfe_forward_mean",
              [(e.epoch, e.nfe_forward_mean) for e in record.epochs])
    write_csv(out / "nfe_vs_loss.csv", "nfe_forward_mean,train_loss",
              [(e.nfe_forward_mean, e.train_loss) for e in record.epochs])
    if run.svg:
        svg.line_plot(out / "nfe.svg",
                      {"nfe": (record.metric("epoch"),
                               record.metric("nfe_forward_mean"))},
                      title="NFE per epoch")
    if record.error is None:
        nfes = record.metric("nfe_forward_mean")
        print(f"NFE epoch0 {nfes[0]:.1f} -> final {nfes[-1]:.1f} "
              f"(ratio {nfes[-1] / nfes[0]:.2f}); artifacts in {out}")


def run_generalization(run: Run) -> None:
    cfg = run.cfg
    dataset = _toy_dataset(2, cfg["seed"])
    train_set, val_set = dat.angular_split(dataset, 0.0, np.pi / 5)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 100),
                                np.linspace(-2, 2, 100),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    for kind in ("node", "anode"):
        model = _toy_model(cfg, kind, 2)
        record = run.fit(kind, model, train_set, val_set)
        with no_grad():
            preds = np.concatenate(
                [mdl.node_forward(model, Tensor(grid[i:i + 500]), run.solver)[0]
                 .data.reshape(-1) for i in range(0, len(grid), 500)])
        write_csv(run.out / f"{kind}_heatgrid.csv", "x0,x1,prediction",
                  [(g[0], g[1], p) for g, p in zip(grid, preds)])
        if record.error is None:
            print(f"{kind}: final val loss {record.epochs[-1].val_loss:.6g}")
    if not run.failures:
        print(f"artifacts in {run.out}")


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def load_mnist(cfg: dict) -> tuple[dat.LabeledSet, dat.LabeledSet]:
    data_dir = Path(cfg["data_dir"])
    paths = [data_dir / f for f in MNIST_FILES]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise FileNotFoundError(
            "missing MNIST IDX files:\n  " + "\n  ".join(missing) +
            "\nDownload train-images-idx3-ubyte(.gz) etc. from an MNIST "
            f"mirror, gunzip them, and place them in {data_dir}/ "
            "(this tool performs no network access).")
    return (dat.load_idx(paths[0], paths[1], limit=cfg["train_limit"],
                         class_filter={0, 1}),
            dat.load_idx(paths[2], paths[3], limit=cfg["test_limit"],
                         class_filter={0, 1}))


def run_mnist_mini(run: Run) -> None:
    cfg = run.cfg
    train_set, test_set = run.inputs
    run.train = replace(run.train, loss="cross_entropy")
    k_anode, k_node = mdl.match_conv_filters(
        channels_a=1 + cfg["aug"], channels_b=1, base_filters=cfg["filters"],
        output_dim=2)
    specs = {
        "anode": mdl.ModelSpec(kind="anode", input_dim=1, hidden_dim=k_anode,
                               p=cfg["aug"], output_dim=2, conv=True),
        "node": mdl.ModelSpec(kind="node", input_dim=1, hidden_dim=k_node,
                              output_dim=2, conv=True),
    }
    counts = {k: mdl.param_count(s) for k, s in specs.items()}
    print(f"parameter counts: {counts} "
          f"(mismatch {abs(counts['node'] - counts['anode']) / counts['node']:.2%})")
    for kind, spec in specs.items():
        record = run.fit(kind, mdl.Model(spec, seed=cfg["seed"]), train_set,
                         test_set)
        if record.error is None:
            print(f"{kind}: test acc {record.epochs[-1].val_acc:.4f}, "
                  f"mean NFE {record.epochs[-1].nfe_forward_mean:.1f}")
    if not run.failures:
        print(f"artifacts in {run.out}")


def sweep_grid(model_kind: str) -> dict:
    grid = {"batch_size": [64, 128], "lr": [1e-3, 5e-4, 1e-4], "hidden": [16, 32]}
    if model_kind == "anode":
        grid["aug"] = [1, 2, 5]
    elif model_kind == "resnet":
        grid["layers"] = [2, 5, 10]
    return grid


def _prepare_sweep(cfg: dict) -> None:
    _choices(model=mdl.KINDS)(cfg)
    n = cfg["n_inner"] + cfg["n_outer"]
    if not 2 <= cfg["cv_folds"] <= n:
        raise ConfigError(f"--cv-folds must lie in [2, {n}] (n-inner + n-outer)")


def run_sweep(run: Run) -> None:
    cfg, kind = run.cfg, run.cfg["model"]
    dataset = dat.gen_concentric(dat.SphereAnnulusConfig(
        d=cfg["dim"], n_inner=cfg["n_inner"], n_outer=cfg["n_outer"],
        seed=cfg["seed"]))

    def build(cell, seed):
        spec = mdl.ModelSpec(kind=kind, input_dim=cfg["dim"],
                             hidden_dim=cell["hidden"],
                             p=cell.get("aug", 0), output_dim=1,
                             resnet_layers=cell.get("layers", 0))
        return mdl.Model(spec, seed=seed)

    results = trn.grid_search(sweep_grid(kind), build, dataset,
                              epochs=cfg["epochs"], cv_folds=cfg["cv_folds"],
                              base_cfg=run.train)
    keys = sorted({k for r in results for k in r.cell})
    rows = [[*(r.cell.get(k, "") for k in keys), fold, loss]
            for r in results for fold, loss in enumerate(r.fold_losses)]
    write_csv(run.out / "sweep_folds.csv", ",".join(keys) + ",fold,val_loss", rows)
    write_csv(run.out / "sweep_summary.csv",
              ",".join(keys) + ",mean_val_loss,error",
              [[*(r.cell.get(k, "") for k in keys),
                r.mean_val_loss if r.fold_losses else None, r.error]
               for r in results])
    best = results[0]
    print(f"{len(results)} cells; best {best.cell} "
          f"mean val loss {best.mean_val_loss:.6g}; artifacts in {run.out}")


def load_export_checkpoint(cfg: dict) -> mdl.Model:
    if not cfg["checkpoint"]:
        raise ConfigError("--checkpoint is required")
    model = load_checkpoint(cfg["checkpoint"])
    if model.spec.conv:
        raise ConfigError(f"{cfg['checkpoint']}: flows of image (conv) models "
                          "are unsupported")
    return model


def run_export_flows(run: Run) -> None:
    cfg, model, out = run.cfg, run.inputs, run.out
    d = model.spec.input_dim
    rng = np.random.default_rng(cfg["seed"])
    if d == 1:
        points = np.linspace(-1.5, 1.5, cfg["n_points"])[:, None]
    else:
        points = rng.uniform(-1.5, 1.5, size=(cfg["n_points"], d))
    snap = mdl.flow_trajectory(model, points, cfg["n_times"], run.solver)
    write_flow_csv(out / "flow.csv", snap)

    if model.spec.kind != "resnet":
        sd = model.spec.state_dim
        axis = np.linspace(-2.0, 2.0, 10)
        mesh = np.stack(np.meshgrid(*([axis] * min(sd, 2)), indexing="ij"),
                        axis=-1).reshape(-1, min(sd, 2))
        mesh = np.pad(mesh, ((0, 0), (0, sd - mesh.shape[1])))  # zero aug dims
        vecs = mdl.vector_field(model, mesh, [0.0, 0.5, 1.0])
        header = ("t," + ",".join(f"x{i}" for i in range(sd)) + "," +
                  ",".join(f"f{i}" for i in range(sd)))
        rows = []
        for ti, t in enumerate([0.0, 0.5, 1.0]):
            for pt, vec in zip(mesh, vecs[ti]):
                rows.append([t, *pt, *vec])
        write_csv(out / "field.csv", header, rows)
        if run.svg and sd == 2:
            svg.field_plot(out / "field.svg", mesh, vecs[0],
                           title="vector field at t=0")
    if run.svg:
        svg.trajectory_plot(out / "flow.svg", snap.states, snap.labels,
                            title="flow trajectories")
    print(f"artifacts in {out}")


@dataclass(frozen=True)
class Command:
    """One subcommand.  Its flags are the dash-cased keys of ``defaults``,
    typed like their default values.  ``prepare`` checks the resolved config
    and loads the command's input files before the manifest is written
    (its result is ``Run.inputs``); ``run`` trains and writes the rest."""

    help: str
    defaults: dict
    run: Callable[[Run], None]
    prepare: Callable[[dict], object] = _choices()


COMMANDS = {
    "toy": Command(
        "train one model on the 1-d crossing task or 2-d concentric data",
        {"dim": 1, "model": "node", "aug": 5, "hidden": 32, "layers": 5,
         "lr": 1e-3, "batch": 64, "epochs": 50, "seed": 0, "wd": 0.0,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/toy"},
        run_toy, _choices(dim=(1, 2), model=mdl.KINDS)),
    "nfe": Command(
        "track solver evaluations during training on 2-d concentric data",
        {"model": "node", "aug": 5, "hidden": 32, "lr": 1e-3, "batch": 64,
         "epochs": 30, "seed": 0, "wd": 0.0, "snapshot_every": 6,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/nfe"},
        run_nfe, _prepare_nfe),
    "generalization": Command(
        "train/val comparison with an angular slice held out",
        {"aug": 5, "hidden": 32, "lr": 1e-3, "batch": 64, "epochs": 30,
         "seed": 0, "wd": 0.0, "solver_rtol": 1e-3, "solver_atol": 1e-3,
         "out": "out/generalization"},
        run_generalization),
    "mnist-mini": Command(
        "parameter-matched conv models on MNIST digits 0/1",
        {"data_dir": "data/mnist", "lr": 1e-3, "batch": 64, "epochs": 3,
         "seed": 0, "wd": 0.0, "filters": 32, "aug": 5,
         "train_limit": 2000, "test_limit": 500,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/mnist"},
        run_mnist_mini, load_mnist),
    "sweep": Command(
        "hyperparameter grid search with cross validation",
        {"model": "anode", "dim": 1, "epochs": 10, "seed": 0,
         "n_inner": 150, "n_outer": 300, "cv_folds": 3,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/sweep"},
        run_sweep, _prepare_sweep),
    "export-flows": Command(
        "flow trajectory and vector field CSVs from a checkpoint",
        {"checkpoint": "", "n_points": 20, "n_times": 25,
         "solver_rtol": 1e-3, "solver_atol": 1e-3, "out": "out/flows",
         "seed": 0},
        run_export_flows, load_export_checkpoint),
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
    """Resolve and check the config, load the inputs, write the manifest,
    run the command, and return its exit code."""
    cmd = COMMANDS[name]
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(cmd.defaults, file_cfg, vars(args))
    solver = SolverConfig(rtol=cfg["solver_rtol"], atol=cfg["solver_atol"])
    train = trn.TrainConfig(solver=solver, **{
        f: cfg[k] for k, f in TRAIN_FIELDS.items() if k in cfg})
    run = Run(cfg, Path(cfg["out"]), args.svg, solver, train, cmd.prepare(cfg))
    write_manifest(run.out, name, cfg, [cfg["seed"]])
    cmd.run(run)
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
