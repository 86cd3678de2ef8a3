"""Command-line entry point reproducing each experiment at desk scale.

Subcommands: toy, nfe, generalization, mnist-mini, sweep, export-flows, one
entry each in COMMANDS, whose flags are generated from the entry's defaults.
Each command's plan checks its config, loads its input files and builds
every object the run uses, its fit jobs included; only then is the
experiment manifest written, the jobs are run, and the fits and the plan's
writer write CSV artifacts (always) and SVG plots (with --svg).  Exit codes:
0 success, 2 config error, 3 training or solver failure, 4 I/O error or
malformed input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass
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


def cell_format(t: type) -> str:
    """The one cell rule of every CSV artifact, as the % conversion of a cell
    of type t: str for an int or str (bool included), an empty cell for None,
    and .9g for any other value, byte for byte format(float(c), ".9g")."""
    return ("%s" if issubclass(t, (int, str)) else
            "%.0s" if t is type(None) else "%.9g")


def write_blocks(path, header: str, blocks) -> None:
    """Write the header line, then each block of formatted rows as it is
    drawn.  A block that raises takes the file with it, so a failed solve
    leaves no artifact behind."""
    with open(path, "w", newline="") as fh:
        try:
            fh.write(header + "\n")
            for block in blocks:
                fh.write(block)
        except BaseException:
            fh.close()
            Path(path).unlink()
            raise


def write_csv(path, header: str, rows) -> None:
    """The CSV writer of rows of mixed cells: each row is drawn, formatted by
    cell_format through one % template built once per tuple of cell types,
    and written before the next is drawn."""
    templates: dict[tuple[type, ...], str] = {}

    def lines():
        for row in rows:
            row = tuple(row)
            key = tuple(map(type, row))
            template = templates.get(key)
            if template is None:
                template = templates[key] = ",".join(map(cell_format, key)) + "\n"
            yield template % row
    write_blocks(path, header, lines())


def save_checkpoint(path, model: mdl.Model) -> None:
    """Versioned binary: magic, version, model spec as JSON, then parameters
    as little-endian float64 in declaration order."""
    spec_json = json.dumps(asdict(model.spec), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(spec_json)))
        fh.write(spec_json)
        fh.write(np.ascontiguousarray(model.params.data, dtype="<f8").tobytes())


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
    return mdl.Model(spec, data=np.frombuffer(raw, dtype="<f8", offset=off))


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
    """One row per point and output time: point_id, label, time and the
    state, by cell_format (every cell but point_id a float).  Every point
    has the same time cells, so they are formatted once, into a block
    template of n_times rows whose state cells stay placeholders; the point
    id and label are formatted once per point, as the lead of each of its
    rows, and each point's block is written with one %."""
    dim = snap.states.shape[2]
    header = "point_id,label,time," + ",".join(f"s{i}" for i in range(dim))
    real, integer = cell_format(float), cell_format(int)
    rows = [",".join([real % t] + [real] * dim)
            for t in np.asarray(snap.times, dtype=float).tolist()]
    labels = np.asarray(snap.labels, dtype=float).tolist()

    def blocks():
        for i, label in enumerate(labels):
            lead = f"{integer % i},{real % label},"
            yield ((lead + ("\n" + lead).join(rows) + "\n") %
                   tuple(snap.states[i].ravel().tolist()))
    write_blocks(path, header, blocks())


# ModelSpec field -> the flag of the toy, nfe and generalization commands
SPEC_FLAGS = {"hidden_dim": "--hidden", "p": "--aug", "resnet_layers": "--layers"}


def _job(cfg: dict, train: trn.TrainConfig, sets, every=0, **fields) -> trn.FitJob:
    try:
        spec = mdl.ModelSpec(**fields)
    except ValueError as exc:  # the spec's range errors start with the field
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{SPEC_FLAGS.get(name, name)} {rest}") from None
    # the initial parameters are drawn here, so a model too large fails the plan
    init = mdl.Model(spec, seed=cfg["seed"]).params.data
    return trn.FitJob(spec, init, train, *sets, snapshot_every=every)


def _toy_job(cfg: dict, train: trn.TrainConfig, kind: str, dim: int,
             *sets: dat.LabeledSet, every: int = 0) -> trn.FitJob:
    # 1-d node/resnet train the bare flow (the crossing obstruction is the
    # point of the task); everything else uses the affine head
    return _job(cfg, train, sets, every, kind=kind, input_dim=dim, output_dim=1,
                hidden_dim=cfg["hidden"], p=cfg["aug"] if kind == "anode" else 0,
                head="identity" if dim == 1 and kind != "anode" else "affine",
                resnet_layers=cfg["layers"] if kind == "resnet" else 0)


def _toy_dataset(dim: int, seed: int) -> dat.LabeledSet:
    return (dat.gen_g1d(64, seed=seed) if dim == 1 else
            dat.gen_concentric(dat.SphereAnnulusConfig(d=2, seed=seed)))


def plan_toy(cfg: dict, train: trn.TrainConfig):
    kind, dim = cfg["model"], cfg["dim"]
    if dim not in (1, 2):
        raise ConfigError("--dim must be one of (1, 2)")
    dataset = _toy_dataset(dim, cfg["seed"])

    def write(out: Path, want_svg: bool, fits: dict) -> str | None:
        record, model = fits[kind]
        if record.error is not None:  # no solve with a blown-up model
            return None
        snap = mdl.flow_trajectory(model, dataset.inputs[:20], 25,
                                   train.solver, dataset.targets[:20])
        write_flow_csv(out / f"{kind}_flow.csv", snap)
        if want_svg:
            svg.trajectory_plot(out / f"{kind}_flow.svg", snap.states,
                                snap.labels, title="flow trajectories")
        return (f"final train loss {record.epochs[-1].train_loss:.6g} "
                f"(artifacts in {out})")
    return {kind: _toy_job(cfg, train, kind, dim, dataset)}, write


def plan_nfe(cfg: dict, train: trn.TrainConfig):
    kind, every = cfg["model"], cfg["snapshot_every"]
    if kind not in ("node", "anode"):
        raise ConfigError("--model must be one of ('node', 'anode')")
    if every < 1:
        raise ConfigError("--snapshot-every must be >= 1")
    dataset = _toy_dataset(2, cfg["seed"])
    probe = dataset.inputs[:: max(1, len(dataset) // 200)]

    def write(out: Path, want_svg: bool, fits: dict) -> str | None:
        record, model = fits[kind]
        for epoch, params in record.snapshots.items():
            with no_grad():
                feats = mdl.features(mdl.Model(model.spec, data=params),
                                     Tensor(probe), train.solver).data
            header = ",".join(f"s{i}" for i in range(feats.shape[1]))
            write_csv(out / f"features_epoch{epoch:03d}.csv", header, feats.tolist())
        write_csv(out / "nfe_vs_epoch.csv", "epoch,nfe_forward_mean",
                  ((e.epoch, e.nfe_forward_mean) for e in record.epochs))
        write_csv(out / "nfe_vs_loss.csv", "nfe_forward_mean,train_loss",
                  ((e.nfe_forward_mean, e.train_loss) for e in record.epochs))
        if want_svg:
            svg.line_plot(out / "nfe.svg",
                          {"nfe": (record.metric("epoch"),
                                   record.metric("nfe_forward_mean"))},
                          title="NFE per epoch")
        if record.error is not None:
            return None
        nfes = record.metric("nfe_forward_mean")
        return (f"NFE epoch0 {nfes[0]:.1f} -> final {nfes[-1]:.1f} "
                f"(ratio {nfes[-1] / nfes[0]:.2f}); artifacts in {out}")
    return {kind: _toy_job(cfg, train, kind, 2, dataset, every=every)}, write


def plan_generalization(cfg: dict, train: trn.TrainConfig):
    train_set, val_set = dat.angular_split(_toy_dataset(2, cfg["seed"]),
                                           0.0, np.pi / 5)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 100),
                                np.linspace(-2, 2, 100),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    jobs = {kind: _toy_job(cfg, train, kind, 2, train_set, val_set)
            for kind in ("node", "anode")}
    # both models predict the same grid: its x0,x1 cells are formatted once,
    # into one template per 500-point chunk whose predictions stay placeholders
    real = cell_format(float)
    cells = [f"{real % x0},{real % x1},{real}\n" for x0, x1 in grid.tolist()]
    chunks = {i: "".join(cells[i:i + 500]) for i in range(0, len(grid), 500)}

    def write(out: Path, want_svg: bool, fits: dict) -> str:
        for kind, (record, model) in fits.items():
            if record.error is not None:  # no solve with a blown-up model
                continue
            with no_grad():  # each chunk is written as soon as it is predicted
                write_blocks(out / f"{kind}_heatgrid.csv", "x0,x1,prediction",
                             (chunk % tuple(mdl.node_forward(
                                 model, Tensor(grid[i:i + 500]), train.solver
                             )[0].data.reshape(-1).tolist())
                              for i, chunk in chunks.items()))
            print(f"{kind}: final val loss {record.epochs[-1].val_loss:.6g}")
        return f"artifacts in {out}"
    return jobs, write


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def plan_mnist_mini(cfg: dict, train: trn.TrainConfig):
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
    jobs = {kind: _job(cfg, train, (train_set, test_set), kind=kind, input_dim=1,
                       hidden_dim=k, p=p, output_dim=2, conv=True)
            for kind, k, p in (("anode", k_anode, cfg["aug"]), ("node", k_node, 0))}

    def write(out: Path, want_svg: bool, fits: dict) -> str:
        counts = {k: m.param_count() for k, (_, m) in fits.items()}
        print(f"parameter counts: {counts} (mismatch "
              f"{abs(counts['node'] - counts['anode']) / counts['node']:.2%})")
        for kind, (record, _) in fits.items():
            if record.error is None:
                print(f"{kind}: test acc {record.epochs[-1].val_acc:.4f}, "
                      f"mean NFE {record.epochs[-1].nfe_forward_mean:.1f}")
        return f"artifacts in {out}"
    return jobs, write


def plan_sweep(cfg: dict, train: trn.TrainConfig):
    kind, dim, folds = cfg["model"], cfg["dim"], cfg["cv_folds"]
    dataset = dat.gen_concentric(dat.SphereAnnulusConfig(
        d=dim, n_inner=cfg["n_inner"], n_outer=cfg["n_outer"],
        seed=cfg["seed"]))
    if not 2 <= folds <= len(dataset):
        raise ConfigError(f"--cv-folds must lie in [2, {len(dataset)}] "
                          "(n-inner + n-outer)")
    grid = {"batch_size": [64, 128], "lr": [1e-3, 5e-4, 1e-4], "hidden": [16, 32],
            **{"anode": {"aug": [1, 2, 5]},
               "resnet": {"layers": [2, 5, 10]}}.get(kind, {})}
    specs = {str(c): mdl.ModelSpec(kind=kind, input_dim=dim, hidden_dim=c["hidden"],
                                   p=c.get("aug", 0), output_dim=1,
                                   resnet_layers=c.get("layers", 0))
             for c in trn.grid_cells(grid)}

    def write(out: Path, want_svg: bool, fits: dict) -> str:
        results = trn.grid_search(grid, lambda cell: specs[str(cell)], dataset,
                                  folds, train)
        keys = sorted({k for r in results for k in r.cell})
        write_csv(out / "sweep_folds.csv", ",".join(keys) + ",fold,val_loss",
                  ((*(r.cell.get(k, "") for k in keys), fold, loss)
                   for r in results for fold, loss in enumerate(r.fold_losses)))
        write_csv(out / "sweep_summary.csv",
                  ",".join(keys) + ",mean_val_loss,error",
                  ((*(r.cell.get(k, "") for k in keys),
                    r.mean_val_loss if r.fold_losses else None, r.error)
                   for r in results))
        best = results[0]
        return (f"{len(results)} cells; best {best.cell} "
                f"mean val loss {best.mean_val_loss:.6g}; artifacts in {out}")
    return {}, write


def plan_export_flows(cfg: dict, train: trn.TrainConfig):
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

    def write(out: Path, want_svg: bool, fits: dict) -> str:
        snap = mdl.flow_trajectory(model, points, n_times, train.solver)
        write_flow_csv(out / "flow.csv", snap)
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
            write_csv(out / "field.csv", header,
                      ((t, *pt, *vec) for t, at_t in zip(times, vecs.tolist())
                       for pt, vec in zip(mesh.tolist(), at_t)))
            if want_svg and sd == 2:
                svg.field_plot(out / "field.svg", mesh, vecs[0],
                               title="vector field at t=0")
        if want_svg:
            svg.trajectory_plot(out / "flow.svg", snap.states, snap.labels,
                                title="flow trajectories")
        return f"artifacts in {out}"
    return {}, write


@dataclass(frozen=True)
class Command:
    """One subcommand.  Its flags are the dash-cased keys of ``defaults``,
    typed like their default values.  ``plan(config, train config)`` checks
    them, loads the input files and builds every object the run uses, before
    the manifest is written.  It returns the fit jobs by artifact stem and a
    writer: write(out dir, --svg, stem -> (record, trained model)) writes the
    rest and returns the line printed last if every fit trained."""

    help: str
    defaults: dict
    plan: Callable[[dict, trn.TrainConfig], tuple[dict[str, trn.FitJob], Callable]]


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
    run, write the manifest, run the fit jobs, write each fit's record CSVs
    and checkpoint, then the writer's artifacts, and return the exit code;
    every check is done before the manifest is written."""
    cmd = COMMANDS[name]
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(cmd.defaults, file_cfg, vars(args))
    solver = SolverConfig(rtol=cfg["solver_rtol"], atol=cfg["solver_atol"])
    train = trn.TrainConfig(solver=solver, **{
        f: cfg[k] for k, f in TRAIN_FIELDS.items() if k in cfg})
    try:
        jobs, write = cmd.plan(cfg, train)
    except MemoryError as exc:
        raise ConfigError(f"the planned run does not fit in memory ({exc})") from exc
    out = Path(cfg["out"])
    write_manifest(out, name, cfg, [cfg["seed"]])
    fits = {stem: (record, mdl.Model(jobs[stem].spec, data=params))
            for stem, (record, params) in zip(jobs, trn.run_fits(list(jobs.values())))}
    failures = [f"{stem}: training failed: {record.error}"
                for stem, (record, _) in fits.items() if record.error is not None]
    try:  # a training failure is reported even if a later solve raises
        for stem, (record, model) in fits.items():
            write_record_csvs(out, stem, record, args.svg)
            save_checkpoint(out / f"{stem}.ckpt", model)
        closing = write(out, args.svg, fits)
        if not failures:
            print(closing)
    finally:
        for msg in failures:
            print(msg, file=sys.stderr)
    return EXIT_TRAINING if failures else EXIT_OK


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
