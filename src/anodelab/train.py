"""Optimization loop (Adam with decoupled weight decay), per-epoch metrics,
fit jobs and their runner, and grid search with k-fold cross validation.

Each record row is one training epoch (numbered from 0); train-side metrics
are running means over that epoch's minibatches, so row 0 already reflects
the nearly-untrained model and NFE growth can be read directly off the log.
Training has one failure protocol: the first solver step limit, divergence,
non-finite gradient or failed allocation ends the fit, and the partial
record names where it happened.  Every fit is a FitJob, run by run_fits.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import CompGraph, ParamSet, Tensor, backward
from .odeint import DivergenceError, SolverConfig, StepLimitError
from .data import LabeledSet, batches
from .models import Model, ModelSpec, node_forward


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    weight_decay: float = 0.0
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # NaN fails too
            raise ValueError("lr must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None
    val_acc: float | None
    nfe_forward_mean: float
    wall_ms: float


@dataclass
class TrainRecord:
    epochs: list[EpochStats] = field(default_factory=list)
    error: str | None = None
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)  # epoch -> params
    metadata: dict = field(default_factory=dict)  # empty; bench/tracer.py reads it

    CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,nfe_forward_mean,wall_ms"

    def deterministic_rows(self) -> list[tuple]:
        """Epoch rows without wall_ms, which is the one nondeterministic field."""
        return [(e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc,
                 e.nfe_forward_mean) for e in self.epochs]

    def metric(self, name: str) -> np.ndarray:
        vals = [getattr(e, name) for e in self.epochs]
        return np.array([np.nan if v is None else v for v in vals])


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments, each one array over a ParamSet's buffer;
    None until the first step."""
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


class GradientError(ValueError):
    """A parameter's gradient is not finite, so no optimizer step is taken."""


def adam_step(params: ParamSet, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update with decoupled weight decay applied as
    theta <- theta * (1 - lr*wd) before the Adam step; zeros gradients after.
    Every operation is elementwise, so it runs once over the set's buffers.

    Raises GradientError, before changing any parameter or state, if a
    gradient is not finite; it names the first such parameter."""
    g = params.grad
    if not np.isfinite(g).all():
        name = next(name for name, p in params.items()
                    if not np.isfinite(p.grad).all())
        raise GradientError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    p = params.data
    if state.m is None:
        state.m = np.zeros_like(p)
        state.v = np.zeros_like(p)
    if cfg.weight_decay > 0.0:
        p *= 1.0 - cfg.lr * cfg.weight_decay
    m = state.m
    v = state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    p -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    params.zero_grad()


def _loss_and_acc(out: Tensor, targets: np.ndarray):
    """The head's width picks the loss: MSE against +-1 targets for one
    output, softmax cross-entropy against integer labels for more."""
    if out.shape[-1] == 1:
        loss = tg.mse(out, targets)
        acc = float(np.mean(np.sign(out.data.reshape(-1)) == np.sign(targets)))
    else:
        labels = np.asarray(targets, dtype=np.int64)
        loss = tg.softmax_cross_entropy(out, labels)
        acc = float(np.mean(out.data.argmax(axis=1) == labels))
    return loss, acc


def evaluate(model: Model, dataset: LabeledSet,
             cfg: TrainConfig) -> tuple[float, float]:
    """(loss, accuracy) over the dataset, no recording."""
    tot_loss = tot_acc = 0.0
    n = 0
    with tg.no_grad():
        for xb, yb in batches(dataset, cfg.batch_size):
            out, _ = node_forward(model, Tensor(xb), cfg.solver)
            loss, acc = _loss_and_acc(out, yb)
            tot_loss += loss.item() * len(xb)
            tot_acc += acc * len(xb)
            n += len(xb)
    return tot_loss / n, tot_acc / n


# exception that ends a fit -> the word that starts record.error
FAILURES = {StepLimitError: "step limit", DivergenceError: "divergence",
            GradientError: "gradient", MemoryError: "memory"}


def fit(model: Model, train_set: LabeledSet, val_set: LabeledSet | None,
        cfg: TrainConfig, snapshot_every: int = 0) -> TrainRecord:
    """Minibatch training with one metrics row per training epoch (0-based).

    Train loss/accuracy/NFE are running means over that epoch's batches, so
    row 0 reflects the nearly-untrained model.  With snapshot_every k > 0
    the record keeps a copy of the parameters after 0, k, 2k, ... epochs,
    for feature-snapshot exports.  The first step limit, divergence,
    non-finite gradient or MemoryError, in a training batch or in the
    validation pass, ends training: the partial record, with its snapshots,
    is returned with the error field set."""
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    record = TrainRecord()
    state = AdamState()
    t_start = time.perf_counter()

    if snapshot_every:
        record.snapshots[0] = model.params.data.copy()
    for epoch in range(cfg.epochs):
        tot_loss = tot_acc = tot_nfe = 0.0
        n = 0
        n_batches = 0
        shuffle_seed = (cfg.seed * 1_000_003 + epoch) & 0x7FFFFFFF
        try:
            # a diverging batch reports its failure line, not NumPy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for bi, (xb, yb) in enumerate(batches(train_set, cfg.batch_size,
                                                      shuffle_seed)):
                    where = f"batch {bi}"
                    with CompGraph() as g:
                        out, nfe = node_forward(model, Tensor(xb), cfg.solver)
                        loss, acc = _loss_and_acc(out, yb)
                    backward(g, loss)
                    adam_step(model.params, state, cfg)
                    tot_loss += loss.item() * len(xb)
                    tot_acc += acc * len(xb)
                    tot_nfe += nfe
                    n += len(xb)
                    n_batches += 1
                where = "validation"
                vl = va = None
                if val_set is not None and len(val_set) > 0:
                    vl, va = evaluate(model, val_set, cfg)
        except tuple(FAILURES) as exc:
            what = next(w for cls, w in FAILURES.items() if isinstance(exc, cls))
            record.error = f"{what} at epoch {epoch} {where}: {exc}"
            return record
        wall = (time.perf_counter() - t_start) * 1000.0
        record.epochs.append(EpochStats(epoch, tot_loss / n, tot_acc / n, vl, va,
                                        tot_nfe / n_batches, wall))
        if snapshot_every and (epoch + 1) % snapshot_every == 0:
            record.snapshots[epoch + 1] = model.params.data.copy()
    return record


@dataclass
class FitJob:
    """One fit as picklable data: the model's spec and initial parameter
    buffer (what a checkpoint holds) and the rest of fit's arguments."""
    spec: ModelSpec
    init: np.ndarray
    cfg: TrainConfig
    train_set: LabeledSet
    val_set: LabeledSet | None = None
    snapshot_every: int = 0


def run_fits(jobs: Sequence[FitJob]) -> list[tuple[TrainRecord, np.ndarray]]:
    """Each job's record and trained parameter buffer, in job order.  A fit
    reads nothing but its job, so no result depends on another job."""
    results = []
    for job in jobs:
        model = Model(job.spec, data=job.init)
        record = fit(model, job.train_set, job.val_set, job.cfg, job.snapshot_every)
        results.append((record, model.params.data))
    return results


@dataclass
class GridCellResult:
    cell: dict
    fold_losses: list[float]
    error: str | None = None

    @property
    def mean_val_loss(self) -> float:
        return float(np.mean(self.fold_losses)) if self.fold_losses else float("inf")


def grid_cells(grid: dict[str, Sequence]) -> list[dict]:
    """The Cartesian product of the grid, one dict per cell."""
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def grid_search(grid: dict[str, Sequence], spec: Callable[[dict], ModelSpec],
                dataset: LabeledSet, cv_folds: int,
                base_cfg: TrainConfig) -> list[GridCellResult]:
    """Evaluate the Cartesian product of the grid with k-fold cross
    validation; returns results sorted by mean validation loss.

    Cell keys 'lr' and 'batch_size' override base_cfg, which sets everything
    else (epochs included); spec maps a cell to its model.  Each cell x fold
    is one job of run_fits: the model that seed base_cfg.seed + fold draws,
    trained with that seed on the other folds.  A cell's result ends at its
    first failed fold."""
    if not grid:
        raise ValueError("empty grid")
    folds = np.array_split(np.random.default_rng(base_cfg.seed).permutation(
        len(dataset)), cv_folds)
    cells = grid_cells(grid)
    jobs = []
    for cell in cells:
        cell_spec = spec(cell)
        for fold, val in enumerate(folds):
            seed = base_cfg.seed + fold
            cfg = replace(base_cfg, lr=cell.get("lr", base_cfg.lr), seed=seed,
                          batch_size=cell.get("batch_size", base_cfg.batch_size))
            rest = np.concatenate(folds[:fold] + folds[fold + 1:])
            jobs.append(FitJob(cell_spec, Model(cell_spec, seed=seed).params.data, cfg,
                               dataset.subset(rest), dataset.subset(val)))
    records = [rec for rec, _ in run_fits(jobs)]
    results: list[GridCellResult] = []
    for i, cell in enumerate(cells):
        res = GridCellResult(cell, [])
        for fold, rec in enumerate(records[i * cv_folds:(i + 1) * cv_folds]):
            if rec.error is not None:  # cell marked failed, search continues
                res.error = f"fold {fold}: {rec.error}"
                break
            res.fold_losses.append(rec.epochs[-1].val_loss)
        results.append(res)
    results.sort(key=lambda r: (r.error is not None, r.mean_val_loss))
    return results
