"""Optimizer behavior, the training loop's record contract, determinism,
the fit-job runner, and grid search."""

import contextlib
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anodelab import tensorgrad as tg
from anodelab.data import LabeledSet, gen_g1d
from anodelab.expcli import save_checkpoint, write_record_csvs
from anodelab.models import Model, ModelSpec
from anodelab.odeint import DivergenceError, SolverConfig, StepLimitError
from anodelab import train as trn
from anodelab.train import (AdamState, FitJob, GradientError, GridCellResult,
                            TrainConfig, TrainRecord, adam_step, evaluate, fit,
                            grid_search, run_fits)
from anodelab.tensorgrad import ParamSet


def tiny_dataset(n=32, seed=0):
    return gen_g1d(n // 2, seed=seed)


def tiny_model(seed=0, kind="node", p=0, head="affine"):
    return Model(ModelSpec(kind=kind, input_dim=1, hidden_dim=4, p=p,
                           output_dim=1, head=head), seed=seed)


def same_params(a, b):
    return all(np.array_equal(t.data, b.params[k].data) for k, t in a.params.items())


def fast_cfg(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 16)
    kw.setdefault("solver", SolverConfig(method="rk4", fixed_step=0.25))
    return TrainConfig(**kw)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"epochs": 0}, {"weight_decay": -0.1},
        {"batch_size": 0}, {"seed": -1}, {"lr": float("nan")},
        {"lr": float("inf")}, {"weight_decay": float("nan")},
        {"weight_decay": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_quadratic_converges(self):
        params = ParamSet()
        p = params.add("x", np.array([5.0]))
        state = AdamState()
        cfg = TrainConfig(lr=0.1)
        for _ in range(500):
            p.grad[...] = 2.0 * p.data  # d/dx x^2
            adam_step(params, state, cfg)
        assert abs(p.data[0]) < 1e-3

    def test_decoupled_weight_decay(self):
        params = ParamSet()
        p = params.add("x", np.array([2.0]))
        state = AdamState()
        cfg = TrainConfig(lr=0.01, weight_decay=0.5)
        p.grad[...] = 0.0
        adam_step(params, state, cfg)
        # zero gradient: only the multiplicative shrink applies
        assert np.isclose(p.data[0], 2.0 * (1.0 - 0.01 * 0.5))

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update exactly lr * sign(grad)
        params = ParamSet()
        p = params.add("x", np.array([1.0]))
        cfg = TrainConfig(lr=0.05)
        p.grad[...] = 3.7
        adam_step(params, AdamState(), cfg)
        assert np.isclose(p.data[0], 1.0 - 0.05, atol=1e-6)

    def test_non_finite_gradient_names_parameter(self):
        params = ParamSet()
        a = params.add("layer.b", np.zeros(2))
        a.grad[...] = 1.0
        p = params.add("layer.w", np.zeros(2))
        p.grad[...] = np.nan
        state = AdamState()
        with pytest.raises(GradientError, match="layer.w"):
            adam_step(params, state, TrainConfig())
        # no parameter moves and no moment is allocated when any gradient is bad
        assert np.all(a.data == 0.0) and state.step == 0
        assert state.m is None and state.v is None

    def test_non_finite_gradient_names_first_in_declaration_order(self):
        params = ParamSet()
        for name, g in (("a", 1.0), ("b", np.inf), ("c", np.nan)):
            params.add(name, np.zeros(3))
            params[name].grad[1] = g
        with pytest.raises(GradientError, match="'b'"):
            adam_step(params, AdamState(), TrainConfig())
        assert np.all(params.data == 0.0) and params.grad[4] == np.inf

    def test_grads_zeroed_after_step(self):
        params = ParamSet()
        p = params.add("x", np.array([1.0]))
        p.grad[...] = 1.0
        adam_step(params, AdamState(), TrainConfig())
        assert np.all(p.grad == 0.0)


@dataclass
class PerTensorAdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def per_tensor_adam_step(params, state, cfg):
    """Adam as it ran tensor by tensor, with a moment array per parameter:
    the reference the one-pass step over the set's buffers must match bit
    for bit."""
    for name, p in params.items():
        if not np.all(np.isfinite(p.grad)):
            raise GradientError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - trn.ADAM_BETA1 ** t
    bc2 = 1.0 - trn.ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if cfg.weight_decay > 0.0:
            p.data *= 1.0 - cfg.lr * cfg.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= trn.ADAM_BETA1
        m += (1.0 - trn.ADAM_BETA1) * g
        v *= trn.ADAM_BETA2
        v += (1.0 - trn.ADAM_BETA2) * g * g
        p.data -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + trn.ADAM_EPS)
    for _, p in params.items():
        p.grad[...] = 0.0


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.int64)


# signed zeros, subnormals, the smallest normals and gradients whose square
# overflows
EDGE_GRADS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
              1e200, -1e200)


@st.composite
def adam_runs(draw):
    shapes = draw(st.lists(array_shapes(min_dims=0, max_dims=3, max_side=4),
                           min_size=1, max_size=5))
    grad = st.floats(-1e3, 1e3) | st.sampled_from(EDGE_GRADS)
    values = [draw(arrays(np.float64, s, elements=st.floats(-10, 10)))
              for s in shapes]
    grads = [[draw(arrays(np.float64, s, elements=grad)) for s in shapes]
             for _ in range(draw(st.integers(1, 5)))]
    cfg = TrainConfig(lr=draw(st.floats(1e-6, 1.0)),
                      weight_decay=draw(st.just(0.0) | st.floats(1e-6, 10.0)))
    return values, grads, cfg


class TestOnePassAdam:
    @settings(max_examples=200, deadline=None)
    @given(run=adam_runs())
    def test_matches_per_tensor_reference_bit_for_bit(self, run):
        values, grads, cfg = run
        sets = []
        for _ in range(2):
            params = ParamSet()
            for i, value in enumerate(values):
                params.add(f"p{i}", value)
            sets.append(params)
        flat, ref = sets
        state, ref_state = AdamState(), PerTensorAdamState()
        for step_grads in grads:
            for params in sets:
                for (_, p), g in zip(params.items(), step_grads):
                    p.grad[...] = g
            with np.errstate(over="ignore"):
                adam_step(flat, state, cfg)
                per_tensor_adam_step(ref, ref_state, cfg)
            assert state.step == ref_state.step
            for (name, p), (_, q) in zip(flat.items(), ref.items()):
                assert np.array_equal(bits(p.data), bits(q.data)), name
            for moment, ref_moment in ((state.m, ref_state.m),
                                       (state.v, ref_state.v)):
                ref_flat = np.concatenate([a.ravel() for a in ref_moment.values()])
                assert np.array_equal(bits(moment), bits(ref_flat))
            assert not flat.grad.any() and not ref.grad.any()

    @pytest.mark.parametrize("wd", [0.0, 1e-2], ids=["no_wd", "wd"])
    @pytest.mark.parametrize("kind", ["node", "anode", "resnet"])
    def test_fit_matches_per_tensor_reference(self, monkeypatch, tmp_path,
                                              kind, wd):
        spec = ModelSpec(kind=kind, input_dim=1, hidden_dim=4,
                         p=2 if kind == "anode" else 0,
                         resnet_layers=3 if kind == "resnet" else 0)
        cfg = fast_cfg(epochs=3, lr=1e-2, weight_decay=wd, seed=5)

        def run(name):
            model = Model(spec, seed=5)
            rec = fit(model, tiny_dataset(seed=5), tiny_dataset(16, seed=6), cfg)
            assert rec.error is None
            save_checkpoint(tmp_path / name, model)
            return rec.deterministic_rows(), (tmp_path / name).read_bytes()

        rows, ckpt = run("one_pass.ckpt")
        monkeypatch.setattr(trn, "AdamState", PerTensorAdamState)
        monkeypatch.setattr(trn, "adam_step", per_tensor_adam_step)
        ref_rows, ref_ckpt = run("per_tensor.ckpt")
        assert rows == ref_rows and ckpt == ref_ckpt
        save_checkpoint(tmp_path / "untrained.ckpt", Model(spec, seed=5))
        assert ckpt != (tmp_path / "untrained.ckpt").read_bytes()  # it trained


class TestFit:
    def test_one_row_per_epoch_zero_based(self):
        rec = fit(tiny_model(), tiny_dataset(), None, fast_cfg(epochs=3))
        assert [e.epoch for e in rec.epochs] == [0, 1, 2]
        assert rec.error is None

    @pytest.mark.parametrize("kind,p", [("node", 0), ("anode", 2)])
    def test_taped_batch_creates_one_graph(self, monkeypatch, kind, p):
        # one dopri5 batch is one tape: every attempt is a node of the
        # batch's graph, none builds a graph of its own
        graphs = []
        real_init = tg.CompGraph.__init__

        def counting_init(self):
            graphs.append(self)
            real_init(self)

        monkeypatch.setattr(tg.CompGraph, "__init__", counting_init)
        rec = fit(tiny_model(kind=kind, p=p), tiny_dataset(16), None,
                  TrainConfig(epochs=1, batch_size=16))
        assert rec.error is None and rec.epochs[0].nfe_forward_mean > 7
        assert len(graphs) == 1

    def test_loss_decreases(self):
        rec = fit(tiny_model(kind="anode", p=2), tiny_dataset(64),
                  None, fast_cfg(epochs=15, lr=1e-2))
        assert rec.epochs[-1].train_loss < rec.epochs[0].train_loss

    def test_validation_metrics_present(self):
        rec = fit(tiny_model(), tiny_dataset(), tiny_dataset(16, seed=1),
                  fast_cfg())
        assert all(e.val_loss is not None and e.val_acc is not None
                   for e in rec.epochs)

    def test_empty_dataset_rejected(self):
        empty = LabeledSet(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            fit(tiny_model(), empty, None, fast_cfg())

    def test_deterministic_rows_bitwise(self):
        rows = [fit(tiny_model(seed=4), tiny_dataset(seed=4), None,
                    fast_cfg(seed=4)).deterministic_rows() for _ in range(2)]
        assert rows[0] == rows[1]

    def test_wall_ms_excluded_from_deterministic_rows(self):
        rec = fit(tiny_model(), tiny_dataset(), None, fast_cfg(epochs=1))
        assert len(rec.deterministic_rows()[0]) == 6

    def test_step_limit_halts_with_partial_record(self):
        cfg = TrainConfig(epochs=1, batch_size=16,
                          solver=SolverConfig(max_steps=1))
        model = tiny_model()
        rec = fit(model, tiny_dataset(), None, cfg)
        assert rec.error.startswith("step limit at epoch 0 batch 0: ")
        assert "dopri5: step limit 1 reached" in rec.error
        assert rec.epochs == []
        # the failing forward pass took no optimizer step
        assert same_params(model, tiny_model())

    @pytest.mark.parametrize("exc, what", [
        (StepLimitError("dopri5: step limit 7 reached", 7), "step limit"),
        (DivergenceError("dopri5: non-finite state"), "divergence")],
        ids=["step limit", "divergence"])
    def test_validation_failure_halts_with_partial_record(self, monkeypatch,
                                                          exc, what):
        real_evaluate = trn.evaluate
        calls = []

        def fail_at_epoch_1(*args):
            calls.append(1)
            if len(calls) == 2:
                raise exc
            return real_evaluate(*args)

        monkeypatch.setattr(trn, "evaluate", fail_at_epoch_1)
        rec = fit(tiny_model(), tiny_dataset(), tiny_dataset(16, seed=1),
                  fast_cfg(epochs=3))
        assert rec.error == f"{what} at epoch 1 validation: {exc}"
        assert len(rec.epochs) == 1 and rec.epochs[0].val_loss is not None

    def test_non_finite_gradient_halts_with_partial_record(self, monkeypatch):
        real_backward = trn.backward
        model = tiny_model(seed=2)
        calls = []

        def nan_on_third_step(graph, loss):
            real_backward(graph, loss)
            calls.append(1)
            if len(calls) == 3:     # epoch 1, batch 0 (two batches per epoch)
                model.params["dyn.l2.w"].grad[0, 0] = np.nan

        monkeypatch.setattr(trn, "backward", nan_on_third_step)
        rec = fit(model, tiny_dataset(), None, fast_cfg(epochs=3, seed=2))
        assert rec.error.startswith("gradient at epoch 1 batch 0: ")
        assert "dyn.l2.w" in rec.error
        assert len(rec.epochs) == 1
        monkeypatch.undo()
        # the failed step changed nothing: parameters are those after epoch 0
        ref = tiny_model(seed=2)
        fit(ref, tiny_dataset(), None, fast_cfg(epochs=1, seed=2))
        assert same_params(model, ref)

    @pytest.mark.parametrize("fail_at, where, done", [
        (20, "epoch 0 batch 1", 0), (90, "epoch 1 validation", 1)],
        ids=["batch", "validation"])
    def test_memory_error_halts_with_partial_record(self, fail_at, where, done):
        # 16 evals per forward (rk4, 4 steps): two train batches, then validation
        model = tiny_model()
        real_eval = model.dynamics.eval
        calls = []

        class FailingDynamics:
            def eval(self, h, t):
                calls.append(1)
                if len(calls) == fail_at:
                    raise MemoryError("Unable to allocate 1.00 TiB")
                return real_eval(h, t)

        model.dynamics = FailingDynamics()
        rec = fit(model, tiny_dataset(), tiny_dataset(16, seed=1), fast_cfg(epochs=3))
        assert rec.error == f"memory at {where}: Unable to allocate 1.00 TiB"
        assert len(calls) == fail_at and len(rec.epochs) == done

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_derivative_halts_with_divergence(self):
        model = tiny_model()
        for _, t in model.params.items():
            t.data *= 1e200     # the first dynamics eval overflows
        rec = fit(model, tiny_dataset(), None, fast_cfg(solver=SolverConfig()))
        assert rec.error.startswith("divergence at epoch 0 batch 0: ")
        assert "non-finite derivative" in rec.error

    def test_cross_entropy_path(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 2))
        y = (x[:, 0] > 0).astype(np.int64)
        ds = LabeledSet(x, y)
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8,
                            output_dim=2), seed=0)
        rec = fit(m, ds, ds, fast_cfg(epochs=2))
        assert 0.0 <= rec.epochs[-1].train_acc <= 1.0

    @pytest.mark.parametrize("every, epochs", [(0, 3), (1, 3), (2, 5), (3, 3)])
    def test_snapshot_epochs(self, every, epochs):
        """Copies of the parameters after 0, k, 2k, ... <= epochs epochs."""
        model = tiny_model()
        init = model.params.data.copy()
        rec = fit(model, tiny_dataset(), None, fast_cfg(epochs=epochs),
                  snapshot_every=every)
        assert list(rec.snapshots) == (list(range(0, epochs + 1, every))
                                       if every else [])
        if every:
            assert np.array_equal(rec.snapshots[0], init)
            ref = tiny_model()
            fit(ref, tiny_dataset(), None, fast_cfg(epochs=every))
            assert np.array_equal(rec.snapshots[every], ref.params.data)
        if every and epochs % every == 0:
            last = rec.snapshots[epochs]
            assert np.array_equal(last, model.params.data)
            assert not np.shares_memory(last, model.params.data)

    def test_snapshots_before_a_failure_are_kept(self, monkeypatch):
        real_evaluate = trn.evaluate
        calls = []

        def fail_at_epoch_2(*args):
            calls.append(1)
            if len(calls) == 3:
                raise StepLimitError("dopri5: step limit 7 reached", 7)
            return real_evaluate(*args)

        monkeypatch.setattr(trn, "evaluate", fail_at_epoch_2)
        rec = fit(tiny_model(), tiny_dataset(), tiny_dataset(16, seed=1),
                  fast_cfg(epochs=4), snapshot_every=1)
        assert rec.error.startswith("step limit at epoch 2 validation")
        assert list(rec.snapshots) == [0, 1, 2]

    def test_resnet_nfe_is_layer_count(self):
        m = Model(ModelSpec(kind="resnet", input_dim=1, hidden_dim=4,
                            resnet_layers=3, output_dim=1), seed=0)
        rec = fit(m, tiny_dataset(), None, fast_cfg(epochs=1))
        assert rec.epochs[0].nfe_forward_mean == 3.0

    def test_mse_loss_adds_one_tape_node(self, monkeypatch):
        """Each step's tape is the forward pass plus one loss node."""
        real_forward, real_backward = trn.node_forward, trn.backward
        forward_len, backward_len = [], []

        def forward(*args):
            res = real_forward(*args)
            forward_len.append(len(tg.active_graph()))
            return res

        def bwd(graph, loss):
            backward_len.append(len(graph))
            real_backward(graph, loss)

        monkeypatch.setattr(trn, "node_forward", forward)
        monkeypatch.setattr(trn, "backward", bwd)
        fit(tiny_model(), tiny_dataset(), None, fast_cfg(epochs=1, batch_size=8))
        assert len(backward_len) == 4
        assert backward_len == [n + 1 for n in forward_len]

    def test_tapes_released_without_cyclic_gc(self, monkeypatch):
        """Each batch's tape is freed by reference counting alone, and no
        parameter keeps a graph alive."""
        graphs = []

        class TrackedGraph(tg.CompGraph):
            def __init__(self):
                super().__init__()
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(trn, "CompGraph", TrackedGraph)
        model = tiny_model()
        enabled = gc.isenabled()
        gc.disable()
        try:
            fit(model, tiny_dataset(), None, fast_cfg(epochs=1, batch_size=8))
            assert len(graphs) == 4
            assert all(ref() is None for ref in graphs)
        finally:
            if enabled:
                gc.enable()
        assert not any(isinstance(r, tg.CompGraph) for _, p in model.params.items()
                       for r in gc.get_referents(p))


class TestTrainRecordCsv:
    def test_header_and_formatting(self, tmp_path):
        rec = fit(tiny_model(), tiny_dataset(), None, fast_cfg(epochs=2))
        write_record_csvs(tmp_path, "log", rec, False)
        lines = (tmp_path / "log_train.csv").read_text().splitlines()
        assert lines[0] == TrainRecord.CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        # blank validation columns when no validation set was given
        assert first[3] == "" and first[4] == ""

    def test_csv_reproducible_except_wall_ms(self, tmp_path):
        def run(stem):
            rec = fit(tiny_model(seed=2), tiny_dataset(seed=2),
                      tiny_dataset(16, 3), fast_cfg(seed=2))
            write_record_csvs(tmp_path, stem, rec, False)
            text = (tmp_path / f"{stem}_train.csv").read_text()
            return [ln.split(",")[:-1] for ln in text.splitlines()]

        assert run("a") == run("b")

    def test_metric_extraction(self):
        rec = fit(tiny_model(), tiny_dataset(), None, fast_cfg(epochs=2))
        assert np.array_equal(rec.metric("epoch"), [0.0, 1.0])
        assert np.all(np.isnan(rec.metric("val_loss")))


class TestEvaluate:
    def test_matches_manual_mse(self):
        ds = tiny_dataset(16)
        m = tiny_model()
        cfg = fast_cfg()
        loss, acc = evaluate(m, ds, cfg)
        from anodelab.models import node_forward
        from anodelab.tensorgrad import Tensor
        with tg.no_grad():
            out, _ = node_forward(m, Tensor(ds.inputs), cfg.solver)
        manual = float(np.mean((out.data.reshape(-1) - ds.targets) ** 2))
        assert np.isclose(loss, manual)
        assert 0.0 <= acc <= 1.0


class TestRunFits:
    @staticmethod
    def jobs():
        specs = [ModelSpec(kind="node", input_dim=1, hidden_dim=4),
                 ModelSpec(kind="anode", input_dim=1, hidden_dim=4, p=2),
                 ModelSpec(kind="resnet", input_dim=1, hidden_dim=4,
                           resnet_layers=2)]
        return [FitJob(spec, Model(spec, seed=i).params.data,
                       fast_cfg(epochs=2, seed=i), tiny_dataset(seed=i),
                       tiny_dataset(16, seed=10 + i), snapshot_every=i)
                for i, spec in enumerate(specs)]

    @staticmethod
    def outcome(results):
        return [(rec.deterministic_rows(), rec.error, params.tobytes(),
                 {e: s.tobytes() for e, s in rec.snapshots.items()})
                for rec, params in results]

    def test_each_job_is_its_fit(self):
        jobs = self.jobs()
        for seed, (job, (rec, params)) in enumerate(zip(jobs, run_fits(jobs))):
            model = Model(job.spec, seed=seed)
            ref = fit(model, job.train_set, job.val_set, job.cfg, job.snapshot_every)
            assert rec.deterministic_rows() == ref.deterministic_rows()
            assert np.array_equal(params, model.params.data)
            assert rec.snapshots.keys() == ref.snapshots.keys()

    def test_results_do_not_depend_on_job_order(self):
        """Reversed jobs give the same records, trained buffers and
        snapshots, in their own order; so do jobs that went through pickle,
        as they would to a worker process."""
        jobs = self.jobs()
        forward = self.outcome(run_fits(jobs))
        assert [error for _, error, _, _ in forward] == [None] * len(jobs)
        assert self.outcome(run_fits(jobs[::-1])) == forward[::-1]
        assert self.outcome(run_fits(pickle.loads(pickle.dumps(jobs)))) == forward

    def test_jobs_are_left_as_they_were(self):
        jobs = self.jobs()
        inits = [job.init.copy() for job in jobs]
        run_fits(jobs)
        assert all(np.array_equal(job.init, init) for job, init in zip(jobs, inits))


class Dies:
    """Unpickles, in the worker that reads its job, as a call that ends it."""

    def __init__(self, *call):
        self.call = call

    def __reduce__(self):
        return self.call


class TestLanes:
    """run_fits in more than one lane: this process runs jobs[0::lanes] and
    each worker process jobs[k::lanes]."""

    @staticmethod
    def job(epochs=2, train_set=None):
        spec = ModelSpec(kind="node", input_dim=1, hidden_dim=4)
        return FitJob(spec, Model(spec, seed=0).params.data, fast_cfg(epochs=epochs),
                      tiny_dataset() if train_set is None else train_set)

    @staticmethod
    def conv_job():
        """A conv fit whose batch activations (16 x 8 x 12 x 12 float64, 144
        KiB) are above glibc's default mmap threshold."""
        spec = ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=8, output_dim=2,
                         conv=True)
        rng = np.random.default_rng(3)
        images = LabeledSet(rng.uniform(size=(32, 1, 12, 12)), rng.integers(0, 2, 32))
        return FitJob(spec, Model(spec, seed=3).params.data, fast_cfg(epochs=1, seed=3),
                      images, images.subset(np.arange(16)))

    def test_results_do_not_depend_on_the_lanes(self, lanes, workers):
        """MLP fits and a conv fit: the conv fit runs in the worker with two
        lanes and in this process with three."""
        jobs = TestRunFits.jobs() + [self.conv_job()]
        outcomes = []
        for n in (1, 2, 3):
            lanes(n)
            outcomes.append(TestRunFits.outcome(run_fits(jobs)))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert [error for _, error, _, _ in outcomes[0]] == [None] * len(jobs)
        # no worker with one lane, then one, then two
        assert [proc.returncode for proc in workers] == [0, 0, 0]
        workers.assert_none_left()

    def test_worker_environment(self, tmp_path, monkeypatch, lanes, workers):
        """A worker starts with the caller's environment plus one BLAS thread
        and glibc's thresholds that keep freed memory, as read inside it."""
        report = tmp_path / "worker.json"
        monkeypatch.setattr(trn, "_WORKER", trn._WORKER + (
            "; import json, os; from anodelab.train import _blas_threads; "
            f"blas = _blas_threads(); open({str(report)!r}, 'w').write(json.dumps("
            "[dict(os.environ), blas and blas[0]()]))"))
        lanes(2)
        run_fits([self.job(), self.job()])
        environ, threads = json.loads(report.read_text())
        assert environ == dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="67108864",
                               MALLOC_TRIM_THRESHOLD_="134217728")
        assert threads in (1, None)  # None: no BLAS entry point found
        workers.assert_none_left()

    @pytest.mark.parametrize("worker_fails", [False, True], ids=["returns", "raises"])
    def test_caller_environ_is_left_alone(self, lanes, workers, worker_fails):
        before = dict(os.environ)
        lanes(2)
        empty = LabeledSet(np.zeros((0, 1)), np.zeros(0))
        jobs = [self.job(), self.job(train_set=empty if worker_fails else None)]
        with (pytest.raises(ValueError, match="training set is empty") if worker_fails
              else contextlib.nullcontext()):
            run_fits(jobs)
        assert dict(os.environ) == before
        workers.assert_none_left()

    @pytest.mark.parametrize("fit_fails", [False, True], ids=["returns", "raises"])
    def test_lane_0_computes_on_one_blas_thread(self, monkeypatch, lanes, workers,
                                                fit_fails):
        """Lane 0's fit runs on one BLAS thread, and the caller's count is
        back after run_fits, also when that fit raises."""
        blas = trn._blas_threads()
        if blas is None:
            pytest.skip("no BLAS thread entry point found for NumPy's BLAS")
        get, set_threads = blas
        seen = []
        real_fit = trn.fit

        def counting_fit(*args, **kwargs):
            seen.append(get())
            if fit_fails:
                raise RuntimeError("lane 0 failed")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(trn, "fit", counting_fit)
        lanes(2)
        caller = get()
        set_threads(3)  # neither one nor, on a 2-core host, the default
        try:
            with (pytest.raises(RuntimeError, match="lane 0 failed") if fit_fails
                  else contextlib.nullcontext()):
                run_fits([self.job(), self.job()])
            after = get()
        finally:
            set_threads(caller)
        assert seen == [1]
        assert after == 3
        workers.assert_none_left()

    def test_worker_exception_is_raised_as_raised(self, lanes, workers):
        lanes(2)
        empty = LabeledSet(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError) as info:
            run_fits([self.job(), self.job(train_set=empty)])  # job 1: the worker's
        assert type(info.value) is ValueError
        assert str(info.value) == "training set is empty"
        cause = str(info.value.__cause__)  # the worker's traceback
        assert cause.startswith("raised in fit worker 1:\nTraceback")
        assert cause.endswith("ValueError: training set is empty\n")
        assert len(workers) == 1
        workers.assert_none_left()

    @pytest.mark.parametrize("call, status", [
        ((os._exit, (7,)), "exit status 7"),
        ((signal.raise_signal, (signal.SIGKILL,)), "exit status -9, Killed")],
        ids=["exit-7", "SIGKILL"])
    def test_worker_without_a_result(self, lanes, workers, call, status):
        lanes(2)
        jobs = [self.job(), self.job(train_set=Dies(*call))]
        with pytest.raises(ChildProcessError) as info:
            run_fits(jobs)
        assert str(info.value) == f"fit worker 1 ended without a result ({status})"
        workers.assert_none_left()

    @pytest.mark.parametrize("exc", [RuntimeError("lane 0 failed"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_lane_0_failure_kills_the_workers(self, monkeypatch, lanes, workers, exc):
        lanes(2)

        def failing_fit(*args, **kwargs):
            raise exc

        monkeypatch.setattr(trn, "fit", failing_fit)
        t0 = time.perf_counter()
        with pytest.raises(type(exc)):  # the worker's fit would run for minutes
            run_fits([self.job(), self.job(epochs=100_000)])
        assert time.perf_counter() - t0 < 30.0
        [proc] = workers
        assert proc.returncode == -signal.SIGKILL
        workers.assert_none_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="PR_SET_PDEATHSIG is Linux's")
    def test_worker_dies_with_a_killed_parent(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(trn.__file__)))
        script = textwrap.dedent(f"""
            import os, subprocess, sys
            sys.path.insert(0, {src!r})
            from anodelab import train as trn
            from anodelab.data import gen_g1d
            from anodelab.models import Model, ModelSpec
            from anodelab.odeint import SolverConfig

            class Announced(subprocess.Popen):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    print(self.pid, flush=True)

            subprocess.Popen = Announced
            os.sched_getaffinity = lambda pid: {{0, 1}}
            spec = ModelSpec(kind="node", input_dim=1, hidden_dim=4)
            cfg = trn.TrainConfig(epochs=100_000, batch_size=16, solver=SolverConfig(
                method="rk4", fixed_step=0.25))
            job = trn.FitJob(spec, Model(spec, seed=0).params.data, cfg, gen_g1d(16))
            trn.run_fits([job, job])
            """)

        def has_read_its_jobs(pid):  # so it is past its own check of the parent
            with open(f"/proc/{pid}/fdinfo/0") as fh:
                return int(fh.readline().split()[1]) > 0

        def alive(pid):  # an unreaped zombie has ended too
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rpartition(")")[2].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE)
        try:
            worker = int(parent.stdout.readline())
            deadline = time.monotonic() + 20.0
            while not has_read_its_jobs(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert has_read_its_jobs(worker)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 20.0
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(worker)


class TestGridSearch:
    @staticmethod
    def _spec(cell):
        return ModelSpec(kind="anode", input_dim=1, hidden_dim=cell["hidden"],
                         p=cell.get("aug", 0), output_dim=1)

    def test_cell_count_and_ranking(self):
        grid = {"lr": [1e-2, 1e-3], "hidden": [4, 8]}
        base = TrainConfig(solver=SolverConfig(method="rk4", fixed_step=0.25),
                           batch_size=16)
        results = grid_search(grid, self._spec, tiny_dataset(30), 3,
                              replace(base, epochs=1))
        assert len(results) == 4
        assert all(len(r.fold_losses) == 3 for r in results if r.error is None)
        losses = [r.mean_val_loss for r in results if r.error is None]
        assert losses == sorted(losses)

    def test_lr_override_changes_outcome(self):
        base = TrainConfig(solver=SolverConfig(method="rk4", fixed_step=0.25),
                           batch_size=16)
        results = grid_search({"lr": [1e-1, 1e-5], "hidden": [8]}, self._spec,
                              tiny_dataset(30), 2, replace(base, epochs=4))
        by_lr = {r.cell["lr"]: r.mean_val_loss for r in results}
        assert by_lr[1e-1] != by_lr[1e-5]

    def test_failed_cell_marked_search_continues(self):
        # lr 1e30 moves every weight by about 1e30 in the first step, so the
        # next solve overflows; the cell ahead of it in the grid trains
        base = TrainConfig(solver=SolverConfig(method="rk4", fixed_step=0.25),
                           batch_size=16)
        results = grid_search({"lr": [1e30, 1e-3], "hidden": [4]}, self._spec,
                              tiny_dataset(20), 2, replace(base, epochs=1))
        failed = [r for r in results if r.error is not None]
        assert len(failed) == 1 and failed[0].cell["lr"] == 1e30
        assert failed[0].error.startswith("fold 0: divergence at epoch 0")
        assert failed[0].fold_losses == []
        assert results[-1] is failed[0]  # failed cells rank last
        assert len(results[0].fold_losses) == 2

    @pytest.mark.parametrize("exc", [StepLimitError("step limit", 7),
                                     DivergenceError("non-finite state")])
    def test_solver_failure_in_validation_marks_cell(self, monkeypatch, one_lane,
                                                     exc):
        # one lane: the patched evaluate must reach every fold's fit
        def failing_evaluate(*args):
            raise exc

        monkeypatch.setattr(trn, "evaluate", failing_evaluate)
        base = TrainConfig(solver=SolverConfig(method="rk4", fixed_step=0.25),
                           batch_size=16)
        [res] = grid_search({"hidden": [4]}, self._spec, tiny_dataset(20), 2,
                            replace(base, epochs=1))
        what = "step limit" if isinstance(exc, StepLimitError) else "divergence"
        assert res.error == f"fold 0: {what} at epoch 0 validation: {exc}"
        assert res.fold_losses == []

    def test_program_error_propagates(self):
        def spec(cell):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            grid_search({"hidden": [4]}, spec, tiny_dataset(20), 2,
                        TrainConfig(epochs=1))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search({}, self._spec, tiny_dataset(10), 2, TrainConfig(epochs=1))


class TestP0Degeneracy:
    def test_anode_p0_record_matches_node_bitwise(self):
        cfg = fast_cfg(epochs=3, seed=11)
        node = tiny_model(seed=11, kind="node")
        anode = tiny_model(seed=11, kind="anode", p=0)
        rec_n = fit(node, tiny_dataset(seed=11), None, cfg)
        rec_a = fit(anode, tiny_dataset(seed=11), None, cfg)
        assert rec_n.deterministic_rows() == rec_a.deterministic_rows()
        assert same_params(node, anode)
