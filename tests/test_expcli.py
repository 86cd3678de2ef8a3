"""End-to-end CLI contracts: manifest-first artifacts, CSV schemas, checkpoint
round trips, config precedence, and exit codes."""

import argparse
import functools
import importlib.util
import json
import math
import os
import runpy
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import anodelab
import anodelab.expcli as cli
from anodelab import svg
from anodelab.data import LabeledSet, load_idx, write_idx
from anodelab.expcli import (CKPT_MAGIC, CKPT_VERSION, COMMANDS, EXIT_CONFIG,
                             EXIT_IO, EXIT_OK, EXIT_TRAINING, MNIST_FILES,
                             ConfigError, build_parser, load_checkpoint, main,
                             parse_config_file, resolve_config,
                             save_checkpoint)
from anodelab.models import (FlowSnapshot, Model, ModelSpec, flow_trajectory,
                             node_forward, param_count, param_shapes,
                             vector_field)
from anodelab.odeint import SolverConfig, StepLimitError
from anodelab.tensorgrad import Tensor, no_grad


def run(argv):
    return main(argv)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = Model(ModelSpec(kind="anode", input_dim=2, p=3, hidden_dim=8,
                            output_dim=2), seed=7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        assert path.read_bytes()[:8] == CKPT_MAGIC
        loaded = load_checkpoint(path)
        assert loaded.spec == m.spec
        for (name, t), (_, t2) in zip(m.params.items(), loaded.params.items()):
            assert np.array_equal(t.data, t2.data), name

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(IOError, match="not a model checkpoint"):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        m = Model(ModelSpec(kind="node", input_dim=1, hidden_dim=4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        (tmp_path / "cut").write_bytes(path.read_bytes()[:-40])
        with pytest.raises(IOError, match="truncated"):
            load_checkpoint(tmp_path / "cut")

    @staticmethod
    def _pack(spec_json: bytes, params: bytes, version=CKPT_VERSION) -> bytes:
        return (CKPT_MAGIC + struct.pack("<II", version, len(spec_json)) +
                spec_json + params)

    # each case: (spec, params) of a valid checkpoint -> malformed file bytes
    MALFORMED = {
        "unsupported version": (lambda s, p: TestCheckpoint._pack(
            json.dumps(s).encode(), p, version=CKPT_VERSION + 1),
            "unsupported checkpoint version"),
        "unknown spec key": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "colour": "red"}).encode(), p),
            "malformed model spec"),
        "undecodable spec bytes": (lambda s, p: TestCheckpoint._pack(
            b"\xff\xfe{}", p), "malformed model spec"),
        "spec not an object": (lambda s, p: TestCheckpoint._pack(
            b"[1, 2]", p), "malformed model spec"),
        "invalid spec value": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "kind": "transformer"}).encode(), p),
            "malformed model spec"),
        "trailing bytes": (lambda s, p: TestCheckpoint._pack(
            json.dumps(s).encode(), p + b"\x00" * 8),
            "8 bytes after the parameters"),
        "T not a number": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "T": "x"}).encode(), p), "malformed model spec"),
        "T NaN": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "T": float("nan")}).encode(), p),
            "malformed model spec"),
        "T negative": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "T": -1.0}).encode(), p), "malformed model spec"),
        "T zero": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "T": 0.0}).encode(), p), "malformed model spec"),
        "anode p bool": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "kind": "anode", "p": True}).encode(), p),
            "malformed model spec"),
        # the file length is checked against the spec before any allocation
        "hidden_dim 2**32": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "hidden_dim": 2**32}).encode(), p[:8]),
            "truncated parameter data at 'dyn.l1.w'"),
        "resnet_layers 10**9": (lambda s, p: TestCheckpoint._pack(
            json.dumps({**s, "kind": "resnet", "resnet_layers": 10**9}).encode(),
            p[:8]), "truncated parameter data at 'res.0.l1.w'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_io_error(self, tmp_path, capsys, case):
        m = Model(ModelSpec(kind="node", input_dim=1, hidden_dim=4), seed=0)
        params = b"".join(t.data.astype("<f8").tobytes()
                          for _, t in m.params.items())
        make, message = self.MALFORMED[case]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(make(asdict(m.spec), params))
        with pytest.raises(OSError, match=message):
            load_checkpoint(path)
        out = tmp_path / "flows"
        assert run(["export-flows", "--checkpoint", str(path),
                    "--out", str(out)]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert not out.exists()


def per_tensor_save_checkpoint(path, model):
    """save_checkpoint as it wrote the parameters, one tensor at a time."""
    spec_json = json.dumps(asdict(model.spec), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(spec_json)))
        fh.write(spec_json)
        for _, t in model.params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def assert_tiles_buffers(model):
    """Each parameter's .data and .grad are C-ordered views of the set's two
    buffers, back to back in declaration order."""
    params = model.params
    shapes = list(param_shapes(model.spec))
    assert [name for name, _ in params.items()] == [name for name, _ in shapes]
    off = 0
    for (_, t), (_, shape) in zip(params.items(), shapes):
        for view, buf in ((t.data, params.data), (t.grad, params.grad)):
            assert view.shape == shape and view.flags.c_contiguous
            assert np.shares_memory(view, buf)
            start = view.__array_interface__["data"][0]
            assert start == buf.__array_interface__["data"][0] + 8 * off
        off += math.prod(shape)
    assert params.data.shape == params.grad.shape == (off,)


LAYOUT_SPECS = {
    "node": ModelSpec(kind="node", input_dim=2, hidden_dim=5, output_dim=3),
    "anode": ModelSpec(kind="anode", input_dim=1, p=2, hidden_dim=4),
    "resnet": ModelSpec(kind="resnet", input_dim=2, hidden_dim=3,
                        resnet_layers=3, head="identity", output_dim=2),
    "conv": ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=3,
                      output_dim=2, conv=True),
}


@pytest.mark.parametrize("name", list(LAYOUT_SPECS))
def test_parameters_tile_one_buffer(tmp_path, monkeypatch, name):
    spec = LAYOUT_SPECS[name]
    model = Model(spec, seed=3)
    assert_tiles_buffers(model)
    path, ref = tmp_path / "m.ckpt", tmp_path / "ref.ckpt"
    save_checkpoint(path, model)
    per_tensor_save_checkpoint(ref, model)
    assert path.read_bytes() == ref.read_bytes()

    built = []  # the views of the model load_checkpoint builds

    class Recording(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append([(t.data, t.grad) for _, t in self.params.items()])

    monkeypatch.setattr(cli.mdl, "Model", Recording)
    loaded = load_checkpoint(path)
    assert_tiles_buffers(loaded)
    assert all(t.data is data and t.grad is grad for (_, t), (data, grad)
               in zip(loaded.params.items(), built[0]))
    assert loaded.params.data.tobytes() == model.params.data.tobytes()


class TestConfigResolution:
    def test_parse_key_value_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nepochs = 9\nlr=0.01  # inline\n\n")
        assert parse_config_file(p) == {"epochs": "9", "lr": "0.01"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs 9\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_file(p)

    def test_precedence_defaults_file_cli(self):
        cfg = resolve_config({"epochs": 1, "lr": 0.1, "out": "a"},
                             {"epochs": "5", "lr": "0.2"},
                             {"epochs": 9, "lr": None})
        assert cfg == {"epochs": 9, "lr": 0.2, "out": "a"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"epochs": 1}, {"epoch": "5"}, {})

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            resolve_config({"epochs": 1}, {"epochs": "five"}, {})


class TestParser:
    def test_flags_generated_from_defaults(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMANDS)
        for name, cmd in COMMANDS.items():
            flags = {a.dest: a for a in sub.choices[name]._actions
                     if a.option_strings and a.dest != "help"}
            assert set(flags) == set(cmd.defaults) | {"svg", "config"}, name
            for key, default in cmd.defaults.items():
                assert flags[key].option_strings == ["--" + key.replace("_", "-")]
                assert flags[key].type is type(default), (name, key)

    def test_export_flows_takes_no_epochs(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["export-flows", "--checkpoint", "m.ckpt", "--epochs", "3",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestReadmeContract:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_flag_table_is_the_parser(self):
        """The README's flag table has a column per command, in COMMANDS
        order, and a row per flag: each cell is the default of the flag that
        build_parser generates for the command, or — where it has none."""
        lines = self.README.read_text().splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("| flag |"))
        header = [c.strip() for c in lines[start].strip("|").split("|")]
        assert header[1:-1] == list(COMMANDS)
        table = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            cells = [c.strip() for c in line.strip("|").split("|")]
            table[cells[0]] = dict(zip(header[1:-1], cells[1:-1]))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        expected = {}
        for name, cmd in COMMANDS.items():
            for a in sub.choices[name]._actions:
                if a.option_strings and a.dest != "help":
                    default = cmd.defaults.get(a.dest, a.default)
                    row = expected.setdefault(f"`{a.option_strings[0]}`",
                                              dict.fromkeys(COMMANDS, "—"))
                    row[name] = f"`{default}`" if default != "" else '`""`'
        assert table == expected

    def test_train_csv_header_is_quoted(self):
        assert cli.trn.TrainRecord.CSV_HEADER in self.README.read_text()


class TestScripts:
    def test_every_wrapper_argv_parses(self, monkeypatch):
        """The scripts/ wrappers pass main argv lists that the parser takes."""
        argvs = []

        def record(argv):
            argvs.append(argv)
            return EXIT_OK

        monkeypatch.setattr(cli, "main", record)
        scripts = sorted(p for p in (Path(__file__).parents[1] / "scripts").glob("*.py")
                         if p.name != "digest_probe.py")
        assert scripts
        for script in scripts:
            monkeypatch.setattr(sys, "argv", [str(script), "model.ckpt"]
                                if script.name == "export_flows.py" else [str(script)])
            try:
                runpy.run_path(str(script), run_name="__main__")
            except SystemExit as exc:
                assert exc.code == EXIT_OK, script.name
        assert len(argvs) == 11
        for argv in argvs:
            build_parser().parse_args(argv)

    def test_digest_probe_argv_parses(self):
        """scripts/digest_probe.py runs its commands with the parser's argv."""
        spec = importlib.util.spec_from_file_location(
            "digest_probe", Path(__file__).parents[1] / "scripts" / "digest_probe.py")
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        assert {argv[0] for _, argv in probe.COMMANDS} == set(COMMANDS)
        for name, argv in probe.COMMANDS:
            build_parser().parse_args(argv + ["--out", name])


class TestToyCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "toy"
        code = run(["toy", "--dim", "1", "--model", "anode", "--epochs", "2",
                    "--out", str(out), "--svg"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "toy"
        assert manifest["config"]["epochs"] == 2
        assert len(manifest["config_hash"]) == 64
        assert (out / "anode_train.csv").exists()
        assert (out / "anode_flow.csv").exists()
        assert (out / "anode.ckpt").exists()
        assert (out / "anode_loss.svg").exists()
        assert (out / "anode_flow.svg").exists()

    def test_no_svg_by_default(self, tmp_path):
        out = tmp_path / "toy"
        assert run(["toy", "--dim", "1", "--epochs", "1",
                    "--out", str(out)]) == EXIT_OK
        assert not list(out.glob("*.svg"))
        assert (out / "node_train.csv").exists()

    def test_train_csv_schema(self, tmp_path):
        out = tmp_path / "toy"
        run(["toy", "--dim", "1", "--epochs", "2", "--out", str(out)])
        lines = (out / "node_train.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,train_acc,val_loss,val_acc,"
                            "nfe_forward_mean,wall_ms")
        assert len(lines) == 3

    def test_flow_csv_schema(self, tmp_path):
        out = tmp_path / "toy"
        run(["toy", "--dim", "1", "--model", "anode", "--aug", "2",
             "--epochs", "1", "--out", str(out)])
        lines = (out / "anode_flow.csv").read_text().splitlines()
        assert lines[0] == "point_id,label,time,s0,s1,s2"  # 1 input + 2 aug
        assert len(lines) == 1 + 20 * 25

    def test_non_finite_gradient_exit_3(self, tmp_path, monkeypatch, capsys):
        import anodelab.train as trn
        real_adam_step = trn.adam_step

        def nan_adam_step(params, state, cfg):
            for _, p in params.items():
                p.grad[...] = np.nan
            real_adam_step(params, state, cfg)

        monkeypatch.setattr(trn, "adam_step", nan_adam_step)
        out = tmp_path / "toy"
        assert run(["toy", "--dim", "1", "--epochs", "1",
                    "--out", str(out)]) == EXIT_TRAINING
        assert "training failed: gradient at epoch 0 batch 0" in capsys.readouterr().err
        assert (out / "node.ckpt").exists()

    def test_memory_error_in_training_exit_3(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(self, h, t):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli.mdl.MlpDynamics, "eval", out_of_memory)
        out = tmp_path / "toy"
        assert run(["toy", "--dim", "1", "--epochs", "1",
                    "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert "node: training failed: memory at epoch 0 batch 0: Unable" in err
        assert (out / "node_train.csv").exists() and (out / "node.ckpt").exists()

    def test_invalid_dim_exit_2(self, tmp_path):
        assert run(["toy", "--dim", "3", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_model_exit_2(self, tmp_path):
        assert run(["toy", "--model", "transformer",
                    "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_file_applied_cli_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nhidden=8\n")
        out = tmp_path / "toy"
        run(["toy", "--dim", "1", "--epochs", "1", "--config", str(cfg),
             "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1      # CLI beats file
        assert manifest["config"]["hidden"] == 8      # file beats default

    def test_missing_config_file_exit_4(self, tmp_path):
        assert run(["toy", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)]) == EXIT_IO

    def test_checkpoint_reloads(self, tmp_path):
        out = tmp_path / "toy"
        run(["toy", "--dim", "1", "--model", "anode", "--epochs", "1",
             "--out", str(out)])
        m = load_checkpoint(out / "anode.ckpt")
        assert m.spec.kind == "anode" and m.spec.p == 5


class TestNfeCommand:
    def test_artifacts_and_snapshot_count(self, tmp_path):
        out = tmp_path / "nfe"
        code = run(["nfe", "--model", "anode", "--epochs", "4",
                    "--snapshot-every", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "nfe_vs_epoch.csv").exists()
        assert (out / "nfe_vs_loss.csv").exists()
        snaps = sorted(out.glob("features_epoch*.csv"))
        assert len(snaps) == 4 // 2 + 1
        lines = (out / "nfe_vs_epoch.csv").read_text().splitlines()
        assert lines[0] == "epoch,nfe_forward_mean" and len(lines) == 5

    def test_rejects_resnet(self, tmp_path):
        assert run(["nfe", "--model", "resnet",
                    "--out", str(tmp_path)]) == EXIT_CONFIG


class TestGeneralizationCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "gen"
        code = run(["generalization", "--epochs", "1", "--out", str(out)])
        assert code == EXIT_OK
        for kind in ("node", "anode"):
            grid = (out / f"{kind}_heatgrid.csv").read_text().splitlines()
            assert grid[0] == "x0,x1,prediction"
            assert len(grid) == 1 + 100 * 100
            assert (out / f"{kind}_train.csv").exists()
            assert (out / f"{kind}.ckpt").exists()

    def test_heat_grids_match_per_cell_rule(self, tmp_path):
        """Each heat grid is byte for byte the per-cell rule's rows of the
        grid and the checkpoint's predictions, in chunks of 500 points."""
        out = tmp_path / "gen"
        assert run(["generalization", "--epochs", "1", "--hidden", "4",
                    "--out", str(out)]) == EXIT_OK
        grid = np.stack(np.meshgrid(np.linspace(-2, 2, 100),
                                    np.linspace(-2, 2, 100),
                                    indexing="ij"), axis=-1).reshape(-1, 2)
        defaults = COMMANDS["generalization"].defaults
        solver = SolverConfig(rtol=defaults["solver_rtol"],
                              atol=defaults["solver_atol"])
        for kind in ("node", "anode"):
            model = load_checkpoint(out / f"{kind}.ckpt")
            with no_grad():
                preds = [node_forward(model, Tensor(grid[i:i + 500]), solver)[0].data
                         for i in range(0, len(grid), 500)]
            preds = np.concatenate(preds).reshape(-1)
            per_cell_write_csv(tmp_path / f"{kind}_ref.csv", "x0,x1,prediction",
                               [[*g, p] for g, p in zip(grid, preds)])
            assert ((out / f"{kind}_heatgrid.csv").read_bytes() ==
                    (tmp_path / f"{kind}_ref.csv").read_bytes()), kind

    def test_late_chunk_failure_leaves_no_heat_grid(self, tmp_path,
                                                    monkeypatch, capsys):
        """A heat grid is written chunk by chunk as it is predicted; a
        solve that fails after some chunks are written removes the file."""
        forward, calls = cli.mdl.node_forward, []

        def third_chunk_fails(*args):
            calls.append(1)
            if len(calls) == 3:
                raise StepLimitError("dopri5: step limit 7 reached", 7)
            return forward(*args)

        monkeypatch.setattr(cli.mdl, "node_forward", third_chunk_fails)
        out = tmp_path / "gen"
        assert run(["generalization", "--epochs", "1", "--hidden", "1",
                    "--out", str(out)]) == EXIT_TRAINING
        assert "solver failure: dopri5: step limit 7 reached" in capsys.readouterr().err
        assert len(calls) == 3
        assert not (out / "node_heatgrid.csv").exists()
        assert (out / "node_train.csv").exists()

    def test_validation_failure_is_a_training_failure(self, tmp_path, monkeypatch,
                                                      one_lane, capsys):
        # one lane: the patched evaluate must reach both fits
        def failing_evaluate(*args):
            raise StepLimitError("dopri5: step limit 7 reached", 7)

        monkeypatch.setattr(cli.trn, "evaluate", failing_evaluate)
        out = tmp_path / "gen"
        assert run(["generalization", "--epochs", "1", "--hidden", "1",
                    "--batch", "3000", "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        for kind in ("node", "anode"):
            assert (f"{kind}: training failed: step limit at epoch 0 validation: "
                    "dopri5: step limit 7 reached") in err
            assert (out / f"{kind}_train.csv").read_text().splitlines() == [
                cli.trn.TrainRecord.CSV_HEADER]
            assert (out / f"{kind}.ckpt").exists()

    def test_training_failure_reported_when_heat_grid_fails(self, tmp_path,
                                                            monkeypatch, one_lane,
                                                            capsys):
        """node's fit fails, so its heat grid is skipped; anode's heat grid
        then raises, and node's training failure still reaches stderr.  One
        lane: the patched fit must run in this process."""
        fit = cli.trn.fit

        def node_fit_fails(model, *args, **kwargs):
            record = fit(model, *args, **kwargs)
            if model.spec.kind == "node":
                record.error = "divergence at epoch 0 batch 0: forced"
            return record

        def failing_forward(*args):
            raise StepLimitError("dopri5: step limit 7 reached", 7)

        monkeypatch.setattr(cli.trn, "fit", node_fit_fails)
        monkeypatch.setattr(cli.mdl, "node_forward", failing_forward)
        out = tmp_path / "gen"
        assert run(["generalization", "--epochs", "1", "--hidden", "1",
                    "--batch", "3000", "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert "node: training failed: divergence at epoch 0 batch 0: forced" in err
        assert "solver failure: dopri5: step limit 7 reached" in err
        assert "anode: training failed" not in err
        for kind in ("node", "anode"):
            assert (out / f"{kind}_train.csv").exists()
            assert not (out / f"{kind}_heatgrid.csv").exists()

    def test_both_fits_fail_in_two_lanes(self, tmp_path, lanes, workers, capsys):
        """Both fits fail through their inputs, node in this process and
        anode in the worker: both failures are reported and both fits'
        records and checkpoints written."""
        lanes(2)
        out = tmp_path / "gen"
        assert run(["generalization", "--lr", "1e3", "--epochs", "1",
                    "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err.splitlines()
        assert [line.partition(":")[0] for line in err] == ["node", "anode"]
        assert all(": training failed: " in line for line in err)
        assert [proc.returncode for proc in workers] == [0]
        for kind in ("node", "anode"):
            assert (out / f"{kind}_train.csv").exists()
            assert (out / f"{kind}.ckpt").exists()


def write_synthetic_idx(data: Path) -> None:
    """MNIST's four IDX files with 40 training and 16 test 8x8 images of two
    classes: class 1 bright in the center, class 0 bright at the border."""
    rng = np.random.default_rng(0)
    for i, n in ((0, 40), (2, 16)):
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        images = np.zeros((n, 8, 8), dtype=np.uint8)
        images[labels == 1, 2:6, 2:6] = 200
        images[labels == 0, :, 0:2] = 200
        images += rng.integers(0, 30, size=images.shape, dtype=np.uint8)
        write_idx(data / MNIST_FILES[i], data / MNIST_FILES[i + 1], images, labels)


class TestMnistMiniCommand:
    def test_missing_data_exit_4_with_instructions(self, tmp_path, capsys):
        code = run(["mnist-mini", "--data-dir", str(tmp_path / "none"),
                    "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "missing MNIST IDX files" in err and "Download" in err

    def test_synthetic_idx_end_to_end(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        write_synthetic_idx(data)
        out = tmp_path / "out"
        code = run(["mnist-mini", "--data-dir", str(data), "--out", str(out),
                    "--epochs", "1", "--batch", "16",
                    "--train-limit", "40", "--test-limit", "16"])
        assert code == EXIT_OK
        for kind in ("node", "anode"):
            assert (out / f"{kind}_train.csv").exists()
            assert (out / f"{kind}.ckpt").exists()
        # the two checkpoints are parameter matched within 2%
        n = load_checkpoint(out / "node.ckpt").param_count()
        a = load_checkpoint(out / "anode.ckpt").param_count()
        assert abs(n - a) / n <= 0.02

    def test_truncated_idx_header_exit_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        images, labels = np.zeros((4, 8, 8), np.uint8), np.zeros(4, np.uint8)
        for i in (0, 2):
            write_idx(data / MNIST_FILES[i], data / MNIST_FILES[i + 1],
                      images, labels)
        head = (data / MNIST_FILES[0]).read_bytes()[:10]
        (data / MNIST_FILES[0]).write_bytes(head)
        out = tmp_path / "out"
        assert run(["mnist-mini", "--data-dir", str(data),
                    "--out", str(out)]) == EXIT_IO
        assert "truncated header at byte 10" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_size_idx_images_exit_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        images, labels = np.zeros((8, 0, 0), np.uint8), np.zeros(8, np.uint8)
        for i in (0, 2):
            write_idx(data / MNIST_FILES[i], data / MNIST_FILES[i + 1],
                      images, labels)
        out = tmp_path / "out"
        assert run(["mnist-mini", "--data-dir", str(data), "--filters", "16",
                    "--out", str(out)]) == EXIT_IO
        assert "zero item size [0, 0] at byte 8" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_cell_counts(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--model", "anode", "--dim", "1", "--epochs", "1",
                    "--n-inner", "20", "--n-outer", "40", "--out", str(out)])
        assert code == EXIT_OK
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 3 * 2 * 3     # batch x lr x hidden x aug
        folds = (out / "sweep_folds.csv").read_text().splitlines()
        assert folds[0].endswith("fold,val_loss")
        assert len(folds) == 1 + 36 * 3

    def test_resnet_grid_uses_layers(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--model", "resnet", "--dim", "1", "--epochs", "1",
                    "--n-inner", "10", "--n-outer", "20", "--out", str(out)])
        assert code == EXIT_OK
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert "layers" in summary[0]
        assert len(summary) == 1 + 2 * 3 * 2 * 3


def per_cell_write_csv(path, header, rows):
    """The per-cell rule write_csv replaced, kept as its reference."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else
                              "" if c is None else format(float(c), ".9g")
                              for c in row) + "\n")


def per_point_to_px(c, x, y):
    """svg._Canvas.to_px on one pair of Python floats, kept as its reference."""
    m, w, h = c.margin, c.width, c.height
    (x0, x1), (y0, y1) = c.xlim, c.ylim
    sx = (w - 2 * m) / max(x1 - x0, 1e-12)
    sy = (h - 2 * m) / max(y1 - y0, 1e-12)
    return m + (x - x0) * sx, h - m - (y - y0) * sy


@pytest.mark.parametrize("lims", [((-1.0, 2.0), (0.5, 0.75)),
                                  ((-3e-13, 3e-13), (-1e300, 1e300))])
def test_to_px_matches_per_point_rule(lims):
    """to_px on whole arrays and on scalars gives the per-point bits."""
    c = svg._Canvas()
    c.set_limits(*lims)
    xs = np.concatenate([np.random.default_rng(0).standard_normal(40) * 10.0 ** np.arange(-8, 12, 0.5),
                         [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]])
    ys = xs[::-1].copy()
    with np.errstate(over="ignore"):    # 1e300 over a 6e-13 range is inf
        px, py = c.to_px(xs, ys)
    ref = [per_point_to_px(c, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert px.view(np.int64).tolist() == np.array([r[0] for r in ref]).view(np.int64).tolist()
    assert py.view(np.int64).tolist() == np.array([r[1] for r in ref]).view(np.int64).tolist()
    for (x, y), r in zip(zip(xs.tolist(), ys.tolist()), ref):
        with np.errstate(over="ignore"):
            got = c.to_px(x, y)
        assert np.array(got).view(np.int64).tolist() == np.array(r).view(np.int64).tolist()


def per_point_trajectory_plot(path, states, labels, title):
    """The per-point svg.trajectory_plot, kept as its reference: one pixel
    mapping and one f-string per point."""
    c = svg._Canvas()
    n_pts, n_times, dim = states.shape
    if dim == 1:
        t = np.linspace(0.0, 1.0, n_times)
        c.set_limits(svg._limits([t]), svg._limits([states[:, :, 0]]))
        lines = [(t, s[:, 0]) for s in states]
    else:
        c.set_limits(svg._limits([states[:, :, 0]]), svg._limits([states[:, :, 1]]))
        lines = [(s[:, 0], s[:, 1]) for s in states]
    for (xs, ys), label in zip(lines, labels):
        color = svg._COLORS[0] if label > 0 else svg._COLORS[1]
        pxy = [per_point_to_px(c, float(x), float(y)) for x, y in zip(xs, ys)]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in pxy)
        c.parts.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        if dim > 1:
            c.parts.append(f'<circle cx="{pxy[0][0]:.2f}" cy="{pxy[0][1]:.2f}" '
                           f'r="3.0" fill="{color}"/>')
    c.text(title, c.margin, 20)
    c.write(path)


def per_arrow_field_plot(path, points, vectors, title):
    """The per-arrow svg.field_plot, kept as its reference: each arrow's
    ends mapped point by point and written by one f-string."""
    c = svg._Canvas()
    c.set_limits(svg._limits([points[:, 0]]), svg._limits([points[:, 1]]))
    norm = max(math.sqrt(u * u + v * v) for u, v in vectors.tolist()) or 1.0
    for (x, y), (u, v) in zip(points.tolist(), vectors.tolist()):
        x0, y0 = per_point_to_px(c, x, y)
        x1, y1 = per_point_to_px(c, x + 0.15 * u / norm, y + 0.15 * v / norm)
        c.parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                       f'y2="{y1:.2f}" stroke="{svg._COLORS[0]}" stroke-width="1.0"/>')
    c.text(title, c.margin, 20)
    c.write(path)


def per_point_line_plot(path, xs, ys, name, title):
    """The per-point svg.line_plot of one series, kept as its reference."""
    c = svg._Canvas()
    c.set_limits(svg._limits([np.asarray(xs, float)]),
                 svg._limits([np.asarray(ys, float)]))
    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                   (per_point_to_px(c, float(x), float(y)) for x, y in zip(xs, ys)))
    c.parts.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{svg._COLORS[0]}" stroke-width="1.5"/>')
    c.text(name, c.width - c.margin - 120, c.margin)
    c.text(title, c.margin, 20)
    c.write(path)


@pytest.mark.parametrize("xs, ys", [
    (np.arange(5), np.array([0.9, 0.5, 0.31, 0.305, 0.2])),
    (np.arange(3), np.array([2.5, 2.5, 2.5])),       # a flat series
    (np.array([0.0]), np.array([-1e300])),
    (np.arange(40), np.random.default_rng(1).standard_normal(40) * 1e-9),
    (np.zeros(0), np.zeros(0)),                       # a record of no epochs
], ids=["loss", "flat", "one-point", "tiny-range", "empty"])
def test_line_plot_matches_per_point_rule(tmp_path, xs, ys):
    svg.line_plot(tmp_path / "new.svg", xs, ys, "train_loss", title="loss")
    per_point_line_plot(tmp_path / "ref.svg", xs, ys, "train_loss", "loss")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                               5e-324, 2.2250738585072014e-308, 1e16, 1 / 3])
FLOATS = st.floats() | EDGE_FLOATS
CELLS = st.one_of(
    st.integers(), st.booleans(), st.none(), FLOATS,
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
# ndarray row elements, by dtype
ARRAY_CELLS = {np.float64: FLOATS, np.float32: st.floats(width=32),
               np.int64: st.integers(-2**63, 2**63 - 1), np.bool_: st.booleans()}


@st.composite
def csv_rows(draw):
    """Rows of one width whose cell types change from row to row, as
    val_loss does between None and a float, mixed with ndarray rows."""
    width = draw(st.integers(0, 6))
    cells = st.lists(CELLS, min_size=width, max_size=width)
    arrays = st.one_of(*(st.lists(c, min_size=width, max_size=width).map(
        functools.partial(np.array, dtype=t)) for t, c in ARRAY_CELLS.items()))
    return draw(st.lists(cells | arrays, max_size=12))


class TestWriteCsv:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=csv_rows())
    def test_matches_per_cell_rule(self, tmp_path, rows):
        per_cell_write_csv(tmp_path / "ref.csv", "a,b", rows)
        cli.write_csv(tmp_path / "new.csv", "a,b", (r for r in rows))
        assert ((tmp_path / "new.csv").read_bytes() ==
                (tmp_path / "ref.csv").read_bytes())


@st.composite
def flow_snapshots(draw):
    n_points, n_times, dim = (draw(st.integers(0, 40)), draw(st.integers(2, 30)),
                              draw(st.integers(1, 7)))
    return FlowSnapshot(draw(st.lists(FLOATS, min_size=n_times, max_size=n_times)),
                        draw(arrays(np.float64, (n_points, n_times, dim),
                                    elements=FLOATS)),
                        draw(arrays(np.float64, n_points, elements=FLOATS)))


class TestWriteFlowCsv:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(snap=flow_snapshots())
    def test_matches_per_cell_rule(self, tmp_path, snap):
        dim = snap.states.shape[2]
        per_cell_write_csv(tmp_path / "ref.csv", "point_id,label,time," +
                           ",".join(f"s{i}" for i in range(dim)),
                           [[i, snap.labels[i], t, *snap.states[i, j]]
                            for i in range(len(snap.states))
                            for j, t in enumerate(snap.times)])
        cli.write_flow_csv(tmp_path / "new.csv", snap)
        assert ((tmp_path / "new.csv").read_bytes() ==
                (tmp_path / "ref.csv").read_bytes())

    def test_streams_point_by_point(self, tmp_path):
        """Writing 20000 points x 25 times x 7 dims allocates less than a
        tenth of the bytes written: no file is built in memory."""
        rng = np.random.default_rng(0)
        snap = FlowSnapshot(list(np.linspace(0.0, 1.0, 25)),
                            rng.standard_normal((20000, 25, 7)),
                            rng.integers(0, 2, 20000).astype(float))
        tracemalloc.start()
        try:
            cli.write_flow_csv(tmp_path / "flow.csv", snap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = (tmp_path / "flow.csv").stat().st_size
        assert written > 20000 * 25 * 7 * 10
        assert peak < written / 10, (peak, written)


class TestExportFlowsCommand:
    def _checkpoint(self, tmp_path, spec):
        m = Model(spec, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        return path

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=8),
        ModelSpec(kind="node", input_dim=1, hidden_dim=8, head="identity"),
        ModelSpec(kind="resnet", input_dim=1, hidden_dim=8, resnet_layers=5),
        ModelSpec(kind="anode", input_dim=2, p=2, hidden_dim=8),
        ModelSpec(kind="node", input_dim=2, hidden_dim=8)],
        ids=["anode", "node-1d", "resnet", "anode-2d", "node-2d"])
    def test_artifacts_match_per_cell_and_per_point_rules(self, tmp_path, spec):
        """flow.csv, field.csv, flow.svg and field.svg are byte for byte what
        the per-cell CSV rule and the per-point SVG rules give for the same
        model; a resnet has no field.csv, and only a 2-d state a field.svg."""
        ckpt = self._checkpoint(tmp_path, spec)
        out, ref = tmp_path / "flows", tmp_path / "ref"
        assert run(["export-flows", "--checkpoint", str(ckpt), "--out", str(out),
                    "--n-points", "30", "--n-times", "6", "--svg"]) == EXIT_OK

        model, sd = Model(spec, seed=0), spec.state_dim
        defaults = COMMANDS["export-flows"].defaults
        points = (np.linspace(-1.5, 1.5, 30)[:, None] if spec.input_dim == 1 else
                  np.random.default_rng(defaults["seed"]).uniform(
                      -1.5, 1.5, size=(30, spec.input_dim)))
        snap = flow_trajectory(model, points, 6,
                               SolverConfig(rtol=defaults["solver_rtol"],
                                            atol=defaults["solver_atol"]))
        ref.mkdir()
        per_cell_write_csv(ref / "flow.csv", "point_id,label,time," +
                           ",".join(f"s{i}" for i in range(sd)),
                           [[i, snap.labels[i], t, *snap.states[i, j]]
                            for i in range(len(snap.states))
                            for j, t in enumerate(snap.times)])
        per_point_trajectory_plot(ref / "flow.svg", snap.states, snap.labels,
                                  title="flow trajectories")
        names = ["flow.csv", "flow.svg"]
        if spec.kind == "resnet":
            assert len(snap.times) == spec.resnet_layers + 1
            assert not (out / "field.csv").exists()
        else:
            axis = np.linspace(-2.0, 2.0, 10)
            mesh = np.stack(np.meshgrid(*([axis] * min(sd, 2)), indexing="ij"),
                            axis=-1).reshape(-1, min(sd, 2))
            mesh = np.pad(mesh, ((0, 0), (0, sd - mesh.shape[1])))
            times = [0.0, 0.5, 1.0]
            vecs = vector_field(model, mesh, times)
            per_cell_write_csv(ref / "field.csv",
                               "t," + ",".join(f"x{i}" for i in range(sd)) + "," +
                               ",".join(f"f{i}" for i in range(sd)),
                               [[t, *pt, *vec] for t, at_t in zip(times, vecs)
                                for pt, vec in zip(mesh, at_t)])
            names.append("field.csv")
            if sd == 2:
                per_arrow_field_plot(ref / "field.svg", mesh, vecs[0],
                                     title="vector field at t=0")
                names.append("field.svg")
        assert (out / "field.svg").exists() == ("field.svg" in names)
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_flow_and_field(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, ModelSpec(kind="anode", input_dim=1,
                                                    p=1, hidden_dim=8))
        out = tmp_path / "flows"
        code = run(["export-flows", "--checkpoint", str(ckpt), "--out", str(out),
                    "--n-points", "5", "--n-times", "4", "--svg"])
        assert code == EXIT_OK
        flow = (out / "flow.csv").read_text().splitlines()
        assert flow[0] == "point_id,label,time,s0,s1"
        assert len(flow) == 1 + 5 * 4
        field = (out / "field.csv").read_text().splitlines()
        assert field[0] == "t,x0,x1,f0,f1"
        assert (out / "flow.svg").exists() and (out / "field.svg").exists()

    def test_missing_checkpoint_flag_exit_2(self, tmp_path):
        assert run(["export-flows", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_nonexistent_checkpoint_exit_4(self, tmp_path):
        assert run(["export-flows", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--out", str(tmp_path)]) == EXIT_IO

    def test_conv_checkpoint_exit_2(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path, ModelSpec(kind="node", input_dim=1,
                                                    hidden_dim=4, output_dim=2,
                                                    conv=True))
        out = tmp_path / "flows"
        assert run(["export-flows", "--checkpoint", str(ckpt),
                    "--out", str(out)]) == EXIT_CONFIG
        assert "flows of image (conv) models are unsupported" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_after_the_manifest_exit_3(self, tmp_path, monkeypatch,
                                                     capsys):
        def no_memory(*a, **kw):
            raise MemoryError("Unable to allocate 1.19 GiB")

        ckpt = self._checkpoint(tmp_path, ModelSpec(kind="anode", input_dim=2,
                                                    p=1, hidden_dim=8))
        monkeypatch.setattr(cli.mdl, "flow_trajectory", no_memory)
        out = tmp_path / "flows"
        assert run(["export-flows", "--checkpoint", str(ckpt),
                    "--out", str(out)]) == EXIT_TRAINING
        assert capsys.readouterr().err == "out of memory: Unable to allocate 1.19 GiB\n"
        assert (out / "manifest.json").exists() and not (out / "flow.csv").exists()


class TestSolverFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    # scale 300 blows up within the solve, 1e200 already in its first eval
    @pytest.mark.parametrize("scale, max_steps, message", [
        (300.0, SolverConfig.max_steps, "non-finite state"),
        (300.0, 30, "step limit 30"),
        (1e200, SolverConfig.max_steps, "non-finite derivative at t=0")],
        ids=["10000-non-finite state", "30-step limit 30",
             "1e200-non-finite derivative"])
    def test_blown_up_checkpoint_exit_3(self, tmp_path, monkeypatch, capsys,
                                        scale, max_steps, message):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=0)
        for _, t in m.params.items():
            t.data *= scale
        ckpt = tmp_path / "blown.ckpt"
        save_checkpoint(ckpt, m)
        monkeypatch.setattr(cli, "SolverConfig",
                            functools.partial(SolverConfig, max_steps=max_steps))
        assert run(["export-flows", "--checkpoint", str(ckpt), "--n-points", "2",
                    "--n-times", "3", "--out", str(tmp_path / "flows")]) == EXIT_TRAINING
        assert f"solver failure: dopri5: {message}" in capsys.readouterr().err

    def test_training_failure_skips_flow_export(self, tmp_path, monkeypatch,
                                                capsys):
        """The blown-up model is not solved again: the training failure is
        reported, the partial artifacts are written, and no flow is exported."""
        monkeypatch.setattr(cli, "SolverConfig",
                            functools.partial(SolverConfig, max_steps=30))
        out = tmp_path / "toy"
        assert run(["toy", "--dim", "2", "--model", "node", "--lr", "1e3",
                    "--epochs", "1", "--out", str(out)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert "node: training failed: step limit at epoch 0 batch" in err
        assert "solver failure:" not in err
        assert (out / "node_train.csv").exists() and (out / "node.ckpt").exists()
        assert not (out / "node_flow.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["toy", "--dim", "2", "--model", "node", "--epochs", "1"],
        ["generalization", "--epochs", "1"],
        ["nfe", "--epochs", "2", "--snapshot-every", "1"]],
        ids=["toy", "generalization", "nfe"])
    def test_svg_of_a_fit_failed_in_epoch_0(self, tmp_path, monkeypatch, capsys,
                                            argv):
        """A fit that fails in its first epoch has no epoch to plot: with
        --svg its plots are empty, and the run exits 3 with only the failure
        lines, after writing every artifact it writes without --svg."""
        monkeypatch.setattr(cli, "SolverConfig",
                            functools.partial(SolverConfig, max_steps=30))
        runs = []
        for flags in ([], ["--svg"]):
            out = tmp_path / f"run{len(runs)}"
            code = run(argv + ["--lr", "1e3", "--out", str(out)] + flags)
            files = {p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "manifest.json"}  # it names the out dir
            runs.append((code, capsys.readouterr(), files))
        (code, io, files), (svg_code, svg_io, svg_files) = runs
        assert code == svg_code == EXIT_TRAINING
        assert svg_io == io and io.out == ""
        assert all(": training failed: " in line for line in io.err.splitlines())
        plots = {name for name in svg_files if name.endswith(".svg")}
        assert plots and {name: b for name, b in svg_files.items()
                          if name not in plots} == files
        assert any(name.endswith("_loss.svg") for name in plots)

    def test_diverging_batch_prints_only_the_failure_line(self, tmp_path,
                                                          capsys):
        # the blow-up overflows matmuls and sums on its way to the
        # non-finite state; NumPy's warnings for that stay silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["toy", "--dim", "2", "--model", "node", "--lr", "1e3",
                        "--epochs", "2", "--hidden", "8",
                        "--out", str(tmp_path / "toy")]) == EXIT_TRAINING
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "node: training failed: divergence at epoch 0 batch 1: dopri5: "
            "non-finite state at t=")


    def test_stiff_solve_ends_the_fit(self, tmp_path, capsys):
        # the diverging fit's second batch turns stiff: Hairer's test ends
        # its solve 14 accepted steps after the 1000th, where the step limit
        # let it run to 10000 attempts (8.7 s and about 2.5 GB)
        assert run(["toy", "--dim", "2", "--model", "node", "--lr", "1e3",
                    "--epochs", "1", "--out", str(tmp_path / "toy")]) == EXIT_TRAINING
        assert capsys.readouterr().err.splitlines() == [
            "node: training failed: step limit at epoch 0 batch 1: dopri5: "
            "the problem turned stiff at t=4.50789e-08 (1014 steps accepted)"]


# every int config key of every command, set to 0 and to -1; key None is the
# command's cheap base run, which must succeed for the probes to mean anything
INT_KEY_PROBES = [(name, None, None) for name in COMMANDS] + [
    (name, key, value) for name, cmd in COMMANDS.items()
    for key, default in cmd.defaults.items() if type(default) is int
    for value in (0, -1)]


@pytest.fixture(scope="module")
def cheap_argv(tmp_path_factory):
    """The cheapest valid argv of each command, with its input files."""
    root = tmp_path_factory.mktemp("inputs")
    images = np.random.default_rng(0).integers(0, 256, (4, 4, 4), dtype=np.uint8)
    for i in (0, 2):
        write_idx(root / MNIST_FILES[i], root / MNIST_FILES[i + 1], images,
                  np.array([0, 1, 0, 1], np.uint8))
    ckpt = root / "m.ckpt"
    save_checkpoint(ckpt, Model(ModelSpec(input_dim=2, hidden_dim=1), seed=0))
    return {
        "toy": ["--epochs", "1", "--hidden", "1"],
        "nfe": ["--epochs", "1", "--hidden", "1", "--batch", "3000"],
        "generalization": ["--epochs", "1", "--hidden", "1", "--aug", "1",
                           "--batch", "3000"],
        "mnist-mini": ["--data-dir", str(root), "--epochs", "1",
                       "--filters", "1", "--aug", "1",
                       "--train-limit", "2", "--test-limit", "2"],
        "sweep": ["--epochs", "1", "--n-inner", "2", "--n-outer", "2",
                  "--cv-folds", "2"],
        "export-flows": ["--checkpoint", str(ckpt), "--n-points", "1",
                         "--n-times", "2"],
    }


class TestManifestFirst:
    def test_manifest_written_before_training(self, tmp_path, monkeypatch):
        # force training to explode; the manifest must already be on disk
        import anodelab.expcli as cli

        def boom(*a, **kw):
            raise RuntimeError("training interrupted")

        monkeypatch.setattr(cli.trn, "fit", boom)
        out = tmp_path / "toy"
        with pytest.raises(RuntimeError):
            run(["toy", "--dim", "1", "--epochs", "1", "--out", str(out)])
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["toy", "--epochs", "0"], ["toy", "--dim", "3"],
        ["toy", "--solver-rtol", "-1"], ["nfe", "--model", "resnet"],
        ["sweep", "--epochs", "0"], ["export-flows"],
        ["nfe", "--snapshot-every", "0"], ["sweep", "--cv-folds", "1"],
        ["sweep", "--n-inner", "2", "--n-outer", "2", "--cv-folds", "5"],
        ["toy", "--solver-rtol", "nan"], ["toy", "--lr", "nan"],
        ["toy", "--lr", "inf"], ["toy", "--wd", "nan"],
        ["toy", "--solver-rtol", "inf"], ["toy", "--solver-atol", "inf"],
        ["sweep", "--dim", "1751"], ["sweep", "--model", "foo"]])
    def test_config_error_writes_no_manifest(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_plan_out_of_memory_is_config_error(self, tmp_path, monkeypatch,
                                                capsys):
        def no_memory(*a, **kw):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(cli.mdl, "Model", no_memory)
        out = tmp_path / "out"
        assert run(["toy", "--out", str(out)]) == EXIT_CONFIG
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    # (command, flags that make the probed flag count, flag, invalid value)
    FLAG_PROBES = [
        ("mnist-mini", [], "--aug", "-1"), ("mnist-mini", [], "--filters", "0"),
        ("toy", [], "--hidden", "0"),
        ("toy", ["--model", "anode"], "--aug", "-1"),
        ("toy", ["--model", "resnet"], "--layers", "0"),
        ("nfe", [], "--hidden", "0"), ("nfe", ["--model", "anode"], "--aug", "-1"),
        ("generalization", [], "--hidden", "0"),
        ("generalization", [], "--aug", "-1")]

    @pytest.mark.parametrize("name, extra, flag, value", FLAG_PROBES,
                             ids=[f"{f}-{v}" if n == "mnist-mini" else f"{n}-{f}-{v}"
                                  for n, _, f, v in FLAG_PROBES])
    def test_mnist_mini_error_names_flag(self, tmp_path, cheap_argv, capsys,
                                         name, extra, flag, value):
        """The error names the flag the user set, not a dataclass field."""
        out = tmp_path / "out"
        assert run([name, *cheap_argv[name], *extra, flag, value,
                    "--out", str(out)]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, key, value", INT_KEY_PROBES,
                             ids=[f"{n}-base" if k is None else f"{n}-{k}={v}"
                                  for n, k, v in INT_KEY_PROBES])
    def test_int_key_at_0_and_minus_1(self, tmp_path, cheap_argv, name, key, value):
        """A probed value is either valid (exit 0) or rejected before anything is
        written (exit 2, no output directory); never a traceback, and never a
        config or training failure after the manifest."""
        probe = [] if key is None else ["--" + key.replace("_", "-"), str(value)]
        out = tmp_path / "out"
        code = run([name, *cheap_argv[name], *probe, "--out", str(out)])
        if key is None:
            assert code == EXIT_OK
        assert code == EXIT_OK or (code == EXIT_CONFIG and not out.exists())


# A spec value of each JSON type, huge sizes included: load_checkpoint checks
# the parameter bytes against the spec before it allocates anything.
SPEC_VALUES = st.one_of(st.integers(-2, 64),
                        st.sampled_from([2**31, 2**32, 2**63, 10**12]),
                        st.floats(), st.booleans(),
                        st.sampled_from(["node", "anode", "resnet", "identity"]),
                        st.text(max_size=4), st.none())
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    """Each input reader returns a valid object or raises an exception that
    main maps to an exit code; never anything else."""

    @staticmethod
    def _read(reader, *args):
        try:
            return reader(*args)
        except tuple(cli.EXIT_CODES):
            return None

    @FUZZ
    @given(tail=st.binary(max_size=200))
    def test_checkpoint_bytes_after_header(self, tmp_path, tail):
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(CKPT_MAGIC + struct.pack("<I", CKPT_VERSION) + tail)
        model = self._read(load_checkpoint, path)
        assert model is None or isinstance(model, Model)

    @staticmethod
    def _forward(model):
        x = np.zeros((1, model.spec.input_dim) + ((3, 3) if model.spec.conv else ()))
        with no_grad():
            return node_forward(model, Tensor(x),
                                SolverConfig(method="rk4", fixed_step=0.5))

    @settings(FUZZ, max_examples=200)
    @given(spec=st.dictionaries(st.sampled_from([f.name for f in fields(ModelSpec)]),
                                SPEC_VALUES, max_size=3),
           data=st.data())
    def test_checkpoint_spec_values(self, tmp_path, spec, data):
        """A loaded model must also run: its spec is checked, not just parsed."""
        params = st.binary(max_size=64)
        # or zero parameters of the size a file with this spec needs, if
        # that fits in memory
        if all(v <= 64 for v in spec.values() if type(v) is int):
            try:
                params |= st.just(b"\x00" * 8 * param_count(ModelSpec(**spec)))
            except (TypeError, ValueError):
                pass
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(TestCheckpoint._pack(json.dumps(spec).encode(),
                                              data.draw(params)))
        model = self._read(load_checkpoint, path)
        if model is not None:
            self._read(self._forward, model)

    @FUZZ
    @given(images=st.binary(max_size=64), labels=st.binary(max_size=32))
    def test_idx_bytes_after_magic(self, tmp_path, images, labels):
        ip, lp = tmp_path / "images", tmp_path / "labels"
        ip.write_bytes(struct.pack(">I", 0x803) + images)
        lp.write_bytes(struct.pack(">I", 0x801) + labels)
        ds = self._read(load_idx, ip, lp)
        assert ds is None or isinstance(ds, LabeledSet)

    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_config_file_bytes(self, tmp_path, raw):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(raw)
        cfg = self._read(parse_config_file, path)
        assert cfg is None or isinstance(cfg, dict)


class TestLanes:
    """A command's fits run in min(cores, fits) lanes: this process and a
    worker process per further lane."""

    @staticmethod
    def artifacts(out: Path) -> dict[str, bytes]:
        """Every file under out, with each _train.csv's last column, the
        wall-clock wall_ms, cut."""
        files = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                if p.name.endswith("_train.csv"):
                    data = b"\n".join(line.rpartition(b",")[0]
                                      for line in data.splitlines())
                files[p.relative_to(out).as_posix()] = data
        return files

    @pytest.mark.parametrize("name, argv", [
        ("generalization", ["--epochs", "2", "--hidden", "4", "--aug", "2"]),
        ("mnist-mini", ["--epochs", "1", "--batch", "16", "--filters", "4",
                        "--aug", "1", "--train-limit", "40", "--test-limit", "16"]),
        ("sweep", ["--epochs", "1", "--n-inner", "10", "--n-outer", "20",
                   "--cv-folds", "2"])],
        ids=["generalization", "mnist-mini", "sweep"])
    def test_artifacts_do_not_depend_on_the_lanes(self, tmp_path, monkeypatch,
                                                  lanes, workers, capsys,
                                                  name, argv):
        """One lane and two write the same bytes and print the same lines,
        and the worker runs the package this process imported."""
        if name == "mnist-mini":
            write_synthetic_idx(tmp_path)
            argv = argv + ["--data-dir", str(tmp_path)]
        imported = tmp_path / "imported"
        monkeypatch.setattr(cli.trn, "_WORKER", cli.trn._WORKER + (
            f"; import anodelab; open({str(imported)!r}, 'a')"
            ".write(anodelab.__file__ + '\\n')"))
        out = tmp_path / "out"
        runs = []
        for n in (1, 2):
            lanes(n)
            assert run([name, *argv, "--svg", "--out", str(out)]) == EXIT_OK
            runs.append((capsys.readouterr(), self.artifacts(out)))
            shutil.rmtree(out)
        (io, files), (io2, files2) = runs
        assert io2 == io and io.err == ""
        assert files2.keys() == files.keys() and "manifest.json" in files
        for path, data in files.items():
            assert files2[path] == data, path
        assert [proc.returncode for proc in workers] == [0]
        assert imported.read_text() == anodelab.__file__ + "\n"

    def test_dead_worker_is_an_io_error(self, tmp_path, monkeypatch, lanes,
                                        workers, capsys):
        lanes(2)
        monkeypatch.setattr(cli.trn, "_WORKER",
                            "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
        assert run(["generalization", "--epochs", "1", "--hidden", "1",
                    "--out", str(tmp_path / "gen")]) == EXIT_IO
        assert capsys.readouterr().err == (
            "I/O error: fit worker 1 ended without a result "
            "(exit status -9, Killed)\n")
        workers.assert_none_left()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="one core runs one lane")
    def test_checkpoints_do_not_depend_on_blas_threads(self, tmp_path):
        """A two-lane mnist-mini writes the same checkpoints whether BLAS is
        left at the host's thread count or set to one thread.  16 training
        images of 2x2 pixels are enough for a two-thread OpenBLAS to split
        the conv products that lane 0's fit computes."""
        rng = np.random.default_rng(0)
        for i, n in ((0, 16), (2, 8)):
            write_idx(tmp_path / MNIST_FILES[i], tmp_path / MNIST_FILES[i + 1],
                      rng.integers(0, 256, (n, 2, 2), dtype=np.uint8),
                      rng.integers(0, 2, n).astype(np.uint8))
        src = str(Path(anodelab.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); from anodelab.expcli import "
                "main; sys.exit(main(sys.argv[1:]))")
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in blas}
        checkpoints = []
        for name, env in (("unset", unset), ("one", dict(unset, **dict.fromkeys(blas, "1")))):
            out = tmp_path / name
            subprocess.run([sys.executable, "-c", code, "mnist-mini", "--data-dir",
                            str(tmp_path), "--train-limit", "16", "--test-limit", "8",
                            "--epochs", "1", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            checkpoints.append([(out / f"{kind}.ckpt").read_bytes()
                                for kind in ("anode", "node")])
        assert checkpoints[0] == checkpoints[1]
