"""End-to-end CLI contracts: manifest-first artifacts, CSV schemas, checkpoint
round trips, config precedence, and exit codes."""

import argparse
import functools
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

import anodelab.expcli as cli
from anodelab.data import write_idx
from anodelab.expcli import (CKPT_MAGIC, CKPT_VERSION, COMMANDS, EXIT_CONFIG,
                             EXIT_IO, EXIT_OK, EXIT_TRAINING, MNIST_FILES,
                             ConfigError, build_parser, load_checkpoint, main,
                             parse_config_file, resolve_config,
                             save_checkpoint)
from anodelab.models import Model, ModelSpec
from anodelab.odeint import SolverConfig


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
        real_backward = trn.backward

        def nan_backward(graph, loss):
            real_backward(graph, loss)
            leaf = next(n.tensor for n in graph.nodes
                        if n.is_leaf and n.tensor.requires_grad)
            leaf.grad[...] = np.nan

        monkeypatch.setattr(trn, "backward", nan_backward)
        out = tmp_path / "toy"
        assert run(["toy", "--dim", "1", "--epochs", "1",
                    "--out", str(out)]) == EXIT_TRAINING
        assert "training failed: gradient at epoch 0 batch 0" in capsys.readouterr().err
        assert (out / "node.ckpt").exists()

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
        rng = np.random.default_rng(0)

        def make(n, ip, lp):
            labels = rng.integers(0, 2, size=n).astype(np.uint8)
            images = np.zeros((n, 8, 8), dtype=np.uint8)
            # class 1 bright in the center, class 0 bright at the border
            images[labels == 1, 2:6, 2:6] = 200
            images[labels == 0, :, 0:2] = 200
            images += rng.integers(0, 30, size=images.shape, dtype=np.uint8)
            write_idx(data / ip, data / lp, images, labels)

        make(40, "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
        make(16, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
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


class TestExportFlowsCommand:
    def _checkpoint(self, tmp_path, spec):
        m = Model(spec, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        return path

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
        ["toy", "--solver-rtol", "nan"]])
    def test_config_error_writes_no_manifest(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
