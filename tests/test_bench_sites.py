"""The traced benchmark run wraps program functions by name (bench/tracer.py
SITES).  Every name must resolve, so that deleting or renaming one fails the
test suite and not only a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SITES = _load_tracer().SITES


def test_calls_outside_sites(tmp_path):
    """bench/workloads.py and bench/tracer.py also call the package outside
    SITES: param_count of a loaded conv checkpoint, node_forward with no
    solver config under no_grad, and the metadata of a fit record."""
    from anodelab import data, expcli, models, tensorgrad, train
    spec = models.ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=2,
                            output_dim=2, conv=True)
    expcli.save_checkpoint(tmp_path / "m.ckpt", models.Model(spec, seed=0))
    model = expcli.load_checkpoint(tmp_path / "m.ckpt")
    assert model.param_count() == models.param_count(spec)
    images = np.zeros((2, 1, 3, 3))
    with tensorgrad.no_grad():
        out, nfe = models.node_forward(model, tensorgrad.Tensor(images))
    assert out.shape == (2, 2) and nfe > 0
    record = train.fit(model, data.LabeledSet(images, np.array([0, 1])), None,
                       train.TrainConfig(epochs=1))
    assert record.metadata.get("skipped_batches", 0) == 0


def test_integrate_hook_reads_cfg_by_position():
    """The tracer finds integrate's ``cfg`` by binding the call to its
    signature: only the dopri5 solve counts toward dopri5_solves and its NFE
    identity, also when cfg is passed by position."""
    from anodelab import odeint, tensorgrad as tg

    class Exp:
        def eval(self, h, t):
            return tg.lincomb((1.0,), (h,))

    tracer = _load_tracer().Tracer()
    after = tracer._integrate_hook(odeint.integrate)
    for method in ("rk4", "dopri5"):
        args = (Exp(), tg.Tensor([1.0]), 0.0, [0.5, 1.0],
                odeint.SolverConfig(method=method))
        after(args, {}, odeint.integrate(*args))
    assert tracer.c["dopri5_solves"] == 1
    assert tracer.c["nfe_identity_violations"] == 0
    assert tracer.c["nfe"] > 40  # both solves: rk4 alone spends 40


@pytest.mark.parametrize("site", [s.site for s in SITES])
def test_site_resolves_to_a_callable(site):
    mod, *path = site.split(".")
    owner = importlib.import_module(f"anodelab.{mod}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner), site


def test_tape_nodes_expose_their_tensor():
    """The tracer sums ``n.tensor.data.nbytes`` over ``graph.nodes`` for
    tape_mb_per_step; without those fields it counts tape_unmeasured and
    drops the metric."""
    from anodelab import tensorgrad as tg
    with tg.CompGraph() as g:
        out = tg.add(tg.Tensor([1.0, 2.0]), tg.Tensor([3.0, 4.0]))
    nbytes = sum(n.tensor.data.nbytes for n in g.nodes)
    assert g.nodes[-1].tensor is out and nbytes >= out.data.nbytes
