"""The traced benchmark run wraps program functions by name (bench/tracer.py
SITES).  Every name must resolve, so that deleting or renaming one fails the
test suite and not only a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
