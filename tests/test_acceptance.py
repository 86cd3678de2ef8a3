"""Acceptance gate: twelve numbered criteria, one printed PASS/FAIL line each.

Each criterion trains or probes real models at pinned settings and asserts a
pinned threshold.  Fixtures are module-scoped so the trained models from the
fitting criteria (A1-A4) are reused by the invertibility and non-crossing
probes (A5, A6).  The mini-MNIST comparison (A10) skips with an explanatory
line when the IDX files are not present; everything else is self-contained.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from anodelab import tensorgrad as tg
from anodelab.data import (LabeledSet, SphereAnnulusConfig, angular_split,
                           gen_concentric, gen_g1d, load_idx)
from anodelab.models import (Model, ModelSpec, MlpDynamics, features,
                             invert_features, match_conv_filters, node_forward,
                             param_count)
from anodelab.odeint import SolverConfig, integrate
from anodelab.tensorgrad import ParamSet, Tensor, grad_check
from anodelab.train import TrainConfig, fit, grid_search
from reference import add, taped

SEEDS = (0, 1, 2, 3, 4)
SOLVER = SolverConfig()          # adaptive RK45, rtol = atol = 1e-3
MNIST_DIR = Path(__file__).resolve().parent.parent / "data" / "mnist"


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- fixtures

def _g1d_spec(kind: str) -> ModelSpec:
    if kind == "anode":
        return ModelSpec(kind="anode", input_dim=1, p=5, hidden_dim=32,
                         output_dim=1)
    if kind == "node":
        return ModelSpec(kind="node", input_dim=1, hidden_dim=32,
                         output_dim=1, head="identity")
    return ModelSpec(kind="resnet", input_dim=1, hidden_dim=32, output_dim=1,
                     resnet_layers=5, head="identity")


@pytest.fixture(scope="module")
def g1d_runs():
    """anode / node / resnet trained on the 1-d crossing task, 5 seeds each."""
    runs = {}
    for kind in ("anode", "node", "resnet"):
        lr = 1e-2 if kind == "resnet" else 1e-3
        runs[kind] = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            model = Model(_g1d_spec(kind), seed=seed)
            cfg = TrainConfig(lr=lr, batch_size=64, epochs=50, seed=seed,
                              solver=SOLVER)
            rec = fit(model, gen_g1d(64, seed=seed), None, cfg)
            assert rec.error is None, rec.error
            assert time.perf_counter() - t0 < 120.0
            runs[kind].append((model, rec))
    return runs


@pytest.fixture(scope="module")
def concentric_runs():
    """node / anode on d=2 concentric data with the [0, pi/5] slice held
    out, 5 seeds each."""
    runs = {"node": [], "anode": []}
    for kind in runs:
        p = 5 if kind == "anode" else 0
        for seed in SEEDS:
            ds = gen_concentric(SphereAnnulusConfig(d=2, seed=seed))
            train_set, val_set = angular_split(ds, 0.0, np.pi / 5)
            model = Model(ModelSpec(kind=kind, input_dim=2, p=p,
                                    hidden_dim=32, output_dim=1), seed=seed)
            cfg = TrainConfig(lr=1e-3, batch_size=64, epochs=20, seed=seed,
                              solver=SOLVER)
            rec = fit(model, train_set, val_set, cfg)
            assert rec.error is None, rec.error
            runs[kind].append((model, rec))
    return runs


# ---------------------------------------------------------------- criteria

def test_a01_anode_fits_g1d_node_collapses(g1d_runs):
    anode = np.median([r.epochs[-1].train_loss for _, r in g1d_runs["anode"]])
    node = np.median([r.epochs[-1].train_loss for _, r in g1d_runs["node"]])
    ok = anode < 0.05 and 0.7 <= node <= 1.3
    report("A1", ok, f"median final MSE over 5 seeds: anode {anode:.4f} "
                     f"(< 0.05), node {node:.3f} (in [0.7, 1.3])")


def test_a02_resnet_fits_g1d(g1d_runs):
    resnet = np.median([r.epochs[-1].train_loss for _, r in g1d_runs["resnet"]])
    report("A2", resnet < 0.05,
           f"median final MSE over 5 seeds: resnet {resnet:.4f} (< 0.05)")


def test_a03_nfe_divergence(concentric_runs):
    ratios = {}
    for kind in ("node", "anode"):
        rs = []
        for _, rec in concentric_runs[kind]:
            nfe = rec.metric("nfe_forward_mean")
            rs.append(nfe[-1] / nfe[0])
        ratios[kind] = float(np.median(rs))
    ok = ratios["node"] >= 1.5 and ratios["anode"] <= 1.2
    report("A3", ok, f"median final/initial NFE ratio: node "
                     f"{ratios['node']:.3f} (>= 1.5), anode "
                     f"{ratios['anode']:.3f} (<= 1.2)")


def test_a04_generalization_gap(concentric_runs):
    vals = {k: np.median([r.epochs[-1].val_loss
                          for _, r in concentric_runs[k]])
            for k in ("node", "anode")}
    ok = vals["anode"] < 0.1 and vals["node"] >= 2.0 * vals["anode"]
    report("A4", ok, f"median held-out-slice MSE: anode {vals['anode']:.4f} "
                     f"(< 0.1), node {vals['node']:.4f} "
                     f"(>= 2x anode = {2 * vals['anode']:.4f})")


def test_a05_invertibility_round_trip(g1d_runs, concentric_runs):
    """Round-trip through the learned flow for every flow model trained
    above (the discrete residual baseline has no backward flow).

    features and invert_features hold each input's local error to the
    pinned tolerances (per-sample error control), so this checks that every
    learned flow can be inverted point by point.  It says nothing of the
    batch-wide solves of node_forward, training, evaluation and flow
    exports, which hold only the batch's RMS error to tolerance: on the
    trained 2-d flows their state at T is up to 0.155 per input away from
    a 1e-10 reference."""
    rng = np.random.default_rng(0)
    worst = {}
    for family, models in (("anode-1d", g1d_runs["anode"]),
                           ("node-1d", g1d_runs["node"]),
                           ("node-2d", concentric_runs["node"]),
                           ("anode-2d", concentric_runs["anode"])):
        errs = []
        for model, _ in models:
            d = model.spec.input_dim
            x = Tensor(rng.uniform(-1.0, 1.0, size=(100, d)))
            feat = features(model, x, SOLVER)
            back = invert_features(model, feat, SOLVER)
            # compare in the augmented state space the flow acts on
            x_aug = np.concatenate(
                [x.data, np.zeros((100, model.spec.aug))], axis=1)
            errs.append(float(np.max(
                np.linalg.norm(back.data - x_aug, axis=1))))
        worst[family] = max(errs)
    ok = all(e < 5e-2 for e in worst.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in worst.items())
    report("A5", ok, f"max round-trip error over 100 inputs (< 0.05, "
                     f"per-sample error norm): {detail}")


def test_a06_non_crossing(g1d_runs):
    times = list(np.linspace(0.0, 1.0, 50))
    slack = 10.0 * SOLVER.atol

    def violations(dynamics):
        x0 = np.linspace(-2.0, 2.0, 20)[:, None]
        with tg.no_grad():
            sol = integrate(dynamics, Tensor(x0), 0.0, times, SOLVER)
        traj = np.stack([s.data[:, 0] for s in sol.states], axis=1)  # (20, 50)
        count = 0
        for i in range(20):
            for j in range(i + 1, 20):
                gap = traj[j] - traj[i]   # positive at t=0 by construction
                if np.any(gap < -slack):
                    count += 1
        return count

    total = 0
    for seed in range(50):
        params = ParamSet()
        dyn = MlpDynamics.init(params, np.random.default_rng(1000 + seed),
                               dim=1, hidden=16)
        total += violations(dyn)
    trained = sum(violations(model.dynamics)
                  for model, _ in g1d_runs["node"])
    ok = total == 0 and trained == 0
    report("A6", ok, f"ordering violations beyond 10*atol: {total} across 50 "
                     f"random 1-d dynamics, {trained} across trained 1-d "
                     f"flows (need 0)")


def lipschitz_bound(params: ParamSet, prefix: str = "") -> float:
    """A7's helper: an upper bound on the Lipschitz constant of an MLP with
    1-Lipschitz activations, the product of its layer-weight Frobenius
    norms."""
    c = 1.0
    seen = False
    for name, t in params.items():
        if name.startswith(prefix) and name.endswith(".w"):
            c *= float(np.linalg.norm(t.data))
            seen = True
    return c if seen else 0.0


class TestLipschitzBound:
    def test_product_of_frobenius_norms(self):
        p = ParamSet()
        p.add("dyn.l1.w", np.array([[3.0, 0.0], [0.0, 4.0]]))  # norm 5
        p.add("dyn.l1.b", np.zeros(2))
        p.add("dyn.l2.w", np.array([[2.0]]))                   # norm 2
        assert np.isclose(lipschitz_bound(p), 10.0)

    def test_prefix_filter_and_empty(self):
        p = ParamSet()
        p.add("other.w", np.array([[7.0]]))
        assert lipschitz_bound(p, prefix="dyn") == 0.0
        assert np.isclose(lipschitz_bound(p, prefix="other"), 7.0)


def test_a07_gronwall_bound():
    slack = 10.0 * SOLVER.atol
    times = list(np.linspace(0.0, 1.0, 20))[1:]
    worst_margin = np.inf
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        params = ParamSet()
        dyn = MlpDynamics.init(params, rng, dim=2, hidden=16)
        c = lipschitz_bound(params, "dyn")
        x1 = rng.uniform(-1, 1, size=(1, 2))
        x2 = x1 + rng.uniform(-0.5, 0.5, size=(1, 2))
        with tg.no_grad():
            s1 = integrate(dyn, Tensor(x1), 0.0, times, SOLVER)
            s2 = integrate(dyn, Tensor(x2), 0.0, times, SOLVER)
        d0 = np.linalg.norm(x2 - x1)
        for t, a, b in zip(times, s1.states, s2.states):
            gap = np.linalg.norm(b.data - a.data)
            bound = np.exp(c * t) * d0 + slack
            worst_margin = min(worst_margin, bound - gap)
            if gap > bound:
                violations += 1
    report("A7", violations == 0,
           f"separation-bound violations: {violations} over 20 random "
           f"dynamics x 19 times (need 0); tightest margin {worst_margin:.3g}")


def test_a08_solver_correctness():
    class Exp:
        @taped
        def eval(self, h, t):
            return add(h, Tensor(np.zeros(h.shape)))

    class Scalar:
        def __init__(self, a):
            self.a = a

        @taped
        def eval(self, h, t):
            return tg.lincomb((self.a,), (h,))

    sol = integrate(Exp(), Tensor([1.0]), 0.0, [1.0], cfg=SOLVER)
    exp_err = abs(sol.states[-1].item() - np.e)

    slopes = {}
    for method in ("euler", "rk4"):
        errs, hs = [], [0.2, 0.1, 0.05, 0.025]
        for h in hs:
            cfg = SolverConfig(method=method, fixed_step=h)
            s = integrate(Exp(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
            errs.append(abs(s.states[-1].item() - np.e))
        slopes[method] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    identity_ok = True
    for a in (0.5, 2.0, -3.0, 8.0):
        s = integrate(Scalar(a), Tensor([1.0]), 0.0, [1.0], cfg=SOLVER)
        if s.nfe != 1 + 6 * (s.steps_accepted + s.steps_rejected):
            identity_ok = False

    ok = (exp_err < 3e-3 and abs(slopes["rk4"] - 4.0) < 0.3
          and abs(slopes["euler"] - 1.0) < 0.2 and identity_ok)
    report("A8", ok, f"exp error {exp_err:.2e} (< 3e-3); slopes rk4 "
                     f"{slopes['rk4']:.2f} (4.0±0.3), euler "
                     f"{slopes['euler']:.2f} (1.0±0.2); NFE identity "
                     f"{'exact' if identity_ok else 'violated'}")


def test_a09_gradient_correctness():
    """Gradients are taken through the executed solver arithmetic, so the
    check uses a fixed-step method where the discrete computation is a smooth
    function of the parameters (adaptive step selection is detached and not
    differentiated, which finite differences cannot see past).  Two RK4 steps
    keep the composition short, which limits both ReLU-kink crossings inside
    the difference window and accumulated roundoff in the probes; eps is
    chosen to balance those two error sources."""
    cfg = SolverConfig(method="rk4", fixed_step=0.5)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        model = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8,
                                output_dim=1), seed=seed)
        x = rng.uniform(-1, 1, size=(10, 2))
        y = rng.choice([-1.0, 1.0], size=(10, 1))

        def loss_fn():
            out, _ = node_forward(model, Tensor(x), cfg)
            return tg.mse(out, y)

        worst = max(worst, grad_check(loss_fn, model.params, eps=5e-6))
    report("A9", worst < 1e-4,
           f"max relative gradient error over 20 seeds: {worst:.2e} (< 1e-4)")


def test_a10_mnist_mini():
    files = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    if not all((MNIST_DIR / f).exists() for f in files):
        print(f"\nA10: SKIP — MNIST IDX files not present under {MNIST_DIR}; "
              "place the four uncompressed files there to enable this "
              "criterion (no network access in the test environment)")
        pytest.skip("MNIST data not available")

    t0 = time.perf_counter()
    train_set = load_idx(MNIST_DIR / files[0], MNIST_DIR / files[1],
                         limit=2000, class_filter={0, 1})
    test_set = load_idx(MNIST_DIR / files[2], MNIST_DIR / files[3],
                        limit=500, class_filter={0, 1})
    ka, kn = match_conv_filters(6, 1, 32, 2)
    na = param_count(ModelSpec(kind="anode", input_dim=1, p=5, hidden_dim=ka,
                               output_dim=2, conv=True))
    nn = param_count(ModelSpec(kind="node", input_dim=1, hidden_dim=kn,
                               output_dim=2, conv=True))
    assert abs(na - nn) / nn <= 0.02

    first_hit = {"node": [], "anode": []}
    accs = []
    for seed in range(3):
        for kind, k, p in (("anode", ka, 5), ("node", kn, 0)):
            model = Model(ModelSpec(kind=kind, input_dim=1, p=p, hidden_dim=k,
                                    output_dim=2, conv=True), seed=seed)
            cfg = TrainConfig(lr=1e-3, batch_size=64, epochs=3, seed=seed,
                              solver=SOLVER)
            rec = fit(model, train_set, test_set, cfg)
            assert rec.error is None, rec.error
            losses = rec.metric("train_loss")
            hit = np.argmax(losses <= 0.1) if np.any(losses <= 0.1) else np.inf
            first_hit[kind].append(hit)
            if kind == "anode":
                accs.append(rec.epochs[-1].val_acc)
    med_a, med_n = np.median(first_hit["anode"]), np.median(first_hit["node"])
    acc = float(np.median(accs))
    elapsed = time.perf_counter() - t0
    ok = med_a <= med_n and acc >= 0.95 and elapsed < 900.0
    report("A10", ok, f"epochs to train loss 0.1 (median of 3 seeds): anode "
                      f"{med_a} <= node {med_n}; anode test accuracy {acc:.3f}"
                      f" (>= 0.95); total {elapsed:.0f}s (< 900s)")


def test_a11_p0_degeneracy():
    ds = gen_g1d(32, seed=0)
    cfg = TrainConfig(lr=1e-3, batch_size=16, epochs=5, seed=0, solver=SOLVER)
    recs, models = {}, {}
    for kind in ("node", "anode"):
        models[kind] = Model(ModelSpec(kind=kind, input_dim=1, p=0, hidden_dim=16,
                                       output_dim=1), seed=0)
        recs[kind] = fit(models[kind], ds, ds, cfg)
    rows_equal = (recs["node"].deterministic_rows()
                  == recs["anode"].deterministic_rows())
    params_equal = all(np.array_equal(t.data, models["anode"].params[k].data)
                       for k, t in models["node"].params.items())
    ok = rows_equal and params_equal
    report("A11", ok, f"bitwise identical records: metric rows "
                      f"{'match' if rows_equal else 'differ'}, final "
                      f"parameters {'match' if params_equal else 'differ'}")


def test_a12_sweep_consistency():
    dataset = gen_concentric(SphereAnnulusConfig(d=1, n_inner=150,
                                                 n_outer=300, seed=0))
    grid = {"batch_size": [64, 128], "lr": [1e-3, 5e-4, 1e-4],
            "hidden": [16, 32], "aug": [1, 2, 5]}

    def spec(cell):
        return ModelSpec(kind="anode", input_dim=1, p=cell["aug"],
                         hidden_dim=cell["hidden"], output_dim=1)

    results = grid_search(grid, spec, dataset, 3,
                          TrainConfig(epochs=5, seed=0, solver=SOLVER))
    assert len(results) == 36
    best = results[0]
    ref_cell = {"batch_size": 64, "lr": 1e-3, "hidden": 32, "aug": 5}
    ref = next(r for r in results if r.cell == ref_cell)
    ok = (best.error is None and ref.error is None
          and ref.mean_val_loss <= 1.1 * best.mean_val_loss)
    report("A12", ok, f"reference cell (batch 64, lr 1e-3, hidden 32, aug 5) "
                      f"val loss {ref.mean_val_loss:.4f} within 10% of best "
                      f"cell {best.cell} at {best.mean_val_loss:.4f}")
