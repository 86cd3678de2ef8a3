"""Span tracer for the traced benchmark run.

It wraps the public functions of each anodelab layer from the outside,
without touching the program: every wrapper records a span (name, start,
end, parent) in flat in-memory arrays and bumps the counters measured at
that boundary.  At the end the spans are written out, self time is computed
as a span minus its children, and the per-layer metrics are derived.

A wrapper is installed under the name its caller actually looks up:
``models`` imports ``integrate`` by name and ``train`` imports ``backward``
and ``node_forward`` by name, so those are patched in the importing module,
while ``expcli`` calls through the ``mdl.``/``trn.``/``dat.``/``svg.``
module attributes, which are patched in the defining module.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = ("tensorgrad", "odeint", "models", "data", "train", "expcli")


@dataclass(frozen=True)
class Site:
    """One patched name: ``module.owner.attr`` recorded as span ``span``."""

    site: str           # "<module>[.<Class>].<attr>", as the caller names it
    span: str           # "<layer>.<what>"
    artifact: bool = False


SITES = (
    Site("expcli.main", "expcli.main"),
    Site("expcli.write_manifest", "expcli.write_manifest", artifact=True),
    Site("expcli.write_csv", "expcli.write_csv", artifact=True),
    Site("expcli.write_flow_csv", "expcli.write_flow_csv", artifact=True),
    Site("expcli.write_record_csvs", "expcli.write_record_csvs", artifact=True),
    Site("expcli.save_checkpoint", "expcli.save_checkpoint", artifact=True),
    Site("svg.line_plot", "expcli.svg_line_plot", artifact=True),
    Site("svg.trajectory_plot", "expcli.svg_trajectory_plot", artifact=True),
    Site("train.fit", "train.fit"),
    Site("train.evaluate", "train.evaluate"),
    Site("train.adam_step", "train.adam_step"),
    Site("train.node_forward", "models.node_forward"),
    Site("train.backward", "tensorgrad.backward"),
    Site("models.node_forward", "models.node_forward"),
    Site("models.flow_trajectory", "models.flow_trajectory"),
    Site("models.vector_field", "models.vector_field"),
    Site("models.match_conv_filters", "models.match_conv_filters"),
    Site("models.MlpDynamics.eval", "models.dynamics_eval"),
    Site("models.ConvDynamics.eval", "models.dynamics_eval"),
    Site("models.integrate", "odeint.integrate"),
    Site("tensorgrad.conv2d", "tensorgrad.conv2d"),
    Site("data.gen_g1d", "data.gen_g1d"),
    Site("data.gen_concentric", "data.gen_concentric"),
    Site("data.angular_split", "data.angular_split"),
    Site("data.write_idx", "data.write_idx"),
    Site("data.load_idx", "data.load_idx"),
)

# Per-layer metrics and the wrapper sites each is derived from.  A metric
# whose site was expected on the workload but never fired is left out of
# the result, so a rename in the program shows as a missing metric.
METRIC_SITES = {
    "tensorgrad.tape_nodes_per_step": ("train.backward",),
    "tensorgrad.tape_mb_per_step": ("train.backward",),
    "tensorgrad.backward_s": ("train.backward",),
    "tensorgrad.backward_us_per_node": ("train.backward",),
    "tensorgrad.gc_gen2_collections": (),
    "tensorgrad.gc_pause_s": (),
    "tensorgrad.conv2d_fwd_s": ("tensorgrad.conv2d",),
    "odeint.nfe_total": ("models.integrate",),
    "odeint.steps_accepted": ("models.integrate",),
    "odeint.steps_rejected": ("models.integrate",),
    "odeint.accept_ratio": ("models.integrate",),
    "odeint.us_per_step": ("models.integrate",),
    "models.dynamics_evals": ("models.MlpDynamics.eval", "models.ConvDynamics.eval"),
    "models.eval_us_taped": ("models.MlpDynamics.eval", "models.ConvDynamics.eval"),
    "models.eval_us_notape": ("models.MlpDynamics.eval", "models.ConvDynamics.eval"),
    "train.forward_s": ("train.node_forward",),
    "train.backward_s": ("train.backward",),
    "train.adam_s": ("train.adam_step",),
    "train.adam_us_per_step": ("train.adam_step",),
    "train.eval_s": ("train.evaluate",),
    "train.steps": ("train.adam_step",),
    "train.skipped_batches": ("train.fit",),
    "data.gen_s": ("data.gen_g1d", "data.gen_concentric",
                   "data.angular_split", "data.write_idx"),
    "data.load_idx_s": ("data.load_idx",),
    "data.load_idx_mb_per_s": ("data.load_idx",),
    "expcli.artifact_s": tuple(s.site for s in SITES if s.artifact),
}
for _layer in LAYERS:
    METRIC_SITES[f"{_layer}.self_s"] = ()


class Tracer:
    """Span recorder plus the wrappers that feed it.  ``install`` patches the
    program, ``uninstall`` restores it, ``metrics`` derives the results."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.taped = array("b")
        self._stack: list[int] = []
        self.fired: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.c = dict.fromkeys((
            "backward_calls", "tape_nodes", "tape_bytes", "adam_steps",
            "skipped_batches", "nfe", "accepted", "rejected",
            "dopri5_solves", "nfe_identity_violations", "idx_bytes",
            "gc_gen2", "gc_pause_s", "tape_unmeasured"), 0)
        self._gc_t0 = 0.0

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.taped.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- patching ------------------------------------------------------
    def install(self, modules: dict[str, object]) -> None:
        from anodelab import tensorgrad
        active = tensorgrad.active_graph
        hooks = {
            "train.backward": (self._before_backward, None),
            "train.adam_step": (None, self._after_adam),
            "train.fit": (None, self._after_fit),
            "data.load_idx": (self._before_load_idx, None),
        }
        for site in SITES:
            mod, *path = site.site.split(".")
            owner = modules[mod]
            for part in path[:-1]:
                owner = getattr(owner, part)
            if site.site == "models.integrate":
                before, after = None, self._integrate_hook(getattr(owner, path[-1]))
            elif site.span in ("models.dynamics_eval", "models.node_forward"):
                before, after = (lambda a, k: active() is not None), None
            else:
                before, after = hooks.get(site.site, (None, None))
            self._patch(owner, path[-1], site, before, after)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr: str, site: Site, before, after) -> None:
        orig = getattr(owner, attr)
        fired = self.fired
        fired[site.site] = 0
        span = site.span

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            fired[site.site] += 1
            ctx = before(args, kwargs) if before is not None else None
            idx = self._open(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if ctx is True:
                self.taped[idx] = 1
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    # -- counters at the boundaries -------------------------------------
    def _before_backward(self, args, kwargs):
        graph = args[0] if args else kwargs["graph"]
        self.c["backward_calls"] += 1
        self.c["tape_nodes"] += len(graph)
        try:  # tape internals: if they change, the byte count goes missing
            self.c["tape_bytes"] += sum(n.tensor.data.nbytes for n in graph.nodes)
        except AttributeError:
            self.c["tape_unmeasured"] += 1
        return None

    def _after_adam(self, args, kwargs, result):
        self.c["adam_steps"] += 1

    def _after_fit(self, args, kwargs, record):
        self.c["skipped_batches"] += record.metadata.get("skipped_batches", 0)

    def _before_load_idx(self, args, kwargs):
        for p in args[:2]:
            self.c["idx_bytes"] += os.path.getsize(p)
        return None

    def _integrate_hook(self, orig):
        sig = inspect.signature(orig)
        c = self.c

        def after(args, kwargs, sol):
            c["nfe"] += sol.nfe
            c["accepted"] += sol.steps_accepted
            c["rejected"] += sol.steps_rejected
            cfg = sig.bind(*args, **kwargs).arguments.get("cfg")
            if (cfg is None or cfg.method == "dopri5") and sol.nfe > 0:
                c["dopri5_solves"] += 1
                if sol.nfe != 1 + 6 * (sol.steps_accepted + sol.steps_rejected):
                    c["nfe_identity_violations"] += 1
        return after

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            if info.get("generation") == 2:
                self.c["gc_gen2"] += 1
        else:
            self.c["gc_pause_s"] += time.perf_counter() - self._gc_t0

    # -- results ---------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        return dict(self.c)

    def unfired(self, expected: frozenset[str]) -> list[str]:
        return sorted(s for s in expected if self.fired.get(s, 0) == 0)

    def write_spans(self, path: Path) -> None:
        dur, self_t = self._durations()
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,self_s,taped\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self._names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self_t[i]:.9f},{self.taped[i]}\n")

    def _durations(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def metrics(self, expected: frozenset[str]) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        dur, self_t = self._durations()
        names = np.array(self._names, dtype=object)[
            np.frombuffer(self.name_id, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        taped = np.frombuffer(self.taped, dtype=np.int8).astype(bool)

        def total(name, mask=None):
            sel = names == name
            if mask is not None:
                sel &= mask
            return float(dur[sel].sum())

        parent_names = np.where(parent >= 0, names[np.maximum(parent, 0)], "")
        in_fit = parent_names == "train.fit"
        layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
        artifact_spans = {s.span for s in SITES if s.artifact}
        is_art = np.isin(names, list(artifact_spans))
        outer_art = 0.0
        for i in np.flatnonzero(is_art):
            p = parent[i]
            while p >= 0 and not is_art[p]:
                p = parent[p]
            if p < 0:
                outer_art += dur[i]

        c = self.c
        steps = c["accepted"] + c["rejected"]
        evals = names == "models.dynamics_eval"
        n_taped = int((evals & taped).sum())
        n_notape = int((evals & ~taped).sum())
        bwd = total("tensorgrad.backward")
        adam = total("train.adam_step")
        load = total("data.load_idx")
        out = {
            "tensorgrad.tape_nodes_per_step": _ratio(c["tape_nodes"], c["backward_calls"]),
            "tensorgrad.tape_mb_per_step": _ratio(c["tape_bytes"] / 1e6, c["backward_calls"]),
            "tensorgrad.backward_s": bwd,
            "tensorgrad.backward_us_per_node": _ratio(bwd * 1e6, c["tape_nodes"]),
            "tensorgrad.gc_gen2_collections": c["gc_gen2"],
            "tensorgrad.gc_pause_s": c["gc_pause_s"],
            "tensorgrad.conv2d_fwd_s": total("tensorgrad.conv2d"),
            "odeint.nfe_total": c["nfe"],
            "odeint.steps_accepted": c["accepted"],
            "odeint.steps_rejected": c["rejected"],
            "odeint.accept_ratio": _ratio(c["accepted"], steps),
            "odeint.us_per_step": _ratio(total("odeint.integrate") * 1e6, steps),
            "models.dynamics_evals": int(evals.sum()),
            "models.eval_us_taped": _ratio(total("models.dynamics_eval", taped) * 1e6, n_taped),
            "models.eval_us_notape": _ratio(total("models.dynamics_eval", ~taped) * 1e6, n_notape),
            "train.forward_s": total("models.node_forward", taped),
            "train.backward_s": total("tensorgrad.backward", in_fit),
            "train.adam_s": adam,
            "train.adam_us_per_step": _ratio(adam * 1e6, c["adam_steps"]),
            "train.eval_s": total("train.evaluate"),
            "train.steps": c["adam_steps"],
            "train.skipped_batches": c["skipped_batches"],
            "data.gen_s": sum(total(n) for n in ("data.gen_g1d", "data.gen_concentric",
                                                  "data.angular_split", "data.write_idx")),
            "data.load_idx_s": load,
            "data.load_idx_mb_per_s": _ratio(c["idx_bytes"] / 1e6, load),
            "expcli.artifact_s": outer_art,
        }
        for lay in LAYERS:
            out[f"{lay}.self_s"] = float(self_t[layer == lay].sum())
        missing = set(self.unfired(expected))
        if c["tape_unmeasured"]:
            del out["tensorgrad.tape_mb_per_step"]
        return {k: v for k, v in out.items()
                if not missing.intersection(METRIC_SITES[k])}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no such work on the workload."""
    return float(num) / den if den else 0.0
