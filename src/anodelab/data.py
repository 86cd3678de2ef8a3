"""Synthetic dataset generators, angular train/val splitting, IDX image
loading, and minibatching.

All generators are pure functions of (config, seed): the same seed yields a
bitwise-identical dataset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class IdxFormatError(ValueError):
    """Malformed IDX file; message carries the byte offset of the problem."""


@dataclass
class LabeledSet:
    inputs: np.ndarray          # (n, ...) float64
    targets: np.ndarray         # (n,) float64 (+-1 regression) or int labels

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets length mismatch")

    def __len__(self) -> int:
        return len(self.inputs)

    def subset(self, idx: np.ndarray) -> "LabeledSet":
        return LabeledSet(self.inputs[idx], self.targets[idx])


# the paper's radii: inner ball ||x|| <= R1, annulus R2 <= ||x|| <= R3
R1, R2, R3 = 0.5, 1.0, 1.5


@dataclass
class SphereAnnulusConfig:
    d: int = 2
    n_inner: int = 1000
    n_outer: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or min(self.n_inner, self.n_outer) < 0:
            raise ValueError(f"need d >= 1 and n_inner, n_outer >= 0, got "
                             f"{self.d}, {self.n_inner}, {self.n_outer}")


def gen_g1d(n_per_class: int, seed: int = 0) -> LabeledSet:
    """1-d crossing task: points near -1 labeled +1, points near +1 labeled -1.

    Sampling from [-1, -0.5] and [0.5, 1] keeps the order obstruction (a
    non-crossing 1-d flow cannot swap the two intervals) without the noise of
    a two-point dataset."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    neg_side = rng.uniform(-1.0, -0.5, size=n_per_class)   # label +1
    pos_side = rng.uniform(0.5, 1.0, size=n_per_class)     # label -1
    x = np.concatenate([neg_side, pos_side])[:, None]
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return LabeledSet(x, y)


def _uniform_ball(rng, n: int, d: int, r_lo: float, r_hi: float) -> np.ndarray:
    """Uniform-in-volume samples from the shell r_lo <= ||x|| <= r_hi."""
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, size=n)
    r = (r_lo ** d + u * (r_hi ** d - r_lo ** d)) ** (1.0 / d)
    return v * r[:, None]


def gen_concentric(cfg: SphereAnnulusConfig) -> LabeledSet:
    """Inner ball (||x|| <= R1) labeled -1; annulus (R2 <= ||x|| <= R3)
    labeled +1; uniform in volume within each region."""
    rng = np.random.default_rng(cfg.seed)
    inner = _uniform_ball(rng, cfg.n_inner, cfg.d, 0.0, R1)
    outer = _uniform_ball(rng, cfg.n_outer, cfg.d, R2, R3)
    x = np.concatenate([inner, outer])
    y = np.concatenate([-np.ones(cfg.n_inner), np.ones(cfg.n_outer)])
    return LabeledSet(x, y)


def angular_split(dataset: LabeledSet, angle_lo: float,
                  angle_hi: float) -> tuple[LabeledSet, LabeledSet]:
    """Exact partition of a 2-d dataset: validation = points whose polar angle
    (atan2, normalized to [0, 2pi)) lies in [angle_lo, angle_hi)."""
    if dataset.inputs.ndim != 2 or dataset.inputs.shape[1] != 2:
        raise ValueError("angular_split needs 2-d inputs")
    if not (0.0 <= angle_lo < angle_hi <= 2.0 * np.pi):
        raise ValueError("need 0 <= angle_lo < angle_hi <= 2*pi")
    ang = np.arctan2(dataset.inputs[:, 1], dataset.inputs[:, 0])
    ang = np.mod(ang, 2.0 * np.pi)
    val_mask = (ang >= angle_lo) & (ang < angle_hi)
    return dataset.subset(~val_mask), dataset.subset(val_mask)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 array of an IDX file whose magic must be ``magic``; the
    magic's low byte is the number of dimensions."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 + 4 * (magic & 0xFF)
    if len(raw) < head:
        raise IdxFormatError(f"{path}: truncated header at byte {len(raw)}")
    found, *shape = struct.unpack(f">{head // 4}I", raw[:head])
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{found:08x} at byte 0")
    if 0 in shape[1:]:
        raise IdxFormatError(f"{path}: zero item size {shape[1:]} at byte 8")
    need = head + math.prod(shape)
    if len(raw) < need:
        raise IdxFormatError(f"{path}: truncated data at byte {len(raw)} "
                             f"(expected {need})")
    return np.frombuffer(raw, dtype=np.uint8, count=need - head,
                         offset=head).reshape(shape)


def write_idx(images_path, labels_path, images: np.ndarray,
              labels: np.ndarray) -> None:
    """Write uint8 images (n, rows, cols) and labels (n,) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())


def load_idx(images_path, labels_path, limit: int | None = None,
             class_filter: set[int] | None = None) -> LabeledSet:
    """Load an IDX image/label pair as (n, 1, rows, cols) floats in [0, 1].

    Samples keep file order; class_filter restricts to the listed labels and
    limit keeps the first matching samples."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    images = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"image count {len(images)} != label count {len(labels)}")
    if class_filter is not None:
        mask = np.isin(labels, sorted(class_filter))
        images, labels = images[mask], labels[mask]
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    x = images.astype(np.float64)[:, None, :, :] / 255.0
    return LabeledSet(x, labels.astype(np.int64))


def batches(dataset: LabeledSet, batch_size: int,
            shuffle_seed: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Minibatches covering the dataset exactly once; the last partial batch
    is kept.  A seed gives a deterministic shuffle, None keeps dataset order."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for start in range(0, len(dataset), batch_size):
        idx = order[start:start + batch_size]
        yield dataset.inputs[idx], dataset.targets[idx]
