"""Tiny dependency-free SVG emitters for line, scatter and vector-field plots.

Decorative output only; CSVs are the ground truth.
"""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class _Canvas:
    width, height, margin = 640, 480, 50

    def __init__(self):
        self.parts = []

    def set_limits(self, xlim, ylim):
        self.xlim = xlim
        self.ylim = ylim

    def to_px(self, x, y):
        m, w, h = self.margin, self.width, self.height
        (x0, x1), (y0, y1) = self.xlim, self.ylim
        sx = (w - 2 * m) / max(x1 - x0, 1e-12)
        sy = (h - 2 * m) / max(y1 - y0, 1e-12)
        # m + (x - x0) * sx and h - m - (y - y0) * sy, with the same bits
        # (a sum's order does not change it, nor does negating a product),
        # done in place so an array input costs one new array per axis
        px = np.subtract(x, x0)
        px *= sx
        px += m
        py = np.subtract(y, y0)
        py *= -sy
        py += h - m
        return px, py

    @staticmethod
    def polyline_template(points, color):
        """A polyline element whose points attribute is the % template
        points, for each polyline's pixels to be filled in with one %."""
        return (f'<polyline points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>')

    def polyline(self, pxs, pys, color):
        """One polyline through pixel coordinates, as to_px returns them."""
        xy = np.column_stack((pxs, pys))
        self.parts.append(self.polyline_template(("%.2f,%.2f " * len(xy))[:-1], color)
                          % tuple(xy.ravel().tolist()))

    def circle(self, px, py, color):
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.0" '
                          f'fill="{color}"/>')

    def segment(self, x0, y0, x1, y1, color):
        p0 = self.to_px(x0, y0)
        p1 = self.to_px(x1, y1)
        self.parts.append(f'<line x1="{p0[0]:.2f}" y1="{p0[1]:.2f}" '
                          f'x2="{p1[0]:.2f}" y2="{p1[1]:.2f}" '
                          f'stroke="{color}" stroke-width="1.0"/>')

    def text(self, s, x, y):
        self.parts.append(f'<text x="{x}" y="{y}" font-size="13" '
                          f'font-family="sans-serif">{s}</text>')

    def write(self, path, title=""):
        if title:
            self.text(title, self.margin, 20)
        body = "\n".join(self.parts)
        with open(path, "w") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{self.width}" height="{self.height}">\n'
                     f'<rect width="100%" height="100%" fill="white"/>\n'
                     f"{body}\n</svg>\n")


def _limits(arrs):
    # no values at all (a record of no epochs) give an empty plot around 0
    lo = min((float(np.min(a)) for a in arrs if np.size(a)), default=0.0)
    hi = max((float(np.max(a)) for a in arrs if np.size(a)), default=0.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def line_plot(path, series: dict[str, tuple[np.ndarray, np.ndarray]],
              title: str = "") -> None:
    """series: name -> (x, y) arrays; one colored polyline each."""
    c = _Canvas()
    xs = [np.asarray(v[0], dtype=float) for v in series.values()]
    ys = [np.asarray(v[1], dtype=float) for v in series.values()]
    c.set_limits(_limits(xs), _limits(ys))
    for i, (name, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        c.polyline(*c.to_px(np.asarray(x, float), np.asarray(y, float)), color)
        c.text(name, c.width - c.margin - 120, c.margin + 16 * i)
    c.write(path, title)


def trajectory_plot(path, states: np.ndarray, labels: np.ndarray,
                    title: str = "") -> None:
    """states: (n_points, n_times, dim).  1-d states are drawn against time;
    higher dimensions use the first two state coordinates."""
    c = _Canvas()
    n_pts, n_times, dim = states.shape
    # to_px maps every point of the plot at once: the same float64
    # operations per element as point by point, so the same pixels
    if dim == 1:
        t = np.linspace(0.0, 1.0, n_times)
        c.set_limits(_limits([t]), _limits([states[:, :, 0]]))
        px, py = c.to_px(t, states[:, :, 0])
        # every polyline shares the time axis: its x pixels are formatted
        # once, and only each point's y pixels are left as placeholders
        points = " ".join([f"{x:.2f},%.2f" for x in px.tolist()])
        pixels = py
    else:
        c.set_limits(_limits([states[:, :, 0]]), _limits([states[:, :, 1]]))
        px, py = c.to_px(states[:, :, 0], states[:, :, 1])
        points = ("%.2f,%.2f " * n_times)[:-1]
        pixels = np.stack((px, py), axis=-1)  # every point's x, y interleaved
    lines = {color: c.polyline_template(points, color) for color in _COLORS[:2]}
    for i in range(n_pts):
        color = _COLORS[0] if labels[i] > 0 else _COLORS[1]
        c.parts.append(lines[color] % tuple(pixels[i].ravel().tolist()))
        if dim > 1:
            c.circle(px[i, 0], py[i, 0], color)
    # free the pixel arrays before write() joins the document: held, they
    # raise the export's peak RSS by more than their size
    del px, py, pixels
    c.write(path, title)


def field_plot(path, points: np.ndarray, vectors: np.ndarray,
               title: str = "") -> None:
    """Arrows (plain segments) for a 2-d vector field sample, each 0.15 of
    the plot's units at the sample's largest norm."""
    c = _Canvas()
    c.set_limits(_limits([points[:, 0]]), _limits([points[:, 1]]))
    norm = np.max(np.linalg.norm(vectors, axis=1)) or 1.0
    for (x, y), (u, v) in zip(points, vectors):
        c.segment(x, y, x + 0.15 * u / norm, y + 0.15 * v / norm, _COLORS[0])
    c.write(path, title)
