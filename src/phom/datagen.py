"""Seeded generators for the demo pipelines.

Everything here is deterministic given its parameters and seed; the
numpy Generator API keeps streams stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def _finite(**params) -> None:
    """ParameterError naming the first parameter with a nan or inf."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def diffusion_stability_ratio(coeff: float, dt: float, dx: float,
                              dy: float) -> float:
    return coeff * dt * (1.0 / dx ** 2 + 1.0 / dy ** 2)


def gen_diffusion_field(n: int = 32, coeff: float = 0.5, steps: int = 50,
                        dt: float = 0.2, dx: float = 1.0, dy: float = 1.0,
                        seed: int = 0) -> np.ndarray:
    """Explicit finite-difference heat flow from uniform random noise.

    Starts from U(0, 1) samples on an n x n grid and runs `steps`
    forward-Euler updates with zero-flux (mirrored) borders.  Small
    coefficients leave the texture granular, large ones smooth it out.
    The spatial mean is conserved to roundoff and the variance never
    increases.

    Raises ParameterError when coeff*dt*(1/dx^2 + 1/dy^2) > 1/2 (the
    explicit scheme's stability bound).
    """
    if n < 2:
        raise ParameterError("grid side must be at least 2")
    _finite(coeff=coeff, dt=dt, dx=dx, dy=dy)
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    if coeff < 0:
        raise ParameterError("diffusion coefficient must be non-negative")
    if dt <= 0 or dx <= 0 or dy <= 0:
        raise ParameterError("dt, dx and dy must be positive")
    ratio = diffusion_stability_ratio(coeff, dt, dx, dy)
    if ratio > 0.5:
        raise ParameterError(
            f"unstable parameters: coeff*dt*(1/dx^2+1/dy^2) = {ratio:.6g} "
            "exceeds 1/2")
    u = _rng(seed).uniform(0.0, 1.0, size=(n, n))
    for _ in range(steps):
        p = np.pad(u, 1, mode="edge")
        lap = ((p[2:, 1:-1] - 2.0 * u + p[:-2, 1:-1]) / dx ** 2
               + (p[1:-1, 2:] - 2.0 * u + p[1:-1, :-2]) / dy ** 2)
        u = u + dt * coeff * lap
    return u


@dataclass(frozen=True)
class Perturbation:
    """A localized change of a periodic pair on samples [start, end).

    kind "shift" adds `magnitude` to both channels; "scale" multiplies
    both by (1 + magnitude).
    """

    kind: str
    magnitude: float
    start: int
    end: int

    def __post_init__(self):
        if self.kind not in ("shift", "scale"):
            raise ParameterError(f"unknown perturbation kind {self.kind!r}")
        if not (0 <= self.start <= self.end):
            raise ParameterError("perturbation window is inverted")
        _finite(magnitude=self.magnitude)


def gen_periodic_pair(n_samples: int = 256, amplitude: float = 1.0,
                      frequency: float = 1.0 / 64.0,
                      perturbation: Perturbation | None = None,
                      noise_sigma: float = 0.0,
                      seed: int = 0) -> np.ndarray:
    """Quadrature sinusoid pair sampled at integer times.

    Returns an (n_samples, 2) array with columns
    amplitude*sin(2*pi*frequency*t) and amplitude*cos(2*pi*frequency*t);
    the clean phase plane is a circle of radius `amplitude`.  Optional
    perturbation and additive Gaussian noise come last, in that order.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be positive")
    _finite(amplitude=amplitude, frequency=frequency, noise_sigma=noise_sigma)
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be non-negative")
    t = np.arange(n_samples, dtype=np.float64)
    phase = 2.0 * math.pi * frequency * t
    out = np.column_stack([amplitude * np.sin(phase),
                           amplitude * np.cos(phase)])
    if perturbation is not None:
        s = slice(perturbation.start, min(perturbation.end, n_samples))
        if perturbation.kind == "shift":
            out[s] += perturbation.magnitude
        else:
            out[s] *= 1.0 + perturbation.magnitude
    if noise_sigma > 0:
        out = out + _rng(seed).normal(0.0, noise_sigma, size=out.shape)
    return out


def sliding_windows(series: np.ndarray, window: int,
                    stride: int) -> list[np.ndarray]:
    """Cut a series into overlapping windows.

    Produces floor((len - window) / stride) + 1 views, each of `window`
    consecutive rows.
    """
    arr = np.asarray(series, dtype=np.float64)
    n = arr.shape[0]
    if window < 1 or window > n:
        raise ParameterError(f"window must be in [1, {n}]")
    if stride < 1:
        raise ParameterError("stride must be positive")
    count = (n - window) // stride + 1
    return [arr[k * stride:k * stride + window] for k in range(count)]


def sample_annulus(n: int, radius: float = 1.0, noise: float = 0.0,
                   seed: int = 0) -> np.ndarray:
    """Points on a circle with radial Gaussian jitter (one loop)."""
    if n < 1:
        raise ParameterError("n must be positive")
    _finite(radius=radius, noise=noise)
    if radius <= 0:
        raise ParameterError("radius must be positive")
    if noise < 0:
        raise ParameterError("noise must be non-negative")
    rng = _rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    r = radius + (rng.normal(0.0, noise, n) if noise > 0 else 0.0)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def sample_double_annulus(n: int, radii: tuple[float, float] = (1.0, 1.0),
                          separation: float = 1.2, noise: float = 0.0,
                          seed: int = 0) -> np.ndarray:
    """Two jittered circles with centres `separation` apart (two loops).

    The default separation keeps the circles overlapping.  The first
    ceil(n/2) points go to the left circle.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    r1, r2 = float(radii[0]), float(radii[1])
    _finite(radii=(r1, r2), separation=separation, noise=noise)
    if r1 <= 0 or r2 <= 0:
        raise ParameterError("radii must be positive")
    if noise < 0:
        raise ParameterError("noise must be non-negative")
    rng = _rng(seed)
    n1 = (n + 1) // 2
    n2 = n - n1
    cx = separation / 2.0
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    rad = np.concatenate([np.full(n1, r1), np.full(n2, r2)])
    if noise > 0:
        rad = rad + rng.normal(0.0, noise, n)
    centers = np.concatenate([np.full(n1, -cx), np.full(n2, cx)])
    return np.column_stack([centers + rad * np.cos(theta),
                            rad * np.sin(theta)])


@dataclass(frozen=True)
class KdeField:
    """A KDE evaluated on a regular grid.

    values[iy, ix] is the density at the centre of cell (ix, iy); the x
    axis is the fast one, matching the cubical grid layout.
    """

    values: np.ndarray
    extent: tuple[float, float, float, float]
    bandwidth: tuple[float, float]

    @property
    def cell_area(self) -> float:
        x0, x1, y0, y1 = self.extent
        ny, nx = self.values.shape
        return ((x1 - x0) / nx) * ((y1 - y0) / ny)


def kde_grid(points: np.ndarray, resolution: int = 64,
             bandwidth: "float | tuple[float, float] | None" = None,
             pad_sigmas: float = 3.0) -> KdeField:
    """Gaussian kernel density of a 2-d cloud on a square grid.

    The default bandwidth is Scott's rule for two dimensions,
    n**(-1/6) times the per-axis sample standard deviation.  The grid
    covers the cloud's bounding box padded by `pad_sigmas` bandwidths,
    evaluated at cell centres; sum * cell_area approaches 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ParameterError("kde_grid needs an (n, 2) point array")
    if resolution < 2:
        raise ParameterError("resolution must be at least 2")
    n = pts.shape[0]
    if bandwidth is None:
        std = pts.std(axis=0, ddof=1) if n > 1 else np.array([1.0, 1.0])
        h = n ** (-1.0 / 6.0) * std
        h = np.where(np.isfinite(h) & (h > 0), h, 1.0)
        hx, hy = float(h[0]), float(h[1])
    elif np.isscalar(bandwidth):
        hx = hy = float(bandwidth)
    else:
        hx, hy = float(bandwidth[0]), float(bandwidth[1])
    _finite(bandwidth=(hx, hy))
    if hx <= 0 or hy <= 0:
        raise ParameterError("bandwidth must be positive")

    x0 = pts[:, 0].min() - pad_sigmas * hx
    x1 = pts[:, 0].max() + pad_sigmas * hx
    y0 = pts[:, 1].min() - pad_sigmas * hy
    y1 = pts[:, 1].max() + pad_sigmas * hy
    xc = x0 + ((np.arange(resolution) + 0.5) / resolution) * (x1 - x0)
    yc = y0 + ((np.arange(resolution) + 0.5) / resolution) * (y1 - y0)

    gx = np.exp(-0.5 * ((xc[None, :] - pts[:, 0, None]) / hx) ** 2)
    gy = np.exp(-0.5 * ((yc[None, :] - pts[:, 1, None]) / hy) ** 2)
    norm = 1.0 / (n * 2.0 * math.pi * hx * hy)
    values = norm * np.einsum("py,px->yx", gy, gx)
    return KdeField(values, (float(x0), float(x1), float(y0), float(y1)),
                    (hx, hy))
