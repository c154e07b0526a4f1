"""Persistence images: diagrams rasterized to fixed-size pixel grids.

Each diagram point (b, d) maps to (b, d - b) in birth/persistence
coordinates and deposits a Gaussian of mass w(u) there.  Pixel values
are closed-form integrals of that surface over the pixel rectangle
(products of normal CDF differences per axis), not centre samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ParameterError
from .persistence import PersistenceDiagram

Support = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class PersistenceImage:
    """Pixel grid plus the parameters that produced it.

    pixels has shape (nb, np): first index runs along the birth axis,
    second along the persistence axis.  support is the covered rectangle
    ((birth_min, birth_max), (pers_min, pers_max)).
    """

    pixels: np.ndarray
    support: Support
    sigma: float
    weight: str

    @property
    def resolution(self) -> tuple[int, int]:
        return self.pixels.shape

    def l1_distance(self, other: "PersistenceImage") -> float:
        if self.pixels.shape != other.pixels.shape:
            raise ParameterError("persistence images differ in resolution")
        return float(np.abs(self.pixels - other.pixels).sum())

    def flat(self) -> np.ndarray:
        """Row-major vector: birth index outer, persistence index inner."""
        return self.pixels.reshape(-1)


def _transform_points(pd: PersistenceDiagram, dim: int,
                      essentials: str) -> np.ndarray:
    if essentials not in ("auto", "cap", "skip"):
        raise ParameterError(f"unknown essentials mode {essentials!r}")
    cap = pd.metadata.get("death_cap")
    if essentials == "cap" and cap is None:
        raise ParameterError(
            "essentials='cap' needs a death_cap metadata entry")
    if essentials == "auto":
        essentials = "cap" if cap is not None else "skip"
    out = []
    for d, b, dth in pd.points:
        if d != dim:
            continue
        if math.isinf(dth):
            if essentials == "skip":
                continue
            dth = float(cap)
        out.append((b, dth - b))
    return np.array(out, dtype=np.float64).reshape(-1, 2)


def persistence_image(pd: PersistenceDiagram, dim: int,
                      resolution: tuple[int, int] = (20, 20),
                      sigma: float | None = None,
                      support: Support | None = None,
                      weight: str = "linear",
                      essentials: str = "auto") -> PersistenceImage:
    """Rasterize one homology dimension of a diagram.

    Args:
        pd: the diagram.
        dim: homology dimension to take points from.
        resolution: (birth bins, persistence bins), both >= 1.
        sigma: Gaussian width; defaults to 5% of the largest persistence
            among the included points (1.0 when there are none).
        support: the (birth, persistence) rectangle to rasterize; the
            default is the tight bounding box of the transformed points
            padded by 3*sigma on every side.
        weight: "linear" scales each point by persistence relative to
            the support's top persistence edge (so the weight is zero on
            the diagonal and the image is additive across diagrams
            sharing a support); "constant" weighs every point 1.
        essentials: "cap" replaces infinite deaths with the diagram's
            death_cap metadata, "skip" drops them, "auto" caps when the
            metadata exists and skips otherwise.

    Pixel accumulation runs in diagram point order, so equal inputs give
    bit-equal images.
    """
    nb, npers = int(resolution[0]), int(resolution[1])
    if nb < 1 or npers < 1:
        raise ParameterError("resolution must be at least 1x1")
    if weight not in ("linear", "constant"):
        raise ParameterError(f"unknown weight {weight!r}")
    pts = _transform_points(pd, dim, essentials)
    if sigma is None:
        sigma = 0.05 * float(pts[:, 1].max()) if pts.size else 1.0
        if sigma <= 0:
            sigma = 1.0
    sigma = float(sigma)
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError("sigma must be finite and positive")
    if support is None:
        if pts.size:
            lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
            support = ((lo[0] - 3 * sigma, hi[0] + 3 * sigma),
                       (lo[1] - 3 * sigma, hi[1] + 3 * sigma))
        else:
            support = ((0.0, 1.0), (0.0, 1.0))
    (b0, b1), (p0, p1) = support
    # Python floats overflow to inf silently; an inf extent would fill
    # every pixel with nan.
    if not (math.isfinite(b1 - b0) and math.isfinite(p1 - p0)):
        raise ParameterError("support rectangle must be finite: give a "
                             "finite --range or a smaller --sigma")
    if not (b1 > b0 and p1 > p0):
        raise ParameterError("support rectangle must have positive extent")

    xedges = np.linspace(b0, b1, nb + 1)
    yedges = np.linspace(p0, p1, npers + 1)
    pixels = np.zeros((nb, npers))
    for b, pers in pts:
        if weight == "linear":
            w = min(max(pers / p1, 0.0), 1.0) if p1 > 0 else 0.0
        else:
            w = 1.0
        if w == 0.0:
            continue
        wx = np.diff(ndtr((xedges - b) / sigma))
        wy = np.diff(ndtr((yedges - pers) / sigma))
        pixels += w * np.outer(wx, wy)
    return PersistenceImage(pixels, ((float(b0), float(b1)),
                                     (float(p0), float(p1))),
                            sigma, weight)


def image_stability_constant(img: PersistenceImage) -> float:
    """Lipschitz bound: L1 image change per unit of 1-Wasserstein motion.

    Moving one unit mass by t in the L-infinity plane metric changes the
    deposited surface by at most (shift of a unit Gaussian) plus (change
    of the linear weight times unit mass):

        L = 4 / (sigma * sqrt(2*pi)) + 2 / p_top

    where p_top is the support's top persistence edge that normalizes
    the linear weight.  For constant weight the second term drops.
    """
    base = 4.0 / (img.sigma * math.sqrt(2.0 * math.pi))
    if img.weight == "linear":
        p_top = img.support[1][1]
        return base + 2.0 / p_top
    return base
