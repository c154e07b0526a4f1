"""Persistence images: diagrams rasterized to fixed-size pixel grids.

Each diagram point (b, d) maps to (b, d - b) in birth/persistence
coordinates and deposits a Gaussian of mass w(u) there.  Pixel values
are closed-form integrals of that surface over the pixel rectangle
(products of normal CDF differences per axis), not centre samples.

The normal CDF is `_ndtr`, a numpy port of the Cephes `ndtr`, `erf` and
`erfc` (Stephen L. Moshier, Cephes Math Library 2.x) that scipy ships as
`scipy.special.ndtr`; the coefficients below are Cephes' own.  The port
gives the same bits as scipy, so images do not change, and it spares
`phom vectorize` the import of `scipy.special` for one function (about
0.35 s and 22 MB of a cold start on a 2-CPU VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .persistence import PersistenceDiagram
from .simplicial import _BLOCK_ENTRIES

Support = tuple[tuple[float, float], tuple[float, float]]

# erfc on [1, 8) is exp(-x^2) P(x)/Q(x), on [8, inf) exp(-x^2) R(x)/S(x);
# erf on [0, 1) is x T(x^2)/U(x^2).  Q, S and U have an implied leading 1.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2


def _horner(x: np.ndarray, y, coefs) -> np.ndarray:
    """Cephes polevl (y = c0) or p1evl (y = x + c0) over the remaining
    coefficients; numpy never fuses the multiply and the add."""
    for c in coefs:
        y = y * x + c
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of a float array without nan, bit-equal to
    scipy.special.ndtr."""
    x = a * 0.70710678118654752440
    z = np.abs(x)
    y = np.zeros_like(x)  # where 0.5 * erfc(z) underflows
    small = z < 1.0
    s = x[small]
    y[small] = 0.5 + 0.5 * (s * _horner(s * s, _T[0], _T[1:])
                            / _horner(s * s, s * s + _U[0], _U[1:]))
    with np.errstate(over="ignore"):
        mid = ~small & (-z * z >= -_MAXLOG)
    m = z[mid]
    # math.exp is the C library's exp, as in scipy; np.exp's SIMD loop
    # differs in the last bit on about 1% of arguments.
    e = np.fromiter(map(math.exp, (-m * m).tolist()), float, m.size)
    hi = m >= 8.0
    p = np.where(hi, _horner(m, _R[0], _R[1:]), _horner(m, _P[0], _P[1:]))
    q = np.where(hi, _horner(m, m + _S[0], _S[1:]),
                 _horner(m, m + _Q[0], _Q[1:]))
    y[mid] = 0.5 * (e * p / q)
    up = ~small & (x > 0)
    y[up] = 1.0 - y[up]
    return y


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
    keep = pd.dims == dim
    if essentials == "skip":
        keep &= np.isfinite(pd.deaths)
    births, deaths = pd.births[keep], pd.deaths[keep]
    if essentials == "cap":
        deaths = np.where(np.isinf(deaths), float(cap), deaths)
    return np.column_stack((births, deaths - births))


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
    if dim < 0:
        raise ParameterError(f"dim must be >= 0, got {dim}")
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
    if pts.size:
        lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    if support is None:
        if pts.size:
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
    # (edges - b) / sigma below would overflow.
    if pts.size and not math.isfinite(
            max(b1 - lo[0], hi[0] - b0, p1 - lo[1], hi[1] - p0) / sigma):
        raise ParameterError("--sigma is too small for the distance from "
                             "the points to the support edges")

    xedges = np.linspace(b0, b1, nb + 1)
    yedges = np.linspace(p0, p1, npers + 1)
    births, pers = pts.T
    if weight == "constant":
        w = np.ones_like(pers)
    else:  # clipped before the division, which then cannot overflow
        w = (np.minimum(np.maximum(pers, 0.0), p1) / p1 if p1 > 0
             else np.zeros_like(pers))
    births, pers, w = births[w != 0.0], pers[w != 0.0], w[w != 0.0]
    pixels = np.zeros((nb, npers))
    step = max(1, _BLOCK_ENTRIES // (nb * npers))
    for s in range(0, w.size, step):
        blk = slice(s, s + step)
        wx = np.diff(_ndtr((xedges - births[blk, None]) / sigma), axis=1)
        wy = np.diff(_ndtr((yedges - pers[blk, None]) / sigma), axis=1)
        terms = w[blk, None, None] * (wx[:, :, None] * wy[:, None, :])
        # numpy reduces axis 0 of a C-contiguous array one row after the
        # other, so the sum adds the terms in point order, as a loop would.
        terms[0] += pixels
        pixels = terms.sum(axis=0)
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
