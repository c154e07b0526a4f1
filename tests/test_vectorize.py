"""Persistence-image rasterization: mass, linearity, stability."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from phom import (
    ParameterError,
    PersistenceDiagram,
    image_persistence,
    image_stability_constant,
    persistence_image,
    wasserstein_distance,
)
from phom import vectorize
from phom.vectorize import _MAXLOG, _ndtr, _transform_points
from oracles import loop_image_pixels

# |a| where -z*z crosses -MAXLOG (z = |a| / sqrt(2)), and its neighbours.
_EDGE = math.sqrt(2 * _MAXLOG)
_NEAR_EDGE = [math.nextafter(_EDGE, 0.0), _EDGE,
              math.nextafter(_EDGE, math.inf)]


def diag(points, **meta):
    return PersistenceDiagram.from_points(points, metadata=dict(meta))


def test_single_point_unit_mass():
    d = diag([(1, 1.0, 3.0)])
    img = persistence_image(d, dim=1, resolution=(40, 40), sigma=0.1,
                            support=((0.0, 2.0), (1.0, 3.0)),
                            weight="constant")
    # Support covers (b, pers) = (1, 2) with +-6 sigma on each side, so
    # nearly all of the Gaussian mass lands inside.
    assert img.pixels.sum() == pytest.approx(1.0, abs=1e-6)
    assert img.resolution == (40, 40)


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=40))
@example(a=[0.0, -0.0])
@example(a=[math.sqrt(2), -math.sqrt(2), math.nextafter(math.sqrt(2), 0.0),
            math.nextafter(-math.sqrt(2), 0.0)])
@example(a=[8 * math.sqrt(2), -8 * math.sqrt(2),
            math.nextafter(8 * math.sqrt(2), 0.0),
            math.nextafter(-8 * math.sqrt(2), 0.0)])
@example(a=_NEAR_EDGE + [-v for v in _NEAR_EDGE])
@example(a=[5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf])
def test_ndtr_is_bit_equal_to_scipy(a):
    """The Cephes port gives scipy's bits, sign included, on each branch:
    erf below z = 1, erfc with P/Q below z = 8 and R/S above, and the
    underflow past z^2 = MAXLOG, infinities included."""
    a = np.array(a)
    got, want = _ndtr(a), ndtr(a)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_coord = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
                   st.floats(-5, 5))
_pers = st.one_of(st.sampled_from([0.0, 0.25, 1.0, math.inf]),
                  st.floats(0, 6))


@st.composite
def image_cases(draw):
    """(diagram, dim, persistence_image keyword arguments)."""
    pts = [(k, b, b + p) for k, b, p in draw(st.lists(
        st.tuples(st.integers(0, 1), _coord, _pers), max_size=25))]
    meta = {"death_cap": draw(st.floats(-1, 12))} if draw(
        st.booleans()) else {}
    kw = dict(resolution=(draw(st.integers(1, 6)), draw(st.integers(1, 6))),
              weight=draw(st.sampled_from(["linear", "constant"])),
              essentials=draw(st.sampled_from(
                  ["auto", "skip"] + (["cap"] if meta else []))))
    if draw(st.booleans()):
        kw["sigma"] = draw(st.floats(0.05, 3))
    if draw(st.booleans()):
        b0, p0 = draw(st.floats(-6, 6)), draw(st.floats(-6, 6))
        kw["support"] = ((b0, b0 + draw(st.floats(0.1, 12))),
                         (p0, p0 + draw(st.floats(0.1, 12))))
    return (PersistenceDiagram.from_points(pts, metadata=meta),
            draw(st.integers(0, 1)), kw)


@settings(max_examples=300, deadline=None)
@given(case=image_cases(), block=st.sampled_from([1, 40, 1 << 19]))
# Eight equal points in one pixel, which numpy's sum would add pairwise.
@example(case=(diag([(0, -1.0, -1.0)] * 8), 0,
               dict(resolution=(1, 1), weight="constant",
                    essentials="auto")), block=40)
# Resolution 1x1; an empty dimension; zero-weight points (on the
# diagonal, and every point under a top edge p1 <= 0).
@example(case=(diag([(1, 0.5, 2.0), (1, 1.0, 1.5)]), 1,
               dict(resolution=(1, 1), weight="linear",
                    essentials="auto")), block=1)
@example(case=(diag([(0, 0.5, 2.0)]), 1,
               dict(resolution=(3, 4), weight="constant",
                    essentials="auto")), block=1 << 19)
@example(case=(diag([(1, 0.5, 0.5), (1, 1.0, 2.0), (1, 2.0, 2.0)]), 1,
               dict(resolution=(5, 3), weight="linear", essentials="auto",
                    sigma=0.3)), block=15)
@example(case=(diag([(1, 0.5, 1.0), (1, 1.0, 2.0)]), 1,
               dict(resolution=(4, 4), weight="linear", essentials="auto",
                    support=((0.0, 3.0), (-2.0, -0.5)))), block=1)
def test_image_matches_point_loop(case, block):
    """The blockwise image is the per-point loop's, bit for bit, for any
    block size: H0/H1, linear/constant, cap/skip, given or default
    sigma and support."""
    pd, dim, kw = case
    try:
        with mock.patch.object(vectorize, "_BLOCK_ENTRIES", block):
            img = persistence_image(pd, dim, **kw)
    except ParameterError:
        return
    pts = _transform_points(pd, dim, kw["essentials"])
    want = loop_image_pixels(pts, img.support, kw["resolution"], img.sigma,
                             kw["weight"])
    assert np.array_equal(img.pixels, want)


def test_noise_image_across_blocks_matches_point_loop():
    """A 64x64 noise H1 diagram at 50x50: at 2,500 entries a point, the
    points fill several blocks."""
    pd = image_persistence(np.random.default_rng(3).random((64, 64)))
    for weight in ("linear", "constant"):
        img = persistence_image(pd, 1, resolution=(50, 50), weight=weight)
        pts = _transform_points(pd, 1, "auto")
        assert len(pts) > 3 * (vectorize._BLOCK_ENTRIES // 2500)
        want = loop_image_pixels(pts, img.support, (50, 50), img.sigma,
                                 weight)
        assert np.array_equal(img.pixels, want)


def test_pixels_are_cell_integrals():
    d = diag([(1, 0.5, 1.5)])
    img = persistence_image(d, dim=1, resolution=(4, 5), sigma=0.3,
                            support=((0.0, 1.0), (0.0, 2.0)),
                            weight="constant")
    xe = np.linspace(0, 1, 5)
    ye = np.linspace(0, 2, 6)
    want = np.outer(np.diff(ndtr((xe - 0.5) / 0.3)),
                    np.diff(ndtr((ye - 1.0) / 0.3)))
    assert np.array_equal(img.pixels, want)


def test_empty_dimension_gives_zero_image():
    d = diag([(0, 0.0, 1.0)])
    img = persistence_image(d, dim=1, resolution=(8, 8))
    assert not img.pixels.any()
    assert img.support == ((0.0, 1.0), (0.0, 1.0))
    assert img.sigma == 1.0


def test_additivity_is_bit_exact():
    # Appending a point that sorts last leaves earlier accumulation
    # untouched, so the image of the union is exactly sum of parts.
    base = [(1, 0.2, 1.0), (1, 0.4, 1.2)]
    extra = (1, 0.9, 1.4)
    sup = ((0.0, 1.0), (0.0, 2.0))
    kw = dict(dim=1, resolution=(16, 16), sigma=0.2, support=sup,
              weight="linear")
    img_base = persistence_image(diag(base), **kw)
    img_extra = persistence_image(diag([extra]), **kw)
    img_all = persistence_image(PersistenceDiagram.from_points(base + [extra]),
                                **kw)
    assert np.array_equal(img_all.pixels, img_base.pixels + img_extra.pixels)


def test_linear_weight_zero_on_diagonal():
    sup = ((0.0, 1.0), (0.0, 2.0))
    img = persistence_image(diag([(1, 0.5, 0.5 + 1e-12)]), dim=1,
                            sigma=0.1, support=sup, weight="linear")
    assert img.pixels.sum() == pytest.approx(0.0, abs=1e-9)


def test_linear_weight_clamps_at_top():
    """Persistence 3 exceeds the support's top edge: the weight clamps to
    1, and a tiny top edge does not overflow persistence / top."""
    for top in (1.0, 1e-320):
        sup = ((0.0, 1.0), (0.0, top))
        img_hi = persistence_image(diag([(1, 0.0, 3.0)]), dim=1, sigma=0.5,
                                   support=sup, weight="linear")
        img_const = persistence_image(diag([(1, 0.0, 3.0)]), dim=1,
                                      sigma=0.5, support=sup,
                                      weight="constant")
        assert np.array_equal(img_hi.pixels, img_const.pixels)


def test_default_sigma_and_support():
    d = diag([(1, 1.0, 2.0), (1, 1.5, 3.5)])
    img = persistence_image(d, dim=1)
    assert img.sigma == pytest.approx(0.05 * 2.0)
    (b0, b1), (p0, p1) = img.support
    assert b0 == pytest.approx(1.0 - 3 * img.sigma)
    assert b1 == pytest.approx(1.5 + 3 * img.sigma)
    assert p0 == pytest.approx(1.0 - 3 * img.sigma)
    assert p1 == pytest.approx(2.0 + 3 * img.sigma)


def test_essentials_cap_and_skip():
    d = diag([(1, 0.5, math.inf)], death_cap=2.0)
    sup = ((0.0, 2.0), (0.0, 2.0))
    kw = dict(dim=1, resolution=(10, 10), sigma=0.2, support=sup,
              weight="constant")
    capped = persistence_image(d, essentials="cap", **kw)
    auto = persistence_image(d, essentials="auto", **kw)
    skipped = persistence_image(d, essentials="skip", **kw)
    asif = persistence_image(diag([(1, 0.5, 2.0)]), **kw)
    assert np.array_equal(capped.pixels, asif.pixels)
    assert np.array_equal(auto.pixels, capped.pixels)
    assert not skipped.pixels.any()

    no_cap = diag([(1, 0.5, math.inf)])
    assert not persistence_image(no_cap, essentials="auto", **kw).pixels.any()
    with pytest.raises(ParameterError):
        persistence_image(no_cap, essentials="cap", **kw)


def test_validation_errors():
    d = diag([(1, 0.0, 1.0)])
    with pytest.raises(ParameterError):
        persistence_image(d, dim=1, resolution=(0, 5))
    with pytest.raises(ParameterError):
        persistence_image(d, dim=1, sigma=-1.0)
    with pytest.raises(ParameterError):
        persistence_image(d, dim=1, support=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ParameterError):
        persistence_image(d, dim=1, weight="quadratic")
    with pytest.raises(ParameterError):
        persistence_image(d, dim=1, essentials="drop")
    with pytest.raises(ParameterError, match="dim"):
        persistence_image(d, dim=-1)
    with pytest.raises(ParameterError, match="--sigma"):
        persistence_image(d, dim=1, sigma=1e-320,
                          support=((-1.0, 1.0), (0.0, 2.0)))


def test_flat_is_row_major():
    d = diag([(1, 0.3, 1.3)])
    img = persistence_image(d, dim=1, resolution=(3, 4), sigma=0.2,
                            support=((0.0, 1.0), (0.0, 2.0)))
    assert img.flat().shape == (12,)
    assert img.flat()[4] == img.pixels[1, 0]


def test_l1_distance_and_resolution_guard():
    sup = ((0.0, 1.0), (0.0, 2.0))
    kw = dict(dim=1, resolution=(8, 8), sigma=0.2, support=sup)
    a = persistence_image(diag([(1, 0.2, 1.0)]), **kw)
    b = persistence_image(diag([(1, 0.2, 1.0)]), **kw)
    assert a.l1_distance(b) == 0.0
    c = persistence_image(diag([(1, 0.2, 1.0)]), dim=1, resolution=(4, 4),
                          sigma=0.2, support=sup)
    with pytest.raises(ParameterError):
        a.l1_distance(c)


def test_stability_constant_formula():
    sup = ((0.0, 1.0), (0.0, 2.0))
    img = persistence_image(diag([(1, 0.2, 1.0)]), dim=1, sigma=0.25,
                            support=sup, weight="linear")
    want = 4.0 / (0.25 * math.sqrt(2 * math.pi)) + 2.0 / 2.0
    assert image_stability_constant(img) == pytest.approx(want)
    img_c = persistence_image(diag([(1, 0.2, 1.0)]), dim=1, sigma=0.25,
                              support=sup, weight="constant")
    assert image_stability_constant(img_c) == \
        pytest.approx(4.0 / (0.25 * math.sqrt(2 * math.pi)))


def test_empirical_lipschitz_bound():
    # Nudge each diagram point; the L1 image change must stay below
    # L * W1 between the diagrams.
    rng = np.random.default_rng(31)
    sup = ((0.0, 3.0), (0.0, 3.0))
    kw = dict(dim=1, resolution=(24, 24), sigma=0.3, support=sup,
              weight="linear")
    for _ in range(20):
        pts = []
        for _ in range(int(rng.integers(1, 5))):
            b = float(rng.uniform(0.2, 1.5))
            pts.append((1, b, b + float(rng.uniform(0.3, 1.2))))
        moved = [(1, b + float(rng.uniform(-0.05, 0.05)),
                  d + float(rng.uniform(-0.05, 0.05))) for _, b, d in pts]
        moved = [(k, b, max(d, b + 1e-6)) for k, b, d in moved]
        d1, d2 = diag(pts), diag(moved)
        img1 = persistence_image(d1, **kw)
        img2 = persistence_image(d2, **kw)
        w1 = wasserstein_distance(d1, d2, dim=1, p=1.0).value
        lbound = image_stability_constant(img1)
        assert img1.l1_distance(img2) <= lbound * w1 + 1e-12
