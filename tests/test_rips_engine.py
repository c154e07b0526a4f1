"""rips_persistence (cohomology, apparent pairs, no cell list) against the
explicit rips_filtration + compute_persistence path and the oracles."""

import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phom import (InputError, ParameterError, compute_persistence,
                  point_cloud_distances, rips_filtration, rips_persistence,
                  sample_annulus)
from oracles import diagram_from_pairs, reduction_pairs


def explicit(d, max_dim, max_scale, scale):
    n = d.shape[0]
    K = rips_filtration(d, min(max_dim + 1, n - 1), max_scale, scale)
    return compute_persistence(K, max_dim=max_dim)[0]


def scale_at(d, where, scale):
    """A max_scale below the shortest edge, in between, or above all."""
    w = d / 2.0 if scale == "radius" else d
    ev = w[np.triu_indices(d.shape[0], 1)]
    pos = ev[ev > 0]
    if where == "below":
        return float(pos.min()) / 2.0 if pos.size else 0.5
    if where == "between":
        return float(np.median(pos)) if pos.size else 0.5
    return float(ev.max()) + 1.0 if ev.size else 1.0


def check_same(d, max_dim, where, scale):
    ms = scale_at(d, where, scale)
    meta = {"filtration": "rips", "max_scale": ms}
    got = rips_persistence(d, max_dim, ms, scale, metadata=meta)
    want = explicit(d, max_dim, ms, scale)
    # repr tells -0.0 from 0.0: both paths write the same zero.
    assert repr(got.points) == repr(want.points)
    assert got.metadata == {**meta, "max_dim": max_dim}


clouds = st.integers(2, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.floats(0, 1, allow_nan=False)] * dim),
    min_size=1, max_size=10))


@st.composite
def integer_matrices(draw):
    """Symmetric integer distances 0..3: heavy ties, zero off-diagonals,
    and in some matrices zeros that are -0.0 on either side or both."""
    n = draw(st.integers(1, 8))
    vals = draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = vals
    d += d.T
    if draw(st.booleans()):
        neg = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        d[np.reshape(neg, (n, n)) & (d == 0)] = -0.0
    return d


common = dict(max_dim=st.integers(0, 2),
              where=st.sampled_from(["below", "between", "above"]),
              scale=st.sampled_from(["radius", "diameter"]))


@settings(max_examples=300, deadline=None)
@given(cloud=clouds, **common)
def test_matches_explicit_path_on_clouds(cloud, max_dim, where, scale):
    check_same(point_cloud_distances(np.array(cloud)), max_dim, where, scale)


@settings(max_examples=300, deadline=None)
@given(d=integer_matrices(), **common)
def test_matches_explicit_path_on_tied_distances(d, max_dim, where, scale):
    check_same(d, max_dim, where, scale)


@pytest.mark.parametrize("scale", ["radius", "diameter"])
def test_zero_length_square_mixing_signs(scale):
    """A square of zero-length edges, some -0.0, with diagonals of length
    1: an H1 class is born at zero, and both paths write the one zero
    that their shared edge table keeps."""
    z = -0.0
    d = np.array([[z, z, 1.0, 0.0], [z, 0.0, 0.0, 1.0],
                  [1.0, z, z, 0.0], [z, 1.0, z, z]])
    check_same(d, 1, "above", scale)


@pytest.mark.parametrize("scale", ["radius", "diameter"])
def test_zero_values_do_not_depend_on_point_order(scale):
    """The cycle 0-1-2-3 with edges 0.0, -0.0, 0.0, -0.0 and diagonals of
    length 1: all 24 renumberings of its points give the same diagram,
    zero signs included, on both paths."""
    d = np.ones((4, 4))
    np.fill_diagonal(d, 0.0)
    for i, v in enumerate([0.0, -0.0, 0.0, -0.0]):
        d[i, (i + 1) % 4] = d[(i + 1) % 4, i] = v
    got = set()
    for perm in itertools.permutations(range(4)):
        e = d[np.ix_(perm, perm)]
        got.add(repr(rips_persistence(e, 1, 1.0, scale).points))
        got.add(repr(explicit(e, 1, 1.0, scale).points))
    assert len(got) == 1


def test_matches_textbook_reduction():
    rng = np.random.default_rng(5)
    for trial in range(24):
        n = int(rng.integers(2, 8))
        if trial % 2:
            d = np.triu(rng.integers(0, 3, size=(n, n)), 1).astype(float)
            d = d + d.T
        else:
            d = point_cloud_distances(rng.uniform(0, 1, size=(n, 2)))
        max_dim = int(rng.integers(0, 3))
        scale = ("radius", "diameter")[trial % 3 == 0]
        K = rips_filtration(d, min(max_dim + 1, n - 1), 0.8, scale)
        pairs, unpaired, _ = reduction_pairs(
            [K.boundary(i).tolist() for i in range(K.n_cells)])
        want = diagram_from_pairs(pairs, unpaired, K.dims, K.values, max_dim)
        assert rips_persistence(d, max_dim, 0.8, scale).points == want


def test_annulus_loop_and_large_max_dim():
    d = point_cloud_distances(sample_annulus(60, noise=0.02, seed=2))
    dg = rips_persistence(d, 1, 0.6)
    assert dg.points == explicit(d, 1, 0.6, "radius").points
    assert sum(1 for p in dg.points if p[0] == 1 and p[2] - p[1] > 0.3) == 1
    # A max_dim above n - 1 has no cells to report.
    tiny = d[:3, :3]
    assert rips_persistence(tiny, 5, 2.0).points == \
        explicit(tiny, 2, 2.0, "radius").points


def test_does_not_recurse():
    """A 400-point path: union-find and reduction stay flat."""
    pts = np.column_stack([np.arange(400.0), np.zeros(400)])
    d = point_cloud_distances(pts)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        dg = rips_persistence(d, 1, 0.5)
    finally:
        sys.setrecursionlimit(limit)
    assert dg.points == [(0, 0.0, 0.5)] * 399 + [(0, 0.0, float("inf"))]


def test_guards():
    d = point_cloud_distances(np.eye(3))
    with pytest.raises(ParameterError):
        rips_persistence(d, -1, 1.0)
    with pytest.raises(ParameterError):
        rips_persistence(d, 1, 0.0)
    with pytest.raises(ParameterError):
        rips_persistence(d, 1, float("inf"))
    with pytest.raises(ParameterError):
        rips_persistence(d, 1, 1.0, scale="area")
    with pytest.raises(ParameterError, match="64-bit"):
        rips_persistence(np.ones((30, 30)) - np.eye(30), 12, 2.0)
    with pytest.raises(InputError):
        rips_persistence(np.array([[0.0, 1.0], [2.0, 0.0]]), 1, 1.0)
