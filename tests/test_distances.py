"""Bottleneck and Wasserstein diagram distances against brute force."""

import inspect
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phom import (
    ParameterError,
    PersistenceDiagram,
    bottleneck_distance,
    cli,
    gen_diffusion_field,
    image_persistence,
    matching_cost,
    wasserstein_distance,
)
from phom import distances
from phom.io import write_diagram_csv
from oracles import (assignment_bottleneck, brute_bottleneck,
                     brute_wasserstein, dense_bottleneck)


def diag(points):
    return PersistenceDiagram.from_points(points)


def test_single_point_vs_empty():
    d1 = diag([(1, 0.0, 2.0)])
    d2 = diag([])
    b = bottleneck_distance(d1, d2, dim=1)
    assert b.value == pytest.approx(1.0)  # persistence/2
    assert b.matching == [(0, None)]
    w = wasserstein_distance(d1, d2, dim=1, p=1.0)
    assert w.value == pytest.approx(1.0)


def test_shifted_death():
    d1 = diag([(1, 0.0, 2.0)])
    d2 = diag([(1, 0.0, 3.0)])
    b = bottleneck_distance(d1, d2, dim=1)
    assert b.value == pytest.approx(1.0)
    assert b.matching == [(0, 0)]
    w2 = wasserstein_distance(d1, d2, dim=1, p=2.0)
    assert w2.value == pytest.approx(1.0)


def test_diagonal_cheaper_than_pairing():
    # Two low-persistence points far apart: drop both to the diagonal.
    d1 = diag([(1, 0.0, 0.2)])
    d2 = diag([(1, 5.0, 5.2)])
    b = bottleneck_distance(d1, d2, dim=1)
    assert b.value == pytest.approx(0.1)
    assert set(b.matching) == {(0, None), (None, 0)}


def test_identity_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = []
        for _ in range(int(rng.integers(0, 5))):
            b = float(rng.uniform(0, 2))
            pts.append((1, b, b + float(rng.uniform(0.01, 2))))
        d1 = diag(pts)
        assert bottleneck_distance(d1, d1, dim=1).value == 0.0
        assert wasserstein_distance(d1, d1, dim=1).value == pytest.approx(0.0)
        pts2 = []
        for _ in range(int(rng.integers(0, 5))):
            b = float(rng.uniform(0, 2))
            pts2.append((1, b, b + float(rng.uniform(0.01, 2))))
        d2 = diag(pts2)
        assert bottleneck_distance(d1, d2, dim=1).value == \
            pytest.approx(bottleneck_distance(d2, d1, dim=1).value)
        assert wasserstein_distance(d1, d2, dim=1, p=2.0).value == \
            pytest.approx(wasserstein_distance(d2, d1, dim=1, p=2.0).value)


def test_dimension_filter():
    d1 = diag([(0, 0.0, 1.0), (1, 0.0, 4.0)])
    d2 = diag([(0, 0.0, 1.0)])
    assert bottleneck_distance(d1, d2, dim=0).value == 0.0
    assert bottleneck_distance(d1, d2, dim=1).value == pytest.approx(2.0)


def test_essential_count_mismatch_is_inf():
    d1 = diag([(1, 0.5, math.inf)])
    d2 = diag([])
    assert bottleneck_distance(d1, d2, dim=1).value == math.inf
    assert wasserstein_distance(d1, d2, dim=1).value == math.inf


def test_essential_birth_gap():
    d1 = diag([(0, 0.0, math.inf), (0, 1.0, math.inf)])
    d2 = diag([(0, 0.2, math.inf), (0, 1.5, math.inf)])
    b = bottleneck_distance(d1, d2, dim=0)
    # Sorted births matched in order: gaps 0.2 and 0.5.
    assert b.value == pytest.approx(0.5)
    assert len(b.essential_matching) == 2
    w1 = wasserstein_distance(d1, d2, dim=0, p=1.0)
    assert w1.value == pytest.approx(0.7)


def test_mixed_finite_and_essential():
    d1 = diag([(1, 0.0, 2.0), (1, 0.5, math.inf)])
    d2 = diag([(1, 0.0, 2.6), (1, 0.9, math.inf)])
    b = bottleneck_distance(d1, d2, dim=1)
    assert b.value == pytest.approx(0.6)
    w2 = wasserstein_distance(d1, d2, dim=1, p=2.0)
    assert w2.value == pytest.approx(math.hypot(0.6, 0.4))


def test_wasserstein_order_guard():
    d = diag([])
    with pytest.raises(ParameterError):
        wasserstein_distance(d, d, dim=1, p=0.5)


def test_wasserstein_total_that_overflows_is_rejected():
    """Each cost**2 fits in a float, their sum does not: the true value,
    about 1.8e154, cannot be computed this way, so it is a ParameterError
    (and no numpy overflow warning), not a distance of inf."""
    d1 = diag([(1, 0.0, 2.5e154), (1, 0.0, 2.6e154)])
    with pytest.raises(ParameterError, match="overflows the total"):
        wasserstein_distance(d1, diag([]), dim=1, p=2.0)
    # One point less and the total is finite: sqrt of (1.25e154)**2.
    one = wasserstein_distance(diag([(1, 0.0, 2.5e154)]), diag([]), dim=1)
    assert one.value == pytest.approx(1.25e154)


def test_wasserstein_cost_power_out_of_range_is_rejected():
    """A nonzero cost whose p-th power is inf or 0 is a ParameterError;
    a zero cost (two diagonal slots) is not."""
    for death in (2e200, 2e-200):
        with pytest.raises(ParameterError, match="underflows a cost"):
            wasserstein_distance(diag([(1, 0.0, death)]), diag([]), dim=1)
    rep = wasserstein_distance(diag([(1, 0.0, 2e-100), (1, 0.0, 2e100)]),
                               diag([(1, 0.0, 2e-100)]), dim=1)
    assert rep.value == pytest.approx(1e100)


def test_augmented_costs_fill_in_row_blocks():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 4, size=(23, 2)), rng.uniform(0, 4, size=(17, 2))
    want = np.zeros((40, 40))
    want[:23, :17] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                                np.abs(a[:, None, 1] - b[None, :, 1]))
    want[:23, 17:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    want[23:, :17] = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
    for block in (1, 40, 1 << 19):
        with mock.patch.object(distances, "_BLOCK_ENTRIES", block):
            assert np.array_equal(distances._augmented_costs(a, b), want)


def test_negative_dim_is_rejected():
    d = diag([(1, 0.0, 1.0)])
    for metric in (bottleneck_distance, wasserstein_distance):
        with pytest.raises(ParameterError, match="dim"):
            metric(d, d, dim=-1)


def test_bottleneck_switches_an_alternating_path():
    """At t = 1 the point (1, 5) of the first diagram must go to (0, 5),
    and (0, 3) of the second must go to (0, 2): the matching that covers
    the first diagram's heavy points leaves (0, 3) free, so the report
    needs the walk onto the second diagram's matching.  The result is
    the only optimal matching."""
    d1 = diag([(1, 1.0, 5.0), (1, 2.0, 4.0), (1, 0.0, 2.0)])
    d2 = diag([(1, 0.0, 3.0), (1, 0.0, 5.0)])
    rep = bottleneck_distance(d1, d2, dim=1)
    assert rep.value == 1.0
    # In diagram order: (0, 2), (1, 5), (2, 4) against (0, 3), (0, 5).
    assert rep.matching == [(0, 0), (1, 1), (2, None)]


def random_diagram(rng, max_pts=6, dim=1):
    pts = []
    for _ in range(int(rng.integers(0, max_pts + 1))):
        b = round(float(rng.uniform(0, 2)), 3)
        pts.append((dim, b, b + round(float(rng.uniform(0, 2)), 3) + 1e-3))
    for _ in range(int(rng.integers(0, 3))):
        if rng.random() < 0.3:
            pts.append((dim, round(float(rng.uniform(0, 2)), 3), math.inf))
    return diag(pts)


def split(d, dim=1):
    fin = [(b, dth) for k, b, dth in d.points
           if k == dim and not math.isinf(dth)]
    ess = sorted(b for k, b, dth in d.points
                 if k == dim and math.isinf(dth))
    return fin, ess


def test_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d1 = random_diagram(rng, max_pts=4)
        d2 = random_diagram(rng, max_pts=4)
        f1, e1 = split(d1)
        f2, e2 = split(d2)
        got_b = bottleneck_distance(d1, d2, dim=1).value
        want_b = brute_bottleneck(f1, f2, e1, e2)
        if math.isinf(want_b):
            assert math.isinf(got_b)
        else:
            assert got_b == pytest.approx(want_b, abs=1e-9)
        for p in (1.0, 2.0):
            got_w = wasserstein_distance(d1, d2, dim=1, p=p).value
            want_w = brute_wasserstein(f1, f2, e1, e2, p)
            if math.isinf(want_w):
                assert math.isinf(got_w)
            else:
                assert got_w == pytest.approx(want_w, abs=1e-9)


def test_matching_reproduces_value():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        for rep in (bottleneck_distance(d1, d2, dim=1),
                    wasserstein_distance(d1, d2, dim=1, p=1.0),
                    wasserstein_distance(d1, d2, dim=1, p=2.0)):
            if math.isinf(rep.value):
                continue
            assert matching_cost(rep, d1, d2) == \
                pytest.approx(rep.value, abs=1e-9)


def test_matching_covers_all_points():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        f1, _ = split(d1)
        f2, _ = split(d2)
        assert_covers(bottleneck_distance(d1, d2, dim=1), len(f1), len(f2))


def test_report_fields():
    d1 = diag([(1, 0.0, 2.0)])
    d2 = diag([(1, 0.0, 3.0)])
    b = bottleneck_distance(d1, d2, dim=1)
    assert b.metric == "bottleneck"
    assert b.dim == 1
    assert b.p is None
    w = wasserstein_distance(d1, d2, dim=1, p=2.0)
    assert w.metric == "wasserstein"
    assert w.p == 2.0


def assert_covers(rep, n1, n2):
    """Every finite point of either diagram is matched exactly once."""
    lefts = [l for l, _ in rep.matching if l is not None]
    rights = [r for _, r in rep.matching if r is not None]
    assert sorted(lefts) == list(range(n1))
    assert sorted(rights) == list(range(n2))


# Points on a coarse grid, so equal costs (ties) are common.
_finite = st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)),
                   max_size=60)
_essential = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                      max_size=3)


@settings(max_examples=120, deadline=None)
@given(_finite, _finite, _essential)
@example([], [], [])
@example([(1, 2)], [], [])
@example([], [(0, 3), (2, 2)], [(1, 4)])
@example([(0, 4)] * 5, [(0, 4), (1, 1)], [(0, 0), (3, 3)])
def test_bottleneck_equals_assignment_oracle(f1, f2, ess):
    """Medium diagrams, beyond brute force: the exact value of the
    assignment oracle, attained by the report's own matching."""
    a = [(b / 4.0, (b + k) / 4.0) for b, k in f1]
    b = [(b / 4.0, (b + k) / 4.0) for b, k in f2]
    e1 = [x / 4.0 for x, _ in ess]
    e2 = [y / 4.0 for _, y in ess]
    d1 = diag([(1, u, v) for u, v in a] + [(1, x, math.inf) for x in e1])
    d2 = diag([(1, u, v) for u, v in b] + [(1, y, math.inf) for y in e2])
    rep = bottleneck_distance(d1, d2, dim=1)
    assert rep.value == assignment_bottleneck(a, b, e1, e2)
    assert matching_cost(rep, d1, d2) == rep.value
    assert_covers(rep, len(a), len(b))


_coord = st.floats(0.0, 4.0, allow_nan=False)
_point = st.tuples(_coord, st.floats(0.0, 2.0, allow_nan=False)).map(
    lambda bp: (bp[0], bp[0] + bp[1]))


@st.composite
def _float_diagram_pair(draw):
    """Float diagrams that share points (duplicates within and across
    sides), either of which may be empty, with equal essential counts."""
    pool = draw(st.lists(_point, min_size=1, max_size=8))
    side = st.lists(st.one_of(st.sampled_from(pool), _point), max_size=24)
    k = draw(st.integers(0, 3))
    ess = st.lists(_coord, min_size=k, max_size=k)
    return draw(side), draw(side), draw(ess), draw(ess)


@st.composite
def _noise_grid_pair(draw):
    """H1 diagrams of two seeded 16x16 or 24x24 noise grids."""
    n, seed = draw(st.sampled_from([16, 24])), draw(st.integers(0, 10**6))
    a, b = (image_persistence(gen_diffusion_field(n=n, steps=0, seed=s))
            .in_dim(1, finite=True).tolist() for s in (seed, seed + 1))
    return a, b, [], []


@settings(max_examples=80, deadline=None)
@given(st.one_of(_float_diagram_pair(), _noise_grid_pair()))
@example(([], [], [], []))
@example(([(0.5, 1.5)], [], [0.25], [1.0]))
@example(([], [(0.0, 1.0), (0.0, 1.0)], [], []))
@example(([(0.0, 2.0)] * 3, [(0.0, 2.0), (0.5, 2.5)], [1.0], [1.0]))
def test_bottleneck_equals_both_oracles_on_floats(pair):
    """The value equals the assignment oracle and the dense search bit
    for bit, and the report's matching covers every point and attains
    it."""
    a, b, e1, e2 = pair
    d1 = diag([(1, u, v) for u, v in a] + [(1, x, math.inf) for x in e1])
    d2 = diag([(1, u, v) for u, v in b] + [(1, y, math.inf) for y in e2])
    rep = bottleneck_distance(d1, d2, dim=1)
    assert rep.value == assignment_bottleneck(a, b, e1, e2)
    assert rep.value == dense_bottleneck(a, b, e1, e2)
    assert matching_cost(rep, d1, d2) == rep.value
    assert_covers(rep, len(a), len(b))


def test_large_pair_does_not_recurse(tmp_path):
    """H1 diagrams of two 64x64 noise grids, about 790 points each: the
    matching stays flat, and `phom distance` exits 0."""
    d1, d2 = (image_persistence(gen_diffusion_field(n=64, steps=0, seed=s))
              for s in (10_000, 10_001))
    n1 = d1.in_dim(1, finite=True).shape[0]
    n2 = d2.in_dim(1, finite=True).shape[0]
    assert min(n1, n2) > 750
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        rep = bottleneck_distance(d1, d2, dim=1)
    finally:
        sys.setrecursionlimit(limit)
    assert matching_cost(rep, d1, d2) == pytest.approx(rep.value, abs=1e-9)
    assert_covers(rep, n1, n2)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagram_csv(str(a), d1)
    write_diagram_csv(str(b), d2)
    assert cli.main(["distance", str(a), str(b),
                     "-o", str(tmp_path / "rep.json")]) == 0
