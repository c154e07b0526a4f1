"""Bottleneck and Wasserstein diagram distances against brute force."""

import inspect
import math
import sys
import tracemalloc
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
                     brute_wasserstein, csgraph_matching, dense_bottleneck)


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


def test_half_persistence_that_overflows_stays_exact():
    """The bottleneck from (-1e308, 1e308) to an empty diagram is half of
    2e308, which float64 holds though 2e308 does not; rows whose
    difference is finite keep the bits of (death - birth) / 2."""
    d1 = diag([(1, -1e308, 1e308), (1, 0.1, 0.7)])
    rep = bottleneck_distance(d1, diag([]), dim=1)
    assert rep.value == 1e308
    assert matching_cost(rep, d1, diag([])) == 1e308
    rng = np.random.default_rng(0)
    x = np.sort(rng.normal(scale=1e3, size=(200, 2)), axis=1)
    x[0] = (-1e308, 1.7e308)
    with np.errstate(over="ignore"):  # as its callers
        half = distances._half_persistence(x)
    assert half[0] == 1.7e308 / 2 + 1e308 / 2
    assert half[1:].tobytes() == ((x[1:, 1] - x[1:, 0]) / 2.0).tobytes()


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


def test_powered_finds_least_nonzero_in_row_blocks():
    """The least nonzero cost, found block by block, gives the verdict
    and the powers of a whole-matrix masked min, wherever the tiny or
    the huge cost sits."""
    rng = np.random.default_rng(7)
    cases = []
    for shape in [(40, 40), (7, 7), (0, 0), (1, 1), (5,), (0,)]:
        base = np.round(rng.uniform(0, 3, size=shape), 1)  # zeros occur
        cases.append(base)
        for spot in ([0], [-1], [base.size // 2]) if base.size else []:
            for odd in (1e-200, 1e200):
                c = base.copy()
                c.flat[spot] = odd
                cases.append(c)
    for block in (1, 40, 1 << 19):
        with mock.patch.object(distances, "_BLOCK_ENTRIES", block):
            for costs in cases:
                with np.errstate(over="ignore", under="ignore"):
                    ends = np.array([costs.min(where=costs > 0,
                                               initial=np.inf),
                                     costs.max(initial=0.0)]) ** 2.0
                if ends[0] == 0 or np.isinf(ends[1]):
                    with pytest.raises(ParameterError, match=(
                            r"wasserstein order p=2.0 overflows or "
                            r"underflows a cost")):
                        distances._powered(costs.copy(), 2.0)
                else:
                    assert np.array_equal(distances._powered(costs.copy(),
                                                             2.0),
                                          costs ** 2.0)


def test_powered_lets_only_point_to_point_costs_be_inf():
    """An inf cost stays inf in costs[:n1, :n2], the point-to-point
    block, and is a ParameterError anywhere else, whatever the blocks."""
    for block in (1, 3, 1 << 19):
        with mock.patch.object(distances, "_BLOCK_ENTRIES", block):
            for spot, ok in [((0, 0), True), ((1, 2), True),
                             ((2, 0), False), ((0, 3), False),
                             ((4, 4), False)]:
                costs = np.ones((5, 5))
                costs[spot] = np.inf
                if ok:
                    out = distances._powered(costs.copy(), 2.0, (2, 3))
                    assert np.array_equal(out, costs ** 2.0)
                else:
                    with pytest.raises(ParameterError):
                        distances._powered(costs.copy(), 2.0, (2, 3))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_wasserstein_of_an_infinite_half_persistence_is_rejected(p):
    """A finite point born at -inf costs inf to the diagonal, which no
    matching avoids: a ParameterError, not scipy's infeasible-matrix
    ValueError."""
    d = PersistenceDiagram([1], [-math.inf], [1.0])
    with pytest.raises(ParameterError):
        wasserstein_distance(d, diag([]), dim=1, p=p)


def test_wasserstein_budget_fires_before_allocating(tmp_path):
    """Lowered to just under the 8*(n1+n2)**2 bytes of the cost matrix,
    the budget is a ParameterError naming both figures, raised before
    anything near that size is allocated; at the exact size it passes,
    and `phom distance` turns it into exit 3."""
    rng = np.random.default_rng(3)
    pts = [(1, u, u + w) for u, w in rng.uniform(0.1, 2, size=(300, 2))]
    d1, d2 = diag(pts[:180]), diag(pts[180:])
    need = 8 * 300 ** 2
    with mock.patch.object(distances, "_WASSERSTEIN_BUDGET", need - 1):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=(
                    f"300 x 300 cost matrix of {need:,} bytes, over the "
                    f"budget of {need - 1:,}")):
                wasserstein_distance(d1, d2, dim=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need // 4
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagram_csv(str(a), d1)
        write_diagram_csv(str(b), d2)
        assert cli.main(["distance", str(a), str(b), "--metric",
                         "wasserstein", "-o", str(tmp_path / "w.json")]) == 3
        assert not (tmp_path / "w.json").exists()
    with mock.patch.object(distances, "_WASSERSTEIN_BUDGET", need):
        assert math.isfinite(wasserstein_distance(d1, d2, dim=1).value)


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
    it, with the list search and with the array search."""
    a, b, e1, e2 = pair
    d1 = diag([(1, u, v) for u, v in a] + [(1, x, math.inf) for x in e1])
    d2 = diag([(1, u, v) for u, v in b] + [(1, y, math.inf) for y in e2])
    want = assignment_bottleneck(a, b, e1, e2)
    assert want == dense_bottleneck(a, b, e1, e2)
    for small_pairs in (-1, 1 << 30):
        with mock.patch.object(distances, "_SMALL_PAIRS", small_pairs):
            rep = bottleneck_distance(d1, d2, dim=1)
        assert rep.value == want
        assert matching_cost(rep, d1, d2) == rep.value
        assert_covers(rep, len(a), len(b))


def _csr(rows):
    """(ptr, cols, costs) of a list of rows of (column, cost) pairs."""
    ptr = np.cumsum([0] + [len(r) for r in rows])
    cols = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    costs = np.array([w for r in rows for _, w in r], dtype=np.float64)
    return ptr, cols, costs


@st.composite
def _bipartite_graphs(draw):
    """One side of `_heavy_first` as a random graph: (rows of (column,
    cost) pairs, columns, half-persistences, t, a starting matching).
    Rows may be empty or list a column twice, there may be no column,
    and small integers make ties common.  The starting matching is valid
    at t and may hold light rows."""
    n_cols = draw(st.integers(0, 10))
    pair = st.tuples(st.integers(0, max(n_cols - 1, 0)), st.integers(0, 3))
    rows = draw(st.lists(st.lists(pair, max_size=6 if n_cols else 0),
                         max_size=14))
    p = sorted(draw(st.lists(st.integers(0, 5), min_size=len(rows),
                             max_size=len(rows))), reverse=True)
    t = draw(st.integers(0, 3))
    warm, used = [], set()
    picks = st.tuples(st.integers(0, max(len(rows) - 1, 0)),
                      st.integers(0, 5))
    for r, k in draw(st.lists(picks, max_size=8)) if rows else []:
        if k < len(rows[r]) and rows[r][k][1] <= t and r not in \
                {u for u, _ in warm} and rows[r][k][0] not in used:
            warm.append((r, rows[r][k][0]))
            used.add(rows[r][k][0])
    return rows, n_cols, p, t, warm


def _chain(m):
    """Row 0 reaches column 0 only, row i columns i - 1 and i, and the
    start matches row i to column i - 1: the one augmenting path runs
    through all m rows."""
    rows = [[(0, 0)]] + [[(i - 1, 0), (i, 0)] for i in range(1, m)]
    return rows, m, [1] * m, 0, [(i, i - 1) for i in range(1, m)]


def _max_matching(rows, n_cols, p, t):
    """scipy's maximum matching size of the rows with p > t by their
    pairs of cost <= t, and the number of those rows."""
    heavy = [[(c, w) for c, w in row if w <= t]
             for row, q in zip(rows, p) if q > t]
    ptr, cols, _ = _csr(heavy)
    return csgraph_matching(ptr, cols, n_cols), len(heavy)


@settings(max_examples=300, deadline=None)
@given(_bipartite_graphs())
@example(([], 0, [], 0, []))
@example(([[], [(0, 1)]], 1, [2, 2], 1, []))
@example(([[(0, 0), (0, 0)], [(0, 0)]], 1, [1, 1], 0, [(1, 0)]))
@example(([[(0, 0), (1, 2)], [(0, 0)]], 2, [3, 3], 0, [(1, 0)]))
@example(_chain(5_000))
@pytest.mark.parametrize("small_pairs", [-1, 1 << 30])
def test_cover_heavy_matches_csgraph(small_pairs, graph):
    """The in-repo matching of the heavy rows (p > t) by pairs within t
    is valid and covers them exactly when scipy's maximum matching does;
    when it does not, scipy finds no cover at any threshold between t
    and the reported lift either.  Both the list search for few pairs
    and the array search run, and long alternating paths recurse in
    neither."""
    rows, n_cols, p, t, warm = graph
    ptr, cols, costs = _csr(rows)
    mate_row, mate_col = np.full(len(rows), -1), np.full(n_cols, -1)
    for r, c in warm:
        mate_row[r], mate_col[c] = c, r
    with mock.patch.object(distances, "_SMALL_PAIRS", small_pairs):
        lift = distances._cover_heavy(ptr, cols, costs,
                                      np.array(p, dtype=float), float(t),
                                      mate_row, mate_col)
    size, nh = _max_matching(rows, n_cols, p, t)
    matched = np.flatnonzero(mate_row >= 0)
    assert (lift is None) == (size == nh)
    assert matched.size == size if lift is None else matched.size <= size
    assert (matched < nh).all()
    assert np.unique(mate_row[matched]).size == matched.size
    assert (mate_col[mate_row[matched]] == matched).all()
    assert (mate_col >= 0).sum() == matched.size
    within = costs <= t
    for r in matched.tolist():
        seg = slice(ptr[r], ptr[r + 1])
        assert (within[seg] & (cols[seg] == mate_row[r])).any()
    if lift is not None:
        assert lift > t
        for u in sorted({w for row in rows for _, w in row} | set(p)):
            if t < u < lift:
                size, nh = _max_matching(rows, n_cols, p, u)
                assert size < nh, u


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
