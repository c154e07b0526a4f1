"""Cubical filtrations of grids and their sublevel/superlevel diagrams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phom import (
    InputError,
    betti_numbers,
    build_cubical_filtration,
    compute_persistence,
    image_persistence,
    superlevel_persistence,
    voxel_persistence,
)
from oracles import (cube_betti, cube_cells, cube_faces, diagram_from_pairs,
                     reduction_pairs)


def test_single_pixel_counts():
    K = build_cubical_filtration(np.array([[0.5]]))
    # (2*1+1)^2 = 9 cells: 4 points, 4 intervals, 1 square.
    assert K.n_cells == 9
    assert K.counts_by_dim().tolist() == [4, 4, 1]
    assert np.all(K.values == 0.5)
    assert K.dim == 2
    assert K.meta["grid_shape"] == (1, 1)


def test_two_pixel_shared_edge_min():
    g = np.array([[1.0, 2.0]])
    K = build_cubical_filtration(g)
    assert K.n_cells == 15
    cells = {K.cell(i): float(K.values[i]) for i in range(K.n_cells)}
    # The column between the two pixels takes the smaller value.
    assert cells[(0, 2)] == 1.0
    assert cells[(1, 2)] == 1.0
    assert cells[(2, 2)] == 1.0
    assert cells[(1, 1)] == 1.0
    assert cells[(1, 3)] == 2.0
    assert cells[(0, 4)] == 2.0


def test_cell_count_formula():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 4), (3, 3), (2, 2, 2), (1, 4, 2)]:
        g = rng.uniform(0, 1, size=shape)
        K = build_cubical_filtration(g)
        assert K.n_cells == int(np.prod([2 * n + 1 for n in shape]))
        assert K.dim == len(shape)


def test_values_match_doubling_oracle():
    rng = np.random.default_rng(1)
    for shape in [(4,), (3, 3), (2, 4), (2, 2, 3), (3, 1, 2)]:
        for _ in range(4):
            g = np.round(rng.uniform(0, 1, size=shape), 1)
            K = build_cubical_filtration(g)
            want = cube_cells(g)
            got = {K.cell(i): float(K.values[i]) for i in range(K.n_cells)}
            assert got == want


def test_dimension_is_odd_coordinate_count():
    K = build_cubical_filtration(np.zeros((2, 3)))
    for i in range(K.n_cells):
        assert K.dims[i] == sum(c % 2 for c in K.cell(i))


def test_boundary_wiring_matches_face_oracle():
    """Each boundary lists its faces in cube_faces order, and the cells
    come in (value, dimension, lexicographic) order with the oracle's
    values, also on rounded grids full of ties and of -0.0 and 0.0."""
    rng = np.random.default_rng(2)
    grids = [rng.uniform(0, 1, size=shape)
             for shape in [(3,), (2, 3), (2, 2, 2)]]
    grids += [np.round(rng.uniform(-1.5, 1.5, size=shape))
              for shape in [(7,), (4, 5), (3, 2, 4), (1, 6), (2, 1, 3)]
              for _ in range(4)]
    assert any(np.signbit(g[g == 0]).any() for g in grids[3:])
    for g in grids:
        K = build_cubical_filtration(g)
        cells = [K.cell(i) for i in range(K.n_cells)]
        index = {c: i for i, c in enumerate(cells)}
        assert index.keys() == cube_cells(g).keys()
        for i, c in enumerate(cells):
            assert K.boundary(i).tolist() == [index[f] for f in cube_faces(c)]
            assert K.dims[i] == sum(x % 2 for x in c)
        order = [(float(K.values[i]), int(K.dims[i]), c)
                 for i, c in enumerate(cells)]
        assert order == sorted(order)
        want = cube_cells(g)
        assert all(float(K.values[i]) == want[c] for i, c in enumerate(cells))


def test_faces_enter_no_later():
    rng = np.random.default_rng(3)
    g = np.round(rng.uniform(0, 1, size=(3, 4)), 1)
    K = build_cubical_filtration(g)
    for i in range(K.n_cells):
        for j in K.boundary(i):
            assert K.values[int(j)] <= K.values[i]
            assert int(j) < i


def test_sublevel_prefix_and_betti_oracle():
    rng = np.random.default_rng(4)
    for shape in [(3, 3), (2, 2, 2)]:
        for _ in range(5):
            g = np.round(rng.uniform(0, 1, size=shape), 1)
            K = build_cubical_filtration(g)
            top = len(shape)
            dg, _ = compute_persistence(K, max_dim=top)
            cmap = cube_cells(g)
            for eps in np.unique(K.values):
                eps = float(eps)
                sub = {c: v for c, v in cmap.items() if v <= eps}
                want = cube_betti(sub, top)
                assert dg.betti_at(eps, max_dim=top) == want
                assert betti_numbers(K.sublevel(eps), max_dim=top) == want


def test_image_persistence_one_basin():
    g = np.array([[2.0, 2.0, 2.0],
                  [2.0, 0.0, 2.0],
                  [2.0, 2.0, 2.0]])
    dg = image_persistence(g)
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]
    assert dg.in_dim(0, finite=True).tolist() == []
    # The bright ring never closes into a separate H1 feature: the dark
    # basin fills the middle before the corners arrive.
    assert dg.in_dim(1).tolist() == []
    assert dg.metadata["filtration"] == "cubical"
    assert dg.metadata["direction"] == "sublevel"
    assert dg.metadata["shape"] == "3x3"
    assert dg.metadata["death_cap"] == pytest.approx(4.0)


def test_image_persistence_two_basins_merge():
    g = np.array([[0.0, 1.0, 0.2]])
    dg = image_persistence(g, max_dim=0)
    assert dg.in_dim(0, finite=True).tolist() == [[0.2, 1.0]]
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]


def test_image_persistence_ring_makes_loop():
    g = np.full((3, 3), 1.0)
    g[1, 1] = 5.0
    dg = image_persistence(g)
    assert dg.in_dim(1).tolist() == [[1.0, 5.0]]


def test_voxel_persistence_enclosed_void():
    g = np.zeros((3, 3, 3))
    g[1, 1, 1] = 1.0
    dg = voxel_persistence(g)
    assert dg.in_dim(2).tolist() == [[0.0, 1.0]]
    assert dg.in_dim(1).tolist() == []
    assert dg.metadata["shape"] == "3x3x3"


def test_superlevel_is_sublevel_of_negation():
    rng = np.random.default_rng(5)
    g = np.round(rng.uniform(0, 1, size=(4, 4)), 1)
    sup = superlevel_persistence(g)
    neg = image_persistence(-g)
    assert sup.points == neg.points
    assert sup.metadata["direction"] == "superlevel"
    assert neg.metadata["direction"] == "sublevel"


def test_superlevel_peak_coordinates():
    g = np.array([[0.0, 0.0, 0.0],
                  [0.0, 3.0, 0.0],
                  [0.0, 0.0, 0.0]])
    dg = superlevel_persistence(g, max_dim=0)
    # Stored in negated coordinates: the peak is born at -3 and never dies.
    assert dg.in_dim(0, finite=False).tolist() == [[-3.0, math.inf]]


def test_grid_validation():
    with pytest.raises(InputError):
        build_cubical_filtration(np.zeros((2, 2, 2, 2)))
    with pytest.raises(InputError):
        build_cubical_filtration(np.array([]))
    with pytest.raises(InputError):
        build_cubical_filtration(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        image_persistence(np.zeros(4))
    with pytest.raises(InputError):
        voxel_persistence(np.zeros((2, 2)))


def test_death_cap_flat_grid():
    dg = image_persistence(np.zeros((2, 2)))
    # Flat grids still get a positive cap: one unit past the constant.
    assert dg.metadata["death_cap"] == pytest.approx(1.0)


def test_1d_rail_profile():
    dg, _ = compute_persistence(build_cubical_filtration(
        np.array([0.0, 2.0, 1.0, 3.0])), max_dim=0)
    assert dg.in_dim(0, finite=True).tolist() == [[1.0, 2.0]]
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]


@st.composite
def tied_grids(draw):
    """1-3 axis grids of the integers -2..2, so cells tie heavily, with
    0.0 and -0.0 mixed; negated half the time."""
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    vals = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                         min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    g = np.reshape(vals, shape)
    return -g if draw(st.booleans()) else g


def grid_runs(g):
    """Each diagram function that takes g, with the grid whose sublevel
    filtration it computes."""
    runs = [(superlevel_persistence, -g)]
    if g.ndim == 2:
        runs.append((image_persistence, g))
    if g.ndim == 3:
        runs.append((voxel_persistence, g))
    return runs


@settings(max_examples=300, deadline=None)
@given(g=tied_grids(), data=st.data())
def test_grid_paths_match_explicit_complex(g, data):
    """The diagram functions, which never build the complex, give the
    points of compute_persistence on build_cubical_filtration at every
    max_dim, compared as repr strings so that a flipped -0.0 fails."""
    max_dim = data.draw(st.integers(0, g.ndim))
    for persistence, sublevel_of in grid_runs(g):
        want, _ = compute_persistence(build_cubical_filtration(sublevel_of),
                                      max_dim=max_dim)
        got = persistence(g, max_dim=max_dim)
        assert repr(got.points) == repr(want.points)
        assert got.metadata["max_dim"] == max_dim


@settings(max_examples=200, deadline=None)
@given(g=tied_grids())
def test_grid_paths_match_textbook_reduction(g):
    """The diagram functions give the points of the textbook reduction of
    a complex built from the oracles alone: cells from cube_cells sorted
    by (value, dim, coords), boundaries from cube_faces."""
    for persistence, sublevel_of in grid_runs(g):
        cells = cube_cells(sublevel_of)
        order = sorted(cells, key=lambda c: (cells[c], sum(x % 2 for x in c),
                                             c))
        index = {c: i for i, c in enumerate(order)}
        pairs, unpaired, _ = reduction_pairs(
            [[index[f] for f in cube_faces(c)] for c in order])
        dims = [sum(x % 2 for x in c) for c in order]
        values = [cells[c] for c in order]
        for max_dim in range(g.ndim + 1):
            want = diagram_from_pairs(pairs, unpaired, dims, values, max_dim)
            assert sorted(persistence(g, max_dim=max_dim).points) == want
