"""Filtered complexes, validation, and the Rips construction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phom import (
    FilteredSimplicialComplex,
    Filtration,
    InputError,
    ParameterError,
    Simplex,
    boundary_chain,
    check_distance_matrix,
    point_cloud_distances,
    rips_filtration,
    validate_complex,
)
from test_rips_engine import clouds, integer_matrices


def triangle_cells():
    return [((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
            ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
            ((0, 1, 2), 2.0)]


def test_simplex_basic():
    s = Simplex((2, 5, 9))
    assert s.dimension == 2
    assert s.faces() == [(5, 9), (2, 9), (2, 5)]
    assert Simplex((3,)).faces() == []
    assert repr(Simplex((0, 1))) == "Simplex((0, 1))"


def test_simplex_rejects_bad_vertices():
    with pytest.raises(ParameterError):
        Simplex(())
    with pytest.raises(ParameterError):
        Simplex((-1, 2))
    with pytest.raises(ParameterError):
        Simplex((2, 2))
    with pytest.raises(ParameterError):
        Simplex((3, 1))


def test_boundary_chain_matches_faces():
    assert boundary_chain((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
    assert boundary_chain((4,)) == []


def test_complex_sorts_cells():
    # Deliberately shuffled input; order must come out (value, dim, lex).
    K = FilteredSimplicialComplex([
        ((0, 1, 2), 2.0), ((1, 2), 1.0), ((2,), 0.0), ((0, 2), 1.0),
        ((0,), 0.0), ((0, 1), 1.0), ((1,), 0.0)])
    assert [tuple(c) for c, _ in K.items()] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert K.values.tolist() == [0, 0, 0, 1, 1, 1, 2]
    assert K.dims.tolist() == [0, 0, 0, 1, 1, 1, 2]
    assert K.dim == 2
    assert K.n_cells == 7
    assert K.counts_by_dim().tolist() == [3, 3, 1]


def test_complex_tie_break_is_lexicographic():
    K = FilteredSimplicialComplex([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
        ((1, 2), 0.5), ((0, 1), 0.5), ((0, 2), 0.5)])
    assert [tuple(K.cell(i)) for i in range(3, 6)] == [(0, 1), (0, 2), (1, 2)]


def test_complex_rejects_duplicates_and_nonfinite():
    with pytest.raises(InputError):
        FilteredSimplicialComplex([((0,), 0.0), ((0,), 1.0)])
    with pytest.raises(InputError):
        FilteredSimplicialComplex([((0,), float("nan"))])
    with pytest.raises(InputError):
        FilteredSimplicialComplex([((0,), float("inf"))])


def test_index_and_contains():
    K = FilteredSimplicialComplex(triangle_cells())
    assert K.index_of((0, 1)) == 3
    assert (1, 2) in K
    assert (0, 3) not in K
    with pytest.raises(KeyError):
        K.index_of((0, 3))


def test_boundary_indices():
    K = FilteredSimplicialComplex(triangle_cells())
    assert K.boundary(0).tolist() == []
    assert sorted(K.boundary(3).tolist()) == [0, 1]
    t = K.index_of((0, 1, 2))
    assert sorted(K.boundary(t).tolist()) == [
        K.index_of((0, 1)), K.index_of((0, 2)), K.index_of((1, 2))]


def test_boundary_missing_face_raises():
    with pytest.raises(InputError):
        FilteredSimplicialComplex([((0,), 0.0), ((1,), 0.0),
                                   ((0, 1, 2), 1.0)])


def test_sublevel_is_prefix():
    K = FilteredSimplicialComplex(triangle_cells())
    sub = K.sublevel(1.0)
    assert sub.n_cells == 6
    assert [tuple(c) for c, _ in sub.items()] == \
        [tuple(c) for c, _ in K.items()][:6]
    assert sub.boundary(3).tolist() == K.boundary(3).tolist()
    assert K.sublevel(-1.0).n_cells == 0
    assert K.sublevel(100.0).n_cells == 7


def test_validate_ok_and_missing_face():
    assert validate_complex(FilteredSimplicialComplex(triangle_cells())) is None
    # The builder rejects a missing face, so assemble the arrays directly.
    K = Filtration(np.array([0.0, 0.0, 1.0]), np.array([0, 0, 2]),
                   np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   [(0,), (1,), (0, 1, 2)])
    v = validate_complex(K)
    assert v is not None
    assert v.kind == "missing face"
    assert tuple(v.cell) == (0, 1, 2)


def test_validate_value_inversion():
    K = FilteredSimplicialComplex(
        [((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)])
    v = validate_complex(K)
    assert v.kind == "value inversion"
    assert tuple(v.cell) == (0, 1)
    assert v.index == 1
    assert "(1,)" in v.detail


def test_validate_order_break():
    # Bypass the sorting constructor to produce an out-of-order cell list.
    K = Filtration(np.array([0.0, 0.0, 1.0, 0.5]),
                   np.array([0, 0, 1, 0], dtype=np.int32),
                   np.array([0, 0, 0, 2, 2]), np.array([0, 1]),
                   [(0,), (1,), (0, 1), (2,)])
    v = validate_complex(K)
    assert v.kind == "order break"
    assert v.index == 3


def test_point_cloud_distances():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    d = point_cloud_distances(pts)
    assert d.shape == (3, 3)
    assert d[0, 1] == pytest.approx(5.0)
    assert d[0, 2] == pytest.approx(1.0)
    assert np.array_equal(d, d.T)
    assert np.all(np.diagonal(d) == 0)
    assert point_cloud_distances(np.zeros((1, 3))).shape == (1, 1)


def test_point_cloud_distances_rejects_bad_input():
    with pytest.raises(InputError):
        point_cloud_distances(np.zeros(3))
    with pytest.raises(InputError):
        point_cloud_distances(np.zeros((0, 2)))
    with pytest.raises(InputError):
        point_cloud_distances(np.array([[0.0, np.nan]]))


def test_check_distance_matrix_errors():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert check_distance_matrix(good) is not None
    with pytest.raises(InputError):
        check_distance_matrix(np.zeros((2, 3)))
    with pytest.raises(InputError):
        check_distance_matrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(InputError):
        check_distance_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InputError):
        check_distance_matrix(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        check_distance_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_rips_unit_triangle():
    d = np.ones((3, 3)) - np.eye(3)
    K = rips_filtration(d, max_dim=2, max_scale=0.5, scale="radius")
    assert [tuple(c) for c, _ in K.items()] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    # Radius convention: edges at d/2.
    assert K.values.tolist() == [0, 0, 0, 0.5, 0.5, 0.5, 0.5]

    Kd = rips_filtration(d, max_dim=2, max_scale=1.0, scale="diameter")
    assert Kd.values.tolist() == [0, 0, 0, 1.0, 1.0, 1.0, 1.0]

    # Truncation below the edge value keeps only vertices.
    Kt = rips_filtration(d, max_dim=2, max_scale=0.4, scale="radius")
    assert Kt.n_cells == 3


def test_rips_simplex_value_is_max_edge():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    d = point_cloud_distances(pts)
    K = rips_filtration(d, max_dim=2, max_scale=10.0, scale="diameter")
    t = K.index_of((0, 1, 2))
    assert K.value(t) == pytest.approx(np.sqrt(5.0))
    assert K.value(K.index_of((0, 1))) == pytest.approx(1.0)


def test_rips_parameter_guards():
    d = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ParameterError):
        rips_filtration(d, max_dim=3, max_scale=1.0)
    with pytest.raises(ParameterError):
        rips_filtration(d, max_dim=-1, max_scale=1.0)
    with pytest.raises(ParameterError):
        rips_filtration(d, max_dim=1, max_scale=0.0)
    with pytest.raises(ParameterError):
        rips_filtration(d, max_dim=1, max_scale=np.inf)
    with pytest.raises(ParameterError):
        rips_filtration(d, max_dim=1, max_scale=1.0, scale="euclid")


def brute_rips_cells(d, max_dim, max_scale):
    n = d.shape[0]
    out = {}
    for k in range(max_dim + 1):
        for verts in itertools.combinations(range(n), k + 1):
            if k == 0:
                out[verts] = 0.0
                continue
            val = max(d[a, b] for a, b in itertools.combinations(verts, 2))
            if val <= max_scale:
                out[verts] = val
    return out


def test_rips_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        pts = rng.uniform(0, 1, size=(n, 2))
        d = point_cloud_distances(pts)
        max_dim = int(rng.integers(0, min(4, n)))
        max_scale = float(rng.uniform(0.2, 1.2))
        K = rips_filtration(d, max_dim, max_scale, scale="diameter")
        want = brute_rips_cells(d, max_dim, max_scale)
        got = {tuple(c): x for c, x in K.items()}
        assert got == want
        assert validate_complex(K) is None


def test_rips_boundaries_are_wired():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(7, 3))
    K = rips_filtration(point_cloud_distances(pts), 3, 1.0, scale="diameter")
    for i in range(K.n_cells):
        faces = {tuple(K.cell(j)) for j in K.boundary(i)}
        assert faces == {tuple(f) for f in K.cell(i).faces()}


@st.composite
def rips_inputs(draw):
    """(distances, max_dim, max_scale, scale): integer ties 0..3 with zero
    off-diagonals or clouds; a scale below, at or above the edges."""
    if draw(st.booleans()):
        d = draw(integer_matrices())
    else:
        d = point_cloud_distances(np.array(draw(clouds)))
    n = d.shape[0]
    scale = draw(st.sampled_from(["radius", "diameter"]))
    w = d / 2.0 if scale == "radius" else d
    ev = np.unique(w[np.triu_indices(n, 1)])
    pos = ev[ev > 0]
    where = draw(st.sampled_from(["below", "at", "above"]))
    if not pos.size:
        ms = 0.5
    elif where == "below":
        ms = float(pos[0]) / 2.0
    elif where == "at":
        ms = float(pos[draw(st.integers(0, pos.size - 1))])
    else:
        ms = float(pos[-1]) + 1.0
    return d, draw(st.integers(0, min(3, n - 1))), ms, scale


@settings(max_examples=300, deadline=None)
@given(case=rips_inputs())
def test_rips_equals_reference_complex_of_its_cells(case):
    """rips_filtration equals FilteredSimplicialComplex built from its own
    cells: same order, values and keys, and the same faces in the same
    order, which is what a complex cache writes."""
    K = rips_filtration(*case)
    ref = FilteredSimplicialComplex(K.items())
    for f in ("values", "dims", "bnd_off", "bnd_flat"):
        got, want = getattr(K, f), getattr(ref, f)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert K.keys == [tuple(k) for k in ref.keys]
    assert all(type(k) is tuple for k in K.keys)
    assert K.meta == ref.meta == {}
