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
    build_cubical_filtration,
    check_distance_matrix,
    point_cloud_distances,
    rips_filtration,
    validate_complex,
)
from phom.io import read_complex_cache, write_complex_cache
from phom.simplicial import _SYMMETRY_TILE
from oracles import (pdist_distances, random_filtration, reference_complex,
                     validate_loop)
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


def test_validate_rejects_cubical_and_cached_filtrations(tmp_path):
    """Cubical keys and cache labels are not vertex lists: ParameterError,
    not a TypeError or a made-up missing face."""
    with pytest.raises(ParameterError, match="simplicial"):
        validate_complex(build_cubical_filtration(np.eye(3)))
    path = str(tmp_path / "K.cplx")
    write_complex_cache(path, FilteredSimplicialComplex(triangle_cells()))
    with pytest.raises(ParameterError, match="simplicial"):
        validate_complex(read_complex_cache(path))


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


@st.composite
def mutated_filtrations(draw):
    """A filtration of random_filtration cells with one mutation: a
    cell's value raised before the build sorts the cells, or in the
    built arrays two positions swapped, a value made NaN, a cell dropped
    or a cell repeated at another position.  Its keys stay a key array,
    or become a list of vertex tuples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = random_filtration(rng, nv=draw(st.integers(1, 7)))
    kind = draw(st.sampled_from(["raise", "swap", "nan", "drop", "repeat"]))
    i = draw(st.integers(0, len(cells) - 1))
    if kind == "raise":  # a face of another cell, if there is one
        faces = [k for k, (v, _) in enumerate(cells) if any(
            set(v) < set(w) for w, _ in cells)] or [i]
        k = faces[i % len(faces)]
        cells[k] = (cells[k][0],
                    cells[k][1] + draw(st.sampled_from([0.25, 1.0, 10.0])))
    K = FilteredSimplicialComplex(cells)
    values, order = K.values.copy(), np.arange(len(K))
    j = draw(st.integers(0, len(K) - 1))
    if kind == "swap":
        order[[i, j]] = order[[j, i]]
    elif kind == "nan":
        values[i] = np.nan
    elif kind == "drop":
        order = np.delete(order, i)
    elif kind == "repeat":
        order = np.insert(order, j, i)
    values = values[order]
    if kind == "repeat":  # the copy may enter later than the original
        values[j] += draw(st.sampled_from([0.0, 1.0]))
    args = (values, K.dims[order],
            np.zeros(order.size + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64))
    if draw(st.booleans()):
        return Filtration(*args, [tuple(c) for c in K._cells(order)])
    return Filtration(*args, K.keys[order], as_cell=K.as_cell)


@settings(max_examples=400, deadline=None)
@given(K=mutated_filtrations())
def test_validate_matches_the_cell_loop(K):
    """validate_complex reports exactly what the Simplex loop reports,
    or None with it."""
    assert validate_complex(K) == validate_loop(K)


def test_validate_hand_built_cases_match_the_cell_loop():
    """List keys: a face of a repeated cell resolves to its last copy, a
    NaN value breaks no order, an empty key has no face, and a cell
    missing several faces names the one without its first vertex."""
    nan = float("nan")
    cases = [
        ([(0,), (1,), (0, 1), (0,)], [0.0, 0.0, 1.0, 2.0]),
        ([(0,), (1,), (0, 1)], [0.0, nan, 1.0]),
        ([(0,), (1,), (0, 1)], [nan, 0.0, -1.0]),
        ([(), (0,)], [0.0, 0.0]),
        ([(1,), (0,)], [0.0, 0.0]),
        ([(0,), (0, 1)], [0.0, 0.0]),
        ([(0,), (1,), (2,), (0, 1, 2)], [0.0, 0.0, 0.0, 0.0]),
        ([(0,), (1,), (2,), (1, 2), (0, 1, 2)], [0.0, 0.0, 0.0, 1.0, 1.0]),
    ]
    for keys, vals in cases:
        K = Filtration(np.array(vals), np.array([len(k) - 1 for k in keys]),
                       np.zeros(len(keys) + 1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), keys)
        assert validate_complex(K) == validate_loop(K)


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
    # A square or a difference past float64.
    for pts in ([[1e200, 0.0], [-1e200, 0.0]], [[1.5e308], [-1.5e308]]):
        with pytest.raises(InputError, match="span too wide a range"):
            point_cloud_distances(np.array(pts))


@st.composite
def scaled_clouds(draw):
    """n = 1..40 points in 1..40 dimensions at a coordinate scale from
    1e-6 to 1e6, about an offset of the same scale, with some points
    repeated."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = (rng.normal(size=(n, dim)) + rng.normal(size=dim)) * scale
    dups = draw(st.integers(0, n - 1))
    pts[rng.integers(0, n, dups)] = pts[rng.integers(0, n, dups)]
    return pts


def same_bits_as_pdist(pts):
    d = point_cloud_distances(pts)
    assert d.dtype == np.float64 and d.shape == (len(pts),) * 2
    assert d.tobytes() == pdist_distances(pts).tobytes()


@settings(max_examples=300, deadline=None)
@given(pts=scaled_clouds())
def test_point_cloud_distances_equal_pdist_bit_for_bit(pts):
    same_bits_as_pdist(pts)


@pytest.mark.parametrize("n, dim", [(1, 1), (1, 5), (2, 1), (2, 40),
                                    (725, 2), (1500, 40)])
def test_point_cloud_distances_equal_pdist_across_row_blocks(n, dim):
    """n > 724 spreads the rows over several _BLOCK_ENTRIES blocks."""
    pts = np.random.default_rng(n + dim).normal(size=(n, dim))
    pts[n // 2] = pts[0]
    same_bits_as_pdist(pts)


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


@st.composite
def nearly_symmetric_matrices(draw):
    """Symmetric distance matrices below one tile up to two tiles and a
    partial one, with up to three off-diagonal entries changed: mostly
    on tile borders and in the last partial tile."""
    t = _SYMMETRY_TILE
    n = draw(st.sampled_from([2, 3, t - 1, t, t + 1, 2 * t + 37]))
    d = np.random.default_rng(n).random((n, n))
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    borders = sorted({0, n - 1} | {k + o for k in range(t, n, t)
                                   for o in (-1, 0)})
    index = st.one_of(st.sampled_from(borders), st.integers(0, n - 1))
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        if i == j:
            continue
        kind = draw(st.sampled_from(["next", "zero", "signed_zero"]))
        if kind == "next":
            d[i, j] = np.nextafter(d[j, i], 9.0)
        elif kind == "zero":
            d[i, j] = 0.0
        else:
            d[i, j], d[j, i] = -0.0, 0.0
    return d


@settings(max_examples=200, deadline=None)
@given(d=nearly_symmetric_matrices())
def test_symmetry_verdict_matches_whole_matrix_compare(d):
    if np.array_equal(d, d.T):
        assert check_distance_matrix(d) is not None
    else:
        with pytest.raises(InputError, match="is not symmetric"):
            check_distance_matrix(d)


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


def assert_same_complex(K, ref):
    """K equals the reference builder's filtration: the bytes of its
    arrays and every cell; its keys are int64 vertex rows padded with
    -1."""
    for f in ("values", "dims", "bnd_off", "bnd_flat"):
        got, want = getattr(K, f), getattr(ref, f)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    cells = [K.cell(i) for i in range(len(K))]
    assert cells == ref.keys
    assert all(type(c) is Simplex for c in cells)
    w = K.keys.shape[1]
    assert K.keys.dtype == np.int64 and w > K.dim
    assert K.keys.tolist() == [list(c) + [-1] * (w - len(c))
                               for c in ref.keys]
    assert K.meta == ref.meta == {}


@settings(max_examples=300, deadline=None)
@given(case=rips_inputs())
def test_rips_equals_reference_complex_of_its_cells(case):
    """rips_filtration, and FilteredSimplicialComplex of its cells, equal
    the reference builder of those cells: same order, values and cells,
    and the same faces in the same order, which is what a complex cache
    writes."""
    K = rips_filtration(*case)
    ref = reference_complex(K.items())
    assert_same_complex(K, ref)
    assert_same_complex(FilteredSimplicialComplex(K.items()), ref)
    # One edge table: every zero-length edge enters at the same zero,
    # even where the distances mix -0.0 and 0.0.
    zeros = K.values[(K.dims > 0) & (K.values == 0)]
    assert np.signbit(zeros).all() or not np.signbit(zeros).any()


@st.composite
def mutated_cells(draw):
    """The cells of a random filtration, with vertex ids shifted by 0,
    2**62 or 2**63 - 8, shuffled, then maybe mutated: a cell dropped or
    repeated, a value made non-finite, a vertex list made invalid."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from([0, 2 ** 62, 2 ** 63 - 8]))
    cells = [(tuple(v + shift for v in verts), value) for verts, value in
             random_filtration(rng, nv=draw(st.integers(1, 7)))]
    cells = list(draw(st.permutations(cells)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(cells) - 1))
        verts, value = cells[i]
        verts = verts or (0,)  # a vertex list emptied by a mutation
        kind = draw(st.sampled_from(["drop", "repeat", "value", "vertices"]))
        if kind == "drop" and len(cells) > 1:
            del cells[i]
        elif kind == "repeat":
            cells.insert(draw(st.integers(0, len(cells))),
                         (verts, draw(st.sampled_from([value, value + 1]))))
        elif kind == "value":
            cells[i] = (verts, draw(st.sampled_from(
                [float("nan"), float("inf"), -float("inf")])))
        elif kind == "vertices":
            cells[i] = (draw(st.sampled_from(
                [(), (-1,) + verts, verts + verts[-1:],
                 (verts[-1] + 1,) + verts])), value)
    return cells


@settings(max_examples=300, deadline=None)
@given(cells=mutated_cells())
def test_complex_matches_reference_builder(cells):
    """FilteredSimplicialComplex builds what the reference builder
    builds, or raises the same exception class with the same message."""
    try:
        ref = reference_complex(cells)
    except (InputError, ParameterError) as exc:
        with pytest.raises(type(exc)) as got:
            FilteredSimplicialComplex(cells)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert_same_complex(FilteredSimplicialComplex(cells), ref)


def test_complex_beyond_64_bit_face_keys():
    """The closure of a 9-simplex among 600 vertices: 601**9 > 2**63, so
    no base-(n+1) int64 key holds its faces, and it still builds."""
    rng = np.random.default_rng(5)
    top = sorted(rng.choice(600, 10, replace=False).tolist())
    cells = [((v,), 0.0) for v in range(600)] + [
        (face, float(r)) for r in range(2, 11)
        for face in itertools.combinations(top, r)]
    order = rng.permutation(len(cells))
    cells = [cells[i] for i in order]
    assert_same_complex(FilteredSimplicialComplex(cells),
                        reference_complex(cells))


@pytest.mark.parametrize("verts", [(2 ** 63,), (0, 2 ** 63), (1, 2 ** 64 + 1)])
def test_complex_rejects_vertex_ids_past_int64(verts):
    cells = [((0,), 0.0), ((1,), 0.0), (verts, 1.0)]
    with pytest.raises(ParameterError, match="below 2\\*\\*63"):
        FilteredSimplicialComplex(cells)


def test_rips_face_keys_fit_in_int64():
    """rips_filtration takes (n+1)**max_dim < 2**63: 17 points build up
    to max_dim 15 (18**15 < 2**63) with every face wired, and one more,
    or 20 points at max_dim 15, is a ParameterError before any cell."""
    n = 17
    d = np.ones((n, n)) - np.eye(n)
    K = rips_filtration(d, 15, 10.0)
    # Each cell as a vertex bitmask: face c of a cell drops its c-th
    # vertex, so the dropped bits rise and add up to the cell.
    mask = np.array([sum(1 << v for v in K.cell(i)) for i in range(len(K))])
    assert len(K) == 2 ** n - 2 and np.unique(mask).size == len(K)
    cell = np.repeat(mask, np.diff(K.bnd_off))
    dropped = cell - mask[K.bnd_flat]
    assert np.all(mask[K.bnd_flat] & ~cell == 0)
    assert np.all(dropped & (dropped - 1) == 0)
    starts = K.bnd_off[:-1][K.dims > 0]
    assert np.array_equal(np.add.reduceat(dropped, starts),
                          mask[K.dims > 0])
    rising = np.diff(dropped) > 0
    rising[starts[1:] - 1] = True
    assert rising.all()
    for m, md in ((17, 16), (20, 15)):
        with pytest.raises(ParameterError, match="64-bit face keys"):
            rips_filtration(np.ones((m, m)) - np.eye(m), md, 10.0)
