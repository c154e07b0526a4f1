"""Boundary matrices, GF(2) ranks, Betti numbers, and table rendering."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings

from phom import (
    FilteredSimplicialComplex,
    Filtration,
    InputError,
    ParameterError,
    betti_numbers,
    boundary_dense,
    build_boundary_matrix,
    build_cubical_filtration,
    connected_components,
    format_boundary_table,
    gf2_eliminate,
    gf2_rank,
    image_persistence,
    point_cloud_distances,
    rips_filtration,
    snf_rank,
)
from phom.io import read_complex_cache, write_complex_cache
from oracles import (
    bitmask_rank,
    components_via_union_find,
    csgraph_components,
    multigraphs,
    random_filtration,
    simplex_betti,
    sorted_boundary_matrix,
)

NAMES = dict(enumerate("abcde"))

# Five vertices a..e, six edges, one triangle abc.
EXAMPLE_CELLS = [
    ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0), ((4,), 0),
    ((0, 1), 0), ((0, 2), 0), ((0, 3), 0), ((1, 2), 0), ((1, 3), 0),
    ((3, 4), 0), ((0, 1, 2), 0)]

TABLE_D0 = """\
d0  [a] [b] [c] [d] [e]
[0]   0   0   0   0   0"""

TABLE_D1 = """\
d1  [a,b] [a,c] [a,d] [b,c] [b,d] [d,e]
[a]     1     1     1     0     0     0
[b]     1     0     0     1     1     0
[c]     0     1     0     1     0     0
[d]     0     0     1     0     1     1
[e]     0     0     0     0     0     1"""

TABLE_D2 = """\
d2    [a,b,c]
[a,b]       1
[a,c]       1
[a,d]       0
[b,c]       1
[b,d]       0
[d,e]       0"""


def example_complex():
    return FilteredSimplicialComplex(EXAMPLE_CELLS)


def test_boundary_matrix_goldens():
    K = example_complex()
    assert format_boundary_table(build_boundary_matrix(K, 0), NAMES) == TABLE_D0
    assert format_boundary_table(build_boundary_matrix(K, 1), NAMES) == TABLE_D1
    assert format_boundary_table(build_boundary_matrix(K, 2), NAMES) == TABLE_D2


def test_boundary_matrix_dense_entries():
    K = example_complex()
    B1 = build_boundary_matrix(K, 1).dense()
    assert B1.tolist() == [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 0, 1]]
    B2 = build_boundary_matrix(K, 2).dense()
    assert B2.tolist() == [[1], [1], [0], [1], [0], [0]]
    B0 = build_boundary_matrix(K, 0).dense()
    assert B0.shape == (1, 5)
    assert not B0.any()


def test_boundary_matrix_column_row_labels():
    K = example_complex()
    B1 = build_boundary_matrix(K, 1)
    assert [tuple(s) for s in B1.cols] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]
    assert [tuple(s) for s in B1.rows] == [(0,), (1,), (2,), (3,), (4,)]


def explicit_complexes(tmp_path):
    """Rips and FilteredSimplicialComplex complexes with vertex ids up to
    11, cubical grids of 1-3 axes with doubled coordinates up to 14, the
    caches of all of them (whose text order differs from the numeric
    one), the same cells as lists of tuples, and a list-key complex with
    a repeated edge."""
    rng = np.random.default_rng(12)
    out = [rips_filtration(point_cloud_distances(rng.uniform(0, 1, (12, 2))),
                           3, 0.5),
           example_complex(),
           FilteredSimplicialComplex(random_filtration(rng, nv=7)),
           build_cubical_filtration(rng.uniform(0, 1, 7)),
           build_cubical_filtration(rng.integers(0, 3, (6, 5)).astype(float)),
           build_cubical_filtration(rng.uniform(0, 1, (2, 2, 6)))]
    for i, K in enumerate(out[:6]):
        path = str(tmp_path / f"{i}.cplx")
        write_complex_cache(path, K, meta={"kind": "cubical"} if i > 2 else {})
        out.append(read_complex_cache(path))
        out.append(Filtration(K.values, K.dims, K.bnd_off, K.bnd_flat,
                              [tuple(c) for c, _ in K.items()]))
    K = example_complex()
    ab = K.index_of((0, 1))
    keys = [tuple(c) for c, _ in K.items()]
    out.append(Filtration(
        np.append(K.values, 0.0), np.append(K.dims, 1),
        np.append(K.bnd_off, K.bnd_off[-1] + 2),
        np.append(K.bnd_flat, K.boundary(ab)), keys + [keys[ab]]))
    return out


def test_boundary_matrix_matches_sorted_cells(tmp_path):
    """Rows, columns, entries and table bytes equal those of sorting
    (cell(i), i), so text keys sort as text and ties go by position;
    cell(i) equals the cell items() gives, type included."""
    for K in explicit_complexes(tmp_path):
        cells = [c for c, _ in K.items()]
        assert [(K.cell(i), type(K.cell(i))) for i in range(len(K))] == [
            (c, type(c)) for c in cells]
        for k in range(K.dim + 2):
            got = build_boundary_matrix(K, k)
            want = sorted_boundary_matrix(K, k)
            assert got.rows == want.rows and got.cols == want.cols
            assert [type(c) for c in got.rows + got.cols] == [
                type(c) for c in want.rows + want.cols]
            assert got.columns == want.columns
            assert (format_boundary_table(got).encode()
                    == format_boundary_table(want).encode())
    with pytest.raises(ParameterError):
        build_boundary_matrix(K, -1)


def test_snf_ranks_of_example():
    K = example_complex()
    r1 = snf_rank(build_boundary_matrix(K, 1))
    r2 = snf_rank(build_boundary_matrix(K, 2))
    assert r1.rank == 4
    assert r2.rank == 1
    # Diagonalized form: identity block of size rank, zeros elsewhere.
    want = np.zeros((5, 6), dtype=np.uint8)
    want[:4, :4] = np.eye(4)
    assert np.array_equal(r1.matrix, want)


def test_betti_of_example():
    K = example_complex()
    assert betti_numbers(K, max_dim=1) == [1, 1]
    # rank Z1 = n_edges - rank d1, rank B1 = rank d2.
    assert 6 - snf_rank(build_boundary_matrix(K, 1)).rank == 2
    assert snf_rank(build_boundary_matrix(K, 2)).rank == 1


def test_betti_small_complexes():
    hollow = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0),
        ((0, 1), 0), ((0, 2), 0), ((1, 2), 0)])
    assert betti_numbers(hollow, max_dim=1) == [1, 1]

    two_comp = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0),
        ((0, 1), 0), ((2, 3), 0)])
    assert betti_numbers(two_comp, max_dim=1) == [2, 0]

    path = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0),
        ((0, 1), 0), ((1, 2), 0), ((2, 3), 0)])
    assert betti_numbers(path, max_dim=1) == [1, 0]


def test_betti_filled_triangle_and_sphere():
    filled = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0),
        ((0, 1), 0), ((0, 2), 0), ((1, 2), 0), ((0, 1, 2), 0)])
    assert betti_numbers(filled, max_dim=2) == [1, 0, 0]

    # Boundary of a tetrahedron: a 2-sphere.
    cells = [((i,), 0) for i in range(4)]
    cells += [((a, b), 0) for a in range(4) for b in range(a + 1, 4)]
    cells += [((0, 1, 2), 0), ((0, 1, 3), 0), ((0, 2, 3), 0), ((1, 2, 3), 0)]
    sphere = FilteredSimplicialComplex(cells)
    assert betti_numbers(sphere, max_dim=2) == [1, 0, 1]


def test_gf2_eliminate_known_matrix():
    m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    rank, pivots = gf2_eliminate(m)
    assert rank == 2
    assert len(pivots) == 2
    assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5


def test_gf2_rank_matches_bitmask_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        m = rng.integers(0, 2, size=(r, c)).astype(np.uint8)
        masks = [int("".join(str(b) for b in row), 2) if row.any() else 0
                 for row in m]
        assert gf2_rank(m) == bitmask_rank(masks)


def test_snf_diagonal_shape():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.integers(0, 2, size=(6, 7)).astype(np.uint8)
        res = snf_rank(m)
        assert res.rank == gf2_rank(m)
        d = res.matrix
        assert np.array_equal(d[:res.rank, :res.rank],
                              np.eye(res.rank, dtype=d.dtype))
        assert not d[res.rank:, :].any()
        assert not d[:, res.rank:].any()


def test_boundary_dense_matches_lex_ranks():
    K = example_complex()
    Bf = boundary_dense(K, 1)
    Bl = build_boundary_matrix(K, 1).dense()
    assert np.array_equal(Bf, Bl)
    assert gf2_rank(Bf) == 4


def test_textbook_route_on_cubical_grid_and_its_cache(tmp_path):
    """The boundary matrices of a 2x2 cubical grid, and of its cache read
    back, come from the complex's own faces: their ranks give
    betti_numbers and the classes image_persistence leaves alive at the
    end of the filtration."""
    grid = np.array([[0.0, 2.0], [3.0, 1.0]])
    K = build_cubical_filtration(grid)
    path = str(tmp_path / "g.cplx")
    write_complex_cache(path, K, meta={"kind": "cubical-sublevel"})
    back = read_complex_cache(path)
    alive = image_persistence(grid).betti_at(float(grid.max()), max_dim=2)
    for C in (K, back):
        B = [build_boundary_matrix(C, k) for k in range(4)]
        assert [len(b.cols) for b in B] == [9, 12, 4, 0]
        for b in B[1:3]:
            assert all(len(col) == 2 * b.k for col in b.columns)
        ranks = [snf_rank(b).rank for b in B]
        betti = [len(B[k].cols) - ranks[k] - ranks[k + 1] for k in range(3)]
        assert betti == betti_numbers(C, max_dim=2) == alive == [1, 0, 0]
        table = format_boundary_table(B[2]).splitlines()
        assert len(table) == 1 + 12
    # The cache keeps the cells as label text; with one-digit coordinates
    # its lexicographic order is the lattice's, so the matrices agree.
    assert build_boundary_matrix(back, 1).rows == [
        ",".join(map(str, c)) for c in build_boundary_matrix(K, 1).rows]
    for k in range(3):
        assert np.array_equal(boundary_dense(back, k), boundary_dense(K, k))


def test_boundary_of_boundary_is_zero():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 7))
        pts = rng.uniform(0, 1, size=(n, 3))
        from phom import point_cloud_distances, rips_filtration
        K = rips_filtration(point_cloud_distances(pts), 3, 2.0,
                            scale="diameter")
        for k in range(2, K.dim + 1):
            prod = (boundary_dense(K, k - 1).astype(np.int64)
                    @ boundary_dense(K, k).astype(np.int64)) % 2
            assert not prod.any()


def test_betti_matches_combinatorial_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        pts = rng.uniform(0, 1, size=(n, 2))
        from phom import point_cloud_distances, rips_filtration
        K = rips_filtration(point_cloud_distances(pts), min(3, n - 1),
                            rng.uniform(0.3, 1.2), scale="diameter")
        top = max(1, K.dim)
        cells = [tuple(c) for c, _ in K.items()]
        assert betti_numbers(K, max_dim=top) == simplex_betti(cells, top)


def test_betti_guards():
    K = example_complex()
    with pytest.raises(ParameterError):
        betti_numbers(K, max_dim=-1)
    with pytest.raises(ParameterError):
        build_boundary_matrix(K, -1)
    # Dimensions above the top of the complex give an empty matrix.
    assert build_boundary_matrix(K, 3).cols == []


def test_connected_components_basic():
    assert connected_components(5, [(0, 1), (1, 2)]) == 3
    assert connected_components(3, []) == 3
    assert connected_components(4, [(0, 1), (2, 3), (1, 2), (0, 3)]) == 1


def test_connected_components_matches_union_find_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        n_e = int(rng.integers(0, 2 * n))
        edges = [tuple(sorted(rng.choice(n, 2, replace=False)))
                 for _ in range(n_e)] if n > 1 else []
        cells = [(i,) for i in range(n)] + [tuple(e) for e in set(edges)]
        assert connected_components(n, edges) == components_via_union_find(cells)


@settings(max_examples=300, deadline=None)
@given(graph=multigraphs())
@example(graph=(1, [(0, 0)]))
@example(graph=(5, [(3, 3), (1, 4), (4, 1), (1, 4)]))
def test_connected_components_matches_csgraph(graph):
    n, edges = graph
    assert connected_components(n, edges) == csgraph_components(n, edges)


def test_connected_components_rejects_bad_endpoints():
    assert connected_components(0, []) == 0
    for edge in [(0, 3), (-1, 0), (2, 7)]:
        with pytest.raises(InputError, match=re.escape(str(edge))):
            connected_components(3, [(0, 1), edge])
    with pytest.raises(ParameterError):
        connected_components(-1, [])


def test_format_table_custom_names():
    K = FilteredSimplicialComplex([((0,), 0), ((1,), 0), ((0, 1), 0)])
    B = build_boundary_matrix(K, 1)
    out = format_boundary_table(B, lambda v: "xy"[v])
    assert out.splitlines()[0].split() == ["d1", "[x,y]"]
    # Default rendering falls back to numeric vertex ids.
    assert format_boundary_table(B).splitlines()[0].split() == ["d1", "[0,1]"]
