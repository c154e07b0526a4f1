"""Matrix-reduction persistence, pairings, cycles, and sparsification."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phom import (
    FilteredSimplicialComplex,
    ParameterError,
    RepresentativeCycle,
    betti_numbers,
    build_cubical_filtration,
    compute_persistence,
    cycle_boundary_is_zero,
    diagram_at_scale_betti,
    point_cloud_distances,
    representative_cycle,
    rips_filtration,
    sparsify_cycle,
)
from phom.io import read_complex_cache, write_complex_cache
from phom.persistence import MAX_BUDGET, contracted_h0, union_find_h0
from oracles import (
    brute_min_cycle_size,
    diagram_from_pairs,
    multigraphs,
    random_filtration,
    reduction_pairs,
    scan_pair_for,
    simplex_betti,
)


def three_path():
    return FilteredSimplicialComplex([
        ((0,), 0.0), ((1,), 0.5), ((2,), 1.0),
        ((0, 1), 1.5), ((1, 2), 2.0)])


def square_loop():
    return FilteredSimplicialComplex([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 0.0),
        ((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 3), 2.0)])


def test_three_path_elder_rule():
    dg, _ = compute_persistence(three_path())
    assert dg.points == [
        (0, 0.0, math.inf), (0, 0.5, 1.5), (0, 1.0, 2.0)]


def test_square_loop_points():
    dg, _ = compute_persistence(square_loop())
    assert dg.points == [
        (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf),
        (1, 2.0, math.inf)]


def test_filled_triangle_kills_loop():
    K = FilteredSimplicialComplex([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
        ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
        ((0, 1, 2), 2.0)])
    dg, _ = compute_persistence(K)
    assert dg.in_dim(1).tolist() == [[1.0, 2.0]]
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]


def test_zero_persistence_kept_in_pairing_only():
    K = FilteredSimplicialComplex([
        ((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)])
    dg, pairing = compute_persistence(K)
    assert dg.points == [(0, 0.0, math.inf)]
    assert len(pairing.pairs) == 1
    i, j = pairing.pairs[0]
    assert K.values[i] == K.values[j]


def test_max_dim_truncates_reporting():
    K = square_loop()
    dg, pairing = compute_persistence(K, max_dim=0)
    assert all(d == 0 for d, _, _ in dg.points)
    assert dg.metadata["max_dim"] == 0
    # Essential H1 class must not leak into dim-0 reporting.
    assert dg.betti_at(5.0) == [1]


def test_matches_textbook_reduction(tmp_path):
    """Every builder's output against the single-matrix oracle."""
    rng = np.random.default_rng(21)
    complexes = [FilteredSimplicialComplex(
        random_filtration(rng, nv=int(rng.integers(3, 7))))
        for _ in range(60)]
    for shape in [(5,), (3, 3), (2, 4), (2, 2, 2)]:
        for _ in range(3):
            complexes.append(build_cubical_filtration(
                np.round(rng.uniform(0, 1, size=shape), 1)))
    path = str(tmp_path / "K.cplx")
    for K, kind in [(rips_filtration(point_cloud_distances(
                         rng.uniform(0, 1, size=(7, 2))), 2, 0.5), "rips"),
                    (build_cubical_filtration(
                         np.round(rng.uniform(0, 1, size=(3, 4)), 1)),
                     "cubical-sublevel")]:
        write_complex_cache(path, K, meta={"kind": kind})
        complexes.append(read_complex_cache(path))
    for K in complexes:
        face_lists = [K.boundary(i).tolist() for i in range(K.n_cells)]
        pairs, unpaired, _ = reduction_pairs(face_lists)
        want = diagram_from_pairs(pairs, unpaired, K.dims, K.values, K.dim)
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        assert dg.points == want
        assert dict(pairing.pairs) == pairs
        assert set(pairing.essential) == unpaired


@st.composite
def filtrations(draw):
    """(filtration, its cache kind): a grid with 1 to 3 axes and values
    0..3, so cells tie, or a random_filtration complex, whose vertices
    enter at different values."""
    if draw(st.booleans()):
        shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        vals = draw(st.lists(st.integers(0, 3), min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        return build_cubical_filtration(np.reshape(vals, shape)), "cubical"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return FilteredSimplicialComplex(
        random_filtration(rng, nv=draw(st.integers(1, 7)))), "simplicial"


@settings(max_examples=300, deadline=None)
@given(built=filtrations(), cached=st.booleans(), data=st.data())
def test_engine_and_cycles_match_oracle(built, cached, data):
    """Pairs, essentials, points and the cycles of paired points agree
    with the textbook reduction at every max_dim, also after a cache
    round-trip."""
    K, kind = built
    if cached:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "K.cplx")
            write_complex_cache(path, K, meta={"kind": kind})
            K = read_complex_cache(path)
    max_dim = data.draw(st.integers(0, max(K.dim, 0)))
    pairs, unpaired, columns = reduction_pairs(
        [K.boundary(i).tolist() for i in range(K.n_cells)])
    dg, pairing = compute_persistence(K, max_dim=max_dim)
    assert dg.points == diagram_from_pairs(pairs, unpaired, K.dims,
                                           K.values, max_dim)
    assert dict(pairing.pairs) == {i: j for i, j in pairs.items()
                                   if K.dims[i] <= max_dim}
    assert set(pairing.essential) == {i for i in unpaired
                                      if K.dims[i] <= max_dim}
    for pt in dg.points:
        i, j = pairing.pair_for(pt)
        cyc = representative_cycle(pairing, pt)
        if pt[0] == 0:
            assert cyc.cells == {i}
        elif j is not None:
            assert cyc.cells == columns[j]
        else:
            assert i in cyc.cells and cycle_boundary_is_zero(cyc)


@settings(max_examples=500, deadline=None)
@given(graph=multigraphs())
@example(graph=(1, []))
@example(graph=(1, [(0, 0)]))
@example(graph=(4, []))
@example(graph=(3, [(2, 1), (1, 2), (2, 1), (0, 2)]))
# Root pairs (1, 2) then (0, 2): np.unique returns them swapped.
@example(graph=(4, [(2, 3), (1, 3), (0, 3)]))
# The vertex graph of the 3x3 image [[0,1,0],[1,2,1],[0,1,0]]: four
# roots remain after contraction.
@example(graph=(16, [(0, 1), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7),
                     (4, 5), (6, 7), (8, 9), (10, 11), (8, 12), (9, 13),
                     (10, 14), (11, 15), (12, 13), (14, 15), (1, 2), (5, 6),
                     (4, 8), (5, 9), (6, 10), (7, 11), (9, 10), (13, 14)]))
def test_contracted_h0_matches_union_find(graph):
    n, edges = graph
    a = np.array([x for x, _ in edges], dtype=np.int64)
    b = np.array([y for _, y in edges], dtype=np.int64)
    want = union_find_h0(n, a, b)
    got = contracted_h0(n, a, b)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_betti_sweep_matches_diagram():
    rng = np.random.default_rng(33)
    for _ in range(25):
        K = FilteredSimplicialComplex(
            random_filtration(rng, nv=int(rng.integers(3, 6))))
        top = K.dim
        for eps in np.unique(K.values):
            eps = float(eps)
            via_diagram = diagram_at_scale_betti(K, eps, max_dim=top)
            sub = K.sublevel(eps)
            cells = [tuple(c) for c, _ in sub.items()]
            assert via_diagram == simplex_betti(cells, top)
            assert via_diagram == betti_numbers(sub, max_dim=top)


def test_pairing_is_partial_matching():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = FilteredSimplicialComplex(random_filtration(rng, nv=5))
        _, pairing = compute_persistence(K, max_dim=K.dim)
        births = [i for i, _ in pairing.pairs]
        deaths = [j for _, j in pairing.pairs]
        seen = births + deaths + pairing.essential
        assert len(seen) == len(set(seen)) == K.n_cells
        for i, j in pairing.pairs:
            assert i < j
            assert K.dims[j] == K.dims[i] + 1
            assert K.values[i] <= K.values[j]


def test_pair_for_roundtrip_and_miss():
    K = square_loop()
    dg, pairing = compute_persistence(K)
    for pt in dg.points:
        i, j = pairing.pair_for(pt)
        assert float(K.values[i]) == pt[1]
        if math.isinf(pt[2]):
            assert j is None
        else:
            assert float(K.values[j]) == pt[2]
    with pytest.raises(ParameterError):
        pairing.pair_for((0, 0.25, 1.0))


@settings(max_examples=200, deadline=None)
@given(built=filtrations(), data=st.data())
def test_pair_for_matches_scan(built, data):
    """The array lookup returns the scan's first match in pairing order,
    on tied values (duplicate points), essentials, -0.0 and misses."""
    K, _ = built
    dg, pairing = compute_persistence(K, max_dim=data.draw(
        st.integers(0, max(K.dim, 0))))
    queries = list(dg.points)
    for dim, birth, death in dg.points[:4]:
        queries += [(dim + 1, birth, death), (dim, birth, math.inf),
                    (dim, -birth, death), (dim, birth, death + 0.125),
                    (dim, birth, -math.inf)]
    queries.append(data.draw(st.tuples(st.integers(-1, 3),
                                       st.sampled_from([-0.0, 0.0, 0.5]),
                                       st.sampled_from([0.5, math.inf]))))
    for pt in queries:
        want = scan_pair_for(pairing, pt)
        if want is None:
            with pytest.raises(ParameterError, match="no diagram point"):
                pairing.pair_for(pt)
        else:
            assert pairing.pair_for(pt) == want


def test_representative_cycle_dim0_is_birth_vertex():
    K = three_path()
    dg, pairing = compute_persistence(K)
    cyc = representative_cycle(pairing, (0, 0.5, 1.5))
    assert cyc.cells == frozenset([K.index_of((1,))])
    assert cyc.labels() == ["1"]


def test_representative_cycle_square_loop():
    K = square_loop()
    dg, pairing = compute_persistence(K)
    cyc = representative_cycle(pairing, (1, 2.0, math.inf))
    assert cyc.simplices() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert cycle_boundary_is_zero(cyc)


def test_representative_cycles_random():
    rng = np.random.default_rng(44)
    for _ in range(20):
        K = FilteredSimplicialComplex(random_filtration(rng, nv=6))
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        for pt in dg.points:
            cyc = representative_cycle(pairing, pt)
            assert len(cyc) >= 1
            if pt[0] >= 1:
                assert cycle_boundary_is_zero(cyc)
                assert len(cyc) >= 3
            for i in cyc.cells:
                assert K.values[i] <= pt[1]
                assert K.dims[i] == pt[0]
            i_birth, _ = pairing.pair_for(pt)
            if pt[0] >= 1:
                assert i_birth in cyc.cells


def birth_cofaces(K, cyc):
    """Bitset boundaries of the (k+1)-cells at or below the birth scale."""
    k = int(K.dims[next(iter(cyc.cells))])
    m = int(np.searchsorted(K.values, float(cyc.point[1]), side="right"))
    k_ids = [i for i in range(m) if K.dims[i] == k]
    rank = {g: r for r, g in enumerate(k_ids)}
    start = sum(1 << rank[int(i)] for i in cyc.cells)
    cofs = []
    for j in range(m):
        if K.dims[j] == k + 1:
            mask = 0
            for f in K.boundary(j):
                mask ^= 1 << rank[int(f)]
            cofs.append(mask)
    return start, cofs, k_ids


def test_sparsify_exact_is_minimum():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(40):
        K = FilteredSimplicialComplex(random_filtration(rng, nv=6))
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        for pt in dg.points:
            if pt[0] < 1:
                continue
            cyc = representative_cycle(pairing, pt)
            start, cofs, _ = birth_cofaces(K, cyc)
            if len(cofs) > 16:
                continue
            sparse = sparsify_cycle(cyc, budget=16)
            assert len(sparse) == brute_min_cycle_size(start, cofs)
            assert len(sparse) <= len(cyc)
            assert cycle_boundary_is_zero(sparse)
            checked += 1
    assert checked >= 10


def test_sparsify_output_is_homologous():
    rng = np.random.default_rng(66)
    from oracles import bitmask_rank
    for _ in range(30):
        K = FilteredSimplicialComplex(random_filtration(rng, nv=6))
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        for pt in dg.points:
            if pt[0] < 1:
                continue
            cyc = representative_cycle(pairing, pt)
            sparse = sparsify_cycle(cyc, budget=12)
            assert len(sparse) <= len(cyc)
            start, cofs, k_ids = birth_cofaces(K, cyc)
            rank = {g: r for r, g in enumerate(k_ids)}
            got = sum(1 << rank[int(i)] for i in sparse.cells)
            # Difference must lie in the span of coface boundaries.
            diff = start ^ got
            assert bitmask_rank(cofs) == bitmask_rank(cofs + [diff])


def test_sparsify_greedy_mode_never_grows():
    rng = np.random.default_rng(77)
    for _ in range(10):
        K = FilteredSimplicialComplex(random_filtration(rng, nv=6))
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        for pt in dg.points:
            if pt[0] != 1:
                continue
            cyc = representative_cycle(pairing, pt)
            sparse = sparsify_cycle(cyc, budget=0)
            assert len(sparse) <= len(cyc)
            assert cycle_boundary_is_zero(sparse)


def test_sparsify_guards():
    K = square_loop()
    dg, pairing = compute_persistence(K)
    cyc = representative_cycle(pairing, (1, 2.0, math.inf))
    with pytest.raises(ParameterError):
        sparsify_cycle(cyc, budget=-1)
    with pytest.raises(ParameterError, match="budget"):
        sparsify_cycle(cyc, budget=MAX_BUDGET + 1)
    assert len(sparsify_cycle(cyc, budget=MAX_BUDGET)) == len(cyc)
    bogus = RepresentativeCycle((1, 0.5, math.inf),
                                frozenset([K.index_of((0, 3))]), K)
    with pytest.raises(ParameterError):
        sparsify_cycle(bogus)


def test_compute_persistence_guards():
    with pytest.raises(ParameterError):
        compute_persistence(three_path(), max_dim=-1)


def test_diagram_accessors():
    dg, _ = compute_persistence(square_loop())
    assert len(dg) == 5
    fin = dg.in_dim(0, finite=True)
    assert fin.shape == (3, 2)
    assert dg.in_dim(1, finite=True).shape == (0, 2)
    assert dg.in_dim(1, finite=False).tolist() == [[2.0, math.inf]]
    assert dg.betti_at(0.5) == [4, 0]
    assert dg.betti_at(1.5) == [1, 0]
    assert dg.betti_at(2.0) == [1, 1]


def test_metadata_passthrough():
    dg, _ = compute_persistence(three_path(), metadata={"source": "unit"})
    assert dg.metadata["source"] == "unit"
    assert dg.metadata["max_dim"] == 1
