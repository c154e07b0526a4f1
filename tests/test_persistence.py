"""Matrix-reduction persistence, pairings, cycles, and sparsification."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phom import (
    FilteredSimplicialComplex,
    InternalError,
    ParameterError,
    PersistencePairing,
    RepresentativeCycle,
    betti_numbers,
    build_cubical_filtration,
    compute_persistence,
    cycle_boundary_is_zero,
    diagram_at_scale_betti,
    point_cloud_distances,
    representative_cycle,
    rips_filtration,
    rips_persistence,
    rips_persistence_batch,
    sample_annulus,
    sparsify_cycle,
    voxel_persistence,
)
from phom import cubical, persistence, simplicial
from phom.io import read_complex_cache, write_complex_cache
from phom.persistence import (MAX_BUDGET, Filtration, boruvka_h0,
                              reduce_coboundaries, union_find_h0)
from oracles import (
    _reduce_to,
    bit_positions,
    brute_min_cycle_size,
    diagram_from_pairs,
    multigraphs,
    random_filtration,
    reduction_pairs,
    scan_pair_for,
    simplex_betti,
    tied_grids,
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


def cache_round_trip(K, kind):
    """K written by write_complex_cache and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "K.cplx")
        write_complex_cache(path, K, meta={"kind": kind})
        return read_complex_cache(path)


@st.composite
def filtrations(draw):
    """(filtration, its cache kind): a grid with 1 to 3 axes and values
    0..3, so cells tie, or a random_filtration complex, whose vertices
    enter at different values; it may be empty or have only vertices."""
    if draw(st.booleans()):
        shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        vals = draw(st.lists(st.integers(0, 3), min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        return build_cubical_filtration(np.reshape(vals, shape)), "cubical"
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return FilteredSimplicialComplex(
        random_filtration(rng, nv=draw(st.integers(0, 7)))), "simplicial"


@settings(max_examples=300, deadline=None)
@given(built=filtrations(), cached=st.booleans(), data=st.data())
def test_engine_and_cycles_match_oracle(built, cached, data):
    """Pairs, essentials, points and the cycles of paired and essential
    points agree with the textbook reduction at every max_dim, up to two
    above the top dimension, also after a cache round-trip; no top cell,
    which has no coface, goes to pair_columns."""
    K, kind = built
    if cached:
        K = cache_round_trip(K, kind)
    max_dim = data.draw(st.integers(0, max(K.dim, 0) + 2))
    pairs, unpaired, columns = reduction_pairs(
        [K.boundary(i).tolist() for i in range(K.n_cells)])
    dims_paired, pair_columns = [], persistence.pair_columns

    def spy(cols, *args):
        dims_paired.append(K.dims[cols])
        return pair_columns(cols, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(persistence, "pair_columns", spy)
        dg, pairing = compute_persistence(K, max_dim=max_dim)
    assert all((d < K.dim).all() for d in dims_paired)
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
            assert cyc.cells == bit_positions(_reduce_to(K, pt[0], i)[1])
            assert cycle_boundary_is_zero(cyc)


def lattice_graph(g):
    """The H0 graph that cubical._h0_pairs hands to boruvka_h0 for the
    grid g: vertex count and lattice edges in filtration order."""
    rank, cells = cubical._cell_order(g)
    a, b = np.empty((2, cells[1].size), dtype=rank.dtype)
    for _, _, edges, below, above in cubical._face_steps(rank, 1):
        a[edges], b[edges] = below, above
    return cells[0].size, list(zip(a.tolist(), b.tolist()))


@st.composite
def path_graphs(draw):
    """A path with edges in order along it, over vertices in falling or
    rising age or shuffled; from the young end of a falling path, each
    round of boruvka_h0 kills one root."""
    n = draw(st.integers(1, 30))
    walk = draw(st.sampled_from([list(range(n))[::-1], list(range(n))])
                | st.permutations(range(n)))
    edges = list(zip(walk, walk[1:]))
    return n, edges[::-1] if draw(st.booleans()) else edges


@st.composite
def disjoint_unions(draw):
    """A disjoint union of 1-4 lattice graphs of small grids and paths:
    their vertices and edges interleave, each graph's own order kept."""
    parts = draw(st.lists(tied_grids().map(lattice_graph) | path_graphs(),
                          min_size=1, max_size=4))
    labels = draw(st.permutations(
        [i for i, (n, _) in enumerate(parts) for _ in range(n)]))
    ids: list[list[int]] = [[] for _ in parts]
    for v, i in enumerate(labels):
        ids[i].append(v)
    order = draw(st.permutations(
        [i for i, (_, edges) in enumerate(parts) for _ in edges]))
    rest = [iter(edges) for _, edges in parts]
    return len(labels), [tuple(ids[i][x] for x in next(rest[i]))
                         for i in order]


@settings(max_examples=500, deadline=None)
@given(graph=multigraphs() | path_graphs() | disjoint_unions())
@example(graph=(0, []))
@example(graph=(1, []))
@example(graph=(1, [(0, 0)]))
@example(graph=(4, []))
@example(graph=(3, [(2, 1), (1, 2), (2, 1), (0, 2)]))
# A star whose centre is youngest: each round kills one root.
@example(graph=(4, [(2, 3), (1, 3), (0, 3)]))
# The vertex graph of the 3x3 image [[0,1,0],[1,2,1],[0,1,0]]: four
# roots remain after the first round.
@example(graph=(16, [(0, 1), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7),
                     (4, 5), (6, 7), (8, 9), (10, 11), (8, 12), (9, 13),
                     (10, 14), (11, 15), (12, 13), (14, 15), (1, 2), (5, 6),
                     (4, 8), (5, 9), (6, 10), (7, 11), (9, 10), (13, 14)]))
# A path from its young end: a round would kill one root of 40, so
# union_find_h0 takes the whole graph.
@example(graph=(40, [(k, k + 1) for k in range(38, -1, -1)]))
def test_boruvka_h0_matches_union_find(graph):
    """The rounds give union_find_h0's arrays, dtype included, on int64
    and on int32 endpoints."""
    n, edges = graph
    a = np.array([x for x, _ in edges], dtype=np.int64)
    b = np.array([y for _, y in edges], dtype=np.int64)
    want = union_find_h0(n, a, b)
    for dt in (np.int64, np.int32):
        got = boruvka_h0(n, a.astype(dt), b.astype(dt))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def test_boruvka_h0_finishes_by_union_find(monkeypatch):
    """160 vertices that die on their first edge, then a 20-vertex path
    from its young end: the first round kills 161 of 180 roots (vertex
    19 among them), the second would kill one of the 19 left, so
    union_find_h0 finishes on the path 0..18 alone."""
    edges = [(0, v) for v in range(20, 180)]
    edges += [(k, k + 1) for k in range(18, -1, -1)]
    a, b = np.array(edges).T
    calls = []

    def spy(n, a, b):
        calls.append((n, a.size))
        return union_find_h0(n, a, b)

    monkeypatch.setattr(persistence, "union_find_h0", spy)
    got = boruvka_h0(180, a, b)
    assert calls == [(19, 18)]
    for g, w in zip(got, union_find_h0(180, a, b)):
        np.testing.assert_array_equal(g, w)


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
    # A pairing that leaves a low of the witness without an owner.
    bad = PersistencePairing(K, [], pairing.essential, pairing.max_dim)
    with pytest.raises(InternalError, match="no earlier owner"):
        representative_cycle(bad, (1, 2.0, math.inf))


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


def test_deep_witness_needs_no_recursion():
    """The one H1 class of this graph has a witness whose columns each
    need the next one's: a stack of n columns, far past the default
    recursion limit."""
    n = 5000
    edges = [(n - 2, n - 1), (n - 3, n - 1)]
    edges += [(v, v + 2) for v in range(n - 4, -1, -1)] + [(0, 1)]
    K = FilteredSimplicialComplex(
        [((v,), float(v)) for v in range(n)]
        + [(e, float(n + t)) for t, e in enumerate(edges)])
    dg, pairing = compute_persistence(K)
    pt, = (p for p in dg.points if p[0] == 1)
    cyc = representative_cycle(pairing, pt)
    i, _ = pairing.pair_for(pt)
    assert cyc.cells == bit_positions(_reduce_to(K, 1, i)[1])
    assert len(cyc) == n and cycle_boundary_is_zero(cyc)


def test_paired_cycle_reads_only_owner_boundaries(monkeypatch):
    """A paired cycle reads the boundary of its death cell and of the
    owners of the lows it meets, each once: not every cell of the
    dimension."""
    K = rips_filtration(point_cloud_distances(
        sample_annulus(60, noise=0.05, seed=1)), 2, 2.0)
    dg, pairing = compute_persistence(K, max_dim=1)
    h1 = dg.in_dim(1, finite=True)
    pt = (1, *h1[np.argmax(h1[:, 1] - h1[:, 0])].tolist())
    _, j = pairing.pair_for(pt)
    reads, boundary = [], Filtration.boundary
    monkeypatch.setattr(Filtration, "boundary",
                        lambda self, c: reads.append(c) or boundary(self, c))
    cyc = representative_cycle(pairing, pt)
    monkeypatch.undo()
    assert cyc.cells == bit_positions(_reduce_to(K, 2, j)[0])
    owners = {d for _, d in pairing.pairs if d < j}
    assert reads[0] == j and set(reads[1:]) <= owners
    assert len(set(reads)) == len(reads)
    assert len(reads) * 100 < np.count_nonzero(K.dims[:j] == 2)


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


def reduction_inputs(module, run):
    """The arguments of every reduce_coboundaries call that run() makes
    through module."""
    calls = []
    real = module.reduce_coboundaries

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "reduce_coboundaries", spy)
        run()
    return calls


def logged_reduction(args):
    """reduce_coboundaries on args, and the row lists it asked for."""
    asked = []

    def coboundaries(rows):
        asked.append(list(rows))
        return args[1](rows)

    return reduce_coboundaries(args[0], coboundaries), asked


def tied_matrix(seed):
    rng = np.random.default_rng(seed)
    d = np.triu(rng.integers(1, 4, size=(30, 30)), 1).astype(float)
    return d + d.T


@pytest.mark.parametrize("module, run", [
    *[(simplicial, lambda n=n: rips_persistence(
        point_cloud_distances(sample_annulus(n, noise=0.05, seed=n)),
        1, 0.6)) for n in (60, 90, 120)],
    *[(simplicial, lambda s=s: rips_persistence(tied_matrix(s), 2, 3.0,
                                                "diameter"))
      for s in (0, 1)],
    (simplicial, lambda: rips_persistence_batch(
        [point_cloud_distances(sample_annulus(40, noise=0.05, seed=s))
         for s in range(4)], 1, 0.6)),
    (simplicial, lambda: rips_persistence_batch(
        [tied_matrix(0), tied_matrix(1)], 2, 3.0, "diameter")),
    (persistence, lambda: voxel_persistence(
        np.random.default_rng(3).random((12, 11, 10)))),
    (persistence, lambda: compute_persistence(rips_filtration(
        point_cloud_distances(sample_annulus(60, noise=0.05, seed=60)),
        2, 0.6))),
    (persistence, lambda: compute_persistence(rips_filtration(
        tied_matrix(0), 3, 3.0, "diameter"), 2)),
    *[(persistence, lambda c=c: compute_persistence(c(
        build_cubical_filtration(np.random.default_rng(3).random(
            (12, 11, 10))))))
      for c in (lambda K: K, lambda K: cache_round_trip(K, "cubical"))],
])
def test_reduction_does_not_depend_on_prefetch(module, run):
    """reduce_coboundaries gives the same pairs when each call computes
    one column per reduction as when it computes blocks of columns to
    reduce and the owners ahead in one call, and the batching run
    computes no column twice and makes fewer calls, unless the heap
    computes none (the array levels pair every column of the annulus).
    pair_columns hands it no apparent column."""
    calls = reduction_inputs(module, run)
    assert calls
    batches = singles = 0
    for args in calls:
        if module is persistence:
            assert not any(p[3].any() for p in args[0])
        batched, asked = logged_reduction(args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(persistence, "_block_list",
                       lambda block, *rest: block[:1])
            mp.setattr(persistence, "_fetch_list", lambda o, *rest: [o])
            single, one_by_one = logged_reduction(args)
        for got, want in zip(batched, single):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        flat = [j for js in asked for j in js]
        assert len(flat) == len(set(flat)) >= len(one_by_one)
        # Row r is a column of problem searchsorted(start, r, "right") - 1.
        start = np.cumsum([0] + [len(p[0]) for p in args[0]])
        for js in one_by_one:
            owners = np.searchsorted(start, js, "right") - 1
            assert 1 <= len(js) == len(set(owners.tolist())) <= len(args[0])
        assert set(flat) >= {j for js in one_by_one for j in js}
        batches, singles = batches + len(asked), singles + len(one_by_one)
    assert batches < singles or batches == singles == 0


def lookup_complexes():
    """Complexes for index_of: Rips (vertex ids up to 10) and cubical
    (doubled coordinates up to 12), their caches, and a key array and a
    list of tuples with repeated keys."""
    rng = np.random.default_rng(11)
    R = rips_filtration(point_cloud_distances(rng.uniform(0, 1, (11, 2))),
                        2, 0.4)
    C = build_cubical_filtration(rng.uniform(0, 1, (6, 3)))
    out = [R, C]
    with tempfile.TemporaryDirectory() as tmp:
        for i, K in enumerate(out[:2]):
            path = os.path.join(tmp, f"{i}.cplx")
            write_complex_cache(path, K, {"kind": "cubical"} if i else {})
            out.append(read_complex_cache(path))
    rep = rng.integers(0, len(R), 3 * len(R))
    args = (R.values[rep], R.dims[rep], np.zeros(rep.size + 1, dtype=int),
            np.zeros(0, dtype=int))
    out.append(Filtration(*args, R.keys[rep], as_cell=R.as_cell))
    out.append(Filtration(*args, [tuple(c) for c in R._cells(rep)]))
    return out


LOOKUP = lookup_complexes()


@st.composite
def lookups(draw):
    """(complex, key): a cell's key as an int tuple, as text, as numpy
    ints, shortened or lengthened, with a negative, float or huge id, or
    text no label is."""
    K = draw(st.sampled_from(LOOKUP))
    label = K.labels()[draw(st.integers(0, len(K) - 1))]
    ids = [int(x) for x in label.split(",")]
    kind = draw(st.sampled_from(["tuple", "text", "numpy", "short", "long",
                                 "negative", "float", "huge", "other"]))
    if kind == "text":
        return K, label
    if kind == "numpy":
        return K, tuple(np.int64(x) for x in ids)
    if kind == "short":
        return K, tuple(ids[:-1])
    if kind == "long":
        return K, tuple(ids + [draw(st.integers(0, 12))])
    if kind == "negative":
        return K, tuple(ids[:-1] + [draw(st.sampled_from([-1, -2]))])
    if kind == "float":
        return K, tuple(map(float, ids))
    if kind == "huge":
        return K, tuple(ids[:-1] + [draw(st.sampled_from(
            [2 ** 63 - 1, 2 ** 63, 2 ** 64 + ids[-1], 10 ** 30]))])
    if kind == "other":
        return K, draw(st.sampled_from(
            ["", ",", "0,", ",0", " 0", "00", "01", "+1", "-0", "1_0",
             "٣", "0\x00", "9" * 19, "9" * 5000, "0,0,0,0,0", label + ","]))
    return K, tuple(ids)


@settings(max_examples=500, deadline=None)
@given(case=lookups())
def test_index_of_matches_label_scan(case):
    """index_of and `in` find the first cell whose label is the key's,
    as a scan of labels() does."""
    K, key = case
    labels = K.labels()
    label = key if isinstance(key, str) else ",".join(map(str, key))
    assert (key in K) == (label in labels)
    if label in labels:
        assert K.index_of(key) == labels.index(label)
    else:
        with pytest.raises(KeyError):
            K.index_of(key)


def test_index_of_formats_labels_once(monkeypatch):
    """The first index_of call builds the table; later calls and `in`
    format no labels: none for a key array, one pass for a cache."""
    calls = []
    real = persistence._labels
    monkeypatch.setattr(persistence, "_labels",
                        lambda keys: calls.append(1) or real(keys))
    for K, first in zip(lookup_complexes()[:3], [0, 0, 1]):
        calls.clear()
        assert K.index_of(K.cell(4)) == 4
        assert len(calls) == first
        assert K.index_of(K.cell(7)) == 7 and K.cell(9) in K
        assert len(calls) == first
