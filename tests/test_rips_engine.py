"""rips_persistence (cohomology, apparent pairs, no cell list) against the
explicit rips_filtration + compute_persistence path and the oracles."""

import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phom import (InputError, ParameterError, compute_persistence,
                  gen_periodic_pair, point_cloud_distances, rips_filtration,
                  rips_persistence, rips_persistence_batch, sample_annulus,
                  sliding_windows)
from phom import simplicial
from phom.simplicial import _RipsCohomology, _kept_edges, _rank_matrix
from oracles import (diagram_from_pairs, reduction_pairs, rips_coboundary,
                     rips_edges, rips_key_simplex, rips_positive)


def edge_table(d, max_dim, max_scale, scale):
    """The kept edges, their ranks, the distinct values and the rank
    matrix, as rips_filtration builds them."""
    _, edges, erank, uvals = _kept_edges(d, max_dim, max_scale, scale)
    return (edges, erank, uvals,
            _rank_matrix([(edges, erank)], len(d), uvals.size))


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
def integer_matrices(draw, sizes=st.integers(1, 8)):
    """Symmetric integer distances 0..3: heavy ties, zero off-diagonals,
    and in some matrices zeros that are -0.0 on either side or both."""
    n = draw(sizes)
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


@st.composite
def matrix_lists(draw):
    """2-4 distance matrices of one size n <= 8: integer ones as drawn by
    integer_matrices, or those of clouds of one dimension."""
    n, count = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        return [draw(integer_matrices(st.just(n))) for _ in range(count)]
    point = st.tuples(*[st.floats(0, 1, allow_nan=False)]
                      * draw(st.integers(2, 3)))
    return [point_cloud_distances(np.array(draw(
        st.lists(point, min_size=n, max_size=n)))) for _ in range(count)]


def same_as_alone(ds, max_dim, max_scale, scale):
    """rips_persistence_batch gives each matrix the diagram, zero signs
    and metadata included, that rips_persistence gives it alone, and
    reduce_coboundaries gets the same columns, apparent flags and
    coboundaries for it (compared as a multiset: the batch lists them by
    dimension, then matrix)."""
    metas = [{"window": w} for w in range(len(ds))]
    want, alone = [], []
    for d, m in zip(ds, metas):
        dg, problems = reduction_problems(lambda: rips_persistence(
            d, max_dim, max_scale, scale, metadata=m))
        want.append(dg)
        alone += problems
    got, batched = reduction_problems(lambda: rips_persistence_batch(
        ds, max_dim, max_scale, scale, metas))
    assert [repr(g.points) for g in got] == [repr(w.points) for w in want]
    assert [g.metadata for g in got] == [w.metadata for w in want]
    assert sorted(map(repr, batched)) == sorted(map(repr, alone))


@settings(max_examples=200, deadline=None)
@given(ds=matrix_lists(), **common)
def test_batch_matches_each_matrix_alone(ds, max_dim, where, scale):
    same_as_alone(ds, max_dim, scale_at(ds[0], where, scale), scale)


def test_batch_matches_each_matrix_alone_across_row_blocks(monkeypatch):
    """With _BLOCK_ENTRIES at 40, the apparent pass and every
    coboundaries call of 16-point windows take 2 rows per block, so the
    rows of one window span many blocks."""
    series = gen_periodic_pair(160, noise_sigma=0.05, seed=3)
    ds = [point_cloud_distances(w) for w in sliding_windows(series, 16, 8)]
    monkeypatch.setattr(simplicial, "_BLOCK_ENTRIES", 40)
    for max_dim, max_scale in ((1, 0.6), (2, 0.45), (1, 5.0)):
        same_as_alone(ds, max_dim, max_scale, "radius")


def test_batch_takes_matrices_of_one_size():
    d = point_cloud_distances(np.eye(3))
    assert rips_persistence_batch([], 1, 1.0) == []
    with pytest.raises(ParameterError, match="one size"):
        rips_persistence_batch([d, d[:2, :2]], 1, 1.0)


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


def rank_type(big):
    """The rank matrix's type: int16 while it holds big, else int32."""
    return np.int16 if big <= 2 ** 15 - 1 else np.int32


def same_edge_table(d, max_scale, scale):
    got = edge_table(d, 1, max_scale, scale)
    *want, rank = rips_edges(d, max_scale, scale)
    for g, w in zip(got, [*want, rank.astype(rank_type(want[2].size))]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(d=integer_matrices(), where=common["where"], scale=common["scale"])
def test_edge_table_matches_oracle(d, where, scale):
    same_edge_table(d, scale_at(d, where, scale), scale)


@pytest.mark.parametrize("scale", ["radius", "diameter"])
@pytest.mark.parametrize("n", [725, 1500])
def test_edge_table_matches_oracle_across_row_blocks(n, scale):
    """n > 724 spreads the rows over several _BLOCK_ENTRIES blocks."""
    d = point_cloud_distances(sample_annulus(n, noise=0.05, seed=n))
    for max_scale in (0.05, 0.6, 3.0):
        same_edge_table(d, max_scale, scale)


def coboundary_pair(d, k, max_scale, s):
    """The engine's coboundary of the k-simplex s and the oracle's, on
    the rank matrix of d at max_scale (diameter convention)."""
    _, _, uvals, rank = edge_table(d, k, max_scale, "diameter")
    assert rank.dtype == rank_type(uvals.size)
    s = np.array(s, dtype=np.int64)
    r = int(rank[np.ix_(s, s)][np.triu_indices(k + 1, 1)].max())
    got, = _RipsCohomology(rank, uvals.size, k).coboundaries(
        s[None], np.array([r]), np.zeros(1, dtype=np.int64))
    return got, rips_coboundary(rank, uvals.size, k, s, r)


@st.composite
def simplices_in_matrices(draw):
    """An n-point integer distance matrix, 2 <= n <= 150, with 1, 3 or
    about a million levels (heavy ties or none), a max_scale that drops
    some of its edges or none, and a k-simplex, 1 <= k <= 3, inside it
    that may hold vertex 0, vertex n - 1 or both."""
    n = draw(st.integers(2, 150))
    k = draw(st.integers(1, min(3, n - 1)))
    levels = draw(st.sampled_from([1, 3, 10 ** 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = np.triu(rng.integers(1, levels + 1, size=(n, n)), 1).astype(float)
    d += d.T
    max_scale = float(draw(st.sampled_from([levels, max(1, levels // 2)])))
    ends = [v for v, keep in ((0, draw(st.booleans())),
                              (n - 1, draw(st.booleans()))) if keep]
    ends = sorted(set(ends))[:k + 1]
    rest = np.setdiff1d(np.arange(n), ends)
    s = sorted(ends + rng.choice(rest, k + 1 - len(ends),
                                 replace=False).tolist())
    # s's own edges are kept, so s is a simplex of the complex.
    sub = np.ix_(s, s)
    d[sub] = np.minimum(d[sub], max_scale)
    return d, k, max_scale, s


@settings(max_examples=300, deadline=None)
@given(case=simplices_in_matrices())
def test_coboundary_matches_oracle(case):
    got, want = coboundary_pair(*case)
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coboundary_keys_past_int32(k):
    """At n=150 every coboundary key of these simplices passes 2**31, so
    a rank scaled in int32 would wrap."""
    d = point_cloud_distances(sample_annulus(150, noise=0.05, seed=4))
    rng = np.random.default_rng(k)
    for s in [range(k + 1), range(150 - k - 1, 150),
              [0, *sorted(rng.choice(np.arange(1, 149), k - 1,
                                     replace=False)), 149]]:
        got, want = coboundary_pair(d, k, 4.0, list(s))
        assert got == want
        assert len(got) == 150 - k - 1 and got[0] > 2 ** 31


@st.composite
def matrices_with_dim(draw):
    """A homology dimension 1 <= k <= 3 and an n-point integer distance
    matrix with 1, 3 or about a million levels, as in
    simplices_in_matrices, with a max_scale that drops some of its edges
    or none; n <= 24 for k = 1 and n <= 10 above, so that every column
    can be checked."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, 24 if k == 1 else 10))
    levels = draw(st.sampled_from([1, 3, 10 ** 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = np.triu(rng.integers(1, levels + 1, size=(n, n)), 1).astype(float)
    d += d.T
    max_scale = float(draw(st.sampled_from([levels, max(1, levels // 2)])))
    return d, k, max_scale


def reduction_problems(run):
    """run()'s result, and each problem that reduce_coboundaries gets
    from it: its (keys, pivot, has_cof, apparent) as lists, then the
    coboundaries its callback gives for all of its columns.  A column
    without cofaces gets pivot -1: the reduction never reads its pivot,
    which the engine forms from the no-edge sentinel."""
    got = []
    real = simplicial.reduce_coboundaries

    def spy(problems, coboundaries):
        cobs = coboundaries(list(range(sum(len(p[0]) for p in problems))))
        for keys, pivot, has_cof, apparent in problems:
            got.append(([keys.tolist(), np.where(has_cof, pivot, -1).tolist(),
                         has_cof.tolist(), apparent.tolist()],
                        cobs[:keys.size]))
            cobs = cobs[keys.size:]
        return real(problems, coboundaries)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "reduce_coboundaries", spy)
        return run(), got


def engine_coboundaries(d, k, max_scale, scale="diameter"):
    """Per dimension 1..k of rips_persistence: the column keys and the
    coboundaries its callback gives for all of them."""
    _, got = reduction_problems(lambda: rips_persistence(d, k, max_scale,
                                                         scale))
    return [(columns[0], cobs) for columns, cobs in got]


@settings(max_examples=200, deadline=None)
@given(case=matrices_with_dim())
def test_batched_coboundaries_drop_only_positive_triangles(case):
    """Every column's batched coboundary is the oracle's without some
    keys; each key left out is a positive triangle, and no key is left
    out above dimension 1."""
    d, k, max_scale = case
    _, _, uvals, rank = edge_table(d, k, max_scale, "diameter")
    n, big = d.shape[0], uvals.size
    for dim, (keys, columns) in enumerate(engine_coboundaries(*case), 1):
        for key, got in zip(keys, columns):
            s, r = rips_key_simplex(key, n, dim)
            want = rips_coboundary(rank, big, dim, np.array(s), r)
            dropped = set(want) - set(got)
            assert got == [x for x in want if x not in dropped]
            assert dim == 1 or not dropped
            assert all(rips_positive(rank, big, 2, x) for x in dropped)


def test_batched_coboundaries_drop_most_annulus_triangles():
    """On an annulus below the enclosing radius the apexes leave out
    most triangles of the H1 columns, and only positive ones."""
    d = point_cloud_distances(sample_annulus(40, noise=0.05, seed=2))
    _, _, uvals, rank = edge_table(d, 1, 0.6, "radius")
    (keys, columns), = engine_coboundaries(d, 1, 0.6, "radius")
    kept = left_out = 0
    for key, got in zip(keys, columns):
        s, r = rips_key_simplex(key, 40, 1)
        dropped = set(rips_coboundary(rank, uvals.size, 1, np.array(s), r))
        dropped -= set(got)
        assert all(rips_positive(rank, uvals.size, 2, x) for x in dropped)
        kept, left_out = kept + len(got), left_out + len(dropped)
    assert left_out > 3 * kept


def with_rank_type(d, max_dim, max_scale, scale, dtype):
    """rips_persistence with the rank matrix's type forced to dtype
    through the one rule that chooses it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "_rank_dtype", lambda big: dtype)
        assert edge_table(d, max_dim, max_scale, scale)[3].dtype == dtype
        return rips_persistence(d, max_dim, max_scale, scale)


def same_with_int32_ranks(d, max_dim, max_scale, scale):
    got = rips_persistence(d, max_dim, max_scale, scale)
    want = with_rank_type(d, max_dim, max_scale, scale, np.int32)
    assert repr(got.points) == repr(want.points)


@settings(max_examples=100, deadline=None)
@given(cloud=clouds, **common)
def test_int32_ranks_give_the_same_diagrams_on_clouds(cloud, max_dim, where,
                                                      scale):
    d = point_cloud_distances(np.array(cloud))
    same_with_int32_ranks(d, max_dim, scale_at(d, where, scale), scale)


@settings(max_examples=100, deadline=None)
@given(case=matrices_with_dim())
def test_int32_ranks_give_the_same_diagrams_on_matrices(case):
    d, k, max_scale = case
    same_with_int32_ranks(d, k, max_scale, "diameter")


@pytest.mark.parametrize("kept, dtype", [(2 ** 15 - 1, np.int16),
                                         (2 ** 15, np.int32)])
def test_rank_type_at_the_int16_boundary(kept, dtype):
    """257 points have 32,896 distinct distances.  Cut after exactly
    32,767 of them, `big` is the largest int16 and the rank matrix is
    int16; after 32,768 it is int32.  Either way the diagrams equal
    those of int64 ranks."""
    d = point_cloud_distances(np.random.default_rng(7).uniform(size=(257, 2)))
    ev = np.unique(d[np.triu_indices(257, 1)])
    assert ev.size == 257 * 256 // 2
    max_scale = float(ev[kept - 1])
    _, _, uvals, rank = edge_table(d, 1, max_scale, "diameter")
    assert uvals.size == kept and rank.dtype == dtype
    got = rips_persistence(d, 1, max_scale, "diameter")
    want = with_rank_type(d, 1, max_scale, "diameter", np.int64)
    assert repr(got.points) == repr(want.points)
