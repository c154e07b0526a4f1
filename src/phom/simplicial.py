"""Filtered simplicial complexes and the Vietoris-Rips construction.

Cells are kept in filtration order: sorted by (value, dimension,
lexicographic vertices), so every face precedes its cofaces and any
sublevel set is a prefix of the cell list.  Both explicit builders end
in _simplicial_filtration, on lexicographic vertex arrays.
"""

from __future__ import annotations

import math
from functools import partial
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ParameterError
from .persistence import (Filtration, PersistenceDiagram, _key_rows,
                          _lex_rows, assemble_cells, ordered_diagram,
                          reduce_coboundaries, union_find_h0)

Vertices = Sequence[int]

# Entries per block of the row-blocked passes (distances, edges, the
# Rips engine's (simplices, n) passes, the bottleneck's (points, points)
# pass): bounds their work arrays to a few MB.
_BLOCK_ENTRIES = 1 << 19
# check_distance_matrix compares d with d.T tile by tile, in cache.
_SYMMETRY_TILE = 256


class Simplex(tuple):
    """A simplex, stored as a strictly increasing tuple of vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices: Vertices) -> "Simplex":
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise ParameterError("a simplex needs at least one vertex")
        if vs[0] < 0:
            raise ParameterError(f"vertex ids must be non-negative, got {vs}")
        if vs[-1] >= 1 << 63:
            raise ParameterError(f"vertex ids must be below 2**63, got {vs}")
        for a, b in zip(vs, vs[1:]):
            if a >= b:
                raise ParameterError(
                    f"vertices must be strictly increasing, got {vs}")
        return tuple.__new__(cls, vs)

    @property
    def dimension(self) -> int:
        return len(self) - 1

    def faces(self) -> list["Simplex"]:
        """Codimension-1 faces, ordered by the dropped vertex position."""
        if len(self) == 1:
            return []
        return [Simplex._wrap(self[:i] + self[i + 1:]) for i in range(len(self))]

    def __repr__(self) -> str:
        return "Simplex(%s)" % (tuple(self),)


# Simplex._wrap(vertices): fast path for internal callers that guarantee
# sortedness, with no Python frame per call (bulk readers make a Simplex
# per cell).
Simplex._wrap = partial(tuple.__new__, Simplex)


def boundary_chain(simplex: Vertices) -> list[Simplex]:
    """Z2 boundary of a single simplex: the list of its codim-1 faces.

    The boundary of a vertex is the empty chain.  Over Z2 the alternating
    signs of the usual boundary formula all collapse to 1, so the chain is
    just the face list.
    """
    return Simplex(simplex).faces()


@dataclass(frozen=True)
class ComplexViolation:
    """First defect found by validate_complex.

    kind is one of "missing face", "value inversion", "order break".
    """

    kind: str
    index: int
    cell: Simplex
    detail: str


def FilteredSimplicialComplex(cells: Iterable[tuple[Vertices, float]]
                              ) -> Filtration:
    """Filtration of (vertices, value) cells, each checked as a Simplex
    in input order; then a non-finite value, a duplicate cell or a
    missing face is an InputError."""
    by_dim: dict[int, list] = {}
    for verts, value in cells:
        s = Simplex(verts)
        by_dim.setdefault(len(s) - 1, []).append((s, float(value)))
    simp, values = [], []
    for k in range(max(by_dim, default=0) + 1):
        rows = by_dim.get(k, [])
        a = np.array([s for s, _ in rows], dtype=np.int64).reshape(-1, k + 1)
        order = np.lexsort(a.T[::-1])
        simp.append(a[order])
        values.append(np.array([v for _, v in rows], dtype=float)[order])
    if not all(np.isfinite(v).all() for v in values):
        raise InputError("filtration values must be finite")
    if any((a[1:] == a[:-1]).all(axis=1).any() for a in simp):
        raise InputError("duplicate cells in filtration")
    return _simplicial_filtration(simp, values)


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position of each of rows among the rows of table, or -1 where
    table has none; of equal rows, the last.  table's rows are in
    _lex_rows order (lexicographic for ids in [0, 2**63)), so one binary
    search finds each."""
    if not table.size:
        return np.full(len(rows), -1)
    p = np.searchsorted(_lex_rows(table), _lex_rows(rows), side="right") - 1
    # p = -1 puts a row before every row of table, so table[-1] differs.
    return np.where((table[p] == rows).all(axis=1), p, -1)


def _simplicial_filtration(simp: list[np.ndarray],
                           values: list[np.ndarray]) -> Filtration:
    """Filtration of the lexicographic (m_k, k+1) int64 vertex arrays
    simp[k], of values values[k], keyed by one (m, len(simp)) vertex array
    padded with -1.  Faces are found by _find_rows; the first cell in
    filtration order that misses one is an InputError naming its first
    missing face."""
    faces = [simp[0][:, :0]] + [np.column_stack([
        _find_rows(simp[k - 1], np.delete(simp[k], c, axis=1))
        for c in range(k + 1)]) for k in range(1, len(simp))]
    order, *wired = assemble_cells(values, faces)
    keys = np.concatenate([np.pad(a, [(0, 0), (0, len(simp) - a.shape[1])],
                                  constant_values=-1) for a in simp])[order]
    K = Filtration(*wired, keys, as_cell=Simplex._wrap)
    missing = np.concatenate([(f < 0).any(axis=1) for f in faces])[order]
    if missing.any():
        s = K.cell(int(np.argmax(missing)))
        face = next(f for f in (s[:c] + s[c + 1:] for c in range(len(s)))
                    if f not in K)
        raise InputError(f"cell {tuple(s)} is missing face {face}")
    return K


def validate_complex(K: Filtration) -> ComplexViolation | None:
    """Check closure, value monotonicity and cell ordering.

    Returns None when the simplicial filtration is valid, otherwise a
    report naming the first offending cell in filtration order; a
    cubical filtration or a cache is a ParameterError.  A cell breaks
    order when its (value, vertex count, vertices) sorts before its
    predecessor's, NaN never; its face without vertex c is found by
    _find_rows (of repeated cells the last counts), and the least bad c
    is named.
    """
    if "grid_shape" in K.meta or (len(K) and isinstance(K.cell(0), str)):
        raise ParameterError("validate_complex takes simplicial complexes")
    keys = K.keys
    if not isinstance(keys, np.ndarray):  # vertex tuples: pad them
        tuples = K._cells(range(len(K)))
        keys = np.full((len(K), max([1, *map(len, tuples)])), -1)
        for i, t in enumerate(tuples):
            keys[i, :len(t)] = t
    rows, width = np.full_like(keys, -1), np.zeros(len(K), dtype=np.int64)
    for at, r in _key_rows(keys):  # row i: cell i's width[i] ids, then -1s
        rows[at, :r.shape[1]], width[at] = r, r.shape[1]
    values = np.asarray(K.values, dtype=np.float64)
    less, same = values[1:] < values[:-1], values[1:] == values[:-1]
    for a in [width, *rows.T]:  # tuple order, a column at a time
        less |= same & (a[1:] < a[:-1])
        same &= a[1:] == a[:-1]
    first, face_at = np.full(len(K), -1), np.full(len(K), -1)
    for g in np.unique(width[width > 1]).tolist():
        top, below = (np.flatnonzero(width == w) for w in (g, g - 1))
        below = below[np.argsort(_lex_rows(rows[below, :g - 1]),
                                 kind="stable")]
        for c in range(g - 1, -1, -1):  # so the least c is kept
            j = np.append(below, -1)[_find_rows(
                rows[below, :g - 1], np.delete(rows[top, :g], c, axis=1))]
            bad = (j < 0) | (values[j] > values[top])
            first[top[bad]], face_at[top[bad]] = c, j[bad]
    bad = np.flatnonzero(np.append(False, less) | (first >= 0))
    if not bad.size:
        return None
    i = int(bad[0])
    cell, c, j = Simplex._wrap(K.cell(i)), first[i], int(face_at[i])
    if i and less[i - 1]:
        return ComplexViolation(
            "order break", i, cell,
            f"cell at position {i} sorts before its predecessor")
    face = cell[:c] + cell[c + 1:]
    if j < 0:
        return ComplexViolation("missing face", i, cell,
                                f"face {face} is absent")
    return ComplexViolation(
        "value inversion", i, cell,
        f"face {face} enters at {K.values[j]!r} > {float(K.values[i])!r}")


def point_cloud_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) point cloud.

    The result is exactly symmetric with a zero diagonal, and bit-equal
    to scipy's squareform(pdist(points)): each entry adds the squared
    coordinate differences in coordinate order, then takes the root.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise InputError("point cloud must be a non-empty 2-d array")
    if not np.all(np.isfinite(pts)):
        raise InputError("point cloud contains non-finite coordinates")
    n = pts.shape[0]
    d = np.zeros((n, n))
    step = max(1, _BLOCK_ENTRIES // n)
    with np.errstate(over="ignore"):
        for i in range(0, n, step):
            for c in range(pts.shape[1]):
                diff = pts[i:i + step, c, None] - pts[:, c]
                d[i:i + step] += np.square(diff, out=diff)
    np.sqrt(d, out=d)
    if not np.isfinite(d.max()):
        raise InputError("point cloud coordinates span too wide a range: "
                         "a distance overflows float64")
    return d


def check_distance_matrix(d: np.ndarray) -> np.ndarray:
    """Validate a distance matrix: square, finite, symmetric, zero diagonal."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise InputError("distance matrix must be square and non-empty")
    if not np.all(np.isfinite(d)):
        raise InputError("distance matrix contains non-finite entries")
    if np.any(d < 0):
        raise InputError("distance matrix contains negative entries")
    if np.any(np.diagonal(d) != 0):
        raise InputError("distance matrix diagonal must be zero")
    n, t = d.shape[0], _SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(d[i:i + t, j:j + t], d[j:j + t, i:i + t].T):
                raise InputError("distance matrix is not symmetric")
    return d


def _poly_keys(verts: np.ndarray, base: int) -> np.ndarray:
    """Injective int64 key per row of a (m, w) vertex array."""
    keys = np.zeros(verts.shape[0], dtype=np.int64)
    for c in range(verts.shape[1]):
        keys = keys * base + (verts[:, c].astype(np.int64) + 1)
    return keys


def _rank_dtype(big: int) -> type:
    """The narrowest of int16 and int32 that holds ranks 0..big: the Rips
    passes stream (rows, n) blocks of the rank matrix."""
    return np.int16 if big <= np.iinfo(np.int16).max else np.int32


def _kept_edges(dist: np.ndarray, max_dim: int, max_scale: float,
                scale: str) -> tuple:
    """Checked max_dim and the edge table of both Rips builders, which
    work with ranks among the distinct edge values up to max_scale: the
    kept edges (i < j) in lexicographic order, their int64 ranks and the
    distinct values, from which _rank_matrix builds the (n, n) ranks.

    The rank matrix holds ranks up to `big`, which is at most the edge
    count n(n-1)/2; so n(n-1)/2 must be at most 2**31 - 1 (n <= 65,536),
    else ParameterError before anything n x n is allocated."""
    d = check_distance_matrix(dist)
    if scale not in ("radius", "diameter"):
        raise ParameterError(f"unknown scale convention {scale!r}")
    max_dim = int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    max_scale = float(max_scale)
    if not (np.isfinite(max_scale) and max_scale > 0):
        raise ParameterError("max_scale must be finite and positive")
    n = d.shape[0]
    if n * (n - 1) // 2 > np.iinfo(np.int32).max:
        raise ParameterError(
            f"{n} points have more edges than an int32 rank matrix holds; "
            "at most 65536 points")
    # The kept edges j > i, row block by row block: nonzero lists a
    # block's (i, j) in lexicographic order.
    step = max(1, _BLOCK_ENTRIES // n)
    iu, ju, ev = [], [], []
    for i in range(0, n, step):
        w = d[i:i + step] / 2.0 if scale == "radius" else d[i:i + step]
        bi, bj = np.nonzero(np.triu(w <= max_scale, i + 1))
        iu.append(bi + i)
        ju.append(bj)
        ev.append(w[bi, bj])
    # + 0.0 makes every zero +0.0, so no value's sign hangs on point order.
    uvals, erank = np.unique(np.concatenate(ev) + 0.0, return_inverse=True)
    return (max_dim, np.column_stack([np.concatenate(iu), np.concatenate(ju)]),
            erank.astype(np.int64), uvals)


def _rank_matrix(tables: list[tuple[np.ndarray, np.ndarray]], n: int,
                 big: int) -> np.ndarray:
    """The rank matrices of the (edges, ranks) tables of n-point
    complexes, stacked as (len(tables) * n, n), so that complex w holds
    rows w*n..w*n+n-1; `big` where there is no edge and on the diagonal.
    Its type is _rank_dtype(big), so big must be at least every table's
    count of distinct edge values."""
    rank = np.full((len(tables) * n, n), big, dtype=_rank_dtype(big))
    for w, (edges, erank) in enumerate(tables):
        rank[w * n + edges[:, 0], edges[:, 1]] = erank
        rank[w * n + edges[:, 1], edges[:, 0]] = erank
    return rank


def rips_filtration(dist: np.ndarray, max_dim: int, max_scale: float,
                    scale: str = "radius") -> Filtration:
    """Vietoris-Rips filtration of a distance matrix.

    A k-simplex enters at the maximum of its edge values; vertices enter
    at 0.  Under the default "radius" convention an edge's value is half
    its length, under "diameter" it is the length itself.

    Args:
        dist: square distance matrix (see check_distance_matrix).
        max_dim: largest simplex dimension to build, 0 <= max_dim <= n-1
            and (n+1)**max_dim < 2**63.
        max_scale: cells with value above this are dropped; must be > 0.
        scale: "radius" or "diameter".

    Returns:
        A Filtration whose cell order is (value, dimension, lexicographic
        vertices).
    """
    max_dim, edges, erank, uvals = _kept_edges(dist, max_dim, max_scale,
                                               scale)
    n = len(dist)
    if max_dim > n - 1:
        raise ParameterError(
            f"max_dim {max_dim} exceeds n_points - 1 = {n - 1}")
    if (n + 1) ** max_dim >= 2 ** 63:
        raise ParameterError(
            f"{n} points with max_dim {max_dim} overflow 64-bit face keys; "
            "lower max_dim")

    rank = _rank_matrix([(edges, erank)], n, uvals.size)
    levels = [(edges, erank)]
    while len(levels) < max_dim and levels[-1][1].size:
        levels.append(_rips_extend(*levels[-1], rank, uvals.size))
    levels = levels[:max_dim]
    return _simplicial_filtration(
        [np.arange(n, dtype=np.int64)[:, None]] + [s for s, _ in levels],
        [np.zeros(n)] + [uvals[r] for _, r in levels])


def rips_persistence(dist: np.ndarray, max_dim: int, max_scale: float,
                     scale: str = "radius",
                     metadata: dict | None = None) -> PersistenceDiagram:
    """Vietoris-Rips persistence diagram, without building the complex.

    Gives the points of compute_persistence(rips_filtration(dist,
    max_dim + 1, max_scale, scale), max_dim): same total order (value,
    dimension, lexicographic vertices), zero-persistence pairs dropped.
    It is rips_persistence_batch on a list of one matrix.

    H0 comes from union-find over the edges in filtration order.  Each
    dimension k = 1..max_dim reduces the coboundaries of the k-simplices
    in reverse filtration order (cohomology; de Silva, Morozov and
    Vejdemo-Johansson 2011), skips the simplices paired one dimension
    down (clearing) and enumerates cofacets from the thresholded
    adjacency (Bauer, Ripser 2021).  A simplex is encoded as the int
    rank(value) * (n+1)**(k+1) + _poly_keys(vertices), so key order is
    filtration order.  Apparent pairs -- the oldest cofacet whose
    youngest facet is the simplex itself -- are found by a vectorized
    pass and claim their pivot without column arithmetic; only the other
    columns are reduced.

    Args:
        dist: square distance matrix (see check_distance_matrix).
        max_dim: largest homology dimension to report, >= 0.
        max_scale: cells with value above this are left out; > 0.
        scale: "radius" (edge value = half the distance) or "diameter".
        metadata: extra metadata stored on the diagram.
    """
    return rips_persistence_batch([dist], max_dim, max_scale, scale,
                                  [metadata])[0]


def rips_persistence_batch(dists: list[np.ndarray], max_dim: int,
                           max_scale: float, scale: str = "radius",
                           metadata: list[dict | None] | None = None
                           ) -> list[PersistenceDiagram]:
    """rips_persistence of each of a list of equal-size distance
    matrices, with metadata[w] stored on diagram w.

    Each matrix keeps its own edge ranks, keys, apexes, clearing, H0 and
    key guard; a matrix that fails a check raises as rips_persistence
    would, the first one in list order.  The work on arrays and the
    reduction run on all matrices at once: their rank matrices are
    stacked (_rank_matrix), each dimension's apparent pass takes the
    columns of every matrix in one row list, and reduce_coboundaries
    advances the matrices' reductions in lockstep, so one coboundaries
    call per round serves all of them.  A matrix's columns get the same
    lists as alone, so every diagram is the one rips_persistence gives.
    The stack takes len(dists) * n * n ranks: callers bound the list.
    """
    groups, paired, simp, srank, keys, uv = [], [], [], [], [], []
    for d in dists:
        max_dim, edges, erank, uvals = _kept_edges(d, max_dim, max_scale,
                                                   scale)
        n = len(dists[0])
        if len(d) != n:
            raise ParameterError(
                "rips_persistence_batch takes matrices of one size")
        top = min(max_dim, n - 1)
        if top >= 1 and uvals.size * (n + 1) ** (top + 2) >= 2 ** 63:
            raise ParameterError(
                f"{n} points with max_dim {max_dim} overflow 64-bit cell "
                "keys; lower max_dim or max_scale")
        keys.append(erank * (n + 1) ** 2 + _poly_keys(edges, n + 1))
        order = np.argsort(keys[-1])
        e, v = union_find_h0(n, edges[order, 0], edges[order, 1])
        alive = np.delete(np.arange(n), v)
        groups.append([(0, np.zeros(v.size), uvals[erank[order[e]]], v),
                       (0, np.zeros(alive.size),
                        np.full(alive.size, math.inf), alive)])
        paired.append(keys[-1][order[e]])
        simp.append(edges)
        srank.append(erank)
        uv.append(uvals)
    if not dists:
        return []
    big = max(u.size for u in uv)
    rank = _rank_matrix(list(zip(simp, srank)), n, big)
    step = max(1, _BLOCK_ENTRIES // n)
    live = list(range(len(dists)))
    for k in range(1, min(max_dim, n - 1) + 1):
        if k > 1:
            for w in live:
                simp[w], srank[w] = _rips_extend(
                    simp[w], srank[w], rank[w * n:(w + 1) * n], big)
                keys[w] = (srank[w] * (n + 1) ** (k + 1)
                           + _poly_keys(simp[w], n + 1))
        # A matrix is done once it has no k-simplex; its keys in higher
        # dimensions are not covered by the key guard.
        live = [w for w in live if simp[w].shape[0]]
        if not live:
            break
        cols = []
        for w in live:
            c = np.flatnonzero(~np.isin(keys[w], paired[w]))
            cols.append((simp[w][c], srank[w][c], keys[w][c]))
        S, sr, ck = (np.concatenate(a) for a in zip(*cols))
        win = np.repeat(live, [c[2].size for c in cols])
        cob = _RipsCohomology(rank, big, k)
        # Blocks bound the (rows, n) work arrays; an empty S is one block.
        piv, has, app, apx = map(np.concatenate, zip(*[
            cob.apparent(S[s:s + step], sr[s:s + step], win[s:s + step])
            for s in range(0, max(S.shape[0], 1), step)]))
        if k == 1:  # apexes by rank; -1 where edges tie or none has one
            cob.apex = np.full(len(dists) * big, -1, dtype=np.int32)
            held = np.bincount(np.concatenate([w * big + srank[w]
                                               for w in live]),
                               minlength=cob.apex.size)
            at = win * big + sr
            ok = (apx >= 0) & (held[at] == 1)
            cob.apex[at[ok]] = apx[ok]

        def coboundaries(rows):
            rows = np.array(rows, dtype=np.int64)
            return cob.coboundaries(S[rows], sr[rows], win[rows])

        ends = np.cumsum([0] + [c[2].size for c in cols]).tolist()
        results = reduce_coboundaries(
            [(ck[a:b], piv[a:b], has[a:b], app[a:b])
             for a, b in zip(ends, ends[1:])], coboundaries)
        for w, (_, rw, kw), (born, dead, ess) in zip(live, cols, results):
            paired[w] = dead
            groups[w] += [
                (k, uv[w][rw[born]], uv[w][dead // cob.base], kw[born]),
                (k, uv[w][rw[ess]], np.full(ess.size, math.inf), kw[ess])]
    return [ordered_diagram(g, max_dim, m)
            for g, m in zip(groups, metadata or [None] * len(dists))]


def _rips_extend(simp: np.ndarray, ranks: np.ndarray, rank: np.ndarray,
                 big: int) -> tuple[np.ndarray, np.ndarray]:
    """All (k+1)-simplices and their ranks, each from its face without
    the last vertex; a simplex's rank is the largest of its edge ranks in
    rank, a matrix of _rank_matrix."""
    n = rank.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    out_s, out_r = [], []
    above = np.arange(n)
    for s in range(0, simp.shape[0], step):
        S = simp[s:s + step]
        M = _max_rows(rank, S)
        r, v = np.nonzero((M < big) & (above > S[:, -1:]))
        out_s.append(np.column_stack([S[r], v]))
        out_r.append(np.maximum(ranks[s:s + step][r], M[r, v]))
    if not out_s:
        return (np.zeros((0, simp.shape[1] + 1), dtype=simp.dtype),
                ranks[:0])
    return np.concatenate(out_s), np.concatenate(out_r)


def _max_rows(weight: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(len(S), n): per simplex, the largest weight from its vertices, in
    a new array that callers may overwrite."""
    M = weight[S[:, 0]]
    for c in range(1, S.shape[1]):
        np.maximum(M, weight[S[:, c]], out=M)
    return M


class _RipsCohomology:
    """Cofacets of the k-simplices of the complexes whose rank matrices
    _rank_matrix stacked: their coboundaries and apparent pairs, for
    reduce_coboundaries.  Each row comes with its complex w, whose ranks
    are rows w*n.. of the stack.  Ranks are read in the stack's type and
    widened to int64 before they are scaled by `base`; for k = 1, `apex`
    may hold the apex of each edge rank r of complex w at w*big + r
    (coboundaries)."""

    def __init__(self, rank: np.ndarray, big: int, k: int):
        self.rank, self.big, self.k = rank, big, k
        self.apex: np.ndarray | None = None
        n = self.n = rank.shape[1]
        # As _poly_keys: pw[p] weighs the vertex at position p of a cofacet.
        self.pw = (n + 1) ** np.arange(k + 1, -1, -1, dtype=np.int64)
        self.base = int(self.pw[0]) * (n + 1)

    def _keys(self, R: np.ndarray, S: np.ndarray,
              v: np.ndarray) -> np.ndarray:
        """Keys of the cofacets S[i] + {v[i]} of ranks R.  The lex part
        weighs v by pw[0] and S's vertex c by pw[c + 1]; each c below v
        gains pw[c] - pw[c + 1] and v loses as much."""
        pw = self.pw
        keys = R * self.base + pw[0] * (v + 1) + (S + 1) @ pw[1:]
        for c in range(S.shape[1]):
            keys += (pw[c] - pw[c + 1]) * np.minimum(S[:, c] - v, 0)
        return keys

    def coboundaries(self, S: np.ndarray, sr: np.ndarray,
                     win: np.ndarray) -> list[list[int]]:
        """Sorted cofacet keys of each simplex of S (rows of ascending
        vertex ids) of rank sr in complex win, non-decreasing, built in
        row blocks on the (row, v) pairs with a cofacet.  The lex part grows with v, so a
        stable sort by (row, rank) sorts a row's keys.  With apexes, a
        triangle abc whose longest edge ab has an apex x < c with
        rank[c, x] below ab's is left out: abx, acx and bcx come before
        it, so it closes a 2-cycle and is never an H1 pivot (compression;
        Bauer, Kerber and Reininghaus, Clear and Compress, 2014)."""
        rank, big, apex, n = self.rank, self.big, self.apex, self.n
        step = max(1, _BLOCK_ENTRIES // n)
        out: list[list[int]] = []
        for s in range(0, S.shape[0], step):
            B, r, cw = S[s:s + step], sr[s:s + step], win[s:s + step]
            M = _max_rows(rank, B + (cw * n)[:, None])
            row, v = np.nonzero(M < big)
            R = np.maximum(M[row, v], r[row])
            if apex is not None:
                # win is sorted, so a block of one complex takes its
                # offsets as scalars.
                cw = cw[0] if cw[0] == cw[-1] else cw[row]
                o, x = cw * n, apex[cw * big + R]
                u, w = B[row, 0], B[row, 1]
                # c: the vertex off the edge of rank R.
                c = np.where(R == r[row], v,
                             np.where(R == rank[u + o, v], w, u))
                keep = (x < 0) | (x >= c) | (rank[c + o, x] >= R)
                row, v, R = row[keep], v[keep], R[keep]
            order = np.argsort(row * (big + 1) + R, kind="stable")
            flat = self._keys(R, B[row], v)[order].tolist()
            ends = np.cumsum(np.bincount(row, minlength=B.shape[0])).tolist()
            out += [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return out

    def apparent(self, S: np.ndarray, sr: np.ndarray, win: np.ndarray
                 ) -> tuple[np.ndarray, ...]:
        """Per column (simplex S[i] of rank sr[i] in complex win[i]):
        pivot key, has a cofacet, is in an apparent pair, apex.

        The oldest cofacet of s is s + {v} with the least (rank, v), since
        for fixed s the lex order of s + {v} follows v.  s is its youngest
        facet when the cofacet has s's rank and every other facet
        s + {v} - {u} has a lower rank, or the same rank and u > v (the
        facet dropping the smaller vertex is lex-larger).  The apex is
        that v where all of its ranks to s are below s's own, else -1.
        """
        rank, big, k = self.rank, self.big, self.k
        So = S + (win * self.n)[:, None]  # S's rows in the stack
        M = _max_rows(rank, So)
        np.maximum(M, sr.astype(rank.dtype)[:, None], out=M)
        cm = M.min(axis=1)  # argmin is slow on int16
        vs = (M == cm[:, None]).argmax(axis=1)
        ok = cm == sr
        to_v = [rank[So[:, c], vs] for c in range(k + 1)]
        for c in range(k + 1):
            fr = np.full(S.shape[0], -1, dtype=rank.dtype)
            for a in range(k + 1):
                if a == c:
                    continue
                fr = np.maximum(fr, to_v[a])
                for b in range(a + 1, k + 1):
                    if b != c:
                        fr = np.maximum(fr, rank[So[:, a], S[:, b]])
            ok &= (fr < sr) | ((fr == sr) & (S[:, c] > vs))
        apex = np.where(np.maximum.reduce(to_v) < sr, vs, -1)
        return self._keys(cm.astype(np.int64), S, vs), cm < big, ok, apex
