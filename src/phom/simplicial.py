"""Filtered simplicial complexes and the Vietoris-Rips construction.

Cells are kept in filtration order: sorted by (value, dimension,
lexicographic vertices), so every face precedes its cofaces and any
sublevel set is a prefix of the cell list.  Both explicit builders end
in _simplicial_filtration, on lexicographic vertex arrays.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations
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
# Entries of the parts that _EdgeTable.rows gathers a block in: small
# temporaries, reused from the heap.
_PART_ENTRIES = 1 << 15
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


def _rips_parameters(max_dim: int, max_scale: float,
                     scale: str) -> tuple[int, float]:
    """Checked max_dim and max_scale of both Rips builders."""
    if scale not in ("radius", "diameter"):
        raise ParameterError(f"unknown scale convention {scale!r}")
    max_dim = int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    max_scale = float(max_scale)
    if not (np.isfinite(max_scale) and max_scale > 0):
        raise ParameterError("max_scale must be finite and positive")
    return max_dim, max_scale


def _kept_edges(dist: np.ndarray, max_dim: int, max_scale: float,
                scale: str) -> tuple:
    """max_dim, checked after the matrix, and the kept edges (i < j) of
    both Rips builders in lexicographic order, their int64 ranks among
    the distinct edge values up to max_scale, and those values.  An
    _EdgeTable holds ranks up to the edge count n(n-1)/2, so n <= 65,536,
    else ParameterError before anything n x n is allocated."""
    d = check_distance_matrix(dist)
    max_dim, max_scale = _rips_parameters(max_dim, max_scale, scale)
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


class _EdgeTable:
    """The edge ranks of W complexes of n points, from their (kept edges,
    ranks, distinct values), read by rows and at for complexes `win` (an
    index per row, or one for all); `big`, the most distinct values, is
    no edge.  It hides the layout: a (W * n, n) stack, complex w in rows
    w*n.., int16 while it holds big (the passes stream (rows, n) blocks),
    else int32."""

    def __init__(self, tables: list[tuple[np.ndarray, ...]], n: int):
        big = self.big = max(uvals.size for _, _, uvals in tables)
        self.n = n
        self._rank = np.full((len(tables) * n, n), big,
                             dtype=np.int16 if big < 2 ** 15 else np.int32)
        for w, (edges, erank, _) in enumerate(tables):
            self._rank[w * n + edges[:, 0], edges[:, 1]] = erank
            self._rank[w * n + edges[:, 1], edges[:, 0]] = erank
        self._out = None

    def rows(self, S: np.ndarray, win) -> np.ndarray:
        """(len(S), n): per row of vertex ids, the largest rank from them
        to each vertex, in the table's block buffer (kept while requests
        have its row count): valid, and writable, until the next call."""
        idx = S + np.reshape(win, (-1, 1)) * self.n
        if self._out is None or len(self._out) != len(S):
            self._out = np.empty((len(S), self.n), self._rank.dtype)
        M, part = self._out, max(1, _PART_ENTRIES // self.n)
        # Ids are in range; under mode="raise" take fills a temporary.
        np.take(self._rank, idx[:, 0], axis=0, out=M, mode="clip")
        for a in range(0, len(S), part):
            for c in idx[a:a + part, 1:].T:
                np.maximum(M[a:a + part], self._rank[c], out=M[a:a + part])
        return M

    def at(self, u, v, win) -> np.ndarray:
        """The ranks of the edges (u, v), broadcast."""
        return self._rank[u + win * self.n, v]


def _batch_size(n: int) -> int:
    """Complexes of n points per rips_persistence_batch call, for callers
    that chunk: one _EdgeTable's W * n * n ranks stay near _BLOCK_ENTRIES."""
    return max(1, _BLOCK_ENTRIES // n ** 2)


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

    table = _EdgeTable([(edges, erank, uvals)], n)
    levels = [(edges, erank)]
    while len(levels) < max_dim and levels[-1][1].size:
        levels.append(_rips_extend(*levels[-1], table, 0))
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
    It is rips_persistence_batch on a list of one matrix: H0 by
    union-find, then each dimension's coboundaries reduced in reverse
    filtration order (cohomology; de Silva, Morozov and Vejdemo-Johansson
    2011), with clearing, apparent pairs and cofacets enumerated from the
    thresholded adjacency (Bauer, Ripser 2021).

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
    matrices, with metadata[w] (one entry per matrix) stored on diagram
    w.  The edge stage (_rips_edges) takes each matrix alone, so the
    first bad one raises as rips_persistence would.  One _EdgeTable holds
    all their ranks (len(dists) * n * n: callers bound the list), and the
    dimension stage (_rips_dimension) runs each dimension of all of them
    at once, so their reductions share each round's coboundaries call;
    each diagram is as alone."""
    if metadata is not None and len(metadata) != len(dists):
        raise ParameterError(f"{len(metadata)} metadata entries for "
                             f"{len(dists)} distance matrices")
    cells, groups = {}, []
    for w, d in enumerate(dists):
        cells[w], g = _rips_edges(d, len(dists[0]), max_dim, max_scale, scale)
        groups.append(g)
    # Each matrix is checked before the parameters; this checks [] too.
    max_dim = _rips_parameters(max_dim, max_scale, scale)[0]
    if not dists:
        return []
    n = len(dists[0])
    table = _EdgeTable([c[:3] for c in cells.values()], n)
    for k in range(1, min(max_dim, n - 1) + 1):
        _rips_dimension(table, k, cells, groups)
    return [ordered_diagram(g, max_dim, m)
            for g, m in zip(groups, metadata or [None] * len(dists))]


def _rips_edges(d: np.ndarray, n: int, max_dim: int, max_scale: float,
                scale: str) -> tuple:
    """The edge stage on matrix d, which must have n points: its cells
    for _rips_dimension (kept edges, their ranks, the distinct edge
    values, the keys of the edges H0 pairs) and its H0 groups.  Its cell
    keys up to dimension max_dim + 1 must fit in int64 (the key guard)."""
    max_dim, edges, erank, uvals = _kept_edges(d, max_dim, max_scale, scale)
    if len(d) != n:
        raise ParameterError(
            "rips_persistence_batch takes matrices of one size")
    top = min(max_dim, n - 1)
    if top >= 1 and uvals.size * (n + 1) ** (top + 2) >= 2 ** 63:
        raise ParameterError(
            f"{n} points with max_dim {max_dim} overflow 64-bit cell "
            "keys; lower max_dim or max_scale")
    keys = erank * (n + 1) ** 2 + _poly_keys(edges, n + 1)
    order = np.argsort(keys)
    e, v = union_find_h0(n, edges[order, 0], edges[order, 1])
    alive = np.delete(np.arange(n), v)
    return ((edges, erank, uvals, keys[order[e]]),
            [(0, np.zeros(v.size), uvals[erank[order[e]]], v),
             (0, np.zeros(alive.size), np.full(alive.size, math.inf), alive)])


def _rips_dimension(table: _EdgeTable, k: int, cells: dict,
                    groups: list[list]) -> None:
    """The dimension stage: dimension k of each complex w in cells =
    {w: (simplices, ranks, values, cleared keys)}, in place.  At k > 1 it
    extends the simplices; a complex with none leaves (the key guard does
    not cover its keys above).  The uncleared simplices are the columns,
    whose deaths are cleared next and diagram groups join groups[w]."""
    n, cols = table.n, {}
    for w in list(cells):
        s, r, uvals, cleared = cells.pop(w)
        if k > 1:
            s, r = _rips_extend(s, r, table, w)
        if s.shape[0]:
            cells[w] = s, r, uvals, cleared
            keys = r * (n + 1) ** (k + 1) + _poly_keys(s, n + 1)
            c = np.flatnonzero(~np.isin(keys, cleared))
            cols[w] = s[c], r[c], keys[c]
    if not cols:
        return
    S, sr, ck = (np.concatenate(a) for a in zip(*cols.values()))
    sizes = [c[2].size for c in cols.values()]
    cob = _RipsCohomology(table, k, S, sr, np.repeat(list(cols), sizes))
    piv, has, app = cob.pivots({w: c[1] for w, c in cells.items()})
    ends = np.cumsum([0] + sizes).tolist()
    results = reduce_coboundaries(
        [(ck[a:b], piv[a:b], has[a:b], app[a:b])
         for a, b in zip(ends, ends[1:])], cob.coboundaries)
    for (w, (_, rw, kw)), (born, dead, ess) in zip(cols.items(), results):
        s, r, uv, _ = cells[w]
        cells[w] = s, r, uv, dead
        groups[w] += [
            (k, uv[rw[born]], uv[dead // cob.base], kw[born]),
            (k, uv[rw[ess]], np.full(ess.size, math.inf), kw[ess])]


def _rips_extend(simp: np.ndarray, ranks: np.ndarray, table: _EdgeTable,
                 win: int) -> tuple[np.ndarray, np.ndarray]:
    """All (k+1)-simplices of complex win of table and their ranks, each
    from its face without the last vertex, for a non-empty simp; a
    simplex's rank is the largest of its edge ranks."""
    step = max(1, _BLOCK_ENTRIES // table.n)
    out_s, out_r = [], []
    above = np.arange(table.n)
    for s in range(0, simp.shape[0], step):
        S = simp[s:s + step]
        M = table.rows(S, win)
        r, v = np.nonzero((M < table.big) & (above > S[:, -1:]))
        out_s.append(np.column_stack([S[r], v]))
        out_r.append(np.maximum(ranks[s:s + step][r], M[r, v]))
    return np.concatenate(out_s), np.concatenate(out_r)


class _RipsCohomology:
    """The k-simplices S (rows of ascending vertex ids) of ranks sr in the
    complexes win (sorted) of an _EdgeTable, as reduce_coboundaries'
    columns.  A simplex's key is rank * (n+1)**(k+1) + _poly_keys(its
    vertices), so key order is filtration order; ranks are widened to
    int64 before they are scaled.  At k = 1, pivots keeps the apex of
    each edge rank, which coboundaries uses."""

    def __init__(self, table: _EdgeTable, k: int, S: np.ndarray,
                 sr: np.ndarray, win: np.ndarray):
        self.table, self.k, self.S, self.sr, self.win = table, k, S, sr, win
        self.apex: np.ndarray | None = None
        n = table.n
        self.step = max(1, _BLOCK_ENTRIES // n)  # rows per (rows, n) block
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

    def pivots(self, ranks: dict[int, np.ndarray]) -> tuple[np.ndarray, ...]:
        """Per column: pivot key, has a cofacet, is apparent (by apparent,
        in row blocks; an empty S is one).  At k = 1, ranks[w] holds all
        edge ranks of complex w, and a rank one edge holds keeps its apex."""
        step, big = self.step, self.table.big
        piv, has, app, apx = map(np.concatenate, zip(*[
            self.apparent(slice(s, s + step))
            for s in range(0, max(self.S.shape[0], 1), step)]))
        if self.k == 1:  # indexed by w * big + rank
            self.apex = np.full((max(ranks) + 1) * big, -1, dtype=np.int32)
            held = np.bincount(np.concatenate([w * big + r
                                               for w, r in ranks.items()]))
            at = self.win * big + self.sr
            ok = (apx >= 0) & (held[at] == 1)
            self.apex[at[ok]] = apx[ok]
        return piv, has, app

    def coboundaries(self, rows: list[int]) -> list[list[int]]:
        """Sorted cofacet keys of each column of rows, built in row blocks
        on the (row, v) pairs with a cofacet.  The lex part grows with v,
        so a stable sort by (row, rank) sorts a row's keys.  With apexes,
        a triangle abc whose longest edge ab has an apex x < c with
        rank[c, x] below ab's is left out: abx, acx and bcx come before
        it, so it closes a 2-cycle and is never an H1 pivot (compression;
        Bauer, Kerber and Reininghaus, Clear and Compress, 2014)."""
        rows = np.array(rows, dtype=np.int64)
        table, big, apex = self.table, self.table.big, self.apex
        out: list[list[int]] = []
        for s in range(0, rows.size, self.step):
            at = rows[s:s + self.step]
            B, r, cw = self.S[at], self.sr[at], self.win[at]
            M = table.rows(B, cw)
            hit = np.flatnonzero(M < big)
            row, v = np.divmod(hit, M.shape[1])
            R = np.maximum(M.take(hit), r[row])
            if apex is not None:
                # win is sorted, so a block of one complex takes its
                # index as a scalar.
                cw = cw[0] if cw[0] == cw[-1] else cw[row]
                x = apex[cw * big + R]
                u, w = B[row, 0], B[row, 1]
                # c: the vertex off the edge of rank R.
                c = np.where(R == r[row], v,
                             np.where(R == table.at(u, v, cw), w, u))
                keep = (x < 0) | (x >= c) | (table.at(c, x, cw) >= R)
                row, v, R = row[keep], v[keep], R[keep]
            order = np.argsort(row * (big + 1) + R, kind="stable")
            flat = self._keys(R, B[row], v)[order].tolist()
            ends = np.cumsum(np.bincount(row, minlength=B.shape[0])).tolist()
            out += [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return out

    def apparent(self, at: slice) -> tuple[np.ndarray, ...]:
        """Per column of the block at: pivot key, has a cofacet, is in an
        apparent pair, apex.

        The oldest cofacet of s is s + {v} with the least (rank, v), since
        for fixed s the lex order of s + {v} follows v.  s is its youngest
        facet when the cofacet has s's rank and every other facet
        s + {v} - {u} has a lower rank, or the same rank and u > v (the
        facet dropping the smaller vertex is lex-larger).  The apex is
        that v where all of its ranks to s are below s's own, else -1.
        """
        table, k = self.table, self.k
        S, sr, win = self.S[at], self.sr[at], self.win[at]
        M = table.rows(S, win)
        # The least max(M[v], sr) is max(min M, sr), and M[v] <= it holds
        # first at its first v.  (argmin is slow on int16.)
        cm = np.maximum(M.min(axis=1), sr.astype(M.dtype))
        vs = (M <= cm[:, None]).argmax(axis=1)
        ok = cm == sr
        to_v = [table.at(S[:, c], vs, win) for c in range(k + 1)]
        for c in range(k + 1):  # fr: the rank of facet s + {v} - {S[:, c]}
            rest = [a for a in range(k + 1) if a != c]
            fr = np.maximum.reduce(
                [to_v[a] for a in rest] + [table.at(S[:, a], S[:, b], win)
                                           for a, b in combinations(rest, 2)])
            ok &= (fr < sr) | ((fr == sr) & (S[:, c] > vs))
        apex = np.where(np.maximum.reduce(to_v) < sr, vs, -1)
        return self._keys(cm.astype(np.int64), S, vs), cm < table.big, ok, apex
