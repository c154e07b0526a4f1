"""Filtered simplicial complexes and the Vietoris-Rips construction.

Cells are kept in filtration order: sorted by (value, dimension,
lexicographic vertices), so every face precedes its cofaces and any
sublevel set is a prefix of the cell list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import InputError, InternalError, ParameterError
from .persistence import (Filtration, PersistenceDiagram, assemble_cells,
                          ordered_diagram, reduce_coboundaries,
                          union_find_h0)

Vertices = Sequence[int]


class Simplex(tuple):
    """A simplex, stored as a strictly increasing tuple of vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices: Vertices) -> "Simplex":
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise ParameterError("a simplex needs at least one vertex")
        if vs[0] < 0:
            raise ParameterError(f"vertex ids must be non-negative, got {vs}")
        for a, b in zip(vs, vs[1:]):
            if a >= b:
                raise ParameterError(
                    f"vertices must be strictly increasing, got {vs}")
        return tuple.__new__(cls, vs)

    @classmethod
    def _wrap(cls, vertices: tuple) -> "Simplex":
        # Fast path for internal callers that guarantee sortedness.
        return tuple.__new__(cls, vertices)

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
    """Filtration of an explicit list of (vertices, value) cells.

    Cells are sorted into (value, dimension, lexicographic vertices)
    order and their boundaries are wired up front; a duplicate cell, a
    non-finite value or a missing face raises InputError.
    """
    rows = []
    for verts, value in cells:
        s = Simplex(verts)
        rows.append((float(value), len(s), s))
    rows.sort()
    keys = [r[2] for r in rows]
    values = np.array([r[0] for r in rows], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("filtration values must be finite")
    index = {s: i for i, s in enumerate(keys)}
    if len(index) != len(keys):
        raise InputError("duplicate cells in filtration")
    flat = []
    off = [0]
    for s in keys:
        for face in s.faces():
            if face not in index:
                raise InputError(
                    f"cell {tuple(s)} is missing face {tuple(face)}")
            flat.append(index[face])
        off.append(len(flat))
    return Filtration(values, np.array([r[1] - 1 for r in rows],
                                       dtype=np.int32),
                      np.array(off, dtype=np.int64),
                      np.array(flat, dtype=np.int64), keys,
                      as_cell=Simplex._wrap)


def validate_complex(K: Filtration) -> ComplexViolation | None:
    """Check closure, value monotonicity and cell ordering.

    Returns None when the simplicial filtration is valid, otherwise a
    report naming the first offending cell in filtration order.
    """
    index = {v: i for i, v in enumerate(K.keys)}
    prev_key = None
    for i, v in enumerate(K.keys):
        val = float(K.values[i])
        key = (val, len(v), v)
        if prev_key is not None and key < prev_key:
            return ComplexViolation(
                "order break", i, Simplex._wrap(v),
                f"cell at position {i} sorts before its predecessor")
        prev_key = key
        if len(v) > 1:
            for c in range(len(v)):
                face = v[:c] + v[c + 1:]
                j = index.get(face)
                if j is None:
                    return ComplexViolation(
                        "missing face", i, Simplex._wrap(v),
                        f"face {face} is absent")
                if K.values[j] > val:
                    return ComplexViolation(
                        "value inversion", i, Simplex._wrap(v),
                        f"face {face} enters at {K.values[j]!r} > {val!r}")
    return None


def point_cloud_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) point cloud.

    The result is exactly symmetric with a zero diagonal.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise InputError("point cloud must be a non-empty 2-d array")
    if not np.all(np.isfinite(pts)):
        raise InputError("point cloud contains non-finite coordinates")
    if pts.shape[0] == 1:
        return np.zeros((1, 1))
    return squareform(pdist(pts))


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
    if not np.array_equal(d, d.T):
        raise InputError("distance matrix is not symmetric")
    return d


def _poly_keys(verts: np.ndarray, base: int) -> np.ndarray:
    """Injective int64 key per row of a (m, w) vertex array."""
    keys = np.zeros(verts.shape[0], dtype=np.int64)
    for c in range(verts.shape[1]):
        keys = keys * base + (verts[:, c].astype(np.int64) + 1)
    return keys


def _rips_edges(dist: np.ndarray, max_dim: int, max_scale: float,
                scale: str) -> tuple:
    """Checked max_dim and the edge table of both Rips builders, which
    work with ranks among the distinct edge values up to max_scale: the
    kept edges (i < j) in lexicographic order, their ranks, the distinct
    values, and the (n, n) rank matrix, `big` = uvals.size where there is
    no edge and on the diagonal."""
    d = check_distance_matrix(dist)
    if scale not in ("radius", "diameter"):
        raise ParameterError(f"unknown scale convention {scale!r}")
    max_dim = int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    max_scale = float(max_scale)
    if not (np.isfinite(max_scale) and max_scale > 0):
        raise ParameterError("max_scale must be finite and positive")
    w = d / 2.0 if scale == "radius" else d
    n = w.shape[0]
    iu, ju = np.triu_indices(n, 1)
    ev = w[iu, ju]
    keep = ev <= max_scale
    iu, ju = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
    # + 0.0 makes every zero +0.0, so no value's sign hangs on point order.
    uvals, erank = np.unique(ev[keep] + 0.0, return_inverse=True)
    rank = np.full((n, n), uvals.size, dtype=np.int64)
    rank[iu, ju] = erank
    rank[ju, iu] = erank
    return (max_dim, np.column_stack([iu, ju]), erank.astype(np.int64),
            uvals, rank)


def rips_filtration(dist: np.ndarray, max_dim: int, max_scale: float,
                    scale: str = "radius") -> Filtration:
    """Vietoris-Rips filtration of a distance matrix.

    A k-simplex enters at the maximum of its edge values; vertices enter
    at 0.  Under the default "radius" convention an edge's value is half
    its length, under "diameter" it is the length itself.

    Args:
        dist: square distance matrix (see check_distance_matrix).
        max_dim: largest simplex dimension to build, 0 <= max_dim <= n-1
            and (n+1)**max_dim < 2**63, so that face keys fit in int64.
        max_scale: cells with value above this are dropped; must be > 0.
        scale: "radius" or "diameter".

    Returns:
        A Filtration whose cell order is (value, dimension, lexicographic
        vertices).
    """
    max_dim, edges, erank, uvals, rank = _rips_edges(dist, max_dim,
                                                     max_scale, scale)
    n = rank.shape[0]
    if max_dim > n - 1:
        raise ParameterError(
            f"max_dim {max_dim} exceeds n_points - 1 = {n - 1}")
    # The face lookup keys max_dim vertices in base n + 1.
    if (n + 1) ** max_dim >= 2 ** 63:
        raise ParameterError(
            f"{n} points with max_dim {max_dim} overflow 64-bit face keys; "
            "lower max_dim")

    levels = [(edges, erank)]
    while len(levels) < max_dim and levels[-1][1].size:
        levels.append(_rips_extend(*levels[-1], rank, uvals.size))
    simp = [np.arange(n, dtype=np.int64)[:, None]] + [
        s for s, _ in levels[:max_dim]]
    values = [np.zeros(n)] + [uvals[r] for _, r in levels[:max_dim]]

    # Each list is lexicographic, so are its _poly_keys: a face is found
    # by searchsorted among the simplices one dimension down.
    faces = [simp[0][:, :0]]
    for k in range(1, len(simp)):
        below = _poly_keys(simp[k - 1], n + 1)
        faces.append(np.empty_like(simp[k]))
        for c in range(k + 1):
            fkeys = _poly_keys(np.delete(simp[k], c, axis=1), n + 1)
            p = np.searchsorted(below, fkeys)
            if np.any(below[p] != fkeys):
                raise InternalError("rips facet lookup failed")
            faces[k][:, c] = p
    order, *wired = assemble_cells(values, faces)
    cells = [tuple(row) for s in simp for row in s.tolist()]
    return Filtration(*wired, [cells[i] for i in order.tolist()],
                      as_cell=Simplex._wrap)


# Entries per block of the vectorized (simplices, n) passes, and of the
# bottleneck's (points, points) pass: bounds their work arrays to a few MB.
_BLOCK_ENTRIES = 1 << 19


def rips_persistence(dist: np.ndarray, max_dim: int, max_scale: float,
                     scale: str = "radius",
                     metadata: dict | None = None) -> PersistenceDiagram:
    """Vietoris-Rips persistence diagram, without building the complex.

    Gives the points of compute_persistence(rips_filtration(dist,
    max_dim + 1, max_scale, scale), max_dim): same total order (value,
    dimension, lexicographic vertices), zero-persistence pairs dropped.

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
    max_dim, simp, srank, uvals, rank = _rips_edges(dist, max_dim,
                                                    max_scale, scale)
    n = rank.shape[0]
    big = uvals.size
    top = min(max_dim, n - 1)
    if top >= 1 and big * (n + 1) ** (top + 2) >= 2 ** 63:
        raise ParameterError(
            f"{n} points with max_dim {max_dim} overflow 64-bit cell keys; "
            "lower max_dim or max_scale")

    keys = srank * (n + 1) ** 2 + _poly_keys(simp, n + 1)
    order = np.argsort(keys)
    e, v = union_find_h0(n, simp[order, 0], simp[order, 1])
    alive = np.delete(np.arange(n), v)
    groups = [(0, np.zeros(v.size), uvals[srank[order[e]]], v),
              (0, np.zeros(alive.size), np.full(alive.size, math.inf),
               alive)]
    paired = keys[order[e]]
    step = max(1, _BLOCK_ENTRIES // n)
    for k in range(1, top + 1):
        if k > 1:
            simp, srank = _rips_extend(simp, srank, rank, big)
            keys = srank * (n + 1) ** (k + 1) + _poly_keys(simp, n + 1)
        cols = np.flatnonzero(~np.isin(keys, paired))
        S, sr, ck = simp[cols], srank[cols], keys[cols]
        cob = _RipsCohomology(rank, big, k)
        # Blocks bound the (rows, n) work arrays; an empty S is one block.
        piv, has, app = map(np.concatenate, zip(*[
            cob.apparent(S[s:s + step], sr[s:s + step])
            for s in range(0, max(cols.size, 1), step)]))
        srl = sr.tolist()
        born, paired, ess = reduce_coboundaries(
            ck, piv, has, app, lambda j: cob.coboundary(S[j], srl[j]))
        groups += [(k, uvals[sr[born]], uvals[paired // cob.base], ck[born]),
                   (k, uvals[sr[ess]], np.full(ess.size, math.inf), ck[ess])]
    return ordered_diagram(groups, max_dim, metadata)


def _rips_extend(simp: np.ndarray, ranks: np.ndarray, rank: np.ndarray,
                 big: int) -> tuple[np.ndarray, np.ndarray]:
    """All (k+1)-simplices and their ranks, each from its face without
    the last vertex; a simplex's rank is the largest of its edge ranks in
    the rank matrix of _rips_edges."""
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
    """(len(S), n): per simplex, the largest weight from its vertices."""
    M = weight[S[:, 0]]
    for c in range(1, S.shape[1]):
        M = np.maximum(M, weight[S[:, c]])
    return M


class _RipsCohomology:
    """Cofacets of the k-simplices: their keys, coboundaries and apparent
    pairs, for reduce_coboundaries."""

    def __init__(self, rank: np.ndarray, big: int, k: int):
        self.rank, self.big, self.k = rank, big, k
        # As _poly_keys: pw[p] weighs the vertex at position p of a cofacet.
        self.pw = (rank.shape[0] + 1) ** np.arange(k + 1, -1, -1,
                                                   dtype=np.int64)
        self.base = int(self.pw[0]) * (rank.shape[0] + 1)

    def cofacet_keys(self, S: np.ndarray, v: np.ndarray, r: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
        """Keys of the cofacets S[i] + {v[i]}, of rank r[i], where c[i]
        vertices of S[i] are below v[i]; S may be one row for all v."""
        pw = self.pw
        lex = pw[c] * (v + 1)
        for i in range(self.k + 1):
            lex += (S[:, i] + 1) * np.where(c > i, pw[i], pw[i + 1])
        return r * self.base + lex

    def coboundary(self, s: np.ndarray, r: int) -> list[int]:
        """Sorted cofacet keys of one simplex s (vertex ids) of rank r."""
        M = _max_rows(self.rank, s[None])[0]
        v = np.flatnonzero(M < self.big)
        return np.sort(self.cofacet_keys(s[None], v, np.maximum(M[v], r),
                                         np.searchsorted(s, v))).tolist()

    def apparent(self, S: np.ndarray, sr: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per column: pivot key, has a cofacet, is in an apparent pair.

        The oldest cofacet of s is s + {v} with the least (rank, v), since
        for fixed s the lex order of s + {v} follows v.  s is its youngest
        facet when the cofacet has s's rank and every other facet
        s + {v} - {u} has a lower rank, or the same rank and u > v (the
        facet dropping the smaller vertex is lex-larger).
        """
        rank, big, k = self.rank, self.big, self.k
        rows = np.arange(S.shape[0])
        M = np.maximum(_max_rows(rank, S), sr[:, None])
        vs = M.argmin(axis=1)
        cm = M[rows, vs]
        ok = cm == sr
        to_v = [rank[S[:, c], vs] for c in range(k + 1)]
        for c in range(k + 1):
            fr = np.full(S.shape[0], -1, dtype=np.int64)
            for a in range(k + 1):
                if a == c:
                    continue
                fr = np.maximum(fr, to_v[a])
                for b in range(a + 1, k + 1):
                    if b != c:
                        fr = np.maximum(fr, rank[S[:, a], S[:, b]])
            ok &= (fr < sr) | ((fr == sr) & (S[:, c] > vs))
        below = (S < vs[:, None]).sum(axis=1)
        return self.cofacet_keys(S, vs, cm, below), cm < big, ok
