"""Filtered simplicial complexes and the Vietoris-Rips construction.

Cells are kept in filtration order: sorted by (value, dimension,
lexicographic vertices), so every face precedes its cofaces and any
sublevel set is a prefix of the cell list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import InputError, InternalError, ParameterError
from .persistence import Filtration

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
    s = simplex if isinstance(simplex, Simplex) else Simplex(simplex)
    return s.faces()


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


def rips_filtration(dist: np.ndarray, max_dim: int, max_scale: float,
                    scale: str = "radius") -> Filtration:
    """Vietoris-Rips filtration of a distance matrix.

    A k-simplex enters at the maximum of its edge values; vertices enter
    at 0.  Under the default "radius" convention an edge's value is half
    its length, under "diameter" it is the length itself.

    Args:
        dist: square distance matrix (see check_distance_matrix).
        max_dim: largest simplex dimension to build, 0 <= max_dim <= n-1.
        max_scale: cells with value above this are dropped; must be > 0.
        scale: "radius" or "diameter".

    Returns:
        A Filtration whose cell order is (value, dimension, lexicographic
        vertices).
    """
    d = check_distance_matrix(dist)
    n = d.shape[0]
    if scale not in ("radius", "diameter"):
        raise ParameterError(f"unknown scale convention {scale!r}")
    max_dim = int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    if max_dim > n - 1:
        raise ParameterError(
            f"max_dim {max_dim} exceeds n_points - 1 = {n - 1}")
    max_scale = float(max_scale)
    if not (np.isfinite(max_scale) and max_scale > 0):
        raise ParameterError("max_scale must be finite and positive")

    w = d / 2.0 if scale == "radius" else d.astype(np.float64)

    blocks: list[tuple[np.ndarray, np.ndarray]] = [
        (np.arange(n, dtype=np.int64)[:, None], np.zeros(n))]

    if max_dim >= 1:
        iu, ju = np.triu_indices(n, 1)
        ev = w[iu, ju]
        keep = ev <= max_scale
        iu, ju, ev = iu[keep], ju[keep], ev[keep]
        blocks.append((np.column_stack([iu, ju]).astype(np.int64), ev))

        if max_dim >= 2 and iu.size:
            adj = w <= max_scale
            np.fill_diagonal(adj, False)
            prev_v, prev_x = blocks[1]
            for k in range(2, max_dim + 1):
                parts_v, parts_x = [], []
                for r in range(prev_v.shape[0]):
                    cell = prev_v[r]
                    common = adj[cell[0]]
                    for v in cell[1:]:
                        common = common & adj[v]
                    nb = np.flatnonzero(common)
                    nb = nb[nb > cell[-1]]
                    if nb.size:
                        ext = np.empty((nb.size, k + 1), dtype=np.int64)
                        ext[:, :k] = cell
                        ext[:, k] = nb
                        xv = np.full(nb.size, prev_x[r])
                        for v in cell:
                            xv = np.maximum(xv, w[v, nb])
                        parts_v.append(ext)
                        parts_x.append(xv)
                if not parts_v:
                    break
                prev_v = np.concatenate(parts_v)
                prev_x = np.concatenate(parts_x)
                blocks.append((prev_v, prev_x))

    return _assemble_rips(blocks, n)


def _assemble_rips(blocks: list[tuple[np.ndarray, np.ndarray]],
                   n: int) -> Filtration:
    """Sort rips cells into filtration order and wire up boundaries."""
    width = max(b[0].shape[1] for b in blocks)
    m = sum(b[0].shape[0] for b in blocks)
    verts_pad = np.zeros((m, width), dtype=np.int64)
    values = np.empty(m)
    dims = np.empty(m, dtype=np.int32)
    pos = 0
    for vb, xb in blocks:
        cnt, wd = vb.shape
        verts_pad[pos:pos + cnt, :wd] = vb
        values[pos:pos + cnt] = xb
        dims[pos:pos + cnt] = wd - 1
        pos += cnt

    keys = (verts_pad[:, ::-1], dims, values)
    order = np.lexsort(tuple(keys[0].T) + (keys[1], keys[2]))
    verts_pad = verts_pad[order]
    values = values[order]
    dims = dims[order]

    base = n + 1
    cell_keys = np.full(m, -1, dtype=np.int64)
    for k in range(width):
        sel = dims == k
        if np.any(sel):
            cell_keys[sel] = _poly_keys(verts_pad[sel, :k + 1], base)
    ksort = np.argsort(cell_keys, kind="stable")
    sorted_keys = cell_keys[ksort]

    widths = np.where(dims == 0, 0, dims + 1)
    off = np.concatenate([[0], np.cumsum(widths)]).astype(np.int64)
    flat = np.empty(int(off[-1]), dtype=np.int64)
    for k in range(1, width):
        sel = np.flatnonzero(dims == k)
        if not sel.size:
            continue
        vb = verts_pad[sel, :k + 1]
        for c in range(k + 1):
            face = np.delete(vb, c, axis=1)
            fkeys = _poly_keys(face, base)
            p = np.searchsorted(sorted_keys, fkeys)
            if np.any(sorted_keys[p] != fkeys):
                raise InternalError("rips facet lookup failed")
            flat[off[sel] + c] = ksort[p]

    verts_list = [tuple(row[:dims[i] + 1])
                  for i, row in enumerate(verts_pad.tolist())]
    return Filtration(values, dims, off, flat, verts_list,
                      as_cell=Simplex._wrap)
