"""Cubical complexes of scalar grids (images, voxel volumes, 1-d rails).

Top cells carry the grid values; every lower cube takes the minimum of
its incident top cells, so sublevel sets of the grid and of the complex
agree.  A grid of shape (n1, ..., nd) yields prod(2*n_i + 1) cells on
the doubled index lattice: even coordinates are points, odd ones are
intervals, and a cell's dimension is its count of odd coordinates.
Border cells are left open; nothing is padded around the grid.

build_cubical_filtration builds that complex explicitly, for caches,
cycles and as the reference.  The diagram functions never do: they
order the cells of each dimension on the lattice itself and read faces
and cofaces off it by slicing (_lattice_pairs).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import InputError, ParameterError
from .persistence import (Filtration, PersistenceDiagram, contracted_h0,
                          ordered_diagram, reduce_coboundaries)
# Not used in this module, but perfbench/tracer.py wraps
# phom.cubical.compute_persistence, and its op_targets() raises
# AttributeError when the name is missing.
from .persistence import compute_persistence  # noqa: F401


def as_grid(values) -> np.ndarray:
    """Validate a scalar grid: 1 to 3 axes, finite values, float64."""
    g = np.asarray(values, dtype=np.float64)
    if g.ndim < 1 or g.ndim > 3:
        raise InputError(f"grid must have 1 to 3 axes, got {g.ndim}")
    if g.size == 0:
        raise InputError("grid is empty")
    if not np.all(np.isfinite(g)):
        raise InputError("grid contains non-finite values")
    return g


def _expand_axis_min(a: np.ndarray, ax: int) -> np.ndarray:
    a = np.moveaxis(a, ax, 0)
    n = a.shape[0]
    e = np.empty((2 * n + 1,) + a.shape[1:], dtype=a.dtype)
    e[1::2] = a
    e[0] = a[0]
    e[-1] = a[-1]
    if n > 1:
        e[2:-1:2] = np.minimum(a[:-1], a[1:])
    return np.moveaxis(e, 0, ax)


def _doubled_values(g: np.ndarray) -> np.ndarray:
    """Cell values on the doubled lattice of the grid g."""
    for ax in range(g.ndim):
        g = _expand_axis_min(g, ax)
    return g


def _cube(row: np.ndarray) -> tuple:
    return tuple(row.tolist())


def build_cubical_filtration(grid) -> Filtration:
    """Sublevel cubical filtration of a 1-3 axis scalar grid.

    Cells are sorted by (value, dimension, lexicographic doubled
    coordinates); the keys are the (n, d) coordinate array itself, so
    the build makes no Python object per cell.
    """
    g = as_grid(grid)
    doubled = tuple(2 * n + 1 for n in g.shape)
    vals = _doubled_values(g)

    par = np.zeros(doubled, dtype=np.int32)
    for ax, s in enumerate(doubled):
        shape = [1] * g.ndim
        shape[ax] = s
        par = par + (np.arange(s, dtype=np.int32) % 2).reshape(shape)

    coords = np.indices(doubled, dtype=np.int64).reshape(g.ndim, -1).T
    values = vals.ravel()
    dims = par.ravel()

    order = np.lexsort(tuple(coords[:, ::-1].T) + (dims, values))
    values = values[order]
    dims = dims[order].astype(np.int32)
    coords = coords[order]
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))

    strides = np.array(
        [int(np.prod(doubled[ax + 1:])) for ax in range(g.ndim)],
        dtype=np.int64)
    flatidx = coords @ strides

    widths = 2 * dims.astype(np.int64)
    off = np.concatenate([[0], np.cumsum(widths)]).astype(np.int64)
    flat = np.empty(int(off[-1]), dtype=np.int64)
    odd = (coords % 2).astype(np.int64)
    before = np.cumsum(odd, axis=1) - odd
    for ax in range(g.ndim):
        rows = np.flatnonzero(odd[:, ax])
        if not rows.size:
            continue
        slot = off[rows] + 2 * before[rows, ax]
        flat[slot] = inv[flatidx[rows] - strides[ax]]
        flat[slot + 1] = inv[flatidx[rows] + strides[ax]]
    return Filtration(values, dims, off, flat, coords,
                      meta={"grid_shape": g.shape}, as_cell=_cube)


def _grid_metadata(g: np.ndarray, direction: str) -> dict:
    vmin = float(g.min())
    vmax = float(g.max())
    unit = (vmax - vmin) if vmax > vmin else 1.0
    return {
        "filtration": "cubical",
        "direction": direction,
        "shape": "x".join(str(n) for n in g.shape),
        "death_cap": vmax + unit,
    }


def _block(d: int, odd) -> tuple:
    """Slices of the doubled lattice that pick the cells whose coordinate
    is odd exactly on the axes in odd: one orientation of cube."""
    return tuple(slice(int(ax in odd), None, 2) for ax in range(d))


def _cut(a: np.ndarray, ax: int, start, stop) -> np.ndarray:
    """a[start:stop] along axis ax."""
    return a[(slice(None),) * ax + (slice(start, stop),)]


def _pad(a: np.ndarray, ax: int, value: int) -> np.ndarray:
    """a with one entry of value added at both ends of axis ax."""
    return np.pad(a, [(int(i == ax),) * 2 for i in range(a.ndim)],
                  constant_values=value)


def _cell_order(g: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The cells of each dimension in filtration order, as flat positions
    on the doubled lattice, and the lattice of each cell's rank among the
    cells of its dimension.

    build_cubical_filtration orders the cells of one dimension by
    (value, flat position).  Replacing each value by its rank among the
    grid values makes that order one integer sort per dimension.
    """
    d = g.ndim
    level = _doubled_values(
        np.unique(g, return_inverse=True)[1].reshape(g.shape))
    size = level.size
    flat = np.arange(size).reshape(level.shape)
    rank = np.empty(level.shape, dtype=np.int64)
    cells = []
    for k in range(d + 1):
        blocks = [_block(d, odd) for odd in combinations(range(d), k)]
        c = np.sort(np.concatenate(
            [(level[b] * size + flat[b]).ravel() for b in blocks])) % size
        rank.reshape(-1)[c] = np.arange(c.size)
        cells.append(c)
    return rank, cells


def _lattice_pairs(g: np.ndarray, max_dim: int) -> list[tuple]:
    """(dim, birth cells, death cells) of the sublevel filtration of the
    grid g, as flat positions on its doubled lattice; essential classes
    have death -1.

    The pairs are those of compute_persistence on
    build_cubical_filtration, found without its complex: every face and
    coface comes from slicing the rank lattice of _cell_order.  H0 is a
    union-find over the lattice edges and H_{d-1} one over the top cells
    (_top_pairs); H1 of a voxel grid reduces coboundary columns.
    """
    d = g.ndim
    rank, cells = _cell_order(g)
    groups, died = _h0_pairs(rank, cells)
    for k in range(1, min(max_dim, d - 2) + 1):
        found, died = _reduced_pairs(rank, cells, k, died)
        groups += found
    if 1 <= d - 1 <= max_dim:
        groups.append(_top_pairs(rank, cells))
    return groups


def _h0_pairs(rank: np.ndarray,
              cells: list[np.ndarray]) -> tuple[list[tuple], np.ndarray]:
    """H0 groups of _lattice_pairs, and the ranks of the merging edges."""
    d = rank.ndim
    verts = rank[_block(d, ())]
    a = np.empty(cells[1].size, dtype=np.int64)
    b = np.empty_like(a)
    for ax in range(d):
        edges = rank[_block(d, (ax,))]
        a[edges] = _cut(verts, ax, None, -1)
        b[edges] = _cut(verts, ax, 1, None)
    e, v = contracted_h0(cells[0].size, a, b)
    alive = np.delete(cells[0], v)
    return [(0, cells[0][v], cells[1][e]),
            (0, alive, np.full(alive.size, -1))], e


def _reduced_pairs(rank: np.ndarray, cells: list[np.ndarray], k: int,
                   died: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """H_k groups of _lattice_pairs by coboundary reduction, skipping the
    k-cells of rank died (paired one dimension down), and the ranks of
    the (k+1)-cells that die.

    Each k-cell's cofaces sit one step away along its even axes, each
    (k+1)-cell's faces one step away along its odd axes.
    """
    d = rank.ndim
    big = cells[k + 1].size
    cof = np.full((cells[k].size, 2 * (d - k)), big, dtype=np.int64)
    # youngest[big] stays -1, so a cell without cofaces is not apparent.
    youngest = np.full(big + 1, -1, dtype=np.int64)
    for odd in combinations(range(d), k):
        col = rank[_block(d, odd)]
        for slot, ax in enumerate(i for i in range(d) if i not in odd):
            up = rank[_block(d, odd + (ax,))]
            padded = _pad(up, ax, big)
            cof[col, 2 * slot] = _cut(padded, ax, None, -1)
            cof[col, 2 * slot + 1] = _cut(padded, ax, 1, None)
            youngest[up] = np.maximum.reduce(
                [youngest[up], _cut(col, ax, None, -1),
                 _cut(col, ax, 1, None)])
    cols = np.delete(np.arange(cells[k].size), died)
    cof = np.sort(cof[cols], axis=1)
    oldest = cof[:, 0]
    count = (cof < big).sum(axis=1).tolist()
    born, died, ess = reduce_coboundaries(
        cols, oldest, oldest < big, youngest[oldest] == cols,
        lambda j: cof[j].tolist()[:count[j]])
    return [(k, cells[k][cols[born]], cells[k + 1][died]),
            (k, cells[k][cols[ess]], np.full(ess.size, -1))], died


def _top_pairs(rank: np.ndarray, cells: list[np.ndarray]) -> tuple:
    """The H_{d-1} group of _lattice_pairs, by Alexander duality.

    In reverse filtration order, a union-find runs over the top cells
    and one exterior node, the oldest: a (d-1)-face joins its two top
    cells, or its one top cell and the exterior on the border.  The face
    that merges a top cell's component is the birth of the class that
    top cell kills, and every top cell is killed.
    """
    d = rank.ndim
    tops = rank[_block(d, range(d))]
    age = tops.size - tops
    nf = cells[d - 1].size
    a = np.empty(nf, dtype=np.int64)
    b = np.empty_like(a)
    for ax in range(d):
        dual = nf - 1 - rank[_block(d, set(range(d)) - {ax})]
        padded = _pad(age, ax, 0)
        a[dual] = _cut(padded, ax, None, -1)
        b[dual] = _cut(padded, ax, 1, None)
    e, v = contracted_h0(tops.size + 1, a, b)
    return d - 1, cells[d - 1][nf - 1 - e], cells[d][tops.size - v]


def _grid_persistence(grid, max_dim: int | None, direction: str,
                      kind: str = "", ndim: int | None = None
                      ) -> PersistenceDiagram:
    """Diagram of a grid's sub- or superlevel filtration.

    max_dim defaults to the grid's axis count minus one; ndim, when
    given, is the axis count a `kind` grid must have.  The points equal
    compute_persistence(build_cubical_filtration(g)), whose complex is
    never built.
    """
    g = as_grid(grid)
    if ndim is not None and g.ndim != ndim:
        raise InputError(f"{kind} grid must have {ndim} axes, got {g.ndim}")
    if direction == "superlevel":
        g = -g
    max_dim = g.ndim - 1 if max_dim is None else int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    groups = _lattice_pairs(g, max_dim)
    vals = _doubled_values(g).ravel()
    return ordered_diagram(
        [(k, vals[b], np.where(x >= 0, vals[x], math.inf), b)
         for k, b, x in groups], max_dim, _grid_metadata(g, direction))


def image_persistence(grid, max_dim: int | None = None) -> PersistenceDiagram:
    """Sublevel persistence of a 2-d image grid (H0 and H1 by default).

    Infinite deaths stay infinite in the diagram; metadata records a
    death cap (max value plus one value-range unit) for vectorization.
    """
    return _grid_persistence(grid, max_dim, "sublevel", "image", 2)


def voxel_persistence(grid, max_dim: int | None = None) -> PersistenceDiagram:
    """Sublevel persistence of a 3-d voxel grid; H2 counts enclosed voids."""
    return _grid_persistence(grid, max_dim, "sublevel", "voxel", 3)


def superlevel_persistence(grid,
                           max_dim: int | None = None) -> PersistenceDiagram:
    """Superlevel persistence, computed as sublevel of the negated grid.

    Points are stored in negated-grid coordinates so that birth <= death
    still holds; native grid values are the negations of the stored
    coordinates (a feature stored as (b, d) appears at grid value -b and
    vanishes at -d, sweeping from high values down).
    """
    return _grid_persistence(grid, max_dim, "superlevel")
