"""Cubical complexes of scalar grids (images, voxel volumes, 1-d rails).

Top cells carry the grid values; every lower cube takes the minimum of
its incident top cells, so sublevel sets of the grid and of the complex
agree.  A grid of shape (n1, ..., nd) yields prod(2*n_i + 1) cells on
the doubled index lattice: even coordinates are points, odd ones are
intervals, and a cell's dimension is its count of odd coordinates.
Border cells are left open; nothing is padded around the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .persistence import (Filtration, PersistenceDiagram,
                          compute_persistence)


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

    vals = g
    for ax in range(g.ndim):
        vals = _expand_axis_min(vals, ax)

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


def _grid_persistence(grid, max_dim: int | None, direction: str,
                      kind: str = "", ndim: int | None = None
                      ) -> PersistenceDiagram:
    """Diagram of a grid's sub- or superlevel filtration.

    max_dim defaults to the grid's axis count minus one; ndim, when
    given, is the axis count a `kind` grid must have.
    """
    g = as_grid(grid)
    if ndim is not None and g.ndim != ndim:
        raise InputError(f"{kind} grid must have {ndim} axes, got {g.ndim}")
    if direction == "superlevel":
        g = -g
    diagram, _ = compute_persistence(
        build_cubical_filtration(g),
        max_dim=g.ndim - 1 if max_dim is None else max_dim,
        metadata=_grid_metadata(g, direction))
    return diagram


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
