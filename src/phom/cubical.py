"""Cubical complexes of scalar grids (images, voxel volumes, 1-d rails).

Top cells carry the grid values; every lower cube takes the minimum of
its incident top cells, so sublevel sets of the grid and of the complex
agree.  A grid of shape (n1, ..., nd) yields prod(2*n_i + 1) cells on
the doubled index lattice: even coordinates are points, odd ones are
intervals, and a cell's dimension is its count of odd coordinates.
Border cells are left open; nothing is padded around the grid.

Cells are ordered per dimension on the lattice itself (_cell_order),
and one rule gives every face: a cube's faces sit one step away along
each of its odd axes (_face_steps).  Cofaces are the same steps read
backwards, so border cells need no padding.  build_cubical_filtration
builds the explicit complex from the two, for caches, cycles and as
the reference; the diagram functions never build it (_lattice_pairs),
and voxel H1 hands a coface table to persistence.pair_columns.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import InputError, ParameterError
from .persistence import (Filtration, PersistenceDiagram, assemble_cells,
                          boruvka_h0, ordered_diagram, pair_columns)
# Not used in this module, but perfbench/tracer.py wraps
# phom.cubical.compute_persistence, and its op_targets() raises
# AttributeError when the name is missing.
from .persistence import compute_persistence  # noqa: F401


# The int64 sort keys on the doubled lattice (_cell_order, pair_columns)
# stay below its cell count squared, so they fit up to this many cells.
_MAX_LATTICE = math.isqrt(2**63 - 1)


def as_grid(values) -> np.ndarray:
    """Validate a scalar grid: 1 to 3 axes, finite values, float64, and
    at most _MAX_LATTICE cells on its doubled lattice."""
    g = np.asarray(values, dtype=np.float64)
    if g.ndim < 1 or g.ndim > 3:
        raise InputError(f"grid must have 1 to 3 axes, got {g.ndim}")
    if g.size == 0:
        raise InputError("grid is empty")
    if math.prod(2 * n + 1 for n in g.shape) > _MAX_LATTICE:
        raise InputError(f"grid of shape {g.shape} is too large: its "
                         f"doubled lattice exceeds {_MAX_LATTICE:,} cells")
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


def build_cubical_filtration(grid) -> Filtration:
    """Sublevel cubical filtration of a 1-3 axis scalar grid.

    Cells are sorted by (value, dimension, lexicographic doubled
    coordinates); the keys are the (n, d) coordinate array itself, so
    the build makes no Python object per cell.  The cells of each
    dimension come from _cell_order and their faces from _face_steps.
    """
    g = as_grid(grid)
    vals = _doubled_values(g)
    rank, cells = _cell_order(g)
    faces = [np.empty((c.size, 2 * k), dtype=np.int64)
             for k, c in enumerate(cells)]
    for k in range(1, g.ndim + 1):
        for _, slot, rows, below, above in _face_steps(rank, k):
            faces[k][rows, 2 * slot] = below
            faces[k][rows, 2 * slot + 1] = above
    order, *wired = assemble_cells([vals.reshape(-1)[c] for c in cells],
                                   faces)
    keys = np.column_stack(np.unravel_index(np.concatenate(cells)[order],
                                            vals.shape))
    return Filtration(*wired, keys, meta={"grid_shape": g.shape})


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


def _cell_order(g: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The cells of each dimension in filtration order, as flat positions
    on the doubled lattice, and the lattice of each cell's rank among the
    cells of its dimension, both int32 below 2**31 lattice cells.

    Within a dimension the filtration order is (value, flat position),
    and flat position is lexicographic.  Replacing each value by its
    rank among the grid values makes that order one int64 sort per
    dimension, whose keys are freed once sorted.
    """
    d = g.ndim
    size = math.prod(2 * n + 1 for n in g.shape)
    dt = np.int32 if size < 2**31 else np.int64
    level = _doubled_values(
        np.unique(g, return_inverse=True)[1].reshape(g.shape).astype(dt))
    flat = np.arange(size, dtype=dt).reshape(level.shape)
    rank = np.empty(level.shape, dtype=dt)
    cells = []
    for k in range(d + 1):
        blocks = [_block(d, odd) for odd in combinations(range(d), k)]
        c = (np.sort(np.concatenate([(level[b].astype(np.int64) * size
                                      + flat[b]).ravel() for b in blocks]))
             % size).astype(dt)
        rank.reshape(-1)[c] = np.arange(c.size, dtype=dt)
        cells.append(c)
    return rank, cells


def _lattice_pairs(g: np.ndarray, max_dim: int) -> list[tuple]:
    """(dim, birth cells, death cells) of the sublevel filtration of the
    grid g, as flat positions on its doubled lattice; essential classes
    have death -1.

    The pairs are those of compute_persistence on
    build_cubical_filtration, found without its complex: every face and
    coface is a _face_steps step on the rank lattice of _cell_order.
    H0 is a union-find over the lattice edges and H_{d-1} one over the
    top cells (_top_pairs).  H1 of a voxel grid pairs coboundary columns
    (_reduced_pairs), and the squares that _top_pairs finds to give
    birth to voids are left out of them.
    """
    d = g.ndim
    rank, cells = _cell_order(g)
    groups, died = _h0_pairs(rank, cells)
    if d == 1 or max_dim < 1:
        return groups
    born, dies = _top_pairs(rank, cells)
    if d == 3:
        groups += _reduced_pairs(rank, cells, died, born)
    if max_dim >= d - 1:
        groups.append((d - 1, cells[d - 1][born], cells[d][dies]))
    return groups


def _face_steps(rank: np.ndarray, k: int):
    """One lattice step from the k-cells down to their faces.

    For each orientation of k-cell and each of its odd axes ax, yields
    (ax, slot, cells, below, above): slot is the position of ax among
    the cell's odd axes, cells the ranks of those k-cells and below and
    above the ranks of their faces one step down and one step up ax, all
    on rank's lattice and of one shape.  Read backwards, a step says
    that each of cells is the coface above its face in below and the
    coface below its face in above.
    """
    d = rank.ndim
    for odd in combinations(range(d), k):
        cells = rank[_block(d, odd)]
        for slot, ax in enumerate(odd):
            faces = rank[_block(d, odd[:slot] + odd[slot + 1:])]
            yield (ax, slot, cells,
                   faces[(slice(None),) * ax + (slice(None, -1),)],
                   faces[(slice(None),) * ax + (slice(1, None),)])


def _h0_pairs(rank: np.ndarray,
              cells: list[np.ndarray]) -> tuple[list[tuple], np.ndarray]:
    """H0 groups of _lattice_pairs, and the ranks of the merging edges."""
    a, b = np.empty((2, cells[1].size), dtype=rank.dtype)
    for _, _, edges, below, above in _face_steps(rank, 1):
        a[edges] = below
        b[edges] = above
    e, v = boruvka_h0(cells[0].size, a, b)
    alive = np.delete(cells[0], v)
    return [(0, cells[0][v], cells[1][e]),
            (0, alive, np.full(alive.size, -1))], e


def _reduced_pairs(rank: np.ndarray, cells: list[np.ndarray],
                   died: np.ndarray, voids: np.ndarray) -> list[tuple]:
    """H1 groups of _lattice_pairs for a voxel grid by pair_columns,
    skipping the edges of rank died (H0 deaths) and leaving out the
    squares of rank voids (H2 births).

    The cofaces are the squares' face steps read backwards.  An edge's
    two cofaces along its even axis ax go in row pair ax - slot, since
    slot counts its odd axes below ax; a border edge has one, and its
    other entry stays big.  A square that gives birth to a void is never
    an H1 pivot, so making it padding changes no pivot (Bauer, Kerber
    and Reininghaus, Clear and Compress, 2014).
    """
    big = cells[2].size
    cof = np.full((4, cells[1].size), big, dtype=np.int64)
    youngest = np.full(big + 1, -1, dtype=np.int64)
    for ax, slot, up, below, above in _face_steps(rank, 2):
        cof[2 * (ax - slot) + 1, below] = up
        cof[2 * (ax - slot), above] = up
        youngest[up] = np.maximum.reduce([youngest[up], below, above])
    row = np.arange(big + 1)
    row[voids] = big
    cols = np.delete(np.arange(cells[1].size), died)
    cof = np.sort(row[cof[:, cols]].T, axis=1).ravel()  # frees the old one
    del row  # and the void map, before the levels' peak
    born, dies, ess = pair_columns(cols, cof, 4 * np.arange(cols.size + 1),
                                   youngest, big)
    return [(1, cells[1][born], cells[2][dies]),
            (1, cells[1][ess], np.full(ess.size, -1))]


def _top_pairs(rank: np.ndarray,
               cells: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The H_{d-1} pairs of _lattice_pairs by Alexander duality, as the
    ranks of the (d-1)-cells that give birth and of the top cells that
    kill.

    In reverse filtration order, a union-find runs over the top cells
    and one exterior node, the oldest: a (d-1)-face joins its two top
    cells, or its one top cell and the exterior on the border.  The face
    that merges a top cell's component is the birth of the class that
    top cell kills, and every top cell is killed.
    """
    d = rank.ndim
    nt = cells[d].size
    nf = cells[d - 1].size
    # Dual edge nf-1-f joins the ages (nt minus rank, exterior 0) of the
    # top cells below and above face f.
    a, b = np.zeros((2, nf), dtype=rank.dtype)
    for _, _, tops, below, above in _face_steps(rank, d):
        age = nt - tops
        b[nf - 1 - below] = age
        a[nf - 1 - above] = age
    e, v = boruvka_h0(nt + 1, a, b)
    return nf - 1 - e, nt - v


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
    meta = _grid_metadata(g, direction)
    if not math.isfinite(meta["death_cap"]):
        raise InputError("grid values span too wide a range: the death "
                         "cap max + (max - min) overflows")
    pairs = _lattice_pairs(g, max_dim)
    vals, groups = _doubled_values(g).ravel(), []
    # Most pairs have zero persistence: drop them per group, so that no
    # array holds all of them.
    for k, b, x in pairs:
        birth, death = vals[b], np.where(x >= 0, vals[x], math.inf)
        keep = np.flatnonzero(birth != death)
        groups.append((k, birth[keep], death[keep], b[keep]))
    return ordered_diagram(groups, max_dim, meta)


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
