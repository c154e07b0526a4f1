"""Z2 boundary matrices, Smith normal form ranks and Betti numbers.

This is the slow-but-transparent route: dense 0/1 matrices reduced by
Gaussian elimination.  The persistence engine never calls into it; the
two sides cross-check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ParameterError
from .persistence import Filtration, union_find_h0


@dataclass
class BoundaryMatrixZ2:
    """The k-th Z2 boundary matrix of a complex, in lexicographic order.

    rows holds the (k-1)-cells and cols the k-cells, as the complex's
    cell() gives them.  For k == 0 rows is empty and the matrix is a
    single zero row (the boundary of a vertex is the empty chain).
    columns stores, per column, the sorted row indices of its non-zero
    entries.
    """

    k: int
    rows: list
    cols: list
    columns: list[list[int]] = field(repr=False)

    def dense(self) -> np.ndarray:
        """0/1 uint8 matrix; shape ((#rows or 1), #cols)."""
        m = np.zeros((max(1, len(self.rows)), len(self.cols)), dtype=np.uint8)
        for j, col in enumerate(self.columns):
            m[col, j] = 1
        return m


def build_boundary_matrix(K: Filtration, k: int) -> BoundaryMatrixZ2:
    """Boundary matrix of the k-cells of any filtration K over Z2.

    The faces are K's own boundary.  Rows and columns are sorted
    lexicographically by cell (vertex tuple, doubled-lattice coordinates
    or cache label), ties by position, which matches the tabular layout
    used for small worked examples.  Key rows sort by one lexsort, their
    -1 padding first, as a shorter tuple does.
    """
    if k < 0:
        raise ParameterError("boundary dimension must be non-negative")
    ids = _lex_order(K, np.flatnonzero((K.dims == k - 1) | (K.dims == k)))
    m = int(np.count_nonzero(K.dims[ids] == k - 1))
    rows, cols, cells = ids[:m], ids[m:], K._cells(ids)
    at = np.full(len(K), -1)
    at[rows] = np.arange(m)
    start, size = K.bnd_off[cols], K.bnd_off[cols + 1] - K.bnd_off[cols]
    if np.all(size == size[:1]):  # one face count: one gather
        columns = np.sort(at[K.bnd_flat[start[:, None] + np.arange(
            size.max(initial=0))]], axis=1).tolist()
    else:
        columns = [sorted(at[K.boundary(i)].tolist()) for i in cols]
    return BoundaryMatrixZ2(k, cells[:m], cells[m:], columns)


def _lex_order(K: Filtration, ids: np.ndarray) -> np.ndarray:
    """ids sorted by (dimension, cell), ties by position."""
    if isinstance(K.keys, np.ndarray):
        return ids[np.lexsort((*K.keys[ids].T[::-1], K.dims[ids]))]
    cells, dims = K._cells(ids), K.dims[ids].tolist()
    return ids[sorted(range(ids.size), key=lambda r: (dims[r], cells[r]))]


@dataclass
class SnfResult:
    """Rank and diagonal form produced by Z2 Gaussian elimination."""

    rank: int
    pivots: list[tuple[int, int]]
    matrix: np.ndarray

    def __post_init__(self):
        if self.rank != len(self.pivots):
            raise ParameterError("rank must equal the number of pivots")


def gf2_eliminate(mat: np.ndarray) -> tuple[int, list[tuple[int, int]]]:
    """Row-reduce a 0/1 matrix over Z2 in place; returns (rank, pivots)."""
    m = mat
    n_rows, n_cols = m.shape
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(n_cols):
        hits = np.flatnonzero(m[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others] ^= m[r]
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return r, pivots


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over Z2."""
    return gf2_eliminate(np.array(mat, dtype=np.uint8) & 1)[0]


def snf_rank(B: "BoundaryMatrixZ2 | np.ndarray") -> SnfResult:
    """Smith normal form over Z2: rank, pivots and the diagonal matrix.

    Over Z2 the Smith form is determined by the rank alone: r leading
    ones on the diagonal, zeros elsewhere.  Accepts a BoundaryMatrixZ2
    or any 0/1 array.
    """
    dense = B.dense() if isinstance(B, BoundaryMatrixZ2) else B
    work = np.array(dense, dtype=np.uint8) & 1
    rank, pivots = gf2_eliminate(work)
    diag = np.zeros(work.shape, dtype=np.uint8)
    diag[range(rank), range(rank)] = 1
    return SnfResult(rank, pivots, diag)


def boundary_dense(K: Filtration, k: int) -> np.ndarray:
    """Dense Z2 boundary matrix of any filtration, in lexicographic order:
    build_boundary_matrix(K, k).dense()."""
    return build_boundary_matrix(K, k).dense()


def betti_numbers(K: Filtration, max_dim: int | None = None) -> list[int]:
    """Betti numbers beta_0..beta_max_dim of the full complex.

    beta_k = rank(Z_k) - rank(B_k) where rank(Z_k) = #k-cells - rank(d_k)
    and rank(B_k) = rank(d_{k+1}).  Computed by Z2 elimination, so this
    is the oracle route, independent of the persistence reduction.
    """
    dims = np.asarray(K.dims)
    if max_dim is None:
        max_dim = max(K.dim, 0)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    rank = [0] + [gf2_rank(boundary_dense(K, k)) if np.any(dims == k) else 0
                  for k in range(1, max_dim + 2)]
    return [int(np.count_nonzero(dims == k)) - rank[k] - rank[k + 1]
            for k in range(max_dim + 1)]


def format_boundary_table(B: BoundaryMatrixZ2,
                          names: Callable[[int], str] | dict | None = None
                          ) -> str:
    """Render a boundary matrix as an aligned 0/1 table.

    names maps vertex ids to display names (e.g. {0: "a"}); by default
    the numeric ids are used.  Row/column labels look like "[a,b]"; the
    k == 0 matrix gets the single dummy row label "[0]".
    """
    disp = ((lambda v: names.get(v, str(v))) if isinstance(names, dict)
            else names or str)

    def label(cell) -> str:  # a cache label is "v0,v1,..." text
        vs = cell.split(",") if isinstance(cell, str) else cell
        return "[" + ",".join(disp(v) for v in vs) + "]"

    corner = f"d{B.k}"
    row_labels = [label(s) for s in B.rows] if B.rows else ["[0]"]
    col_labels = [label(s) for s in B.cols]
    dense = B.dense()
    lw = max([len(corner)] + [len(x) for x in row_labels])
    cw = [len(x) for x in col_labels]
    out = [" ".join([corner.ljust(lw)] +
                    [col_labels[j].rjust(cw[j]) for j in range(len(cw))])]
    for i, rl in enumerate(row_labels):
        cells = [str(int(dense[i, j])).rjust(cw[j]) for j in range(len(cw))]
        out.append(" ".join([rl.ljust(lw)] + cells))
    return "\n".join(out)


def connected_components(n_vertices: int,
                         edges: Sequence[tuple[int, int]]) -> int:
    """Number of connected components of a graph (beta_0 cross-check);
    an endpoint outside [0, n_vertices) is InputError."""
    if n_vertices < 0:
        raise ParameterError("n_vertices must be non-negative")
    ab = np.array(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((ab < 0) | (ab >= n_vertices)).any(axis=1))
    if bad.size:
        raise InputError(f"edge {tuple(ab[bad[0]].tolist())} has an "
                         f"endpoint outside [0, {n_vertices})")
    return n_vertices - union_find_h0(n_vertices, ab[:, 0], ab[:, 1])[0].size
