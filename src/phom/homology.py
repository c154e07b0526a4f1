"""Z2 boundary matrices, Smith normal form ranks and Betti numbers.

This is the slow-but-transparent route: dense 0/1 matrices reduced by
Gaussian elimination.  The persistence engine never calls into it; the
two sides cross-check each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .persistence import Filtration
from .simplicial import Simplex


@dataclass
class BoundaryMatrixZ2:
    """The k-th Z2 boundary matrix of a complex, in lexicographic order.

    rows holds the (k-1)-simplices and cols the k-simplices.  For k == 0
    rows is empty and the matrix is a single zero row (the boundary of a
    vertex is the empty chain).  columns stores, per column, the sorted
    row indices of its non-zero entries.
    """

    k: int
    rows: list[Simplex]
    cols: list[Simplex]
    columns: list[list[int]] = field(repr=False)

    def dense(self) -> np.ndarray:
        """0/1 uint8 matrix; shape ((#rows or 1), #cols)."""
        m = np.zeros((max(1, len(self.rows)), len(self.cols)), dtype=np.uint8)
        for j, col in enumerate(self.columns):
            for i in col:
                m[i, j] = 1
        return m


def build_boundary_matrix(K: Filtration,
                          k: int) -> BoundaryMatrixZ2:
    """Boundary matrix of the k-simplices of K over Z2.

    Rows and columns are sorted lexicographically by vertex tuple, which
    matches the tabular layout used for small worked examples.
    """
    if k < 0:
        raise ParameterError("boundary dimension must be non-negative")
    rows = sorted(s for s, _ in K.items() if s.dimension == k - 1)
    cols = sorted(s for s, _ in K.items() if s.dimension == k)
    rindex = {s: i for i, s in enumerate(rows)}
    columns = []
    for s in cols:
        if k == 0:
            columns.append([])
        else:
            columns.append(sorted(rindex[f] for f in s.faces()))
    return BoundaryMatrixZ2(k, rows, cols, columns)


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
    m = np.array(mat, dtype=np.uint8) & 1
    if m.size == 0:
        return 0
    rank, _ = gf2_eliminate(m)
    return rank


def snf_rank(B: "BoundaryMatrixZ2 | np.ndarray") -> SnfResult:
    """Smith normal form over Z2: rank, pivots and the diagonal matrix.

    Over Z2 the Smith form is determined by the rank alone: r leading
    ones on the diagonal, zeros elsewhere.  Accepts a BoundaryMatrixZ2
    or any 0/1 array.
    """
    dense = B.dense() if isinstance(B, BoundaryMatrixZ2) else np.asarray(B)
    work = np.array(dense, dtype=np.uint8) & 1
    if work.size == 0:
        return SnfResult(0, [], np.zeros(work.shape, dtype=np.uint8))
    rank, pivots = gf2_eliminate(work)
    diag = np.zeros(work.shape, dtype=np.uint8)
    for i in range(rank):
        diag[i, i] = 1
    return SnfResult(rank, pivots, diag)


def boundary_dense(K, k: int) -> np.ndarray:
    """Dense Z2 boundary matrix of any filtered complex, filtration order.

    Works for simplicial and cubical complexes alike: rows are the
    (k-1)-cells and columns the k-cells, both in filtration order.
    Rank is what matters here, and rank ignores the ordering.
    """
    dims = np.asarray(K.dims)
    rows = np.flatnonzero(dims == k - 1)
    cols = np.flatnonzero(dims == k)
    rpos = {int(g): i for i, g in enumerate(rows)}
    m = np.zeros((max(1, rows.size), cols.size), dtype=np.uint8)
    if k > 0:
        for j, g in enumerate(cols):
            for f in K.boundary(int(g)):
                m[rpos[int(f)], j] ^= 1
    return m


def betti_numbers(K, max_dim: int | None = None) -> list[int]:
    """Betti numbers beta_0..beta_max_dim of the full complex.

    beta_k = rank(Z_k) - rank(B_k) where rank(Z_k) = #k-cells - rank(d_k)
    and rank(B_k) = rank(d_{k+1}).  Computed by Z2 elimination, so this
    is the oracle route, independent of the persistence reduction.
    """
    dims = np.asarray(K.dims)
    top = int(dims.max()) if dims.size else 0
    if max_dim is None:
        max_dim = top
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    ranks = [0] * (max_dim + 2)
    for k in range(1, max_dim + 2):
        if np.any(dims == k):
            ranks[k] = gf2_rank(boundary_dense(K, k))
    betti = []
    for k in range(max_dim + 1):
        n_k = int(np.count_nonzero(dims == k))
        betti.append((n_k - ranks[k]) - ranks[k + 1])
    return betti


def format_boundary_table(B: BoundaryMatrixZ2,
                          names: Callable[[int], str] | dict | None = None
                          ) -> str:
    """Render a boundary matrix as an aligned 0/1 table.

    names maps vertex ids to display names (e.g. {0: "a"}); by default
    the numeric ids are used.  Row/column labels look like "[a,b]"; the
    k == 0 matrix gets the single dummy row label "[0]".
    """
    if names is None:
        disp = str
    elif isinstance(names, dict):
        disp = lambda v: names.get(v, str(v))
    else:
        disp = names

    def label(s: Simplex) -> str:
        return "[" + ",".join(disp(v) for v in s) + "]"

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
    """Number of connected components by union-find (beta_0 cross-check)."""
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n_vertices
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            comps -= 1
    return comps
