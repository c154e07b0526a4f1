"""Persistence by Z2 matrix reduction over a filtration.

Columns are Python ints used as bitsets (bit r = r-th cell of the row
dimension in filtration order), which keeps the inner XOR loop at C
speed.  The reduction is run per dimension; pairs are identical to the
single big-matrix left-to-right reduction because column additions never
cross dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import InternalError, ParameterError

DiagramPoint = tuple[int, float, float]


def _label(key) -> str:
    return key if isinstance(key, str) else ",".join(map(str, key))


@dataclass(eq=False)
class Filtration:
    """A filtered cell complex: the one input type of the reduction.

    Cells are in filtration order, with every face before its cofaces.
    A builder (rips_filtration, FilteredSimplicialComplex,
    build_cubical_filtration, io.read_complex_cache) fills in every
    field, the CSR boundary included: the faces of cell i sit at
    bnd_flat[bnd_off[i]:bnd_off[i + 1]].

    keys holds one key per cell: vertex tuples for simplices, an (n, d)
    array of doubled-lattice coordinates for cubes (no Python object per
    cell), or label strings read from a cache.  as_cell turns one key
    into what cell() returns.
    """

    values: np.ndarray
    dims: np.ndarray
    bnd_off: np.ndarray
    bnd_flat: np.ndarray
    keys: list | np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)
    as_cell: Callable = tuple

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return int(self.dims.max()) if len(self.values) else -1

    def boundary(self, i: int) -> np.ndarray:
        """Positions of the codim-1 faces of cell i in the order."""
        return self.bnd_flat[self.bnd_off[i]:self.bnd_off[i + 1]]

    def cell(self, i: int):
        return self.as_cell(self.keys[i])

    def value(self, i: int) -> float:
        return float(self.values[i])

    def items(self) -> Iterator[tuple[object, float]]:
        for i in range(len(self.values)):
            yield self.cell(i), float(self.values[i])

    def labels(self) -> list[str]:
        """Printable cell labels, e.g. "0,3,7" for a triangle."""
        keys = self.keys
        return [_label(k) for k in
                (keys.tolist() if isinstance(keys, np.ndarray) else keys)]

    def index_of(self, key) -> int:
        """Position of the cell with this key, by a scan; raises KeyError."""
        try:
            return self.labels().index(_label(key))
        except ValueError:
            raise KeyError(key) from None

    def __contains__(self, key) -> bool:
        return _label(key) in self.labels()

    def counts_by_dim(self) -> np.ndarray:
        return np.bincount(self.dims)

    def sublevel(self, eps: float) -> "Filtration":
        """The subcomplex of cells with value <= eps (a prefix)."""
        m = int(np.searchsorted(self.values, eps, side="right"))
        return Filtration(
            self.values[:m].copy(), self.dims[:m].copy(),
            self.bnd_off[:m + 1].copy(),
            self.bnd_flat[:self.bnd_off[m]].copy(),
            self.keys[:m], dict(self.meta), self.as_cell)


@dataclass
class PersistenceDiagram:
    """Multiset of (dim, birth, death) points; death may be math.inf.

    points is sorted by (dim, birth, death).  birth_cells, when present,
    is a parallel list with the filtration index of each point's birth
    cell (provenance; dropped on CSV round-trips).  Zero-persistence
    pairs are not included here; they live in the pairing.
    """

    points: list[DiagramPoint]
    metadata: dict = field(default_factory=dict)
    birth_cells: list[int] | None = None

    def __len__(self) -> int:
        return len(self.points)

    def in_dim(self, dim: int, finite: bool | None = None) -> np.ndarray:
        """(m, 2) array of (birth, death) for one dimension.

        finite=True keeps only finite deaths, False only infinite,
        None keeps everything.
        """
        out = []
        for d, b, dth in self.points:
            if d != dim:
                continue
            if finite is True and math.isinf(dth):
                continue
            if finite is False and not math.isinf(dth):
                continue
            out.append((b, dth))
        return np.array(out, dtype=np.float64).reshape(-1, 2)

    def betti_at(self, eps: float, max_dim: int | None = None) -> list[int]:
        """Counts of points alive at eps (birth <= eps < death) per dim."""
        if max_dim is None:
            max_dim = max((d for d, _, _ in self.points), default=0)
        counts = [0] * (max_dim + 1)
        for d, b, dth in self.points:
            if d <= max_dim and b <= eps < dth:
                counts[d] += 1
        return counts


@dataclass
class PersistencePairing:
    """Elder-rule pairing of birth and death cells.

    pairs holds (birth_cell, death_cell) filtration indices, including
    zero-persistence pairs; essential lists birth cells of classes that
    never die (only dimensions <= max_dim).  No cell appears twice.
    """

    complex: Filtration
    pairs: list[tuple[int, int]]
    essential: list[int]
    max_dim: int
    _death_cols: dict[int, int] = field(default_factory=dict, repr=False)
    _rank_ids: list[np.ndarray] = field(default_factory=list, repr=False)

    def pair_for(self, point: DiagramPoint) -> tuple[int, int | None]:
        """(birth_cell, death_cell) of the first pair matching a point."""
        dim, birth, death = int(point[0]), float(point[1]), float(point[2])
        K = self.complex
        if math.isinf(death):
            for i in self.essential:
                if int(K.dims[i]) == dim and float(K.values[i]) == birth:
                    return i, None
        else:
            for i, j in self.pairs:
                if (int(K.dims[i]) == dim and float(K.values[i]) == birth
                        and float(K.values[j]) == death):
                    return i, j
        raise ParameterError(f"no diagram point {point} in pairing")


@dataclass(frozen=True)
class RepresentativeCycle:
    """A Z2 cycle (set of cell indices) attached to a diagram point."""

    point: DiagramPoint
    cells: frozenset[int]
    complex: Filtration = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.cells)

    def labels(self) -> list[str]:
        lab = self.complex.labels()
        return sorted(lab[i] for i in self.cells)

    def simplices(self) -> list:
        return sorted(self.complex.cell(i) for i in self.cells)


def _bits_to_ids(col: int, ids: np.ndarray) -> frozenset[int]:
    out = []
    while col:
        b = col.bit_length() - 1
        out.append(int(ids[b]))
        col ^= 1 << b
    return frozenset(out)


def compute_persistence(K: Filtration, max_dim: int | None = None,
                        metadata: dict | None = None
                        ) -> tuple[PersistenceDiagram, PersistencePairing]:
    """Persistence diagram and pairing of a filtration.

    Dimensions are reduced from the top down with clearing (the twist of
    Chen and Kerber): a column whose cell was already paired as a birth
    is known to reduce to zero and is skipped.

    Args:
        K: the filtration; cells must be in filtration order with faces
            preceding cofaces.
        max_dim: largest homology dimension to report; defaults to the
            complex dimension.
        metadata: extra metadata stored on the diagram.

    Returns:
        (diagram, pairing).  The diagram drops zero-persistence points;
        the pairing keeps them.
    """
    dims = np.asarray(K.dims)
    n = dims.size
    top = int(dims.max()) if n else 0
    if max_dim is None:
        max_dim = top
    max_dim = int(max_dim)
    if max_dim < 0:
        raise ParameterError("max_dim must be non-negative")
    build_dim = min(top, max_dim + 1)

    bydim = [np.flatnonzero(dims == k) for k in range(build_dim + 1)]
    rank_in_dim = np.zeros(n, dtype=np.int64)
    for k in range(build_dim + 1):
        rank_in_dim[bydim[k]] = np.arange(bydim[k].size)
    off = K.bnd_off
    rk_flat = rank_in_dim[K.bnd_flat] if K.bnd_flat.size else K.bnd_flat

    death_of: dict[int, int] = {}
    death_cols: dict[int, int] = {}
    negative = bytearray(n)
    cleared = bytearray(n)

    # Plain-list copies keep the per-column loop free of numpy scalar
    # boxing; the loop below runs once per cell and dominates runtime.
    off_list = off.tolist()
    rk_list = rk_flat.tolist()

    for k in range(build_dim, 0, -1):
        lower_ids = bydim[k - 1]
        pivots: dict[int, int] = {}
        pivot_owner: dict[int, int] = {}
        pget = pivots.get
        for j in bydim[k].tolist():
            if cleared[j]:
                continue
            col = 0
            for b in rk_list[off_list[j]:off_list[j + 1]]:
                col |= 1 << b
            while col:
                low = col.bit_length() - 1
                piv = pget(low)
                if piv is None:
                    pivots[low] = col
                    pivot_owner[low] = j
                    break
                col ^= piv
        for low, j in pivot_owner.items():
            i = int(lower_ids[low])
            death_of[i] = j
            death_cols[i] = pivots[low]
            negative[j] = 1
            cleared[i] = 1

    pairs = sorted(death_of.items())
    # `cleared` marks exactly the births in death_of.
    essential = np.flatnonzero(
        (dims <= max_dim) & (np.frombuffer(negative, dtype=np.uint8) == 0)
        & (np.frombuffer(cleared, dtype=np.uint8) == 0)).tolist()

    values = np.asarray(K.values)
    pts: list[tuple[int, float, float, int]] = []
    for i, j in pairs:
        if dims[i] <= max_dim and values[i] != values[j]:
            pts.append((int(dims[i]), float(values[i]), float(values[j]), i))
    for i in essential:
        pts.append((int(dims[i]), float(values[i]), math.inf, i))
    pts.sort()
    diagram = PersistenceDiagram(
        points=[(d, b, dth) for d, b, dth, _ in pts],
        metadata=dict(metadata or {}),
        birth_cells=[i for _, _, _, i in pts])
    diagram.metadata.setdefault("max_dim", max_dim)
    pairing = PersistencePairing(
        complex=K, pairs=pairs, essential=essential, max_dim=max_dim,
        _death_cols=death_cols, _rank_ids=bydim)
    return diagram, pairing


def diagram_at_scale_betti(K, eps: float,
                           max_dim: int | None = None) -> list[int]:
    """Betti numbers of the sublevel complex at eps, read off the diagram.

    Counts diagram points with birth <= eps < death.  Cross-checked in
    the tests against the Smith-form oracle on the thresholded complex.
    """
    diagram, _ = compute_persistence(K, max_dim=max_dim)
    top = int(np.asarray(K.dims).max()) if len(K.values) else 0
    want = top if max_dim is None else int(max_dim)
    return diagram.betti_at(float(eps), max_dim=want)


def _essential_cycle_bits(K, i_global: int, bydim: list[np.ndarray],
                          rank_in_dim: np.ndarray) -> int:
    """Column of the reduction witness V for a positive cell (dim >= 1)."""
    dims = np.asarray(K.dims)
    k = int(dims[i_global])
    off = K.bnd_off
    rk_flat = rank_in_dim[K.bnd_flat]
    pivots: dict[int, tuple[int, int]] = {}
    for j in bydim[k].tolist():
        col = 0
        for b in rk_flat[off[j]:off[j + 1]].tolist():
            col |= 1 << b
        wit = 1 << int(rank_in_dim[j])
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = (col, wit)
                break
            col ^= piv[0]
            wit ^= piv[1]
        if col == 0 and j == i_global:
            return wit
        if j == i_global:
            raise InternalError("essential cell reduced to a pivot")
    raise InternalError("essential cell not reached in its dimension")


def representative_cycle(pairing: PersistencePairing,
                         point: DiagramPoint) -> RepresentativeCycle:
    """A Z2 cycle generating the class of one diagram point.

    For dimension 0 this is the birth vertex itself.  For a paired point
    of dimension >= 1 it is the reduced column of the death cell (the
    cycle that dies there); every cell in it enters at or before the
    birth value.  Essential classes get the reduction witness of their
    birth cell.
    """
    K = pairing.complex
    dim = int(point[0])
    i, j = pairing.pair_for(point)
    if dim == 0:
        return RepresentativeCycle(tuple(point), frozenset([i]), K)
    dims = np.asarray(K.dims)
    n = dims.size
    bydim = pairing._rank_ids
    if j is not None:
        col = pairing._death_cols[i]
        cells = _bits_to_ids(col, bydim[dim])
    else:
        rank_in_dim = np.zeros(n, dtype=np.int64)
        for ids in bydim:
            rank_in_dim[ids] = np.arange(ids.size)
        wit = _essential_cycle_bits(K, i, bydim, rank_in_dim)
        cells = _bits_to_ids(wit, bydim[dim])
    return RepresentativeCycle(tuple(point), cells, K)


def cycle_boundary_is_zero(cycle: RepresentativeCycle) -> bool:
    """True when the Z2 boundary of the cycle's cell set vanishes."""
    K = cycle.complex
    seen: set[int] = set()
    for i in cycle.cells:
        for f in K.boundary(int(i)):
            f = int(f)
            if f in seen:
                seen.remove(f)
            else:
                seen.add(f)
    return not seen


def sparsify_cycle(cycle: RepresentativeCycle,
                   budget: int = 20) -> RepresentativeCycle:
    """Homologous cycle with as few cells as possible.

    Searches z = c + boundary(s) over (k+1)-chains s supported on the
    birth-scale subcomplex (cells entering at or before the point's
    birth).  When that subcomplex has at most `budget` cells of
    dimension k+1 the search is exhaustive (Gray-code walk over all
    subsets), otherwise greedy single-coface flips run to a local
    minimum.  The result never has more cells than the input.
    """
    if budget < 0:
        raise ParameterError("budget must be non-negative")
    K = cycle.complex
    if not cycle.cells:
        return cycle
    dims = np.asarray(K.dims)
    values = np.asarray(K.values)
    k = int(dims[next(iter(cycle.cells))])
    birth = float(cycle.point[1])
    m = int(np.searchsorted(values, birth, side="right"))

    k_ids = [i for i in range(m) if dims[i] == k]
    rank = {g: r for r, g in enumerate(k_ids)}
    start = 0
    for i in cycle.cells:
        if int(i) >= m or int(i) not in rank:
            raise ParameterError("cycle uses cells above its birth scale")
        start |= 1 << rank[int(i)]

    cof_bnds = []
    for j in range(m):
        if dims[j] == k + 1:
            colmask = 0
            for f in K.boundary(j):
                colmask ^= 1 << rank[int(f)]
            cof_bnds.append(colmask)

    best = start
    best_n = start.bit_count()
    if len(cof_bnds) <= budget:
        cur = start
        g_prev = 0
        for g in range(1, 1 << len(cof_bnds)):
            gray = g ^ (g >> 1)
            flip = (gray ^ g_prev).bit_length() - 1
            g_prev = gray
            cur ^= cof_bnds[flip]
            cn = cur.bit_count()
            if cn < best_n:
                best, best_n = cur, cn
    else:
        cur, cn = start, best_n
        improved = True
        while improved:
            improved = False
            pick = None
            pick_n = cn
            for colmask in cof_bnds:
                t = (cur ^ colmask).bit_count()
                if t < pick_n:
                    pick, pick_n = colmask, t
            if pick is not None:
                cur ^= pick
                cn = pick_n
                improved = True
        best, best_n = cur, cn

    cells = _bits_to_ids(best, np.asarray(k_ids, dtype=np.int64))
    return RepresentativeCycle(cycle.point, cells, K)
