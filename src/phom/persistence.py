"""Persistence by Z2 matrix reduction over a filtration.

Every diagram comes from one engine: union-find for H0, then, per
dimension, a reduction of coboundary columns in reverse filtration order
with clearing and apparent pairs (cohomology gives the same pairs as the
boundary reduction), and ordered_diagram turns the pairs into points.
The cubical lattice and rips_persistence drive the same functions with
cofaces they enumerate on the fly.  Representative cycles come from an
on-demand bitset reduction of the boundary columns of one dimension.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import InputError, InternalError, ParameterError

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
    bnd_flat[bnd_off[i]:bnd_off[i + 1]].  rips_filtration and
    build_cubical_filtration sort and wire their cells with
    assemble_cells.

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


def assemble_cells(values: list[np.ndarray], faces: list[np.ndarray]
                   ) -> tuple[np.ndarray, ...]:
    """Filtration order and CSR boundary of cells listed by dimension.

    values[k] holds the values of the k-cells, listed so that cells of
    equal value are in lexicographic order; row i of the (m_k, w_k)
    array faces[k] holds the positions of k-cell i's faces among the
    (k-1)-cells as listed, in boundary order.  One stable sort by
    (value, dimension) then gives the (value, dimension, lexicographic)
    filtration order.  Returns
    (order, values, dims, bnd_off, bnd_flat), where order indexes the
    concatenated cells, so a builder reorders its own keys by it.
    """
    start = np.cumsum([0] + [v.size for v in values])
    dims = np.repeat(np.arange(len(values), dtype=np.int32), np.diff(start))
    vals = np.concatenate(values)
    order = np.lexsort((dims, vals))
    dims = dims[order]
    inv = np.empty(order.size, dtype=np.int64)
    inv[order] = np.arange(order.size)
    off = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(np.array([f.shape[1] for f in faces])[dims], out=off[1:])
    flat = np.empty(int(off[-1]), dtype=np.int64)
    for k in range(1, len(faces)):
        at = off[inv[start[k]:start[k + 1]]]
        for c in range(faces[k].shape[1]):
            flat[at + c] = inv[start[k - 1] + faces[k][:, c]]
    return order, vals[order], dims, off, flat


class PersistenceDiagram:
    """Points (dims[i], births[i], deaths[i]), death inf for an essential
    class; zero-persistence pairs live in the pairing.  The constructor
    alone orders the points: a stable sort on (dim, birth, death), so
    equal ones (a -0.0 and a 0.0 birth) keep their given order.
    Equality is identity; compare `points` for equal contents."""

    def __init__(self, dims, births, deaths, metadata: dict | None = None):
        cols = (np.asarray(dims, np.int64), np.asarray(births, np.float64),
                np.asarray(deaths, np.float64))
        order = np.lexsort(cols[::-1])
        self.dims, self.births, self.deaths = (c[order] for c in cols)
        self.metadata = dict(metadata or {})

    @classmethod
    def from_points(cls, points, metadata: dict | None = None):
        """A diagram of (dim, birth, death) tuples, in any order."""
        return cls(*(list(zip(*points)) or [(), (), ()]), metadata)

    @property
    def points(self) -> list[DiagramPoint]:
        """The points as (int, float, float) tuples, built on each call."""
        return list(zip(self.dims.tolist(), self.births.tolist(),
                        self.deaths.tolist()))

    def __len__(self) -> int:
        return self.dims.size

    def in_dim(self, dim: int, finite: bool | None = None) -> np.ndarray:
        """(m, 2) array of (birth, death) for one dimension: finite=True
        keeps only finite deaths, False only infinite, None all."""
        keep = self.dims == dim
        if finite is not None:
            keep &= np.isfinite(self.deaths) == finite
        return np.column_stack((self.births[keep], self.deaths[keep]))

    def betti_at(self, eps: float, max_dim: int | None = None) -> list[int]:
        """Counts of points alive at eps (birth <= eps < death) per dim."""
        if max_dim is None:
            max_dim = int(self.dims.max(initial=0))
        alive = ((self.dims <= max_dim) & (self.births <= eps)
                 & (eps < self.deaths))
        return np.bincount(self.dims[alive], minlength=max_dim + 1).tolist()


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

    @cached_property
    def _pair_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dims, birth values, death values) of the pairs."""
        K = self.complex
        b, d = np.array(self.pairs, dtype=np.int64).reshape(-1, 2).T
        return K.dims[b], K.values[b], K.values[d]

    @cached_property
    def _essential_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(dims, birth values) of the essentials."""
        e = np.array(self.essential, dtype=np.int64)
        return self.complex.dims[e], self.complex.values[e]

    def pair_for(self, point: DiagramPoint) -> tuple[int, int | None]:
        """(birth_cell, death_cell) of the first pair matching a point."""
        dim, birth, death = int(point[0]), float(point[1]), float(point[2])
        if math.isinf(death):
            dims, births = self._essential_keys
            hits = np.flatnonzero((dims == dim) & (births == birth))
        else:
            dims, births, deaths = self._pair_keys
            hits = np.flatnonzero((dims == dim) & (births == birth)
                                  & (deaths == death))
        if not hits.size:
            raise ParameterError(f"no diagram point {point} in pairing")
        k = int(hits[0])
        return ((self.essential[k], None) if math.isinf(death)
                else tuple(self.pairs[k]))


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


def union_find_h0(n: int, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elder-rule H0 pairs by union-find over the edges.

    The edges come in filtration order with endpoints a[e], b[e]; a
    vertex is named by its age, its position among the n vertices in
    filtration order.  An edge joining two components kills the younger
    of their oldest vertices.  Returns (merging edge positions, killed
    vertices).
    """
    parent = list(range(n))
    edges: list[int] = []
    killed: list[int] = []
    for e, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if x > y:
            x, y = y, x
        parent[y] = x
        edges.append(e)
        killed.append(y)
        if len(edges) == n - 1:
            break
    return np.array(edges, dtype=np.int64), np.array(killed, dtype=np.int64)


def contracted_h0(n: int, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """union_find_h0(n, a, b), with its loop run over the contracted graph.

    A node whose oldest edge leads to an older node is killed by that
    edge, since no earlier edge touches it (an apparent merge).
    Contracting these edges, by pointer jumping to the oldest node of
    each chain, leaves a graph on the surviving roots.  Only the oldest
    edge between two roots can merge, so union_find_h0 scans those edges
    in position order and applies the elder rule to them.  This pays on
    lattices, where most nodes merge apparently; on a few thousand edges
    union_find_h0 alone is faster.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = a.size
    first = np.full(n, m, dtype=np.int64)
    np.minimum.at(first, a, np.arange(m))
    np.minimum.at(first, b, np.arange(m))
    nodes = np.flatnonzero(first < m)
    e = first[nodes]
    other = a[e] + b[e] - nodes
    app = other < nodes
    root = np.arange(n)
    root[nodes[app]] = other[app]
    nodes, e = nodes[app], e[app]
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up

    lo, hi = root[a], root[b]
    keep = np.flatnonzero(lo != hi)
    lo, hi = np.minimum(lo[keep], hi[keep]), np.maximum(lo[keep], hi[keep])
    # np.unique gives the oldest edge of each root pair in (lo, hi) order.
    keep = keep[np.sort(np.unique(lo * n + hi, return_index=True)[1])]
    te, tk = union_find_h0(n, root[a[keep]], root[b[keep]])
    e = np.concatenate([e, keep[te]])
    nodes = np.concatenate([nodes, tk])
    order = np.argsort(e)
    return e[order], nodes[order]


def reduce_coboundaries(keys: np.ndarray, pivot: np.ndarray,
                        has_cof: np.ndarray, apparent: np.ndarray,
                        coboundary: Callable[[int], list]
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair the columns of one dimension by Z2 coboundary reduction.

    Column j is the cell of key keys[j]; the cells paired one dimension
    down are left out (clearing).  coboundary(j) gives the sorted keys
    of its cofaces, where key order is filtration order, so the pivot of
    a column with a coface (has_cof[j]) is its least key, pivot[j].  An
    apparent column owns its pivot without column arithmetic; the others
    are reduced in reverse filtration order.  A working column is a heap
    in which equal keys cancel lazily; only entries up to the pivot are
    ever popped.

    Returns (birth columns, their death keys, essential columns); a
    column without cofaces or reduced to zero is essential.
    """
    owner: dict[int, int] = {}
    for s in range(0, apparent.size, 1 << 16):  # no list of every column
        a = s + np.flatnonzero(apparent[s:s + (1 << 16)])
        owner.update(zip(pivot[a].tolist(), a.tolist()))
    todo = np.flatnonzero(has_cof & ~apparent)
    reduced: dict[int, list] = {}
    zero: list[int] = []
    for j in todo[np.argsort(keys[todo])[::-1]].tolist():
        heap = coboundary(j)
        while True:
            p = _pop_pivot(heap)
            if p is None:
                zero.append(j)
                break
            o = owner.get(p)
            if o is None:
                owner[p] = j
                reduced[j] = [p] + _odd_entries(heap)
                break
            add = reduced.get(o)
            if add is None:
                add = coboundary(o)
            for x in add[1:]:
                heapq.heappush(heap, x)
    return (np.fromiter(owner.values(), np.int64, len(owner)),
            np.fromiter(owner, np.int64, len(owner)),
            np.concatenate([np.flatnonzero(~has_cof),
                            np.array(zero, dtype=np.int64)]))


def _pop_pivot(heap: list) -> int | None:
    """Pop the least key of odd multiplicity from a column heap."""
    pop = heapq.heappop
    while heap:
        p = pop(heap)
        if heap and heap[0] == p:
            pop(heap)
        else:
            return p
    return None


def _odd_entries(heap: list) -> list:
    """The keys of odd multiplicity in a column heap, sorted."""
    out: list = []
    for x in sorted(heap):
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return out


def ordered_diagram(groups: list[tuple], max_dim: int,
                    metadata: dict | None = None) -> PersistenceDiagram:
    """The diagram of groups of (dims, births, deaths, ties) arrays.

    dims may be one dimension for the whole group; a death is inf for an
    essential class.  Zero-persistence pairs are dropped and the rest go
    to the diagram in tie order, where tie orders the birth cells as the
    filtration does: the diagram's stable sort keeps that order among
    equal points, so it decides where a -0.0 and a 0.0 birth go.
    """
    dim = np.concatenate([np.full(len(b), k) for k, b, _, _ in groups])
    birth, death, tie = (np.concatenate([g[i] for g in groups])
                         for i in (1, 2, 3))
    keep = np.flatnonzero(birth != death)
    keep = keep[np.argsort(tie[keep], kind="stable")]
    return PersistenceDiagram(dim[keep], birth[keep], death[keep],
                              {"max_dim": max_dim, **(metadata or {})})


def compute_persistence(K: Filtration, max_dim: int | None = None,
                        metadata: dict | None = None
                        ) -> tuple[PersistenceDiagram, PersistencePairing]:
    """Persistence diagram and pairing of a filtration.

    H0 comes from union-find over the edges.  Each dimension k =
    1..max_dim then reduces the coboundaries of the k-cells in reverse
    filtration order (cohomology, which gives the pairs of the boundary
    reduction), skipping the cells paired one dimension down (clearing).
    A cell whose oldest coface has it as youngest face forms an apparent
    pair with that coface and is not reduced.

    Args:
        K: the filtration; cells must be in filtration order with faces
            preceding cofaces, and every edge has two faces.
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
    off, flat = K.bnd_off, K.bnd_flat
    nfaces = np.diff(off)
    cells = np.arange(n)

    # Cofaces of each cell, sorted: the boundary CSR transposed.
    cof_flat = np.repeat(cells, nfaces)[np.argsort(flat, kind="stable")]
    cof_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n), out=cof_off[1:])
    has_cof = cof_off[1:] > cof_off[:-1]
    oldest = np.zeros(n, dtype=np.int64)
    oldest[has_cof] = cof_flat[cof_off[:-1][has_cof]]
    youngest = np.full(n, -1, dtype=np.int64)
    if flat.size:
        youngest[nfaces > 0] = np.maximum.reduceat(flat, off[:-1][nfaces > 0])
    apparent = has_cof & (youngest[oldest] == cells)

    verts = np.flatnonzero(dims == 0)
    edges = np.flatnonzero(dims == 1)
    if np.any(nfaces[edges] != 2):
        raise InputError("every edge needs two faces")
    age = np.cumsum(dims == 0) - 1
    e, v = union_find_h0(verts.size, age[flat[off[edges]]],
                         age[flat[off[edges] + 1]])
    births, deaths = [verts[v]], [edges[e]]
    essential = [np.delete(verts, v)]
    died = np.zeros(n, dtype=bool)
    died[edges[e]] = True

    cof_list, cof_at = cof_flat.tolist(), cof_off.tolist()
    for k in range(1, min(max_dim, top) + 1):
        cols = np.flatnonzero((dims == k) & ~died)
        at = cols.tolist()
        born, dead, ess = reduce_coboundaries(
            cols, oldest[cols], has_cof[cols], apparent[cols],
            lambda j: cof_list[cof_at[at[j]]:cof_at[at[j] + 1]])
        births.append(cols[born])
        deaths.append(dead)
        died[dead] = True
        essential.append(cols[ess])

    b, d = np.concatenate(births), np.concatenate(deaths)
    order = np.argsort(b)
    b, d = b[order], d[order]
    essential = np.sort(np.concatenate(essential))

    values = np.asarray(K.values)
    diagram = ordered_diagram(
        [(dims[b], values[b], values[d], b),
         (dims[essential], values[essential],
          np.full(essential.size, math.inf), essential)],
        max_dim, metadata)
    pairing = PersistencePairing(
        complex=K, pairs=list(zip(b.tolist(), d.tolist())),
        essential=essential.tolist(), max_dim=max_dim)
    return diagram, pairing


def diagram_at_scale_betti(K, eps: float,
                           max_dim: int | None = None) -> list[int]:
    """Betti numbers of the sublevel complex at eps, read off the diagram.

    Counts diagram points with birth <= eps < death.  Cross-checked in
    the tests against the Smith-form oracle on the thresholded complex.
    """
    diagram, _ = compute_persistence(K, max_dim=max_dim)
    return diagram.betti_at(float(eps), max_dim=diagram.metadata["max_dim"])


def _bitset_columns(K: Filtration, k: int, m: int) -> list[int]:
    """Boundaries of the k-cells among the first m cells, in filtration
    order, as Python ints whose bit r is the r-th (k-1)-cell; the XOR of
    two columns runs at C speed."""
    dims = np.asarray(K.dims)[:m]
    rk = (np.cumsum(dims == k - 1) - 1)[K.bnd_flat[:K.bnd_off[m]]].tolist()
    off = K.bnd_off.tolist()
    cols = []
    for j in np.flatnonzero(dims == k).tolist():
        col = 0
        for f in rk[off[j]:off[j + 1]]:
            col ^= 1 << f
        cols.append(col)
    return cols


def _reduce_to(K: Filtration, k: int, stop: int) -> tuple[int, int]:
    """(reduced column, witness) of the k-cell `stop` in the left-to-right
    reduction of the k-cell boundaries; the witness is a bitset over the
    k-cells.  Clearing would skip only columns that reduce to zero, so
    these are the columns of a full reduction."""
    pivots: dict[int, tuple[int, int]] = {}
    for r, col in enumerate(_bitset_columns(K, k, stop + 1)):
        wit = 1 << r
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = (col, wit)
                break
            col ^= piv[0]
            wit ^= piv[1]
    return col, wit


def representative_cycle(pairing: PersistencePairing,
                         point: DiagramPoint) -> RepresentativeCycle:
    """A Z2 cycle generating the class of one diagram point.

    For dimension 0 this is the birth vertex itself.  For a paired point
    of dimension >= 1 it is the reduced boundary of the death cell (the
    cycle that dies there); every cell in it enters at or before the
    birth value.  Essential classes get the reduction witness of their
    birth cell.  Both come from one bitset reduction of a single
    dimension.
    """
    K = pairing.complex
    dim = int(point[0])
    i, j = pairing.pair_for(point)
    if dim == 0:
        return RepresentativeCycle(tuple(point), frozenset([i]), K)
    if j is not None:
        bits, _ = _reduce_to(K, dim + 1, j)
    else:
        col, bits = _reduce_to(K, dim, i)
        if col:
            raise InternalError("essential cell reduced to a pivot")
    cells = _bits_to_ids(bits, np.flatnonzero(np.asarray(K.dims) == dim))
    return RepresentativeCycle(tuple(point), cells, K)


def cycle_boundary_is_zero(cycle: RepresentativeCycle) -> bool:
    """True when the Z2 boundary of the cycle's cell set vanishes."""
    seen: set[int] = set()
    for i in cycle.cells:
        seen ^= set(cycle.complex.boundary(int(i)).tolist())
    return not seen


# Largest sparsify budget: the exhaustive walk visits 2**budget subsets,
# about 3 s at 22.
MAX_BUDGET = 22


def check_budget(budget: int) -> int:
    """The budget, if 0 <= budget <= MAX_BUDGET; else ParameterError."""
    if not 0 <= budget <= MAX_BUDGET:
        raise ParameterError(
            f"budget must be between 0 and {MAX_BUDGET}, got {budget}")
    return budget


def sparsify_cycle(cycle: RepresentativeCycle,
                   budget: int = 20) -> RepresentativeCycle:
    """Homologous cycle with as few cells as possible.

    Searches z = c + boundary(s) over (k+1)-chains s supported on the
    birth-scale subcomplex (cells entering at or before the point's
    birth).  When that subcomplex has at most `budget` cells of
    dimension k+1 the search is exhaustive (Gray-code walk over all
    subsets), otherwise greedy single-coface flips run to a local
    minimum.  The result never has more cells than the input.  budget
    must lie in 0..MAX_BUDGET.
    """
    check_budget(budget)
    K = cycle.complex
    if not cycle.cells:
        return cycle
    dims = np.asarray(K.dims)
    values = np.asarray(K.values)
    k = int(dims[next(iter(cycle.cells))])
    birth = float(cycle.point[1])
    m = int(np.searchsorted(values, birth, side="right"))

    k_ids = np.flatnonzero(dims[:m] == k)
    rank = {g: r for r, g in enumerate(k_ids.tolist())}
    start = 0
    for i in cycle.cells:
        if int(i) not in rank:
            raise ParameterError("cycle uses cells above its birth scale")
        start |= 1 << rank[int(i)]
    cof_bnds = _bitset_columns(K, k + 1, m)

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
        while True:
            pick, pick_n = None, best_n
            for colmask in cof_bnds:
                t = (best ^ colmask).bit_count()
                if t < pick_n:
                    pick, pick_n = colmask, t
            if pick is None:
                break
            best, best_n = best ^ pick, pick_n

    return RepresentativeCycle(cycle.point, _bits_to_ids(best, k_ids), K)
