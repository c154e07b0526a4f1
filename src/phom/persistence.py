"""Persistence by Z2 matrix reduction over a filtration.

Every diagram comes from one engine: union-find for H0, then, per
dimension, a reduction of coboundary columns in reverse filtration order
with clearing and apparent pairs (cohomology gives the same pairs as the
boundary reduction), and ordered_diagram turns the pairs into points.
Where the cofaces are in memory (compute_persistence, voxel H1),
pair_columns pairs most columns on arrays first; rips_persistence
computes its cofacets on the fly.  Representative cycles are read off
the pairing: a cell's reduced boundary needs only its owners' columns.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Generator, Iterator

import numpy as np

from .errors import InputError, InternalError, ParameterError

DiagramPoint = tuple[int, float, float]


def _label(key) -> str:
    return key if isinstance(key, str) else ",".join(map(str, key))


def _key_rows(keys: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, (m, w) ids) of the rows of each width w of a key array:
    a key row ends at its -1 padding.  Every reader of key rows cuts them
    here."""
    width = (keys != -1).sum(axis=1)
    for w in np.bincount(width).nonzero()[0].tolist():
        at = (width == w).nonzero()[0]  # flatnonzero's wrappers cost more
        yield at, keys[at, :w]


def _read_rows(keys: np.ndarray, read: Callable) -> list:
    """read(columns) for each width's rows of _key_rows, as lists of ints,
    one object a row, back in row order."""
    out = np.empty(len(keys), object)
    for at, rows in _key_rows(keys):
        out[at] = np.fromiter(read(rows.T.tolist()), object, at.size)
    return out.tolist()


def _labels(keys: list | np.ndarray) -> list[str]:
    if not isinstance(keys, np.ndarray):
        return [_label(k) for k in keys]
    return _read_rows(keys, lambda cols: map(
        ",".join(["{}"] * len(cols)).format, *cols))


def _take(keys: list | np.ndarray, ids) -> list | np.ndarray:
    return (keys[ids] if isinstance(keys, np.ndarray)
            else [keys[i] for i in ids])


def _lex_rows(a: np.ndarray) -> np.ndarray:
    """Rows of int64 ids as big-endian bytes, a void scalar a row: equal
    rows give equal bytes, and rows of ids >= 0 sort as the rows do."""
    return np.ascontiguousarray(a, ">i8").view(f"V{8 * a.shape[1]}").ravel()


@dataclass(eq=False)
class Filtration:
    """A filtered cell complex: the one input type of the reduction.

    Cells are in filtration order, with every face before its cofaces.
    A builder (rips_filtration, FilteredSimplicialComplex,
    build_cubical_filtration, io.read_complex_cache) fills in every
    field, the CSR boundary included: the faces of cell i sit at
    bnd_flat[bnd_off[i]:bnd_off[i + 1]].  All but the cache reader sort
    and wire their cells with assemble_cells.

    keys holds one key per cell: an (n, w) int64 array of vertex ids
    for simplices, each row padded with -1, an (n, d) array of
    doubled-lattice coordinates for cubes, or label strings read from a
    cache.  as_cell makes what cell() returns: from a key row, the tuple
    of its ints up to its -1 padding; from a list key, the key itself.
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
        if not isinstance(self.keys, np.ndarray):
            return self.as_cell(self.keys[i])
        ids = self.keys[i].tolist()  # the width of _key_rows
        return self.as_cell(tuple(ids[:len(ids) - ids.count(-1)]))

    def _cells(self, ids) -> list:
        keys = _take(self.keys, ids)
        if not isinstance(keys, np.ndarray):
            return list(map(self.as_cell, keys))
        return _read_rows(keys, lambda cols: map(self.as_cell, zip(*cols)))

    def value(self, i: int) -> float:
        return float(self.values[i])

    def items(self) -> Iterator[tuple[object, float]]:
        return zip(self._cells(np.arange(len(self))), self.values.tolist())

    def labels(self) -> list[str]:
        """Printable cell labels, e.g. "0,3,7" for a triangle."""
        return _labels(self.keys)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """index_of's table: the key rows as _lex_rows bytes, or the labels
        of list keys, in a stable sort, and their positions."""
        rows = (_lex_rows(self.keys) if isinstance(self.keys, np.ndarray)
                else np.array(_labels(self.keys), dtype=object))
        order = np.argsort(rows, kind="stable")
        return rows[order], order

    def _find(self, key) -> int:
        """Position of the first cell whose label is key's, or -1."""
        want = _label(key)
        if isinstance(self.keys, np.ndarray):  # a row's label: <= w ids >= 0
            ids, w = want.split(","), self.keys.shape[1]
            if len(ids) > w or not all(
                    re.fullmatch("0|[1-9][0-9]{0,18}", x) and int(x) < 2**63
                    for x in ids):
                return -1
            want = _lex_rows(np.array([[*map(int, ids)]
                                       + [-1] * (w - len(ids))]))[0]
        rows, order = self._lookup
        p = int(np.searchsorted(rows, want))
        return int(order[p]) if p < rows.size and rows[p] == want else -1

    def index_of(self, key) -> int:
        """Position of the first cell labelled as key, by binary search in
        a table built on the first call; raises KeyError."""
        if (i := self._find(key)) < 0:
            raise KeyError(key)
        return i

    def __contains__(self, key) -> bool:
        return self._find(key) >= 0

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
        return sorted(_labels(_take(self.complex.keys, sorted(self.cells))))

    def simplices(self) -> list:
        return sorted(self.complex._cells(sorted(self.cells)))


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


_FINISH = 8  # boruvka_h0 rounds stop once under 1/_FINISH of the roots die


def boruvka_h0(n: int, a: np.ndarray,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """union_find_h0(n, a, b) by Borůvka's contraction in numpy rounds.

    A root whose oldest edge leads to an older root is killed by that
    edge, as no earlier edge touches it (the elder rule; a self-loop
    kills nothing).  A round kills every such root, follows chains of
    kills by pointer jumping, renumbers the surviving roots in age order
    and drops the edges inside a root; union_find_h0 gives the same
    pairs before and after.  Once a round kills under 1/_FINISH of the
    roots with an edge (a path from its young end loses one a round),
    union_find_h0 finishes.  Ids keep the dtype of a and b, which must
    hold n and the edge count; take() gathers int32 ids faster.
    """
    dt = np.result_type(a, b)
    killed = np.full(a.size, -1, dtype=dt)  # the vertex edge e kills
    pos, age = np.arange(a.size, dtype=dt), np.arange(n, dtype=dt)
    while a.size:
        first, at = np.full(age.size, a.size, dt), np.arange(a.size, dtype=dt)
        np.minimum.at(first, a, at)
        np.minimum.at(first, b, at)
        nodes = np.flatnonzero(first < a.size)
        e = first.take(nodes)
        del first, at  # each del frees memory before the next arrays
        up = a.take(e) ^ b.take(e) ^ nodes  # the oldest edge's other end
        kill = np.flatnonzero(up < nodes)
        if kill.size * _FINISH < nodes.size:
            break
        dead, up = nodes.take(kill), up.take(kill)
        killed[pos.take(e.take(kill))] = age.take(dead)
        alive = np.delete(nodes, kill)
        del nodes, e, kill
        root = np.arange(age.size, dtype=dt)
        root[dead] = up
        while (move := np.flatnonzero(root.take(up) != up)).size:
            dead, up = dead.take(move), root.take(up.take(move))
            root[dead] = up
        ids = np.empty(age.size, dtype=dt)
        ids[alive] = np.arange(alive.size, dtype=dt)
        root = ids.take(root)
        a, b = root.take(a), root.take(b)
        keep = np.flatnonzero(a != b)
        a, b, pos, age = a.take(keep), b.take(keep), pos.take(keep), age[alive]
    if a.size:
        e, v = union_find_h0(age.size, a, b)
        killed[pos.take(e)] = age.take(v)
    e = np.flatnonzero(killed >= 0)
    return e, killed.take(e).astype(np.int64)


def reduce_coboundaries(problems: list[tuple[np.ndarray, ...]],
                        coboundaries: Callable[[list[int]], list[list]]
                        ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pair the columns of independent reductions in lockstep.

    Each problem is (keys, pivot, has_cof, apparent), the columns of one
    dimension of one complex, and _reduction pairs them.  The reductions
    advance round by round: in each round every one still running asks
    for one list of columns, and a single call coboundaries(rows)
    computes them all, in the order asked.  Column j of problem i is row
    start[i] + j, where start[i] counts the columns of problems 0..i-1;
    a caller with one problem gets its own column numbers.  A reduction
    asks for the same lists alone or beside others, so its pairs do not
    depend on the batch.  Returns the result of each problem.
    """
    start = np.cumsum([0] + [len(p[0]) for p in problems]).tolist()
    runs = [_reduction(*p) for p in problems]
    out: list = [None] * len(runs)
    sent: dict[int, list | None] = dict.fromkeys(range(len(runs)))
    while True:
        asks = {}
        for i, got in sent.items():
            try:
                asks[i] = runs[i].send(got)
            except StopIteration as stop:
                out[i] = stop.value
        if not asks:
            return out
        rows: list[int] = []
        for i, js in asks.items():
            rows += [start[i] + j for j in js] if start[i] else js
        cobs = coboundaries(rows)
        sent, at = {}, 0
        for i, js in asks.items():
            sent[i], at = cobs[at:at + len(js)], at + len(js)


def _reduction(keys: np.ndarray, pivot: np.ndarray, has_cof: np.ndarray,
               apparent: np.ndarray
               ) -> Generator[list[int], list[list],
                              tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pair the columns of one dimension by Z2 coboundary reduction.

    Column j is the cell of key keys[j]; the cells paired one dimension
    down are left out (clearing).  The generator yields lists of columns
    and is sent, for each, the sorted keys of each one's cofaces, where
    key order is filtration order, so the pivot of a column with a
    coface (has_cof[j]) is its least key, pivot[j].  A caller may leave
    out rows that are never pivots.  An apparent column owns its pivot
    without column arithmetic; the others are reduced in reverse
    filtration order.  A working column is a heap in which equal keys
    cancel lazily; only entries up to the pivot are ever popped.

    No column is asked for twice.  One list holds _TODO_BLOCK columns
    to reduce and the owners of their pivots, or the owner of a key just
    reached and of the owned keys ahead of it before any unowned key in
    the lists added so far (_fetch_list).  A reduced column keeps its
    heap until another column first adds it.

    Returns (birth columns, their death keys, essential columns), the
    apparent pairs first in column order; a column without cofaces or
    reduced to zero is essential.
    """
    app = np.flatnonzero(apparent)
    owner: dict[int, int] = {}
    for s in range(0, app.size, 1 << 16):  # no list of every column
        a = app[s:s + (1 << 16)]
        owner.update(zip(pivot[a].tolist(), a.tolist()))
    born, dies = [], []  # reduced columns, their pivots
    todo = np.flatnonzero(has_cof & ~apparent)
    order = todo[np.argsort(keys[todo])[::-1]].tolist()
    # Computed columns: lists, or (pivot, heap) of reduced ones not added.
    cols: dict[int, list | tuple[int, list]] = {}
    zero: list[int] = []
    push = heapq.heappush
    for i, j in enumerate(order):
        if j not in cols:
            fetch = _block_list(order[i:i + _TODO_BLOCK], pivot, owner, cols)
            cols.update(zip(fetch, (yield fetch)))
        heap = cols.pop(j)
        ahead, side = [], []  # owned keys, first unowned key of each list
        _look_ahead(heap, owner, ahead, side)
        while True:
            p = _pop_pivot(heap)
            if p is None:
                zero.append(j)
                break
            o = owner.get(p)
            if o is None:
                owner[p] = j
                born.append(j)
                dies.append(p)
                cols[j] = (p, heap)
                break
            add = cols.get(o)
            if add is None:
                fetch = _fetch_list(o, p, ahead, side, owner, cols)
                cols.update(zip(fetch, (yield fetch)))
                add = cols[o]
            elif isinstance(add, tuple):
                add = cols[o] = [add[0]] + _odd_entries(add[1])
            rest = add[1:]
            for x in rest:
                push(heap, x)
            _look_ahead(rest, owner, ahead, side)
    return (np.concatenate([app, np.array(born, dtype=np.int64)]),
            np.concatenate([pivot[app], np.array(dies, dtype=np.int64)]),
            np.concatenate([np.flatnonzero(~has_cof),
                            np.array(zero, dtype=np.int64)]))


# Columns to reduce that one call computes ahead.
_TODO_BLOCK = 64


def _block_list(block: list[int], pivot: np.ndarray, owner: dict,
                cols: dict) -> list[int]:
    """A block of columns to reduce, then their pivots' owners to do."""
    return block + list({o: None for o in map(owner.get, pivot[block].tolist())
                         if o is not None and o not in cols})


def _look_ahead(keys: list, owner: dict, ahead: list, side: list) -> None:
    """Push keys on the ahead heap while they are owned, and the first
    unowned one on the side heap."""
    for x in keys:
        if x not in owner:
            heapq.heappush(side, x)
            return
        heapq.heappush(ahead, x)


def _fetch_list(o: int, p: int, ahead: list, side: list, owner: dict,
                cols: dict) -> list[int]:
    """Column o, the owner of the pivot p just reached, then the owners
    not computed of the keys on the ahead heap past p and before the
    least key on the side heap; a key there twice cancels."""
    while side and side[0] < p:
        heapq.heappop(side)
    stop = side[0] if side else math.inf
    fetch = {o: None}
    while ahead and ahead[0] < stop:
        q = heapq.heappop(ahead)
        if ahead and ahead[0] == q:
            heapq.heappop(ahead)
        elif q > p and owner[q] not in cols:
            fetch[owner[q]] = None
    return list(fetch)


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


# pair_columns' levels: the apparent pairs and two more.  Three were
# fastest on 24^3 and 48^3 voxel grids; at 64^3 four or five saved 3%.
_LEVELS = 3


def pair_columns(cols: np.ndarray, table: np.ndarray, bounds: np.ndarray,
                 youngest: np.ndarray, big: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair the columns of one dimension whose cofaces are in memory.

    Column j is cell cols[j], ascending, less the cells paired one
    dimension down (clearing).  table[bounds[j]:bounds[j + 1]] holds its
    cofaces' keys in filtration order, keys big being padding, and
    youngest[p] is coface p's youngest face (youngest[big] = -1).

    Before the heap loop of reduce_coboundaries, _LEVELS levels pair
    columns on arrays.  A column that is the youngest one holding its
    own pivot keeps that pivot: the reduction reaches it before any
    other column that holds the key, and sums of younger columns never
    hold it.  Each level pairs all such columns, then adds them to the
    others until no other column holds their pivots (_eliminate).  The
    first level reads a key's youngest holder from youngest: it takes
    the apparent pairs and leaves the critical columns of that discrete
    gradient (after Mischaikow and Nanda, Morse theory for filtrations,
    2013).  The next ones read it from the entries left.  Only the
    columns left go to reduce_coboundaries, none of them apparent.

    Returns (birth cells, their death keys, essential cells).
    """
    key, born, dies = table, [], []
    for level in range(_LEVELS):
        if level:
            col, key = _eliminate(col, key, owner, table, bounds, big)
            bounds = np.searchsorted(col, np.arange(cols.size + 1))
            youngest = np.full(big + 1, -1, dtype=np.int64)
            np.maximum.at(youngest, key, cols[col])
        full = bounds[1:] > bounds[:-1]
        pivot = np.full(cols.size, big, dtype=np.int64)
        pivot[full] = key[bounds[:-1][full]]
        own = youngest[pivot] == cols
        born.append(cols[own])
        dies.append(pivot[own])
        owner = np.full(big + 1, -1, dtype=np.int64)
        owner[pivot[own]] = np.flatnonzero(own)
        col = np.flatnonzero(np.repeat(~own, np.diff(bounds)) & (key < big))
        table, key, cols = key, key[col], cols[~own]
        col = (np.cumsum(~own) - 1)[np.searchsorted(bounds, col, "right") - 1]
    col, key = _eliminate(col, key, owner, table, bounds, big)
    ends = np.searchsorted(col, np.arange(cols.size + 1))
    flat, offs = key.tolist(), ends.tolist()
    (b, d, ess), = reduce_coboundaries(
        [(cols, np.append(key, big)[ends[:-1]], ends[1:] > ends[:-1],
          np.zeros(cols.size, dtype=bool))],
        lambda js: [flat[offs[j]:offs[j + 1]] for j in js])
    return np.concatenate(born + [cols[b]]), np.concatenate(dies + [d]), \
        cols[ess]


def _eliminate(col: np.ndarray, key: np.ndarray, owner: np.ndarray,
               table: np.ndarray, bounds: np.ndarray,
               big: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (col, key), sorted by column and then key, after adding to
    each column, round by round, column owner[p] for every entry p with
    owner[p] >= 0, until no entry has one; sorted the same way.

    Column o is table[bounds[o]:bounds[o + 1]], sorted, starting with
    its pivot p, where keys big are padding; adding it replaces p by
    the rest, and equal entries cancel mod 2.  A column without such an
    entry is set aside.  Owners are younger than the columns they are
    added to, so every column keeps its pivot, and an entry is replaced
    only by younger keys, so the rounds end.  The merged key
    col * (big + 1) + key fits in int64, since both factors are below
    the cell count.
    """
    done = []
    hit = owner[key] >= 0
    while hit.any():
        busy = np.zeros(col[-1] + 1, dtype=bool)  # col is sorted
        busy[col[hit]] = True
        stay = busy[col]
        done.append(col[~stay] * (big + 1) + key[~stay])
        col, key, hit = col[stay], key[stay], hit[stay]
        o = owner[key[hit]]
        size = bounds[o + 1] - bounds[o] - 1
        at = (np.repeat(bounds[o] + 1 - np.cumsum(size) + size, size)
              + np.arange(size.sum()))
        col = np.concatenate([col[~hit], np.repeat(col[hit], size)])
        key = np.concatenate([key[~hit], table[at]])
        keep = key < big
        merged, count = np.unique(col[keep] * (big + 1) + key[keep],
                                  return_counts=True)
        col, key = np.divmod(merged[count % 2 == 1], big + 1)
        hit = owner[key] >= 0
    done.append(col * (big + 1) + key)
    return np.divmod(np.sort(np.concatenate(done)), big + 1)


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

    H0 comes from union-find over the edges.  Each dimension k <= max_dim
    below the top (whose cells have no cofaces) then pairs the k-cells by
    pair_columns on the coface rows, skipping the cells paired one
    dimension down (clearing); cohomology gives the boundary reduction's
    pairs.  The essential cells are the unpaired ones of dim <= max_dim.

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

    # The boundary CSR transposed: each cell's cofaces, sorted, unpadded.
    cof_flat = np.sort(flat * n + np.repeat(np.arange(n), nfaces)) % n
    ncof = np.bincount(flat, minlength=n)
    youngest = np.full(n + 1, -1, dtype=np.int64)
    youngest[:n][nfaces > 0] = np.maximum.reduceat(flat, off[:-1][nfaces > 0])

    verts = np.flatnonzero(dims == 0)
    edges = np.flatnonzero(dims == 1)
    if np.any(nfaces[edges] != 2):
        raise InputError("every edge needs two faces")
    age = np.cumsum(dims == 0) - 1
    e, v = union_find_h0(verts.size, age[flat[off[edges]]],
                         age[flat[off[edges] + 1]])
    births, deaths = [verts[v]], [edges[e]]
    paired = np.zeros(n, dtype=bool)
    paired[edges[e]] = True

    for k in range(1, min(max_dim, top - 1) + 1):
        take = (dims == k) & ~paired
        born, dead, _ = pair_columns(
            np.flatnonzero(take), cof_flat[np.repeat(take, ncof)],
            np.concatenate([[0], np.cumsum(ncof[take])]), youngest, n)
        births.append(born)
        deaths.append(dead)
        paired[dead] = True

    b, d = np.concatenate(births), np.concatenate(deaths)
    order = np.argsort(b)
    b, d = b[order], d[order]
    paired[b] = True
    essential = np.flatnonzero(~paired & (dims <= max_dim))

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


def _reduced_column(pairing: PersistencePairing, c: int) -> tuple[int, int]:
    """(reduced boundary, witness) of cell c in the standard left-to-right
    reduction, as bitsets over cell positions.  While a working column's
    low is not its own cell's pivot, the column that owns the low is the
    death cell paired with it, an earlier one: add that column, computed
    once, on an explicit stack."""
    K, owner, done = pairing.complex, dict(pairing.pairs), {}
    stack = [(c, sum(1 << f for f in K.boundary(c).tolist()), 1 << c)]
    while stack:
        j, col, wit = stack[-1]
        o = owner.get(col.bit_length() - 1)
        if o == j or not col and j == c:
            done[j] = stack.pop()[1:]
        elif o is None or o > j:
            raise InternalError(f"low of cell {j} has no earlier owner")
        elif o in done:
            stack[-1] = (j, col ^ done[o][0], wit ^ done[o][1])
        else:
            stack.append((o, sum(1 << f for f in K.boundary(o).tolist()),
                          1 << o))
    return done[c]


def representative_cycle(pairing: PersistencePairing,
                         point: DiagramPoint) -> RepresentativeCycle:
    """A Z2 cycle generating the class of one diagram point.

    For dimension 0 this is the birth vertex itself.  For a paired point
    of dimension >= 1 it is the reduced boundary of the death cell (the
    cycle that dies there); every cell in it enters at or before the
    birth value.  Essential classes get the reduction witness of their
    birth cell.  Both are read off the pairing by _reduced_column.
    """
    K = pairing.complex
    i, j = pairing.pair_for(point)
    if int(point[0]) == 0:
        return RepresentativeCycle(tuple(point), frozenset([i]), K)
    bits = (_reduced_column(pairing, j)[0] if j is not None
            else _reduced_column(pairing, i)[1])
    cells = _bits_to_ids(bits, range(len(K)))
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
