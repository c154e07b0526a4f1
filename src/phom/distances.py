"""Bottleneck and Wasserstein distances between persistence diagrams.

Both use the L-infinity ground distance, and a point may go to the
diagonal at half its persistence; essential points (infinite death) are
matched by sorted births, and a count mismatch makes the distance
infinite.  Wasserstein is one assignment on the p-th powers of the
square diagonal-augmented costs (`_augmented_costs`).  Bottleneck builds
none (Efrat, Itai and Katz 2001; Kerber, Morozov and Nigmetov 2017): t
passes when the pairs of cost <= t cover, in one matching, the first
diagram's points with half-persistence > t and, in another, the
second's (Mendelsohn-Dulmage); it gallops and bisects over costs.  Each
test grows the matchings the test before left by augmenting paths
(`_cover_heavy`, after Hopcroft and Karp 1973: on numpy arrays, or on
Python lists for few pairs), and a failed test names the least cost at
which it could pass, which the search skips to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, ParameterError
from .persistence import PersistenceDiagram
from .simplicial import _BLOCK_ENTRIES


@dataclass
class DiagramDistanceReport:
    """Distance value plus the matching that realizes it.

    matching pairs indices into the finite point lists of the two
    diagrams (restricted to `dim`, in diagram order); None stands for
    the diagonal.  essential_matching pairs indices into the essential
    point lists.  The value is reproducible from the matching; tests
    hold the two consistent to 1e-9.
    """

    metric: str
    dim: int
    value: float
    matching: list[tuple[int | None, int | None]]
    essential_matching: list[tuple[int, int]] = field(default_factory=list)
    p: float | None = None


def _split(pd1: PersistenceDiagram, pd2: PersistenceDiagram, dim: int):
    """(finite (birth, death) rows, essential births) of pd1, then pd2."""
    if dim < 0:
        raise ParameterError(f"dim must be >= 0, got {dim}")
    return (pd1.in_dim(dim, True), pd1.in_dim(dim, False)[:, 0],
            pd2.in_dim(dim, True), pd2.in_dim(dim, False)[:, 0])


def _half_persistence(x: np.ndarray) -> np.ndarray:
    """Cost to the diagonal, (death - birth) / 2, of the rows of x, and
    death / 2 - birth / 2 in the rows where the difference overflows."""
    half = (x[:, 1] - x[:, 0]) / 2.0
    over = np.isinf(half)
    half[over] = x[over, 1] / 2.0 - x[over, 0] / 2.0
    return half


def _linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity costs of the rows of a and b (broadcast); inf on overflow."""
    return np.maximum(np.abs(a[..., 0] - b[..., 0]),
                      np.abs(a[..., 1] - b[..., 1]))


# Bytes the Wasserstein cost matrix may take: 2**30 holds 11,585 points
# (the H1 diagrams of two 128x128 noise grids have about 6,350, 323 MB).
_WASSERSTEIN_BUDGET = 1 << 30


def _augmented_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n1+n2) square L-infinity costs of the diagonal-augmented matching.

    Rows are the n1 points of `a` then n2 diagonal slots; columns the n2
    points of `b` then n1 diagonal slots.  A point costs its L-infinity
    distance to a point, persistence/2 to any diagonal slot, and two
    slots pair off at 0.  A matrix over _WASSERSTEIN_BUDGET bytes is a
    ParameterError, raised before anything is allocated.
    """
    n1, n2 = a.shape[0], b.shape[0]
    need = 8 * (n1 + n2) ** 2
    if need > _WASSERSTEIN_BUDGET:
        raise ParameterError(
            f"wasserstein needs a {n1 + n2} x {n1 + n2} cost matrix of "
            f"{need:,} bytes, over the budget of {_WASSERSTEIN_BUDGET:,}")
    big = np.zeros((n1 + n2, n1 + n2))
    step = max(1, _BLOCK_ENTRIES // max(1, n2))
    for s in range(0, n1, step):
        e = min(s + step, n1)
        big[s:e, :n2] = _linf(a[s:e, None], b[None, :])
    big[:n1, n2:] = _half_persistence(a)[:, None]
    big[n1:, :n2] = _half_persistence(b)[None, :]
    return big


def _match_essentials(e1: np.ndarray, e2: np.ndarray
                      ) -> tuple[list[tuple[int, int]], np.ndarray] | None:
    """Sorted-birth matching of essential points; None on count mismatch."""
    if e1.size != e2.size:
        return None
    o1 = np.argsort(e1, kind="stable")
    o2 = np.argsort(e2, kind="stable")
    pairs = [(int(i), int(j)) for i, j in zip(o1, o2)]
    gaps = np.abs(e1[o1] - e2[o2])
    return pairs, gaps


def _matching_pairs(rows: np.ndarray, cols: np.ndarray, n1: int, n2: int
                    ) -> list[tuple[int | None, int | None]]:
    """An assignment on the augmented matrix as point pairs, None for
    the diagonal; slot-to-slot pairs are dropped."""
    out: list[tuple[int | None, int | None]] = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        left = r if r < n1 else None
        right = c if c < n2 else None
        if left is not None or right is not None:
            out.append((left, right))
    return sorted(out, key=lambda t: (t[0] is None, t[0], t[1] is None, t[1]))


def _heavy_first(x: np.ndarray, y: np.ndarray, px: np.ndarray):
    """Pairs of the points x (sorted by decreasing half-persistence px, so
    the heavy ones at any t lead) with y, cost < px, grouped by x: (row
    offsets, y indices, costs, max over x of min(px, least cost to y))."""
    least = np.full(x.shape[0], np.inf)
    idx, costs, counts = ([np.zeros(0, t)] for t in (np.int32, float, int))
    step = max(1, _BLOCK_ENTRIES // max(1, y.shape[0]))
    for s in range(0, x.shape[0], step):
        c = _linf(x[s:s + step, None], y[None, :])
        least[s:s + step] = c.min(axis=1, initial=np.inf)
        keep = c < px[s:s + step, None]
        idx.append(np.nonzero(keep)[1].astype(np.int32))
        costs.append(c[keep])
        counts.append(keep.sum(axis=1))
    ptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return (ptr, np.concatenate(idx), np.concatenate(costs),
            np.minimum(px, least).max(initial=0.0))


# The greedy start of each threshold test looks at _PROBES pairs of each
# free row in each of _PROBE_ROUNDS rounds; the path search reads about
# _SEARCH_CHUNK pairs at a step, so that trees which found their path
# stop growing early.
_PROBES, _PROBE_ROUNDS, _SEARCH_CHUNK = 8, 8, 1 << 16
_HASH = np.uint64(0x9E3779B97F4A7C15)
# Heavy rows with at most this many pairs are matched on Python lists
# (`_cover_small`): on noise-grid H1 diagrams the lists were faster up to
# 16x16 grids (about 450 pairs a side), the arrays from 20x20 (1,100).
_SMALL_PAIRS = 512


def _probe_greedy(ptr, to, cost, t, rows, mate_row, mate_col) -> None:
    """Greedy start: in each round every free row of `rows` looks at
    _PROBES of its pairs, at hashed positions, and proposes the first
    free column within t; each column takes its first proposer.  It
    reads a few pairs per row, not all of them, and stops at a round in
    which no row proposes."""
    rows = rows[ptr[rows + 1] > ptr[rows]]
    h = (rows[:, None] * (_PROBES * _PROBE_ROUNDS)
         + np.arange(1, _PROBES * _PROBE_ROUNDS + 1)).astype(np.uint64)
    h *= _HASH
    h ^= h >> np.uint64(29)
    lens = (ptr[rows + 1] - ptr[rows]).astype(np.uint64)
    pos = ptr[rows, None] + (h % lens[:, None]).astype(np.int64)
    col, within = to[pos], cost[pos] <= t
    for r in range(0, _PROBES * _PROBE_ROUNDS, _PROBES):
        ok = within[:, r:r + _PROBES] & (mate_col[col[:, r:r + _PROBES]] < 0)
        hit = np.flatnonzero(ok.any(axis=1))
        if hit.size == 0:
            return
        cols, first = np.unique(col[hit, r + ok[hit].argmax(axis=1)],
                                return_index=True)
        won = rows[hit[first]]
        mate_row[won], mate_col[cols] = cols, won
        left = mate_row[rows] < 0
        rows, col, within = rows[left], col[left], within[left]


def _pair_positions(ptr: np.ndarray, rows: np.ndarray, lens: np.ndarray):
    """Positions in the per-side arrays of the pairs of `rows` (at least
    one), whose pair counts are `lens`, row after row."""
    total = np.cumsum(lens)
    return np.arange(total[-1]) + np.repeat(ptr[rows] - (total - lens), lens)


def _lift(ptr, to, cost, p, t: float, rows: np.ndarray,
          reached: np.ndarray) -> float:
    """The least t' > t at which `rows` could all be covered, when their
    pairs within t reach only the columns marked in `reached`, and those
    are all matched to them: their least pair above t to another column,
    or their least half-persistence."""
    pos = _pair_positions(ptr, rows, ptr[rows + 1] - ptr[rows])
    out = cost[pos][(cost[pos] > t) & ~reached[to[pos]]]
    return float(min(out.min(initial=np.inf), p[rows].min()))


def _cover_small(ptr, to, cost, p, t: float, nh: int, mate_row: np.ndarray,
                 mate_col: np.ndarray) -> float | None:
    """`_cover_heavy` on Python lists, for few pairs: one depth-first
    search per free heavy row, on an explicit stack.  The first row that
    no augmenting path reaches ends it; the rows its search reached give
    the lift."""
    first = ptr[:nh + 1].tolist()
    cols, costs = to[:first[-1]].tolist(), cost[:first[-1]].tolist()
    mr, mc = mate_row.tolist(), mate_col.tolist()
    try:
        for u in range(nh):
            if mr[u] >= 0:
                continue
            seen, rows, stack = set(), [u], [[u, first[u]]]
            while stack:
                top = stack[-1]
                r, j = top
                if j == first[r + 1]:
                    stack.pop()
                    continue
                top[1] = j + 1
                c = cols[j]
                if costs[j] > t or c in seen:
                    continue
                seen.add(c)
                if mc[c] < 0:  # flip the path on the stack
                    for r, j in stack:
                        mr[r], mc[cols[j - 1]] = cols[j - 1], r
                    break
                rows.append(mc[c])
                stack.append([mc[c], first[mc[c]]])
            else:
                reached = np.zeros(len(mc), dtype=bool)
                reached[list(seen)] = True
                return _lift(ptr, to, cost, p, t, np.array(rows), reached)
        return None
    finally:
        mate_row[:], mate_col[:] = mr, mc


def _cover_heavy(ptr, to, cost, p: np.ndarray, t: float,
                 mate_row: np.ndarray, mate_col: np.ndarray) -> float | None:
    """Extend a matching of rows to columns (`mate_row`, `mate_col`, -1
    for free; updated in place) by pairs of cost <= t until it covers the
    heavy rows, those with half-persistence p > t (a prefix, as p
    decreases).  None when it does; else the least t' > t at which that
    can change, so that every threshold below t' fails too.

    ptr, to and cost are one side of `_heavy_first`.  Light rows give up
    their mates first.  Heavy rows with at most _SMALL_PAIRS pairs go to
    `_cover_small`.  Otherwise, after `_probe_greedy` (when more than one
    row is free), augmenting paths are searched from all free rows at once: a
    queue of rows, where each column reached first joins the tree of the
    row that reached it and brings in its mate, so the trees are disjoint
    and every tree that reaches a free column flips its path in the same
    pass.  A pass that reaches no free column has searched every
    alternating path from the free rows, so the matching is maximum: the
    rows it reached outnumber the columns they reach within t, all taken
    by them, until t' (their least pair to another column above t, or
    the least half-persistence among them).
    """
    nh = int((p > t).sum())
    light = np.flatnonzero(mate_row[nh:] >= 0) + nh
    mate_col[mate_row[light]] = -1
    mate_row[light] = -1
    if ptr[nh] <= _SMALL_PAIRS:
        return _cover_small(ptr, to, cost, p, t, nh, mate_row, mate_col)
    free = np.flatnonzero(mate_row[:nh] < 0)
    if free.size > 1:
        _probe_greedy(ptr, to, cost, t, free, mate_row, mate_col)
        free = np.flatnonzero(mate_row[:nh] < 0)
    while free.size:
        tree = np.full(mate_row.size, -1)
        tree[free] = np.arange(free.size)
        parent = np.full(mate_col.size, -1)  # the row that reached a column
        end = np.full(free.size, -1)  # the free column a tree reached
        queue = free
        while queue.size:
            lens = ptr[queue + 1] - ptr[queue]
            k = max(1, int(np.searchsorted(np.cumsum(lens), _SEARCH_CHUNK)))
            pos = _pair_positions(ptr, queue[:k], lens[:k])
            rid, col = np.repeat(queue[:k], lens[:k]), to[pos]
            keep = (cost[pos] <= t) & (parent[col] < 0)
            rid, col = rid[keep], col[keep]
            first = np.full(mate_col.size, rid.size)
            np.minimum.at(first, col, np.arange(rid.size))
            cols = np.flatnonzero(first < rid.size)
            parent[cols] = rid[first[cols]]
            mates = mate_col[cols]
            taken = mates >= 0
            tree[mates[taken]] = tree[parent[cols[taken]]]
            queue = np.concatenate([queue[k:], mates[taken]])
            if not taken.all():
                trees, i = np.unique(tree[parent[cols[~taken]]],
                                     return_index=True)
                end[trees] = cols[~taken][i]
                queue = queue[end[tree[queue]] < 0]
        col = end[end >= 0]
        if col.size == 0:
            return _lift(ptr, to, cost, p, t, np.flatnonzero(tree >= 0),
                         parent >= 0)
        while col.size:  # flip every path, column by column to its root
            row = parent[col]
            prev = mate_row[row]
            mate_row[row], mate_col[col] = col, row
            col = prev[prev >= 0]
        free = np.flatnonzero(mate_row[:nh] < 0)
    return None


@np.errstate(over="ignore")
def bottleneck_distance(pd1: PersistenceDiagram, pd2: PersistenceDiagram,
                        dim: int = 1) -> DiagramDistanceReport:
    """Exact bottleneck distance in one homology dimension.

    The candidates are the distinct kept costs and half-persistences from
    the lower bound up to top, the largest half-persistence (everything
    to the diagonal); the least one that passes the test is the value.
    """
    a, e1, b, e2 = _split(pd1, pd2, dim)
    n1, n2 = a.shape[0], b.shape[0]
    pa, pb = _half_persistence(a), _half_persistence(b)
    oa, ob = np.argsort(-pa, kind="stable"), np.argsort(-pb, kind="stable")
    a, pa, b, pb = a[oa], pa[oa], b[ob], pb[ob]
    ptr_a, to_b, cost_a, bound_a = _heavy_first(a, b, pa)
    ptr_b, to_a, cost_b, bound_b = _heavy_first(b, a, pb)
    bound = max(bound_a, bound_b)
    top = max(pa.max(initial=0.0), pb.max(initial=0.0))
    vals = np.concatenate([cost_a, cost_b, pa, pb])
    cands = np.append(np.unique(vals[(vals >= bound) & (vals < top)]), top)
    # Each test starts from the matchings the last one left, less their
    # pairs that cost more than t when t went down.
    mates = tuple(np.full(n, -1) for n in (n1, n2, n2, n1))
    last = -math.inf

    def heavy_matchings(t: float):
        # (A-side mates in B, B-side mates in A), -1 for none; or, when a
        # side fails, the least threshold at which it may pass.
        nonlocal last
        for x, y, mate_row, mate_col in ((a, b, *mates[:2]),
                                         (b, a, *mates[2:])):
            if t < last:
                i = np.flatnonzero(mate_row >= 0)
                i = i[_linf(x[i], y[mate_row[i]]) > t]
                mate_col[mate_row[i]] = -1
                mate_row[i] = -1
        last = t
        for side in ((ptr_a, to_b, cost_a, pa, t, *mates[:2]),
                     (ptr_b, to_a, cost_b, pb, t, *mates[2:])):
            lift = _cover_heavy(*side)
            if lift is not None:
                return lift
        return mates[0].copy(), mates[2].copy()

    # Gallop from the bound until a test succeeds, then bisect; a failed
    # test also fails every candidate below its lift.
    lo, hi, step, best = -1, cands.size - 1, 1, None
    while hi - lo > 1:
        mid = lo + step if best is None and lo + step < hi else (lo + hi) // 2
        got = heavy_matchings(cands[mid])
        if isinstance(got, tuple):
            hi, best = mid, got
        else:
            lo, step = int(np.searchsorted(cands, got)) - 1, 2 * step
    finite_part = float(cands[hi])
    if best is None:  # only top, never tested, is feasible
        best = np.full(n1, -1), np.full(n2, -1)

    mate_a, via_b = (m.tolist() for m in best)
    mate_b = [-1] * n2
    for i in np.flatnonzero(best[0] >= 0).tolist():
        mate_b[mate_a[i]] = i
    for j in [j for j in range(n2) if mate_b[j] < 0]:
        while j >= 0 and via_b[j] >= 0:  # a light j stays on the diagonal
            i = via_b[j]
            mate_b[j], mate_a[i], j = i, j, mate_a[i]
            if j >= 0:
                mate_b[j] = -1
    mate_a, mate_b = np.array(mate_a, dtype=int), np.array(mate_b, dtype=int)
    ia = np.flatnonzero(mate_a >= 0)
    if max(_linf(a[ia], b[mate_a[ia]]).max(initial=0.0),
           pa[mate_a < 0].max(initial=0.0),
           pb[mate_b < 0].max(initial=0.0)) != finite_part:
        raise InternalError("bottleneck matching does not attain the value")
    to = np.full(n1, -1)  # back to diagram order
    to[oa] = np.append(ob, -1)[mate_a]
    matching = [(i, j if j >= 0 else None) for i, j in enumerate(to.tolist())]
    matching += [(None, j) for j in np.sort(ob[mate_b < 0]).tolist()]

    ess = _match_essentials(e1, e2)
    if ess is None:
        return DiagramDistanceReport("bottleneck", dim, math.inf, matching)
    ess_pairs, gaps = ess
    ess_part = float(gaps.max()) if gaps.size else 0.0
    return DiagramDistanceReport("bottleneck", dim,
                                 max(finite_part, ess_part),
                                 matching, ess_pairs)


def _powered(costs: np.ndarray, p: float,
             cross: tuple[int, int] = (0, 0)) -> np.ndarray:
    """costs ** p, in place; a nonzero cost whose power overflows to inf
    or underflows to 0 is a ParameterError, not a wrong distance.  Powers
    with p >= 1 are monotone, so the check looks only at the least
    nonzero cost and the largest one, found in blocks of rows.  Only a
    point-to-point cost, in costs[:n1, :n2] with (n1, n2) = cross, may
    already be inf and stays inf: the assignment can send both points to
    the diagonal instead.  Any other inf cost is a ParameterError."""
    rows = np.atleast_2d(costs)
    n1, n2 = cross
    step = max(1, _BLOCK_ENTRIES // max(1, rows.shape[1]))
    least, most = np.inf, 0.0
    for s in range(0, rows.shape[0], step):
        block = rows[s:s + step]
        least = min(least, block.min(where=block > 0, initial=np.inf))
        counted = block < np.inf
        counted[max(0, n1 - s):] = True
        counted[:, n2:] = True
        most = max(most, block.max(where=counted, initial=0.0))
    ends = np.array([least, most])
    with np.errstate(over="ignore", under="ignore"):
        np.power(ends, p, out=ends)
    if ends[0] == 0 or np.isinf(ends[1]):
        raise ParameterError(
            f"wasserstein order p={p!r} overflows or underflows a cost")
    return np.power(costs, p, out=costs)


@np.errstate(over="ignore")
def wasserstein_distance(pd1: PersistenceDiagram, pd2: PersistenceDiagram,
                         dim: int = 1, p: float = 2.0
                         ) -> DiagramDistanceReport:
    """p-Wasserstein distance via an exact assignment on augmented costs.

    The augmented costs are raised to the p-th power; the value is the
    p-th root of the optimal total, plus the essential birth mismatch
    handled the same way.
    """
    from scipy.optimize import linear_sum_assignment

    if not (1 <= p < math.inf):
        raise ParameterError("wasserstein order p must be finite and >= 1")
    a, e1, b, e2 = _split(pd1, pd2, dim)
    n1, n2 = a.shape[0], b.shape[0]
    big = _powered(_augmented_costs(a, b), p, (n1, n2))
    rows, cols = linear_sum_assignment(big)
    matching = _matching_pairs(rows, cols, n1, n2)

    ess = _match_essentials(e1, e2)
    if ess is None:
        return DiagramDistanceReport("wasserstein", dim, math.inf,
                                     matching, p=p)
    ess_pairs, gaps = ess
    total = float(big[rows, cols].sum() + np.sum(_powered(gaps, p)))
    if not math.isfinite(total):
        raise ParameterError(
            f"wasserstein order p={p!r} overflows the total cost")
    return DiagramDistanceReport("wasserstein", dim, total ** (1.0 / p),
                                 matching, ess_pairs, p=p)


@np.errstate(over="ignore")
def matching_cost(report: DiagramDistanceReport, pd1: PersistenceDiagram,
                  pd2: PersistenceDiagram) -> float:
    """Recompute the distance value implied by a report's matching."""
    a, e1, b, e2 = _split(pd1, pd2, report.dim)

    def one(left: int | None, right: int | None) -> float:
        if left is not None and right is not None:
            return float(max(abs(a[left, 0] - b[right, 0]),
                             abs(a[left, 1] - b[right, 1])))
        if left is not None:
            return float(_half_persistence(a[left:left + 1])[0])
        if right is not None:
            return float(_half_persistence(b[right:right + 1])[0])
        return 0.0

    edge = [one(l, r) for l, r in report.matching]
    gaps = [abs(float(e1[i]) - float(e2[j]))
            for i, j in report.essential_matching]
    if report.metric == "bottleneck":
        return max(edge + gaps) if edge + gaps else 0.0
    p = float(report.p)
    return float(sum(c ** p for c in edge + gaps)) ** (1.0 / p)
