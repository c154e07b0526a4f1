"""Bottleneck and Wasserstein distances between persistence diagrams.

Both use the L-infinity ground distance, and a point may go to the
diagonal at half its persistence; essential points (infinite death) are
matched by sorted births, and a count mismatch makes the distance
infinite.  Wasserstein is one assignment on the p-th powers of the
square diagonal-augmented costs (`_augmented_costs`).  Bottleneck builds
none (Efrat, Itai and Katz 2001; Kerber, Morozov and Nigmetov 2017): t
passes when the pairs of cost <= t cover, in one matching, the first
diagram's points with half-persistence > t and, in another, the
second's (Mendelsohn-Dulmage); it gallops and bisects over costs.
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


def _linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity costs between the rows of a and b (broadcast)."""
    return np.maximum(np.abs(a[..., 0] - b[..., 0]),
                      np.abs(a[..., 1] - b[..., 1]))


def _augmented_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n1+n2) square L-infinity costs of the diagonal-augmented matching.

    Rows are the n1 points of `a` then n2 diagonal slots; columns the n2
    points of `b` then n1 diagonal slots.  A point costs its L-infinity
    distance to a point, persistence/2 to any diagonal slot, and two
    slots pair off at 0.
    """
    n1, n2 = a.shape[0], b.shape[0]
    big = np.zeros((n1 + n2, n1 + n2))
    step = max(1, _BLOCK_ENTRIES // max(1, n2))
    for s in range(0, n1, step):
        e = min(s + step, n1)
        big[s:e, :n2] = _linf(a[s:e, None], b[None, :])
    big[:n1, n2:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    big[n1:, :n2] = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
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


def bottleneck_distance(pd1: PersistenceDiagram, pd2: PersistenceDiagram,
                        dim: int = 1) -> DiagramDistanceReport:
    """Exact bottleneck distance in one homology dimension.

    The candidates are the distinct kept costs and half-persistences from
    the lower bound up to top, the largest half-persistence (everything
    to the diagonal); the least one that passes the test is the value.
    """
    a, e1, b, e2 = _split(pd1, pd2, dim)
    n1, n2 = a.shape[0], b.shape[0]
    pa, pb = (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0
    oa, ob = np.argsort(-pa, kind="stable"), np.argsort(-pb, kind="stable")
    a, pa, b, pb = a[oa], pa[oa], b[ob], pb[ob]
    ptr_a, to_b, cost_a, bound_a = _heavy_first(a, b, pa)
    ptr_b, to_a, cost_b, bound_b = _heavy_first(b, a, pb)
    bound = max(bound_a, bound_b)
    top = max(pa.max(initial=0.0), pb.max(initial=0.0))
    vals = np.concatenate([cost_a, cost_b, pa, pb])
    cands = np.append(np.unique(vals[(vals >= bound) & (vals < top)]), top)

    def heavy_matchings(t: float):
        # (A-side mates in B, B-side mates in A), -1 for none, or None.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching
        nha, nhb = int((pa > t).sum()), int((pb > t).sum())
        ka, kb = ptr_a[nha], ptr_b[nhb]
        sa, sb = cost_a[:ka] <= t, cost_b[:kb] <= t
        ra = np.cumsum(np.concatenate([[0], sa]))[ptr_a[:nha + 1]]
        rb = np.cumsum(np.concatenate([[0], sb]))[ptr_b[1:nhb + 1]]
        cols = np.concatenate([to_b[:ka][sa], n2 + to_a[:kb][sb]])
        graph = csr_matrix((np.ones(cols.size, dtype=bool), cols,
                            np.concatenate([ra, ra[-1] + rb])),
                           shape=(nha + nhb, n2 + n1))
        match = maximum_bipartite_matching(graph, perm_type="column")
        if (match < 0).any():
            return None
        mate_a, mate_b = np.full(n1, -1), np.full(n2, -1)
        mate_a[:nha], mate_b[:nhb] = match[:nha], match[nha:] - n2
        return mate_a, mate_b

    # Gallop from the bound until a test succeeds, then bisect.
    lo, hi, step, best = -1, cands.size - 1, 1, None
    while hi - lo > 1:
        mid = lo + step if best is None and lo + step < hi else (lo + hi) // 2
        got = heavy_matchings(cands[mid])
        if got is None:
            lo, step = mid, 2 * step
        else:
            hi, best = mid, got
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


def _powered(costs: np.ndarray, p: float) -> np.ndarray:
    """costs ** p, in place; a nonzero cost whose power overflows to inf
    or underflows to 0 is a ParameterError, not a wrong distance.  Powers
    with p >= 1 are monotone, so the check looks only at the least
    nonzero cost and the largest."""
    ends = np.array([costs.min(where=costs > 0, initial=np.inf),
                     costs.max(initial=0.0)])
    with np.errstate(over="ignore", under="ignore"):
        np.power(ends, p, out=ends)
    if ends[0] == 0 or np.isinf(ends[1]):
        raise ParameterError(
            f"wasserstein order p={p!r} overflows or underflows a cost")
    return np.power(costs, p, out=costs)


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
    big = _powered(_augmented_costs(a, b), p)
    rows, cols = linear_sum_assignment(big)
    matching = _matching_pairs(rows, cols, n1, n2)

    ess = _match_essentials(e1, e2)
    if ess is None:
        return DiagramDistanceReport("wasserstein", dim, math.inf,
                                     matching, p=p)
    ess_pairs, gaps = ess
    with np.errstate(over="ignore"):
        total = float(big[rows, cols].sum() + np.sum(_powered(gaps, p)))
    if not math.isfinite(total):
        raise ParameterError(
            f"wasserstein order p={p!r} overflows the total cost")
    return DiagramDistanceReport("wasserstein", dim, total ** (1.0 / p),
                                 matching, ess_pairs, p=p)


def matching_cost(report: DiagramDistanceReport, pd1: PersistenceDiagram,
                  pd2: PersistenceDiagram) -> float:
    """Recompute the distance value implied by a report's matching."""
    a, e1, b, e2 = _split(pd1, pd2, report.dim)

    def one(left: int | None, right: int | None) -> float:
        if left is not None and right is not None:
            return float(max(abs(a[left, 0] - b[right, 0]),
                             abs(a[left, 1] - b[right, 1])))
        if left is not None:
            return float(a[left, 1] - a[left, 0]) / 2.0
        if right is not None:
            return float(b[right, 1] - b[right, 0]) / 2.0
        return 0.0

    edge = [one(l, r) for l, r in report.matching]
    gaps = [abs(float(e1[i]) - float(e2[j]))
            for i, j in report.essential_matching]
    if report.metric == "bottleneck":
        return max(edge + gaps) if edge + gaps else 0.0
    p = float(report.p)
    return float(sum(c ** p for c in edge + gaps)) ** (1.0 / p)
