"""Bottleneck and Wasserstein distances between persistence diagrams.

Both metrics use the L-infinity ground distance and diagonal
augmentation, built once as a square cost matrix (`_augmented_costs`):
every point may be matched to a diagonal slot at cost persistence/2,
and surplus diagonal slots pair off at cost 0.  Wasserstein solves one
assignment on the p-th powers of those costs.  Bottleneck binary-searches
the distinct costs and tests each threshold for a perfect matching with
Hopcroft-Karp; nothing recurses.  Essential points (infinite death) are
compared separately as multisets of births; a count mismatch makes the
distance infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InternalError, ParameterError
from .persistence import PersistenceDiagram


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


def _split_dim(pd: PersistenceDiagram, dim: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """(finite points (m, 2), essential births (k,)) for one dimension."""
    fin, ess = [], []
    for d, b, dth in pd.points:
        if d != dim:
            continue
        if math.isinf(dth):
            ess.append(b)
        else:
            fin.append((b, dth))
    return (np.array(fin, dtype=np.float64).reshape(-1, 2),
            np.array(ess, dtype=np.float64))


def _augmented_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n1+n2) square L-infinity costs of the diagonal-augmented matching.

    Rows are the n1 points of `a` then n2 diagonal slots; columns the n2
    points of `b` then n1 diagonal slots.  A point costs its L-infinity
    distance to a point, persistence/2 to any diagonal slot, and two
    slots pair off at 0.
    """
    n1, n2 = a.shape[0], b.shape[0]
    big = np.zeros((n1 + n2, n1 + n2))
    big[:n1, :n2] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                               np.abs(a[:, None, 1] - b[None, :, 1]))
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


def bottleneck_distance(pd1: PersistenceDiagram, pd2: PersistenceDiagram,
                        dim: int = 1) -> DiagramDistanceReport:
    """Exact bottleneck distance in one homology dimension.

    Binary search over the distinct augmented costs.  A threshold is
    feasible when the edges of cost <= threshold hold a perfect
    matching (Hopcroft-Karp, `maximum_bipartite_matching`).  Sending
    every point to the diagonal is perfect at the largest diagonal
    cost, so that cost is the top candidate and its matching the start.
    """
    a, e1 = _split_dim(pd1, dim)
    b, e2 = _split_dim(pd2, dim)
    n1, n2 = a.shape[0], b.shape[0]
    big = _augmented_costs(a, b)
    rows = np.arange(n1 + n2)
    cols = np.concatenate([n2 + np.arange(n1), np.arange(n2)])
    top = big[rows, cols].max(initial=0.0)
    cands = np.append(np.unique(big[big < top]), top)
    lo, hi = 0, cands.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(big <= cands[mid]),
                                           perm_type="column")
        if (match < 0).any():
            lo = mid + 1
        else:
            hi, cols = mid, match
    finite_part = float(cands[lo])
    if big[rows, cols].max(initial=0.0) != finite_part:
        raise InternalError("bottleneck matching does not attain the value")
    matching = _matching_pairs(rows, cols, n1, n2)

    ess = _match_essentials(e1, e2)
    if ess is None:
        return DiagramDistanceReport("bottleneck", dim, math.inf, matching)
    ess_pairs, gaps = ess
    ess_part = float(gaps.max()) if gaps.size else 0.0
    return DiagramDistanceReport("bottleneck", dim,
                                 max(finite_part, ess_part),
                                 matching, ess_pairs)


def _powered(costs: np.ndarray, p: float) -> np.ndarray:
    """costs ** p; a nonzero cost whose power overflows to inf or
    underflows to 0 is a ParameterError, not a wrong distance."""
    with np.errstate(over="ignore", under="ignore"):
        out = costs ** p
    if np.any((costs > 0) & ((out == 0) | np.isinf(out))):
        raise ParameterError(
            f"wasserstein order p={p!r} overflows or underflows a cost")
    return out


def wasserstein_distance(pd1: PersistenceDiagram, pd2: PersistenceDiagram,
                         dim: int = 1, p: float = 2.0
                         ) -> DiagramDistanceReport:
    """p-Wasserstein distance via an exact assignment on augmented costs.

    The augmented costs are raised to the p-th power; the value is the
    p-th root of the optimal total, plus the essential birth mismatch
    handled the same way.
    """
    # scipy.optimize costs every phom process ~0.1 s to import; only
    # this function needs it.
    from scipy.optimize import linear_sum_assignment

    if not (1 <= p < math.inf):
        raise ParameterError("wasserstein order p must be finite and >= 1")
    a, e1 = _split_dim(pd1, dim)
    b, e2 = _split_dim(pd2, dim)
    n1, n2 = a.shape[0], b.shape[0]
    big = _powered(_augmented_costs(a, b), p)
    rows, cols = linear_sum_assignment(big)
    total = float(big[rows, cols].sum())
    matching = _matching_pairs(rows, cols, n1, n2)

    ess = _match_essentials(e1, e2)
    if ess is None:
        return DiagramDistanceReport("wasserstein", dim, math.inf,
                                     matching, p=p)
    ess_pairs, gaps = ess
    total += float(np.sum(_powered(gaps, p)))
    return DiagramDistanceReport("wasserstein", dim, total ** (1.0 / p),
                                 matching, ess_pairs, p=p)


def matching_cost(report: DiagramDistanceReport, pd1: PersistenceDiagram,
                  pd2: PersistenceDiagram) -> float:
    """Recompute the distance value implied by a report's matching."""
    a, e1 = _split_dim(pd1, report.dim)
    b, e2 = _split_dim(pd2, report.dim)

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
