"""Reference implementations used only by the tests.

Everything here is written from first principles (plain Python,
itertools, bitmask linear algebra, scipy's pdist for distances,
scipy's connected components for graphs, scipy's assignment and
Hopcroft-Karp solvers for the bottleneck oracles, and scipy's ndtr for
persistence images)
so that a bug in the package cannot hide by agreeing with itself.
"""

import itertools
import math
import re
from io import StringIO

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (connected_components,
                                  maximum_bipartite_matching)
from scipy.special import ndtr
from scipy.spatial.distance import pdist, squareform

from phom.errors import InputError
from phom.persistence import PersistenceDiagram


# ------------------------------------------------------------- Z2 rank

def bitmask_rank(vectors):
    """Rank over Z2 of int bitmask row vectors (incremental basis)."""
    basis = {}
    for v in vectors:
        v = int(v)
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                break
    return len(basis)


def rows_to_masks(rows):
    out = []
    for row in rows:
        v = 0
        for x in row:
            v = (v << 1) | (int(x) & 1)
        out.append(v)
    return out


# -------------------------------------------- simplicial Betti numbers

def simplex_betti(cells, max_dim):
    """Betti numbers of a simplex list (vertex tuples), combinatorially.

    beta_k = #k - rank(d_k) - rank(d_{k+1}); faces come straight from
    itertools.combinations, nothing is shared with the package.
    """
    bydim = {}
    for v in cells:
        bydim.setdefault(len(v) - 1, []).append(tuple(sorted(v)))
    for k in bydim:
        bydim[k].sort()
    ranks = {}
    for k in range(1, max_dim + 2):
        cols = bydim.get(k, [])
        rows = {s: i for i, s in enumerate(bydim.get(k - 1, []))}
        masks = []
        for s in cols:
            v = 0
            for face in itertools.combinations(s, k):
                v ^= 1 << rows[face]
            masks.append(v)
        ranks[k] = bitmask_rank(masks)
    out = []
    for k in range(max_dim + 1):
        nk = len(bydim.get(k, []))
        out.append(nk - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return out


def components_via_union_find(cells):
    """beta_0 of a simplex list by union-find over its edges."""
    verts = sorted({v for c in cells for v in c})
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = len(verts)
    for c in cells:
        if len(c) == 2:
            ra, rb = find(c[0]), find(c[1])
            if ra != rb:
                parent[rb] = ra
                comps -= 1
    return comps


def csgraph_components(n, edges):
    """Number of connected components of a graph, by scipy.sparse.csgraph."""
    ab = np.array(edges, dtype=np.int64).reshape(-1, 2)
    graph = csr_matrix((np.ones(len(ab)), (ab[:, 0], ab[:, 1])),
                       shape=(n, n))
    return int(connected_components(graph, directed=False)[0])


@st.composite
def multigraphs(draw):
    """n nodes and an edge list in filtration order: duplicate edges,
    self-loops and isolated nodes all occur."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=40))
    return n, edges


# ----------------------------------------------- cubical cell algebra

def cube_cells(grid):
    """All cubes of a grid on the doubled lattice: {coords: value}.

    Odd coordinates are intervals, even ones points; a cube's value is
    the minimum over the top-dimensional cells it touches.
    """
    g = np.asarray(grid, dtype=np.float64)
    doubled = tuple(2 * n + 1 for n in g.shape)
    cells = {}
    for idx in itertools.product(*[range(s) for s in doubled]):
        axes = []
        for c, n in zip(idx, g.shape):
            if c % 2 == 1:
                axes.append([(c - 1) // 2])
            else:
                axes.append([t for t in (c // 2 - 1, c // 2) if 0 <= t < n])
        val = min(float(g[top]) for top in itertools.product(*axes))
        cells[idx] = val
    return cells


def cube_faces(idx):
    """Codimension-1 faces of a doubled-lattice cube."""
    out = []
    for ax, c in enumerate(idx):
        if c % 2 == 1:
            out.append(idx[:ax] + (c - 1,) + idx[ax + 1:])
            out.append(idx[:ax] + (c + 1,) + idx[ax + 1:])
    return out


def cube_betti(cell_map, max_dim):
    """Betti numbers of a set of cubes {coords: anything}."""
    bydim = {}
    for idx in cell_map:
        bydim.setdefault(sum(c % 2 for c in idx), []).append(idx)
    for k in bydim:
        bydim[k].sort()
    ranks = {}
    for k in range(1, max_dim + 2):
        rows = {c: i for i, c in enumerate(bydim.get(k - 1, []))}
        masks = []
        for c in bydim.get(k, []):
            v = 0
            for f in cube_faces(c):
                v ^= 1 << rows[f]
            masks.append(v)
        ranks[k] = bitmask_rank(masks)
    out = []
    for k in range(max_dim + 1):
        out.append(len(bydim.get(k, [])) - ranks.get(k, 0)
                   - ranks.get(k + 1, 0))
    return out


# ------------------------------------- textbook left-to-right pairing

def reduction_pairs(face_lists):
    """Standard single-matrix reduction: ({birth: death}, set, columns).

    face_lists[j] holds the positions of cell j's codim-1 faces, in
    filtration order.  The second value is the set of unpaired cells,
    the third the reduced columns: columns[j] is the set of positions in
    cell j's column after the reduction.
    """
    m = len(face_lists)
    reduced = []
    low_owner = {}
    pairs = {}
    for j in range(m):
        col = set(face_lists[j])
        while col:
            low = max(col)
            if low in low_owner:
                col ^= reduced[low_owner[low]]
            else:
                break
        reduced.append(col)
        if col:
            low = max(col)
            low_owner[low] = j
            pairs[low] = j
    unpaired = set(range(m)) - set(pairs) - set(pairs.values())
    return pairs, unpaired, reduced


def diagram_from_pairs(pairs, unpaired, dims, values, max_dim):
    """(dim, birth, death) points, zero-persistence dropped, sorted."""
    pts = []
    for i, j in pairs.items():
        if dims[i] <= max_dim and values[i] != values[j]:
            pts.append((int(dims[i]), float(values[i]), float(values[j])))
    for i in unpaired:
        if dims[i] <= max_dim:
            pts.append((int(dims[i]), float(values[i]), math.inf))
    return sorted(pts)


# --------------------------------------------- brute-force distances

def _linf(u, v):
    return max(abs(u[0] - v[0]), abs(u[1] - v[1]))


def brute_matching_costs(a, b):
    """Yield the edge-cost lists of every diagonal-augmented matching.

    a and b are lists of (birth, death).  Each yielded list holds one
    cost per point: matched pairs contribute their L-infinity distance,
    everything else its distance to the diagonal.
    """
    n1, n2 = len(a), len(b)
    diag1 = [(d - bb) / 2.0 for bb, d in a]
    diag2 = [(d - bb) / 2.0 for bb, d in b]
    for k in range(min(n1, n2) + 1):
        for sub1 in itertools.combinations(range(n1), k):
            left_out = [diag1[i] for i in range(n1) if i not in sub1]
            for sub2 in itertools.permutations(range(n2), k):
                costs = [_linf(a[i], b[j]) for i, j in zip(sub1, sub2)]
                costs += left_out
                costs += [diag2[j] for j in range(n2) if j not in sub2]
                yield costs


def brute_bottleneck(a, b, e1, e2):
    if len(e1) != len(e2):
        return math.inf
    best = 0.0 if not (a or b) else math.inf
    for costs in brute_matching_costs(a, b):
        best = min(best, max(costs, default=0.0))
    gaps = [abs(x - y) for x, y in zip(sorted(e1), sorted(e2))]
    return max([best] + gaps) if (a or b or gaps) else 0.0


def assignment_bottleneck(a, b, e1, e2):
    """Bottleneck distance for diagrams too large to enumerate.

    The diagonal-augmented costs are built here entry by entry: rows are
    the points of a then one diagonal slot per point of b, columns the
    points of b then one slot per point of a.  A threshold t is feasible
    when the 0/1 matrix `costs > t` has an assignment of total 0, that
    is, a perfect matching within t.  The answer is the least feasible
    cost among 0 and all entries.
    """
    if len(e1) != len(e2):
        return math.inf
    n1, n2 = len(a), len(b)
    costs = np.zeros((n1 + n2, n1 + n2))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            costs[i, j] = _linf(u, v)
        costs[i, n2:] = (u[1] - u[0]) / 2.0
    for j, v in enumerate(b):
        costs[n1:, j] = (v[1] - v[0]) / 2.0

    def feasible(t):
        over = (costs > t).astype(np.float64)
        rows, cols = linear_sum_assignment(over)
        return over[rows, cols].sum() == 0

    cands = sorted(set(costs.ravel().tolist()) | {0.0})
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    gaps = [abs(x - y) for x, y in zip(sorted(e1), sorted(e2))]
    return max([cands[lo]] + gaps)


def dense_bottleneck(a, b, e1, e2):
    """Bottleneck distance by the dense search phom used to run.

    The (n1+n2)^2 diagonal-augmented L-infinity costs (points of a, then
    one diagonal slot per point of b, against points of b, then one slot
    per point of a; slot pairs cost 0), and a binary search over their
    distinct values below the largest diagonal cost, where every point
    to the diagonal is a perfect matching.  Each threshold is tested for
    a perfect matching with Hopcroft-Karp on the whole dense mask.
    """
    if len(e1) != len(e2):
        return math.inf
    a = np.array(a, dtype=np.float64).reshape(-1, 2)
    b = np.array(b, dtype=np.float64).reshape(-1, 2)
    n1, n2 = a.shape[0], b.shape[0]
    big = np.zeros((n1 + n2, n1 + n2))
    big[:n1, :n2] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                               np.abs(a[:, None, 1] - b[None, :, 1]))
    big[:n1, n2:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    big[n1:, :n2] = ((b[:, 1] - b[:, 0]) / 2.0)[None, :]
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
            hi = mid
    gaps = [abs(x - y) for x, y in zip(sorted(e1), sorted(e2))]
    return max([float(cands[lo])] + gaps)


def brute_wasserstein(a, b, e1, e2, p):
    if len(e1) != len(e2):
        return math.inf
    best = 0.0 if not (a or b) else math.inf
    for costs in brute_matching_costs(a, b):
        best = min(best, sum(c ** p for c in costs))
    best += sum(abs(x - y) ** p for x, y in zip(sorted(e1), sorted(e2)))
    return best ** (1.0 / p)


# ------------------------------------------------ pairing lookup scan

def scan_pair_for(pairing, point):
    """(birth_cell, death_cell) of the first pair of `pairing` whose
    dimension, birth value and death value equal the point's, scanning
    the pairs (or, for an infinite death, the essentials) in order; None
    when no pair matches."""
    dim, birth, death = int(point[0]), float(point[1]), float(point[2])
    K = pairing.complex
    if math.isinf(death):
        for i in pairing.essential:
            if int(K.dims[i]) == dim and float(K.values[i]) == birth:
                return i, None
    else:
        for i, j in pairing.pairs:
            if (int(K.dims[i]) == dim and float(K.values[i]) == birth
                    and float(K.values[j]) == death):
                return i, j
    return None


# ------------------------------------------- per-point persistence image

def loop_image_pixels(pts, support, resolution, sigma, weight):
    """Persistence image pixels, one point at a time in the given order.

    pts are (birth, persistence) rows; each point adds w * outer(wx, wy),
    where wx and wy are differences of scipy's ndtr over the pixel edges
    and w is the linear or constant weight.
    """
    (b0, b1), (p0, p1) = support
    xedges = np.linspace(b0, b1, resolution[0] + 1)
    yedges = np.linspace(p0, p1, resolution[1] + 1)
    pixels = np.zeros(resolution)
    for b, pers in pts:
        if weight == "linear":
            w = min(max(pers, 0.0), p1) / p1 if p1 > 0 else 0.0
        else:
            w = 1.0
        if w == 0.0:
            continue
        wx = np.diff(ndtr((xedges - b) / sigma))
        wy = np.diff(ndtr((yedges - pers) / sigma))
        pixels += w * np.outer(wx, wy)
    return pixels


# ------------------------------------------------ brute-force sparsify

def brute_min_cycle_size(start_mask, coface_masks):
    """Smallest popcount of start ^ (any xor-combination of cofaces)."""
    best = int(start_mask).bit_count()
    cur = int(start_mask)
    n = len(coface_masks)
    for g in range(1, 1 << n):
        flip = (g & -g).bit_length() - 1
        cur ^= coface_masks[flip]
        pc = cur.bit_count()
        if pc < best:
            best = pc
    return best


# ------------------------------------------- random filtered complexes

def random_filtration(rng, nv=6, p_edge=0.55, p_tri=0.6, p_tet=0.5,
                      levels=6):
    """Random filtered simplicial complex as a list of (verts, value).

    Values sit on a coarse grid so ties are common; every cell enters at
    or after all of its faces (increments of zero are allowed).
    """
    cells = {}
    for v in range(nv):
        cells[(v,)] = float(rng.integers(0, levels)) / 4.0
    probs = {2: p_edge, 3: p_tri, 4: p_tet}
    for width in (2, 3, 4):
        for combo in itertools.combinations(range(nv), width):
            faces = list(itertools.combinations(combo, width - 1))
            if all(f in cells for f in faces) and rng.random() < probs[width]:
                base = max(cells[f] for f in faces)
                cells[combo] = base + float(rng.integers(0, 3)) / 4.0
    return list(cells.items())


# ------------------------------------------------ Rips coboundaries

def rips_coboundary(rank, big, k, s, r):
    """Sorted cofacet keys of the k-simplex s (ascending vertex ids) of
    rank r, in the engine's encoding rank * (n+1)**(k+2) + the vertices'
    digits in base n + 1.  This is the engine's former one-row coboundary:
    mask the vertices v with an edge to all of s, place each by
    searchsorted, key and sort.
    """
    n = rank.shape[0]
    pw = (n + 1) ** np.arange(k + 1, -1, -1, dtype=np.int64)
    base = int(pw[0]) * (n + 1)
    M = rank[s].max(axis=0).astype(np.int64)
    v = np.flatnonzero(M < big)
    c = np.searchsorted(s, v)
    lex = pw[c] * (v + 1)
    for i in range(k + 1):
        lex += (s[i] + 1) * np.where(c > i, pw[i], pw[i + 1])
    return np.sort(np.maximum(M[v], r) * base + lex).tolist()


# ------------------------------------------------ Rips edge table

def pdist_distances(points):
    """scipy's Euclidean distance matrix of an (n, d) cloud (n >= 1)."""
    return squareform(pdist(np.asarray(points, dtype=np.float64)))


def rips_edges(d, max_scale, scale):
    """The engine's former edge table of a valid distance matrix, built
    from the full upper triangle and halved matrix before the max_scale
    cut: (kept edges (i < j) in lexicographic order, int64 ranks,
    distinct values, (n, n) int32 rank matrix with `big` off the edges).
    """
    n = d.shape[0]
    w = d / 2.0 if scale == "radius" else d
    iu, ju = np.triu_indices(n, 1)
    ev = w[iu, ju]
    keep = ev <= max_scale
    iu, ju = iu[keep].astype(np.int64), ju[keep].astype(np.int64)
    uvals, erank = np.unique(ev[keep] + 0.0, return_inverse=True)
    rank = np.full((n, n), uvals.size, dtype=np.int32)
    rank[iu, ju] = erank
    rank[ju, iu] = erank
    return np.column_stack([iu, ju]), erank.astype(np.int64), uvals, rank


# ------------------------------------------------- line-by-line readers
#
# The text readers as they were before they parsed in one pass: every
# line or token is converted and checked in order, and the first fault
# raises.  The one-pass readers in phom.io must return what these return
# and raise the messages these raise.

_NUMBER_SHAPES = frozenset(
    [s + p + e for s in (b"", b"-") for p in (b"", b".")
     for e in (b"", b"e", b"e+", b"e-")] + [b"inf", b"-inf", b"nan"])
_SHAPE = bytes.maketrans(b"123456789,", b"000000000\n")
_UNWRITTEN = "a number not in a form phom writes (1, -0.5, 2.5e-07, inf)"
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^\s#]\S*)")


def _open_read(path, text=True):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return StringIO(data.decode("ascii"), newline=None) if text else data
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: non-ASCII byte at byte {exc.start}") from None


def _first_unwritten(texts):
    def bad(text):
        blob = text.encode().translate(_SHAPE)
        shapes = blob.translate(None, b"0")
        return (shapes.count(b".") != blob.count(b"0.0")
                or not _NUMBER_SHAPES.issuperset(shapes.split(b"\n")))
    for i, text in enumerate(texts):
        if bad(text):
            return i
    return -1


def _parse_meta_value(text):
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        return value if _first_unwritten([text]) < 0 else text
    return text


def read_point_cloud_lines(path):
    rows = []
    width = None
    with _open_read(path) as fh:
        for ln, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InputError(
                    f"{path}:{ln}: expected {width} columns, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputError(f"{path}:{ln}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no points")
    arr = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite coordinates")
    return arr


def read_diagram_csv_lines(path):
    dims, births, deaths, rows, lns = [], [], [], [], []
    metadata = {}
    saw_header = False
    with _open_read(path) as fh:
        for ln, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    metadata[key.strip()] = _parse_meta_value(val.strip())
                continue
            if not saw_header:
                if text != "dim,birth,death":
                    raise InputError(
                        f"{path}:{ln}: expected header 'dim,birth,death'")
                saw_header = True
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise InputError(f"{path}:{ln}: expected 3 columns")
            try:
                d = int(parts[0])
                b = float(parts[1])
                dth = math.inf if parts[2] == "inf" else float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}:{ln}: {exc}") from None
            if d < 0:
                raise InputError(f"{path}:{ln}: negative dimension")
            if d >= 2**63:
                raise InputError(f"{path}:{ln}: dimension exceeds 2**63 - 1")
            if not math.isfinite(b):
                raise InputError(f"{path}:{ln}: birth must be finite")
            if not b <= dth:
                raise InputError(f"{path}:{ln}: birth exceeds death")
            dims.append(d)
            births.append(b)
            deaths.append(dth)
            rows.append(text)
            lns.append(ln)
    if not saw_header:
        raise InputError(f"{path}: missing 'dim,birth,death' header")
    r = _first_unwritten(rows)
    if r >= 0:
        raise InputError(f"{path}:{lns[r]}: {_UNWRITTEN}")
    pd = PersistenceDiagram(dims, births, deaths, metadata)
    if "death_cap" in metadata:
        cap = metadata["death_cap"]
        try:
            cap = math.nan if isinstance(cap, str) else float(cap)
        except OverflowError:
            cap = math.nan
        if not math.isfinite(cap):
            raise InputError(f"{path}: death_cap must be a finite number")
        if np.any(np.isinf(pd.deaths) & (pd.births > cap)):
            raise InputError(f"{path}: death_cap {cap!r} is below the birth "
                             "of an essential point")
    return pd


def _pgm_tokens(data, path, count, start):
    out = []
    for m in _PGM_TOKEN.finditer(data, start):
        tok = m[1]
        if tok is None:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise InputError(
                f"{path}: bad integer {tok!r} at byte {m.start()}") from None
        if len(out) == count:
            return out, m.end()
    raise InputError(
        f"{path}: truncated header at byte {max(start, len(data))}")


def read_pgm_tokens(path):
    data = _open_read(path, text=False)
    if len(data) < 2:
        raise InputError(f"{path}: not a PGM/PPM file")
    magic = data[:2].decode("ascii", "replace")
    if magic not in ("P2", "P5", "P3", "P6"):
        raise InputError(f"{path}: unsupported magic {magic!r}")
    color = magic in ("P3", "P6")
    binary = magic in ("P5", "P6")
    header, pos = _pgm_tokens(data, path, 3, 2)
    width, height, maxval = header
    if width < 1 or height < 1:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise InputError(f"{path}: maxval {maxval} outside [1, 65535]")
    n_samples = width * height * (3 if color else 1)
    if binary:
        pos += 1
        wide = maxval > 255
        need = n_samples * (2 if wide else 1)
        raw = data[pos:pos + need]
        if len(raw) < need:
            raise InputError(
                f"{path}: expected {need} sample bytes, got {len(raw)}")
        dtype = ">u2" if wide else np.uint8
        samples = np.frombuffer(raw, dtype=dtype, count=n_samples)
        samples = samples.astype(np.float64)
    else:
        toks, _ = _pgm_tokens(data, path, n_samples, pos)
        if not all(0 <= t <= maxval for t in toks):
            raise InputError(f"{path}: sample outside [0, {maxval}]")
        samples = np.array(toks, dtype=np.float64)
    if samples.min() < 0 or samples.max() > maxval:
        raise InputError(f"{path}: sample outside [0, {maxval}]")
    if color:
        rgb = samples.reshape(height, width, 3)
        return rgb.mean(axis=2) * (255.0 / maxval)
    return samples.reshape(height, width)


def read_voxel_lines(path):
    with _open_read(path) as fh:
        lines = fh.readlines()
    body = []
    for ln, line in enumerate(lines, 1):
        text = line.strip()
        if text and not text.startswith("#"):
            body.append((ln, text))
    if not body:
        raise InputError(f"{path}: empty voxel file")
    ln0, head = body[0]
    parts = head.split()
    if len(parts) != 3:
        raise InputError(f"{path}:{ln0}: header must be 'nx ny nz'")
    try:
        nx, ny, nz = (int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{path}:{ln0}: {exc}") from None
    if nx < 1 or ny < 1 or nz < 1:
        raise InputError(f"{path}:{ln0}: dimensions must be positive")
    vals = []
    for ln, text in body[1:]:
        for tok in text.split():
            try:
                vals.append(float(tok))
            except ValueError:
                raise InputError(f"{path}:{ln}: bad value {tok!r}") from None
        if len(vals) > nx * ny * nz:
            raise InputError(
                f"{path}:{ln}: more than {nx * ny * nz} values")
    if len(vals) != nx * ny * nz:
        raise InputError(
            f"{path}: expected {nx * ny * nz} values, got {len(vals)}")
    arr = np.array(vals, dtype=np.float64).reshape(nz, ny, nx)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite voxel values")
    return arr
