"""End-to-end acceptance gate.

Each test prints one "criterion NN: PASS/FAIL" line (straight to the
real stdout so the lines survive capture) and then asserts.  Numbers
follow the order below:

  01 worked-example boundary tables, ranks, Betti numbers, < 1 ms
  02 hollow-triangle / two-edge / path Betti numbers
  03 diagram Betti equals the elimination oracle on random inputs, < 30 s
  04 pairing is a partial matching; class accounting; boundary of boundary
  05 bottleneck stability under grid perturbation
  06 distances equal factorial brute force to 1e-9, < 10 s
  07 loop count separates one-circle from two-circle clouds
  08 perturbed window scores strictly maximal
  09 dominant loop point robust to additive noise
  10 diffusion smoothing increases distance from the reference
  11 KDE superlevel cluster count and translation monotonicity
  12 voxel void counts
  13 cycle sparsifier: homologous output, exact minimum under budget
  14 manifest replay reproduces every pipeline byte for byte
"""

import hashlib
import math
import time

import numpy as np
import pytest

from phom import (
    FilteredSimplicialComplex,
    Perturbation,
    betti_numbers,
    bottleneck_distance,
    boundary_chain,
    boundary_dense,
    build_boundary_matrix,
    build_cubical_filtration,
    cli,
    compute_persistence,
    cycle_boundary_is_zero,
    format_boundary_table,
    gen_diffusion_field,
    gen_periodic_pair,
    image_persistence,
    kde_grid,
    point_cloud_distances,
    representative_cycle,
    rips_persistence,
    sample_annulus,
    sample_double_annulus,
    sliding_windows,
    snf_rank,
    sparsify_cycle,
    superlevel_persistence,
    voxel_persistence,
    wasserstein_distance,
)
from oracles import (
    bitmask_rank,
    brute_bottleneck,
    brute_min_cycle_size,
    brute_wasserstein,
    cube_betti,
    cube_cells,
    random_filtration,
)


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per scenario, then the assert."""

    def _report(num, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {num:02d}: {status}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


NAMES = dict(enumerate("abcde"))

WORKED_CELLS = [
    ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0), ((4,), 0),
    ((0, 1), 0), ((0, 2), 0), ((0, 3), 0), ((1, 2), 0), ((1, 3), 0),
    ((3, 4), 0), ((0, 1, 2), 0)]

TABLE_D0 = """\
d0  [a] [b] [c] [d] [e]
[0]   0   0   0   0   0"""

TABLE_D1 = """\
d1  [a,b] [a,c] [a,d] [b,c] [b,d] [d,e]
[a]     1     1     1     0     0     0
[b]     1     0     0     1     1     0
[c]     0     1     0     1     0     0
[d]     0     0     1     0     1     1
[e]     0     0     0     0     0     1"""

TABLE_D2 = """\
d2    [a,b,c]
[a,b]       1
[a,c]       1
[a,d]       0
[b,c]       1
[b,d]       0
[d,e]       0"""


def test_worked_example_tables_ranks_betti(report):
    K = FilteredSimplicialComplex(WORKED_CELLS)

    def golden():
        t0 = format_boundary_table(build_boundary_matrix(K, 0), NAMES)
        t1 = format_boundary_table(build_boundary_matrix(K, 1), NAMES)
        t2 = format_boundary_table(build_boundary_matrix(K, 2), NAMES)
        r1 = snf_rank(build_boundary_matrix(K, 1)).rank
        r2 = snf_rank(build_boundary_matrix(K, 2)).rank
        return t0, t1, t2, r1, r2, betti_numbers(K, max_dim=1)

    golden()  # warm caches before timing
    best = math.inf
    for _ in range(5):
        tic = time.perf_counter()
        t0, t1, t2, r1, r2, betti = golden()
        best = min(best, time.perf_counter() - tic)

    ok = (t0 == TABLE_D0 and t1 == TABLE_D1 and t2 == TABLE_D2
          and r1 == 4 and r2 == 1
          and 6 - r1 == 2 and r2 == 1 and betti == [1, 1]
          and best < 1e-3)
    report(1, ok, f"rank d1={r1} rank d2={r2} betti={betti} "
            f"time={best * 1e6:.0f}us")


def test_small_complex_betti_numbers(report):
    hollow = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0),
        ((0, 1), 0), ((0, 2), 0), ((1, 2), 0)])
    two_edges = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0),
        ((0, 1), 0), ((2, 3), 0)])
    path = FilteredSimplicialComplex([
        ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0),
        ((0, 1), 0), ((1, 2), 0), ((2, 3), 0)])
    b1 = betti_numbers(hollow, max_dim=1)[1]
    b0_two = betti_numbers(two_edges, max_dim=0)[0]
    b0_path = betti_numbers(path, max_dim=0)[0]
    ok = b1 == 1 and b0_two == 2 and b0_path == 1
    report(2, ok, f"hollow b1={b1} two-edge b0={b0_two} path b0={b0_path}")


def test_diagram_betti_matches_elimination_oracle(report):
    tic = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = 0
    ok = True

    for _ in range(200):
        cells = random_filtration(rng, nv=int(rng.integers(4, 7)))
        assert len(cells) <= 60
        K = FilteredSimplicialComplex(cells)
        top = K.dim
        dg, _ = compute_persistence(K, max_dim=top)
        for t in np.unique(K.values):
            t = float(t)
            if dg.betti_at(t, max_dim=top) != \
                    betti_numbers(K.sublevel(t), max_dim=top):
                ok = False
            checks += 1

    for i in range(100):
        if i % 2 == 0:
            shape = (3, 3, 3)
        else:
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        g = np.round(rng.uniform(0, 1, size=shape), 1)
        K = build_cubical_filtration(g)
        top = len(shape)
        dg, _ = compute_persistence(K, max_dim=top)
        for t in np.unique(K.values):
            t = float(t)
            if dg.betti_at(t, max_dim=top) != \
                    betti_numbers(K.sublevel(t), max_dim=top):
                ok = False
            checks += 1

    took = time.perf_counter() - tic
    ok = ok and took < 30.0
    report(3, ok, f"{checks} threshold checks in {took:.1f}s")


def test_pairing_accounting_and_boundary_squared(report):
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(40):
        K = FilteredSimplicialComplex(
            random_filtration(rng, nv=int(rng.integers(4, 7))))
        top = K.dim
        _, pairing = compute_persistence(K, max_dim=top)

        # Partial matching: every cell is a birth, a death, or essential,
        # exactly once; deaths follow births with one dimension up.
        births = [i for i, _ in pairing.pairs]
        deaths = [j for _, j in pairing.pairs]
        seen = births + deaths + pairing.essential
        if len(seen) != len(set(seen)) or len(seen) != K.n_cells:
            ok = False
        for i, j in pairing.pairs:
            if not (i < j and K.dims[j] == K.dims[i] + 1
                    and K.values[i] <= K.values[j]):
                ok = False

        # Class accounting at every scale: births minus deaths equals
        # the Betti number of the thresholded complex.
        for t in np.unique(K.values):
            t = float(t)
            want = betti_numbers(K.sublevel(t), max_dim=top)
            for k in range(top + 1):
                made = sum(1 for i, _ in pairing.pairs
                           if K.dims[i] == k and K.values[i] <= t)
                made += sum(1 for i in pairing.essential
                            if K.dims[i] == k and K.values[i] <= t)
                gone = sum(1 for i, j in pairing.pairs
                           if K.dims[i] == k and K.values[j] <= t)
                if made - gone != want[k]:
                    ok = False

        # Boundary of boundary vanishes: by face counting and as matrices.
        for s, _ in K.items():
            if s.dimension >= 2:
                grand = [g for f in boundary_chain(s)
                         for g in boundary_chain(f)]
                if any(grand.count(g) % 2 for g in set(grand)):
                    ok = False
        for k in range(2, K.dim + 1):
            prod = (boundary_dense(K, k - 1).astype(np.int64)
                    @ boundary_dense(K, k).astype(np.int64)) % 2
            if prod.any():
                ok = False
    report(4, ok, "matching, accounting and d(d(.)) = 0 on 40 filtrations")


def test_bottleneck_stability_under_grid_noise(report):
    rng = np.random.default_rng(42)
    fails = 0
    worst = 0.0
    for trial in range(200):
        if trial % 4 == 0:
            shape = (3, 3, 3)
        else:
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        g = rng.uniform(0.0, 1.0, size=shape)
        e = rng.uniform(-1.0, 1.0, size=shape)
        delta = float(rng.uniform(0.01, 0.5))
        e *= delta / np.abs(e).max()
        g2 = g + e
        if len(shape) == 2:
            d1, d2 = image_persistence(g), image_persistence(g2)
        else:
            d1, d2 = voxel_persistence(g), voxel_persistence(g2)
        for dim in range(len(shape)):
            db = bottleneck_distance(d1, d2, dim=dim).value
            worst = max(worst, db - delta)
            if not db <= delta + 1e-9:
                fails += 1
    ok = fails == 0
    report(5, ok, f"200 grid pairs, max(d_B - delta)={worst:.2e}")


def test_distances_match_brute_force(report):
    tic = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True

    def random_sets():
        fin = []
        for _ in range(int(rng.integers(0, 7))):
            b = round(float(rng.uniform(0, 2)), 3)
            fin.append((b, b + round(float(rng.uniform(0, 2)), 3) + 1e-3))
        ess = []
        for _ in range(int(rng.integers(0, 3))):
            if rng.random() < 0.3:
                ess.append(round(float(rng.uniform(0, 2)), 3))
        return fin, sorted(ess)

    from phom import PersistenceDiagram

    def as_diagram(fin, ess):
        pts = [(1, b, d) for b, d in fin] + [(1, b, math.inf) for b in ess]
        return PersistenceDiagram.from_points(pts)

    for _ in range(500):
        f1, e1 = random_sets()
        f2, e2 = random_sets()
        d1, d2 = as_diagram(f1, e1), as_diagram(f2, e2)

        got = bottleneck_distance(d1, d2, dim=1).value
        want = brute_bottleneck(f1, f2, e1, e2)
        if math.isinf(want) != math.isinf(got):
            ok = False
        elif not math.isinf(want):
            worst = max(worst, abs(got - want))
        for p in (1.0, 2.0):
            got = wasserstein_distance(d1, d2, dim=1, p=p).value
            want = brute_wasserstein(f1, f2, e1, e2, p)
            if math.isinf(want) != math.isinf(got):
                ok = False
            elif not math.isinf(want):
                worst = max(worst, abs(got - want))
    took = time.perf_counter() - tic
    ok = ok and worst <= 1e-9 and took < 10.0
    report(6, ok, f"500 trials, worst |diff|={worst:.1e}, {took:.1f}s")


def _prominent_loop_count(points, max_scale):
    dg = rips_persistence(point_cloud_distances(points), 1, max_scale,
                          "radius")
    pers = []
    for dim, b, dth in dg.points:
        if dim != 1:
            continue
        pers.append((max_scale - b) if math.isinf(dth) else (dth - b))
    if not pers:
        return 0
    cut = max(pers) / 2.0
    return sum(1 for p in pers if p > cut)


def test_loop_count_separates_cloud_classes(report):
    max_scale = 0.6
    counts_one, counts_two = [], []
    for seed in range(50):
        counts_one.append(_prominent_loop_count(
            sample_annulus(200, noise=0.05, seed=seed), max_scale))
        counts_two.append(_prominent_loop_count(
            sample_double_annulus(200, noise=0.05, seed=seed), max_scale))
    correct = sum(1 for c in counts_one if c < 2)
    correct += sum(1 for c in counts_two if c >= 2)
    acc = correct / 100.0
    ok = acc >= 0.95
    report(7, ok, f"threshold 'count >= 2' accuracy {acc:.0%}, "
            f"one-loop counts {sorted(set(counts_one))}, "
            f"two-loop counts {sorted(set(counts_two))}")


def _window_diagrams(series):
    wins = sliding_windows(series, 64, 64)
    dmats = [point_cloud_distances(w) for w in wins]
    ms = max(float(m.max()) for m in dmats) / 2.0
    return [rips_persistence(m, 1, ms, "radius") for m in dmats]


def test_perturbed_window_scores_strictly_max(report):
    fails = []
    for seed in range(20):
        series = gen_periodic_pair(
            256, frequency=1.0 / 64.0,
            perturbation=Perturbation("scale", 0.35, 192, 256),
            noise_sigma=0.02, seed=seed)
        dgs = _window_diagrams(series)
        scores = [bottleneck_distance(dg, dgs[0], dim=1).value
                  for dg in dgs]
        if not all(scores[3] > scores[k] for k in range(3)):
            fails.append(seed)
    ok = not fails
    report(8, ok, f"20 seeds, perturbed window maximal; fails={fails}")


def _dominant_loop(series):
    d = point_cloud_distances(series)
    dg = rips_persistence(d, 1, float(d.max()) / 2.0, "radius")
    fin = dg.in_dim(1, finite=True)
    assert fin.shape[0] > 0
    return fin[np.argmax(fin[:, 1] - fin[:, 0])]


def test_dominant_loop_robust_to_noise(report):
    sigma = 0.05
    worst = 0.0
    for seed in range(20):
        clean = _dominant_loop(gen_periodic_pair(
            64, amplitude=1.0, frequency=1.0 / 64.0, seed=seed))
        noisy = _dominant_loop(gen_periodic_pair(
            64, amplitude=1.0, frequency=1.0 / 64.0, noise_sigma=sigma,
            seed=seed))
        gap = float(np.max(np.abs(clean - noisy)))
        worst = max(worst, gap)
    ok = worst <= 3.0 * sigma
    report(9, ok, f"20 seeds, worst point drift {worst:.3f} <= "
            f"{3 * sigma:.2f}")


def test_diffusion_smoothing_is_monotone(report):
    coeffs = [round(0.1 * k, 1) for k in range(1, 10)]
    sums = np.zeros(len(coeffs))
    for seed in range(10):
        ref = image_persistence(gen_diffusion_field(
            n=32, coeff=coeffs[0], steps=50, dt=0.2, seed=seed), max_dim=0)
        for ci, coeff in enumerate(coeffs):
            dg = image_persistence(gen_diffusion_field(
                n=32, coeff=coeff, steps=50, dt=0.2, seed=seed), max_dim=0)
            sums[ci] += wasserstein_distance(ref, dg, dim=0, p=1.0).value
    means = sums / 10.0
    ok = all(means[i] < means[i + 1] for i in range(len(means) - 1))
    report(10, ok, "mean W1 to the low-coefficient reference: "
            + " ".join(f"{v:.3f}" for v in means))


def _two_cluster_diagram(separation):
    base = np.random.default_rng(7).normal(0.0, 0.15, size=(400, 2))
    pts = base.copy()
    half = pts.shape[0] // 2
    pts[:half, 0] -= separation / 2.0
    pts[half:, 0] += separation / 2.0
    field = kde_grid(pts, resolution=64, bandwidth=0.12)
    return superlevel_persistence(field.values, max_dim=0)


def test_kde_cluster_count_and_translation(report):
    dg = _two_cluster_diagram(1.2)
    pts = [(b, d) for k, b, d in dg.points if k == 0]
    vtop = max(d for _, d in pts if math.isfinite(d))
    pers = [((d if math.isfinite(d) else vtop) - b) for b, d in pts]
    cut = max(pers) / 2.0
    count = sum(1 for p in pers if p > cut)

    seps = [0.25 * 1.3 ** i for i in range(5)]
    ref = _two_cluster_diagram(seps[0])
    dists = [wasserstein_distance(ref, _two_cluster_diagram(s),
                                  dim=0, p=2.0).value for s in seps]
    mono = all(dists[i] < dists[i + 1] for i in range(len(dists) - 1))

    ok = count == 2 and mono
    report(11, ok, f"cluster count {count}, W2 path "
            + " ".join(f"{v:.4f}" for v in dists))


def _pocket_grid(k):
    g = np.zeros((3, 3, 4 * k - 1))
    for i in range(k):
        g[1, 1, 4 * i + 1] = 1.0
    return g


def test_voxel_void_counts(report):
    shell = _pocket_grid(1)
    dg = voxel_persistence(shell)
    got = dg.in_dim(2).tolist()
    ok = got == [[0.0, 1.0]]

    # Cross-check both thresholds against the elimination oracle.
    cmap = cube_cells(shell)
    for t, want_b2 in ((0.0, 1), (1.0, 0)):
        sub = {c: v for c, v in cmap.items() if v <= t}
        if cube_betti(sub, 2)[2] != want_b2:
            ok = False

    counts = []
    for k in (1, 2, 3):
        dgk = voxel_persistence(_pocket_grid(k))
        voids = dgk.in_dim(2).tolist()
        counts.append(len(voids))
        if voids != [[0.0, 1.0]] * k:
            ok = False
    ok = ok and counts == [1, 2, 3]
    report(12, ok, f"void counts for 1..3 pockets: {counts}")


def test_sparsifier_budget_and_minimality(report):
    rng = np.random.default_rng(97)
    ok = True
    exact_checked = 0
    homologous_checked = 0
    complexes = 0
    while complexes < 50:
        K = FilteredSimplicialComplex(random_filtration(rng, nv=6))
        if K.dim < 1:
            continue
        complexes += 1
        dg, pairing = compute_persistence(K, max_dim=K.dim)
        for pt in dg.points:
            if pt[0] < 1:
                continue
            cyc = representative_cycle(pairing, pt)
            sparse = sparsify_cycle(cyc, budget=20)
            if len(sparse) > len(cyc) or not cycle_boundary_is_zero(sparse):
                ok = False

            # Set up the birth-scale chain problem the sparsifier solves.
            kdim = pt[0]
            m = int(np.searchsorted(K.values, pt[1], side="right"))
            k_ids = [i for i in range(m) if K.dims[i] == kdim]
            rank = {g: r for r, g in enumerate(k_ids)}
            start = sum(1 << rank[int(i)] for i in cyc.cells)
            got = sum(1 << rank[int(i)] for i in sparse.cells)
            cofs = []
            for j in range(m):
                if K.dims[j] == kdim + 1:
                    mask = 0
                    for f in K.boundary(j):
                        mask ^= 1 << rank[int(f)]
                    cofs.append(mask)

            # Homologous: the difference must be a boundary.
            if bitmask_rank(cofs) != bitmask_rank(cofs + [start ^ got]):
                ok = False
            homologous_checked += 1

            if len(cofs) <= 20:
                if len(sparse) != brute_min_cycle_size(start, cofs):
                    ok = False
                exact_checked += 1
    ok = ok and exact_checked >= 20 and homologous_checked >= 40
    report(13, ok, f"{homologous_checked} cycles homologous, "
            f"{exact_checked} exact minima confirmed")


def _tree_digest(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.md5(
                p.read_bytes()).hexdigest()
    return out


def test_manifest_replay_reproduces_everything(report, tmp_path):
    def run(*argv):
        rc = cli.main([str(a) for a in argv])
        assert rc == 0, argv
        return rc

    ann = tmp_path / "ann.csv"
    run("gen", "annulus", "-n", 40, "--noise", 0.05, "--seed", 3, "-o", ann)
    dg = tmp_path / "dg.csv"
    run("rips", ann, "-o", dg, "--svg", "--save-complex",
        tmp_path / "ann.cplx")
    run("vectorize", dg, "-o", tmp_path / "img.json",
        "--resolution", 10, 10, "--sigma", 0.05)

    two = tmp_path / "two.csv"
    run("gen", "double-annulus", "-n", 40, "--seed", 4, "-o", two)
    dg2 = tmp_path / "dg2.csv"
    run("rips", two, "-o", dg2)
    run("distance", dg, dg2, "-o", tmp_path / "rep.json",
        "--metric", "wasserstein", "--p", 2.0)

    pd = [l for l in dg.read_text().splitlines() if not l.startswith("#")]
    h1_idx = next(i for i, l in enumerate(pd[1:]) if l.startswith("1,"))
    run("sparsify", "--complex", tmp_path / "ann.cplx", "--diagram", dg,
        "--point", h1_idx, "-o", tmp_path / "cycle.json")

    run("gen", "periodic", "-n", 128, "--noise", 0.01, "--seed", 5,
        "-o", tmp_path / "series.csv")
    run("series", tmp_path / "series.csv", "--out-dir", tmp_path / "run",
        "--window", 32, "--stride", 32)

    run("gen", "diffusion", "--size", 10, "--steps", 10, "--seed", 6,
        "--format", "pgm", "-o", tmp_path / "u.pgm")
    run("image", tmp_path / "u.pgm", "-o", tmp_path / "dgi.csv", "--svg")

    run("gen", "kde", ann, "--resolution", 16, "--bandwidth", 0.3,
        "-o", tmp_path / "density.vox")
    run("voxel", tmp_path / "density.vox", "--superlevel",
        "-o", tmp_path / "dgv.csv")

    before = _tree_digest(tmp_path)
    manifests = [p for p in sorted(tmp_path.rglob("*manifest.json"))]
    for m in manifests:
        run("--manifest", m)
    after = _tree_digest(tmp_path)

    ok = before == after and len(manifests) >= 12
    changed = sorted(k for k in before if before[k] != after.get(k))
    report(14, ok, f"{len(manifests)} manifests replayed; "
            f"changed files: {changed if changed else 'none'}")
