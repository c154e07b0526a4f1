"""Golden bytes: the SHA-256 of `phom rips`, `phom series` and `phom
sparsify` outputs on fixed, seeded inputs.

The hashes were recorded from the int64 engine.  At n=150 the H1 cell
keys rank * 151**3 + lex pass 2**31 (the tied matrix's H2 keys do too),
so a product taken in int32 would change these bytes.  The rips cases
hash the diagram CSV and its SVG; the series case hashes every window
diagram and the score file.  The explicit-path cases hash the
`--save-complex` cache, the diagram and the `phom sparsify` JSON of
several points, and the boundary tables of one small complex built
three ways.  Manifests hold input paths and are left out.
"""

import hashlib

import numpy as np
import pytest

from phom import (FilteredSimplicialComplex, build_boundary_matrix, cli,
                  format_boundary_table, point_cloud_distances,
                  rips_filtration)
from phom.io import (read_complex_cache, read_diagram_csv,
                     write_complex_cache, write_point_cloud)


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def annulus(tmp):
    path = tmp / "ann.csv"
    run("gen", "annulus", "-n", 150, "--noise", 0.05, "--seed", 3,
        "-o", path)
    return path


def cube(tmp):
    path = tmp / "cube.csv"
    write_point_cloud(str(path),
                      np.random.default_rng(7).uniform(size=(60, 3)))
    return path


def tied(tmp):
    """150 points, distances 0..29 with zeros of both signs."""
    rng = np.random.default_rng(11)
    n = 150
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = rng.integers(0, 30, size=n * (n - 1) // 2)
    d += d.T
    d[(d == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    path = tmp / "tied.csv"
    write_point_cloud(str(path), d)
    return path


RIPS = {
    "annulus-radius": (annulus, ["--max-scale", 0.6]),
    "annulus-diameter": (annulus, ["--max-scale", 0.6,
                                   "--convention", "diameter"]),
    "cube-h2": (cube, ["--max-dim", 2]),
    "tied-h2": (tied, ["--distance-matrix", "--max-dim", 2,
                       "--max-scale", 2.5]),
}

GOLDEN = {
    "annulus-radius":
        "c5bc59124f398aef0f7f57bbe030111728eeb17b0c572a6d2f0189e12892338b",
    "annulus-diameter":
        "eb0ead87fea409593e35becef2ecf82565806a49a2a845503f6f442893d93a7f",
    "cube-h2":
        "569fc8e7da8b3ab3ac97816101c884cce95245f241d04187d8130fc1478c0c34",
    "tied-h2":
        "368462a7aab76b47e117afff81470c13ecc0c7f77d7f73264ff36457108fc1c7",
    "series":
        "a4bb126d08ef27da32bef045d41b79b2a2e828f004f8732a9ef8621a25937c3a",
}


@pytest.mark.parametrize("case", sorted(RIPS))
def test_rips_output_bytes(tmp_path, case):
    make, flags = RIPS[case]
    out = tmp_path / "dg.csv"
    run("rips", make(tmp_path), "-o", out, "--svg", *flags)
    assert digest(out, tmp_path / "dg.svg") == GOLDEN[case]


def test_series_output_bytes(tmp_path):
    src = tmp_path / "series.csv"
    run("gen", "periodic", "-n", 512, "--noise", 0.05,
        "--perturb", "scale", 1.5, 300, 380, "--seed", 5, "-o", src)
    out = tmp_path / "out"
    run("series", src, "--out-dir", out, "--window", 48, "--stride", 24)
    files = sorted(out.glob("window_*.csv")) + [out / "score.csv"]
    assert len(files) == 21
    assert digest(*files) == GOLDEN["series"]


def small_annulus(tmp):
    path = tmp / "ann.csv"
    run("gen", "annulus", "-n", 40, "--noise", 0.05, "--seed", 3,
        "-o", path)
    return path


def octahedron(n_extra=8):
    """The octahedron's vertices and n_extra random points on the unit
    sphere, with noise: a 3-d cloud with one H2 class."""
    rng = np.random.default_rng(7)
    pts = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(n_extra, 3))])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts + rng.normal(scale=0.03, size=pts.shape)


def sphere(tmp):
    path = tmp / "sphere.csv"
    write_point_cloud(str(path), octahedron())
    return path


def small_tied(tmp):
    """16 points, distances 0..5 with zeros of both signs."""
    rng = np.random.default_rng(11)
    n = 16
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = rng.integers(0, 6, size=n * (n - 1) // 2)
    d += d.T
    d[(d == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    path = tmp / "tied.csv"
    write_point_cloud(str(path), d)
    return path


EXPLICIT = {
    "annulus-cache": (small_annulus, ["--max-scale", 0.6]),
    "sphere-h2-cache": (sphere, []),
    "tied-h2-cache": (small_tied, ["--distance-matrix", "--max-dim", 2,
                                   "--max-scale", 2.5]),
}

GOLDEN_EXPLICIT = {
    "annulus-cache":
        "40f4e8a7146a893aca9980f9051ae296ba0b20c4d8b83351657b06939a0577be",
    "sphere-h2-cache":
        "254dd73df80a3f372163dce770d58cba021c1c9aaebfd988938ad40174503ad4",
    "tied-h2-cache":
        "813c489828055f365f2efa47aca4b7aa26e743b30061dd24f5a6a82db19d3485",
    "tables":
        "6d2491259fc5cafb2a5fe7b4127f66805615ffdde68256defa17f5c9a3ab74d4",
}


@pytest.mark.parametrize("case", sorted(EXPLICIT))
def test_save_complex_and_sparsify_bytes(tmp_path, case):
    """The cache of `phom rips --save-complex` (built by
    rips_filtration), then `phom sparsify` on the first point and on
    every point of dimension >= 1."""
    make, flags = EXPLICIT[case]
    out, cache = tmp_path / "dg.csv", tmp_path / "K.cplx"
    run("rips", make(tmp_path), "-o", out, "--save-complex", cache, *flags)
    dims = read_diagram_csv(str(out)).dims
    files = [cache, out]
    for i in [0] + np.flatnonzero(dims >= 1).tolist():
        files.append(tmp_path / f"sparse{i}.json")
        run("sparsify", "--complex", cache, "--diagram", out,
            "--point", i, "--budget", 10, "-o", files[-1])
    assert len(files) > 4
    assert digest(*files) == GOLDEN_EXPLICIT[case]


def test_boundary_tables_bytes(tmp_path):
    """format_boundary_table of every boundary matrix of one complex, as
    rips_filtration builds it, as FilteredSimplicialComplex builds it
    from its cells and as a cache reads it back."""
    K = rips_filtration(point_cloud_distances(octahedron(0)), 3, 1.1)
    cache = tmp_path / "K.cplx"
    write_complex_cache(str(cache), K)
    tables = [
        "\n\n".join(format_boundary_table(build_boundary_matrix(L, k))
                     for k in range(4))
        for L in (K, FilteredSimplicialComplex(K.items()),
                  read_complex_cache(str(cache)))]
    assert tables[0] == tables[1] == tables[2]
    assert hashlib.sha256(tables[0].encode()).hexdigest() == \
        GOLDEN_EXPLICIT["tables"]
