"""Golden bytes: the SHA-256 of `phom rips` and `phom series` outputs on
fixed, seeded inputs.

The hashes were recorded from the int64 engine.  At n=150 the H1 cell
keys rank * 151**3 + lex pass 2**31 (the tied matrix's H2 keys do too),
so a product taken in int32 would change these bytes.  The rips cases
hash the diagram CSV and its SVG; the series case hashes every window
diagram and the score file.  Manifests hold input paths and are left
out.
"""

import hashlib

import numpy as np
import pytest

from phom import cli
from phom.io import write_point_cloud


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
