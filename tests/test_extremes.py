"""Well-formed inputs whose values sit at the float extremes: every run
keeps the exit-code contract (0, 2 or 3, never 4), and every successful
run replays byte for byte from its manifest."""

import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from phom import cli
from phom.io import write_point_cloud

EXTREMES = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.0,
            1e308, sys.float_info.max]


def run(*argv):
    return cli.main([str(a) for a in argv])


@st.composite
def extreme_matrices(draw):
    """A symmetric n x n matrix, 1 <= n <= 6, of values drawn from
    EXTREMES, so ties are common; the diagonal holds 0.0 or -0.0.  Some
    matrices are then broken by one negative or one asymmetric entry."""
    n = draw(st.integers(1, 6))
    m = n * (n - 1) // 2
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from(EXTREMES),
                                             min_size=m, max_size=m))
    d += d.T
    np.fill_diagonal(d, draw(st.lists(st.sampled_from([0.0, -0.0]),
                                      min_size=n, max_size=n)))
    if n > 1 and draw(st.booleans()):
        d[0, 1] = draw(st.sampled_from([-1e308, -5e-324, 2.0]))
    return d


@settings(max_examples=150, deadline=None)
@given(d=extreme_matrices(),
       convention=st.sampled_from(["radius", "diameter"]),
       max_dim=st.integers(0, 2),
       max_scale=st.none() | st.sampled_from(EXTREMES))
def test_rips_distance_matrix_at_float_extremes(d, convention, max_dim,
                                                max_scale):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "d.csv", Path(tmp) / "dg.csv"
        write_point_cloud(str(src), d)
        argv = ["rips", src, "-o", out, "--distance-matrix", "--svg",
                "--convention", convention, "--max-dim", max_dim]
        if max_scale is not None:
            argv += ["--max-scale", max_scale]
        code = run(*argv)
        assert code in (0, 2, 3)
        if code == 0:
            before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
            assert run("--manifest", Path(tmp) / "dg.manifest.json") == 0
            after = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
            assert before == after
