"""Well-formed inputs whose values sit at the float extremes: every run
keeps the exit-code contract (0, 2 or 3, never 4), and every successful
run replays byte for byte from its manifest.  The explicit path (`phom
rips --save-complex`, then `phom sparsify` on every diagram point) runs
on clouds and distance matrices of such values, and the cubical one on
images and voxel files."""

import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from phom import cli, simplicial
from phom.io import read_diagram_csv, write_point_cloud

EXTREMES = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.0,
            1e308, sys.float_info.max]


def run(*argv):
    return cli.main([str(a) for a in argv])


def assert_replays(tmp, manifest):
    """Replaying the manifest exits 0 and leaves every file in tmp as it
    was, byte for byte."""
    before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    assert run("--manifest", Path(tmp) / manifest) == 0
    assert before == {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


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
            assert_replays(tmp, "dg.manifest.json")


# Coordinates and distances for the explicit path: ties, zeros of both
# signs, subnormals, 1e154 (whose square is near the top of float64) and
# +-1e308 (whose differences overflow).
EXPLICIT = [0.0, -0.0, 5e-324, 1e-320, 1.0, 2.0, 1e154, -1e154, 1e308,
            -1e308]


@st.composite
def explicit_inputs(draw):
    """(values, is a distance matrix): an n x d cloud, or a symmetric
    n x n matrix with a zero diagonal of either sign, 1 <= n <= 5, of
    values drawn from EXPLICIT."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        return np.array(draw(st.lists(st.sampled_from(EXPLICIT),
                                      min_size=n * d, max_size=n * d))
                        ).reshape(n, d), False
    m = n * (n - 1) // 2
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = draw(st.lists(
        st.sampled_from([abs(x) for x in EXPLICIT]), min_size=m, max_size=m))
    a += a.T
    np.fill_diagonal(a, draw(st.lists(st.sampled_from([0.0, -0.0]),
                                      min_size=n, max_size=n)))
    return a, True


@settings(max_examples=150, deadline=None)
@given(case=explicit_inputs(),
       convention=st.sampled_from(["radius", "diameter"]),
       max_scale=st.none() | st.sampled_from([1e-320, 1.0, 1e154, 1e308]))
def test_save_complex_and_sparsify_at_float_extremes(case, convention,
                                                     max_scale):
    values, matrix = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.csv", Path(tmp) / "dg.csv"
        cache = Path(tmp) / "K.cplx"
        write_point_cloud(str(src), values)
        argv = ["rips", src, "-o", out, "--save-complex", cache,
                "--convention", convention]
        argv += ["--distance-matrix"] if matrix else []
        argv += [] if max_scale is None else ["--max-scale", max_scale]
        code = run(*argv)
        assert code in (0, 2, 3)
        if code != 0:
            return
        assert_replays(tmp, "dg.manifest.json")
        for i in range(len(read_diagram_csv(str(out)))):
            sparse = Path(tmp) / f"sparse{i}.json"
            code = run("sparsify", "--complex", cache, "--diagram", out,
                       "--point", i, "-o", sparse)
            assert code in (0, 2, 3)
            if code == 0:
                assert_replays(tmp, f"sparse{i}.manifest.json")


@st.composite
def extreme_series(draw):
    """A two-column series of 1-12 rows of EXTREMES and their negatives,
    and a window of at most its length."""
    n = draw(st.integers(1, 12))
    value = st.sampled_from(EXTREMES + [-x for x in EXTREMES])
    rows = draw(st.lists(st.tuples(value, value), min_size=n, max_size=n))
    return np.array(rows), draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(case=extreme_series(), stride=st.integers(1, 12),
       convention=st.sampled_from(["radius", "diameter"]),
       max_scale=st.none() | st.sampled_from(EXTREMES))
def test_series_at_float_extremes(case, stride, convention, max_scale):
    series, window = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "s.csv", Path(tmp) / "run"
        write_point_cloud(str(src), series)
        argv = ["series", src, "--out-dir", out, "--window", window,
                "--stride", stride, "--convention", convention]
        if max_scale is not None:
            argv += ["--max-scale", max_scale]
        code = run(*argv)
        assert code in (0, 2, 3)
        if code == 2:  # every input is checked before the out dir exists
            assert not out.exists()
        if code == 0:
            assert_replays(out, "run.manifest.json")


def test_series_with_an_overflowing_window_writes_nothing(tmp_path,
                                                          monkeypatch):
    """The last window's distances overflow: with chunks of one window,
    the runs with and without --max-scale exit 2 before the out dir or
    any window file exists."""
    monkeypatch.setattr(simplicial, "_BLOCK_ENTRIES", 4)
    src = tmp_path / "s.csv"
    write_point_cloud(str(src), np.array(
        [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1e308, -1e308]]))
    for extra in ([], ["--max-scale", 1.0]):
        out = tmp_path / f"run{len(extra)}"
        assert run("series", src, "--out-dir", out, "--window", 2,
                   "--stride", 1, *extra) == 2
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


@st.composite
def pgm_files(draw):
    """The bytes of a well-formed P2 or P5 file at maxval 1 or 65535:
    flat, one row, one column, or tied samples."""
    maxval = draw(st.sampled_from([1, 65535]))
    shape = draw(st.sampled_from(["flat", "row", "column", "tied"]))
    h = 1 if shape == "row" else draw(st.integers(1, 5))
    w = 1 if shape == "column" else draw(st.integers(1, 5 + 7 * (h == 1)))
    levels = sorted({0, 1, maxval // 2, maxval - 1, maxval})
    if shape == "flat":
        samples = [draw(st.sampled_from(levels))] * (h * w)
    else:
        samples = draw(st.lists(st.sampled_from(levels), min_size=h * w,
                                max_size=h * w))
    binary = draw(st.booleans())
    head = b"P%d\n%d %d\n%d\n" % (5 if binary else 2, w, h, maxval)
    if not binary:
        return head + " ".join(map(str, samples)).encode() + b"\n"
    return head + np.array(samples, dtype=">u2" if maxval > 255
                           else np.uint8).tobytes()


@st.composite
def voxel_texts(draw):
    """A voxel file of 1-3 cells per axis whose values are EXTREMES and
    their negatives."""
    nx, ny, nz = (draw(st.integers(1, 3)) for _ in range(3))
    values = draw(st.lists(st.sampled_from(EXTREMES + [-x for x in EXTREMES]),
                           min_size=nx * ny * nz, max_size=nx * ny * nz))
    return f"{nx} {ny} {nz}\n" + " ".join(map(repr, values)) + "\n"


@settings(max_examples=80, deadline=None)
# One voxel at 1e308: the diagram plot's range rounds to nothing.
@example(data=("voxel", "g.vox", b"1 1 1\n1e+308\n"), superlevel=False,
         svg=True, cache=False, max_dim=None, budget=20)
@given(data=st.one_of(pgm_files().map(lambda b: ("image", "g.pgm", b)),
                      voxel_texts().map(lambda t: ("voxel", "g.vox",
                                                   t.encode()))),
       superlevel=st.booleans(), svg=st.booleans(), cache=st.booleans(),
       max_dim=st.none() | st.integers(0, 3), budget=st.integers(0, 22))
def test_image_and_voxel_at_float_extremes(data, superlevel, svg, cache,
                                           max_dim, budget):
    """With a cache, `phom sparsify` then runs on every diagram point."""
    command, name, content = data
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / name, Path(tmp) / "dg.csv"
        cplx = Path(tmp) / "K.cplx"
        src.write_bytes(content)
        argv = [command, src, "-o", out]
        argv += ["--superlevel"] if superlevel else []
        argv += ["--svg"] if svg else []
        argv += ["--save-complex", cplx] if cache else []
        argv += [] if max_dim is None else ["--max-dim", max_dim]
        code = run(*argv)
        assert code in (0, 2, 3)
        if code != 0:
            return
        assert_replays(tmp, "dg.manifest.json")
        for i in range(len(read_diagram_csv(str(out))) if cache else 0):
            sparse = Path(tmp) / f"sparse{i}.json"
            code = run("sparsify", "--complex", cplx, "--diagram", out,
                       "--point", i, "--budget", budget, "-o", sparse)
            assert code in (0, 2, 3)
            if code == 0:
                assert_replays(tmp, f"sparse{i}.manifest.json")
