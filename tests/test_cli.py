"""End-to-end command-line flows, exit codes, and manifest replay."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phom import (build_cubical_filtration, cli, compute_persistence,
                  cubical, matching_cost, point_cloud_distances,
                  rips_filtration, sample_annulus, sample_double_annulus,
                  simplicial, sliding_windows)
from phom.io import (
    read_complex_cache,
    read_diagram_csv,
    read_distance_report,
    read_image_json,
    read_pgm,
    read_point_cloud,
    read_voxel,
    write_pgm,
    write_point_cloud,
    write_complex_cache,
    write_diagram_csv,
    write_voxel,
)
from phom.persistence import MAX_BUDGET


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_gen_annulus_and_rips_pipeline(tmp_path):
    cloud = tmp_path / "ann.csv"
    dg = tmp_path / "dg.csv"
    assert run("gen", "annulus", "-n", 40, "--noise", 0.02, "--seed", 1,
               "-o", cloud) == 0
    assert read_point_cloud(str(cloud)).shape == (40, 2)

    assert run("rips", cloud, "-o", dg, "--svg",
               "--save-complex", tmp_path / "ann.cplx") == 0
    pd = read_diagram_csv(str(dg))
    assert pd.metadata["filtration"] == "rips"
    assert pd.metadata["convention"] == "radius"
    assert any(d == 1 for d, _, _ in pd.points)
    svg = (tmp_path / "dg.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    K = read_complex_cache(str(tmp_path / "ann.cplx"))
    assert K.meta["kind"] == "rips"
    assert (tmp_path / "dg.manifest.json").exists()


def test_rips_distance_matrix_input(tmp_path):
    dm = tmp_path / "d.csv"
    dm.write_text("0,1,1\n1,0,1\n1,1,0\n")
    out = tmp_path / "dg.csv"
    assert run("rips", dm, "--distance-matrix", "--max-scale", 0.5,
               "-o", out) == 0
    pd = read_diagram_csv(str(out))
    assert pd.metadata["max_scale"] == 0.5


def test_rips_3d_cloud_defaults_to_h2(tmp_path):
    cloud = tmp_path / "c.csv"
    rng = np.random.default_rng(0)
    write_point_cloud(str(cloud), rng.uniform(0, 1, size=(12, 3)))
    out = tmp_path / "dg.csv"
    assert run("rips", cloud, "-o", out) == 0
    assert read_diagram_csv(str(out)).metadata["max_dim"] == 2


def test_image_sublevel_and_superlevel(tmp_path):
    pgm = tmp_path / "img.pgm"
    g = np.full((5, 5), 200)
    g[2, 2] = 10
    write_pgm(str(pgm), g)
    out = tmp_path / "dg.csv"
    assert run("image", pgm, "-o", out) == 0
    pd = read_diagram_csv(str(out))
    assert pd.metadata["direction"] == "sublevel"
    assert (0, 10.0, math.inf) in pd.points

    sup = tmp_path / "sup.csv"
    assert run("image", pgm, "--superlevel", "-o", sup) == 0
    ps = read_diagram_csv(str(sup))
    assert ps.metadata["direction"] == "superlevel"
    assert (0, -200.0, math.inf) in ps.points


def test_voxel_finds_enclosed_void(tmp_path):
    vox = tmp_path / "g.vox"
    grid = np.zeros((3, 3, 3))
    grid[1, 1, 1] = 1.0
    write_voxel(str(vox), grid)
    out = tmp_path / "dg.csv"
    assert run("voxel", vox, "-o", out) == 0
    pd = read_diagram_csv(str(out))
    assert (2, 0.0, 1.0) in pd.points


def test_vectorize_with_range(tmp_path):
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n1,0.2,0.9\n1,0.4,1.3\n")
    out = tmp_path / "img.json"
    assert run("vectorize", dg, "-o", out, "--resolution", 8, 10,
               "--sigma", 0.15, "--range", 0, 1, 0, 1.5) == 0
    img = read_image_json(str(out))
    assert img.resolution == (8, 10)
    assert img.support == ((0.0, 1.0), (0.0, 1.5))
    assert img.sigma == 0.15
    assert img.pixels.sum() > 0


def test_distance_command(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("dim,birth,death\n1,0.0,2.0\n")
    b.write_text("dim,birth,death\n1,0.0,3.0\n")
    out = tmp_path / "rep.json"
    assert run("distance", a, b, "-o", out, "--metric", "bottleneck") == 0
    rep = read_distance_report(str(out))
    assert rep.value == pytest.approx(1.0)
    assert run("distance", a, b, "-o", out, "--metric", "wasserstein",
               "--p", 1.0) == 0
    rep = read_distance_report(str(out))
    assert rep.metric == "wasserstein"
    assert rep.value == pytest.approx(1.0)


@pytest.mark.parametrize("args, code, value", [
    (["--metric", "bottleneck"], 0, 1e308),
    (["--metric", "wasserstein"], 3, None),
    (["--metric", "wasserstein", "--p", "1"], 0, 1e308 + 2.5e307)],
    ids=["bottleneck-0", "wasserstein-3", "wasserstein-p1-0"])
def test_distance_of_points_whose_gap_overflows(tmp_path, args, code, value):
    """Points whose L-infinity distance overflows float64 cost inf, and
    no overflow warning escapes, so a run under `python -W error` keeps
    the exit-code contract: the bottleneck is 1e308 (the first point to
    the diagonal); Wasserstein p=2's powers overflow, which is a
    parameter error, not a crash (exit 4); p=1 raises nothing to a power
    and sends both points to the diagonal, 1e308 + 2.5e307."""
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "r.json"
    a.write_text("dim,birth,death\n1,-1e308,1e308\n")
    b.write_text("dim,birth,death\n1,1e308,1.5e308\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "phom.cli", "distance",
         str(a), str(b), "-o", str(out), *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        rep = read_distance_report(str(out))
        assert rep.value == value
        assert rep.value == matching_cost(rep, read_diagram_csv(str(a)),
                                          read_diagram_csv(str(b)))


def test_python_dash_m_phom_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "phom", "--version"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("phom ")


def test_series_windows_and_scores(tmp_path):
    src = tmp_path / "series.csv"
    assert run("gen", "periodic", "-n", 128, "--seed", 2, "-o", src) == 0
    out = tmp_path / "run"
    assert run("series", src, "--out-dir", out, "--window", 32,
               "--stride", 32) == 0
    files = sorted(f.name for f in out.iterdir())
    assert "score.csv" in files
    assert "run.manifest.json" in files
    assert [f for f in files if f.startswith("window_")] == \
        ["window_000.csv", "window_001.csv", "window_002.csv",
         "window_003.csv"]
    lines = (out / "score.csv").read_text().splitlines()
    assert lines[0] == "window,bottleneck"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 0.0


def test_series_in_chunks_writes_the_same_files(tmp_path, monkeypatch):
    """With _BLOCK_ENTRIES at 200, `phom series` hands its 8-point
    windows to the engine 3 at a time, and the engine's row blocks hold
    25 rows; every file, the manifest included, is byte-identical to the
    run of one chunk.  Both runs use the same relative paths, so the
    manifests compare."""
    src = tmp_path / "series.csv"
    assert run("gen", "periodic", "-n", 96, "--noise", 0.05, "--seed", 4,
               "-o", src) == 0
    files = []
    for block in (None, 200):
        here = tmp_path / f"block{block}"
        here.mkdir()
        (here / "s.csv").write_bytes(src.read_bytes())
        monkeypatch.chdir(here)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(simplicial, "_BLOCK_ENTRIES", block)
            assert run("series", "s.csv", "--out-dir", "run", "--window", 8,
                       "--stride", 5) == 0
        files.append({f.name: f.read_bytes()
                      for f in (here / "run").iterdir()})
    assert len(files[0]) == 20 and files[0] == files[1]


@pytest.mark.parametrize("max_dim", [14, 15])
def test_rips_without_edges_at_high_max_dim(tmp_path, max_dim):
    """17 points 10 apart at --max-scale 1 keep no edge, so every
    dimension from 1 on is empty: a --max-dim whose keys would pass
    int64 gives the points of --max-dim 13."""
    dm = tmp_path / "d.csv"
    d = np.full((17, 17), 10.0)
    np.fill_diagonal(d, 0.0)
    write_point_cloud(str(dm), d)
    for m, out in ((13, "want.csv"), (max_dim, "got.csv")):
        assert run("rips", dm, "--distance-matrix", "--max-scale", 1,
                   "--max-dim", m, "-o", tmp_path / out) == 0
    got = point_rows(tmp_path / "got.csv")
    assert got == point_rows(tmp_path / "want.csv")
    assert got[1:] == ["0,0.0,inf"] * 17


def test_series_rejects_wrong_width(tmp_path):
    src = tmp_path / "series.csv"
    src.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    assert run("series", src, "--out-dir", tmp_path / "run") == 2


def test_sparsify_flow(tmp_path):
    cloud = tmp_path / "ann.csv"
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "ann.cplx"
    assert run("gen", "annulus", "-n", 25, "--seed", 4, "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--save-complex", cache) == 0
    pd = read_diagram_csv(str(dg))
    idx = next(i for i, (d, _, _) in enumerate(pd.points) if d == 1)
    out = tmp_path / "cycle.json"
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", idx, "-o", out) == 0
    obj = json.loads(out.read_text())
    assert obj["point"]["dim"] == 1
    assert obj["size"] <= obj["size_before"]
    assert len(obj["cells"]) == obj["size"]
    assert all("," in lab for lab in obj["cells"])


def test_sparsify_point_out_of_range(tmp_path):
    cloud = tmp_path / "c.csv"
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "c.cplx"
    assert run("gen", "annulus", "-n", 10, "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--save-complex", cache) == 0
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", 999, "-o", tmp_path / "x.json") == 3


def test_sparsify_mismatched_diagram(tmp_path):
    cloud = tmp_path / "c.csv"
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "c.cplx"
    assert run("gen", "annulus", "-n", 10, "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--save-complex", cache) == 0
    fake = tmp_path / "other.csv"
    fake.write_text("dim,birth,death\n1,0.123,0.456\n")
    assert run("sparsify", "--complex", cache, "--diagram", fake,
               "--point", 0, "-o", tmp_path / "x.json") == 2


def test_sparsify_budget_above_bound_is_exit_3(tmp_path, capsys):
    """The exhaustive walk visits 2**budget subsets: a budget above
    MAX_BUDGET is refused before the cache is read.  This cache's first
    H1 point has 497 triangles at its birth scale."""
    cloud = tmp_path / "c.csv"
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "c.cplx"
    assert run("gen", "annulus", "-n", 60, "--seed", 1, "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--save-complex", cache) == 0
    idx = next(i for i, (d, _, _) in enumerate(read_diagram_csv(str(dg)).points)
               if d == 1)
    out = tmp_path / "x.json"
    for path in (cache, tmp_path / "missing.cplx"):
        capsys.readouterr()
        assert run("sparsify", "--complex", path, "--diagram", dg, "--point",
                   idx, "--budget", MAX_BUDGET + 1, "-o", out) == 3
        assert "budget" in capsys.readouterr().err
        assert not out.exists()
    assert run("sparsify", "--complex", cache, "--diagram", dg, "--point",
               idx, "--budget", MAX_BUDGET, "-o", out) == 0


@pytest.mark.parametrize("sub,flags,kind", [
    ("image", [], "cubical-sublevel"),
    ("image", ["--superlevel"], "cubical-superlevel"),
    ("voxel", [], "cubical-sublevel"),
])
def test_cubical_save_complex_and_sparsify(tmp_path, sub, flags, kind):
    rng = np.random.default_rng(6)
    if sub == "image":
        src = tmp_path / "g.pgm"
        write_pgm(str(src), rng.integers(0, 256, size=(6, 7)))
        grid = read_pgm(str(src))
    else:
        src = tmp_path / "g.vox"
        write_voxel(str(src), np.round(rng.uniform(0, 1, size=(3, 4, 3)), 2))
        grid = read_voxel(str(src))
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "g.cplx"
    assert run(sub, src, *flags, "-o", dg, "--save-complex", cache) == 0
    back = read_complex_cache(str(cache))
    assert back.meta["kind"] == kind
    K = build_cubical_filtration(-grid if flags else grid)
    _, want = compute_persistence(K, max_dim=K.dim)
    _, got = compute_persistence(back, max_dim=back.dim)
    assert got.pairs == want.pairs
    assert got.essential == want.essential
    pd = read_diagram_csv(str(dg))
    idx = max(range(len(pd.points)), key=lambda i: pd.points[i][0])
    out = tmp_path / "cycle.json"
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", idx, "-o", out) == 0
    assert json.loads(out.read_text())["size"] >= 1


@pytest.mark.parametrize("save,builds", [(False, 0), (True, 1)])
def test_cubical_builds_complex_only_for_cache(tmp_path, monkeypatch, save,
                                               builds):
    """Diagrams come without the explicit complex; --save-complex builds
    it once, for the cache."""
    calls = []

    def counted(grid):
        calls.append(grid)
        return build_cubical_filtration(grid)

    monkeypatch.setattr(cubical, "build_cubical_filtration", counted)
    monkeypatch.setattr(cli, "build_cubical_filtration", counted)
    rng = np.random.default_rng(8)
    pgm, vox = tmp_path / "g.pgm", tmp_path / "g.vox"
    write_pgm(str(pgm), rng.integers(0, 256, size=(5, 6)))
    write_voxel(str(vox), np.round(rng.uniform(0, 1, size=(3, 3, 4)), 2))
    extra = ["--save-complex", tmp_path / "g.cplx"] if save else []
    for argv in [("image", pgm), ("image", pgm, "--superlevel"),
                 ("voxel", vox)]:
        calls.clear()
        assert run(*argv, "-o", tmp_path / "dg.csv", *extra) == 0
        assert len(calls) == builds


def test_sparsify_rejects_cache_with_wrong_face_dimension(tmp_path, capsys):
    # The triangle lists two vertices as its faces.
    cache = tmp_path / "bad.cplx"
    cache.write_text("# phom-complex 1\ncells 3\n0 0.0 a\n0 0.0 b\n"
                     "2 2.0 x 0 1\n")
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n0,0.0,inf\n")
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", 0, "-o", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert f"{cache}:5:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", ["fewer", "junk", "negative", "zero"])
def test_sparsify_rejects_cache_whose_count_disagrees(tmp_path, capsys, edit):
    """A cache is read only when its `cells N` line matches the cell
    lines; an empty complex is one the diagram cannot come from."""
    cloud = tmp_path / "c.csv"
    dg = tmp_path / "dg.csv"
    cache = tmp_path / "c.cplx"
    assert run("gen", "annulus", "-n", 10, "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--save-complex", cache) == 0
    lines = cache.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("cells "))
    n = int(lines[at].split()[1])
    if edit == "fewer":
        lines[at] = f"cells {n - 5}"
    elif edit == "junk":
        lines.append("junk")
    elif edit == "negative":
        lines[at] = "cells -3"
    else:
        lines[at:] = ["cells 0"]
    cache.write_text("\n".join(lines) + "\n")
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", 0, "-o", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("disagree" if edit == "zero" else f"{cache}:") in err


@pytest.mark.parametrize("cap", ["abc", "nan", "inf", "0.5"])
def test_vectorize_rejects_bad_death_cap(tmp_path, capsys, cap):
    dg = tmp_path / "dg.csv"
    dg.write_text(f"# death_cap={cap}\ndim,birth,death\n"
                  "1,1.0,inf\n1,0.0,2.0\n")
    assert run("vectorize", dg, "-o", tmp_path / "i.json") == 2
    err = capsys.readouterr().err
    assert f"{dg}: death_cap" in err
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("argv", [["--dim", 0],
                                  ["--range", 0, "inf", 0, 1]])
def test_vectorize_rejects_non_finite_support(tmp_path, capsys, argv):
    """A default support that overflows (capped persistence near the
    float maximum) or an infinite --range is exit 3 before any pixel
    work: no warning and no file of inf or nan pixels."""
    dg = tmp_path / "dg.csv"
    dg.write_text("# death_cap=1.7e308\ndim,birth,death\n"
                  "0,0.0,inf\n1,0.0,2.0\n")
    out = tmp_path / "i.json"
    assert run("vectorize", dg, "-o", out, *argv) == 3
    assert "--range" in capsys.readouterr().err
    assert not out.exists()


def test_vectorize_rejects_sigma_too_small_for_support(tmp_path, capsys):
    """(edge - point) / sigma would overflow: exit 3 before any pixel
    work, with no warning and no image file."""
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n0,0.2,0.5\n1,0.0,1.0\n")
    out = tmp_path / "i.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("vectorize", dg, "-o", out, "--dim", 0, "--sigma",
                   "1e-320", "--range", -1, 1, 0, 2) == 3
    assert "--sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,values", [([], "0 1e308 5"),
                                          (["--superlevel"], "0 -1e308 5")])
def test_cubical_rejects_grid_whose_death_cap_overflows(tmp_path, capsys,
                                                        flags, values):
    """max + (max - min) of the (negated, for superlevel) grid overflows:
    exit 2 and no diagram whose death_cap phom's reader rejects."""
    vox = tmp_path / "g.vox"
    vox.write_text(f"3 1 1\n{values}\n")
    out = tmp_path / "g.csv"
    assert run("voxel", vox, "-o", out, *flags) == 2
    assert "death cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("faces", ["", " 0 1 2"])
def test_sparsify_rejects_cache_with_wrong_face_count(tmp_path, capsys,
                                                      faces):
    # An edge with no faces, or with three vertex faces.
    cache = tmp_path / "bad.cplx"
    cache.write_text("# phom-complex 1\nmeta kind rips\ncells 4\n0 0.0 0\n"
                     "0 0.0 1\n0 0.0 2\n1 0.5 0,1" + faces + "\n")
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n0,0.0,inf\n0,0.0,inf\n1,0.5,inf\n")
    assert run("sparsify", "--complex", cache, "--diagram", dg,
               "--point", 2, "-o", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert f"{cache}:7: a 1-cell needs 2 faces" in err
    assert "Traceback" not in err


def _rips_case(name):
    """(input array, is a distance matrix, extra flags) of a CLI case."""
    rng = np.random.default_rng(11)
    ring = sample_annulus(30, noise=0.03, seed=4)
    if name == "one-point":
        return np.array([[0.5, 0.5]]), False, []
    if name == "duplicates":
        pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1], [1, 1],
                        [1, 1]], dtype=float)
        return pts, False, ["--max-scale", "0.6"]
    if name == "no-edge":
        return np.arange(10.0).reshape(5, 2), False, ["--max-scale", "0.1"]
    if name == "double-annulus":
        pts = sample_double_annulus(40, separation=5.0, noise=0.02, seed=3)
        return pts, False, ["--max-scale", "0.5"]
    if name == "distance-matrix":
        d = np.triu(rng.integers(0, 4, size=(7, 7)), 1).astype(float)
        return d + d.T, True, ["--distance-matrix", "--max-scale", "1.0"]
    if name == "max-dim-0":
        return ring, False, ["--max-dim", "0"]
    if name == "3d-h2":
        return rng.uniform(0, 1, size=(12, 3)), False, []
    return ring, False, ["--convention", "diameter", "--max-scale", "0.8"]


@pytest.mark.parametrize("name", [
    "one-point", "duplicates", "no-edge", "double-annulus",
    "distance-matrix", "max-dim-0", "3d-h2", "diameter"])
def test_rips_matches_explicit_complex_path(tmp_path, name):
    """Diagram and cache bytes equal those of rips_filtration +
    compute_persistence; sparsify accepts the cache."""
    arr, is_matrix, flags = _rips_case(name)
    src = tmp_path / "in.csv"
    write_point_cloud(str(src), arr)
    dg, cache = tmp_path / "dg.csv", tmp_path / "c.cplx"
    assert run("rips", src, "-o", dg, "--save-complex", cache, *flags) == 0

    d = arr if is_matrix else point_cloud_distances(arr)
    n = d.shape[0]
    conv = "diameter" if "diameter" in flags else "radius"
    hdim = 0 if "--max-dim" in flags else (2 if arr.shape[1] == 3 else 1)
    if "--max-scale" in flags:
        scale = float(flags[flags.index("--max-scale") + 1])
    else:  # the enclosing radius, min_i max_j of the edge values
        scale = (float(d.max(axis=1).min())
                 / (2.0 if conv == "radius" else 1.0)) or 1.0
    K = rips_filtration(d, min(hdim + 1, n - 1) if n > 1 else 0, scale, conv)
    want, _ = compute_persistence(
        K, max_dim=hdim, metadata={"filtration": "rips", "convention": conv,
                                   "max_scale": scale})
    write_diagram_csv(str(tmp_path / "want.csv"), want)
    write_complex_cache(str(tmp_path / "want.cplx"), K,
                        meta={"kind": "rips", "convention": conv})
    assert dg.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert cache.read_bytes() == (tmp_path / "want.cplx").read_bytes()
    assert run("sparsify", "--complex", cache, "--diagram", dg, "--point",
               len(want.points) - 1, "-o", tmp_path / "cycle.json") == 0


def point_rows(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


@pytest.mark.parametrize("name", [
    "square", "square-diameter", "3d-h2", "duplicates", "one-point",
    "distance-matrix"])
def test_default_scale_keeps_diagram_points(tmp_path, name):
    """The enclosing-radius default gives the diagram points of the
    former default, half the largest distance (all of it under the
    diameter convention); only the max_scale metadata differs."""
    rng = np.random.default_rng(5)
    flags = []
    if name.startswith("square"):
        arr = rng.uniform(0, 1, size=(40, 2))
        if name == "square-diameter":
            flags = ["--convention", "diameter"]
    elif name == "3d-h2":  # a sphere around its centre: one void
        g = rng.normal(size=(30, 3))
        arr = np.vstack([g / np.linalg.norm(g, axis=1)[:, None], [0, 0, 0]])
    elif name == "duplicates":
        arr = np.array([[0, 0], [0, 0], [2, 0], [2, 0], [0, 2], [2, 2],
                        [1, 1], [1, 1]], dtype=float)
    elif name == "one-point":
        arr = np.array([[0.5, 0.5]])
    else:
        m = np.triu(rng.integers(0, 4, size=(9, 9)), 1).astype(float)
        arr = m + m.T
        flags = ["--distance-matrix"]
    src = tmp_path / "in.csv"
    write_point_cloud(str(src), arr)
    d = arr if flags == ["--distance-matrix"] else point_cloud_distances(arr)
    half = 1.0 if "diameter" in flags else 2.0
    old_default = (float(d.max()) or 1.0) / half
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    assert run("rips", src, "-o", new, *flags) == 0
    assert run("rips", src, "-o", old, *flags,
               "--max-scale", repr(old_default)) == 0
    assert point_rows(new) == point_rows(old)
    want = (float(d.max(axis=1).min()) / half) or 1.0
    assert read_diagram_csv(str(new)).metadata["max_scale"] == want
    if name == "3d-h2":
        assert any(p[0] == 2 for p in read_diagram_csv(str(new)).points)


def test_series_default_scale_keeps_diagram_points(tmp_path):
    src = tmp_path / "series.csv"
    assert run("gen", "periodic", "-n", 128, "--noise", 0.05, "--seed", 3,
               "-o", src) == 0
    dmax = max(float(point_cloud_distances(w).max())
               for w in sliding_windows(read_point_cloud(str(src)), 32, 16))
    new, old = tmp_path / "new", tmp_path / "old"
    for out, flags in ((new, []), (old, ["--max-scale", repr(dmax / 2.0)])):
        assert run("series", src, "--out-dir", out, "--window", 32,
                   "--stride", 16, *flags) == 0
    names = sorted(f.name for f in new.iterdir() if f.suffix == ".csv")
    assert len(names) == 8
    for name in names:
        assert point_rows(new / name) == point_rows(old / name)


@pytest.mark.parametrize("exc", [RuntimeError("boom\nsecond line"),
                                 RecursionError("too deep")])
def test_unexpected_errors_are_exit_4(tmp_path, capsys, monkeypatch, exc):
    def boom(p):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "distance", boom)
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n1,0.0,1.0\n")
    assert run("distance", dg, dg, "-o", tmp_path / "r.json") == 4
    err = capsys.readouterr().err
    name = type(exc).__name__
    assert err.startswith(f"internal error: {name}: ")
    assert err.count("\n") == 1


def test_gen_double_annulus_and_kde(tmp_path):
    cloud = tmp_path / "two.csv"
    assert run("gen", "double-annulus", "-n", 60, "--separation", 2.0,
               "--seed", 5, "-o", cloud) == 0
    assert read_point_cloud(str(cloud)).shape == (60, 2)
    vox = tmp_path / "density.vox"
    assert run("gen", "kde", cloud, "--resolution", 24,
               "--bandwidth", 0.3, "-o", vox) == 0
    grid = read_voxel(str(vox))
    assert grid.shape == (1, 24, 24)
    assert grid.sum() > 0


def test_gen_diffusion_formats(tmp_path):
    vox = tmp_path / "u.vox"
    assert run("gen", "diffusion", "--size", 8, "--steps", 5, "--seed", 1,
               "-o", vox) == 0
    assert read_voxel(str(vox)).shape == (1, 8, 8)
    pgm = tmp_path / "u.pgm"
    assert run("gen", "diffusion", "--size", 8, "--steps", 5, "--seed", 1,
               "--format", "pgm", "-o", pgm) == 0
    from phom.io import read_pgm
    g = read_pgm(str(pgm))
    assert g.shape == (8, 8)
    assert g.max() == 65535


def test_gen_periodic_with_perturbation(tmp_path):
    out = tmp_path / "s.csv"
    assert run("gen", "periodic", "-n", 32, "--perturb", "scale", 0.5,
               8, 16, "-o", out) == 0
    pert = read_point_cloud(str(out))
    clean = tmp_path / "c.csv"
    assert run("gen", "periodic", "-n", 32, "-o", clean) == 0
    base = read_point_cloud(str(clean))
    assert np.allclose(pert[8:16], base[8:16] * 1.5)
    assert np.array_equal(pert[:8], base[:8])


def test_seed_resolution(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    monkeypatch.delenv("PH_SEED", raising=False)
    assert run("gen", "annulus", "-n", 20, "--noise", 0.1, "-o", a) == 0
    monkeypatch.setenv("PH_SEED", "9")
    assert run("gen", "annulus", "-n", 20, "--noise", 0.1, "-o", b) == 0
    assert run("gen", "annulus", "-n", 20, "--noise", 0.1, "--seed", 0,
               "-o", c) == 0
    # Env seed changes the stream; an explicit flag beats the env.
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()

    manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert manifest["params"]["seed"] == 9

    monkeypatch.setenv("PH_SEED", "zap")
    assert run("gen", "annulus", "-n", 5, "-o", tmp_path / "x.csv") == 3


def test_manifest_replay_is_byte_identical(tmp_path):
    cloud = tmp_path / "ann.csv"
    dg = tmp_path / "dg.csv"
    assert run("gen", "annulus", "-n", 30, "--noise", 0.05, "--seed", 3,
               "-o", cloud) == 0
    assert run("rips", cloud, "-o", dg, "--svg") == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run("--manifest", tmp_path / "dg.manifest.json") == 0
    assert run("--manifest", tmp_path / "ann.manifest.json") == 0
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before == after
    names = set(before)
    assert {"ann.csv", "dg.csv", "dg.svg", "dg.manifest.json",
            "ann.manifest.json"} <= names


def test_manifest_structure(tmp_path):
    out = tmp_path / "a.csv"
    assert run("gen", "annulus", "-n", 5, "--seed", 0, "-o", out) == 0
    obj = json.loads((tmp_path / "a.manifest.json").read_text())
    assert obj["tool"] == "phom"
    assert obj["subcommand"] == "gen"
    assert obj["params"]["kind"] == "annulus"
    from phom import __version__
    assert obj["version"] == __version__


def test_exit_codes(tmp_path, capsys):
    # Missing input file.
    assert run("rips", tmp_path / "nope.csv", "-o", tmp_path / "x.csv") == 2
    assert "error:" in capsys.readouterr().err
    # Unknown subcommand and missing arguments are usage errors.
    assert run("frobnicate") == 3
    assert run() == 3
    assert run("gen") == 3
    assert run("rips", tmp_path / "nope.csv") == 3
    # Manifest conflicts and bad manifests.
    assert run("--manifest", tmp_path / "nope.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"tool": "other"}')
    assert run("--manifest", bad) == 2
    good_cloud = tmp_path / "c.csv"
    assert run("gen", "annulus", "-n", 5, "-o", good_cloud) == 0
    assert run("--manifest", tmp_path / "c.manifest.json", "gen") == 3


@pytest.mark.parametrize("sub", ["rips", "series"])
def test_cloud_whose_distances_overflow_is_exit_2(tmp_path, capsys, sub):
    """Coordinates whose differences square past float64 are a fault of
    the cloud, named as such (pytest turns numpy's overflow warning into
    an error, so a warning would show as exit 4)."""
    cloud = tmp_path / "c.csv"
    pts = np.zeros((40, 2))
    pts[0, 0], pts[1, 0] = 1e200, -1e200
    write_point_cloud(str(cloud), pts)
    argv = {"rips": ["rips", cloud, "-o", tmp_path / "dg.csv"],
            "series": ["series", cloud, "--out-dir", tmp_path / "s",
                       "--window", 20, "--stride", 20]}[sub]
    capsys.readouterr()
    assert run(*argv) == 2
    assert "span too wide a range: a distance overflows" in \
        capsys.readouterr().err


# Runs in a fresh interpreter: imports phom, runs `phom rips`, the
# cubical commands and a components count, then one command through each
# function that imports a scipy part, and prints [step, exit code or
# result, scipy submodules loaded] per step.
_SCIPY_PARTS_SCRIPT = """
import json, sys
from phom import cli, connected_components

def parts():
    return sorted(m for m in sys.modules if m.startswith("scipy."))

d = sys.argv[1] + "/"
steps = [["import_", 0, parts()]]

def command(name, *argv):
    steps.append([name, cli.main(list(argv)), parts()])

command("gen", "gen", "annulus", "-n", "30", "--seed", "1", "-o", d + "a.csv")
command("gen_b", "gen", "annulus", "-n", "30", "--seed", "2", "-o",
        d + "b.csv")
command("rips", "rips", d + "a.csv", "-o", d + "a_dg.csv")
command("rips_b", "rips", d + "b.csv", "-o", d + "b_dg.csv")
command("image", "image", d + "g.pgm", "-o", d + "g_dg.csv")
command("superlevel", "image", d + "g.pgm", "--superlevel", "-o",
        d + "s_dg.csv")
command("voxel", "voxel", d + "v.vox", "-o", d + "v_dg.csv")
steps.append(["components", connected_components(3, [(0, 1)]), parts()])
command("vectorize", "vectorize", d + "a_dg.csv", "-o", d + "i.json")
command("distance", "distance", d + "a_dg.csv", d + "b_dg.csv", "-o",
        d + "r.json")
command("gen_s", "gen", "periodic", "-n", "64", "--seed", "2", "-o",
        d + "s.csv")
command("series", "series", d + "s.csv", "--out-dir", d + "run",
        "--window", "16", "--stride", "16")
command("wasserstein", "distance", d + "a_dg.csv", d + "b_dg.csv",
        "--metric", "wasserstein", "-o", d + "w.json")
print(json.dumps(steps))
"""


def test_commands_load_only_the_scipy_parts_they_call(tmp_path):
    """`import phom, phom.cli`, `phom rips`, `phom image` (sub- and
    superlevel), `phom voxel`, connected_components, `phom vectorize`,
    `phom distance` (bottleneck) and `phom series` load no scipy
    submodule; Wasserstein then loads scipy.optimize, and every command
    exits 0."""
    rng = np.random.default_rng(0)
    write_pgm(str(tmp_path / "g.pgm"), rng.integers(0, 256, size=(12, 12)))
    write_voxel(str(tmp_path / "v.vox"), rng.integers(0, 9, size=(5, 4, 6)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCIPY_PARTS_SCRIPT,
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300, check=True).stdout
    steps = {name: (code, set(parts))
             for name, code, parts in json.loads(out)}
    assert {name: code for name, (code, _) in steps.items()} == dict(
        import_=0, gen=0, gen_b=0, rips=0, rips_b=0, image=0, superlevel=0,
        voxel=0, components=2, vectorize=0, distance=0, gen_s=0, series=0,
        wasserstein=0)
    for name in ["import_", "rips_b", "image", "superlevel", "voxel",
                 "components", "vectorize", "distance", "series"]:
        assert steps[name][1] == set(), name
    assert "scipy.optimize" in steps["wasserstein"][1]


def test_malformed_inputs_are_exit_2(tmp_path):
    dg = tmp_path / "dg.csv"
    dg.write_text("not,a,diagram\n")
    assert run("vectorize", dg, "-o", tmp_path / "i.json") == 2
    pgm = tmp_path / "x.pgm"
    pgm.write_text("P9\n")
    assert run("image", pgm, "-o", tmp_path / "dg2.csv") == 2
    vox = tmp_path / "x.vox"
    vox.write_text("1 1\n0\n")
    assert run("voxel", vox, "-o", tmp_path / "dg3.csv") == 2


def test_bad_parameters_are_exit_3(tmp_path):
    cloud = tmp_path / "c.csv"
    write_point_cloud(str(cloud), np.random.default_rng(0).uniform(
        0, 1, size=(6, 2)))
    assert run("rips", cloud, "-o", tmp_path / "d.csv",
               "--max-scale", -1.0) == 3
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n1,0.0,1.0\n")
    assert run("vectorize", dg, "-o", tmp_path / "i.json",
               "--sigma", -0.5) == 3
    assert run("distance", dg, dg, "-o", tmp_path / "r.json",
               "--metric", "wasserstein", "--p", 0.2) == 3
    for metric in ("bottleneck", "wasserstein"):
        assert run("distance", dg, dg, "-o", tmp_path / "r.json",
                   "--metric", metric, "--dim", -1) == 3
    assert run("vectorize", dg, "-o", tmp_path / "i.json", "--dim", -1) == 3
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "i.json").exists()
    assert run("gen", "annulus", "-o", tmp_path / "missing" / "c.csv") == 3


def test_wasserstein_total_that_overflows_is_exit_3(tmp_path, capsys):
    """Two costs whose squares fit but whose sum overflows: exit 3, no
    numpy warning, and no report of "value": "inf"."""
    a = tmp_path / "a.csv"
    a.write_text("dim,birth,death\n1,0.0,2.5e+154\n1,0.0,2.6e+154\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("dim,birth,death\n")
    out = tmp_path / "r.json"
    assert run("distance", a, empty, "-o", out, "--metric",
               "wasserstein") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: wasserstein order") and "overflow" in err
    assert "RuntimeWarning" not in err
    assert not out.exists() and not (tmp_path / "r.manifest.json").exists()


@pytest.mark.parametrize("argv,code", [
    (["distance", "{dg}", "{other}", "-o", "{out}"], 0),
    (["distance", "{dg}", "{other}", "-o", "{out}", "--metric",
      "wasserstein"], 3),
    (["vectorize", "{dg}", "-o", "{out}"], 3)])
def test_persistence_that_overflows_warns_nothing(tmp_path, capsys, argv,
                                                  code):
    """A point whose persistence, 1e308 - -1e308, overflows float64: the
    bottleneck is still the point-to-point cost 1e308, Wasserstein's
    squared cost and the image's sigma still fail with exit 3, and no
    numpy warning is printed (pytest turns one into exit 4)."""
    dg = tmp_path / "dg.csv"
    dg.write_text("dim,birth,death\n1,-1e308,1e308\n")
    other = tmp_path / "other.csv"
    other.write_text("dim,birth,death\n1,0.0,1.0\n")
    out = tmp_path / "out.json"
    paths = {"dg": dg, "other": other, "out": out}
    assert run(*[a.format(**paths) for a in argv]) == code
    assert "RuntimeWarning" not in capsys.readouterr().err
    if code == 0:
        assert read_distance_report(str(out)).value == 1e308
    else:
        assert not out.exists()


@pytest.mark.parametrize("p,other", [
    ("inf", "1,0.0,0.5\n"), ("inf", "1,0.0,1.0\n"), ("2000", ""),
    ("200", "1,0.0,1000.0\n")])
def test_wasserstein_order_that_breaks_costs_is_exit_3(tmp_path, capsys, p,
                                                       other):
    """A non-finite p, or one at which a nonzero cost**p overflows or
    underflows (0.25**2000, 500**200), is a bad parameter: no report and
    no manifest, whose "p": Infinity would not be valid JSON."""
    a = tmp_path / "a.csv"
    a.write_text("dim,birth,death\n1,0.0,0.5\n")
    b = tmp_path / "b.csv"
    b.write_text("dim,birth,death\n" + other)
    out = tmp_path / "r.json"
    assert run("distance", a, b, "-o", out, "--metric", "wasserstein",
               "--p", p) == 3
    assert capsys.readouterr().err.startswith("error: wasserstein order")
    assert not out.exists() and not (tmp_path / "r.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["annulus", "--radius", "nan"], ["annulus", "--noise", "inf"],
    ["double-annulus", "--radii", "1", "nan"],
    ["double-annulus", "--separation", "inf"],
    ["double-annulus", "--noise", "nan"],
    ["periodic", "--amplitude", "inf"], ["periodic", "--frequency", "nan"],
    ["periodic", "--noise", "inf"],
    ["periodic", "--perturb", "shift", "nan", "0", "4"],
    ["diffusion", "--coeff", "nan"], ["diffusion", "--dt", "nan"],
    ["kde", "CLOUD", "--bandwidth", "inf"]])
def test_generators_reject_non_finite_parameters(tmp_path, capsys, argv):
    """A nan or inf generator parameter is exit 3, not a file of nan or
    inf values that phom's own readers reject."""
    cloud = tmp_path / "c.csv"
    write_point_cloud(str(cloud), sample_annulus(10, seed=0))
    out = tmp_path / "g.out"
    assert run("gen", *[cloud if a == "CLOUD" else a for a in argv],
               "-o", out) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def _recorded(tmp_path, sub):
    """The manifest of one successful run of sub."""
    cloud = tmp_path / "c.csv"
    write_point_cloud(str(cloud), sample_annulus(10, seed=0))
    dg = tmp_path / "dg.csv"
    argv = {
        "annulus": ["gen", "annulus", "-n", 8, "-o", tmp_path / "a.csv"],
        "periodic": ["gen", "periodic", "-n", 16, "--perturb", "shift",
                     0.5, 2, 5, "-o", tmp_path / "p.csv"],
        "rips": ["rips", cloud, "-o", dg],
        "vectorize": ["vectorize", dg, "-o", tmp_path / "i.json"],
        "distance": ["distance", dg, dg, "-o", tmp_path / "r.json"],
    }
    assert run("rips", cloud, "-o", dg) == 0
    assert run(*argv[sub]) == 0
    out = argv[sub][argv[sub].index("-o") + 1]
    return tmp_path / (out.stem + ".manifest.json")


@pytest.mark.parametrize("sub,key,value", [
    ("annulus", "n", "x"), ("annulus", "output", 987654),
    ("annulus", "seed", None), ("periodic", "perturb", {"kind": "shift"}),
    ("rips", "max_dim", "two"), ("rips", "svg", "no"),
    ("rips", "convention", "both"), ("vectorize", "resolution", [20]),
    ("distance", "metric", "l2")])
def test_manifest_param_types_are_checked(tmp_path, capsys, sub, key, value):
    """A recorded param changed to a JSON type (or choice) its parser
    cannot give is malformed input that names the key: an integer
    output is not opened as a file descriptor, and an unknown metric is
    not run as Wasserstein."""
    manifest = _recorded(tmp_path, sub)
    obj = json.loads(manifest.read_text())
    obj["params"][key] = value
    manifest.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("--manifest", manifest) == 2
    assert f"manifest param {key!r}" in capsys.readouterr().err


def test_replay_lacking_a_param_writes_nothing(tmp_path, capsys):
    """Deleting any one recorded param of a manifest is exit 2 naming the
    key, checked before the run starts: no output and no manifest."""
    pgm = tmp_path / "f.pgm"
    series = tmp_path / "s.csv"
    assert run("gen", "diffusion", "--size", 8, "--format", "pgm",
               "-o", pgm) == 0
    assert run("gen", "periodic", "-n", 32, "-o", series) == 0
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["rips", series, "-o", out / "dg.csv", "--svg",
                  "--save-complex", out / "dg.cplx"],
                 ["image", pgm, "-o", out / "im.csv", "--svg",
                  "--save-complex", out / "im.cplx"],
                 ["series", series, "--out-dir", out / "s", "--window", 8,
                  "--stride", 8],
                 ["gen", "annulus", "-n", 8, "-o", out / "a.csv"]):
        assert run(*argv) == 0
    recorded = [json.loads(m.read_text())
                for m in sorted(out.rglob("*.manifest.json"))]
    assert sorted(obj["subcommand"] for obj in recorded) == [
        "gen", "image", "rips", "series"]
    for f in sorted(out.rglob("*"), reverse=True):
        f.rmdir() if f.is_dir() else f.unlink()
    bad = tmp_path / "bad.json"
    bad.write_text("")
    before = sorted(tmp_path.rglob("*"))
    for obj in recorded:
        for key in obj["params"]:
            params = {k: v for k, v in obj["params"].items() if k != key}
            bad.write_text(json.dumps(dict(obj, params=params)))
            capsys.readouterr()
            assert run("--manifest", bad) == 2, (obj["subcommand"], key)
            err = capsys.readouterr().err
            assert f"manifest params lack {key!r}" in err
            assert sorted(tmp_path.rglob("*")) == before


def _malformed(tmp_path, case):
    """The CLI arguments of one reader fed a malformed file."""
    bad = tmp_path / "bad"
    out = tmp_path / "out.csv"
    good_dg = tmp_path / "good.csv"
    good_dg.write_text("dim,birth,death\n1,0.0,1.0\n")
    if case.startswith("manifest"):
        cloud = tmp_path / "c.csv"
        write_point_cloud(str(cloud), sample_annulus(8, seed=0))
        assert run("rips", cloud, "-o", out) == 0
        obj = json.loads((tmp_path / "out.manifest.json").read_text())
        if case == "manifest-byte":
            bad.write_bytes(json.dumps(obj).encode() + b"\xff")
        else:
            if case == "manifest-no-params":
                del obj["params"]
            elif case == "manifest-list-params":
                obj["params"] = [1]
            else:
                del obj["params"]["distance_matrix"]
            bad.write_text(json.dumps(obj))
        return ["--manifest", bad]
    if case.startswith("cache"):
        bad.write_bytes({
            "cache-meta": b"# phom-complex 1\nmeta kind\ncells 1\n0 0.0 0\n",
            "cache-byte": b"# phom-complex 1\ncells 1\n0 0.0 \xff\n",
            "cache-number": b"# phom-complex 1\ncells 1\n0 0_0.0 0\n"}[case])
        return ["sparsify", "--complex", bad, "--diagram", good_dg,
                "--point", 0, "-o", tmp_path / "x.json"]
    text, argv = {
        "rips": (b"0.0,1.0\n\xff,2.0\n", ["rips", bad, "-o", out]),
        "matrix": (b"0,1\n1,0\xff\n",
                   ["rips", bad, "--distance-matrix", "-o", out]),
        "series": (b"0.0,1.0\n\xff,2.0\n",
                   ["series", bad, "--out-dir", tmp_path / "s"]),
        "distance": (b"dim,birth,death\n1,0.0,1.\xff\n",
                     ["distance", bad, good_dg, "-o", out]),
        "distance-number": (b"dim,birth,death\n1,0.0,1_0.5\n",
                            ["distance", bad, good_dg, "-o", out]),
        "vectorize-number": (b"# death_cap=1_0\ndim,birth,death\n",
                             ["vectorize", bad, "-o", out]),
        "vectorize": (b"# \xff\ndim,birth,death\n1,0.0,1.0\n",
                      ["vectorize", bad, "-o", out]),
        "image": (b"P2\n1 1\n255\n\xff\n", ["image", bad, "-o", out]),
        "image-huge": (b"P2\n2 1\n255\n1 " + b"9" * 400 + b"\n",
                       ["image", bad, "-o", out]),
        "voxel": (b"1 1 1\n\xff\n", ["voxel", bad, "-o", out]),
    }[case]
    bad.write_bytes(text)
    return argv


@pytest.mark.parametrize("case", [
    "rips", "matrix", "series", "distance", "vectorize", "image", "voxel",
    "cache-byte", "cache-meta", "manifest-byte", "manifest-no-params",
    "manifest-list-params", "manifest-missing-key", "distance-number",
    "vectorize-number", "cache-number", "image-huge"])
def test_malformed_reader_input_is_exit_2(tmp_path, capsys, case):
    """A non-ASCII byte, a `meta` line without a value, a manifest
    without usable params, a number in a form phom does not write
    ("1_0") or a PGM sample too large for a float is malformed input, for
    every reader."""
    argv = _malformed(tmp_path, case)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "bad") in err
