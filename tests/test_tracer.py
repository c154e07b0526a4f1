"""The benchmark's span tracer still finds every function it wraps."""

import importlib.util
import os

import numpy as np

from phom import cli, cubical, datagen, distances, persistence, simplicial
from phom.io import read_complex_cache, write_pgm

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_image_run_records_spans(tmp_path):
    """`phom image` runs under the tracer's wrappers.  Its diagram comes
    from the lattice union-finds, which build no complex, so the wrapped
    compute_persistence is never called and no reduction span or cell
    count is recorded."""
    tracer = load_tracer()
    pgm = tmp_path / "img.pgm"
    write_pgm(str(pgm), np.arange(16).reshape(4, 4))
    tr = tracer.Tracer()
    tr.install(tracer.op_targets())
    try:
        tr.op = 0
        assert cli.main(["image", str(pgm), "-o",
                         str(tmp_path / "dg.csv")]) == 0
    finally:
        tr.uninstall()
    spans = {s[0]: s for s in tr.spans}
    assert {"cli.main", "cubical.image", "io.read_pgm",
            "io.write_diagram_csv"} <= set(spans)
    assert "persistence.reduce" not in spans
    assert tr.spans[spans["cubical.image"][3]][0] == "cli.main"
    assert tr.counts[0]["cubical.cells"] == 0
    assert cli.image_persistence is cubical.image_persistence
    # The tracer wraps this name on phom.cubical.
    assert cubical.compute_persistence is persistence.compute_persistence


def test_traced_rips_run(tmp_path):
    """`phom rips` runs under the tracer's wrappers.  Its diagram comes from
    rips_persistence, which has no span, so no complex or reduction span
    is recorded unless --save-complex asks for the explicit complex."""
    tracer = load_tracer()
    cloud = tmp_path / "c.csv"
    np.savetxt(cloud, np.random.default_rng(0).uniform(0, 1, (20, 2)),
               delimiter=",")
    tr = tracer.Tracer()
    tr.install(tracer.op_targets())
    try:
        tr.op = 0
        assert cli.main(["rips", str(cloud), "-o",
                         str(tmp_path / "dg.csv")]) == 0
    finally:
        tr.uninstall()
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "simplicial.distances", "io.read_point_cloud",
            "io.write_diagram_csv"} <= names
    assert not names & {"simplicial.rips", "persistence.reduce"}
    # The tracer patches these by name on phom.cli.
    assert cli.rips_filtration is simplicial.rips_filtration
    assert cli.compute_persistence is persistence.compute_persistence
    assert cli.point_cloud_distances is simplicial.point_cloud_distances


def test_traced_series_run(tmp_path):
    """`phom series` runs under the tracer's wrappers: one window cut, two
    distance matrices per window (one for its radius, one for the
    engine's chunk), one bottleneck call and one diagram file per
    window, each span under cli.main."""
    tracer = load_tracer()
    src = tmp_path / "s.csv"
    assert cli.main(["gen", "periodic", "-n", "64", "-o", str(src)]) == 0
    tr = tracer.Tracer()
    tr.install(tracer.op_targets())
    try:
        tr.op = 0
        assert cli.main(["series", str(src), "--out-dir",
                         str(tmp_path / "run"), "--window", "16",
                         "--stride", "16"]) == 0
    finally:
        tr.uninstall()
    names = [s[0] for s in tr.spans]
    assert names.count("cli.main") == names.count("datagen.windows") == 1
    assert names.count("simplicial.distances") == 8
    assert names.count("distances.bottleneck") == 4
    assert names.count("io.write_diagram_csv") == 4
    assert all(tr.spans[s[3]][0] == "cli.main" for s in tr.spans[1:])
    assert cli.sliding_windows is datagen.sliding_windows
    assert cli.bottleneck_distance is distances.bottleneck_distance


def test_traced_point_counts_match_the_diagrams(tmp_path):
    """The per-layer point counts are the point counts of the diagrams
    the traced calls read or return: both diagrams' H1 rows for
    `distance`, the H0 rows for `vectorize`, and every point of the
    diagram that `sparsify` recomputes from the cache."""
    tracer = load_tracer()

    def at(name):
        return str(tmp_path / name)

    def dims(name):
        lines = (tmp_path / name).read_text().splitlines()
        return [l.split(",")[0]
                for l in lines[lines.index("dim,birth,death") + 1:]]

    for k in "12":
        assert cli.main(["gen", "annulus", "-n", "24", "--noise", "0.1",
                         "--seed", k, "-o", at(f"c{k}.csv")]) == 0
        assert cli.main(["rips", at(f"c{k}.csv"), "-o", at(f"dg{k}.csv"),
                         "--save-complex", at(f"c{k}.cplx")]) == 0
    write_pgm(at("img.pgm"), np.random.default_rng(0).integers(0, 9, (6, 6)))
    assert cli.main(["image", at("img.pgm"), "-o", at("g.csv")]) == 0
    h1 = dims("dg1.csv").index("1")
    runs = [["distance", at("dg1.csv"), at("dg2.csv"), "-o", at("d.json")],
            ["vectorize", at("g.csv"), "--dim", "0", "-o", at("v.json")],
            ["sparsify", "--complex", at("c1.cplx"), "--diagram",
             at("dg1.csv"), "--point", str(h1), "-o", at("s.json")]]
    tr = tracer.Tracer()
    tr.install(tracer.op_targets())
    try:
        for op, argv in enumerate(runs):
            tr.op = op
            assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    cached, _ = persistence.compute_persistence(
        read_complex_cache(at("c1.cplx")))
    assert tr.counts[0]["distances.points"] == \
        (dims("dg1.csv") + dims("dg2.csv")).count("1") > 0
    assert tr.counts[0]["distances.calls"] == 1
    assert tr.counts[1]["vectorize.points"] == dims("g.csv").count("0") > 0
    assert tr.counts[2]["persistence.points"] == len(cached.dims) > 0
