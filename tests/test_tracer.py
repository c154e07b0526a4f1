"""The benchmark's span tracer still finds every function it wraps."""

import importlib.util
import os

import numpy as np

from phom import cli, cubical, persistence, simplicial
from phom.io import write_pgm

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
