"""Byte-mutated inputs through the CLI: every reader and the manifest.

A mutated file may be read, or be rejected as malformed input (exit 2)
or as a bad parameter (exit 3); a traceback or an internal error (exit
4) is a defect.  The image JSON and distance report readers are not
reached by any subcommand, so they are called directly and may only
raise InputError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phom import cli, sample_annulus
from phom.errors import InputError
from phom.io import (read_distance_report, read_image_json, write_pgm,
                     write_point_cloud, write_voxel)


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files for every reader, and the argv that reads each one
    (BAD stands for the mutated copy)."""
    d = tmp_path_factory.mktemp("seeds")
    rng = np.random.default_rng(0)
    write_point_cloud(str(d / "c.csv"), sample_annulus(12, noise=0.1, seed=0))
    np.savetxt(d / "m.csv", np.abs(np.subtract.outer(*[np.arange(5.0)] * 2)),
               delimiter=",")
    write_pgm(str(d / "g.pgm"), rng.integers(0, 9, size=(4, 5)), maxval=9)
    (d / "g5.pgm").write_bytes(b"P5\n5 4\n255\n" + bytes(
        rng.integers(0, 256, 20).tolist()))
    write_voxel(str(d / "v.vox"), rng.uniform(0, 1, size=(2, 3, 3)))
    small = d / "s.csv"
    write_point_cloud(str(small), sample_annulus(3, seed=1))
    assert run("rips", small, "-o", d / "s_dg.csv",
               "--save-complex", d / "s.cplx") == 0
    assert run("rips", d / "c.csv", "-o", d / "dg.csv") == 0
    assert run("vectorize", d / "dg.csv", "-o", d / "img.json") == 0
    # Image diagrams carry a '# death_cap=' line, which vectorize reads.
    assert run("image", d / "g.pgm", "-o", d / "g_dg.csv") == 0
    assert run("distance", d / "dg.csv", d / "s_dg.csv",
               "-o", d / "rep.json") == 0
    # Replays write next to these, away from the other seeds.
    (d / "m").mkdir()
    assert run("rips", d / "c.csv", "-o", d / "m" / "dg.csv") == 0
    assert run("gen", "annulus", "-n", 6, "--seed", 2,
               "-o", d / "m" / "gen.csv") == 0
    return d, {
        "cloud": ("c.csv", ["rips", "BAD", "-o", "out.csv"]),
        "matrix": ("m.csv", ["rips", "BAD", "--distance-matrix",
                             "-o", "out.csv"]),
        "diagram": ("dg.csv", ["distance", "BAD", "dg.csv", "--metric",
                               "wasserstein", "-o", "out.json"],
                    ["vectorize", "BAD", "-o", "out.json"]),
        "image-diagram": ("g_dg.csv", ["vectorize", "BAD", "--dim", "0",
                                       "-o", "out.json"]),
        "pgm-p2": ("g.pgm", ["image", "BAD", "-o", "out.csv"]),
        "pgm-p5": ("g5.pgm", ["image", "BAD", "--superlevel",
                              "-o", "out.csv"]),
        "voxel": ("v.vox", ["voxel", "BAD", "-o", "out.csv"]),
        "cache": ("s.cplx", ["sparsify", "--complex", "BAD", "--diagram",
                             "s_dg.csv", "--point", "0", "-o", "out.json"]),
        "manifest-rips": ("m/dg.manifest.json", ["--manifest", "BAD"]),
        "manifest-gen": ("m/gen.manifest.json", ["--manifest", "BAD"]),
        "image-json": ("img.json", read_image_json),
        "report": ("rep.json", read_distance_report),
    }


def mutate(data: bytes, edits) -> bytes:
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "replace" and at < len(data):
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif op == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + 1:]
        elif op == "truncate":
            data = data[:at]
    return data


EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(0, 1 << 12), st.integers(0, 255)), min_size=1, max_size=3)


@pytest.mark.parametrize("case", [
    "cloud", "matrix", "diagram", "image-diagram", "pgm-p2", "pgm-p5",
    "voxel", "cache", "manifest-rips", "manifest-gen", "image-json",
    "report"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
@example(edits=[("truncate", 1, 0)])
def test_mutated_input_exits_0_2_or_3(seeds, case, edits, monkeypatch,
                                      capsys):
    d, cases = seeds
    name, *runs = cases[case]
    data = (d / name).read_bytes()
    if case.startswith("manifest"):
        # One edit: a manifest's sizes scale the work of its replay, and
        # a single byte can only add one digit to them.
        edits = edits[:1]
    bad = d / ("bad_" + name.replace("/", "_"))
    bad.write_bytes(mutate(data, edits))
    monkeypatch.chdir(d)
    for argv in runs:
        if callable(argv):
            try:
                argv(str(bad))
            except InputError:
                pass
            continue
        code = run(*[bad if a == "BAD" else a for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
