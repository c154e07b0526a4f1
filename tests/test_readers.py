"""The one-pass text readers against their line-by-line oracles.

Valid files are byte-mutated as in test_mutation.py.  On every mutated
file the reader in phom.io and its oracle in oracles.py must return the
same array bits (signed zeros included) and metadata, or raise the same
exception with the same message.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (read_diagram_csv_lines, read_pgm_tokens,
                     read_point_cloud_lines, read_voxel_lines)
from phom import sample_annulus
from phom.io import (read_diagram_csv, read_pgm, read_point_cloud,
                     read_voxel, write_pgm, write_point_cloud, write_voxel)
from phom.persistence import PersistenceDiagram
from test_mutation import mutate, run

READERS = {
    "cloud": (read_point_cloud, read_point_cloud_lines),
    "diagram": (read_diagram_csv, read_diagram_csv_lines),
    "pgm": (read_pgm, read_pgm_tokens),
    "voxel": (read_voxel, read_voxel_lines),
}


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files for each reader: as phom writes them, and by hand with
    comments, blank lines, CRLF, padding and signed zeros."""
    d = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(0)
    write_point_cloud(str(d / "c.csv"), sample_annulus(6, noise=0.1, seed=0),
                      header="annulus")
    (d / "c2.csv").write_bytes(
        b"# x,y\r\n\r\n 1.5,-0.0 \r\n-2,3e-07\r\n#\r\n0.25,7\n\n4,5 ")
    np.savetxt(d / "m.csv", np.abs(np.subtract.outer(*[np.arange(4.0)] * 2)),
               delimiter=",")
    assert run("rips", d / "c.csv", "-o", d / "dg.csv") == 0
    write_pgm(str(d / "g.pgm"), rng.integers(0, 9, size=(3, 4)), maxval=9)
    assert run("image", d / "g.pgm", "-o", d / "g_dg.csv") == 0
    (d / "h.csv").write_bytes(
        b"# death_cap=2.5\n\n dim,birth,death\r\n0,-0.0,inf\n# late=1e-07\n"
        b"1,0.5,1.5\n\n1,0.5,0.5 \n")
    (d / "c.pgm").write_bytes(b"P2 # body comments\n3 2\n7\n1 2 3 # row\n"
                              b"4\t5\r6\n#\n7 8 # after the samples\n")
    (d / "p3.ppm").write_bytes(b"P3\n2 1 255\n1 2 3\n40 50 60\n")
    (d / "g5.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(
        rng.integers(0, 256, 6).tolist()))
    write_voxel(str(d / "v.vox"), rng.uniform(-1, 1, size=(2, 2, 3)))
    (d / "w.vox").write_bytes(
        b"# grid\n\n 2 1 2\r\n1 -0.0\n# mid\n\n3e-07 4\x0b\n")
    return d


CASES = [("cloud", "c.csv"), ("cloud", "c2.csv"), ("cloud", "m.csv"),
         ("diagram", "dg.csv"), ("diagram", "g_dg.csv"),
         ("diagram", "h.csv"), ("pgm", "g.pgm"), ("pgm", "c.pgm"),
         ("pgm", "p3.ppm"), ("pgm", "g5.pgm"), ("voxel", "v.vox"),
         ("voxel", "w.vox")]

# Bytes that separate, comment, sign or spell numbers, and any byte.
BYTES = st.one_of(st.sampled_from(list(b" \t\r\n\x0b\x1c#,.-+e05_inf")),
                  st.integers(0, 255))
EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete", "truncate"]),
    st.integers(0, 1 << 8), BYTES), max_size=3)


def outcome(read, path):
    try:
        got = read(path)
    except Exception as exc:  # the oracle's exception is the expectation
        return type(exc).__name__, str(exc)
    if isinstance(got, PersistenceDiagram):
        meta = sorted((k, type(v).__name__, repr(v))
                      for k, v in got.metadata.items())
        arrays = (got.dims, got.births, got.deaths)
    else:
        meta, arrays = None, (got,)
    return "ok", meta, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("reader,name", CASES)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
@example(edits=[])
@example(edits=[("truncate", 1, 0)])
def test_reader_matches_line_oracle(seeds, reader, name, edits):
    bad = seeds / ("bad_" + name)
    bad.write_bytes(mutate((seeds / name).read_bytes(), edits))
    read, oracle = READERS[reader]
    want = outcome(oracle, str(bad))
    assert outcome(read, str(bad)) == want
    if not edits:
        assert want[0] == "ok"
