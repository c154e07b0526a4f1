"""File formats: clouds, diagrams, PGM, voxels, JSON, complex caches."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phom import (
    FilteredSimplicialComplex,
    InputError,
    PersistenceDiagram,
    PersistenceImage,
    bottleneck_distance,
    build_cubical_filtration,
    compute_persistence,
    persistence_image,
    rips_filtration,
    wasserstein_distance,
)
from phom.io import (
    quantize_grid,
    read_complex_cache,
    read_diagram_csv,
    read_distance_matrix,
    read_distance_report,
    read_image_json,
    read_pgm,
    read_point_cloud,
    read_voxel,
    write_complex_cache,
    write_diagram_csv,
    write_distance_report,
    write_image_json,
    write_pgm,
    write_point_cloud,
    write_voxel,
)

# Floats whose text is easy to get wrong: a signed zero, the least
# subnormal, the largest finite magnitudes and a tiny normal.
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            1e-300]


def float_text(v) -> str:
    return repr(float(v))


def int_text(v) -> str:
    return str(int(v))


def text_rows(rows, fmt, sep: str) -> str:
    """The lines a writer should give rows, formatted element by element."""
    return "".join(sep.join(fmt(v) for v in row) + "\n" for row in rows)


def test_point_cloud_roundtrip(tmp_path):
    path = str(tmp_path / "pts.csv")
    pts = np.array([[0.1, 0.2], [1.0 / 3.0, -2.5], [1e-17, 4.0]])
    write_point_cloud(path, pts, header="unit cloud")
    back = read_point_cloud(path)
    assert np.array_equal(back, pts)
    write_point_cloud(path, back)
    assert np.array_equal(read_point_cloud(path), pts)
    pts = np.array([EXTREMES, EXTREMES[::-1], [1.0, 2, 0.1, 1 / 3, 1e16]])
    write_point_cloud(path, pts, header="x")
    with open(path) as fh:
        assert fh.read() == "# x\n" + text_rows(pts, float_text, ",")
    assert np.array_equal(read_point_cloud(path), pts)


def test_point_cloud_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# a comment\n\n1.0,2.0\n\n3.0,4.0\n")
    assert read_point_cloud(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_point_cloud_errors_name_the_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError) as err:
        read_point_cloud(str(path))
    assert ":2:" in str(err.value)

    path.write_text("1.0,zap\n")
    with pytest.raises(InputError) as err:
        read_point_cloud(str(path))
    assert ":1:" in str(err.value)

    path.write_text("# only comments\n")
    with pytest.raises(InputError):
        read_point_cloud(str(path))

    path.write_text("1.0,inf\n")
    with pytest.raises(InputError):
        read_point_cloud(str(path))


def test_missing_file_is_input_error():
    with pytest.raises(InputError):
        read_point_cloud("/nonexistent/file.csv")
    with pytest.raises(InputError):
        read_pgm("/nonexistent/file.pgm")


def test_distance_matrix_must_be_square(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.0,1.0\n1.0,0.0\n")
    assert read_distance_matrix(str(path)).shape == (2, 2)
    path.write_text("0.0,1.0,2.0\n1.0,0.0,3.0\n")
    with pytest.raises(InputError):
        read_distance_matrix(str(path))


def test_diagram_roundtrip(tmp_path):
    path = str(tmp_path / "dg.csv")
    pd = PersistenceDiagram.from_points(
        [(0, 0.0, math.inf), (0, 0.1, 0.7), (1, 0.25, 1.0 / 3.0)],
        metadata={"max_dim": 1, "filtration": "rips", "max_scale": 0.5})
    write_diagram_csv(path, pd)
    back = read_diagram_csv(path)
    assert back.points == sorted(pd.points)
    assert back.metadata == pd.metadata
    write_diagram_csv(path, back)
    assert read_diagram_csv(path).points == back.points


def test_diagram_bytes_are_stable(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    pd = PersistenceDiagram.from_points([(1, 0.1, 0.2)], metadata={"k": 3})
    write_diagram_csv(str(p1), pd)
    write_diagram_csv(str(p2), read_diagram_csv(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()


def test_diagram_metadata_typing(tmp_path):
    path = tmp_path / "dg.csv"
    path.write_text("# count=3\n# scale=0.5\n# name=rips thing\n"
                    "dim,birth,death\n")
    meta = read_diagram_csv(str(path)).metadata
    assert meta == {"count": 3, "scale": 0.5, "name": "rips thing"}


def test_diagram_validation(tmp_path):
    path = tmp_path / "dg.csv"
    path.write_text("dim,birth,death\n0,1.0,0.5\n")
    with pytest.raises(InputError) as err:
        read_diagram_csv(str(path))
    assert ":2:" in str(err.value)

    path.write_text("dim,birth,death\n-1,0.0,1.0\n")
    with pytest.raises(InputError):
        read_diagram_csv(str(path))

    path.write_text("0,0.0,1.0\n")
    with pytest.raises(InputError):
        read_diagram_csv(str(path))

    path.write_text("dim,birth,death\n0,0.0\n")
    with pytest.raises(InputError):
        read_diagram_csv(str(path))

    # Dimensions are stored as int64: 2**63 - 1 fits, one more does not.
    path.write_text("dim,birth,death\n9223372036854775807,0.0,1.0\n")
    assert read_diagram_csv(str(path)).points == [(2**63 - 1, 0.0, 1.0)]
    path.write_text("dim,birth,death\n0,0.0,1.0\n"
                    "9223372036854775808,0.0,1.0\n")
    with pytest.raises(InputError, match=f"{path}:3: dimension exceeds"):
        read_diagram_csv(str(path))


# Few distinct values, so points tie often, with -0.0 and 0.0 among them.
_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 1.0 / 3.0, 2.0])


@st.composite
def _tied_points(draw):
    out = []
    for _ in range(draw(st.integers(0, 24))):
        b = draw(_VALUES)
        d = draw(st.one_of(_VALUES, st.just(math.inf)))
        out.append((draw(st.integers(0, 3)), *((d, b) if d < b else (b, d))))
    return out


@settings(max_examples=300, deadline=None)
@given(points=_tied_points())
def test_diagram_order_is_tuple_order_and_files_round_trip(
        tmp_path_factory, points):
    """The constructor orders points as sorted() orders the tuples, equal
    points (-0.0 and 0.0) in the order given, and a diagram CSV written,
    read and written again is the same bytes."""
    pd = PersistenceDiagram.from_points(points)
    assert repr(pd.points) == repr(sorted(points))
    a, b = (str(tmp_path_factory.mktemp("dg") / n) for n in "ab")
    write_diagram_csv(a, pd)
    back = read_diagram_csv(a)
    assert repr(back.points) == repr(pd.points)
    write_diagram_csv(b, back)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("row", [
    "1_0,0.0,1.5", "1,1_0.5,20.0", "1,0.0,1_0.5", "1,0.0,Infinity",
    "1,0.0,INF", "+1,0.0,1.0", "1,+0.5,1.0", "1,0.5,1.", "1,.5,1.0",
    "1,0.5,1E5", "1, 0.5,1.0", "1,0.5,1.e5", "01_2,0.0,1.0"])
def test_diagram_numbers_only_in_written_forms(tmp_path, row):
    """int() and float() read "1_0" as 10 and "Infinity" as inf; a
    diagram holds only the forms phom writes, or it names the line."""
    path = tmp_path / "dg.csv"
    path.write_text(f"# k=1\ndim,birth,death\n0,0.0,1.0\n{row}\n")
    with pytest.raises(InputError, match=f"{path}:4: a number not in"):
        read_diagram_csv(str(path))


def test_diagram_written_forms_are_read(tmp_path):
    path = tmp_path / "dg.csv"
    path.write_text("# count=3\n# odd=1_0\n# cap=Infinity\n"
                    "dim,birth,death\n0,-0.0,1e-05\n1,2.5e-07,1.7e308\n"
                    "12,0.25,1e+16\n0,-3.0,inf\n")
    pd = read_diagram_csv(str(path))
    assert repr(pd.points) == repr([(0, -3.0, math.inf), (0, -0.0, 1e-05),
                                    (1, 2.5e-07, 1.7e308),
                                    (12, 0.25, 1e16)])
    # Metadata in other forms stays text.
    assert pd.metadata == {"count": 3, "odd": "1_0", "cap": "Infinity"}


@pytest.mark.parametrize("cap", ["abc", "nan", "inf", "-inf", "1e999",
                                 "0.5", "1_0", "Infinity"])
def test_diagram_death_cap_must_be_finite_and_cap_essentials(tmp_path, cap):
    """vectorize caps infinite deaths at death_cap, so it must be a
    finite number no smaller than any essential point's birth."""
    path = tmp_path / "dg.csv"
    path.write_text(f"# death_cap={cap}\ndim,birth,death\n"
                    "0,1.0,inf\n1,0.0,2.0\n")
    with pytest.raises(InputError, match=f"{path}: death_cap"):
        read_diagram_csv(str(path))


@pytest.mark.parametrize("cap,want", [("1.0", 1.0), ("3", 3)])
def test_diagram_death_cap_at_or_above_essential_births(tmp_path, cap, want):
    path = tmp_path / "dg.csv"
    path.write_text(f"# death_cap={cap}\ndim,birth,death\n0,1.0,inf\n")
    assert read_diagram_csv(str(path)).metadata["death_cap"] == want


def test_pgm_ascii_roundtrip(tmp_path):
    path = str(tmp_path / "img.pgm")
    grid = np.array([[0, 128, 255], [64, 32, 16]])
    write_pgm(path, grid)
    back = read_pgm(path)
    assert np.array_equal(back, grid)
    wide = np.array([[0, 1, 65535], [256, 65534.6, 9.5]])
    write_pgm(path, wide, maxval=65535)
    with open(path) as fh:
        assert fh.read() == "P2\n3 2\n65535\n" + text_rows(
            np.rint(wide), int_text, " ")
    assert np.array_equal(read_pgm(path), np.rint(wide))


def test_pgm_binary_and_wide(tmp_path):
    p5 = tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 10, 20]))
    assert read_pgm(str(p5)).tolist() == [[0, 255], [10, 20]]

    wide = tmp_path / "w.pgm"
    samples = np.array([[300, 65535], [0, 1]], dtype=">u2")
    wide.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
    assert read_pgm(str(wide)).tolist() == [[300, 65535], [0, 1]]


def test_ppm_color_mean(tmp_path):
    p3 = tmp_path / "c.ppm"
    p3.write_text("P3\n1 1\n255\n30 60 90\n")
    # Channel mean 60, maxval 255 keeps the 0..255 scale.
    assert read_pgm(str(p3)).tolist() == [[60.0]]

    p6 = tmp_path / "c6.ppm"
    p6.write_bytes(b"P6\n1 1\n255\n" + bytes([30, 60, 90]))
    assert read_pgm(str(p6)).tolist() == [[60.0]]


def test_pgm_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# made by hand\n2 1\n# another\n9\n4 9\n")
    assert read_pgm(str(path)).tolist() == [[4, 9]]


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P7\n1 1\n255\n0\n")
    with pytest.raises(InputError):
        read_pgm(str(path))
    path.write_text("P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(InputError):
        read_pgm(str(path))
    path.write_text("P2\n1 1\n70000\n0\n")
    with pytest.raises(InputError):
        read_pgm(str(path))
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(InputError):
        read_pgm(str(path))
    path.write_text("P2\n1 1\n255\n300\n")
    with pytest.raises(InputError):
        read_pgm(str(path))
    with pytest.raises(InputError):
        write_pgm(str(path), np.array([[-1, 0]]))


def test_quantize_grid():
    g = np.array([[0.0, 0.5, 1.0]])
    q = quantize_grid(g, maxval=10)
    assert q.tolist() == [[0, 5, 10]]
    assert quantize_grid(np.full((2, 2), 3.0)).tolist() == [[0, 0], [0, 0]]


def test_voxel_roundtrip(tmp_path):
    path = str(tmp_path / "g.vox")
    grid = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0
    write_voxel(path, grid)
    back = read_voxel(path)
    assert np.array_equal(back, grid)
    write_voxel(path, back)
    assert np.array_equal(read_voxel(path), grid)
    grid = np.array(EXTREMES * 6).reshape(3, 2, 5)
    write_voxel(path, grid)
    with open(path) as fh:
        assert fh.read() == "5 2 3\n" + text_rows(
            grid.reshape(-1, 5), float_text, " ")
    assert np.array_equal(read_voxel(path), grid)


def test_voxel_axis_order(tmp_path):
    path = tmp_path / "g.vox"
    # nx=3, ny=2, nz=1; values x-fastest.
    path.write_text("3 2 1\n0 1 2 3 4 5\n")
    grid = read_voxel(str(path))
    assert grid.shape == (1, 2, 3)
    assert grid[0, 0].tolist() == [0, 1, 2]
    assert grid[0, 1].tolist() == [3, 4, 5]


def test_voxel_accepts_2d_write(tmp_path):
    path = str(tmp_path / "g.vox")
    write_voxel(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert read_voxel(path).shape == (1, 2, 2)
    grid = np.array([EXTREMES, EXTREMES[::-1]])
    write_voxel(path, grid)
    with open(path) as fh:
        assert fh.read() == "5 2 1\n" + text_rows(grid, float_text, " ")


def test_voxel_errors(tmp_path):
    path = tmp_path / "g.vox"
    path.write_text("")
    with pytest.raises(InputError):
        read_voxel(str(path))
    path.write_text("2 2\n0 0 0 0\n")
    with pytest.raises(InputError):
        read_voxel(str(path))
    path.write_text("2 1 1\n0\n")
    with pytest.raises(InputError) as err:
        read_voxel(str(path))
    assert "expected 2" in str(err.value)
    path.write_text("1 1 1\n0 1\n")
    with pytest.raises(InputError):
        read_voxel(str(path))
    path.write_text("1 1 1\nzap\n")
    with pytest.raises(InputError):
        read_voxel(str(path))
    path.write_text("0 2 2\n")  # no values, as many as 0 * 2 * 2
    with pytest.raises(InputError, match="dimensions must be positive"):
        read_voxel(str(path))


def test_image_json_roundtrip(tmp_path):
    path = str(tmp_path / "img.json")
    pd = PersistenceDiagram.from_points([(1, 0.2, 0.9), (1, 0.3, 1.1)])
    img = persistence_image(pd, dim=1, resolution=(5, 7), sigma=0.21,
                            support=((0.0, 1.0), (0.0, 1.5)))
    write_image_json(path, img)
    back = read_image_json(path)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.support == img.support
    assert back.sigma == img.sigma
    assert back.weight == img.weight
    pixels = np.array(EXTREMES + [0.1]).reshape(2, 3)
    write_image_json(path, PersistenceImage(pixels, img.support, 0.21,
                                            "linear"))
    with open(path) as fh:
        assert fh.read().endswith('"pixels": [%s]}\n' % ", ".join(
            format(float(v), ".17g") for v in pixels.ravel()))
    assert np.array_equal(read_image_json(path).pixels, pixels)


def test_image_json_key_order(tmp_path):
    path = tmp_path / "img.json"
    pd = PersistenceDiagram.from_points([(1, 0.2, 0.9)])
    write_image_json(str(path), persistence_image(pd, dim=1))
    text = path.read_text()
    assert text.index('"resolution"') < text.index('"range"') \
        < text.index('"sigma"') < text.index('"weight"') \
        < text.index('"pixels"')
    with pytest.raises(InputError):
        path.write_text("{not json")
        read_image_json(str(path))
    with pytest.raises(InputError):
        path.write_text('{"resolution": [2, 2]}')
        read_image_json(str(path))


_GOOD_IMAGE = {"resolution": [2, 4], "range": [[0.0, 1.0], [0.0, 2.0]],
               "sigma": 0.5, "weight": "linear", "pixels": [0.125] * 8}


@pytest.mark.parametrize("edit", [
    {"resolution": [-1, 4]}, {"resolution": [2, -4]},
    {"resolution": [0, 0], "pixels": []}, {"resolution": [2.0, 4]},
    {"resolution": [True, 8]}, {"resolution": [2, 2]},
    {"resolution": [2, 4, 1]}, {"range": [[0.0, math.inf], [0.0, 2.0]]},
    {"range": [[0.0, 1.0]]}, {"range": [[1.0, 1.0], [0.0, 2.0]]},
    {"range": [[0.0, 1.0], [2.0, 0.0]]},
    {"range": [[-1e308, 1e308], [0.0, 2.0]]}, {"sigma": -1}, {"sigma": 0},
    {"sigma": math.nan}, {"weight": "bogus"}, {"weight": 1},
    {"pixels": [0.125] * 7 + [math.nan]},
    {"pixels": [0.125] * 7 + [-math.inf]}, {"pixels": [[0.125] * 4] * 2},
    {"pixels": [0.125] * 9}])
def test_image_json_rejects_what_vectorize_cannot_write(tmp_path, edit):
    """A resolution that is not two integers >= 1 matching the pixel
    count, a range that is not finite with positive extent, a sigma that
    is not finite and positive, an unknown weight or a pixel that is not
    finite is malformed input naming the file."""
    path = tmp_path / "img.json"
    path.write_text(json.dumps(_GOOD_IMAGE))
    assert read_image_json(str(path)).resolution == (2, 4)
    # json writes nan and inf as NaN and Infinity, which json.load reads.
    path.write_text(json.dumps(dict(_GOOD_IMAGE, **edit)))
    with pytest.raises(InputError, match=str(path)):
        read_image_json(str(path))


def test_distance_report_roundtrip(tmp_path):
    path = str(tmp_path / "rep.json")
    d1 = PersistenceDiagram.from_points([(1, 0.0, 2.0), (1, 0.5, math.inf)])
    d2 = PersistenceDiagram.from_points([(1, 0.1, 2.2), (1, 0.6, math.inf)])
    for rep in (bottleneck_distance(d1, d2, dim=1),
                wasserstein_distance(d1, d2, dim=1, p=2.0)):
        write_distance_report(path, rep)
        back = read_distance_report(path)
        assert back.metric == rep.metric
        assert back.value == rep.value
        assert back.matching == rep.matching
        assert back.essential_matching == rep.essential_matching
        assert back.p == rep.p


def test_distance_report_inf_value(tmp_path):
    path = str(tmp_path / "rep.json")
    d1 = PersistenceDiagram.from_points([(1, 0.5, math.inf)])
    d2 = PersistenceDiagram.from_points([])
    rep = bottleneck_distance(d1, d2, dim=1)
    write_distance_report(path, rep)
    assert math.isinf(read_distance_report(path).value)


def test_complex_cache_roundtrip(tmp_path):
    path = str(tmp_path / "K.cplx")
    rng = np.random.default_rng(19)
    pts = rng.uniform(0, 1, size=(8, 2))
    from phom import point_cloud_distances
    K = rips_filtration(point_cloud_distances(pts), 2, 0.8, scale="diameter")
    write_complex_cache(path, K, meta={"kind": "rips"})
    back = read_complex_cache(path)
    assert back.meta["kind"] == "rips"
    assert len(back) == K.n_cells
    assert np.array_equal(back.values, K.values)
    assert np.array_equal(np.asarray(back.dims), np.asarray(K.dims))
    assert back.labels() == K.labels()
    for i in range(K.n_cells):
        assert back.boundary(i).tolist() == K.boundary(i).tolist()
    # Persistence of the reloaded complex matches the original exactly.
    dg0, _ = compute_persistence(K, max_dim=1)
    dg1, _ = compute_persistence(back, max_dim=1)
    assert dg0.points == dg1.points
    big = EXTREMES[2]
    for kind, K in [
            ("simplicial", FilteredSimplicialComplex(
                [((0,), -big), ((1,), -0.0), ((2,), 5e-324), ((0, 1), 1e-300),
                 ((0, 2), big), ((1, 2), big), ((0, 1, 2), big)])),
            ("cubical", build_cubical_filtration(
                np.array(EXTREMES + [0.1]).reshape(3, 2)))]:
        write_complex_cache(path, K, meta={"kind": kind})
        lines = [" ".join([int_text(K.dims[i]), float_text(K.values[i]), label]
                          + [int_text(f) for f in K.boundary(i)])
                 for i, label in enumerate(K.labels())]
        with open(path) as fh:
            assert fh.read() == (
                f"# phom-complex 1\nmeta kind {kind}\ncells {len(K)}\n"
                + "".join(line + "\n" for line in lines))
        assert read_complex_cache(path).labels() == K.labels()


def test_complex_cache_errors(tmp_path):
    path = tmp_path / "K.cplx"
    path.write_text("plain text\n")
    with pytest.raises(InputError):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\nnope\n")
    with pytest.raises(InputError):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\ncells 2\n0 0.0 a\n")
    with pytest.raises(InputError):
        read_complex_cache(str(path))
    # A face index at or after its coface breaks the filtration order.
    path.write_text("# phom-complex 1\ncells 2\n0 0.0 a\n1 1.0 ab 0 1\n")
    with pytest.raises(InputError):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\ncells 2\n0 1.0 a\n0 0.5 b\n")
    with pytest.raises(InputError):
        read_complex_cache(str(path))
    # The cell count must be non-negative and match the cell lines.
    path.write_text("# phom-complex 1\ncells -3\n")
    with pytest.raises(InputError, match=f"{path}:2: negative cell count"):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\ncells 1\n0 0.0 a\n0 0.0 b\n")
    with pytest.raises(InputError, match=f"{path}:4: .*last of 1 cells"):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\ncells 1\n0 0.0 a\n\njunk\n")
    with pytest.raises(InputError, match=f"{path}:5: .*last of 1 cells"):
        read_complex_cache(str(path))
    path.write_text("# phom-complex 1\ncells 1\n0 0.0 a\n\n \n")
    assert read_complex_cache(str(path)).n_cells == 1


@pytest.mark.parametrize("last,why", [
    ("2 2.0 t 0 1", "dimension"),     # a triangle with vertex faces
    ("1 2.0 e 3 3", "twice"),         # a face repeated on one line
    ("2 2.0 t 3 4", "boundary of the boundary"),  # two edges, open path
    ("1 inf ac 0 2", "finite"),
    ("-1 2.0 z", "negative dimension"),
    ("1 2.0 ac", "a 1-cell needs 2 faces, not 0"),
    ("1 2.0 ac 0 1 2", "a 1-cell needs 2 faces, not 3"),
])
def test_complex_cache_rejects_bad_faces(tmp_path, last, why):
    path = tmp_path / "K.cplx"
    path.write_text("# phom-complex 1\ncells 6\n0 0.0 a\n0 0.0 b\n"
                    "0 0.0 c\n1 1.0 ab 0 1\n1 1.0 bc 1 2\n" + last + "\n")
    with pytest.raises(InputError, match=f"{path}:8: .*{why}"):
        read_complex_cache(str(path))


@pytest.mark.parametrize("line,bad", [
    (3, "cells 1_0"), (3, "cells +6"), (5, "0 0_0 b"), (7, "1 1.0 bc 1 +2"),
    (7, "1 Infinity bc 1 2"), (8, "1_0 1.0 ac 0 2"), (8, "1 1.0 ac 0_0 2")])
def test_complex_cache_numbers_only_in_written_forms(tmp_path, line, bad):
    lines = ["# phom-complex 1", "meta kind rips", "cells 6", "0 0.0 a",
             "0 0.0 b", "0 0.0 c", "1 1.0 ab 0 1", "1 1.0 bc 1 2",
             "1 1.0 ac 0 2"]
    path = tmp_path / "K.cplx"
    path.write_text("\n".join(lines) + "\n")
    assert read_complex_cache(str(path)).n_cells == 6
    lines[line - 1] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=f"{path}:{line}: "):
        read_complex_cache(str(path))


@pytest.mark.parametrize("kind,ok", [("rips", True),
                                     ("cubical-sublevel", False)])
def test_complex_cache_face_count_follows_kind(tmp_path, kind, ok):
    """A triangle has 3 faces; a cubical 2-cell needs 4."""
    path = tmp_path / "K.cplx"
    path.write_text(f"# phom-complex 1\nmeta kind {kind}\ncells 7\n"
                    "0 0.0 a\n0 0.0 b\n0 0.0 c\n1 1.0 ab 0 1\n"
                    "1 1.0 ac 0 2\n1 1.0 bc 1 2\n2 2.0 t 3 4 5\n")
    if ok:
        assert read_complex_cache(str(path)).dim == 2
    else:
        with pytest.raises(InputError, match=f"{path}:10: .*needs 4 faces"):
            read_complex_cache(str(path))

