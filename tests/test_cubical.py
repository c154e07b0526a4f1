"""Cubical filtrations of grids and their sublevel/superlevel diagrams."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phom import (
    InputError,
    betti_numbers,
    build_cubical_filtration,
    compute_persistence,
    image_persistence,
    superlevel_persistence,
    voxel_persistence,
)
from phom import cubical, persistence
from phom.datagen import gen_diffusion_field
from phom.persistence import union_find_h0
from oracles import (cube_betti, cube_cells, cube_faces, diagram_from_pairs,
                     pair_cells, reduction_pairs, sequential_lattice_pairs,
                     tied_grids)


def test_single_pixel_counts():
    K = build_cubical_filtration(np.array([[0.5]]))
    # (2*1+1)^2 = 9 cells: 4 points, 4 intervals, 1 square.
    assert K.n_cells == 9
    assert K.counts_by_dim().tolist() == [4, 4, 1]
    assert np.all(K.values == 0.5)
    assert K.dim == 2
    assert K.meta["grid_shape"] == (1, 1)


def test_two_pixel_shared_edge_min():
    g = np.array([[1.0, 2.0]])
    K = build_cubical_filtration(g)
    assert K.n_cells == 15
    cells = {K.cell(i): float(K.values[i]) for i in range(K.n_cells)}
    # The column between the two pixels takes the smaller value.
    assert cells[(0, 2)] == 1.0
    assert cells[(1, 2)] == 1.0
    assert cells[(2, 2)] == 1.0
    assert cells[(1, 1)] == 1.0
    assert cells[(1, 3)] == 2.0
    assert cells[(0, 4)] == 2.0


def test_cell_count_formula():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 4), (3, 3), (2, 2, 2), (1, 4, 2)]:
        g = rng.uniform(0, 1, size=shape)
        K = build_cubical_filtration(g)
        assert K.n_cells == int(np.prod([2 * n + 1 for n in shape]))
        assert K.dim == len(shape)


def test_values_match_doubling_oracle():
    rng = np.random.default_rng(1)
    for shape in [(4,), (3, 3), (2, 4), (2, 2, 3), (3, 1, 2)]:
        for _ in range(4):
            g = np.round(rng.uniform(0, 1, size=shape), 1)
            K = build_cubical_filtration(g)
            want = cube_cells(g)
            got = {K.cell(i): float(K.values[i]) for i in range(K.n_cells)}
            assert got == want


def test_dimension_is_odd_coordinate_count():
    K = build_cubical_filtration(np.zeros((2, 3)))
    for i in range(K.n_cells):
        assert K.dims[i] == sum(c % 2 for c in K.cell(i))


def test_boundary_wiring_matches_face_oracle():
    """Each boundary lists its faces in cube_faces order, and the cells
    come in (value, dimension, lexicographic) order with the oracle's
    values, also on rounded grids full of ties and of -0.0 and 0.0."""
    rng = np.random.default_rng(2)
    grids = [rng.uniform(0, 1, size=shape)
             for shape in [(3,), (2, 3), (2, 2, 2)]]
    grids += [np.round(rng.uniform(-1.5, 1.5, size=shape))
              for shape in [(7,), (4, 5), (3, 2, 4), (1, 6), (2, 1, 3)]
              for _ in range(4)]
    assert any(np.signbit(g[g == 0]).any() for g in grids[3:])
    for g in grids:
        K = build_cubical_filtration(g)
        cells = [K.cell(i) for i in range(K.n_cells)]
        index = {c: i for i, c in enumerate(cells)}
        assert index.keys() == cube_cells(g).keys()
        for i, c in enumerate(cells):
            assert K.boundary(i).tolist() == [index[f] for f in cube_faces(c)]
            assert K.dims[i] == sum(x % 2 for x in c)
        order = [(float(K.values[i]), int(K.dims[i]), c)
                 for i, c in enumerate(cells)]
        assert order == sorted(order)
        want = cube_cells(g)
        assert all(float(K.values[i]) == want[c] for i, c in enumerate(cells))


def test_faces_enter_no_later():
    rng = np.random.default_rng(3)
    g = np.round(rng.uniform(0, 1, size=(3, 4)), 1)
    K = build_cubical_filtration(g)
    for i in range(K.n_cells):
        for j in K.boundary(i):
            assert K.values[int(j)] <= K.values[i]
            assert int(j) < i


def test_sublevel_prefix_and_betti_oracle():
    rng = np.random.default_rng(4)
    for shape in [(3, 3), (2, 2, 2)]:
        for _ in range(5):
            g = np.round(rng.uniform(0, 1, size=shape), 1)
            K = build_cubical_filtration(g)
            top = len(shape)
            dg, _ = compute_persistence(K, max_dim=top)
            cmap = cube_cells(g)
            for eps in np.unique(K.values):
                eps = float(eps)
                sub = {c: v for c, v in cmap.items() if v <= eps}
                want = cube_betti(sub, top)
                assert dg.betti_at(eps, max_dim=top) == want
                assert betti_numbers(K.sublevel(eps), max_dim=top) == want


def test_image_persistence_one_basin():
    g = np.array([[2.0, 2.0, 2.0],
                  [2.0, 0.0, 2.0],
                  [2.0, 2.0, 2.0]])
    dg = image_persistence(g)
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]
    assert dg.in_dim(0, finite=True).tolist() == []
    # The bright ring never closes into a separate H1 feature: the dark
    # basin fills the middle before the corners arrive.
    assert dg.in_dim(1).tolist() == []
    assert dg.metadata["filtration"] == "cubical"
    assert dg.metadata["direction"] == "sublevel"
    assert dg.metadata["shape"] == "3x3"
    assert dg.metadata["death_cap"] == pytest.approx(4.0)


def test_image_persistence_two_basins_merge():
    g = np.array([[0.0, 1.0, 0.2]])
    dg = image_persistence(g, max_dim=0)
    assert dg.in_dim(0, finite=True).tolist() == [[0.2, 1.0]]
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]


def test_image_persistence_ring_makes_loop():
    g = np.full((3, 3), 1.0)
    g[1, 1] = 5.0
    dg = image_persistence(g)
    assert dg.in_dim(1).tolist() == [[1.0, 5.0]]


def test_voxel_persistence_enclosed_void():
    g = np.zeros((3, 3, 3))
    g[1, 1, 1] = 1.0
    dg = voxel_persistence(g)
    assert dg.in_dim(2).tolist() == [[0.0, 1.0]]
    assert dg.in_dim(1).tolist() == []
    assert dg.metadata["shape"] == "3x3x3"


def test_superlevel_is_sublevel_of_negation():
    rng = np.random.default_rng(5)
    g = np.round(rng.uniform(0, 1, size=(4, 4)), 1)
    sup = superlevel_persistence(g)
    neg = image_persistence(-g)
    assert sup.points == neg.points
    assert sup.metadata["direction"] == "superlevel"
    assert neg.metadata["direction"] == "sublevel"


def test_superlevel_peak_coordinates():
    g = np.array([[0.0, 0.0, 0.0],
                  [0.0, 3.0, 0.0],
                  [0.0, 0.0, 0.0]])
    dg = superlevel_persistence(g, max_dim=0)
    # Stored in negated coordinates: the peak is born at -3 and never dies.
    assert dg.in_dim(0, finite=False).tolist() == [[-3.0, math.inf]]


def test_grid_validation():
    with pytest.raises(InputError):
        build_cubical_filtration(np.zeros((2, 2, 2, 2)))
    with pytest.raises(InputError):
        build_cubical_filtration(np.array([]))
    with pytest.raises(InputError):
        build_cubical_filtration(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        image_persistence(np.zeros(4))
    with pytest.raises(InputError):
        voxel_persistence(np.zeros((2, 2)))


def test_grid_whose_lattice_keys_overflow_is_rejected(monkeypatch):
    """Sort keys below the lattice's cell count squared must fit in
    int64; a grid with more lattice cells is refused before any work.
    The bound is lowered here, as a real grid past it needs gigabytes."""
    bound = cubical._MAX_LATTICE
    assert bound ** 2 < 2**63 <= (bound + 1) ** 2
    monkeypatch.setattr(cubical, "_MAX_LATTICE", 7 * 9 * 5)
    voxel_persistence(np.zeros((3, 4, 2)))
    for g in (np.zeros((3, 4, 3)), np.zeros((32, 31))):
        with pytest.raises(InputError, match="too large"):
            superlevel_persistence(g)


def test_death_cap_flat_grid():
    dg = image_persistence(np.zeros((2, 2)))
    # Flat grids still get a positive cap: one unit past the constant.
    assert dg.metadata["death_cap"] == pytest.approx(1.0)


def test_1d_rail_profile():
    dg, _ = compute_persistence(build_cubical_filtration(
        np.array([0.0, 2.0, 1.0, 3.0])), max_dim=0)
    assert dg.in_dim(0, finite=True).tolist() == [[1.0, 2.0]]
    assert dg.in_dim(0, finite=False).tolist() == [[0.0, math.inf]]


def grid_runs(g):
    """Each diagram function that takes g, with the grid whose sublevel
    filtration it computes."""
    runs = [(superlevel_persistence, -g)]
    if g.ndim == 2:
        runs.append((image_persistence, g))
    if g.ndim == 3:
        runs.append((voxel_persistence, g))
    return runs


def snake(shape):
    """Every index of a grid of this shape, in a boustrophedon walk whose
    consecutive indices are neighbours."""
    if len(shape) == 1:
        return [(i,) for i in range(shape[0])]
    inner = snake(shape[1:])
    return [(i,) + c for i in range(shape[0])
            for c in (inner if i % 2 == 0 else inner[::-1])]


def serpentine_ramp(shape):
    """A corridor snakes through the cells of even index and the cells
    between consecutive ones, walled off above everything in it.  Its
    basins rise along it (-0.0, 0.0, 1.0, ...) while the passes between
    them fall, all above the basins, so each basin's lowest pass leads
    to the next, younger basin.  Once the first round of boruvka_h0 has
    contracted the basins, a round would kill one root, the last basin's,
    so union_find_h0 takes over."""
    rooms = snake(tuple((n + 1) // 2 for n in shape))
    path = [tuple(2 * x for x in rooms[0])]
    for room in rooms[1:]:
        cell = tuple(2 * x for x in room)
        path += [tuple((p + q) // 2 for p, q in zip(path[-1], cell)), cell]
    g = np.full(shape, 4.0 * len(rooms))
    for t, cell in enumerate(path):
        g[cell] = 3.0 * len(rooms) - t if t % 2 else t // 2 - 1.0
    g[path[0]] = -0.0
    return g


def plateau(shape):
    """A flat grid of 0.0 and -0.0 in a checkerboard."""
    return np.where(np.indices(shape).sum(axis=0) % 2, -0.0, 0.0)


RAMPS = [serpentine_ramp((21,)), serpentine_ramp((5, 7)),
         serpentine_ramp((3, 5, 5))]


@settings(max_examples=300, deadline=None)
@given(g=tied_grids(), max_dim=st.integers(0, 3))
@example(g=RAMPS[0], max_dim=0)
@example(g=-RAMPS[0], max_dim=0)
@example(g=RAMPS[1], max_dim=2)
@example(g=RAMPS[2], max_dim=3)
@example(g=plateau((9,)), max_dim=1)
@example(g=-plateau((4, 5)), max_dim=2)
@example(g=plateau((3, 3, 3)), max_dim=3)
def test_grid_paths_match_explicit_complex(g, max_dim):
    """The diagram functions, which never build the complex, give the
    points of compute_persistence on build_cubical_filtration at every
    max_dim up to the axis count, compared as repr strings so that a
    flipped -0.0 fails."""
    max_dim = min(max_dim, g.ndim)
    for persistence, sublevel_of in grid_runs(g):
        want, _ = compute_persistence(build_cubical_filtration(sublevel_of),
                                      max_dim=max_dim)
        got = persistence(g, max_dim=max_dim)
        assert repr(got.points) == repr(want.points)
        assert got.metadata["max_dim"] == max_dim


@pytest.mark.parametrize("g", RAMPS, ids=["1-axis", "2-axis", "3-axis"])
def test_serpentine_ramp_finishes_by_union_find(g, monkeypatch):
    """The sublevel H0 of a serpentine ramp reaches the union_find_h0
    finish, through superlevel_persistence of the negated grid and
    through image or voxel persistence."""
    calls = []

    def spy(n, a, b):
        calls.append(n)
        return union_find_h0(n, a, b)

    monkeypatch.setattr("phom.persistence.union_find_h0", spy)
    for run, grid in [(superlevel_persistence, -g)] + grid_runs(g)[1:]:
        calls.clear()
        run(grid, max_dim=0)
        assert calls and calls[0] > 8


@settings(max_examples=200, deadline=None)
@given(g=tied_grids())
def test_grid_paths_match_textbook_reduction(g):
    """The diagram functions give the points of the textbook reduction of
    a complex built from the oracles alone: cells from cube_cells sorted
    by (value, dim, coords), boundaries from cube_faces."""
    for persistence, sublevel_of in grid_runs(g):
        cells = cube_cells(sublevel_of)
        order = sorted(cells, key=lambda c: (cells[c], sum(x % 2 for x in c),
                                             c))
        index = {c: i for i, c in enumerate(order)}
        pairs, unpaired, _ = reduction_pairs(
            [[index[f] for f in cube_faces(c)] for c in order])
        dims = [sum(x % 2 for x in c) for c in order]
        values = [cells[c] for c in order]
        for max_dim in range(g.ndim + 1):
            want = diagram_from_pairs(pairs, unpaired, dims, values, max_dim)
            assert sorted(persistence(g, max_dim=max_dim).points) == want


def diffusion_voxels(n, seed=0):
    """n^3 grid of n smoothed noise slices, as perfbench's grid-cubical
    builds its voxel input."""
    return np.stack([gen_diffusion_field(n=n, steps=5,
                                         seed=1000 * (seed + 1) + z)
                     for z in range(n)])


@st.composite
def leveled_voxels(draw):
    """3-d grids of 1-10 per axis on 2-5 levels, with zeros of both
    signs."""
    shape = tuple(draw(st.lists(st.integers(1, 10), min_size=3,
                                max_size=3)))
    levels = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = (rng.integers(0, levels, size=shape) - levels // 2).astype(float)
    return np.where((g == 0) & (rng.random(shape) < 0.5), -0.0, g)


@settings(max_examples=150, deadline=None)
@given(g=leveled_voxels())
@example(g=np.zeros((1, 1, 1)))
@example(g=np.arange(20.0).reshape(1, 4, 5))
@example(g=np.arange(512.0).reshape(8, 8, 8))
@example(g=diffusion_voxels(24))
def test_voxel_pairs_match_sequential_reduction(g):
    """The void squares left out and the pairs made on arrays change no
    pair: birth and death cells equal those of the column-by-column
    reduction, sub- and superlevel, at every max_dim.  On the 24^3
    diffusion grid each array level runs several rounds."""
    for grid in (g, -g):
        for max_dim in range(4):
            assert (pair_cells(cubical._lattice_pairs(grid, max_dim))
                    == pair_cells(sequential_lattice_pairs(grid, max_dim)))


@pytest.mark.parametrize("g", [
    diffusion_voxels(24),
    np.random.default_rng(7).integers(0, 2, size=(10, 9, 8)).astype(float)])
def test_voxel_reduction_gets_only_critical_columns(monkeypatch, g):
    """reduce_coboundaries gets no apparent column from the voxel path,
    and no column it gets holds an apparent pivot, a square that gives
    birth to a void, the death of a pair made on arrays or a key that is
    no square; the array levels changed at least one column, and paired
    more than the apparent columns."""
    calls = []
    real = persistence.reduce_coboundaries

    def spy(problems, coboundaries):
        out = real(problems, coboundaries)
        (keys, pivot, has_cof, apparent), = problems
        calls.append((keys.tolist(), apparent.copy(),
                      coboundaries(list(range(keys.size))), out[0][1]))
        return out

    monkeypatch.setattr(persistence, "reduce_coboundaries", spy)
    groups = cubical._lattice_pairs(g, 2)
    assert len(calls) == 1
    keys, apparent, columns, heap_deaths = calls[0]
    assert keys and not apparent.any()

    rank, cells = cubical._cell_order(g)
    cleared = set(cubical._h0_pairs(rank, cells)[1].tolist())
    voids = set(cubical._top_pairs(rank, cells)[0].tolist())
    faces = {}
    for _, _, up, below, above in cubical._face_steps(rank, 2):
        for p, a, b in zip(up.ravel().tolist(), below.ravel().tolist(),
                           above.ravel().tolist()):
            faces.setdefault(p, []).extend((a, b))
    cofaces = {}
    for p, edges in faces.items():
        if p not in voids:
            for e in edges:
                cofaces.setdefault(e, []).append(p)
    apparent_pairs = {e: min(c) for e, c in cofaces.items()
                      if e not in cleared and max(faces[min(c)]) == e}
    deaths = {int(rank.reshape(-1)[x]) for k, _, dead in groups if k == 1
              for x in dead.tolist() if x >= 0}
    held = (voids | set(apparent_pairs.values())
            | (deaths - set(heap_deaths.tolist())))
    assert not set(keys) & apparent_pairs.keys()
    for col in columns:
        assert col == sorted(set(col)) and not set(col) & held
        assert all(0 <= k < cells[2].size for k in col)
    assert any(set(col) - set(cofaces[e]) for e, col in zip(keys, columns))
    assert len(keys) < len(cofaces.keys() - cleared - apparent_pairs.keys())


# tracemalloc peaks of the lattice engines from a fresh process, rounded
# up to the next 1,000 B (runs vary by about 100 B); recorded under numpy
# 2.4.6 and Python 3.11.7, whose allocations they depend on.
PEAK_BOUNDS_B = {"voxel-noise": 3_747_000, "voxel-grid": 3_291_000,
                 "image-noise": 6_788_000}
PEAK_VERSIONS = "numpy 2.4.6, Python 3.11.7"

_PEAK_SCRIPT = """
import json, tracemalloc
import numpy as np
from phom import image_persistence, voxel_persistence
from phom.datagen import gen_diffusion_field


def peak(run):
    tracemalloc.start()
    run()
    got = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return got


noise = np.random.default_rng(0).random((24, 24, 24))
grid = np.stack([gen_diffusion_field(n=24, steps=5, seed=1000 + z)
                 for z in range(24)])
image = np.random.default_rng(0).random((256, 256))
print(json.dumps({"voxel-noise": peak(lambda: voxel_persistence(noise)),
                  "voxel-grid": peak(lambda: voxel_persistence(grid)),
                  "image-noise": peak(lambda: image_persistence(image))}))
"""


def test_lattice_peaks_stay_within_the_recorded_bounds():
    """voxel_persistence on 24^3 uniform noise (seed 0) and on the 24^3
    grid of perfbench's grid-cubical instance 0, then image_persistence
    on 256^2 uniform noise (seed 0), each in a fresh tracemalloc session
    of a fresh process, peak at most at PEAK_BOUNDS_B."""
    src = os.path.dirname(os.path.dirname(cubical.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT], check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True).stdout
    got = json.loads(out)
    here = f"numpy {np.__version__}, Python {sys.version.split()[0]}"
    for name, bound in PEAK_BOUNDS_B.items():
        assert got[name] <= bound, (
            f"{name}: tracemalloc peak {got[name]:,} B over {bound:,} B; "
            f"the bound was recorded under {PEAK_VERSIONS}, this is {here}")
