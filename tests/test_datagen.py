"""Seeded dataset generators: diffusion, sinusoid pairs, samplers, KDE."""

import math

import numpy as np
import pytest

from phom import (
    KdeField,
    ParameterError,
    Perturbation,
    gen_diffusion_field,
    gen_periodic_pair,
    kde_grid,
    sample_annulus,
    sample_double_annulus,
    sliding_windows,
)


def test_diffusion_deterministic():
    a = gen_diffusion_field(n=16, coeff=0.3, steps=10, seed=5)
    b = gen_diffusion_field(n=16, coeff=0.3, steps=10, seed=5)
    c = gen_diffusion_field(n=16, coeff=0.3, steps=10, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (16, 16)


def test_diffusion_conserves_mean():
    for coeff in (0.1, 0.5, 0.9):
        u0 = gen_diffusion_field(n=24, coeff=coeff, steps=0, dt=0.2, seed=1)
        u = gen_diffusion_field(n=24, coeff=coeff, steps=40, dt=0.2, seed=1)
        assert u.mean() == pytest.approx(u0.mean(), abs=1e-12)
        assert u.var() <= u0.var() + 1e-12


def test_diffusion_smooths_more_with_larger_coeff():
    lo = gen_diffusion_field(n=32, coeff=0.1, steps=50, dt=0.2, seed=0)
    hi = gen_diffusion_field(n=32, coeff=0.9, steps=50, dt=0.2, seed=0)
    assert hi.var() < lo.var()


def test_diffusion_stability_guard():
    with pytest.raises(ParameterError) as err:
        gen_diffusion_field(n=8, coeff=2.0, steps=1, dt=0.2)
    assert "exceeds 1/2" in str(err.value)
    # Right at the bound is allowed.
    gen_diffusion_field(n=8, coeff=1.25, steps=1, dt=0.2)


def test_diffusion_parameter_guards():
    with pytest.raises(ParameterError):
        gen_diffusion_field(n=1)
    with pytest.raises(ParameterError):
        gen_diffusion_field(steps=-1)
    with pytest.raises(ParameterError):
        gen_diffusion_field(coeff=-0.1)
    with pytest.raises(ParameterError):
        gen_diffusion_field(dt=0.0)


@pytest.mark.parametrize("kw", [{"dx": math.inf}, {"dy": math.nan}])
def test_diffusion_rejects_non_finite_spacing(kw):
    """Grid spacings are not CLI options; inf passes the stability bound
    and nan every comparison, so both are checked for finiteness."""
    with pytest.raises(ParameterError, match="must be finite"):
        gen_diffusion_field(n=4, steps=1, **kw)


def test_periodic_pair_is_quadrature_circle():
    s = gen_periodic_pair(n_samples=128, amplitude=2.0, frequency=1.0 / 32.0)
    assert s.shape == (128, 2)
    radii = np.hypot(s[:, 0], s[:, 1])
    assert np.allclose(radii, 2.0, atol=1e-12)
    assert s[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert s[0, 1] == pytest.approx(2.0)
    # Quarter period later the roles swap.
    assert s[8, 0] == pytest.approx(2.0)
    assert s[8, 1] == pytest.approx(0.0, abs=1e-12)


def test_periodic_pair_shift_window():
    p = Perturbation("shift", 0.5, 10, 20)
    s = gen_periodic_pair(n_samples=40, perturbation=p)
    clean = gen_periodic_pair(n_samples=40)
    assert np.array_equal(s[:10], clean[:10])
    assert np.allclose(s[10:20], clean[10:20] + 0.5)
    assert np.array_equal(s[20:], clean[20:])


def test_periodic_pair_scale_window():
    p = Perturbation("scale", 0.4, 0, 5)
    s = gen_periodic_pair(n_samples=10, perturbation=p)
    clean = gen_periodic_pair(n_samples=10)
    assert np.allclose(s[:5], clean[:5] * 1.4)
    assert np.array_equal(s[5:], clean[5:])


def test_periodic_pair_window_past_end_is_clipped():
    p = Perturbation("shift", 1.0, 8, 99)
    s = gen_periodic_pair(n_samples=10, perturbation=p)
    assert s.shape == (10, 2)


def test_periodic_pair_noise_seeded():
    a = gen_periodic_pair(n_samples=50, noise_sigma=0.1, seed=3)
    b = gen_periodic_pair(n_samples=50, noise_sigma=0.1, seed=3)
    c = gen_periodic_pair(n_samples=50, noise_sigma=0.1, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_perturbation_validation():
    with pytest.raises(ParameterError):
        Perturbation("warp", 0.1, 0, 5)
    with pytest.raises(ParameterError):
        Perturbation("shift", 0.1, 5, 2)


def test_sliding_windows_counts_and_content():
    series = np.arange(20, dtype=float).reshape(10, 2)
    ws = sliding_windows(series, window=4, stride=3)
    assert len(ws) == (10 - 4) // 3 + 1 == 3
    assert np.array_equal(ws[0], series[0:4])
    assert np.array_equal(ws[1], series[3:7])
    assert np.array_equal(ws[2], series[6:10])
    assert len(sliding_windows(series, 10, 1)) == 1
    assert len(sliding_windows(series, 1, 1)) == 10


def test_sliding_windows_guards():
    series = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        sliding_windows(series, 0, 1)
    with pytest.raises(ParameterError):
        sliding_windows(series, 6, 1)
    with pytest.raises(ParameterError):
        sliding_windows(series, 2, 0)


def test_annulus_exact_radius_without_noise():
    pts = sample_annulus(200, radius=1.5, noise=0.0, seed=2)
    assert pts.shape == (200, 2)
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.5, atol=1e-12)
    again = sample_annulus(200, radius=1.5, noise=0.0, seed=2)
    assert np.array_equal(pts, again)


def test_annulus_noise_spreads_radius():
    pts = sample_annulus(500, radius=1.0, noise=0.1, seed=7)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert 0.05 < r.std() < 0.2
    assert abs(r.mean() - 1.0) < 0.05


def test_double_annulus_halves():
    pts = sample_double_annulus(101, radii=(1.0, 0.5), separation=2.0,
                                noise=0.0, seed=0)
    assert pts.shape == (101, 2)
    left, right = pts[:51], pts[51:]
    assert np.allclose(np.hypot(left[:, 0] + 1.0, left[:, 1]), 1.0)
    assert np.allclose(np.hypot(right[:, 0] - 1.0, right[:, 1]), 0.5)


def test_sampler_guards():
    with pytest.raises(ParameterError):
        sample_annulus(0)
    with pytest.raises(ParameterError):
        sample_annulus(5, radius=0.0)
    with pytest.raises(ParameterError):
        sample_annulus(5, noise=-1.0)
    with pytest.raises(ParameterError):
        sample_double_annulus(1)
    with pytest.raises(ParameterError):
        sample_double_annulus(10, radii=(1.0, 0.0))


def test_kde_mass_and_peak():
    rng = np.random.default_rng(11)
    pts = rng.normal(0.0, 0.3, size=(300, 2))
    f = kde_grid(pts, resolution=80)
    assert isinstance(f, KdeField)
    mass = f.values.sum() * f.cell_area
    assert mass == pytest.approx(1.0, abs=2e-2)
    # Density peaks near the origin for a centred cloud.
    iy, ix = np.unravel_index(np.argmax(f.values), f.values.shape)
    x0, x1, y0, y1 = f.extent
    px = x0 + (ix + 0.5) / f.values.shape[1] * (x1 - x0)
    py = y0 + (iy + 0.5) / f.values.shape[0] * (y1 - y0)
    assert abs(px) < 0.2 and abs(py) < 0.2


def test_kde_scott_bandwidth():
    rng = np.random.default_rng(13)
    pts = rng.normal(0.0, 1.0, size=(200, 2))
    f = kde_grid(pts)
    want = 200 ** (-1.0 / 6.0) * pts.std(axis=0, ddof=1)
    assert f.bandwidth[0] == pytest.approx(float(want[0]))
    assert f.bandwidth[1] == pytest.approx(float(want[1]))
    g = kde_grid(pts, bandwidth=0.25)
    assert g.bandwidth == (0.25, 0.25)
    h = kde_grid(pts, bandwidth=(0.2, 0.4))
    assert h.bandwidth == (0.2, 0.4)


def test_kde_axis_layout():
    # A point far to the right must light up high-ix cells, not high-iy.
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    f = kde_grid(pts, resolution=32, bandwidth=0.3)
    iy, ix = np.unravel_index(np.argmax(f.values), f.values.shape)
    col_mass = f.values.sum(axis=0)
    assert col_mass[2] > col_mass[16] < col_mass[-3]


def test_kde_guards():
    with pytest.raises(ParameterError):
        kde_grid(np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        kde_grid(np.zeros((0, 2)))
    with pytest.raises(ParameterError):
        kde_grid(np.zeros((4, 2)), resolution=1)
    with pytest.raises(ParameterError):
        kde_grid(np.zeros((4, 2)), bandwidth=0.0)
