"""Asymptotic band predictions against localized high-resolution scans."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qglattice.asymptotics import (
    equilateral_narrow_band,
    equilateral_negative_widths,
    kagome_negative_large_d,
    measure_narrow_pair,
    measure_negative_collapse,
    triangular_narrow_band,
    triangular_negative_large_d,
    triangular_star_collapse_function,
    comparison_rows,
)
from qglattice.bands import kagome_collapse_function, kagome_collapse_roots, scan_bands
from qglattice.kernels import GeometryError, LatticeSpec
from qglattice.vertex import star_negative_eigenvalues

SQRT3 = math.sqrt(3.0)


def test_equilateral_narrow_band_prediction_values():
    spec = LatticeSpec.equilateral(1.0, 1.0)
    pred = equilateral_narrow_band(1, spec)
    assert pred.center_k == pytest.approx(math.pi)
    assert pred.band_width_E == pytest.approx(2.0 * SQRT3 / 5.0)
    assert pred.gap_width_E / pred.band_width_E == pytest.approx(8.0)


def test_triangular_narrow_band_prediction_values():
    spec = LatticeSpec.triangular(1.0, 1.0)
    pred = triangular_narrow_band(2, spec)
    assert pred.center_k == pytest.approx(3.0 * math.pi)
    assert pred.band_width_E == pytest.approx(4.0 / SQRT3)
    assert pred.gap_width_E / pred.band_width_E == pytest.approx(2.0)


def test_prediction_geometry_guards():
    with pytest.raises(GeometryError):
        equilateral_narrow_band(1, LatticeSpec.triangular(1.0, 1.0))
    with pytest.raises(GeometryError):
        triangular_narrow_band(1, LatticeSpec.equilateral(1.0, 1.0))
    with pytest.raises(ValueError):
        equilateral_narrow_band(0, LatticeSpec.equilateral(1.0, 1.0))


def test_narrow_pair_measurements_converge():
    eq = LatticeSpec.equilateral(1.0, 1.0)
    pred = equilateral_narrow_band(1, eq)
    errs = []
    for n in (4, 16, 64):
        bw, gw, _ = measure_narrow_pair(eq, n)
        errs.append(abs(bw / pred.band_width_E - 1.0))
    assert errs[2] < errs[0]
    assert errs[2] < 0.05
    tri = LatticeSpec.triangular(1.0, 1.0)
    predt = triangular_narrow_band(1, tri)
    errs = []
    for n in (4, 16, 64):
        bw, gw, _ = measure_narrow_pair(tri, n)
        errs.append(abs(bw / predt.band_width_E - 1.0))
    assert errs[2] < errs[0]
    assert errs[2] < 0.05


@pytest.mark.parametrize("n", [1, 8, 22, 36, 50])
def test_narrow_pair_brackets_center(n):
    for spec in (LatticeSpec.equilateral(1.0, 1.0), LatticeSpec.triangular(1.0, 1.0)):
        if spec.kind == "equilateral_kagome":
            center = equilateral_narrow_band(n, spec).center_k
        else:
            center = triangular_narrow_band(n, spec).center_k
        _, _, (lower, upper) = measure_narrow_pair(spec, n)
        assert lower.k_hi < center < upper.k_lo


def test_generic_narrow_pairs_center_on_first_factor_roots():
    # narrow-band pairs appear around the zeros of
    # cos(k(2c-d)/2) + 2 cos(kd/2); where such a zero is not swallowed by a
    # wide band, the surrounding bands must be a narrow pair that tightly
    # brackets it
    from qglattice.bands import _margin

    c, d = 1.0, 3.0
    spec = LatticeSpec.kagome(c, d, 1.0)
    fn = lambda k: math.cos(k * (2 * c - d) / 2.0) + 2.0 * math.cos(k * d / 2.0)
    ks = np.linspace(30.0, 130.0, 140000)
    vals = np.array([fn(k) for k in ks])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        roots.append(brentq(fn, ks[i], ks[i + 1]))
    gap_roots = [r for r in roots if _margin(r, "positive", spec) > 0.0]
    assert len(gap_roots) >= 10
    bs = scan_bands(spec, "positive", 131.0)
    cont = bs.continuous
    for r in gap_roots[:10]:
        below = [iv for iv in cont if iv.k_hi < r]
        above = [iv for iv in cont if iv.k_lo > r]
        assert below and above
        lower, upper = below[-1], above[0]
        assert r - lower.k_hi < 0.1 and upper.k_lo - r < 0.1
        assert lower.width_k < 0.2 and upper.width_k < 0.2


# --------------------------------------------------------------------------
# negative-side collapse


def test_collapse_function_endpoint_values():
    for c, ell in ((1.0, 1.0), (0.5, 2.0)):
        spec = LatticeSpec.kagome(c, c + 1.0, ell)
        assert kagome_collapse_function(0.0, spec) == pytest.approx(9.0)
        assert kagome_collapse_function(1.0 / ell, spec) == pytest.approx(
            -12.0 * math.exp(-2.0 * c / ell), rel=1e-13
        )
        lo, hi = kagome_collapse_roots(spec)
        assert 0.0 < lo < 1.0 / ell < hi


@pytest.mark.parametrize("a", [0.5, 3.0, 40.0])
def test_collapse_roots_scale_with_ell(a):
    # the roots depend on c and ell only through kappa ell and c / ell; solved
    # in those units, the exact bracket endpoint kappa ell = 1 keeps its sign
    # even where the collapse function there is about -12 e^(-80)
    ref = kagome_collapse_roots(LatticeSpec.kagome(a, 1.125 * a, 1.0))
    for ell in (0.3, 7.0, 49.0):
        roots = kagome_collapse_roots(LatticeSpec.kagome(a * ell, 1.125 * a * ell, ell))
        assert [r * ell for r in roots] == pytest.approx(ref, rel=0.0, abs=1e-14)


def test_kagome_limit_set_contains_inverse_ell_energy():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    limits = kagome_negative_large_d(spec)
    assert len(limits.limit_energies) == 3
    assert limits.limit_energies == sorted(limits.limit_energies)
    assert any(abs(e + 1.0) < 1e-14 for e in limits.limit_energies)


def test_kagome_collapse_measured_centers():
    spec = LatticeSpec.kagome(1.0, 30.0, 1.0)
    limits = kagome_negative_large_d(spec)
    measured = measure_negative_collapse(spec)
    assert len(measured) == 3
    for (center, _), energy in zip(measured, limits.limit_energies):
        assert abs(center - energy) < 1e-3


def test_kagome_collapse_converges_with_period():
    limits = kagome_negative_large_d(LatticeSpec.kagome(1.0, 10.0, 1.0))
    errs = []
    for d in (10.0, 20.0):
        measured = measure_negative_collapse(LatticeSpec.kagome(1.0, d, 1.0))
        assert len(measured) == 3
        errs.append(max(abs(c - e) for (c, _), e in zip(measured, limits.limit_energies)))
    assert errs[1] < errs[0]


def test_triangular_collapse_roots_are_star_momenta():
    spec = LatticeSpec.triangular(5.0, 1.0)
    # 3x^2 - 10x + 3 = (3x - 1)(x - 3): roots kappa*ell = 1/sqrt(3), sqrt(3)
    for kp in (1.0 / SQRT3, SQRT3):
        assert triangular_star_collapse_function(kp, spec) == pytest.approx(0.0, abs=1e-12)
    limits = triangular_negative_large_d(spec)
    assert limits.limit_energies == pytest.approx(star_negative_eigenvalues(6, 1.0))


def test_triangular_collapse_measured_widths():
    spec = LatticeSpec.triangular(10.0, 1.0)
    limits = triangular_negative_large_d(spec)
    measured = measure_negative_collapse(spec)
    assert len(measured) == 2
    for (center, width), pred_c, pred_w in zip(measured, limits.center_energies, limits.widths):
        # the center formulas carry the exponentially small displacement of
        # the band midpoint away from the pure limit energy
        assert abs(center - pred_c) < 1e-4
        assert abs(width / pred_w - 1.0) < 0.10


def test_triangular_collapse_convergence_in_period():
    errs = []
    for d in (4.0, 8.0):
        spec = LatticeSpec.triangular(d, 1.0)
        limits = triangular_negative_large_d(spec)
        measured = measure_negative_collapse(spec)
        errs.append(abs(measured[1][1] / limits.widths[1] - 1.0))
    assert errs[1] < errs[0]


def test_equilateral_negative_width_values():
    spec = LatticeSpec.equilateral(1.0, 1.0)
    pred = equilateral_negative_widths(spec)
    assert pred.band_width_E == pytest.approx(SQRT3 / math.e, rel=1e-12)


def test_equilateral_negative_width_convergence():
    errs = []
    for c in (3.0, 6.0):
        spec = LatticeSpec.equilateral(c, 1.0)
        pred = equilateral_negative_widths(spec)
        measured = measure_negative_collapse(spec)
        assert len(measured) == 2
        err = max(abs(w / pred.band_width_E - 1.0) for _, w in measured)
        errs.append(err)
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_comparison_rows_structure():
    rows = comparison_rows(LatticeSpec.triangular(4.0, 1.0), n=5)
    assert all(len(r) == 4 for r in rows)
    names = [r[0] for r in rows]
    assert any(name.startswith("narrow_band_width") for name in names)
    assert any(name.startswith("negative_width") for name in names)
