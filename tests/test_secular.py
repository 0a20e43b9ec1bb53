"""Secular systems versus the closed-form kernels, and oracle membership."""

import math
import sys

import numpy as np
import pytest

from qglattice.kernels import LatticeSpec, Quasimomentum, bracket, f_theta
from qglattice.secular import (
    kagome_secular_det,
    kagome_secular_matrix,
    normalized_bracket,
    oracle_in_spectrum,
    triangular_secular_det,
    triangular_secular_matrix,
)
from qglattice.bands import scan_bands, scan_negative_bands
from qglattice.kernels import GeometryError


def _random_kagome(rng):
    c = rng.uniform(0.3, 1.4)
    d = c + rng.uniform(0.2, 2.2)
    ell = rng.uniform(0.5, 2.0)
    return LatticeSpec.kagome(c, d, ell)


def test_normalized_determinant_equals_bracket_positive():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        spec = _random_kagome(rng)
        k = rng.uniform(0.05, 8.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        want = bracket(k, "positive", q, spec)
        got = normalized_bracket(k, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_normalized_determinant_equals_bracket_negative():
    rng = np.random.default_rng(43)
    for _ in range(400):
        spec = _random_kagome(rng)
        kp = rng.uniform(0.05, 3.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        want = bracket(kp, "negative", q, spec)
        got = normalized_bracket(1j * kp, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_conventional_determinant_prefactor():
    # det = 65536 i e^(2 i theta2) z^9 ell^3 sin(zc/2) sin(zd/2) sin(z(d-c)/2) * bracket
    spec = LatticeSpec.kagome(0.9, 2.3, 1.1)
    q = Quasimomentum(0.7, -1.1)
    for z in (0.6, 1.9, 2.0 + 0.3j):
        det = kagome_secular_det(z, q, spec)
        sines = np.sin(z * spec.c / 2) * np.sin(z * spec.d / 2) * np.sin(z * (spec.d - spec.c) / 2)
        expect = 65536j * np.exp(2j * q.theta2) * z ** 9 * spec.ell ** 3 * sines * bracket(z, "positive", q, spec)
        assert abs(det - expect) <= 1e-9 * abs(expect)


def test_determinant_vanishes_at_flat_momenta():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    q = Quasimomentum(0.9, 0.3)
    k_flat = 2.0 * math.pi / spec.c
    scale = abs(kagome_secular_det(k_flat + 0.1, q, spec))
    assert abs(kagome_secular_det(k_flat, q, spec)) < 1e-12 * scale


def test_determinant_sign_agrees_with_bracket():
    spec = LatticeSpec.kagome(1.0, 2.0, 1.0)
    q = Quasimomentum(0.0, 0.0)
    z = 0.5
    got = normalized_bracket(z, q, spec).real
    want = bracket(z, "positive", q, spec)
    assert np.sign(got) == np.sign(want)


def test_secular_matrix_shape_and_errors():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    sys12 = kagome_secular_matrix(1.3, Quasimomentum(0.1, 0.2), spec)
    assert sys12.dimension == 12 and sys12.matrix.shape == (12, 12)
    tri = LatticeSpec.triangular(2.0, 1.0)
    sys6 = triangular_secular_matrix(1.3, Quasimomentum(0.1, 0.2), tri)
    assert sys6.dimension == 6 and sys6.matrix.shape == (6, 6)
    with pytest.raises(GeometryError):
        kagome_secular_matrix(1.0, Quasimomentum(0.0, 0.0), tri)
    with pytest.raises(GeometryError):
        triangular_secular_matrix(1.0, Quasimomentum(0.0, 0.0), spec)
    with pytest.raises(ValueError):
        kagome_secular_matrix(0.0, Quasimomentum(0.0, 0.0), spec)


# --------------------------------------------------------------------------
# triangular system


def test_triangular_determinant_against_reduced_bracket():
    rng = np.random.default_rng(44)
    for _ in range(400):
        d = rng.uniform(0.5, 3.0)
        ell = rng.uniform(0.5, 2.0)
        spec = LatticeSpec.triangular(d, ell)
        z = rng.uniform(0.05, 6.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        x = (z * ell) ** 2
        want = (
            3.0 * (x * x + 6.0 * x + 1.0)
            + (3.0 * x * x + 10.0 * x + 3.0) * (2.0 * math.cos(z * d) + math.cos(2.0 * z * d))
            - 4.0 * (x - 1.0) ** 2 * math.cos(z * d / 2.0) ** 2 * f_theta(q)
        )
        got = normalized_bracket(z, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_triangular_no_bound_state_at_inverse_ell():
    # the reduced determinant at z = i/ell is nonzero for every
    # quasimomentum: the root suggested by the full condition is spurious
    from qglattice.secular import _det_grid

    for d, ell in ((1.7, 0.8), (1.0, 1.0)):
        spec = LatticeSpec.triangular(d, ell)
        z = 1j / ell
        thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        t1g, t2g = np.meshgrid(thetas, thetas, indexing="ij")
        raw = _det_grid(z, t1g.ravel(), t2g.ravel(), spec)
        assert np.abs(raw).min() > 1e-3  # nonzero over the whole 64 x 64 grid
        ch = math.cosh(d / ell)
        ch2 = math.cosh(2.0 * d / ell)
        sh2 = math.sinh(d / (2.0 * ell)) ** 2
        for t1, t2 in ((0.3, -1.2), (2.9, 2.9), (0.0, 0.0)):
            q = Quasimomentum(t1, t2)
            det = triangular_secular_det(z, q, spec)
            f = f_theta(q)
            expect = 1024j * np.exp(2j * q.theta2) / ell ** 3 * sh2 * (
                3.0 + 2.0 * f + 2.0 * (f + 1.0) * ch + ch2
            )
            assert abs(det - expect) <= 1e-10 * abs(expect)


def test_triangular_determinant_vanishes_at_flat_momenta():
    spec = LatticeSpec.triangular(1.9, 1.0)
    q = Quasimomentum(-0.4, 1.3)
    k_flat = 2.0 * math.pi / spec.d
    scale = abs(triangular_secular_det(k_flat + 0.1, q, spec))
    assert abs(triangular_secular_det(k_flat, q, spec)) < 1e-12 * scale


def test_triangular_determinant_sign_agrees_with_bracket():
    spec = LatticeSpec.triangular(1.0, 1.0)
    q = Quasimomentum(0.0, 0.0)
    z = 1.3
    x = z * z
    want = (
        3.0 * (x * x + 6.0 * x + 1.0)
        + (3.0 * x * x + 10.0 * x + 3.0) * (2.0 * math.cos(z) + math.cos(2.0 * z))
        - 4.0 * (x - 1.0) ** 2 * math.cos(z / 2.0) ** 2 * 3.0
    )
    assert np.sign(normalized_bracket(z, q, spec).real) == np.sign(want)


# --------------------------------------------------------------------------
# grid membership oracle


def test_oracle_flat_band_membership():
    assert oracle_in_spectrum(math.pi, LatticeSpec.equilateral(1.0, 1.0))


def test_oracle_rejects_gap_points():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    bs = scan_bands(spec, "positive", 6.0)
    cont = bs.continuous
    # midpoint of the first genuine gap
    gap_mid = 0.5 * (cont[0].k_hi + cont[1].k_lo)
    assert not oracle_in_spectrum(gap_mid, spec)
    assert oracle_in_spectrum(0.5 * (cont[1].k_lo + cont[1].k_hi), spec)


@pytest.mark.parametrize("spec", [
    LatticeSpec.kagome(1.0, 3.0, 1.0), LatticeSpec.equilateral(1.0, 1.0), LatticeSpec.triangular(2.0, 1.0),
], ids=["kagome", "equilateral", "triangular"])
@pytest.mark.parametrize("side", ["positive", "negative"])
def test_oracle_needs_no_kernel(monkeypatch, spec, side):
    bs = scan_bands(spec, "positive", 12.0) if side == "positive" else scan_negative_bands(spec)
    cont = bs.continuous
    gap_mid = 0.5 * (cont[0].k_hi + cont[1].k_lo)
    interior = 0.5 * (cont[1].k_lo + cont[1].k_hi)
    flats = [iv.k_lo for iv in bs.flat]
    assert flats or side == "negative"

    def kernel_called(*args, **kwargs):
        raise AssertionError("the oracle called a closed-form kernel")

    for name, module in list(sys.modules.items()):
        if name == "qglattice" or name.startswith("qglattice."):
            for fn in ("lambda_arrays", "tri_bracket_pos", "tri_bracket_neg"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, kernel_called)
    assert not oracle_in_spectrum(gap_mid, spec, side=side)
    assert oracle_in_spectrum(interior, spec, side=side)
    for k in flats:
        assert oracle_in_spectrum(k, spec, side=side), k


@pytest.mark.slow
def test_oracle_grid_refinement_stability():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    rng = np.random.default_rng(45)
    ks = rng.uniform(0.05, 20.0, 1000)
    mismatch = sum(
        oracle_in_spectrum(k, spec, theta_grid_n=8) != oracle_in_spectrum(k, spec, theta_grid_n=64)
        for k in ks
    )
    assert mismatch == 0


def test_oracle_requires_positive_argument_and_grid():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        oracle_in_spectrum(-1.0, spec)
    with pytest.raises(ValueError):
        oracle_in_spectrum(1.0, spec, theta_grid_n=4)
