"""Closed-form kernels, quasimomentum weights and reduced band conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from qglattice import kernels
from qglattice.bands import BRACKET_RTOL
from qglattice.kernels import (
    GeometryError,
    LatticeSpec,
    Quasimomentum,
    asymptotic_coefficients,
    bracket,
    bracket_curvature_bound,
    f_theta,
    g_theta,
    kagome_equilateral_F,
    lambda_arrays,
    lambda_neg,
    lambda_pos,
    tri_G,
    tri_G_tilde,
    tri_bracket_pos,
    xi,
)
from qglattice.secular import normalized_bracket

SQRT3 = math.sqrt(3.0)
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


def test_weights_at_zone_center_and_corners():
    assert f_theta(Quasimomentum(0.0, 0.0)) == 3.0
    assert g_theta(Quasimomentum(0.0, 0.0)) == 0.0
    c = 2.0 * math.pi / 3.0
    assert f_theta(Quasimomentum(c, -c)) == pytest.approx(-1.5, abs=1e-14)
    assert g_theta(Quasimomentum(c, -c)) == pytest.approx(-1.5 * SQRT3, abs=1e-14)
    assert g_theta(Quasimomentum(-c, c)) == pytest.approx(1.5 * SQRT3, abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(t1=ANGLES, t2=ANGLES)
def test_weight_ranges(t1, t2):
    q = Quasimomentum(t1, t2)
    assert -1.5 - 1e-12 <= f_theta(q) <= 3.0 + 1e-12
    assert abs(g_theta(q)) <= 1.5 * SQRT3 + 1e-12


@settings(max_examples=100, deadline=None)
@given(t1=ANGLES, t2=ANGLES)
def test_odd_weight_parity(t1, t2):
    assert g_theta(Quasimomentum(-t1, -t2)) == pytest.approx(-g_theta(Quasimomentum(t1, t2)), abs=1e-14)


def test_third_kernel_vanishes_for_equilateral():
    spec = LatticeSpec.equilateral(0.7, 1.1)
    for k in (0.3, 1.0, 2.7, 9.4):
        assert lambda_pos(k, spec).l3 == 0.0
        assert lambda_neg(k, spec).l3 == 0.0


def test_second_and_third_kernels_vanish_at_inverse_ell():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    tri = lambda_pos(1.0, spec)
    assert tri.l2 == 0.0 and tri.l3 == 0.0


def test_negative_kernels_at_inverse_ell():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    tri = lambda_neg(1.0, spec)
    assert tri.l1 == 0.0 and tri.l2 == 0.0
    expected = 64.0 * math.sinh(0.5) * math.sinh(0.5) * math.sinh(1.0)
    assert tri.l3 == pytest.approx(expected, rel=1e-13)
    # the full bracket there reduces to the odd-weight term alone
    q = Quasimomentum(0.9, 0.4)
    assert bracket(1.0, "negative", q, spec) == pytest.approx(-expected * g_theta(q), rel=1e-12)


def test_negative_kernels_are_analytic_continuation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(0.4, 1.4)
        d = c + rng.uniform(0.2, 2.0)
        ell = rng.uniform(0.5, 2.0)
        kp = rng.uniform(0.05, 3.0)
        spec = LatticeSpec.kagome(c, d, ell)
        pos_at_imag = lambda_arrays(1j * kp, "positive", spec)
        neg = lambda_arrays(kp, "negative", spec)
        for a, b in zip(pos_at_imag, neg):
            assert abs(a.real - b) <= 1e-10 * max(1.0, abs(b))
            assert abs(a.imag) <= 1e-10 * max(1.0, abs(b))


def test_edge_swap_symmetry_of_kernels():
    # swapping the two kagome edge lengths fixes l1, l2 and negates l3
    rng = np.random.default_rng(6)
    for _ in range(200):
        c = rng.uniform(0.3, 1.2)
        d = c + rng.uniform(0.3, 2.5)
        if abs(d - 2.0 * c) < 1e-3:
            continue
        k = rng.uniform(0.05, 12.0)
        a = LatticeSpec.kagome(c, d, 1.0)
        b = LatticeSpec.kagome(d - c, d, 1.0)
        for side in ("positive", "negative"):
            l1a, l2a, l3a = lambda_arrays(k, side, a)
            l1b, l2b, l3b = lambda_arrays(k, side, b)
            assert l1a == pytest.approx(l1b, rel=1e-12, abs=1e-9)
            assert l2a == pytest.approx(l2b, rel=1e-12, abs=1e-9)
            assert l3a == pytest.approx(-l3b, rel=1e-12, abs=1e-9)


def test_bracket_at_zone_center():
    spec = LatticeSpec.kagome(0.8, 2.9, 1.2)
    tri = lambda_pos(1.3, spec)
    assert bracket(1.3, "positive", Quasimomentum(0.0, 0.0), spec) == pytest.approx(
        tri.l1 - 3.0 * tri.l2, rel=1e-13
    )


@pytest.mark.parametrize("n", [1, 3, 5])
def test_equilateral_bracket_at_odd_flat_momenta(n):
    # at k = n pi / c (odd n) the bracket is theta-independent and reduces,
    # after removing the factor 4 (k^2 l^2 + 1)(2 cos kc + 1), to -12 pi^2 n^2 l^2 / c^2
    c, ell = 1.0, 1.0
    spec = LatticeSpec.equilateral(c, ell)
    k = n * math.pi / c
    q = Quasimomentum(0.77, -2.1)
    val = bracket(k, "positive", q, spec)
    prefac = 4.0 * ((k * ell) ** 2 + 1.0) * (2.0 * math.cos(k * c) + 1.0)
    assert val / prefac == pytest.approx(-12.0 * math.pi ** 2 * n ** 2 * ell ** 2 / c ** 2, rel=1e-9)


def test_bracket_matches_secular_determinant():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    q = Quasimomentum(1.0, -0.4)
    oracle = normalized_bracket(0.9, q, spec)
    assert oracle.real == pytest.approx(bracket(0.9, "positive", q, spec), rel=1e-10)
    assert abs(oracle.imag) < 1e-10 * abs(oracle.real)


def test_kernels_recovered_from_secular_determinants():
    # decompose the oracle bracket over the basis {1, f, g} at three
    # quasimomenta and compare with the direct kernel values
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    k = 1.7
    qs = [Quasimomentum(0.0, 0.0), Quasimomentum(2 * math.pi / 3, -2 * math.pi / 3), Quasimomentum(1.0, -0.4)]
    a = np.array([[1.0, -f_theta(q), -g_theta(q)] for q in qs])
    rhs = np.array([normalized_bracket(k, q, spec).real for q in qs])
    l1, l2, l3 = np.linalg.solve(a, rhs)
    tri = lambda_pos(k, spec)
    assert l1 == pytest.approx(tri.l1, rel=1e-10)
    assert l2 == pytest.approx(tri.l2, rel=1e-10)
    assert l3 == pytest.approx(tri.l3, rel=1e-10)


# --------------------------------------------------------------------------
# triangular reduced conditions


def test_triangular_condition_small_momentum_expansion():
    for d in (1.0, 4.0):
        spec = LatticeSpec.triangular(d, 1.0)
        for k in (1e-3, 5e-4):
            coef = (tri_G(k, spec) - 3.0) / k ** 2
            assert coef == pytest.approx(1.5 * (12.0 - d ** 2), rel=1e-4)
        for kp in (1e-3, 5e-4):
            coef = (tri_G_tilde(kp, spec) - 3.0) / kp ** 2
            assert coef == pytest.approx(1.5 * (d ** 2 - 12.0), rel=1e-4)


def test_triangular_negative_condition_at_inverse_ell():
    for d, ell in ((1.0, 1.0), (3.0, 0.7)):
        spec = LatticeSpec.triangular(d, ell)
        ch = math.cosh(d / ell)
        assert tri_G_tilde(1.0 / ell, spec) == pytest.approx(-ch - 1.0 / (ch + 1.0), rel=1e-13)
        assert tri_G_tilde(1.0 / ell, spec) < -1.5


def test_triangular_rational_form_sentinel():
    spec = LatticeSpec.triangular(2.0, 1.0)
    assert math.isnan(tri_G(math.pi / 2.0, spec))  # cos(kd/2) = 0
    assert math.isnan(tri_G(1.0, spec))  # k ell = 1
    assert not math.isnan(tri_G(0.9, spec))


def test_equilateral_negative_condition_values():
    for c, ell in ((1.0, 1.0), (2.0, 0.8)):
        spec = LatticeSpec.equilateral(c, ell)
        expected = -1.5 * (math.tanh(c / (2.0 * ell)) ** 2 + 1.0)
        assert kagome_equilateral_F(1.0 / ell, spec) == pytest.approx(expected, rel=1e-13)
        assert kagome_equilateral_F(1e-9, spec) == pytest.approx(3.0, abs=1e-6)
        # grows without bound past kappa ell = 5
        kps = np.linspace(5.0 / ell, 9.0 / ell, 40)
        vals = kagome_equilateral_F(kps, spec)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] > 100.0


# --------------------------------------------------------------------------
# high-energy indicator of the equilateral lattice


def test_xi_extreme_values():
    c = 1.0
    ks = np.linspace(0.0, 2.0 * math.pi / c, 2_000_001)
    assert xi(ks, c).max() == pytest.approx(9.0 / 8.0, abs=1e-9)
    assert xi(math.pi / c, c) == pytest.approx(-2.0, abs=1e-14)
    k_max_expected = math.acos(0.25) / c  # arcsec(4)
    assert xi(k_max_expected, c) == pytest.approx(9.0 / 8.0, abs=1e-14)


def test_xi_roots_in_one_period():
    c = 1.3
    r1 = brentq(lambda k: xi(k, c), 1.0 / c, 3.0 / c)
    r2 = brentq(lambda k: xi(k, c), 3.5 / c, 5.5 / c)
    assert r1 == pytest.approx(2.0 * math.pi / (3.0 * c), rel=1e-12)
    assert r2 == pytest.approx(4.0 * math.pi / (3.0 * c), rel=1e-12)


# --------------------------------------------------------------------------
# high-energy expansion coefficients


def test_alpha_vanishes_at_narrow_band_centers():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    q = Quasimomentum(0.4, 1.2)
    first = lambda k: np.cos(k * (2.0 - 3.0) / 2.0) + 2.0 * np.cos(k * 3.0 / 2.0)
    root = brentq(first, 0.5, 1.5)
    assert abs(asymptotic_coefficients(root, q, spec, "alpha")) < 1e-10


def test_beta1_vanishes_at_odd_multiples():
    spec = LatticeSpec.equilateral(1.0, 1.0)
    q = Quasimomentum(0.3, -0.8)
    for n in (1, 7, 25):
        b1, _ = asymptotic_coefficients((2 * n - 1) * math.pi, q, spec, "beta")
        assert abs(b1) < 1e-24


def test_gamma1_sign_change():
    spec = LatticeSpec.triangular(1.0, 1.0)
    q = Quasimomentum(0.5, 0.2)
    f = f_theta(q)
    k0 = brentq(lambda k: 3.0 * math.cos(k) - f, 0.1, math.pi)
    g_lo, _ = asymptotic_coefficients(k0 - 1e-3, q, spec, "gamma")
    g_hi, _ = asymptotic_coefficients(k0 + 1e-3, q, spec, "gamma")
    assert g_lo * g_hi < 0.0


# --------------------------------------------------------------------------
# curvature bound of the extremal brackets

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

BOUND_CASES = [
    make(ell) for ell in (0.5, 1.0, 2.0)
    for make in (lambda ell: LatticeSpec.kagome(1.62 / GOLDEN, 1.62, ell),
                 lambda ell: LatticeSpec.equilateral(0.81, ell),
                 lambda ell: LatticeSpec.triangular(1.62, ell))
]


def _brackets(k, spec):
    """The three extremal brackets straight from the kernels; k may be complex."""
    if spec.is_kagome:
        l1, l2, l3 = lambda_arrays(k, "positive", spec)
        return np.array([l1 - 3.0 * l2, l1 + 1.5 * (l2 + SQRT3 * l3), l1 + 1.5 * (l2 - SQRT3 * l3)])
    return np.array([tri_bracket_pos(k, 3.0, spec), tri_bracket_pos(k, -1.5, spec), tri_bracket_pos(k, -1.5, spec)])


def _mp_brackets(k, spec):
    """The extremal brackets in mpmath, transcribed from the kernel formulas."""
    mpmath = pytest.importorskip("mpmath")
    cos, sin = mpmath.cos, mpmath.sin
    c, d, ell = (mpmath.mpf(v) for v in (spec.c, spec.d, spec.ell))
    x = (k * ell) ** 2
    if spec.kind == "triangular":
        a = 3 * (x * x + 6 * x + 1) + (3 * x * x + 10 * x + 3) * (2 * cos(k * d) + cos(2 * k * d))
        cc = 4 * (x - 1) ** 2 * cos(k * d / 2) ** 2
        return a - 3 * cc, a + 1.5 * cc, a + 1.5 * cc
    l1 = 2 * (x + 1) * (
        4 * (x + 1) ** 2 * (cos(k * (c + d)) + cos(k * (c - 2 * d)) + 2 * cos(k * d) + cos(2 * k * d))
        + (x * x + 14 * x + 1) * (2 * cos(k * d) + 1) * cos(k * (2 * c - d))
        + (3 * x * x + 18 * x + 3) + (5 * x * x + 22 * x + 5) * (cos(k * (d - c)) + cos(k * c)))
    l2 = 8 * (x + 1) * (x - 1) ** 2 * cos(k * (d - c) / 2) * cos(k * c / 2) * (cos(k * (2 * c - d) / 2) + 2 * cos(k * d / 2))
    l3 = 16 * k * ell * (x - 1) ** 2 * sin(k * (d - c) / 2) * sin(k * c / 2) * sin(k * (d - 2 * c) / 2)
    r = 1.5 * mpmath.sqrt(3)
    return l1 - 3 * l2, l1 + 1.5 * l2 + r * l3, l1 + 1.5 * l2 - r * l3


def _log_uniform_momenta(seed, n):
    return np.exp(np.random.default_rng(seed).uniform(math.log(1e-6), math.log(1e5), n))


def test_lambda1_evaluates_cos_kd_once_bit_for_bit():
    rng = np.random.default_rng(15)
    c, d, ell = 0.7, 2.3, 1.3
    k = rng.uniform(0.0, 300.0, 20000)
    kp = rng.uniform(0.0, 40.0, 20000)
    x, xp = (k * ell) ** 2, (kp * ell) ** 2
    pos = 2.0 * (x + 1.0) * (
        4.0 * (x + 1.0) ** 2
        * (np.cos(k * (c + d)) + np.cos(k * (c - 2.0 * d)) + 2.0 * np.cos(k * d) + np.cos(2.0 * k * d))
        + (x * x + 14.0 * x + 1.0) * (2.0 * np.cos(k * d) + 1.0) * np.cos(k * (2.0 * c - d))
        + (3.0 * x * x + 18.0 * x + 3.0)
        + (5.0 * x * x + 22.0 * x + 5.0) * (np.cos(k * (d - c)) + np.cos(k * c))
    )
    neg = 2.0 * (1.0 - xp) * (
        4.0 * (xp - 1.0) ** 2
        * (np.cosh(kp * (c + d)) + np.cosh(kp * (c - 2.0 * d)) + 2.0 * np.cosh(kp * d) + np.cosh(2.0 * kp * d))
        + (xp * xp - 14.0 * xp + 1.0) * (2.0 * np.cosh(kp * d) + 1.0) * np.cosh(kp * (2.0 * c - d))
        + (3.0 * xp * xp - 18.0 * xp + 3.0)
        + (5.0 * xp * xp - 22.0 * xp + 5.0) * (np.cosh(kp * (d - c)) + np.cosh(kp * c))
    )
    assert np.array_equal(kernels._lambdas(k, "positive", c, d, ell)[0], pos)
    assert np.array_equal(kernels._lambdas(kp, "negative", c, d, ell)[0], neg)


@pytest.mark.parametrize("spec", BOUND_CASES, ids=lambda s: f"{s.kind}-ell{s.ell:g}")
def test_bracket_curvature_bound_holds(spec):
    k = _log_uniform_momenta(21, 20000)
    curvature, size = bracket_curvature_bound(k, "positive", spec)
    # second derivative: central difference (h) of the complex-step first derivative (eps)
    h, eps = 1e-4, 1e-20
    first = lambda z: _brackets(z + 1j * eps, spec).imag / eps
    second = (first(k + h) - first(k - h)) / (2.0 * h)
    values = _brackets(k, spec)
    for j in range(3):
        # the difference is accurate to about 1e-7 of the bound; the bound is
        # tight at k -> 0, where every term peaks together
        assert (np.abs(second[j]) <= curvature[j] * (1.0 + 1e-6)).all()
        assert (np.abs(values[j]) <= size[j]).all()
    # nondecreasing in k, so the bound at x holds on all of [0, x]
    grid = np.sort(k)
    for m in (*bracket_curvature_bound(grid, "positive", spec)[0], *bracket_curvature_bound(grid, "positive", spec)[1]):
        assert (np.diff(m) >= 0.0).all()
    assert bracket_curvature_bound(k, "negative", spec) is None


@pytest.mark.parametrize("spec", BOUND_CASES[:3], ids=lambda s: s.kind)
def test_bracket_curvature_bound_against_mpmath(spec):
    mpmath = pytest.importorskip("mpmath")
    k = _log_uniform_momenta(22, 40)
    curvature, size = bracket_curvature_bound(k, "positive", spec)
    values = _brackets(k, spec)
    with mpmath.workdps(40):
        for i, x in enumerate(k):
            exact = _mp_brackets(mpmath.mpf(x), spec)
            for j in range(3):
                second = mpmath.diff(lambda t: _mp_brackets(t, spec)[j], mpmath.mpf(x), 2)
                assert abs(second) <= curvature[j][i]
                # the float64 bracket stays well inside its rounding allowance
                assert abs(values[j][i] - exact[j]) <= 1e-2 * BRACKET_RTOL * size[j][i]


@pytest.mark.parametrize("spec", BOUND_CASES, ids=lambda s: f"{s.kind}-ell{s.ell:g}")
def test_kernel_terms_are_the_kernels(spec):
    # the bound's term table, with a cosine for every factor but l3's sines,
    # and its bracket weights give the extremal brackets of the kernels
    k = _log_uniform_momenta(23, 4000)
    terms, weights = kernels._kernel_terms(spec)
    values = [
        sum(np.polynomial.polynomial.polyval(k, p)
            * np.prod([(np.sin if spec.is_kagome and i == 2 else np.cos)(w * k) for w in ws], axis=0)
            for p, ws in kernel)
        for i, kernel in enumerate(terms)
    ]
    size = bracket_curvature_bound(k, "positive", spec)[1]
    for row, bracket_j, s in zip(weights, _brackets(k, spec), size):
        assert (np.abs(sum(w * v for w, v in zip(row, values)) - bracket_j) <= 1e-13 * s).all()


# --------------------------------------------------------------------------
# geometry validation


def test_lattice_spec_validation():
    with pytest.raises(GeometryError):
        LatticeSpec.kagome(1.0, 1.0, 1.0)  # c = d is the triangular limit
    with pytest.raises(GeometryError):
        LatticeSpec.kagome(0.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        LatticeSpec.kagome(1.0, 2.0, 0.0)
    with pytest.raises(GeometryError):
        LatticeSpec.triangular(-1.0, 1.0)
    with pytest.raises(GeometryError):
        LatticeSpec("equilateral_kagome", 1.0, 2.1, 1.0)
    assert LatticeSpec.kagome(1.0, 2.0, 1.0).kind == "equilateral_kagome"
    assert LatticeSpec("kagome", 1.0, 2.0, 1.0).kind == "equilateral_kagome"
    assert LatticeSpec.kagome(1.0, 3.0, 1.0).b == 2.0


def test_lattice_spec_rejects_unknown_kind():
    with pytest.raises(GeometryError, match="unknown lattice kind 'hexagonal'"):
        LatticeSpec("hexagonal", 1.0, 2.0, 1.0)


def test_kernel_kind_and_coefficient_guards():
    with pytest.raises(GeometryError):
        lambda_arrays(1.0, "positive", LatticeSpec.triangular(2.0, 1.0))
    with pytest.raises(GeometryError):
        kagome_equilateral_F(1.0, LatticeSpec.kagome(1.0, 3.0, 1.0))
    with pytest.raises(ValueError, match="which must be"):
        asymptotic_coefficients(1.0, Quasimomentum(0.0, 0.0), LatticeSpec.kagome(1.0, 3.0, 1.0), which="delta")
