"""Band membership, spectrum scans, flat-band enumeration, gap closings."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from qglattice import bands
from qglattice.bands import (
    InternalConsistencyError,
    _extremal_brackets,
    _margin,
    _negative_seeds,
    _strip_step_chunked,
    bracket_theta_gradient,
    brentq,
    detect_gap_closings,
    flat_bands,
    in_band,
    kagome_collapse_roots,
    negative_flat_bands,
    root,
    scan_bands,
    scan_negative_bands,
    spectral_threshold,
)
from qglattice.asymptotics import equilateral_narrow_band, triangular_narrow_band
from qglattice.kernels import (
    EXTREMAL_THETAS,
    LatticeSpec,
    Quasimomentum,
    bracket,
    f_theta,
    lambda_arrays,
    tri_bracket_neg,
    tri_bracket_pos,
)
from qglattice.secular import _bracket_scale, oracle_in_spectrum

SQRT3 = math.sqrt(3.0)


def test_small_momenta_outside_bands_for_small_period():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)  # d < 2 sqrt(3)
    for k in (1e-4, 1e-3, 1e-2, 0.1):
        assert not in_band(k, "positive", spec)
    wide = LatticeSpec.kagome(1.0, 4.0, 1.0)
    for k in (1e-4, 1e-3, 1e-2, 0.1):
        assert in_band(k, "positive", wide)


def test_inverse_ell_in_negative_spectrum():
    rng = np.random.default_rng(9)
    for _ in range(30):
        ell = float(rng.choice([0.5, 1.0, 2.0]))
        c = rng.uniform(0.3, 1.5) * ell
        d = c * rng.uniform(1.25, 3.4)
        if abs(d - 2.0 * c) < 1e-2 * c:
            continue
        assert in_band(1.0 / ell, "negative", LatticeSpec.kagome(c, d, ell))


@pytest.mark.slow
def test_membership_matches_oracle():
    spec = LatticeSpec.kagome(1.0, 1.0 + math.sqrt(5.0), 1.0)
    rng = np.random.default_rng(11)
    ks = rng.uniform(1e-3, 25.0, 1000)
    mismatches = sum(in_band(k, "positive", spec) != oracle_in_spectrum(k, spec) for k in ks)
    assert mismatches == 0


def test_scan_is_deterministic():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    a = scan_bands(spec, "positive", 12.0)
    b = scan_bands(spec, "positive", 12.0)
    assert a.intervals == b.intervals
    na = scan_negative_bands(spec)
    nb = scan_negative_bands(spec)
    assert na.intervals == nb.intervals


def test_zero_energy_thresholds():
    crit = 2.0 * SQRT3
    assert spectral_threshold(LatticeSpec.kagome(1.0, 4.0, 1.0)).positive_starts_at_zero
    assert not spectral_threshold(LatticeSpec.kagome(1.0, 3.0, 1.0)).positive_starts_at_zero
    # both closed inequalities hold at the boundary value
    at = spectral_threshold(LatticeSpec.kagome(1.0, crit, 1.0))
    assert at.positive_starts_at_zero and at.negative_reaches_zero
    assert spectral_threshold(LatticeSpec.triangular(1.0, 1.0)).negative_reaches_zero
    eq = spectral_threshold(LatticeSpec.equilateral(2.0, 1.0))  # c >= sqrt(3) ell
    assert eq.positive_starts_at_zero and not eq.negative_reaches_zero


def test_first_band_edges_at_thresholds():
    for d, starts_zero in ((3.0, False), (2.0 * SQRT3, True), (4.0, True)):
        spec = LatticeSpec.kagome(1.0, d, 1.0)
        first = scan_bands(spec, "positive", 3.0).continuous[0]
        assert (first.k_lo < 1e-4) == starts_zero
        nfirst = scan_negative_bands(spec).continuous[0]
        assert (nfirst.k_lo < 1e-4) == (d <= 2.0 * SQRT3 + 1e-12)


def test_triangular_first_band_threshold_examples():
    first = scan_bands(LatticeSpec.triangular(5.0, 1.0), "positive", 2.0).continuous[0]
    assert first.k_lo == 0.0  # d >= 2 sqrt(3) ell: spectrum starts at zero
    first = scan_bands(LatticeSpec.triangular(1.0, 1.0), "positive", 4.0).continuous[0]
    assert first.k_lo > 0.5


@pytest.mark.slow
def test_scan_edges_match_oracle_scan():
    # dual route: rebuild the band edges below k = 8 from the determinant
    # oracle alone (grid plus bisection on the membership boolean) and
    # compare with the kernel-based scan
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    ks = np.arange(1, 801) * 0.01
    member = np.array([oracle_in_spectrum(float(k), spec) for k in ks])
    edges = []
    for i in np.flatnonzero(member[:-1] != member[1:]):
        lo, hi = ks[i], ks[i + 1]
        lo_in = member[i]
        for _ in range(28):
            mid = 0.5 * (lo + hi)
            if oracle_in_spectrum(float(mid), spec) == lo_in:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    bs = scan_bands(spec, "positive", 8.2)
    # a 0.01-step boolean probe cannot resolve bands or gaps much narrower
    # than its step (nor gaps closed to zero width); drop those features
    # before comparing edge positions
    merged = []
    for iv in bs.continuous:
        if iv.k_hi - iv.k_lo < 0.025:
            continue
        if merged and iv.k_lo - merged[-1][1] < 0.025:
            merged[-1][1] = iv.k_hi
        else:
            merged.append([iv.k_lo, iv.k_hi])
    scan_edges = []
    for k_lo, k_hi in merged:
        if k_lo > 0.0:
            scan_edges.append(k_lo)
        if k_hi < 8.0:
            scan_edges.append(k_hi)
    scan_edges = sorted(e for e in scan_edges if e < 8.0)
    assert len(edges) == len(scan_edges)
    for a, b in zip(edges, scan_edges):
        assert abs(a - b) < 1e-6


def test_edge_swap_symmetry_of_band_structures():
    a = scan_bands(LatticeSpec.kagome(1.0, 3.0, 1.0), "positive", 20.0)
    b = scan_bands(LatticeSpec.kagome(2.0, 3.0, 1.0), "positive", 20.0)
    ca, cb = a.continuous, b.continuous
    assert len(ca) == len(cb)
    for iva, ivb in zip(ca, cb):
        assert abs(iva.k_lo - ivb.k_lo) <= 1e-9
        assert abs(iva.k_hi - ivb.k_hi) <= 1e-9
    na = scan_negative_bands(LatticeSpec.kagome(1.0, 3.0, 1.0))
    nb = scan_negative_bands(LatticeSpec.kagome(2.0, 3.0, 1.0))
    for iva, ivb in zip(na.continuous, nb.continuous):
        assert abs(iva.k_lo - ivb.k_lo) <= 1e-9
        assert abs(iva.k_hi - ivb.k_hi) <= 1e-9


def test_refinement_keeps_bands():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    coarse = scan_bands(spec, "positive", 15.0, resolution=2.0 * math.pi / 3000.0)
    fine = scan_bands(spec, "positive", 15.0, resolution=math.pi / 3000.0)
    for iv in coarse.continuous:
        hits = [
            jv for jv in fine.continuous
            if abs(jv.k_lo - iv.k_lo) < 1e-8 and abs(jv.k_hi - iv.k_hi) < 1e-8
        ]
        assert len(hits) == 1


def test_coarse_resolution_warns():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    with pytest.warns(UserWarning, match="resolution"):
        scan_bands(spec, "positive", 5.0, resolution=1.0)


# --------------------------------------------------------------------------
# flat bands


def test_flat_band_families_generic():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    fbs = flat_bands(spec, 10.0)
    expected = set()
    for L in (1.0, 2.0, 3.0):
        n = 1
        while 2 * n * math.pi / L <= 10.0:
            expected.add(round(2 * n * math.pi / L, 9))
            n += 1
    assert {round(fb.k, 9) for fb in fbs} == expected
    families = {fb.family for fb in fbs}
    assert families == {"b_family", "c_family", "d_family"}


def test_flat_band_families_equilateral():
    spec = LatticeSpec.equilateral(1.0, 1.0)
    fbs = flat_bands(spec, 7.0)
    merged = [fb.k for fb in fbs if fb.family == "equilateral_merged"]
    david = [fb.k for fb in fbs if fb.family == "david_star"]
    assert merged[:2] == pytest.approx([math.pi, 2.0 * math.pi])
    assert david[:2] == pytest.approx([2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    assert all(not fb.embedded for fb in fbs if fb.family == "equilateral_merged")


def test_flat_bands_triangular_never_embedded():
    spec = LatticeSpec.triangular(2.0, 1.0)
    fbs = flat_bands(spec, 15.0)
    assert [fb.k for fb in fbs] == pytest.approx([n * math.pi for n in range(1, 5)])
    assert all(not fb.embedded for fb in fbs)


@pytest.mark.parametrize("d", [2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0 + 1.0,
                               4.0 * math.pi / 3.0, 4.0 * math.pi / 3.0 + 1.0])
def test_point_degenerate_bands_generic(d):
    spec = LatticeSpec.kagome(1.0, d, 1.0)
    points = [fb for fb in flat_bands(spec, 2.0) if fb.family == "degenerate_point"]
    assert len(points) == 1 and points[0].k == 1.0
    bs = scan_bands(spec, "positive", 2.0)
    pts = [iv for iv in bs.intervals if iv.band_type == "degenerate_point"]
    assert len(pts) == 1 and pts[0].k_lo == pts[0].k_hi == 1.0


@pytest.mark.parametrize("c", [math.pi / 3.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
def test_point_degenerate_bands_equilateral(c):
    spec = LatticeSpec.equilateral(c, 1.0)
    points = [fb for fb in flat_bands(spec, 2.0) if fb.family == "degenerate_point"]
    assert len(points) == 1 and points[0].k == 1.0


def test_no_point_band_off_the_degenerate_set():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    assert not [fb for fb in flat_bands(spec, 2.0) if fb.family == "degenerate_point"]


# --------------------------------------------------------------------------
# negative side


def test_negative_band_count_bounds():
    rng = np.random.default_rng(21)
    for _ in range(30):
        c = rng.uniform(0.3, 1.5)
        d = c * rng.uniform(1.2, 3.5)
        bs = scan_negative_bands(LatticeSpec.kagome(c, d, 1.0))
        assert len(bs.continuous) <= 3
    for _ in range(30):
        d = rng.uniform(0.4, 5.0)
        bs = scan_negative_bands(LatticeSpec.triangular(d, 1.0))
        assert len(bs.continuous) == 2


def test_triangular_negative_band_locations():
    for d in (0.7, 2.0, 6.0, 20.0):
        spec = LatticeSpec.triangular(d, 1.0)
        lo, hi = scan_negative_bands(spec).continuous
        assert hi.k_lo > 1.0 > lo.k_hi  # one band on each side of kappa = 1/ell
        assert not in_band(1.0, "negative", spec)  # the point between them is spurious


def test_equilateral_negative_flat_band_isolated():
    spec = LatticeSpec.equilateral(1.0, 1.0)
    bs = scan_negative_bands(spec)
    flat = [iv for iv in bs.intervals if iv.band_type == "flat"]
    assert len(flat) == 1 and flat[0].k_lo == 1.0
    assert negative_flat_bands(spec)[0].embedded is False
    cont = bs.continuous
    assert len(cont) == 2
    assert cont[0].k_hi < 1.0 < cont[1].k_lo  # one band below and one above -1/ell^2
    assert all(not (iv.k_lo <= 1.0 <= iv.k_hi) for iv in cont)


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("spec", [LatticeSpec.triangular(100.0, 1.0),
                                  LatticeSpec.kagome(100.0 / ((1.0 + math.sqrt(5.0)) / 2.0), 100.0, 1.0)],
                         ids=["triangular", "kagome"])
def test_overflowing_negative_scan_raises(spec):
    # the hyperbolic kernels overflow at large kappa * d; the sign bits and
    # margin say nothing there, so the scan must stop instead of reading
    # those probes as out of band (or a NaN pair as a strip crossing)
    with pytest.raises(InternalConsistencyError, match="non-finite"):
        scan_negative_bands(spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kappa", [8.0, 3.6], ids=["nan", "inf"])
def test_in_band_rejects_non_finite_bracket(kappa):
    # at kappa d of several hundred the kernels overflow (a NaN margin at
    # kappa = 8, +inf at 3.6); membership must not be read from them
    with pytest.raises(InternalConsistencyError, match="non-finite"):
        in_band(kappa, "negative", LatticeSpec.triangular(100.0, 1.0))


def test_negative_scan_argument_guard():
    with pytest.raises(ValueError):
        scan_negative_bands(LatticeSpec.triangular(1.0, 1.0), kappa_max=1.0)


# --------------------------------------------------------------------------
# wide-band asymptotics and gap closings


def test_triangular_wide_band_condition_at_high_momentum():
    # the leading-order condition -1/2 <= cos(kd) cannot resolve the O(1/k)
    # features around k = n pi / d (the narrow pairs at odd n and the gaps
    # splitting the wide pairs at even n); away from those neighborhoods it
    # matches the membership test, and the raw mismatch decays with k
    for d in (1.0, 2.5):
        spec = LatticeSpec.triangular(d, 1.0)

        def mismatch(k_lo, k_hi):
            ks = np.linspace(k_lo, k_hi, 20001)
            member = _margin(ks, "positive", spec) <= 0.0
            asymptotic = np.cos(ks * d) >= -0.5
            t = ks * d / math.pi
            bulk = np.abs(t - np.round(t)) * math.pi > 6.0 / ks
            return np.mean(member != asymptotic), np.mean(member[bulk] != asymptotic[bulk])

        raw_low, bulk_low = mismatch(50.0 / d, 100.0 / d)
        assert bulk_low < 1e-2
        raw_high, _ = mismatch(300.0 / d, 350.0 / d)
        assert raw_high < raw_low < 6e-2


def test_bracket_gradient_vanishes_at_extremal_points():
    rng = np.random.default_rng(31)
    corners = [(0.0, 0.0), (2 * math.pi / 3, -2 * math.pi / 3), (-2 * math.pi / 3, 2 * math.pi / 3)]
    for _ in range(50):
        spec = LatticeSpec.kagome(rng.uniform(0.4, 1.2), rng.uniform(1.6, 3.5), 1.0)
        k = rng.uniform(0.1, 8.0)
        side = "positive" if rng.random() < 0.5 else "negative"
        l1, l2, l3 = lambda_arrays(k, side, spec)
        scale = max(1.0, abs(l2), abs(l3))
        for t1, t2 in corners:
            d1, d2 = bracket_theta_gradient(k, side, Quasimomentum(t1, t2), spec)
            assert abs(d1) <= 1e-9 * scale and abs(d2) <= 1e-9 * scale


def test_gap_closings_positive_side():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    found = detect_gap_closings(spec, (1.8, 2.6), (2.1, 3.6), side="positive", grid_n=32)
    assert found, "expected at least one closing in this window"
    corners = {(0.0, 0.0), (2 * math.pi / 3, -2 * math.pi / 3), (-2 * math.pi / 3, 2 * math.pi / 3)}
    for k, d, theta in found:
        assert theta in corners
        assert 1.8 <= k <= 2.6 and 2.1 <= d <= 3.6


def test_gap_closings_negative_side_at_corner_quasimomenta():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    found = detect_gap_closings(spec, (0.5, 2.2), (2.0, 4.5), side="negative", grid_n=32)
    assert found
    for k, d, theta in found:
        # negative-side crossings happen at theta1 = -theta2 = +-2*pi/3 only
        assert theta in {(2 * math.pi / 3, -2 * math.pi / 3), (-2 * math.pi / 3, 2 * math.pi / 3)}


GAP_WINDOWS = [((1.8, 2.6), (2.1, 3.6), "positive"), ((0.5, 2.2), (2.0, 4.5), "negative")]


def test_gap_closings_match_hybr_reference(monkeypatch):
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    found = [detect_gap_closings(spec, kw, dw, side=side, grid_n=32) for kw, dw, side in GAP_WINDOWS]

    def hybr(fn, x0, tol=1e-13):
        sol = scipy.optimize.root(fn, x0, method="hybr", tol=tol)
        return sol.x if sol.success else None

    monkeypatch.setattr(bands, "root", hybr)
    reference = [detect_gap_closings(spec, kw, dw, side=side, grid_n=32) for kw, dw, side in GAP_WINDOWS]
    for ours, ref in zip(found, reference):
        assert len(ours) == len(ref) > 0
        for (k, d, theta), (k_ref, d_ref, theta_ref) in zip(ours, ref):
            assert theta == theta_ref
            assert abs(k - k_ref) <= 1e-12 and abs(d - d_ref) <= 1e-12


# --------------------------------------------------------------------------
# root solvers


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qglattice; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_brentq_matches_scipy_bit_for_bit(monkeypatch):
    # every bracket the module solves: both collapse roots and both
    # equilateral F = 0 seeds of seeded random lattices
    pairs = []

    def both(f, a, b, xtol, rtol, max_iter=100):
        ours = brentq(f, a, b, xtol, rtol, max_iter)
        pairs.append((ours, scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=max_iter)))
        return ours

    monkeypatch.setattr(bands, "brentq", both)
    rng = np.random.default_rng(8)
    for _ in range(200):
        ell = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.05, 40.0) * ell
        kagome_collapse_roots(LatticeSpec.kagome(c, 1.5 * c, ell))
        _negative_seeds(LatticeSpec.equilateral(c, ell), math.inf)
    assert len(pairs) > 600
    assert all(ours.hex() == ref.hex() for ours, ref in pairs)


def test_brentq_without_sign_change_raises():
    with pytest.raises(InternalConsistencyError, match="no sign change"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15)


def test_newton_root_converges_or_returns_none():
    x = root(lambda v: [v[0] ** 2 - 2.0, v[0] * v[1] - 3.0], (1.0, 1.0))
    assert list(x) == pytest.approx([math.sqrt(2.0), 3.0 / math.sqrt(2.0)], rel=1e-15)
    assert root(lambda v: [v[0] + v[1], 2.0 * (v[0] + v[1]) - 1.0], (0.0, 0.0)) is None  # singular Jacobian


# --------------------------------------------------------------------------
# edge labels


def _bracket_at(x, side, theta, spec):
    q = Quasimomentum(*theta)
    if spec.is_kagome:
        return bracket(x, side, q, spec)
    return (tri_bracket_pos if side == "positive" else tri_bracket_neg)(x, f_theta(q), spec)


@pytest.mark.parametrize("spec", [
    LatticeSpec.kagome(1.0, 3.0, 1.0), LatticeSpec.equilateral(1.0, 1.0), LatticeSpec.triangular(2.0, 1.0),
], ids=["kagome", "equilateral", "triangular"])
@pytest.mark.parametrize("side", ["positive", "negative"])
def test_edge_labels_name_the_vanishing_extremal_bracket(spec, side):
    bs = scan_bands(spec, "positive", 60.0) if side == "positive" else scan_negative_bands(spec)
    labelled = [(iv.k_lo, iv.edge_theta_lo) for iv in bs.continuous if iv.edge_theta_lo is not None]
    labelled += [(iv.k_hi, iv.edge_theta_hi) for iv in bs.continuous if iv.edge_theta_hi is not None]
    assert len(labelled) >= 3
    for x, theta in labelled:
        values = {th: abs(_bracket_at(x, side, th, spec)) for th in EXTREMAL_THETAS}
        assert values[theta] == min(values.values()), (x, theta, values)
        scale = _bracket_scale(x, _extremal_brackets(x, side, spec), spec)
        assert values[theta] <= 1e-8 * scale, (x, theta, values)


@pytest.mark.parametrize("spec,k_max,x", [
    (LatticeSpec.kagome(1.0, 3.0, 1.0), 1000.0, 606.3270),
    (LatticeSpec.kagome(1.62 * (math.sqrt(5.0) - 1.0) / 2.0, 1.62, 1.0), 30.0, 25.2384),
], ids=["kagome-606", "golden-25"])
def test_sub_step_gap_between_two_brackets_is_kept(spec, k_max, x):
    # two different extremal brackets change sign between two in-band
    # probes and open a gap narrower than the probe step around x
    assert not in_band(x, "positive", spec) and not oracle_in_spectrum(x, spec)
    bs = scan_bands(spec, "positive", k_max)
    cont = bs.continuous
    assert not any(iv.k_lo <= x <= iv.k_hi for iv in cont)
    narrow = [0.5 * (a.k_hi + b.k_lo) for a, b in zip(cont, cont[1:]) if b.k_lo - a.k_hi < bs.resolution]
    assert any(abs(mid - x) < bs.resolution for mid in narrow)
    # (such a gap may hold a flat band at its midpoint, so the oracle is not asked there)
    for mid in narrow:
        assert not in_band(mid, "positive", spec), mid


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("spec,inner_at_center", [
    (LatticeSpec.equilateral(1.0, 1.0), False), (LatticeSpec.triangular(2.0, 1.0), True),
], ids=["equilateral", "triangular"])
def test_narrow_pair_edge_labels_match_asymptotics(spec, inner_at_center, n):
    # equilateral: inner edges at a corner, outer at the zone center;
    # triangular: the reverse (see the narrow-band docstrings)
    pred = (equilateral_narrow_band if spec.is_kagome else triangular_narrow_band)(n, spec)
    bs = scan_bands(spec, "positive", pred.center_k + 1.0)
    lower = max((iv for iv in bs.continuous if iv.k_hi < pred.center_k), key=lambda iv: iv.k_hi)
    upper = min((iv for iv in bs.continuous if iv.k_lo > pred.center_k), key=lambda iv: iv.k_lo)
    at_center = lambda theta: tuple(theta) == EXTREMAL_THETAS[0]
    assert at_center(lower.edge_theta_hi) == at_center(upper.edge_theta_lo) == inner_at_center
    assert at_center(lower.edge_theta_lo) == at_center(upper.edge_theta_hi) == (not inner_at_center)


# --------------------------------------------------------------------------
# plumbing


def test_chunked_margin_evaluation_matches_direct(monkeypatch):
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    xs = np.linspace(0.01, 30.0, 250_000)
    monkeypatch.setenv("QG_THREADS", "2")
    inb, signs = _strip_step_chunked(xs, "positive", spec)
    assert np.array_equal(inb, _margin(xs, "positive", spec) <= 0.0)
    bits = sum((b > 0.0).astype(np.uint8) << j for j, b in enumerate(_extremal_brackets(xs, "positive", spec)))
    assert np.array_equal(signs, bits)


def test_csv_rows_and_dict_shapes():
    spec = LatticeSpec.triangular(2.0, 1.0)
    bs = scan_bands(spec, "positive", 4.0)
    rows = bs.csv_rows()
    assert all(len(r) == 7 for r in rows)
    assert [r[1] for r in rows] == list(range(1, len(rows) + 1))
    d = bs.to_dict()
    assert d["side"] == "positive" and len(d["intervals"]) == len(bs.intervals)
    neg = scan_negative_bands(spec)
    for iv in neg.continuous:
        assert iv.energy_lo <= iv.energy_hi <= 0.0
