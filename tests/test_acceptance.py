"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; every tolerance is pinned in the assertions below.
"""

import math
import time

import numpy as np
import pytest

import qglattice as qg
from qglattice.bands import _margin

SQRT3 = math.sqrt(3.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_01_equilateral_probability():
    t0 = time.perf_counter()
    est = qg.finite_scan_probability(qg.LatticeSpec.equilateral(1.0, 1.0), 1.0e6)
    elapsed = time.perf_counter() - t0
    err = abs(est.value - 2.0 / 3.0)
    ok = err < 1e-2 and elapsed < 60.0
    _report(1, "equilateral band measure", ok,
            f"P={est.value:.6f}, |P-2/3|={err:.2e}<1e-2, {elapsed:.1f}s<60s")
    assert err < 1e-2
    assert elapsed < 60.0


def test_acceptance_02_torus_universality_value():
    t0 = time.perf_counter()
    est = qg.torus_probability(qg.LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n=2000)
    elapsed = time.perf_counter() - t0
    err = abs(est.value - 0.639081)
    ok = err <= 5e-4 and elapsed < 10.0
    _report(2, "torus-area universal value", ok,
            f"P={est.value:.6f}, |P-0.639081|={err:.2e}<=5e-4, {elapsed:.1f}s<10s")
    assert err <= 5e-4
    assert elapsed < 10.0


def test_acceptance_03_incommensurate_scan():
    spec = qg.LatticeSpec.kagome(1.0, GOLDEN, 1.0)  # c/d = (sqrt(5)-1)/2
    est = qg.finite_scan_probability(spec, 1.0e6)
    ok = 0.629 <= est.value <= 0.649
    _report(3, "incommensurate band measure", ok, f"P={est.value:.6f} in [0.629, 0.649]")
    assert 0.629 <= est.value <= 0.649


def test_acceptance_04_triangular_probability():
    vals = {}
    for d in (1.0, 5.0):
        vals[d] = qg.finite_scan_probability(qg.LatticeSpec.triangular(d, 1.0), 1.0e6).value
    errs = {d: abs(v - 2.0 / 3.0) for d, v in vals.items()}
    ok = all(e <= 1e-2 for e in errs.values())
    _report(4, "triangular band measure", ok,
            ", ".join(f"d={d}: P={vals[d]:.6f} (err {errs[d]:.1e})" for d in vals))
    for d, e in errs.items():
        assert e <= 1e-2, f"d={d}"


def _edge_distance(k, bands):
    dists = []
    for iv in bands.intervals:
        dists.append(abs(k - iv.k_lo))
        dists.append(abs(k - iv.k_hi))
    return min(dists)


@pytest.mark.slow
def test_acceptance_05_oracle_equivalence():
    rng = np.random.default_rng(2024)
    specs = [
        qg.LatticeSpec.kagome(1.0, 3.0, 1.0),
        qg.LatticeSpec.equilateral(1.0, 1.0),
        qg.LatticeSpec.triangular(2.0, 1.0),
    ]
    details = []
    all_ok = True
    for spec in specs:
        ks = rng.uniform(1e-6, 40.0, 10_000)
        bad = [k for k in ks if qg.in_band(k, "positive", spec) != qg.oracle_in_spectrum(k, spec)]
        rate = 1.0 - len(bad) / len(ks)
        spec_ok = rate >= 0.999
        if bad:
            bands = qg.scan_bands(spec, "positive", 41.0)
            spec_ok = spec_ok and all(_edge_distance(k, bands) < 1e-8 for k in bad)
        all_ok = all_ok and spec_ok
        details.append(f"{spec.kind}: {len(bad)} mismatches ({rate:.2%})")
    _report(5, "membership vs determinant oracle", all_ok, "; ".join(details))
    assert all_ok


def test_acceptance_06_negative_band_counts():
    rng = np.random.default_rng(7)
    kag_counts = []
    for _ in range(100):
        ell = float(rng.choice([0.5, 1.0, 2.0]))
        c = rng.uniform(0.3, 1.5) * ell
        d = c * rng.uniform(1.15, 3.6)
        kag_counts.append(len(qg.scan_negative_bands(qg.LatticeSpec.kagome(c, d, ell)).continuous))
    tri_counts = []
    for _ in range(100):
        ell = float(rng.choice([0.5, 1.0, 2.0]))
        d = rng.uniform(0.4, 5.0) * ell
        tri_counts.append(len(qg.scan_negative_bands(qg.LatticeSpec.triangular(d, ell)).continuous))
    ok = max(kag_counts) <= 3 and all(n == 2 for n in tri_counts)
    _report(6, "negative band-count bounds", ok,
            f"kagome max {max(kag_counts)}<=3, triangular counts {{{min(tri_counts)}..{max(tri_counts)}}}==2")
    assert max(kag_counts) <= 3
    assert all(n == 2 for n in tri_counts)


def test_acceptance_07_inverse_ell_membership():
    rng = np.random.default_rng(11)
    ok_members = 0
    for _ in range(50):
        ell = float(rng.choice([0.5, 1.0, 2.0]))
        c = rng.uniform(0.3, 1.5) * ell
        d = c * rng.uniform(1.2, 3.5)
        if abs(d - 2.0 * c) < 0.02 * c:
            d = 2.3 * c
        if qg.in_band(1.0 / ell, "negative", qg.LatticeSpec.kagome(c, d, ell)):
            ok_members += 1
    eq_ok = True
    for c in (0.7, 1.0, 1.9):
        spec = qg.LatticeSpec.equilateral(c, 1.0)
        bs = qg.scan_negative_bands(spec)
        inside = any(iv.k_lo <= 1.0 <= iv.k_hi for iv in bs.continuous)
        flats = [iv for iv in bs.intervals if iv.band_type == "flat"]
        fb = qg.bands.negative_flat_bands(spec)[0]
        eq_ok = eq_ok and not inside and len(flats) == 1 and flats[0].k_lo == 1.0 and not fb.embedded
    ok = ok_members == 50 and eq_ok
    _report(7, "energy -1/ell^2 membership", ok,
            f"{ok_members}/50 kagome members; equilateral flat isolated & not embedded: {eq_ok}")
    assert ok_members == 50
    assert eq_ok


def test_acceptance_08_zero_energy_thresholds():
    details = []
    all_ok = True
    for d in (3.0, 2.0 * SQRT3, 4.0):
        spec = qg.LatticeSpec.kagome(1.0, d, 1.0)
        th = qg.spectral_threshold(spec)
        pos_edge = qg.scan_bands(spec, "positive", 3.0).continuous[0].k_lo
        neg_edge = qg.scan_negative_bands(spec).continuous[0].k_lo
        pos_ok = (pos_edge < 1e-4) == th.positive_starts_at_zero == (d >= 2.0 * SQRT3)
        neg_ok = (neg_edge < 1e-4) == th.negative_reaches_zero == (d <= 2.0 * SQRT3)
        all_ok = all_ok and pos_ok and neg_ok
        details.append(f"d={d:.4g}: pos_edge={pos_edge:.1e}, neg_edge={neg_edge:.1e}")
    _report(8, "zero-energy thresholds", all_ok, "; ".join(details))
    assert all_ok


def test_acceptance_09_narrow_band_asymptotics():
    eq = qg.LatticeSpec.equilateral(1.0, 1.0)
    pred_eq = qg.equilateral_narrow_band(50, eq)
    bw_eq, gw_eq, _ = qg.measure_narrow_pair(eq, 50)
    tri = qg.LatticeSpec.triangular(1.0, 1.0)
    pred_tri = qg.triangular_narrow_band(50, tri)
    bw_tri, gw_tri, _ = qg.measure_narrow_pair(tri, 50)
    checks = {
        "eq width": abs(bw_eq / pred_eq.band_width_E - 1.0),
        "eq ratio": abs((gw_eq / bw_eq) / 8.0 - 1.0),
        "tri width": abs(bw_tri / pred_tri.band_width_E - 1.0),
        "tri ratio": abs((gw_tri / bw_tri) / 2.0 - 1.0),
    }
    ok = all(v < 0.10 for v in checks.values())
    _report(9, "narrow-band pair asymptotics", ok,
            ", ".join(f"{k}: {v:.2%}" for k, v in checks.items()))
    for name, v in checks.items():
        assert v < 0.10, name


def test_acceptance_10_negative_large_cell_collapse():
    # At finite d the bands sit on the limit energies -3 and -1/3 shifted by
    # the first-order centers -3 - 3 u1 and -1/3 + u2 / 3 (u2 / 3 ~ 1.04e-3 at
    # d = 10), so centers are measured against those and the limit energies
    # must lie inside the scanned bands.
    tri = qg.LatticeSpec.triangular(10.0, 1.0)
    measured = qg.asymptotics.measure_negative_collapse(tri)
    pred = qg.triangular_negative_large_d(tri)
    limit_energies = [-3.0, -1.0 / 3.0]
    widths_pred = [18.0 * math.exp(-10.0 * SQRT3), 2.0 * math.exp(-10.0 / SQRT3)]
    limit_offsets = [abs(mc - le) for (mc, _), le in zip(measured, limit_energies)]
    center_errs = [abs(mc - ce) for (mc, _), ce in zip(measured, pred.center_energies)]
    inside = [mc - 0.5 * mw <= le <= mc + 0.5 * mw for (mc, mw), le in zip(measured, limit_energies)]
    width_errs = [abs(mw / pw - 1.0) for (_, mw), pw in zip(measured, widths_pred)]
    eq = qg.LatticeSpec.equilateral(8.0, 1.0)
    eq_pred = SQRT3 * math.exp(-8.0)
    eq_measured = qg.asymptotics.measure_negative_collapse(eq)
    eq_errs = [abs(w / eq_pred - 1.0) for _, w in eq_measured]
    ok = (
        len(measured) == 2
        and all(e < 1e-3 for e in center_errs)
        and all(inside)
        and all(e < 0.10 for e in width_errs)
        and len(eq_measured) == 2
        and all(e < 0.05 for e in eq_errs)
    )
    _report(10, "negative large-cell collapse", ok,
            f"tri centers off limit energies by {limit_offsets[0]:.2e}, {limit_offsets[1]:.2e}, "
            f"off collapse centers by {center_errs[0]:.2e}, {center_errs[1]:.2e} (<1e-3); "
            f"limit energies inside bands: {inside[0]}, {inside[1]}; "
            f"tri widths off by {width_errs[0]:.1%}, {width_errs[1]:.1%} (<10%); "
            f"eq widths off by {max(eq_errs):.1%} (<5%)")
    assert len(measured) == 2
    assert all(e < 0.10 for e in width_errs)
    assert len(eq_measured) == 2 and all(e < 0.05 for e in eq_errs)
    for e in center_errs:
        assert e < 1e-3, "scanned center vs first-order collapse center"
    for le, is_inside in zip(limit_energies, inside):
        assert is_inside, f"limit energy {le:.6g} outside its scanned band"


def test_acceptance_11_scattering_limits():
    exact = all(
        np.array_equal(qg.scattering_matrix(n, ell, 1.0 / ell).entries.real,
                       qg.build_circulant_u(n).entries)
        for n in range(3, 13) for ell in (0.5, 1.0, 2.0)
    )
    err4 = np.abs(qg.scattering_matrix(4, 1.0, 1e8).entries.real - qg.high_energy_limit(4)).max()
    err6 = np.abs(qg.scattering_matrix(6, 1.0, 1e8).entries.real - qg.high_energy_limit(6)).max()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        kl = 10.0 ** rng.uniform(-3.0, 3.0)
        s = qg.scattering_matrix(n, 1.0, kl).entries
        worst = max(worst, np.abs(s @ s.conj().T - np.eye(n)).max())
    ok = exact and err4 < 1e-5 and err6 < 1e-5 and worst < 1e-12
    _report(11, "scattering-matrix limits", ok,
            f"S(1/ell)=U exact: {exact}; limit errors {err4:.1e}, {err6:.1e} <1e-5; "
            f"unitarity {worst:.1e} <1e-12")
    assert exact and err4 < 1e-5 and err6 < 1e-5 and worst < 1e-12


def test_acceptance_12_edge_swap_symmetry():
    worst = 0.0
    for side, k_max in (("positive", 40.0), ("negative", None)):
        if side == "positive":
            a = qg.scan_bands(qg.LatticeSpec.kagome(1.0, 3.0, 1.0), side, k_max)
            b = qg.scan_bands(qg.LatticeSpec.kagome(2.0, 3.0, 1.0), side, k_max)
        else:
            a = qg.scan_negative_bands(qg.LatticeSpec.kagome(1.0, 3.0, 1.0))
            b = qg.scan_negative_bands(qg.LatticeSpec.kagome(2.0, 3.0, 1.0))
        ca, cb = a.continuous, b.continuous
        assert len(ca) == len(cb)
        for iva, ivb in zip(ca, cb):
            worst = max(worst, abs(iva.k_lo - ivb.k_lo), abs(iva.k_hi - ivb.k_hi))
        assert sorted(round(iv.k_lo, 9) for iv in a.flat) == sorted(round(iv.k_lo, 9) for iv in b.flat)
    ok = worst <= 1e-9
    _report(12, "edge-length swap symmetry", ok, f"max edge difference {worst:.2e} <= 1e-9")
    assert worst <= 1e-9


def test_acceptance_13_point_band_fixtures():
    all_ok = True
    details = []
    for d in (2 * math.pi / 3, 2 * math.pi / 3 + 1.0, 4 * math.pi / 3, 4 * math.pi / 3 + 1.0):
        spec = qg.LatticeSpec.kagome(1.0, d, 1.0)
        bs = qg.scan_bands(spec, "positive", 2.0)
        pts = [iv for iv in bs.intervals
               if iv.band_type == "degenerate_point" and iv.k_lo == iv.k_hi == 1.0]
        all_ok = all_ok and len(pts) == 1
        details.append(f"kagome d={d:.4f}: {len(pts)}")
    for c in (math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3):
        spec = qg.LatticeSpec.equilateral(c, 1.0)
        bs = qg.scan_bands(spec, "positive", 2.0)
        pts = [iv for iv in bs.intervals
               if iv.band_type == "degenerate_point" and iv.k_lo == iv.k_hi == 1.0]
        all_ok = all_ok and len(pts) == 1
        details.append(f"equilateral c={c:.4f}: {len(pts)}")
    _report(13, "point-degenerate band fixtures", all_ok, "; ".join(details))
    assert all_ok
