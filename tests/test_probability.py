"""Band-measure estimators: finite scans, torus area, closed forms."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qglattice.bands import BandStructure, SpectralInterval, scan_bands
from qglattice.kernels import LatticeSpec
from qglattice.probability import (
    InsufficientScanError,
    UnsupportedLatticeError,
    band_measure,
    closed_form_probability,
    finite_scan_probability,
    probability_sweep,
    torus_indicator,
    torus_probability,
)
from qglattice.kernels import xi

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _synthetic_bands(intervals, k_max):
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    ivs = [SpectralInterval(a, b, "positive") for a, b in intervals]
    return BandStructure(spec=spec, side="positive", intervals=ivs,
                         scan_k_max=k_max, resolution=1e-3)


def test_band_measure_arithmetic():
    # energy intervals [1, 3] and [4, 9] within cutoff 10 -> (2 + 5) / 10
    bs = _synthetic_bands([(1.0, math.sqrt(3.0)), (2.0, 3.0)], 4.0)
    est = band_measure(bs, 10.0)
    assert est.value == pytest.approx(0.7, rel=1e-14)
    assert est.method == "finite_scan"


def test_band_measure_clips_at_cutoff_and_ignores_flat():
    ivs = [SpectralInterval(1.0, 3.0, "positive"),
           SpectralInterval(2.0, 2.0, "positive", "flat")]
    bs = BandStructure(spec=LatticeSpec.kagome(1.0, 3.0, 1.0), side="positive",
                       intervals=ivs, scan_k_max=3.0, resolution=1e-3)
    est = band_measure(bs, 4.0)  # only [1, 4] of [1, 9] counts
    assert est.value == pytest.approx(0.75)


def test_band_measure_requires_covering_scan():
    bs = _synthetic_bands([(0.5, 1.0)], 2.0)
    with pytest.raises(InsufficientScanError):
        band_measure(bs, 100.0)
    with pytest.raises(ValueError):
        band_measure(scan_bands(LatticeSpec.kagome(1.0, 3.0, 1.0), "negative", 5.0), 4.0)


def test_band_measure_rejects_nan_cutoff():
    bs = _synthetic_bands([(0.5, 1.0)], 2.0)
    with pytest.raises(ValueError, match="K_energy"):
        band_measure(bs, float("nan"))


def test_torus_estimate_value():
    est = torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n=500)
    assert est.value == pytest.approx(0.639081, abs=1e-2)
    assert est.method == "torus_area"


def test_torus_grid_refinement():
    spec = LatticeSpec.kagome(1.0, GOLDEN, 1.0)
    a = torus_probability(spec, grid_n=200).value
    b = torus_probability(spec, grid_n=2000).value
    assert abs(a - b) < 1e-2


def test_torus_indicator_reflection_symmetry():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 2 * math.pi, (2, 1000))
    assert np.array_equal(torus_indicator(x, y), torus_indicator(-x, -y))


def test_torus_indicator_axis_swap_symmetry():
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0, 2 * math.pi, (2, 1000))
    assert np.abs(torus_indicator(x, y) - torus_indicator(y, x)).max() < 1e-12
    # the area estimate is invariant under exchanging the two phase axes
    n = 300
    u = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    xg, yg = np.meshgrid(u, u, indexing="ij")
    direct = np.count_nonzero(torus_indicator(xg, yg) >= 0.0) / n ** 2
    swapped = np.count_nonzero(torus_indicator(yg, xg) >= 0.0) / n ** 2
    assert abs(direct - swapped) <= 1e-12
    assert torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), n).value == direct


def test_closed_forms():
    assert closed_form_probability(LatticeSpec.equilateral(0.37, 1.0)).value == 2.0 / 3.0
    assert closed_form_probability(LatticeSpec.triangular(5.1, 1.0)).value == 2.0 / 3.0
    with pytest.raises(UnsupportedLatticeError):
        closed_form_probability(LatticeSpec.kagome(1.0, 3.0, 1.0))


def test_wide_band_indicator_measure_is_two_thirds():
    # the indicator is nonnegative outside (2pi/3c, 4pi/3c), whose length is
    # one third of the period
    c = 1.0
    r1 = brentq(lambda k: xi(k, c), 1.0, 3.0)
    r2 = brentq(lambda k: xi(k, c), 3.5, 5.5)
    period = 2.0 * math.pi / c
    fraction = 1.0 - (r2 - r1) / period
    assert fraction == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert xi(0.5 * (r1 + r2), c) < 0.0


def test_finite_scan_matches_closed_form_for_golden_ratio_spec():
    est = finite_scan_probability(LatticeSpec.kagome(1.0, GOLDEN + 1.0, 1.0), 1.0e6)
    assert 0.629 <= est.value <= 0.649


def test_large_coprime_ratio_near_universal_value():
    # a rational edge ratio with large coprime terms approximates the
    # incommensurate band measure
    est = finite_scan_probability(LatticeSpec.kagome(13.0 / 21.0, 1.0, 1.0), 1.0e6)
    assert abs(est.value - 0.639081) < 1.5e-2


def test_finite_scan_stability_in_cutoff():
    spec = LatticeSpec.kagome(1.0, GOLDEN, 1.0)
    vals = [finite_scan_probability(spec, K).value for K in (2.5e5, 5e5, 1e6)]
    assert np.std(vals) < 2e-2


def test_sweep_values_and_symmetry():
    template = LatticeSpec.kagome(0.5, 1.0, 1.0)
    res = probability_sweep([0.3, 0.5, 0.7], template, 2.5e5)
    vals = {r: est.value for r, est in res}
    assert vals[0.5] == pytest.approx(2.0 / 3.0, abs=1e-2)
    # band structures are invariant under swapping the edge lengths
    assert vals[0.3] == pytest.approx(vals[0.7], abs=1e-9)
    with pytest.raises(ValueError):
        probability_sweep([1.5], template, 1e4)
