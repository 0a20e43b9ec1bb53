"""Band-measure estimators: finite scans, torus area, closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from qglattice import probability
from qglattice.bands import MAX_PROBES, BandStructure, SpectralInterval, scan_bands
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


def _synthetic_bands(intervals, k_max, kinds=None):
    # (k_lo, k_hi) rows of continuous bands, or of the BAND_TYPES codes `kinds`
    lo, hi = np.array(intervals, float).reshape(-1, 2).T
    kinds = np.zeros(lo.size, np.uint8) if kinds is None else np.array(kinds, np.uint8)
    return BandStructure(spec=LatticeSpec.kagome(1.0, 3.0, 1.0), side="positive", scan_k_max=k_max,
                         resolution=1e-3, k_lo=lo, k_hi=hi, kinds=kinds, edge_labels=np.zeros((lo.size, 2), int))


def test_band_measure_arithmetic():
    # energy intervals [1, 3] and [4, 9] within cutoff 10 -> (2 + 5) / 10
    bs = _synthetic_bands([(1.0, math.sqrt(3.0)), (2.0, 3.0)], 4.0)
    est = band_measure(bs, 10.0)
    assert est.value == pytest.approx(0.7, rel=1e-14)
    assert est.method == "finite_scan"


def test_band_measure_clips_at_cutoff_and_ignores_flat():
    bs = _synthetic_bands([(1.0, 3.0), (2.0, 2.0)], 3.0, kinds=[0, 1])
    assert bs.intervals == [SpectralInterval(1.0, 3.0, "positive"), SpectralInterval(2.0, 2.0, "positive", "flat")]
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


#: finite_scan_probability(spec, 1e6).value at d = 1.62, ell = 1 for the
#: kagome edge ratios 1/phi, 1/phi^2, sqrt2 - 1, 2 - sqrt2 and the
#: equilateral and triangular lattices, pinned bit for bit.  Each swap pair
#: (c, d - c) gives one value: the kernels see c only through the phase
#: k (2c - d) / 2, which the swap negates (exactly, for these lengths).
PINNED_P = [
    (LatticeSpec.kagome((1.0 / GOLDEN) * 1.62, 1.62, 1.0), 0.6398534430558782),
    (LatticeSpec.kagome((1.0 / GOLDEN ** 2) * 1.62, 1.62, 1.0), 0.6398534430558782),
    (LatticeSpec.kagome((math.sqrt(2.0) - 1.0) * 1.62, 1.62, 1.0), 0.6398223284776078),
    (LatticeSpec.kagome((2.0 - math.sqrt(2.0)) * 1.62, 1.62, 1.0), 0.6398223284776078),
    (LatticeSpec.equilateral(0.81, 1.0), 0.6649030351342348),
    (LatticeSpec.triangular(1.62, 1.0), 0.6647642065542639),
]


@pytest.mark.parametrize("spec, value", PINNED_P,
                         ids=["phi", "phi2", "sqrt2m1", "2msqrt2", "equilateral", "triangular"])
def test_finite_scan_values_pinned(spec, value):
    # band_measure squares each edge as SpectralInterval does, with Python's
    # k ** 2 (libm pow): numpy's k * k differs in the last bit for about
    # 0.1 % of doubles, which moves P in its last digits
    assert finite_scan_probability(spec, 1e6).value == value


def test_finite_scan_value_pinned_at_1e8():
    # the paper's headline lattice at K = 1e8: about 6000 continuous bands,
    # each edge squared with Python's k ** 2 from the scan's arrays
    assert finite_scan_probability(LatticeSpec.kagome(1.62 / GOLDEN, 1.62, 1.0), 1e8).value == 0.6391667026013189


def test_torus_estimate_value():
    est = torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n=500)
    assert est.value == pytest.approx(0.639081, abs=1e-2)
    assert est.method == "torus_area"


def test_torus_grid_limit_rejected_before_allocating(monkeypatch):
    # grid_n ** 2 above MAX_PROBES is refused before any array is made
    monkeypatch.setattr(probability, "np", None)
    spec = LatticeSpec.kagome(1.0, GOLDEN, 1.0)
    with pytest.raises(ValueError, match="grid_n"):
        torus_probability(spec, grid_n=math.isqrt(MAX_PROBES) + 1)
    with pytest.raises(ValueError, match="grid_n"):
        torus_probability(spec, grid_n=20000)


def test_torus_grid_below_one_hundred_rejected():
    with pytest.raises(ValueError, match="at least 100"):
        torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n=99)


@pytest.mark.parametrize("grid_n, value", [(100, 0.6384), (333, 0.6390534678822967), (2000, 0.639058),
                                           (4099, 0.6390797629373185)])
def test_torus_values_pinned(grid_n, value):
    assert torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n).value == value


def test_scan_and_torus_memory_stay_within_a_few_blocks():
    # both grids are evaluated block by block: about 9 MB and 7 MB at peak,
    # against 51 MB and 855 MB when each was one array
    tracemalloc.start()
    try:
        finite_scan_probability(LatticeSpec.kagome(1.62 / GOLDEN, 1.62, 1.0), 1e7)
        scan_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n=4000)
        torus_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan_peak < 24e6
    assert torus_peak < 24e6


def test_torus_grid_refinement():
    spec = LatticeSpec.kagome(1.0, GOLDEN, 1.0)
    a = torus_probability(spec, grid_n=200).value
    b = torus_probability(spec, grid_n=2000).value
    assert abs(a - b) < 1e-2


def test_torus_indicator_reflection_symmetry():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 2 * math.pi, (2, 1000))
    assert np.array_equal(torus_indicator(x, y), torus_indicator(-x, -y))


def _torus_indicator_seven_cosines(x, y):
    # torus_indicator as written before its angle-addition expansion
    f1 = 2.0 * np.cos(2.0 * x + y) + np.cos(y)
    f2 = np.cos(x) + 2.0 * np.cos(x + 2.0 * y)
    f3 = np.cos(x - y) + 2.0 * np.cos(x + y)
    return f1 * f2 * f3


def test_torus_indicator_matches_the_seven_cosine_form():
    rng = np.random.default_rng(29)
    x, y = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, (2, 100_000))
    assert np.abs(torus_indicator(x, y) - _torus_indicator_seven_cosines(x, y)).max() <= 1e-13
    # a row and a column, as torus_probability passes them
    u = rng.uniform(0.0, 2.0 * math.pi, 300)
    grid = torus_indicator(u[:, None], u[None, :])
    assert grid.shape == (300, 300)
    assert np.abs(grid - _torus_indicator_seven_cosines(u[:, None], u[None, :])).max() <= 1e-13


@pytest.mark.parametrize("grid_n", [100, 333, 500, 1234, 2000, 3000, 4099])
def test_torus_counts_match_the_seven_cosine_form(grid_n):
    u = (np.arange(grid_n) + 0.5) * (2.0 * np.pi / grid_n)
    count = sum(int(np.count_nonzero(_torus_indicator_seven_cosines(u[lo:lo + 64, None], u[None, :]) >= 0.0))
                for lo in range(0, grid_n, 64))
    assert torus_probability(LatticeSpec.kagome(1.0, GOLDEN, 1.0), grid_n).value == count / grid_n ** 2


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
