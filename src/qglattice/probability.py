"""Spectral band measure: the fraction of the positive energy axis covered by bands.

Three routes are provided.  A finite-cutoff estimate integrates a scanned
band structure on the energy axis.  A deterministic torus-area estimate
evaluates the high-energy band indicator over the two edge phases treated
as independent uniform variables, which is the incommensurate-edge limit
(about 0.639081).  Closed forms exist for the equilateral and triangular
lattices, where the value is exactly 2/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import MAX_PROBES, BandStructure, _require_positive, scan_bands
from .blocks import map_blocks
from .kernels import LatticeSpec


class InsufficientScanError(ValueError):
    """The band scan does not cover the requested energy cutoff."""


class UnsupportedLatticeError(ValueError):
    """No closed form exists for this lattice kind."""


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Band-measure value with the method and resolution it came from."""

    value: float
    method: str  # finite_scan | torus_area | closed_form
    spec: LatticeSpec | None = None
    K: float | None = None
    grid_n: int | None = None

    def to_dict(self):
        d = {"value": self.value, "method": self.method}
        if self.spec is not None:
            d["spec"] = {"kind": self.spec.kind, "c": self.spec.c, "d": self.spec.d, "ell": self.spec.ell}
        if self.K is not None:
            d["K_energy"] = self.K
        if self.grid_n is not None:
            d["grid_n"] = self.grid_n
        return d


def band_measure(bands: BandStructure, K_energy: float) -> ProbabilityEstimate:
    """Lebesgue measure of the continuous bands in [0, K_energy], over K_energy.

    Integrated from the band arrays (BandStructure.k_lo, k_hi and kinds), no
    interval built, squared as SpectralInterval squares (k ** 2, which can
    differ from numpy's k * k in the last bit).  Flat and point-degenerate
    bands have measure zero.  The scan must reach momentum sqrt(K_energy).
    """
    _require_positive("K_energy", K_energy)
    if bands.side != "positive":
        raise ValueError("band measure is defined on the positive energy axis")
    if bands.scan_k_max ** 2 < K_energy * (1.0 - 1e-12):
        raise InsufficientScanError(
            f"scan reaches k={bands.scan_k_max:g} (E={bands.scan_k_max ** 2:g}) "
            f"but the cutoff is E={K_energy:g}"
        )
    lo, hi = ([k ** 2 for k in edges[bands.kinds == 0].tolist()] for edges in (bands.k_lo, bands.k_hi))
    lengths = np.maximum(0.0, np.minimum(hi, K_energy) - np.maximum(lo, 0.0))
    total = float(np.sum(lengths))
    return ProbabilityEstimate(value=total / K_energy, method="finite_scan",
                               spec=bands.spec, K=K_energy)


def finite_scan_probability(spec: LatticeSpec, K_energy: float,
                            resolution: float | None = None) -> ProbabilityEstimate:
    """Scan up to sqrt(K_energy) and integrate: one-call finite-cutoff estimate."""
    _require_positive("K_energy", K_energy)
    k_max = math.sqrt(K_energy)
    bands = scan_bands(spec, "positive", k_max, resolution)
    return band_measure(bands, K_energy)


def torus_indicator(x, y):
    """High-energy band indicator on the torus of the two edge phases.

    x and y are the half-phases of the short and long edge; the sign of the
    triple product

        (2 cos(2x + y) + cos y) (cos x + 2 cos(x + 2y)) (cos(x - y) + 2 cos(x + y))

    decides membership at leading order in momentum.  The cosines of sums
    are expanded by angle addition, so a row x and a column y (as
    torus_probability passes them) take cosines and sines of the two
    vectors only, and the grid itself sees multiply-adds.
    """
    cx, sx, c2x, s2x = np.cos(x), np.sin(x), np.cos(2.0 * x), np.sin(2.0 * x)
    cy, sy, c2y, s2y = np.cos(y), np.sin(y), np.cos(2.0 * y), np.sin(2.0 * y)
    f1 = (2.0 * c2x) * cy - (2.0 * s2x) * sy + cy
    f2 = cx + (2.0 * cx) * c2y - (2.0 * sx) * s2y
    f3 = (3.0 * cx) * cy - sx * sy  # cos(x - y) + 2 cos(x + y)
    return f1 * f2 * f3


def torus_probability(spec: LatticeSpec, grid_n: int = 2000) -> ProbabilityEstimate:
    """Area fraction of the torus where the band indicator is nonnegative.

    Deterministic midpoint grid; the value is the incommensurate-edge limit
    of the band measure and does not depend on the edge lengths themselves.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    if grid_n ** 2 > MAX_PROBES:
        raise ValueError(f"grid_n ** 2 = {grid_n ** 2:.3g} grid points, the limit is {MAX_PROBES:.0e}")
    u = (np.arange(grid_n) + 0.5) * (2.0 * np.pi / grid_n)
    # rows lo .. hi - 1 of the grid at a time, about BLOCK_POINTS points each
    rows = lambda lo, hi: int(np.count_nonzero(torus_indicator(u[lo:hi, None], u[None, :]) >= 0.0))
    count = sum(map_blocks(rows, grid_n, grid_n))
    return ProbabilityEstimate(value=count / grid_n ** 2, method="torus_area",
                               spec=spec, grid_n=grid_n)


def closed_form_probability(spec: LatticeSpec) -> ProbabilityEstimate:
    """Exact band measure 2/3 of the equilateral and triangular lattices.

    The wide-band condition covers two thirds of each momentum period for
    any edge length; no closed form exists for the generic kagome lattice.
    """
    if spec.kind not in ("equilateral_kagome", "triangular"):
        raise UnsupportedLatticeError(
            "closed-form band measure exists only for equilateral and triangular lattices"
        )
    return ProbabilityEstimate(value=2.0 / 3.0, method="closed_form", spec=spec)


def probability_sweep(ratios, spec_template: LatticeSpec, K_energy: float,
                      resolution: float | None = None) -> list:
    """Finite-scan band measure as a function of the edge length ratio c/d.

    The template fixes d and ell; each ratio r in (0, 1) is scanned as the
    kagome lattice with c = r d.
    """
    out = []
    for r in ratios:
        if not 0.0 < r < 1.0:
            raise ValueError(f"edge ratio must lie in (0, 1), got {r}")
        spec = LatticeSpec.kagome(r * spec_template.d, spec_template.d, spec_template.ell)
        out.append((float(r), finite_scan_probability(spec, K_energy, resolution)))
    return out
