"""Closed-form asymptotic band predictions and the harness comparing them to scans.

Covers the high-momentum narrow-band pairs (asymptotically constant widths
on the energy scale), the exponential collapse of the negative bands onto
the star-graph bound states for large cells, and the equilateral negative
band widths.  Every prediction has a measurement routine built on localized
high-resolution scans so that predicted and scanned values can be tabulated
side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bands import InternalConsistencyError, _local_band, kagome_collapse_roots, scan_negative_bands
from .kernels import GeometryError, LatticeSpec, SQRT3


@dataclass(frozen=True)
class AsymptoticBandPrediction:
    """Leading-order location and widths of one narrow-band pair."""

    center_k: float
    band_width_E: float
    gap_width_E: float
    order_note: str
    source: str


@dataclass(frozen=True)
class NegativeLimitSet:
    """Large-cell limit points of the negative bands with leading widths."""

    limit_energies: list
    widths: list
    center_energies: list = field(default_factory=list)


# --------------------------------------------------------------------------
# predictions

def equilateral_narrow_band(n: int, spec: LatticeSpec) -> AsymptoticBandPrediction:
    """Narrow pair around k = (2n-1) pi / c of the equilateral lattice.

    Each band has energy width 2 sqrt(3) / (5 c ell); the gap inside the
    pair is eight times wider.  The inner edges belong to the corner
    quasimomenta (weight -3/2), the outer ones to the zone center.
    """
    if spec.kind != "equilateral_kagome":
        raise GeometryError("prediction applies to the equilateral lattice")
    if n < 1:
        raise ValueError("band pair index n must be at least 1")
    c, ell = spec.c, spec.ell
    return AsymptoticBandPrediction(
        center_k=(2 * n - 1) * math.pi / c,
        band_width_E=2.0 * SQRT3 / (5.0 * c * ell),
        gap_width_E=16.0 * SQRT3 / (5.0 * c * ell),
        order_note="O(1/n)",
        source="equilateral high-momentum pair",
    )


def triangular_narrow_band(n: int, spec: LatticeSpec) -> AsymptoticBandPrediction:
    """Narrow pair around k = (2n-1) pi / d of the triangular lattice.

    Band width 4 / (d ell sqrt(3)), gap twice that; here the inner edges
    belong to the zone center (weight 3).
    """
    if spec.kind != "triangular":
        raise GeometryError("prediction applies to the triangular lattice")
    if n < 1:
        raise ValueError("band pair index n must be at least 1")
    d, ell = spec.d, spec.ell
    return AsymptoticBandPrediction(
        center_k=(2 * n - 1) * math.pi / d,
        band_width_E=4.0 / (d * ell * SQRT3),
        gap_width_E=8.0 / (d * ell * SQRT3),
        order_note="O(1/n)",
        source="triangular high-momentum pair",
    )


def kagome_negative_large_d(spec: LatticeSpec) -> NegativeLimitSet:
    """Large-cell limit energies of the kagome negative bands.

    They are -1/ell^2 plus the images of the two collapse-function roots,
    one in (0, 1/ell) and one in (1/ell, infinity); the bands are
    exponentially narrow in the period, with no displayed width formula.
    """
    if not spec.is_kagome:
        raise GeometryError("large-cell collapse applies to kagome geometry")
    lo_root, hi_root = kagome_collapse_roots(spec)
    inv2 = 1.0 / spec.ell ** 2
    energies = sorted([-hi_root ** 2, -inv2, -lo_root ** 2])
    return NegativeLimitSet(limit_energies=energies, widths=[], center_energies=list(energies))


def equilateral_negative_widths(spec: LatticeSpec) -> AsymptoticBandPrediction:
    """Width of the two equilateral negative bands flanking the flat energy -1/ell^2.

    Both have leading width sqrt(3) e^(-c/ell) / ell^2; the gap between
    them, containing the flat band, is twice that.
    """
    if spec.kind != "equilateral_kagome":
        raise GeometryError("prediction applies to the equilateral lattice")
    u = math.exp(-spec.c / spec.ell) / spec.ell ** 2
    return AsymptoticBandPrediction(
        center_k=1.0 / spec.ell,
        band_width_E=SQRT3 * u,
        gap_width_E=2.0 * SQRT3 * u,
        order_note="O(e^(-2c/ell))",
        source="equilateral negative bands",
    )


def triangular_star_collapse_function(kappa, spec: LatticeSpec):
    """Leading coefficient of the large-period triangular negative condition.

    A quadratic in (kappa ell)^2 whose roots kappa ell = sqrt(3) and
    1/sqrt(3) are the star-graph bound momenta of the degree-6 vertex.
    """
    x = (kappa * spec.ell) ** 2
    return 0.5 * (3.0 * x * x - 10.0 * x + 3.0)


def triangular_negative_large_d(spec: LatticeSpec) -> NegativeLimitSet:
    """Large-period limits, widths and center shifts of the triangular negative bands.

    The bands collapse onto -3/ell^2 and -1/(3 ell^2) with widths
    18 e^(-sqrt(3) d / ell) / ell^2 and 2 e^(-d / (sqrt(3) ell)) / ell^2;
    the centers are shifted by the midpoint of the weight range.
    """
    if spec.kind != "triangular":
        raise GeometryError("prediction applies to the triangular lattice")
    d, ell = spec.d, spec.ell
    inv2 = 1.0 / ell ** 2
    u1 = math.exp(-SQRT3 * d / ell) * inv2
    u2 = math.exp(-d / (SQRT3 * ell)) * inv2
    # energy ranges: E1 = -3/ell^2 - 4 u1 f, E2 = -1/(3 ell^2) + (4/9) u2 f,
    # with the weight f running over [-3/2, 3]
    return NegativeLimitSet(
        limit_energies=[-3.0 * inv2, -inv2 / 3.0],
        widths=[18.0 * u1, 2.0 * u2],
        center_energies=[-3.0 * inv2 - 3.0 * u1, -inv2 / 3.0 + u2 / 3.0],
    )


# --------------------------------------------------------------------------
# measurement harness

def measure_narrow_pair(spec: LatticeSpec, n: int):
    """Scan the pair around the n-th odd multiple of pi over the long edge.

    Returns (mean band energy width, pair gap energy width, pair intervals).
    """
    if spec.kind == "equilateral_kagome":
        pred = equilateral_narrow_band(n, spec)
    elif spec.kind == "triangular":
        pred = triangular_narrow_band(n, spec)
    else:
        raise GeometryError("narrow-band pairs are predicted for equilateral and triangular lattices")
    kc = pred.center_k
    halfwidth_k = 3.0 * pred.gap_width_E / (2.0 * kc)  # generous window around the pair
    lower = _local_band(spec, "positive", kc - halfwidth_k, kc)
    upper = _local_band(spec, "positive", kc, kc + halfwidth_k)
    if lower is None or upper is None:
        raise InternalConsistencyError(f"narrow pair around k={kc:g} not found")
    band_width = 0.5 * (lower.width_energy + upper.width_energy)
    gap_width = upper.energy_lo - lower.energy_hi
    return band_width, gap_width, (lower, upper)


def measure_negative_collapse(spec: LatticeSpec):
    """Scanned negative bands as (center energy, energy width) pairs, ascending."""
    bs = scan_negative_bands(spec)
    out = []
    for iv in bs.continuous:
        out.append((0.5 * (iv.energy_lo + iv.energy_hi), iv.width_energy))
    out.sort()
    return out


def comparison_rows(spec: LatticeSpec, n: int = 50) -> list:
    """(quantity, predicted, measured, relative_error) rows for this lattice.

    Narrow-pair rows use the n-th pair; negative-side rows compare the
    large-cell formulas with a fresh scan.
    """
    rows = []

    def add(name, predicted, measured):
        rel = abs(measured - predicted) / abs(predicted) if predicted != 0.0 else float("nan")
        rows.append((name, float(predicted), float(measured), float(rel)))

    if spec.kind in ("equilateral_kagome", "triangular"):
        pred = (equilateral_narrow_band if spec.kind == "equilateral_kagome" else triangular_narrow_band)(n, spec)
        band_w, gap_w, _ = measure_narrow_pair(spec, n)
        add(f"narrow_band_width_E(n={n})", pred.band_width_E, band_w)
        add(f"narrow_gap_width_E(n={n})", pred.gap_width_E, gap_w)

    measured_neg = measure_negative_collapse(spec)
    if spec.kind == "triangular":
        limits = triangular_negative_large_d(spec)
        if len(measured_neg) == len(limits.limit_energies):
            for (mc, mw), le, lw, ce in zip(measured_neg, limits.limit_energies,
                                            limits.widths, limits.center_energies):
                add(f"negative_center_E(limit={le:.6g})", ce, mc)
                add(f"negative_width_E(limit={le:.6g})", lw, mw)
    elif spec.kind == "equilateral_kagome":
        pred = equilateral_negative_widths(spec)
        for tag, (mc, mw) in zip(("below", "above"), measured_neg):
            add(f"negative_width_E({tag} flat)", pred.band_width_E, mw)
    else:
        limits = kagome_negative_large_d(spec)
        if len(measured_neg) == len(limits.limit_energies):
            for (mc, mw), le in zip(measured_neg, limits.limit_energies):
                add(f"negative_center_E(limit={le:.6g})", le, mc)
    return rows
