"""Band-structure engine: membership tests, spectrum scans, flat bands, gap closings.

Membership at one momentum is O(1): the bracket is linear in the two
quasimomentum weights, whose joint range over the torus attains its extrema
at the zone center and at theta1 = -theta2 = +-2*pi/3, so a momentum lies in
a continuous band exactly when the first kernel sits inside the strip
spanned by the three extremal combinations of the other two.

Scanning walks a momentum grid, refines every band edge by bisection, and
additionally detects bands narrower than the grid step wherever the first
kernel crosses the whole strip between two consecutive out-of-band probes
(the two strip boundaries are bisected independently).  Bands that collapse
exponentially with the cell size are found this way without any special
resolution requirements.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, root

from .kernels import (
    EXTREMAL_THETAS,
    GeometryError,
    LatticeSpec,
    Quasimomentum,
    SQRT3,
    kagome_equilateral_F,
    lambda_arrays,
    tri_bracket_neg,
    tri_bracket_pos,
    _fg_arrays,
    _lambda1_neg,
    _lambda1_pos,
    _lambda2_neg,
    _lambda2_pos,
    _lambda3_neg,
    _lambda3_pos,
)

#: Band edges are bisected until the bracket width drops below this,
#: relative to max(1, |k|).
EDGE_RTOL = 1.0e-10

#: Smallest momentum probed; bands verified to extend below are reported
#: as starting at zero.  Margins closer to zero than this are dominated by
#: floating-point cancellation.
X_FLOOR = 1.0e-6

#: Tolerance of the trigonometric criterion 2 cos(L/ell) + 1 = 0 locating
#: point-degenerate bands.
DEGENERATE_TRIG_TOL = 1.0e-9


class InternalConsistencyError(RuntimeError):
    """A scan violated a proven structural bound (signals a defect)."""


@dataclass(frozen=True)
class SpectralInterval:
    """One band [k_lo, k_hi] on the momentum axis (kappa on the negative side)."""

    k_lo: float
    k_hi: float
    side: str
    band_type: str = "continuous"  # continuous | flat | degenerate_point
    edge_theta_lo: tuple | None = None
    edge_theta_hi: tuple | None = None

    @property
    def energy_lo(self) -> float:
        return self.k_lo ** 2 if self.side == "positive" else -self.k_hi ** 2

    @property
    def energy_hi(self) -> float:
        return self.k_hi ** 2 if self.side == "positive" else -self.k_lo ** 2

    @property
    def width_k(self) -> float:
        return self.k_hi - self.k_lo

    @property
    def width_energy(self) -> float:
        return self.energy_hi - self.energy_lo


@dataclass(frozen=True)
class FlatBand:
    """Infinitely degenerate eigenvalue at fixed momentum."""

    k: float
    family: str
    multiplicity_note: str
    embedded: bool


@dataclass
class BandStructure:
    """Ordered scan result for one side of the spectrum."""

    spec: LatticeSpec
    side: str
    intervals: list
    scan_k_max: float
    resolution: float
    edge_tolerance: float = EDGE_RTOL

    @property
    def continuous(self) -> list:
        return [iv for iv in self.intervals if iv.band_type == "continuous"]

    @property
    def flat(self) -> list:
        return [iv for iv in self.intervals if iv.band_type != "continuous"]

    def csv_rows(self):
        """Rows matching the header side,band_index,type,k_lo,k_hi,E_lo,E_hi."""
        rows = []
        for i, iv in enumerate(self.intervals, start=1):
            rows.append((self.side, i, iv.band_type, iv.k_lo, iv.k_hi, iv.energy_lo, iv.energy_hi))
        return rows

    def to_dict(self):
        return {
            "spec": {"kind": self.spec.kind, "c": self.spec.c, "d": self.spec.d, "ell": self.spec.ell},
            "side": self.side,
            "scan_k_max": self.scan_k_max,
            "resolution": self.resolution,
            "edge_tolerance": self.edge_tolerance,
            "intervals": [
                {
                    "band_index": i,
                    "type": iv.band_type,
                    "k_lo": iv.k_lo,
                    "k_hi": iv.k_hi,
                    "E_lo": iv.energy_lo,
                    "E_hi": iv.energy_hi,
                    "edge_theta_lo": list(iv.edge_theta_lo) if iv.edge_theta_lo else None,
                    "edge_theta_hi": list(iv.edge_theta_hi) if iv.edge_theta_hi else None,
                }
                for i, iv in enumerate(self.intervals, start=1)
            ],
        }


@dataclass(frozen=True)
class SpectralThresholds:
    """Closed-form spectral-edge conditions at zero energy."""

    positive_starts_at_zero: bool
    negative_reaches_zero: bool


# --------------------------------------------------------------------------
# membership

def _thread_count() -> int:
    env = os.environ.get("QG_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _extremal_brackets(x, side, spec: LatticeSpec):
    """Bracket l1 - l2 f - l3 g at the three EXTREMAL_THETAS, in that order.

    Scalar or array momentum; the only place that branches on lattice kind
    and side for membership.
    """
    if spec.is_kagome:
        l1, l2, l3 = lambda_arrays(x, side, spec)
        return l1 - 3.0 * l2, l1 + 1.5 * (l2 + SQRT3 * l3), l1 + 1.5 * (l2 - SQRT3 * l3)
    tri_bracket = tri_bracket_pos if side == "positive" else tri_bracket_neg
    # the triangular bracket depends on theta through f only, and f = -3/2 at both corners
    corner = tri_bracket(x, -1.5, spec)
    return tri_bracket(x, 3.0, spec), corner, corner


def _strip_components(x, side, spec: LatticeSpec):
    """(over_hi, under_lo) for scalar or array momentum.

    over_hi > 0 means the first kernel is above the admissible strip,
    under_lo > 0 below it; the momentum is in a band iff both are <= 0,
    i.e. iff the extremal brackets change sign.  Both components are
    continuous in x.
    """
    b0, bp, bm = _extremal_brackets(x, side, spec)
    return np.minimum(b0, np.minimum(bp, bm)), -np.maximum(b0, np.maximum(bp, bm))


def _strip_components_chunked(xs, side, spec: LatticeSpec):
    n = _thread_count()
    if n <= 1 or xs.size < 200_000:
        return _strip_components(xs, side, spec)
    chunks = np.array_split(xs, n)
    with ThreadPoolExecutor(max_workers=n) as pool:
        parts = list(pool.map(lambda ch: _strip_components(ch, side, spec), chunks))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _margin(x, side, spec: LatticeSpec):
    oh, ul = _strip_components(x, side, spec)
    return np.maximum(oh, ul)


def in_band(x, side, spec: LatticeSpec) -> bool:
    """Spectral-band membership of momentum x (energy x^2 or -x^2).

    Edges count as inside (spectra are closed sets).
    """
    if x <= 0.0:
        raise ValueError("momentum argument must be positive")
    return bool(_margin(float(x), side, spec) <= 0.0)


def bracket_theta_gradient(x, side, theta: Quasimomentum, spec: LatticeSpec):
    """Gradient of the kagome bracket in the quasimomentum angles.

    Factorizes so that it vanishes at the zone center and at
    theta1 = -theta2 = +-2*pi/3 for every momentum, which is what makes the
    three-point membership test exact.
    """
    l1, l2, l3 = lambda_arrays(x, side, spec)
    t1, t2 = theta.theta1, theta.theta2
    d1 = l2 * (math.sin(t1) + math.sin(t1 - t2)) - l3 * (math.cos(t1 - t2) - math.cos(t1))
    d2 = l2 * (math.sin(t2) - math.sin(t1 - t2)) - l3 * (math.cos(t2) - math.cos(t1 - t2))
    return d1, d2


# --------------------------------------------------------------------------
# flat bands

def _is_degenerate_length(length, ell) -> bool:
    return abs(2.0 * math.cos(length / ell) + 1.0) < DEGENERATE_TRIG_TOL


def _limit_membership(ks, side, spec):
    """Membership of the continuous spectrum in a punctured neighborhood of each k.

    Used for momenta where the bracket vanishes identically in theta and
    the direct test is degenerate.
    """
    ks = np.asarray(ks, dtype=float)
    eps = 1.0e-6 * np.maximum(1.0, ks)
    return (_margin(ks - eps, side, spec) <= 0.0) | (_margin(ks + eps, side, spec) <= 0.0)


def _require_positive(name, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def flat_bands(spec: LatticeSpec, k_max: float) -> list:
    """All positive-side flat bands with momentum <= k_max.

    Generic kagome carries one family per edge length (2 n pi / L for
    L in {d-c, c, d}); in the equilateral case they merge into n pi / c and
    an extra family appears at the zeros of 2 cos(kc) + 1.  The triangular
    lattice has the single family 2 n pi / d.  Point-degenerate bands sit at
    k = 1/ell whenever 2 cos(L/ell) + 1 = 0 for one of the lengths.
    """
    _require_positive("k_max", k_max)
    ell = spec.ell
    out = []

    def series(family, k_of_n, member=None):
        ks = []
        while k_of_n(len(ks) + 1) <= k_max * (1.0 + 1e-15):
            ks.append(k_of_n(len(ks) + 1))
        ks = np.array(ks)
        embedded = member(ks) if member and ks.size else np.zeros(ks.size, dtype=bool)
        out.extend(FlatBand(k=float(k), family=family, multiplicity_note=f"n={n}", embedded=bool(e))
                   for n, (k, e) in enumerate(zip(ks, embedded), start=1))

    multiples = lambda step_k: lambda n: n * step_k
    if spec.kind == "kagome":
        member = lambda ks: _margin(ks, "positive", spec) <= 0.0
        series("b_family", multiples(2.0 * math.pi / spec.b), member)
        series("c_family", multiples(2.0 * math.pi / spec.c), member)
        series("d_family", multiples(2.0 * math.pi / spec.d), member)
        degenerate = any(_is_degenerate_length(L, ell) for L in (spec.c, spec.b, spec.d))
    elif spec.kind == "equilateral_kagome":
        series("equilateral_merged", multiples(math.pi / spec.c))
        series("david_star", lambda n: ((6 * n - 3) + (-1) ** (n + 1)) * math.pi / (6.0 * spec.c),
               lambda ks: _limit_membership(ks, "positive", spec))
        degenerate = _is_degenerate_length(spec.d, ell)
    elif spec.kind == "triangular":
        series("d_family", multiples(2.0 * math.pi / spec.d))
        degenerate = _is_degenerate_length(spec.d, ell)
    else:  # pragma: no cover
        raise GeometryError(f"unknown lattice kind {spec.kind!r}")

    k_point = 1.0 / ell
    if degenerate and k_point <= k_max:
        out.append(FlatBand(k=k_point, family="degenerate_point", multiplicity_note="k=1/ell",
                            embedded=bool(_limit_membership(k_point, "positive", spec))))
    out.sort(key=lambda fb: (fb.k, fb.family))
    return out


def negative_flat_bands(spec: LatticeSpec) -> list:
    """Negative-side flat bands: only the equilateral lattice has one, at kappa = 1/ell."""
    if spec.kind == "equilateral_kagome":
        return [FlatBand(k=1.0 / spec.ell, family="equilateral_negative",
                         multiplicity_note="kappa=1/ell", embedded=False)]
    return []


# --------------------------------------------------------------------------
# scanning

def _bisect_vec(fn, lo, hi, rtol=EDGE_RTOL, max_iter=90):
    """Vectorized bisection of sign changes of fn between lo and hi arrays.

    Signs at lo and hi must differ elementwise.  Returns the point on the
    hi-sign side of the crossing (both converge to the same root within
    rtol).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = np.sign(fn(lo))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        done = (mid <= np.minimum(lo, hi)) | (mid >= np.maximum(lo, hi))
        gap = np.abs(hi - lo)
        if np.all(done | (gap <= rtol * np.maximum(1.0, np.abs(mid)))):
            break
        f_mid = np.sign(fn(mid))
        take_lo = f_mid == f_lo
        lo = np.where(take_lo & ~done, mid, lo)
        hi = np.where(~take_lo & ~done, mid, hi)
    return hi


def _edge_theta(xs, side, spec: LatticeSpec) -> list:
    """Extremal quasimomentum whose bracket vanishes at each band edge in xs."""
    brackets = np.abs(np.array(_extremal_brackets(np.asarray(xs, dtype=float), side, spec)))
    return [EXTREMAL_THETAS[i] for i in np.argmin(brackets, axis=0)]


def _local_band(spec: LatticeSpec, side: str, lo: float, hi: float,
                n_probes: int = 20001) -> SpectralInterval | None:
    """Span from the first to the last band point of a probed window [lo, hi].

    Edges inside the window are bisected; an edge at the window boundary is
    the boundary itself.  None if no probe lies in a band.
    """
    probes = np.linspace(lo, hi, n_probes)
    idx = np.flatnonzero(_margin(probes, side, spec) <= 0.0)
    if idx.size == 0:
        return None
    a, b = idx[0], idx[-1]
    margin_fn = lambda xs: _margin(xs, side, spec)
    k_lo = probes[a] if a == 0 else float(_bisect_vec(margin_fn, np.array([probes[a - 1]]), np.array([probes[a]]))[0])
    k_hi = probes[b] if b == n_probes - 1 else float(_bisect_vec(margin_fn, np.array([probes[b + 1]]), np.array([probes[b]]))[0])
    return SpectralInterval(k_lo, k_hi, side)


def _negative_seeds(spec: LatticeSpec, kappa_max: float) -> list:
    """Interior points guaranteed (or expected) to lie inside negative bands."""
    ell = spec.ell
    inv = 1.0 / ell
    if spec.kind == "triangular":
        return [s for s in (inv / SQRT3, SQRT3 * inv) if s < kappa_max]
    if spec.kind == "equilateral_kagome":
        # zeros of the reduced condition F(kappa) = 0 bracket the flat point
        seeds = []
        f = lambda kp: float(kagome_equilateral_F(kp, spec))
        lo, hi = 1e-9 * inv, inv * (1.0 - 1e-9)
        if f(lo) * f(hi) < 0:
            seeds.append(brentq(f, lo, hi, xtol=1e-14))
        hi2 = 2.0 * inv
        while f(hi2) < 0 and hi2 < 64.0 * inv:
            hi2 *= 2.0
        if f(inv * (1.0 + 1e-9)) * f(hi2) < 0:
            seeds.append(brentq(f, inv * (1.0 + 1e-9), hi2, xtol=1e-14))
        return [s for s in seeds if s < kappa_max]
    seeds = [inv]  # -1/ell^2 always belongs to the kagome spectrum
    seeds.extend(r for r in kagome_collapse_roots(spec) if r < kappa_max)
    return seeds


def kagome_collapse_function(kappa, spec: LatticeSpec):
    """Leading coefficient of the large-cell negative spectral condition.

    Its roots (together with kappa = 1/ell) are the points the negative
    bands collapse to as the cell period grows; the function takes the
    values 9 at kappa = 0 and -12 e^(-2c/ell) at kappa = 1/ell, and grows
    to +infinity.
    """
    c, ell = spec.c, spec.ell
    x = (kappa * ell) ** 2
    return 4.0 * (np.exp(-kappa * c) + 1.0) * (x - 1.0) ** 2 + np.exp(-2.0 * kappa * c) * (x * x - 14.0 * x + 1.0)


def kagome_collapse_roots(spec: LatticeSpec) -> tuple:
    """The two roots of the collapse function, one on each side of 1/ell."""
    if not spec.is_kagome:
        raise GeometryError("collapse function is a kagome quantity")
    inv = 1.0 / spec.ell
    f = lambda kp: float(kagome_collapse_function(kp, spec))
    # certified sign brackets: f(0) = 9 > 0 > f(1/ell), f(+inf) = +inf
    lo_root = brentq(f, 1e-12 * inv, inv, xtol=1e-15, rtol=1e-15)
    hi = 2.0 * inv
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 64.0 * inv:  # pragma: no cover
            raise InternalConsistencyError("upper collapse root escaped its bracket")
    hi_root = brentq(f, inv, hi, xtol=1e-15, rtol=1e-15)
    return lo_root, hi_root


def _scan_continuous(spec: LatticeSpec, side: str, x_max: float, resolution: float):
    """Grid scan with edge bisection and narrow-band (strip-crossing) recovery."""
    n = max(8, int(math.floor(x_max / resolution)))
    probes = np.arange(1, n + 1) * (x_max / n)
    extra = [X_FLOOR]
    if side == "negative":
        seeds = _negative_seeds(spec, x_max)
        extra.extend(seeds)
        # geometric ladders around each seed keep edge-bisection brackets
        # tight even when several exponentially narrow bands sit between
        # two grid probes
        rel = np.logspace(-12.0, -2.5, 20)
        for s in seeds:
            ladder = np.concatenate([s * (1.0 - rel), s * (1.0 + rel)])
            extra.extend(ladder[(ladder > 0.0) & (ladder <= x_max)])
    probes = np.unique(np.concatenate([probes, np.array(extra)]))
    probes = probes[(probes > 0.0) & (probes <= x_max)]

    flat_point = 1.0 / spec.ell if spec.kind == "equilateral_kagome" and side == "negative" else None
    if flat_point is not None:
        # the isolated flat point is not part of any continuous band
        probes = probes[np.abs(probes - flat_point) > 1e-9 * flat_point]

    oh, ul = _strip_components_chunked(probes, side, spec)
    margin = np.maximum(oh, ul)
    inb = margin <= 0.0

    margin_fn = lambda xs: _margin(xs, side, spec)
    over_fn = lambda xs: _strip_components(xs, side, spec)[0]
    under_fn = lambda xs: _strip_components(xs, side, spec)[1]

    intervals = []

    # runs of in-band probes
    idx = np.flatnonzero(inb)
    if idx.size:
        run_starts = idx[np.concatenate(([True], np.diff(idx) > 1))]
        run_ends = idx[np.concatenate((np.diff(idx) > 1, [True]))]
        lo_out, lo_in, lo_fixed = [], [], {}
        hi_out, hi_in, hi_fixed = [], [], {}
        for r, (a, b) in enumerate(zip(run_starts, run_ends)):
            if a == 0:
                # in-band at the floor probe: the band reaches zero
                lo_fixed[r] = 0.0 if probes[0] <= X_FLOOR * (1 + 1e-12) else probes[0]
            else:
                lo_out.append(probes[a - 1])
                lo_in.append(probes[a])
            if b == len(probes) - 1:
                hi_fixed[r] = probes[-1]
            else:
                hi_out.append(probes[b + 1])
                hi_in.append(probes[b])
        lo_edges = _bisect_vec(margin_fn, np.array(lo_out), np.array(lo_in)) if lo_out else np.array([])
        hi_edges = _bisect_vec(margin_fn, np.array(hi_out), np.array(hi_in)) if hi_out else np.array([])
        i_lo = i_hi = 0
        for r in range(len(run_starts)):
            if r in lo_fixed:
                k_lo = lo_fixed[r]
            else:
                k_lo = float(lo_edges[i_lo])
                i_lo += 1
            if r in hi_fixed:
                k_hi = hi_fixed[r]
            else:
                k_hi = float(hi_edges[i_hi])
                i_hi += 1
            intervals.append((k_lo, k_hi, r in lo_fixed and k_lo == 0.0, r in hi_fixed))

    # strip crossings between consecutive out-of-band probes: a band narrower
    # than the grid step, recovered by bisecting both strip boundaries
    out_pair = ~inb[:-1] & ~inb[1:]
    above = oh > 0.0
    crossing = np.flatnonzero(out_pair & (above[:-1] != above[1:]))
    if crossing.size:
        r1 = _bisect_vec(over_fn, probes[crossing], probes[crossing + 1])
        r2 = _bisect_vec(under_fn, probes[crossing], probes[crossing + 1])
        for a, b in zip(np.minimum(r1, r2), np.maximum(r1, r2)):
            intervals.append((float(a), float(b), False, False))

    intervals.sort()
    # merge overlaps and stitch intervals separated by less than the edge tolerance
    merged = []
    for k_lo, k_hi, lo_fix, hi_fix in intervals:
        if merged and k_lo <= merged[-1][1] + EDGE_RTOL * max(1.0, k_lo):
            prev = merged[-1]
            if k_hi > prev[1]:
                merged[-1] = (prev[0], k_hi, prev[2], hi_fix)
        else:
            merged.append((k_lo, k_hi, lo_fix, hi_fix))
    return merged


def scan_bands(spec: LatticeSpec, side: str = "positive", k_max: float = 10.0,
               resolution: float | None = None) -> BandStructure:
    """Scan one side of the spectrum into a BandStructure.

    Continuous bands come from the grid-plus-bisection scan; flat bands and
    point-degenerate bands are attached as zero-length intervals.  Negative
    scans get analytic interior seed points so that exponentially narrow
    bands are never missed, and the structural band-count bounds (at most
    three for kagome, two for triangular) are asserted.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    _require_positive("k_max", k_max)
    if resolution is None:
        resolution = 2.0 * math.pi / (1000.0 * spec.d) if side == "positive" else k_max / 5000.0
    _require_positive("resolution", resolution)
    if resolution > math.pi / (20.0 * spec.d):
        warnings.warn(
            f"resolution {resolution:g} is coarser than pi/(20 d); narrow bands may degrade",
            stacklevel=2,
        )

    raw = _scan_continuous(spec, side, k_max, resolution)

    if side == "negative":
        flats = [fb for fb in negative_flat_bands(spec) if fb.k <= k_max]
        point_momenta = [fb.k for fb in flats]
    else:
        flats = flat_bands(spec, k_max)
        point_momenta = [fb.k for fb in flats if fb.family in ("david_star", "degenerate_point")]

    # a strip crossing pinched to zero width where the bracket vanishes
    # identically in theta is an infinitely degenerate eigenvalue, reported
    # as a flat or point interval instead of a continuous band
    cleaned = [
        (k_lo, k_hi, lo_zero, hi_trunc) for k_lo, k_hi, lo_zero, hi_trunc in raw
        if not (k_hi - k_lo < 1e-10 * max(1.0, k_hi)
                and any(abs(0.5 * (k_lo + k_hi) - p) < 1e-8 * max(1.0, p) for p in point_momenta))
    ]

    # label every bisected edge (None at zero and at the scan cutoff) in one evaluation
    edges = [(None if (lo_zero or k_lo == 0.0) else k_lo, None if hi_trunc else k_hi)
             for k_lo, k_hi, lo_zero, hi_trunc in cleaned]
    labels = iter(_edge_theta([k for pair in edges for k in pair if k is not None], side, spec))
    intervals = [
        SpectralInterval(iv[0], iv[1], side, "continuous", *(None if k is None else next(labels) for k in pair))
        for iv, pair in zip(cleaned, edges)
    ]

    if side == "negative":
        bound = 2 if spec.kind == "triangular" else 3
        if len(intervals) > bound:
            raise InternalConsistencyError(
                f"{spec.kind} negative scan found {len(intervals)} bands, bound is {bound}"
            )
    for fb in flats:
        btype = "degenerate_point" if fb.family == "degenerate_point" else "flat"
        intervals.append(SpectralInterval(fb.k, fb.k, side, btype))

    intervals.sort(key=lambda iv: (iv.k_lo, iv.k_hi))
    return BandStructure(spec=spec, side=side, intervals=intervals,
                         scan_k_max=k_max, resolution=resolution)


def scan_negative_bands(spec: LatticeSpec, kappa_max: float | None = None,
                        resolution: float | None = None) -> BandStructure:
    """Negative-side scan; the default range 10/ell covers every band with margin."""
    if kappa_max is None:
        kappa_max = 10.0 / spec.ell
    if kappa_max < 2.0 * SQRT3 / spec.ell:
        raise ValueError("kappa_max must be at least 2*sqrt(3)/ell to cover the spectrum")
    return scan_bands(spec, "negative", kappa_max, resolution)


def spectral_threshold(spec: LatticeSpec) -> SpectralThresholds:
    """Zero-energy behavior: both conditions are closed inequalities in d."""
    crit = 2.0 * SQRT3 * spec.ell
    return SpectralThresholds(
        positive_starts_at_zero=spec.d >= crit,
        negative_reaches_zero=spec.d <= crit,
    )


# --------------------------------------------------------------------------
# gap closings

_CSTEP = 1.0e-100


def _delta_fixed_theta(x, d, spec: LatticeSpec, side: str, f: float, g: float):
    """Kagome bracket at fixed quasimomentum weights, with free cell period d.

    Accepts complex x and d (used for complex-step differentiation).
    """
    c, ell = spec.c, spec.ell
    if side == "positive":
        l1 = _lambda1_pos(x, c, d, ell)
        l2 = _lambda2_pos(x, c, d, ell)
        l3 = _lambda3_pos(x, c, d, ell)
    else:
        l1 = _lambda1_neg(x, c, d, ell)
        l2 = _lambda2_neg(x, c, d, ell)
        l3 = _lambda3_neg(x, c, d, ell)
    return l1 - l2 * f - l3 * g


def detect_gap_closings(spec: LatticeSpec, k_window: tuple, d_window: tuple,
                        side: str = "positive", grid_n: int = 48) -> list:
    """Parameter points where neighboring band edges touch.

    At the extremal quasimomenta the bracket's momentum- and period-
    derivatives are driven to a simultaneous zero (2d Newton from sign-change
    cells of a coarse grid); a candidate is kept when the bracket itself
    vanishes there and the scanned local gap is below 1e-6 in momentum.
    Returns (k, d, (theta1, theta2)) tuples.
    """
    if not spec.is_kagome:
        raise GeometryError("gap-closing search is defined for kagome geometry")
    k_lo, k_hi = k_window
    d_lo, d_hi = d_window
    if not (0.0 < k_lo < k_hi and spec.c < d_lo < d_hi):
        raise ValueError("windows must be nonempty and compatible with the geometry")

    found = []
    for theta in EXTREMAL_THETAS:
        f, g = _fg_arrays(np.array(theta[0]), np.array(theta[1]))
        f, g = float(f), float(g)

        def grad(v):
            x, d = v
            dk = _delta_fixed_theta(x + 1j * _CSTEP, d, spec, side, f, g).imag / _CSTEP
            dd = _delta_fixed_theta(x, d + 1j * _CSTEP, spec, side, f, g).imag / _CSTEP
            return [dk, dd]

        ks = np.linspace(k_lo, k_hi, grid_n)
        ds = np.linspace(d_lo, d_hi, grid_n)
        kk, dd_grid = np.meshgrid(ks, ds, indexing="ij")
        gk = _delta_fixed_theta(kk + 1j * _CSTEP, dd_grid, spec, side, f, g).imag / _CSTEP
        gd = _delta_fixed_theta(kk, dd_grid + 1j * _CSTEP, spec, side, f, g).imag / _CSTEP
        sk = np.sign(gk)
        sd = np.sign(gd)
        cells = np.argwhere(
            ((sk[:-1, :-1] != sk[1:, :-1]) | (sk[:-1, :-1] != sk[:-1, 1:]))
            & ((sd[:-1, :-1] != sd[1:, :-1]) | (sd[:-1, :-1] != sd[:-1, 1:]))
        )
        for i, j in cells:
            x0 = (0.5 * (ks[i] + ks[i + 1]), 0.5 * (ds[j] + ds[j + 1]))
            sol = root(grad, x0, method="hybr", tol=1e-13)
            if not sol.success:
                continue
            k_star, d_star = sol.x
            if not (k_lo - 1e-9 <= k_star <= k_hi + 1e-9 and d_lo - 1e-9 <= d_star <= d_hi + 1e-9):
                continue
            delta = _delta_fixed_theta(k_star, d_star, spec, side, f, g)
            l1, l2, l3 = lambda_arrays(k_star, side, LatticeSpec.kagome(spec.c, d_star, spec.ell))
            scale = abs(l1) + 3.0 * abs(l2) + 1.5 * SQRT3 * abs(l3) + 1.0
            if abs(delta) > 1e-6 * scale:
                continue
            # local gap between the nearest bands on either side (0 if k_star is in a band)
            spec_star = LatticeSpec.kagome(spec.c, d_star, spec.ell)
            w = 0.05 * (1.0 + k_star)
            lower = _local_band(spec_star, side, max(k_star - w, X_FLOOR), k_star, 2001)
            upper = _local_band(spec_star, side, k_star, k_star + w, 2001)
            if lower is None or upper is None or upper.k_lo - lower.k_hi >= 1e-6:
                continue
            found.append((float(k_star), float(d_star), theta))

    # dedupe: closings found from several theta points or cells coincide
    unique = []
    for cand in sorted(found):
        if not any(abs(cand[0] - u[0]) < 1e-6 and abs(cand[1] - u[1]) < 1e-6 for u in unique):
            unique.append(cand)
    return unique
