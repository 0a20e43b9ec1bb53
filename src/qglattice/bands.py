"""Band-structure engine: membership tests, spectrum scans, flat bands, gap closings.

Membership at one momentum is O(1): the bracket is linear in the two
quasimomentum weights, whose joint range over the torus attains its extrema
at the zone center and at theta1 = -theta2 = +-2*pi/3, so a momentum lies in
a continuous band exactly when the first kernel sits inside the strip
spanned by the three extremal combinations of the other two.

Scanning walks a momentum grid, keeping per probe its in-band flag and the
signs of the three extremal brackets.  Neighbouring probes whose flags or
signs differ give edge events: the margin's zero where one probe is in band
and the other is not, and the zero of each bracket that changes sign where
both lie on the same side.  All events are bisected together, and one walk
in momentum order opens and closes the bands.  Between two out-of-band
probes the events recover a band narrower than the grid step (the first
kernel crossing the whole strip), so bands that collapse exponentially with
the cell size need no special resolution; between two in-band probes they
cut out a gap narrower than the step wherever two or more brackets change
sign and all share a sign in between.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    """A scan violated a proven structural bound or met a non-finite bracket (signals a defect)."""


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


def _margin_of(brackets):
    """Strip margin max(min B, -max B) of the extremal brackets, continuous
    in x: <= 0 exactly where they change sign, i.e. in a band."""
    b0, bp, bm = brackets
    return np.maximum(np.minimum(b0, np.minimum(bp, bm)), -np.maximum(b0, np.maximum(bp, bm)))


def _margin(x, side, spec: LatticeSpec):
    return _margin_of(_extremal_brackets(x, side, spec))


def _strip_step(xs, side, spec: LatticeSpec):
    """In-band flags of a probe array and its sign bits: bit j of each uint8
    is set where extremal bracket j is positive.

    A non-finite bracket (an overflowing kernel) raises: its sign bits and
    margin would say nothing about membership.
    """
    brackets = _extremal_brackets(xs, side, spec)
    bits = np.zeros(xs.shape, np.uint8)
    for j, b in enumerate(brackets):
        finite = np.isfinite(b)
        if not finite.all():
            raise InternalConsistencyError(
                f"{spec.kind} {side} scan: non-finite extremal bracket at momentum {xs[~finite][0]:.9g}"
            )
        bits |= (b > 0.0).view(np.uint8) << j
    return _margin_of(brackets) <= 0.0, bits


def _strip_step_chunked(xs, side, spec: LatticeSpec):
    """_strip_step, split over the thread pool for long probe arrays."""
    n = _thread_count()
    if n <= 1 or xs.size < 200_000:
        return _strip_step(xs, side, spec)
    chunks = np.array_split(xs, n)
    with ThreadPoolExecutor(max_workers=n) as pool:
        parts = list(pool.map(lambda ch: _strip_step(ch, side, spec), chunks))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _require_positive(name, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def in_band(x, side, spec: LatticeSpec) -> bool:
    """Spectral-band membership of momentum x (energy x^2 or -x^2).

    Edges count as inside (spectra are closed sets).
    """
    _require_positive("momentum argument", x)
    brackets = _extremal_brackets(float(x), side, spec)
    if not np.isfinite(brackets).all():
        raise InternalConsistencyError(f"{spec.kind} {side}: non-finite extremal bracket at momentum {x:.9g}")
    return bool(_margin_of(brackets) <= 0.0)


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

def brentq(f, a, b, xtol, rtol, max_iter=100):
    """Root of f in [a, b] by Brent's method, step for step as scipy's brentq.c
    (so it returns the same floats).  A bracket without a sign change, a NaN
    value or no convergence in max_iter steps raises.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise InternalConsistencyError(f"root solve: NaN function value at {x:.17g}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InternalConsistencyError(f"root solve: no sign change on [{a:.17g}, {b:.17g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a trial step is taken below
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise InternalConsistencyError(f"root solve: no convergence in {max_iter} steps on [{a:.17g}, {b:.17g}]")


def root(fn, x0, tol=1e-13, max_iter=50):
    """Zero of fn: R^2 -> R^2 by Newton's method from x0; the Jacobian is a central
    difference with step 1e-7 max(1, |x|).  Stops once each step component is at most
    tol max(1, |x|); None on a singular Jacobian, a non-finite step or no convergence.
    """
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        h = 1e-7 * np.maximum(1.0, np.abs(x))
        jac = np.column_stack([np.subtract(fn(x + e), fn(x - e)) / (2.0 * hj) for hj, e in zip(h, np.diag(h))])
        try:
            step = np.linalg.solve(jac, -np.asarray(fn(x), dtype=float))
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all():
            return None
        x = x + step
        if (np.abs(step) <= tol * np.maximum(1.0, np.abs(x))).all():
            return x
    return None


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
        hi2 = 2.0 * inv
        while f(hi2) < 0 and hi2 < 64.0 * inv:
            hi2 *= 2.0
        for lo, hi in ((1e-9 * inv, inv * (1.0 - 1e-9)), (inv * (1.0 + 1e-9), hi2)):
            if f(lo) * f(hi) < 0:
                seeds.append(brentq(f, lo, hi, xtol=1e-14, rtol=4.0 * np.finfo(float).eps))
        return [s for s in seeds if s < kappa_max]
    seeds = [inv]  # -1/ell^2 always belongs to the kagome spectrum
    seeds.extend(r for r in kagome_collapse_roots(spec) if r < kappa_max)
    return seeds


def _collapse_in_units(t, a):
    """The collapse function at t = kappa ell for c / ell = a."""
    x = t ** 2
    return 4.0 * (np.exp(-t * a) + 1.0) * (x - 1.0) ** 2 + np.exp(-2.0 * t * a) * (x * x - 14.0 * x + 1.0)


def kagome_collapse_function(kappa, spec: LatticeSpec):
    """Leading coefficient of the large-cell negative spectral condition.

    Its roots (together with kappa = 1/ell) are the points the negative
    bands collapse to as the cell period grows; the function takes the
    values 9 at kappa = 0 and -12 e^(-2c/ell) at kappa = 1/ell, and grows
    to +infinity.
    """
    return _collapse_in_units(kappa * spec.ell, spec.c / spec.ell)


def kagome_collapse_roots(spec: LatticeSpec) -> tuple:
    """The two roots of the collapse function, one on each side of 1/ell."""
    if not spec.is_kagome:
        raise GeometryError("collapse function is a kagome quantity")
    a = spec.c / spec.ell
    f = lambda t: float(_collapse_in_units(t, a))
    # certified sign brackets in t = kappa ell, where t = 1 is exact: f(0) = 9 > 0 > f(1), f(+inf) = +inf
    lo_root = brentq(f, 1e-12, 1.0, xtol=1e-15, rtol=1e-15)
    hi = 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 64.0:  # pragma: no cover
            raise InternalConsistencyError("upper collapse root escaped its bracket")
    hi_root = brentq(f, 1.0, hi, xtol=1e-15, rtol=1e-15)
    return lo_root / spec.ell, hi_root / spec.ell


def _scan_continuous(spec: LatticeSpec, side: str, x_max: float, resolution: float):
    """Continuous bands as sorted (k_lo, k_hi, hi_trunc) tuples.

    One bisection pass over every edge event and one walk in momentum order.
    A pair of neighbouring probes with one in band and one out gives the
    margin's zero, bisected towards the in-band probe.  A pair on the same
    side gives the zero of each bracket that changes sign, bisected towards
    the right-hand probe; a lone change between two in-band probes moves no
    edge and is skipped.  The walk restarts from each pair's left-probe sign
    bits and opens or closes a band wherever the state enters or leaves the
    strip.  A band that holds the first probe starts at zero (X_FLOOR is
    always probed, or else every probe lies below it); hi_trunc marks one
    still in band at the last probe.
    """
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

    inb, bits = _strip_step_chunked(probes, side, spec)

    # edge events (pair index, selector): selector j < 3 is bracket j, 3 the margin
    flips = bits[1:] ^ bits[:-1]
    cross = inb[:-1] != inb[1:]
    # x & (x - 1) != 0: two or more bits changed (all three between out-of-band probes)
    same = ~cross & ((flips & (flips - 1)) != 0)
    pairs = [np.flatnonzero(same & ((flips >> j) & 1 == 1)) for j in range(3)] + [np.flatnonzero(cross)]
    pair = np.concatenate(pairs)
    which = np.repeat(np.arange(4), [p.size for p in pairs])
    toward_left = (which == 3) & inb[pair]

    def event_fn(xs):
        brackets = _extremal_brackets(xs, side, spec)
        return np.choose(which, (*brackets, _margin_of(brackets)))

    # _bisect_vec returns the hi side: the in-band probe's for a margin zero,
    # the right-hand probe's for a bracket zero
    zeros = _bisect_vec(event_fn, probes[pair + toward_left], probes[pair + ~toward_left])

    runs, start, last = [], 0.0 if inb[0] else None, -1
    order = np.lexsort((which, zeros, pair))
    for p, j, z in zip(pair[order].tolist(), which[order].tolist(), zeros[order].tolist()):
        if p != last:
            state, last = int(bits[p]), p
        if j == 3:
            inside = not inb[p]
        else:
            state ^= 1 << j
            inside = state not in (0, 7)
        if inside and start is None:
            start = z
        elif not inside and start is not None:
            runs.append((start, z, False))
            start = None
    if start is not None:
        runs.append((start, float(probes[-1]), True))

    # merge overlaps and stitch intervals separated by less than the edge tolerance
    merged = []
    for k_lo, k_hi, hi_trunc in runs:
        if merged and k_lo <= merged[-1][1] + EDGE_RTOL * max(1.0, k_lo):
            prev = merged[-1]
            if k_hi > prev[1]:
                merged[-1] = (prev[0], k_hi, hi_trunc)
        else:
            merged.append((k_lo, k_hi, hi_trunc))
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
        (k_lo, k_hi, hi_trunc) for k_lo, k_hi, hi_trunc in raw
        if not (k_hi - k_lo < 1e-10 * max(1.0, k_hi)
                and any(abs(0.5 * (k_lo + k_hi) - p) < 1e-8 * max(1.0, p) for p in point_momenta))
    ]

    # label every bisected edge (None at zero and at the scan cutoff) in one evaluation
    edges = [(None if k_lo == 0.0 else k_lo, None if hi_trunc else k_hi)
             for k_lo, k_hi, hi_trunc in cleaned]
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
        sk, sd = np.sign(grad((kk, dd_grid)))
        cells = np.argwhere(
            ((sk[:-1, :-1] != sk[1:, :-1]) | (sk[:-1, :-1] != sk[:-1, 1:]))
            & ((sd[:-1, :-1] != sd[1:, :-1]) | (sd[:-1, :-1] != sd[:-1, 1:]))
        )
        for i, j in cells:
            x0 = (0.5 * (ks[i] + ks[i + 1]), 0.5 * (ds[j] + ds[j + 1]))
            sol = root(grad, x0)
            if sol is None:
                continue
            k_star, d_star = sol
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
