"""Band-structure engine: membership tests, spectrum scans, flat bands, gap closings.

Membership at one momentum is O(1): the bracket is linear in the two
quasimomentum weights, whose joint range over the torus attains its extrema
at the zone center and at theta1 = -theta2 = +-2*pi/3, so a momentum lies in
a continuous band exactly when the first kernel sits inside the strip
spanned by the three extremal combinations of the other two.

Scanning walks a momentum grid, keeping per probe only the signs of the
three extremal brackets (in band unless all three agree) and, at the kept
probes, their values.  Each bracket that changes sign between neighbouring
probes gives an edge event, solved on its own by Brent's method from the
values at its two probes to the bracket's float root (rounded to
EDGE_BITS): many events step together in numpy, a few on Python floats.
One walk in momentum order opens and closes the bands, and labels each
edge with the extremal quasimomentum of its event's bracket.  Between two
out-of-band probes the events recover a band narrower than the grid step
(the first kernel crossing the whole strip), so bands that collapse
exponentially with the cell size need no special resolution; between two
in-band probes they cut out a gap narrower than the step wherever two or
more brackets change sign and all share a sign in between.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import blocks
from .kernels import (
    EXTREMAL_THETAS,
    GeometryError,
    LatticeSpec,
    Quasimomentum,
    SQRT3,
    kagome_equilateral_F,
    lambda_arrays,
    tri_bracket_parts_neg,
    tri_bracket_parts_pos,
    _fg_arrays,
    _lambdas,
    _require_side,
    bracket_curvature_bound,
)

#: Band runs closer than this, relative to max(1, |k|), are stitched together.
EDGE_RTOL = 1.0e-10

#: Significant bits of a reported edge (9e-13 relative).  Lattices equal up
#: to rounding (the swap pair c, d - c) put a float root a few ulp apart; the
#: rounded edges agree unless it lies that close to a rounding boundary.
EDGE_BITS = 40

#: Relative stopping width (scipy's default rtol) and step limit of edge solves.
BRENT_RTOL, BRENT_MAX_ITER = 4.0 * np.finfo(float).eps, 100

#: Live edge solves at or below which _brent_vec steps on Python floats: a
#: numpy round costs about 65 us on a few elements, a scalar step 2.5 us each.
BRENT_SCALAR_LIVE = 32

#: Smallest momentum probed; bands verified to extend below are reported
#: as starting at zero.  Margins closer to zero than this are dominated by
#: floating-point cancellation.
X_FLOOR = 1.0e-6

#: Tolerance of the trigonometric criterion 2 cos(L/ell) + 1 = 0 locating
#: point-degenerate bands.
DEGENERATE_TRIG_TOL = 1.0e-9

#: Largest number of grid probes (k_max / resolution) a scan accepts.
MAX_PROBES = 100_000_000

#: Stride of the probes that a positive scan evaluates first (_strip_step).
SKIP_STRIDE = 8

#: Rounding error of a float64 extremal bracket, relative to its error scale
#: S (kernels.bracket_curvature_bound).  The kernels' phases k w carry a
#: rounding error of a few eps k w, so the bracket is off by a few eps S;
#: tests/test_kernels.py measures it against mpmath.
BRACKET_RTOL = 1.0e-12


class InternalConsistencyError(RuntimeError):
    """A scan violated a proven structural bound or met a non-finite bracket (signals a defect)."""


@dataclass(frozen=True, slots=True)
class SpectralInterval:
    """One band [k_lo, k_hi] on the momentum axis (kappa on the negative side).

    `edge_theta_lo/hi` name the EXTREMAL_THETAS point whose bracket's sign change (edge event)
    made the edge, so it vanishes there; None at the scan's start, at its cutoff and on flat bands."""

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


#: Band types by code (BandStructure.kinds) and edge thetas by label (BandStructure.edge_labels).
BAND_TYPES = ("continuous", "flat", "degenerate_point")
_THETAS = (None, *EXTREMAL_THETAS)


@dataclass(eq=False)
class BandStructure:
    """Ordered scan result for one side of the spectrum.

    The bands are arrays in interval order, sorted by (k_lo, k_hi): `k_lo`,
    `k_hi`, `kinds` (indices into BAND_TYPES) and `edge_labels`, a (lo, hi)
    row per band of indices into (None, *EXTREMAL_THETAS) (_band_runs).
    The SpectralInterval list is built from them on first access and kept;
    given `intervals` (dataclasses.replace(bands, intervals=[...])), the
    arrays are read from that list instead.  Structures are equal when their
    fields are, the arrays element by element.
    """

    spec: LatticeSpec
    side: str
    scan_k_max: float
    resolution: float
    k_lo: np.ndarray = field(repr=False)
    k_hi: np.ndarray = field(repr=False)
    kinds: np.ndarray = field(repr=False)
    edge_labels: np.ndarray = field(repr=False)

    def __init__(self, spec, side, scan_k_max, resolution, k_lo, k_hi, kinds, edge_labels, intervals=None):
        if intervals is not None:
            rows = np.array([(iv.k_lo, iv.k_hi, BAND_TYPES.index(iv.band_type), _THETAS.index(iv.edge_theta_lo),
                              _THETAS.index(iv.edge_theta_hi)) for iv in intervals], float).reshape(-1, 5)
            k_lo, k_hi = rows[:, :2].T
            kinds, edge_labels = rows[:, 2].astype(np.uint8), rows[:, 3:].astype(np.uint8)
        self.spec, self.side, self.scan_k_max, self.resolution = spec, side, scan_k_max, resolution
        self.k_lo, self.k_hi, self.kinds, self.edge_labels = k_lo, k_hi, kinds, edge_labels

    def __eq__(self, other):
        if not isinstance(other, BandStructure):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @cached_property
    def intervals(self) -> list:
        return [SpectralInterval(lo, hi, self.side, BAND_TYPES[t], _THETAS[a], _THETAS[b]) for lo, hi, t, (a, b)
                in zip(self.k_lo.tolist(), self.k_hi.tolist(), self.kinds.tolist(), self.edge_labels.tolist())]

    @property
    def continuous(self) -> list:
        return [iv for iv in self.intervals if iv.band_type == "continuous"]

    @property
    def flat(self) -> list:
        return [iv for iv in self.intervals if iv.band_type != "continuous"]

    def csv_rows(self):
        """Rows matching the header side,band_index,type,k_lo,k_hi,E_lo,E_hi."""
        return [(self.side, i, iv.band_type, iv.k_lo, iv.k_hi, iv.energy_lo, iv.energy_hi)
                for i, iv in enumerate(self.intervals, start=1)]

    def to_dict(self):
        return {
            "spec": {"kind": self.spec.kind, "c": self.spec.c, "d": self.spec.d, "ell": self.spec.ell},
            "side": self.side, "scan_k_max": self.scan_k_max, "resolution": self.resolution, "edge_tolerance": EDGE_RTOL,
            "intervals": [
                {"band_index": i, "type": iv.band_type, "k_lo": iv.k_lo, "k_hi": iv.k_hi,
                 "E_lo": iv.energy_lo, "E_hi": iv.energy_hi,
                 "edge_theta_lo": list(iv.edge_theta_lo) if iv.edge_theta_lo else None,
                 "edge_theta_hi": list(iv.edge_theta_hi) if iv.edge_theta_hi else None}
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

def _extremal_brackets(x, side, spec: LatticeSpec):
    """Bracket l1 - l2 f - l3 g at the three EXTREMAL_THETAS, in that order.

    Scalar or array momentum; the only place that branches on lattice kind
    and side for membership.
    """
    if spec.is_kagome:
        l1, l2, l3 = lambda_arrays(x, side, spec)
        return l1 - 3.0 * l2, l1 + 1.5 * (l2 + SQRT3 * l3), l1 + 1.5 * (l2 - SQRT3 * l3)
    # the triangular bracket A - C f depends on theta through f only, and
    # f = -3/2 at both corners
    a, c = (tri_bracket_parts_pos if side == "positive" else tri_bracket_parts_neg)(x, spec)
    corner = a - c * (-1.5)
    return a - c * 3.0, corner, corner


def _margin_of(brackets):
    """Strip margin max(min B, -max B) of the extremal brackets, continuous
    in x: <= 0 exactly where they change sign, i.e. in a band."""
    b0, bp, bm = brackets
    return np.maximum(np.minimum(b0, np.minimum(bp, bm)), -np.maximum(b0, np.maximum(bp, bm)))


def _margin(x, side, spec: LatticeSpec):
    return _margin_of(_extremal_brackets(x, side, spec))


def _flags(xs, brackets, side, spec: LatticeSpec):
    """Sign bits of a probe array: bit j of each uint8 is set where extremal
    bracket j is positive.

    A non-finite bracket (an overflowing kernel) raises: its sign bits would
    say nothing about membership.
    """
    bits = np.zeros(xs.shape, np.uint8)
    for j, b in enumerate(brackets):
        finite = np.isfinite(b)
        if not finite.all():
            raise InternalConsistencyError(
                f"{spec.kind} {side} scan: non-finite extremal bracket at momentum {xs[~finite][0]:.9g}"
            )
        bits |= (b > 0.0).view(np.uint8) << j
    return bits


def _strip_step(xs, side, spec: LatticeSpec):
    """Kept probes of a sorted probe array, their `_flags` and their three
    extremal brackets (a (3, kept) array), evaluating only the probes near a
    sign change.  Kept are the two ends and the probes on either side of a
    change of bits: the probes dropped between two kept ones share their
    bits, so the kept sequence has the same edge events.

    Every SKIP_STRIDE-th probe and the last one are evaluated first.  The
    cell between two of them is certified when each bracket has the same
    sign at both ends, by more than its largest departure from the chord,
    M H^2 / 8 (M from kernels.bracket_curvature_bound, H the cell's width),
    plus BRACKET_RTOL times its error scale S.  No bracket then changes sign
    inside the cell, in exact or in float arithmetic, so its probes take
    its left end's bits.  M and S are polynomials with nonnegative
    coefficients, so they do not decrease in x: one evaluation at the right
    end of each run of SKIP_STRIDE cells serves the whole run.  The probes
    of the other cells are evaluated in one further call.  Without a bound
    (the negative side), or with at most 2 SKIP_STRIDE probes, every probe
    is evaluated at once.  Every kept probe is evaluated: a probe inside a
    certified cell has its neighbours' bits.
    """
    ends = np.append(np.arange(0, xs.size - 1, SKIP_STRIDE), xs.size - 1)
    cells = ends.size - 1
    # the right end of each run of SKIP_STRIDE cells
    tops = ends[np.minimum(np.arange(SKIP_STRIDE, cells + SKIP_STRIDE, SKIP_STRIDE), cells)]
    bound = bracket_curvature_bound(xs[tops], side, spec) if xs.size > 2 * SKIP_STRIDE else None
    todo, probed = np.empty(0, int), []
    if bound is None:
        ends, brackets = np.arange(xs.size), _extremal_brackets(xs, side, spec)
        bits = _flags(xs, brackets, side, spec)
    else:
        brackets = _extremal_brackets(xs[ends], side, spec)
        bits = _flags(xs[ends], brackets, side, spec)
        chord = np.diff(xs[ends]) ** 2 / 8.0
        certified = np.ones(cells, bool)
        for b, m, s in zip(brackets, *np.repeat(bound, SKIP_STRIDE, axis=-1)[..., :cells]):
            certified &= ((b[:-1] > 0.0) == (b[1:] > 0.0)) & (
                np.minimum(np.abs(b[:-1]), np.abs(b[1:])) > m * chord + BRACKET_RTOL * s)
        widths = np.diff(ends)
        bits = np.append(np.repeat(bits[:-1], widths), bits[-1])
        todo = np.append(np.repeat(~certified, widths), False)
        todo[ends] = False
        todo = np.flatnonzero(todo)
        if todo.size:
            probed = _extremal_brackets(xs[todo], side, spec)
            bits[todo] = _flags(xs[todo], probed, side, spec)
        # freed before the kept arrays are made, among which they raise the peak RSS
        del b, m, s, chord, certified, widths
    change = bits[1:] != bits[:-1]
    keep = np.ones(xs.size, bool)
    keep[1:-1] = change[:-1] | change[1:]
    # the kept probes' brackets, from the kept ends (every probe without a
    # bound) and probed ones; the full arrays are dropped first (lower peak RSS)
    del change
    brackets = [b[keep[ends]] for b in brackets]
    probed = [b[keep[todo]] for b in probed]
    end = np.zeros(xs.size, bool)
    end[ends] = True
    end = end[keep]
    values = np.empty((3, end.size))
    values[:, end], values[:, ~end] = brackets, probed
    return xs[keep], bits[keep], values


def _require_positive(name, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def in_band(x, side, spec: LatticeSpec) -> bool:
    """Spectral-band membership of momentum x (energy x^2 or -x^2).

    Edges count as inside (spectra are closed sets).
    """
    _require_side(side)
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


def _flat_momenta(spec: LatticeSpec, k_max: float) -> list:
    """Momenta of the positive-side flat bands up to k_max (flat_bands), as
    (family, ascending momenta) pairs.  Raises ValueError, before allocating,
    when the families together would hold more than MAX_PROBES momenta."""
    top = k_max * (1.0 + 1e-15)
    # (family, k_of_n, n_max): k_of_n increases with n and exceeds top at n_max
    multiples = lambda family, step: (family, lambda n: n * step, int(top / step) + 2)
    if spec.kind == "kagome":
        series = [multiples(family, 2.0 * math.pi / L)
                  for family, L in (("b_family", spec.b), ("c_family", spec.c), ("d_family", spec.d))]
        lengths = (spec.c, spec.b, spec.d)
    elif spec.kind == "equilateral_kagome":
        star = lambda n: (6 * n - 3 + np.where(n % 2 == 1, 1, -1)) * math.pi / (6.0 * spec.c)
        series = [multiples("equilateral_merged", math.pi / spec.c),
                  ("david_star", star, int(top * spec.c / math.pi) + 2)]
        lengths = (spec.d,)
    elif spec.kind == "triangular":
        series = [multiples("d_family", 2.0 * math.pi / spec.d)]
        lengths = (spec.d,)
    else:  # pragma: no cover
        raise GeometryError(f"unknown lattice kind {spec.kind!r}")
    total = sum(n_max for _, _, n_max in series)
    if total > MAX_PROBES:
        raise ValueError(f"about {total:.3g} flat-band momenta up to k_max = {k_max:g}, "
                         f"the limit is {MAX_PROBES:.0e}")
    out = []
    for family, k_of_n, n_max in series:
        ks = k_of_n(np.arange(1, n_max + 1))
        out.append((family, ks[ks <= top]))
    if 1.0 / spec.ell <= k_max and any(_is_degenerate_length(L, spec.ell) for L in lengths):
        out.append(("degenerate_point", np.array([1.0 / spec.ell])))
    return out


def flat_bands(spec: LatticeSpec, k_max: float) -> list:
    """All positive-side flat bands with momentum <= k_max.

    Generic kagome carries one family per edge length (2 n pi / L for
    L in {d-c, c, d}); in the equilateral case they merge into n pi / c and
    an extra family appears at the zeros of 2 cos(kc) + 1.  The triangular
    lattice has the single family 2 n pi / d.  Point-degenerate bands sit at
    k = 1/ell whenever 2 cos(L/ell) + 1 = 0 for one of the lengths.
    """
    _require_positive("k_max", k_max)
    out = []
    for family, ks in _flat_momenta(spec, k_max):
        if family == "degenerate_point":
            k_point = float(ks[0])
            out.append(FlatBand(k=k_point, family=family, multiplicity_note="k=1/ell",
                                embedded=bool(_limit_membership(k_point, "positive", spec))))
            continue
        embedded = np.zeros(ks.size, dtype=bool)
        if ks.size and family == "david_star":
            embedded = _limit_membership(ks, "positive", spec)
        elif ks.size and spec.kind == "kagome":
            # an extremal bracket may vanish here in exact arithmetic: within
            # its rounding error it counts as zero, an edge, which is in band
            brackets = np.array(_extremal_brackets(ks, "positive", spec))
            brackets[np.abs(brackets) <= BRACKET_RTOL * bracket_curvature_bound(ks, "positive", spec)[1]] = 0.0
            embedded = _margin_of(brackets) <= 0.0
        out.extend(FlatBand(k=float(k), family=family, multiplicity_note=f"n={n}", embedded=bool(e))
                   for n, (k, e) in enumerate(zip(ks, embedded), start=1))
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

def _brent_step(s, xtol, rtol) -> bool:
    """One step of scipy's brentq.c on the floats s = [xpre, fpre, xcur, fcur, xblk, fblk,
    spre, scur], fcur = f(xcur): True when xcur is the root, else s holds the next xcur to
    evaluate.  A zero division bisects, as the C code's non-finite trial step does."""
    xpre, fpre, xcur, fcur, xblk, fblk, spre, scur = s
    if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
        xblk, fblk = xpre, fpre
        spre = scur = xcur - xpre
    if abs(fblk) < abs(fcur):  # keep the better estimate in xcur
        xpre, xcur, xblk = xcur, xblk, xcur
        fpre, fcur, fblk = fcur, fblk, fcur
    delta = (xtol + rtol * abs(xcur)) / 2
    sbis = (xblk - xcur) / 2
    if fcur == 0.0 or abs(sbis) < delta:
        s[2] = xcur
        return True
    stry = math.inf  # bisect unless a trial step is taken below
    if abs(spre) > delta and abs(fcur) < abs(fpre):
        try:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        except ZeroDivisionError:
            pass
    if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
        spre, scur = scur, stry
    else:
        spre = scur = sbis
    step = scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
    s[:] = xcur, fcur, xcur + step, fcur, xblk, fblk, spre, scur  # xpre, fpre = xcur, fcur
    return False


def brentq(f, a, b, xtol, rtol, max_iter=100):
    """Root of f in [a, b] by Brent's method, step for step as scipy's brentq.c
    (so it returns the same floats; _brent_step).  A bracket without a sign
    change, a NaN value or no convergence in max_iter steps raises.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise InternalConsistencyError(f"root solve: NaN function value at {x:.17g}")
        return fx

    fa, fb = value(a), value(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise InternalConsistencyError(f"root solve: no sign change on [{a:.17g}, {b:.17g}]")
    s = [a, fa, b, fb, 0.0, 0.0, 0.0, 0.0]
    for _ in range(max_iter):
        if _brent_step(s, xtol, rtol):
            return s[2]
        s[3] = value(s[2])
    raise InternalConsistencyError(f"root solve: no convergence in {max_iter} steps on [{a:.17g}, {b:.17g}]")


def root(fn, x0, tol=1e-13, max_iter=50):
    """Zeros of fn: R^2 -> R^2 by Newton's method from x0, one start of shape (2,) or
    a stack of n starts of shape (n, 2), all iterated together.

    A start may carry parameters of its own as further components, shape (2 + p,)
    or (n, 2 + p): Newton moves only the first two, and fn sees all 2 + p.  fn takes
    the five stencil points of the m starts still iterating, components first, shape
    (2 + p, 5, m), and returns the two values per point, shape (2, 5, m).  The
    Jacobian is a central difference with step 1e-7 max(1, |x|).  A start stops once
    each step component is at most tol max(1, |x|); its result is None on a singular
    Jacobian, a non-finite step or no convergence.  Returns the zero (the first two
    components) for one start and a list of them for a stack.
    """
    single = np.ndim(x0) == 1
    x = np.array(x0, dtype=float, ndmin=2)
    result = [None] * len(x)
    rows = np.arange(len(x))
    for _ in range(max_iter):
        if not len(rows):
            break
        h = 1e-7 * np.maximum(1.0, np.abs(x[rows, :2]))
        # the five stencil points x, x + h0, x - h0, x + h1, x - h1 of each start
        pts = np.repeat(x[rows].T[:, None, :], 5, axis=1)
        pts[0, 1] += h[:, 0]
        pts[0, 2] -= h[:, 0]
        pts[1, 3] += h[:, 1]
        pts[1, 4] -= h[:, 1]
        vals = np.asarray(fn(pts), dtype=float)
        jac = ((vals[:, 1::2] - vals[:, 2::2]) / (2.0 * h.T)).transpose(2, 0, 1)
        rhs = -vals[:, 0].T
        try:
            step = np.linalg.solve(jac, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # some Jacobian is singular: solve start by start
            step = np.full(rhs.shape, np.nan)
            for r in range(len(rows)):
                try:
                    step[r] = np.linalg.solve(jac[r], rhs[r])
                except np.linalg.LinAlgError:
                    pass
        failed = ~np.isfinite(step).all(axis=1)
        x[rows[~failed], :2] += step[~failed]
        done = ~failed & (np.abs(step) <= tol * np.maximum(1.0, np.abs(x[rows, :2]))).all(axis=1)
        for r in rows[done]:
            result[r] = x[r, :2].copy()
        rows = rows[~(failed | done)]
    return result[0] if single else result


def _brent_vec(fn, a, b, fa, fb):
    """Roots of many functions, each in its bracket [a, b] with the values
    fa, fb there (float arrays), by brentq's steps applied elementwise:
    element i gives brentq(f_i, a[i], b[i], 0, BRENT_RTOL, BRENT_MAX_ITER),
    whatever the others are.  No bracket end is evaluated again.

    fn(xs, idx) returns the values at xs of the functions of elements idx,
    called once per round for the live elements: at most BLOCK_POINTS // 32,
    which bounds the memory, and a queued element enters as one stops.  A
    round steps them in numpy, or on Python floats (_brent_step) when at
    most BRENT_SCALAR_LIVE are live.  A bracket without a sign change, a NaN
    value or no convergence raises.
    """
    def checked(xs, vals):
        vals = np.asarray(vals, dtype=float)
        if np.isnan(vals).any():
            raise InternalConsistencyError(f"root solve: NaN function value at {xs[np.isnan(vals)][0]:.17g}")
        return vals

    checked(a, fa)
    checked(b, fb)
    out = np.where(fa == 0.0, a, b)
    todo = np.flatnonzero((fa != 0.0) & (fb != 0.0))  # the others stop at a zero end
    if (np.signbit(fa[todo]) == np.signbit(fb[todo])).any():
        raise InternalConsistencyError("root solve: no sign change in a bracket")
    width, queue, rounds = max(2, blocks.BLOCK_POINTS // 32), 0, 0
    # the live elements are the first m columns, in the order they entered:
    # rows xpre, fpre, xcur, fcur, xblk, fblk, spre, scur, and ids[:m] their
    # indices; each pass ends by evaluating fcur at the new xcur
    st, ids, m = np.empty((8, width)), np.empty(width, int), 0
    entered = np.empty(a.size, int)
    while queue < todo.size or m:
        new = todo[queue:queue + width - m]
        queue += new.size
        n = m + new.size
        st[:4, m:n] = a[new], fa[new], b[new], fb[new]
        ids[m:n] = new
        entered[new] = rounds
        state = st[:, :n]
        if n <= BRENT_SCALAR_LIVE:  # brentq's step on Python floats, cheaper on a few elements
            rows = state.T.tolist()
            done = np.array([_brent_step(s, 0.0, BRENT_RTOL) for s in rows])
            state[:] = np.array(rows).T
            out[ids[:n][done]] = state[2, done]
        else:
            xpre, fpre, xcur, fcur, xblk, fblk, spre, scur = state  # views of the rows
            flip = (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))  # fpre is never zero here
            step = xcur - xpre
            for row, value in ((xblk, xpre), (fblk, fpre), (spre, step), (scur, step)):
                np.putmask(row, flip, value)
            # keep the better estimate in xcur: xpre, xcur, xblk = xcur, xblk, xcur (and the values)
            swap = np.abs(fblk) < np.abs(fcur)
            for pre, cur, blk in ((xpre, xcur, xblk), (fpre, fcur, fblk)):
                np.putmask(pre, swap, cur)
                np.putmask(cur, swap, blk)
                np.putmask(blk, swap, pre)
            delta = BRENT_RTOL / 2 * np.abs(xcur)
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            out[ids[:n][done]] = xcur[done]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # secant -fcur (xcur - xpre) / (fcur - fpre), with the signs taken out
                dx, df = xpre - xcur, fpre - fcur
                dpre = df / dx
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = np.where(xpre == xblk, fcur * dx / -df,
                                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))  # inverse quadratic
                stry[(np.abs(spre) <= delta) | (np.abs(fcur) >= np.abs(fpre))] = np.inf
                take = 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            spre[:] = np.where(take, scur, sbis)
            scur[:] = np.where(take, stry, sbis)
            state[:2] = state[2:4]  # xpre, fpre = xcur, fcur
            xcur += np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        keep = ~done
        m = n - np.count_nonzero(done)
        st[:, :m], ids[:m] = state[:, keep], ids[:n][keep]
        rounds += 1
        if m:
            if rounds - entered[ids[0]] >= BRENT_MAX_ITER:  # the first live element is the oldest
                raise InternalConsistencyError(f"root solve: a bracket not converged in {BRENT_MAX_ITER} steps")
            st[3, :m] = checked(st[2, :m], fn(st[2, :m], ids[:m]))
    return out


def _local_band(spec: LatticeSpec, side: str, lo: float, hi: float) -> SpectralInterval | None:
    """Span from the first to the last band point of [lo, hi], probed at 20001
    evenly spaced points (_strip_step: only those near a sign change evaluated).

    Edges inside the window are solved as a scan's are (_band_runs); an edge
    at the window boundary is the boundary itself.  None if no band is found.
    """
    runs, _ = _band_runs(*_strip_step(np.linspace(lo, hi, 20001), side, spec), side, spec, lo)
    return SpectralInterval(float(runs[0, 0]), float(runs[-1, 1]), side) if runs.size else None


def _negative_seeds(spec: LatticeSpec, kappa_max: float) -> list:
    """Interior points guaranteed (or expected) to lie inside negative bands;
    the equilateral ones are the zeros of F(kappa) in (0, 1/ell) and (1/ell, 2/ell)."""
    ell = spec.ell
    inv = 1.0 / ell
    if spec.kind == "triangular":
        return [s for s in (inv / SQRT3, SQRT3 * inv) if s < kappa_max]
    if spec.kind == "equilateral_kagome":
        # zeros of the reduced condition F(kappa) = 0 bracket the flat point
        seeds = []
        f = lambda kp: float(kagome_equilateral_F(kp, spec))
        # F(2/ell) has numerator 72 C^3 + 36 C^2 - 93 C - 9 > 0, C = cosh(2c/ell) >= 1
        for lo, hi in ((1e-9 * inv, inv * (1.0 - 1e-9)), (inv * (1.0 + 1e-9), 2.0 * inv)):
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
    """The two roots of the collapse function, one on each side of 1/ell,
    solved in t = kappa ell on the brackets [1e-12, 1] and [1, 2]."""
    if not spec.is_kagome:
        raise GeometryError("collapse function is a kagome quantity")
    a = spec.c / spec.ell
    f = lambda t: float(_collapse_in_units(t, a))
    # certified sign brackets in t = kappa ell, where t = 1 is exact: f(0) = 9 > 0 > f(1),
    # and f(2) = 36 + 36 u - 39 u^2 >= 33 for u = e^(-2c/ell) in (0, 1]
    lo_root = brentq(f, 1e-12, 1.0, xtol=1e-15, rtol=1e-15)
    hi_root = brentq(f, 1.0, 2.0, xtol=1e-15, rtol=1e-15)
    return lo_root / spec.ell, hi_root / spec.ell


def _band_runs(probes, bits, values, side, spec: LatticeSpec, first: float) -> tuple:
    """Bands of sorted probes with their sign bits (in band unless 0 or 7) and
    extremal brackets (_strip_step): sorted (k_lo, k_hi) rows, and a (lo, hi)
    row of edge labels per band.

    Each bracket that changes sign between neighbouring probes gives an edge
    event, except a lone change between two in-band probes; the corner
    brackets, equal unless the lattice is generic kagome (l3 = 0 at d = 2c),
    give one event that toggles both their bits.  Each event is solved
    (_brent_vec, from the bracket's values at its two probes) and rounded
    to EDGE_BITS.  In momentum order, the state after an event is its pair's
    left-probe bits xor the pair's toggles up to it; a band opens or closes
    where the state enters or leaves the strip, and a close followed by an
    open within EDGE_RTOL max(1, k) is dropped, so that the band goes on
    (a chain of such pairs makes one band).  A band holding the first probe
    starts at `first`, one holding the last probe ends there.  An edge's label
    is 0 there, else 1 + the EXTREMAL_THETAS index of its event's bracket (1
    for the corner pair); a chain keeps its first open's and last close's.
    """
    flips = bits[1:] ^ bits[:-1]
    # a lone flip between two in-band probes (common bits not 0, joint bits not 7)
    flips[((flips & (flips - 1)) == 0) & ((bits[1:] & bits[:-1]) != 0) & ((bits[1:] | bits[:-1]) != 7)] = 0
    toggles = np.array([1, 2, 4] if spec.kind == "kagome" else [1, 6], np.uint8)
    pair, which = np.nonzero(flips[:, None] & toggles)
    zeros = _brent_vec(lambda xs, i: np.choose(which[i], _extremal_brackets(xs, side, spec)),
                       probes[pair], probes[pair + 1], values[which, pair], values[which, pair + 1])
    order = np.lexsort((which, zeros, pair))
    pair, which = pair[order], which[order]
    # xor of all toggles before each event and up to it; a pair's first event restarts from its bits
    acc = np.bitwise_xor.accumulate(np.append(np.uint8(0), toggles[which]))
    state = bits[pair] ^ acc[1:] ^ acc[np.searchsorted(pair, pair)]
    # edges sit at `first`, at the rounded events and at the last probe; inside[i + 1] is the
    # state after at[i] (out of band before `first` and after the last probe)
    mant, exp = np.frexp(zeros[order])
    at = np.concatenate(([first], np.ldexp(np.round(np.ldexp(mant, EDGE_BITS)), exp - EDGE_BITS), [probes[-1]]))
    label = np.concatenate(([0], 1 + which, [0])).astype(np.uint8)
    inside = np.concatenate(([False, int(bits[0]) not in (0, 7)], (state != 0) & (state != 7), [False]))
    lo, hi = np.flatnonzero(inside[1:] > inside[:-1]), np.flatnonzero(inside[1:] < inside[:-1])
    merged = np.flatnonzero(at[lo[1:]] <= at[hi[:-1]] + EDGE_RTOL * np.maximum(1.0, at[lo[1:]]))
    lo, hi = np.delete(lo, merged + 1), np.delete(hi, merged)
    return np.column_stack((at[lo], at[hi])), np.column_stack((label[lo], label[hi]))


def _scan_continuous(spec: LatticeSpec, side: str, x_max: float, resolution: float):
    """Continuous bands as _band_runs returns them: (k_lo, k_hi) rows and
    their edge labels (0 at zero and at the cutoff).

    The probes are evaluated in blocks (blocks.map_blocks), X_FLOOR always
    among them, and _band_runs solves the edge events of the probes each
    block keeps (_strip_step) and walks them; a band that holds the first
    probe starts at zero.
    """
    n = max(8, int(math.floor(x_max / resolution)))
    step = x_max / n
    extra = [X_FLOOR]
    if side == "negative":
        seeds = _negative_seeds(spec, x_max)
        extra.extend(seeds)
        # geometric ladders around each seed keep edge brackets
        # tight even when several exponentially narrow bands sit between
        # two grid probes
        rel = np.logspace(-12.0, -2.5, 20)
        for s in seeds:
            extra.extend(np.concatenate([s * (1.0 - rel), s * (1.0 + rel)]))
    extra = np.unique(extra)
    flat_point = 1.0 / spec.ell if spec.kind == "equilateral_kagome" and side == "negative" else None

    def block(lo, hi):
        # grid probes lo + 1 .. hi and the extra probes from grid probe lo + 1
        # up to hi + 1 (and all those below the first or above the last)
        e0 = 0 if lo == 0 else np.searchsorted(extra, (lo + 1) * step)
        e1 = extra.size if hi == n else np.searchsorted(extra, (hi + 1) * step)
        xs, more = np.arange(lo + 1, hi + 1) * step, extra[e0:e1]
        # merged into the sorted grid, less those equal to a grid probe
        at = np.searchsorted(xs, more)
        new = more != xs[np.minimum(at, xs.size - 1)]
        xs = np.insert(xs, at[new], more[new])
        xs = xs[:np.searchsorted(xs, x_max, side="right")]
        if flat_point is not None:
            # the isolated flat point is not part of any continuous band
            xs = xs[np.abs(xs - flat_point) > 1e-9 * flat_point]
        return _strip_step(xs, side, spec)

    probes, bits, values = (np.concatenate(a, axis=-1) for a in zip(*blocks.map_blocks(block, n)))
    return _band_runs(probes, bits, values, side, spec, 0.0)


def scan_bands(spec: LatticeSpec, side: str = "positive", k_max: float = 10.0,
               resolution: float | None = None) -> BandStructure:
    """Scan one side of the spectrum into a BandStructure.

    Continuous bands come from the grid-plus-Brent scan; flat bands and
    point-degenerate bands are attached as zero-length intervals.  Negative
    scans get analytic interior seed points so that exponentially narrow
    bands are never missed, and the structural band-count bounds (at most
    three for kagome, two for triangular) are asserted.
    """
    _require_side(side)
    _require_positive("k_max", k_max)
    if resolution is None:
        resolution = 2.0 * math.pi / (1000.0 * spec.d) if side == "positive" else k_max / 5000.0
    _require_positive("resolution", resolution)
    if k_max / resolution > MAX_PROBES:
        raise ValueError(f"k_max / resolution = {k_max / resolution:.3g} probes, the limit is {MAX_PROBES:.0e}")
    # negative bands are kept by their seeds, not by the grid step
    if side == "positive" and resolution > math.pi / (20.0 * spec.d):
        warnings.warn(f"resolution {resolution:g} is coarser than pi/(20 d); narrow bands may degrade", stacklevel=2)

    # families by name, so that the stable sort below puts flat bands in (k, family) order;
    # built before the scan, so that too many flat momenta to hold fail first
    if side == "negative":
        families = [(fb.family, np.array([fb.k])) for fb in negative_flat_bands(spec) if fb.k <= k_max]
    else:
        families = sorted(_flat_momenta(spec, k_max), key=lambda fam: fam[0])
    runs, labels = _scan_continuous(spec, side, k_max, resolution)
    points = [ks for family, ks in families if side == "negative" or family in ("david_star", "degenerate_point")]

    # a strip crossing pinched to zero width where the bracket vanishes
    # identically in theta is an infinitely degenerate eigenvalue, reported
    # as a flat or point interval instead of a continuous band
    if points:
        points, keep = np.concatenate(points), np.ones(len(runs), bool)
        for i in np.flatnonzero(runs[:, 1] - runs[:, 0] < 1e-10 * np.maximum(1.0, runs[:, 1])):
            keep[i] = not (np.abs(0.5 * (runs[i, 0] + runs[i, 1]) - points) < 1e-8 * np.maximum(1.0, points)).any()
        runs, labels = runs[keep], labels[keep]
    bound = 2 if spec.kind == "triangular" else 3
    if side == "negative" and len(runs) > bound:
        raise InternalConsistencyError(f"{spec.kind} negative scan found {len(runs)} bands, bound is {bound}")

    kinds = np.concatenate([np.zeros(len(runs), np.uint8)]
                           + [np.full(ks.size, 1 + (family == "degenerate_point"), np.uint8) for family, ks in families])
    # one stable sort by (k_lo, k_hi): continuous bands first at equal keys; flat bands have no edge label
    lo, hi = (np.concatenate([edges, *(ks for _, ks in families)]) for edges in runs.T)
    order = np.lexsort((hi, lo))
    labels = np.concatenate((labels, np.zeros((kinds.size - len(runs), 2), labels.dtype)))
    return BandStructure(spec=spec, side=side, scan_k_max=k_max, resolution=resolution, k_lo=lo[order], k_hi=hi[order],
                         kinds=kinds[order], edge_labels=labels[order])


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


def detect_gap_closings(spec: LatticeSpec, k_window: tuple, d_window: tuple,
                        side: str = "positive", grid_n: int = 48) -> list:
    """Parameter points where neighboring band edges touch.

    At the extremal quasimomenta the bracket's momentum- and period-
    derivatives are driven to a simultaneous zero (2d Newton from the center
    of each sign-change cell of a grid_n x grid_n grid, all starts solved in
    one batch); a candidate (k, d) is kept when the bracket itself vanishes
    there and ``in_band`` puts both k - h and k + h, h = 1e-6 max(1, k),
    inside the spectrum at period d.
    Returns (k, d, (theta1, theta2)) tuples, sorted by k, d and theta.
    """
    if not spec.is_kagome:
        raise GeometryError("gap-closing search is defined for kagome geometry")
    k_lo, k_hi = k_window
    d_lo, d_hi = d_window
    if not np.isfinite([k_lo, k_hi, d_lo, d_hi]).all():
        raise ValueError(f"window bounds must be finite, got {k_window} and {d_window}")
    if not (0.0 < k_lo < k_hi and spec.c < d_lo < d_hi):
        raise ValueError("windows must be nonempty and compatible with the geometry")
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if grid_n ** 2 > MAX_PROBES:
        raise ValueError(f"grid_n ** 2 = {grid_n ** 2:.3g} grid points, the limit is {MAX_PROBES:.0e}")

    f, g = _fg_arrays(*np.array(EXTREMAL_THETAS).T)

    def grad(v):
        """Momentum and period derivatives of the bracket l1 - l2 f - l3 g at
        v = (x, d, f, g), by complex steps in one kernel call."""
        x, d, f, g = v
        l1, l2, l3 = _lambdas(np.stack([x + 1j * _CSTEP, x]), side, spec.c, np.stack([d, d + 1j * _CSTEP]), spec.ell)
        return (l1 - l2 * f - l3 * g).imag / _CSTEP

    ks = np.linspace(k_lo, k_hi, grid_n)
    ds = np.linspace(d_lo, d_hi, grid_n)

    def cells(lo, hi):
        """(theta, i, j) rows of the sign-change cells i = lo .. hi - 1, from
        grid rows lo .. hi (a cell at a block seam needs both)."""
        kk, dd_grid = np.meshgrid(ks[lo:hi + 1], ds, indexing="ij")
        sk, sd = np.sign(grad((kk[None], dd_grid[None], f[:, None, None], g[:, None, None])))
        return np.argwhere(
            ((sk[:, :-1, :-1] != sk[:, 1:, :-1]) | (sk[:, :-1, :-1] != sk[:, :-1, 1:]))
            & ((sd[:, :-1, :-1] != sd[:, 1:, :-1]) | (sd[:, :-1, :-1] != sd[:, :-1, 1:]))
        ) + (0, lo, 0)

    # the sign grid in blocks of rows (bounded memory), then sorted theta outermost
    tij = np.concatenate(blocks.map_blocks(cells, grid_n - 1, grid_n))
    t, i, j = tij[np.lexsort(tij.T[::-1])].T
    # each start is its cell's center and carries its theta's (f, g)
    starts = np.column_stack([0.5 * (ks[i] + ks[i + 1]), 0.5 * (ds[j] + ds[j + 1]), f[t], g[t]])

    found = []
    for t_seed, sol in zip(t, root(grad, starts)):
        if sol is None:
            continue
        k_star, d_star = sol
        if not (k_lo - 1e-9 <= k_star <= k_hi + 1e-9 and d_lo - 1e-9 <= d_star <= d_hi + 1e-9):
            continue
        spec_star = LatticeSpec.kagome(spec.c, d_star, spec.ell)
        l1, l2, l3 = lambda_arrays(k_star, side, spec_star)
        scale = abs(l1) + 3.0 * abs(l2) + 1.5 * SQRT3 * abs(l3) + 1.0
        if abs(l1 - l2 * f[t_seed] - l3 * g[t_seed]) > 1e-6 * scale:
            continue
        # a touching has band on both sides of k_star
        h = 1e-6 * max(1.0, k_star)
        if k_star <= h or not (in_band(k_star - h, side, spec_star) and in_band(k_star + h, side, spec_star)):
            continue
        found.append((float(k_star), float(d_star), EXTREMAL_THETAS[t_seed]))

    # dedupe: closings found from several theta points or cells coincide.  The
    # sort key is rounded far above roundoff, so that closings at equal k keep
    # their order when k moves in its last bits.
    unique = []
    for cand in sorted(found, key=lambda c: (round(c[0], 9), round(c[1], 9), c[2])):
        if not any(abs(cand[0] - u[0]) < 1e-6 and abs(cand[1] - u[1]) < 1e-6 for u in unique):
            unique.append(cand)
    return unique
