"""Floquet secular systems assembled directly from the cell wave-function Ansatz.

This module is the independent oracle for the closed-form kernels: the
12 x 12 kagome system (and the reduced 6 x 6 triangular one) is built from
plane waves on the cell edges, the cell-boundary phase conditions, midpoint
smoothness and the circulant vertex conditions, with no reference to the
kernel expressions.  Its determinant vanishes exactly on the spectrum.
The membership oracle also takes its vanishing tolerance from its own
determinants (the bracket values at the extremal quasimomenta), so it
calls none of the kernels it checks.

Coefficient elimination
-----------------------
Midpoint smoothness makes three coefficient pairs equal; the three phase
conditions at the cell boundary express three more pairs through the kept
ones.  The remaining unknowns, in the fixed column order used throughout,
are

    B3+, B3-, B4+, B4-, C1+, C1-, C4+, C4-, D3+, D3-, D4+, D4-

and the twelve rows are the vertex conditions in their cyclic order, first
vertex (psi group), second (phi group), third (chi group).

Determinant convention
----------------------
With the ordering above the raw determinant satisfies

    det_raw = -1024 i e^(2 i theta2) z^3 ell^3 sin(zc/2) sin(zd/2) sin(z(d-c)/2) * Delta

where Delta is the kernel bracket.  The public determinant is rescaled by
-64 z^6 so that it carries the conventional prefactor 65536 i z^9 ell^3.
The triangular raw determinant is -32 z ell e^(2 i theta2) sin^2(zd/2) * B(z)
with B the raw triangular bracket; it is rescaled by -8 / ell^3, which
reproduces the known closed value 1024 i e^(2 i theta2) ell^-3 sinh^2(d/2 ell) (...)
at z = i / ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import EXTREMAL_THETAS, SQRT3, GeometryError, LatticeSpec, Quasimomentum, _require_side

# raw-to-conventional determinant rescale factors, calibrated once against
# the closed-form bracket (see module docstring)
_KAGOME_RESCALE_POWER = 6  # det_conventional = det_raw * (-64 z^6)


@dataclass(frozen=True)
class SecularSystem:
    """One assembled secular matrix at fixed momentum and quasimomentum."""

    dimension: int
    matrix: np.ndarray
    momentum: complex
    theta: Quasimomentum
    spec: LatticeSpec

    def determinant(self) -> complex:
        """Determinant in the conventional normalization (see module docstring)."""
        return self.conventional(np.linalg.det(self.matrix))

    def conventional(self, raw: complex) -> complex:
        """Rescale a raw determinant of this matrix to the conventional normalization."""
        z = self.momentum
        if self.dimension == 12:
            return raw * (-64.0 * z ** _KAGOME_RESCALE_POWER)
        return raw * (-8.0 / self.spec.ell ** 3)


def _kagome_rows(z, p1, p2, p3, c, d, ell):
    """12 x 12 system rows for given phase factors p1 = e^{i t1}, p2 = e^{i t2}, p3 = e^{i(t2-t1)}.

    Linear in each phase factor, which batched evaluation exploits.
    """
    b = d - c
    ec_m = np.exp(-1j * z * c)
    ec_p = np.exp(1j * z * c)
    # function -> (plus column, minus column, plus scale, minus scale)
    funs = {
        "psi1": (4, 5, p2 * ec_m, p2 * ec_p),
        "psi2": (10, 11, p3 * ec_m, p3 * ec_p),
        "psi3": (0, 1, 1.0, 1.0),
        "psi4": (2, 3, 1.0, 1.0),
        "phi1": (4, 5, 1.0, 1.0),
        "phi2": (8, 9, 1.0, 1.0),
        "phi3": (0, 1, 1.0, 1.0),
        "phi4": (6, 7, 1.0, 1.0),
        "chi1": (6, 7, p1 * ec_m, p1 * ec_p),
        "chi2": (2, 3, 1.0, 1.0),
        "chi3": (8, 9, 1.0, 1.0),
        "chi4": (10, 11, 1.0, 1.0),
    }

    def val(f, x):
        p, m, sp, sm = funs[f]
        v = np.zeros(12, complex)
        v[p] += sp * np.exp(1j * z * x)
        v[m] += sm * np.exp(-1j * z * x)
        return v

    def der(f, x):
        p, m, sp, sm = funs[f]
        v = np.zeros(12, complex)
        v[p] += 1j * z * sp * np.exp(1j * z * x)
        v[m] -= 1j * z * sm * np.exp(-1j * z * x)
        return v

    il = 1j * ell
    h = b / 2.0
    return np.array([
        val("psi2", 0) - val("psi1", 0) + il * (der("psi2", 0) + der("psi1", 0)),
        val("psi3", h) - val("psi2", 0) + il * (-der("psi3", h) + der("psi2", 0)),
        val("psi4", h) - val("psi3", h) - il * (der("psi4", h) + der("psi3", h)),
        val("psi1", 0) - val("psi4", h) + il * (der("psi1", 0) - der("psi4", h)),
        val("phi2", -h) - val("phi1", 0) + il * (der("phi2", -h) - der("phi1", 0)),
        val("phi3", -h) - val("phi2", -h) + il * (der("phi3", -h) + der("phi2", -h)),
        val("phi4", 0) - val("phi3", -h) + il * (-der("phi4", 0) + der("phi3", -h)),
        val("phi1", 0) - val("phi4", 0) - il * (der("phi1", 0) + der("phi4", 0)),
        val("chi2", -h) - val("chi1", 0) + il * (der("chi2", -h) + der("chi1", 0)),
        val("chi3", h) - val("chi2", -h) + il * (-der("chi3", h) + der("chi2", -h)),
        val("chi4", 0) - val("chi3", h) - il * (der("chi4", 0) + der("chi3", h)),
        val("chi1", 0) - val("chi4", 0) + il * (der("chi1", 0) - der("chi4", 0)),
    ])


# Cyclic order of the six edge ends around the degree-6 vertex obtained by
# contracting the three short kagome edges; verified against the closed-form
# triangular bracket.
_TRI_ORDER = ("psi1", "psi2", "phi4", "phi1", "chi4", "chi1")


def _triangular_rows(z, p1, p2, p3, d, ell):
    """6 x 6 system rows; columns C1+, C1-, C4+, C4-, D4+, D4-."""
    ed_m = np.exp(-1j * z * d)
    ed_p = np.exp(1j * z * d)
    # (plus column, minus column, plus scale, minus scale, outward sign)
    funs = {
        "psi1": (0, 1, p2 * ed_m, p2 * ed_p, 1.0),
        "psi2": (4, 5, p3 * ed_m, p3 * ed_p, 1.0),
        "chi1": (2, 3, p1 * ed_m, p1 * ed_p, 1.0),
        "phi1": (0, 1, 1.0, 1.0, -1.0),
        "phi4": (2, 3, 1.0, 1.0, -1.0),
        "chi4": (4, 5, 1.0, 1.0, -1.0),
    }

    def val(f):
        p, m, sp, sm, _ = funs[f]
        v = np.zeros(6, complex)
        v[p] += sp
        v[m] += sm
        return v

    def dout(f):
        p, m, sp, sm, sgn = funs[f]
        v = np.zeros(6, complex)
        v[p] += sgn * 1j * z * sp
        v[m] -= sgn * 1j * z * sm
        return v

    il = 1j * ell
    rows = []
    for j in range(6):
        a, nxt = _TRI_ORDER[j], _TRI_ORDER[(j + 1) % 6]
        rows.append(val(nxt) - val(a) + il * (dout(nxt) + dout(a)))
    return np.array(rows)


def _phases(theta: Quasimomentum):
    t1, t2 = theta.theta1, theta.theta2
    return np.exp(1j * t1), np.exp(1j * t2), np.exp(1j * (t2 - t1))


def kagome_secular_matrix(z, theta: Quasimomentum, spec: LatticeSpec) -> SecularSystem:
    """Assemble the 12 x 12 kagome system at complex momentum z != 0."""
    if not spec.is_kagome:
        raise GeometryError("degenerate geometry: use the triangular secular system")
    if z == 0 or not np.isfinite(z):
        raise ValueError(f"secular system requires a finite z != 0, got {z}")
    p1, p2, p3 = _phases(theta)
    rows = _kagome_rows(complex(z), p1, p2, p3, spec.c, spec.d, spec.ell)
    return SecularSystem(12, rows, complex(z), theta, spec)


def kagome_secular_det(z, theta: Quasimomentum, spec: LatticeSpec) -> complex:
    """Conventionally normalized 12 x 12 determinant."""
    return kagome_secular_matrix(z, theta, spec).determinant()


def triangular_secular_matrix(z, theta: Quasimomentum, spec: LatticeSpec) -> SecularSystem:
    """Assemble the reduced 6 x 6 triangular system at complex momentum z != 0."""
    if spec.kind != "triangular":
        raise GeometryError("triangular secular system requires a triangular spec")
    if z == 0 or not np.isfinite(z):
        raise ValueError(f"secular system requires a finite z != 0, got {z}")
    p1, p2, p3 = _phases(theta)
    rows = _triangular_rows(complex(z), p1, p2, p3, spec.d, spec.ell)
    return SecularSystem(6, rows, complex(z), theta, spec)


def triangular_secular_det(z, theta: Quasimomentum, spec: LatticeSpec) -> complex:
    """Conventionally normalized 6 x 6 determinant."""
    return triangular_secular_matrix(z, theta, spec).determinant()


def _bracket_prefactor(z, theta2, spec: LatticeSpec):
    """Every known nonvanishing factor of the raw determinant besides the bracket,
    including the sine factors (see module docstring); theta2 may be an array."""
    if spec.is_kagome:
        c, d, ell = spec.c, spec.d, spec.ell
        sines = np.sin(z * c / 2.0) * np.sin(z * d / 2.0) * np.sin(z * (d - c) / 2.0)
        return -1024.0j * np.exp(2j * theta2) * z ** 3 * ell ** 3 * sines
    return -32.0 * z * spec.ell * np.exp(2j * theta2) * np.sin(z * spec.d / 2.0) ** 2


def normalized_bracket(z, theta: Quasimomentum, spec: LatticeSpec) -> complex:
    """Oracle reconstruction of the kernel bracket from the raw determinant.

    Divides the determinant by every known nonvanishing prefactor including
    the three sine factors; only meaningful away from the sine zeros.
    """
    matrix = kagome_secular_matrix if spec.is_kagome else triangular_secular_matrix
    return np.linalg.det(matrix(z, theta, spec).matrix) / _bracket_prefactor(z, theta.theta2, spec)


def _phase_decomposition(z, spec: LatticeSpec):
    """Theta-independent matrix and sparse phase terms of the secular system.

    The matrix depends on theta only through the three boundary phase
    factors, each entering linearly in a handful of entries:
    M(theta) = M0 + sum_i p_i(theta) * (sparse term i).
    """
    z = complex(z)
    if spec.is_kagome:
        args = (spec.c, spec.d, spec.ell)
        rows = _kagome_rows
    else:
        args = (spec.d, spec.ell)
        rows = _triangular_rows
    m0 = rows(z, 0.0, 0.0, 0.0, *args)
    terms = []
    for idx, phases in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))):
        diff = rows(z, *phases, *args) - m0
        for r, c in np.argwhere(diff != 0.0):
            terms.append((idx, int(r), int(c), diff[r, c]))
    return m0, terms


def _assembled_dets(decomposition, theta1_flat, theta2_flat) -> np.ndarray:
    """Raw determinants of a phase decomposition over flattened quasimomenta."""
    m0, terms = decomposition
    phases = (
        np.exp(1j * theta1_flat),
        np.exp(1j * theta2_flat),
        np.exp(1j * (theta2_flat - theta1_flat)),
    )
    mats = np.empty((theta1_flat.size,) + m0.shape, complex)
    mats[:] = m0
    for idx, r, c, val in terms:
        mats[:, r, c] += phases[idx] * val
    return np.linalg.det(mats)


def _det_grid(z, theta1_flat, theta2_flat, spec: LatticeSpec) -> np.ndarray:
    """Raw determinants over a flattened quasimomentum grid, batched."""
    return _assembled_dets(_phase_decomposition(z, spec), theta1_flat, theta2_flat)


def _bracket_scale(x, extremal, spec: LatticeSpec) -> float:
    """Magnitude scale of the bracket used for the vanishing tolerance.

    Taken from the bracket values at the three EXTREMAL_THETAS: the bracket
    is l1 - l2 f - l3 g for kagome and A - C f for triangular, and f, g
    there are (3, 0) and (-3/2, +-3 sqrt(3)/2).
    """
    b0, bp, bm = extremal
    zmod = abs(x)
    if spec.is_kagome:
        l1 = (b0 + bp + bm) / 3.0
        l2 = (l1 - b0) / 3.0
        l3 = (bp - bm) / (3.0 * SQRT3)
        floor = ((zmod * spec.ell) ** 2 + 1.0) ** 3
        return float(max(abs(l1), 3.0 * abs(l2), 1.5 * (abs(l2) + SQRT3 * abs(l3)), floor))
    c = (bp - b0) / 4.5
    floor = ((zmod * spec.ell) ** 2 + 1.0) ** 2
    return float(max(abs(b0 + 3.0 * c), 3.0 * abs(c), floor))


#: Relative tolerance declaring the reduced determinant to vanish.
VANISH_RTOL = 1.0e-9

#: Relative tolerance on a single sine prefactor; flat-band momenta are
#: never exactly representable, so exact zeros cannot be required.
SINE_ZERO_TOL = 1.0e-12


def oracle_in_spectrum(x, spec: LatticeSpec, theta_grid_n: int = 64, side: str = "positive") -> bool:
    """Brute-force spectral membership from the secular determinant.

    True iff one of the sine prefactors vanishes (flat band or degenerate
    point), or over the quasimomentum grid the bracket (the determinant
    divided by its prefactor) changes sign (a continuous-band point) or
    nearly vanishes at some grid point (band edge).  The n x n grid is
    augmented with the three EXTREMAL_THETAS, where the bracket attains its
    range boundary; without the corners a grid of any practical size misses
    the narrow sign-change region of momenta close to a band edge.  Their
    values also set the vanishing tolerance.  Evaluated in chunks so a sign
    change returns early.
    """
    _require_side(side)
    if theta_grid_n < 8:
        raise ValueError("theta_grid_n must be at least 8")
    if not 0.0 < x < math.inf:
        raise ValueError(f"momentum argument must be finite and positive, got {x}")
    if side == "positive":
        lengths = (spec.c, spec.d, spec.d - spec.c) if spec.is_kagome else (spec.d,)
        # a vanishing sine factor is an infinitely degenerate eigenvalue;
        # testing per factor keeps the detection zone tight even where
        # several families coincide
        if any(abs(np.sin(x * L / 2.0)) <= SINE_ZERO_TOL * max(1.0, x * L / 2.0) for L in lengths):
            return True
    t = np.linspace(-np.pi, np.pi, theta_grid_n, endpoint=False)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    extremal = np.array(EXTREMAL_THETAS)
    t1f = np.concatenate([extremal[:, 0], t1.ravel()])
    t2f = np.concatenate([extremal[:, 1], t2.ravel()])

    z = complex(x) if side == "positive" else 1j * x
    decomposition = _phase_decomposition(z, spec)
    vmin = math.inf
    vmax = -math.inf
    abs_min = math.inf
    chunk = 512
    for start in range(0, t1f.size, chunk):
        s1 = t1f[start:start + chunk]
        s2 = t2f[start:start + chunk]
        vals = (_assembled_dets(decomposition, s1, s2) / _bracket_prefactor(z, s2, spec)).real
        if start == 0:
            scale = _bracket_scale(x, vals[:3], spec)
        vmin = min(vmin, float(vals.min()))
        vmax = max(vmax, float(vals.max()))
        if vmin <= 0.0 <= vmax:
            return True
        abs_min = min(abs_min, float(np.abs(vals).min()))
    # bracket vanishes at a grid point (band edge graze, or the
    # theta-independent zero of a point-degenerate band)
    return bool(abs_min <= VANISH_RTOL * scale)
