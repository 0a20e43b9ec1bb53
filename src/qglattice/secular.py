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

Degree in the boundary phases
-----------------------------
The matrix depends on the quasimomentum only through the three boundary
phase factors p1 = e^(i theta1), p2 = e^(i theta2), p3 = e^(i (theta2 - theta1)):
M = M0 + sum_i p_i T_i, and each p_i enters at most two rows (kagome: p1
rows 8 and 11, p2 rows 0 and 3, p3 rows 0 and 1; triangular: p1 rows 4
and 5, p2 rows 0 and 5, p3 rows 0 and 1).  Expanding the determinant along
its rows, it is a polynomial of degree at most 2 in each p_i, so its
Fourier support lies in theta1-orders -2..2 and theta2-orders 0..4.  A
5 x 5 discrete Fourier transform over theta = 2 pi m / 5 therefore recovers
every coefficient exactly from 25 determinants.  The argument uses the
matrix alone, not the kernel formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import InternalConsistencyError
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


def _entry_table(funs, rows) -> tuple:
    """Where `_assemble` places each entry of the vertex-condition rows `rows`.

    `funs` maps an edge function to its (plus column, minus column, boundary
    phase index or None); each row of `rows` is ((f, point, sf), (g, point, sg)).
    A term's values depend only on its (phase index, point) pair, not on the
    edge function.  Returns the matrix size, the distinct pairs, and the
    row, column and position in the stack [val + der, val - der] of each
    entry, with the entries of first terms before those of second terms
    (which are negated), and the number of first-term entries.
    """
    pairs = {}
    placed = ([], [])  # first terms, second terms: (row, column, val - der?, value column)
    for r, terms in enumerate(rows):
        for first, (name, point, sder) in zip((True, False), terms):
            plus, minus, phase = funs[name]
            j = pairs.setdefault((phase, point), len(pairs))
            for half, col in enumerate((plus, minus)):
                placed[not first].append((r, col, (sder > 0) != first, 2 * j + half))
    r, col, minus_der, k = (np.array(a) for a in zip(*placed[0], *placed[1]))
    return len(rows), tuple(pairs), r, col, minus_der * 2 * len(pairs) + k, len(placed[0])


def _assemble(table, z, phases, boundary, waves, ell):
    """Vertex-condition rows val(f) - val(g) + i ell (sf f' + sg g'), broadcast
    over arrays of z and of the phase factors; returns shape (..., dim, dim).

    A phased function carries the boundary shift e^(-+ i z boundary), and
    `waves[point]` holds the plane waves (e^(i z x), e^(-i z x)) there.  The
    values and i ell derivatives of each distinct (phase, point) pair are
    computed once, as array math on the stacked pairs for an array z and
    column by column otherwise (numpy's scalar and array complex products
    can differ in the last bit).  One stacked +-val +- der, the signs outside
    the rounded sums, then places every entry exactly as if it were computed
    on its own.
    """
    dim, pairs, rows, cols, source, n_first = table
    iz = 1j * z
    il = 1j * ell
    shifts = (np.exp(-1j * z * boundary), np.exp(1j * z * boundary))
    shape = np.broadcast(z, *phases).shape
    factors, planes = [], []  # per value column: boundary shift, plane wave
    for phase, point in pairs:
        factors += (1.0, 1.0) if phase is None else (phases[phase] * shifts[0], phases[phase] * shifts[1])
        planes += waves[point]
    if np.ndim(z):  # array math on the stacked columns
        factors, planes = _stack(shape, factors), _stack(np.shape(z), planes)
        vals = factors * planes
        ders = il * (iz[..., None] * factors * planes)
    else:  # column by column, so that products of scalars stay scalar math
        vals = _stack(shape, [f * w for f, w in zip(factors, planes)])
        ders = _stack(shape, [il * (iz * f * w) for f, w in zip(factors, planes)])
    np.negative(ders[..., 1::2], out=ders[..., 1::2])  # e^(-i z x) has derivative -i z e^(-i z x)
    entries = np.concatenate((vals + ders, vals - ders), axis=-1)[..., source]
    np.negative(entries[..., n_first:], out=entries[..., n_first:])
    out = np.zeros(shape + (dim, dim), complex)
    out[..., rows, cols] = entries
    return out


def _stack(shape, columns) -> np.ndarray:
    """Complex array of `shape` plus a last axis holding the broadcast `columns`."""
    out = np.empty(shape + (len(columns),), complex)
    for k, column in enumerate(columns):
        out[..., k] = column
    return out


# kagome edge function -> (plus column, minus column, boundary phase index)
_KAGOME_FUNS = {
    "psi1": (4, 5, 1), "psi2": (10, 11, 2), "psi3": (0, 1, None), "psi4": (2, 3, None),
    "phi1": (4, 5, None), "phi2": (8, 9, None), "phi3": (0, 1, None), "phi4": (6, 7, None),
    "chi1": (6, 7, 0), "chi2": (2, 3, None), "chi3": (8, 9, None), "chi4": (10, 11, None),
}

# the twelve kagome vertex conditions; points are in units of h = (d - c) / 2
_KAGOME_ROWS = (
    (("psi2", 0, 1.0), ("psi1", 0, 1.0)),
    (("psi3", 1, -1.0), ("psi2", 0, 1.0)),
    (("psi4", 1, -1.0), ("psi3", 1, -1.0)),
    (("psi1", 0, 1.0), ("psi4", 1, -1.0)),
    (("phi2", -1, 1.0), ("phi1", 0, -1.0)),
    (("phi3", -1, 1.0), ("phi2", -1, 1.0)),
    (("phi4", 0, -1.0), ("phi3", -1, 1.0)),
    (("phi1", 0, -1.0), ("phi4", 0, -1.0)),
    (("chi2", -1, 1.0), ("chi1", 0, 1.0)),
    (("chi3", 1, -1.0), ("chi2", -1, 1.0)),
    (("chi4", 0, -1.0), ("chi3", 1, -1.0)),
    (("chi1", 0, 1.0), ("chi4", 0, -1.0)),
)
_KAGOME_TABLE = _entry_table(_KAGOME_FUNS, _KAGOME_ROWS)


def _kagome_rows(z, p1, p2, p3, c, d, ell):
    """12 x 12 system for phase factors p1 = e^{i t1}, p2 = e^{i t2}, p3 = e^{i(t2-t1)},
    broadcast over arrays of z and of the phase factors."""
    h = (d - c) / 2.0
    iz, miz = 1j * z, -1j * z
    waves = {m: (np.exp(iz * (m * h)), np.exp(miz * (m * h))) for m in (0, 1, -1)}
    return _assemble(_KAGOME_TABLE, z, (p1, p2, p3), c, waves, ell)


# triangular edge end -> (plus column, minus column, boundary phase index);
# columns C1+, C1-, C4+, C4-, D4+, D4-
_TRI_FUNS = {
    "psi1": (0, 1, 1), "psi2": (4, 5, 2), "chi1": (2, 3, 0),
    "phi1": (0, 1, None), "phi4": (2, 3, None), "chi4": (4, 5, None),
}

# Cyclic order of the six edge ends around the degree-6 vertex obtained by
# contracting the three short kagome edges, each with its outward sign;
# verified against the closed-form triangular bracket.
_TRI_ORDER = (("psi1", 1.0), ("psi2", 1.0), ("phi4", -1.0), ("phi1", -1.0), ("chi4", -1.0), ("chi1", 1.0))
_TRI_ROWS = tuple(((nxt, 0, snxt), (a, 0, sa))
                  for (a, sa), (nxt, snxt) in zip(_TRI_ORDER, _TRI_ORDER[1:] + _TRI_ORDER[:1]))
_TRI_TABLE = _entry_table(_TRI_FUNS, _TRI_ROWS)


def _triangular_rows(z, p1, p2, p3, d, ell):
    """6 x 6 system, broadcast like `_kagome_rows`; every end sits at the vertex."""
    return _assemble(_TRI_TABLE, z, (p1, p2, p3), d, {0: (1.0, 1.0)}, ell)


def _phases(t1, t2):
    """Boundary phase factors p1, p2, p3 at quasimomentum angles (or arrays of them)."""
    return np.exp(1j * t1), np.exp(1j * t2), np.exp(1j * (t2 - t1))


def kagome_secular_matrix(z, theta: Quasimomentum, spec: LatticeSpec) -> SecularSystem:
    """Assemble the 12 x 12 kagome system at complex momentum z != 0."""
    if not spec.is_kagome:
        raise GeometryError("degenerate geometry: use the triangular secular system")
    if z == 0 or not np.isfinite(z):
        raise ValueError(f"secular system requires a finite z != 0, got {z}")
    p1, p2, p3 = _phases(theta.theta1, theta.theta2)
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
    p1, p2, p3 = _phases(theta.theta1, theta.theta2)
    rows = _triangular_rows(complex(z), p1, p2, p3, spec.d, spec.ell)
    return SecularSystem(6, rows, complex(z), theta, spec)


def triangular_secular_det(z, theta: Quasimomentum, spec: LatticeSpec) -> complex:
    """Conventionally normalized 6 x 6 determinant."""
    return triangular_secular_matrix(z, theta, spec).determinant()


def _bracket_prefactor(z, theta2, spec: LatticeSpec):
    """Every known nonvanishing factor of the raw determinant besides the bracket,
    including the sine factors (see module docstring); z and theta2 may be arrays."""
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


def _matrices(z, phases, spec: LatticeSpec) -> np.ndarray:
    """Secular matrices, broadcast over arrays of z and of the phase factors p1, p2, p3."""
    if spec.is_kagome:
        return _kagome_rows(z, *phases, spec.c, spec.d, spec.ell)
    return _triangular_rows(z, *phases, spec.d, spec.ell)


#: Fourier orders of the bracket series and the five sample angles 2 pi m / 5.
_ORDERS = np.arange(-2, 3)
_NODES = 2.0 * np.pi * np.arange(5) / 5.0
#: Phase factors p1, p2, p3 on the 5 x 5 node grid.
_NODE_PHASES = _phases(_NODES[:, None], _NODES[None, :])
#: DFT over the theta1 nodes, and (transposed) over the theta2 nodes shifted
#: by -2 against the prefactor's e^(2 i theta2).
_DFT = np.exp(-1j * np.outer(_ORDERS, _NODES)) / 5.0
_DFT_SHIFTED = (_DFT * np.exp(-2j * _NODES)).T
#: e^(i m theta) at the three EXTREMAL_THETAS: [e, 0] for theta1, [e, 1] for theta2.
_EXTREMAL = np.exp(1j * np.multiply.outer(np.array(EXTREMAL_THETAS), _ORDERS))
#: e^(i m t) on the oracle's 64-point grid t in [-pi, pi), one row per t.
_THETA_GRID = np.exp(1j * np.outer(np.linspace(-np.pi, np.pi, 64, endpoint=False), _ORDERS))
for _const in (*_NODE_PHASES, _DFT, _DFT_SHIFTED, _EXTREMAL, _THETA_GRID):
    _const.flags.writeable = False


def _bracket_coefficients(z, spec: LatticeSpec) -> np.ndarray:
    """Fourier coefficients of the bracket at each momentum of the 1-d array z.

    Entry [n, j + 2, k + 2] multiplies e^(i (j theta1 + k theta2)).  They come
    from a 5 x 5 DFT of 25 raw determinants (exact, see module docstring),
    divided by the theta-independent prefactor and shifted by -2 in theta2
    to cancel its e^(2 i theta2).  A non-finite determinant or coefficient
    (hyperbolic overflow on the negative side) raises InternalConsistencyError.
    """
    with np.errstate(all="ignore"):
        dets = np.linalg.det(_matrices(z[:, None, None], _NODE_PHASES, spec))
        prefactor = _bracket_prefactor(z, 0.0, spec)
        coeffs = _DFT @ dets @ _DFT_SHIFTED / prefactor[:, None, None]
    finite = np.isfinite(dets).all(axis=(1, 2)) & np.isfinite(coeffs).all(axis=(1, 2)) & np.isfinite(prefactor)
    if not finite.all():
        bad = z[np.flatnonzero(~finite)[0]]
        raise InternalConsistencyError(f"{spec.kind}: non-finite secular determinant at z = {bad:.9g}")
    return coeffs


def _bracket_scale(x, extremal, spec: LatticeSpec):
    """Magnitude scale of the bracket used for the vanishing tolerance.

    Taken from the bracket values at the three EXTREMAL_THETAS (the last
    axis of `extremal`; x may be an array): the bracket is l1 - l2 f - l3 g
    for kagome and A - C f for triangular, and f, g there are (3, 0) and
    (-3/2, +-3 sqrt(3)/2).
    """
    extremal = np.asarray(extremal)
    b0, bp, bm = extremal[..., 0], extremal[..., 1], extremal[..., 2]
    zmod = np.abs(x)
    if spec.is_kagome:
        l1 = (b0 + bp + bm) / 3.0
        l2 = (l1 - b0) / 3.0
        l3 = (bp - bm) / (3.0 * SQRT3)
        floor = ((zmod * spec.ell) ** 2 + 1.0) ** 3
        return np.maximum(np.maximum(abs(l1), 3.0 * abs(l2)), np.maximum(1.5 * (abs(l2) + SQRT3 * abs(l3)), floor))
    c = (bp - b0) / 4.5
    floor = ((zmod * spec.ell) ** 2 + 1.0) ** 2
    return np.maximum(np.maximum(abs(b0 + 3.0 * c), 3.0 * abs(c)), floor)


#: Relative tolerance declaring the reduced determinant to vanish.
VANISH_RTOL = 1.0e-9

#: Relative tolerance on a single sine prefactor; flat-band momenta are
#: never exactly representable, so exact zeros cannot be required.
SINE_ZERO_TOL = 1.0e-12

#: Momenta per chunk: 68 hold about 2^19 grid values plus matrix entries (bounds memory).
_CHUNK = 68


def oracle_in_spectrum_many(xs, spec: LatticeSpec, side: str = "positive") -> np.ndarray:
    """Brute-force spectral membership from the secular determinant, per momentum.

    A momentum is inside iff one of the sine prefactors vanishes (flat band
    or degenerate point), or over the quasimomentum grid the bracket (the
    determinant divided by its prefactor) changes sign (a continuous-band
    point) or nearly vanishes at some grid point (band edge).  The grid is
    a fixed 64 x 64 one plus the three EXTREMAL_THETAS, where the bracket
    attains its range boundary; without the corners a grid of any practical
    size misses the narrow sign-change region of momenta close to a band
    edge.  Their values also set the vanishing tolerance.  The bracket is
    evaluated from its exact Fourier series (25 determinants per momentum),
    _CHUNK momenta at a time, so memory stays bounded.  Returns a boolean
    array shaped like `xs`.
    """
    _require_side(side)
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    bad = ~((flat > 0.0) & (flat < math.inf))
    if bad.any():
        raise ValueError(f"momentum argument must be finite and positive, got {flat[bad][0]}")
    member = np.zeros(flat.shape, bool)  # negative side: no sine factors
    if side == "positive":
        lengths = (spec.c, spec.d, spec.d - spec.c) if spec.is_kagome else (spec.d,)
        # a vanishing sine factor is an infinitely degenerate eigenvalue;
        # testing per factor keeps the detection zone tight even where
        # several families coincide
        half = np.multiply.outer(flat, lengths) / 2.0
        member = (np.abs(np.sin(half)) <= SINE_ZERO_TOL * np.maximum(1.0, half)).any(axis=-1)
    todo = np.flatnonzero(~member)
    for start in range(0, todo.size, _CHUNK):
        idx = todo[start:start + _CHUNK]
        x = flat[idx]
        coeffs = _bracket_coefficients(x + 0j if side == "positive" else 1j * x, spec)
        partial = _THETA_GRID @ coeffs  # theta1-series summed on the grid rows
        corners = np.einsum("ej,njk,ek->ne", _EXTREMAL[:, 0], coeffs, _EXTREMAL[:, 1]).real
        vals = partial.real @ _THETA_GRID.real.T - partial.imag @ _THETA_GRID.imag.T
        vmin = np.minimum(vals.min(axis=(1, 2)), corners.min(axis=1))
        vmax = np.maximum(vals.max(axis=(1, 2)), corners.max(axis=1))
        # without a sign change the smallest |value| is |vmin| or |vmax|; its
        # vanishing is a band-edge graze or the theta-independent zero of a
        # point-degenerate band
        graze = np.minimum(np.abs(vmin), np.abs(vmax)) <= VANISH_RTOL * _bracket_scale(x, corners, spec)
        member[idx] = ((vmin <= 0.0) & (vmax >= 0.0)) | graze
    return member.reshape(xs.shape)


def oracle_in_spectrum(x, spec: LatticeSpec, side: str = "positive") -> bool:
    """`oracle_in_spectrum_many` at one momentum."""
    return bool(oracle_in_spectrum_many([x], spec, side)[0])
