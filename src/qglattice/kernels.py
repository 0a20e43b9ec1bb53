"""Scalar kernels of the quasimomentum-resolved spectral conditions.

Everything in this module is a pure closed-form evaluation: the lattice
geometry types, the quasimomentum weight functions ``f_theta``/``g_theta``,
the three kernels (l1, l2, l3) of the kagome spectral condition, computed
together by one function per side (trigonometric on the positive energy
side, hyperbolic on the negative), the reduced rational conditions for the
triangular lattice, and the leading high-energy expansion coefficients.

All kernel evaluators accept scalars or numpy arrays, and remain valid for
complex momentum arguments (the hyperbolic forms are the analytic
continuations of the trigonometric ones).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

#: Quasimomentum points that can carry the global extrema of
#: ``l2*f_theta + l3*g_theta`` over the torus: the zone center and the two
#: corners theta1 = -theta2 = +-2*pi/3.
EXTREMAL_THETAS = (
    (0.0, 0.0),
    (2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0),
    (-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0),
)


class GeometryError(ValueError):
    """Raised for lattice parameters outside the supported geometry."""


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and coupling scale of one periodic lattice.

    kind
        ``"kagome"`` (two distinct edge lengths ``c`` and ``d - c``),
        ``"equilateral_kagome"`` (``d = 2c``, David-star pattern) or
        ``"triangular"`` (single vertex of degree six, edge length ``d``;
        ``c`` is unused and stored as 0).
    c, d
        Kagome edge length and cell period, ``0 < c < d``.  ``b := d - c``.
    ell
        Length scale of the vertex coupling, ``ell > 0``.
    """

    kind: str
    c: float
    d: float
    ell: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c, self.d, self.ell))):
            raise GeometryError(f"lengths must be finite, got c={self.c}, d={self.d}, ell={self.ell}")
        if self.ell <= 0.0:
            raise GeometryError(f"coupling scale ell must be positive, got {self.ell}")
        if self.kind == "triangular":
            if self.d <= 0.0:
                raise GeometryError(f"triangular period d must be positive, got {self.d}")
        elif self.kind in ("kagome", "equilateral_kagome"):
            if not 0.0 < self.c < self.d:
                raise GeometryError(
                    f"kagome geometry requires 0 < c < d, got c={self.c}, d={self.d}; "
                    "degenerate c=0 or c=d is the triangular lattice"
                )
            if self.kind == "equilateral_kagome" and self.d != 2.0 * self.c:
                raise GeometryError(f"equilateral lattice requires d = 2c, got c={self.c}, d={self.d}")
            if self.kind == "kagome" and self.d == 2.0 * self.c:
                object.__setattr__(self, "kind", "equilateral_kagome")  # keep kind <-> geometry in sync
        else:
            raise GeometryError(f"unknown lattice kind {self.kind!r}")

    @classmethod
    def kagome(cls, c, d, ell=1.0):
        return cls("kagome", c, d, ell)

    @classmethod
    def equilateral(cls, c, ell=1.0):
        return cls("equilateral_kagome", c, 2.0 * c, ell)

    @classmethod
    def triangular(cls, d, ell=1.0):
        return cls("triangular", 0.0, d, ell)

    @property
    def b(self):
        """Second kagome edge length, d - c."""
        return self.d - self.c

    @property
    def is_kagome(self):
        return self.kind in ("kagome", "equilateral_kagome")


@dataclass(frozen=True)
class Quasimomentum:
    """Point (theta1, theta2) on the quasimomentum torus [-pi, pi)^2."""

    theta1: float
    theta2: float


@dataclass(frozen=True)
class KernelTriple:
    """Values (l1, l2, l3) of the three spectral kernels at one momentum."""

    l1: float
    l2: float
    l3: float
    side: str = "positive"


def f_theta(q: Quasimomentum):
    """Even quasimomentum weight, range [-3/2, 3]."""
    t1, t2 = q.theta1, q.theta2
    return math.cos(t1) + math.cos(t1 - t2) + math.cos(t2)


def g_theta(q: Quasimomentum):
    """Odd quasimomentum weight, range [-3*sqrt(3)/2, 3*sqrt(3)/2]."""
    t1, t2 = q.theta1, q.theta2
    return math.sin(t2) + math.sin(t1 - t2) - math.sin(t1)


def _fg_arrays(theta1, theta2):
    """Vectorized f_theta, g_theta for plain angle arrays."""
    f = np.cos(theta1) + np.cos(theta1 - theta2) + np.cos(theta2)
    g = np.sin(theta2) + np.sin(theta1 - theta2) - np.sin(theta1)
    return f, g


# --------------------------------------------------------------------------
# Kagome kernels, one function per side returning (l1, l2, l3).  Each
# computes x = (k ell)^2, (x -+ 1)^2 and the half-angle phases k(d - c)/2 and
# kc/2 once.  The positive-side forms are trigonometric; substituting
# k -> i*kappa turns them into the hyperbolic negative-side forms, which are
# coded independently so that the agreement can be tested.

def _kagome_pos(k, c, d, ell):
    x = (k * ell) ** 2
    xp1, xm1_sq = x + 1.0, (x - 1.0) ** 2
    half_b, half_c = k * (d - c) / 2.0, k * c / 2.0
    cos_d = np.cos(k * d)
    l1 = 2.0 * xp1 * (
        4.0 * xp1 ** 2
        * (np.cos(k * (c + d)) + np.cos(k * (c - 2.0 * d)) + 2.0 * cos_d + np.cos(2.0 * k * d))
        + (x * x + 14.0 * x + 1.0) * (2.0 * cos_d + 1.0) * np.cos(k * (2.0 * c - d))
        + (3.0 * x * x + 18.0 * x + 3.0)
        + (5.0 * x * x + 22.0 * x + 5.0) * (np.cos(k * (d - c)) + np.cos(k * c))
    )
    l2 = (
        8.0 * xp1 * xm1_sq
        * np.cos(half_b) * np.cos(half_c)
        * (np.cos(k * (2.0 * c - d) / 2.0) + 2.0 * np.cos(k * d / 2.0))
    )
    l3 = 16.0 * k * ell * xm1_sq * np.sin(half_b) * np.sin(half_c) * np.sin(k * (d - 2.0 * c) / 2.0)
    return l1, l2, l3


def _kagome_neg(kp, c, d, ell):
    x = (kp * ell) ** 2
    one_mx, xp1_sq = 1.0 - x, (x + 1.0) ** 2
    half_b, half_c = kp * (d - c) / 2.0, kp * c / 2.0
    cosh_d = np.cosh(kp * d)
    l1 = 2.0 * one_mx * (
        4.0 * (x - 1.0) ** 2
        * (np.cosh(kp * (c + d)) + np.cosh(kp * (c - 2.0 * d)) + 2.0 * cosh_d + np.cosh(2.0 * kp * d))
        + (x * x - 14.0 * x + 1.0) * (2.0 * cosh_d + 1.0) * np.cosh(kp * (2.0 * c - d))
        + (3.0 * x * x - 18.0 * x + 3.0)
        + (5.0 * x * x - 22.0 * x + 5.0) * (np.cosh(kp * (d - c)) + np.cosh(kp * c))
    )
    l2 = (
        8.0 * one_mx * xp1_sq
        * (np.cosh(kp * (2.0 * c - d) / 2.0) + 2.0 * np.cosh(kp * d / 2.0))
        * np.cosh(half_b) * np.cosh(half_c)
    )
    l3 = 16.0 * kp * ell * xp1_sq * np.sinh(half_b) * np.sinh(half_c) * np.sinh(kp * (d - 2.0 * c) / 2.0)
    return l1, l2, l3


_KERNELS = {"positive": _kagome_pos, "negative": _kagome_neg}


def _require_side(side) -> None:
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")


def _lambdas(x, side, c, d, ell):
    """Kernel values (l1, l2, l3) at momentum x and cell period d; x and d may be complex."""
    _require_side(side)
    return _KERNELS[side](x, c, d, ell)


def lambda_arrays(x, side, spec: LatticeSpec):
    """Kernel values (l1, l2, l3) for scalar or array momentum ``x``."""
    if not spec.is_kagome:
        raise GeometryError("kagome kernels are undefined for the triangular lattice")
    return _lambdas(x, side, spec.c, spec.d, spec.ell)


def lambda_pos(k, spec: LatticeSpec) -> KernelTriple:
    """Positive-side kernel triple at momentum k > 0."""
    l1, l2, l3 = lambda_arrays(k, "positive", spec)
    return KernelTriple(l1, l2, l3, side="positive")


def lambda_neg(kappa, spec: LatticeSpec) -> KernelTriple:
    """Negative-side (hyperbolic) kernel triple at kappa > 0, energy -kappa^2."""
    l1, l2, l3 = lambda_arrays(kappa, "negative", spec)
    return KernelTriple(l1, l2, l3, side="negative")


def bracket(x, side, theta: Quasimomentum, spec: LatticeSpec):
    """Spectral bracket l1 - l2*f_theta - l3*g_theta.

    Its zero set over the quasimomentum torus is the continuous spectrum at
    momentum ``x`` (energy x^2 on the positive side, -x^2 on the negative).
    """
    l1, l2, l3 = lambda_arrays(x, side, spec)
    return l1 - l2 * f_theta(theta) - l3 * g_theta(theta)


# --------------------------------------------------------------------------
# Triangular lattice: the condition is scalar in f_theta.  ``tri_bracket``
# is the raw quadratic-free form; G and G-tilde are the rational reductions
# f_theta = G(k) valid away from the singular denominators.

#: Sentinel guard for the rational forms; below this the caller must fall
#: back to the raw bracket.
G_DENOMINATOR_EPS = 1.0e-8


def tri_bracket_pos(k, f, spec: LatticeSpec):
    """Raw triangular positive-side bracket at momentum k and weight f."""
    a, c = tri_bracket_parts_pos(k, spec)
    return a - c * f


def tri_bracket_neg(kp, f, spec: LatticeSpec):
    """Raw triangular negative-side bracket at kappa and weight f."""
    a, c = tri_bracket_parts_neg(kp, spec)
    return a - c * f


def tri_bracket_parts_pos(k, spec: LatticeSpec):
    """Parts (A, C) of the positive-side bracket A - C f, for evaluating several f at once."""
    d, ell = spec.d, spec.ell
    x = (k * ell) ** 2
    a = (
        3.0 * (x * x + 6.0 * x + 1.0)
        + (3.0 * x * x + 10.0 * x + 3.0) * (2.0 * np.cos(k * d) + np.cos(2.0 * k * d))
    )
    return a, 4.0 * (x - 1.0) ** 2 * np.cos(k * d / 2.0) ** 2


def tri_bracket_parts_neg(kp, spec: LatticeSpec):
    """Parts (A, C) of the negative-side bracket A - C f."""
    d, ell = spec.d, spec.ell
    x = (kp * ell) ** 2
    a = (
        3.0 * (x * x - 6.0 * x + 1.0)
        + (3.0 * x * x - 10.0 * x + 3.0) * (2.0 * np.cosh(kp * d) + np.cosh(2.0 * kp * d))
    )
    return a, 4.0 * (x + 1.0) ** 2 * np.cosh(kp * d / 2.0) ** 2


# --------------------------------------------------------------------------
# Curvature bound of the positive-side extremal brackets.  _kernel_terms
# lists each kernel above as the terms it is computed from, P(k) times a
# product of n cosines or sines of w_i k.  Such a product is the mean, over
# the 2^n sign choices, of a signed cosine or sine of (sum +-w_i) k, and the
# cross terms w_i w_j cancel in the mean of (sum +-w_i)^2.  So with
# W2 = sum w_i^2 the product's first derivative is at most sqrt(W2) and its
# second at most W2 in modulus, and with |P| the polynomial of P's
# coefficient moduli a term's second derivative is at most
# |P|'' + 2 sqrt(W2) |P|' + W2 |P| for k >= 0: a polynomial with nonnegative
# coefficients, which is nondecreasing in k.

def _kernel_terms(spec: LatticeSpec):
    """Positive-side kernels as lists of terms (P, w), each the product
    P(k) prod_i trig(w_i k) that _kagome_pos or tri_bracket_parts_pos
    computes, with trig the cosine but for l3's sines, and P's signed
    coefficients ascending in k (8 of them; the degree is 6 at most).  Also
    the weights of the three extremal brackets: bracket j is
    sum_i weights[j][i] kernels[i]."""
    c, d, ell = spec.c, spec.d, spec.ell
    b = d - c

    def poly(*factors):  # product of polynomials ascending in x = (k ell)^2
        p_x = functools.reduce(np.convolve, factors, (1.0,))
        p = np.zeros(8)
        p[:2 * p_x.size:2] = p_x * ell ** (2.0 * np.arange(p_x.size))
        return p

    xp1, xm1_sq = (1.0, 1.0), (1.0, -2.0, 1.0)
    if spec.kind == "triangular":
        a = poly((3.0, 10.0, 3.0))
        return (([(poly((3.0, 18.0, 3.0)), ()), (2.0 * a, (d,)), (a, (2.0 * d,))],
                 [(poly((4.0,), xm1_sq), (d / 2.0, d / 2.0))]),
                ((1.0, -3.0), (1.0, 1.5), (1.0, 1.5)))
    xp1_cube, xp1_14, xp1_22 = poly(xp1, xp1, xp1), poly(xp1, (1.0, 14.0, 1.0)), poly(xp1, (5.0, 22.0, 5.0))
    l1 = [(8.0 * xp1_cube, (c + d,)), (8.0 * xp1_cube, (c - 2.0 * d,)), (8.0 * xp1_cube, (2.0 * d,)),
          (16.0 * xp1_cube, (d,)), (4.0 * xp1_14, (d, 2.0 * c - d)), (2.0 * xp1_14, (2.0 * c - d,)),
          (2.0 * poly(xp1, (3.0, 18.0, 3.0)), ()), (2.0 * xp1_22, (b,)), (2.0 * xp1_22, (c,))]
    l2 = [(8.0 * poly(xp1, xm1_sq), (b / 2.0, c / 2.0, (2.0 * c - d) / 2.0)),
          (16.0 * poly(xp1, xm1_sq), (b / 2.0, c / 2.0, d / 2.0))]
    l3 = [(16.0 * ell * np.roll(poly(xm1_sq), 1), (b / 2.0, c / 2.0, (d - 2.0 * c) / 2.0))]  # times k
    r = 1.5 * SQRT3
    return (l1, l2, l3), ((1.0, -3.0, 0.0), (1.0, 1.5, r), (1.0, 1.5, -r))


@functools.lru_cache(maxsize=32)
def _curvature_coefficients(spec: LatticeSpec):
    """Descending coefficients of the majorants M0, M+, M-, S0, S+, S-, one
    row each, padded with leading zeros to a common length (read-only)."""
    kernels, weights = _kernel_terms(spec)
    der = lambda p: np.append(p[1:] * np.arange(1, p.size), 0.0)
    w_max = max(sum(map(abs, w)) for terms in kernels for _, w in terms)
    curvature, values = [], []
    for terms in kernels:
        moduli = [(np.abs(p), sum(wi * wi for wi in w)) for p, w in terms]
        curvature.append(sum(der(der(a)) + 2.0 * math.sqrt(w2) * der(a) + w2 * a for a, w2 in moduli))
        values.append(sum(a for a, _ in moduli))
    rows = [sum(abs(wt) * m for wt, m in zip(row, curvature)) for row in weights]
    # times 1 + w_max k, which the degree leaves room for
    rows += [np.convolve(sum(abs(wt) * v for wt, v in zip(row, values)), (1.0, w_max))[:8] for row in weights]
    out = np.array(rows)[:, ::-1].copy()
    out.flags.writeable = False
    return out


def bracket_curvature_bound(x, side, spec: LatticeSpec):
    """Majorants of the three extremal brackets at momenta up to x, or None.

    Returns ((M0, M+, M-), (S0, S+, S-)) for the brackets l1 - 3 l2 and
    l1 + 1.5 (l2 +- sqrt(3) l3) (A - 3 C and A + 1.5 C, twice, for the
    triangular lattice), in the order of EXTREMAL_THETAS.  M_j bounds
    |B_j''| on all of [0, x].  S_j is the error scale: the sum of the |P| of
    the bracket's terms (_kernel_terms), weighted by the moduli of its
    weights, times 1 + w_max x, the growth of the rounding error of phases
    k w up to the largest sum of a term's frequencies, w_max; it bounds |B_j|
    too.  Both are polynomials in x with nonnegative coefficients, built once
    per spec.  The result is one array of shape
    (2, 3) + shape(x), evaluated by Horner's rule as np.polyval would (leading
    zero coefficients leave it unchanged).  The negative side has no bound
    (None).
    """
    _require_side(side)
    if side != "positive":
        return None
    x = np.asarray(x, dtype=float)
    coeffs = _curvature_coefficients(spec)
    y = np.zeros(coeffs.shape[:1] + x.shape)
    for column in coeffs.T:
        y = y * x + column.reshape(column.shape + (1,) * x.ndim)
    return y.reshape((2, 3) + x.shape)


def tri_G(k, spec: LatticeSpec):
    """Rational form of the triangular band condition, f_theta = G(k).

    Returns NaN when the denominator factors cos(kd/2) or (k^2 ell^2 - 1)
    are within ``G_DENOMINATOR_EPS`` of zero; callers must then use
    ``tri_bracket_pos`` directly.
    """
    d, ell = spec.d, spec.ell
    k = np.asarray(k, dtype=float)
    x = (k * ell) ** 2
    cos_half = np.cos(k * d / 2.0)
    bad = (np.abs(cos_half) <= G_DENOMINATOR_EPS) | (np.abs(x - 1.0) <= G_DENOMINATOR_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (
            2.0 * x / cos_half ** 2 + (3.0 * x * x + 10.0 * x + 3.0) * np.cos(k * d)
        ) / (x - 1.0) ** 2
        val = np.where(bad, np.nan, val)
    return val[()] if val.ndim == 0 else val


def tri_G_tilde(kappa, spec: LatticeSpec):
    """Negative-side analogue of ``tri_G``; globally regular for kappa > 0."""
    d, ell = spec.d, spec.ell
    kappa = np.asarray(kappa, dtype=float)
    x = (kappa * ell) ** 2
    sech_half = 1.0 / np.cosh(kappa * d / 2.0)
    return (
        ((3.0 * x * x - 10.0 * x + 3.0) * np.cosh(kappa * d) - 2.0 * x * sech_half ** 2)
        / (x + 1.0) ** 2
    )[()]


def kagome_equilateral_F(kappa, spec: LatticeSpec):
    """Negative-side band condition f_theta = F(kappa) of the equilateral lattice."""
    if spec.kind != "equilateral_kagome":
        raise GeometryError("F(kappa) is defined for the equilateral lattice only")
    c, ell = spec.c, spec.ell
    kappa = np.asarray(kappa, dtype=float)
    x = (kappa * ell) ** 2
    num = (x - 1.0) ** 2 * (2.0 * np.cosh(2.0 * kappa * c) + 2.0 * np.cosh(3.0 * kappa * c) + 1.0) \
        + (x * x - 14.0 * x + 1.0) * np.cosh(kappa * c)
    den = (x + 1.0) ** 2 * (np.cosh(kappa * c) + 1.0)
    return (num / den)[()]


def xi(k, c):
    """Periodic high-energy band indicator cos(kc) - cos(2kc) of the equilateral lattice.

    Large momenta belong to the wide bands exactly when 0 <= xi <= 9/8
    (up to a relative O(1/k) error); the maximum over a period is 9/8.
    """
    return np.cos(k * c) - np.cos(2.0 * k * c)


def asymptotic_coefficients(k, theta: Quasimomentum, spec: LatticeSpec, which: str):
    """Leading high-energy expansion coefficients of the spectral conditions.

    which = "alpha"  -> scalar leading coefficient of the general kagome
                        condition written as alpha(k) * k^6 + O(k^5).
    which = "beta"   -> pair (beta1, beta2) of the equilateral expansion
                        beta1(k) + beta2(k)/k^2 = O(k^-4).
    which = "gamma"  -> pair (gamma1, gamma2) of the triangular expansion.
    """
    f = f_theta(theta)
    c, d, ell = spec.c, spec.d, spec.ell
    if which == "alpha":
        return 4.0 * (np.cos(k * (2.0 * c - d) / 2.0) + 2.0 * np.cos(k * d / 2.0)) * (
            (2.0 * np.cos(k * (c - d)) + 4.0 * np.cos(k * d) - 1.0) * np.cos(k * d / 2.0)
            + np.cos(k * (2.0 * c + d) / 2.0)
            - 2.0 * f * np.cos(k * c / 2.0) * np.cos(k * (c - d) / 2.0)
        )
    if which == "beta":
        beta1 = -2.0 * ell ** 4 * np.cos(k * c / 2.0) ** 2 * (
            4.0 * np.cos(k * c) - 4.0 * np.cos(2.0 * k * c) + f - 3.0
        )
        beta2 = 2.0 * ell ** 2 * (
            (np.cos(k * c) + 1.0) * f
            + 7.0 * np.cos(k * c) + 2.0 * np.cos(2.0 * k * c) + 2.0 * np.cos(3.0 * k * c) + 1.0
        )
        return beta1, beta2
    if which == "gamma":
        gamma1 = 4.0 * ell ** 4 * np.cos(k * d / 2.0) ** 2 * (3.0 * np.cos(k * d) - f)
        gamma2 = 2.0 * ell ** 2 * (
            10.0 * np.cos(k * d) + 5.0 * np.cos(2.0 * k * d) + 9.0 + 2.0 * (np.cos(k * d) + 1.0) * f
        )
        return gamma1, gamma2
    raise ValueError(f"which must be 'alpha', 'beta' or 'gamma', got {which!r}")
