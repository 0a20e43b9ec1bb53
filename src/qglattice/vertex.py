"""Circulant vertex coupling: unitary matrix, scattering matrix, star bound states.

The coupling at a degree-N vertex is parametrized by the N x N circulant
permutation matrix with ones on the first superdiagonal and in the opposite
corner.  It violates time reversal; its on-shell scattering matrix has a
parity-dependent high-energy limit (identity for odd N, a nontrivial mixing
matrix for even N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import MAX_PROBES


class InvalidDegreeError(ValueError):
    """Vertex degree below three is not a branching vertex."""


@dataclass(frozen=True)
class CirculantU:
    """The coupling matrix: cyclic shift permutation of the edge ends."""

    size: int
    entries: np.ndarray


@dataclass(frozen=True)
class ScatteringMatrix:
    """On-shell vertex scattering matrix S(k) with cached eta = (1-kl)/(1+kl)."""

    size: int
    k: float
    ell: float
    eta: float
    entries: np.ndarray


def build_circulant_u(n: int) -> CirculantU:
    """Cyclic-shift permutation matrix of size n >= 3."""
    if n < 3:
        raise InvalidDegreeError(f"vertex degree must be at least 3, got {n}")
    u = np.zeros((n, n))
    u[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return CirculantU(size=n, entries=u)


def scattering_matrix(n: int, ell: float, k: float) -> ScatteringMatrix:
    """On-shell scattering matrix of the circulant coupling.

    Entries are (1 - eta^2)/(1 - eta^N) * eta^((j-i-1) mod N) off the
    diagonal and -eta (1 - eta^(N-2))/(1 - eta^N) on it, with
    eta = (1 - k*ell)/(1 + k*ell).  For k > 0 we have |eta| < 1, so the
    expression is regular everywhere; at k = 1/ell (eta = 0) it reduces to
    the coupling matrix itself.  More than MAX_PROBES entries raise
    ValueError before any is allocated.
    """
    if n < 3:
        raise InvalidDegreeError(f"vertex degree must be at least 3, got {n}")
    if n ** 2 > MAX_PROBES:
        raise ValueError(f"n ** 2 = {n ** 2:.3g} matrix entries, the limit is {MAX_PROBES:.0e}")
    if not (0.0 < ell < np.inf and 0.0 < k < np.inf):
        raise ValueError(f"need finite ell > 0 and k > 0, got ell={ell}, k={k}")
    eta = (1.0 - k * ell) / (1.0 + k * ell)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    exponents = np.mod(j - i - 1, n)
    # 0**0 == 1 gives the coupling matrix exactly at eta == 0
    off = (1.0 - eta ** 2) / (1.0 - eta ** n) * np.power(eta, exponents)
    s = np.where(i == j, -eta * (1.0 - eta ** (n - 2)) / (1.0 - eta ** n), off)
    return ScatteringMatrix(size=n, k=k, ell=ell, eta=eta, entries=s.astype(complex))


def scattering_matrix_resolvent(n: int, ell: float, k: float) -> np.ndarray:
    """S(k) from the resolvent form (kl-1 + (kl+1)U) (kl+1 + (kl-1)U)^-1.

    Independent route used to cross-check the componentwise formula.
    """
    u = build_circulant_u(n).entries
    kl = k * ell
    eye = np.eye(n)
    return ((kl - 1.0) * eye + (kl + 1.0) * u) @ np.linalg.inv((kl + 1.0) * eye + (kl - 1.0) * u)


def high_energy_limit(n: int) -> np.ndarray:
    """k -> infinity (eta -> -1) limit of S(k): the identity for odd n; for
    even n, (n - 2)/n on the diagonal and (2/n) (-1)^((j-i-1) mod n) off it."""
    if n < 3:
        raise InvalidDegreeError(f"vertex degree must be at least 3, got {n}")
    if n % 2:
        return np.eye(n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.where(i == j, (n - 2) / n, (2.0 / n) * (-1.0) ** np.mod(j - i - 1, n))


def star_negative_eigenvalues(n: int, ell: float) -> list[float]:
    """Bound-state energies -tan(m pi / n)^2 / ell^2 of the infinite star, ascending.

    m runs over 1 .. (n-1)//2, which excludes the divergent m = n/2 value
    for even n.
    """
    if n < 3:
        raise InvalidDegreeError(f"vertex degree must be at least 3, got {n}")
    energies = [-(np.tan(m * np.pi / n) / ell) ** 2 for m in range(1, (n - 1) // 2 + 1)]
    return sorted(energies)
