"""Circulant coupling matrix, scattering matrix and star bound states."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglattice.vertex import (
    InvalidDegreeError,
    build_circulant_u,
    high_energy_limit,
    scattering_matrix,
    scattering_matrix_resolvent,
    star_negative_eigenvalues,
)


def test_circulant_rows_n3():
    u = build_circulant_u(3).entries
    assert np.array_equal(u, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))


def test_circulant_is_permutation_with_order_dividing_n():
    u = build_circulant_u(4).entries
    assert np.array_equal(np.linalg.matrix_power(u, 4), np.eye(4))
    assert np.allclose(u @ u.T, np.eye(4))


@pytest.mark.parametrize("n,has_minus_one", [(4, True), (5, False), (6, True), (7, False)])
def test_minus_one_eigenvalue_iff_even_degree(n, has_minus_one):
    w = np.linalg.eigvals(build_circulant_u(n).entries)
    assert (np.abs(w + 1.0).min() < 1e-12) == has_minus_one


def test_degree_below_three_rejected():
    with pytest.raises(InvalidDegreeError):
        build_circulant_u(2)
    with pytest.raises(InvalidDegreeError):
        scattering_matrix(2, 1.0, 1.0)


def test_oversized_scattering_matrix_fails_before_allocating():
    # 1e10 entries, 149 GiB as complex: refused before numpy is asked for them
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="matrix entries"):
            scattering_matrix(100_000, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_limit_and_star_reject_degree_below_three():
    with pytest.raises(InvalidDegreeError):
        high_energy_limit(2)
    with pytest.raises(InvalidDegreeError):
        star_negative_eigenvalues(2, 1.0)


@pytest.mark.parametrize("n", range(3, 13))
def test_scattering_at_inverse_ell_is_coupling_matrix(n):
    ell = 1.3
    s = scattering_matrix(n, ell, 1.0 / ell)
    assert s.eta == 0.0
    assert np.array_equal(s.entries.real, build_circulant_u(n).entries)
    assert np.all(s.entries.imag == 0.0)


def test_scattering_matches_resolvent_form():
    # independent route: direct matrix inversion of the defining fraction
    s = scattering_matrix(4, 1.0, 2.0).entries
    oracle = scattering_matrix_resolvent(4, 1.0, 2.0)
    assert np.abs(s - oracle).max() < 1e-12


def test_odd_degree_high_energy_transparency():
    s = scattering_matrix(5, 1.0, 1.0e6).entries
    assert np.abs(s - np.eye(5)).max() < 1e-5


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    log_kl=st.floats(min_value=-3.0, max_value=3.0),
)
def test_scattering_unitary(n, log_kl):
    s = scattering_matrix(n, 1.0, 10.0 ** log_kl).entries
    assert np.abs(s @ s.conj().T - np.eye(n)).max() < 1e-12


def test_high_energy_limit_degree_four():
    expected = 0.5 * np.array([
        [1, 1, -1, 1],
        [1, 1, 1, -1],
        [-1, 1, 1, 1],
        [1, -1, 1, 1],
    ], dtype=float)
    assert np.array_equal(high_energy_limit(4), expected)
    numeric = scattering_matrix(4, 1.0, 1.0e8).entries.real
    assert np.abs(numeric - expected).max() < 1e-5


def test_high_energy_limit_degree_six():
    pattern = np.array([
        [0, 1, -1, 1, -1, 1],
        [1, 0, 1, -1, 1, -1],
        [-1, 1, 0, 1, -1, 1],
        [1, -1, 1, 0, 1, -1],
        [-1, 1, -1, 1, 0, 1],
        [1, -1, 1, -1, 1, 0],
    ], dtype=float)
    expected = (2.0 / 3.0) * np.eye(6) + (1.0 / 3.0) * pattern
    assert np.allclose(high_energy_limit(6), expected, atol=1e-15)
    numeric = scattering_matrix(6, 1.0, 1.0e8).entries.real
    assert np.abs(numeric - expected).max() < 1e-5


def test_high_energy_limit_odd_degree_is_identity():
    assert np.abs(high_energy_limit(5) - np.eye(5)).max() < 1e-5


@pytest.mark.parametrize("n", [4, 6, 8])
def test_high_energy_limit_even_degree_nontrivial(n):
    # even-degree vertices stay transparent: the limit is far from identity
    s = scattering_matrix(n, 1.0, 1.0e6).entries
    assert np.abs(s - np.eye(n)).max() > 0.2


def test_star_bound_state_energies():
    assert star_negative_eigenvalues(4, 1.0) == pytest.approx([-1.0])
    assert star_negative_eigenvalues(6, 1.0) == pytest.approx([-3.0, -1.0 / 3.0])
    assert star_negative_eigenvalues(3, 2.0) == pytest.approx([-0.75])
    # ascending order, most negative first
    vals = star_negative_eigenvalues(9, 0.7)
    assert vals == sorted(vals)
