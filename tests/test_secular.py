"""Secular systems versus the closed-form kernels, and oracle membership."""

import math
import sys

import numpy as np
import pytest

from qglattice import secular
from qglattice.kernels import LatticeSpec, Quasimomentum, bracket, f_theta
from qglattice.secular import (
    _DFT,
    _DFT_SHIFTED,
    _EXTREMAL,
    _KAGOME_FUNS,
    _KAGOME_ROWS,
    _NODE_PHASES,
    _TRI_FUNS,
    _TRI_ROWS,
    _bracket_coefficients,
    _matrices,
    _THETA_GRID,
    _phases,
    kagome_secular_det,
    kagome_secular_matrix,
    normalized_bracket,
    oracle_in_spectrum,
    oracle_in_spectrum_many,
    triangular_secular_det,
    triangular_secular_matrix,
)
from qglattice.bands import InternalConsistencyError, in_band, scan_bands, scan_negative_bands
from qglattice.kernels import GeometryError

PHI = (1.0 + math.sqrt(5.0)) / 2.0

ORACLE_SPECS = [LatticeSpec.kagome(1.0, 3.0, 1.0), LatticeSpec.equilateral(1.0, 1.0), LatticeSpec.triangular(2.0, 1.0)]
ORACLE_IDS = ["kagome", "equilateral", "triangular"]


def _random_kagome(rng):
    c = rng.uniform(0.3, 1.4)
    d = c + rng.uniform(0.2, 2.2)
    ell = rng.uniform(0.5, 2.0)
    return LatticeSpec.kagome(c, d, ell)


def test_normalized_determinant_equals_bracket_positive():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        spec = _random_kagome(rng)
        k = rng.uniform(0.05, 8.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        want = bracket(k, "positive", q, spec)
        got = normalized_bracket(k, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_normalized_determinant_equals_bracket_negative():
    rng = np.random.default_rng(43)
    for _ in range(400):
        spec = _random_kagome(rng)
        kp = rng.uniform(0.05, 3.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        want = bracket(kp, "negative", q, spec)
        got = normalized_bracket(1j * kp, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_conventional_determinant_prefactor():
    # det = 65536 i e^(2 i theta2) z^9 ell^3 sin(zc/2) sin(zd/2) sin(z(d-c)/2) * bracket
    spec = LatticeSpec.kagome(0.9, 2.3, 1.1)
    q = Quasimomentum(0.7, -1.1)
    for z in (0.6, 1.9, 2.0 + 0.3j):
        det = kagome_secular_det(z, q, spec)
        sines = np.sin(z * spec.c / 2) * np.sin(z * spec.d / 2) * np.sin(z * (spec.d - spec.c) / 2)
        expect = 65536j * np.exp(2j * q.theta2) * z ** 9 * spec.ell ** 3 * sines * bracket(z, "positive", q, spec)
        assert abs(det - expect) <= 1e-9 * abs(expect)


def test_determinant_vanishes_at_flat_momenta():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    q = Quasimomentum(0.9, 0.3)
    k_flat = 2.0 * math.pi / spec.c
    scale = abs(kagome_secular_det(k_flat + 0.1, q, spec))
    assert abs(kagome_secular_det(k_flat, q, spec)) < 1e-12 * scale


def test_determinant_sign_agrees_with_bracket():
    spec = LatticeSpec.kagome(1.0, 2.0, 1.0)
    q = Quasimomentum(0.0, 0.0)
    z = 0.5
    got = normalized_bracket(z, q, spec).real
    want = bracket(z, "positive", q, spec)
    assert np.sign(got) == np.sign(want)


def test_secular_matrix_shape_and_errors():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    sys12 = kagome_secular_matrix(1.3, Quasimomentum(0.1, 0.2), spec)
    assert sys12.dimension == 12 and sys12.matrix.shape == (12, 12)
    tri = LatticeSpec.triangular(2.0, 1.0)
    sys6 = triangular_secular_matrix(1.3, Quasimomentum(0.1, 0.2), tri)
    assert sys6.dimension == 6 and sys6.matrix.shape == (6, 6)
    with pytest.raises(GeometryError):
        kagome_secular_matrix(1.0, Quasimomentum(0.0, 0.0), tri)
    with pytest.raises(GeometryError):
        triangular_secular_matrix(1.0, Quasimomentum(0.0, 0.0), spec)
    with pytest.raises(ValueError):
        kagome_secular_matrix(0.0, Quasimomentum(0.0, 0.0), spec)


def test_triangular_secular_matrix_rejects_zero_momentum():
    with pytest.raises(ValueError, match="z != 0"):
        triangular_secular_matrix(0.0, Quasimomentum(0.0, 0.0), LatticeSpec.triangular(2.0, 1.0))


def _reference_matrices(spec, z, phases):
    """The secular matrices built one vertex-condition term at a time, in row
    order, each entry +-(val +- der) on its own."""
    if spec.is_kagome:
        funs, rows, boundary = _KAGOME_FUNS, _KAGOME_ROWS, spec.c
        h = (spec.d - spec.c) / 2.0
        waves = {m: (np.exp(1j * z * (m * h)), np.exp(-1j * z * (m * h))) for m in (0, 1, -1)}
    else:
        funs, rows, boundary = _TRI_FUNS, _TRI_ROWS, spec.d
        waves = {0: (1.0, 1.0)}
    iz, il = 1j * z, 1j * spec.ell
    shifts = (np.exp(-1j * z * boundary), np.exp(1j * z * boundary))
    out = np.zeros(np.broadcast(z, *phases).shape + (len(rows), len(rows)), complex)
    for r, terms in enumerate(rows):
        for first, (name, point, sder) in zip((True, False), terms):
            plus, minus, phase = funs[name]
            sp, sm = (1.0, 1.0) if phase is None else (phases[phase] * shifts[0], phases[phase] * shifts[1])
            ep, em = waves[point]
            for col, val, der in ((plus, sp * ep, il * (iz * sp * ep)), (minus, sm * em, -(il * (iz * sm * em)))):
                entry = val + der if (sder > 0) == first else val - der
                out[..., r, col] = entry if first else -entry
    return out


@pytest.mark.parametrize("spec", ORACLE_SPECS + [LatticeSpec.kagome(0.7, 1.9, 1.3), LatticeSpec.triangular(1.3, 0.8)],
                         ids=ORACLE_IDS + ["kagome-2", "triangular-2"])
@pytest.mark.parametrize("side", ["positive", "negative", "complex"])
def test_assembly_matches_entry_by_entry_reference(spec, side):
    # the entry table computes each distinct boundary part once and places
    # every entry in a few stacked operations; scalar and batched matrices
    # must equal the term-by-term construction bit for bit (complex momenta
    # tell numpy's scalar and array products apart)
    rng = np.random.default_rng(48)
    xs = rng.uniform(0.05, 40.0 if side == "positive" else 4.0, 150)
    zs = {"positive": xs + 0j, "negative": 1j * xs, "complex": xs + 1j * rng.uniform(-1.0, 1.0, xs.size)}[side]
    matrix = kagome_secular_matrix if spec.is_kagome else triangular_secular_matrix
    for z in zs[:100]:
        q = Quasimomentum(*rng.uniform(-math.pi, math.pi, 2))
        got = matrix(complex(z), q, spec).matrix
        want = _reference_matrices(spec, complex(z), _phases(q.theta1, q.theta2))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    t1, t2 = rng.uniform(-math.pi, math.pi, (2, 4))
    grid = _phases(t1[:, None], t2[None, :])
    batch = zs[100:, None, None]
    for z, phases in ((batch, _NODE_PHASES), (batch, grid), (complex(zs[0]), grid)):
        got, want = _matrices(z, phases, spec), _reference_matrices(spec, z, phases)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# triangular system


def test_triangular_determinant_against_reduced_bracket():
    rng = np.random.default_rng(44)
    for _ in range(400):
        d = rng.uniform(0.5, 3.0)
        ell = rng.uniform(0.5, 2.0)
        spec = LatticeSpec.triangular(d, ell)
        z = rng.uniform(0.05, 6.0)
        q = Quasimomentum(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        x = (z * ell) ** 2
        want = (
            3.0 * (x * x + 6.0 * x + 1.0)
            + (3.0 * x * x + 10.0 * x + 3.0) * (2.0 * math.cos(z * d) + math.cos(2.0 * z * d))
            - 4.0 * (x - 1.0) ** 2 * math.cos(z * d / 2.0) ** 2 * f_theta(q)
        )
        got = normalized_bracket(z, q, spec)
        scale = max(1.0, abs(want))
        assert abs(got.real - want) <= 1e-10 * scale
        assert abs(got.imag) <= 1e-10 * scale


def test_triangular_no_bound_state_at_inverse_ell():
    # the reduced determinant at z = i/ell is nonzero for every
    # quasimomentum: the root suggested by the full condition is spurious
    for d, ell in ((1.7, 0.8), (1.0, 1.0)):
        spec = LatticeSpec.triangular(d, ell)
        z = 1j / ell
        thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        t1g, t2g = np.meshgrid(thetas, thetas, indexing="ij")
        raw = np.linalg.det(secular._matrices(z, secular._phases(t1g.ravel(), t2g.ravel()), spec))
        assert np.abs(raw).min() > 1e-3  # nonzero over the whole 64 x 64 grid
        ch = math.cosh(d / ell)
        ch2 = math.cosh(2.0 * d / ell)
        sh2 = math.sinh(d / (2.0 * ell)) ** 2
        for t1, t2 in ((0.3, -1.2), (2.9, 2.9), (0.0, 0.0)):
            q = Quasimomentum(t1, t2)
            det = triangular_secular_det(z, q, spec)
            f = f_theta(q)
            expect = 1024j * np.exp(2j * q.theta2) / ell ** 3 * sh2 * (
                3.0 + 2.0 * f + 2.0 * (f + 1.0) * ch + ch2
            )
            assert abs(det - expect) <= 1e-10 * abs(expect)


def test_triangular_determinant_vanishes_at_flat_momenta():
    spec = LatticeSpec.triangular(1.9, 1.0)
    q = Quasimomentum(-0.4, 1.3)
    k_flat = 2.0 * math.pi / spec.d
    scale = abs(triangular_secular_det(k_flat + 0.1, q, spec))
    assert abs(triangular_secular_det(k_flat, q, spec)) < 1e-12 * scale


def test_triangular_determinant_sign_agrees_with_bracket():
    spec = LatticeSpec.triangular(1.0, 1.0)
    q = Quasimomentum(0.0, 0.0)
    z = 1.3
    x = z * z
    want = (
        3.0 * (x * x + 6.0 * x + 1.0)
        + (3.0 * x * x + 10.0 * x + 3.0) * (2.0 * math.cos(z) + math.cos(2.0 * z))
        - 4.0 * (x - 1.0) ** 2 * math.cos(z / 2.0) ** 2 * 3.0
    )
    assert np.sign(normalized_bracket(z, q, spec).real) == np.sign(want)


# --------------------------------------------------------------------------
# grid membership oracle


def test_oracle_flat_band_membership():
    assert oracle_in_spectrum(math.pi, LatticeSpec.equilateral(1.0, 1.0))


def test_oracle_rejects_gap_points():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    bs = scan_bands(spec, "positive", 6.0)
    cont = bs.continuous
    # midpoint of the first genuine gap
    gap_mid = 0.5 * (cont[0].k_hi + cont[1].k_lo)
    assert not oracle_in_spectrum(gap_mid, spec)
    assert oracle_in_spectrum(0.5 * (cont[1].k_lo + cont[1].k_hi), spec)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
@pytest.mark.parametrize("side", ["positive", "negative"])
def test_oracle_needs_no_kernel(monkeypatch, spec, side):
    bs = scan_bands(spec, "positive", 12.0) if side == "positive" else scan_negative_bands(spec)
    cont = bs.continuous
    gap_mid = 0.5 * (cont[0].k_hi + cont[1].k_lo)
    interior = 0.5 * (cont[1].k_lo + cont[1].k_hi)
    flats = [iv.k_lo for iv in bs.flat]
    assert flats or side == "negative"

    def kernel_called(*args, **kwargs):
        raise AssertionError("the oracle called a closed-form kernel")

    for name, module in list(sys.modules.items()):
        if name == "qglattice" or name.startswith("qglattice."):
            for fn in ("lambda_arrays", "tri_bracket_pos", "tri_bracket_neg",
                       "tri_bracket_parts_pos", "tri_bracket_parts_neg"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, kernel_called)
    assert not oracle_in_spectrum(gap_mid, spec, side=side)
    assert oracle_in_spectrum(interior, spec, side=side)
    for k in flats:
        assert oracle_in_spectrum(k, spec, side=side), k


def test_oracle_grid_refinement_stability(monkeypatch):
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    rng = np.random.default_rng(45)
    ks = rng.uniform(0.05, 20.0, 1000)
    fine = oracle_in_spectrum_many(ks, spec)
    t = np.linspace(-math.pi, math.pi, 8, endpoint=False)
    monkeypatch.setattr(secular, "_THETA_GRID", np.exp(1j * np.outer(t, np.arange(-2, 3))))
    mismatch = np.count_nonzero(oracle_in_spectrum_many(ks, spec) != fine)
    assert mismatch == 0


def test_oracle_requires_positive_argument():
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        oracle_in_spectrum(-1.0, spec)


def test_oracle_theta_tables_fixed_and_read_only():
    assert _THETA_GRID.shape == (64, 5)
    t = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    assert _THETA_GRID.tobytes() == np.exp(1j * np.outer(t, np.arange(-2, 3))).tobytes()
    for table in (_THETA_GRID, _EXTREMAL, _DFT, _DFT_SHIFTED, *_NODE_PHASES):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_oracle_many_matches_single_calls():
    # more momenta than one chunk, in a 2-d shape that the result keeps
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    ks = np.random.default_rng(46).uniform(0.05, 12.0, (3, 50))
    many = oracle_in_spectrum_many(ks, spec)
    assert many.shape == ks.shape and many.dtype == bool
    assert many.tolist() == [[oracle_in_spectrum(float(k), spec) for k in row] for row in ks]
    assert oracle_in_spectrum_many([], spec).shape == (0,)
    for bad in ([1.0, -1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="finite and positive"):
            oracle_in_spectrum_many(bad, spec)


def test_oracle_momentum_chunks_keep_memory_bounded():
    # momenta go through in chunks of secular._CHUNK: about 9 MB at peak for
    # 1000 of them (or 5000), where the 1000 as one chunk take 92 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    spec = LatticeSpec.kagome(1.0, 3.0, 1.0)
    ks = np.random.default_rng(48).uniform(0.05, 20.0, 1000)
    tracemalloc.start()
    try:
        oracle_in_spectrum_many(ks, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("d", [100.0, 200.0])
@pytest.mark.parametrize("make", [LatticeSpec.triangular, lambda d: LatticeSpec.kagome(d / PHI, d)],
                         ids=["triangular", "kagome"])
def test_oracle_raises_on_overflowing_determinants(make, d):
    # cosh(2 kappa d) overflows: both routes refuse instead of answering
    spec = make(d)
    with pytest.raises(InternalConsistencyError):
        in_band(5.0, "negative", spec)
    with pytest.raises(InternalConsistencyError, match="non-finite"):
        oracle_in_spectrum(5.0, spec, side="negative")


#: Orders (j, k) of e^(i (j theta1 + k theta2)) in the bracket l1 - l2 f - l3 g
#: (A - C f for triangular); the other 18 of the 25 computed orders vanish.
BRACKET_SUPPORT = {(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (-1, 0), (-1, 1)}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=ORACLE_IDS)
@pytest.mark.parametrize("side, top", [("positive", 40.0), ("negative", 4.0)], ids=["positive", "negative"])
def test_determinant_degree_structure(spec, side, top):
    # the 25-determinant series is exact because each boundary phase enters
    # at most two rows, linearly; an edit to the rows that breaks this
    # fails here
    rng = np.random.default_rng(47)
    xs = rng.uniform(0.05, top, 20)
    zs = xs + 0j if side == "positive" else 1j * xs
    coeffs = _bracket_coefficients(zs, spec)
    off = np.ones((5, 5), bool)
    for j, k in BRACKET_SUPPORT:
        off[j + 2, k + 2] = False
    largest = np.abs(coeffs).max(axis=(1, 2))
    assert np.all(np.abs(coeffs[:, off]).max(axis=1) <= 1e-12 * largest)

    for z in zs:
        base = np.exp(1j * rng.uniform(-math.pi, math.pi, 3))
        for i in range(3):
            at = [_matrices(z, np.where(np.arange(3) == i, p, base), spec) for p in (0.0, 1.0, 2.0)]
            step = at[1] - at[0]
            assert np.count_nonzero(np.abs(step).max(axis=1)) <= 2
            assert np.allclose(at[2] - at[1], step, rtol=0.0, atol=1e-12 * np.abs(at[1]).max())
