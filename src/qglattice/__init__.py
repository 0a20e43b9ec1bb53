"""Spectra of kagome and triangular quantum-graph lattices with a circulant,
time-reversal-breaking vertex coupling."""

from .kernels import (
    EXTREMAL_THETAS,
    GeometryError,
    KernelTriple,
    LatticeSpec,
    Quasimomentum,
    asymptotic_coefficients,
    bracket,
    f_theta,
    g_theta,
    kagome_equilateral_F,
    lambda_neg,
    lambda_pos,
    tri_G,
    tri_G_tilde,
    xi,
)
from .vertex import (
    CirculantU,
    InvalidDegreeError,
    ScatteringMatrix,
    build_circulant_u,
    high_energy_limit,
    scattering_matrix,
    star_negative_eigenvalues,
)
from .secular import (
    SecularSystem,
    kagome_secular_det,
    kagome_secular_matrix,
    normalized_bracket,
    oracle_in_spectrum,
    oracle_in_spectrum_many,
    triangular_secular_det,
    triangular_secular_matrix,
)
from .bands import (
    BandStructure,
    FlatBand,
    InternalConsistencyError,
    SpectralInterval,
    SpectralThresholds,
    detect_gap_closings,
    flat_bands,
    in_band,
    scan_bands,
    scan_negative_bands,
    spectral_threshold,
)
from .probability import (
    InsufficientScanError,
    ProbabilityEstimate,
    UnsupportedLatticeError,
    band_measure,
    closed_form_probability,
    finite_scan_probability,
    probability_sweep,
    torus_probability,
)
from .asymptotics import (
    AsymptoticBandPrediction,
    NegativeLimitSet,
    equilateral_narrow_band,
    equilateral_negative_widths,
    kagome_negative_large_d,
    measure_narrow_pair,
    triangular_narrow_band,
    triangular_negative_large_d,
)

__version__ = "0.1.0"
