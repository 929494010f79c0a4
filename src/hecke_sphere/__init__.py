"""Hecke-Laplace eigenform experiments on the 3-sphere via integral quaternions."""

from .gon import (
    Box,
    CountRecord,
    CylinderSpec,
    a_of_x,
    dyadic_class_count,
    fit_constant,
    minkowski_sandwich,
    product_bound_check,
    shell_class_count,
    successive_minima,
)
from .hecke import (
    DegeneracyError,
    EigenSpace,
    HeckeMatrix,
    SpectralDecomposition,
    decompose,
    expected_classes,
    hecke_matrix,
    hecke_matrix_float,
    hecke_relations_check,
    selfadjoint_check,
    t1_vanishing,
)
from .moments import (
    ClosureError,
    MomentReport,
    growth_fit,
    moment_sweep,
    pretrace_residual,
    sphere_grid,
)
from .poly import HarmonicBasis, harmonic_basis
from .quat import CapacityError, NormShell, Quaternion, enumerate_shell, m1_profile, r4_count
from .theta import (
    ModularityResult,
    PeterssonEstimate,
    ThetaCoefficient,
    modularity_check,
    petersson_estimate,
    spectral_coefficient,
    theta_coefficient,
)
from .zonal import chebyshev_U_vec

__version__ = "0.1.0"
