"""gkz-forge: exact GKZ / tautological system construction and verification.

Build differential systems from toric lattice data, predict their solution
rank by polytope volume, generate logarithmic series solutions, and check
numerically that period and chain integrals solve the system.
"""

from .errors import GkzForgeError
from .lattice import (
    ExponentMatrix,
    ehrhart_volume_oracle,
    homogenize,
    integer_kernel,
    normalized_volume,
)
from .weyl import WeylElement, commutator, fourier_box, multiply
from .tautsys import (
    SystemSpec,
    cy_beta,
    gkz_system,
    saturate_lattice_ideal,
    symmetry_operator,
    unipotent_p1_system,
)
from .series import (
    LogSeries,
    annihilate_check,
    count_independent,
    frobenius_basis,
    monomial_series,
)
from .periods import (
    ChainSpec,
    IntegrationResult,
    QuadratureSettings,
    SectionData,
    Segment,
    finite_difference_residual,
    general_type_integral,
    loop_chain,
    numeric_chain_integral,
    numeric_cycle_integral,
    residue_period,
    torus_period_series,
)

__version__ = "0.1.0"

__all__ = [
    "GkzForgeError",
    "ExponentMatrix",
    "homogenize",
    "integer_kernel",
    "normalized_volume",
    "ehrhart_volume_oracle",
    "WeylElement",
    "multiply",
    "commutator",
    "fourier_box",
    "SystemSpec",
    "gkz_system",
    "cy_beta",
    "symmetry_operator",
    "unipotent_p1_system",
    "saturate_lattice_ideal",
    "LogSeries",
    "frobenius_basis",
    "annihilate_check",
    "count_independent",
    "monomial_series",
    "SectionData",
    "Segment",
    "ChainSpec",
    "QuadratureSettings",
    "IntegrationResult",
    "torus_period_series",
    "numeric_cycle_integral",
    "numeric_chain_integral",
    "general_type_integral",
    "residue_period",
    "loop_chain",
    "finite_difference_residual",
]
