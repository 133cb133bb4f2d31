"""Photon-number statistics of quantum light scattered by a rotating ground glass.

The package models what a photon-number-resolving detector behind a deep
multiply-scattering diffuser sees: exact occupation combinatorics for Fock
inputs, mixtures for arbitrary input statistics, closed-form correlation
maps, the many-diffuser limit, and a Monte Carlo sampler to check it all.
"""

from .core import (
    Coherent,
    CorrelationReport,
    Custom,
    DimTooSmall,
    Fock,
    InputStateSpec,
    InvalidPmf,
    MCRunResult,
    NormalizationFailure,
    OutOfRange,
    Pmf,
    SqueezedCoherent,
    TailTooHeavy,
    Thermal,
    UnstableEvaluation,
    ZeroMean,
    pmf_mean,
    total_variation,
)
from .inputs import (
    fock_pmf,
    input_pmf,
    poisson_pmf,
    recommended_oracle_dim,
    squeezed_coherent_pmf,
    squeezed_oracle_pmf,
    thermal_pmf,
)
from .combinatorics import (
    approx_scatter_pmf,
    config_count,
    fock_scatter_fractions,
    fock_scatter_pmf,
)
from .transform import (
    cascade_pmf,
    correlation_report,
    gn_out_predicted,
    g2_out_predicted,
    g3_out_predicted,
    scatter_pmf,
)
from .plimit import (
    coherent_limit_pmf,
    fock_pn_limit_float64,
    fock_pn_limit_fractions,
    fock_pn_limit_pmf,
    gn_limit,
)
from .montecarlo import (
    EmpiricalReport,
    MCConfig,
    empirical_report,
    run_mc,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types
    "Pmf",
    "Fock",
    "Coherent",
    "Thermal",
    "SqueezedCoherent",
    "Custom",
    "InputStateSpec",
    "CorrelationReport",
    "MCRunResult",
    "EmpiricalReport",
    "MCConfig",
    # errors
    "InvalidPmf",
    "TailTooHeavy",
    "ZeroMean",
    "OutOfRange",
    "DimTooSmall",
    "UnstableEvaluation",
    "NormalizationFailure",
    # pmf utilities
    "pmf_mean",
    "total_variation",
    # input states
    "fock_pmf",
    "poisson_pmf",
    "thermal_pmf",
    "squeezed_coherent_pmf",
    "squeezed_oracle_pmf",
    "recommended_oracle_dim",
    "input_pmf",
    # exact scattering combinatorics
    "config_count",
    "fock_scatter_fractions",
    "fock_scatter_pmf",
    "approx_scatter_pmf",
    # transforms and correlation laws
    "scatter_pmf",
    "cascade_pmf",
    "correlation_report",
    "gn_out_predicted",
    "g2_out_predicted",
    "g3_out_predicted",
    # many-diffuser limit
    "coherent_limit_pmf",
    "gn_limit",
    "fock_pn_limit_fractions",
    "fock_pn_limit_pmf",
    "fock_pn_limit_float64",
    # Monte Carlo
    "run_mc",
    "empirical_report",
]
