"""Numerical verification laboratory for fractional Ostrowski-type inequalities.

The package evaluates Riemann-Liouville fractional integrals with
singularity-aware quadrature, verifies the integral identity that underlies
a family of fractional Ostrowski-type bounds, and empirically certifies
those bounds (and their classical alpha=1 reductions) over parameter sweeps
of certified s-convex and s-concave test functions.

Layers, bottom up: ``specfun`` (gamma, log-gamma, beta), ``funcatalog``
(test functions and sampled hypothesis certificates), ``fracint``
(fractional integral operators and quadrature), ``identity`` (residual
checks for the core identity), ``bounds`` (inequality sides and margins),
``harness`` (parameter sweeps and reports), ``cli`` (command line).
"""

from __future__ import annotations

from ._version import __version__
from .bounds import (
    CLASSICAL_IDS,
    DEFAULT_MARGIN_TOL,
    FRACTIONAL_IDS,
    REDUCTION_TOL,
    THEOREM_IDS,
    CertCache,
    InequalityReport,
    reduction_check,
)
from .errors import (
    CertificateError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyIntervalError,
    FracIneqError,
)
from .fracint import (
    DEFAULT_QUADRATURE,
    Estimate,
    FracParams,
    QuadratureConfig,
    oracle,
)
from .funcatalog import (
    CatalogEntry,
    ConvexityCertificate,
    Function1D,
    builtin_catalog,
    catalog_names,
    certify_batch,
    get_entry,
)
from .harness import (
    CSV_HEADER,
    ResidualRecord,
    SweepConfig,
    SweepResult,
    default_config,
    emit_report,
    render_csv,
    render_json,
    run_sweep,
)
from .identity import DEFAULT_IDENTITY_TOL, IdentityResidual, compute_pieces_batch
from .specfun import beta, gamma, ln_gamma

__all__ = [
    "__version__",
    # errors
    "FracIneqError",
    "DomainError",
    "EmptyIntervalError",
    "ConfigError",
    "CertificateError",
    "ConvergenceError",
    # special functions
    "gamma",
    "ln_gamma",
    "beta",
    # catalog
    "Function1D",
    "ConvexityCertificate",
    "CatalogEntry",
    "certify_batch",
    "builtin_catalog",
    "catalog_names",
    "get_entry",
    # fractional integrals
    "Estimate",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "FracParams",
    "oracle",
    # identity
    "DEFAULT_IDENTITY_TOL",
    "IdentityResidual",
    "compute_pieces_batch",
    # bounds
    "THEOREM_IDS",
    "FRACTIONAL_IDS",
    "CLASSICAL_IDS",
    "DEFAULT_MARGIN_TOL",
    "REDUCTION_TOL",
    "InequalityReport",
    "CertCache",
    "reduction_check",
    # harness
    "SweepConfig",
    "SweepResult",
    "ResidualRecord",
    "default_config",
    "run_sweep",
    "emit_report",
    "render_csv",
    "render_json",
    "CSV_HEADER",
]
