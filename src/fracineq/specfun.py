"""Gamma, log-Gamma, and Beta kernels for positive real arguments.

Every bound evaluator and closed-form oracle in the package funnels through
these three functions, so they carry an explicit accuracy contract
(:data:`REL_TOL`).

Implementation: the standard library's ``math.gamma`` and ``math.lgamma``,
whose errors of a few ulp lie well inside the contract; ``gamma`` stays
finite up to z ~ 171.6. The wrappers add the z > 0 domain check, since
``math.gamma`` also accepts negative non-integers.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["REL_TOL", "gamma", "ln_gamma", "beta"]

#: Precision contract for this module's kernels: REL_TOL bounds the relative
#: error of ``gamma`` and the scaled absolute error of ``ln_gamma``; ``beta``
#: is guaranteed to 4 * REL_TOL because it composes three log-Gamma
#: evaluations.
REL_TOL = 1e-13


def gamma(z: float) -> float:
    """Gamma(z) for real z > 0, relative error <= REL_TOL.

    Raises DomainError for z <= 0 (callers never need the analytic
    continuation; a non-positive argument signals a bug upstream) and where
    Gamma(z) overflows a float: z > 171.6, or z < 5.6e-309.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"gamma requires z > 0, got {z!r}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise DomainError(f"gamma({z!r}) overflows a float") from None


def ln_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0.

    Absolute error <= REL_TOL * max(1, |ln Gamma(z)|). Preferred
    over ``gamma`` whenever ratios of Gamma values are formed, since the
    ratio can be exponentiated once at the end without overflow.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"ln_gamma requires z > 0, got {z!r}")
    return math.lgamma(z)


def beta(x: float, y: float) -> float:
    """Euler Beta function for x, y > 0.

    Computed as exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y)); relative
    error <= 4 * REL_TOL. Symmetric in (x, y) by construction.
    """
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))
