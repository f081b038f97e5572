"""Gamma, log-Gamma, and Beta kernels for positive real arguments.

Every bound evaluator and closed-form oracle in the package funnels through
these three functions, so they carry an explicit accuracy contract
(:class:`SpecFunAccuracy`).

Implementation: the standard library's ``math.gamma`` and ``math.lgamma``,
whose errors of a few ulp lie well inside the contract; ``gamma`` stays
finite up to z ~ 171.6. The wrappers add the z > 0 domain check, since
``math.gamma`` also accepts negative non-integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["SpecFunAccuracy", "ACCURACY", "gamma", "ln_gamma", "beta"]


@dataclass(frozen=True)
class SpecFunAccuracy:
    """Precision contract for this module's kernels.

    rel_tol bounds the relative error of ``gamma`` and the scaled absolute
    error of ``ln_gamma``; ``beta`` is guaranteed to 4 * rel_tol because it
    composes three log-Gamma evaluations.
    """

    rel_tol: float = 1e-13

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1e-6):
            raise DomainError(
                f"rel_tol must lie in (0, 1e-6), got {self.rel_tol!r}"
            )


#: Accuracy contract met by the kernels below.
ACCURACY = SpecFunAccuracy()


def gamma(z: float) -> float:
    """Gamma(z) for real z > 0, relative error <= ACCURACY.rel_tol.

    Raises DomainError for z <= 0 (callers never need the analytic
    continuation; a non-positive argument signals a bug upstream).
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"gamma requires z > 0, got {z!r}")
    return math.gamma(z)


def ln_gamma(z: float) -> float:
    """ln Gamma(z) for real z > 0.

    Absolute error <= ACCURACY.rel_tol * max(1, |ln Gamma(z)|). Preferred
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
    error <= 4 * ACCURACY.rel_tol. Symmetric in (x, y) by construction.
    """
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))
