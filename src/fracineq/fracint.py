"""Weighted-endpoint (Riemann-Liouville type) integral evaluation.

All four integral expressions consumed by the identity and bound modules
share one shape: an integrand f against a weight |t - c|**(alpha - 1) whose
singular endpoint c is one end of the interval. This module removes that
singularity analytically before any quadrature runs. With L = hi - lo and
the substitution u = (|t - c| / L)**alpha,

    integral_lo^hi |t - c|**(alpha-1) f(t) dt
        = (L**alpha / alpha) * integral_0^1 f(t(u)) du,

where t(u) = c -/+ L * u**(1/alpha) walks from the singular endpoint. The
transformed integrand is bounded whenever f is, so adaptive error estimates
stay honest for every alpha > 0.

Three interchangeable rules evaluate the transformed integral:

``transformed-adaptive``
    Adaptive Gauss-Kronrod (QUADPACK) on the transformed integrand; the
    default engine everywhere.
``gauss-jacobi``
    A fixed-order Gauss-Jacobi rule applied to the *original* weighted
    integrand. Spectrally accurate for analytic f; degrades to roughly 1e-7
    for integrands with fractional-power interior behavior, so it serves as
    a cross-check rule, not the default.
``oracle-midpoint``
    A brute-force composite midpoint rule with >= 1e6 panels on the
    transformed integrand. Deliberately simple; exists so tests can validate
    the adaptive engine against an independent computation.

QUADPACK calls the integrands with one float at a time; those calls skip
``np.asarray`` and ``np.clip`` but keep numpy's power (``np.power``), because
numpy's vectorized pow differs in the last bit from the C library pow behind
Python's ``**`` on a few percent of inputs, and the sweep's reports must not
change by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_jacobi

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyIntervalError,
)
from .funcatalog import Function1D
from .specfun import gamma

__all__ = [
    "RULE_ADAPTIVE",
    "RULE_GAUSS_JACOBI",
    "RULE_ORACLE",
    "Estimate",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "MAX_ALPHA",
    "FracParams",
    "weighted_endpoint_integral",
    "plain_integral",
    "moment_integral",
    "rl_left",
    "rl_right",
    "lemma_pair",
    "oracle",
]

RULE_ADAPTIVE = "transformed-adaptive"
RULE_GAUSS_JACOBI = "gauss-jacobi"
RULE_ORACLE = "oracle-midpoint"
_RULES = (RULE_ADAPTIVE, RULE_GAUSS_JACOBI, RULE_ORACLE)

_ORACLE_PANELS = 1_000_000


class Estimate(NamedTuple):
    """A quadrature value together with its absolute error estimate."""

    value: float
    error: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances, subdivision budget, and rule selection for the engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    rule: str = RULE_ADAPTIVE

    def __post_init__(self) -> None:
        problems = []
        if not self.rel_tol > 0.0:
            problems.append(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not self.abs_tol > 0.0:
            problems.append(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if self.max_subdivisions < 8:
            problems.append(
                f"max_subdivisions must be >= 8, got {self.max_subdivisions!r}"
            )
        if self.rule not in _RULES:
            problems.append(f"rule must be one of {_RULES}, got {self.rule!r}")
        if problems:
            raise ConfigError("; ".join(problems))


DEFAULT_QUADRATURE = QuadratureConfig()

#: Conjugacy slack for Hoelder exponent pairs.
CONJUGACY_TOL = 1e-12

#: Largest accepted alpha: ``specfun.gamma(alpha + 1)`` overflows a double
#: from alpha ~ 141 on.
MAX_ALPHA = 140.0


@dataclass(frozen=True)
class FracParams:
    """The full parameter tuple (a, b, x, alpha, s, p, q, M).

    p, q, and M are optional because not every expression consumes them;
    evaluators that need an absent field raise ConfigError at the point of
    use. When both p and q are present they must be Hoelder-conjugate.
    """

    a: float
    b: float
    x: float
    alpha: float
    s: float = 1.0
    p: Optional[float] = None
    q: Optional[float] = None
    M: Optional[float] = None

    def __post_init__(self) -> None:
        problems = []
        if not self.a < self.b:
            problems.append(f"a < b required, got a={self.a!r}, b={self.b!r}")
        elif not (self.a <= self.x <= self.b):
            problems.append(f"x must lie in [a, b], got x={self.x!r}")
        if not self.alpha > 0.0:
            problems.append(f"alpha must be > 0, got {self.alpha!r}")
        elif self.alpha > MAX_ALPHA:
            problems.append(f"alpha must be <= {MAX_ALPHA:g}, got {self.alpha!r}")
        if not (0.0 < self.s <= 1.0):
            problems.append(f"s must lie in (0, 1], got {self.s!r}")
        if self.p is not None and not self.p > 1.0:
            problems.append(f"p must be > 1, got {self.p!r}")
        if self.q is not None and not self.q >= 1.0:
            problems.append(f"q must be >= 1, got {self.q!r}")
        if self.p is not None and self.q is not None:
            if abs(1.0 / self.p + 1.0 / self.q - 1.0) > CONJUGACY_TOL:
                problems.append(
                    f"p and q must be conjugate (1/p + 1/q = 1), got "
                    f"p={self.p!r}, q={self.q!r}"
                )
        if self.M is not None and self.M < 0.0:
            problems.append(f"M must be nonnegative, got {self.M!r}")
        if problems:
            raise ConfigError("; ".join(problems))


def _as_callable(f: Union[Function1D, Callable]) -> Callable:
    return f.eval if isinstance(f, Function1D) else f


def _transform(g: Callable, lo: float, hi: float, alpha: float, singular: str):
    """Build the singularity-free integrand on [0, 1] and its prefactor."""
    L = hi - lo
    inv = 1.0 / alpha
    # Rounding in t(u) can overshoot the interval by one ulp, which turns
    # fractional powers of (t - lo) into NaN; clamp to stay inside.
    if singular == "hi":

        def tr(u):
            if isinstance(u, float):
                return g(min(max(hi - L * np.power(u, inv), lo), hi))
            return g(np.clip(hi - L * np.asarray(u, dtype=float) ** inv, lo, hi))

    elif singular == "lo":

        def tr(u):
            if isinstance(u, float):
                return g(min(max(lo + L * np.power(u, inv), lo), hi))
            return g(np.clip(lo + L * np.asarray(u, dtype=float) ** inv, lo, hi))

    else:
        raise ConfigError(f"singular must be 'lo' or 'hi', got {singular!r}")
    return tr, L**alpha / alpha


def _adaptive_unit(tr: Callable, cfg: QuadratureConfig, what: str) -> Estimate:
    """Adaptive quadrature of tr over [0, 1] with convergence detection."""
    ret = quad(
        tr,
        0.0,
        1.0,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, abserr = float(ret[0]), float(ret[1])
    if len(ret) > 3:  # QUADPACK appended a warning message
        raise ConvergenceError(
            f"{what}: adaptive quadrature did not converge within "
            f"{cfg.max_subdivisions} subdivisions ({ret[3].strip()})",
            estimate=value,
            error_bound=abserr,
        )
    return Estimate(value, abserr)


def _midpoint_unit(tr: Callable, panels: int) -> float:
    u = (np.arange(panels, dtype=float) + 0.5) / panels
    return float(np.mean(np.asarray(tr(u), dtype=float)))


def _gauss_jacobi_weighted(
    g: Callable, lo: float, hi: float, alpha: float, singular: str, order: int
) -> float:
    # weight (hi - t)^(alpha-1) maps to (1 - xi)^(alpha-1): Jacobi (a, b) = (alpha-1, 0)
    if singular == "hi":
        nodes, weights = roots_jacobi(order, alpha - 1.0, 0.0)
    else:
        nodes, weights = roots_jacobi(order, 0.0, alpha - 1.0)
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)
    t = mid + rad * nodes
    return rad**alpha * float(np.sum(weights * np.asarray(g(t), dtype=float)))


def weighted_endpoint_integral(
    f: Union[Function1D, Callable],
    lo: float,
    hi: float,
    alpha: float,
    singular: str,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Evaluate integral_lo^hi |t - c|**(alpha-1) f(t) dt.

    Parameters
    ----------
    f : Function1D or callable
        Integrand factor multiplying the weight. Must accept numpy arrays
        when the ``oracle-midpoint`` or ``gauss-jacobi`` rule is selected.
    lo, hi : float
        Integration interval, lo < hi.
    alpha : float
        Weight exponent shift; the weight is |t - c|**(alpha - 1), alpha > 0.
    singular : {'lo', 'hi'}
        Which endpoint carries the singular weight (c = lo or c = hi).
    cfg : QuadratureConfig
        Tolerances and rule selection.

    Returns
    -------
    Estimate
        Value and absolute error estimate. For the fixed rules the error
        field is a half-resolution comparison, not a guaranteed bound.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    if not lo < hi:
        raise EmptyIntervalError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    g = _as_callable(f)
    tr, c = _transform(g, lo, hi, alpha, singular)

    if cfg.rule == RULE_ADAPTIVE:
        est = _adaptive_unit(tr, cfg, f"weighted integral on [{lo}, {hi}]")
        return Estimate(c * est.value, c * est.error)
    if cfg.rule == RULE_ORACLE:
        full = _midpoint_unit(tr, _ORACLE_PANELS)
        half = _midpoint_unit(tr, _ORACLE_PANELS // 2)
        return Estimate(c * full, c * abs(full - half) / 3.0)
    order = min(96, cfg.max_subdivisions)
    full = _gauss_jacobi_weighted(g, lo, hi, alpha, singular, order)
    half = _gauss_jacobi_weighted(g, lo, hi, alpha, singular, max(4, order // 2))
    return Estimate(full, abs(full - half))


def plain_integral(
    f: Union[Function1D, Callable],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Ordinary integral of f over [lo, hi] (degenerate intervals give 0)."""
    if lo == hi:
        return Estimate(0.0, 0.0)
    if lo > hi:
        raise EmptyIntervalError(f"need lo <= hi, got [{lo!r}, {hi!r}]")
    # alpha = 1 turns the transform into a linear change of variables
    return weighted_endpoint_integral(f, lo, hi, 1.0, "lo", cfg)


def _moment_integrand(deriv: Callable, x: float, base: float, alpha: float) -> Callable:
    """t -> t**alpha * deriv(t*x + (1-t)*base) on [0, 1], points kept on the segment."""
    wlo = min(x, base)
    whi = max(x, base)

    def h(t):
        if isinstance(t, float):  # QUADPACK's scalar calls
            return np.power(t, alpha) * deriv(min(max(t * x + (1.0 - t) * base, wlo), whi))
        t = np.asarray(t, dtype=float)
        pts = np.clip(t * x + (1.0 - t) * base, wlo, whi)
        return t**alpha * np.asarray(deriv(pts), dtype=float)

    return h


def moment_integral(
    deriv: Callable,
    x: float,
    base: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Evaluate integral_0^1 t**alpha * deriv(t*x + (1-t)*base) dt.

    The integrand is bounded for alpha > 0, so no transformation is applied;
    the configured rule integrates it directly.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    h = _moment_integrand(deriv, x, base, alpha)

    if cfg.rule == RULE_ADAPTIVE:
        return _adaptive_unit(h, cfg, f"moment integral (x={x}, base={base})")
    if cfg.rule == RULE_ORACLE:
        full = _midpoint_unit(h, _ORACLE_PANELS)
        half = _midpoint_unit(h, _ORACLE_PANELS // 2)
        return Estimate(full, abs(full - half) / 3.0)
    order = min(96, cfg.max_subdivisions)
    wlo = min(x, base)
    whi = max(x, base)

    def weighted_sum(n: int) -> float:
        nodes, weights = roots_jacobi(n, 0.0, alpha)  # weight (1+xi)^alpha on [-1,1]
        t = 0.5 * (nodes + 1.0)
        pts = np.clip(t * x + (1.0 - t) * base, wlo, whi)
        return 0.5 ** (alpha + 1.0) * float(
            np.sum(weights * np.asarray(deriv(pts), dtype=float))
        )

    full = weighted_sum(order)
    half = weighted_sum(max(4, order // 2))
    return Estimate(full, abs(full - half))


def _check_domain(f: Union[Function1D, Callable], lo: float, hi: float) -> None:
    if isinstance(f, Function1D):
        slack = 1e-12 * max(1.0, abs(f.domain_lo), abs(f.domain_hi))
        if lo < f.domain_lo - slack or hi > f.domain_hi + slack:
            raise DomainError(
                f"[{lo}, {hi}] is outside the domain of {f.name} "
                f"([{f.domain_lo}, {f.domain_hi}])"
            )


def rl_left(
    f: Union[Function1D, Callable],
    a: float,
    x: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Left-based operator: (1/Gamma(alpha)) integral_a^x (x-t)**(alpha-1) f(t) dt.

    The weight is singular at t = x; requires a < x.
    """
    if not x > a:
        raise EmptyIntervalError(f"rl_left requires x > a, got a={a!r}, x={x!r}")
    _check_domain(f, a, x)
    w = weighted_endpoint_integral(f, a, x, alpha, "hi", cfg)
    ginv = 1.0 / gamma(alpha)
    return Estimate(ginv * w.value, ginv * w.error)


def rl_right(
    f: Union[Function1D, Callable],
    x: float,
    b: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Right-based operator: (1/Gamma(alpha)) integral_x^b (t-x)**(alpha-1) f(t) dt.

    Mirror of rl_left; the weight is singular at t = x and x < b is required.
    """
    if not b > x:
        raise EmptyIntervalError(f"rl_right requires b > x, got x={x!r}, b={b!r}")
    _check_domain(f, x, b)
    w = weighted_endpoint_integral(f, x, b, alpha, "lo", cfg)
    ginv = 1.0 / gamma(alpha)
    return Estimate(ginv * w.value, ginv * w.error)


def lemma_pair(
    f: Union[Function1D, Callable],
    prm: FracParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[Estimate, Estimate]:
    """The identity's operator pair, both anchored at the interior point x.

    Returns (Jm, Jp) with

        Jm = (1/Gamma(alpha)) integral_a^x (t-a)**(alpha-1) f(t) dt,
        Jp = (1/Gamma(alpha)) integral_x^b (b-t)**(alpha-1) f(t) dt,

    singular at t = a and t = b respectively. At x = a the first term is the
    integral over an empty interval and is defined as 0; likewise the second
    at x = b. (The matching prefactors in the identity vanish there too, so
    both sides stay consistent.)
    """
    a, b, x, alpha = prm.a, prm.b, prm.x, prm.alpha
    _check_domain(f, a, b)
    ginv = 1.0 / gamma(alpha)
    if x == a:
        jm = Estimate(0.0, 0.0)
    else:
        w = weighted_endpoint_integral(f, a, x, alpha, "lo", cfg)
        jm = Estimate(ginv * w.value, ginv * w.error)
    if x == b:
        jp = Estimate(0.0, 0.0)
    else:
        w = weighted_endpoint_integral(f, x, b, alpha, "hi", cfg)
        jp = Estimate(ginv * w.value, ginv * w.error)
    return jm, jp


def oracle(
    f: Union[Function1D, Callable],
    lo: float,
    hi: float,
    alpha: float,
    singular: str = "hi",
    panels: int = _ORACLE_PANELS,
) -> float:
    """Brute-force midpoint evaluation of the weighted integral.

    Applies the same singularity-removing substitution as the adaptive
    engine, then a fixed composite midpoint rule with ``panels`` panels and
    no adaptivity whatsoever. Intended purely as an independent cross-check;
    f must accept numpy arrays.
    """
    if panels < 2:
        raise ConfigError(f"panels must be >= 2, got {panels!r}")
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    if not lo < hi:
        raise EmptyIntervalError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    tr, c = _transform(_as_callable(f), lo, hi, alpha, singular)
    return c * _midpoint_unit(tr, panels)
