"""Numerical verification of the package's central integral identity.

The identity under test equates a pointwise/operator combination with a pair
of weighted derivative averages: with Jm, Jp the operator pair of
:func:`compute_pieces_batch`,

    ((x-a)**alpha + (b-x)**alpha) / (b-a) * f(x)
        - Gamma(alpha+1)/(b-a) * (Jm + Jp)
    =   ((x-a)**(alpha+1) / (b-a)) * integral_0^1 t**alpha f'(t x + (1-t) a) dt
      - ((b-x)**(alpha+1) / (b-a)) * integral_0^1 t**alpha f'(t x + (1-t) b) dt.

``check_e1_from_pieces`` verifies the full identity on one point's pieces
(``LemmaPieces.e1`` keeps its result), ``check_e4_from_pieces`` and
``check_e5_from_pieces`` its two one-sided halves (each equating one
operator term with one weighted derivative average; their residuals give
r1 = r4 - r5 up to rounding), and ``check_classical_lemma`` the alpha = 1
degeneration

    f(x) - (1/(b-a)) integral_a^b f
    = ((x-a)**2/(b-a)) integral_0^1 t f'(tx+(1-t)a) dt
      - ((b-x)**2/(b-a)) integral_0^1 t f'(tx+(1-t)b) dt

with integral_a^x f and the moment integrals shared with its alpha = 1 twin,
and integral_x^b f from a plain quadrature lane of its own.

Every check reports a residual relative to max(1, |lhs|, |rhs|) so that
near-zero cases (constant f makes both sides exactly 0) keep a meaningful
PASS threshold, together with the propagated quadrature error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from . import fracint
from .errors import ConfigError, ConvergenceError, DomainError, FracIneqError
from .fracint import DEFAULT_QUADRATURE, Estimate, QuadratureConfig, plain_integral
from .funcatalog import Function1D
from .specfun import gamma, ln_gamma

__all__ = [
    "DEFAULT_IDENTITY_TOL",
    "ALPHA_ONE_MATCH_TOL",
    "IdentityResidual",
    "LemmaPieces",
    "compute_pieces_batch",
    "check_e1_from_pieces",
    "check_e4_from_pieces",
    "check_e5_from_pieces",
    "check_classical_lemma",
]

#: Default PASS threshold for relative residuals.
DEFAULT_IDENTITY_TOL = 1e-8

#: Agreement required between the alpha = 1 identity and its classical twin.
ALPHA_ONE_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class IdentityResidual:
    """Both sides of one identity instance and their discrepancy."""

    lhs: float
    rhs: float
    residual: float  # lhs - rhs
    scale: float  # max(1, |lhs|, |rhs|)
    rel_residual: float  # |residual| / scale
    quad_error_budget: float  # propagated quadrature error / scale

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, abs_error: float) -> "IdentityResidual":
        scale = max(1.0, abs(lhs), abs(rhs))
        residual = lhs - rhs
        return cls(
            lhs=float(lhs),
            rhs=float(rhs),
            residual=float(residual),
            scale=float(scale),
            rel_residual=abs(residual) / scale,
            quad_error_budget=float(abs_error) / scale,
        )

    def passes(self, identity_tol: float = DEFAULT_IDENTITY_TOL) -> bool:
        """PASS iff rel_residual <= max(identity_tol, 10 * quad_error_budget)."""
        return self.rel_residual <= max(identity_tol, 10.0 * self.quad_error_budget)


@dataclass(frozen=True)
class LemmaPieces:
    """Shared quadrature results for one (f, a, b, x, alpha) instance.

    Computing these once lets the full identity, its two halves, and the
    inequality left-hand side all reuse the same four integrals. The full
    identity's residual (``e1``) and the left-hand side read off it with its
    error budget (``abs_lhs``) are computed on first use and kept, so a
    sweep's residual record and rows at one point share them. ``abs_lhs``
    lives here because every fractional inequality (E6-E9) bounds this
    identity's left-hand side; ``bounds.evaluate_block`` reads it.
    """

    a: float
    b: float
    x: float
    alpha: float
    fx: float
    jm: Estimate  # operator term anchored toward a
    jp: Estimate  # operator term anchored toward b
    ia: Estimate  # moment integral of f' toward a
    ib: Estimate  # moment integral of f' toward b

    @cached_property
    def e1(self) -> IdentityResidual:
        """The full identity's ``check_e1_from_pieces``, computed once."""
        return check_e1_from_pieces(self)

    @cached_property
    def abs_lhs(self) -> Estimate:
        """|identity LHS| with its error budget: only the operator pair
        contributes quadrature error to it."""
        ga_over_width = (self.jm.error + self.jp.error) / (self.b - self.a)
        budget = math.exp(ln_gamma(self.alpha + 1.0)) * ga_over_width
        return Estimate(abs(self.e1.lhs), budget)


def compute_pieces_batch(
    jobs: Sequence[tuple[Function1D, float]],
    a: float,
    b: float,
    xs: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[list[Union[LemmaPieces, ConvergenceError]]]:
    """The identity's four integrals at every x of every (f, alpha) job.

    At each x they are the operator pair

        jm = (1/Gamma(alpha)) integral_a^x (t-a)**(alpha-1) f(t) dt,
        jp = (1/Gamma(alpha)) integral_x^b (b-t)**(alpha-1) f(t) dt,

    each |x - c|**alpha times a lane of f singular at its end c, and 0 over
    the empty interval at x = a or x = b (where the identity's prefactors
    vanish too); and ia, ib, :func:`fracineq.fracint.moment_integral` of f'
    from x toward a and toward b. Every integral is a lane of one batch, one
    lane set per integrand (f or f'), whose outcomes are scaled in one numpy
    pass, and equals its one-lane call to the bit. Returns one list per job
    with one entry per x: its pieces, or the ``ConvergenceError`` of its
    first failed integral, which leaves the other points untouched.
    """
    n = len(xs)
    for f, alpha in jobs:
        if problems := fracint._point_problems(a, b, xs, alpha):
            raise ConfigError("; ".join(problems))
        if why := fracint.domain_problem(f, a, b):
            raise DomainError(f"interval: {why}")
    ginv = [1.0 / gamma(alpha) for _, alpha in jobs]  # raises where Gamma overflows
    by_integrand: dict[int, tuple[Callable, list]] = {}  # id(h) -> (h, lanes)
    for j, (f, alpha) in enumerate(jobs):
        for i, x in enumerate(xs):
            for h, c, beta, piece in (
                (f.eval, a, alpha, 0), (f.eval, b, alpha, 1),
                (f.deriv, a, alpha + 1.0, 2), (f.deriv, b, alpha + 1.0, 3),
            ):
                if piece > 1 or x != c:  # scaled by |x - c|**alpha / Gamma(alpha), or 1
                    lane = (c, x, beta, 4 * (j * n + i) + piece,
                            *((abs(x - c) ** alpha, ginv[j]) if piece < 2 else (1.0, 1.0)))
                    by_integrand.setdefault(id(h), (h, []))[1].append(lane)
    sets = [fracint._lanes(h, *list(zip(*lanes))[:3]) for h, lanes in by_integrand.values()]
    lanes = [lane for _, group in by_integrand.values() for lane in group]

    def what(k: int) -> str:  # a failed lane's name
        c, x, _, slot, _, _ = lanes[k]
        return (f"moment integral (x={x}, base={c})" if slot % 4 > 1
                else f"weighted integral on [{min(c, x)}, {max(c, x)}]")

    got = [Estimate(0.0, 0.0)] * (4 * n * len(jobs))
    _, _, _, slots, scale, factor = zip(*lanes) if lanes else ((),) * 6
    outcomes = fracint._outcomes(
        *fracint._integrate(sets, cfg), what, np.array(scale), np.array(factor))
    for slot, outcome in zip(slots, outcomes):
        got[slot] = outcome
    fours = zip(*[iter(got)] * 4)  # per job, per x: (jm, jp, ia, ib)
    out = []
    for f, alpha in jobs:
        fx = np.asarray(f.eval(np.array(xs, dtype=float)), dtype=float).tolist()
        out.append([])
        for x, fx_x, four in zip(xs, fx, fours):
            failed = [g for g in four if isinstance(g, ConvergenceError)]
            out[-1].append(failed[0] if failed else LemmaPieces(a, b, x, alpha, fx_x, *four))
    return out


def _coefficients(p: LemmaPieces) -> tuple[float, float, float, float, float]:
    width = p.b - p.a
    ga1 = gamma(p.alpha + 1.0)
    wa = (p.x - p.a) ** p.alpha
    wb = (p.b - p.x) ** p.alpha
    ka = (p.x - p.a) ** (p.alpha + 1.0) / width
    kb = (p.b - p.x) ** (p.alpha + 1.0) / width
    return ga1, wa, wb, ka, kb


def check_e1_from_pieces(p: LemmaPieces) -> IdentityResidual:
    ga1, wa, wb, ka, kb = _coefficients(p)
    width = p.b - p.a
    lhs = (wa + wb) / width * p.fx - ga1 / width * (p.jm.value + p.jp.value)
    rhs = ka * p.ia.value - kb * p.ib.value
    budget = (
        ga1 / width * (p.jm.error + p.jp.error)
        + ka * p.ia.error
        + kb * p.ib.error
    )
    return IdentityResidual.from_sides(lhs, rhs, budget)


def check_e4_from_pieces(p: LemmaPieces) -> IdentityResidual:
    ga1, wa, _, ka, _ = _coefficients(p)
    width = p.b - p.a
    lhs = wa * p.fx / width - ga1 / width * p.jm.value
    rhs = ka * p.ia.value
    budget = ka * p.ia.error + ga1 / width * p.jm.error
    return IdentityResidual.from_sides(lhs, rhs, budget)


def check_e5_from_pieces(p: LemmaPieces) -> IdentityResidual:
    ga1, _, wb, _, kb = _coefficients(p)
    width = p.b - p.a
    lhs = -wb * p.fx / width + ga1 / width * p.jp.value
    rhs = kb * p.ib.value
    budget = kb * p.ib.error + ga1 / width * p.jp.error
    return IdentityResidual.from_sides(lhs, rhs, budget)


def check_classical_lemma(
    f: Function1D,
    a: float,
    b: float,
    x: float,
    pieces: LemmaPieces,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IdentityResidual:
    """Verify the classical (alpha = 1) identity through plain integrals.

    ``pieces``, the alpha = 1 twin's at (a, b, x), for instance one x of a
    :func:`compute_pieces_batch` job, give ``ia``, ``ib`` and the mean's
    integral over [a, x] (at alpha = 1, ``jm`` is that plain integral);
    pieces of another point are refused. The integral over [x, b] is a
    plain lane from x, which the twin's ``jp``, a lane from b, does not
    share. The result is then cross-asserted against the pieces' full
    identity (``e1``): both sides must coincide to ALPHA_ONE_MATCH_TOL
    (relative to the residual scale), and a disagreement raises rather than
    returning silently inconsistent data.
    """
    if (pieces.a, pieces.b, pieces.x, pieces.alpha) != (a, b, x, 1.0):
        raise ConfigError(
            f"twin pieces are for (a, b, x, alpha) = "
            f"{(pieces.a, pieces.b, pieces.x, pieces.alpha)!r}, "
            f"expected {(a, b, x, 1.0)!r}"
        )
    width = b - a
    fx = float(f.eval(x))
    il, ir = pieces.jm, plain_integral(f, x, b, cfg)

    lhs = fx - (il.value + ir.value) / width
    rhs = (x - a) ** 2 / width * pieces.ia.value - (b - x) ** 2 / width * pieces.ib.value
    budget = (
        (il.error + ir.error) / width
        + (x - a) ** 2 / width * pieces.ia.error
        + (b - x) ** 2 / width * pieces.ib.error
    )
    res = IdentityResidual.from_sides(lhs, rhs, budget)

    twin = pieces.e1
    tol = ALPHA_ONE_MATCH_TOL * max(res.scale, twin.scale)
    if abs(res.lhs - twin.lhs) > tol or abs(res.rhs - twin.rhs) > tol:
        raise FracIneqError(
            f"classical identity disagrees with the alpha=1 specialization "
            f"for {f.name} at x={x!r}: lhs {res.lhs!r} vs {twin.lhs!r}, "
            f"rhs {res.rhs!r} vs {twin.rhs!r}"
        )
    return res
