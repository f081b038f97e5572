"""Numerical verification of the package's central integral identity.

The identity under test equates a pointwise/operator combination with a pair
of weighted derivative averages: with Jm, Jp the operator pair of
:func:`compute_pieces_batch`,

    ((x-a)**alpha + (b-x)**alpha) / (b-a) * f(x)
        - Gamma(alpha+1)/(b-a) * (Jm + Jp)
    =   ((x-a)**(alpha+1) / (b-a)) * integral_0^1 t**alpha f'(t x + (1-t) a) dt
      - ((b-x)**(alpha+1) / (b-a)) * integral_0^1 t**alpha f'(t x + (1-t) b) dt.

``compute_pieces_batch`` gives the pieces of every (f, alpha, x) point of a
batch as a ``PointColumns``: float64 arrays over (job, x) of f(x), of each
integral's value and error, and of the identity's per-point powers, with each
failed point's ``ConvergenceError``. ``check_e1`` checks the full identity at
every point in one numpy pass, and ``lhs_budget`` gives the error budget of
|LHS|, which every fractional inequality (E6-E9) bounds. Both keep the
scalar operation order, so each value has the bits Python floats give; a
one-point ``LemmaPieces`` reads its ``e1`` and ``abs_lhs`` off them too.
``check_e4_from_pieces`` and ``check_e5_from_pieces`` check the identity's
two one-sided halves at one point (each equating one operator term with one
weighted derivative average; their residuals give r1 = r4 - r5 up to
rounding), and ``check_classical_lemma`` the alpha = 1 degeneration

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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import fracint
from .errors import ConfigError, DomainError, FracIneqError
from .fracint import DEFAULT_QUADRATURE, Estimate, QuadratureConfig, plain_integral
from .funcatalog import Function1D
from .specfun import gamma, ln_gamma

__all__ = [
    "DEFAULT_IDENTITY_TOL",
    "ALPHA_ONE_MATCH_TOL",
    "IdentityResidual",
    "ResidualColumns",
    "PointColumns",
    "LemmaPieces",
    "compute_pieces_batch",
    "check_e1",
    "lhs_budget",
    "check_e4_from_pieces",
    "check_e5_from_pieces",
    "check_classical_lemma",
]

#: Default PASS threshold for relative residuals.
DEFAULT_IDENTITY_TOL = 1e-8

#: Agreement required between the alpha = 1 identity and its classical twin.
ALPHA_ONE_MATCH_TOL = 1e-12


@np.errstate(all="ignore")  # IEEE results without warnings, as in Python
def _residual_fields(lhs, rhs, abs_error) -> tuple:
    """``IdentityResidual``'s fields, of floats or float64 arrays alike; the
    scale max(1, |lhs|, |rhs|) passes over a NaN side, as Python's max does."""
    scale = np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))
    residual = lhs - rhs
    return lhs, rhs, residual, scale, np.abs(residual) / scale, abs_error / scale


@np.errstate(all="ignore")
def _passes(rel_residual, quad_error_budget, identity_tol):
    """PASS iff rel_residual <= max(identity_tol, 10 * quad_error_budget), of
    floats or arrays alike; a NaN budget leaves identity_tol, as in Python."""
    return rel_residual <= np.fmax(identity_tol, 10.0 * quad_error_budget)


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
        return cls(*map(float, _residual_fields(lhs, rhs, abs_error)))

    def passes(self, identity_tol: float = DEFAULT_IDENTITY_TOL) -> bool:
        """PASS iff rel_residual <= max(identity_tol, 10 * quad_error_budget)."""
        return bool(_passes(self.rel_residual, self.quad_error_budget, identity_tol))


class ResidualColumns(NamedTuple):
    """``IdentityResidual``'s fields at every point of a ``PointColumns``, as
    float64 arrays over (job, x)."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    rel_residual: np.ndarray
    quad_error_budget: np.ndarray

    def passes(self, identity_tol: float = DEFAULT_IDENTITY_TOL) -> np.ndarray:
        """``IdentityResidual.passes`` at every point."""
        return _passes(self.rel_residual, self.quad_error_budget, identity_tol)

    def at(self, j: int, i: int) -> IdentityResidual:
        """Job j's residual at its i-th x."""
        return IdentityResidual(*(float(column[j, i]) for column in self))


def _powers(a: float, b: float, alphas: Sequence[float], xs: Sequence[float]) -> np.ndarray:
    """(x-a)**alpha, (b-x)**alpha, (x-a)**(alpha+1) and (b-x)**(alpha+1) over
    (job, x), taken once each by Python's ``**`` (``np.power`` rounds
    differently). The first two are also the operator lanes' |x - c|**alpha."""
    return np.array([[((x - a) ** alpha, (b - x) ** alpha,
                       (x - a) ** (alpha + 1.0), (b - x) ** (alpha + 1.0)) for x in xs]
                     for alpha in alphas], dtype=float).reshape(len(alphas), len(xs), 4
                                                                ).transpose(2, 0, 1)


class PointColumns(Sequence):
    """The identity's pieces at every (job, x) point of one batch, as columns.

    ``fx`` and each of ``value``'s and ``error``'s four rows, the pieces jm,
    jp, ia and ib, are float64 arrays over (job, x), as are the four rows of
    ``_powers`` in ``powers``. ``failed`` maps each failed point, (job, x
    index), to the ``ConvergenceError`` of its first failed piece; the
    columns hold nothing meaningful there. ``plain`` holds the batch's plain
    integrals, each an ``Estimate`` or its ``ConvergenceError``. It reads as
    one list per job with one entry per x: the point's ``LemmaPieces``, built
    when read, or its error.
    """

    def __init__(self, a: float, b: float, alphas: tuple, xs: tuple, fx: np.ndarray,
                 value: np.ndarray, error: np.ndarray, powers: np.ndarray, failed: dict,
                 plain: tuple = ()):
        self.a, self.b, self.alphas, self.xs, self.fx = a, b, alphas, xs, fx
        self.value, self.error, self.powers, self.failed, self.plain = (
            value, error, powers, failed, plain)

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(len(self))[j]]
        j = range(len(self))[j]
        fx = self.fx[j].tolist()
        pieces = [list(map(Estimate, v, e)) for v, e in
                  zip(self.value[:, j].tolist(), self.error[:, j].tolist())]
        return [self.failed.get((j, i)) or LemmaPieces(self.a, self.b, x, self.alphas[j], fx[i],
                                                       *(piece[i] for piece in pieces))
                for i, x in enumerate(self.xs)]


@dataclass(frozen=True)
class LemmaPieces:
    """One (f, a, b, x, alpha) point's pieces, as a ``PointColumns`` reads it.

    ``e1``, the full identity's residual, and ``abs_lhs``, its left-hand side
    with that side's error budget, are ``check_e1`` and ``lhs_budget`` on a
    one-point ``PointColumns`` of these pieces, computed on first use.
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
    def _columns(self) -> PointColumns:
        pieces = (self.jm, self.jp, self.ia, self.ib)
        return PointColumns(
            self.a, self.b, (self.alpha,), (self.x,), np.array([[self.fx]], dtype=float),
            *(np.array([[[g[k]] for g in pieces]], dtype=float).reshape(4, 1, 1) for k in (0, 1)),
            _powers(self.a, self.b, (self.alpha,), (self.x,)), {},
        )

    @cached_property
    def e1(self) -> IdentityResidual:
        """The full identity's residual here."""
        return check_e1(self._columns).at(0, 0)

    @cached_property
    def abs_lhs(self) -> Estimate:
        """|identity LHS| with its error budget."""
        return Estimate(abs(self.e1.lhs), float(lhs_budget(self._columns)[0, 0]))


def compute_pieces_batch(
    jobs: Sequence[tuple[Function1D, float]],
    a: float,
    b: float,
    xs: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    plain: Sequence[Function1D] = (),
) -> PointColumns:
    """The identity's four integrals at every x of every (f, alpha) job.

    At each x they are the operator pair

        jm = (1/Gamma(alpha)) integral_a^x (t-a)**(alpha-1) f(t) dt,
        jp = (1/Gamma(alpha)) integral_x^b (b-t)**(alpha-1) f(t) dt,

    each |x - c|**alpha times a lane of f singular at its end c, and 0 over
    the empty interval at x = a or x = b (where the identity's prefactors
    vanish too); and ia, ib, :func:`fracineq.fracint.moment_integral` of f'
    from x toward a and toward b. Each function of ``plain`` adds its
    integral over [a, b], :func:`fracineq.fracint.plain_integral`, as a
    plain lane. Every integral is a lane of one batch, one lane set per
    integrand (f or f'), whose outcomes are scaled in one numpy pass and
    scattered over (job, x), and equals its one-lane call to the bit. A
    point whose integral fails takes the ``ConvergenceError`` of its first
    failed piece, which leaves the other points untouched.
    """
    for f, alpha in jobs:
        if problems := fracint._point_problems(a, b, xs, alpha):
            raise ConfigError("; ".join(problems))
        if why := fracint.domain_problem(f, a, b):
            raise DomainError(f"interval: {why}")
    alphas = tuple(alpha for _, alpha in jobs)
    ginv = np.array([1.0 / gamma(alpha) for alpha in alphas])  # raises where Gamma overflows
    powers = _powers(a, b, alphas, xs)
    # a lane per (job, x, piece), but for jm at x = a and jp at x = b, in that
    # order, then one per plain integral; each lane takes the set of its
    # integrand, f for jm and jp and f' for ia and ib, in order of first use
    shape = (len(jobs), len(xs), 4)
    live = np.ones(shape, dtype=bool)
    live[:, np.equal(xs, a), 0] = False
    live[:, np.equal(xs, b), 1] = False
    slot = np.flatnonzero(live)
    integrands: dict[int, tuple] = {}  # id(h) -> (set index, h)
    kinds = [integrands.setdefault(id(h), (len(integrands), h))[0]
             for f, _ in jobs for h in (f.eval, f.eval, f.deriv, f.deriv)]
    kinds += [integrands.setdefault(id(f.eval), (len(integrands), f.eval))[0] for f in plain]
    kind = np.concatenate((np.broadcast_to(np.reshape(kinds[:4 * len(jobs)], (-1, 1, 4)),
                                           shape).ravel()[slot], kinds[4 * len(jobs):]))
    order = np.argsort(kind, kind="stable").astype(np.intp)  # the lanes, set by set

    def per_lane(per_piece, per_plain) -> np.ndarray:
        # per_piece broadcasts over (job, x, piece); the lanes in set order
        return np.concatenate((np.broadcast_to(per_piece, shape).ravel()[slot],
                               np.asarray(per_plain, dtype=float)))[order]

    operator = np.array([True, True, False, False])
    # jm and jp scaled by |x - c|**alpha and 1 / Gamma(alpha), the rest by 1
    scale = per_lane(np.where(operator, powers[[0, 1, 0, 0]].transpose(1, 2, 0), 1.0),
                     [(b - a) ** 1.0] * len(plain))
    factor = per_lane(np.where(operator, ginv.reshape(-1, 1, 1), 1.0), [1.0] * len(plain))
    start = per_lane(np.array([a, b, a, b], dtype=float), [a] * len(plain))
    end = per_lane(np.reshape(np.array(xs, dtype=float), (1, -1, 1)), [b] * len(plain))
    beta = per_lane(np.add.outer(np.array(alphas, dtype=float), [0.0, 0.0, 1.0, 1.0])[:, None],
                    [1.0] * len(plain))
    cuts = np.searchsorted(kind[order], np.arange(len(integrands) + 1))
    sets = [fracint._lanes(h, start[i:j], end[i:j], beta[i:j])
            for (_, h), i, j in zip(integrands.values(), cuts, cuts[1:])]

    def what(k: int) -> str:  # a failed lane's name
        if order[k] >= slot.size:
            return f"weighted integral on [{a}, {b}]"
        _, i, piece = np.unravel_index(slot[order[k]], shape)
        c, x = (a, b)[piece % 2], xs[i]
        return (f"moment integral (x={x}, base={c})" if piece > 1
                else f"weighted integral on [{min(c, x)}, {max(c, x)}]")

    got, got_error, failed = fracint._outcomes(
        *fracint._integrate(sets, cfg), what, scale, factor)
    value, error = np.empty(order.size), np.empty(order.size)  # in lane order
    value[order], error[order] = got, got_error
    values, errors = np.zeros(shape), np.zeros(shape)  # an empty interval's 0
    values.ravel()[slot], errors.ravel()[slot] = value[:slot.size], error[:slot.size]
    failed = {int(order[k]): err for k, err in failed.items()}
    first: dict = {}  # each point's first failed piece
    for lane in sorted(lane for lane in failed if lane < slot.size):
        j, i, _ = np.unravel_index(slot[lane], shape)
        first.setdefault((int(j), int(i)), failed[lane])
    means = tuple(failed.get(lane) or Estimate(float(value[lane]), float(error[lane]))
                  for lane in range(slot.size, order.size))
    fx = {}
    for f, _ in jobs:
        if id(f.eval) not in fx:
            fx[id(f.eval)] = np.asarray(f.eval(np.array(xs, dtype=float)), dtype=float)
    return PointColumns(
        a, b, alphas, tuple(xs), np.array([fx[id(f.eval)] for f, _ in jobs]).reshape(shape[:2]),
        values.transpose(2, 0, 1), errors.transpose(2, 0, 1), powers, first, means,
    )


def check_e1(cols: PointColumns) -> ResidualColumns:
    """The full identity's residual at every point of ``cols``, each in the
    scalar form's operation order."""
    width = cols.b - cols.a
    wa, wb, pa, pb = cols.powers
    ka, kb = pa / width, pb / width
    ga1 = np.array([gamma(alpha + 1.0) for alpha in cols.alphas], dtype=float).reshape(-1, 1)
    jm, jp, ia, ib = cols.value
    ejm, ejp, eia, eib = cols.error
    with np.errstate(all="ignore"):
        lhs = (wa + wb) / width * cols.fx - ga1 / width * (jm + jp)
        rhs = ka * ia - kb * ib
        budget = ga1 / width * (ejm + ejp) + ka * eia + kb * eib
    return ResidualColumns(*_residual_fields(lhs, rhs, budget))


def lhs_budget(cols: PointColumns) -> np.ndarray:
    """The error budget of |identity LHS| at every point of ``cols``: only the
    operator pair contributes quadrature error to it."""
    ga = np.array([math.exp(ln_gamma(alpha + 1.0)) for alpha in cols.alphas]).reshape(-1, 1)
    with np.errstate(all="ignore"):
        return ga * ((cols.error[0] + cols.error[1]) / (cols.b - cols.a))


def _coefficients(p: LemmaPieces) -> tuple[float, float, float, float, float]:
    width = p.b - p.a
    ga1 = gamma(p.alpha + 1.0)
    wa = (p.x - p.a) ** p.alpha
    wb = (p.b - p.x) ** p.alpha
    ka = (p.x - p.a) ** (p.alpha + 1.0) / width
    kb = (p.b - p.x) ** (p.alpha + 1.0) / width
    return ga1, wa, wb, ka, kb


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
