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
failed point's ``ConvergenceError``. Each check reads them in one numpy pass
over every point: ``check_e1`` the full identity, ``check_halves`` its two
one-sided halves (each equating one operator term with one weighted
derivative average; their residuals give r1 = r4 - r5 up to rounding), and
``check_classical`` the alpha = 1 degeneration

    f(x) - (1/(b-a)) integral_a^b f
    = ((x-a)**2/(b-a)) integral_0^1 t f'(tx+(1-t)a) dt
      - ((b-x)**2/(b-a)) integral_0^1 t f'(tx+(1-t)b) dt

with integral_a^x f and the moment integrals from the batch's alpha = 1 job,
and integral_x^b f from a plain segment of the batch. ``lhs_budget`` gives
the error budget of |LHS|, which every fractional inequality (E6-E9) bounds.
Each keeps the scalar operation order, so each value has the bits Python
floats give.

Every check reports a residual relative to max(1, |lhs|, |rhs|) so that
near-zero cases (constant f makes both sides exactly 0) keep a meaningful
PASS threshold, together with the propagated quadrature error budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fracint
from .errors import ConfigError, ConvergenceError, DomainError, FracIneqError
from .fracint import DEFAULT_QUADRATURE, Estimate, QuadratureConfig
from .funcatalog import Function1D
from .specfun import gamma, ln_gamma

__all__ = [
    "DEFAULT_IDENTITY_TOL",
    "ALPHA_ONE_MATCH_TOL",
    "IdentityResidual",
    "ResidualColumns",
    "PointColumns",
    "compute_pieces_batch",
    "check_e1",
    "check_halves",
    "check_classical",
    "lhs_budget",
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
    """PASS iff rel_residual <= max(identity_tol, 10 * quad_error_budget), of floats or
    arrays, residuals or bounds' -margins alike; a NaN budget leaves identity_tol."""
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


@dataclass(frozen=True, eq=False)
class PointColumns:
    """The identity's pieces at every (job, x) point of one batch, as columns.

    ``fx`` and each of ``value``'s and ``error``'s four rows, the pieces jm,
    jp, ia and ib, are float64 arrays over (job, x), as are the four rows of
    ``_powers`` in ``powers``. ``failed`` maps each failed point, (job, x
    index), to the ``ConvergenceError`` of its first failed piece; the
    columns hold nothing meaningful there. ``plain`` holds the integral of each
    plain segment of the batch, in its order, an ``Estimate`` or its
    ``ConvergenceError``.
    """

    a: float
    b: float
    alphas: tuple
    xs: tuple
    fx: np.ndarray
    value: np.ndarray
    error: np.ndarray
    powers: np.ndarray
    failed: dict
    plain: tuple = ()


def compute_pieces_batch(
    jobs: Sequence[tuple[Function1D, float]],
    a: float,
    b: float,
    xs: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    plain: Sequence[tuple[Function1D, float, float]] = (),
) -> PointColumns:
    """The identity's four integrals at every x of every (f, alpha) job.

    At each x they are the operator pair

        jm = (1/Gamma(alpha)) integral_a^x (t-a)**(alpha-1) f(t) dt,
        jp = (1/Gamma(alpha)) integral_x^b (b-t)**(alpha-1) f(t) dt,

    each |x - c|**alpha times a lane of f singular at its end c, and 0 over
    the empty interval at x = a or x = b (where the identity's prefactors
    vanish too); and ia, ib, the moment integrals
    integral_0^1 t**alpha f'(t x + (1-t) c) dt toward c = a and c = b, each
    a lane of beta = alpha + 1 from c to x. Each (f, lo, hi) of ``plain``
    adds the integral of f over [lo, hi], (hi - lo) times a lane of beta = 1
    from lo, and 0 where lo == hi, which runs no lane; a segment must lie in
    [a, b] and in the domain of its f, with lo <= hi. Every integral is a
    lane of one batch, one lane set per integrand (f or f'), whose outcomes
    are scaled in one numpy pass and scattered over (job, x), and equals the
    same lane integrated alone to the bit. A point whose integral fails
    takes the ``ConvergenceError`` of its first failed piece, which leaves
    the other points untouched; a failed plain integral is its own error.
    """
    for f, alpha in jobs:
        if problems := fracint._point_problems(a, b, xs, alpha):
            raise ConfigError("; ".join(problems))
        if why := fracint.domain_problem(f, a, b):
            raise DomainError(f"interval: {why}")
    for f, lo, hi in plain:
        order = None if lo <= hi else f"need lo <= hi, got [{lo!r}, {hi!r}]"
        if problems := [f"plain: {why}" for why in (fracint.x_problem(lo, a, b),
                                                    fracint.x_problem(hi, a, b), order) if why]:
            raise ConfigError("; ".join(problems))
        if why := fracint.domain_problem(f, lo, hi):
            raise DomainError(f"plain: {why}")
    alphas =tuple(alpha for _, alpha in jobs)
    ginv = np.array([1.0 / gamma(alpha) for alpha in alphas])  # raises where Gamma overflows
    powers = _powers(a, b, alphas, xs)
    # a lane per (job, x, piece), but for jm at x = a and jp at x = b, in that
    # order, then one per plain segment but for the empty ones; each lane
    # takes the set of its integrand, f for jm, jp and the segments and f'
    # for ia and ib, in order of first use
    shape = (len(jobs), len(xs), 4)
    live = np.ones(shape, dtype=bool)
    live[:, np.equal(xs, a), 0] = False
    live[:, np.equal(xs, b), 1] = False
    slot = np.flatnonzero(live)
    runs = [k for k, (_, lo, hi) in enumerate(plain) if lo != hi]
    segments = [plain[k] for k in runs]
    seg_lo, seg_hi = np.array([(lo, hi) for _, lo, hi in segments], dtype=float).reshape(-1, 2).T
    integrands: dict[int, tuple] = {}  # id(h) -> (set index, h)
    kinds = [integrands.setdefault(id(h), (len(integrands), h))[0]
             for f, _ in jobs for h in (f.eval, f.eval, f.deriv, f.deriv)]
    kinds += [integrands.setdefault(id(f.eval), (len(integrands), f.eval))[0]
              for f, _, _ in segments]
    kind = np.concatenate((np.broadcast_to(np.reshape(kinds[:4 * len(jobs)], (-1, 1, 4)),
                                           shape).ravel()[slot], kinds[4 * len(jobs):]))
    order = np.argsort(kind, kind="stable").astype(np.intp)  # the lanes, set by set

    def per_lane(per_piece, per_segment) -> np.ndarray:
        # per_piece broadcasts over (job, x, piece); the lanes in set order
        return np.concatenate((np.broadcast_to(per_piece, shape).ravel()[slot],
                               np.broadcast_to(per_segment, seg_lo.shape)))[order]

    operator = np.array([True, True, False, False])
    # jm and jp scaled by |x - c|**alpha and 1 / Gamma(alpha), a segment by
    # its width, the rest by 1
    scale = per_lane(np.where(operator, powers[[0, 1, 0, 0]].transpose(1, 2, 0), 1.0),
                     seg_hi - seg_lo)
    factor = per_lane(np.where(operator, ginv.reshape(-1, 1, 1), 1.0), 1.0)
    start = per_lane(np.array([a, b, a, b], dtype=float), seg_lo)
    end = per_lane(np.reshape(np.array(xs, dtype=float), (1, -1, 1)), seg_hi)
    beta = per_lane(np.add.outer(np.array(alphas, dtype=float), [0.0, 0.0, 1.0, 1.0])[:, None],
                    1.0)
    cuts = np.searchsorted(kind[order], np.arange(len(integrands) + 1))
    sets = [fracint._lanes(h, start[i:j], end[i:j], beta[i:j])
            for (_, h), i, j in zip(integrands.values(), cuts, cuts[1:])]

    def what(k: int) -> str:  # a failed lane's name
        if order[k] >= slot.size:
            _, lo, hi = segments[order[k] - slot.size]
            return f"weighted integral on [{lo}, {hi}]"
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
    integrals = [Estimate(0.0, 0.0)] * len(plain)
    for lane, k in enumerate(runs, slot.size):
        integrals[k] = failed.get(lane) or Estimate(float(value[lane]), float(error[lane]))
    fx = {}
    for f, _ in jobs:
        if id(f.eval) not in fx:
            fx[id(f.eval)] = np.asarray(f.eval(np.array(xs, dtype=float)), dtype=float)
    return PointColumns(
        a, b, alphas, tuple(xs), np.array([fx[id(f.eval)] for f, _ in jobs]).reshape(shape[:2]),
        values.transpose(2, 0, 1), errors.transpose(2, 0, 1), powers, first, tuple(integrals),
    )


def _weights(cols: PointColumns) -> tuple:
    """b - a, Gamma(alpha + 1) over (job, 1), (x-a)**alpha, (b-x)**alpha and
    the moment weights (x-a)**(alpha+1)/(b-a), (b-x)**(alpha+1)/(b-a)."""
    width = cols.b - cols.a
    wa, wb, pa, pb = cols.powers
    ga1 = np.array([gamma(alpha + 1.0) for alpha in cols.alphas], dtype=float).reshape(-1, 1)
    return width, ga1, wa, wb, pa / width, pb / width


def check_e1(cols: PointColumns) -> ResidualColumns:
    """The full identity's residual at every point of ``cols``, each in the
    scalar form's operation order."""
    width, ga1, wa, wb, ka, kb = _weights(cols)
    jm, jp, ia, ib = cols.value
    ejm, ejp, eia, eib = cols.error
    with np.errstate(all="ignore"):
        lhs = (wa + wb) / width * cols.fx - ga1 / width * (jm + jp)
        rhs = ka * ia - kb * ib
        budget = ga1 / width * (ejm + ejp) + ka * eia + kb * eib
    return ResidualColumns(*_residual_fields(lhs, rhs, budget))


def check_halves(cols: PointColumns) -> tuple[ResidualColumns, ResidualColumns]:
    """The residuals of the identity's half toward a and half toward b at
    every point of ``cols``, each in the scalar form's operation order."""
    width, ga1, wa, wb, ka, kb = _weights(cols)
    jm, jp, ia, ib = cols.value
    ejm, ejp, eia, eib = cols.error
    with np.errstate(all="ignore"):
        toward_a = _residual_fields(wa * cols.fx / width - ga1 / width * jm, ka * ia,
                                    ka * eia + ga1 / width * ejm)
        toward_b = _residual_fields(-wb * cols.fx / width + ga1 / width * jp, kb * ib,
                                    kb * eib + ga1 / width * ejp)
    return ResidualColumns(*toward_a), ResidualColumns(*toward_b)


def check_classical(cols: PointColumns, name: str) -> ResidualColumns:
    """The classical (alpha = 1) identity of f, named ``name``, at every x
    of ``cols``' alpha = 1 job, over (1, x), in the scalar form's operation
    order.

    The job gives f(x), ``ia``, ``ib`` and the integral over [a, x] (at
    alpha = 1, ``jm`` is that plain integral); the integral over [x, b] of
    the i-th x is ``cols.plain[i]``, a plain segment of the same batch, a
    lane from x which the job's ``jp``, a lane from b, does not share. A
    batch without an alpha = 1 job or one segment per x is refused. Each
    point whose job and segment converged is cross-asserted against the
    job's full identity (``check_e1``): both sides must coincide to
    ALPHA_ONE_MATCH_TOL (relative to the residual scale), and a disagreement
    raises rather than returning silently inconsistent data. A failed point
    holds nothing meaningful.
    """
    if 1.0 not in cols.alphas or len(cols.plain) != len(cols.xs):
        raise ConfigError(
            f"the classical identity needs an alpha = 1 job and one [x, b] segment per x, "
            f"got alphas {cols.alphas!r} and {len(cols.plain)} segments for {len(cols.xs)} x")
    j = cols.alphas.index(1.0)
    failed = np.array([(j, i) in cols.failed or isinstance(ir, ConvergenceError)
                       for i, ir in enumerate(cols.plain)], dtype=bool)
    ir, eir = np.array([(math.nan,) * 2 if bad else ir for bad, ir in zip(failed, cols.plain)],
                       dtype=float).reshape(-1, 2).T
    width, _, _, _, ka, kb = _weights(cols)
    jm, _, ia, ib = cols.value[:, j]
    ejm, _, eia, eib = cols.error[:, j]
    twin = check_e1(cols)
    with np.errstate(all="ignore"):
        res = ResidualColumns(*(np.reshape(field, (1, -1)) for field in _residual_fields(
            cols.fx[j] - (jm + ir) / width, ka[j] * ia - kb[j] * ib,
            (ejm + eir) / width + ka[j] * eia + kb[j] * eib)))
        tol = ALPHA_ONE_MATCH_TOL * np.maximum(res.scale[0], twin.scale[j])
        off = (np.abs(res.lhs[0] - twin.lhs[j]) > tol) | (np.abs(res.rhs[0] - twin.rhs[j]) > tol)
    if (disagree := np.flatnonzero(off & ~failed)).size:
        i = disagree[0]  # the first, as a check x by x would raise
        got, want = res.at(0, i), twin.at(j, i)
        raise FracIneqError(
            f"classical identity disagrees with the alpha=1 specialization "
            f"for {name} at x={cols.xs[i]!r}: lhs {got.lhs!r} vs {want.lhs!r}, "
            f"rhs {got.rhs!r} vs {want.rhs!r}"
        )
    return res


def lhs_budget(cols: PointColumns) -> np.ndarray:
    """The error budget of |identity LHS| at every point of ``cols``: only the
    operator pair contributes quadrature error to it."""
    ga = np.array([math.exp(ln_gamma(alpha + 1.0)) for alpha in cols.alphas]).reshape(-1, 1)
    with np.errstate(all="ignore"):
        return ga * ((cols.error[0] + cols.error[1]) / (cols.b - cols.a))
