"""Inputs at one parameter point, built through the package's one entry
into each engine: pieces from ``compute_pieces_batch``, as one-point
``PointColumns``, a single integral as one lane of ``fracint``'s
engine (``one_lane``), and report rows from ``evaluate_block`` on one grid
row at the one point. Nothing is shared with another call unless it is
passed in."""

from __future__ import annotations

from typing import Optional

import numpy as np

from fracineq import fracint
from fracineq.bounds import (
    DEFAULT_MARGIN_TOL,
    FRACTIONAL_IDS,
    CertCache,
    GridRow,
    InequalityReport,
    Points,
    ReportRows,
    evaluate_block,
)
from fracineq.fracint import DEFAULT_QUADRATURE, Estimate, FracParams, QuadratureConfig
from fracineq.funcatalog import CatalogEntry, Function1D
from fracineq.identity import (
    IdentityResidual,
    PointColumns,
    _powers,
    check_classical,
    check_e1,
    compute_pieces_batch,
    lhs_budget,
)


def one_lane(h, start: float, end: float, beta: float, scale: float = 1.0,
             cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> Estimate:
    """scale * integral_0^1 tau**(beta-1) h(start + (end - start) tau) dtau,
    the engine's lane alone; raises its ConvergenceError. f's integral over
    [lo, hi] is ``one_lane(f, lo, hi, 1.0, hi - lo)``."""
    lanes = fracint._lanes(h, (start,), (end,), (beta,))
    value, error, failed = fracint._outcomes(
        *fracint._integrate((lanes,), cfg), lambda k: "lane", scale)
    if failed:
        raise failed[0]
    return Estimate(float(value[0]), float(error[0]))


def pieces_of(
    f: Function1D, prm: FracParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> PointColumns:
    """The identity's pieces at prm's (a, b, x, alpha), as one-point columns;
    raises their ConvergenceError."""
    cols = compute_pieces_batch(((f, prm.alpha),), prm.a, prm.b, (prm.x,), cfg)
    if cols.failed:
        raise cols.failed[0, 0]
    return cols


def point_columns(a: float, b: float, x: float, alpha: float, fx: float,
                  *pieces: Estimate) -> PointColumns:
    """One-point columns of given f(x) and pieces jm, jp, ia and ib."""
    value, error = (np.reshape([p[k] for p in pieces], (4, 1, 1)) for k in (0, 1))
    return PointColumns(a, b, (alpha,), (x,), np.array([[fx]]), value, error,
                        _powers(a, b, (alpha,), (x,)), {})


def estimates(cols: PointColumns, j: int = 0, i: int = 0) -> tuple[Estimate, ...]:
    """jm, jp, ia and ib at job j's i-th x."""
    return tuple(map(Estimate, cols.value[:, j, i].tolist(), cols.error[:, j, i].tolist()))


def e1_of(cols: PointColumns, j: int = 0, i: int = 0) -> IdentityResidual:
    """The full identity's residual at job j's i-th x."""
    return check_e1(cols).at(j, i)


def abs_lhs_of(cols: PointColumns, j: int = 0, i: int = 0) -> Estimate:
    """|identity LHS| at job j's i-th x, with its error budget."""
    return Estimate(abs(e1_of(cols, j, i).lhs), float(lhs_budget(cols)[j, i]))


def rows_at(
    theorem_id: str,
    entry: CatalogEntry,
    prm: FracParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    margin_tol: float = DEFAULT_MARGIN_TOL,
    certs: Optional[CertCache] = None,
    mean: Optional[Estimate] = None,
) -> list[InequalityReport]:
    """The theorem's rows at prm: one, or e13's hh-lower and hh-upper pair.

    M is prm's, or else the catalog bound; ``certs`` is a fresh cache and
    ``mean``, the integral over [a, b], a fresh lane unless given.
    """
    f, width = entry.func, prm.b - prm.a
    if theorem_id in FRACTIONAL_IDS:
        lhs = abs_lhs_of(pieces_of(f, prm, cfg))
    else:
        if mean is None:
            mean = one_lane(f, prm.a, prm.b, 1.0, width, cfg)
        lhs = Estimate(abs(float(f.eval(prm.x)) - mean.value / width), mean.error / width)
    points = Points((prm.alpha,), (prm.x,), np.array([lhs.value]), np.array([lhs.error]))
    M = entry.deriv_bound() if prm.M is None else prm.M
    block = evaluate_block(
        theorem_id, entry, (prm.a, prm.b), M, [GridRow(prm.s, prm.p, prm.q)],
        points, margin_tol, CertCache() if certs is None else certs, mean,
    )
    return list(ReportRows([block]))


def classical_at(f: Function1D, a: float, b: float, x: float) -> IdentityResidual:
    """``check_classical`` at x with its own one-x alpha = 1 twin pieces
    and integral over [x, b], from one batch."""
    cols = compute_pieces_batch(((f, 1.0),), a, b, (x,), plain=((f, x, b),))
    return check_classical(cols, f.name).at(0, 0)
