"""Inputs at one parameter point, built through the package's one entry
into each engine: pieces from ``compute_pieces_batch``, read as the one
point's ``LemmaPieces``, a single integral as one lane of ``fracint``'s
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
from fracineq.errors import ConvergenceError
from fracineq.fracint import DEFAULT_QUADRATURE, Estimate, FracParams, QuadratureConfig
from fracineq.funcatalog import CatalogEntry, Function1D
from fracineq.identity import (
    IdentityResidual,
    LemmaPieces,
    check_classical_lemma,
    compute_pieces_batch,
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
) -> LemmaPieces:
    """The identity's pieces at prm's (a, b, x, alpha); raises their ConvergenceError."""
    ((got,),) = compute_pieces_batch(((f, prm.alpha),), prm.a, prm.b, (prm.x,), cfg)
    if isinstance(got, ConvergenceError):
        raise got
    return got


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
        lhs = pieces_of(f, prm, cfg).abs_lhs
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
    """``check_classical_lemma`` at x with its own one-x alpha = 1 twin pieces
    and integral over [x, b], from one batch."""
    cols = compute_pieces_batch(((f, 1.0),), a, b, (x,), plain=((f, x, b),))
    return check_classical_lemma(f, a, b, x, cols[0][0], cols.plain[0])
