"""Inputs at one parameter point, built through the package's one entry
into each engine: pieces from ``compute_pieces_batch``, read as the one
point's ``LemmaPieces``, the integral mean from ``plain_integral``, and
report rows from ``evaluate_block`` on one grid row at the one point. Nothing is shared with another call unless it is
passed in."""

from __future__ import annotations

from typing import Optional

import numpy as np

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
from fracineq.fracint import (
    DEFAULT_QUADRATURE,
    Estimate,
    FracParams,
    QuadratureConfig,
    plain_integral,
)
from fracineq.funcatalog import CatalogEntry, Function1D
from fracineq.identity import (
    IdentityResidual,
    LemmaPieces,
    check_classical_lemma,
    compute_pieces_batch,
)


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
    ``mean`` a fresh ``plain_integral`` unless given.
    """
    points = Points((prm.alpha,), (prm.x,))
    if theorem_id in FRACTIONAL_IDS:
        lhs = pieces_of(entry.func, prm, cfg).abs_lhs
        points = Points((prm.alpha,), (prm.x,), np.array([lhs.value]), np.array([lhs.error]))
    elif mean is None:
        mean = plain_integral(entry.func, prm.a, prm.b, cfg)
    M = entry.deriv_bound() if prm.M is None else prm.M
    block = evaluate_block(
        theorem_id, entry, (prm.a, prm.b), M, [GridRow(prm.s, prm.p, prm.q)],
        points, margin_tol, CertCache() if certs is None else certs, mean,
    )
    return list(ReportRows([block]))


def classical_at(f: Function1D, a: float, b: float, x: float) -> IdentityResidual:
    """``check_classical_lemma`` at x with its own one-x alpha = 1 twin pieces."""
    return check_classical_lemma(f, a, b, x, pieces_of(f, FracParams(a, b, x, 1.0)))
