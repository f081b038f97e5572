"""Weighted-endpoint (Riemann-Liouville type) integral evaluation.

The identity and bound modules consume four integrals per point, all of one
shape. The two operator terms weigh f by |t - c|**(alpha - 1), singular at
one end c of [lo, hi]; with L = hi - lo and t = c +/- L tau,

    integral_lo^hi |t - c|**(alpha-1) f(t) dt
        = L**alpha * integral_0^1 tau**(alpha-1) f(c +/- L tau) dtau.

The two moment integrals of f' are integral_0^1 tau**alpha f'(base + (x -
base) tau) dtau. So each is a lane

    integral_0^1 tau**(beta-1) h(start + (end - start) tau) dtau,

with beta = alpha for the operator terms and beta = alpha + 1 for the
moments. One substitution, tau = w**m with the integer m = max(1,
ceil(4 / beta)), removes the endpoint weight before any quadrature runs:

    integral_0^1 m w**(m beta - 1) h(start + (end - start) w**m) dw.

An integer m keeps h(... w**m) as smooth as h, and m beta - 1 >= 3 makes the
weight three times differentiable, so adaptive error estimates stay honest
for every alpha from ``MIN_ALPHA`` up.

Every evaluator runs one rule: the lane-batched adaptive Gauss-Kronrod
engine below. ``oracle`` is a reference function, not an option: a
brute-force composite midpoint sum with 1e6 panels after its own
substitution, u = (|t - c| / L)**alpha, deliberately simple and independent
of the engine's, so that tests can check the engine against it.

The engine integrates many integrals ("lanes") over [0, 1] at
once, all with numpy. Each round applies QUADPACK's 21-point Gauss-Kronrod
rule (qk21; Piessens et al., *QUADPACK*, 1983) to every new interval of
every lane in one call of the integrand, with qk21's local error estimate
``resasc * min(1, (200 |K - G| / resasc)**1.5)`` and its floor
``50 eps resabs``. A lane is done once its summed error meets
``max(abs_tol, rel_tol |I|)``; until then it bisects its worst interval and
each of its intervals whose error exceeds that tolerance times the
interval's width. There is no extrapolation (QUADPACK's qags uses Wynn's
epsilon algorithm), so endpoint singularities cost more evaluations, but
they are vectorized.
A lane that would need more than ``max_subdivisions`` intervals, whose
intervals get too narrow to bisect, or whose value or error is not finite
fails on its own, as a ``ConvergenceError`` for that lane only. A reported
error is never below one ulp of its nonzero value, the rounding the value
itself carries, even where the value is subnormal.

Lanes are independent to the bit: a lane's value and error do not depend
on which lanes share its batch. Each interval's rule is a row sum
``(fv * w).sum(axis=1)`` rather than a BLAS product, whose summation order
can change with the batch's shape; each lane's total is an ``np.bincount``
over its intervals, kept in left-to-right order; and every decision a lane
takes reads only its own numbers, its beta, m and break included. So a
one-lane call (``weighted_endpoint_integral``, ``moment_integral``) and the
same lane in the sweep's one batch (``identity.compute_pieces_batch``, one
lane set per integrand whatever the alphas) give identical results; a batch
only takes fewer rounds, as many as its slowest lane needs.

When beta is small, m is large (40,000 at alpha = 1e-4), and w**m squeezes
all of h's variation into a layer of width ~1/m at w = 1, which a first
sample of [0, 1] can miss entirely. Every lane therefore starts with a break
point at w = 1 - min(1/2, 50 / m). The engine integrates over v = 1 - w and
computes w**m as exp(m log1p(-v)): in w, the rounding of a node next to 1
(about 1e-16) moves w**m by about 1e-16 m relative, 4e-12 at m = 40,000,
far more than the error estimates; v resolves the layer to full precision.

Integrands are always called with numpy arrays, of shape (intervals, 21)
in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyIntervalError,
)

__all__ = [
    "Estimate",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "MIN_ALPHA",
    "MAX_ALPHA",
    "FracParams",
    "weighted_endpoint_integral",
    "plain_integral",
    "moment_integral",
    "oracle",
]

_ORACLE_PANELS = 1_000_000


class Estimate(NamedTuple):
    """A quadrature value together with its absolute error estimate."""

    value: float
    error: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

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
        if problems:
            raise ConfigError("; ".join(problems))


DEFAULT_QUADRATURE = QuadratureConfig()

#: Conjugacy slack for Hoelder exponent pairs.
CONJUGACY_TOL = 1e-12

#: Largest accepted alpha. Gamma(alpha + 1) is finite up to alpha ~ 170.6,
#: but near this limit the identity and bound sides shrink to ~1e-50, far
#: below every tolerance, so the checks are vacuous (ROADMAP item 4(a)).
MAX_ALPHA = 140.0

#: Smallest accepted alpha. From ~1e-307 down, the lanes' factor m = ceil(4 /
#: beta) is so large that their values and error estimates stop being finite.
MIN_ALPHA = 1e-300


def too_narrow(a: float, b: float, alpha: float) -> Optional[str]:
    """Why [a, b] is too narrow to check at alpha (a classical bound's is 1),
    or None: where the identity's scale (b - a)**(alpha + 1) is subnormal,
    its sides turn to roundoff or NaN and budgets ~ 1 / (b - a) excuse any."""
    if b - a < 1.0 and (b - a) ** (alpha + 1.0) < _UFLOW:
        return (f"[{a!r}, {b!r}] is too narrow to check at alpha={alpha!r}: "
                "(b - a)**(alpha + 1) underflows")
    return None


# The accepted domain, one rule per parameter axis. Each rule returns what is
# wrong with a value, or None; every check reads them, and puts its own name
# for the value in front ("alpha: ...", "alphas: ..."). NaN fails every rule.


def interval_problem(a: float, b: float) -> Optional[str]:
    return None if a < b else f"need a < b, got [{a!r}, {b!r}]"


def x_problem(x: float, a: float, b: float) -> Optional[str]:
    return None if a <= x <= b else f"must lie in [{a!r}, {b!r}], got {x!r}"


def alpha_problem(alpha: float, top: float = MAX_ALPHA) -> Optional[str]:
    ok = MIN_ALPHA <= alpha <= top  # the evaluators take top = inf
    return None if ok else f"must lie in [{MIN_ALPHA:g}, {top:g}], got {alpha!r}"


def s_problem(s: float) -> Optional[str]:
    return None if 0.0 < s <= 1.0 else f"must lie in (0, 1], got {s!r}"


def pq_problem(p: Optional[float], q: Optional[float]) -> Optional[str]:
    """p and q must be Hoelder-conjugate; a missing one is left to be the
    other's conjugate, so a lone q = inf, whose conjugate is p = 1, is
    refused. q is checked before 1 / q is taken."""
    ok = (p is None or p > 1.0) and (q is None or 1.0 <= q < math.inf)
    if ok and p is not None and q is not None:
        ok = abs(1.0 / p + 1.0 / q - 1.0) <= CONJUGACY_TOL
    return None if ok else (
        f"({p!r}, {q!r}) is not a conjugate pair (p > 1, q >= 1, 1/p + 1/q = 1)")


def m_problem(M: float) -> Optional[str]:
    return None if 0.0 <= M < math.inf else f"must be nonnegative and finite, got {M!r}"


def domain_problem(f, a: float, b: float) -> Optional[str]:
    """[a, b] must lie in the domain of f, a ``funcatalog.Function1D``: a
    catalog bound such as M, and its certificates, hold there only."""
    return (f"[{a!r}, {b!r}] is outside the domain of {f.name} "
            f"([{f.domain_lo!r}, {f.domain_hi!r}])") if f.outside(a, b) else None


def _point_problems(a: float, b: float, xs: Sequence[float], alpha: float) -> list[str]:
    """The problems of [a, b], each x of xs and alpha, named as FracParams'."""
    bad_interval = interval_problem(a, b)
    problems = [f"interval: {bad_interval}"] if bad_interval else [
        f"x: {why}" for x in xs if (why := x_problem(x, a, b))]
    if why := alpha_problem(alpha):
        problems.append(f"alpha: {why}")
    elif not bad_interval and (why := too_narrow(a, b, alpha)):
        problems.append(f"interval: {why}")
    return problems


# slotted: each report row read from a bounds.RowBlock builds one
@dataclass(frozen=True, slots=True)
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
        problems = _point_problems(self.a, self.b, (self.x,), self.alpha) + [
            f"{name}: {why}" for name, why in (
                ("s", s_problem(self.s)), ("p, q", pq_problem(self.p, self.q)),
                ("M", self.M is not None and m_problem(self.M))) if why]
        if problems:
            raise ConfigError("; ".join(problems))


# QUADPACK's qk21: the 21-point Kronrod extension of the 10-point Gauss rule
# on [-1, 1], nodes ascending; the Gauss weights sit on every other node.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525478106,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
    0.0,
)
_NODES = np.array([-v for v in _XGK[:10]] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK[:10] + _WGK[::-1])
_GAUSS = np.array(_WG[:10] + _WG[::-1])
_EPS = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
_BELOW_MAX = np.nextafter(np.finfo(float).max, 0.0)  # math.ulp's gap at the largest float


@dataclass(frozen=True)
class _LaneSet:
    """Integrals over v in [0, 1] sharing one integrand.

    ``fn(lane, v)`` evaluates lane ``lane[i]``'s integrand at the nodes
    ``v[i]`` (one row per interval); lane k starts with a break at
    ``brk[k]``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    size: int
    brk: np.ndarray


def _lanes(
    h: Callable, start: Sequence[float], end: Sequence[float], beta: Sequence[float]
) -> _LaneSet:
    """integral_0^1 tau**(beta-1) h(start + (end - start) tau) dtau, one lane
    per (start, end, beta), through tau = w**m over v = 1 - w."""
    start_ = np.array(start, dtype=float)
    end_ = np.array(end, dtype=float)
    beta_ = np.array(beta, dtype=float)
    m = np.maximum(1.0, np.ceil(4.0 / beta_))
    power = m * beta_ - 1.0
    step = end_ - start_
    lo = np.minimum(start_, end_)
    hi = np.maximum(start_, end_)

    def fn(lane: np.ndarray, v: np.ndarray) -> np.ndarray:
        # w**m through log1p, so that v keeps its full precision; rounding in
        # t can overshoot the segment by one ulp, which turns fractional
        # powers of (t - lo) into NaN, so clamp
        log_w = np.log1p(-v)
        m_ = m[lane, None]
        t = start_[lane, None] + step[lane, None] * np.exp(m_ * log_w)
        t = np.clip(t, lo[lane, None], hi[lane, None])
        return m_ * np.exp(power[lane, None] * log_w) * h(t)

    # the break resolves the layer at w = 1 (see the module docstring)
    return _LaneSet(fn, len(start_), np.minimum(0.5, 50.0 / m))


def _qk21(fn: Callable, lane: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """qk21's value and local error on each interval [lo[i], hi[i]]."""
    hl = 0.5 * (hi - lo)
    fv = fn(lane, (0.5 * (lo + hi))[:, None] + hl[:, None] * _NODES)
    # non-finite values propagate to the lane's total, which then fails
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resk = (fv * _KRONROD).sum(axis=1)
        resg = (fv * _GAUSS).sum(axis=1)
        resabs = (np.abs(fv) * _KRONROD).sum(axis=1) * hl
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KRONROD).sum(axis=1) * hl
        err = np.abs((resk - resg) * hl)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        err = np.where(
            resabs > _UFLOW / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err
        )
        return resk * hl, err


def _integrate(
    sets: Sequence[_LaneSet], cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray, list[Optional[str]]]:
    """Adaptive qk21 over [0, 1] for every lane of every set, batched.

    Returns each lane's value, error estimate and failure reason (None when
    the lane converged); lanes are numbered through the sets in order.

    Two invariants keep the integrand's dispatch O(intervals + sets) per
    round, however many sets share the batch. The intervals stay sorted by
    lane: done lanes are dropped in order and each split interval is
    replaced in place by its two halves. The fresh halves are evaluated in
    ascending index order. So in both calls of the integrand each set's
    intervals are one contiguous slice, found by ``np.searchsorted``. Each
    interval's value depends on its own row only, never on its position.
    """
    offsets = np.cumsum([0] + [s.size for s in sets])
    n = int(offsets[-1])
    # every lane starts as [0, brk] and [brk, 1], its own break
    brk = np.concatenate([np.zeros(0), *(s.brk for s in sets)])
    lane = np.repeat(np.arange(n), 2)
    lo = np.stack((np.zeros(n), brk), axis=1).ravel()
    hi = np.stack((brk, np.ones(n)), axis=1).ravel()

    def fn(lane: np.ndarray, u: np.ndarray) -> np.ndarray:
        # lane ascends, so each set's rows are one slice
        fv = np.empty(u.shape)
        cuts = np.searchsorted(lane, offsets)
        for s, off, i, j in zip(sets, offsets, cuts, cuts[1:]):
            if i < j:
                fv[i:j] = s.fn(lane[i:j] - off, u[i:j])
        return fv

    value = np.zeros(n)
    error = np.zeros(n)
    why: list[Optional[str]] = [None] * n
    r, e = np.empty(lane.size), np.empty(lane.size)
    fresh = np.arange(lane.size)  # the intervals the rule has not seen yet
    while lane.size:
        r[fresh], e[fresh] = _qk21(fn, lane[fresh], lo[fresh], hi[fresh])
        # per-lane sums in each lane's own left-to-right interval order
        tot = np.bincount(lane, weights=r, minlength=n)
        err = np.bincount(lane, weights=e, minlength=n)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(tot))
        finite = np.isfinite(tot) & np.isfinite(err)
        unmet = finite & (err > tol)
        # bisect the intervals whose error exceeds their share of the
        # tolerance, and always the worst one, so every round makes progress
        worst = np.zeros(n)
        with np.errstate(invalid="ignore"):
            np.maximum.at(worst, lane, e)
        mid = 0.5 * (lo + hi)
        split = unmet[lane] & ((e > tol[lane] * (hi - lo)) | (e == worst[lane]))
        count = np.bincount(lane, minlength=n)
        over = count + np.bincount(lane[split], minlength=n) > cfg.max_subdivisions
        narrow = np.bincount(lane[split & ~((lo < mid) & (mid < hi))], minlength=n) > 0
        go_on = unmet & ~over & ~narrow
        done = np.flatnonzero((count > 0) & ~go_on)
        value[done], error[done] = tot[done], err[done]
        for k in done[~finite[done] | unmet[done]].tolist():
            why[k] = "gave a value or error estimate that is not finite" if not finite[k] else (
                f"did not converge within {cfg.max_subdivisions} subdivisions" if over[k]
                else "ran into intervals too narrow to bisect"
            ) + f" (error {err[k]:.3e} > tolerance {tol[k]:.3e})"
        keep = go_on[lane]
        lane, lo, hi, mid, r, e, split = (
            v[keep] for v in (lane, lo, hi, mid, r, e, split)
        )
        # each split interval is replaced in place by its two halves
        reps = 1 + split
        idx = np.repeat(np.arange(lane.size), reps)
        first = (np.cumsum(reps) - reps)[split]
        lane, lo, hi, r, e = (v[idx] for v in (lane, lo, hi, r, e))
        hi[first] = mid[split]
        lo[first + 1] = mid[split]
        fresh = np.sort(np.concatenate((first, first + 1)))
    return value, error, why


def _scaled(scale, value: np.ndarray, error: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scale * (value, error), the error of a nonzero value floored at its
    rounding, one ``math.ulp``, as Python's ``max(error, ulp)`` floors it."""
    value, error = scale * value, scale * error
    size = np.abs(value)
    ulp = np.where(np.isfinite(value), np.spacing(np.minimum(size, _BELOW_MAX)), size)
    return value, np.where((value != 0.0) & (ulp > error), ulp, error)


def _outcomes(value: np.ndarray, error: np.ndarray, why: Sequence[Optional[str]],
              what: Callable[[int], str], scale=1.0, factor=1.0):
    """Each lane's value and error as float64 arrays, ``_scaled`` by scale
    and then by factor, and each failed lane k's ``ConvergenceError`` by k,
    named ``what(k)`` and scaled by scale alone."""
    with np.errstate(all="ignore"):  # IEEE results without warnings, as in Python
        value, error = _scaled(scale, value, error)
        failed = {k: ConvergenceError(f"{what(k)}: adaptive quadrature {reason}",
                                      estimate=value[k], error_bound=error[k])
                  for k, reason in enumerate(why) if reason is not None}
        value, error = _scaled(factor, value, error)
    return value, error, failed


def _one_lane(
    lanes: _LaneSet, cfg: QuadratureConfig, what: str, scale: float = 1.0
) -> Estimate:
    """A single lane, scaled; raises its ConvergenceError."""
    value, error, failed = _outcomes(*_integrate((lanes,), cfg), lambda k: what, scale)
    if failed:
        raise failed[0]
    return Estimate(*value.tolist(), *error.tolist())


def _ends(lo: float, hi: float, singular: str) -> tuple[float, float]:
    """(c, the other end) for the singular end c."""
    if singular not in ("lo", "hi"):
        raise ConfigError(f"singular must be 'lo' or 'hi', got {singular!r}")
    return (lo, hi) if singular == "lo" else (hi, lo)


def _check_alpha(alpha: float) -> None:
    # the evaluators also take alpha above MAX_ALPHA
    if why := alpha_problem(alpha, math.inf):
        raise DomainError(f"alpha: {why}")


def weighted_endpoint_integral(
    f: Callable,
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
        (the engine calls it with arrays) and act elementwise.
    lo, hi : float
        Integration interval, lo < hi.
    alpha : float
        Weight exponent shift; the weight is |t - c|**(alpha - 1), alpha > 0.
    singular : {'lo', 'hi'}
        Which endpoint carries the singular weight (c = lo or c = hi).
    cfg : QuadratureConfig
        Tolerances and subdivision budget.

    Returns
    -------
    Estimate
        Value and the engine's absolute error estimate.
    """
    _check_alpha(alpha)
    if not lo < hi:
        raise EmptyIntervalError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    start, end = _ends(lo, hi, singular)
    lanes = _lanes(f, (start,), (end,), (alpha,))
    return _one_lane(lanes, cfg, f"weighted integral on [{lo}, {hi}]", (hi - lo) ** alpha)


def plain_integral(
    f: Callable,
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Ordinary integral of f over [lo, hi] (degenerate intervals give 0)."""
    if lo == hi:
        return Estimate(0.0, 0.0)
    if lo > hi:
        raise EmptyIntervalError(f"need lo <= hi, got [{lo!r}, {hi!r}]")
    # at alpha = 1 the weight is 1; the lane's tau = w**4 only spaces the
    # nodes more densely toward lo
    return weighted_endpoint_integral(f, lo, hi, 1.0, "lo", cfg)


def moment_integral(
    deriv: Callable,
    x: float,
    base: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> Estimate:
    """Evaluate integral_0^1 t**alpha * deriv(t*x + (1-t)*base) dt.

    This is the module's lane with beta = alpha + 1, running from base to x.
    """
    _check_alpha(alpha)
    lanes = _lanes(deriv, (base,), (x,), (alpha + 1.0,))
    return _one_lane(lanes, cfg, f"moment integral (x={x}, base={base})")


def oracle(
    f: Callable,
    lo: float,
    hi: float,
    alpha: float,
    singular: str = "hi",
    panels: int = _ORACLE_PANELS,
) -> float:
    """Brute-force midpoint evaluation of the weighted integral.

    Substitutes u = (|t - c| / L)**alpha, which the engine does not, so that
    the integral becomes (L**alpha / alpha) integral_0^1 f(t(u)) du, then
    applies a fixed composite midpoint rule with ``panels`` panels and no
    adaptivity whatsoever. Intended purely as an independent cross-check;
    f must accept numpy arrays.
    """
    if panels < 2:
        raise ConfigError(f"panels must be >= 2, got {panels!r}")
    _check_alpha(alpha)
    if not lo < hi:
        raise EmptyIntervalError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    c, end = _ends(lo, hi, singular)
    # the midpoints of v = 1 - u; u**(1/alpha) through log1p keeps v's precision
    v = (np.arange(panels, dtype=float) + 0.5) / panels
    t = np.clip(c + (end - c) * np.exp(np.log1p(-v) / alpha), lo, hi)
    return (hi - lo) ** alpha / alpha * float(np.mean(f(t)))
