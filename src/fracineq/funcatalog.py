"""Differentiable test functions plus sampled hypothesis certification.

The catalog supplies the subjects every inequality is evaluated on: each
entry carries an exact closed-form derivative (numerical differentiation
would contaminate identity residuals), the s values under which its
hypothesis certificates are known to pass, and an analytic derivative bound.

Certification is deliberately not symbolic. ``certify_batch`` samples the
defining inequality of s-convexity (second sense),

    g(lam*u + (1-lam)*v) <= lam**s * g(u) + (1-lam)**s * g(v),

on a dense (u, v, lam) grid and records the worst violation; s-concavity is
the reversed inequality. The grid is built once per domain. Only the first
half of the mirror lam grid is used, which changes no certificate, and its
17 x 33 x 33 cells hold few distinct points (1,025 on [0, 1], where each is
a multiple of 1/1024). The target g (f, |f'| or |f'|**q) is sampled once per
(function, target, q), at u and at those distinct points, and each cell
reads its point's value: exact, as a ``Function1D`` is elementwise. A
certificate is a function of that sample, reduced for every requested s
and mode, so a sweep's ``bounds.CertCache`` runs one pass per distinct
sample: |f'|**q of a constant f, say, has one sample at every q.

Each s's bound lam**s * g(u) + (1-lam)**s * g(v) is the K = 2 matrix product
[t1, 1] @ [1, t2], which is exact: a product by 1.0 is exact, and a sum of
two terms is rounded once, in either order, with or without FMA. The product
sums from +0.0, so cells whose two terms are both -0.0 (only f can have them)
are set back to -0.0: every certificate has the broadcast sum's bits.

A certificate is a statement about a finite grid, which is exactly the
strength needed to gate empirical inequality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CertificateError, ConfigError, DomainError
from .fracint import interval_problem, m_problem, pq_problem, s_problem, tol_problem

__all__ = [
    "MODE_CONVEX",
    "MODE_CONCAVE",
    "TARGET_F",
    "TARGET_FPRIME",
    "TARGET_FPRIME_POW",
    "Function1D",
    "ConvexityCertificate",
    "CatalogEntry",
    "certify_batch",
    "builtin_catalog",
    "get_entry",
    "catalog_names",
]

MODE_CONVEX = "s-convex"
MODE_CONCAVE = "s-concave"

TARGET_F = "f"
TARGET_FPRIME = "|f'|"
TARGET_FPRIME_POW = "|f'|^q"

_MODES = (MODE_CONVEX, MODE_CONCAVE)
_TARGETS = (TARGET_F, TARGET_FPRIME, TARGET_FPRIME_POW)

#: Default PASS threshold for a certificate's worst grid violation.
DEFAULT_CERT_TOL = 1e-9

#: Grid resolution per sampled axis (u, v, lam); GRID_SIZE - 1 must stay a
#: power of two, which makes the lam grid the mirror certify_batch halves.
GRID_SIZE = 33


@dataclass(frozen=True)
class Function1D:
    """A scalar function on an interval with exact value and derivative.

    ``eval`` and ``deriv`` must accept floats and numpy arrays alike and be
    elementwise: the value at t depends on t alone, never on the array
    around it, so an array gives the values its points give one by one
    (certification samples each distinct grid point once and reuses the
    value). ``deriv`` must be the exact analytic derivative of ``eval``; use
    :meth:`self_check` to verify a hand-written pair. Negative domains are
    accepted here (identity checks are domain-agnostic); convexity
    certification separately insists on [0, inf).
    """

    name: str
    eval: Callable[..., np.ndarray]
    deriv: Callable[..., np.ndarray]
    domain_lo: float
    domain_hi: float

    def __post_init__(self) -> None:
        if why := interval_problem(self.domain_lo, self.domain_hi):
            raise DomainError(f"{self.name}: domain: {why}")

    def __call__(self, t):
        return self.eval(t)

    def outside(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] leaves the domain by more than 1e-12 of its scale."""
        slack = 1e-12 * max(1.0, abs(self.domain_lo), abs(self.domain_hi))
        return lo < self.domain_lo - slack or hi > self.domain_hi + slack

    def grid(self, n: int = 1001) -> np.ndarray:
        return np.linspace(self.domain_lo, self.domain_hi, n)

    def self_check(self, n: int = 200, seed: int = 0, h: float = 1e-6) -> None:
        """Verify deriv against a centered finite difference of eval.

        Samples n random interior points; raises CertificateError when the
        finite difference drifts beyond 1e-6 * (1 + |deriv|) anywhere, or
        when either evaluator produces a non-finite value on a 1001-point
        grid over the closed domain.
        """
        rng = np.random.default_rng(seed)
        pts = rng.uniform(self.domain_lo + h, self.domain_hi - h, size=n)
        fd = (np.asarray(self.eval(pts + h)) - np.asarray(self.eval(pts - h))) / (2.0 * h)
        dv = np.asarray(self.deriv(pts))
        gap = np.abs(fd - dv) - 1e-6 * (1.0 + np.abs(dv))
        if np.max(gap) > 0.0:
            k = int(np.argmax(gap))
            raise CertificateError(
                f"{self.name}: deriv disagrees with finite difference at "
                f"t={pts[k]!r} (fd={fd[k]!r}, deriv={dv[k]!r})"
            )
        g = self.grid()
        if not (np.all(np.isfinite(self.eval(g))) and np.all(np.isfinite(self.deriv(g)))):
            raise CertificateError(f"{self.name}: non-finite value on the domain grid")


class ConvexityCertificate(NamedTuple):
    """Outcome of sampling one convexity-type hypothesis on a grid.

    (A named tuple: a sweep builds one per target, s and mode it certifies,
    and a frozen dataclass would set each field through
    ``object.__setattr__``.)
    """

    s: float
    mode: str
    target: str
    q: float
    max_violation: float
    cert_tol: float = DEFAULT_CERT_TOL

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.cert_tol

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tgt = self.target if self.target != TARGET_FPRIME_POW else f"|f'|^{self.q:g}"
        return (
            f"{verdict} {self.mode} s={self.s:g} target {tgt} "
            f"(max violation {self.max_violation:.3e}, grid {GRID_SIZE}^3)"
        )


def _target_callable(f: Function1D, target: str, q: float):
    if target == TARGET_F:
        return lambda t: np.asarray(f.eval(t), dtype=float)
    if target == TARGET_FPRIME:
        return lambda t: np.abs(np.asarray(f.deriv(t), dtype=float))
    return lambda t: np.abs(np.asarray(f.deriv(t), dtype=float)) ** q  # TARGET_FPRIME_POW


@lru_cache(maxsize=64)
def _grid(lo: str, hi: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u, the mirror lam grid's first half, the distinct points among
    lam*u + (1-lam)*v over (lam, u, v) and each (lam, u, v) cell's index into
    them, of the domain whose ends have the ``float.hex`` lo and hi (so a -0.0
    end has its own grid); read-only, as calls on it share them. Points are
    told apart by their bits, so -0.0 and +0.0 stay two points."""
    u = np.linspace(float.fromhex(lo), float.fromhex(hi), GRID_SIZE)
    lam = np.linspace(0.0, 1.0, GRID_SIZE)[: (GRID_SIZE + 1) // 2]
    pts = lam[:, None, None] * u[None, :, None] + (1.0 - lam)[:, None, None] * u[None, None, :]
    bits, index = np.unique(pts.view(np.uint64), return_inverse=True)
    points, index = bits.view(np.float64), index.reshape(pts.shape)
    for a in (u, lam, points, index):
        a.flags.writeable = False
    return u, lam, points, index


#: A target's sample: its domain grid's key, g(u) and g at the grid's points.
_Sample = tuple[tuple[str, str], np.ndarray, np.ndarray]


# a non-finite |f'|**q makes a NaN violation, whose certificate fails
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _sample(
    f: Function1D, s_values: Sequence[float], q: float, modes: Sequence[str], target: str,
    cert_tol: float,
) -> _Sample | None:
    """Check certify_batch's arguments in its order, then sample what its
    certificates are a function of: the key of f's domain grid, and the target
    g at u and at the grid's distinct points; None when there is no s or no
    mode to certify."""
    for s in s_values:
        if why := s_problem(s):
            raise DomainError(f"s_values: {why}")
    if why := pq_problem(None, q):
        raise DomainError(f"q: {why}")
    for mode in modes:
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    if target not in _TARGETS:
        raise ConfigError(f"target must be one of {_TARGETS}, got {target!r}")
    if why := tol_problem(cert_tol):
        raise ConfigError(f"cert_tol: {why}")
    if f.domain_lo < 0.0:
        raise DomainError(
            f"{f.name}: certification requires a domain inside [0, inf), "
            f"got domain_lo={f.domain_lo}"
        )
    if len(s_values) == 0 or len(modes) == 0:
        return None
    domain = (float(f.domain_lo).hex(), float(f.domain_hi).hex())
    u, _, points, _ = _grid(*domain)
    g = _target_callable(f, target, q)
    return domain, g(u), g(points)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _worst_violations(
    sample: _Sample,
    s_values: Sequence[float],
    modes: Sequence[str],
) -> list[list[float]]:
    """The worst violation in each mode for each s, of one ``_sample``."""
    domain, gu, gpoints = sample
    _, lam, _, index = _grid(*domain)
    gpts = gpoints[index]  # exact: g is elementwise, so g at a cell is g at its point

    # each s's bound t1[lam, u] + t2[lam, v], with t1 = lam**s * g(u) and
    # t2 = (1-lam)**s * g(v), is the K = 2 product [t1, 1] @ [1, t2]
    ss = np.array(s_values, dtype=float)[:, None, None]
    left = np.ones((len(s_values), len(lam), len(gu), 2))
    right = np.ones((len(s_values), len(lam), 2, len(gu)))
    t1, t2 = left[..., 0], right[:, :, 1]
    np.multiply(lam[:, None] ** ss, gu, out=t1)
    np.multiply((1.0 - lam)[:, None] ** ss, gu, out=t2)
    # the product sums from +0.0: where both terms are -0.0 it reads +0.0, not
    # -0.0; lam**s >= 0, so a term is -0.0 only where g(u) has its sign bit set
    has_negzero = np.zeros(len(s_values), dtype=bool)
    if np.signbit(gu).any():
        negzero1, negzero2 = (np.signbit(t) & (t == 0.0) for t in (t1, t2))
        has_negzero = negzero1.any(axis=(1, 2)) & negzero2.any(axis=(1, 2))

    worst = []
    violation = np.empty(gpts.shape)
    for i in range(len(s_values)):
        np.matmul(left[i], right[i], out=violation)
        if has_negzero[i]:
            violation[negzero1[i][:, :, None] & negzero2[i][:, None, :]] = -0.0
        np.subtract(gpts, violation, out=violation)
        worst.append([float(violation.max() if mode == MODE_CONVEX else -violation.min())
                      for mode in modes])
    return worst


def _certificates(
    worst: list[list[float]], s_values, q, modes, target, cert_tol
) -> list[ConvexityCertificate]:
    """The certificates of ``_worst_violations``' result, s-major."""
    q, cert_tol = float(q), float(cert_tol)
    return [
        ConvexityCertificate(s, mode, target, q, w, cert_tol)
        for s, row in zip(map(float, s_values), worst)
        for mode, w in zip(modes, row)
    ]


def certify_batch(
    f: Function1D,
    s_values: Sequence[float],
    q: float = 1.0,
    modes: Sequence[str] = (MODE_CONVEX,),
    target: str = TARGET_FPRIME,
    cert_tol: float = DEFAULT_CERT_TOL,
) -> list[ConvexityCertificate]:
    """Certify one target of f for every (s, mode) from a single sampling.

    Evaluates the target function g (f itself, |f'|, or |f'|**q) at every
    triple (u, v, lam) of three uniform GRID_SIZE-point grids over
    [domain_lo, domain_hi]**2 x [0, 1] once, then, for each s, records the
    worst signed violation of the defining inequality in each mode:
    ``max(g(pts) - bound)`` for s-convexity and ``-min(g(pts) - bound)`` for
    s-concavity, which equals the maximum of the negated violation exactly.
    A certificate PASSes when that maximum is <= cert_tol. Returns the
    certificates s-major, in the order of ``s_values`` and then ``modes``.

    The lam grid is a mirror grid, ``1 - lam == lam[::-1]`` exactly
    (GRID_SIZE - 1 is a power of two): the samples at (lam, u, v) and
    (1 - lam, v, u) are one sum in swapped order, so only lam's first
    (GRID_SIZE + 1) // 2 rows are sampled. g is evaluated at u and at the
    distinct points of those rows only (1,025 on [0, 1], whose points are
    all multiples of 1/1024), and each cell reads its point's value.

    Checked in order, the first problem raising: s, q (as a lone exponent,
    ``fracint.pq_problem``: 1 <= q < inf), modes, target, cert_tol (by
    ``fracint.tol_problem``: > 0 and finite), then a domain outside
    [0, inf), where s-convexity is defined.
    """
    sample = _sample(f, s_values, q, modes, target, cert_tol)
    if sample is None:
        return []
    worst = _worst_violations(sample, s_values, modes)
    return _certificates(worst, s_values, q, modes, target, cert_tol)


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog function with its registered hypothesis data.

    s_convex lists the s values for which |f'| certifies s-convex.
    s_concave lists the s values for which |f'|**q certifies s-concave at
    the registration convention q = 2 (the sweep re-certifies at whatever
    (s, q) it actually uses). analytic_m is an exact bound on |f'| over the
    domain.
    """

    func: Function1D
    s_convex: tuple[float, ...]
    s_concave: tuple[float, ...]
    analytic_m: float
    summary: str

    @property
    def name(self) -> str:
        return self.func.name

    def deriv_bound(self) -> float:
        """The bound M = analytic_m on |f'|, cross-checked on the domain grid.

        A bound that ``fracint.m_problem`` refuses raises DomainError; one
        that the supremum of |f'| sampled on ``func.grid()`` exceeds is
        refuted and raises CertificateError.
        """
        f, m = self.func, self.analytic_m
        if why := m_problem(m):
            raise DomainError(f"{f.name}: analytic_m: {why}")
        sup = float(np.max(np.abs(np.asarray(f.deriv(f.grid()), dtype=float))))
        if sup > m + 1e-12:
            raise CertificateError(
                f"{f.name}: claimed derivative bound {m!r} refuted by "
                f"sampled supremum {sup!r}"
            )
        return float(m)


def _arr(t):
    return np.asarray(t, dtype=float)


_ALL_S = (0.25, 0.5, 0.75, 1.0)


def _build_catalog() -> tuple[CatalogEntry, ...]:
    one = lambda t: np.ones_like(_arr(t))
    zero = lambda t: np.zeros_like(_arr(t))
    ident = lambda t: _arr(t)

    entries = (
        CatalogEntry(
            Function1D("constant", one, zero, 0.0, 1.0),
            s_convex=_ALL_S,
            s_concave=_ALL_S,
            analytic_m=0.0,
            summary="f(t) = 1",
        ),
        CatalogEntry(
            Function1D("affine", ident, one, 0.0, 1.0),
            s_convex=_ALL_S,
            s_concave=(1.0,),
            analytic_m=1.0,
            summary="f(t) = t",
        ),
        CatalogEntry(
            Function1D(
                "affine_shift",
                lambda t: 0.5 + 2.0 * _arr(t),
                lambda t: np.full_like(_arr(t), 2.0),
                0.0,
                1.0,
            ),
            s_convex=_ALL_S,
            s_concave=(1.0,),
            analytic_m=2.0,
            summary="f(t) = 0.5 + 2t",
        ),
        CatalogEntry(
            Function1D("square", lambda t: _arr(t) ** 2, lambda t: 2.0 * _arr(t), 0.0, 1.0),
            s_convex=_ALL_S,
            s_concave=(),
            analytic_m=2.0,
            summary="f(t) = t^2",
        ),
        CatalogEntry(
            Function1D(
                "pow125",
                lambda t: _arr(t) ** 1.25,
                lambda t: 1.25 * _arr(t) ** 0.25,
                0.0,
                1.0,
            ),
            s_convex=(0.25,),
            s_concave=(1.0,),
            analytic_m=1.25,
            summary="f(t) = t^1.25",
        ),
        CatalogEntry(
            Function1D(
                "pow150",
                lambda t: _arr(t) ** 1.5,
                lambda t: 1.5 * np.sqrt(_arr(t)),
                0.0,
                1.0,
            ),
            s_convex=(0.25, 0.5),
            s_concave=(1.0,),
            analytic_m=1.5,
            summary="f(t) = t^1.5",
        ),
        CatalogEntry(
            Function1D(
                "pow175",
                lambda t: _arr(t) ** 1.75,
                lambda t: 1.75 * _arr(t) ** 0.75,
                0.0,
                1.0,
            ),
            s_convex=(0.25, 0.5, 0.75),
            s_concave=(),
            analytic_m=1.75,
            summary="f(t) = t^1.75",
        ),
        CatalogEntry(
            Function1D(
                "threehalf",
                lambda t: (2.0 / 3.0) * _arr(t) ** 1.5,
                lambda t: np.sqrt(_arr(t)),
                0.0,
                1.0,
            ),
            s_convex=(0.25, 0.5),
            s_concave=(1.0,),
            analytic_m=1.0,
            summary="f(t) = (2/3) t^1.5",
        ),
        CatalogEntry(
            Function1D("exp", lambda t: np.exp(_arr(t)), lambda t: np.exp(_arr(t)), 0.0, 1.0),
            s_convex=_ALL_S,
            s_concave=(),
            analytic_m=math.e,
            summary="f(t) = exp(t)",
        ),
    )
    return entries


_CATALOG = _build_catalog()


def builtin_catalog() -> list[CatalogEntry]:
    """All built-in catalog entries, in their stable listing order."""
    return list(_CATALOG)


def catalog_names() -> list[str]:
    return [e.name for e in _CATALOG]


def get_entry(name: str) -> CatalogEntry:
    for e in _CATALOG:
        if e.name == name:
            return e
    raise ConfigError(f"unknown catalog function {name!r}; known: {', '.join(catalog_names())}")
