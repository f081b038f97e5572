"""Left- and right-hand sides of every inequality the package certifies.

Fractional family (parameterized by alpha > 0):

``E6``
    Derivative-bound inequality with the Gamma-ratio constant
    (1 + Gamma(alpha+1)Gamma(s+1)/Gamma(alpha+s+1)) / (alpha+s+1);
    hypothesis: |f'| s-convex, |f'| <= M.
``E7``
    Hoelder-route bound with prefactor M/(1+p*alpha)**(1/p) * (2/(s+1))**(1/q);
    hypothesis: |f'|**q s-convex, conjugate exponents p, q.
``E8proof``
    Power-mean-route bound
    M * (1/(1+alpha))**(1-1/q) * (1/(alpha+s+1))**(1/q) * (1 + ratio)**(1/q);
    hypothesis: |f'|**q s-convex, q >= 1 (no conjugate exponent needed).
    The associated *printed* bound in circulation textually duplicates E7,
    so it is E7's closed form and has no row of its own.
``E9``
    Midpoint-derivative bound 2**((s-1)/q) / ((1+p*alpha)**(1/p) (b-a)) times
    a weighted pair of |f'| midpoint values; hypothesis: |f'|**q s-concave.

All four share the same left-hand side: |identity LHS|, which
``identity.check_e1`` and ``identity.lhs_budget`` give at every point of a
sweep at once, with its error budget.

Classical suite (no alpha):

``e1``   Ostrowski bound M(b-a)[1/4 + ((x-mid)/(b-a))**2]; sharp at affine f.
``e13``  Hermite-Hadamard pair for s-convex f: 2**(s-1) f(mid) <= mean and
         mean <= (f(a)+f(b))/(s+1); reported as two rows.
``e14``  M[(x-a)**2+(b-x)**2] / ((b-a)(s+1)); hypothesis |f'| s-convex.
``t5_146``  M (2/(s+1))**(1/q) [(x-a)**2+(b-x)**2] / (2(b-a)); |f'|**q s-convex.
``t6_147``  2**((s-1)/q)/((1+p)**(1/p)(b-a)) times the weighted midpoint pair;
         |f'|**q s-concave.

Each right-hand side is pure closed-form arithmetic; the left-hand sides
carry quadrature error budgets that the pass/fail tolerance couples to. The
module runs no quadrature: the caller supplies a function's ``Points``
(alpha, x and, but for e13, |LHS| with its budget, as columns), e13's
integral mean and a ``CertCache``.
``THEOREMS`` states each bound's hypothesis, parameters, right-hand side and
alpha = 1 twin once; everything that handles a theorem id reads it there.
Each right-hand side is a ``ClosedForm`` ``coef(row) * shape(point) /
div(row)``: ``evaluate_block`` takes the coefficient and divisor once per
(alpha, grid row), the shape once per block over all its points and the
rest as numpy arrays, bit for bit as the scalar form, and returns a
``RowBlock`` of columns per (theorem, function); ``ReportRows`` reads
blocks as a list of ``InequalityReport``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import eq, itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .fracint import Estimate, FracParams, domain_problem
from .funcatalog import (
    DEFAULT_CERT_TOL,
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    CatalogEntry,
    ConvexityCertificate,
    Function1D,
    _certificates,
    _sample,
    _worst_violations,
    get_entry,
)
from .identity import _passes
from .specfun import ln_gamma

__all__ = [
    "GridRow",
    "Theorem",
    "THEOREMS",
    "THEOREM_IDS",
    "FRACTIONAL_IDS",
    "CLASSICAL_IDS",
    "DEFAULT_S_GRID",
    "DEFAULT_PQ_GRID",
    "DEFAULT_MARGIN_TOL",
    "REDUCTION_TOL",
    "InequalityReport",
    "CertCache",
    "Points",
    "RowBlock",
    "ReportRows",
    "evaluate_block",
    "reduction_check",
]

#: Default sweep grids of s and of conjugate pairs (p, q); reduction_check
#: checks over them too.
DEFAULT_S_GRID = (0.25, 0.5, 0.75, 1.0)
DEFAULT_PQ_GRID = ((2.0, 2.0), (3.0, 1.5), (1.25, 5.0))
_DEFAULT_Q_GRID = (1.0, 1.5, 2.0, 3.0, 5.0)

#: Default slack on inequality margins (couples with 10x the quad budget).
DEFAULT_MARGIN_TOL = 1e-9

#: Maximum closed-form deviation tolerated by reduction_check.
REDUCTION_TOL = 1e-12


# slotted: ReportRows builds one per row it reads, and a frozen dataclass sets
# each field through object.__setattr__, which is cheaper on a slot
@dataclass(frozen=True, slots=True)
class InequalityReport:
    """One inequality instance: both sides, signed margin, and verdict.

    margin = rhs - lhs; ``holds`` is margin >= -max(margin_tol, 10 * budget).
    ``asserted`` records whether the hypothesis certificates passed; rows
    with asserted=False are informational and never count as violations.
    """

    theorem_id: str
    function: str
    prm: FracParams
    lhs: float
    rhs: float
    margin: float
    holds: bool
    quad_error_budget: float
    asserted: bool = True
    note: str = ""


class Points(NamedTuple):
    """One function's points, each alpha's together: their alpha and x and
    the left-hand side each bound there reads (``lhs``) with its error
    ``budget``, as float64 arrays: the |identity LHS| for the fractional
    bounds, |f(x) - integral mean| at alpha = 1 for the classical ones but
    e13, which reads the integral mean instead. The blocks of one function
    and family share one, so the writers make its columns' texts once."""

    alpha: tuple[float, ...]
    x: tuple[float, ...]
    lhs: Optional[np.ndarray] = None
    budget: Optional[np.ndarray] = None


class RowBlock(NamedTuple):
    """One (theorem, function)'s report rows as columns, in report order.

    ``evaluate_block`` makes it. Each column is stored once, on the axis it
    varies on: the block (theorem_id, function, a, b, M); the grid row
    (``grid``'s s, p, q, ``asserted``, ``note``; e13 has a grid row per side
    of its pair); the point (``alpha`` and ``x``, alpha by alpha); the
    left-hand side (the float64 ``lhs`` and ``quad_error_budget``, per point,
    or per grid row for e13's sides); a fractional block's point columns are
    its ``Points``' own, shared with the function's other blocks; the report
    row (the float64 or bool
    ``rhs``, ``margin``, ``holds``). The index arrays ``row``, ``point`` and
    ``lhs_at`` (``point`` or ``row``) place each report row on the axes.
    ``stored(name)`` gives a field with its index array, ``report(i)`` the
    i-th row's ``InequalityReport``. (A named tuple: importing the package
    builds the class; a dataclass of this size takes a millisecond.)
    """

    theorem_id: str
    function: str
    a: float
    b: float
    M: float
    grid: tuple[GridRow, ...]
    asserted: tuple[bool, ...]
    note: tuple[str, ...]
    alpha: tuple[float, ...]
    x: tuple[float, ...]
    lhs: np.ndarray
    quad_error_budget: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    holds: np.ndarray
    row: np.ndarray
    point: np.ndarray
    lhs_at: np.ndarray

    def report(self, i: int) -> InequalityReport:
        r, j, k = self.row[i], self.point[i], self.lhs_at[i]
        s, p, q = self.grid[r]
        return InequalityReport(
            self.theorem_id, self.function,
            FracParams(self.a, self.b, self.x[j], self.alpha[j], s, p, q, self.M),
            float(self.lhs[k]), float(self.rhs[i]), float(self.margin[i]), bool(self.holds[i]),
            float(self.quad_error_budget[k]), self.asserted[r], self.note[r],
        )

    def stored(self, name: str) -> tuple:
        """The ``name`` field (an ``InequalityReport`` field, or a
        ``FracParams`` one for ``prm``'s) as stored, with the index array that
        maps report rows to its values: ``(value, None)`` for a field constant
        over the block and ``(values, ...)`` for one with a value per report
        row."""
        if name in GridRow._fields:
            return tuple(map(itemgetter(GridRow._fields.index(name)), self.grid)), self.row
        if name in ("rhs", "margin", "holds"):
            return getattr(self, name), ...
        return getattr(self, name), {"asserted": self.row, "note": self.row, "alpha": self.point,
                                     "x": self.point, "lhs": self.lhs_at,
                                     "quad_error_budget": self.lhs_at}.get(name)


class _Rows(Sequence):
    """A read-only list whose items, ``_item(k)``, are built when read. It
    equals any list of the same items."""

    def _item(self, k: int):
        raise NotImplementedError

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(k) for k in range(len(self))[i]]
        return self._item(range(len(self))[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, type(self))):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class ReportRows(_Rows):
    """The report rows of a run of blocks: a read-only list of
    ``InequalityReport``, each built when it is read."""

    def __init__(self, blocks: Sequence[RowBlock]):
        self.blocks = tuple(blocks)
        self._ends = list(accumulate(len(block.row) for block in self.blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _item(self, k: int) -> InequalityReport:
        n = bisect_right(self._ends, k)
        return self.blocks[n].report(k - (self._ends[n - 1] if n else 0))

    def __iter__(self):
        for block in self.blocks:
            yield from map(block.report, range(len(block.row)))


def _require(prm, theorem_id: str, *names: str) -> None:
    # prm is a FracParams or a GridRow
    missing = [name for name in names if getattr(prm, name) is None]
    if missing:
        raise ConfigError(f"{theorem_id} requires {', '.join(missing)} to be set")


@functools.lru_cache(maxsize=1024)
def _gamma_ratio(alpha: float, s: float) -> float:
    # Gamma(alpha+1) Gamma(s+1) / Gamma(alpha+s+1), evaluated in log space;
    # a sweep asks for the same few (alpha, s) pairs on every row
    return math.exp(ln_gamma(alpha + 1.0) + ln_gamma(s + 1.0) - ln_gamma(alpha + s + 1.0))


# ---------------------------------------------------------------------------
# right-hand sides: each closed form unchecked (the theorem table's rhs and
# twin); evaluate_block checks the fields a row needs


# the FracParams fields a closed form's parts read, unchecked: evaluate_block
# passes one (alpha, grid row)'s to coef and div and its points' to shape,
# None for the fields they never read
_At = namedtuple("_At", "a b x alpha s p q M")


class ClosedForm(NamedTuple):
    """A right-hand side ``coef(row) * shape(point, f) / div(row)``, in this
    operation order; ``coef`` and ``div`` read a grid row (a, b, alpha, s, p,
    q, M) and ``shape`` a sequence of points (a, b, x, alpha), giving a
    float64 array; without ``div`` nothing is divided. ``evaluate_block``
    takes the parts, and so every power, in Python (``np.power`` differs from
    ``**`` in the last bit) and only the product and quotient as numpy
    broadcasts, which round as Python does.
    """

    coef: Callable[..., float]
    shape: Callable[..., np.ndarray]
    div: Optional[Callable[..., float]] = None

    def __call__(self, prm, f: Optional[Function1D] = None) -> float:
        value = self.coef(prm) * float(self.shape((prm,), f)[0])
        return value if self.div is None else value / self.div(prm)


def _width(r) -> float:
    return r.b - r.a


def _powers(rs, f=None) -> np.ndarray:
    return np.array([(r.x - r.a) ** (r.alpha + 1.0) + (r.b - r.x) ** (r.alpha + 1.0)
                     for r in rs], dtype=float)


def _squares(rs, f=None) -> np.ndarray:
    return np.array([(r.x - r.a) ** 2 + (r.b - r.x) ** 2 for r in rs], dtype=float)


def _midpoint_pair(rs, f: Function1D, k: Callable) -> np.ndarray:
    # |f'| at the midpoints of [a, x] and [x, b], in one f.deriv call,
    # weighted by the k(r)-th powers
    mids = [0.5 * (r.x + r.a) for r in rs] + [0.5 * (r.b + r.x) for r in rs]
    d = np.abs(np.asarray(f.deriv(np.array(mids, dtype=float)), dtype=float))
    weights = np.array([((r.x - r.a) ** k(r), (r.b - r.x) ** k(r)) for r in rs],
                       dtype=float).reshape(-1, 2)
    return weights[:, 0] * d[:len(rs)] + weights[:, 1] * d[len(rs):]


def _shift(rs, f=None) -> np.ndarray:
    shift = np.array([(r.x - 0.5 * (r.a + r.b)) / (r.b - r.a) for r in rs], dtype=float)
    return 0.25 + shift * shift


_thm1 = ClosedForm(
    lambda r: r.M / (r.b - r.a) * (1.0 + _gamma_ratio(r.alpha, r.s)),
    _powers,
    lambda r: r.alpha + r.s + 1.0,
)

_thm2 = ClosedForm(
    lambda r: r.M / (1.0 + r.p * r.alpha) ** (1.0 / r.p) * (2.0 / (r.s + 1.0)) ** (1.0 / r.q),
    _powers,
    _width,
)


def _thm3_coef(r) -> float:
    # E8proof degenerates to E6 exactly at q = 1, so that case takes E6's
    # coefficient (and, in _thm3, its divisor) to keep the two formula paths
    # literally identical
    if r.q == 1.0:
        return _thm1.coef(r)
    inv_q = 1.0 / r.q
    return (
        r.M
        * (1.0 / (1.0 + r.alpha)) ** (1.0 - inv_q)
        * (1.0 / (r.alpha + r.s + 1.0)) ** inv_q
        * (1.0 + _gamma_ratio(r.alpha, r.s)) ** inv_q
    )


_thm3 = ClosedForm(
    _thm3_coef, _powers, lambda r: _thm1.div(r) if r.q == 1.0 else r.b - r.a
)

_thm4 = ClosedForm(
    lambda r: 2.0 ** ((r.s - 1.0) / r.q) / ((1.0 + r.p * r.alpha) ** (1.0 / r.p) * (r.b - r.a)),
    lambda rs, f: _midpoint_pair(rs, f, lambda r: r.alpha + 1.0),
)

_ostrowski = ClosedForm(lambda r: r.M * (r.b - r.a), _shift)

_msconvex = ClosedForm(lambda r: r.M, _squares, lambda r: (r.b - r.a) * (r.s + 1.0))

# E7's twin: M/(1+p)**(1/p) (2/(s+1))**(1/q) [(x-a)**2 + (b-x)**2] / (b-a), the
# form the Hoelder proof route gives; the circulated restatement of the
# corresponding classical theorem prints a different, inconsistent right-hand
# side, which is not reproduced
_hoelder = ClosedForm(
    lambda r: r.M / (1.0 + r.p) ** (1.0 / r.p) * (2.0 / (r.s + 1.0)) ** (1.0 / r.q),
    _squares,
    _width,
)

_powermean = ClosedForm(
    lambda r: r.M * (2.0 / (r.s + 1.0)) ** (1.0 / r.q), _squares, lambda r: 2.0 * (r.b - r.a)
)

_sconcave = ClosedForm(
    lambda r: 2.0 ** ((r.s - 1.0) / r.q) / ((1.0 + r.p) ** (1.0 / r.p) * (r.b - r.a)),
    lambda rs, f: _midpoint_pair(rs, f, lambda r: 2),
)


# ---------------------------------------------------------------------------
# the theorem table


class GridRow(NamedTuple):
    """The (s, p, q) of one row of a theorem's grid; p and q may be unset."""

    s: float
    p: Optional[float]
    q: Optional[float]


@dataclass(frozen=True)
class Theorem:
    """One bound: its hypothesis, the parameters it reads, its RHS and twin.

    ``target`` and ``mode`` name the hypothesis certificate; e1 has none,
    since its one hypothesis, |f'| <= M, holds by the choice of M. q enters
    the certificate exactly when the target is |f'|^q. ``fields`` are the
    ``FracParams`` fields the bound reads besides a, b and M, in CSV column
    order: they are the row's filled CSV cells, and each of p and q among
    them must be set. The family follows from them: a fractional bound reads
    alpha. ``rhs`` is the ``ClosedForm``, with nothing checked (None for
    e13, whose Hermite-Hadamard pair ``evaluate_block`` builds), and
    ``twin`` the classical closed form it equals at alpha = 1; both are
    called as ``rhs(prm, f)``.
    """

    tid: str
    target: Optional[str]
    mode: Optional[str]
    fields: tuple[str, ...]
    rhs: Optional[ClosedForm]
    twin: Optional[ClosedForm] = None

    # derived once per row of the table, not once per report row

    @functools.cached_property
    def fractional(self) -> bool:
        return "alpha" in self.fields

    @functools.cached_property
    def q_in_hypothesis(self) -> bool:
        return self.target == TARGET_FPRIME_POW

    @functools.cached_property
    def exponents(self) -> tuple[str, ...]:
        """The exponents it reads, p and/or q; a row must set each of them."""
        return tuple(name for name in ("p", "q") if name in self.fields)

    def grid(self, s_values, pq_pairs, q_values) -> list[GridRow]:
        """The (s, p, q) of its rows at one point, s-major: each s (or s = 1
        when it reads none) with each (p, q) pair when it reads p, each q
        (p None) when it reads only q, and no exponent otherwise.
        """
        if "p" in self.fields:
            exponents = pq_pairs
        elif "q" in self.fields:
            exponents = [(None, q) for q in q_values]
        else:
            exponents = [(None, None)]
        s_grid = s_values if "s" in self.fields else (1.0,)
        return [GridRow(s, p, q) for s in s_grid for p, q in exponents]


#: Every bound the package certifies, fractional first. A new bound is added
#: here; the sweep, the CLI and the reports read this table.
THEOREMS: dict[str, Theorem] = {
    thm.tid: thm
    for thm in (
        Theorem("E6", TARGET_FPRIME, MODE_CONVEX, ("alpha", "s", "x"), _thm1, _msconvex),
        Theorem("E7", TARGET_FPRIME_POW, MODE_CONVEX, ("alpha", "s", "p", "q", "x"),
                _thm2, _hoelder),
        # the proof's own final bound; the E8 printed in circulation is E7's
        # closed form (it reads p, though its hypothesis fixes only q >= 1)
        Theorem("E8proof", TARGET_FPRIME_POW, MODE_CONVEX, ("alpha", "s", "q", "x"),
                _thm3, _powermean),
        Theorem("E9", TARGET_FPRIME_POW, MODE_CONCAVE, ("alpha", "s", "p", "q", "x"),
                _thm4, _sconcave),
        Theorem("e1", None, None, ("x",), _ostrowski),
        Theorem("e13", TARGET_F, MODE_CONVEX, ("s",), None),
        Theorem("e14", TARGET_FPRIME, MODE_CONVEX, ("s", "x"), _msconvex),
        Theorem("t5_146", TARGET_FPRIME_POW, MODE_CONVEX, ("s", "q", "x"), _powermean),
        Theorem("t6_147", TARGET_FPRIME_POW, MODE_CONCAVE, ("s", "p", "q", "x"), _sconcave),
    )
}
FRACTIONAL_IDS = tuple(tid for tid, thm in THEOREMS.items() if thm.fractional)
CLASSICAL_IDS = tuple(tid for tid, thm in THEOREMS.items() if not thm.fractional)
THEOREM_IDS = FRACTIONAL_IDS + CLASSICAL_IDS


# ---------------------------------------------------------------------------
# certificate plumbing and report assembly


class CertCache:
    """Memoizes certificates per (function, target, mode, s, q).

    ``get`` builds them all: a miss samples the (function, target, q) once
    and certifies that sample over ``s_values`` (the requested s alone when it
    is off that grid), in every mode ``THEOREMS`` asks of the target and the
    requested one, and stores every certificate it makes; so a cache on a
    sweep's s grid samples each target grid once. A certificate is a function
    of its sample, so targets whose samples have the same bits (|f'|**q of a
    constant f at every q, say) share one pass over the worst violations, for
    as long as this cache lives. ``skip_note`` builds each failed certificate's
    row note once.
    """

    def __init__(self, cert_tol: float = DEFAULT_CERT_TOL, s_values: Sequence[float] = ()):
        self.cert_tol = cert_tol
        self.s_values = tuple(map(float, s_values))
        self._store: dict[tuple, ConvexityCertificate] = {}
        self._worst: dict[tuple, list[list[float]]] = {}
        self._notes: dict[ConvexityCertificate, str] = {}

    def get(
        self, entry: CatalogEntry, target: str, mode: str, s: float, q: float = 1.0
    ) -> ConvexityCertificate:
        key = (entry.func.name, target, mode, float(s), float(q))
        cert = self._store.get(key)
        if cert is None:
            modes = [thm.mode for thm in THEOREMS.values() if thm.target == target] + [mode]
            modes = tuple(dict.fromkeys(modes))
            s_grid = self.s_values if key[3] in self.s_values else (s,)
            sample = _sample(entry.func, s_grid, q, modes, target, self.cert_tol)
            domain, gu, gpoints = sample
            shared = (domain, gu.tobytes(), gpoints.tobytes(), s_grid, modes)
            worst = self._worst.get(shared)
            if worst is None:
                worst = self._worst[shared] = _worst_violations(sample, s_grid, modes)
            for got in _certificates(worst, s_grid, q, modes, target, self.cert_tol):
                self._store[(key[0], target, got.mode, got.s, got.q)] = got
            cert = self._store[key]
        return cert

    def skip_note(self, cert: ConvexityCertificate) -> str:
        """The note on a row whose hypothesis ``cert`` failed."""
        note = self._notes.get(cert)
        if note is None:
            note = self._notes[cert] = f"hypothesis not certified: {cert.describe()}"
        return note


def _nonnegative_on_grid(f: Function1D, tol: float) -> bool:
    return float(np.min(np.asarray(f.eval(f.grid()), dtype=float))) >= -tol


@functools.lru_cache(maxsize=256)
def _report_order(runs: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Each report row's grid row, point and group of points (one per alpha,
    of ``sizes``): per group, per run of ``runs``, per point, per grid row."""
    order = [(start + k, first + j, g)
             for g, (first, n) in enumerate(zip(accumulate((0, *sizes)), sizes))
             for start, size in zip(accumulate((0, *runs)), runs)
             for j in range(n) for k in range(size)]
    got = np.array(order, dtype=np.intp).reshape(-1, 3).T.copy()
    got.flags.writeable = False  # shared by blocks of this shape
    return tuple(got)


def evaluate_block(
    theorem_id: str,
    entry: CatalogEntry,
    interval: tuple[float, float],
    M: float,
    grid: Sequence[GridRow],
    points: Points,
    margin_tol: float,
    certs: CertCache,
    mean: Optional[Estimate] = None,
) -> RowBlock:
    """Evaluate one theorem on every (s, p, q) of ``grid`` at every point.

    ``points`` are one function's, each alpha's together. The caller
    supplies what the left-hand sides integrate and the certificates: every
    theorem but e13 reads the points' |LHS| and budget (a fractional one's
    from ``identity.check_e1`` and ``identity.lhs_budget``, a classical
    one's from f(x) and the integral mean), e13 reads ``mean``, the integral
    of f over ``interval`` (a plain segment of the identity batch), and
    ``certs`` gives every hypothesis certificate; nothing here runs
    quadrature, and a missing input raises ``ConfigError``. Each grid row
    is checked and certified once for all the alphas. The right-hand sides
    are the theorem's ``ClosedForm``: coefficient and divisor once per
    (alpha, grid row), shape once over the points, their product and
    quotient, the margins and the verdicts per report row in numpy; a row
    holds when -margin passes the identity's tolerance rule,
    ``identity._passes``. Rows come out per alpha, per run of grid rows
    sharing (s, p), per point, then per grid row of the run, so points
    ascending in (alpha, x) and a grid from ``Theorem.grid`` over ascending
    s and p give the report order. The Hermite-Hadamard pair (e13) gives two
    block rows per grid row, one per side.
    """
    thm = THEOREMS.get(theorem_id)
    if thm is None:
        raise ConfigError(f"unknown theorem id {theorem_id!r}; known: {THEOREM_IDS}")
    if theorem_id == "e13":
        if mean is None:
            raise ConfigError(f"{theorem_id} is a classical bound and needs mean, got None")
    elif points.lhs is None or points.budget is None:
        raise ConfigError(f"{theorem_id} needs the points' |LHS| and budget, got None")
    f = entry.func
    a, b = interval
    if why := domain_problem(f, a, b):
        raise DomainError(f"interval: {why}")
    for row in grid:
        _require(row, theorem_id, *thm.exponents)
    if thm.target is None:
        asserted, notes = [True] * len(grid), [""] * len(grid)
    else:
        got = [certs.get(entry, thm.target, thm.mode, row.s, row.q if thm.q_in_hypothesis else 1.0)
               for row in grid]
        asserted = [cert.passed for cert in got]
        notes = ["" if cert.passed else certs.skip_note(cert) for cert in got]
    alphas, xs = points.alpha, points.x
    groups = [(alpha, len(list(run))) for alpha, run in groupby(alphas)]  # each alpha's points
    sizes = tuple(size for _, size in groups)

    if theorem_id == "e13":  # the Hermite-Hadamard pair; f >= 0 is assumed too
        nonneg = _nonnegative_on_grid(f, certs.cert_tol)
        width = b - a
        mean_value = float(mean.value / width)
        budget = float(mean.error / width)
        at_mid = float(f.eval(0.5 * (a + b)))
        at_ends = float(f.eval(a)) + float(f.eval(b))
        sides = []  # per block row: its grid row, asserted, note, lhs and rhs
        for row, ok, note in zip(grid, asserted, notes):
            if ok and not nonneg:
                note = "hypothesis not certified: f takes negative values"
            ok = ok and nonneg
            lead = note + " " if note else ""
            sides.append((row, ok, lead + "hh-lower", float(2.0 ** (row.s - 1.0) * at_mid),
                          mean_value))
            sides.append((row, ok, lead + "hh-upper", mean_value, float(at_ends / (row.s + 1.0))))
        grid, asserted, notes, lhs, rhs = ([side[k] for side in sides] for k in range(5))
        row_of, point_of, _ = _report_order((2,) * len(sides[::2]), sizes)
        lhs_at = row_of  # each side of the pair has its own lhs
        lhs, rhs = np.array(lhs, dtype=float), np.array(rhs, dtype=float)[row_of]
        budget = np.full(len(grid), budget)
    else:
        runs = tuple(len(list(run)) for _, run in groupby(grid, key=itemgetter(0, 1)))
        row_of, point_of, group_of = _report_order(runs, sizes)
        lhs, budget, lhs_at = points.lhs, points.budget, point_of
        form = thm.rhs
        # coef and div per cell: per alpha's group of points, per grid row
        at_cells = [_At(a, b, None, alpha, s, p, q, M) for alpha, _ in groups for s, p, q in grid]
        cell = group_of * len(grid) + row_of
        with np.errstate(all="ignore"):  # IEEE results without warnings, as in Python
            shape = form.shape(
                [_At(a, b, x, alpha, None, None, None, M) for alpha, x in zip(alphas, xs)], f)
            rhs = np.array([form.coef(at) for at in at_cells], dtype=float)[cell] * shape[point_of]
            if form.div is not None:
                rhs = rhs / np.array([form.div(at) for at in at_cells], dtype=float)[cell]
    with np.errstate(all="ignore"):
        margin = rhs - lhs[lhs_at]
        holds = _passes(-margin, budget[lhs_at], margin_tol)
    return RowBlock(
        theorem_id, entry.name, a, b, M, tuple(grid), tuple(asserted), tuple(notes),
        alphas, xs, lhs, budget, rhs, margin, holds, row_of, point_of, lhs_at,
    )


# ---------------------------------------------------------------------------
# alpha = 1 reduction checks


def reduction_check(theorem_id: str, f: Optional[Function1D] = None) -> float:
    """Maximum |fractional RHS at alpha=1 - classical RHS| over a fixed grid.

    Pure closed-form arithmetic with no quadrature: the theorem's ``rhs`` and
    its ``twin`` from ``THEOREMS`` must coincide to REDUCTION_TOL at every
    s of DEFAULT_S_GRID, each of 11 uniform x on [0, 1] and, as the theorem
    reads them, (p, q) pair of DEFAULT_PQ_GRID or q of _DEFAULT_Q_GRID, with
    M = 2. E6 reduces to e14, E7 to the Hoelder-structured classical form,
    E8proof to t5_146, and E9 to t6_147 (E9 compares the bracket formulas
    directly, so any f with an exact derivative works; the default is the
    catalog's (2/3) t**1.5 entry).
    """
    thm = THEOREMS.get(theorem_id)
    if thm is None or thm.twin is None:
        raise ConfigError(
            f"reduction_check knows {FRACTIONAL_IDS}, got {theorem_id!r}"
        )
    if f is None:
        f = get_entry("threehalf").func
    worst = 0.0
    for s, p, q in thm.grid(DEFAULT_S_GRID, DEFAULT_PQ_GRID, _DEFAULT_Q_GRID):
        for x in np.linspace(0.0, 1.0, 11):
            prm = FracParams(0.0, 1.0, float(x), 1.0, s=s, p=p, q=q, M=2.0)
            worst = max(worst, abs(thm.rhs(prm, f) - thm.twin(prm, f)))
    return worst
