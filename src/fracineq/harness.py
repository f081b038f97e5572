"""Sweep engine: parameter grids, certificate-gated evaluation, reports.

A sweep walks the Cartesian grid (functions x alphas x x-points), computes
the shared quadrature pieces of every (function, alpha, x) in one batched
call (with each function's integral mean when a classical bound is
selected), takes every point's identity residual and |LHS| from those
columns in one numpy pass, and evaluates every selected theorem row
(functions x alphas x s x exponent pairs x x for the fractional family;
alpha-free grids for the classical family), one block of rows per
(theorem, function) at a time, every alpha in it. Derivative bounds are
computed once per function before any point, and certificates when a block
first gates a grid row, each (function, target, q)'s over the whole s grid
at once. Rows are emitted in report order, theorem, function, alpha, s, p
and x ascending (each where the theorem reads it), with no sort afterwards.

Each block is a ``bounds.RowBlock`` of columns, and ``SweepResult.reports``
is a ``bounds.ReportRows`` over the blocks: it reads as the list of
``InequalityReport`` rows, building each on access. A function's
fractional blocks share one ``bounds.Points``, its points' alpha, x, |LHS|
and budget columns, and its classical blocks that read x share another;
``SweepResult.residuals`` is a ``ResidualRows`` of the same columnar kind.
The summary reads the arrays; both writers write a block at a time, each
value once on its axis, the texts of a shared grid or point column once per
report, and a plain list of reports every field per record. A report is
streamed in texts of a bounded size (``report_texts``), never held whole.

Output contracts kept deliberately rigid for reproducibility:

* CSV columns: theorem_id, function, alpha, s, p, q, x, lhs, rhs, margin,
  holds, quad_error_budget. A parameter cell is filled exactly when the
  row's formula consumes it, and is empty otherwise. Floats are emitted
  with shortest round-trip repr, booleans as true/false, newline is "\\n".
  Two runs with identical config produce byte-identical CSV.
* JSON mirrors the full SweepResult including residuals and provenance
  (config echo, package version, timestamp). The report is byte for
  byte ``json.dumps(SweepResult.to_dict(), indent=2, sort_keys=True)``
  plus a final newline: keys sorted, two-space indent, floats as
  ``float.__repr__`` with NaN/Infinity/-Infinity, strings ASCII-escaped.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ._version import __version__
from .bounds import (
    DEFAULT_MARGIN_TOL,
    DEFAULT_PQ_GRID,
    DEFAULT_S_GRID,
    FRACTIONAL_IDS,
    THEOREM_IDS,
    THEOREMS,
    CertCache,
    GridRow,
    InequalityReport,
    Points,
    ReportRows,
    _Rows,
    evaluate_block,
)
from .errors import ConfigError, ConvergenceError
from .fracint import (
    DEFAULT_QUADRATURE,
    FracParams,
    QuadratureConfig,
    alpha_problem,
    domain_problem,
    interval_problem,
    pq_problem,
    s_problem,
    tol_problem,
    too_narrow,
    x_problem,
)
from .funcatalog import DEFAULT_CERT_TOL, catalog_names, get_entry
from .identity import (
    DEFAULT_IDENTITY_TOL,
    IdentityResidual,
    PointColumns,
    ResidualColumns,
    check_e1,
    compute_pieces_batch,
    lhs_budget,
)

__all__ = [
    "SweepConfig",
    "SweepResult",
    "ResidualRecord",
    "ResidualRows",
    "MAX_GRID_POINTS",
    "default_config",
    "run_sweep",
    "identity_pass",
    "emit_report",
    "render_csv",
    "render_json",
    "report_texts",
    "CSV_HEADER",
]

CSV_HEADER = "theorem_id,function,alpha,s,p,q,x,lhs,rhs,margin,holds,quad_error_budget"

_DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _repeats(axis: str, values) -> list[str]:
    """One problem per value of a grid axis that equals an earlier value.

    Each repeat would duplicate report rows, and unevenly, since q values
    are deduplicated where a theorem reads q alone.
    """
    seen: set = set()
    repeated: list = []
    for value in values:
        if value in seen and value not in repeated:
            repeated.append(value)
        seen.add(value)
    return [f"{axis}: {value!r} is repeated" for value in repeated]


#: The most grid points, functions x alphas x x points, and so the most x
#: points, a sweep takes; the default sweep has 594 and the largest
#: benchmark grid 693.
MAX_GRID_POINTS = 20_000

_TOLERANCES = ("identity_tol", "margin_tol", "cert_tol", "quad_rel_tol", "quad_abs_tol")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _are_numbers(value, size: Optional[int] = None) -> bool:
    fits = isinstance(value, (list, tuple)) and all(map(_is_number, value))
    return fits and (size is None or len(value) == size)


def _floats(values) -> tuple[float, ...]:
    return tuple(map(float, values))


_NAMES = (
    "a list of strings",
    lambda v: isinstance(v, (list, tuple)) and all(isinstance(n, str) for n in v),
    tuple,
)
_NUMBERS = ("a list of numbers", _are_numbers, _floats)
# per config key: the JSON type it takes, its test and the field's conversion
_KEY_TYPES = {
    "functions": _NAMES,
    "theorems": _NAMES,
    "alphas": _NUMBERS,
    "s_values": _NUMBERS,
    "interval": _NUMBERS,
    "pq_pairs": (
        "a list of [p, q] number pairs",
        lambda v: isinstance(v, (list, tuple)) and all(_are_numbers(pair, 2) for pair in v),
        lambda v: tuple(map(_floats, v)),
    ),
    "x_points": (
        "a count or a list of numbers",
        lambda v: _is_count(v) or _are_numbers(v),
        lambda v: v if _is_count(v) else _floats(v),
    ),
    **{tname: ("a number", _is_number, float) for tname in _TOLERANCES},
}


def _type_problem(key: str, value) -> Optional[str]:
    """The problem with a config key's value when it has the wrong type."""
    want, fits, _ = _KEY_TYPES[key]
    return None if fits(value) else f"{key}: must be {want}, got {reprlib.repr(value)}"


def _why(exc: Exception) -> str:  # an OSError's reason, without its errno and path
    return getattr(exc, "strerror", None) or str(exc)


@dataclass(frozen=True)
class SweepConfig:
    """Grid, tolerances, and theorem selection for one sweep."""

    functions: tuple[str, ...]
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS
    s_values: tuple[float, ...] = DEFAULT_S_GRID
    pq_pairs: tuple[tuple[float, float], ...] = DEFAULT_PQ_GRID
    x_points: Union[int, tuple[float, ...]] = 11
    interval: tuple[float, float] = (0.0, 1.0)
    theorems: tuple[str, ...] = FRACTIONAL_IDS
    identity_tol: float = DEFAULT_IDENTITY_TOL
    margin_tol: float = DEFAULT_MARGIN_TOL
    cert_tol: float = DEFAULT_CERT_TOL
    quad_rel_tol: float = DEFAULT_QUADRATURE.rel_tol
    quad_abs_tol: float = DEFAULT_QUADRATURE.abs_tol

    def validate(self) -> list[str]:
        """Return a list of human-readable problems; empty means valid.

        Fields of the wrong type are the only problems reported, as
        ``from_dict`` reports them: the value checks read every field.
        """
        problems = [
            problem
            for key in _KEY_TYPES
            if (problem := _type_problem(key, getattr(self, key))) is not None
        ]
        if problems:
            return problems
        known = set(catalog_names())
        if not self.functions:
            problems.append("functions: must not be empty")
        for name in self.functions:
            if name not in known:
                problems.append(f"functions: unknown catalog name {name!r}")
        problems.extend(_repeats("functions", self.functions))
        if not self.theorems:
            problems.append("theorems: must not be empty")
        for tid in self.theorems:
            if tid not in THEOREM_IDS:
                problems.append(f"theorems: unknown id {tid!r} (known: {THEOREM_IDS})")
        problems.extend(_repeats("theorems", self.theorems))
        thms = [THEOREMS[tid] for tid in self.theorems if tid in THEOREMS]
        bad_interval = (f"need [a, b], got {self.interval!r}" if len(self.interval) != 2
                        else interval_problem(*self.interval))
        if bad_interval:
            problems.append(f"interval: {bad_interval}")
        else:
            a, b = self.interval
            if a < 0.0 and any(thm.target is not None for thm in thms):
                problems.append(
                    "interval: must lie in [0, inf) when any s-convexity or "
                    "s-concavity hypothesis is in play"
                )
            problems += [f"interval: {why}" for name in self.functions
                         if name in known and (why := domain_problem(get_entry(name).func, a, b))]
            # the largest alpha checked underflows first; classical bounds take 1
            used = [al for al in self.alphas if not alpha_problem(al)]
            used += [1.0] * any(not thm.fractional for thm in thms)
            if used and (narrow := too_narrow(a, b, max(used))):
                problems.append(f"interval: {narrow}")
        if not self.alphas:
            problems.append("alphas: must not be empty")
        problems += [f"alphas: {why}" for al in self.alphas if (why := alpha_problem(al))]
        problems.extend(_repeats("alphas", self.alphas))
        if not self.s_values:
            problems.append("s_values: must not be empty")
        problems += [f"s_values: {why}" for s in self.s_values if (why := s_problem(s))]
        problems.extend(_repeats("s_values", self.s_values))
        if not self.pq_pairs and any(thm.exponents for thm in thms):
            problems.append("pq_pairs: must not be empty for exponent-based theorems")
        problems += [f"pq_pairs: {why}" for p, q in self.pq_pairs if (why := pq_problem(p, q))]
        problems.extend(_repeats("pq_pairs", [tuple(pair) for pair in self.pq_pairs]))
        n_x = self.x_points if isinstance(self.x_points, int) else len(self.x_points)
        n_points = len(self.functions) * len(self.alphas) * n_x
        if n_x > MAX_GRID_POINTS:
            problems.append(f"x_points: at most {MAX_GRID_POINTS} points, got {n_x}")
        elif n_points > MAX_GRID_POINTS:
            problems.append(
                f"grid: at most {MAX_GRID_POINTS} points (functions x alphas x x), "
                f"got {n_points}"
            )
        if isinstance(self.x_points, int):
            if self.x_points < 1:
                problems.append(f"x_points: count must be >= 1, got {self.x_points}")
        else:
            if not self.x_points:
                problems.append("x_points: explicit list must not be empty")
            elif not bad_interval:
                problems += [f"x_points: {why}" for x in self.x_points
                             if (why := x_problem(x, a, b))]
            problems.extend(_repeats("x_points", self.x_points))
        problems += [f"{t}: {why}" for t in _TOLERANCES if (why := tol_problem(getattr(self, t)))]
        return problems

    def resolve_x(self) -> tuple[float, ...]:
        if isinstance(self.x_points, int):
            a, b = self.interval
            return tuple(float(v) for v in np.linspace(a, b, self.x_points))
        return tuple(float(v) for v in self.x_points)

    def quadrature(self) -> QuadratureConfig:
        """The quadrature config its ``quad_rel_tol`` and ``quad_abs_tol`` set."""
        return QuadratureConfig(rel_tol=self.quad_rel_tol, abs_tol=self.quad_abs_tol)

    def to_dict(self) -> dict:
        return {
            "functions": list(self.functions),
            "alphas": list(self.alphas),
            "s_values": list(self.s_values),
            "pq_pairs": [list(p) for p in self.pq_pairs],
            "x_points": (
                self.x_points if isinstance(self.x_points, int) else list(self.x_points)
            ),
            "interval": list(self.interval),
            "theorems": list(self.theorems),
            "tolerances": {name: getattr(self, name) for name in _TOLERANCES},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """The config a JSON object states, over ``default_config()``.

        Each key's JSON type is checked (tolerances may sit flat or under
        ``tolerances``, which wins); one ``ConfigError`` names every
        problem. ``validate`` checks the values.
        """
        data = dict(data)
        data.pop("seed", None)  # the sweep draws nothing at random; older configs set one
        tol = data.pop("tolerances", {})
        problems: list[str] = []
        if not isinstance(tol, dict):
            problems.append(f"tolerances: must be an object, got {reprlib.repr(tol)}")
            tol = {}
        unknown = (set(data) - set(_KEY_TYPES)) | (set(tol) - set(_TOLERANCES))
        if unknown:
            problems.append(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        given = [item for item in data.items() if item[0] in _KEY_TYPES]
        for key, value in given + [item for item in tol.items() if item[0] in _TOLERANCES]:
            problem = _type_problem(key, value)
            if problem is None:
                kwargs[key] = _KEY_TYPES[key][2](value)
            else:
                problems.append(problem)
        if problems:
            raise ConfigError("; ".join(problems))
        return dataclasses.replace(default_config(), **kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {_why(exc)}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        return cls.from_dict(data)


def default_config() -> SweepConfig:
    """The acceptance-grade default: full catalog, full grids, E6-E9."""
    return SweepConfig(functions=tuple(catalog_names()))


@dataclass(frozen=True)
class ResidualRecord:
    """Identity residual at one (function, alpha, x) grid point."""

    function: str
    alpha: float
    x: float
    residual: IdentityResidual
    passed: bool


class ResidualRows(_Rows):
    """A sweep's identity residuals as columns, one entry per point: a
    read-only list of ``ResidualRecord``, each built when it is read."""

    def __init__(self, function: tuple, alpha: tuple, x: tuple,
                 residual: ResidualColumns, passed: np.ndarray):
        self.function, self.alpha, self.x = function, alpha, x
        self.residual, self.passed = residual, passed

    def __len__(self) -> int:
        return len(self.function)

    def _item(self, k: int) -> ResidualRecord:
        return ResidualRecord(self.function[k], self.alpha[k], self.x[k],
                              IdentityResidual(*(float(c[k]) for c in self.residual)),
                              bool(self.passed[k]))

    def stored(self, name: str) -> tuple:
        """The ``name`` field (``residual.<name>`` for the residual's) with a
        value per record, as ``_block_chunks`` reads it."""
        owner, _, leaf = name.rpartition(".")
        return getattr(self.residual if owner else self, leaf), ...


@dataclass
class SweepResult:
    """A sweep's rows, residuals, summary and provenance.

    ``run_sweep`` gives ``reports`` as a ``ReportRows``: the rows' columnar
    blocks, read as a list whose reports are built on access, and
    ``residuals`` as a ``ResidualRows``. Any list of ``InequalityReport``,
    and of ``ResidualRecord``, may stand in for them.
    """

    reports: Sequence[InequalityReport]
    residuals: Sequence[ResidualRecord]
    convergence_errors: list[str]
    summary: dict
    provenance: dict

    def to_dict(self) -> dict:
        """The report's schema of record; ``render_json`` writes exactly its JSON."""
        return {
            "reports": [dataclasses.asdict(r) for r in self.reports],
            "residuals": [dataclasses.asdict(rec) for rec in self.residuals],
            "convergence_errors": list(self.convergence_errors),
            "summary": dict(self.summary),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        reports = [
            InequalityReport(**{**r, "prm": FracParams(**r["prm"])})
            for r in data["reports"]
        ]
        residuals = [
            ResidualRecord(**{**rec, "residual": IdentityResidual(**rec["residual"])})
            for rec in data["residuals"]
        ]
        return cls(
            reports=reports,
            residuals=residuals,
            convergence_errors=list(data["convergence_errors"]),
            summary=dict(data["summary"]),
            provenance=dict(data["provenance"]),
        )


def _row_counts(blocks: Sequence) -> dict:
    """The summary's row counts and worst asserted margin, from the blocks'
    arrays. ``worst_margin`` is ``min`` of the asserted margins in report
    order: the first of equal least values (0.0 or -0.0, as they come), NaN
    when the first margin is NaN, and later NaNs passed over."""
    gates = [np.asarray(block.asserted, dtype=bool)[block.row] for block in blocks]
    margins = np.concatenate([np.empty(0)] + [b.margin[gate] for b, gate in zip(blocks, gates)])
    passed = sum(int(np.count_nonzero(b.holds[gate])) for b, gate in zip(blocks, gates))
    total = sum(len(block.row) for block in blocks)
    worst = None
    if margins.size:
        worst = float(margins[0 if np.isnan(margins[0]) else np.argmax(margins == np.nanmin(margins))])
    return {"total": total, "passed": passed, "failed": margins.size - passed,
            "skipped": total - margins.size, "worst_margin": worst}


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Run the configured sweep; deterministic for a fixed config.

    Sweeps run serially; ``workers`` has one legal value, 1.
    """
    problems = cfg.validate()
    if workers != 1:
        problems.append(f"workers: sweeps run serially, got {workers!r}")
    if problems:
        raise ConfigError("; ".join(problems))

    entries = [get_entry(name) for name in cfg.functions]
    a, b = cfg.interval
    thms = [THEOREMS[tid] for tid in cfg.theorems]
    q_dedup = tuple(dict.fromkeys(q for _, q in cfg.pq_pairs))
    certs = CertCache(cert_tol=cfg.cert_tol, s_values=cfg.s_values)
    bound_m = {entry.name: entry.deriv_bound() for entry in entries}
    classical = any(not thm.fractional for thm in thms)

    # every point's identity quantities at once, over (job, x): job j is
    # function j // n_alpha at alpha j % n_alpha
    cols = identity_pass(cfg, [(e.func, a, b) for e in entries] if classical else ())
    for mean in cols.plain:
        if isinstance(mean, ConvergenceError):
            raise mean
    means = {e.name: mean for e, mean in zip(entries, cols.plain)}
    e1 = check_e1(cols)
    passed = e1.passes(cfg.identity_tol)
    abs_lhs, budget = np.abs(e1.lhs).ravel(), lhs_budget(cols).ravel()
    n_alpha, n_x = len(cfg.alphas), len(cols.xs)
    convergence_errors = [
        f"{cfg.functions[j // n_alpha]} alpha={cfg.alphas[j % n_alpha]!r} x={cols.xs[i]!r}: {err}"
        for (j, i), err in sorted(cols.failed.items())
    ]
    # a function's points, as indices into the flattened (job, x) columns, go
    # alpha, then x ascending, the failed ones left out; its blocks share
    # them, and the residuals take them functions by name
    ok = np.ones(cols.fx.size, dtype=bool)
    ok[[j * n_x + i for j, i in cols.failed]] = False
    grid = np.arange(ok.size).reshape(len(entries), n_alpha, n_x)
    grid = grid[:, np.argsort(cfg.alphas, kind="stable")][:, :, np.argsort(cols.xs, kind="stable")]
    at_of = {cfg.functions[k]: at[ok[at]] for k, at in enumerate(grid.reshape(len(entries), -1))}

    def labels(at: np.ndarray) -> tuple:  # the function, alpha and x of each index
        job, i = np.divmod(at, n_x)
        return (tuple(cfg.functions[k] for k in (job // n_alpha).tolist()),
                tuple(cfg.alphas[k] for k in (job % n_alpha).tolist()),
                tuple(cols.xs[k] for k in i.tolist()))

    points_of = {name: Points(*labels(at)[1:], abs_lhs[at], budget[at])
                 for name, at in at_of.items()}
    # a classical bound sits at alpha = 1 with x ascending, and its |f(x) -
    # mean| reads the batch's f(x); e13 reads no x but the mean, at the midpoint
    up = np.argsort(cols.xs, kind="stable")
    classical_of = {e.name: Points((1.0,) * n_x, tuple(cols.xs[i] for i in up),
                                   np.abs(cols.fx[k * n_alpha, up] - mean.value / (b - a)),
                                   np.full(n_x, mean.error / (b - a)))
                    for k, (e, mean) in enumerate(zip(entries, cols.plain))}
    at_mid = Points((1.0,), (0.5 * (a + b),))
    flat = np.concatenate([np.zeros(0, dtype=np.intp), *(at_of[name] for name in sorted(at_of))])
    residuals = ResidualRows(*labels(flat), ResidualColumns(*(c.ravel()[flat] for c in e1)),
                             passed.ravel()[flat])
    rel = residuals.residual.rel_residual  # Python's max passes over NaN but a first one

    # one block of rows per (theorem, function), every alpha in it. Blocks go
    # in report order (module docstring) with their grids and points ascending;
    # rows that differ only in q keep the q_dedup order
    s_up = sorted(cfg.s_values)
    pq_up = sorted(cfg.pq_pairs, key=itemgetter(0))
    blocks = []
    for thm in sorted(thms, key=attrgetter("tid")):
        grid = tuple(thm.grid(s_up, pq_up, q_dedup))  # shared by the theorem's blocks
        for entry in sorted(entries, key=attrgetter("name")):
            blocks.append(evaluate_block(
                thm.tid, entry, cfg.interval, bound_m[entry.name], grid,
                points_of[entry.name] if thm.fractional
                else classical_of[entry.name] if "x" in thm.fields else at_mid,
                cfg.margin_tol, certs, means.get(entry.name),
            ))

    summary = {
        **_row_counts(blocks),
        "worst_residual": (float(rel[0] if np.isnan(rel[0]) else np.nanmax(rel))
                           if rel.size else None),
        "identity_failures": int(np.count_nonzero(~residuals.passed)),
        "convergence_errors": len(convergence_errors),
    }
    provenance = {
        "config": cfg.to_dict(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return SweepResult(
        reports=ReportRows(blocks),
        residuals=residuals,
        convergence_errors=convergence_errors,
        summary=summary,
        provenance=provenance,
    )


def identity_pass(cfg: SweepConfig, plain: Sequence = ()) -> PointColumns:
    """The identity's pieces at every point of a valid config's grid, from
    one ``compute_pieces_batch`` call, as columns over (job, x): job j is
    function j // len(alphas) at alpha j % len(alphas), and the x are
    ``resolve_x``'s, each as the config lists them. The integral of f over
    [lo, hi] for each (f, lo, hi) of ``plain`` joins the batch."""
    jobs = [(get_entry(name).func, alpha) for name in cfg.functions for alpha in cfg.alphas]
    return compute_pieces_batch(jobs, *cfg.interval, cfg.resolve_x(), cfg.quadrature(), plain)


def _fmt_float(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def _texts(values, text_of, nonfinite: dict) -> Iterator[str]:
    """Each value's text, made as it is read: ``text_of``'s, or a float64
    array's ``float.__repr__``."""
    if not isinstance(values, np.ndarray):
        return map(text_of, values)
    texts = chain.from_iterable(map(float.__repr__, values[k:k + _SLICE].tolist())
                                for k in range(0, len(values), _SLICE))
    if nonfinite and not np.isfinite(values).all():
        texts = (nonfinite.get(text, text) for text in texts)
    return texts


def _shared(texts: Iterator[str]) -> list[str]:
    """The texts as a list in which equal texts are one string: a column kept
    for a whole report, such as a function's alphas, holds few distinct ones."""
    one: dict = {}
    return [one.setdefault(text, text) for text in texts]


#: A block's chunks are joined, and a float column's texts made, this many
#: at a time, so that the writers never hold a large block's whole text.
_SLICE = 512


def _joined(chunks: Iterator[str]) -> Iterator[str]:
    """The chunks' text, in nonempty texts of at most ``_SLICE`` chunks."""
    while batch := list(islice(chunks, _SLICE)):
        if text := "".join(batch):
            yield text


def _add_text(lanes: list, text: str) -> None:
    # literal text ends the last lane read through an index array, or is a lane
    if lanes and lanes[-1][1] is not ...:
        lanes[-1][0] = [t + text for t in lanes[-1][0]]
    elif text:
        lanes.append([repeat(text), ...])


def _block_chunks(stored, leaves, pieces, nonfinite: dict, blank, memo, grid):
    """One block's records as text chunks: the literal ``pieces`` around the
    fields that ``leaves`` name, each with its text function.

    Each value the block holds (``stored``) is written once. Block constants and
    the names in ``blank`` (written empty) join the literal text; other
    fields are read through their index arrays (a bool array indexes its
    own two texts), and fields read through one array share their texts, as
    literal text joins them. A record takes one chunk per run of fields on
    one axis and per field stored per report row. ``memo``, unless None,
    holds the texts of the fields stored per grid row or point, by name and
    by the id of ``grid`` (the block's grid, for s, p and q) or of the column,
    so blocks that share a grid or a column make its texts once.
    """
    lanes = []  # [texts, the index array, or ... for texts in row order]
    text = pieces[0]
    for (name, text_of), piece in zip(leaves, pieces[1:]):
        if name in blank:
            text += piece
            continue
        values, index = stored(name)
        if index is None:
            text += text_of(values) + piece
            continue
        if isinstance(values, np.ndarray) and values.dtype == bool:
            texts, index = ["false", "true"], (values if index is ... else values[index])
        elif memo is None or index is ...:
            texts = _texts(values, text_of, nonfinite)
        else:
            key = (name, grid if name in GridRow._fields else id(values))
            texts = memo.get(key)
            if texts is None:
                texts = memo[key] = _shared(_texts(values, text_of, nonfinite))
        if index is ...:
            _add_text(lanes, text)
            lanes.append([texts, ...])
        elif lanes and lanes[-1][1] is index:
            lanes[-1][0] = [t + text + u for t, u in zip(lanes[-1][0], texts)]
        else:
            lanes.append([[text + t for t in texts], index])
        text = piece
    _add_text(lanes, text)
    return chain.from_iterable(zip(*(
        texts if index is ... else map(texts.__getitem__, index.tolist())
        for texts, index in lanes
    )))


_CSV_LEAVES = [("theorem_id", str), ("function", str), *(
    (name, _fmt_float) for name in ("alpha", "s", "p", "q", "x", "lhs", "rhs", "margin")
), ("holds", lambda held: "true" if held else "false"), ("quad_error_budget", _fmt_float)]
_CSV_PIECES = ["", *[","] * (len(_CSV_LEAVES) - 1), "\n"]


def _per_record(records: Sequence, prm: bool = False):
    """A ``stored`` (``_block_chunks``) that reads every field per record;
    with ``prm``, a ``FracParams`` field ``name`` as ``prm.<name>``."""
    def stored(name: str) -> tuple:
        path = "prm." + name if prm and name in FracParams.__slots__ else name
        return list(map(attrgetter(path), records)), ...
    return stored


def _report_groups(reports: Sequence[InequalityReport]) -> list[tuple]:
    """The reports as (theorem id, ``stored``, memo, grid id) groups for
    ``_block_chunks``: a ``ReportRows``'s blocks, each value once on the axis
    it is stored on, or else each run of one theorem's reports, every field
    per record."""
    if isinstance(reports, ReportRows):
        # a theorem's blocks share one grid and a function's blocks its points;
        # their texts are made once per report (keyed by id: the blocks outlive it)
        memo: dict = {}
        return [(b.theorem_id, b.stored, memo, id(b.grid)) for b in reports.blocks]
    return [(tid, _per_record(list(run), prm=True), None, None)
            for tid, run in groupby(reports, key=attrgetter("theorem_id"))]


def _csv_texts(res: SweepResult) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for tid, stored, memo, grid in _report_groups(res.reports):
        visible = THEOREMS[tid].fields
        blank = [name for name in ("alpha", "s", "p", "q", "x") if name not in visible]
        yield from _joined(_block_chunks(stored, _CSV_LEAVES, _CSV_PIECES, {}, blank, memo, grid))


def render_csv(res: SweepResult) -> str:
    """Render reports to the fixed CSV schema (byte-stable).

    Lines are written a group of ``_report_groups`` at a time
    (``_block_chunks``, joined by ``_joined``); the parameter cells a
    theorem's ``fields`` leave out are blank.
    """
    return "".join(_csv_texts(res))


_INDENT = "  "
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps_at(value, level: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as written at nesting ``level``.

    Strings are written with their newlines escaped, so every newline in the
    text is a line break that takes the extra indent.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + _INDENT * level)


def _value_text(value, level: int) -> str:
    """One value as json writes it at ``level``; containers go through json.dumps."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    cls = value.__class__
    if cls is float:
        text = float.__repr__(value)
        return _NONFINITE_TEXT.get(text, text)
    if cls is str:
        return encode_basestring_ascii(value)
    return _dumps_at(value, level)


def _record_layout(cls, level: int) -> tuple[str, list[tuple[str, int]]]:
    """json's indent=2, sort_keys=True layout of one ``cls`` record at ``level``.

    Returns a %-template with one ``%s`` per leaf field, keys in sorted order,
    and each leaf's dotted attribute path with the level of its value. A field
    annotated with a dataclass is laid out in place, as ``dataclasses.asdict``
    nests it.
    """
    hints = typing.get_type_hints(cls)
    pad = "\n" + _INDENT * (level + 1)
    lines: list[str] = []
    leaves: list[tuple[str, int]] = []
    for name in sorted(f.name for f in dataclasses.fields(cls)):
        if dataclasses.is_dataclass(hints[name]):
            text, inner = _record_layout(hints[name], level + 1)
            leaves.extend((f"{name}.{path}", lv) for path, lv in inner)
        else:
            text = "%s"
            leaves.append((name, level + 1))
        lines.append(f"{encode_basestring_ascii(name)}: {text}")
    return "{" + pad + ("," + pad).join(lines) + "\n" + _INDENT * level + "}", leaves


def _records_texts(cls, groups: list) -> Iterator[str]:
    """A top-level list of ``cls`` records, a ``_report_groups`` group at a
    time, in ``_joined`` texts. A text is held back until the next one comes,
    as the last record takes no comma."""
    template, leaves = _record_layout(cls, 2)
    pieces = (_INDENT * 2 + template + ",\n").split("%s")
    leaves = [(path.removeprefix("prm."), partial(_value_text, level=lv)) for path, lv in leaves]
    held = None
    for _, stored, memo, grid in groups:
        for text in _joined(_block_chunks(stored, leaves, pieces, _NONFINITE_TEXT, (), memo, grid)):
            yield "[\n" if held is None else held
            held = text
    yield "[]" if held is None else held[:-2] + "\n" + _INDENT + "]"


def _json_texts(res: SweepResult) -> Iterator[str]:
    yield from ('{\n  "convergence_errors": ', _dumps_at(res.convergence_errors, 1),
                ',\n  "provenance": ', _dumps_at(res.provenance, 1), ',\n  "reports": ')
    yield from _records_texts(InequalityReport, _report_groups(res.reports))
    yield ',\n  "residuals": '
    residuals = res.residuals
    stored = residuals.stored if isinstance(residuals, ResidualRows) else _per_record(residuals)
    yield from _records_texts(ResidualRecord, [(None, stored, None, None)])
    yield from (',\n  "summary": ', _dumps_at(res.summary, 1), "\n}\n")


def render_json(res: SweepResult) -> str:
    """``json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The stdlib encodes in C only without ``indent``, so the report and
    residual records, nearly all of the report, are written from one
    template per record type instead; the other fields go through
    ``json.dumps``. Reports are written a group of ``_report_groups`` at a
    time, so a record of a ``RowBlock`` takes about 8 chunks
    (``_block_chunks``); residuals are written from ``ResidualRows``'
    columns, and a plain list of reports or residuals every field per
    record; ``report_texts`` gives the text in bounded slices.
    """
    return "".join(_json_texts(res))


def report_texts(res: SweepResult, format: str = "csv") -> Iterator[str]:
    """``render_csv``'s or ``render_json``'s text, made in texts of at most
    ``_SLICE`` chunks of one group of ``_report_groups``; another format
    raises ``ConfigError`` at once."""
    texts = {"csv": _csv_texts, "json": _json_texts}.get(format)
    if texts is None:
        raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")
    return texts(res)


def emit_report(res: SweepResult, format: str = "csv", path: str = "report.csv") -> None:
    """Stream ``report_texts`` to path, checking the format first; a path that
    cannot be opened raises ``ConfigError``, an error mid-write may leave a partial file."""
    texts = report_texts(res, format)
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {_why(exc)}") from exc
    with fh:
        fh.writelines(texts)
