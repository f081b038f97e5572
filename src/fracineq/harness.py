"""Sweep engine: parameter grids, certificate-gated evaluation, reports.

A sweep walks the Cartesian grid (functions x alphas x x-points), computes
the shared quadrature pieces once per (function, alpha), in one batched
call for all x points, records an identity residual at every point, and
evaluates every selected theorem row
(functions x alphas x s x exponent pairs x x for the fractional family;
alpha-free grids for the classical family). Certificates and derivative
bounds are precomputed serially so parallel runs are bit-identical to
serial ones; result assembly is order-normalized by a stable sort.

Output contracts kept deliberately rigid for reproducibility:

* CSV columns: theorem_id, function, alpha, s, p, q, x, lhs, rhs, margin,
  holds, quad_error_budget. A parameter cell is filled exactly when the
  row's formula consumes it, and is empty otherwise. Floats are emitted
  with shortest round-trip repr, booleans as true/false, newline is "\\n".
  Two runs with identical config and seed produce byte-identical CSV.
* JSON mirrors the full SweepResult including residuals and provenance
  (config echo, package version, seed, timestamp). The report is byte for
  byte ``json.dumps(SweepResult.to_dict(), indent=2, sort_keys=True)``
  plus a final newline: keys sorted, two-space indent, floats as
  ``float.__repr__`` with NaN/Infinity/-Infinity, strings ASCII-escaped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Optional, Union

import numpy as np

from ._version import __version__
from .bounds import (
    CLASSICAL_IDS,
    DEFAULT_MARGIN_TOL,
    FRACTIONAL_IDS,
    THEOREM_IDS,
    CertCache,
    InequalityReport,
    evaluate_theorem,
)
from .errors import ConfigError, ConvergenceError
from .fracint import (
    MAX_ALPHA,
    Estimate,
    FracParams,
    QuadratureConfig,
    plain_integral,
)
from .funcatalog import (
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    CatalogEntry,
    catalog_names,
    get_entry,
)
from .identity import (
    DEFAULT_IDENTITY_TOL,
    IdentityResidual,
    LemmaPieces,
    check_e1_from_pieces,
    compute_pieces,
)

__all__ = [
    "SweepConfig",
    "SweepResult",
    "ResidualRecord",
    "default_config",
    "run_sweep",
    "emit_report",
    "render_csv",
    "CSV_HEADER",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "FRACINEQ_THREADS"

CSV_HEADER = "theorem_id,function,alpha,s,p,q,x,lhs,rhs,margin,holds,quad_error_budget"

# which parameter columns a theorem's formula actually consumes
_CSV_PARAM_FIELDS: dict[str, tuple[str, ...]] = {
    "E6": ("alpha", "s", "x"),
    "E7": ("alpha", "s", "p", "q", "x"),
    "E8proof": ("alpha", "s", "q", "x"),
    "E9": ("alpha", "s", "p", "q", "x"),
    "e1": ("x",),
    "e13": ("s",),
    "e14": ("s", "x"),
    "t5_146": ("s", "q", "x"),
    "t6_147": ("s", "p", "q", "x"),
}

_DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
_DEFAULT_S = (0.25, 0.5, 0.75, 1.0)
_DEFAULT_PQ = ((2.0, 2.0), (3.0, 1.5), (1.25, 5.0))

# theorems whose hypotheses invoke s-convexity/s-concavity on [0, inf)
_S_HYPOTHESIS_IDS = tuple(t for t in THEOREM_IDS if t != "e1")


@dataclass(frozen=True)
class SweepConfig:
    """Grid, tolerances, and theorem selection for one sweep."""

    functions: tuple[str, ...]
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS
    s_values: tuple[float, ...] = _DEFAULT_S
    pq_pairs: tuple[tuple[float, float], ...] = _DEFAULT_PQ
    x_points: Union[int, tuple[float, ...]] = 11
    interval: tuple[float, float] = (0.0, 1.0)
    theorems: tuple[str, ...] = FRACTIONAL_IDS
    seed: int = 0
    identity_tol: float = DEFAULT_IDENTITY_TOL
    margin_tol: float = DEFAULT_MARGIN_TOL
    cert_tol: float = 1e-9
    quad_rel_tol: float = 1e-10
    quad_abs_tol: float = 1e-12

    def validate(self) -> list[str]:
        """Return a list of human-readable problems; empty means valid."""
        problems: list[str] = []
        known = set(catalog_names())
        if not self.functions:
            problems.append("functions: must not be empty")
        for name in self.functions:
            if name not in known:
                problems.append(f"functions: unknown catalog name {name!r}")
        if not self.theorems:
            problems.append("theorems: must not be empty")
        for tid in self.theorems:
            if tid not in THEOREM_IDS:
                problems.append(f"theorems: unknown id {tid!r} (known: {THEOREM_IDS})")
        if len(self.interval) != 2 or not self.interval[0] < self.interval[1]:
            problems.append(f"interval: need a < b, got {self.interval!r}")
        else:
            a, b = self.interval
            if a < 0.0 and any(t in _S_HYPOTHESIS_IDS for t in self.theorems):
                problems.append(
                    "interval: must lie in [0, inf) when any s-convexity or "
                    "s-concavity hypothesis is in play"
                )
            for name in self.functions:
                if name in known:
                    fn = get_entry(name).func
                    if a < fn.domain_lo - 1e-12 or b > fn.domain_hi + 1e-12:
                        problems.append(
                            f"interval: {self.interval!r} outside domain of {name!r}"
                        )
        if not self.alphas:
            problems.append("alphas: must not be empty")
        for al in self.alphas:
            if not al > 0.0:
                problems.append(f"alphas: must be > 0, got {al!r}")
            elif al > MAX_ALPHA:
                problems.append(
                    f"alphas: must be <= {MAX_ALPHA:g} (Gamma(alpha + 1) overflows "
                    f"the Lanczos gamma beyond it), got {al!r}"
                )
        if not self.s_values:
            problems.append("s_values: must not be empty")
        for s in self.s_values:
            if not (0.0 < s <= 1.0):
                problems.append(f"s_values: must lie in (0, 1], got {s!r}")
        needs_pq = {"E7", "E8proof", "E9", "t5_146", "t6_147"}
        if not self.pq_pairs and needs_pq.intersection(self.theorems):
            problems.append("pq_pairs: must not be empty for exponent-based theorems")
        for pair in self.pq_pairs:
            if len(pair) != 2:
                problems.append(f"pq_pairs: need (p, q) pairs, got {pair!r}")
                continue
            p, q = pair
            if not p > 1.0 or abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
                problems.append(f"pq_pairs: ({p!r}, {q!r}) is not a conjugate pair")
        if isinstance(self.x_points, int):
            if self.x_points < 1:
                problems.append(f"x_points: count must be >= 1, got {self.x_points}")
        else:
            if not self.x_points:
                problems.append("x_points: explicit list must not be empty")
            elif len(self.interval) == 2 and self.interval[0] < self.interval[1]:
                a, b = self.interval
                for x in self.x_points:
                    if not (a <= x <= b):
                        problems.append(f"x_points: {x!r} outside interval {self.interval!r}")
        for tname in ("identity_tol", "margin_tol", "cert_tol", "quad_rel_tol", "quad_abs_tol"):
            if not getattr(self, tname) > 0.0:
                problems.append(f"{tname}: must be > 0, got {getattr(self, tname)!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            problems.append(f"seed: must be an integer, got {self.seed!r}")
        return problems

    def resolve_x(self) -> tuple[float, ...]:
        if isinstance(self.x_points, int):
            a, b = self.interval
            return tuple(float(v) for v in np.linspace(a, b, self.x_points))
        return tuple(float(v) for v in self.x_points)

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
            "seed": self.seed,
            "tolerances": {
                "identity_tol": self.identity_tol,
                "margin_tol": self.margin_tol,
                "cert_tol": self.cert_tol,
                "quad_rel_tol": self.quad_rel_tol,
                "quad_abs_tol": self.quad_abs_tol,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        tol = data.pop("tolerances", {})
        unknown = set(data) - {
            "functions", "alphas", "s_values", "pq_pairs", "x_points",
            "interval", "theorems", "seed",
        } - {  # flat tolerance keys are accepted too
            "identity_tol", "margin_tol", "cert_tol", "quad_rel_tol", "quad_abs_tol",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        base = default_config()
        kwargs = {}
        if "functions" in data:
            kwargs["functions"] = tuple(data["functions"])
        if "alphas" in data:
            kwargs["alphas"] = tuple(float(v) for v in data["alphas"])
        if "s_values" in data:
            kwargs["s_values"] = tuple(float(v) for v in data["s_values"])
        if "pq_pairs" in data:
            kwargs["pq_pairs"] = tuple(
                tuple(float(v) for v in pair) for pair in data["pq_pairs"]
            )
        if "x_points" in data:
            xp = data["x_points"]
            kwargs["x_points"] = xp if isinstance(xp, int) else tuple(float(v) for v in xp)
        if "interval" in data:
            kwargs["interval"] = tuple(float(v) for v in data["interval"])
        if "theorems" in data:
            kwargs["theorems"] = tuple(data["theorems"])
        if "seed" in data:
            kwargs["seed"] = data["seed"]
        for tname in ("identity_tol", "margin_tol", "cert_tol", "quad_rel_tol", "quad_abs_tol"):
            if tname in tol:
                kwargs[tname] = float(tol[tname])
            elif tname in data:
                kwargs[tname] = float(data[tname])
        return dataclasses.replace(base, **kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
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


@dataclass
class SweepResult:
    reports: list[InequalityReport]
    residuals: list[ResidualRecord]
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


def _report_sort_key(r: InequalityReport):
    visible = _CSV_PARAM_FIELDS[r.theorem_id]

    def cell(fieldname: str) -> float:
        if fieldname not in visible:
            return -1.0
        value = getattr(r.prm, fieldname)
        return -1.0 if value is None else float(value)

    return (r.theorem_id, r.function, cell("alpha"), cell("s"), cell("p"), cell("x"))


def _worker_count(workers: Optional[int]) -> int:
    if workers is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def run_sweep(cfg: SweepConfig, workers: Optional[int] = None) -> SweepResult:
    """Run the configured sweep; deterministic for a fixed (config, seed).

    Parallelism comes from ``workers`` or, when that is None, from the
    FRACINEQ_THREADS environment variable (default 1). Parallel and serial
    runs produce identical results: all shared state (certificates,
    derivative bounds, integral means) is precomputed before dispatch and
    assembly is order-normalized.
    """
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    workers = _worker_count(workers)

    qcfg = QuadratureConfig(rel_tol=cfg.quad_rel_tol, abs_tol=cfg.quad_abs_tol)
    entries = [get_entry(name) for name in cfg.functions]
    a, b = cfg.interval
    xs = cfg.resolve_x()
    frac_tids = [t for t in cfg.theorems if t in FRACTIONAL_IDS]
    classical_x_tids = [t for t in cfg.theorems if t in ("e1", "e14", "t5_146", "t6_147")]
    want_e13 = "e13" in cfg.theorems
    q_dedup = tuple(dict.fromkeys(q for _, q in cfg.pq_pairs))

    certs = CertCache(cert_tol=cfg.cert_tol)
    bound_m: dict[str, float] = {}
    means: dict[str, Estimate] = {}
    for entry in entries:
        if entry.name in bound_m:
            continue
        bound_m[entry.name] = entry.deriv_bound().M
        if classical_x_tids or want_e13:
            means[entry.name] = plain_integral(entry.func, a, b, qcfg)
        # warm the certificate cache so worker threads only ever read it
        for s in cfg.s_values:
            if "E6" in frac_tids or "e14" in classical_x_tids:
                certs.get(entry, TARGET_FPRIME, MODE_CONVEX, s)
            if want_e13:
                certs.get(entry, TARGET_F, MODE_CONVEX, s)
            for q in q_dedup:
                if any(t in cfg.theorems for t in ("E7", "E8proof", "t5_146")):
                    certs.get(entry, TARGET_FPRIME_POW, MODE_CONVEX, s, q)
                if "E9" in cfg.theorems or "t6_147" in cfg.theorems:
                    certs.get(entry, TARGET_FPRIME_POW, MODE_CONCAVE, s, q)

    TaskResult = tuple[list[InequalityReport], list[ResidualRecord], list[str]]

    def frac_task(entry: CatalogEntry, alpha: float) -> TaskResult:
        # one batched quadrature call covers every x of this (function, alpha);
        # a call that raises as a whole fails each of its points
        try:
            outcomes = compute_pieces(entry.func, a, b, alpha, xs, qcfg)
        except ConvergenceError as exc:
            outcomes = [exc] * len(xs)
        rows: list[InequalityReport] = []
        records: list[ResidualRecord] = []
        errors: list[str] = []
        for x, pieces in zip(xs, outcomes):
            if isinstance(pieces, ConvergenceError):
                errors.append(f"{entry.name} alpha={alpha!r} x={x!r}: {pieces}")
                continue
            res = check_e1_from_pieces(pieces)
            records.append(
                ResidualRecord(
                    function=entry.name,
                    alpha=alpha,
                    x=x,
                    residual=res,
                    passed=res.passes(cfg.identity_tol),
                )
            )
            rows.extend(frac_rows(entry, alpha, x, pieces))
        return (rows, records, errors)

    def frac_rows(
        entry: CatalogEntry, alpha: float, x: float, pieces: LemmaPieces
    ) -> list[InequalityReport]:
        rows: list[InequalityReport] = []
        for tid in frac_tids:
            if tid == "E6":
                for s in cfg.s_values:
                    prm = FracParams(a, b, x, alpha, s=s, M=bound_m[entry.name])
                    rows.extend(
                        evaluate_theorem(
                            tid, entry, prm, qcfg,
                            margin_tol=cfg.margin_tol, certs=certs, pieces=pieces,
                        )
                    )
            elif tid == "E8proof":
                for s in cfg.s_values:
                    for q in q_dedup:
                        prm = FracParams(
                            a, b, x, alpha, s=s, q=q, M=bound_m[entry.name]
                        )
                        rows.extend(
                            evaluate_theorem(
                                tid, entry, prm, qcfg,
                                margin_tol=cfg.margin_tol, certs=certs, pieces=pieces,
                            )
                        )
            else:  # E7, E9
                for s in cfg.s_values:
                    for p, q in cfg.pq_pairs:
                        prm = FracParams(
                            a, b, x, alpha, s=s, p=p, q=q, M=bound_m[entry.name]
                        )
                        rows.extend(
                            evaluate_theorem(
                                tid, entry, prm, qcfg,
                                margin_tol=cfg.margin_tol, certs=certs, pieces=pieces,
                            )
                        )
        return rows

    def classical_x_task(entry: CatalogEntry, x: float) -> TaskResult:
        rows: list[InequalityReport] = []
        mean = means[entry.name]
        mval = bound_m[entry.name]
        for tid in classical_x_tids:
            if tid == "e1":
                prm = FracParams(a, b, x, 1.0, M=mval)
                rows.extend(
                    evaluate_theorem(
                        tid, entry, prm, qcfg,
                        margin_tol=cfg.margin_tol, certs=certs, mean=mean,
                    )
                )
            elif tid == "e14":
                for s in cfg.s_values:
                    prm = FracParams(a, b, x, 1.0, s=s, M=mval)
                    rows.extend(
                        evaluate_theorem(
                            tid, entry, prm, qcfg,
                            margin_tol=cfg.margin_tol, certs=certs, mean=mean,
                        )
                    )
            elif tid == "t5_146":
                for s in cfg.s_values:
                    for q in q_dedup:
                        prm = FracParams(a, b, x, 1.0, s=s, q=q, M=mval)
                        rows.extend(
                            evaluate_theorem(
                                tid, entry, prm, qcfg,
                                margin_tol=cfg.margin_tol, certs=certs, mean=mean,
                            )
                        )
            else:  # t6_147
                for s in cfg.s_values:
                    for p, q in cfg.pq_pairs:
                        prm = FracParams(a, b, x, 1.0, s=s, p=p, q=q, M=mval)
                        rows.extend(
                            evaluate_theorem(
                                tid, entry, prm, qcfg,
                                margin_tol=cfg.margin_tol, certs=certs, mean=mean,
                            )
                        )
        return (rows, [], [])

    def e13_task(entry: CatalogEntry) -> TaskResult:
        rows: list[InequalityReport] = []
        mid = 0.5 * (a + b)
        for s in cfg.s_values:
            prm = FracParams(a, b, mid, 1.0, s=s, M=bound_m[entry.name])
            rows.extend(
                evaluate_theorem(
                    "e13", entry, prm, qcfg,
                    margin_tol=cfg.margin_tol, certs=certs, mean=means[entry.name],
                )
            )
        return (rows, [], [])

    tasks: list[Callable[[], TaskResult]] = []
    for entry in entries:
        for alpha in cfg.alphas:
            tasks.append(lambda e=entry, al=alpha: frac_task(e, al))
    if classical_x_tids:
        for entry in entries:
            for x in xs:
                tasks.append(lambda e=entry, xx=x: classical_x_task(e, xx))
    if want_e13:
        for entry in entries:
            tasks.append(lambda e=entry: e13_task(e))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda t: t(), tasks))
    else:
        outcomes = [t() for t in tasks]

    reports: list[InequalityReport] = []
    residuals: list[ResidualRecord] = []
    convergence_errors: list[str] = []
    for rows, recs, errs in outcomes:
        reports.extend(rows)
        residuals.extend(recs)
        convergence_errors.extend(errs)

    reports.sort(key=_report_sort_key)
    residuals.sort(key=lambda rec: (rec.function, rec.alpha, rec.x))

    asserted = [r for r in reports if r.asserted]
    failed = sum(1 for r in asserted if not r.holds)
    passed = len(asserted) - failed
    skipped = len(reports) - len(asserted)
    summary = {
        "total": len(reports),
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "worst_margin": min((r.margin for r in asserted), default=None),
        "worst_residual": max((rec.residual.rel_residual for rec in residuals), default=None),
        "identity_failures": sum(1 for rec in residuals if not rec.passed),
        "convergence_errors": len(convergence_errors),
    }
    provenance = {
        "config": cfg.to_dict(),
        "version": __version__,
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return SweepResult(
        reports=reports,
        residuals=residuals,
        convergence_errors=convergence_errors,
        summary=summary,
        provenance=provenance,
    )


def _fmt_float(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def render_csv(res: SweepResult) -> str:
    """Render reports to the fixed CSV schema (byte-stable)."""
    lines = [CSV_HEADER]
    for r in res.reports:
        visible = _CSV_PARAM_FIELDS[r.theorem_id]
        cells = [r.theorem_id, r.function]
        for fieldname in ("alpha", "s", "p", "q", "x"):
            if fieldname in visible:
                cells.append(_fmt_float(getattr(r.prm, fieldname)))
            else:
                cells.append("")
        cells.append(_fmt_float(r.lhs))
        cells.append(_fmt_float(r.rhs))
        cells.append(_fmt_float(r.margin))
        cells.append("true" if r.holds else "false")
        cells.append(_fmt_float(r.quad_error_budget))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_INDENT = "  "
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALAR_KINDS = frozenset({bool, int, float, str, type(None)})
_NUMBER_KINDS = frozenset({bool, int, float})


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


def _column_texts(values: list, level: int) -> list[str]:
    """The JSON text of each value of one record field, in order.

    Most columns repeat a few values: on the rows-heavy benchmark workload
    15 of the 17 report fields, lhs and quad_error_budget among them, repeat
    in over 97% of rows, against 11% for margin and 26% for rhs. So each
    distinct value is encoded once, unless values that share a dict key
    have different texts: 0.0 and -0.0, or True, 1 and 1.0.
    """
    kinds = set(map(type, values))
    if kinds <= _SCALAR_KINDS and len(kinds & _NUMBER_KINDS) <= 1:
        distinct = dict.fromkeys(values)
        if not (float in kinds and 0.0 in distinct):
            memo = {v: _value_text(v, level) for v in distinct}
            return list(map(memo.__getitem__, values))
    return [_value_text(v, level) for v in values]


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


def _records_chunks(records: list, cls) -> list[str]:
    """A top-level list of ``cls`` records as text chunks, one per record."""
    if not records:
        return ["[]"]
    template, leaves = _record_layout(cls, 2)
    columns = [
        _column_texts(list(map(attrgetter(path), records)), lv) for path, lv in leaves
    ]
    item = _INDENT * 2 + template + ",\n"
    chunks = ["[\n", *map(item.__mod__, zip(*columns)), "\n" + _INDENT + "]"]
    chunks[-2] = chunks[-2][:-2]  # the last record takes no comma
    return chunks


def render_json(res: SweepResult) -> str:
    """``json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The stdlib encodes in C only without ``indent``, so the report and
    residual records, nearly all of the report, are written from one
    template per record type instead; the other fields go through
    ``json.dumps``. The text is joined once, so the report is copied once.
    """
    chunks = [
        '{\n  "convergence_errors": ', _dumps_at(res.convergence_errors, 1),
        ',\n  "provenance": ', _dumps_at(res.provenance, 1),
        ',\n  "reports": ', *_records_chunks(res.reports, InequalityReport),
        ',\n  "residuals": ', *_records_chunks(res.residuals, ResidualRecord),
        ',\n  "summary": ', _dumps_at(res.summary, 1), "\n}\n",
    ]
    return "".join(chunks)


def emit_report(res: SweepResult, format: str = "csv", path: str = "report.csv") -> None:
    """Write the sweep result to path in the requested format."""
    if format == "csv":
        payload = render_csv(res)
    elif format == "json":
        payload = render_json(res)
    else:
        raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
