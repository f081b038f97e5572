"""Command-line front-end.

Subcommands:

check-identity
    Verify the core integral identity (and optionally its two one-sided
    constituents) for one catalog function over an alpha x x grid.
verify
    Evaluate a single inequality at a single parameter point and print the
    report row(s); uncertified hypotheses downgrade the row to a skip notice.
sweep
    Run the full certificate-gated parameter sweep, from a JSON config file
    and/or flag overrides (flags win), and emit CSV or JSON.
reduce
    Check that each fractional bound collapses onto its classical counterpart
    at alpha = 1, in closed form.
catalog
    List the built-in test functions, their derivative bounds, and their
    registered hypothesis certificates.

Exit codes: 0 when nothing asserted failed, 1 when an asserted check failed
or quadrature did not converge, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from .bounds import (
    DEFAULT_MARGIN_TOL,
    FRACTIONAL_IDS,
    REDUCTION_TOL,
    THEOREM_IDS,
    CertCache,
    InequalityReport,
    evaluate_theorem,
    reduction_check,
)
from .errors import ConfigError, ConvergenceError, FracIneqError
from .fracint import FracParams, QuadratureConfig
from .funcatalog import (
    DEFAULT_CERT_TOL,
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    builtin_catalog,
    catalog_names,
    certify,
    get_entry,
)
from .harness import (
    _CSV_PARAM_FIELDS,
    SweepConfig,
    default_config,
    emit_report,
    render_csv,
    render_json,
    run_sweep,
)
from .identity import (
    DEFAULT_IDENTITY_TOL,
    check_classical_lemma,
    check_e1_from_pieces,
    check_e4_from_pieces,
    check_e5_from_pieces,
    compute_pieces,
)

__all__ = ["main", "build_parser"]

_IDENTITY_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracineq",
        description=(
            "Numerical verification laboratory for fractional Ostrowski-type "
            "inequalities: identity residuals, certificate-gated bound checks, "
            "and reproducible parameter sweeps."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-identity",
        help="verify the core integral identity over an alpha x x grid",
    )
    p.add_argument("--function", required=True, choices=catalog_names())
    p.add_argument("--a", type=float, default=0.0, help="interval left endpoint")
    p.add_argument("--b", type=float, default=1.0, help="interval right endpoint")
    p.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        default=list(_IDENTITY_ALPHAS),
        help="fractional orders to test (default: six standard orders)",
    )
    xgroup = p.add_mutually_exclusive_group()
    xgroup.add_argument("--x", type=float, nargs="+", help="explicit evaluation points")
    xgroup.add_argument(
        "--x-count",
        type=int,
        default=9,
        help="number of interior grid points when --x is absent",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_IDENTITY_TOL)
    p.add_argument(
        "--halves",
        action="store_true",
        help="also verify the two one-sided constituents at interior points",
    )
    p.add_argument(
        "--classical",
        action="store_true",
        help="also verify the alpha=1 classical identity at each x",
    )

    p = sub.add_parser(
        "verify", help="evaluate one inequality at one parameter point"
    )
    p.add_argument("--theorem", required=True, choices=list(THEOREM_IDS))
    p.add_argument("--function", required=True, choices=catalog_names())
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="fractional order (default 0.5; classical ids fix alpha=1)",
    )
    p.add_argument("--s", type=float, default=1.0, help="convexity order in (0, 1]")
    p.add_argument("--p", type=float, default=None, help="conjugate exponent p > 1")
    p.add_argument("--q", type=float, default=None, help="conjugate exponent q")
    p.add_argument(
        "--x", type=float, default=None, help="evaluation point (default midpoint)"
    )
    p.add_argument(
        "--M",
        type=float,
        default=None,
        help="derivative bound override (default: catalog bound)",
    )
    p.add_argument("--margin-tol", type=float, default=DEFAULT_MARGIN_TOL)
    p.add_argument("--cert-tol", type=float, default=DEFAULT_CERT_TOL)

    p = sub.add_parser(
        "sweep", help="run the parameter sweep and emit a CSV or JSON report"
    )
    p.add_argument(
        "--config", default=None, help="JSON config file; flags override its values"
    )
    p.add_argument("--functions", nargs="+", choices=catalog_names(), default=None)
    p.add_argument("--theorems", nargs="+", choices=list(THEOREM_IDS), default=None)
    p.add_argument("--alphas", type=float, nargs="+", default=None)
    p.add_argument("--s-values", type=float, nargs="+", default=None, dest="s_values")
    p.add_argument(
        "--pq",
        type=float,
        nargs=2,
        action="append",
        default=None,
        metavar=("P", "Q"),
        help="conjugate exponent pair; repeat the flag for several pairs",
    )
    xgroup = p.add_mutually_exclusive_group()
    xgroup.add_argument("--x", type=float, nargs="+", help="explicit x grid")
    xgroup.add_argument(
        "--x-count", type=int, default=None, dest="x_count", help="size of uniform x grid"
    )
    p.add_argument("--interval", type=float, nargs=2, default=None, metavar=("A", "B"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--identity-tol", type=float, default=None, dest="identity_tol")
    p.add_argument("--margin-tol", type=float, default=None, dest="margin_tol")
    p.add_argument("--cert-tol", type=float, default=None, dest="cert_tol")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread count (default: FRACINEQ_THREADS or 1)",
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser(
        "reduce",
        help="check each fractional bound against its classical form at alpha=1",
    )
    p.add_argument(
        "--theorem", choices=list(FRACTIONAL_IDS) + ["all"], default="all"
    )
    p.add_argument("--tol", type=float, default=REDUCTION_TOL)

    p = sub.add_parser(
        "catalog", help="list test functions and their hypothesis certificates"
    )
    p.add_argument(
        "--function",
        choices=catalog_names(),
        default=None,
        help="show one entry with freshly computed certificates",
    )

    return parser


def _cmd_check_identity(args: argparse.Namespace) -> int:
    entry = get_entry(args.function)
    f = entry.func
    a, b = args.a, args.b
    if args.x is not None:
        xs = [float(v) for v in args.x]
    else:
        xs = [float(v) for v in np.linspace(a, b, args.x_count + 2)[1:-1]]
    cfg = QuadratureConfig()
    checks = 0
    failures = 0

    def report(tag: str, rel: float, budget: float, ok: bool) -> None:
        nonlocal checks, failures
        checks += 1
        if not ok:
            failures += 1
        print(
            f"{tag}: rel_residual={rel:.3e} budget={budget:.3e} "
            f"{'PASS' if ok else 'FAIL'}"
        )

    for alpha in args.alpha:
        # one batched call per alpha; the full identity and both halves share it
        try:
            outcomes = compute_pieces(f, a, b, alpha, xs, cfg)
        except ConvergenceError as exc:
            outcomes = [exc] * len(xs)
        for x, pieces in zip(xs, outcomes):
            tag = f"{f.name} alpha={alpha:g} x={x:g}"
            if isinstance(pieces, ConvergenceError):
                checks += 1
                failures += 1
                print(f"{tag}: CONVERGENCE ERROR {pieces}")
                continue
            res = check_e1_from_pieces(pieces)
            report(tag, res.rel_residual, res.quad_error_budget, res.passes(args.tol))
            if args.halves and a < x < b:
                for half, res in (
                    ("half-a", check_e4_from_pieces(pieces)),
                    ("half-b", check_e5_from_pieces(pieces)),
                ):
                    report(f"  {tag} {half}", res.rel_residual, res.quad_error_budget,
                           res.passes(args.tol))
    if args.classical:
        for x in xs:
            res = check_classical_lemma(f, a, b, x, cfg)
            report(f"{f.name} classical x={x:g}", res.rel_residual,
                   res.quad_error_budget, res.passes(args.tol))

    print(f"{checks} identity checks, {failures} failures")
    return 0 if failures == 0 else 1


def _conjugate(v: float) -> float:
    if v <= 1.0:
        raise ConfigError(f"conjugate exponent requires a value > 1, got {v!r}")
    return v / (v - 1.0)


def _format_report(r: InequalityReport) -> tuple[str, bool]:
    """Render one report row; returns (line, counts_as_failure)."""
    visible = _CSV_PARAM_FIELDS[r.theorem_id]
    parts = [r.theorem_id, r.function]
    for fieldname in ("alpha", "s", "p", "q", "x"):
        if fieldname in visible:
            value = getattr(r.prm, fieldname)
            if value is not None:
                parts.append(f"{fieldname}={value:g}")
    head = " ".join(parts)
    body = (
        f"lhs={r.lhs!r} rhs={r.rhs!r} margin={r.margin!r} "
        f"budget={r.quad_error_budget:.3e}"
    )
    if not r.asserted:
        return f"{head}: {body} SKIPPED ({r.note})", False
    suffix = f" [{r.note}]" if r.note else ""
    if r.holds:
        return f"{head}: {body} HOLDS{suffix}", False
    return f"{head}: {body} VIOLATED{suffix}", True


def _cmd_verify(args: argparse.Namespace) -> int:
    tid = args.theorem
    entry = get_entry(args.function)
    a, b = args.a, args.b

    if tid in FRACTIONAL_IDS:
        alpha = 0.5 if args.alpha is None else args.alpha
    else:
        alpha = 1.0 if args.alpha is None else args.alpha
        if alpha != 1.0:
            raise ConfigError(
                f"{tid} is a classical bound; --alpha must be 1, got {alpha!r}"
            )

    x = 0.5 * (a + b) if args.x is None else args.x
    if tid == "e13":
        x = 0.5 * (a + b)  # the midpoint pair consumes no x

    p, q = args.p, args.q
    if tid in ("E7", "E9", "t6_147"):
        if p is None and q is None:
            p = q = 2.0
        elif p is None:
            p = _conjugate(q)
        elif q is None:
            q = _conjugate(p)
    elif tid in ("E8proof", "t5_146") and q is None:
        q = 2.0 if p is None else _conjugate(p)

    prm = FracParams(a, b, x, alpha, s=args.s, p=p, q=q, M=args.M)
    certs = CertCache(cert_tol=args.cert_tol)
    reports = evaluate_theorem(
        tid, entry, prm, margin_tol=args.margin_tol, certs=certs
    )
    failures = 0
    for r in reports:
        line, failed = _format_report(r)
        if failed:
            failures += 1
        print(line)
    return 0 if failures == 0 else 1


def _fmt_opt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3e}"


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig.from_file(args.config) if args.config else default_config()
    overrides: dict = {}
    if args.functions:
        overrides["functions"] = tuple(args.functions)
    if args.theorems:
        overrides["theorems"] = tuple(args.theorems)
    if args.alphas:
        overrides["alphas"] = tuple(args.alphas)
    if args.s_values:
        overrides["s_values"] = tuple(args.s_values)
    if args.pq:
        overrides["pq_pairs"] = tuple((float(pv), float(qv)) for pv, qv in args.pq)
    if args.x is not None:
        overrides["x_points"] = tuple(args.x)
    elif args.x_count is not None:
        overrides["x_points"] = args.x_count
    if args.interval is not None:
        overrides["interval"] = tuple(args.interval)
    if args.seed is not None:
        overrides["seed"] = args.seed
    for tname in ("identity_tol", "margin_tol", "cert_tol"):
        value = getattr(args, tname)
        if value is not None:
            overrides[tname] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    res = run_sweep(cfg, workers=args.workers)

    if args.out:
        emit_report(res, format=args.format, path=args.out)
        dest = sys.stdout
    else:
        payload = render_csv(res) if args.format == "csv" else render_json(res)
        sys.stdout.write(payload)
        dest = sys.stderr

    s = res.summary
    print(
        f"rows: {s['total']} (passed {s['passed']}, failed {s['failed']}, "
        f"skipped {s['skipped']})",
        file=dest,
    )
    print(
        f"identity points: {len(res.residuals)}, failures: "
        f"{s['identity_failures']}, worst rel residual: "
        f"{_fmt_opt(s['worst_residual'])}",
        file=dest,
    )
    print(f"worst asserted margin: {_fmt_opt(s['worst_margin'])}", file=dest)
    print(f"convergence errors: {s['convergence_errors']}", file=dest)
    for msg in res.convergence_errors:
        print(f"  {msg}", file=dest)
    if args.out:
        print(f"report written to {args.out}", file=dest)

    clean = (
        s["failed"] == 0
        and s["identity_failures"] == 0
        and s["convergence_errors"] == 0
    )
    return 0 if clean else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    tids = FRACTIONAL_IDS if args.theorem == "all" else (args.theorem,)
    failures = 0
    for tid in tids:
        deviation = reduction_check(tid)
        ok = deviation <= args.tol
        if not ok:
            failures += 1
        print(
            f"{tid} at alpha=1: max deviation from classical counterpart "
            f"{deviation:.3e} (tol {args.tol:g}) {'OK' if ok else 'FAIL'}"
        )
    return 0 if failures == 0 else 1


def _fmt_s_list(values: tuple[float, ...]) -> str:
    return ", ".join(f"{v:g}" for v in values) if values else "none"


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = [get_entry(args.function)] if args.function else builtin_catalog()
    detailed = args.function is not None
    for entry in entries:
        f = entry.func
        bound = entry.deriv_bound()
        print(f"{entry.name}: {entry.summary} on [{f.domain_lo:g}, {f.domain_hi:g}]")
        print(f"  |f'| <= {bound.M!r} ({bound.method})")
        print(f"  s-convex registrations (|f'|): {_fmt_s_list(entry.s_convex)}")
        print(f"  s-concave registrations (|f'|^2): {_fmt_s_list(entry.s_concave)}")
        if detailed:
            for s in entry.s_convex:
                for target in (TARGET_F, TARGET_FPRIME):
                    cert = certify(f, s=s, target=target, mode=MODE_CONVEX)
                    print(f"  {cert.describe()}")
                cert = certify(f, s=s, q=2.0, target=TARGET_FPRIME_POW, mode=MODE_CONVEX)
                print(f"  {cert.describe()}")
            for s in entry.s_concave:
                cert = certify(f, s=s, q=2.0, target=TARGET_FPRIME_POW, mode=MODE_CONCAVE)
                print(f"  {cert.describe()}")
    return 0


_DISPATCH = {
    "check-identity": _cmd_check_identity,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "reduce": _cmd_reduce,
    "catalog": _cmd_catalog,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 1
    except FracIneqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
