"""Command-line front-end.

Subcommands:

check-identity
    Verify the core integral identity (and optionally its two one-sided
    constituents and its alpha = 1 classical form) for one catalog function
    over an alpha x x grid, through the sweep's identity pass.
verify
    Evaluate a single inequality at a single parameter point, as a one-point
    sweep, and print its report row(s); uncertified hypotheses downgrade the
    row to a skip notice, and values are checked and named as the sweep's.
sweep
    Run the full certificate-gated parameter sweep, from a JSON config file
    and/or flags that set the config keys they name (flags win), and emit
    CSV or JSON.
reduce
    Check that each fractional bound collapses onto its classical counterpart
    at alpha = 1, in closed form.
catalog
    List the built-in test functions, their derivative bounds, and their
    registered hypothesis certificates.

Exit codes: 0 when nothing asserted failed, 1 when an asserted check failed,
quadrature did not converge or stdout was closed before the output was
written (as ``| head``), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from .bounds import (
    DEFAULT_MARGIN_TOL,
    FRACTIONAL_IDS,
    REDUCTION_TOL,
    THEOREM_IDS,
    THEOREMS,
    CertCache,
    InequalityReport,
    reduction_check,
)
from .errors import ConfigError, ConvergenceError, FracIneqError
from .funcatalog import (
    DEFAULT_CERT_TOL,
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    builtin_catalog,
    catalog_names,
    get_entry,
)
from .harness import (
    _DEFAULT_ALPHAS,
    SweepConfig,
    default_config,
    emit_report,
    identity_pass,
    report_texts,
    run_sweep,
)
from .identity import DEFAULT_IDENTITY_TOL, check_classical, check_e1, check_halves

__all__ = ["main", "build_parser"]


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
        default=list(_DEFAULT_ALPHAS),
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
    p.add_argument("--margin-tol", type=float, default=DEFAULT_MARGIN_TOL)
    p.add_argument("--cert-tol", type=float, default=DEFAULT_CERT_TOL)

    # a flag's dest is the SweepConfig field it sets, and only given flags are set
    p = sub.add_parser(
        "sweep", help="run the parameter sweep and emit a CSV or JSON report",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--config", default=None, help="JSON config file; flags override its values"
    )
    p.add_argument("--functions", nargs="+", choices=catalog_names())
    p.add_argument("--theorems", nargs="+", choices=list(THEOREM_IDS))
    p.add_argument("--alphas", type=float, nargs="+")
    p.add_argument("--s-values", type=float, nargs="+")
    p.add_argument(
        "--pq",
        type=float,
        nargs=2,
        action="append",
        dest="pq_pairs",
        metavar=("P", "Q"),
        help="conjugate exponent pair; repeat the flag for several pairs",
    )
    xgroup = p.add_mutually_exclusive_group()
    xgroup.add_argument("--x", type=float, nargs="+", dest="x_points", metavar="X",
                        help="explicit x grid")
    xgroup.add_argument(
        "--x-count", type=int, dest="x_points", metavar="X_COUNT", help="size of uniform x grid"
    )
    p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--identity-tol", type=float)
    p.add_argument("--margin-tol", type=float)
    p.add_argument("--cert-tol", type=float)
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
    # the grid is checked as a sweep's, before any point is placed
    a, b = args.a, args.b
    grid = SweepConfig(
        (args.function,), tuple(args.alpha), interval=(a, b), identity_tol=args.tol,
        x_points=args.x_count if args.x is None else tuple(args.x),
    )
    if problems := grid.validate():
        raise ConfigError("; ".join(problems))
    # a count stands for that many interior points of [a, b]; the classical twins are
    # the alpha = 1 outcomes, from a job added after the grid's when it has none,
    # and each x's integral over [x, b] is a plain segment of the same batch
    xs = grid.x_points if args.x else np.linspace(a, b, args.x_count + 2)[1:-1].tolist()
    twin = (1.0,) * (args.classical and 1.0 not in grid.alphas)
    f = get_entry(args.function).func
    cols = identity_pass(dataclasses.replace(grid, alphas=grid.alphas + twin, x_points=tuple(xs)),
                         [(f, x, b) for x in xs] if args.classical else ())
    e1, (half_a, half_b) = check_e1(cols), check_halves(cols)
    lemma = check_classical(cols, f.name) if args.classical else None
    checks, classical = [], []  # (tag, residual or ConvergenceError), in print order
    for j, alpha in enumerate(cols.alphas):
        for i, x in enumerate(cols.xs):
            tag = f"{f.name} alpha={alpha:g} x={x:g}"
            failed = cols.failed.get((j, i))
            if alpha in grid.alphas:
                checks.append((tag, failed or e1.at(j, i)))
                if args.halves and a < x < b and not failed:
                    checks += [(f"  {tag} half-a", half_a.at(j, i)),
                               (f"  {tag} half-b", half_b.at(j, i))]
            if args.classical and alpha == 1.0:
                # the twin's error, else the [x, b] segment's, else the check
                res = failed or cols.plain[i]
                if not isinstance(res, ConvergenceError):
                    res = lemma.at(0, i)
                classical.append((f"{f.name} classical x={x:g}", res))

    failures = 0
    for tag, res in checks + classical:
        if isinstance(res, ConvergenceError):
            print(f"{tag}: CONVERGENCE ERROR {res}")
            failures += 1
            continue
        ok = res.passes(args.tol)
        failures += not ok
        print(
            f"{tag}: rel_residual={res.rel_residual:.3e} "
            f"budget={res.quad_error_budget:.3e} {'PASS' if ok else 'FAIL'}"
        )
    print(f"{len(checks) + len(classical)} identity checks, {failures} failures")
    return 0 if failures == 0 else 1


def _conjugate(v: float) -> float:
    """The Hoelder conjugate of v; 1 and inf are each other's. The (p, q)
    rule refuses the pair a v <= 1 makes, as any other bad pair."""
    if v == 1.0:
        return np.inf
    return 1.0 if v == np.inf else v / (v - 1.0)


def _format_report(r: InequalityReport) -> tuple[str, bool]:
    """Render one report row; returns (line, counts_as_failure)."""
    visible = THEOREMS[r.theorem_id].fields
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
    # one point of a sweep: its rows, gates and errors are the sweep's
    tid = args.theorem
    thm = THEOREMS[tid]
    a, b = args.a, args.b

    if thm.fractional:
        alpha = 0.5 if args.alpha is None else args.alpha
    else:
        alpha = 1.0 if args.alpha is None else args.alpha
        if alpha != 1.0:
            raise ConfigError(
                f"{tid} is a classical bound; --alpha must be 1, got {alpha!r}"
            )

    # a bound that reads no x is evaluated at the midpoint
    x = args.x if args.x is not None and "x" in thm.fields else 0.5 * (a + b)

    # a missing exponent is the other's conjugate; both are 2 when neither is given
    p, q = args.p, args.q
    if p is None:
        p = 2.0 if q is None else _conjugate(q)
    if q is None:
        q = _conjugate(p)

    cfg = SweepConfig((args.function,), (alpha,), (args.s,), ((p, q),), (x,), (a, b), (tid,),
                      margin_tol=args.margin_tol, cert_tol=args.cert_tol)
    res = run_sweep(cfg)
    if res.convergence_errors:  # the one point's, as main prints a ConvergenceError
        print(f"convergence error: {res.convergence_errors[0]}", file=sys.stderr)
        return 1
    failures = 0
    for r in res.reports:
        line, failed = _format_report(r)
        if failed:
            failures += 1
        print(line)
    return 0 if failures == 0 else 1


def _fmt_opt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.3e}"


def _frozen(value):
    """A flag's value as a ``SweepConfig`` field holds it: lists as tuples."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig.from_file(args.config) if args.config else default_config()
    cfg = dataclasses.replace(cfg, **{key: _frozen(value) for key, value in vars(args).items()
                                      if key not in ("command", "config", "out", "format")})
    res = run_sweep(cfg)

    if args.out:
        emit_report(res, format=args.format, path=args.out)
        dest = sys.stdout
    else:
        sys.stdout.writelines(report_texts(res, args.format))
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
    # 0 is meaningful: closed forms can coincide exactly
    if not 0.0 <= args.tol < np.inf:
        raise ConfigError(f"tol: must be >= 0 and finite, got {args.tol!r}")
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
        print(f"  |f'| <= {bound!r} (analytic)")
        print(f"  s-convex registrations (|f'|): {_fmt_s_list(entry.s_convex)}")
        print(f"  s-concave registrations (|f'|^2): {_fmt_s_list(entry.s_concave)}")
        if detailed:
            # printed s by s, targets within each s, then the s-concave registrations
            certs = CertCache(s_values=entry.s_convex)
            convex = [(target, MODE_CONVEX, s, q) for s in entry.s_convex for target, q in
                      ((TARGET_F, 1.0), (TARGET_FPRIME, 1.0), (TARGET_FPRIME_POW, 2.0))]
            concave = [(TARGET_FPRIME_POW, MODE_CONCAVE, s, 2.0) for s in entry.s_concave]
            for key in convex + concave:
                print(f"  {certs.get(entry, *key).describe()}")
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
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 1
    except FracIneqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
