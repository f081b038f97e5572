"""End-to-end acceptance checks, one test per shipped guarantee.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee. Tolerances and grids are pinned here on purpose; loosening them
is an interface change, not a test fix. Wall-clock budgets keep the suite
honest about being desk-scale.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import pkgutil
import time

import numpy as np

import fracineq
from fracineq import (
    FRACTIONAL_IDS,
    FracParams,
    beta,
    builtin_catalog,
    default_config,
    gamma,
    get_entry,
    oracle,
    reduction_check,
    render_csv,
    run_sweep,
    weighted_endpoint_integral,
)

from at_point import classical_at, pieces_of, rows_at

GAMMA_IDENTITY_RTOL = 8e-13
HALF_INTEGER_RTOL = 1e-13
POWER_FORMULA_RTOL = 1e-9
ORACLE_MATCH_TOL = 1e-8
IDENTITY_RTOL = 1e-8
ALPHA_ONE_MATCH = 1e-12
REDUCTION_TOL = 1e-12
SHARPNESS_TOL = 1e-12
HH_MARGIN_TOL = 1e-10


def test_gamma_recurrence_beta_identity_and_half_integer_value():
    start = time.monotonic()
    for z in np.geomspace(0.1000001, 50.0, 400):
        z = float(z)
        want = z * gamma(z)
        assert abs(gamma(z + 1.0) - want) <= GAMMA_IDENTITY_RTOL * abs(want)
    grid = [float(v) for v in np.geomspace(0.1000001, 10.0, 25)]
    for u in grid:
        for v in grid:
            want = gamma(u) * gamma(v) / gamma(u + v)
            assert abs(beta(u, v) - want) <= GAMMA_IDENTITY_RTOL * abs(want)
    root_pi = math.sqrt(math.pi)
    assert abs(gamma(0.5) - root_pi) <= HALF_INTEGER_RTOL * root_pi
    assert time.monotonic() - start < 1.0


def test_power_rule_and_adaptive_oracle_equivalence():
    start = time.monotonic()
    a = 0.3
    for exponent in (0.0, 0.5, 1.0, 2.0):
        # numpy gives (t-a)**0 == 1 at t == a, the continuous limit
        f = lambda t, e=exponent: (np.asarray(t, dtype=float) - a) ** e
        for alpha in (0.5, 1.0, 1.5):
            for x in np.linspace(0.45, 1.3, 5):
                x = float(x)
                want = (
                    math.gamma(exponent + 1.0)
                    / math.gamma(alpha + exponent + 1.0)
                    * (x - a) ** (alpha + exponent)
                )
                got = weighted_endpoint_integral(f, a, x, alpha, "hi").value / gamma(alpha)
                assert abs(got - want) <= POWER_FORMULA_RTOL * abs(want)

    rng = np.random.default_rng(0)
    entries = builtin_catalog()
    for _ in range(50):
        entry = entries[int(rng.integers(len(entries)))]
        alpha = float(rng.uniform(0.3, 2.2))
        x = float(rng.uniform(0.15, 1.0))
        got = weighted_endpoint_integral(entry.func, 0.0, x, alpha, "hi").value / gamma(alpha)
        want = oracle(entry.func, 0.0, x, alpha, "hi") / math.gamma(alpha)
        assert abs(got - want) <= ORACLE_MATCH_TOL * max(1.0, abs(want))
    assert time.monotonic() - start < 30.0


def test_identity_residuals_across_catalog_and_classical_agreement():
    start = time.monotonic()
    alphas = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    xs = [float(v) for v in np.linspace(0.0, 1.0, 11)[1:-1]]  # 9 interior points
    for entry in builtin_catalog():
        for alpha in alphas:
            for x in xs:
                res = pieces_of(entry.func, FracParams(0.0, 1.0, x, alpha)).e1
                assert res.rel_residual <= IDENTITY_RTOL, (entry.name, alpha, x)
        for x in xs:
            frac = pieces_of(entry.func, FracParams(0.0, 1.0, x, 1.0)).e1
            classical = classical_at(entry.func, 0.0, 1.0, x)
            scale = max(1.0, abs(frac.lhs), abs(classical.lhs))
            assert abs(frac.lhs - classical.lhs) <= ALPHA_ONE_MATCH * scale
            assert abs(frac.rhs - classical.rhs) <= ALPHA_ONE_MATCH * scale
    assert time.monotonic() - start < 60.0


def test_default_sweep_has_zero_asserted_violations():
    start = time.monotonic()
    result = run_sweep(default_config())
    summary = result.summary
    assert summary["failed"] == 0
    assert summary["identity_failures"] == 0
    assert summary["convergence_errors"] == 0
    # the concave-derivative path must actually fire, not just be skipped:
    # both t**1.5-shaped entries carry a passing concavity registration
    asserted_e9 = {
        r.function for r in result.reports if r.theorem_id == "E9" and r.asserted
    }
    assert {"threehalf", "pow150"} <= asserted_e9
    assert time.monotonic() - start < 120.0


def test_alpha_one_reductions_match_classical_closed_forms():
    start = time.monotonic()
    for tid in FRACTIONAL_IDS:
        assert reduction_check(tid) <= REDUCTION_TOL, tid
    assert time.monotonic() - start < 1.0


def test_ostrowski_equality_witness_at_endpoints():
    entry = get_entry("affine")
    for x in (0.0, 1.0):
        prm = FracParams(0.0, 1.0, x, 1.0, M=1.0)
        (row,) = rows_at("e1", entry, prm)
        assert abs(row.margin) <= SHARPNESS_TOL, x


def test_hermite_hadamard_pair_for_every_registered_s():
    for entry in builtin_catalog():
        for s in sorted(set(entry.s_convex) | set(entry.s_concave)):
            prm = FracParams(0.0, 1.0, 0.5, 1.0, s=s)
            lower, upper = rows_at("e13", entry, prm)
            assert lower.asserted and upper.asserted, (entry.name, s)
            assert lower.margin >= -HH_MARGIN_TOL, (entry.name, s)
            assert upper.margin >= -HH_MARGIN_TOL, (entry.name, s)


def test_sweep_determinism(default_result):
    second = run_sweep(default_config())
    assert render_csv(default_result) == render_csv(second)


def test_every_exported_name_resolves():
    # a name left in an export list after its object is removed would break
    # a star import and mislead the reader of the list
    modules = [fracineq] + [
        importlib.import_module(f"fracineq.{info.name}")
        for info in pkgutil.iter_modules(fracineq.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
    # and a name the package exports from a submodule is in that submodule's
    # own list, so the two lists agree on what is public
    unlisted = [
        f"fracineq.{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(inspect.getsource(fracineq)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name in fracineq.__all__
        and alias.name not in getattr(
            importlib.import_module(f"fracineq.{node.module}"), "__all__", (alias.name,)
        )
    ]
    assert unlisted == []
