"""Benchmark workloads: sweep configs generated from a workload seed.

Each workload turns ``(seed, tiny)`` into a ``fracineq sweep`` config dict,
written to a file that is the program's only input. Seeded draws are
stratified: a range is cut into equal strata and each stratum gets one
uniform draw. The values stay random, but the total quadrature and row work
moves little from seed to seed, so run-to-run spread is timing noise, not
workload size. ``tiny`` shrinks every grid axis for the benchmark's own tests.

The draws use ``random.Random`` seeded from the workload name and seed, so a
seed gives the same config on every platform and numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

FUNCTIONS = (
    "constant", "affine", "affine_shift", "square", "pow125",
    "pow150", "pow175", "threehalf", "exp",
)
FRACTIONAL = ("E6", "E7", "E8proof", "E9")
ALL_THEOREMS = FRACTIONAL + ("e1", "e13", "e14", "t5_146", "t6_147")

# Pinned so that a change of the program's defaults cannot shrink the work.
TOLERANCES = {
    "identity_tol": 1e-8,
    "margin_tol": 1e-9,
    "cert_tol": 1e-9,
    "quad_rel_tol": 1e-10,
    "quad_abs_tol": 1e-12,
}


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One draw in each of n equal strata of (lo, hi]; log=True strata in log space."""
    if log:
        return [math.exp(v) for v in _strata(rng, n, math.log(lo), math.log(hi))]
    width = (hi - lo) / n
    return [lo + (i + 1) * width - rng.random() * width for i in range(n)]


def _config(functions, alphas, x_points, theorems, s_values, pq_pairs, seed) -> dict:
    return {
        "functions": list(functions),
        "alphas": list(alphas),
        "s_values": list(s_values),
        "pq_pairs": [list(pair) for pair in pq_pairs],
        "x_points": x_points if isinstance(x_points, int) else list(x_points),
        "interval": [0.0, 1.0],
        "theorems": list(theorems),
        "seed": seed,
        "tolerances": dict(TOLERANCES),
    }


def frac_default(seed: int, tiny: bool) -> dict:
    """The reference sweep, ``default_config()`` spelled out; the seed is ignored."""
    if tiny:
        return _config(("square", "exp"), (0.5, 1.5), 3, FRACTIONAL,
                       (0.5, 1.0), ((2.0, 2.0), (3.0, 1.5)), 0)
    return _config(FUNCTIONS, (0.25, 0.5, 0.75, 1.0, 1.5, 2.0), 11, FRACTIONAL,
                   (0.25, 0.5, 0.75, 1.0), ((2.0, 2.0), (3.0, 1.5), (1.25, 5.0)), 0)


def quad_heavy(seed: int, tiny: bool) -> dict:
    """E6 at s = 1 only: one row per point, so quadrature is nearly all the work."""
    rng = random.Random(f"quad-heavy/{seed}")
    n_alpha, n_x = (2, 3) if tiny else (7, 11)
    functions = ("square", "exp") if tiny else FUNCTIONS
    alphas = _strata(rng, n_alpha, 0.05, 4.0, log=True)
    xs = _strata(rng, n_x, 0.0, 1.0)
    return _config(functions, alphas, xs, ("E6",), (1.0,), ((2.0, 2.0),), seed)


def rows_heavy(seed: int, tiny: bool) -> dict:
    """Every theorem over a dense (s, p, q) grid and few points: rows dominate."""
    rng = random.Random(f"rows-heavy/{seed}")
    n_alpha, n_x, n_s, n_pq = (1, 2, 3, 2) if tiny else (2, 5, 12, 6)
    functions = ("square", "pow150") if tiny else FUNCTIONS
    alphas = _strata(rng, n_alpha, 0.1, 3.0, log=True)
    xs = _strata(rng, n_x, 0.0, 1.0)
    s_values = _strata(rng, n_s, 0.05, 1.0)
    ps = _strata(rng, n_pq, 1.1, 6.0)
    return _config(functions, alphas, xs, ALL_THEOREMS, s_values,
                   [(p, p / (p - 1.0)) for p in ps], seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fmt: str
    make_config: Callable[[int, bool], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frac-default",
            "the reference sweep users run and every roadmap gate names; "
            "quadrature ~70% and row evaluation ~22% of the time",
            "csv",
            frac_default,
        ),
        Workload(
            "quad-heavy",
            "isolates quadrature: random alpha and x vary the integrand shape, "
            "one row per point",
            "csv",
            quad_heavy,
        ),
        Workload(
            "rows-heavy",
            "rows, certificates and JSON rendering dominate: frac-default's row "
            "count with ~5x fewer QUADPACK evaluations and 6x as many certificates built",
            "json",
            rows_heavy,
        ),
    )
}


def x_count(cfg: dict) -> int:
    xp = cfg["x_points"]
    return xp if isinstance(xp, int) else len(xp)


def grid_points(cfg: dict) -> int:
    """Quadrature points of a sweep: functions x alphas x x."""
    return len(cfg["functions"]) * len(cfg["alphas"]) * x_count(cfg)


def expected_rows(cfg: dict) -> int:
    """Report rows the sweep must produce, counted independently of the program.

    Per fractional point: E6 one row per s, E8proof one per (s, distinct q),
    E7 and E9 one per (s, (p, q)). Per (function, x): e1 one row, e14 one per
    s, t5_146 one per (s, distinct q), t6_147 one per (s, (p, q)). e13 gives
    two rows per (function, s).
    """
    theorems = set(cfg["theorems"])
    n_s = len(cfg["s_values"])
    n_pq = len(cfg["pq_pairs"])
    n_q = len({q for _, q in cfg["pq_pairs"]})
    per_point = {"E6": n_s, "E7": n_s * n_pq, "E8proof": n_s * n_q, "E9": n_s * n_pq}
    per_fx = {"e1": 1, "e14": n_s, "t5_146": n_s * n_q, "t6_147": n_s * n_pq}
    n_f = len(cfg["functions"])
    rows = grid_points(cfg) * sum(v for t, v in per_point.items() if t in theorems)
    rows += n_f * x_count(cfg) * sum(v for t, v in per_fx.items() if t in theorems)
    if "e13" in theorems:
        rows += n_f * 2 * n_s
    return rows
