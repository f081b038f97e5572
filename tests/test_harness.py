"""Sweep orchestration: config handling, determinism, reporting, and the CLI."""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import os
import pickle
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracineq
from fracineq import bounds, cli, fracint, harness, identity
from fracineq.bounds import THEOREM_IDS
from fracineq.errors import ConfigError, ConvergenceError
from fracineq.fracint import QuadratureConfig
from fracineq.funcatalog import (
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    builtin_catalog,
    catalog_names,
    certify_batch,
    get_entry,
)
from fracineq.harness import (
    CSV_HEADER,
    ResidualRecord,
    SweepConfig,
    SweepResult,
    default_config,
    emit_report,
    render_csv,
    render_json,
    run_sweep,
)

from at_point import abs_lhs_of, classical_at, one_lane, rows_at


def _report_sort_key(r):
    """The report order: ``run_sweep`` emits rows ascending in this key, and
    rows that differ only in q in the order of their (p, q) pairs."""
    visible = bounds.THEOREMS[r.theorem_id].fields

    def cell(fieldname: str) -> float:
        if fieldname not in visible:
            return -1.0
        value = getattr(r.prm, fieldname)
        return -1.0 if value is None else float(value)

    return (r.theorem_id, r.function, cell("alpha"), cell("s"), cell("p"), cell("x"))


SMALL = SweepConfig(
    functions=("affine", "square"),
    alphas=(0.5, 1.0),
    s_values=(0.5, 1.0),
    pq_pairs=((2.0, 2.0),),
    x_points=3,
    theorems=("E6", "E7", "E8proof", "E9", "e1", "e13", "e14", "t5_146", "t6_147"),
)


def _stall_lanes(monkeypatch, module, picked):
    """Give each lane that ``picked(start, end, beta)`` selects an integrand
    that cannot converge in 8 subdivisions, the budget ``module``'s
    quadrature config is held to; every other lane is left as it is."""
    real = fracint._lanes

    def rigged(h, start, end, beta):
        lanes = real(h, start, end, beta)
        bad = picked(np.asarray(start), np.asarray(end), np.asarray(beta))

        def fn(lane, v):
            nasty = np.sin(1000.0 * v**2) / (0.001 + v)
            return np.where(bad[lane, None], nasty, lanes.fn(lane, v))

        return dataclasses.replace(lanes, fn=fn)

    monkeypatch.setattr(fracint, "_lanes", rigged)
    monkeypatch.setattr(
        module, "QuadratureConfig", functools.partial(QuadratureConfig, max_subdivisions=8)
    )


def _every_lane(start, end, beta):
    return np.ones(np.shape(start), dtype=bool)


def _moment_lane_at_half(start, end, beta):
    # the moment lane (beta = alpha + 1 = 2) of x = 0.5 toward a = 0
    return (end == 0.5) & (start == 0.0) & (beta == 2.0)


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(SMALL)


class TestSweepConfig:
    def test_default_is_valid_and_covers_catalog(self):
        cfg = default_config()
        assert cfg.functions == tuple(catalog_names())
        assert cfg.validate() == []

    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"functions": ()}, "functions: must not be empty"),
            ({"functions": ("nope",)}, "unknown catalog name"),
            ({"theorems": ("E6", "X1")}, "unknown id"),
            ({"theorems": ()}, "theorems: must not be empty"),
            ({"interval": (1.0, 0.0)}, "need a < b"),
            ({"interval": (-1.0, 1.0)}, "must lie in [0, inf)"),
            ({"interval": (0.0, 2.0)}, "is outside the domain of"),
            ({"alphas": (0.5, -1.0)}, "alphas: must lie in [1e-300, 140], got -1.0"),
            ({"alphas": ()}, "alphas: must not be empty"),
            ({"s_values": (1.5,)}, "must lie in (0, 1]"),
            ({"s_values": ()}, "s_values: must not be empty"),
            ({"pq_pairs": ((2.0, 3.0),)}, "not a conjugate pair"),
            ({"pq_pairs": ()}, "pq_pairs: must not be empty"),
            ({"x_points": 0}, "count must be >= 1"),
            ({"x_points": (2.0,)}, "x_points: must lie in [0.0, 1.0], got 2.0"),
            ({"identity_tol": 0.0}, "identity_tol: must be > 0"),
            ({"margin_tol": -1.0}, "margin_tol: must be > 0"),
            ({"alphas": (0.5, 140.5)}, "alphas: must lie in [1e-300, 140], got 140.5"),
            ({"alphas": (0.5, 1e-307)}, "alphas: must lie in [1e-300, 140], got 1e-307"),
            ({"functions": ("square", "exp", "square")}, "functions: 'square' is repeated"),
            ({"alphas": (0.5, 1.0, 0.5)}, "alphas: 0.5 is repeated"),
            ({"theorems": ("E6", "e1", "E6")}, "theorems: 'E6' is repeated"),
            ({"s_values": (1.0, 0.5, 1)}, "s_values: 1 is repeated"),
            ({"pq_pairs": ((2.0, 2.0), (3.0, 1.5), (2.0, 2.0))}, "pq_pairs: (2.0, 2.0) is repeated"),
            ({"x_points": (0.25, 0.5, 0.25)}, "x_points: 0.25 is repeated"),
            ({"pq_pairs": ((2.0, math.nan),)}, "(2.0, nan) is not a conjugate pair"),
            ({"pq_pairs": ((2.0, 0.0),)}, "(2.0, 0.0) is not a conjugate pair"),
            # a wrongly typed field set from Python is a problem, not a TypeError
            ({"x_points": 1.5}, "x_points: must be a count or a list of numbers, got 1.5"),
            ({"alphas": 0.5}, "alphas: must be a list of numbers, got 0.5"),
            ({"s_values": "a"}, "s_values: must be a list of numbers, got 'a'"),
        ],
    )
    def test_validate_flags_each_problem(self, change, needle):
        cfg = dataclasses.replace(default_config(), **change)
        problems = cfg.validate()
        assert any(needle in p for p in problems), problems
        with pytest.raises(ConfigError, match=re.escape(needle)):
            run_sweep(cfg)

    @pytest.mark.parametrize(
        "change, alpha",
        [
            # (1e-103)**3 underflows, (1e-103)**1.25 does not: the largest alpha
            ({"interval": (0.0, 1e-103), "alphas": (0.25, 2.0)}, 2.0),
            # classical bounds are checked at alpha = 1, whatever the alphas
            ({"interval": (0.0, 1e-160), "alphas": (0.25,), "theorems": ("E6", "e1")}, 1.0),
            ({"interval": (0.5, 0.5 + 1e-3), "alphas": (100.0, 140.0)}, 140.0),
        ],
    )
    def test_validate_refuses_an_interval_too_narrow_to_check(self, change, alpha):
        cfg = dataclasses.replace(default_config(), **change)
        a, b = cfg.interval
        want = f"interval: {fracint.too_narrow(a, b, alpha)}"
        assert f"[{a!r}, {b!r}] is too narrow to check at alpha={alpha!r}" in want
        assert want in cfg.validate()
        with pytest.raises(ConfigError, match=re.escape(f"[{a!r}, {b!r}] is too narrow")):
            fracint.FracParams(a, b, a, alpha)

    @pytest.mark.parametrize(
        "change",
        [
            {"interval": (0.0, 1e-103), "alphas": (0.25, 1.5)},
            {"interval": (0.0, 1e-160), "alphas": (0.25,), "theorems": ("E6",)},
            {"interval": (0.5, 0.5 + 1e-3), "alphas": (100.0,)},
            # out-of-range alphas are refused as such, not as a narrow interval
            {"interval": (0.0, 1e-200), "alphas": (-1.0, math.nan, 1e-307)},
        ],
    )
    def test_validate_keeps_an_interval_wide_enough_to_check(self, change):
        cfg = dataclasses.replace(default_config(), **change)
        assert not any("too narrow" in p for p in cfg.validate())

    def test_resolve_x_from_count(self):
        cfg = dataclasses.replace(default_config(), x_points=3)
        assert cfg.resolve_x() == (0.0, 0.5, 1.0)

    def test_resolve_x_explicit_passthrough(self):
        cfg = dataclasses.replace(default_config(), x_points=(0.1, 0.9))
        assert cfg.resolve_x() == (0.1, 0.9)

    def test_dict_round_trip(self):
        assert SweepConfig.from_dict(SMALL.to_dict()) == SMALL
        # an older config's seed is dropped, whatever its value
        for seed in (3, "x", False):
            assert SweepConfig.from_dict({**SMALL.to_dict(), "seed": seed}) == SMALL

    def test_from_dict_flat_tolerance_keys(self):
        cfg = SweepConfig.from_dict({"margin_tol": 1e-6})
        assert cfg.margin_tol == 1e-6

    def test_from_dict_nested_tolerances(self):
        cfg = SweepConfig.from_dict({"tolerances": {"identity_tol": 2e-7}})
        assert cfg.identity_tol == 2e-7

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SweepConfig.from_dict({"alpha_grid": [0.5]})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL.to_dict()), encoding="utf-8")
        assert SweepConfig.from_file(str(path)) == SMALL

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            SweepConfig.from_file(str(path))

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            SweepConfig.from_file(str(path))


# JSON values of every type, counts kept small: a count near the grid cap
# would run a sweep for minutes
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=8,
)
# values of the right shape, so that draws also reach the value checks
_NUMBER = st.integers(-3, 50) | st.floats()
_NEAR_VALID = (
    st.lists(st.sampled_from(catalog_names() + list(THEOREM_IDS)), max_size=3)
    | st.lists(_NUMBER, max_size=3)
    | st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=3)
    | st.dictionaries(st.sampled_from(harness._TOLERANCES), _NUMBER, max_size=2)
)


class TestConfigFileTypes:
    """A config file whose keys have the wrong JSON type exits 2 with a
    ConfigError naming each problem, never a traceback or a silent guess."""

    @pytest.mark.parametrize(
        "config,needles",
        [
            # a string is not a list of one-character names
            ({"functions": "square"}, ["functions: must be a list of strings, got 'square'"]),
            # a bool is not a count
            ({"x_points": True}, ["x_points: must be a count or a list of numbers, got True"]),
            ({"x_points": 1.5}, ["x_points: must be a count or a list of numbers, got 1.5"]),
            # a numeric string is not a number
            ({"x_points": [0.5, "0.7"]}, ["x_points: must be a count or a list of numbers"]),
            ({"alphas": ["a"]}, ["alphas: must be a list of numbers, got ['a']"]),
            ({"tolerances": {"identity_tol": "x"}}, ["identity_tol: must be a number, got 'x'"]),
            ({"pq_pairs": 3}, ["pq_pairs: must be a list of [p, q] number pairs, got 3"]),
            ({"pq_pairs": [[2.0, 2.0, 1.0]]}, ["pq_pairs: must be a list of [p, q] number pairs"]),
            (
                {"tolerances": 1e-9, "interval": [0, "1"], "theorems": ["E6", 7]},
                [
                    "tolerances: must be an object, got 1e-09",
                    "interval: must be a list of numbers",
                    "theorems: must be a list of strings",
                ],
            ),
            (
                {"tolerances": {"margin_tol": 1e-9, "margin": 1.0}, "alpha": 0.5},
                ["unknown config keys: ['alpha', 'margin']"],
            ),
        ],
    )
    def test_probe_exits_two(self, config, needles, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for needle in needles:
            assert needle in err, err

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(harness._KEY_TYPES) + ["tolerances"]),
            _JSON | _NEAR_VALID,
            min_size=1,
            max_size=3,
        )
    )
    @example({"alphas": [5e-324]})  # Gamma(alpha) overflows: exit 2
    def test_any_json_value_exits_cleanly(self, changes):
        # a valid draw runs a sweep, so the base grid is tiny and counts small
        config = {"functions": ["square"], "alphas": [0.5], "x_points": 2, **changes}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli.main(["sweep", "--config", path])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_valid_types_are_taken(self):
        cfg = SweepConfig.from_dict({
            "functions": ["square"], "alphas": [1, 0.5], "pq_pairs": [[2, 2]],
            "x_points": [0, 0.5], "margin_tol": 1e-6,
            "tolerances": {"margin_tol": 1e-7},
        })
        assert cfg.alphas == (1.0, 0.5) and type(cfg.alphas[0]) is float
        assert cfg.pq_pairs == ((2.0, 2.0),) and cfg.x_points == (0.0, 0.5)
        assert cfg.margin_tol == 1e-7  # the nested value wins
        assert SweepConfig.from_dict({"x_points": 7}).x_points == 7

    def test_grid_size_is_capped(self):
        # validate counts the grid without building it
        cap = harness.MAX_GRID_POINTS
        base = dataclasses.replace(default_config(), functions=("square",), alphas=(0.5,))
        for x_points in (cap + 1, 10**11):
            problems = dataclasses.replace(base, x_points=x_points).validate()
            assert problems == [f"x_points: at most {cap} points, got {x_points}"]
        assert dataclasses.replace(base, x_points=cap).validate() == []
        wide = dataclasses.replace(default_config(), x_points=cap // 54 + 1)  # 9 x 6 x n
        assert wide.validate() == [
            f"grid: at most {cap} points (functions x alphas x x), got {54 * (cap // 54 + 1)}"
        ]
        assert dataclasses.replace(wide, x_points=cap // 54).validate() == []


class TestRunSweep:
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.2, 0.9)])
    def test_the_smallest_alpha_runs_clean_on_the_default_catalog(self, interval):
        # every lane stays finite at fracint.MIN_ALPHA, with no numpy warning
        cfg = dataclasses.replace(
            default_config(), alphas=(fracint.MIN_ALPHA,), interval=interval
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = run_sweep(cfg).summary
        assert s["convergence_errors"] == s["identity_failures"] == s["failed"] == 0

    def test_summary_arithmetic(self, small_result):
        s = small_result.summary
        assert s["total"] == len(small_result.reports)
        assert s["total"] == s["passed"] + s["failed"] + s["skipped"]
        assert s["failed"] == 0
        assert s["identity_failures"] == 0
        assert s["convergence_errors"] == 0

    def test_summary_extremes_match_rows(self, small_result):
        asserted = [r for r in small_result.reports if r.asserted]
        assert small_result.summary["worst_margin"] == min(r.margin for r in asserted)
        assert small_result.summary["worst_residual"] == max(
            rec.residual.rel_residual for rec in small_result.residuals
        )

    def test_residual_grid_complete_and_passing(self, small_result):
        # 2 functions x 2 alphas x 3 x-points
        assert len(small_result.residuals) == 12
        assert all(rec.passed for rec in small_result.residuals)

    def test_rows_are_sorted(self, small_result):
        keys = [_report_sort_key(r) for r in small_result.reports]
        assert keys == sorted(keys)

    def test_provenance_records_config(self, small_result):
        assert small_result.provenance["config"] == SMALL.to_dict()

    def test_invalid_config_raises_joined_problems(self):
        bad = dataclasses.replace(SMALL, alphas=(), s_values=(2.0,))
        with pytest.raises(ConfigError) as excinfo:
            run_sweep(bad)
        msg = str(excinfo.value)
        assert "alphas" in msg and "s_values" in msg

    def test_serial_rerun_is_byte_identical(self, small_result):
        again = run_sweep(SMALL)
        assert render_csv(again) == render_csv(small_result)

    def test_more_than_one_worker_is_rejected(self):
        with pytest.raises(ConfigError, match="workers: sweeps run serially, got 2"):
            run_sweep(SMALL, workers=2)

    def test_convergence_errors_are_recorded_not_fatal(self, monkeypatch):
        _stall_lanes(monkeypatch, harness, _every_lane)
        cfg = SweepConfig(
            functions=("affine",),
            alphas=(0.5,),
            s_values=(0.5,),
            pq_pairs=((2.0, 2.0),),
            x_points=(0.5,),
            theorems=("E6",),
        )
        result = run_sweep(cfg)
        assert result.summary["convergence_errors"] == 1
        assert result.summary["total"] == 0
        assert "affine" in result.convergence_errors[0]
        assert "8 subdivisions" in result.convergence_errors[0]

    def test_a_failed_batch_fails_every_point_in_config_order(self, monkeypatch):
        _stall_lanes(monkeypatch, harness, _every_lane)
        cfg = dataclasses.replace(
            SMALL, functions=("square", "affine"), alphas=(1.0, 0.5), theorems=("E6",)
        )
        result = run_sweep(cfg)
        assert [line.split(":")[0] for line in result.convergence_errors] == [
            f"{name} alpha={alpha!r} x={x!r}"
            for name in ("square", "affine")
            for alpha in (1.0, 0.5)
            for x in (0.0, 0.5, 1.0)
        ]
        assert result.summary["total"] == 0

    def test_one_sweep_makes_one_quadrature_batch(self, monkeypatch, small_result):
        calls = []
        real = harness.compute_pieces_batch

        def counted(jobs, *args):
            calls.append([(f.name, alpha) for f, alpha in jobs])
            return real(jobs, *args)

        monkeypatch.setattr(harness, "compute_pieces_batch", counted)
        result = run_sweep(SMALL)
        assert calls == [[(name, alpha) for name in SMALL.functions for alpha in SMALL.alphas]]
        assert render_csv(result) == render_csv(small_result)

    def test_every_theorem_over_the_catalog_makes_one_quadrature_call(self, monkeypatch):
        # the classical means are plain lanes of the identity batch: a sweep of
        # every theorem over the catalog (rows-heavy's shape) makes one
        # _integrate call where a call per function's mean made ten, and each
        # mean keeps its one-lane bits (the e13 pair reads it as mean / (b - a))
        cfg = dataclasses.replace(
            SMALL, functions=tuple(catalog_names()), alphas=(0.3, 1.7), x_points=(0.1, 0.6),
            s_values=(0.5, 1.0), theorems=THEOREM_IDS,
        )
        calls = []
        real = fracint._integrate

        def counted(sets, qcfg):
            calls.append(sum(lanes.size for lanes in sets))
            return real(sets, qcfg)

        monkeypatch.setattr(fracint, "_integrate", counted)
        res = run_sweep(cfg)
        assert calls == [9 * 2 * 2 * 4 + 9]
        monkeypatch.setattr(fracint, "_integrate", real)
        lower = [r for r in res.reports if r.note.endswith("hh-lower")]
        assert len(lower) == 9 * 2
        for r in lower:
            mean = one_lane(get_entry(r.function).func, 0.0, 1.0, 1.0, 1.0, cfg.quadrature())
            assert r.rhs.hex() == (mean.value / 1.0).hex(), r.function
            assert r.quad_error_budget.hex() == (mean.error / 1.0).hex(), r.function

    def test_a_mean_that_fails_stops_the_sweep(self, monkeypatch):
        # a classical bound cannot go without its integral mean: the plain
        # lane's ConvergenceError is raised, named after its segment
        _stall_lanes(monkeypatch, harness, lambda start, end, beta: (
            (start == 0.0) & (end == 1.0) & (beta == 1.0)))
        cfg = dataclasses.replace(SMALL, alphas=(0.5,), theorems=("E6", "e1"))
        with pytest.raises(ConvergenceError, match=(
            r"^weighted integral on \[0.0, 1.0\]: adaptive quadrature did not converge "
            r"within 8 subdivisions")):
            run_sweep(cfg)

    def test_a_lane_that_fails_fails_only_its_point(self, monkeypatch):
        # the moment lane of x = 0.5 toward a fails; the batch's other points
        # still give rows
        _stall_lanes(monkeypatch, harness, _moment_lane_at_half)
        cfg = SweepConfig(
            functions=("affine",),
            alphas=(1.0,),
            s_values=(0.5,),
            pq_pairs=((2.0, 2.0),),
            x_points=(0.25, 0.5, 0.75),
            theorems=("E6",),
        )
        result = run_sweep(cfg)
        assert result.summary["convergence_errors"] == 1
        assert "x=0.5:" in result.convergence_errors[0]
        assert "8 subdivisions" in result.convergence_errors[0]
        assert [rec.x for rec in result.residuals] == [0.25, 0.75]
        assert sorted({r.prm.x for r in result.reports}) == [0.25, 0.75]
        assert result.summary["identity_failures"] == 0

    def test_each_target_grid_is_sampled_once(self, monkeypatch):
        # 9 theorems, 2 functions, 3 s, 2 distinct q: per function one sample
        # for |f'|, one for f and one per q for |f'|^q, covering both modes,
        # each taken by the first CertCache.get of its (function, target, q)
        batches = []
        real_sample = bounds._sample

        def counted_sample(f, s_values, q, modes, target, cert_tol):
            batches.append((f.name, target, q, tuple(modes), tuple(s_values)))
            return real_sample(f, s_values, q, modes, target, cert_tol)

        gets = []
        real_get = bounds.CertCache.get

        def counted_get(self, *args, **kwargs):
            gets.append(args)
            return real_get(self, *args, **kwargs)

        monkeypatch.setattr(bounds, "_sample", counted_sample)
        monkeypatch.setattr(bounds.CertCache, "get", counted_get)
        s_values = (0.25, 0.5, 1.0)
        cfg = dataclasses.replace(
            SMALL, alphas=(0.5,), s_values=s_values, pq_pairs=((2.0, 2.0), (3.0, 1.5)),
        )
        result = run_sweep(cfg)
        both = (MODE_CONVEX, MODE_CONCAVE)
        assert sorted(batches) == sorted(
            (name, target, q, modes, s_values)
            for name in cfg.functions
            for target, q, modes in (
                (TARGET_FPRIME, 1.0, (MODE_CONVEX,)),
                (TARGET_F, 1.0, (MODE_CONVEX,)),
                (TARGET_FPRIME_POW, 2.0, both),
                (TARGET_FPRIME_POW, 1.5, both),
            )
        )
        assert len(batches) == 8
        assert gets and result.summary["failed"] == 0

    def test_identical_samples_share_one_pass(self, monkeypatch):
        # rows-heavy's shape (every theorem, 12 s, 6 (p, q) pairs) on the
        # catalog: 9 x 8 samples (f, |f'| and |f'|^q at 6 q). Passes are
        # shared by constant's |f'|^q (0) at every q, affine's |f'|^q (1) at
        # every q, affine's |f'| and constant's f (both 1), and exp's f and
        # |f'|: 60 passes, where a pass per sample would make 72
        passes = []
        real_worst = bounds._worst_violations

        def counted_worst(sample, s_values, modes):
            passes.append(modes)
            return real_worst(sample, s_values, modes)

        monkeypatch.setattr(bounds, "_worst_violations", counted_worst)
        ps = (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
        cfg = dataclasses.replace(
            SMALL, functions=tuple(catalog_names()), alphas=(0.5,), x_points=(0.5,),
            s_values=tuple(k / 12 for k in range(1, 13)),
            pq_pairs=tuple((p, p / (p - 1.0)) for p in ps),
        )
        run_sweep(cfg)
        assert len(passes) == 60

    def test_each_skip_note_is_built_once(self, monkeypatch):
        described = []
        real_describe = fracineq.ConvexityCertificate.describe

        def counted_describe(cert):
            described.append(cert)
            return real_describe(cert)

        monkeypatch.setattr(fracineq.ConvexityCertificate, "describe", counted_describe)
        cfg = dataclasses.replace(SMALL, functions=("pow150", "exp"), s_values=(0.25, 1.0))
        result = run_sweep(cfg)
        skipped = [r for r in result.reports if not r.asserted]
        assert result.summary["skipped"] == len(skipped) > len(described) > 0
        assert len(set(described)) == len(described)
        notes = {r.note.removesuffix("hh-lower").removesuffix("hh-upper").strip() for r in skipped}
        assert notes == {f"hypothesis not certified: {real_describe(c)}" for c in described}

    def test_report_numbers_are_python_scalars(self, small_result):
        # numpy scalars would make render_json fail or change its bytes
        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                assert node is None or type(node) in (str, bool, int, float), node

        walk(small_result.to_dict())


class TestRecords:
    """The slotted row records stay frozen, and copy and round-trip whole."""

    def test_assignment_is_refused(self, small_result):
        report = small_result.reports[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.lhs = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.prm.x = 0.0

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, dataclasses.replace],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_copies_are_equal(self, small_result, clone):
        for report in (small_result.reports[0], small_result.reports[-1]):
            twin = clone(report)
            assert twin == report and twin.prm == report.prm
            assert clone(report.prm) == report.prm

    def test_replace_keeps_the_checks(self, small_result):
        prm = small_result.reports[0].prm
        with pytest.raises(ConfigError, match=re.escape("alpha: must lie in [1e-300, 140]")):
            dataclasses.replace(prm, alpha=-1.0)

    def test_dict_round_trip(self, small_result):
        rebuilt = SweepResult.from_dict(small_result.to_dict())
        assert rebuilt.reports == small_result.reports
        assert render_json(rebuilt) == render_json(small_result)


def test_the_cli_runs_without_scipy():
    # scipy is a test dependency only: with it blocked, the CLI imports and
    # runs; and it starts no thread pool, since sweeps run serially
    src = os.path.dirname(os.path.dirname(fracineq.__file__))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from fracineq.cli import main; code = main(sys.argv[1:]); "
        "assert not [m for m in sys.modules if m.startswith('concurrent.futures')]; "
        "raise SystemExit(code)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["sweep", "--functions", "square", "--alphas", "0.5", "--x-count", "3"],
        ["check-identity", "--function", "exp", "--alpha", "0.25", "--x-count", "3"],
    ):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, (argv, out.stderr)


def test_a_closed_stdout_ends_the_cli_cleanly():
    # a reader that stops after one line (as `| head -1`) closes the pipe while
    # the CSV, far larger than a pipe buffer, is still being written
    src = os.path.dirname(os.path.dirname(fracineq.__file__))
    argv = ["sweep", "--functions", "square", "exp", "--x-count", "5"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "fracineq.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().startswith(b"theorem_id,")
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


@pytest.mark.parametrize("argv", [
    "sweep --theorems E6 e1 e13 --out {tmp}/r.csv",
    "sweep --config {tmp}/rows.json --out {tmp}/r.csv",
    "check-identity --function exp --alpha 0.5 --x-count 5 --classical",
    "verify --theorem e1 --function exp",
    "verify --theorem E6 --function exp",
], ids=["sweep", "rows-heavy", "check-identity", "verify-e1", "verify-E6"])
def test_every_command_makes_one_quadrature_call(argv, tmp_path, monkeypatch, capsys):
    # every integral a command takes, its classical means and [x, b]
    # segments included, is a lane of one batch; rows-heavy is the
    # benchmark's seed-1 config
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    (tmp_path / "rows.json").write_text(json.dumps(runpy.run_path(bench)["rows_heavy"](1, False)))
    calls, real = [], fracint._integrate
    monkeypatch.setattr(fracint, "_integrate", lambda *args: calls.append(args) or real(*args))
    assert cli.main(argv.format(tmp=tmp_path).split()) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    "sweep --config {tmp}/missing.json",
    "sweep --config {tmp}",
    "sweep --config {tmp}/latin1.json",
    "sweep --functions square --alphas 0.5 --x-count 3 --out {tmp}/missing/r.csv",
], ids=["missing-config", "directory-config", "non-utf8-config", "missing-out-dir"])
def test_a_file_that_cannot_be_read_or_written_exits_two(argv, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"functions": ["caf\xe9"]}')
    assert cli.main(argv.format(tmp=tmp_path).split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: cannot ") and err.count("\n") == 1 and str(tmp_path) in err


class TestRendering:
    def test_csv_header(self, small_result):
        assert render_csv(small_result).splitlines()[0] == CSV_HEADER

    def test_csv_masks_inapplicable_columns(self, small_result):
        lines = render_csv(small_result).splitlines()[1:]
        by_id = {}
        for line in lines:
            by_id.setdefault(line.split(",")[0], line.split(","))
        # e13 rows carry only s; alpha, p, q, x stay blank
        e13 = by_id["e13"]
        assert e13[2] == "" and e13[4] == "" and e13[5] == "" and e13[6] == ""
        assert e13[3] != ""
        # e1 rows carry only x
        e1 = by_id["e1"]
        assert e1[2] == "" and e1[3] == "" and e1[4] == "" and e1[5] == ""
        assert e1[6] != ""
        # fractional rows carry alpha, s, and x at minimum
        e6 = by_id["E6"]
        assert e6[2] != "" and e6[3] != "" and e6[6] != ""

    def test_csv_verdict_and_float_formatting(self, small_result):
        first = small_result.reports[0]
        cells = render_csv(small_result).splitlines()[1].split(",")
        assert cells[10] in ("true", "false")
        assert cells[7] == repr(float(first.lhs))

    def test_json_round_trip_preserves_rows(self, small_result):
        data = json.loads(render_json(small_result))
        rebuilt = SweepResult.from_dict(data)
        assert rebuilt.reports == small_result.reports
        assert rebuilt.residuals == small_result.residuals
        assert render_csv(rebuilt) == render_csv(small_result)

    def test_emit_report_writes_both_formats(self, small_result, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        emit_report(small_result, "csv", str(csv_path))
        emit_report(small_result, "json", str(json_path))
        assert csv_path.read_text(encoding="utf-8") == render_csv(small_result)
        assert json_path.read_text(encoding="utf-8") == render_json(small_result)

    def test_emit_report_rejects_unknown_format(self, small_result, tmp_path):
        # the format is checked before the file is opened: no file is made,
        # and a file already at the path keeps its bytes
        fresh, kept = tmp_path / "out.xml", tmp_path / "kept.xml"
        kept.write_bytes(b"an earlier report\n")
        for path in (fresh, kept):
            with pytest.raises(ConfigError, match="format"):
                emit_report(small_result, "xml", str(path))
        assert not fresh.exists()
        assert kept.read_bytes() == b"an earlier report\n"


def _json_oracle(res: SweepResult) -> str:
    return json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"


def _edit_reports(res: SweepResult, edit) -> SweepResult:
    return dataclasses.replace(res, reports=[edit(i, r) for i, r in enumerate(res.reports)])


def _csv_oracle(res: SweepResult) -> str:
    # one cell at a time, from the reports
    lines = [CSV_HEADER]
    for r in res.reports:
        visible = bounds.THEOREMS[r.theorem_id].fields
        cells = [r.theorem_id, r.function]
        for fieldname in ("alpha", "s", "p", "q", "x"):
            value = getattr(r.prm, fieldname) if fieldname in visible else None
            cells.append("" if value is None else repr(float(value)))
        for value in (r.lhs, r.rhs, r.margin):
            cells.append(repr(float(value)))
        cells.append("true" if r.holds else "false")
        cells.append(repr(float(r.quad_error_budget)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _mostly_distinct(i: int) -> float:
    # a distinct value per row, but 0.0, -0.0, NaN and both infinities at
    # rows 0, 7, 14, 21 and 28
    specials = (0.0, -0.0, math.nan, math.inf, -math.inf)
    return specials[i // 7] if i % 7 == 0 and i < 35 else i / 7.0 + 0.1


class TestCsvWriter:
    """render_csv writes what a per-cell loop writes."""

    def test_small_sweep(self, small_result):
        assert render_csv(small_result) == _csv_oracle(small_result)

    def test_special_values(self, small_result):
        specials = (math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5)

        def edit(i, r):
            # lhs, x and the budget hold zeros of both signs, so each of
            # their zero cells is written by its own sign
            r = dataclasses.replace(
                r,
                lhs=specials[i % 6],
                rhs=specials[(i + 1) % 6],
                margin=specials[(i + 2) % 6],
                quad_error_budget=(0.0, -0.0, 1e-15)[i % 3],
            )
            prm = dataclasses.replace(r.prm, x=(0.0, -0.0)[i % 2]) if r.prm.x == 0.0 else r.prm
            if i % 4 == 0:
                prm = dataclasses.replace(prm, p=None, q=None)
            return dataclasses.replace(r, prm=prm)

        res = _edit_reports(small_result, edit)
        text = render_csv(res)
        assert text == _csv_oracle(res)
        cells = [line.split(",") for line in text.splitlines()[1:]]
        for col in (6, 7, 8, 9, 11):
            assert {"0.0", "-0.0"} <= {c[col] for c in cells}, col
        for col in (7, 8, 9):
            assert {"nan", "inf", "-inf"} <= {c[col] for c in cells}, col
        e7 = [c for c in cells if c[0] == "E7"]
        assert {(c[4], c[5]) for c in e7} == {("", ""), ("2.0", "2.0")}


    def test_repeated_values_with_zeros_of_both_signs(self, small_result):
        # repeated values with zeros of both signs; each zero cell takes its sign
        values = (1.5, 0.0, 0.25, -0.0, 1.5, 0.25)

        def edit(i, r):
            r = dataclasses.replace(r, lhs=values[i % 6], rhs=values[(i + 3) % 6])
            x = (-0.0, 0.0, 1.0)[i % 3]
            return dataclasses.replace(r, prm=dataclasses.replace(r.prm, x=x))

        res = _edit_reports(small_result, edit)
        text = render_csv(res)
        assert text == _csv_oracle(res)
        cells = [line.split(",") for line in text.splitlines()[1:]]
        for col in (7, 8):
            assert {c[col] for c in cells} == {"1.5", "0.25", "0.0", "-0.0"}, col
        assert {c[6] for c in cells} >= {"-0.0", "0.0", "1.0"}

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zeros_of_one_sign_keep_it(self, small_result, zero):
        res = _edit_reports(
            small_result, lambda i, r: dataclasses.replace(r, margin=(zero, 2.5)[i % 2])
        )
        text = render_csv(res)
        assert text == _csv_oracle(res)
        assert {line.split(",")[9] for line in text.splitlines()[1:]} == {repr(zero), "2.5"}

    def test_repeated_nan_and_infinities(self, small_result):
        # a fresh NaN object per row: NaN is not equal to itself
        res = _edit_reports(
            small_result,
            lambda i, r: dataclasses.replace(r, rhs=(float("nan"), math.inf, -math.inf)[i % 3]),
        )
        text = render_csv(res)
        assert text == _csv_oracle(res)
        assert {line.split(",")[8] for line in text.splitlines()[1:]} == {"nan", "inf", "-inf"}

    def test_mostly_distinct_column_with_specials(self, small_result):
        # a column of mostly distinct floats: its zeros keep their sign and nan
        # and the infinities their text
        res = _edit_reports(
            small_result, lambda i, r: dataclasses.replace(r, margin=_mostly_distinct(i))
        )
        text = render_csv(res)
        assert text == _csv_oracle(res)
        cells = {line.split(",")[9] for line in text.splitlines()[1:]}
        assert {"0.0", "-0.0", "nan", "inf", "-inf"} <= cells

    def test_int_alpha_sweep(self):
        cfg = SweepConfig(
            functions=("square",), alphas=(1,), s_values=(1.0,), x_points=3, theorems=("E6",)
        )
        res = run_sweep(cfg)
        text = render_csv(res)
        assert text == _csv_oracle(res)
        assert {line.split(",")[2] for line in text.splitlines()[1:]} == {"1.0"}
        assert render_json(res) == _json_oracle(res)


class TestJsonWriter:
    """render_json writes exactly what json.dumps writes for SweepResult.to_dict."""

    def test_small_sweep(self, small_result):
        assert render_json(small_result) == _json_oracle(small_result)

    def test_nan_and_infinities(self, small_result):
        specials = (math.nan, math.inf, -math.inf)

        def edit(i, r):
            # rhs repeats three values, each encoded once; lhs also holds a
            # zero, of one sign only
            r = dataclasses.replace(r, rhs=specials[i % 3])
            return dataclasses.replace(r, lhs=(*specials, 0.0)[i]) if i < 4 else r

        res = _edit_reports(small_result, edit)
        residuals = list(res.residuals)
        residuals[0] = dataclasses.replace(
            residuals[0], residual=dataclasses.replace(residuals[0].residual, residual=math.nan),
        )
        res = dataclasses.replace(res, residuals=residuals)
        text = render_json(res)
        assert '"rhs": NaN' in text and '"rhs": -Infinity' in text
        assert '"lhs": Infinity' in text
        assert text == _json_oracle(res)

    def test_signed_zeros_keep_their_sign(self, small_result):
        res = _edit_reports(
            small_result, lambda i, r: dataclasses.replace(r, margin=(0.0, -0.0, 2.5)[i % 3])
        )
        text = render_json(res)
        assert '"margin": -0.0' in text and '"margin": 0.0' in text
        assert text == _json_oracle(res)

    def test_repeated_values_with_zeros_of_both_signs(self, small_result):
        # prm.M mixes repeated values with zeros of both signs; prm.a holds
        # zeros of one sign only
        def edit(i, r):
            return dataclasses.replace(
                r, prm=dataclasses.replace(r.prm, M=(2.0, -0.0, 0.0, 2.0, 3.0)[i % 5])
            )

        res = _edit_reports(small_result, edit)
        text = render_json(res)
        assert '"M": -0.0' in text and '"M": 0.0' in text and '"M": 2.0' in text
        assert text == _json_oracle(res)

    def test_repeated_nan_and_infinities_in_a_float_column(self, small_result):
        res = _edit_reports(
            small_result,
            lambda i, r: dataclasses.replace(
                r, lhs=(float("nan"), math.inf, -math.inf, 0.5)[i % 4]
            ),
        )
        text = render_json(res)
        for name in ("NaN", "Infinity", "-Infinity", "0.5"):
            assert f'"lhs": {name},' in text, name
        assert text == _json_oracle(res)

    def test_mostly_distinct_column_with_specials(self, small_result):
        res = _edit_reports(
            small_result, lambda i, r: dataclasses.replace(r, rhs=_mostly_distinct(i))
        )
        text = render_json(res)
        for name in ("0.0", "-0.0", "NaN", "Infinity", "-Infinity"):
            assert f'"rhs": {name},' in text, name
        assert text == _json_oracle(res)

    def test_none_values(self, small_result):
        res = _edit_reports(
            small_result,
            lambda i, r: dataclasses.replace(
                r, prm=dataclasses.replace(r.prm, p=None, q=None, M=None)
            ) if i % 2 else r,
        )
        res.summary = dict(res.summary, worst_margin=None, worst_residual=None)
        text = render_json(res)
        assert '"M": null' in text and '"worst_margin": null' in text
        assert text == _json_oracle(res)

    def test_quotes_newlines_and_non_ascii(self, small_result):
        note = 'say "hi"\nto caf\u00e9 \\ \u2264'
        res = _edit_reports(small_result, lambda i, r: dataclasses.replace(r, note=note))
        res.convergence_errors = ['affine alpha=0.5 x=0.5: "stalled"\n\u00e9']
        text = render_json(res)
        assert "\\u00e9" in text and text.isascii()
        assert text == _json_oracle(res)

    def test_empty_lists(self, small_result):
        res = dataclasses.replace(small_result, reports=[], residuals=[], convergence_errors=[])
        text = render_json(res)
        assert '"reports": [],' in text
        assert text == _json_oracle(res)

    def test_one_report_and_one_residual(self, small_result):
        # each list's only record is its last, so it takes no comma
        res = dataclasses.replace(
            small_result,
            reports=list(small_result.reports[:1]),
            residuals=small_result.residuals[:1],
        )
        text = render_json(res)
        assert text.count('"theorem_id"') == 1 and text.count('"rel_residual"') == 1
        assert text == _json_oracle(res)

    def test_percent_signs_are_copied(self, small_result):
        # the record template is split on %s once; a value's %s, %% and
        # %(x)s are text like any other
        note = "%s and %% and %(x)s"
        res = _edit_reports(small_result, lambda i, r: dataclasses.replace(r, note=note))
        res.convergence_errors = ["%s", "100%% %(alpha)s"]
        text = render_json(res)
        assert f'"note": "{note}"' in text and '"100%% %(alpha)s"' in text
        assert text == _json_oracle(res)

    def test_int_valued_parameters(self):
        cfg = SweepConfig(
            functions=("affine",),
            alphas=(1,),
            s_values=(1,),
            pq_pairs=((2, 2),),
            x_points=2,
            interval=(0, 1),
            theorems=("E6", "E7"),
        )
        res = run_sweep(cfg)
        text = render_json(res)
        assert '"alpha": 1,' in text and '"p": 2,' in text
        assert text == _json_oracle(res)
        # 1 and 1.0 in one column are equal values with different texts
        res = _edit_reports(
            res,
            lambda i, r: dataclasses.replace(
                r, prm=dataclasses.replace(r.prm, alpha=(1, 1.0)[i % 2])
            ),
        )
        text = render_json(res)
        assert '"alpha": 1.0,' in text and '"alpha": 1,' in text
        assert text == _json_oracle(res)


def _edit_blocks(res: SweepResult, edit) -> SweepResult:
    blocks = [edit(k, block) for k, block in enumerate(res.reports.blocks)]
    return dataclasses.replace(res, reports=bounds.ReportRows(blocks))


def _assert_writers_match_the_oracles(res: SweepResult) -> None:
    # the blocks, and the same reports as a plain list, write the per-cell
    # bytes; so does the list reversed, an order in which no block is written
    csv_text, json_text = _csv_oracle(res), _json_oracle(res)
    for written in (res, dataclasses.replace(res, reports=list(res.reports))):
        assert render_csv(written) == csv_text
        assert render_json(written) == json_text
    backwards = dataclasses.replace(res, reports=list(res.reports)[::-1])
    assert render_csv(backwards) == _csv_oracle(backwards)
    assert render_json(backwards) == _json_oracle(backwards)


_SPECIALS = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5])


def _specials(n: int, start: int) -> np.ndarray:
    return _SPECIALS[(np.arange(n) + start) % len(_SPECIALS)]


class TestBlockPath:
    """The writers on ``RowBlock``s as ``run_sweep`` gives them, edited with
    ``_replace``, write what the per-cell writers write."""

    def test_special_values_in_the_arrays(self, small_result):
        def edit(k, block):
            # lhs and the budget per point (per grid row for e13), the rest per row
            return block._replace(
                lhs=_specials(len(block.lhs), k),
                quad_error_budget=_specials(len(block.quad_error_budget), k + 3),
                rhs=_specials(len(block.rhs), k + 1),
                margin=_specials(len(block.margin), k + 2),
                holds=~block.holds,
            )

        res = _edit_blocks(small_result, edit)
        _assert_writers_match_the_oracles(res)
        cells = [line.split(",") for line in render_csv(res).splitlines()[1:]]
        for col in (7, 8, 9, 11):
            assert {"nan", "inf", "-inf", "0.0", "-0.0"} <= {c[col] for c in cells}, col
        text = render_json(res)
        for name in ("lhs", "rhs", "margin", "quad_error_budget"):
            for value in ("NaN", "Infinity", "-Infinity", "0.0", "-0.0"):
                assert f'"{name}": {value},' in text or f'"{name}": {value}\n' in text

    def test_special_values_in_the_residual_columns(self, small_result):
        # the residuals are written from their columns as well, and read as
        # the list of records they stand for
        rows = small_result.residuals
        assert isinstance(rows, harness.ResidualRows)
        assert rows == list(rows) and rows[-1] == list(rows)[-1] and rows[1:4] == list(rows)[1:4]
        residual = identity.ResidualColumns(*(_specials(len(rows), k) for k in range(6)))
        res = dataclasses.replace(small_result, residuals=harness.ResidualRows(
            rows.function, rows.alpha, rows.x, residual, ~rows.passed))
        _assert_writers_match_the_oracles(res)
        text = render_json(res)
        for value in ("NaN", "Infinity", "-Infinity", "0.0", "-0.0"):
            assert f'"rel_residual": {value},' in text
        assert '"passed": false' in text

    def test_grids_and_points(self, small_result):
        # every other block of a theorem takes its own grid, with p = inf and
        # q = 1 where p is set, so blocks that share a grid and blocks that
        # do not alternate; x = 0 takes a negative sign
        def edit(k, block):
            x = tuple(-0.0 if v == 0.0 else v for v in block.x)
            if k % 2:
                return block._replace(x=x)
            grid = tuple(
                bounds.GridRow(s, math.inf, 1.0) if p is not None else bounds.GridRow(s, p, q)
                for s, p, q in block.grid
            )
            return block._replace(grid=grid, x=x)

        res = _edit_blocks(small_result, edit)
        _assert_writers_match_the_oracles(res)
        cells = [line.split(",") for line in render_csv(res).splitlines()[1:]]
        e7 = {(c[4], c[5]) for c in cells if c[0] == "E7"}
        assert e7 == {("inf", "1.0"), ("2.0", "2.0")}
        assert {c[6] for c in cells if c[0] == "E6"} >= {"-0.0", "0.5", "1.0"}
        assert '"p": Infinity' in render_json(res)

    @pytest.mark.parametrize(
        "consts",
        [
            lambda k, n: {"alpha": tuple((1, 1.0)[(k + j) % 2] for j in range(n))},
            lambda k, n: {"alpha": (0.5,) * n, "M": (0.0, -0.0)[k % 2]},
            lambda k, n: {"alpha": (0.5,) * n, "M": (2, 2.0)[k % 2]},
        ],
        ids=["alpha-int-and-float", "M-zeros-of-both-signs", "M-int-and-float"],
    )
    def test_equal_block_constants_written_apart(self, small_result, consts):
        # neighbouring points and blocks, which a plain list runs together,
        # hold equal alphas and constants that are written apart
        res = _edit_blocks(
            small_result, lambda k, block: block._replace(**consts(k, len(block.x)))
        )
        _assert_writers_match_the_oracles(res)

    def test_int_grid_values(self, small_result):
        def edit(k, block):
            return block._replace(grid=tuple(
                bounds.GridRow(int(s) if s == 1.0 else s, p, q) for s, p, q in block.grid
            ))

        res = _edit_blocks(small_result, edit)
        _assert_writers_match_the_oracles(res)
        assert '"s": 1,' in render_json(res) and '"s": 0.5,' in render_json(res)

    def test_int_alpha_sweep(self):
        cfg = SweepConfig(
            functions=("square",), alphas=(1,), s_values=(1,), x_points=3,
            theorems=("E6", "e1", "e13"),
        )
        _assert_writers_match_the_oracles(run_sweep(cfg))


def _with_asserted_margins(blocks, margins) -> list:
    # the asserted rows take margins in report order, cycled; every other
    # row takes -5.0, which the summary must pass over
    out, k = [], 0
    for block in blocks:
        gate = np.asarray(block.asserted, dtype=bool)[block.row]
        margin = np.full(len(block.row), -5.0)
        take = np.resize(np.array(margins, dtype=float), k + int(gate.sum()))[k:]
        margin[gate] = take
        k += len(take)
        out.append(block._replace(margin=margin))
    return out


class TestSummaryCounts:
    """``run_sweep``'s row counts read the blocks' arrays as ``min``, ``sum``
    and ``len`` read the rows."""

    @pytest.mark.parametrize(
        "margins",
        [
            [1.0, 0.0, 2.0, -0.0],
            [1.0, -0.0, 0.0, 3.0],
            [math.nan, -1.0, 0.0],
            [1.0, math.nan, -1.0, math.nan],
            [0.0, math.nan, -0.0],
            [math.nan],
            [math.inf, -math.inf, -math.inf],
        ],
        ids=["zero-first", "negative-zero-first", "leading-nan", "later-nan", "zeros-and-nan",
             "all-nan", "infinities"],
    )
    def test_worst_margin_is_min_of_the_asserted_rows(self, small_result, margins):
        blocks = _with_asserted_margins(small_result.reports.blocks, margins)
        rows = bounds.ReportRows(blocks)
        asserted = [r for r in rows if r.asserted]
        want = min((r.margin for r in asserted), default=None)
        got = harness._row_counts(blocks)
        assert repr(got["worst_margin"]) == repr(want)
        passed = sum(r.holds for r in asserted)
        assert got == {
            "total": len(rows), "passed": passed, "failed": len(asserted) - passed,
            "skipped": len(rows) - len(asserted), "worst_margin": got["worst_margin"],
        }

    def test_no_asserted_row(self, small_result):
        blocks = [b._replace(asserted=(False,) * len(b.asserted))
                  for b in small_result.reports.blocks]
        got = harness._row_counts(blocks)
        assert got["worst_margin"] is None and got["skipped"] == got["total"] > 0
        assert harness._row_counts([])["worst_margin"] is None


# CI's all-theorem smoke config: every theorem id, and p = inf with q = 1
ALL_THEOREMS = SweepConfig(
    functions=("constant", "affine", "square", "pow150"),
    alphas=(0.5, 2.0),
    x_points=5,
    theorems=THEOREM_IDS,
    pq_pairs=((math.inf, 1.0), (2.0, 2.0)),
)


class TestFullSize:
    """Whole sweeps, not only ``small_result``, write the per-cell bytes."""

    def test_default_sweep(self, default_result):
        _assert_writers_match_the_oracles(default_result)

    def test_all_theorem_sweep(self):
        _assert_writers_match_the_oracles(run_sweep(ALL_THEOREMS))


class TestStreaming:
    """``emit_report`` streams the report a block at a time: it never holds
    the whole report, and a block with no rows writes nothing."""

    @pytest.mark.parametrize("fmt, render", [("csv", render_csv), ("json", render_json)])
    def test_emit_report_peak_memory_is_a_small_share_of_the_report(
        self, default_result, fmt, render, tmp_path
    ):
        path = tmp_path / f"report.{fmt}"
        tracemalloc.start()
        try:
            emit_report(default_result, fmt, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a whole-report copy would be at least the file's size
        assert peak < path.stat().st_size / 8
        assert path.read_text(encoding="utf-8") == render(default_result)

    @pytest.mark.parametrize(
        "failing, empty",
        [
            ({("affine", 0.5), ("affine", 1.0)}, [0, 3]),
            ({("pow150", 0.5), ("pow150", 1.0)}, [1, 4]),
            ({("square", 0.5), ("square", 1.0)}, [2, 5]),
            ({(name, alpha) for name in ("affine", "pow150", "square") for alpha in (0.5, 1.0)},
             None),
            ({("affine", 0.5)}, []),
            ({("square", 1.0)}, []),
        ],
        ids=["first", "middle", "last", "every", "first-alpha", "last-alpha"],
    )
    def test_empty_blocks_match_the_oracles(self, monkeypatch, tmp_path, failing, empty):
        # every point of the failing (function, alpha) jobs fails, so each
        # theorem's block of a function whose every job fails has no rows,
        # and one with a failing job lacks that alpha's rows; when every job
        # fails there are no reports and no residuals
        real = harness.compute_pieces_batch

        def rigged(jobs, *args):
            got = real(jobs, *args)
            got.failed.update({(j, i): ConvergenceError("subdivision budget exhausted", 0.0, 1.0)
                               for j, (f, alpha) in enumerate(jobs) if (f.name, alpha) in failing
                               for i in range(len(got.xs))})
            return got

        monkeypatch.setattr(harness, "compute_pieces_batch", rigged)
        res = run_sweep(dataclasses.replace(
            SMALL, functions=("affine", "pow150", "square"), theorems=("E6", "E7")
        ))
        blocks = res.reports.blocks
        assert len(blocks) == 6
        for block in blocks:
            assert {(block.function, alpha) for alpha in block.alpha}.isdisjoint(failing)
        if empty is None:
            assert list(res.reports) == [] and res.residuals == []
        else:
            assert [k for k, block in enumerate(blocks) if not len(block.row)] == empty
        csv_text, json_text = _csv_oracle(res), _json_oracle(res)
        assert render_csv(res) == csv_text
        assert render_json(res) == json_text
        for fmt, text in (("csv", csv_text), ("json", json_text)):
            emit_report(res, fmt, str(tmp_path / f"report.{fmt}"))
            assert (tmp_path / f"report.{fmt}").read_text(encoding="utf-8") == text


class TestCli:
    def test_catalog_lists_functions(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "square" in out and "threehalf" in out
        lines = out.splitlines()
        for entry in builtin_catalog():
            assert f"  |f'| <= {entry.analytic_m!r} (analytic)" in lines, entry.name

    def test_catalog_lists_registrations(self, capsys):
        # each entry's s values print in order, with "none" for an empty list
        assert cli.main(["catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("pow150: f(t) = t^1.5 on [0, 1]")
        assert lines[start + 2:start + 4] == [
            "  s-convex registrations (|f'|): 0.25, 0.5",
            "  s-concave registrations (|f'|^2): 1",
        ]
        start = lines.index("square: f(t) = t^2 on [0, 1]")
        assert lines[start + 2:start + 4] == [
            "  s-convex registrations (|f'|): 0.25, 0.5, 0.75, 1",
            "  s-concave registrations (|f'|^2): none",
        ]

    def test_catalog_detail_recertifies(self, capsys):
        assert cli.main(["catalog", "--function", "square"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_detail_equals_one_certify_per_line(self, name, capsys):
        # the cached certificates print as one single-s batch per (s, target) does
        assert cli.main(["catalog", "--function", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        entry = get_entry(name)
        want = []
        for s in entry.s_convex:
            for target in (TARGET_F, TARGET_FPRIME):
                want += certify_batch(entry.func, (s,), modes=(MODE_CONVEX,), target=target)
            want += certify_batch(
                entry.func, (s,), q=2.0, modes=(MODE_CONVEX,), target=TARGET_FPRIME_POW
            )
        for s in entry.s_concave:
            want += certify_batch(
                entry.func, (s,), q=2.0, modes=(MODE_CONCAVE,), target=TARGET_FPRIME_POW
            )
        assert lines[4:] == [f"  {cert.describe()}" for cert in want]

    def test_check_identity_point(self, capsys):
        ret = cli.main(
            ["check-identity", "--function", "affine", "--alpha", "0.5", "--x", "0.25"]
        )
        assert ret == 0
        assert "0 failures" in capsys.readouterr().out

    def test_check_identity_integrates_its_grid_in_one_batch(self, capsys, monkeypatch):
        calls = []
        real = harness.compute_pieces_batch

        def counted(jobs, a, b, xs, cfg, plain):
            calls.append(([alpha for _, alpha in jobs], len(xs)))
            return real(jobs, a, b, xs, cfg, plain)

        monkeypatch.setattr(harness, "compute_pieces_batch", counted)
        ret = cli.main(
            ["check-identity", "--function", "square", "--alpha", "0.5", "1.0",
             "--x-count", "5", "--halves"]
        )
        assert ret == 0
        assert calls == [([0.5, 1.0], 5)]
        out = capsys.readouterr().out
        assert out.count("half-a") == 10 and "30 identity checks, 0 failures" in out

    @pytest.mark.parametrize("alphas", [["0.5", "1.0"], ["0.5"]])
    def test_check_identity_classical_twins_come_from_one_batch(
        self, alphas, capsys, monkeypatch
    ):
        # the alpha = 1 twins are the grid's one batch's alpha = 1 job: the
        # grid's own when it has one, one added to the batch otherwise
        calls = []
        real = harness.compute_pieces_batch

        def counted(jobs, a, b, xs, cfg, plain):
            calls.append(([(f.name, alpha) for f, alpha in jobs], len(xs)))
            return real(jobs, a, b, xs, cfg, plain)

        monkeypatch.setattr(harness, "compute_pieces_batch", counted)
        argv = ["check-identity", "--function", "square", "--alpha", *alphas,
                "--x-count", "5", "--classical"]
        assert cli.main(argv) == 0
        assert calls == [([("square", 0.5), ("square", 1.0)], 5)]
        lines = capsys.readouterr().out.splitlines()
        f = get_entry("square").func
        xs = [float(v) for v in np.linspace(0.0, 1.0, 7)[1:-1]]
        want = []
        for x in xs:
            # the independent route with its own one-x twin
            res = classical_at(f, 0.0, 1.0, x)
            want.append(
                f"square classical x={x:g}: rel_residual={res.rel_residual:.3e} "
                f"budget={res.quad_error_budget:.3e} PASS"
            )
        assert lines[-6:-1] == want

    def test_check_identity_convergence_error_fails_its_point_alone(
        self, capsys, monkeypatch
    ):
        real = harness.compute_pieces_batch

        def one_fails(jobs, a, b, xs, cfg, plain):
            got = real(jobs, a, b, xs, cfg, plain)
            got.failed.update({(j, i): ConvergenceError("stalled", 0.0, 1.0)
                               for j, (_, alpha) in enumerate(jobs) for i, x in enumerate(xs)
                               if (alpha, x) == (0.5, 0.5)})
            return got

        monkeypatch.setattr(harness, "compute_pieces_batch", one_fails)
        ret = cli.main(
            ["check-identity", "--function", "square", "--alpha", "0.5", "2.0",
             "--x", "0.25", "0.5", "0.75", "--halves"]
        )
        assert ret == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "CONVERGENCE ERROR" in line] == [
            "square alpha=0.5 x=0.5: CONVERGENCE ERROR stalled"
        ]
        assert sum("PASS" in line for line in lines) == 6 + 9
        assert lines[-1] == "16 identity checks, 1 failures"

    @pytest.mark.parametrize("stalled, name", [
        (_moment_lane_at_half, "moment integral (x=0.5, base=0.0)"),
        (lambda start, end, beta: (start == 0.5) & (end == 1.0) & (beta == 1.0),
         "weighted integral on [0.5, 1.0]"),
    ], ids=["twin", "x-to-b"])
    def test_check_identity_failed_twin_fails_its_point_alone(
        self, stalled, name, capsys, monkeypatch
    ):
        # the alpha = 1 moment lane of x = 0.5, or its plain lane over [x, b],
        # fails: its classical check is one failed point, and the command
        # still prints every other line
        _stall_lanes(monkeypatch, harness, stalled)
        ret = cli.main(
            ["check-identity", "--function", "square", "--alpha", "0.5",
             "--x", "0.25", "0.5", "--classical"]
        )
        assert ret == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if "CONVERGENCE ERROR" in line]
        assert len(failed) == 1
        assert failed[0].startswith(f"square classical x=0.5: CONVERGENCE ERROR {name}: ")
        assert "8 subdivisions" in failed[0]
        assert sum("PASS" in line for line in lines) == 3
        assert lines[-1] == "4 identity checks, 1 failures"

    def test_verify_certified_bound_holds(self, capsys):
        assert cli.main(["verify", "--theorem", "E6", "--function", "square"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_verify_uncertified_hypothesis_skips(self, capsys):
        assert cli.main(["verify", "--theorem", "E9", "--function", "square"]) == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_verify_convergence_error_exits_one(self, capsys, monkeypatch):
        # the sweep's message for the point, with no row printed
        _stall_lanes(monkeypatch, harness, _every_lane)
        assert cli.main(["verify", "--theorem", "E6", "--function", "affine"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("convergence error: affine alpha=0.5 x=0.5: ")
        assert "8 subdivisions" in err and err.count("\n") == 1

    def test_verify_classical_requires_alpha_one(self, capsys):
        ret = cli.main(
            ["verify", "--theorem", "e14", "--function", "square", "--alpha", "0.5"]
        )
        assert ret == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, interval",
        [
            ("--theorem e1 --function pow125 --a 0 --b 2 --x 2", "[0.0, 2.0]"),
            ("--theorem e13 --function pow125 --a -1 --b 1", "[-1.0, 1.0]"),
            ("--theorem e14 --function square --a 0 --b 3 --x 3", "[0.0, 3.0]"),
            ("--theorem E6 --function pow125 --a 0 --b 2 --x 2", "[0.0, 2.0]"),
        ],
    )
    def test_verify_outside_the_function_domain_exits_two(self, capsys, argv, interval):
        # the catalog's M and certificates hold on f's domain only: e1 and
        # e14 printed VIOLATED here, and e13 a convergence error after a
        # RuntimeWarning; every theorem refuses the interval the same way,
        # after the rule that a hypothesis needs a >= 0 when a < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", *argv.split()]) == 2
        out, err = capsys.readouterr()
        below_zero = ("interval: must lie in [0, inf) when any s-convexity or "
                      "s-concavity hypothesis is in play; ") if interval.startswith("[-") else ""
        name = argv.split()[3]
        assert (out, err) == ("", f"error: {below_zero}interval: {interval} is outside "
                              f"the domain of {name} ([0.0, 1.0])\n")

    @pytest.mark.parametrize(
        "theorem, given, spelled_out",
        [
            ("E7", "--p 3", "--p 3 --q 1.5"),
            ("E7", "--q 3", "--p 1.5 --q 3"),
            ("E8proof", "--p 3", "--q 1.5"),
            ("E7", "--q 1", "--p inf --q 1"),  # the sweep's --pq inf 1
        ],
    )
    def test_verify_takes_the_conjugate_of_one_exponent(
        self, capsys, theorem, given, spelled_out
    ):
        outs = []
        for flags in (given, spelled_out):
            argv = ["verify", "--theorem", theorem, "--function", "square", *flags.split()]
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "HOLDS" in outs[0]

    def test_verify_takes_one_as_the_conjugate_of_an_infinite_p(self, capsys):
        outs = []
        for flags in ("--p inf", "--p inf --q 1"):
            argv = ["verify", "--theorem", "E7", "--function", "square", *flags.split()]
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "p=inf q=1 " in outs[0] and "HOLDS" in outs[0]

    def test_check_identity_checks_the_interval_before_placing_points(self, capsys):
        # points placed over [0, inf] would warn before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = "check-identity --function exp --a 0 --b inf --x-count 2".split()
            assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: interval: [0.0, inf] is outside the domain of exp ([0.0, 1.0])\n")

    def test_verify_of_a_q_that_overflows_the_certificate_skips_quietly(self, capsys):
        # q ~ 1e10 makes |f'|**q overflow on the certificate grid: the NaN
        # violation fails the certificate without a RuntimeWarning
        argv = ["verify", "--theorem", "t6_147", "--function", "pow150", "--p", "1.0000000001"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "SKIPPED (hypothesis not certified: FAIL s-concave" in out
        assert "max violation nan" in out

    def test_verify_rejects_a_nan_cert_tol(self, capsys):
        # a NaN tolerance would fail every certificate with a 0 violation
        ret = cli.main(
            ["verify", "--theorem", "E6", "--function", "square", "--cert-tol", "nan"]
        )
        assert ret == 2
        assert "cert_tol: must be > 0 and finite, got nan" in capsys.readouterr().err

    def test_verify_takes_no_derivative_bound(self, capsys):
        # M is the catalog's, as in a sweep: a smaller one breaks the
        # hypothesis and a larger one loosens a bound that holds
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--theorem", "E6", "--function", "square", "--M", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --M 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verify --theorem E6 --function square", "--margin-tol"),
            ("verify --theorem E6 --function square", "--cert-tol"),
            ("check-identity --function square --alpha 0.5 --x 0.5", "--tol"),
            ("sweep --functions square --alphas 0.5 --x-count 3", "--margin-tol"),
            ("sweep --functions square --alphas 0.5 --x-count 3", "--cert-tol"),
            ("sweep --functions square --alphas 0.5 --x-count 3", "--identity-tol"),
        ],
    )
    def test_tolerances_must_be_finite_and_positive(self, capsys, command, flag, value):
        # an infinite tolerance would pass every check and a NaN one fail them all
        ret = cli.main(command.split() + [flag, value])
        assert ret == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "must be > 0 and finite" in err

    def test_reduce_all(self, capsys):
        assert cli.main(["reduce"]) == 0
        out = capsys.readouterr().out
        for tid in ("E6", "E7", "E8proof", "E9"):
            assert tid in out

    def test_reduce_single(self):
        assert cli.main(["reduce", "--theorem", "E7"]) == 0
        # E7's closed forms coincide exactly, so a zero tolerance is meaningful
        assert cli.main(["reduce", "--theorem", "E7", "--tol", "0"]) == 0

    @pytest.mark.parametrize(
        "command, needle",
        [
            ("reduce --tol nan", "tol: must be >= 0 and finite, got nan"),
            ("reduce --tol -1", "tol: must be >= 0 and finite, got -1.0"),
            ("reduce --tol inf", "tol: must be >= 0 and finite, got inf"),
            ("check-identity --function square --x-count 0", "x_points: count must be >= 1, got 0"),
            ("check-identity --function square --x-count -1", "x_points: count must be >= 1, got -1"),
            ("check-identity --function square --x-count -3", "x_points: count must be >= 1, got -3"),
            (
                "check-identity --function square --alpha 0.5 0.5 --x-count 1",
                "alphas: 0.5 is repeated",
            ),
            ("check-identity --function square --x 0.5 0.25 0.5", "x_points: 0.5 is repeated"),
            (
                "check-identity --function square --x-count 20001",
                "x_points: at most 20000 points, got 20001",
            ),
            (
                "check-identity --function square --alpha 0.5 --x-count 20001",
                "x_points: at most 20000 points, got 20001",
            ),
        ],
    )
    def test_reduce_tol_and_identity_x_count_are_checked(self, capsys, command, needle):
        # a NaN or negative tolerance would fail every id and an infinite one
        # pass them all; a count below 1 would check no point, a repeated
        # value would check one point twice, and a huge count would run for
        # minutes
        assert cli.main(command.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {needle}\n"

    def test_sweep_writes_report_file(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        ret = cli.main(
            [
                "sweep",
                "--functions", "affine",
                "--theorems", "E6",
                "--alphas", "0.5",
                "--s-values", "0.5",
                "--x-count", "3",
                "--out", str(out),
            ]
        )
        assert ret == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == CSV_HEADER
        assert "report written" in capsys.readouterr().out

    def test_sweep_stdout_payload_is_clean_json(self, capsys):
        ret = cli.main(
            [
                "sweep",
                "--functions", "affine",
                "--theorems", "e13",
                "--s-values", "0.5",
                "--format", "json",
            ]
        )
        assert ret == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["summary"]["failed"] == 0
        assert "passed" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_on_stdout_equals_the_out_file(self, capsys, tmp_path, fmt):
        # without --out the report streams to stdout: the bytes --out writes,
        # but for the JSON timestamp line of each run
        args = ["sweep", "--functions", "affine", "square", "--alphas", "0.5", "1",
                "--s-values", "0.5", "1.0", "--x-count", "3", "--format", fmt,
                "--theorems", "E6", "E7", "E9", "e1", "e13"]
        out = tmp_path / f"r.{fmt}"
        assert cli.main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        from_file, from_stdout = out.read_bytes(), captured.out.encode("utf-8")
        if fmt == "json":
            def untimed(data):
                lines = data.splitlines(keepends=True)
                kept = [line for line in lines if b'"timestamp"' not in line]
                assert len(kept) == len(lines) - 1
                return b"".join(kept)

            from_file, from_stdout = untimed(from_file), untimed(from_stdout)
        assert from_stdout == from_file
        assert "rows:" in captured.err and "report written" not in captured.err

    def test_sweep_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL.to_dict()), encoding="utf-8")
        out = tmp_path / "r.csv"
        ret = cli.main(
            [
                "sweep",
                "--config", str(cfg_path),
                "--theorems", "e1",
                "--out", str(out),
            ]
        )
        assert ret == 0
        body = out.read_text(encoding="utf-8").splitlines()[1:]
        assert body and all(line.startswith("e1,") for line in body)

    @pytest.mark.parametrize("nested", [True, False], ids=["nested-tolerances", "flat"])
    def test_every_sweep_flag_sets_its_config_key_over_the_file(
        self, monkeypatch, tmp_path, nested
    ):
        # a sweep flag's dest is the SweepConfig field it sets, and a given
        # flag wins over the config file's value, whether the file states a
        # tolerance flat or under "tolerances"; it changes no other key
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["sweep"]._actions} - {"help"}
        keys = dests - {"config", "out", "format"}
        assert keys <= {f.name for f in dataclasses.fields(SweepConfig)}
        from_file = dataclasses.replace(SMALL, identity_tol=1e-9, margin_tol=1e-10, cert_tol=1e-7)
        data = from_file.to_dict()
        if not nested:
            data.update(data.pop("tolerances"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert SweepConfig.from_file(str(path)) == from_file
        flags = [
            (["--functions", "exp", "square"], "functions", ("exp", "square")),
            (["--theorems", "E7"], "theorems", ("E7",)),
            (["--alphas", "1.5", "0.25"], "alphas", (1.5, 0.25)),
            (["--s-values", "0.75"], "s_values", (0.75,)),
            (["--pq", "3", "1.5", "--pq", "2", "2"], "pq_pairs", ((3.0, 1.5), (2.0, 2.0))),
            (["--x", "0.75", "0.25"], "x_points", (0.75, 0.25)),
            (["--x-count", "4"], "x_points", 4),
            (["--interval", "0", "2"], "interval", (0.0, 2.0)),
            (["--identity-tol", "1e-7"], "identity_tol", 1e-7),
            (["--margin-tol", "1e-9"], "margin_tol", 1e-9),
            (["--cert-tol", "1e-8"], "cert_tol", 1e-8),
        ]
        assert {key for _, key, _ in flags} == keys
        ran = []

        class Ran(Exception):
            pass

        def record(cfg):
            ran.append(cfg)
            raise Ran

        monkeypatch.setattr(cli, "run_sweep", record)
        for argv, key, value in flags:
            with pytest.raises(Ran):
                cli.main(["sweep", "--config", str(path), *argv])
            assert ran.pop() == dataclasses.replace(from_file, **{key: value}), argv
        with pytest.raises(Ran):
            cli.main(["sweep", "--config", str(path)])
        assert ran.pop() == from_file

    def test_check_identity_prints_the_sweeps_residual_records(self, capsys):
        # each alpha line is the sweep's residual record at its (alpha, x):
        # tag, rel_residual, budget and verdict, in the command's own
        # (unsorted) grid order; the halves follow their point's line, and
        # the classical lines come last, in x order
        alphas, xs = (2.0, 0.25), (0.75, 0.0, 0.5)
        argv = ["check-identity", "--function", "square", "--alpha", "2", "0.25",
                "--x", "0.75", "0", "0.5", "--halves", "--classical"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        res = run_sweep(SweepConfig(("square",), alphas, x_points=xs, theorems=("E6",)))
        assert [(rec.alpha, rec.x) for rec in res.residuals] == sorted(
            (alpha, x) for alpha in alphas for x in xs
        )
        record = {(rec.alpha, rec.x): rec for rec in res.residuals}
        want, tags = [], []
        for alpha in alphas:
            for x in xs:
                rec = record[alpha, x]
                tag = f"square alpha={alpha:g} x={x:g}"
                want.append(
                    f"{tag}: rel_residual={rec.residual.rel_residual:.3e} "
                    f"budget={rec.residual.quad_error_budget:.3e} "
                    f"{'PASS' if rec.passed else 'FAIL'}"
                )
                tags += [tag] + [f"  {tag} half-{end}" for end in "ab" if 0.0 < x < 1.0]
        tags += [f"square classical x={x:g}" for x in xs]
        assert [line for line in lines if line.startswith("square alpha=")] == want
        assert [line.split(":")[0] for line in lines[:-1]] == tags
        assert lines[-1] == f"{len(tags)} identity checks, 0 failures"

    def test_sweep_on_another_interval_is_run_sweep_of_it(self, capsys):
        argv = ["sweep", "--functions", "square", "--alphas", "0.5", "--x-count", "3",
                "--interval", "0.2", "0.9"]
        assert cli.main(argv) == 0
        cfg = dataclasses.replace(
            default_config(), functions=("square",), alphas=(0.5,), x_points=3,
            interval=(0.2, 0.9),
        )
        assert capsys.readouterr().out == render_csv(run_sweep(cfg))

    @pytest.mark.parametrize(
        "argv, interval",
        [
            ("verify --theorem E6 --function square --a 0 --b 1e-310", "[0.0, 1e-310]"),
            ("sweep --functions exp square --interval 0 3e-308 --theorems " + " ".join(THEOREM_IDS),
             "[0.0, 3e-308]"),
            ("sweep --functions exp --interval 0 1e-160 --alphas 0.25 --theorems e1",
             "[0.0, 1e-160]"),
            ("check-identity --function exp --b 1e-200 --alpha 0.5 2", "[0.0, 1e-200]"),
        ],
        ids=["verify", "sweep", "classical-sweep", "check-identity"],
    )
    def test_an_interval_too_narrow_to_check_is_refused(self, capsys, argv, interval):
        # unchecked, verify would print VIOLATED on NaN sides, and the sweep
        # would pass every row with budgets that excuse margins of -2.6e215
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: interval {interval} is too narrow to check" in captured.err or (
            f"error: interval: {interval} is too narrow to check" in captured.err
        )

    def test_sweep_convergence_error_exits_one(self, capsys, monkeypatch):
        _stall_lanes(monkeypatch, harness, _every_lane)
        ret = cli.main(
            [
                "sweep",
                "--functions", "affine",
                "--theorems", "E6",
                "--alphas", "0.5",
                "--s-values", "0.5",
                "--x-count", "3",
            ]
        )
        assert ret == 1
        assert "convergence errors: 3" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["3e-308", "1e-307"])
    def test_sweep_alpha_below_the_engine_range_exits_two(self, alpha, capsys):
        # from ~1e-307 down some lanes' values stop being finite; at 3e-308
        # this sweep's do, and it would exit 1 if let through
        ret = cli.main(
            ["sweep", "--functions", "square", "--alphas", alpha, "--x", "0.5",
             "--theorems", "E6"]
        )
        assert ret == 2
        err = capsys.readouterr().err
        assert "error: alphas: must lie in [1e-300, 140]" in err
        assert "Traceback" not in err

    def test_sweep_alpha_past_the_gamma_range_exits_two(self, capsys):
        ret = cli.main(
            [
                "sweep",
                "--functions", "square",
                "--alphas", "200",
                "--x", "0.5",
                "--theorems", "E6",
            ]
        )
        assert ret == 2
        err = capsys.readouterr().err
        assert "error: alphas: must lie in [1e-300, 140]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", ["nan", "0"])
    def test_sweep_with_a_nan_or_zero_q_exits_two(self, q, capsys):
        # validation names the pair before any quadrature runs
        ret = cli.main(
            ["sweep", "--functions", "square", "--alphas", "0.5", "--x-count", "3",
             "--pq", "2", q]
        )
        assert ret == 2
        err = capsys.readouterr().err
        assert f"error: pq_pairs: (2.0, {float(q)!r}) is not a conjugate pair" in err
        assert "Traceback" not in err

    def test_sweep_with_a_repeated_alpha_exits_two(self, capsys):
        ret = cli.main(
            ["sweep", "--functions", "square", "--alphas", "0.5", "0.5", "--x-count", "3"]
        )
        assert ret == 2
        err = capsys.readouterr().err
        assert "error: alphas: 0.5 is repeated" in err
        assert "Traceback" not in err

    def test_sweep_at_the_largest_alpha_runs(self, capsys):
        ret = cli.main(
            ["sweep", "--functions", "square", "--alphas", "140", "--x", "0.5",
             "--theorems", "E6"]
        )
        assert ret == 0
        assert "convergence errors: 0" in capsys.readouterr().err

    def test_sweep_at_a_small_alpha_is_right(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        ret = cli.main(
            ["sweep", "--functions", "square", "--alphas", "1e-4", "--x", "0.5",
             "--theorems", "E6", "--format", "json", "--out", str(out)]
        )
        assert ret == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["summary"]["identity_failures"] == 0
        assert data["residuals"][0]["residual"]["rel_residual"] < 1e-10

    def test_sweep_has_no_workers_flag(self):
        # nor a seed: the sweep draws nothing at random
        for flag in ("--workers", "--seed"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["sweep", "--functions", "square", "--alphas", "0.5",
                          "--x-count", "3", flag, "2"])
            assert excinfo.value.code == 2

    def test_sweep_ignores_a_thread_count_in_the_environment(self, capsys, monkeypatch):
        # the thread count the serial sweep no longer reads, spelled in two
        # parts so that a search for the removed name finds no live use
        monkeypatch.setenv("FRACINEQ_" + "THREADS", "three")
        ret = cli.main(["sweep", "--functions", "square", "--alphas", "0.5",
                        "--x-count", "3", "--theorems", "E6"])
        assert ret == 0

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bogus"])
        assert excinfo.value.code == 2

    def test_unknown_theorem_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--theorem", "nope", "--function", "square"])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["reduce", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "fracineq" in capsys.readouterr().out


def _bad_values():
    """(id, the rule's text, {entry point: (its name for the value, its input)})
    per bad value; an entry point that does not take the axis is left out."""
    for alpha in ("0", "nan", "1e-307", "150"):
        yield f"alpha={alpha}", f"must lie in [1e-300, 140], got {float(alpha)!r}", {
            "FracParams": ("alpha", {"alpha": float(alpha)}),
            "SweepConfig": ("alphas", {"alphas": (float(alpha),)}),
            "verify": ("alphas", f"--alpha {alpha}"),
            "check-identity": ("alphas", f"--alpha {alpha}"),
            "sweep": ("alphas", f"--alphas {alpha}"),
        }
    for x in ("2", "nan"):
        yield f"x={x}", f"must lie in [0.0, 1.0], got {float(x)!r}", {
            "FracParams": ("x", {"x": float(x)}),
            "SweepConfig": ("x_points", {"x_points": (float(x),)}),
            "verify": ("x_points", f"--x {x}"),
            "check-identity": ("x_points", f"--x {x}"),
            "sweep": ("x_points", f"--x {x}"),
        }
    yield "s=0", "must lie in (0, 1], got 0.0", {
        "FracParams": ("s", {"s": 0.0}),
        "SweepConfig": ("s_values", {"s_values": (0.0,)}),
        "verify": ("s_values", "--s 0"),
        "sweep": ("s_values", "--s-values 0"),
    }
    # verify's --q inf alone makes p its conjugate, 1, for a theorem that
    # reads q only too
    for p, q, flags in (("2", "3", "--theorem E7 --p 2 --q 3"),
                        ("1", "inf", "--theorem E8proof --q inf")):
        pair = (float(p), float(q))
        yield f"pq={p},{q}", f"{pair!r} is not a conjugate pair (p > 1, q >= 1, 1/p + 1/q = 1)", {
            "FracParams": ("p, q", {"p": pair[0], "q": pair[1]}),
            "SweepConfig": ("pq_pairs", {"pq_pairs": (pair,)}),
            "verify": ("pq_pairs", flags),
            "sweep": ("pq_pairs", f"--pq {p} {q}"),
        }
    # a lone q = inf, whose conjugate would be p = 1; a sweep and verify
    # take pairs only
    yield "q=inf", "(None, inf) is not a conjugate pair (p > 1, q >= 1, 1/p + 1/q = 1)", {
        "FracParams": ("p, q", {"q": math.inf}),
    }
    for a, b, name, text in (
        ("1", "0", "square", "need a < b, got [1.0, 0.0]"),
        ("0", "2", "pow125", "[0.0, 2.0] is outside the domain of pow125 ([0.0, 1.0])"),
        ("0", "1e-310", "square",
         "[0.0, 1e-310] is too narrow to check at alpha=0.5: (b - a)**(alpha + 1) underflows"),
    ):
        uses = {
            "SweepConfig": ("interval", {"interval": (float(a), float(b)), "functions": (name,)}),
            "verify": ("interval", f"--function {name} --a {a} --b {b}"),
            "check-identity": ("interval", f"--function {name} --a {a} --b {b}"),
            "sweep": ("interval", f"--functions {name} --interval {a} {b}"),
        }
        if name == "square":  # FracParams knows no function, so no domain
            uses["FracParams"] = ("interval", {"a": float(a), "b": float(b), "x": float(a)})
        yield f"interval={a},{b}", text, uses


_BASES = {
    "verify": "verify --theorem E6 --function square",
    "check-identity": "check-identity --function square --alpha 0.5",
    "sweep": "sweep --functions square --alphas 0.5",
}


@pytest.mark.parametrize(
    "entry, name, given, text",
    [
        pytest.param(entry, name, given, text, id=f"{entry}-{bad}")
        for bad, text, uses in _bad_values()
        for entry, (name, given) in uses.items()
    ],
)
def test_each_axis_rule_reads_the_same_at_every_entry_point(capsys, entry, name, given, text):
    # one rule per axis: every entry point refuses the value with the rule's
    # own text after its own name for the value, and nothing else
    want = f"{name}: {text}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry == "FracParams":
            with pytest.raises(ConfigError) as got:
                fracint.FracParams(**{"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 0.5, **given})
            assert str(got.value) == want
        elif entry == "SweepConfig":
            base = dataclasses.replace(default_config(), functions=("square",), alphas=(0.5,))
            assert dataclasses.replace(base, **given).validate() == [want]
        else:
            # later flags win over the base command's
            assert cli.main(f"{_BASES[entry]} {given}".split()) == 2
            assert capsys.readouterr() == ("", f"error: {want}\n")


def test_sweep_rows_equal_standalone_evaluation():
    # run_sweep shares the identity, its left-hand side, the integral mean,
    # the certificates and the Gamma ratios between rows; the rows of each
    # (theorem, function, parameters) must still equal a one-row, one-point
    # evaluate_block fed freshly computed pieces, mean and certificates
    cfg = SMALL
    qcfg = QuadratureConfig(rel_tol=cfg.quad_rel_tol, abs_tol=cfg.quad_abs_tol)
    res = run_sweep(cfg)
    # one (p, q) pair: 12 points x 2 s x 4 fractional ids, 6 (function, x)
    # x (e1 once, e14, t5_146 and t6_147 once per s), and 2 functions x 2 s
    # x the e13 pair
    assert len(res.reports) == 12 * 2 * 4 + 6 * (1 + 3 * 2) + 2 * 2 * 2
    groups: dict = {}
    for r in res.reports:
        groups.setdefault((r.theorem_id, r.function, r.prm), []).append(r)
    assert {tid for tid, _, _ in groups} == set(cfg.theorems)
    for (tid, name, prm), rows in groups.items():
        alone = rows_at(tid, get_entry(name), prm, qcfg, margin_tol=cfg.margin_tol)
        assert alone == rows
    # classical rows sit at alpha = 1; the e13 pair, which reads no x, at the midpoint
    classical = [r for r in res.reports if r.theorem_id[0] != "E"]
    assert {r.prm.alpha for r in classical} == {1.0}
    assert {r.prm.x for r in classical if r.theorem_id == "e13"} == {0.5}


def test_verify_prints_the_sweeps_rows(capsys):
    # verify builds its rows as the sweep does, from one point's pieces or
    # the integral mean: at each point of a small sweep, for every theorem
    # id, the p = inf, q = 1 pair and both gate verdicts included, it prints
    # the sweep's rows and exits 1 exactly when one of them is a violation
    cfg = dataclasses.replace(
        SMALL, functions=("pow150", "square"), alphas=(0.5,),
        pq_pairs=((math.inf, 1.0), (2.0, 2.0)), x_points=(0.0, 0.3),
    )
    groups: dict = {}
    for r in run_sweep(cfg).reports:
        groups.setdefault((r.theorem_id, r.function, r.prm), []).append(r)
    assert {tid for tid, _, _ in groups} == set(THEOREM_IDS)
    assert {(prm.p, prm.q) for _, _, prm in groups} >= {(math.inf, 1.0), (None, 1.0)}
    assert {r.asserted for rows in groups.values() for r in rows} == {True, False}
    for (tid, name, prm), rows in groups.items():
        argv = ["verify", "--theorem", tid, "--function", name, "--s", repr(prm.s),
                "--x", repr(prm.x)]
        if bounds.THEOREMS[tid].fractional:
            argv += ["--alpha", repr(prm.alpha)]
        for flag, value in (("--p", prm.p), ("--q", prm.q)):
            if value is not None:
                argv += [flag, repr(value)]
        want = [cli._format_report(r) for r in rows]
        assert cli.main(argv) == int(any(failed for _, failed in want)), argv
        assert capsys.readouterr().out.splitlines() == [line for line, _ in want], argv


def test_default_sweep_gates_and_checks_once_per_block_and_point(monkeypatch):
    # one RowBlock per (theorem, function), 4 x 9; each block gets each grid
    # row's certificate once for all its alphas: (E6's 4 s, E7's and E9's
    # 4 s x 3 pairs, E8proof's 4 s x 3 q) x 9 functions; and the identity is
    # checked once at each of the 594 points, in one pass over the columns,
    # for its residual and its rows' left-hand side
    counts = {"blocks": 0, "gets": 0, "e1": 0, "passes": 0}
    e1_calls = []

    def counted(name, real, size=lambda *args: 1):
        def call(*args, **kwargs):
            counts[name] += size(*args)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(harness, "evaluate_block", counted("blocks", harness.evaluate_block))
    monkeypatch.setattr(bounds.CertCache, "get", counted("gets", bounds.CertCache.get))
    monkeypatch.setattr(harness, "check_e1", counted(
        "e1", harness.check_e1, lambda cols: e1_calls.append(cols) or cols.fx.size))
    # 9 functions x 4 samples (|f'| and |f'|^q at 3 q); constant's and
    # affine's |f'|^q have one sample at every q, so 32 worst-violation passes
    monkeypatch.setattr(bounds, "_worst_violations",
                        counted("passes", bounds._worst_violations))
    res = run_sweep(default_config())
    assert counts == {"blocks": 36, "gets": 360, "e1": 594, "passes": 32}
    assert len(e1_calls) == 1
    assert len(res.reports.blocks) == 36 and len(res.residuals) == 594
    assert {(b.theorem_id, b.function) for b in res.reports.blocks} == {
        (tid, name) for tid in bounds.FRACTIONAL_IDS for name in catalog_names()
    }
    for block in res.reports.blocks:
        assert sorted(set(block.alpha)) == sorted(default_config().alphas)
    s = res.summary
    assert (s["total"], s["passed"], s["failed"], s["skipped"]) == (23_760, 16_764, 0, 6_996)


def test_rows_that_differ_only_in_q_keep_the_pq_order():
    # the report sort key leaves out q, so these rows stay in generation order
    cfg = dataclasses.replace(
        SMALL, functions=("square",), alphas=(0.5,), x_points=2,
        pq_pairs=((2.0, 2.0), (3.0, 1.5), (1.5, 3.0)), theorems=("E8proof", "t5_146"),
    )
    qs = [r.prm.q for r in run_sweep(cfg).reports]
    assert len(qs) == 2 * 2 * 2 * 3
    assert qs == [2.0, 1.5, 3.0] * 8


def test_rows_come_out_in_the_order_a_stable_sort_gives():
    # the oracle builds every row with its own one-row, one-point
    # evaluate_block call, as verify does but with the point's shared pieces,
    # in generation order (per function, alpha and x the fractional ids, then
    # per function the classical ids), and sorts them stably by the report
    # key; run_sweep emits its rows in that order without sorting
    cfg = dataclasses.replace(
        SMALL,
        functions=tuple(reversed(catalog_names())),
        alphas=(2.0, 0.5, 0.25),
        s_values=(1.0, 0.25, 0.5),
        pq_pairs=((3.0, 1.5), (2.0, 2.0), (1.25, 5.0)),
        x_points=(1.0, 0.7, 0.3, 0.0),
        theorems=tuple(reversed(bounds.THEOREM_IDS)),
    )
    qcfg = QuadratureConfig(rel_tol=cfg.quad_rel_tol, abs_tol=cfg.quad_abs_tol)
    certs = bounds.CertCache(cert_tol=cfg.cert_tol)
    q_dedup = tuple(dict.fromkeys(q for _, q in cfg.pq_pairs))
    thms = [bounds.THEOREMS[tid] for tid in cfg.theorems]
    rows = []

    def add(thm, entry, alpha, x, lhs, mean=None):
        points = bounds.Points((alpha,), (x,), np.array([lhs[0]]), np.array([lhs[1]]))
        for row in thm.grid(cfg.s_values, cfg.pq_pairs, q_dedup):
            block = bounds.evaluate_block(
                thm.tid, entry, (0.0, 1.0), entry.deriv_bound(), [row],
                points, cfg.margin_tol, certs, mean,
            )
            rows.extend(bounds.ReportRows([block]))

    for name in cfg.functions:
        entry = get_entry(name)
        for alpha in cfg.alphas:
            cols = identity.compute_pieces_batch(
                ((entry.func, alpha),), 0.0, 1.0, cfg.x_points, qcfg
            )
            for i, x in enumerate(cfg.x_points):
                for thm in thms:
                    if thm.fractional:
                        add(thm, entry, alpha, x, abs_lhs_of(cols, 0, i))
    for name in cfg.functions:
        entry = get_entry(name)
        mean = one_lane(entry.func, 0.0, 1.0, 1.0, 1.0, qcfg)
        for thm in thms:
            if not thm.fractional:
                for x in cfg.x_points if "x" in thm.fields else (0.5,):
                    add(thm, entry, 1.0, x, (abs(float(entry.func.eval(x)) - mean.value),
                                             mean.error), mean)
    rows.sort(key=_report_sort_key)
    # 3 s x (E6 once, E7, E8proof and E9 once per pair or q) per point;
    # per function (e1 once, e14, t5_146, t6_147) per x and the e13 pair per s
    assert len(rows) == 9 * 3 * 4 * 3 * (1 + 3 + 3 + 3) + 9 * (4 * (1 + 3 * (1 + 3 + 3)) + 3 * 2)
    assert run_sweep(cfg).reports == rows
