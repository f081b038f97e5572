"""Sweep orchestration: config handling, determinism, reporting, and the CLI."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fracineq
from fracineq import cli, fracint, harness, identity
from fracineq.bounds import FRACTIONAL_IDS, evaluate_theorem
from fracineq.errors import ConfigError, ConvergenceError
from fracineq.fracint import QuadratureConfig
from fracineq.funcatalog import catalog_names, get_entry
from fracineq.harness import (
    CSV_HEADER,
    THREADS_ENV_VAR,
    ResidualRecord,
    SweepConfig,
    SweepResult,
    _report_sort_key,
    _worker_count,
    default_config,
    emit_report,
    render_csv,
    render_json,
    run_sweep,
)

SMALL = SweepConfig(
    functions=("affine", "square"),
    alphas=(0.5, 1.0),
    s_values=(0.5, 1.0),
    pq_pairs=((2.0, 2.0),),
    x_points=3,
    theorems=("E6", "E7", "E8proof", "E9", "e1", "e13", "e14", "t5_146", "t6_147"),
)


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
            ({"interval": (0.0, 2.0)}, "outside domain"),
            ({"alphas": (0.5, -1.0)}, "alphas: must be > 0"),
            ({"alphas": ()}, "alphas: must not be empty"),
            ({"s_values": (1.5,)}, "must lie in (0, 1]"),
            ({"s_values": ()}, "s_values: must not be empty"),
            ({"pq_pairs": ((2.0, 3.0),)}, "not a conjugate pair"),
            ({"pq_pairs": ()}, "pq_pairs: must not be empty"),
            ({"x_points": 0}, "count must be >= 1"),
            ({"x_points": (2.0,)}, "outside interval"),
            ({"identity_tol": 0.0}, "identity_tol: must be > 0"),
            ({"margin_tol": -1.0}, "margin_tol: must be > 0"),
            ({"seed": "0"}, "seed: must be an integer"),
            ({"alphas": (0.5, 140.5)}, "alphas: must be <= 140"),
        ],
    )
    def test_validate_flags_each_problem(self, change, needle):
        cfg = dataclasses.replace(default_config(), **change)
        problems = cfg.validate()
        assert any(needle in p for p in problems), problems

    def test_resolve_x_from_count(self):
        cfg = dataclasses.replace(default_config(), x_points=3)
        assert cfg.resolve_x() == (0.0, 0.5, 1.0)

    def test_resolve_x_explicit_passthrough(self):
        cfg = dataclasses.replace(default_config(), x_points=(0.1, 0.9))
        assert cfg.resolve_x() == (0.1, 0.9)

    def test_dict_round_trip(self):
        assert SweepConfig.from_dict(SMALL.to_dict()) == SMALL

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


class TestWorkerCount:
    def test_explicit_value_wins(self):
        assert _worker_count(4) == 4

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError, match=">= 1"):
            _worker_count(0)

    def test_env_variable_parsed(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert _worker_count(None) == 3

    def test_env_variable_default_one(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert _worker_count(None) == 1

    def test_env_variable_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "three")
        with pytest.raises(ConfigError, match="must be an integer"):
            _worker_count(None)


class TestRunSweep:
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
        assert small_result.provenance["seed"] == SMALL.seed

    def test_invalid_config_raises_joined_problems(self):
        bad = dataclasses.replace(SMALL, alphas=(), s_values=(2.0,))
        with pytest.raises(ConfigError) as excinfo:
            run_sweep(bad)
        msg = str(excinfo.value)
        assert "alphas" in msg and "s_values" in msg

    def test_serial_rerun_is_byte_identical(self, small_result):
        again = run_sweep(SMALL)
        assert render_csv(again) == render_csv(small_result)

    def test_parallel_matches_serial(self, small_result):
        parallel = run_sweep(SMALL, workers=3)
        assert parallel.reports == small_result.reports
        assert parallel.residuals == small_result.residuals
        assert render_csv(parallel) == render_csv(small_result)

    def test_env_threads_match_serial(self, small_result, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        threaded = run_sweep(SMALL)
        assert render_csv(threaded) == render_csv(small_result)

    def test_convergence_errors_are_recorded_not_fatal(self, monkeypatch):
        def stall(*args, **kwargs):
            raise ConvergenceError("subdivision budget exhausted", 0.0, 1.0)

        monkeypatch.setattr("fracineq.harness.compute_pieces", stall)
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
        assert "budget exhausted" in result.convergence_errors[0]


    def test_a_lane_that_fails_fails_only_its_point(self, monkeypatch):
        # the moment lane of x = 0.5 toward a gets an integrand that cannot
        # converge in 8 subdivisions; the batch's other points still give rows
        real = fracint._moment_lanes

        def rigged(deriv, x, base, alpha):
            lanes = real(deriv, x, base, alpha)
            bad = (np.asarray(x) == 0.5) & (np.asarray(base) == 0.0)

            def fn(lane, t):
                nasty = np.sin(1000.0 * t**2) / (0.001 + t)
                return np.where(bad[lane, None], nasty, lanes.fn(lane, t))

            return dataclasses.replace(lanes, fn=fn)

        monkeypatch.setattr(fracint, "_moment_lanes", rigged)
        monkeypatch.setattr(
            harness, "QuadratureConfig",
            functools.partial(QuadratureConfig, max_subdivisions=8),
        )
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

    def test_two_workers_are_byte_identical_to_serial(self, small_result):
        threaded = run_sweep(SMALL, workers=2)
        assert render_csv(threaded) == render_csv(small_result)
        threaded.provenance["timestamp"] = small_result.provenance["timestamp"]
        assert render_json(threaded) == render_json(small_result)

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


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(fracineq.__file__))
    code = "import sys, fracineq.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


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
        with pytest.raises(ConfigError, match="format"):
            emit_report(small_result, "xml", str(tmp_path / "out.xml"))


def _json_oracle(res: SweepResult) -> str:
    return json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"


def _edit_reports(res: SweepResult, edit) -> SweepResult:
    return dataclasses.replace(res, reports=[edit(i, r) for i, r in enumerate(res.reports)])


class TestJsonWriter:
    """render_json writes exactly what json.dumps writes for SweepResult.to_dict."""

    def test_small_sweep(self, small_result):
        assert render_json(small_result) == _json_oracle(small_result)

    def test_nan_and_infinities(self, small_result):
        specials = (math.nan, math.inf, -math.inf)

        def edit(i, r):
            # rhs repeats three values and has no zero: each is encoded once;
            # lhs also holds a zero: it is encoded value by value
            r = dataclasses.replace(r, rhs=specials[i % 3])
            return dataclasses.replace(r, lhs=(*specials, 0.0)[i]) if i < 4 else r

        res = _edit_reports(small_result, edit)
        res.residuals[0] = dataclasses.replace(
            res.residuals[0],
            residual=dataclasses.replace(res.residuals[0].residual, residual=math.nan),
        )
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
        # 1 and 1.0 in one column are equal dict keys with different texts
        res = _edit_reports(
            res,
            lambda i, r: dataclasses.replace(
                r, prm=dataclasses.replace(r.prm, alpha=(1, 1.0)[i % 2])
            ),
        )
        text = render_json(res)
        assert '"alpha": 1.0,' in text and '"alpha": 1,' in text
        assert text == _json_oracle(res)


class TestCli:
    def test_catalog_lists_functions(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "square" in out and "threehalf" in out

    def test_catalog_detail_recertifies(self, capsys):
        assert cli.main(["catalog", "--function", "square"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_identity_point(self, capsys):
        ret = cli.main(
            ["check-identity", "--function", "affine", "--alpha", "0.5", "--x", "0.25"]
        )
        assert ret == 0
        assert "0 failures" in capsys.readouterr().out

    def test_check_identity_integrates_once_per_alpha(self, capsys, monkeypatch):
        calls = []
        real = identity.lemma_integrals

        def counted(*args, **kwargs):
            calls.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(identity, "lemma_integrals", counted)
        ret = cli.main(
            ["check-identity", "--function", "square", "--alpha", "0.5", "1.0",
             "--x-count", "5", "--halves"]
        )
        assert ret == 0
        assert [len(xs) for xs in calls] == [5, 5]
        out = capsys.readouterr().out
        assert out.count("half-a") == 10 and "30 identity checks, 0 failures" in out

    def test_check_identity_convergence_error_fails_its_point_alone(
        self, capsys, monkeypatch
    ):
        real = identity.lemma_integrals

        def one_fails(f, a, b, alpha, xs, cfg):
            got = real(f, a, b, alpha, xs, cfg)
            return [
                ConvergenceError("stalled", 0.0, 1.0) if x == 0.5 else g
                for x, g in zip(xs, got)
            ]

        monkeypatch.setattr(identity, "lemma_integrals", one_fails)
        ret = cli.main(
            ["check-identity", "--function", "square", "--alpha", "0.5",
             "--x", "0.25", "0.5", "0.75", "--halves"]
        )
        assert ret == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "CONVERGENCE ERROR" in line] == [
            "square alpha=0.5 x=0.5: CONVERGENCE ERROR stalled"
        ]
        assert sum("PASS" in line for line in lines) == 6
        assert lines[-1] == "7 identity checks, 1 failures"

    def test_verify_certified_bound_holds(self, capsys):
        assert cli.main(["verify", "--theorem", "E6", "--function", "square"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_verify_uncertified_hypothesis_skips(self, capsys):
        assert cli.main(["verify", "--theorem", "E9", "--function", "square"]) == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_verify_undersized_bound_fails(self, capsys):
        ret = cli.main(
            ["verify", "--theorem", "E6", "--function", "square", "--M", "0.001"]
        )
        assert ret == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_verify_classical_requires_alpha_one(self, capsys):
        ret = cli.main(
            ["verify", "--theorem", "e14", "--function", "square", "--alpha", "0.5"]
        )
        assert ret == 2
        assert "error:" in capsys.readouterr().err

    def test_reduce_all(self, capsys):
        assert cli.main(["reduce"]) == 0
        out = capsys.readouterr().out
        for tid in ("E6", "E7", "E8proof", "E9"):
            assert tid in out

    def test_reduce_single(self):
        assert cli.main(["reduce", "--theorem", "E7"]) == 0

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

    def test_sweep_json_on_stdout_equals_the_out_file(self, capsys, tmp_path):
        # the two destinations reach render_json from different call sites
        args = ["sweep", "--functions", "affine", "square", "--alphas", "0.5",
                "--s-values", "0.5", "1.0", "--x-count", "3", "--format", "json"]
        out = tmp_path / "r.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        stamp = re.compile(r'"timestamp": "[^"]*"')
        from_file = stamp.sub('"timestamp": ""', out.read_text(encoding="utf-8"))
        from_stdout = stamp.sub('"timestamp": ""', capsys.readouterr().out)
        assert from_stdout == from_file

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

    def test_sweep_convergence_error_exits_one(self, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise ConvergenceError("subdivision budget exhausted", 0.0, 1.0)

        monkeypatch.setattr("fracineq.harness.compute_pieces", stall)
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
        assert "error: alphas: must be <= 140" in err
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


def test_sweep_rows_equal_standalone_evaluation():
    # run_sweep shares the identity, its left-hand side and the Gamma ratios
    # between the rows of a grid point; each row must still equal the row
    # evaluate_theorem gives with nothing precomputed
    cfg = dataclasses.replace(SMALL, theorems=FRACTIONAL_IDS)
    qcfg = QuadratureConfig(rel_tol=cfg.quad_rel_tol, abs_tol=cfg.quad_abs_tol)
    res = run_sweep(cfg)
    assert len(res.reports) == 12 * 2 * 4  # points x s values x ids, one (p, q) pair
    for r in res.reports:
        alone = evaluate_theorem(
            r.theorem_id, get_entry(r.function), r.prm, qcfg, margin_tol=cfg.margin_tol
        )
        assert alone == [r]
