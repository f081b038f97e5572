"""Tests of the sweep benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, expected_rows, grid_points  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workloads_end_to_end(trace):
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
        assert {k: m["unit"] for k, m in res["metrics"].items()} == want
        assert all(set(m) == {"value", "unit"} for m in res["metrics"].values())
    printed = {tuple(line.split(" = ")[0].split(" ")): line.split(" = ")[1].split()[1]
               for line in proc.stdout.splitlines() if " = " in line}
    for workload in WORKLOADS:
        for name, unit in want.items():
            assert printed[(workload, name)] == unit


def test_spec_matches_the_code():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER_UNITS)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER_UNITS.values())
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_frac_default_is_the_default_sweep():
    from fracineq.harness import SweepConfig, default_config

    cfg = WORKLOADS["frac-default"].make_config(123, False)
    assert SweepConfig.from_dict(cfg).to_dict() == default_config().to_dict()
    assert grid_points(cfg) == 594 and expected_rows(cfg) == 23760


def test_seeded_configs_are_reproducible_valid_and_of_fixed_size():
    from fracineq.harness import SweepConfig

    sizes = {"quad-heavy": (693, 693), "rows-heavy": (90, 27801)}
    for name, (points, rows) in sizes.items():
        make = WORKLOADS[name].make_config
        assert make(7, False) == make(7, False)
        assert make(7, False) != make(8, False)
        for seed in range(20):
            cfg = make(seed, False)
            assert SweepConfig.from_dict(cfg).validate() == []
            assert (grid_points(cfg), expected_rows(cfg)) == (points, rows)
        assert SweepConfig.from_dict(make(0, True)).validate() == []


def test_expected_rows_matches_the_program(tmp_path):
    from fracineq.harness import SweepConfig, run_sweep

    for name, wl in WORKLOADS.items():
        cfg = wl.make_config(3, True)
        res = run_sweep(SweepConfig.from_dict(cfg), workers=1)
        assert len(res.reports) == expected_rows(cfg), name
        assert len(res.residuals) == grid_points(cfg), name


def _tiny_sweep(tmp_path: Path, name: str, main) -> tuple[dict, bytes]:
    wl = WORKLOADS[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(wl.make_config(2, True)), encoding="utf-8")
    out = tmp_path / f"report.{wl.fmt}"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--format", wl.fmt]
    rec = worker.run_one(main, argv, out, wl.fmt, 1)
    return rec, out.read_bytes()


def test_tracing_leaves_the_report_unchanged_and_unwraps(tmp_path):
    import fracineq.cli as cli

    targets = [(m, a) for m, a, _ in tracing.TARGETS]
    before = [tracing._resolve(m, a)[2] for m, a in targets]
    plain_rec, plain = _tiny_sweep(tmp_path, "frac-default", cli.main)

    tracer = tracing.Tracer()
    with tracer.installed():
        assert hasattr(tracing._resolve("fracineq.fracint", "quad")[2], "__wrapped__")
        traced_rec, traced = _tiny_sweep(
            tmp_path, "frac-default",
            lambda argv: tracer.traced_call("cli.main", cli.main, argv),
        )
    assert traced == plain and traced_rec["sha256"] == plain_rec["sha256"]
    assert [tracing._resolve(m, a)[2] for m, a in targets] == before
    assert tracer.absent == []
    layers = tracer.layer_metrics()
    assert layers["fracint.quad.calls"] > 0 and layers["specfun.calls"] > 0
    assert layers["bounds.rows"] == traced_rec["rows"]
    assert 0.0 < layers["bounds.certcache.hit_ratio"] < 1.0


def test_missing_targets_are_reported_absent(monkeypatch):
    gone = (("fracineq.harness", "gone", "x"), ("fracineq.removed", "f", "y"))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    monkeypatch.setattr(tracing, "SPECFUN_CALLERS", ())
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert sorted(tracer.absent) == [
        "fracineq.harness.gone",
        "fracineq.removed.f",
        "fracineq.specfun functions (no caller imports them)",
    ]


def test_json_digest_ignores_only_the_timestamp():
    a = b'{\n  "provenance": {\n    "seed": 0,\n    "timestamp": "2024-01-01T00:00:00+00:00",\n    "version": "1"\n  }\n}\n'
    b = a.replace(b"2024-01-01", b"2025-06-30")
    assert worker.report_digest(a, "json") == worker.report_digest(b, "json")
    assert worker.report_digest(a, "json") != worker.report_digest(a.replace(b'"1"', b'"2"'), "json")
    assert worker.report_digest(a, "csv") != worker.report_digest(b, "csv")


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "frac-default", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
