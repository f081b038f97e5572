"""fracineq sweep benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload frac-default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own child process (bench/worker.py), one child at
a time, with fracineq imported from this checkout's ``src``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports its
per-layer metrics. Every output check must pass: otherwise the result says
``"correct": false`` and the exit code is 1. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give provenance and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH))

from tracing import EXACT_COUNTS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, expected_rows, grid_points  # noqa: E402

# On a shared VM the host's speed drifts by tens of percent from minute to
# minute, and each drift moves all timings taken at that moment together.
# Before every sweep the worker times a cold import of the third-party
# modules fracineq uses (the reference, which the program cannot change), and
# each set-up and sweep sample is scaled by REFERENCE_S / that reference
# time. Over ten runs the run medians of reference and sweep time had
# correlation 0.86. REFERENCE_S is about the reference's time on the 2-vCPU
# VM where the benchmark was defined, so scaled times read as seconds there.
REFERENCE_S = 0.6
# A run may overrun --seconds by the sweep it is in when the time is up.
WORKER_GRACE_S = 120
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["FRACINEQ_THREADS"] = "1"
    env.pop("FRACINEQ_LOG", None)
    return env


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def check(result: dict) -> list[str]:
    """Every output check of one workload run; returns the failures."""
    problems = []
    cfg = result["config"]
    if Path(result["fracineq_file"]).resolve().parent.parent != SRC.resolve():
        problems.append(f"fracineq imported from {result['fracineq_file']}, not {SRC}")
    sweeps = result["untraced"] + result["traced"]
    want_rows = expected_rows(cfg)
    for i, rec in enumerate(sweeps):
        tag = f"sweep {i}"
        if rec.get("error"):
            problems.append(f"{tag}: {rec['error'].strip().splitlines()[-1]}")
            continue
        if rec["code"] != 0:
            problems.append(f"{tag}: CLI exit code {rec['code']}")
        if "rows" not in rec:
            problems.append(f"{tag}: no sweep summary in CLI output: {rec.get('output', '')!r}")
            continue
        for key in ("violations", "identity_failures", "convergence_errors"):
            if rec[key]:
                problems.append(f"{tag}: {rec[key]} {key.replace('_', ' ')}")
        if rec["rows"] != want_rows:
            problems.append(f"{tag}: {rec['rows']} rows, expected {want_rows}")
        if rec["identity_points"] != grid_points(cfg):
            problems.append(f"{tag}: {rec['identity_points']} identity points, "
                            f"expected {grid_points(cfg)}")
        if "sha256" not in rec:
            problems.append(f"{tag}: no report written")
    digests = {rec.get("sha256") for rec in sweeps}
    if len(digests) != 1:
        problems.append(f"reports differ between repetitions (traced or not): {sorted(map(str, digests))}")
    traced = result["traced"]
    for name in EXACT_COUNTS:
        values = {rec["layers"][name] for rec in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between traced sweeps: {sorted(values)}")
    return problems


def scaled(samples: list[float], reference: list[float]) -> list[float]:
    """Each sample times REFERENCE_S over the reference time taken just before it."""
    return [s * REFERENCE_S / r for s, r in zip(samples, reference, strict=True)]


def metrics_of(result: dict, trace: int) -> dict:
    untraced = [rec["seconds"] for rec in result["untraced"]]
    if not trace:
        sweep_s = statistics.median(scaled(untraced, result["reference"]))
        rows = result["untraced"][0].get("rows", 0)
        values = {
            "setup_s": statistics.median(scaled(result["setup"], result["reference"])),
            "sweep_s": sweep_s,
            "rows_per_s": rows / sweep_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    else:
        traced = result["traced"]
        # counts repeat exactly (check() enforces it); times take the median
        values = {name: (traced[0]["layers"][name] if name in EXACT_COUNTS else
                         statistics.median(rec["layers"][name] for rec in traced))
                  for name in traced[0]["layers"]}
        traced_s = statistics.median(rec["seconds"] for rec in traced)
        values["trace.overhead_share"] = traced_s / statistics.median(untraced) - 1.0
        units = PER_LAYER_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def describe_timing(samples: list[float]) -> str:
    return f"median of {len(samples)}; min {min(samples):.4f}, max {max(samples):.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload in a child process; return the result line and human lines."""
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC),
           "--work", str(work)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    problems = check(result)
    metrics = metrics_of(result, trace)
    setup = result["setup"]
    sweeps = result["untraced"] + result["traced"]
    attempted = sum(rec["points"] for rec in sweeps)
    failed = sum(rec["failed_points"] for rec in sweeps)
    prov = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": name,
        "seed": seed,
        "config": result["config"],
        "report_sha256": sweeps[0].get("sha256"),
    }
    lines = [f"provenance {json.dumps(prov, sort_keys=True)}"]
    untraced = [rec["seconds"] for rec in result["untraced"]]
    for mname, m in metrics.items():
        note = ""
        if mname == "sweep_s":
            note = f"  (scaled; raw {describe_timing(untraced)} sweeps)"
        elif mname == "setup_s":
            note = f"  (scaled; raw {describe_timing(setup)} cold imports)"
        lines.append(f"{name} {mname} = {m['value']!r} {m['unit']}{note}")
    if not trace:
        lines.append(f"{name} reference import: {describe_timing(result['reference'])} s; "
                     f"each sample scaled by {REFERENCE_S} / the reference before it")
    lines.append(f"{name} error_rate = {failed / attempted!r} share  "
                 f"({failed} of {attempted} grid points failed)")
    if trace and result.get("absent"):
        lines.append(f"{name} absent trace targets: {', '.join(result['absent'])}")
    for p in problems:
        lines.append(f"{name} CHECK FAILED: {p}")
    summary = {
        "provenance": prov,
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "sweep_seconds": untraced,
        "traced_seconds": [rec["seconds"] for rec in result["traced"]],
        "setup_seconds": setup,
        "reference_seconds": result["reference"],
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    line = {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="run a miniature of each workload (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    if not (SRC / "fracineq" / "cli.py").is_file():
        print(f"error: no fracineq sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        line, lines = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        ok = ok and line["correct"]
        print("\n".join(lines))
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
