"""One workload in one process: repeated ``fracineq sweep`` calls, timed and checked.

Started by ``run.py``, never by hand. It imports fracineq from ``--src``,
writes the workload's config to ``--work``, and drives
``fracineq.cli.main(["sweep", ...])`` in-process, one sweep after another
(a closed loop with one client). With ``--trace 0`` every sweep is timed
untraced, and each sweep is preceded by two cold imports in fresh
interpreters: of ``fracineq.cli`` (set-up time) and of the third-party
modules it needs (the host-speed reference; see run.py). Both are thus
sampled across the whole measured window, not in one burst before it. With
``--trace 1`` untraced and traced sweeps alternate, so the tracing overhead
is measured on the same process. The outcome goes to ``<work>/worker.json``
for run.py to check and report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, grid_points  # noqa: E402

MIN_UNTRACED = 3
MIN_TRACED = 2
# What fracineq imports from outside itself; importing these in a fresh
# interpreter is the host-speed reference. The program cannot change its cost.
REFERENCE_MODULES = "numpy, scipy.integrate, scipy.special"

_SUMMARY = {
    "rows": re.compile(r"^rows: (\d+) \(passed (\d+), failed (\d+), skipped (\d+)\)", re.M),
    "identity": re.compile(r"^identity points: (\d+), failures: (\d+)", re.M),
    "convergence": re.compile(r"^convergence errors: (\d+)", re.M),
}
_TIMESTAMP = re.compile(rb'\n  *"timestamp": "[^"\n]*",?\n')


def report_digest(data: bytes, fmt: str) -> str:
    """sha256 of a report; JSON reports drop ``provenance.timestamp`` first."""
    if fmt == "json":
        data, n = _TIMESTAMP.subn(b"\n", data)
        if n != 1:
            raise ValueError(f"expected one timestamp in the JSON report, found {n}")
    return hashlib.sha256(data).hexdigest()


def cold_import_seconds(modules: str) -> float:
    """Time from spawning a fresh interpreter until its ``import <modules>`` returns.

    The child reads CLOCK_MONOTONIC, which is system-wide, right after the
    import; waiting for the child to exit would add its teardown. The child
    finds fracineq through the PYTHONPATH this process was started with.
    """
    cmd = [sys.executable, "-c",
           f"import {modules}, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True)
    return float(proc.stdout) - start


def run_one(main, argv: list[str], out: Path, fmt: str, points: int) -> dict:
    """One CLI sweep, timed from argument parsing to the written report."""
    if out.exists():
        out.unlink()
    stdout = io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a measured failure, not a benchmark bug
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    text = stdout.getvalue()
    found = {key: rx.search(text) for key, rx in _SUMMARY.items()}
    rec = {"seconds": seconds, "code": code, "error": error, "points": points}
    if error is None and all(found.values()):
        rows, _, violated, _ = (int(v) for v in found["rows"].groups())
        identity_points, identity_failures = (int(v) for v in found["identity"].groups())
        conv = int(found["convergence"].group(1))
        rec.update(rows=rows, violations=violated, identity_points=identity_points,
                   identity_failures=identity_failures, convergence_errors=conv)
        failed = conv + identity_failures
        if code != 0:
            failed = max(failed, 1)
    else:
        failed = points
        rec["output"] = text[-2000:]
    rec["failed_points"] = min(failed, points)
    if out.exists():
        data = out.read_bytes()
        rec["report_bytes"] = len(data)
        try:
            rec["sha256"] = report_digest(data, fmt)
        except ValueError as exc:
            rec["error"] = str(exc)
            rec["failed_points"] = points
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import fracineq.cli as cli
    import numpy
    import scipy

    work = Path(args.work)
    wl = WORKLOADS[args.workload]
    cfg = wl.make_config(args.seed, args.tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    out = work / f"report.{wl.fmt}"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--format", wl.fmt]
    points = grid_points(cfg)

    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    reference: list[float] = []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

        def traced_main(argv: list[str]) -> int:
            return tracer.traced_call("cli.main", cli.main, argv)

    if tracer is None:  # warm-up: fills the page cache, not timed
        cold_import_seconds(REFERENCE_MODULES)
        cold_import_seconds("fracineq.cli")
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is None:
            reference.append(cold_import_seconds(REFERENCE_MODULES))
            setup.append(cold_import_seconds("fracineq.cli"))
        untraced.append(run_one(cli.main, argv, out, wl.fmt, points))
        if tracer is not None:
            with tracer.installed():
                rec = run_one(traced_main, argv, out, wl.fmt, points)
            rec["layers"] = {**tracer.layer_metrics(),
                             "harness.report_bytes": rec.get("report_bytes", 0)}
            traced.append(rec)
        enough = len(untraced) >= MIN_UNTRACED if tracer is None else len(traced) >= MIN_TRACED
        if enough and time.perf_counter() >= deadline:
            break

    out.unlink(missing_ok=True)  # its digest is kept; rows-heavy reports are ~16 MB
    result = {
        "fracineq_file": os.path.abspath(cli.__file__),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "config": cfg,
        "format": wl.fmt,
        "untraced": untraced,
        "traced": traced,
        "setup": setup,
        "reference": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        tracer.dump(str(work / "spans.jsonl.gz"))
    (work / "worker.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
