"""Spans around calls into each fracineq layer, recorded from outside the package.

The tracer replaces a function under the name its caller looks it up by
(``fracineq.harness.compute_pieces``, ``fracineq.fracint.quad``, ...) with a
wrapper that records a span: sweep id, span id, parent span id, name, start
and end. ``Tracer.installed()`` puts the wrappers in place and always
restores the originals. A target that a refactor removed is reported in
``Tracer.absent`` and its metrics read 0; that is not an error.

Spans of one sweep stay in memory; ``layer_metrics`` folds them into the
per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

SPECFUN_NAMES = ("gamma", "ln_gamma", "beta")

# (module, attribute, span name); the attribute may be Class.method.
TARGETS = (
    ("fracineq.cli", "run_sweep", "harness.run_sweep"),
    ("fracineq.harness", "render_csv", "harness.render"),
    ("fracineq.harness", "render_json", "harness.render"),
    ("fracineq.harness", "compute_pieces", "identity.compute_pieces"),
    ("fracineq.bounds", "compute_pieces", "identity.compute_pieces"),
    ("fracineq.harness", "check_e1_from_pieces", "identity.check"),
    ("fracineq.harness", "evaluate_theorem", "bounds.evaluate_theorem"),
    ("fracineq.bounds", "CertCache.get", "bounds.certcache.get"),
    ("fracineq.bounds", "certify", "funcatalog.certify"),
    ("fracineq.funcatalog", "CatalogEntry.deriv_bound", "funcatalog.deriv_bound"),
    ("fracineq.harness", "plain_integral", "fracint.plain_integral"),
    ("fracineq.bounds", "plain_integral", "fracint.plain_integral"),
    ("fracineq.identity", "plain_integral", "fracint.plain_integral"),
    ("fracineq.identity", "moment_integral", "fracint.moment_integral"),
    ("fracineq.fracint", "weighted_endpoint_integral", "fracint.weighted_endpoint_integral"),
    ("fracineq.fracint", "quad", "fracint.quad"),
)
SPECFUN_CALLERS = ("fracineq.fracint", "fracineq.identity", "fracineq.bounds",
                   "fracineq.harness", "fracineq.funcatalog", "fracineq.cli")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "fracint.quad.calls": "count",
    "fracint.quad.neval": "count",
    "fracint.quad.max_subintervals": "count",
    "fracint.weighted_endpoint_integral.s": "s",
    "fracint.moment_integral.s": "s",
    "fracint.plain_integral.s": "s",
    "identity.compute_pieces.calls": "count",
    "identity.compute_pieces.self_s": "s",
    "identity.check.s": "s",
    "identity.worst_rel_residual": "ratio",
    "bounds.evaluate_theorem.calls": "count",
    "bounds.evaluate_theorem.self_s": "s",
    "bounds.rows": "count",
    "bounds.certcache.gets": "count",
    "bounds.certcache.hit_ratio": "ratio",
    "funcatalog.certify.calls": "count",
    "funcatalog.certify.s": "s",
    "funcatalog.deriv_bound.s": "s",
    "specfun.calls": "count",
    "specfun.s": "s",
    "harness.run_sweep.self_s": "s",
    "harness.render.s": "s",
    "harness.report_bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_share": "ratio",
}

# metrics that must repeat exactly between two traced sweeps of one config
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")
) + ("bounds.certcache.hit_ratio", "identity.worst_rel_residual")


def _import(module: str) -> Any:
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        return None


def _resolve(module: str, attr: str) -> tuple[Any, str, Optional[Callable]]:
    owner: Any = _import(module)
    *path, leaf = attr.split(".")
    if owner is None:
        return None, leaf, None
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None, leaf, None
    return owner, leaf, vars(owner).get(leaf)


class Tracer:
    """Records spans of traced sweeps; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.sweep_id = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def _targets(self) -> list[tuple[str, str, str, Optional[Callable]]]:
        targets = list(TARGETS)
        specfun = _import("fracineq.specfun")
        for module in SPECFUN_CALLERS:
            mod = _import(module)
            for fname in SPECFUN_NAMES:
                fn = getattr(specfun, fname, None)
                if mod is not None and fn is not None and vars(mod).get(fname) is fn:
                    targets.append((module, fname, "specfun"))
        if len(targets) == len(TARGETS):
            self.absent.append("fracineq.specfun functions (no caller imports them)")
        return [(m, a, n, self._observer(n)) for m, a, n in targets]

    def _observer(self, name: str) -> Optional[Callable[[Any], None]]:
        counters = self.counters
        if name == "fracint.quad":

            def observe(ret: Any) -> None:
                info = ret[2] if isinstance(ret, tuple) and len(ret) > 2 else None
                if isinstance(info, dict):
                    counters["neval"] += info.get("neval", 0)
                    counters["max_last"] = max(counters["max_last"], info.get("last", 0))

        elif name == "identity.check":

            def observe(res: Any) -> None:
                counters["worst_rel"] = max(counters["worst_rel"], res.rel_residual)

        elif name == "bounds.evaluate_theorem":

            def observe(rows: Any) -> None:
                counters["rows"] += len(rows)

        else:
            return None
        return observe

    def _wrap(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.sweep_id, sid, parent, name, start, end))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore it."""
        restore: list[tuple[Any, str, Callable]] = []
        self.absent = []
        try:
            for module, attr, name, observe in self._targets():
                owner, leaf, fn = _resolve(module, attr)
                if fn is None:
                    self.absent.append(f"{module}.{attr}")
                    continue
                restore.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(fn, name, observe))
            yield
        finally:
            for owner, leaf, fn in reversed(restore):
                setattr(owner, leaf, fn)

    def traced_call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Start a new sweep and call fn under a root span; spans reset first."""
        self.sweep_id += 1
        self.spans.clear()
        self.counters.clear()
        self.counters.update(neval=0, max_last=0, worst_rel=0.0, rows=0)
        return self._wrap(fn, name, None)(*args)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last sweep (overhead and bytes excluded)."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        name_of = {sid: name for _, sid, _, name, _, _ in self.spans}
        misses = 0
        for _, sid, parent, name, start, end in self.spans:
            count[name] += 1
            total[name] += end - start
            child[parent] += end - start
            if name == "funcatalog.certify" and name_of.get(parent) == "bounds.certcache.get":
                misses += 1
        self_s: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
        gets = count["bounds.certcache.get"]
        c = self.counters
        return {
            "fracint.quad.calls": count["fracint.quad"],
            "fracint.quad.neval": c["neval"],
            "fracint.quad.max_subintervals": c["max_last"],
            "fracint.weighted_endpoint_integral.s": total["fracint.weighted_endpoint_integral"],
            "fracint.moment_integral.s": total["fracint.moment_integral"],
            "fracint.plain_integral.s": total["fracint.plain_integral"],
            "identity.compute_pieces.calls": count["identity.compute_pieces"],
            "identity.compute_pieces.self_s": self_s["identity.compute_pieces"],
            "identity.check.s": total["identity.check"],
            "identity.worst_rel_residual": c["worst_rel"],
            "bounds.evaluate_theorem.calls": count["bounds.evaluate_theorem"],
            "bounds.evaluate_theorem.self_s": self_s["bounds.evaluate_theorem"],
            "bounds.rows": c["rows"],
            "bounds.certcache.gets": gets,
            "bounds.certcache.hit_ratio": (gets - misses) / gets if gets else 0.0,
            "funcatalog.certify.calls": count["funcatalog.certify"],
            "funcatalog.certify.s": total["funcatalog.certify"],
            "funcatalog.deriv_bound.s": total["funcatalog.deriv_bound"],
            "specfun.calls": count["specfun"],
            "specfun.s": total["specfun"],
            "harness.run_sweep.self_s": self_s["harness.run_sweep"],
            "harness.render.s": total["harness.render"],
            "cli.main.self_s": self_s["cli.main"],
        }

    def dump(self, path: str) -> None:
        """Write the last sweep's spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sweep, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sweep, sid, parent, name, start, end]) + "\n")
