"""One rule per parameter axis: every entry point that takes a tolerance, an
interval or M refuses a bad one with its own error type and the axis's one
text, after its own name for the value.

The texts are spelled out here, not read from ``fracint``, so that a rule
whose wording drifts fails these tests.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fracineq.bounds import CertCache
from fracineq.errors import ConfigError, DomainError, EmptyIntervalError
from fracineq.fracint import FracParams, QuadratureConfig, oracle
from fracineq.funcatalog import (
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    Function1D,
    certify_batch,
    get_entry,
)
from fracineq.harness import SweepConfig

one = lambda t: np.ones_like(np.asarray(t, dtype=float))


def _sweep(**kwargs) -> None:
    """Raise a sweep config's problems as the CLI does."""
    if problems := SweepConfig(("square",), **kwargs).validate():
        raise ConfigError("; ".join(problems))


def _cache_get(cert_tol: float) -> None:
    CertCache(cert_tol=cert_tol).get(get_entry("square"), TARGET_FPRIME, MODE_CONVEX, 0.5)


def _deriv_bound(m: float) -> None:
    dataclasses.replace(get_entry("square"), analytic_m=m).deriv_bound()


def _refused(call, kind, text: str) -> None:
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert text in str(info.value), str(info.value)


TOLERANCE_ENTRIES = {
    **{f"SweepConfig.{name}": (lambda v, name=name: _sweep(**{name: v}), ConfigError, name)
       for name in ("identity_tol", "margin_tol", "cert_tol", "quad_rel_tol", "quad_abs_tol")},
    "QuadratureConfig.rel_tol": (lambda v: QuadratureConfig(rel_tol=v), ConfigError, "rel_tol"),
    "QuadratureConfig.abs_tol": (lambda v: QuadratureConfig(abs_tol=v), ConfigError, "abs_tol"),
    "certify_batch": (lambda v: certify_batch(get_entry("square").func, (0.5,), cert_tol=v),
                      ConfigError, "cert_tol"),
    "CertCache.get": (_cache_get, ConfigError, "cert_tol"),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", TOLERANCE_ENTRIES)
def test_every_tolerance_reads_the_one_rule(entry, value):
    call, kind, name = TOLERANCE_ENTRIES[entry]
    _refused(lambda: call(value), kind, f"{name}: must be > 0 and finite, got {value!r}")


@pytest.mark.parametrize("value", [7, 8.5, math.nan, True])
def test_max_subdivisions_is_an_int_of_at_least_eight(value):
    # constructed only: a batch under a NaN budget never reaches its subdivision limit
    _refused(lambda: QuadratureConfig(max_subdivisions=value), ConfigError,
             f"max_subdivisions: must be an int >= 8, got {value!r}")


INTERVAL_ENTRIES = {
    "Function1D": (lambda a, b: Function1D("f", one, one, a, b), DomainError),
    "oracle": (lambda a, b: oracle(one, a, b, 0.5), EmptyIntervalError),
    "FracParams": (lambda a, b: FracParams(a, b, 0.5, 0.5), ConfigError),
    "SweepConfig": (lambda a, b: _sweep(interval=(a, b)), ConfigError),
}


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)])
@pytest.mark.parametrize("entry", INTERVAL_ENTRIES)
def test_every_interval_reads_the_one_rule(entry, a, b):
    call, kind = INTERVAL_ENTRIES[entry]
    _refused(lambda: call(a, b), kind, f"need a < b, got [{a!r}, {b!r}]")


M_ENTRIES = {
    "FracParams": (lambda m: FracParams(0.0, 1.0, 0.5, 0.5, M=m), ConfigError, "M"),
    "deriv_bound": (_deriv_bound, DomainError, "analytic_m"),
}


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", M_ENTRIES)
def test_every_m_reads_the_one_rule(entry, value):
    call, kind, name = M_ENTRIES[entry]
    _refused(lambda: call(value), kind, f"{name}: must be nonnegative and finite, got {value!r}")


def test_an_infinite_cert_tol_cannot_certify_a_violated_hypothesis():
    # |f'|**2 of square is not s-concave at s = 0.5: its worst violation is ~1.89
    f = get_entry("square").func
    kwargs = dict(q=2.0, modes=(MODE_CONCAVE,), target=TARGET_FPRIME_POW)
    (cert,) = certify_batch(f, (0.5,), **kwargs)
    assert not cert.passed and cert.max_violation > 1.0
    with pytest.raises(ConfigError, match="cert_tol: must be > 0 and finite, got inf"):
        certify_batch(f, (0.5,), cert_tol=math.inf, **kwargs)
