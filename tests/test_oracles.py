"""Closed-form values of the identity's integrals, and honest error budgets.

On [a, b] = [0, 1] every power-type catalog function is a sum of terms
c * t**k, for which

    jm = (1/Gamma(alpha)) int_0^x t**(alpha-1) t**k dt = x**(alpha+k) / ((alpha+k) Gamma(alpha)),
    jp = (1/Gamma(alpha)) int_x^1 (1-t)**(alpha-1) t**k dt
       = Gamma(k+1) / Gamma(k+alpha+1) * I_{1-x}(alpha, k+1),
    ia = int_0^1 t**alpha (c t**k)'(t x) dt = c k x**(k-1) / (alpha+k),

with I the regularized incomplete beta function. For exp,
jp = e * P(alpha, 1 - x) and the left Riemann-Liouville operator is
e**x * P(alpha, x), P the regularized lower incomplete gamma function.
Each value must match, and its true error must not exceed the error
estimate the engine reports.

The alphas run from 1e-6 to MAX_ALPHA. At the large ones a reference can
itself be off by ~1e-14 relative (see ``REFERENCE_RTOL``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import betainc

from fracineq.fracint import (
    MAX_ALPHA,
    _scaled,
    Estimate,
    FracParams,
    moment_integral,
    weighted_endpoint_integral,
)
from fracineq.funcatalog import get_entry
from fracineq.specfun import gamma

from at_point import pieces_of

LARGE_ALPHAS = (8.0, 32.0, MAX_ALPHA)
ALPHAS = (1e-6, 1e-4, 0.05, 0.25, 1.0, 2.0, 4.0) + LARGE_ALPHAS
XS = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))

# catalog name -> terms (c, k) of f(t) = sum c * t**k
POWER_TERMS = {
    "constant": ((1.0, 0.0),),
    "affine": ((1.0, 1.0),),
    "affine_shift": ((0.5, 0.0), (2.0, 1.0)),
    "square": ((1.0, 2.0),),
    "pow125": ((1.0, 1.25),),
    "pow150": ((1.0, 1.5),),
    "pow175": ((1.0, 1.75),),
    "threehalf": ((2.0 / 3.0, 1.5),),
}


def exact_jm(terms, alpha: float, x: float) -> float:
    return sum(c * x ** (alpha + k) / ((alpha + k) * math.gamma(alpha)) for c, k in terms)


def exact_jp(terms, alpha: float, x: float) -> float:
    return sum(
        c * math.gamma(k + 1.0) / math.gamma(k + alpha + 1.0) * betainc(alpha, k + 1.0, 1.0 - x)
        for c, k in terms
    )


def exact_ia(terms, alpha: float, x: float) -> float:
    return sum(c * k * x ** (k - 1.0) / (alpha + k) for c, k in terms if k != 0.0)


def scaled_p(alpha: float, x: float, c: float) -> float:
    """e**c * P(alpha, x), from P's power series

        P(alpha, x) = x**alpha e**-x / Gamma(alpha + 1) * sum_k x**k / ((alpha+1)...(alpha+k)).

    Only the last step, the division by Gamma(alpha + 1), can leave the
    normal range, so a subnormal result is still rounded once: scipy's
    gammainc(140, 0.3) underflows to 0.0.
    """
    if x == 0.0:
        return 0.0
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= x / (alpha + k)
        total += term
    return x**alpha * math.exp(c - x) * total / math.gamma(alpha + 1.0)


#: The stated error of a reference at the large alphas, relative. Against
#: 40-digit evaluations at alpha = 140, the engine's jp values were right to
#: ~3e-16, while betainc times the math.gamma ratio was off by 1.3e-14
#: (pow125 at x = 0.5, pow175 at x = 0.6), more than the engine's budget.
REFERENCE_RTOL = 1e-13


def assert_honest(got: Estimate, want: float, what: str, alpha: float) -> None:
    # the value, and the true error within the reported budget plus, at the
    # large alphas, the reference's own error
    err = abs(got.value - want)
    budget = got.error + (REFERENCE_RTOL * abs(want) if alpha in LARGE_ALPHAS else 0.0)
    assert err <= budget, f"{what}: |error| {err:.3e} > budget {budget:.3e}"
    assert got.value == pytest.approx(want, rel=1e-9, abs=1e-15), what


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", sorted(POWER_TERMS))
def test_power_functions_match_closed_forms(name, alpha):
    f = get_entry(name).func
    terms = POWER_TERMS[name]
    for x in XS:
        pieces = pieces_of(f, FracParams(0.0, 1.0, x, alpha))
        jm, jp = pieces.jm, pieces.jp
        ia = moment_integral(f.deriv, x, 0.0, alpha)
        assert_honest(jm, exact_jm(terms, alpha, x), f"jm x={x}", alpha)
        assert_honest(jp, exact_jp(terms, alpha, x), f"jp x={x}", alpha)
        assert_honest(ia, exact_ia(terms, alpha, x), f"ia x={x}", alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_exp_matches_incomplete_gamma(alpha):
    f = get_entry("exp").func
    for x in XS:
        jp = pieces_of(f, FracParams(0.0, 1.0, x, alpha)).jp
        assert_honest(jp, scaled_p(alpha, 1.0 - x, 1.0), f"jp x={x}", alpha)
        if x > 0.0:
            # J_{0+}^alpha f(x), the textbook left operator
            est = weighted_endpoint_integral(f, 0.0, x, alpha, "hi")
            left = Estimate(*map(float, _scaled(1.0 / gamma(alpha), *map(np.float64, est))))
            assert_honest(left, scaled_p(alpha, x, x), f"left operator x={x}", alpha)


@pytest.mark.parametrize("alpha", [1e-4, 1e-6])
def test_small_alpha_operator_is_exact(alpha):
    # tau = w**m with m = ceil(4 / alpha) puts all of f's variation in a
    # layer of width ~1/m at w = 1; without the break point the first
    # samples miss it
    x = 0.5
    jm = pieces_of(get_entry("square").func, FracParams(0.0, 1.0, x, alpha)).jm
    want = x ** (2.0 + alpha) / ((2.0 + alpha) * math.gamma(alpha))
    assert jm.value == pytest.approx(want, rel=1e-12)
    assert abs(jm.value - want) <= jm.error
