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
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import betainc, gammainc

from fracineq.fracint import Estimate, FracParams, lemma_pair, moment_integral, rl_left
from fracineq.funcatalog import get_entry

ALPHAS = (1e-6, 1e-4, 0.05, 0.25, 1.0, 2.0, 4.0)
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


def assert_honest(got: Estimate, want: float, what: str) -> None:
    # the value, and the true error within the reported budget
    err = abs(got.value - want)
    assert err <= got.error, f"{what}: |error| {err:.3e} > budget {got.error:.3e}"
    assert got.value == pytest.approx(want, rel=1e-9, abs=1e-15), what


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", sorted(POWER_TERMS))
def test_power_functions_match_closed_forms(name, alpha):
    f = get_entry(name).func
    terms = POWER_TERMS[name]
    for x in XS:
        jm, jp = lemma_pair(f, FracParams(0.0, 1.0, x, alpha))
        ia = moment_integral(f.deriv, x, 0.0, alpha)
        assert_honest(jm, exact_jm(terms, alpha, x), f"jm x={x}")
        assert_honest(jp, exact_jp(terms, alpha, x), f"jp x={x}")
        assert_honest(ia, exact_ia(terms, alpha, x), f"ia x={x}")


@pytest.mark.parametrize("alpha", ALPHAS)
def test_exp_matches_incomplete_gamma(alpha):
    f = get_entry("exp").func
    for x in XS:
        _, jp = lemma_pair(f, FracParams(0.0, 1.0, x, alpha))
        assert_honest(jp, math.e * gammainc(alpha, 1.0 - x), f"jp x={x}")
        if x > 0.0:
            left = rl_left(f, 0.0, x, alpha)
            assert_honest(left, math.exp(x) * gammainc(alpha, x), f"rl_left x={x}")


@pytest.mark.parametrize("alpha", [1e-4, 1e-6])
def test_small_alpha_operator_is_exact(alpha):
    # the u**(1/alpha) substitution puts all of f's variation in a layer of
    # width ~alpha; without the break point the first samples miss it
    x = 0.5
    jm, _ = lemma_pair(get_entry("square").func, FracParams(0.0, 1.0, x, alpha))
    want = x ** (2.0 + alpha) / ((2.0 + alpha) * math.gamma(alpha))
    assert jm.value == pytest.approx(want, rel=1e-12)
    assert abs(jm.value - want) <= jm.error
