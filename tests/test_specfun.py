"""Gamma / log-Gamma / Beta kernel accuracy and domain contracts.

The kernels wrap the standard library's math.gamma and math.lgamma, so the
comparisons against them check only the wrappers' domain handling and
argument conversion. The independent routes are scipy.special's gamma and
gammaln over the same grids, exact values (factorials, sqrt(pi)), the
recurrence Gamma(z + 1) = z Gamma(z), and Beta by adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma
from scipy.special import gammaln as scipy_gammaln

from fracineq.errors import DomainError
from fracineq.fracint import MAX_ALPHA
from fracineq.specfun import REL_TOL, beta, gamma, ln_gamma

RECURRENCE_TOL = 8.0 * REL_TOL  # 8e-13
SQRT_PI = 1.7724538509055159
LN_SQRT_PI = 0.5723649429247001


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


class TestGammaValues:
    def test_gamma_one(self):
        assert rel_err(gamma(1.0), 1.0) <= REL_TOL

    def test_gamma_factorials(self):
        for n in range(1, 12):
            assert rel_err(gamma(n + 1.0), math.factorial(n)) <= REL_TOL

    def test_gamma_half_is_sqrt_pi(self):
        assert abs(gamma(0.5) - SQRT_PI) <= 1e-13 * SQRT_PI

    def test_gamma_against_stdlib(self):
        for z in np.geomspace(0.1, 50.0, 300):
            assert rel_err(gamma(float(z)), math.gamma(float(z))) <= REL_TOL

    def test_gamma_against_scipy(self):
        for z in np.geomspace(0.1, 50.0, 300):
            assert rel_err(gamma(float(z)), float(scipy_gamma(z))) <= REL_TOL

    def test_gamma_covers_every_accepted_alpha(self):
        # the identity needs Gamma(alpha + 1) at alpha up to fracint.MAX_ALPHA
        z = MAX_ALPHA + 1.0
        assert rel_err(gamma(z), math.gamma(z)) <= REL_TOL
        assert rel_err(gamma(z), float(scipy_gamma(z))) <= REL_TOL

    def test_gamma_is_finite_past_the_accepted_alphas(self):
        g = gamma(142.3)
        assert math.isfinite(g)
        assert rel_err(gamma(143.3), 142.3 * g) <= RECURRENCE_TOL

    def test_gamma_reaches_factorial_170(self):
        assert rel_err(gamma(171.0), math.factorial(170)) <= REL_TOL

    @pytest.mark.parametrize("z", [0.0, -0.5, -3.0])
    def test_gamma_rejects_nonpositive(self, z):
        with pytest.raises(DomainError):
            gamma(z)

    @pytest.mark.parametrize("z", [5e-324, 1e-309, 171.7])
    def test_gamma_overflow_is_a_domain_error(self, z):
        with pytest.raises(DomainError, match="overflows"):
            gamma(z)


class TestLnGammaValues:
    def test_ln_gamma_one_and_two(self):
        assert abs(ln_gamma(1.0)) <= REL_TOL
        assert abs(ln_gamma(2.0)) <= REL_TOL

    def test_ln_gamma_half(self):
        assert abs(ln_gamma(0.5) - LN_SQRT_PI) <= REL_TOL

    def test_ln_gamma_against_stdlib(self):
        for z in np.geomspace(0.1, 170.0, 300):
            want = math.lgamma(float(z))
            assert abs(ln_gamma(float(z)) - want) <= REL_TOL * max(1.0, abs(want))

    def test_ln_gamma_against_scipy(self):
        for z in [*np.geomspace(0.1, 170.0, 300), MAX_ALPHA + 1.0]:
            want = float(scipy_gammaln(z))
            assert abs(ln_gamma(float(z)) - want) <= REL_TOL * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_ln_gamma_rejects_nonpositive(self, z):
        with pytest.raises(DomainError):
            ln_gamma(z)


class TestBetaValues:
    def test_beta_one_one(self):
        assert rel_err(beta(1.0, 1.0), 1.0) <= 4.0 * REL_TOL

    def test_beta_two_three(self):
        # direct integration of t(1-t)^2 over [0,1] gives 1/12
        assert rel_err(beta(2.0, 3.0), 1.0 / 12.0) <= 4.0 * REL_TOL

    def test_beta_halfway(self):
        # beta(3/2, 3/2) = pi/8 via Gamma(3/2) = sqrt(pi)/2
        assert rel_err(beta(1.5, 1.5), math.pi / 8.0) <= 4.0 * REL_TOL

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_beta_rejects_nonpositive(self, args):
        with pytest.raises(DomainError):
            beta(*args)


class TestIdentities:
    def test_recurrence_on_log_grid(self):
        # Gamma(z+1) = z Gamma(z) across the documented range
        for z in np.geomspace(0.1, 50.0, 400):
            z = float(z)
            lhs = gamma(z + 1.0)
            assert abs(lhs - z * gamma(z)) <= RECURRENCE_TOL * lhs

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.1, max_value=49.0))
    def test_recurrence_property(self, z):
        lhs = gamma(z + 1.0)
        assert abs(lhs - z * gamma(z)) <= RECURRENCE_TOL * lhs

    def test_beta_gamma_identity(self):
        # beta(x,y) Gamma(x+y) = Gamma(x) Gamma(y)
        pts = np.geomspace(0.1, 10.0, 20)
        for x in pts:
            for y in pts:
                x, y = float(x), float(y)
                lhs = beta(x, y) * gamma(x + y)
                rhs = gamma(x) * gamma(y)
                assert abs(lhs - rhs) <= RECURRENCE_TOL * abs(rhs)

    def test_beta_symmetry_is_exact(self):
        for x, y in [(0.3, 2.7), (1.5, 4.0), (0.25, 0.75), (9.0, 0.1)]:
            assert beta(x, y) == beta(y, x)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.5])
    def test_beta_matches_moment_quadrature(self, alpha, s):
        # beta(alpha+1, s+1) = integral_0^1 t^alpha (1-t)^s dt, with the
        # integral evaluated by an independent adaptive engine
        want, _ = quad(
            lambda t: t**alpha * (1.0 - t) ** s, 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13,
        )
        assert rel_err(beta(alpha + 1.0, s + 1.0), want) <= 1e-10


class TestAccuracyContract:
    def test_default_contract(self):
        assert REL_TOL == 1e-13
