"""Catalog functions, sampled convexity certificates, derivative bounds.

The independent oracle here is a deliberately naive triple loop over the
same (u, v, lambda) grid the vectorized certifier uses; both routes must
report the same worst violation.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq.errors import CertificateError, ConfigError, DomainError
from fracineq.funcatalog import (
    DEFAULT_CERT_TOL,
    GRID_SIZE,
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_F,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    CatalogEntry,
    ConvexityCertificate,
    Function1D,
    _grid,
    builtin_catalog,
    catalog_names,
    certify_batch,
    get_entry,
)

EXPECTED_NAMES = {
    "constant",
    "affine",
    "affine_shift",
    "square",
    "pow125",
    "pow150",
    "pow175",
    "threehalf",
    "exp",
}


def naive_worst_violation(g, lo, hi, s, mode, n=GRID_SIZE):
    """Triple-loop reimplementation of the certifier's grid scan."""
    us = np.linspace(lo, hi, n)
    lams = np.linspace(0.0, 1.0, n)
    worst = -math.inf
    for lam in lams:
        for u in us:
            for v in us:
                lhs = g(lam * u + (1.0 - lam) * v)
                rhs = lam**s * g(u) + (1.0 - lam) ** s * g(v)
                violation = lhs - rhs
                if mode == MODE_CONCAVE:
                    violation = -violation
                worst = max(worst, violation)
    return worst


class TestFunction1D:
    def test_rejects_empty_domain(self):
        with pytest.raises(DomainError):
            Function1D("bad", lambda t: t, lambda t: 1.0, 1.0, 1.0)

    def test_call_and_grid(self):
        f = get_entry("square").func
        assert float(f(3.0)) == 9.0
        g = f.grid(11)
        assert g.shape == (11,)
        assert g[0] == f.domain_lo and g[-1] == f.domain_hi

    def test_self_check_accepts_catalog(self):
        for entry in builtin_catalog():
            entry.func.self_check()

    def test_self_check_rejects_wrong_derivative(self):
        wrong = Function1D(
            "wrong",
            lambda t: np.asarray(t, dtype=float) ** 2,
            lambda t: 3.0 * np.asarray(t, dtype=float),
            0.0,
            1.0,
        )
        with pytest.raises(CertificateError):
            wrong.self_check()


class TestCertify:
    def test_square_deriv_convex_at_s_one(self):
        # |f'| = 2t is linear, hence convex
        cert = certify_batch(get_entry("square").func, (1.0,), target=TARGET_FPRIME)[0]
        assert cert.passed
        assert cert.max_violation <= DEFAULT_CERT_TOL

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
    def test_constant_passes_every_s(self, s):
        cert = certify_batch(get_entry("constant").func, (s,), target=TARGET_FPRIME)[0]
        assert cert.passed

    def test_threehalf_sq_deriv_concave(self):
        # |f'|^2 = t is linear, hence s-concave at s = 1
        (cert,) = certify_batch(
            get_entry("threehalf").func,
            (1.0,),
            q=2.0,
            modes=(MODE_CONCAVE,),
            target=TARGET_FPRIME_POW,
        )
        assert cert.passed

    def test_pow125_deriv_fails_above_quarter(self):
        # |f'| ~ t^0.25 is s-convex only for s <= 0.25
        f = get_entry("pow125").func
        assert certify_batch(f, (0.25,), target=TARGET_FPRIME)[0].passed
        cert = certify_batch(f, (0.5,), target=TARGET_FPRIME)[0]
        assert not cert.passed
        assert cert.max_violation > DEFAULT_CERT_TOL

    def test_target_f_routes(self):
        assert certify_batch(get_entry("square").func, (1.0,), target=TARGET_F)[0].passed
        assert certify_batch(get_entry("exp").func, (0.25,), target=TARGET_F)[0].passed

    @pytest.mark.parametrize(
        "fname,target,mode,s,q",
        [
            ("square", TARGET_FPRIME, MODE_CONVEX, 0.5, 1.0),
            ("threehalf", TARGET_FPRIME_POW, MODE_CONCAVE, 1.0, 2.0),
            ("pow150", TARGET_FPRIME, MODE_CONVEX, 0.75, 1.0),
            # concave certificates that fail, so the violation's sign shows
            ("square", TARGET_FPRIME_POW, MODE_CONCAVE, 0.5, 2.0),
            ("exp", TARGET_FPRIME, MODE_CONCAVE, 1.0, 1.0),
        ],
    )
    def test_matches_naive_loop(self, fname, target, mode, s, q):
        f = get_entry(fname).func
        cert = certify_batch(f, (s,), q=q, modes=(mode,), target=target)[0]
        if target == TARGET_FPRIME:
            g = lambda t: abs(float(f.deriv(t)))
        else:
            g = lambda t: abs(float(f.deriv(t))) ** q
        want = naive_worst_violation(g, f.domain_lo, f.domain_hi, s, mode)
        assert abs(cert.max_violation - want) <= 1e-12

    def test_midpoint_agreement_at_s_one(self):
        # at s=1 the certifier verdict must agree with the plain midpoint
        # convexity test on the same grid
        for fname in ("square", "exp", "threehalf"):
            f = get_entry(fname).func
            cert = certify_batch(f, (1.0,), target=TARGET_FPRIME)[0]
            us = np.linspace(f.domain_lo, f.domain_hi, GRID_SIZE)
            g = np.abs(np.asarray(f.deriv(us), dtype=float))
            gmid = np.abs(
                np.asarray(
                    f.deriv(0.5 * (us[:, None] + us[None, :])), dtype=float
                )
            )
            midpoint_worst = float(np.max(gmid - 0.5 * (g[:, None] + g[None, :])))
            assert (cert.max_violation <= DEFAULT_CERT_TOL) == (
                midpoint_worst <= DEFAULT_CERT_TOL
            )

    def test_monotone_in_tolerance(self):
        f = get_entry("pow150").func
        tight = certify_batch(f, (0.5,), target=TARGET_FPRIME, cert_tol=1e-12)[0]
        loose = certify_batch(f, (0.5,), target=TARGET_FPRIME, cert_tol=1e-6)[0]
        assert tight.max_violation == loose.max_violation
        if tight.passed:
            assert loose.passed

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_constant_target_passes_any_s(self, s):
        # g = |f'| = 0 and lambda^s + (1-lambda)^s >= 1 on [0, 1]
        assert certify_batch(get_entry("constant").func, (s,), target=TARGET_FPRIME)[0].passed

    def test_validation_errors(self):
        f = get_entry("square").func
        with pytest.raises(DomainError):
            certify_batch(f, (0.0,))
        with pytest.raises(DomainError):
            certify_batch(f, (1.5,))
        with pytest.raises(DomainError):
            certify_batch(f, (0.5,), q=0.5, target=TARGET_FPRIME_POW)
        with pytest.raises(ConfigError):
            certify_batch(f, (0.5,), modes=("convex-ish",))
        with pytest.raises(ConfigError):
            certify_batch(f, (0.5,), target="f''")
        for q in (math.nan, math.inf):
            with pytest.raises(DomainError, match="^q: .* is not a conjugate pair"):
                certify_batch(f, (0.5,), q=q, target=TARGET_FPRIME_POW)
        with pytest.raises(ConfigError, match="cert_tol"):
            certify_batch(f, (0.5,), cert_tol=math.nan)

    def test_rejects_negative_domain(self):
        shifted = Function1D(
            "neg", lambda t: np.asarray(t) ** 2, lambda t: 2.0 * np.asarray(t), -1.0, 1.0
        )
        with pytest.raises(DomainError):
            certify_batch(shifted, (0.5,))


def _cert_bits(cert):
    # every field, with max_violation by its bits so that -0.0 != 0.0
    return (cert.s, cert.mode, cert.target, cert.q, cert.max_violation.hex(), cert.cert_tol)


class TestCertifyBatch:
    S_VALUES = (0.05, 0.25, 0.5, 0.75, 1.0)
    MODES = (MODE_CONVEX, MODE_CONCAVE)

    @pytest.mark.parametrize("target", [TARGET_F, TARGET_FPRIME, TARGET_FPRIME_POW])
    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_equals_one_certify_per_s_and_mode(self, entry, target):
        # one sampling reduced per (s, mode) must give the certificate of a
        # batch of that one (s, mode) to the bit, s-major then mode
        f = entry.func
        for q in (1.0, 1.5, 2.0, 5.0):
            batch = certify_batch(f, self.S_VALUES, q=q, modes=self.MODES, target=target)
            single = [
                certify_batch(f, (s,), q=q, modes=(mode,), target=target)[0]
                for s in self.S_VALUES
                for mode in self.MODES
            ]
            assert batch == single
            assert [_cert_bits(c) for c in batch] == [_cert_bits(c) for c in single]

    def test_passes_tolerance_through(self):
        f = get_entry("pow150").func
        kwargs = dict(q=2.0, target=TARGET_FPRIME_POW, cert_tol=1e-6)
        (batch,) = certify_batch(f, (0.5,), modes=(MODE_CONCAVE,), **kwargs)
        assert batch == certify_batch(f, (0.5,), modes=(MODE_CONCAVE,), **kwargs)[0]
        assert batch.cert_tol == 1e-6

    def test_nothing_requested_gives_no_certificates(self):
        f = get_entry("square").func
        assert certify_batch(f, ()) == []
        assert certify_batch(f, (0.5,), modes=()) == []

    @pytest.mark.parametrize(
        "batch_kwargs,single_kwargs",
        [
            (dict(s_values=(0.0, 0.5, 1.0)), dict(s_values=(0.0,))),
            (dict(s_values=(0.5, 1.5, 1.0)), dict(s_values=(1.5,))),
            (dict(s_values=(0.5, 1.0, math.nan)), dict(s_values=(math.nan,))),
            (dict(s_values=(0.5,), q=0.5, target=TARGET_FPRIME_POW),
             dict(s_values=(0.5,), q=0.5, target=TARGET_FPRIME_POW)),
            (dict(s_values=(0.5,), modes=(MODE_CONVEX, "convex-ish")),
             dict(s_values=(0.5,), modes=("convex-ish",))),
            (dict(s_values=(0.5,), target="f''"), dict(s_values=(0.5,), target="f''")),
            (dict(s_values=(0.5,), q=math.nan, target=TARGET_FPRIME_POW),
             dict(s_values=(0.5,), q=math.nan, target=TARGET_FPRIME_POW)),
            (dict(s_values=(0.5,), q=math.inf, target=TARGET_FPRIME_POW),
             dict(s_values=(0.5,), q=math.inf, target=TARGET_FPRIME_POW)),
            (dict(s_values=(0.5,), cert_tol=math.nan),
             dict(s_values=(0.5,), cert_tol=math.nan)),
        ],
        ids=["s-first", "s-middle", "s-last", "q", "mode", "target",
             "q-nan", "q-inf", "cert_tol-nan"],
    )
    def test_rejects_what_certify_rejects(self, batch_kwargs, single_kwargs):
        # a batch rejects with the message its one offending (s, mode) case gives
        f = get_entry("square").func
        with pytest.raises((ConfigError, DomainError)) as single:
            certify_batch(f, **single_kwargs)
        with pytest.raises(single.type, match=f"^{re.escape(str(single.value))}$"):
            certify_batch(f, **batch_kwargs)

    def test_rejects_negative_domain_like_certify(self):
        shifted = Function1D(
            "neg", lambda t: np.asarray(t) ** 2, lambda t: 2.0 * np.asarray(t), -1.0, 1.0
        )
        with pytest.raises(DomainError) as single:
            certify_batch(shifted, (0.5,))
        with pytest.raises(DomainError, match=f"^{re.escape(str(single.value))}$"):
            certify_batch(shifted, (0.5, 1.0), modes=(MODE_CONVEX, MODE_CONCAVE))


def broadcast_certificates(f, s_values, q, modes, target, grid_size,
                           cert_tol=DEFAULT_CERT_TOL, lam_rows=None):
    """The certifier as one broadcast sum ``bound`` and one ``violation``
    array per s, over the first ``lam_rows`` rows of the lam grid (every row
    by default; the mirror grid's first half is ``(grid_size + 1) // 2``)."""
    if target == TARGET_F:
        g = lambda t: np.asarray(f.eval(t), dtype=float)
    elif target == TARGET_FPRIME:
        g = lambda t: np.abs(np.asarray(f.deriv(t), dtype=float))
    else:
        g = lambda t: np.abs(np.asarray(f.deriv(t), dtype=float)) ** q
    u = np.linspace(f.domain_lo, f.domain_hi, grid_size)
    lam = np.linspace(0.0, 1.0, grid_size)[:lam_rows]
    gu = g(u)
    pts = lam[:, None, None] * u[None, :, None] + (1.0 - lam)[:, None, None] * u[None, None, :]
    gpts = g(pts)
    certs = []
    for s in s_values:
        lam_s = lam**s
        lam_s_c = (1.0 - lam) ** s
        bound = (
            lam_s[:, None, None] * gu[None, :, None]
            + lam_s_c[:, None, None] * gu[None, None, :]
        )
        violation = gpts - bound
        for mode in modes:
            worst = np.max(violation) if mode == MODE_CONVEX else -np.min(violation)
            certs.append(
                ConvexityCertificate(
                    s=float(s),
                    mode=mode,
                    target=target,
                    q=float(q),
                    max_violation=float(worst),
                    cert_tol=float(cert_tol),
                )
            )
    return certs


class TestMirrorGrid:
    """The mirror lam grid (1 - lam == lam[::-1]) is sampled on its first half
    only, and every certificate equals the full grid's; each s's bound, a
    K = 2 product, has the bits of the half grid's broadcast sum."""

    S_VALUES = (0.05, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
    MODES = (MODE_CONVEX, MODE_CONCAVE)
    # q > 1 only where the target reads it
    TARGET_QS = ((TARGET_F, 1.0), (TARGET_FPRIME, 1.0),
                 (TARGET_FPRIME_POW, 1.5), (TARGET_FPRIME_POW, 2.0), (TARGET_FPRIME_POW, 5.0))

    @pytest.mark.parametrize("grid_size", [33])
    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_equals_the_full_grid(self, entry, grid_size):
        for target, q in self.TARGET_QS:
            args = (entry.func, self.S_VALUES, q, self.MODES, target)
            batch = certify_batch(*args)
            want = broadcast_certificates(*args, grid_size)
            assert batch == want, (target, q)
            assert [_cert_bits(c) for c in batch] == [_cert_bits(c) for c in want]

    @pytest.mark.parametrize("entry", [
        *builtin_catalog(),
        # f = -t and f = -0.0 give cells whose two bound terms are both -0.0
        CatalogEntry(Function1D("negated", lambda t: -np.asarray(t, dtype=float),
                                lambda t: np.full_like(np.asarray(t, dtype=float), -1.0),
                                0.0, 1.0), (), (), 1.0, "f(t) = -t"),
        CatalogEntry(Function1D("negative_zero",
                                lambda t: np.full_like(np.asarray(t, dtype=float), -0.0),
                                lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                                0.0, 1.0), (), (), 0.0, "f(t) = -0.0"),
        # |f'| = inf at 0, so every target but f has a NaN violation
        CatalogEntry(Function1D("root", lambda t: np.sqrt(np.asarray(t, dtype=float)),
                                lambda t: 0.5 / np.sqrt(np.asarray(t, dtype=float)),
                                0.0, 1.0), (), (), math.inf, "f(t) = sqrt(t)"),
    ], ids=lambda e: e.name)
    @np.errstate(divide="ignore", invalid="ignore")
    def test_product_bound_equals_the_broadcast_sum(self, entry):
        # the K = 2 product and its -0.0 repair give the broadcast sum's bits
        s_values = (0.05, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9, 1.0)
        half = (GRID_SIZE + 1) // 2
        got = []
        for target in (TARGET_F, TARGET_FPRIME, TARGET_FPRIME_POW):
            for q in (1.0, 1.2, 2.0, 5.0, 11.0):
                args = (entry.func, s_values, q, self.MODES, target)
                batch = certify_batch(*args)
                want = broadcast_certificates(*args, GRID_SIZE, lam_rows=half)
                assert [_cert_bits(c) for c in batch] == [_cert_bits(c) for c in want], (target, q)
                got += batch
        violations = [c.max_violation for c in got]
        if entry.name in ("negated", "negative_zero"):
            assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in violations)
        if entry.name == "root":
            assert any(math.isnan(v) for v in violations)

    @pytest.mark.parametrize("f", [
        # not dyadic: more distinct points than [0, 1] has
        Function1D("pow150_inner", lambda t: np.asarray(t, dtype=float) ** 1.5,
                   lambda t: 1.5 * np.sqrt(np.asarray(t, dtype=float)), 0.1, 0.7),
        Function1D("square_wide", lambda t: np.asarray(t, dtype=float) ** 2,
                   lambda t: 2.0 * np.asarray(t, dtype=float), 0.0, 2.0),
        # f(+0.0) = -0.0, so bound terms can be -0.0
        Function1D("negated_from_negative_zero", lambda t: -np.asarray(t, dtype=float),
                   lambda t: np.full_like(np.asarray(t, dtype=float), -1.0), -0.0, 1.0),
        # f and f' overflow to inf on part of the grid
        Function1D("overflowing", lambda t: np.exp(800.0 * np.asarray(t, dtype=float)),
                   lambda t: 800.0 * np.exp(800.0 * np.asarray(t, dtype=float)), 0.0, 1.0),
    ], ids=lambda f: f.name)
    @np.errstate(over="ignore", invalid="ignore")
    def test_distinct_point_samples_keep_the_bits_off_the_catalog(self, f):
        # the target is sampled at the grid's distinct points and gathered back
        # per cell; the reference samples every cell of the half grid
        half = (GRID_SIZE + 1) // 2
        for target, q in (*self.TARGET_QS, (TARGET_FPRIME_POW, 1e6)):
            args = (f, self.S_VALUES, q, self.MODES, target)
            batch = certify_batch(*args)
            want = broadcast_certificates(*args, GRID_SIZE, lam_rows=half)
            assert [_cert_bits(c) for c in batch] == [_cert_bits(c) for c in want], (target, q)

    def test_the_domain_grid_is_shared_and_read_only(self):
        f = get_entry("square").func
        key = (float(f.domain_lo).hex(), float(f.domain_hi).hex())
        grid = _grid(*key)
        assert _grid(*key) is grid
        # a -0.0 end is a different key from a 0.0 end
        assert _grid((-0.0).hex(), key[1]) is not grid
        half = (GRID_SIZE + 1) // 2
        # every point of [0, 1]'s grid is a multiple of 1/1024
        assert [a.shape for a in grid] == [(GRID_SIZE,), (half,), (1025,),
                                           (half, GRID_SIZE, GRID_SIZE)]
        for a in grid:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
        # the points are distinct by their bits and give each cell its point
        u, lam, points, index = grid
        pts = lam[:, None, None] * u[None, :, None] + (1.0 - lam)[:, None, None] * u[None, None, :]
        assert len({p.hex() for p in points.tolist()}) == len(points)
        assert points[index].tobytes() == pts.tobytes()
        assert len(_grid((0.1).hex(), (0.7).hex())[2]) == 2298  # not dyadic

    @pytest.mark.parametrize("grid_size,block", [(33, (1025,))])
    def test_samples_half_of_a_mirror_grid_only(self, grid_size, block):
        # at u, and at the 1,025 distinct points of [0, 1]'s 17 x 33 x 33 cells
        shapes = []

        def deriv(t):
            shapes.append(np.shape(t))
            return 2.0 * np.asarray(t, dtype=float)

        f = Function1D("recorded", lambda t: np.asarray(t, dtype=float) ** 2, deriv, 0.0, 1.0)
        certify_batch(f, (0.5, 1.0), modes=self.MODES, target=TARGET_FPRIME)
        assert shapes == [(grid_size,), block]


class TestDerivativeBound:
    def test_analytic_bounds(self):
        assert get_entry("square").deriv_bound() == 2.0
        assert get_entry("affine").deriv_bound() == 1.0

    def test_sampled_bound_covers_supremum(self):
        # the claim is checked against the grid supremum of |f'|, with 1e-12 slack
        sine = Function1D("sine", np.sin, np.cos, 0.0, 1.0)
        entry = CatalogEntry(sine, (), (), 1.0, "sin(t)")
        sup = float(np.max(np.abs(np.cos(sine.grid()))))
        assert sup <= entry.deriv_bound() + 1e-12
        assert entry.deriv_bound() == 1.0
        assert dataclasses.replace(entry, analytic_m=sup - 1e-13).deriv_bound() == sup - 1e-13
        with pytest.raises(CertificateError):
            dataclasses.replace(entry, analytic_m=sup - 1e-9).deriv_bound()

    def test_refutes_false_claim(self):
        with pytest.raises(CertificateError):
            dataclasses.replace(get_entry("square"), analytic_m=0.5).deriv_bound()

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            dataclasses.replace(get_entry("square"), analytic_m=-1.0).deriv_bound()


class TestCatalog:
    def test_expected_members(self):
        assert EXPECTED_NAMES.issubset(set(catalog_names()))

    def test_square_and_constant_bounds(self):
        assert get_entry("square").deriv_bound() == 2.0
        assert get_entry("constant").deriv_bound() == 0.0

    def test_get_entry_unknown(self):
        with pytest.raises(ConfigError):
            get_entry("does-not-exist")

    def test_every_registration_certifies(self):
        # the catalog's registered s values are promises; re-run the
        # certifier on each one
        for entry in builtin_catalog():
            for s in entry.s_convex:
                cert = certify_batch(entry.func, (s,), target=TARGET_FPRIME)[0]
                assert cert.passed, f"{entry.name} s-convex s={s}: {cert.describe()}"
            for s in entry.s_concave:
                (cert,) = certify_batch(
                    entry.func, (s,), q=2.0, modes=(MODE_CONCAVE,), target=TARGET_FPRIME_POW
                )
                assert cert.passed, f"{entry.name} s-concave s={s}: {cert.describe()}"

    def test_analytic_bounds_hold_on_grid(self):
        for entry in builtin_catalog():
            bound = entry.deriv_bound()
            sup = float(np.max(np.abs(np.asarray(entry.func.deriv(entry.func.grid())))))
            assert sup <= bound + 1e-12

    def test_describe_mentions_verdict(self):
        cert = certify_batch(get_entry("square").func, (1.0,), target=TARGET_FPRIME)[0]
        assert "PASS" in cert.describe()
        bad = certify_batch(get_entry("pow125").func, (1.0,), target=TARGET_FPRIME)[0]
        assert "FAIL" in bad.describe()

    def test_certificates_describe_compare_and_hash_by_their_fields(self):
        # a passing |f'| certificate and a failing |f'|^q one, as sweeps
        # note them; equal fields make equal, interchangeable keys
        good = ConvexityCertificate(0.5, MODE_CONVEX, TARGET_FPRIME, 1.0, -2.5e-17)
        bad = ConvexityCertificate(s=1.0, mode=MODE_CONCAVE, target=TARGET_FPRIME_POW, q=1.5,
                                   max_violation=0.03125, cert_tol=1e-6)
        assert good.passed and not bad.passed
        assert good.cert_tol == DEFAULT_CERT_TOL
        assert good.describe() == (
            "PASS s-convex s=0.5 target |f'| (max violation -2.500e-17, grid 33^3)"
        )
        assert bad.describe() == (
            "FAIL s-concave s=1 target |f'|^1.5 (max violation 3.125e-02, grid 33^3)"
        )
        twin = ConvexityCertificate(1.0, MODE_CONCAVE, TARGET_FPRIME_POW, 1.5, 0.03125, 1e-6)
        assert twin == bad and hash(twin) == hash(bad) and twin != good
        assert {bad: "note"}[twin] == "note"
        assert (bad.s, bad.mode, bad.target, bad.q, bad.max_violation, bad.cert_tol) == (
            1.0, MODE_CONCAVE, TARGET_FPRIME_POW, 1.5, 0.03125, 1e-6
        )
