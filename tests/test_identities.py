"""Identity assemblies: derivative terms, Bernoulli blocks, verifications,
and the contour-shift cross checks."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from ztl import hp, special, identities as idn
from ztl.identities import IdentityParams


def _fd_derivative_oracle(f, order, digits):
    """Richardson-extrapolated central differences at raised precision."""
    wide = hp.with_precision(digits + 20 + 18 * order)
    with wide.scoped():
        h = mpf(10) ** -17

        def stencil(step):
            if order == 1:
                return (f(step, wide) - f(-step, wide)) / (2 * step)
            if order == 2:
                return (f(step, wide) - 2 * f(mpf(0), wide) + f(-step, wide)) / step ** 2
            if order == 3:
                return ((f(2 * step, wide) - 2 * f(step, wide)
                         + 2 * f(-step, wide) - f(-2 * step, wide)) / (2 * step ** 3))
            raise ValueError(order)

        d1 = stencil(h)
        d2 = stencil(h / 2)
        return (4 * d2 - d1) / 3 if order == 1 else (4 * d2 - d1) / 3


def test_derivative_term_k1_is_plain_value(ctx50):
    # zeroth derivative: zeta(2m+1) zeta(0) Gamma(1) = -zeta(2m+1)/2
    with ctx50.scoped():
        v = idn.derivative_term(1, 1, mpf(5), ctx50)
        assert abs(v + special.zeta(3, ctx50) / 2) < ctx50.tolerance(2)


def test_derivative_term_k1_independent_of_rho(ctx50):
    with ctx50.scoped():
        a = idn.derivative_term(1, 1, mpf(1), ctx50)
        b = idn.derivative_term(1, 1, mpf(7), ctx50)
        assert a == b


def test_derivative_term_k2_vs_finite_difference(ctx50):
    def f(s, c):
        with c.scoped():
            return (special.zeta(3 + s, c) ** 2 * special.zeta(s, c) ** 2
                    * special.gamma(1 + s, c) ** 2 * mp.cospi(s / 2)
                    * mp.power(2 * mp.pi, -s))

    with ctx50.scoped():
        mine = idn.derivative_term(2, 1, 2 * mp.pi, ctx50)
        oracle = _fd_derivative_oracle(f, 1, ctx50.digits)
        assert abs(mine - oracle) < mpf(10) ** (-(ctx50.digits - 10))


def test_derivative_term_requires_nonzero_m(ctx50):
    with pytest.raises(special.DomainError):
        idn.derivative_term(2, 0, mpf(1), ctx50)


@pytest.mark.parametrize("term", ["derivative", "eta"])
def test_jet_after_other_cells_equals_cold(term):
    # the rho-free jets are memoized per (k, m, precision); terms of other
    # k, m, rho and digits, and the other kind of term, must not leak in
    ctx30, ctx50 = hp.with_precision(30), hp.with_precision(50)

    def target():
        if term == "derivative":
            return idn.derivative_term(3, -1, mpf(40), ctx50)
        return idn.eta_derivative_term(3, mpf("0.3"), ctx50)

    special.clear_caches()
    for k, m, rho, ctx in [(3, -1, 7, ctx30), (3, 1, 40, ctx50), (2, -1, 40, ctx50),
                           (3, -1, 3, ctx50)]:
        idn.derivative_term(k, m, mpf(rho), ctx)
    for k, theta, ctx in [(3, 1, ctx30), (3, 0, ctx50), (2, "0.3", ctx50)]:
        idn.eta_derivative_term(k, mpf(theta), ctx)
    warm = target()
    special.clear_caches()
    assert target() == warm


def test_clear_caches_empties_jet_memo(ctx30):
    idn.derivative_term(2, 1, mpf(5), ctx30)
    idn.eta_derivative_term(2, mpf("0.3"), ctx30)
    assert special._JET_MEMO
    special.clear_caches()
    assert not special._JET_MEMO


def test_bernoulli_block_lerch_combination(ctx50):
    # k=1, m=1, alpha=beta=pi: the three j-terms are 1/720, 1/144, 1/720
    coeffs = idn.bernoulli_block_coeffs(1, 1)
    assert coeffs == [Fraction(-1, 720), Fraction(-1, 144), Fraction(-1, 720)]
    with ctx50.scoped():
        blk = idn.bernoulli_block(1, 1, mp.pi, mp.pi, ctx50)
        assert abs(blk - 4 * mp.pi ** 2 * mpf(7) / 720) < ctx50.tolerance(3)


def test_bernoulli_block_empty_and_single(ctx50):
    with ctx50.scoped():
        assert idn.bernoulli_block(3, -2, mp.pi, mp.pi, ctx50) == 0
        blk = idn.bernoulli_block(2, -1, mpf(2), mp.pi ** 2 / 2, ctx50)
        assert abs(blk + (mp.pi / 2) * mpf(2) ** -4) < ctx50.tolerance(3)
        # the m = -1 block is quasimodular's constant, bit for bit
        for k in range(1, 6):
            for th in (0, mpf("0.3")):
                alpha, beta = idn.alpha_beta(th, ctx50)
                assert (idn.bernoulli_block(k, -1, alpha, beta, ctx50)
                        == -(mp.pi / 2) ** (k - 1) * mpf(2) ** (-2 * k))


def test_ramanujan_negative_m_is_even_eisenstein(ctx50):
    with ctx50.scoped():
        r = idn.verify_ramanujan_classical(-2, mpf(3) / 10, ctx50)
        assert r.passed
        # coefficient sum empty: both sides are pure Lambert/zeta sides
        assert idn.bernoulli_block_coeffs(1, -2) == []


def test_quasimodular_k1_classical_constant(ctx50):
    with ctx50.scoped():
        r = idn.verify_quasimodular(1, mpf(0), ctx50)
        assert r.passed
        s = special.lambert_series(1, 2 * mp.pi, ctx50)
        assert abs(s - (mpf(1) / 24 - 1 / (8 * mp.pi))) < mpf(10) ** -30


def test_eisenstein_k1_closed_form(ctx50):
    with ctx50.scoped():
        th = mpf(1) / 2
        r = idn.verify_eisenstein(1, 2, th, ctx50)
        assert r.passed
        alpha = mp.pi * mp.exp(th)
        beta = mp.pi / mp.exp(th)
        b4 = mpf(-1) / 30
        assert abs(r.rhs - (alpha ** 2 - beta ** 2) * b4 / 8) < ctx50.tolerance(10)


def test_eisenstein_theta_zero_kills_both_sides(ctx50):
    with ctx50.scoped():
        r = idn.verify_eisenstein(1, 2, mpf(0), ctx50)
        assert abs(r.lhs) < mpf(10) ** -40 and abs(r.rhs) < mpf(10) ** -40


@pytest.fixture
def no_sides(monkeypatch):
    """Any series request or series sum fails the test: a verifier must
    reject bad parameters before it computes a side."""
    def side(*a, **kw):
        raise AssertionError("a side was evaluated")

    monkeypatch.setattr(idn, "SeriesRequest", side)
    monkeypatch.setattr(idn, "series_L", side)
    monkeypatch.setattr(special, "lambert_series", side)


def test_eisenstein_requires_m_above_one(ctx50, no_sides):
    with pytest.raises(special.DomainError):
        idn.verify_eisenstein(2, 1, mpf(1) / 5, ctx50)


@pytest.mark.parametrize("verifier,args", [
    # a namespace, since IdentityParams itself rejects k = 0
    ("verify_main", (SimpleNamespace(k=0, m=1, theta=mpf("0.3")),)),
    ("verify_ramanujan_classical", (0, mpf("0.3"))),
    ("verify_dixit", (0, mpf("0.3"))),
    ("verify_eisenstein", (0, 2, mpf("0.3"))),
    ("verify_quasimodular", (0, mpf("0.3"))),
    ("verify_eta", (0, mpf("0.3"))),
    ("verify_lerch_general", (0, 1)),
])
def test_k_or_m_zero_rejected_before_any_side(ctx30, no_sides, verifier, args):
    with pytest.raises(special.DomainError):
        getattr(idn, verifier)(*args, ctx30)


@pytest.mark.parametrize("identity", ["main", "dixit", "eta"])
@pytest.mark.parametrize("theta", ["inf", "nan"])
def test_non_finite_theta_rejected_before_any_side(ctx30, no_sides, identity, theta):
    with pytest.raises(special.DomainError, match="theta must be finite"):
        idn.verify(identity, k=2, m=1, theta=theta, ctx=ctx30)


def test_eta_k1_closed_form_rhs(ctx50):
    with ctx50.scoped():
        th = mpf(2) / 5
        r = idn.verify_eta(1, th, ctx50)
        assert r.passed
        alpha = mp.pi * mp.exp(th)
        beta = mp.pi / mp.exp(th)
        closed = (beta - alpha) / 12 + mp.log(alpha / beta) / 4
        assert abs(r.rhs - closed) < mpf(10) ** -30


def test_eta_theta_zero_trivial(ctx50):
    with ctx50.scoped():
        r = idn.verify_eta(2, mpf(0), ctx50)
        assert abs(r.lhs) < mpf(10) ** -45 and abs(r.rhs) < mpf(10) ** -40


def test_lerch_rejects_even_m(ctx50, no_sides):
    with pytest.raises(special.DomainError):
        idn.verify_lerch_general(1, 2, ctx50)


def test_lerch_m_minus_one_matches_quasimodular_at_theta_zero(ctx50):
    with ctx50.scoped():
        r = idn.verify_lerch_general(2, -1, ctx50)
        assert r.passed
        q = idn.verify_quasimodular(2, mpf(0), ctx50)
        # lerch lhs is L_{-1}((2pi)^k); quasimodular lhs = 2 pi^k * that
        assert abs(q.lhs - 2 * mp.pi ** 2 * r.lhs) < mpf(10) ** -30


def test_identity_params():
    ctx = hp.with_precision(30)
    with ctx.scoped():
        p = IdentityParams(k=2, m=1, theta=ctx.mpf("0.25"))
        a, b = idn.alpha_beta(p.theta, ctx)
        assert abs(a * b - mp.pi ** 2) < ctx.tolerance(2)
        q = IdentityParams.from_alpha(2, 1, a, ctx)
        assert abs(q.theta - mpf("0.25")) < ctx.tolerance(2)


def test_report_shape(ctx30):
    with ctx30.scoped():
        r = idn.verify_ramanujan_classical(1, mpf(0), ctx30)
    row = r.csv_row()
    assert row.startswith("ramanujan,1,1,")
    assert row.endswith(",0")       # timings zeroed for determinism
    assert r.json_dict()["passed"] is True
    assert "rel_residual" in str(r)


def test_dispatch_by_name(ctx30):
    with ctx30.scoped():
        r = idn.verify("ramanujan", k=1, m=1, theta="0.1", ctx=ctx30)
        assert r.identity == "ramanujan" and r.passed
    with pytest.raises(special.DomainError):
        idn.verify("nope", ctx=ctx30)


def test_ramanujan_unit_theta(ctx50):
    with ctx50.scoped():
        assert idn.verify_ramanujan_classical(1, mpf(1), ctx50).passed


def test_eisenstein_k2(ctx50):
    with ctx50.scoped():
        assert idn.verify_eisenstein(2, 2, mpf(1) / 5, ctx50).passed


def test_quasimodular_k2_and_offcenter(ctx50):
    with ctx50.scoped():
        assert idn.verify_quasimodular(2, mpf(0), ctx50).passed
        assert idn.verify_quasimodular(1, mpf(7) / 10, ctx50).passed


def test_lerch_higher_cases(ctx50):
    with ctx50.scoped():
        assert idn.verify_lerch_general(1, 3, ctx50).passed
        assert idn.verify_lerch_general(2, 1, ctx50).passed
