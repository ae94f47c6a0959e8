"""Psi strategies and the weighted divisor series."""

import random
import re

import pytest
from mpmath import mp, mpf

from conftest import fixed_to_mpc
from ztl import identities, mellin, special, with_precision
from ztl.psi import (VerticalProduct, _DIV_CACHE, _TERMS_CAP, _terms_series, divisor_counts,
                     dual_product, psi, series_L)


@pytest.mark.parametrize("call,message", [
    (lambda ctx: psi(1, 1, 1, ctx, strategy="nope"), "unknown strategy 'nope'"),
    (lambda ctx: psi(0, 1, 1, ctx), "k must be a positive integer"),
    (lambda ctx: psi(1, 0, 1, ctx), "rho and x must be positive"),
    (lambda ctx: psi(1, 1, "-1", ctx), "rho and x must be positive"),
    (lambda ctx: psi(3, 1, 1, ctx, strategy="closed_form"),
     "closed_form is only available for k in {1, 2}"),
    (lambda ctx: series_L(0, 1, 1, ctx), "k must be a positive integer"),
    (lambda ctx: series_L(1, 1, 0, ctx), "rho must be positive"),
    (lambda ctx: identities.verify_main(0, 1, "0.3", ctx), "k must be a positive integer"),
], ids=["psi-strategy", "psi-k", "psi-rho", "psi-x", "psi-closed-k3",
        "series-k", "series-rho", "main-k"])
def test_bad_arguments_rejected_before_any_work(ctx30, monkeypatch, call, message):
    def work(*a, **kw):
        raise AssertionError("work began before the arguments were checked")

    monkeypatch.setattr(mellin, "line_integral", work)
    monkeypatch.setattr(special, "sum_until_negligible", work)
    with pytest.raises(special.DomainError, match=f"^{re.escape(message)}$"):
        call(ctx30)


def test_divisor_counts_reach_their_bound():
    # the table for upto holds index upto, also where upto is a table size
    _DIV_CACHE.clear()
    for upto in (256, 257, 512, 513):
        assert divisor_counts(2, upto)[upto] == special.divisor_sieve(2, upto)[upto]


def test_k1_closed_form_is_geometric(ctx50):
    with ctx50.scoped():
        v = psi(1, 2 * mp.pi, 1, ctx50)
        assert v.strategy == "closed_form"
        assert abs(v.value - 1 / mp.expm1(2 * mp.pi)) < ctx50.tolerance()


def test_k1_geometric_tail(ctx50):
    with ctx50.scoped():
        v = psi(1, mpf(200), 1, ctx50)
        assert 0 < v.value < mp.exp(-199)


def test_auto_strategy_selection(ctx30):
    with ctx30.scoped():
        assert psi(2, 3, 1, ctx30).strategy == "closed_form"
        assert psi(3, 3, 1, ctx30).strategy == "inverse_mellin"


def test_k2_equals_half_omega(ctx50):
    # with rho = 4: sum d(j) [K0(4 eps sqrt(j)) + conj] = Psi_{4,2}(1)
    with ctx50.scoped():
        eps = mp.expjpi(mpf(1) / 4)
        tab = special.divisor_sieve(2, 4096)
        acc = mpf(0)
        j = 1
        while True:
            term = tab[j] * 2 * special.bessel_k0(4 * eps * mp.sqrt(j), ctx50).real
            acc += term
            if abs(term) < ctx50.tolerance(-5):
                break
            j += 1
            assert j < len(tab)
        v = psi(2, 4, 1, ctx50)
        assert abs(v.value - acc) < ctx50.tolerance(5)


def test_term_sum_matches_closed_form_k1(ctx30):
    with ctx30.scoped():
        a = psi(1, 12, 1, ctx30, strategy="term_sum")
        b = psi(1, 12, 1, ctx30, strategy="closed_form")
        assert abs(a.value - b.value) < ctx30.tolerance(8)


def test_term_sum_matches_inverse_mellin_k3(ctx30):
    # decay ~ exp(-1.5 z^(1/3)) is slow, so push rho up to keep terms few
    with ctx30.scoped():
        a = psi(3, 600, 1, ctx30, strategy="term_sum")
        b = psi(3, 600, 1, ctx30, strategy="inverse_mellin")
        assert abs(a.value - b.value) < ctx30.tolerance(8)


# ---------------------------------------------------------------------------
# weighted series


def test_series_k1_m1_equals_lambert(ctx50):
    # the terms strategy at k = 1 is the sigma form sum sigma_-e(N) e^(-rho N)
    with ctx50.scoped():
        for m, strategy in ((1, "fold"), (1, "terms"), (0, "terms")):
            L = series_L(1, m, 2 * mp.pi, ctx50, strategy=strategy)
            lam = special.lambert_series(-2 * m - 1, 2 * mp.pi, ctx50)
            assert abs(L - lam) < ctx50.tolerance(5), (m, strategy)


def test_series_k1_negative_m_equals_lambert(ctx50):
    with ctx50.scoped():
        for strategy in ("fold", "terms"):
            L = series_L(1, -2, 2 * mp.pi, ctx50, strategy=strategy)
            lam = special.lambert_series(3, 2 * mp.pi, ctx50)
            assert abs(L - lam) < ctx50.tolerance(5), strategy


def test_series_terms_strategy_reports_count(ctx30):
    with ctx30.scoped():
        L, N = _terms_series(1, 1, 2 * mp.pi, ctx30, _TERMS_CAP)
        assert N >= 6
        assert L == series_L(1, 1, 2 * mp.pi, ctx30, strategy="terms")
        F = series_L(1, 1, 2 * mp.pi, ctx30)
        assert abs(L - F) < ctx30.tolerance(8)


def test_series_k2_fold_vs_bessel_double_sum(ctx30):
    # brute-force the double sum over (n, j) with Bessel kernels
    with ctx30.scoped():
        rho = 4 * mp.pi ** 2
        L = series_L(2, 1, rho, ctx30)
        eps = mp.expjpi(mpf(1) / 4)
        tab = special.divisor_sieve(2, 50)
        acc = mpf(0)
        for n in range(1, 51):
            for j in range(1, 51):
                acc += (tab[n] * tab[j] * mp.power(n, -3)
                        * 2 * special.bessel_k0(2 * eps * mp.sqrt(rho * j * n), ctx30).real)
        assert abs(L - acc) < ctx30.tolerance(8)


def test_series_terms_rejects_k3_before_summing(ctx30, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed a k = 3 terms series")

    monkeypatch.setattr(special, "sum_until_negligible", no_sum)
    with pytest.raises(special.DomainError):
        series_L(3, -1, 600, ctx30, strategy="terms")


def test_series_nmax_exhaustion(ctx30):
    with ctx30.scoped(), pytest.raises(ArithmeticError):
        _terms_series(1, -3, mpf(1) / 100, ctx30, 4)


@pytest.mark.parametrize("k,m,rho", [(2, 1, 40), (3, -1, 250)])
def test_fold_agrees_at_shifted_abscissa(ctx50, k, m, rho):
    # no pole lies between Re s = c and Re s = c + 1, so the fold integral is
    # the same on both lines while every node differs: an independent route
    # for the stopping rule's accepted value. The Gamma form of the same
    # integrand, Gamma^k zeta^k(s) zeta^k(s+2m+1) cos^{k-1} rho^-s, is a
    # second one: it shares no factor but zeta(s+2m+1) with the Gamma-free
    # dual_product
    with ctx50.scoped():
        c = mpf(max(1, -2 * m)) + mpf(3) / 2

        def fold(f, line):
            st = mellin.line_settings(line)
            return mellin.line_integral(f, st, ctx50)

        vals = [mp.ldexp(fold(dual_product(k, rho, ctx50, m), line), -k) for line in (c, c + 1)]
        gamma_form = fold(VerticalProduct(ctx50, zeta_factors=[(0, 1, k), (2 * m + 1, 1, k)],
                                          gamma_power=k, cos_power=k - 1,
                                          neg_s_base=mpf(rho)), c)
        assert vals[0] == series_L(k, m, mpf(rho), ctx50)
        assert abs(vals[0] - vals[1]) <= mpf("1e-45") * abs(vals[0])
        assert abs(vals[0] - gamma_form) <= mpf("1e-45") * abs(vals[0])


# ---------------------------------------------------------------------------
# the base-free product memo of VerticalProduct


@pytest.mark.parametrize("k,m", [(2, 1), (3, -1)])
def test_fold_on_a_warm_line_equals_cold(ctx50, k, m):
    # a fresh rho on a line that three other rho filled reuses their
    # products and adds the nodes its longer scan needs; it must give the
    # value of a cold run
    def fold(rho):
        return series_L(k, m, mpf(rho), ctx50)

    def nodes():
        return sum(len(line) for line in special._PRODUCT_MEMO.values())

    special.clear_caches()
    for rho in (30000, 3000, 10000):
        fold(rho)
    known = nodes()
    warm = fold("0.05")
    assert 0 < known < nodes()
    special.clear_caches()
    cold = fold("0.05")
    with ctx50.scoped():
        assert abs(warm - cold) <= mpf("1e-60") * abs(cold)


def test_second_theta_pass_is_all_memo_hits(ctx30, monkeypatch):
    # a theta scan fills the product memo; the same theta again run no zeta
    # kernel, add no node and give the same sides
    rng = random.Random(1)
    thetas = [f"{rng.uniform(-1, 1):.6f}" for _ in range(30)]

    def scan():
        return [identities.verify("main", k=2, m=1, theta=th, ctx=ctx30) for th in thetas]

    def nodes():
        return sum(len(line) for line in special._PRODUCT_MEMO.values())

    special.clear_caches()
    first = scan()
    known = nodes()
    runs = []
    kernel = special._zeta_em_run
    monkeypatch.setattr(special, "_zeta_em_run", lambda *a: runs.append(a) or kernel(*a))
    second = scan()
    assert runs == [] and nodes() == known
    assert [(r.lhs, r.rhs) for r in second] == [(r.lhs, r.rhs) for r in first]


def _gamma_cos_nodes(g, ctx):
    with ctx.scoped():
        f = VerticalProduct(ctx, gamma_power=g, cos_power=1)
        return fixed_to_mpc(f, mpf(5) / 2, 0, 1, 16, mpf(1) / 8)


def _line_at(h0):
    # the same VerticalProduct line read through quadratures whose node
    # grids h0/2^_LINE_REFINE_LIMIT differ: node n is a different t on each
    ctx = with_precision(15)
    with ctx.scoped():
        f = VerticalProduct(ctx, gamma_power=1, neg_s_base=3)
        st = mellin.QuadratureSettings(c=mpf(2), h0=h0)
        return mellin.line_integral(f, st, ctx)


@pytest.mark.parametrize("first,second", [
    (lambda: mellin.psi_kernel(1, mpf(3), with_precision(50)),
     lambda: mellin.psi_kernel(2, mpf(3), with_precision(50))),
    (lambda: series_L(2, 1, mpf(5), with_precision(30)),
     lambda: series_L(2, 1, mpf(5), with_precision(50))),
    (lambda: _gamma_cos_nodes(1, with_precision(50)),
     lambda: _gamma_cos_nodes(2, with_precision(50))),
    (lambda: _line_at(mpf(1) / 8), lambda: _line_at(mpf(1) / 32)),
], ids=["psi-kernel-k", "fold-digits", "gamma-power", "grid"])
def test_product_memo_separates_lines(first, second):
    # lines that differ in one key field must not share products
    special.clear_caches()
    cold = second()
    special.clear_caches()
    first()
    assert second() == cold


def test_clear_caches_empties_product_memo(ctx30):
    mellin.psi_kernel(2, mpf(3), ctx30)
    assert special._PRODUCT_MEMO
    special.clear_caches()
    assert not special._PRODUCT_MEMO
