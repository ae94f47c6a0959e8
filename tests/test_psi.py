"""Psi strategies and the weighted divisor series."""

import pytest
from mpmath import mp, mpf

from conftest import fixed_to_mpc
from ztl import mellin, special, with_precision
from ztl.psi import PsiRequest, SeriesRequest, VerticalProduct, dual_product, psi, series_L


def test_request_validation():
    with pytest.raises(special.DomainError):
        PsiRequest(rho=1, k=3, x=1, strategy="closed_form")
    with pytest.raises(special.DomainError):
        PsiRequest(rho=-1, k=1, x=1)
    with pytest.raises(special.DomainError):
        PsiRequest(rho=1, k=1, x=1, strategy="nope")
    with pytest.raises(special.DomainError):
        SeriesRequest(rho=0, k=1, m=1)


def test_k1_closed_form_is_geometric(ctx50):
    with ctx50.scoped():
        v = psi(PsiRequest(rho=2 * mp.pi, k=1, x=1), ctx50)
        assert v.strategy == "closed_form"
        assert abs(v.value - 1 / mp.expm1(2 * mp.pi)) < ctx50.tolerance()


def test_k1_geometric_tail(ctx50):
    with ctx50.scoped():
        v = psi(PsiRequest(rho=mpf(200), k=1, x=1), ctx50)
        assert 0 < v.value < mp.exp(-199)


def test_auto_strategy_selection(ctx30):
    with ctx30.scoped():
        assert psi(PsiRequest(rho=3, k=2, x=1), ctx30).strategy == "closed_form"
        assert psi(PsiRequest(rho=3, k=3, x=1), ctx30).strategy == "inverse_mellin"


def test_k2_equals_half_omega(ctx50):
    # with rho = 4: sum d(j) [K0(4 eps sqrt(j)) + conj] = Psi_{4,2}(1)
    with ctx50.scoped():
        eps = mp.expjpi(mpf(1) / 4)
        tab = special.divisor_sieve(2, 4096)
        acc = mpf(0)
        j = 1
        while True:
            term = tab.d(j) * 2 * special.bessel_k0(4 * eps * mp.sqrt(j), ctx50).real
            acc += term
            if abs(term) < ctx50.tolerance(-5):
                break
            j += 1
            assert j <= len(tab)
        v = psi(PsiRequest(rho=4, k=2, x=1), ctx50)
        assert abs(v.value - acc) < ctx50.tolerance(5)


def test_term_sum_matches_closed_form_k1(ctx30):
    with ctx30.scoped():
        a = psi(PsiRequest(rho=12, k=1, x=1, strategy="term_sum"), ctx30)
        b = psi(PsiRequest(rho=12, k=1, x=1, strategy="closed_form"), ctx30)
        assert abs(a.value - b.value) < ctx30.tolerance(8)


def test_term_sum_matches_inverse_mellin_k3(ctx30):
    # decay ~ exp(-1.5 z^(1/3)) is slow, so push rho up to keep terms few
    with ctx30.scoped():
        a = psi(PsiRequest(rho=600, k=3, x=1, strategy="term_sum"), ctx30)
        b = psi(PsiRequest(rho=600, k=3, x=1, strategy="inverse_mellin"), ctx30)
        assert abs(a.value - b.value) < ctx30.tolerance(8)


# ---------------------------------------------------------------------------
# weighted series


def test_series_k1_m1_equals_lambert(ctx50):
    # the terms strategy at k = 1 is the sigma form sum sigma_-e(N) e^(-rho N)
    with ctx50.scoped():
        for m, strategy in ((1, "fold"), (1, "terms"), (0, "terms")):
            L = series_L(SeriesRequest(rho=2 * mp.pi, k=1, m=m), ctx50, strategy=strategy)
            lam = special.lambert_series(-2 * m - 1, 2 * mp.pi, ctx50)
            assert abs(L.value - lam) < ctx50.tolerance(5), (m, strategy)


def test_series_k1_negative_m_equals_lambert(ctx50):
    with ctx50.scoped():
        for strategy in ("fold", "terms"):
            L = series_L(SeriesRequest(rho=2 * mp.pi, k=1, m=-2), ctx50, strategy=strategy)
            lam = special.lambert_series(3, 2 * mp.pi, ctx50)
            assert abs(L.value - lam) < ctx50.tolerance(5), strategy


def test_series_terms_strategy_reports_count(ctx30):
    with ctx30.scoped():
        L = series_L(SeriesRequest(rho=2 * mp.pi, k=1, m=1), ctx30, strategy="terms")
        assert L.terms_used is not None and L.terms_used >= 6
        F = series_L(SeriesRequest(rho=2 * mp.pi, k=1, m=1), ctx30)
        assert abs(L.value - F.value) < ctx30.tolerance(8)


def test_series_k2_fold_vs_bessel_double_sum(ctx30):
    # brute-force the double sum over (n, j) with Bessel kernels
    with ctx30.scoped():
        rho = 4 * mp.pi ** 2
        L = series_L(SeriesRequest(rho=rho, k=2, m=1), ctx30)
        eps = mp.expjpi(mpf(1) / 4)
        tab = special.divisor_sieve(2, 50)
        acc = mpf(0)
        for n in range(1, 51):
            for j in range(1, 51):
                acc += (tab.d(n) * tab.d(j) * mp.power(n, -3)
                        * 2 * special.bessel_k0(2 * eps * mp.sqrt(rho * j * n), ctx30).real)
        assert abs(L.value - acc) < ctx30.tolerance(8)


def test_series_terms_rejects_k3_before_summing(ctx30, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed a k = 3 terms series")

    monkeypatch.setattr(special, "sum_until_negligible", no_sum)
    with pytest.raises(special.DomainError):
        series_L(SeriesRequest(rho=600, k=3, m=-1), ctx30, strategy="terms")


def test_series_nmax_exhaustion(ctx30):
    with pytest.raises(ArithmeticError):
        series_L(SeriesRequest(rho=mpf(1) / 100, k=1, m=-3, N_max=4), ctx30,
                 strategy="terms")


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
        assert vals[0] == series_L(SeriesRequest(rho=mpf(rho), k=k, m=m), ctx50).value
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
        return series_L(SeriesRequest(rho=mpf(rho), k=k, m=m), ctx50).value

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
    (lambda: series_L(SeriesRequest(rho=mpf(5), k=2, m=1), with_precision(30)).value,
     lambda: series_L(SeriesRequest(rho=mpf(5), k=2, m=1), with_precision(50)).value),
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
