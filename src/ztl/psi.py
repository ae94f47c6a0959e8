"""The generalized Koshliakov function Psi_{rho,k}(x) and the weighted
divisor series over it.

Psi strategies:

* ``closed_form`` (k=1: 1/(e^{rho x}-1); k=2: Bessel-K0 pair sums),
* ``term_sum`` (sum of Meijer-G kernels, the literal series definition),
* ``inverse_mellin`` (single line integral with zeta^k folded in).

The weighted series sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n) is evaluated by
folding the divisor sum into the contour integral (one quadrature instead of
thousands); the explicit sum survives as a cross-check strategy. For k = 2
that sum is one Dirichlet convolution: the Bessel argument of Psi's closed
form depends only on N = j n, so it costs one K0 per N, with the weights
d * (d n^{-(2m+1)}) from the divisor sieve.

Both folds integrate ``mellin.VerticalProduct``; the Bessel-pair, kernel and
explicit sums truncate through ``special.sum_until_negligible``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .hp import PrecisionContext
from . import special, mellin
from .mellin import VerticalProduct

__all__ = ["PsiRequest", "PsiValue", "SeriesRequest", "SeriesValue",
           "psi", "series_L"]

PSI_STRATEGIES = ("auto", "inverse_mellin", "term_sum", "closed_form")


@dataclass(frozen=True)
class PsiRequest:
    rho: mpf
    k: int
    x: mpf
    strategy: str = "auto"

    def __post_init__(self):
        if self.strategy not in PSI_STRATEGIES:
            raise special.DomainError(f"unknown strategy {self.strategy!r}")
        if self.k < 1:
            raise special.DomainError("k must be a positive integer")
        if not mpf(self.rho) > 0 or not mpf(self.x) > 0:
            raise special.DomainError("rho and x must be positive")
        if self.strategy == "closed_form" and self.k > 2:
            raise special.DomainError("closed_form is only available for k in {1, 2}")


@dataclass(frozen=True)
class PsiValue:
    value: mpf
    error_estimate: mpf
    strategy: str


@dataclass(frozen=True)
class SeriesRequest:
    """Weighted series sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n); m=0 is the
    n^{-1} series of the eta-type identity."""

    rho: mpf
    k: int
    m: int
    N_max: int = 100_000

    def __post_init__(self):
        if self.k < 1:
            raise special.DomainError("k must be a positive integer")
        if not mpf(self.rho) > 0:
            raise special.DomainError("rho must be positive")


@dataclass(frozen=True)
class SeriesValue:
    value: mpf
    terms_used: int | None
    strategy: str


# ---------------------------------------------------------------------------
# divisor tables, grown on demand and shared per k

_DIV_CACHE: dict[int, special.DivisorTable] = {}


def divisor_counts(k: int, upto: int) -> special.DivisorTable:
    tab = _DIV_CACHE.get(k)
    if tab is None or len(tab) < upto:
        size = 256
        while size < upto:
            size *= 2
        tab = special.divisor_sieve(k, size)
        _DIV_CACHE[k] = tab
    return tab


# m -> [A(0), A(1), ...], exact ints of the k = 2 series weights; grown on
# demand like the divisor tables
_WEIGHT_CACHE: dict[int, list[int]] = {}


def series_weights(m: int, upto: int) -> list[int]:
    """Ints A(N), N <= upto at least, with a(N) = A(N) / N^{e+}: the k = 2
    weights a = d * (d n^{-e}), e = 2m+1, e+ = max(e, 0), as one sum over
    N = n j. Then n^{-e} = n^{e+ - e} j^{e+} / N^{e+}, so
    A(N) = sum_{n j = N} d(n) d(j) n^{e+ - e} j^{e+}."""
    A = _WEIGHT_CACHE.get(m)
    if A is None or len(A) <= upto:
        size = 256
        while size < upto:
            size *= 2
        e = 2 * m + 1
        ep = max(e, 0)
        d = divisor_counts(2, size)
        dj = [0] + [d.d(j) * j ** ep for j in range(1, size + 1)]
        A = [0] * (size + 1)
        for n in range(1, size + 1):
            wn = d.d(n) * n ** (ep - e)
            for j in range(1, size // n + 1):
                A[n * j] += wn * dj[j]
        _WEIGHT_CACHE[m] = A
    return A


# ---------------------------------------------------------------------------
# Psi

def psi(req: PsiRequest, ctx: PrecisionContext) -> PsiValue:
    """Evaluate Psi_{rho,k}(x); all strategies agree within 10^(-digits+8)."""
    strategy = req.strategy
    if strategy == "auto":
        strategy = "closed_form" if req.k <= 2 else "inverse_mellin"
    with ctx.scoped():
        rho = mpf(req.rho)
        x = mpf(req.x)
        if strategy == "closed_form":
            return _psi_closed(req.k, rho, x, ctx)
        if strategy == "term_sum":
            return _psi_term_sum(req.k, rho, x, ctx)
        return _psi_inverse_mellin(req.k, rho, x, ctx)


def _psi_closed(k, rho, x, ctx) -> PsiValue:
    if k == 1:
        v = 1 / mp.expm1(rho * x)
        return PsiValue(value=v, error_estimate=abs(v) * mpf(10) ** (-ctx.working_dps),
                        strategy="closed_form")
    # k=2: sum_j d(j) [K0(2 eps sqrt(rho j x)) + conjugate]
    eps = mp.expjpi(mpf(1) / 4)

    def term(j):
        return (divisor_counts(2, j).d(j) * 2
                * special.bessel_k0(2 * eps * mp.sqrt(rho * j * x), ctx).real)

    acc, last, _ = special.sum_until_negligible(term, ctx, 3, 10 ** 6,
                                                "Bessel series for Psi (k=2)")
    return PsiValue(value=acc, error_estimate=abs(last), strategy="closed_form")


def _psi_term_sum(k, rho, x, ctx) -> PsiValue:
    acc, last, _ = special.sum_until_negligible(
        lambda j: divisor_counts(k, j).d(j) * mellin.psi_kernel(k, rho * j * x, ctx),
        ctx, 3, 10 ** 5, "kernel series for Psi")
    return PsiValue(value=acc, error_estimate=abs(last), strategy="term_sum")


def _psi_inverse_mellin(k, rho, x, ctx) -> PsiValue:
    f = VerticalProduct(ctx, zeta_factors=[(0, 1, k)], gamma_power=k,
                        cos_power=k - 1, neg_s_base=rho * x)
    settings = mellin.line_settings(ctx, mpf(5) / 2, poly_power=2.0 * k)
    tr: list = []
    v = mellin.line_integral(f, settings, ctx, conj_symmetric=True, trace=tr)
    est = mpf(tr[-1]["estimate"]) if tr and tr[-1]["estimate"] else ctx.tolerance()
    return PsiValue(value=v, error_estimate=est, strategy="inverse_mellin")


# ---------------------------------------------------------------------------
# weighted divisor series

def series_L(req: SeriesRequest, ctx: PrecisionContext,
             strategy: str = "fold") -> SeriesValue:
    """sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n).

    ``fold`` turns the divisor sum into zeta^k(2m+1+s) inside one line
    integral (valid for Re(s) above both 1 and -2m); ``terms`` sums the
    series literally with adaptive truncation and is kept as an oracle. For
    k = 2, ``terms`` sums sum_N a(N) 2 Re K0(2 e^{i pi/4} sqrt(rho N)) with
    a = d * (d n^{-(2m+1)}), one K0 per N, and ``terms_used`` is that N; for
    other k it sums Psi per n.
    """
    if strategy not in ("fold", "terms"):
        raise special.DomainError(f"unknown series strategy {strategy!r}")
    with ctx.scoped():
        rho = mpf(req.rho)
        k, m = req.k, req.m
        if strategy == "fold":
            c = mpf(max(1, -2 * m)) + mpf(3) / 2
            f = VerticalProduct(ctx, zeta_factors=[(0, 1, k), (2 * m + 1, 1, k)],
                                gamma_power=k, cos_power=k - 1, neg_s_base=rho)
            settings = mellin.line_settings(ctx, c, poly_power=float(k) * (float(c) - 0.5))
            v = mellin.line_integral(f, settings, ctx, conj_symmetric=True)
            return SeriesValue(value=v, terms_used=None, strategy="fold")

        if k == 2:
            return _series_k2_terms(rho, m, req.N_max, ctx)

        def term(n):
            pv = psi(PsiRequest(rho=rho, k=k, x=mpf(n)), ctx)
            return divisor_counts(k, n).d(n) * mp.power(n, -(2 * m + 1)) * pv.value

        acc, _, n = special.sum_until_negligible(term, ctx, 5, req.N_max, "weighted series")
        return SeriesValue(value=acc, terms_used=n, strategy="terms")


def _series_k2_terms(rho, m, N_max, ctx) -> SeriesValue:
    # sum_n d(n) n^{-(2m+1)} sum_j d(j) 2 Re K0(2 e^{i pi/4} sqrt(rho j n)):
    # the Bessel argument depends on N = j n only, so the double sum is one
    # sum over N with weight a(N), one K0 per N
    eps = mp.expjpi(mpf(1) / 4)
    ep = max(2 * m + 1, 0)

    def term(N):
        return (series_weights(m, N)[N] * mp.power(N, -ep)
                * 2 * special.bessel_k0(2 * eps * mp.sqrt(rho * N), ctx).real)

    acc, _, N = special.sum_until_negligible(term, ctx, 5, N_max, "weighted series")
    return SeriesValue(value=acc, terms_used=N, strategy="terms")
