"""The generalized Koshliakov function Psi_{rho,k}(x) and the weighted
divisor series over it.

Psi strategies:

* ``closed_form`` (k=1: 1/(e^{rho x}-1); k=2: Bessel-K0 pair sums),
* ``term_sum`` (sum of Meijer-G kernels, the literal series definition),
* ``inverse_mellin`` (single line integral with zeta^k folded in).

The weighted series sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n) is evaluated by
folding the divisor sum into the contour integral (one quadrature instead of
thousands); the explicit n-sum survives as a cross-check strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .hp import PrecisionContext
from . import special, mellin

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
# vertical-line integrand shared by every fold in the package

class VerticalProduct:
    """prod_i zeta(a_i + eps_i s)^{k_i} * Gamma(s)^g * cos(pi s/2)^p * base^{-s}
    evaluated on equispaced nodes of a vertical line.

    Zeta factors ride the memoized vertical-run evaluator; Gamma nodes hit the
    scalar memo; cos and base^{-s} advance by one multiplication per node.
    """

    def __init__(self, ctx, zeta_factors=(), gamma_power=0, cos_power=0,
                 neg_s_base=1, prefactor=1):
        self.ctx = ctx
        self.zeta_factors = tuple(zeta_factors)   # (shift a, eps, power)
        self.gamma_power = gamma_power
        self.cos_power = cos_power
        with ctx.scoped():
            self.ln_base = mp.log(mpf(neg_s_base))
            self.prefactor = mpc(prefactor)

    def eval_vertical(self, c, t0, dt, count):
        ctx = self.ctx
        with ctx.scoped():
            vals = [self.prefactor] * count
            for (a, eps, power) in self.zeta_factors:
                run = special.zeta_vertical_run(a + eps * c, eps * t0, eps * dt,
                                                count, ctx)
                for u in range(count):
                    vals[u] *= run[u] ** power
            if self.gamma_power:
                g = self.gamma_power
                for u in range(count):
                    s = mpc(c, t0 + u * dt)
                    vals[u] *= special.gamma(s, ctx) ** g
            if self.cos_power:
                # cos(pi s/2) = cos(pi c/2) cosh(pi t/2) - i sin(pi c/2) sinh(pi t/2)
                p = self.cos_power
                cc = mp.cospi(c / 2)
                ss = mp.sinpi(c / 2)
                e = mp.exp(mp.pi * t0 / 2)
                estep = mp.exp(mp.pi * dt / 2)
                half = mpf(1) / 2
                for u in range(count):
                    ei = 1 / e
                    cosv = mpc(cc * (e + ei) * half, -ss * (e - ei) * half)
                    vals[u] *= cosv ** p if p > 0 else 1 / cosv
                    e = e * estep
            if self.ln_base != 0:
                zp = mp.exp(-mpc(c, t0) * self.ln_base)
                zstep = mp.exp(-mpc(0, dt) * self.ln_base)
                for u in range(count):
                    vals[u] *= zp
                    zp = zp * zstep
            return vals


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
    thresh = ctx.tolerance(-5)
    acc = mpf(0)
    last = mpf(0)
    consec = 0
    j = 1
    while True:
        tab = divisor_counts(2, j)
        term = tab.d(j) * 2 * special.bessel_k0(2 * eps * mp.sqrt(rho * j * x), ctx).real
        acc += term
        last = abs(term)
        if last < thresh * max(1, abs(acc)):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
        j += 1
        if j > 10 ** 6:
            raise ArithmeticError("Bessel series for Psi (k=2) stalled")
    return PsiValue(value=acc, error_estimate=last, strategy="closed_form")


def _psi_term_sum(k, rho, x, ctx) -> PsiValue:
    thresh = ctx.tolerance(-5)
    acc = mpf(0)
    last = mpf(0)
    consec = 0
    j = 1
    while True:
        tab = divisor_counts(k, j)
        term = tab.d(j) * mellin.psi_kernel(k, rho * j * x, ctx)
        acc += term
        last = abs(term)
        if last < thresh * max(1, abs(acc)):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
        j += 1
        if j > 10 ** 5:
            raise ArithmeticError("kernel series for Psi stalled")
    return PsiValue(value=acc, error_estimate=last, strategy="term_sum")


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
    series literally with adaptive truncation and is kept as an oracle.
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
        thresh = ctx.tolerance(-5)
        acc = mpf(0)
        consec = 0
        n = 1
        while n <= req.N_max:
            tab = divisor_counts(k, n)
            pv = psi(PsiRequest(rho=rho, k=k, x=mpf(n)), ctx)
            term = tab.d(n) * mp.power(n, -(2 * m + 1)) * pv.value
            acc += term
            if abs(term) < thresh * max(1, abs(acc)):
                consec += 1
                if consec >= 5:
                    return SeriesValue(value=acc, terms_used=n, strategy="terms")
            else:
                consec = 0
            n += 1
        raise ArithmeticError(
            f"series did not converge within N_max={req.N_max} terms")
