"""The generalized Koshliakov function Psi_{rho,k}(x) and the weighted
divisor series over it: ``psi(k, rho, x, ctx, strategy="auto")`` returns a
``PsiValue`` (value, error estimate, the strategy that ran), and
``series_L(k, m, rho, ctx, strategy="fold")`` returns the series as an mpf.

Psi strategies:

* ``closed_form`` (k=1: 1/(e^{rho x}-1); k=2: Bessel-K0 pair sums),
* ``term_sum`` (sum of Meijer-G kernels, the literal series definition),
* ``inverse_mellin`` (single line integral with zeta^k folded in).

The weighted series sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n) is evaluated by
folding the divisor sum into the contour integral (one quadrature instead of
thousands); the explicit sum survives as a cross-check strategy for
k in {1, 2}. There it is one Dirichlet convolution: the kernel argument of
Psi's closed form depends only on N = j n, so it costs one kernel
(e^{-z} for k = 1, a Bessel-K0 pair for k = 2) per N, with the weights
d_k * (d_k n^{-(2m+1)}) from the divisor sieve.

Both folds integrate one Gamma-free ``mellin.VerticalProduct``,
``dual_product``. Every literal divisor series (Psi's k = 2 closed form,
``term_sum`` and the ``terms`` series) is one ``_kernel_sum``:
sum_N weight(N) kernel(z N), truncated by ``special.sum_until_negligible``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .hp import PrecisionContext
from . import special, mellin
from .mellin import VerticalProduct

__all__ = ["PsiValue", "psi", "series_L", "dual_product", "fold_line"]

PSI_STRATEGIES = ("auto", "inverse_mellin", "term_sum", "closed_form")


@dataclass(frozen=True)
class PsiValue:
    value: mpf
    error_estimate: mpf
    strategy: str


_TERMS_CAP = 100_000    # the most N the ``terms`` series sums before it gives up


# ---------------------------------------------------------------------------
# divisor tables and series weights, grown on demand by doubling

_DIV_CACHE: dict[int, tuple[int, ...]] = {}
_WEIGHT_CACHE: dict[tuple[int, int], list[int]] = {}   # (k, m) -> [A(0), A(1), ...]


def _table_size(upto: int) -> int:
    size = 256
    while size < upto:
        size *= 2
    return size


def divisor_counts(k: int, upto: int) -> tuple[int, ...]:
    """``special.divisor_sieve(k, N)`` for some N >= upto: d[n] = d_k(n)."""
    tab = _DIV_CACHE.get(k)
    if tab is None or len(tab) <= upto:
        tab = special.divisor_sieve(k, _table_size(upto))
        _DIV_CACHE[k] = tab
    return tab


def series_weights(k: int, m: int, upto: int) -> list[int]:
    """Ints A(N), N <= upto at least, with a(N) = A(N) / N^{e+}: the weights
    a = d_k * (d_k n^{-e}), e = 2m+1, e+ = max(e, 0), as one sum over
    N = n j. Then n^{-e} = n^{e+ - e} j^{e+} / N^{e+}, so
    A(N) = sum_{n j = N} d_k(n) d_k(j) n^{e+ - e} j^{e+}."""
    A = _WEIGHT_CACHE.get((k, m))
    if A is None or len(A) <= upto:
        size = _table_size(upto)
        e = 2 * m + 1
        ep = max(e, 0)
        d = divisor_counts(k, size)
        dj = [0] + [d[j] * j ** ep for j in range(1, size + 1)]
        A = [0] * (size + 1)
        for n in range(1, size + 1):
            wn = d[n] * n ** (ep - e)
            for j in range(1, size // n + 1):
                A[n * j] += wn * dj[j]
        _WEIGHT_CACHE[k, m] = A
    return A


def _kernel(k: int, ctx: PrecisionContext):
    """G_k with Psi_{rho,k}(x) = sum_j d_k(j) G_k(rho j x), k in {1, 2}:
    e^{-z}, and the Bessel pair 2 Re K0(2 e^{i pi/4} sqrt(z)) with
    e^{i pi/4} computed once."""
    if k == 1:
        return lambda z: mp.exp(-z)
    eps = mp.expjpi(mpf(1) / 4)
    return lambda z: 2 * special.bessel_k0(2 * eps * mp.sqrt(z), ctx).real


def _kernel_sum(weight, kernel, z, ctx, run: int, cap: int, what: str):
    """sum_{N >= 1} weight(N) kernel(z N) by ``special.sum_until_negligible``:
    (acc, last term, N)."""
    return special.sum_until_negligible(lambda N: weight(N) * kernel(z * N),
                                        ctx, run, cap, what)


# ---------------------------------------------------------------------------
# Psi

def psi(k: int, rho, x, ctx: PrecisionContext, strategy: str = "auto") -> PsiValue:
    """Evaluate Psi_{rho,k}(x); all strategies agree within 10^(-digits+8).
    Raises DomainError, before any work, for an unknown strategy, k < 1,
    rho or x not positive, and ``closed_form`` with k > 2."""
    if strategy not in PSI_STRATEGIES:
        raise special.DomainError(f"unknown strategy {strategy!r}")
    if k < 1:
        raise special.DomainError("k must be a positive integer")
    with ctx.scoped():
        rho = mpf(rho)
        x = mpf(x)
        if not rho > 0 or not x > 0:
            raise special.DomainError("rho and x must be positive")
        if strategy == "closed_form" and k > 2:
            raise special.DomainError("closed_form is only available for k in {1, 2}")
        if strategy == "auto":
            strategy = "closed_form" if k <= 2 else "inverse_mellin"
        if strategy == "closed_form":
            return _psi_closed(k, rho, x, ctx)
        if strategy == "term_sum":
            return _psi_term_sum(k, rho, x, ctx)
        return _psi_inverse_mellin(k, rho, x, ctx)


def _psi_closed(k, rho, x, ctx) -> PsiValue:
    if k == 1:
        v = 1 / mp.expm1(rho * x)
        return PsiValue(value=v, error_estimate=abs(v) * mpf(10) ** (-ctx.working_dps),
                        strategy="closed_form")
    acc, last, _ = _kernel_sum(lambda j: divisor_counts(2, j)[j], _kernel(2, ctx), rho * x,
                               ctx, 3, 10 ** 6, "Bessel series for Psi (k=2)")
    return PsiValue(value=acc, error_estimate=abs(last), strategy="closed_form")


def _psi_term_sum(k, rho, x, ctx) -> PsiValue:
    acc, last, _ = _kernel_sum(lambda j: divisor_counts(k, j)[j],
                               lambda z: mellin.psi_kernel(k, z, ctx), rho * x,
                               ctx, 3, 10 ** 5, "kernel series for Psi")
    return PsiValue(value=acc, error_estimate=abs(last), strategy="term_sum")


def _psi_inverse_mellin(k, rho, x, ctx) -> PsiValue:
    """(1/2 pi i) times the integral over Re(s) = 5/2 of
    Gamma^k(s) zeta^k(s) cos^{k-1}(pi s/2) (rho x)^{-s}, as 2^-k times the
    integral of its Gamma-free form ``dual_product(k, rho x)``."""
    tr: list = []
    v = mellin.line_integral(dual_product(k, rho * x, ctx), mellin.line_settings(mpf(5) / 2),
                             ctx, trace=tr)
    # line_integral returns only on a level that carries an estimate
    est = mpf(tr[-1]["estimate"])
    return PsiValue(value=mp.ldexp(v, -k), error_estimate=mp.ldexp(est, -k),
                    strategy="inverse_mellin")


# ---------------------------------------------------------------------------
# weighted divisor series

def dual_product(k: int, rho, ctx: PrecisionContext, m: int | None = None) -> VerticalProduct:
    """zeta^k(2m+1+s) zeta^k(1-s) cos^{-1}(pi s/2) (rho/(2 pi)^k)^{-s}, with
    no zeta^k(2m+1+s) when m is None. By the functional equation
    (DLMF 25.4.1), Gamma(s) zeta(s) cos(pi s/2) = zeta(1-s) (2 pi)^s / 2, so
    2^-k times this product is Gamma^k(s) zeta^k(s) cos^{k-1}(pi s/2)
    rho^{-s} (times zeta^k(2m+1+s)): the integrand of the divisor fold and
    of Psi's inverse Mellin line, with no Gamma. Its zeta factors share one
    vertical run, at the abscissas c + 2m + 1 and 1 - c."""
    with ctx.scoped():
        factors = ([] if m is None else [(2 * m + 1, 1, k)]) + [(1, -1, k)]
        return VerticalProduct(ctx, zeta_factors=factors, cos_power=-1,
                               neg_s_base=mpf(rho) / (2 * mp.pi) ** k)


def fold_line(m: int) -> tuple[float, frozenset[float]]:
    """The abscissa c = max(1, -2m) + 3/2 of the folded line of weight
    n^{-(2m+1)}, right of both zeta poles (s = 1 and s = -2m), and the
    abscissas {c + 2m + 1, 1 - c} of the zeta runs of its Gamma-free
    product (``dual_product``). Half-integers, so the floats are exact; the
    zeta runs of a line are memoized per abscissa, so lines with one
    abscissa set share them."""
    c = max(1, -2 * m) + 1.5
    return c, frozenset((c + 2 * m + 1, 1 - c))


def series_L(k: int, m: int, rho, ctx: PrecisionContext, strategy: str = "fold") -> mpf:
    """sum_n d_k(n) n^{-(2m+1)} Psi_{rho,k}(n); m = 0 is the n^{-1} series
    of the eta-type identity. Raises DomainError, before any work, for
    k < 1 and rho not positive.

    ``fold`` turns the divisor sum into zeta^k(2m+1+s) inside one line
    integral (valid for Re(s) above both 1 and -2m) of
    Gamma^k(s) zeta^k(s) zeta^k(2m+1+s) cos^{k-1}(pi s/2) rho^{-s}, taken
    as 2^-k times the integral of its Gamma-free form ``dual_product``.
    ``terms`` sums the series literally (``_terms_series``) and is kept as
    an oracle, for k in {1, 2} only (raises DomainError otherwise).
    """
    if k < 1:
        raise special.DomainError("k must be a positive integer")
    with ctx.scoped():
        rho = mpf(rho)
        if not rho > 0:
            raise special.DomainError("rho must be positive")
        if strategy not in ("fold", "terms"):
            raise special.DomainError(f"unknown series strategy {strategy!r}")
        if strategy == "terms":
            if k > 2:
                raise special.DomainError("the terms strategy is only available for k in {1, 2}")
            return _terms_series(k, m, rho, ctx, _TERMS_CAP)[0]
        settings = mellin.line_settings(fold_line(m)[0])
        v = mellin.line_integral(dual_product(k, rho, ctx, m), settings, ctx)
        return mp.ldexp(v, -k)


def _terms_series(k: int, m: int, rho, ctx: PrecisionContext, cap: int):
    """(sum, N): the ``terms`` series of ``series_L``, k in {1, 2}, summed
    to its N-th term, N <= cap. Psi's kernel argument rho j n depends on
    N = j n alone, so the double sum is sum_N a(N) G_k(rho N) with the
    Dirichlet convolution a = d_k * (d_k n^{-(2m+1)}), one kernel per N. At
    k = 1 it is the sigma-form Lambert series
    sum_N sigma_{-(2m+1)}(N) e^{-rho N}. Raises ArithmeticError when cap
    terms do not reach the stop; call inside the caller's precision scope."""
    ep = max(2 * m + 1, 0)
    acc, _, N = _kernel_sum(lambda N: series_weights(k, m, N)[N] * mp.power(N, -ep),
                            _kernel(k, ctx), rho, ctx, 5, cap, "weighted series")
    return acc, N
