"""Left- and right-hand sides of every transformation identity, assembled
from the series, derivative and Bernoulli-block building blocks, with
verification reports.

One body, ``_cell``, runs every verification; each ``verify_*`` supplies
only its two sides. Main, ramanujan and dixit share one balanced form
(``_balanced``); eisenstein and quasimodular are main at -m with the series
on the left (``_series_left``); lerch is main at alpha = beta = pi; eta has
sides of its own. Fold-line series and derivative terms come from
``_fold_bracket``.

Parameter convention: alpha = pi e^theta, beta = pi e^-theta, so the
constraint alpha*beta = pi^2 holds by construction and never drifts.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .hp import PrecisionContext
from . import special, mellin
from .psi import dual_product, series_L

__all__ = [
    "VerificationReport", "Identity", "IDENTITIES",
    "IDENTITY_NAMES", "check_params", "check_theta", "alpha_beta",
    "pass_tolerance", "derivative_term", "bernoulli_block",
    "verify_main", "verify_ramanujan_classical", "verify_dixit",
    "verify_eisenstein", "verify_quasimodular", "verify_eta",
    "verify_lerch_general", "verify", "lambda_line_value",
    "self_duality_check", "residue_assembly_check",
]

CSV_HEADER = "identity,k,m,theta,lhs,rhs,abs_res,rel_res,digits,seconds"


@dataclass(frozen=True)
class Identity:
    """One row of ``IDENTITIES``: ``run(k, m, theta, ctx)``, which ignores
    a fixed k and the axes the identity lacks; ``line_m(m)``, the m of the
    fold line (``psi.fold_line``) its series sit on, None for an identity
    that makes no Mellin line; ``m_rule``, the identity's own condition on m
    beside m != 0; and the theta ``verify`` uses when none is given."""

    run: Callable
    line_m: Callable[[int], int] | None = None
    fixed_k: int | None = None
    has_m: bool = True
    has_theta: bool = True
    m_rule: Callable[[int], bool] = lambda m: True
    m_message: str = ""
    default_theta: str = "0"

    def default_m(self) -> int:
        """The smallest positive m the identity accepts."""
        return next(m for m in itertools.count(1) if self.m_rule(m))


# Each lambda looks its verifier up when called, so a rebound module name
# (a tracer's wrapper, a test double) is the one that runs.
IDENTITIES = {
    "main": Identity(lambda k, m, theta, ctx: verify_main(k, m, theta, ctx), line_m=lambda m: m),
    "ramanujan": Identity(lambda k, m, theta, ctx: verify_ramanujan_classical(m, theta, ctx),
                          fixed_k=1),
    "dixit": Identity(lambda k, m, theta, ctx: verify_dixit(m, theta, ctx), fixed_k=2),
    # theta = 0 with the default m = 2 would check nothing (verify_eisenstein)
    "eisenstein": Identity(lambda k, m, theta, ctx: verify_eisenstein(k, m, theta, ctx),
                           line_m=lambda m: -m,
                           m_rule=lambda m: m > 1, m_message="eisenstein requires m > 1",
                           default_theta="0.5"),
    "quasimodular": Identity(lambda k, m, theta, ctx: verify_quasimodular(k, theta, ctx),
                             line_m=lambda m: -1, has_m=False),
    # theta = 0 would check nothing (verify_eta)
    "eta": Identity(lambda k, m, theta, ctx: verify_eta(k, theta, ctx),
                    line_m=lambda m: 0, has_m=False, default_theta="0.5"),
    "lerch": Identity(lambda k, m, theta, ctx: verify_lerch_general(k, m, ctx),
                      line_m=lambda m: m, has_theta=False, m_rule=lambda m: m % 2 == 1,
                      m_message="lerch requires odd m"),
}
IDENTITY_NAMES = tuple(IDENTITIES)


def check_params(identity: str, k: int, m: int | None) -> None:
    """Raise DomainError unless ``identity`` accepts k and m; m is not
    looked at for an identity without an m parameter."""
    row = IDENTITIES.get(identity)
    if row is None:
        raise special.DomainError(f"unknown identity {identity!r}")
    if k < 1:
        raise special.DomainError("k must be a positive integer")
    if row.has_m:
        if not row.m_rule(m):
            raise special.DomainError(row.m_message)
        if m == 0:
            raise special.DomainError("m must be nonzero")


def check_theta(theta) -> None:
    """Raise DomainError unless theta (a number, its string or None) is finite."""
    if theta is not None and not mp.isfinite(mpf(theta)):
        raise special.DomainError(f"theta must be finite, got {theta}")


def alpha_beta(theta, ctx: PrecisionContext):
    """(alpha, beta) = (pi e^theta, pi e^-theta)."""
    with ctx.scoped():
        e = mp.exp(mpf(theta))
        return mp.pi * e, mp.pi / e


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    k: int
    m: int | None
    theta: str
    digits: int
    lhs: mpf
    rhs: mpf
    abs_residual: mpf
    rel_residual: mpf
    tolerance: mpf
    passed: bool
    elapsed: float
    # False when the two sides are one expression minus itself by
    # construction: the cell checks nothing, and neither passes nor fails
    checked: bool = True

    def csv_row(self, timing: bool = False) -> str:
        ndig = self.digits
        seconds = f"{self.elapsed:.3f}" if timing else "0"
        return ",".join([
            self.identity, str(self.k),
            "" if self.m is None else str(self.m), self.theta,
            mp.nstr(self.lhs, ndig), mp.nstr(self.rhs, ndig),
            mp.nstr(self.abs_residual, 3), mp.nstr(self.rel_residual, 3),
            str(ndig), seconds,
        ])

    def json_dict(self, timing: bool = False) -> dict:
        d = {
            "identity": self.identity, "k": self.k, "m": self.m,
            "theta": self.theta, "digits": self.digits,
            "lhs": mp.nstr(self.lhs, self.digits),
            "rhs": mp.nstr(self.rhs, self.digits),
            "abs_res": mp.nstr(self.abs_residual, 3),
            "rel_res": mp.nstr(self.rel_residual, 3),
            "passed": self.passed,
        }
        if not self.checked:
            d["checked"] = False
        d["seconds"] = round(self.elapsed, 3) if timing else 0
        return d

    def __str__(self):
        status = "NO CHECK" if not self.checked else "PASS" if self.passed else "FAIL"
        return (f"{status} {self.identity} k={self.k} m={self.m} theta={self.theta}: "
                f"lhs={mp.nstr(self.lhs, 20)} rhs={mp.nstr(self.rhs, 20)} "
                f"rel_residual={mp.nstr(self.rel_residual, 3)} "
                f"(tol {mp.nstr(self.tolerance, 3)}, {self.elapsed:.2f}s)")


def pass_tolerance(ctx: PrecisionContext) -> mpf:
    """10^-(digits-20) at digits >= 40, 10^-(digits-10) below; covers
    quadrature truncation and derivative conditioning for k <= 4."""
    slack = 20 if ctx.digits >= 40 else 10
    return ctx.tolerance(slack)


# ---------------------------------------------------------------------------
# building blocks

def _top_coefficient(jet: list, x):
    """The last Taylor coefficient of jet(s) exp(x s): a dot product with
    the jet x^r / r! of exp(x s)."""
    n = len(jet)
    e = special.series_exp([mpf(0), x] + [mpf(0)] * (n - 2))
    return mp.fsum(jet[r] * e[n - 1 - r] for r in range(n))


def _cos_jet(n: int) -> list:
    """Taylor coefficients of cos(pi s/2), r < n; the odd ones are exact zeros."""
    return [(-1) ** (r // 2) * (mp.pi / 2) ** r / mp.factorial(r) if r % 2 == 0 else mpf(0)
            for r in range(n)]


def _gamma_zeta_jet(k: int, n: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients of Gamma^k(1+s) zeta^k(s), r < n."""
    return special.series_mul(
        special.series_exp([k * c for c in special.log_gamma1_jet(n, ctx)]),
        special.series_pow(special.zeta_jet(0, n, ctx), k))


def _derivative_jet(k: int, m: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients 0..k-1 of the rho-free product
    zeta^k(2m+1+s) zeta^k(s) Gamma^k(1+s) cos^{k-1}(pi s/2), memoized per
    (k, m, precision) in special._JET_MEMO."""
    key = ("derivative", k, m, ctx.prec_bits)
    jet = special._JET_MEMO.get(key)
    if jet is None:
        with ctx.scoped():
            jet = special.series_mul(
                special.series_mul(special.series_pow(special.zeta_jet(2 * m + 1, k, ctx), k),
                                   _gamma_zeta_jet(k, k, ctx)),
                special.series_pow(_cos_jet(k), k - 1))
        special._JET_MEMO[key] = jet
    return jet


def derivative_term(k: int, m: int, rho, ctx: PrecisionContext):
    """(1/(k-1)!) d^{k-1}/ds^{k-1} of
    zeta^k(2m+1+s) zeta^k(s) Gamma^k(s+1) cos^{k-1}(pi s/2) rho^{-s}  at s=0,
    with rho the same argument handed to the weighted series: the
    (k-1)-th Taylor coefficient, a k-term dot product of the memoized
    rho-free jet with the jet of exp(-s ln rho)."""
    if m == 0:
        raise special.DomainError("m must be nonzero (s=0 would sit on a pole)")
    with ctx.scoped():
        rho = mpf(rho)
        if not rho > 0:
            raise special.DomainError("rho must be positive")
        return _top_coefficient(_derivative_jet(k, m, ctx), -mp.log(rho))


def bernoulli_block_coeffs(k: int, m: int) -> list[Fraction]:
    """Exact rational coefficients Q_j = (-1)^j B_{2m-2j+2}^k B_{2j}^k /
    ((2m-2j+2)!^k (2j)!^k), j = 0..m+1; empty for m <= -2."""
    if m <= -2:
        return []
    out = []
    for j in range(0, m + 2):
        num = (special.bernoulli_frac(2 * m - 2 * j + 2) ** k
               * special.bernoulli_frac(2 * j) ** k)
        den = (Fraction(math.factorial(2 * m - 2 * j + 2)) ** k
               * Fraction(math.factorial(2 * j)) ** k)
        out.append((-1) ** j * num / den)
    return out


def bernoulli_block(k: int, m: int, alpha, beta, ctx: PrecisionContext):
    """(-1)^{km+k+m} (pi/2)^{k-1} 2^{2km} sum_j Q_j alpha^{k(m+1-j)} beta^{kj}.

    The rational inner sum is evaluated exactly (as a polynomial in
    (beta/alpha)^k) and scaled by real powers only at the end. Empty sum for
    m <= -2; the single j=0 term survives at m = -1.
    """
    coeffs = bernoulli_block_coeffs(k, m)
    if not coeffs:
        return ctx.mpf(0)
    with ctx.scoped():
        alpha = mpf(alpha)
        beta = mpf(beta)
        x = (beta / alpha) ** k
        acc = mpf(0)
        for q in reversed(coeffs):
            acc = acc * x + mpf(q.numerator) / q.denominator
        sign = -1 if (k * m + k + m) % 2 else 1
        return (sign * (mp.pi / 2) ** (k - 1) * mpf(2) ** (2 * k * m)
                * alpha ** (k * (m + 1)) * acc)


def _neg_pow(base, m: int):
    # (-base)^(-m) for real base > 0: sign (-1)^m times base^(-m)
    s = -1 if m % 2 else 1
    return s * base ** (-m)


# ---------------------------------------------------------------------------
# the seven verifications: one body, ``_cell``, and each identity's two sides

def _cell(identity: str, k: int, m: int | None, theta, ctx: PrecisionContext,
          sides: Callable, checked: bool = True) -> VerificationReport:
    """Check the parameters, then time ``sides(alpha, beta)`` -> (lhs, rhs)
    under the context's precision (alpha = beta = pi when theta is None) and
    report; ``checked`` is False for a cell that compares nothing."""
    check_params(identity, k, m)
    check_theta(theta)
    t0 = time.perf_counter()
    with ctx.scoped():
        alpha, beta = alpha_beta(0 if theta is None else theta, ctx)
        lhs, rhs = sides(alpha, beta)
        abs_res = abs(lhs - rhs)
        rel_res = abs_res / max(abs(lhs), abs(rhs), mpf(1))
        tol = pass_tolerance(ctx)
        return VerificationReport(
            identity=identity, k=k, m=m,
            theta="" if theta is None else mp.nstr(mpf(theta), 12),
            digits=ctx.digits, lhs=lhs, rhs=rhs,
            abs_residual=abs_res, rel_residual=rel_res, tolerance=tol,
            passed=checked and bool(rel_res < tol), elapsed=time.perf_counter() - t0,
            checked=checked)


def _fold_bracket(k: int, m: int, r, ctx: PrecisionContext):
    """(L, D) at rho = (2r)^k on the fold line of m: the weighted series
    ``series_L`` and its derivative term."""
    rho = (2 * r) ** k
    return series_L(k, m, rho, ctx), derivative_term(k, m, rho, ctx)


def _balanced(k: int, m: int, alpha, beta, bracket: Callable, b: int, ctx: PrecisionContext):
    """(alpha^k)^-m X(alpha) against (-1)^m (beta^k)^-m X(beta) + b B(k, m),
    X = ``bracket``."""
    lhs = (alpha ** k) ** (-m) * bracket(alpha)
    rhs = (_neg_pow(beta ** k, m) * bracket(beta)
           + b * bernoulli_block(k, m, alpha, beta, ctx))
    return lhs, rhs


def _series_left(k: int, m: int, alpha, beta, ctx: PrecisionContext):
    """Main at -m with the series on the left: sa La - sb Lb against
    sa Da - sb Db + B(k, -m), sa = (alpha^k)^m, sb = (-beta^k)^m. B is empty
    for m > 1 and the constant -(pi/2)^{k-1} 2^{-2k} at m = 1."""
    La, Da = _fold_bracket(k, -m, alpha, ctx)
    Lb, Db = _fold_bracket(k, -m, beta, ctx)
    sa, sb = (alpha ** k) ** m, _neg_pow(beta ** k, -m)
    return (sa * La - sb * Lb,
            sa * Da - sb * Db + bernoulli_block(k, -m, alpha, beta, ctx))


def _checks_something(m: int, theta) -> bool:
    """False at theta = 0 with m even, where alpha = beta makes a cell
    compare nothing by construction: main, ramanujan and dixit then compare
    an expression with itself plus B(pi, pi), and each eisenstein side is
    one expression minus itself."""
    return m % 2 == 1 or mpf(theta) != 0


def verify_main(k: int, m: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """Transformation formula for the k-th power of odd zeta values, in the
    balanced form with X = L - D; no check at theta = 0 with m even
    (``_checks_something``)."""
    def bracket(r):
        L, D = _fold_bracket(k, m, r, ctx)
        return L - D

    return _cell("main", k, m, theta, ctx,
                 lambda alpha, beta: _balanced(k, m, alpha, beta, bracket, 1, ctx),
                 _checks_something(m, theta))


def verify_ramanujan_classical(m: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """The classical odd-zeta identity, evaluated through Lambert series
    only; fully independent of the Psi machinery. No check at theta = 0
    with m even (``_checks_something``)."""
    def sides(alpha, beta):
        z = special.zeta(2 * m + 1, ctx)
        return _balanced(1, m, alpha, beta,
                         lambda r: z / 2 + special.lambert_series(-2 * m - 1, 2 * r, ctx), 1, ctx)

    return _cell("ramanujan", 1, m, theta, ctx, sides, _checks_something(m, theta))


def verify_dixit(m: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """The squared-zeta transformation, evaluated literally: Bessel-pair sums
    for the Koshliakov function (leading factor 2), summed as one Dirichlet
    convolution over N = j n by ``series_L(strategy="terms")`` and never on a
    Mellin line; digamma-free log derivative of zeta from its Taylor jet,
    Euler's constant from the constants table. No check at theta = 0 with
    m even (``_checks_something``)."""
    def sides(alpha, beta):
        z = special.zeta(2 * m + 1, ctx)
        zj = special.zeta_jet(2 * m + 1, 2, ctx)
        zp_over_z = zj[1] / zj[0]

        def bracket(r):
            # sum_n d(n) n^-(2m+1) Omega_r(n) with Omega_r = 2 Psi_{(2r)^2, 2}
            om = 2 * series_L(2, m, (2 * r) ** 2, ctx, strategy="terms")
            return z ** 2 * (mp.euler + mp.log(r / mp.pi) - zp_over_z) + om

        return _balanced(2, m, alpha, beta, bracket, 2, ctx)

    return _cell("dixit", 2, m, theta, ctx, sides, _checks_something(m, theta))


def verify_eisenstein(k: int, m: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """Weight-2m Eisenstein-type transformation (m > 1): main at -m, where
    no Bernoulli block survives. At theta = 0 with m even, alpha = beta
    makes each side one expression minus itself: the report is marked as no
    check."""
    return _cell("eisenstein", k, m, theta, ctx,
                 lambda alpha, beta: _series_left(k, m, alpha, beta, ctx),
                 _checks_something(m, theta))


def verify_quasimodular(k: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """Weight-2 (quasi-modular) transformation: main at m = -1, whose
    Bernoulli block is the constant -(pi/2)^{k-1} 2^{-2k}."""
    return _cell("quasimodular", k, None, theta, ctx,
                 lambda alpha, beta: _series_left(k, 1, alpha, beta, ctx))


def _eta_jet(k: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients 0..2k-1 of the theta-free, even product
    g(s) = f(s) f(-s) cos^{2k-1}(pi s/2), f = Gamma^k(1+s) zeta^k(s),
    assembled from even coefficients alone with exact zeros in the odd
    places; memoized per (k, precision) in special._JET_MEMO."""
    key = ("eta", k, ctx.prec_bits)
    jet = special._JET_MEMO.get(key)
    if jet is None:
        n = 2 * k
        with ctx.scoped():
            f = _gamma_zeta_jet(k, n, ctx)
            # coefficient r of f(s) f(-s) is sum_i (-1)^i f_i f_{r-i}
            ff = [mp.fsum((-1) ** i * f[i] * f[r - i] for i in range(r + 1)) if r % 2 == 0
                  else mpf(0) for r in range(n)]
            jet = special.series_mul(ff, special.series_pow(_cos_jet(n), 2 * k - 1))
        special._JET_MEMO[key] = jet
    return jet


def eta_derivative_term(k: int, theta, ctx: PrecisionContext):
    """(1/(2k-1)!) d^{2k-1}/ds^{2k-1} of
    Gamma^k(1+s) Gamma^k(1-s) zeta^k(s) zeta^k(-s) cos^{2k-1}(pi s/2) e^{-k theta s}
    at s=0 (the ratio power (alpha/beta)^{-ks/2} equals e^{-k theta s}): the
    (2k-1)-th Taylor coefficient of the memoized theta-free jet times the
    jet of e^{-k theta s}. At theta = 0 that jet is 1, 0, ..., 0 and the
    theta-free jet is even, so the term is exactly 0."""
    with ctx.scoped():
        return _top_coefficient(_eta_jet(k, ctx), -k * mpf(theta))


def verify_eta(k: int, theta, ctx: PrecisionContext) -> VerificationReport:
    """Generalized Dedekind-eta transformation (weight n^-1 series). At
    theta = 0, alpha = beta makes the lhs one expression minus itself and
    the rhs exactly 0: the report is marked as no check."""
    def sides(alpha, beta):
        lhs = series_L(k, 0, (2 * alpha) ** k, ctx) - series_L(k, 0, (2 * beta) ** k, ctx)
        sign = -1 if k % 2 else 1
        rhs = (sign * mpf(2) ** k * eta_derivative_term(k, theta, ctx)
               - sign * 2 * mp.pi ** (k - 1) * (beta ** k - alpha ** k) / mpf(24) ** k)
        return lhs, rhs

    return _cell("eta", k, None, theta, ctx, sides, mpf(theta) != 0)


def verify_lerch_general(k: int, m: int, ctx: PrecisionContext) -> VerificationReport:
    """Odd-m specialization of main at alpha = beta = pi: the weighted
    series at rho = (2 pi)^k against the derivative term plus pi^{km}/2
    times the Bernoulli block at alpha = beta = pi."""
    def sides(alpha, beta):
        L, D = _fold_bracket(k, m, alpha, ctx)
        return L, D + alpha ** (k * m) / 2 * bernoulli_block(k, m, alpha, beta, ctx)

    return _cell("lerch", k, m, None, ctx, sides)


def verify(identity: str, *, k: int = 1, m: int = 1, theta=0,
           ctx: PrecisionContext) -> VerificationReport:
    """Run the identity named ``identity`` (the CLI surface); the
    parameters it lacks are ignored."""
    if identity not in IDENTITIES:
        raise special.DomainError(f"unknown identity {identity!r}")
    return IDENTITIES[identity].run(k, m, theta, ctx)


# ---------------------------------------------------------------------------
# contour-shift cross checks (independent of the assembled identities)

def lambda_line_value(k: int, m: int, rho, ctx: PrecisionContext):
    """(1/2 pi i) integral over Re(s) = -2m - 5/2 of
    zeta^k(2m+1+s) zeta^k(1-s) cos^{-1}(pi s/2) (rho/(2pi)^k)^{-s}."""
    with ctx.scoped():
        lam = mpf(-2 * m) - mpf(5) / 2
        return mellin.line_integral(dual_product(k, rho, ctx, m),
                                    mellin.lambda_line_settings(lam), ctx)


def self_duality_check(k: int, m: int, rho, ctx: PrecisionContext):
    """Substituting s -> -2m-s maps the shifted line back to the weighted
    series at the reciprocal argument; returns (lambda-line value, expected)."""
    with ctx.scoped():
        rho = mpf(rho)
        lhs = lambda_line_value(k, m, rho, ctx)
        rho_dual = (4 * mp.pi ** 2) ** k / rho
        sgn = -1 if m % 2 else 1
        rhs = (sgn * mpf(2) ** k * (rho / (2 * mp.pi) ** k) ** (2 * m)
               * series_L(k, m, rho_dual, ctx))
        return lhs, rhs


def cosine_pole_residues(k: int, m: int, rho, ctx: PrecisionContext):
    """Simple-pole residues at s = 1-2j, 0 <= j <= m+1, of the shifted-line
    integrand, in the zeta form (-1)^{j+1} (2/pi) zeta^k(2m+2-2j) zeta^k(2j) X^{2j-1};
    independent of the Bernoulli-block bookkeeping."""
    with ctx.scoped():
        X = mpf(rho) / (2 * mp.pi) ** k
        out = []
        for j in range(0, m + 2):
            sgn = 1 if (j + 1) % 2 == 0 else -1
            out.append(sgn * 2 / mp.pi * special.zeta(2 * m + 2 - 2 * j, ctx) ** k
                       * special.zeta(2 * j, ctx) ** k * X ** (2 * j - 1))
        return out


def residue_assembly_check(k: int, m: int, rho, ctx: PrecisionContext):
    """Contour-shift bookkeeping: 2^k L_m(rho) must equal the two
    derivative-type residues plus the cosine-pole residues plus the
    lambda-line integral. Returns (lhs, rhs)."""
    with ctx.scoped():
        rho = mpf(rho)
        lhs = mpf(2) ** k * series_L(k, m, rho, ctx)
        rho_dual = (4 * mp.pi ** 2) ** k / rho
        r0 = mpf(2) ** k * derivative_term(k, m, rho, ctx)
        sgn = 1 if (m + 1) % 2 == 0 else -1
        rneg2m = (sgn * mpf(2) ** k * (rho / (2 * mp.pi) ** k) ** (2 * m)
                  * derivative_term(k, m, rho_dual, ctx))
        rhs = r0 + rneg2m + mp.fsum(cosine_pole_residues(k, m, rho, ctx))
        rhs += lambda_line_value(k, m, rho, ctx)
        return lhs, rhs
