"""Named property checks over every module: the one registry that both
`ztl selftest` and pytest (tests/test_selftest.py) run.

Each entry of ``CHECKS`` is (module, name, check, digits). The check takes
a precision context and returns (passed, detail); digits, 30 or 50, is the
precision pytest runs it at, while `ztl selftest` runs every entry at its
own --digits. A property is stated here once: no test restates an entry.
Each property carries its own bound: a fixed ``ctx.tolerance(slack)``, or
``identities.pass_tolerance`` (10^-(digits-20) at digits >= 40,
10^-(digits-10) below). Every check passes from digits=15 up; the CLI
default is digits=40.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpf, mpc

from .hp import with_precision
from . import special, mellin
from .psi import (_TERMS_CAP, _terms_series, divisor_counts, dual_product, fold_line, psi,
                  series_L)
from . import identities

_SEED = 20240131


def check_hp_add_sub_roundtrip(ctx):
    rng = random.Random(_SEED)
    worst = mpf(0)
    with ctx.scoped():
        for _ in range(50):
            a = mpf(rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-10, 10)
            b = mpf(rng.uniform(-1, 1)) * mpf(10) ** rng.randint(-10, 10)
            err = abs(((a + b) - b) - a) / max(abs(a), mpf(1) / 10 ** ctx.digits)
            worst = max(worst, err)
        ok = worst < ctx.tolerance(2)
    return ok, f"worst relative drift {mp.nstr(worst, 3)}"


def check_gamma_reflection(ctx):
    rng = random.Random(_SEED + 2)
    with ctx.scoped():
        tol = mp.pi * ctx.tolerance(5)
        worst = mpf(0)
        for _ in range(100):
            s = mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(s.imag) < 0.05 and abs(s.real - mp.nint(s.real)) < 0.05:
                continue
            lhs = special.gamma(s, ctx) * special.gamma(1 - s, ctx) * mp.sinpi(s)
            worst = max(worst, abs(lhs - mp.pi))
        return worst < tol, f"worst residual {mp.nstr(worst, 3)}"


def check_gamma_duplication(ctx):
    rng = random.Random(_SEED + 3)
    tol = ctx.tolerance(5)
    with ctx.scoped():
        worst = mpf(0)
        for _ in range(100):
            s = mpc(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(s.imag) < 0.05 and abs(2 * s.real - mp.nint(2 * s.real)) < 0.05:
                continue
            lhs = special.gamma(s, ctx) * special.gamma(s + mpf(1) / 2, ctx)
            rhs = 2 ** (1 - 2 * s) * mp.sqrt(mp.pi) * special.gamma(2 * s, ctx)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst < tol, f"worst residual {mp.nstr(worst, 3)}"


def check_zeta_functional_equation(ctx):
    rng = random.Random(_SEED + 4)
    tol = ctx.tolerance(5)
    with ctx.scoped():
        worst = mpf(0)
        for _ in range(40):
            s = mpc(rng.uniform(-3, -1), rng.uniform(-12, 12))
            lhs = special.zeta(s, ctx)
            rhs = (2 ** s * mp.pi ** (s - 1) * special.gamma(1 - s, ctx)
                   * special.zeta(1 - s, ctx) * mp.sinpi(s / 2))
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), mpf(10) ** (-ctx.digits)))
        return worst < tol, f"worst residual {mp.nstr(worst, 3)}"


def check_euler_even_zeta(ctx):
    tol = ctx.tolerance(3)
    with ctx.scoped():
        worst = mpf(0)
        for m in range(1, 9):
            b = special.bernoulli_frac(2 * m)
            sgn = -1 if (m + 1) % 2 else 1
            rhs = (sgn * (2 * mp.pi) ** (2 * m) * mpf(b.numerator) / b.denominator
                   / (2 * mp.factorial(2 * m)))
            worst = max(worst, abs(special.zeta(2 * m, ctx) - rhs) / abs(rhs))
        return worst < tol, f"m=1..8, worst residual {mp.nstr(worst, 3)}"


def check_stirling_decay(ctx):
    with ctx.scoped():
        prev = None
        for i in range(10, 61):
            t = mpf(i) / 2
            g = abs(special.gamma(mpc(2, t), ctx))
            if prev is not None and g >= prev:
                return False, f"|Gamma(2+it)| not decreasing at t={t}"
            prev = g
    return True, "|Gamma(2+it)| strictly decreasing on t in [5, 30]"


def check_bernoulli_recurrence(ctx):
    tab = special.bernoulli(80)
    for m in range(1, 81):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * tab[j]
        if acc != -tab[m] * (m + 1):
            return False, f"recurrence fails at m={m}"
    if (tab[0] != 1 or tab[1] != Fraction(-1, 2) or tab[2] != Fraction(1, 6)
            or tab[4] != Fraction(-1, 30) or any(tab[2 * j + 1] != 0 for j in range(1, 40))):
        return False, "base values wrong"
    return True, "exact recurrence holds through B_80"


def check_divisor_multiplicative(ctx):
    for k, n_max, prime_powers in [(3, 500, [(2, 3), (3, 2), (5, 2), (7, 1), (13, 1)]),
                                   (4, 512, [(2, 5), (3, 3), (5, 2), (7, 1)])]:
        tab = special.divisor_sieve(k, n_max)
        for (p, e) in prime_powers:
            if tab[p ** e] != math.comb(e + k - 1, k - 1):
                return False, f"d_{k}({p ** e}) != C({e}+{k - 1},{k - 1})"
    tab1 = special.divisor_sieve(1, 100)
    if any(tab1[n] != 1 for n in range(1, 101)):
        return False, "d_1 != 1"
    return True, "d_k(p^e) = C(e+k-1, k-1) on spot checks for k = 3, 4; d_1 == 1 to 100"


def check_lambert_two_forms(ctx):
    """sum n^-1/(e^(2 pi n) - 1) against the sigma form
    sum sigma_-1(N) e^(-2 pi N), the k = 1 ``terms`` series at m = 0."""
    tol = ctx.tolerance(5)
    with ctx.scoped():
        a = special.lambert_series(-1, 2 * mp.pi, ctx)
        b = series_L(1, 0, 2 * mp.pi, ctx, strategy="terms")
        res = abs(a - b)
        return res < tol, f"|direct - sigma form| = {mp.nstr(res, 3)}"


def check_bessel_k0_mpmath(ctx):
    """special.bessel_k0 against mpmath's besselk at 30 more bits, on
    arg z = pi/4: |z| = 3.5, 8.9 and 15.5, where Dixit's Bessel-pair sums
    spend their K0 calls, and 48, where the series branch cancels about
    e^{1.7|z|}. Relative gap at most 2^-(prec-3)."""
    gaps = []
    for r in ("3.5", "8.9", "15.5", "48"):
        with ctx.scoped():
            z = mpf(r) * mp.expjpi(mpf(1) / 4)
            v = special.bessel_k0(z, ctx)
        with mp.workprec(ctx.prec_bits + 30):
            ref = mp.besselk(0, z)
            gaps.append(abs(v - ref) / abs(ref))
    worst = max(gaps)
    with ctx.scoped():
        return (worst <= mpf(2) ** (3 - ctx.prec_bits),
                f"|z| in 3.5..48, worst relative gap {mp.nstr(worst, 3)}")


def check_zeta_run_paired(ctx):
    """One paired zeta run, abscissas 2.5 + d and 2.5 sharing a Dirichlet
    pass weighted by n^d, against a one-abscissa run of each, d in
    {1, 3, 7}, 200 nodes from t = -5 (over a chunk boundary). Relative gap
    below 2^-prec: each side is within 2^-(prec+8) of zeta before its final
    rounding by half a unit. Then the zeta runs of the fold lines of
    m = -2 and -7 (``psi.fold_line``: abscissas 2.5 and -4.5, 2.5 and
    -14.5), 24 nodes from t = -3, against mpmath's zeta at prec + 60:
    relative error below 2^-(prec-3), which the kernel keeps left of 1
    only by stopping its tail later there."""
    gaps, fold_gaps = [], []
    with ctx.scoped():
        t0, dt = mpf(-5), mpf(1) / 8
        for d in (1, 3, 7):
            sigmas = (mpf(2.5) + d, mpf(2.5))
            special.clear_caches()
            paired = special.zeta_vertical_run(sigmas, t0, dt, 200, ctx)
            special.clear_caches()
            for sigma, run in zip(sigmas, paired):
                single = special.zeta_vertical_run(sigma, t0, dt, 200, ctx)
                gaps += [abs(a - b) / abs(b) for a, b in zip(run, single)]
        special.clear_caches()
        t0, dt = mpf(-3), mpf(1) / 2
        for m in (-2, -7):
            sigmas = tuple(map(mpf, sorted(fold_line(m)[1])))
            runs = special.zeta_vertical_run(sigmas, t0, dt, 24, ctx)
            with mp.workprec(ctx.prec_bits + 60):
                fold_gaps += [abs(v - ref) / abs(ref)
                              for sigma, run in zip(sigmas, runs) for u, v in enumerate(run)
                              for ref in [mp.zeta(mpc(sigma, t0 + u * dt))]]
        special.clear_caches()
        worst, fold_worst = max(gaps), max(fold_gaps)
        return (worst < mpf(2) ** -ctx.prec_bits
                and fold_worst <= mpf(2) ** (3 - ctx.prec_bits),
                f"{len(gaps)} nodes, worst relative gap {mp.nstr(worst, 3)}; "
                f"{len(fold_gaps)} fold-line nodes, worst relative error "
                f"{mp.nstr(fold_worst, 3)}")


def check_gamma_free_fold(ctx):
    """The fold product in its Gamma form, Gamma^k(s) zeta^k(s)
    zeta^k(s+2m+1) cos^{k-1}(pi s/2), against 2^-k (2 pi)^{ks} times its
    Gamma-free form ``psi.dual_product``, whose zeta^k(1-s) stands for
    Gamma^k zeta^k(s) by the functional equation, on the fold line's
    nodes: four 96-node chunks from t = 0, 6, 30 and 60 for (k, m) in
    {(1, 1), (3, -1), (4, -2), (2, 7), (1, -7)}. The two share only
    zeta(s+2m+1). Relative gap below 2^(6-prec): both forms build
    cos(pi s/2) at 16 extra bits, since rounding pi t/2 alone would cost
    about k pi t/2 ulps; the worst node reads about 2^3.5 2^-prec at 15 to
    80 digits."""
    worst = mpf(0)
    with ctx.scoped():
        dt = mpf(1) / 8
        for k, m in ((1, 1), (3, -1), (4, -2), (2, 7), (1, -7)):
            c = mpf(fold_line(m)[0])
            gamma_form = mellin.VerticalProduct(ctx, zeta_factors=[(0, 1, k), (2 * m + 1, 1, k)],
                                                gamma_power=k, cos_power=k - 1)
            free = dual_product(k, 1, ctx, m)
            for t0 in (0, 6, 30, 60):
                a = gamma_form._product_run(c, mpf(t0), dt, 96)
                b = free._product_run(c, mpf(t0), dt, 96)
                # (2 pi)^{ks} at 20 more bits: its phase reaches k t ln(2 pi) ~ 440
                with mp.workprec(ctx.prec_bits + 20):
                    for u in range(96):
                        s = mpc(c, t0 + u * dt)
                        ref = mp.exp(k * s * mp.log(2 * mp.pi)) * b[u] / 2 ** k
                        worst = max(worst, abs(a[u] - ref) / abs(a[u]))
    return (worst < mpf(2) ** (6 - ctx.prec_bits),
            f"1920 nodes, worst relative gap {mp.nstr(worst, 3)} "
            f"= 2^{float(mp.log(worst, 2)) + ctx.prec_bits:.1f} 2^-prec")


def check_product_conjugate_symmetry(ctx):
    """The premise of ``mellin.line_integral``'s fold onto the upper
    half-line, node by node: the base-free product at c - it against the
    conjugate of that at c + it, on 96 nodes from t = 1/8 and from t = 30,
    for the folds (k, m) in {(1, 1), (3, -1), (2, 7)}, the Psi line (k = 2)
    and the Gamma^3 cos^2 kernel. Relative gap below 2^(2-prec)."""
    worst = mpf(0)
    with ctx.scoped():
        lines = [(mpf(fold_line(m)[0]), dual_product(k, 1, ctx, m))
                 for k, m in ((1, 1), (3, -1), (2, 7))]
        lines += [(mpf(5) / 2, dual_product(2, 1, ctx)),
                  (mpf(5) / 2, mellin.VerticalProduct(ctx, gamma_power=3, cos_power=2))]
        dt = mpf(1) / 8
        for c, f in lines:
            for t0 in (dt, mpf(30)):
                up = f._product_run(c, t0, dt, 96)
                down = f._product_run(c, -t0, -dt, 96)
                worst = max([worst] + [abs(b - a.conjugate()) / abs(a) for a, b in zip(up, down)])
    return (worst < mpf(2) ** (2 - ctx.prec_bits),
            f"960 nodes, worst relative gap {mp.nstr(worst, 3)}")


def check_tapered_nodes_within_budget(ctx):
    """The tapered fill of a fold line (``mellin._run_bits``) against a
    full-precision recomputation: on the fold lines (k, m) in {(1, 1),
    (3, -1), (4, -2), (2, 7), (1, -7)}, 24-node runs of step 1/8 from
    t = 0, 20, ..., 160, each run once as the fill computes it and once by
    ``_product_run`` at the context's precision, the memos cleared before
    each. Every node within 2^-(prec+_TAPER_G) |P_k(0)| of the full one,
    |P_k(t)| <= U(t) |P_k(0)| at every node past t = 0 (where U = 1), and
    some run tapered."""
    G = mellin._TAPER_G
    worst, margin, tapered = -math.inf, math.inf, 0
    with ctx.scoped():
        dt = mpf(1) / 8
        for k, m in ((1, 1), (3, -1), (4, -2), (2, 7), (1, -7)):
            c = mpf(fold_line(m)[0])
            f = dual_product(k, 1, ctx, m)
            p0 = None
            for t0 in range(0, 161, 20):
                special.clear_caches()
                cheap = f._tapered_run(c, mpf(t0), dt, 24)
                special.clear_caches()
                full = f._product_run(c, mpf(t0), dt, 24)
                p0 = abs(full[0]) if p0 is None else p0
                bits = mellin._run_bits((2 * m + 1 + c, 1 - c), mpf(t0), dt, 24, ctx.prec_bits)
                tapered += bits < ctx.prec_bits
                for u, (a, b) in enumerate(zip(cheap, full)):
                    if a != b:
                        worst = max(worst, float(mp.log(abs(a - b) / p0, 2)) + ctx.prec_bits + G)
                    t = t0 + u * float(dt)
                    if t > 0:
                        margin = min(margin, mellin._log2_bound(float(c), t, t)
                                     - float(mp.log(abs(b) / p0, 2)))
    special.clear_caches()
    return (worst <= 0 and margin >= 0 and tapered > 0,
            f"{tapered} of 45 runs tapered; worst node 2^{worst:.1f} of its budget "
            f"2^-(prec+{G}) |P_k(0)|; log2 U(t) - log2 |P_k(t)/P_k(0)| >= {margin:.2f} for t > 0")


def check_mesh_refinement_geometric(ctx):
    with ctx.scoped():
        ok = True
        details = []
        # from h0 = 1 every line refines at least twice at every digits >= 15,
        # so there is always a ratio to test
        for x in (1, 5, 3):
            f = mellin.VerticalProduct(ctx, gamma_power=1, neg_s_base=x)
            tr = []
            mellin.line_integral(f, 2, ctx, h0=mpf(1), trace=tr)
            discs = [mpf(t["discrepancy"]) for t in tr if t["discrepancy"] is not None]
            ok = (ok and len(discs) >= 2
                  and all(a / b >= 10 for a, b in zip(discs, discs[1:])))
            details.append("x%d: %d discrepancies" % (x, len(discs)))
        return ok, "successive discrepancies shrink >= 10x (" + ", ".join(details) + ")"


def check_cauchy_order_zero(ctx):
    with ctx.scoped():
        f = lambda s: special.zeta(2 + s, ctx)
        v = mellin.cauchy_derivative(f, 0, ctx)
        res = abs(v - special.zeta(2, ctx))
        return res < ctx.tolerance(2), f"residual {mp.nstr(res, 3)}"


def check_tail_below_tolerance(ctx):
    """The truncation rule of ``mellin.line_integral`` after the fact: past
    the height t where the tail test ended a line's accepted level, the
    nodes up to 1.5 t, read through eval_vertical, add h/pi sum Re at most
    10^-digits max(|value|, 1e-5) to the value. On Psi's inverse-Mellin line
    at k = 4 and the folds (1, 1) and (3, -7), at rho = (2 pi e^0.3)^k."""
    worst = mpf(0)
    with ctx.scoped():
        for k, m in ((4, None), (1, 1), (3, -7)):
            c = mpf(5) / 2 if m is None else mpf(fold_line(m)[0])
            f = dual_product(k, (2 * mp.pi * mp.exp(mpf(3) / 10)) ** k, ctx, m)
            tr = []
            value, _ = mellin.line_integral(f, c, ctx, trace=tr)
            h, t = mpf(tr[-1]["h"]), mpf(tr[-1]["t"])
            grid = mellin._H0 / 2 ** mellin._LINE_REFINE_LIMIT
            n, dn = int(t / h), int(h / grid)
            P, (W, z, _), scale = f.eval_vertical(c, (n + 1) * dn, dn, n // 2, grid)
            re, _ = mellin._chunk_sum(P, len(P), (W, f._rotation((n + 1) * h, W), z))
            worst = max(worst, abs(h / mp.pi * scale * re) / max(abs(value), mpf("1e-5")))
    return (worst <= mpf(10) ** -ctx.digits,
            f"3 lines, worst tail {mp.nstr(worst, 3)} of max(|value|, 1e-5)")


def check_fixed_line_cancellation(ctx):
    """Fixed-point line sums against routes that use no line: k = 1 folds
    for m in {1, -1, 7} at rho = 2 pi e^3 (a value near e^-126 from nodes
    whose |v| sums to about 1e-5) and at rho = 2 pi e^-2.5, against the
    Lambert series sum n^-(2m+1)/(e^(rho n) - 1); the k = 2, m = 1 fold at
    rho = 2 pi e^3 against its Bessel double sum; and a line that is exactly
    0 at t = 0, Gamma^2(s) cos(pi s/2) 3^-s on Re s = 3 (cos(3 pi/2) = 0),
    against 2 Re K0(2 e^(i pi/4) sqrt 3). Gap below 10^(5-digits)
    max(|oracle|, 1e-5), the stopping rule's own promise."""
    with ctx.scoped():
        gaps = []

        def gap(value, oracle):
            return abs(value - oracle) / max(abs(oracle), mpf("1e-5"))

        for rho in (2 * mp.pi * mp.exp(3), 2 * mp.pi * mp.exp(mpf(-5) / 2)):
            for m in (1, -1, 7):
                v = series_L(1, m, rho, ctx)
                gaps.append(gap(v, special.lambert_series(-2 * m - 1, rho, ctx)))
        rho = 2 * mp.pi * mp.exp(3)
        gaps.append(gap(series_L(2, 1, rho, ctx), series_L(2, 1, rho, ctx, strategy="terms")))
        f = mellin.VerticalProduct(ctx, gamma_power=2, cos_power=1, neg_s_base=3)
        v, _ = mellin.line_integral(f, 3, ctx)
        pair = 2 * special.bessel_k0(2 * mp.expjpi(mpf(1) / 4) * mp.sqrt(3), ctx).real
        gaps.append(gap(v, pair))
        worst = max(gaps)
        return worst < ctx.tolerance(5), f"{len(gaps)} lines, worst gap {mp.nstr(worst, 3)}"


def check_psi_strategy_agreement(ctx):
    tol = ctx.tolerance(8)
    with ctx.scoped():
        worst = mpf(0)
        for k in (1, 2):
            for rho in (mpf(1), 2 * mp.pi):
                for x in (mpf(1), mpf(10)):
                    a = psi(k, rho, x, ctx, strategy="closed_form").value
                    b = psi(k, rho, x, ctx, strategy="inverse_mellin").value
                    worst = max(worst, abs(a - b))
        return worst < tol, f"worst |closed - inverse_mellin| = {mp.nstr(worst, 3)}"


def check_psi_shape(ctx):
    with ctx.scoped():
        xs = [mpf(i) / 2 for i in range(1, 21)]
        v1 = [psi(1, 1, x, ctx).value for x in xs]
        if any(v <= 0 for v in v1):
            return False, "k=1 not positive"
        if any(v1[i] <= v1[i + 1] for i in range(len(v1) - 1)):
            return False, "k=1 not strictly decreasing"
        # k=2 is an oscillatory Bessel pair: no positivity, but decay
        v2 = {x: psi(2, 1, mpf(x), ctx).value
              for x in (1, 2, 10, 24, 40, 60)}
        if not abs(v2[2]) > max(abs(v2[40]), abs(v2[60])):
            return False, "|k=2| not decaying"
        if {mp.sign(v2[x]) for x in (1, 10, 24, 40)} != {-1, 1}:
            return False, "k=2 sign does not oscillate"
        return True, "k=1 positive decreasing; |k=2| decaying, sign oscillating"


def check_psi_scaling(ctx):
    tol = ctx.tolerance(2)
    with ctx.scoped():
        worst = mpf(0)
        for k in (1, 2):
            for (rho, x) in [(mpf(3), mpf(2)), (2 * mp.pi, mpf(1) / 2), (mpf(3), mpf(7) / 2)]:
                a = psi(k, rho, x, ctx).value
                b = psi(k, rho * x, mpf(1), ctx).value
                worst = max(worst, abs(a - b))
        return worst < tol, f"psi(rho,x) vs psi(rho x,1): {mp.nstr(worst, 3)}"


def check_series_tail(ctx):
    """The k = 1, m = 1 ``terms`` series at rho = 1/5, hundreds of terms:
    capped at its own term count N it returns the same sum, capped at N - 1
    it raises ArithmeticError, and it agrees with the fold to
    10^(5-digits) max(|fold|, 1)."""
    with ctx.scoped():
        rho = mpf(1) / 5
        a, N = _terms_series(1, 1, rho, ctx, _TERMS_CAP)
        b, _ = _terms_series(1, 1, rho, ctx, N)
        if b != a:
            return False, f"capped at N = {N} the sum moved by {mp.nstr(abs(b - a), 3)}"
        try:
            _terms_series(1, 1, rho, ctx, N - 1)
            return False, f"capped at N - 1 = {N - 1} the sum did not raise"
        except ArithmeticError:
            pass
        fold = series_L(1, 1, rho, ctx)
        res = abs(a - fold) / max(abs(fold), 1)
        return (res < ctx.tolerance(5),
                f"N = {N} terms, cap N - 1 raises, |terms - fold| = {mp.nstr(res, 3)}")


def check_bessel_pair_convolution(ctx):
    """The k = 2 ``terms`` series, one K0 per N = j n with the convolved
    weight a(N), against the nested sum it replaces: sum_n d(n) n^-(2m+1)
    Psi_{rho,2}(n), each Psi from its closed form (a Bessel-pair sum over j).
    m in {1, -1, 2}, rho = (2 alpha)^2 and (2 beta)^2 for theta in {0, 0.45}.
    Gap below 10^(5-digits) max(|oracle|, 1e-5)."""
    with ctx.scoped():
        gaps = []
        alpha, beta = identities.alpha_beta(mpf("0.45"), ctx)
        for r in (mp.pi, alpha, beta):
            rho = (2 * r) ** 2
            for m in (1, -1, 2):
                def term(n):
                    return (divisor_counts(2, n)[n] * mp.power(n, -(2 * m + 1))
                            * psi(2, rho, mpf(n), ctx).value)

                oracle, _, _ = special.sum_until_negligible(term, ctx, 5, 10 ** 5,
                                                            "nested Bessel-pair series")
                v = series_L(2, m, rho, ctx, strategy="terms")
                gaps.append(abs(v - oracle) / max(abs(oracle), mpf("1e-5")))
        worst = max(gaps)
        return worst < ctx.tolerance(5), f"{len(gaps)} series, worst gap {mp.nstr(worst, 3)}"


def check_theta_reflection_duality(ctx):
    tol = identities.pass_tolerance(ctx)
    with ctx.scoped():
        th = mpf(3) / 10
        k, m = 2, 1
        rm = identities.verify_main(k, m, -th, ctx)
        if not rm.passed:
            return False, "the mirrored run failed"
        alpha, beta = identities.alpha_beta(th, ctx)
        # the alpha-side bracket L - D, its series summed term by term,
        # vs the same bracket out of the mirrored run's rhs (a fold)
        ra = (2 * alpha) ** k
        bracket_direct = (series_L(k, m, ra, ctx, strategy="terms")
                          - identities.derivative_term(k, m, ra, ctx))
        blk = identities.bernoulli_block(k, m, beta, alpha, ctx)
        sgn = -1 if m % 2 else 1
        bracket_mirrored = (rm.rhs - blk) * sgn * (alpha ** k) ** m
        res = abs(bracket_direct - bracket_mirrored)
        return res < tol, f"bracket relation residual {mp.nstr(res, 3)}"


def check_jets_match_circles(ctx):
    """The Taylor-jet residue terms against Cauchy circles of the same
    functions: derivative_term (k <= 4, m = +-1, +-2), eta_derivative_term
    (k <= 4), each at rho = (2 alpha)^k, theta in {0, 0.3, 1}, and Dixit's
    zeta'/zeta(2m+1) (m = +-1). Relative gap below 10^-(digits-5); at
    theta = 0 the eta jet must be exactly 0 and the circle below the bound."""
    tol = ctx.tolerance(5)
    thetas = [mpf(0), mpf(3) / 10, mpf(1)]
    with ctx.scoped():
        gaps = []

        def circle(f, order):
            return mellin.cauchy_derivative(f, order, ctx).real / mp.factorial(order)

        for k in range(1, 5):
            for th in thetas:
                lnr = k * mp.log(2 * identities.alpha_beta(th, ctx)[0])
                for m in (-2, -1, 1, 2):
                    f = (lambda s, k=k, m=m, lnr=lnr:
                         special.zeta(2 * m + 1 + s, ctx) ** k * special.zeta(s, ctx) ** k
                         * special.gamma(1 + s, ctx) ** k * mp.cospi(s / 2) ** (k - 1)
                         * mp.exp(-s * lnr))
                    a = identities.derivative_term(k, m, mp.exp(lnr), ctx)
                    b = circle(f, k - 1)
                    gaps.append(abs(a - b) / abs(b))
                g = (lambda s, k=k, th=th:
                     (special.gamma(1 + s, ctx) * special.gamma(1 - s, ctx)
                      * special.zeta(s, ctx) * special.zeta(-s, ctx)) ** k
                     * mp.cospi(s / 2) ** (2 * k - 1) * mp.exp(-k * th * s))
                a = identities.eta_derivative_term(k, th, ctx)
                b = circle(g, 2 * k - 1)
                if th == 0:
                    if a != 0:
                        return False, f"eta k={k} theta=0 jet is {mp.nstr(a, 3)}, not 0"
                    gaps.append(abs(b))
                else:
                    gaps.append(abs(a - b) / abs(b))
        for m in (-1, 1):
            zj = special.zeta_jet(2 * m + 1, 2, ctx)
            b = circle(lambda s: special.zeta(2 * m + 1 + s, ctx), 1) / special.zeta(2 * m + 1, ctx)
            gaps.append(abs(zj[1] / zj[0] - b) / abs(b))
        worst = max(gaps)
        return worst < tol, f"{len(gaps)} terms, worst relative gap {mp.nstr(worst, 3)}"


def check_reindex_exact(ctx):
    for (k, m) in [(1, 1), (2, 1), (3, 2), (2, 3), (2, 4)]:
        coeffs = identities.bernoulli_block_coeffs(k, m)
        flipped = [(-1) ** (m + 1) * q for q in reversed(coeffs)]
        if coeffs != flipped:
            return False, f"reindex identity fails at k={k}, m={m}"
    return True, "j -> m+1-j reindex exact at the rational level"


def check_lerch_value(ctx):
    tol = identities.pass_tolerance(ctx)
    with ctx.scoped():
        L = series_L(1, 1, 2 * mp.pi, ctx)
        res = abs(special.zeta(3, ctx) + 2 * L - 7 * mp.pi ** 3 / 180)
        return res < tol, f"zeta(3) + 2 sum vs 7 pi^3/180: {mp.nstr(res, 3)}"


def check_residue_assembly(ctx):
    tol = ctx.tolerance(8)
    with ctx.scoped():
        lhs, rhs = identities.residue_assembly_check(1, 1, (2 * mp.pi) ** 1, ctx)
        res = abs(lhs - rhs)
        return res < tol, f"contour-shift bookkeeping residual {mp.nstr(res, 3)}"


CHECKS = [
    ("hp", "add_sub_roundtrip", check_hp_add_sub_roundtrip, 50),
    ("special", "gamma_reflection", check_gamma_reflection, 30),
    ("special", "gamma_duplication", check_gamma_duplication, 30),
    ("special", "zeta_functional_equation", check_zeta_functional_equation, 30),
    ("special", "euler_even_zeta", check_euler_even_zeta, 30),
    ("special", "stirling_decay", check_stirling_decay, 30),
    ("special", "bernoulli_recurrence", check_bernoulli_recurrence, 30),
    ("special", "divisor_multiplicative", check_divisor_multiplicative, 30),
    ("special", "lambert_two_forms", check_lambert_two_forms, 50),
    ("special", "bessel_k0_mpmath", check_bessel_k0_mpmath, 50),
    ("special", "zeta_run_paired", check_zeta_run_paired, 50),
    ("mellin", "product_conjugate_symmetry", check_product_conjugate_symmetry, 50),
    ("mellin", "tapered_nodes_within_budget", check_tapered_nodes_within_budget, 50),
    ("mellin", "mesh_refinement_geometric", check_mesh_refinement_geometric, 30),
    ("mellin", "cauchy_order_zero", check_cauchy_order_zero, 50),
    ("mellin", "tail_below_tolerance", check_tail_below_tolerance, 50),
    ("mellin", "fixed_line_cancellation", check_fixed_line_cancellation, 50),
    ("psi", "gamma_free_fold", check_gamma_free_fold, 50),
    ("psi", "strategy_agreement", check_psi_strategy_agreement, 30),
    ("psi", "shape", check_psi_shape, 30),
    ("psi", "scaling_symmetry", check_psi_scaling, 30),
    ("psi", "series_tail", check_series_tail, 30),
    ("psi", "bessel_pair_convolution", check_bessel_pair_convolution, 50),
    ("identities", "theta_reflection_duality", check_theta_reflection_duality, 50),
    ("identities", "jets_match_circles", check_jets_match_circles, 50),
    ("identities", "reindex_exact", check_reindex_exact, 30),
    ("identities", "lerch_value", check_lerch_value, 30),
    ("identities", "residue_assembly", check_residue_assembly, 30),
]


def run(digits: int = 40, name_filter: str = "") -> bool:
    ctx = with_precision(digits)
    all_ok = True
    ran = 0
    for module, name, fn, _ in CHECKS:
        full = f"{module}.{name}"
        if name_filter and name_filter not in full:
            continue
        ran += 1
        try:
            ok, detail = fn(ctx)
        except Exception as exc:   # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {full:42s} {detail}")
    if ran == 0:
        print(f"no checks match filter {name_filter!r}")
        return False
    print(f"{'OK' if all_ok else 'FAILURES'}: {ran} checks at digits={digits}")
    return all_ok
