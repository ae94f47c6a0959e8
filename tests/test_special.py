"""Special-function oracles and properties.

mpmath's own gamma/zeta/besselk serve as library oracles; the dual-route
checks additionally use small independent implementations local to this file
(raw-Stirling gamma, finite differences, brute-force divisor enumeration).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from ztl import hp, special
from ztl.psi import fold_line

# ---------------------------------------------------------------------------
# gamma


def _gamma_shift_stirling_oracle(s, dps):
    """Independent gamma: push Re(s) beyond 2*dps by the recurrence, then a
    raw Stirling series with no reflection machinery."""
    with mp.workdps(dps + 10):
        s = mpc(s)
        shift = int(2.5 * dps - s.real) + 1
        z = s + shift
        acc = (z - mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        zp = 1 / z
        w = zp * zp
        for j in range(1, 40):
            b = special.bernoulli_frac(2 * j)
            acc += mpf(b.numerator) / b.denominator / ((2 * j) * (2 * j - 1)) * zp
            zp *= w
        val = mp.exp(acc)
        for r in range(shift):
            val /= s + r
        return val


def test_gamma_one(ctx50):
    with ctx50.scoped():
        assert special.gamma(1, ctx50) == 1
        assert special.gamma(5, ctx50) == 24


def test_gamma_half_is_sqrt_pi(ctx50):
    with ctx50.scoped():
        assert abs(special.gamma(mpf(1) / 2, ctx50) - mp.sqrt(mp.pi)) < ctx50.tolerance()


def test_gamma_complex_vs_independent_oracle(ctx50):
    s = mpc("3.7", "2.1")
    with ctx50.scoped():
        mine = special.gamma(s, ctx50)
        oracle = _gamma_shift_stirling_oracle(s, ctx50.working_dps)
        assert abs(mine - oracle) / abs(oracle) < ctx50.tolerance(5)


@pytest.mark.parametrize("re,im", [(0.3, 0.0), (-1.5, 2.0), (8.0, -30.0), (0.5, 120.0)])
def test_gamma_vs_mpmath(ctx50, re, im):
    with ctx50.scoped():
        s = mpc(re, im)
        ref = mp.gamma(s)
        assert abs(special.gamma(s, ctx50) - ref) / abs(ref) < ctx50.tolerance(2)


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_gamma_pole(ctx50, bad):
    with pytest.raises(special.PoleError):
        special.gamma(bad, ctx50)


# ---------------------------------------------------------------------------
# zeta


def test_zeta_two(ctx50):
    with ctx50.scoped():
        assert abs(special.zeta(2, ctx50) - mp.pi ** 2 / 6) < ctx50.tolerance()


def test_zeta_zero_and_negatives(ctx50):
    with ctx50.scoped():
        assert special.zeta(0, ctx50) == mpf(-1) / 2
        assert abs(special.zeta(-3, ctx50) - mpf(1) / 120) < ctx50.tolerance()
        assert special.zeta(-2, ctx50) == 0
        assert special.zeta(-8, ctx50) == 0


def test_zeta_pole(ctx50):
    with pytest.raises(special.PoleError):
        special.zeta(1, ctx50)


@pytest.mark.parametrize("re,im", [(2.0, 0.0), (0.5, 40.0), (3.5, 150.0),
                                   (-0.5, 7.0), (-2.5, 0.0), (0.25, 0.25)])
def test_zeta_vs_mpmath(ctx50, re, im):
    with ctx50.scoped():
        s = mpc(re, im)
        ref = mp.zeta(s)
        assert abs(special.zeta(s, ctx50) - ref) <= max(abs(ref), mpf(1)) * ctx50.tolerance(2)


@pytest.mark.parametrize("digits,sigma,t0,dt,count", [
    pytest.param(50, "2.5", "0.125", "0.125", 40, id="50-line"),
    pytest.param(30, "2.5", "0.125", "0.125", 40, id="30-line"),
    pytest.param(80, "2.5", "-3", "0.0625", 40, id="80-line"),
    # |t| >= 150 over a _RUN_CHUNK boundary: two chunks with their own (N, J)
    pytest.param(50, "0.5", "150", "0.0625", 100, id="50-chunks-t150"),
    pytest.param(50, "-1.5", "2", "0.25", 8, id="50-reflected"),
    pytest.param(80, "-3.5", "-20", "0.125", 12, id="80-reflected"),
    pytest.param(50, "2.5", "0.875", "0.125", 1, id="50-one-node"),
    pytest.param(50, "-0.5", "7", "0.125", 1, id="50-one-node-reflected"),
])
def test_zeta_vertical_run_matches_scalar(digits, sigma, t0, dt, count):
    ctx = hp.with_precision(digits)
    with ctx.scoped():
        sigma, t0, dt = mpf(sigma), mpf(t0), mpf(dt)
        run = special.zeta_vertical_run(sigma, t0, dt, count, ctx)
        assert len(run) == count
        edge = special._RUN_CHUNK
        for u in sorted({0, count // 2, count - 1} | ({edge - 1, edge} if count > edge else set())):
            s = mpc(sigma, t0 + u * dt)
            assert abs(run[u] - mp.zeta(s)) < max(1, abs(run[u])) * ctx.tolerance(3)
        if count == 1:
            # the scalar zeta is the same kernel on one node
            assert run[0] == special.zeta(mpc(sigma, t0), ctx)


@pytest.mark.parametrize("digits", [30, 50, 80])
@pytest.mark.parametrize("sigmas,t0s,dt,count", [
    *[pytest.param((2.5 + d, 2.5), [-3], 1 / 16, 96, id=str(d)) for d in (1, 3, 7)],
    *[pytest.param(tuple(sorted(fold_line(m)[1])), [-3], 1 / 2, 24, id=f"fold_m{m}")
      for m in (1, 2, 7, -1, -2, -3, -7)],
    *[pytest.param((s,), [0, 0.5, 3, 30, 150], 1 / 8, 4, id=f"single_s{s}")
      for s in (-0.25, -1.5, -4.5, -14.5)],
    pytest.param((-3, -13, -29), None, None, 1, id="scalar"),
])
def test_paired_zeta_run_keeps_its_guard_bits(digits, sigmas, t0s, dt, count):
    # abscissas that share one Dirichlet pass, whose terms the lower ones
    # weight by n^d: without ceil(d log2 N) more guard bits, 80 digits lose
    # 7 bits at d = 3 and 37 at d = 7. Left of 1 the kernel needs two more
    # things. Its tail must stop ceil((1 - sigma) log2 N) bits later, or
    # sigma = -4.5 loses up to 14 bits and -14.5 up to 85 (the fold pair
    # of m = -7 61-77); and a run whose largest abscissa is below 1 needs
    # that many more guard bits, or single runs lose up to 96 bits and the
    # scalar zeta(-29) 155-175
    ctx = hp.with_precision(digits)
    special.clear_caches()
    with ctx.scoped():
        if t0s is None:
            got = [(mpc(s), special.zeta(s, ctx)) for s in sigmas]
        else:
            got = []
            for t0 in t0s:
                runs = special.zeta_vertical_run(tuple(map(mpf, sigmas)), t0, dt, count, ctx)
                assert len(runs) == len(sigmas) and all(len(run) == count for run in runs)
                got += [(mpc(s, t0 + u * dt), v)
                        for s, run in zip(sigmas, runs) for u, v in enumerate(run)]
    with mp.workprec(ctx.prec_bits + 60):
        worst = max(abs(v - ref) / abs(ref) for s, v in got for ref in [mp.zeta(s)])
        assert worst <= mpf(2) ** -(ctx.prec_bits - 3)


def test_paired_zeta_run_ignores_a_partly_warm_memo(ctx50):
    with ctx50.scoped():
        sigmas, t0, dt = (mpf(3.5), mpf(2.5)), mpf(-2), mpf(1) / 8
        special.clear_caches()
        cold = special.zeta_vertical_run(sigmas, t0, dt, 120, ctx50)
        special.clear_caches()
        special.zeta_vertical_run(sigmas[1], t0, dt, 120, ctx50)   # one abscissa warm
        assert special.zeta_vertical_run(sigmas, t0, dt, 120, ctx50) == cold
        assert special.zeta_vertical_run(sigmas, t0, dt, 120, ctx50) == cold   # all warm
        # each value is memoized under its own abscissa
        assert [special.zeta_vertical_run(s, t0, dt, 120, ctx50) for s in sigmas] == cold


def test_zeta_run_abscissas_must_differ_by_integers(ctx50):
    with pytest.raises(special.DomainError):
        special.zeta_vertical_run((mpf(3.5), mpf(2.25)), 0, mpf(1) / 8, 4, ctx50)


# ---------------------------------------------------------------------------
# Bernoulli


def test_bernoulli_base_cases():
    assert special.bernoulli(2) == (1, Fraction(-1, 2), Fraction(1, 6))
    t = special.bernoulli(8)
    assert t[0] == 1
    assert t[1] == Fraction(-1, 2)
    assert t[2] == Fraction(1, 6)
    assert t[4] == Fraction(-1, 30)
    assert t[3] == 0 and t[5] == 0 and t[7] == 0


# ---------------------------------------------------------------------------
# Bessel


def test_k0_against_mpmath(ctx50):
    with ctx50.scoped():
        for z in (mpf(1) / 2, mpf(3), mpc(2, 2), 2 * mp.expjpi(mpf(1) / 4), mpc(40, 13),
                  mpf(120), mpc(90, -90)):
            ref = mp.besselk(0, z)
            assert abs(special.bessel_k0(z, ctx50) - ref) <= abs(ref) * ctx50.tolerance(4)


@pytest.mark.parametrize("digits", [30, 50, 80])
def test_k0_fixed_point_kernel_against_mpmath(digits):
    # the fixed-point series must stop past its peak even where a negative
    # term floors to -1 (40 + 13i); both sides of the branch switch
    # |z| = (prec + 12) ln 2 / 2; the lower half-plane; and the pi/4 ray,
    # where Re K0(x e^{i pi/4}) = ker x (DLMF 10.61.2)
    ctx = hp.with_precision(digits)
    switch = (ctx.prec_bits + 12) * math.log(2) / 2
    with ctx.scoped():
        zs = [mpc(40, 13), mpc(46, 0.5), mpc(3, -4)]
        for r in (switch - 1e-6, switch + 1e-6):
            zs += [mpf(r), r * mp.expjpi(mpf(-1) / 5)]
        for z in zs:
            ref = mp.besselk(0, z)
            assert abs(special.bessel_k0(z, ctx) - ref) <= abs(ref) * ctx.tolerance(4), z
        for x in (mpf(1) / 3, mpf(7), mpf(30), mpf(2 * switch)):
            ref = mp.ker(0, x)
            v = special.bessel_k0(x * mp.expjpi(mpf(1) / 4), ctx).real
            assert abs(v - ref) <= abs(ref) * ctx.tolerance(4), x


def test_k0_domain(ctx50):
    with pytest.raises(special.DomainError):
        special.bessel_k0(mpc(-1, 1), ctx50)


# ---------------------------------------------------------------------------
# divisor sieve


def _ordered_factorizations(n, k):
    if k == 1:
        return 1
    return sum(_ordered_factorizations(n // d, k - 1) for d in range(1, n + 1) if n % d == 0)


def test_divisor_d2_of_6():
    d = special.divisor_sieve(2, 10)
    assert d[6] == 4 and d[0] == 0 and len(d) == 11
    assert special.divisor_sieve(1, 5) == (0, 1, 1, 1, 1, 1)


def test_divisor_d3_of_4():
    assert special.divisor_sieve(3, 10)[4] == 6
    assert _ordered_factorizations(4, 3) == 6


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 60))
def test_divisor_vs_bruteforce(k, n):
    assert special.divisor_sieve(k, 64)[n] == _ordered_factorizations(n, k)


def test_divisor_convolution_invariant():
    n = 96
    t2 = special.divisor_sieve(2, n)
    t3 = special.divisor_sieve(3, n)
    for v in range(1, n + 1):
        assert t3[v] == sum(t2[d] for d in range(1, v + 1) if v % d == 0)


# ---------------------------------------------------------------------------
# adaptive truncation


@pytest.mark.parametrize("run,stop", [(3, 119), (5, 121)])
def test_sum_until_negligible_stops_after_run(ctx30, run, stop):
    # 2^-n < 10^-35 first at n = 117 (35 log2(10) = 116.3); every partial sum
    # 1 - 2^-n is exact, so the stop index and both returned values are exact
    with ctx30.scoped():
        acc, last, n = special.sum_until_negligible(
            lambda j: mpf(2) ** -j, ctx30, run, 1000, "halving series")
        assert n == stop
        assert last == mpf(2) ** -stop
        assert acc == 1 - mpf(2) ** -stop


@pytest.mark.parametrize("term", [lambda n: mpf(1), lambda n: mpf(n % 3 == 0)],
                         ids=["constant", "reset-every-third"])
def test_sum_until_negligible_raises_past_cap(ctx30, term):
    # a constant term never decays; zeros at n = 1, 2 (mod 3) never make a
    # run of three, because every third term resets the count
    with ctx30.scoped(), pytest.raises(ArithmeticError, match="toy series .* 20 terms"):
        special.sum_until_negligible(term, ctx30, 3, 20, "toy series")


# ---------------------------------------------------------------------------
# Lambert series


def test_lambert_dominant_first_term(ctx30):
    with ctx30.scoped():
        v = special.lambert_series(0, 50, ctx30)
        assert mp.exp(-50) < v < 2 * mp.exp(-50)


def test_lambert_weight_one_closed_form(ctx50):
    # a=1, y=2 pi: sum n/(e^{2 pi n}-1) = 1/24 - 1/(8 pi)
    with ctx50.scoped():
        v = special.lambert_series(1, 2 * mp.pi, ctx50)
        assert abs(v - (mpf(1) / 24 - 1 / (8 * mp.pi))) < ctx50.tolerance(5)


def test_lambert_domain(ctx30):
    with pytest.raises(special.DomainError):
        special.lambert_series(1, 0, ctx30)
