"""Precision context, constants, serialization."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ztl import hp

# published reference values (60 digits)
PI_60 = "3.14159265358979323846264338327950288419716939937510582097494"
GAMMA_60 = "0.577215664901532860606512090082402431042159335939923598805767"


def test_with_precision_echo():
    ctx = hp.with_precision(50)
    assert ctx.digits == 50
    assert ctx.guard_digits == 15
    assert ctx.working_dps == 65


def test_boundary_accepted():
    assert hp.with_precision(15).digits == 15


@pytest.mark.parametrize("bad", [10, 14, 0, -3])
def test_below_minimum_rejected(bad):
    with pytest.raises(hp.PrecisionError):
        hp.with_precision(bad)


def test_guard_minimum():
    with pytest.raises(hp.PrecisionError):
        hp.PrecisionContext(digits=50, guard_digits=5)


def test_pi_against_published(ctx50):
    with ctx50.scoped():
        assert abs(hp.const_pi(ctx50) - mpf(PI_60)) < ctx50.tolerance()


def test_pi_against_machin(ctx50):
    # independent oracle: Machin's arctan formula evaluated by series
    with ctx50.scoped():
        def atan_inv(n):
            acc = mpf(0)
            term = mpf(1) / n
            n2 = n * n
            j = 0
            while abs(term) > mpf(10) ** (-70):
                acc += term / (2 * j + 1) * (-1) ** j
                term /= n2
                j += 1
            return acc
        machin = 16 * atan_inv(5) - 4 * atan_inv(239)
        assert abs(hp.const_pi(ctx50) - machin) < ctx50.tolerance()


def test_euler_gamma_against_published(ctx50):
    with ctx50.scoped():
        assert abs(hp.const_euler_gamma(ctx50) - mpf(GAMMA_60)) < ctx50.tolerance()


def test_log_2pi(ctx50):
    with ctx50.scoped():
        assert abs(hp.const_log_2pi(ctx50) - mp.log(2 * hp.const_pi(ctx50))) < ctx50.tolerance()


def test_pi_rounds_at_15_digits():
    ctx = hp.with_precision(15)
    with ctx.scoped():
        assert mp.nstr(hp.const_pi(ctx), 15) == "3.14159265358979"


@settings(max_examples=40, deadline=None)
@given(st.floats(-1, 1, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
       st.floats(-1, 1, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
       st.integers(-10, 10), st.integers(-10, 10))
def test_add_sub_roundtrip(af, bf, ae, be):
    ctx = hp.with_precision(50)
    with ctx.scoped():
        a = mpf(af) * mpf(10) ** ae
        b = mpf(bf) * mpf(10) ** be
        assert abs(((a + b) - b) - a) <= abs(a) * ctx.tolerance(2)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1, 1, allow_nan=False).filter(lambda v: v != 0), st.integers(-25, 25))
def test_serialization_roundtrip_real(mant, e):
    ctx = hp.with_precision(50)
    with ctx.scoped():
        x = mpf(mant) * mpf(10) ** e
        s = hp.real_to_str(x, ctx)
        assert hp.real_from_str(s, ctx) == x
        assert "e" in s


def test_serialization_format(ctx50):
    s = hp.real_to_str(ctx50.mpf("-0.25"), ctx50)
    assert s == "-2.5e-01"
    z = ctx50.mpc(1, -2)
    zs = hp.complex_to_str(z, ctx50)
    assert zs == "1.0e+00 - 2.0e+00*i"
    assert hp.complex_from_str(zs, ctx50) == z


@settings(max_examples=25, deadline=None)
@given(st.floats(-1, 1).filter(lambda v: v != 0), st.floats(-1, 1).filter(lambda v: v != 0))
def test_serialization_roundtrip_complex(re, im):
    ctx = hp.with_precision(30)
    with ctx.scoped():
        z = ctx.mpc(re, im) / 3
        assert hp.complex_from_str(hp.complex_to_str(z, ctx), ctx) == z


def test_correct_rounding_at_working_precision(ctx50):
    # arithmetic error must sit at the working precision, far below digits
    wide = hp.with_precision(120)
    with wide.scoped():
        ref = mpf(1) / 3 + mpf(1) / 7
    with ctx50.scoped():
        got = mpf(1) / 3 + mpf(1) / 7
        assert abs(got - ref) < mpf(2) ** (2 - ctx50.prec_bits)
