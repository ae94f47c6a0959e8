"""The precision contract: digits, guard digits, working precision and its scope."""

import pytest
from mpmath import mp, mpf

from ztl import hp

# published reference values (60 digits)
PI_60 = "3.14159265358979323846264338327950288419716939937510582097494"
GAMMA_60 = "0.577215664901532860606512090082402431042159335939923598805767"


def test_with_precision_echo():
    ctx = hp.with_precision(50)
    assert ctx.digits == 50
    assert ctx.working_dps == 65


def test_boundary_accepted():
    assert hp.with_precision(15).digits == 15


@pytest.mark.parametrize("bad", [10, 14, 0, -3])
def test_below_minimum_rejected(bad):
    with pytest.raises(hp.PrecisionError):
        hp.with_precision(bad)


# the scope's working precision gives mpmath's constants to ``digits``
def test_pi_against_published(ctx50):
    with ctx50.scoped():
        assert abs(+mp.pi - mpf(PI_60)) < ctx50.tolerance()


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
        assert abs(+mp.pi - machin) < ctx50.tolerance()


def test_euler_gamma_against_published(ctx50):
    with ctx50.scoped():
        assert abs(+mp.euler - mpf(GAMMA_60)) < ctx50.tolerance()


def test_pi_rounds_at_15_digits():
    ctx = hp.with_precision(15)
    with ctx.scoped():
        assert mp.nstr(+mp.pi, 15) == "3.14159265358979"


def test_correct_rounding_at_working_precision(ctx50):
    # arithmetic error must sit at the working precision, far below digits
    wide = hp.with_precision(120)
    with wide.scoped():
        ref = mpf(1) / 3 + mpf(1) / 7
    with ctx50.scoped():
        got = mpf(1) / 3 + mpf(1) / 7
        assert abs(got - ref) < mpf(2) ** (2 - ctx50.prec_bits)
