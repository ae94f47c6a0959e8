"""Each check here shows that it can fail: a small, plausible wrong program
(a mutant, applied by monkeypatch; the sources never change) must make the
main identity FAIL on at least one of three 30-digit cells that the
unpatched program passes. The expected pattern names the cells that catch
it."""

import pytest
from mpmath import mpf

from ztl import hp, special, identities as idn

DIGITS = 30
CELLS = ((1, 1, "0.3"), (2, -1, "0.3"), (3, 2, "1.0"))


def _flip_q1(monkeypatch):
    # the sign of Q_1 in the Bernoulli block; m = -1 has Q_0 alone
    coeffs = idn.bernoulli_block_coeffs

    def mutant(k, m):
        q = coeffs(k, m)
        return q[:1] + [-q[1]] + q[2:] if len(q) > 1 else q

    monkeypatch.setattr(idn, "bernoulli_block_coeffs", mutant)


def _scale_derivative(monkeypatch):
    # the derivative term off by 10^-(digits-15), relative
    term = idn.derivative_term

    def mutant(k, m, rho, ctx):
        with ctx.scoped():
            return term(k, m, rho, ctx) * (1 + mpf(10) ** -(ctx.digits - 15))

    monkeypatch.setattr(idn, "derivative_term", mutant)


def _drop_last_coefficient(monkeypatch):
    # the j = m + 1 term of the Bernoulli block left out
    coeffs = idn.bernoulli_block_coeffs
    monkeypatch.setattr(idn, "bernoulli_block_coeffs", lambda k, m: coeffs(k, m)[:-1])


@pytest.mark.parametrize("mutate,passed", [
    (None, [True, True, True]),
    (_flip_q1, [False, True, False]),
    (_scale_derivative, [False, False, False]),
    (_drop_last_coefficient, [False, False, False]),
], ids=["unpatched", "bernoulli-q1-sign", "derivative-scaled", "bernoulli-last-dropped"])
def test_mutant_fails_a_main_cell(monkeypatch, mutate, passed):
    if mutate is not None:
        mutate(monkeypatch)
    special.clear_caches()
    ctx = hp.with_precision(DIGITS)
    reports = [idn.verify("main", k=k, m=m, theta=th, ctx=ctx) for k, m, th in CELLS]
    assert all(r.checked for r in reports)
    assert [r.passed for r in reports] == passed, [str(r) for r in reports]
