"""Each check here shows that it can fail: a small, plausible wrong program
(a mutant, applied by monkeypatch; the sources never change) must make the
main identity FAIL on at least one of three 30-digit cells that the
unpatched program passes, or, for an error below what a cell can see, fail
the registry check named in its test. The expected pattern names the cells
that catch it."""

from importlib import import_module

import pytest
from mpmath import mpf

from ztl import hp, mellin, special, identities as idn
from ztl.selftest import check_tapered_nodes_within_budget

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


def _fold_left_of_a_pole(monkeypatch):
    # the fold line at c = max(1, -2m) - 1/2, left of the zeta pole at
    # s = 1 or s = -2m that the right one keeps to its left
    def mutant(m):
        c = max(1, -2 * m) - 0.5
        return c, frozenset((c + 2 * m + 1, 1 - c))

    # the module: the package's name psi is the function
    monkeypatch.setattr(import_module("ztl.psi"), "fold_line", mutant)


def _coarse_taper(monkeypatch):
    # every tapered zeta run of a fold line 64 bits too coarse (16 at least)
    bits = mellin._run_bits

    def mutant(sigmas, t0, dt, count, prec):
        b = bits(sigmas, t0, dt, count, prec)
        return b if b == prec else max(16, b - 64)

    monkeypatch.setattr(mellin, "_run_bits", mutant)


@pytest.mark.parametrize("mutate,passed", [
    (None, [True, True, True]),
    (_flip_q1, [False, True, False]),
    (_scale_derivative, [False, False, False]),
    (_drop_last_coefficient, [False, False, False]),
    (_fold_left_of_a_pole, [False, False, False]),
], ids=["unpatched", "bernoulli-q1-sign", "derivative-scaled", "bernoulli-last-dropped",
        "fold-left-of-a-pole"])
def test_mutant_fails_a_main_cell(monkeypatch, mutate, passed):
    if mutate is not None:
        mutate(monkeypatch)
    special.clear_caches()
    ctx = hp.with_precision(DIGITS)
    reports = [idn.verify("main", k=k, m=m, theta=th, ctx=ctx) for k, m, th in CELLS]
    assert all(r.checked for r in reports)
    assert [r.passed for r in reports] == passed, [str(r) for r in reports]


def test_coarse_taper_fails_the_budget_check(monkeypatch):
    # the registry check mellin.tapered_nodes_within_budget catches it: its
    # worst node reads about 2^57 of its budget 2^-(prec+16) |P_k(0)|. No
    # 30-digit main cell does: that is still 2^-141 |P_k(0)| at 30 digits
    # (prec = 182), far below the cells' tolerance, and all three PASS
    _coarse_taper(monkeypatch)
    ok, detail = check_tapered_nodes_within_budget(hp.with_precision(50))
    assert not ok, detail
    special.clear_caches()
    ctx = hp.with_precision(DIGITS)
    reports = [idn.verify("main", k=k, m=m, theta=th, ctx=ctx) for k, m, th in CELLS]
    assert [r.passed for r in reports] == [True, True, True], [str(r) for r in reports]
