"""Each check here shows that it can fail: a small, plausible wrong program
(a mutant, applied by monkeypatch; the sources never change) must make the
main identity FAIL on at least one of three 30-digit cells that the
unpatched program passes, or, for an error that no cell can see, fail the
registry check named in its test. The expected pattern names the cells
that catch it."""

from importlib import import_module

import pytest
from mpmath import mpf

from ztl import hp, mellin, selftest, special, identities as idn
from ztl.selftest import (check_jets_match_circles, check_residue_assembly,
                          check_tapered_nodes_within_budget, check_zeta_run_paired)

DIGITS = 30
CELLS = ((1, 1, "0.3"), (2, -1, "0.3"), (3, 2, "1.0"))


@pytest.fixture(autouse=True)
def _clear_memos_after():
    # a mutant's values must not outlive its test in the memos
    yield
    special.clear_caches()


def _main_cells():
    special.clear_caches()
    ctx = hp.with_precision(DIGITS)
    return [idn.verify("main", k=k, m=m, theta=th, ctx=ctx) for k, m, th in CELLS]


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


def _patch_fold_poles(monkeypatch, edit):
    # identities and selftest bind psi.fold_poles by name; the memoized
    # table itself is never changed
    poles = import_module("ztl.psi").fold_poles
    for module in (idn, selftest):
        monkeypatch.setattr(module, "fold_poles", lambda k, m, ctx: edit(poles(k, m, ctx), m))


def _flip_reflected_pole(monkeypatch):
    # the sign of the pole table's jet at s = -2m
    _patch_fold_poles(monkeypatch, lambda table, m: tuple(
        (p, order, [-c for c in jet]) if p == -2 * m else (p, order, jet)
        for p, order, jet in table))


def _drop_last_simple_pole(monkeypatch):
    # the pole table's last entry left out when it is a simple pole:
    # s = -2m-1 for m >= 1, s = 1 at m = -1
    _patch_fold_poles(monkeypatch, lambda table, m: table[:-1] if table[-1][1] == 1 else table)


def _em_tail_one_short(sre, sims, are, aim, w, nres, nims, N, J, ratios, W, prec, excess):
    # special._em_tail, except that the first term below the stop test is
    # left out instead of added before the loop breaks
    one = 1 << W
    nmag = max(w * w * (nres[0] * nres[0] + nims[0] * nims[0]), 1)
    N2 = N * N
    a = sre - one
    out = []
    for u, sim in enumerate(sims):
        nre, nim = w * nres[u], w * nims[u]
        den = a * a + sim * sim
        ere = ((N * a) << (2 * W)) // den + (one >> 1)
        eim = ((-N * sim) << (2 * W)) // den
        vre = are[u] + ((nre * ere - nim * eim) >> W)
        vim = aim[u] + ((nre * eim + nim * ere) >> W)
        lim = ((vre * vre + vim * vim) << (2 * (W - prec - 8))) // nmag >> 2 * excess
        p2 = (sre * sre - sim * sim) >> W
        ps = (2 * sre * sim) >> W
        tre, tim = sre // (12 * N), sim // (12 * N)
        sumre, sumim = 0, 0
        for j in range(1, J + 1):
            if tre * tre + tim * tim < lim:
                break
            sumre += tre
            sumim += tim
            if j == J:
                break
            qre = p2 + (4 * j - 1) * sre + (2 * j - 1) * 2 * j * one
            qim = ps + (4 * j - 1) * sim
            r = ratios[j - 1]
            tre, tim = (((tre * qre - tim * qim) * r >> 2 * W) // N2,
                        ((tre * qim + tim * qre) * r >> 2 * W) // N2)
        vre += (nre * sumre - nim * sumim) >> W
        vim += (nre * sumim + nim * sumre) >> W
        out.append(special._from_fixed(vre, vim, W, prec))
    return out


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
    reports = _main_cells()
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
    reports = _main_cells()
    assert [r.passed for r in reports] == [True, True, True], [str(r) for r in reports]


def test_reflected_pole_sign_fails_the_table_checks(monkeypatch):
    # both registry checks read the s = -2m entry and FAIL: at 30 digits
    # the assembly residuals reach 2.4 and the circles a relative gap of 2.
    # The main cells read only the s = 0 entry, and all three PASS
    _flip_reflected_pole(monkeypatch)
    ctx = hp.with_precision(DIGITS)
    for check in (check_residue_assembly, check_jets_match_circles):
        ok, detail = check(ctx)
        assert not ok, detail
    reports = _main_cells()
    assert [r.passed for r in reports] == [True, True, True], [str(r) for r in reports]


def test_missing_simple_pole_fails_the_assembly(monkeypatch):
    # (1, 1) and (3, -1) miss a residue; jets_match_circles compares each
    # listed pole with its circle and so cannot see a missing one
    _drop_last_simple_pole(monkeypatch)
    ok, detail = check_residue_assembly(hp.with_precision(DIGITS))
    assert not ok, detail


def test_short_em_tail_fails_the_paired_runs_at_30_digits(monkeypatch):
    # the Euler-Maclaurin tail stopped one term early. At 30 digits the
    # paired-run gap, about 2.7e-55, exceeds its bound 2^-prec; at 50
    # digits, where pytest runs that registry entry, the gap stays inside
    # its bound and the check PASSes, as do all three main cells
    monkeypatch.setattr(special, "_em_tail", _em_tail_one_short)
    ok, detail = check_zeta_run_paired(hp.with_precision(30))
    assert not ok, detail
    ok, detail = check_zeta_run_paired(hp.with_precision(50))
    assert ok, detail
    reports = _main_cells()
    assert [r.passed for r in reports] == [True, True, True], [str(r) for r in reports]
