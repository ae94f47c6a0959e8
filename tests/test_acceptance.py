"""Acceptance gate: every criterion at its stated tolerance, one test (and
one printed pass/fail line) per criterion. All run at digits=50.

Run with ``pytest tests/test_acceptance.py -v`` (add -s to see the summary
lines while running).
"""

import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

from ztl import mellin, selftest, special, identities as idn
from ztl.identities import IdentityParams
from ztl.psi import PsiRequest, SeriesRequest, psi, series_L

pytestmark = pytest.mark.acceptance

ENTRIES = {f"{module}.{name}": fn for module, name, fn, _ in selftest.CHECKS}


def _line(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}  {detail}")


GRID_K = (1, 2, 3, 4)
GRID_M = (-2, -1, 1, 2)
GRID_THETA = ("0", "0.3", "1.0")


def test_criterion_1_main_identity_grid(ctx50):
    """48 (k, m, theta) cases, rel_residual < 1e-30, < 30 s each, < 600 s total.
    The 8 cases at theta = 0 with even m compare nothing and must say so
    (checked=False); the other 40 must pass."""
    t0 = time.perf_counter()
    worst = mpf(0)
    slowest = 0.0
    failures = []
    checked = 0
    for k in GRID_K:
        for m in GRID_M:
            for th in GRID_THETA:
                with ctx50.scoped():
                    r = idn.verify_main(IdentityParams(k=k, m=m, theta=mpf(th)), ctx50)
                worst = max(worst, r.rel_residual)
                slowest = max(slowest, r.elapsed)
                if not (r.rel_residual < mpf(10) ** -30):
                    failures.append((k, m, th, mp.nstr(r.rel_residual, 3)))
                vacuous = th == "0" and m % 2 == 0
                if r.checked == vacuous or not (vacuous or r.passed):
                    failures.append((k, m, th, f"checked={r.checked} passed={r.passed}"))
                checked += r.checked
                assert r.elapsed < 30, f"case k={k} m={m} theta={th} took {r.elapsed:.1f}s"
    total = time.perf_counter() - t0
    ok = not failures and total < 600
    _line(1, ok, f"48 cases, {checked} checked, {48 - checked} no check, "
                 f"worst residual {mp.nstr(worst, 3)}, "
                 f"slowest case {slowest:.1f}s, total {total:.0f}s")
    assert not failures, failures
    assert checked == 40
    assert total < 600


def test_criterion_2_reduction_to_classical(ctx50):
    """k=1 assembled sides equal the Lambert-series sides within 1e-30."""
    worst = mpf(0)
    for m in (-2, -1, 1, 2, 3):
        for th in ("0", "0.5"):
            with ctx50.scoped():
                a = idn.verify_main(IdentityParams(k=1, m=m, theta=mpf(th)), ctx50)
                b = idn.verify_ramanujan_classical(m, mpf(th), ctx50)
                # a cell at theta = 0 with even m reports NO CHECK, never a pass
                assert (a.passed, b.passed) == (a.checked, b.checked)
                worst = max(worst, abs(a.lhs - b.lhs), abs(a.rhs - b.rhs))
    ok = worst < mpf(10) ** -30
    _line(2, ok, f"10 parameter points, worst side difference {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_3_reduction_to_squared_zeta(ctx50):
    """k=2: the literal Bessel-sum identity and the assembled one both pass,
    and their lhs agree within 1e-25 under the factor-2 kernel convention."""
    worst = mpf(0)
    for m in (1, -1):
        for th in ("0", "0.3"):
            with ctx50.scoped():
                a = idn.verify_dixit(m, mpf(th), ctx50)
                b = idn.verify_main(IdentityParams(k=2, m=m, theta=mpf(th)), ctx50)
                assert a.passed and b.passed
                worst = max(worst, abs(a.lhs - 2 * b.lhs))
    ok = worst < mpf(10) ** -25
    _line(3, ok, f"worst |literal - 2*assembled| = {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_4_lerch_value(ctx50):
    """k=1, m=1 combination equals 4 pi^3 (7/720) = 7 pi^3/180 within 1e-30
    (the identities.lerch_value entry, whose pass_tolerance is 1e-30 at
    digits=50), and the lerch (1, 1) cell passes."""
    props_ok, detail = ENTRIES["identities.lerch_value"](ctx50)
    cell_ok = idn.verify_lerch_general(1, 1, ctx50).passed
    ok = props_ok and cell_ok
    _line(4, ok, f"{detail}; lerch (1, 1) cell passed={cell_ok}")
    assert ok


def test_criterion_5_quasimodular_constant(ctx50):
    """k=1, theta=0: sum n/(e^{2 pi n}-1) = 1/24 - 1/(8 pi) within 1e-30."""
    with ctx50.scoped():
        r = idn.verify_quasimodular(1, mpf(0), ctx50)
        assert r.passed
        s = series_L(SeriesRequest(rho=2 * mp.pi, k=1, m=-1), ctx50).value
        res = abs(s - (mpf(1) / 24 - 1 / (8 * mp.pi)))
    ok = res < mpf(10) ** -30
    _line(5, ok, f"|sum - (1/24 - 1/(8 pi))| = {mp.nstr(res, 3)}")
    assert ok


def test_criterion_6_eta_suite(ctx50):
    """eta for k in {1,2,3}, theta in {0.2, 0.7}; k=1 rhs closed form."""
    worst = mpf(0)
    closed_res = None
    for k in (1, 2, 3):
        for th in ("0.2", "0.7"):
            with ctx50.scoped():
                r = idn.verify_eta(k, mpf(th), ctx50)
                worst = max(worst, r.rel_residual)
                assert r.passed, f"eta k={k} theta={th}: {r.rel_residual}"
                if k == 1:
                    alpha = mp.pi * mp.exp(mpf(th))
                    beta = mp.pi / mp.exp(mpf(th))
                    closed = (beta - alpha) / 12 + mp.log(alpha / beta) / 4
                    res = abs(r.rhs - closed)
                    closed_res = res if closed_res is None else max(closed_res, res)
    ok = worst < mpf(10) ** -30 and closed_res < mpf(10) ** -30
    _line(6, ok, f"worst residual {mp.nstr(worst, 3)}, "
                 f"k=1 closed-form gap {mp.nstr(closed_res, 3)}")
    assert ok


def test_criterion_7_psi_strategy_equivalence(ctx50):
    """k in {1,2} on the 3x3 (rho, x) grid: inverse_mellin vs closed_form
    agree within 1e-42."""
    worst = mpf(0)
    with ctx50.scoped():
        grid = (mpf(1), 2 * mp.pi, mpf(10))
        for k in (1, 2):
            for rho in grid:
                for x in grid:
                    a = psi(PsiRequest(rho=rho, k=k, x=x, strategy="closed_form"), ctx50)
                    b = psi(PsiRequest(rho=rho, k=k, x=x, strategy="inverse_mellin"), ctx50)
                    worst = max(worst, abs(a.value - b.value))
    ok = worst < mpf(10) ** -42
    _line(7, ok, f"18 grid points, worst |difference| = {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_8_residue_machinery(ctx50):
    """Shifted-line self-duality and the full residue assembly for
    k in {1,2}, m = +-1, within 1e-42."""
    worst_dual = mpf(0)
    worst_asm = mpf(0)
    with ctx50.scoped():
        for k in (1, 2):
            for m in (1, -1):
                rho = (2 * mp.pi * mp.exp(mpf("0.3"))) ** k
                lhs, rhs = idn.self_duality_check(k, m, rho, ctx50)
                worst_dual = max(worst_dual, abs(lhs - rhs))
                al, ar = idn.residue_assembly_check(k, m, rho, ctx50)
                worst_asm = max(worst_asm, abs(al - ar))
    ok = worst_dual < mpf(10) ** -42 and worst_asm < mpf(10) ** -42
    _line(8, ok, f"self-duality worst {mp.nstr(worst_dual, 3)}, "
                 f"assembly worst {mp.nstr(worst_asm, 3)}")
    assert ok


def test_criterion_9_special_function_suites(ctx50):
    """The reflection, duplication, functional-equation and even-zeta
    registry properties pass at digits=50; zeta'(0) within 1e-45."""
    results = [(name, *ENTRIES[name](ctx50)) for name in (
        "special.gamma_reflection", "special.gamma_duplication",
        "special.zeta_functional_equation", "special.euler_even_zeta")]
    props_ok = all(passed for _, passed, _ in results)
    with ctx50.scoped():
        zp = mellin.cauchy_derivative(lambda s: special.zeta(s, ctx50), 1, ctx50)
        zres = abs(zp + mp.log(2 * mp.pi) / 2)
        zp_ok = zres < mpf(10) ** -45
    ok = props_ok and zp_ok
    _line(9, ok, "; ".join(f"{name}: {detail}" for name, _, detail in results)
          + f"; zeta'(0) residual {mp.nstr(zres, 3)}")
    assert ok


def test_criterion_10_deterministic_sweep(tmp_path):
    """Two consecutive identical sweep runs produce byte-identical CSV."""
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "ztl.cli", "sweep", "--identity",
             "ramanujan,quasimodular", "--k", "1", "--m", "1,-1",
             "--theta", "0,0.5", "--digits", "30", "--out", str(out), "--jobs", "2"],
            capture_output=True, text=True).returncode
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _line(10, ok, f"{len(outs[0])} bytes, identical={ok}")
    assert ok


def test_criterion_1_cold_case_bound(ctx50):
    """Criterion 1's 30 s per-case bound holds on an empty memo for the grid's
    slowest family, (k, m, theta) = (3, -1, 1.0), not only when earlier cases
    have warmed the zeta and Gamma memos."""
    special.clear_caches()
    with ctx50.scoped():
        r = idn.verify_main(IdentityParams(k=3, m=-1, theta=mpf("1.0")), ctx50)
    _line("1-cold", r.elapsed < 30, f"(3, -1, 1.0) on a cleared memo took {r.elapsed:.1f}s")
    assert r.rel_residual < mpf(10) ** -30
    assert r.elapsed < 30, f"cold case took {r.elapsed:.1f}s"
