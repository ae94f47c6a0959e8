"""Quadrature engine: line integrals, circle derivatives, kernel reductions."""

import gc
import weakref
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from conftest import fixed_to_mpc
from ztl import hp, identities, mellin, special


def test_mellin_inversion_of_exp(ctx50):
    # (1/2 pi i) int Gamma(s) x^{-s} ds = e^{-x}
    with ctx50.scoped():
        for x in (1, 5):
            f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=x)
            v, _ = mellin.line_integral(f, 2, ctx50)
            assert abs(v - mp.exp(-x)) < ctx50.tolerance(2)


def test_embedded_estimate_accepts_second_level(ctx50):
    # at h0 = 1/8 the first discrepancy is ~1e-44, so its square already
    # clears 1e-50: the h = 1/16 level is accepted without a confirming level
    with ctx50.scoped():
        for x in (1, 5):
            f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=x)
            tr = []
            v, est = mellin.line_integral(f, 2, ctx50, trace=tr)
            assert len(tr) == 2
            assert tr[0]["estimate"] is None and tr[1]["estimate"] == str(est)
            assert isinstance(est, mpf) and est <= ctx50.tolerance(0) * abs(v)
            assert abs(v - mp.exp(-x)) < ctx50.tolerance(2)


def test_trace_keeps_an_estimate_below_the_float_range():
    # levels 1 and 1 + 10^-200 at 800 bits: disc = 10^-200 and
    # est = disc^2/scale = 10^-400, which a float would read as 0.0
    with mp.workprec(800):
        tr = []
        val, est = mellin._refine("line", {}, 1, mpf(10) ** -300,
                                  lambda i, prev: (1 + mpf(10) ** -200 * i, {}), tr)
        assert mpf("1e-401") < est < mpf("1e-399") and float(est) == 0.0
        for key, want in (("discrepancy", abs(val - 1)), ("estimate", est)):
            assert abs(mpf(tr[1][key]) / want - 1) < mpf(10) ** -200


def test_non_convergence_raises_with_last_values(ctx50, monkeypatch):
    monkeypatch.setattr(mellin, "_LINE_REFINE_LIMIT", 1)
    with ctx50.scoped():
        f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=2)
        with pytest.raises(mellin.QuadratureError) as exc:
            mellin.line_integral(f, 2, ctx50, h0=mpf(1) / 2)
        # with no trace list passed and no sink installed, the error still
        # carries every level
        steps = exc.value.trace
        assert [t["h"] for t in steps] == [0.5, 0.25]
        assert all(mpf(t["value"]) > 0 for t in steps)
        # the tail test ended both levels past t = 5
        assert all(t["t"] > 5 for t in steps)


def test_cauchy_polynomial(ctx50):
    with ctx50.scoped():
        v = mellin.cauchy_derivative(lambda s: s ** 3, 3, ctx50)
        assert abs(v - 6) < ctx50.tolerance(2)


def test_cauchy_exponential(ctx50):
    with ctx50.scoped():
        v = mellin.cauchy_derivative(lambda s: mp.exp(2 * s), 4, ctx50)
        assert abs(v - 16) < ctx50.tolerance(2)


def test_cauchy_zeta_prime_at_zero(ctx50):
    # zeta'(0) = -(1/2) log(2 pi); also checked by a finite-difference oracle
    with ctx50.scoped():
        v = mellin.cauchy_derivative(lambda s: special.zeta(s, ctx50), 1, ctx50)
        assert abs(v + mp.log(2 * mp.pi) / 2) < mpf(10) ** -45

    wide = hp.with_precision(70)
    with wide.scoped():
        h = mpf(10) ** -17
        d1 = (special.zeta(h, wide) - special.zeta(-h, wide)) / (2 * h)
        d2 = (special.zeta(h / 2, wide) - special.zeta(-h / 2, wide)) / h
        fd = (4 * d2 - d1) / 3          # one Richardson step
    with ctx50.scoped():
        assert abs(v - fd) < mpf(10) ** -45


def test_cauchy_detects_singularity_near_contour(ctx30):
    # a pole hugging the circle keeps successive estimates from agreeing
    with ctx30.scoped():
        with pytest.raises(mellin.QuadratureError) as exc:
            mellin.cauchy_derivative(lambda s: 1 / (s - mpf("0.2499")), 1, ctx30)
        assert "singularity may lie inside the circle" in str(exc.value)


def test_circle_first_level_node_floor(ctx50):
    # the first level has max(64, 8(order+1)) nodes
    with ctx50.scoped():
        for order, nodes in ((0, 64), (12, 104)):
            tr = []
            mellin.cauchy_derivative(mp.exp, order, ctx50, trace=tr)
            assert tr[0]["M"] == nodes


class _Notch(mellin.VerticalProduct):
    """A fake product: 1 on the line, but 0 for 23/2 <= t <= 12. Its
    gamma_power = 1 admits it to line_integral; its nodes are not Gamma's."""

    def _product_run(self, c, t0, dt, count):
        return [mpc(0) if mpf(23) / 2 <= t0 + u * dt <= 12 else mpc(1) for u in range(count)]


def test_line_stops_when_a_chunk_ends_the_tail(ctx30, monkeypatch):
    # nodes t = j/8, j = 92..96, are 0: the fifth small node ends the first
    # 96-node chunk, and the half-line must stop there. The fake shares its
    # memo key with Gamma(s) on the same line, so the memo is cleared
    # around it
    monkeypatch.setattr(mellin, "_LINE_REFINE_LIMIT", 0)
    tr = []
    special.clear_caches()
    try:
        with pytest.raises(mellin.QuadratureError):
            mellin.line_integral(_Notch(ctx30, gamma_power=1), 2, ctx30, trace=tr)
    finally:
        special.clear_caches()
    assert tr[0]["t"] == 12.0
    with ctx30.scoped():
        assert abs(mpf(tr[0]["value"]) - mpf(183) / (16 * mp.pi)) < ctx30.tolerance()


def _plain_scan(P, lo, thr, consec):
    # the tail test node by node, with no prefilter
    for u in range(lo, len(P)):
        pr, pi = P[u]
        if pr * pr + pi * pi < thr:
            consec += 1
            if consec == 5:
                return u, consec
        else:
            consec = 0
    return None, consec


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tail_scan_prefilter_is_exact(data):
    # _tail_scan passes over a chunk without its per-node loop when no
    # |pr| <= isqrt(thr - 1); its stop and carried count must be those of the
    # plain loop, over chains of chunks that carry consec from one to the next
    thr = data.draw(st.one_of(st.just(1), st.integers(1, 10 ** 40)), label="thr")
    r = isqrt(thr - 1)
    coord = st.one_of(st.sampled_from([0, r - 1, r, r + 1, -r - 1, -r, 1 - r]),
                      st.integers(-2 * r - 2, 2 * r + 2))
    consec = data.draw(st.integers(0, 4), label="consec")
    for _ in range(data.draw(st.integers(1, 3), label="chunks")):
        P = data.draw(st.lists(st.tuples(coord, coord), max_size=96), label="P")
        lo = data.draw(st.integers(0, 100), label="lo")
        got = mellin._tail_scan(P, lo, thr, consec)
        assert got == _plain_scan(P, lo, thr, consec)
        if got[0] is not None:
            break
        consec = got[1]


def test_warm_cell_rotations_do_not_grow_with_chunks(monkeypatch):
    # after the theta-scan workload's warm-up cells, a (2, 1) 50-digit main
    # cell computes base^{-ih} and base^{-96ih} once per line and level
    # (2 lines, 2 levels each): the chunk seeds come by recurrence, so the
    # count does not grow with the chunks read
    ctx = hp.with_precision(50)
    special.clear_caches()
    try:
        for theta in ("1.0", "0.05"):
            identities.verify("main", k=2, m=1, theta=theta, ctx=ctx)
        calls = {"_rotation": 0, "eval_vertical": 0}
        for name in calls:
            def counted(*a, _fn=getattr(mellin.VerticalProduct, name), _name=name):
                calls[_name] += 1
                return _fn(*a)
            monkeypatch.setattr(mellin.VerticalProduct, name, counted)
        nodes = len(special._ZLINE_MEMO)
        identities.verify("main", k=2, m=1, theta="-0.7", ctx=ctx)
        assert len(special._ZLINE_MEMO) == nodes      # the cell was warm
    finally:
        special.clear_caches()
    assert calls["_rotation"] <= 8 < 4 * calls["_rotation"] < calls["eval_vertical"]


def test_cold_line_is_freed_without_the_cyclic_gc(ctx30):
    # a product's per-line memo holds no bound method of the product, so
    # clear_caches() and dropping the product free its line by reference
    # counting alone
    special.clear_caches()
    gc.disable()
    try:
        f = mellin.VerticalProduct(ctx30, gamma_power=1, neg_s_base=3)
        mellin.line_integral(f, 2, ctx30)
        (line,) = special._PRODUCT_MEMO.values()
        ref = weakref.ref(line)
        del line
        special.clear_caches()
        del f
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("powers", [{}, {"cos_power": 1}])
def test_line_rejects_a_product_that_does_not_decay(ctx30, monkeypatch, powers):
    # with gamma_power - cos_power < 1 the product does not fall like
    # e^(-pi t/2), and the tail test could never end the half-line: the
    # integral refuses before it reads a node
    def no_nodes(*a, **kw):
        raise AssertionError("eval_vertical called")
    f = mellin.VerticalProduct(ctx30, **powers)
    monkeypatch.setattr(f, "eval_vertical", no_nodes)
    with pytest.raises(special.DomainError):
        mellin.line_integral(f, 2, ctx30)


@pytest.mark.parametrize("base", [0, -3, mpc(2, 1), mp.inf, mp.nan])
def test_vertical_product_rejects_a_base_that_is_not_positive(ctx30, base):
    # ln base must be real, or the integrand is not conjugate-symmetric and
    # line_integral's fold onto the upper half-line is wrong; base = inf
    # would make the chunk scale 0
    with pytest.raises(special.DomainError):
        mellin.VerticalProduct(ctx30, gamma_power=1, neg_s_base=base)


@pytest.mark.parametrize("p", [-2, -1, 1, 2])
def test_vertical_product_cos_powers(ctx50, p):
    # the stepped cos(pi s/2)^p against mpmath's, every sign of the power
    with ctx50.scoped():
        c, dt = mpf(7) / 2, mpf(3) / 4
        f = mellin.VerticalProduct(ctx50, cos_power=p)
        vals = fixed_to_mpc(f, c, -4, 1, 12, dt)
        for u, v in enumerate(vals):
            ref = mp.cospi(mpc(c, (u - 4) * dt) / 2) ** p
            assert abs(v - ref) <= ctx50.tolerance() * abs(ref)


@pytest.mark.parametrize("n", [1, 37, 96])
@pytest.mark.parametrize("digits", [30, 50, 80])
def test_fixed_line_chunk_keeps_its_guard_bits(digits, n):
    # the first n nodes of one 96-node chunk at each t0 of the k = 2, m = 1
    # fold product at rho = (2 pi e^0.3)^2 (n < 96: the partial chunk where a
    # level stops): the Horner sum scale * _chunk_sum from the seed z^j,
    # j = t0/h, built by line_integral's recurrence, against
    # sum P_j rho^-s_j from the same P_j, summed at twice the precision. The
    # gap measures below 12 * 2^-prec sum |v_j| in every case; the bound is
    # 2^16 * 2^-prec sum |v_j|, which W = prec - 70 overshoots by more than
    # 10^16
    ctx, wide = hp.with_precision(digits), hp.with_precision(2 * digits)
    special.clear_caches()
    with ctx.scoped():
        rho = (2 * mp.pi * mp.exp(mpf(3) / 10)) ** 2
        c, h, grid = mpf(5) / 2, mpf(1) / 16, mpf(1) / 8192
    f = mellin.VerticalProduct(ctx, zeta_factors=[(0, 1, 2), (3, 1, 2)], gamma_power=2,
                               cos_power=1, neg_s_base=rho)
    dn = 512    # h / grid
    _, (W, z, zchunk), _ = f.eval_vertical(c, 0, dn, 1, grid)
    seed_at = {0: (1 << W, 0)}      # j -> z^j, each seed the previous one times z^96
    for j in range(96, 6 * 96, 96):
        seed_at[j] = mellin._chunk_sum([zchunk], 1, (W, seed_at[j - 96], z))
    for t0 in (0, 6, 30):
        j0 = int(t0 / h)
        P, _, scale = f.eval_vertical(c, j0 * dn, dn, 96, grid)
        re, im = mellin._chunk_sum(P, n, (W, seed_at[j0], z))
        with ctx.scoped():
            P = f._product_run(c, mpf(t0), h, n)
        with wide.scoped():
            v = [p * mp.exp(-mpc(c, t0 + j * h) * f.ln_base) for j, p in enumerate(P)]
            gap = abs(scale * mpc(re, im) - mp.fsum(v))
            assert gap < mp.ldexp(mp.fsum(abs(x) for x in v), 16 - ctx.prec_bits), t0


# ---------------------------------------------------------------------------
# kernel reductions


def test_kernel_k1_is_exponential(ctx50):
    with ctx50.scoped():
        z = mpf(7) / 3
        assert abs(mellin.psi_kernel(1, z, ctx50) - mp.exp(-z)) < ctx50.tolerance(5)


def test_kernel_k2_is_bessel_pair(ctx50):
    with ctx50.scoped():
        z = mpf(7) / 3
        pair = 2 * special.bessel_k0(2 * mp.expjpi(mpf(1) / 4) * mp.sqrt(z), ctx50).real
        assert abs(mellin.psi_kernel(2, z, ctx50) - pair) < ctx50.tolerance(5)


def test_kernel_k2_quarter_circle_argument(ctx50):
    # 2 Re K0(4 e^{i pi/4} sqrt(t)) at t=1 equals the k=2 kernel at z=4t
    with ctx50.scoped():
        pair = 2 * special.bessel_k0(4 * mp.expjpi(mpf(1) / 4), ctx50).real
        assert abs(mellin.psi_kernel(2, 4, ctx50) - pair) < ctx50.tolerance(5)


def test_kernel_large_z_is_negligible(ctx30):
    with ctx30.scoped():
        for k in (1, 3):
            assert abs(mellin.psi_kernel(k, mpf(10) ** 5, ctx30)) < ctx30.tolerance()
