"""Quadrature engine: line integrals, circle derivatives, kernel reductions."""

import pytest
from mpmath import mp, mpc, mpf

from conftest import fixed_to_mpc
from ztl import hp, mellin, special


def test_settings_require_c_above_one(ctx50):
    with pytest.raises(special.DomainError):
        mellin.line_settings(mpf(1) / 2)


def test_mellin_inversion_of_exp(ctx50):
    # (1/2 pi i) int Gamma(s) x^{-s} ds = e^{-x}
    with ctx50.scoped():
        st = mellin.line_settings(2)
        for x in (1, 5):
            f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=x)
            v = mellin.line_integral(f, st, ctx50)
            assert abs(v - mp.exp(-x)) < ctx50.tolerance(2)


def test_embedded_estimate_accepts_second_level(ctx50):
    # at h0 = 1/8 the first discrepancy is ~1e-44, so its square already
    # clears 1e-50: the h = 1/16 level is accepted without a confirming level
    with ctx50.scoped():
        st = mellin.line_settings(2)
        for x in (1, 5):
            f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=x)
            tr = []
            v = mellin.line_integral(f, st, ctx50, trace=tr)
            assert len(tr) == 2
            assert tr[0]["estimate"] is None and tr[1]["estimate"] is not None
            assert abs(v - mp.exp(-x)) < ctx50.tolerance(2)


def test_non_convergence_raises_with_last_values(ctx50, monkeypatch):
    monkeypatch.setattr(mellin, "_LINE_REFINE_LIMIT", 1)
    with ctx50.scoped():
        f = mellin.VerticalProduct(ctx50, gamma_power=1, neg_s_base=2)
        st = mellin.QuadratureSettings(c=mpf(2), h0=mpf(1) / 2)
        with pytest.raises(mellin.QuadratureError) as exc:
            mellin.line_integral(f, st, ctx50)
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
    st = mellin.QuadratureSettings(c=mpf(2), h0=mpf(1) / 8)
    tr = []
    special.clear_caches()
    try:
        with pytest.raises(mellin.QuadratureError):
            mellin.line_integral(_Notch(ctx30, gamma_power=1), st, ctx30, trace=tr)
    finally:
        special.clear_caches()
    assert tr[0]["t"] == 12.0
    with ctx30.scoped():
        assert abs(mpf(tr[0]["value"]) - mpf(183) / (16 * mp.pi)) < ctx30.tolerance()


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
        mellin.line_integral(f, mellin.line_settings(2), ctx30)


@pytest.mark.parametrize("base", [0, -3, mpc(2, 1)])
def test_vertical_product_rejects_a_base_that_is_not_positive(ctx30, base):
    # ln base must be real, or the integrand is not conjugate-symmetric and
    # line_integral's fold onto the upper half-line is wrong
    with pytest.raises(special.DomainError):
        mellin.VerticalProduct(ctx30, gamma_power=1, neg_s_base=base)


@pytest.mark.parametrize("p", [-2, -1, 1, 2])
def test_vertical_product_cos_powers(ctx50, p):
    # the stepped cos(pi s/2)^p against mpmath's, every sign of the power
    with ctx50.scoped():
        c, t0, dt = mpf(7) / 2, mpf(-3), mpf(3) / 4
        f = mellin.VerticalProduct(ctx50, cos_power=p)
        vals = fixed_to_mpc(f.eval_vertical(c, t0, dt, 12, dt))
        for u, v in enumerate(vals):
            ref = mp.cospi(mpc(c, t0 + u * dt) / 2) ** p
            assert abs(v - ref) <= ctx50.tolerance() * abs(ref)


@pytest.mark.parametrize("n", [1, 37, 96])
@pytest.mark.parametrize("digits", [30, 50, 80])
def test_fixed_line_chunk_keeps_its_guard_bits(digits, n):
    # the first n nodes of one 96-node chunk at each t0 of the k = 2, m = 1
    # fold product at rho = (2 pi e^0.3)^2 (n < 96: the partial chunk where a
    # level stops): the Horner sum scale * _chunk_sum against
    # sum P_j rho^-s_j from the same P_j, summed at twice the precision. The
    # gap measures below 34 * 2^-prec sum |v_j| at n = 1 and 18 at n = 37
    # and 96; the bound is 2^16 * 2^-prec sum |v_j|, which W = prec - 70
    # overshoots by more than 10^16
    ctx, wide = hp.with_precision(digits), hp.with_precision(2 * digits)
    special.clear_caches()
    with ctx.scoped():
        rho = (2 * mp.pi * mp.exp(mpf(3) / 10)) ** 2
        c, h, grid = mpf(5) / 2, mpf(1) / 16, mpf(1) / 8192
    f = mellin.VerticalProduct(ctx, zeta_factors=[(0, 1, 2), (3, 1, 2)], gamma_power=2,
                               cos_power=1, neg_s_base=rho)
    for t0 in (0, 6, 30):
        P, rot, scale = f.eval_vertical(c, t0, h, 96, grid)
        re, im = mellin._chunk_sum(P, n, rot)
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
