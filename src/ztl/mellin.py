"""Vertical-line Mellin-Barnes quadrature, the one vertical-line integrand
``VerticalProduct`` that every line integral of the package builds, and the
Cauchy-circle derivative operator (the independent route that the Taylor-jet
residue terms of ``identities`` are checked against).

``line_integral`` takes a ``VerticalProduct`` and nothing else, and sums
the upper half-line only: the product is real on the real axis.

Both quadratures use the plain trapezoid rule, which is spectrally accurate
for analytic integrands that decay exponentially (line) or are periodic
(circle), and refines by node doubling so earlier evaluations are never
wasted.

Stopping rule: the trapezoid error on a strip or annulus of analyticity
behaves like C*exp(-2 pi d/h) on a line and C*rho^M on a circle, so it
squares each time the nodes double (Trefethen & Weideman, SIAM Rev. 56,
2014). The discrepancy disc = |I_fine - I_coarse| measures the error of the
coarser value, and the finer value's error is about disc^2/C. With
scale = max(|value|, 10^-5) <= C this gives the embedded estimate
est = disc^2/scale, which can only over-state the error (Bailey, Jeyabalan &
Li, Exp. Math. 14, 2005; mpmath's ``quadrature.estimate_error``).
Refinement stops once est <= 10^-digits * scale.

One driver, ``_refine``, runs the levels of both quadratures: it records
every level's step, applies the stopping rule, registers the steps with the
``--trace`` sink and raises ``QuadratureError`` carrying them.
``line_integral`` and ``cauchy_derivative`` only compute a level's value; a
line's level is an exact sum of fixed-point ints on an int node index.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from .hp import PrecisionContext
from . import special

__all__ = [
    "QuadratureError", "QuadratureSettings",
    "line_settings", "lambda_line_settings",
    "VerticalProduct", "line_integral", "cauchy_derivative",
    "meijer_g_psi_kernel", "psi_kernel",
]

# floor of the scale in the stopping rule of both quadratures
_ABS_FLOOR = mpf("1e-5")
# doublings a Cauchy circle may take past its first level
_CIRCLE_REFINE_LIMIT = 7

# optional diagnostics: when a list is installed here, every quadrature
# appends {"kind": ..., "steps": [...]} to it
_TRACE_SINK: list | None = None


@contextmanager
def trace_sink(enabled: bool):
    """Yield the list every quadrature of the block appends its refinement
    trace to, or None when tracing is off. The sink is removed on exit, also
    when the block raises, so it never leaks into the next computation."""
    global _TRACE_SINK
    _TRACE_SINK = [] if enabled else None
    try:
        yield _TRACE_SINK
    finally:
        _TRACE_SINK = None


class QuadratureError(ArithmeticError):
    """Refinement limit exhausted before the embedded error estimate met the
    tolerance; ``trace`` holds the steps of every level."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class QuadratureSettings:
    """Trapezoid on the vertical line Re(s)=c, step h0 (halved on refinement),
    truncation cap T (grown 1.5x on refinement). A level is accepted when
    the embedded estimate disc^2/scale is at most 10^-digits * scale, where
    scale = max(|value|, 1e-5); at most refine_limit halvings."""

    c: mpf
    h0: mpf
    T: mpf
    refine_limit: int = 10


def _truncation_height(digits: int, poly_power: float) -> mpf:
    # smallest T with e^(-pi T/2) T^p < 10^-(digits+5)
    target = (digits + 5) * math.log(10)
    T = max(8.0, 2 * target / math.pi)
    for _ in range(6):
        T = (2 / math.pi) * (target + poly_power * math.log(T))
    return mpf(math.ceil(T))


def line_settings(ctx: PrecisionContext, c, poly_power: float = 2.0) -> QuadratureSettings:
    """Settings for a production line integral, from h = 1/8; requires c > 1
    (the strip in which every integrand here is analytic up to its leftmost
    kept pole)."""
    c = mpf(c)
    if not c > 1:
        raise special.DomainError(f"line abscissa must satisfy c > 1, got {c}")
    return QuadratureSettings(c=c, h0=mpf(1) / 8, T=_truncation_height(ctx.digits, poly_power))


def lambda_line_settings(ctx: PrecisionContext, lam, poly_power: float = 4.0) -> QuadratureSettings:
    """Settings for the negative-abscissa line used only by the self-duality
    cross-check; analyticity strip there is ~1/2 wide, so start at h=1/32."""
    return QuadratureSettings(c=mpf(lam), h0=mpf(1) / 32,
                              T=_truncation_height(ctx.digits, poly_power))


def _refine(kind: str, head: dict, limit: int, rel, level, trace: list | None):
    """Run levels 0..limit of a node-doubling quadrature and return the
    first accepted value (the stopping rule of the module docstring).
    ``level(i, prev)`` gives level i's value and its step fields; ``prev`` is
    the previous value or None. Every level appends a step to ``trace`` (a
    fresh list when None), which the trace sink gets as well; the
    QuadratureError raised when no level is accepted carries the steps."""
    steps = [] if trace is None else trace
    if _TRACE_SINK is not None:
        _TRACE_SINK.append({"kind": kind, **head, "steps": steps})
    prev = None
    for i in range(limit + 1):
        val, fields = level(i, prev)
        step = {**fields, "value": str(val), "discrepancy": None, "estimate": None}
        done = False
        if prev is not None:
            disc = abs(val - prev)
            scale = max(_ABS_FLOOR, abs(val))
            est = disc * disc / scale
            step["discrepancy"], step["estimate"] = float(disc), float(est)
            done = est <= rel * scale
        steps.append(step)
        if done:
            return val
        prev = val
    hint = " (a singularity may lie inside the circle)" if kind == "circle" else ""
    raise QuadratureError(
        f"{kind} quadrature did not converge within {limit} refinements{hint}",
        trace=steps)


# ---------------------------------------------------------------------------
# line integral

class VerticalProduct:
    """prod_i zeta(a_i + eps_i s)^{k_i} * Gamma(s)^g * cos(pi s/2)^p * base^{-s}
    evaluated on equispaced nodes of a vertical line.

    The base-free product P (zeta powers, Gamma^g, cos^p) is the same for
    every base: the alpha and beta sides of an identity, every theta of a
    scan, every psi kernel of a term sum. ``special._PRODUCT_MEMO`` keeps it
    as one ``special.FixedLine`` per line (zeta factors, g, p, c, precision,
    grid): fixed-point ints by node index. Missing nodes are computed in
    maximal equispaced runs: all zeta factors ride one memoized vertical run
    (an eps = -1 factor by conjugation), cos advances by one multiply per
    node at 16 extra bits. Lines that carry zeta factors are Gamma-free
    (``psi.dual_product``); Gamma^g serves the Meijer-G kernel
    ``psi_kernel``, its nodes from the scalar memo. Of base^{-s}, the
    rotation e^{-it ln base} is seeded once per chunk and advances by one
    fixed-point complex multiply per node, and base^{-c} rides on the
    chunk's scale: a known node costs two int complex multiplies.

    A base that is not a positive real raises DomainError: with it, the
    product is real on the real axis, the premise of ``line_integral``.
    """

    def __init__(self, ctx, zeta_factors=(), gamma_power=0, cos_power=0,
                 neg_s_base=1):
        self.ctx = ctx
        self.zeta_factors = tuple(zeta_factors)   # (shift a, eps, power)
        self.gamma_power = gamma_power
        self.cos_power = cos_power
        with ctx.scoped():
            base = mp.mpmathify(neg_s_base)
            if not (isinstance(base, mpf) and base > 0):
                raise special.DomainError(f"the base must be a positive real, got {base}")
            self.ln_base = mp.log(base)
        self._fixed: dict = {}   # dt -> rotation step; (c, shift) -> scale

    def eval_vertical(self, c, t0, dt, count, grid):
        """(re, im, scale): the value at c + i(t0 + u dt), u < count, is
        scale * (re[u] + i im[u]). t0 and dt are multiples of ``grid``,
        whose int multiples index the line's products."""
        ctx = self.ctx
        with ctx.scoped():
            c, t0, dt, grid = mpf(c), mpf(t0), mpf(dt), mpf(grid)
            line = self._line((self.zeta_factors, self.gamma_power, self.cos_power,
                               c._mpf_, ctx.prec_bits, grid._mpf_))
            vals = line.read(partial(self._product_run, c), t0, dt, count, grid)
            W, memo = line.W, self._fixed
            if dt._mpf_ not in memo:
                sr, si = self._rotation(dt, W)
                memo[dt._mpf_] = sr, sr + si, si - sr
            sr, ssum, sdif = memo[dt._mpf_]
            zr, zi = self._rotation(t0, W)
            re, im = [], []
            for pr, pi in vals:   # three-multiply complex products, exact
                k = zr * (pr + pi)
                re.append((k - pi * (zr + zi)) >> W)
                im.append((k + pr * (zi - zr)) >> W)
                k = sr * (zr + zi)
                zr, zi = (k - zi * ssum) >> W, (k + zr * sdif) >> W
            if (c._mpf_, line.shift) not in memo:
                memo[c._mpf_, line.shift] = mp.exp(-c * self.ln_base) * line.unit()
            return re, im, memo[c._mpf_, line.shift]

    def _line(self, key):
        return special._PRODUCT_MEMO.setdefault(key, special.FixedLine(self.ctx.prec_bits))

    def _rotation(self, t, W):
        """e^{-i t ln base} as fixed-point ints with W fractional bits."""
        re, im = mp.expj(-t * self.ln_base)._mpc_
        return to_fixed(re, W), to_fixed(im, W)

    def _product_run(self, c, t0, dt, count):
        """P at c + i(t0 + u dt), u < count. Every zeta factor rides one
        vertical run: zeta(a - s) is the conjugate of zeta(a - c + it), and
        the abscissas a + eps c differ by integers (c is a half-integer)."""
        vals = [mpc(1)] * count
        if self.zeta_factors:
            runs = special.zeta_vertical_run(
                tuple(a + eps * c for (a, eps, _) in self.zeta_factors), t0, dt, count, self.ctx)
            for (_, eps, power), run in zip(self.zeta_factors, runs):
                for u in range(count):
                    v = run[u] if eps == 1 else run[u].conjugate()
                    vals[u] *= v ** power
        if self.gamma_power:
            g = self.gamma_power
            for u in range(count):
                s = mpc(c, t0 + u * dt)
                vals[u] *= special.gamma(s, self.ctx) ** g
        if self.cos_power:
            # cos(pi s/2) = cos(pi c/2) cosh(pi t/2) - i sin(pi c/2) sinh(pi t/2),
            # at 16 extra bits: rounding pi t/2 costs about pi t/2 ulps of e^(pi t/2)
            p = self.cos_power
            with mp.extraprec(16):
                cc = mp.cospi(c / 2)
                ss = mp.sinpi(c / 2)
                e = mp.exp(mp.pi * t0 / 2)
                estep = mp.exp(mp.pi * dt / 2)
                cos_run = []
                for u in range(count):
                    ei = 1 / e
                    cosv = mpc(cc * (e + ei) / 2, -ss * (e - ei) / 2)
                    cos_run.append(cosv ** p if p > 0 else 1 / cosv ** -p)
                    e = e * estep
            vals = [v * w for v, w in zip(vals, cos_run)]
        return vals


def line_integral(f: VerticalProduct, settings: QuadratureSettings, ctx: PrecisionContext,
                  *, trace: list | None = None) -> mpf:
    """(1/2 pi i) * integral of the VerticalProduct ``f`` over Re(s) = c.

    Every factor of ``f`` is real on the real axis and its base is positive,
    so f(c - it) is the conjugate of f(c + it): the lower half-line folds
    exactly onto the upper one, and the result is h/(2 pi) times
    f(c) + 2 Re sum_{j >= 1} f(c + ijh). Level i has step h0/2^i and cap
    T (3/2)^i; every node is an int multiple of grid = h0/2^refine_limit. A
    level sums fixed-point ints exactly (``special.FixedLine`` bounds their
    rounding by 2^-(prec+24) of the line's first nonzero node, below the
    2^-prec sum |v_j| of mpc arithmetic also on a line that cancels) and
    scales the sum once. The half-line stops after 5 consecutive nodes past
    t = 5 with |v| < eps, tested on ints as re^2 + im^2 < (eps/scale)^2.
    Raises QuadratureError when refine_limit is exhausted.
    """
    with ctx.scoped():
        c = settings.c
        rel = mpf(10) ** (-ctx.digits)
        grid = settings.h0 / 2 ** settings.refine_limit

        def level(i, prev):
            h = settings.h0 / 2 ** i
            T = settings.T * (mpf(3) / 2) ** i
            jmax, jtail = int(T / h), int(5 / h) + 1
            eps = rel * max(_ABS_FLOOR, abs(prev) if prev is not None else _ABS_FLOOR) / 10
            re, _, scale = f.eval_vertical(c, mpf(0), h, 1, grid=grid)
            total, thr, consec = re[0], None, 0
            for j in range(1, jmax + 1, special._RUN_CHUNK):
                count = min(special._RUN_CHUNK, jmax - j + 1)
                re, im, sc = f.eval_vertical(c, j * h, h, count, grid=grid)
                if thr is None or sc != scale:
                    # a line's scale changes only while all its ints are 0
                    scale, thr = sc, int(mp.ceil((eps / sc) ** 2))
                stop = count
                for u in range(max(0, jtail - j), count):
                    x = re[u] * re[u]
                    if x < thr and x + im[u] * im[u] < thr:
                        consec += 1
                        if consec == 5:
                            stop = u + 1
                            break
                    else:
                        consec = 0
                total += 2 * sum(re[:stop])
                if consec == 5:
                    break
            return (h / (2 * mp.pi)) * (scale * total), {"h": float(h), "T": float(T)}

        return _refine("line", {"c": float(c)}, settings.refine_limit, rel, level, trace)


# ---------------------------------------------------------------------------
# Cauchy-circle derivative

def cauchy_derivative(f, order: int, ctx: PrecisionContext,
                      *, trace: list | None = None):
    """f^(order)(0) = order!/(2 pi i) * contour integral of f(s)/s^(order+1)
    over the circle of radius 1/4, inside which f must be analytic, via an M-point trapezoid from M = max(64, 8(order+1))
    nodes, M doubled until the embedded estimate disc^2/scale of the finer
    value is at most 10^-digits * scale (see the module docstring)."""
    if order < 0:
        raise special.DomainError("derivative order must be >= 0")
    with ctx.scoped():
        r = mpf(1) / 4
        rel = mpf(10) ** (-ctx.digits)
        fac = mp.factorial(order) / r ** order
        terms: list = []        # the current level's f(a + r w) w^-order

        def term(j, M):
            w = mp.expjpi(mpf(2 * j) / M)
            return f(r * w) * w ** (-order)

        def level(i, prev):
            M = max(64, 8 * (order + 1)) << i
            # the even nodes are the previous level's
            terms[:] = ([term(j, M) for j in range(M)] if i == 0 else
                        [t for j in range(M // 2) for t in (terms[j], term(2 * j + 1, M))])
            return fac / M * mp.fsum(terms), {"M": M}

        return _refine("circle", {"order": order}, _CIRCLE_REFINE_LIMIT, rel, level, trace)


# ---------------------------------------------------------------------------
# reduced Meijer G kernel for the generalized Koshliakov function

def psi_kernel(k: int, z, ctx: PrecisionContext):
    """(1/2 pi i) * integral of Gamma^k(s) cos^{k-1}(pi s/2) z^{-s} ds, z > 0.

    This is the per-term kernel of the generalized Koshliakov series:
    k=1 gives e^{-z}, k=2 gives K_0(2 e^{i pi/4} sqrt(z)) + conjugate.
    """
    with ctx.scoped():
        z = mpf(z)
        if not z > 0 or k < 1:
            raise special.DomainError("psi_kernel requires k >= 1 and z > 0")
        settings = line_settings(ctx, mpf(5) / 2, poly_power=2.0 * k)
        f = VerticalProduct(ctx, gamma_power=k, cos_power=k - 1, neg_s_base=z)
        return line_integral(f, settings, ctx)


def meijer_g_psi_kernel(k: int, z, ctx: PrecisionContext):
    """G^{k+1,0}_{0,2k}( (0)_k, 1/2; (1/2)_{k-1} | z^2 / 2^{2k} ) via the
    single-variable reduced line integral (never the raw 2k-factor form)."""
    with ctx.scoped():
        return 2 ** (k - 1) * mp.pi ** (1 - mpf(k) / 2) * psi_kernel(k, z, ctx)
