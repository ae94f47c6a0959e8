"""Vertical-line Mellin-Barnes quadrature, the one vertical-line integrand
``VerticalProduct`` that every line integral of the package builds, and the
Cauchy-circle derivative operator (the independent route that the Taylor-jet
residue terms of ``identities`` are checked against).

``line_integral(f, c, ctx, h0=1/8)`` integrates a ``VerticalProduct`` f,
and nothing else, over Re(s) = c, sums the upper half-line only (the
product is real on the real axis), and returns (value, estimate).

Both quadratures use the plain trapezoid rule, which is spectrally accurate
for analytic integrands that decay exponentially (line) or are periodic
(circle), and refine by node doubling; a line level reads the previous
level's nodes again from the product memo and sums them anew.

Stopping rule: the trapezoid error on a strip or annulus of analyticity
behaves like C*exp(-2 pi d/h) on a line and C*rho^M on a circle, so it
squares each time the nodes double (Trefethen & Weideman, SIAM Rev. 56,
2014). The discrepancy disc = |I_fine - I_coarse| measures the error of the
coarser value, and the finer value's error is about disc^2/C. With
scale = max(|value|, 10^-5) <= C this gives the embedded estimate
est = disc^2/scale, which can only over-state the error (Bailey, Jeyabalan &
Li, Exp. Math. 14, 2005; mpmath's ``quadrature.estimate_error``).
Refinement stops once est <= 10^-digits * scale.

That bound covers only the discretization. One truncation rule, read off
the integrand, ends every level of a line: the half-line stops at the fifth
node in a row past t = 5 below 10^-digits * max(10^-5, |ref|)/10, where ref
is the previous level's value or, on the first level, the level's running
sum, read again at each chunk of ``special._RUN_CHUNK`` nodes.

Precision follows the integrand: a fold line's cold zeta runs are computed
at the bits that keep each node within 2^-(prec+16) of the line's node at
t = 0, from a rigorous bound on the product that holds for every k <= 4
(``_run_bits`` and the block comment before it), so a level stays within
2^-prec of that node, as its mpc arithmetic already does. Every other line,
and every direct ``VerticalProduct._product_run`` call, runs at the
context's precision.

One driver, ``_refine``, runs the levels of both quadratures: it records
every level's step, applies the stopping rule, returns the accepted value
with its estimate, registers the steps with the ``--trace`` sink (where
the value, discrepancy and estimate are mpf strings, which keep exponents
a float would underflow to 0.0) and raises ``QuadratureError`` carrying
them. ``line_integral`` and ``cauchy_derivative`` only compute a level's
value; a line's level is an exact sum of Horner chunk sums of fixed-point
ints by index.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from math import isqrt
from operator import itemgetter

from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from .hp import PrecisionContext
from . import special

__all__ = [
    "QuadratureError", "VerticalProduct", "line_integral", "cauchy_derivative", "psi_kernel",
]

# floor of the scale in the stopping rule of both quadratures
_ABS_FLOOR = mpf("1e-5")
# first step of a line integral, halved on refinement
_H0 = mpf(1) / 8
# doublings a vertical line or a Cauchy circle may take past its first level
_LINE_REFINE_LIMIT = 10
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


def _refine(kind: str, head: dict, limit: int, rel, level, trace: list | None):
    """Run levels 0..limit of a node-doubling quadrature and return
    (value, estimate) of the first accepted level: the stopping rule of the
    module docstring, the estimate its mpf disc^2/scale.
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
            step["discrepancy"], step["estimate"] = str(disc), str(est)
            done = est <= rel * scale
        steps.append(step)
        if done:
            return val, est
        prev = val
    hint = " (a singularity may lie inside the circle)" if kind == "circle" else ""
    raise QuadratureError(
        f"{kind} quadrature did not converge within {limit} refinements{hint}",
        trace=steps)


# ---------------------------------------------------------------------------
# the precision of a fold line's cold zeta runs
#
# A fold line (``psi.dual_product`` with m) carries the product
# P_k(t) = zeta^k(a + s) zeta^k(1 - s) / cos(pi s/2) at s = c + it. By the
# functional equation zeta(1 - s) = 2 (2 pi)^-s cos(pi s/2) Gamma(s) zeta(s)
# (DLMF 25.4.2), |P_k| = [2 (2 pi)^-c |zeta(a + s) zeta(s) Gamma(s)|]^k
# |cos(pi s/2)|^(k-1). For a half-integer c > 1 and a + c > 1:
#   |zeta(sigma + it)| <= zeta(sigma)                  (sigma > 1),
#   |Gamma(c + it)|^2 = pi/cosh(pi t) prod_j ((j + 1/2)^2 + t^2), j < c - 1/2,
#   |cos(pi (c + it)/2)|^2 = 1/2 + sinh^2(pi t/2) = cosh(pi t)/2,
# so every k has |P_k(t)| <= U(t) |P_k(0)| with
#   U(t) = prod_j (1 + t^2/(j + 1/2)^2)^(K/2) / sqrt(cosh(pi t)),  K >= k,
# no zeta value and no rho in it. _TAPER_K = 4 is the largest k of the
# acceptance and README grids; a line of larger k runs at full precision.
# A zeta value at p bits is within 2^(3-p) of zeta, relatively (the kernel's
# promise; the registry check special.zeta_run_paired), so P_k, a product of
# 2k <= 8 of them, is within 2^(6-p) |P_k| (1 + 2^-57) once p >= 64. A run at
# p = prec + _TAPER_G + 7 + ceil(log2 max U) (at most prec, at least 64) thus
# keeps every node within 2^-(prec+_TAPER_G) |P_k(0)|, and a level summing
# up to 2^_TAPER_G nodes within 2^-prec |P_k(0)|: P_k(0) is one of its
# nodes, so that is inside the 2^-prec sum |P_u| its mpc arithmetic already
# costs. Production levels sum a few thousand nodes, so _TAPER_G = 16.
# The precision depends on the abscissa pair, the t-range and prec only,
# never on k, rho or the line reading it, so lines of one abscissa pair
# (k = 1 and 2 of one m, every rho) still share their zeta runs.
_TAPER_K = 4
_TAPER_G = 16
_TAPER_FLOOR = 64


def _log2_bound(c: float, lo: float, hi: float) -> float:
    """log2 of max U(t) over lo <= |t| <= hi: its product grows with |t| and
    cosh(pi t) does too, so the product at hi over the cosh at lo."""
    x = math.pi * lo
    log2_cosh = (x + math.log1p(math.exp(-2 * x)) - math.log(2)) / math.log(2)
    grow = sum(math.log2(1 + hi * hi / (j + 0.5) ** 2) for j in range(int(c - 0.5)))
    return _TAPER_K / 2 * grow - log2_cosh / 2


def _run_bits(sigmas, t0, dt, count: int, prec: int) -> int:
    """The precision of a fold line's zeta run at the abscissa pair
    (a + c, 1 - c), t = t0 + u dt for u < count: prec, lowered by the block
    comment's rule where c is a half-integer > 1 and a + c > 1."""
    s1, c = float(sigmas[0]), 1 - float(sigmas[1])
    if not (s1 > 1 and c > 1 and (c - 0.5).is_integer()):
        return prec
    ends = float(t0), float(t0 + (count - 1) * dt)
    lo = 0.0 if min(ends) <= 0 <= max(ends) else min(map(abs, ends))
    need = prec + _TAPER_G + 7 + math.ceil(_log2_bound(c, lo, max(map(abs, ends))))
    return max(_TAPER_FLOOR, min(prec, need))


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
    ``psi_kernel``, its nodes from the scalar memo. Of base^{-s}, base^{-c}
    rides on the chunk's scale, and of the rotation e^{-it ln base} the step z
    and z^_RUN_CHUNK are handed back, for ``_chunk_sum`` to sum a chunk by
    Horner's rule in z: a known node costs one int complex multiply. A
    fold line of k <= _TAPER_K (zeta factors (a, 1, k) and (1, -1, k),
    cos power -1) fills its missing nodes by ``_tapered_run``, its zeta run
    at the precision ``_run_bits`` gives the run.

    A base that is not a finite positive real raises DomainError: with it,
    the product is real on the real axis, the premise of ``line_integral``.
    """

    def __init__(self, ctx, zeta_factors=(), gamma_power=0, cos_power=0,
                 neg_s_base=1):
        self.ctx = ctx
        self.zeta_factors = tuple(zeta_factors)   # (shift a, eps, power)
        self.gamma_power = gamma_power
        self.cos_power = cos_power
        with ctx.scoped():
            base = mp.mpmathify(neg_s_base)
            if not (isinstance(base, mpf) and base > 0 and mp.isfinite(base)):
                raise special.DomainError(f"the base must be a positive real, got {base}")
            self.ln_base = mp.log(base)
        # (c, dn, grid) -> (line, rot, {shift: scale}); no bound method, whose cycle pins lines
        self._lines: dict = {}

        # a fold line of k <= _TAPER_K fills its cold nodes by _tapered_run
        self._tapers = (gamma_power == 0 and cos_power == -1 and len(self.zeta_factors) == 2
                        and self.zeta_factors[0][1] == 1
                        and self.zeta_factors[1] == (1, -1, self.zeta_factors[0][2])
                        and self.zeta_factors[0][2] <= _TAPER_K)

    def eval_vertical(self, c, n0, dn, count, grid):
        """(P, rot, scale): the value at c + it, t = (n0 + u dn) grid, u < count,
        is scale * P[u] * base^{-it}, P[u] the line's (re, im) ints; c and grid
        are mpf, n0 and dn ints. rot = (W, z, z^_RUN_CHUNK), z = base^{-i dn grid}
        as (re, im) ints with W fractional bits, looked up once per (c, dn, grid)
        with the line and scale: known nodes make no mpmath call. Missing
        nodes of a fold line come from ``_tapered_run``, of any other line
        from ``_product_run``."""
        key = c._mpf_, dn, grid._mpf_
        state = self._lines.get(key)
        if state is None:
            line = special._PRODUCT_MEMO.setdefault(
                (self.zeta_factors, self.gamma_power, self.cos_power, c._mpf_,
                 self.ctx.prec_bits, grid._mpf_), special.FixedLine(self.ctx.prec_bits))
            with self.ctx.scoped():
                steps = [self._rotation(n * dn * grid, line.W) for n in (1, special._RUN_CHUNK)]
            state = self._lines[key] = line, (line.W, *steps), {}
        line, rot, scales = state
        out = list(map(line.nodes.get, range(n0, n0 + count * dn, dn)))
        if None in out or line.shift not in scales:
            with self.ctx.scoped():
                run = self._tapered_run if self._tapers else self._product_run
                line.fill(out, partial(run, c), n0, dn, grid)
                if line.shift not in scales:   # set by the line's first nonzero node
                    scales[line.shift] = mp.exp(-c * self.ln_base) * line.unit()
        return out, rot, scales[line.shift]

    def _rotation(self, t, W):
        """e^{-i t ln base} as fixed-point ints with W fractional bits."""
        re, im = mp.expj(-t * self.ln_base)._mpc_
        return to_fixed(re, W), to_fixed(im, W)

    def _tapered_run(self, c, t0, dt, count):
        """``_product_run`` of a fold line, its zeta run at the precision
        ``_run_bits`` gives the run's abscissa pair and t-range."""
        sigmas = (self.zeta_factors[0][0] + c, 1 - c)
        return self._product_run(c, t0, dt, count,
                                 bits=_run_bits(sigmas, t0, dt, count, self.ctx.prec_bits))

    def _product_run(self, c, t0, dt, count, *, bits=None):
        """P at c + i(t0 + u dt), u < count. Every zeta factor rides one
        vertical run, at ``bits`` of precision (the context's by default):
        zeta(a - s) is the conjugate of zeta(a - c + it), and the abscissas
        a + eps c differ by integers (c is a half-integer)."""
        vals = [mpc(1)] * count
        if self.zeta_factors:
            runs = special.zeta_vertical_run(
                tuple(a + eps * c for (a, eps, _) in self.zeta_factors), t0, dt, count, self.ctx,
                bits=bits)
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


def _chunk_sum(P, n, rot):
    """sum_{u<n} P[u] seed z^u as (re, im) ints in P's units, by Horner's rule
    in z: rot = (W, seed, z), (re, im) ints with W fractional bits. Every
    step is a three-multiply complex product, exact but for its >> W."""
    W, (sr, si), (zr, zi) = rot
    zsum, zdif = zr + zi, zi - zr
    qr, qi = P[n - 1]
    for pr, pi in reversed(P[:n - 1]):
        k = zr * (qr + qi)
        qr, qi = ((k - qi * zsum) >> W) + pr, ((k + qr * zdif) >> W) + pi
    k = sr * (qr + qi)
    return (k - qi * (sr + si)) >> W, (k + qr * (si - sr)) >> W


def _tail_scan(P, lo, thr, consec):
    """(stop, consec): the node of P[lo:] where pr^2 + pi^2 < thr holds for the
    fifth time in a row, counting ``consec`` carried in, or None, and the
    count carried out. No node passes if no |pr| <= isqrt(thr - 1)."""
    if consec == 0 and not any(map(isqrt(thr - 1).__ge__, map(abs, map(itemgetter(0), P[lo:])))):
        return None, 0
    for u in range(lo, len(P)):
        pr, pi = P[u]
        consec = consec + 1 if pr * pr + pi * pi < thr else 0
        if consec == 5:
            return u, consec
    return None, consec


def line_integral(f: VerticalProduct, c, ctx: PrecisionContext,
                  *, h0=_H0, trace: list | None = None) -> tuple[mpf, mpf]:
    """(value, estimate): value is (1/2 pi i) * integral of the
    VerticalProduct ``f`` over Re(s) = c, estimate the accepted level's
    embedded error estimate disc^2/scale (the module docstring), as mpf.

    Every factor of ``f`` is real on the real axis and its base is positive,
    so f(c - it) is the conjugate of f(c + it): the lower half-line folds
    exactly onto the upper one, and the result is h/(2 pi) times
    f(c) + 2 Re sum_{j >= 1} f(c + ijh). Level i reads the nodes j dn, step
    h0/2^i = dn grid, grid = h0/2^_LINE_REFINE_LIMIT. A level sums
    fixed-point ints exactly (``special.FixedLine`` bounds their rounding by
    2^-(prec+24) of the line's first nonzero node, below the 2^-prec
    sum |v_j| of mpc arithmetic also on a line that cancels) and scales the
    sum once; a fold line's tapered nodes (``_run_bits``) add at most
    2^-prec of its node at t = 0 to a level of up to 2^_TAPER_G nodes,
    inside the same sum |v_j| bound. The chunk from node j sums by Horner's
    rule in z = base^{-ih} from the seed z^j, the previous chunk's seed
    times z^_RUN_CHUNK. The
    tail test of the module docstring ends each level, on the base-free ints
    as pr^2 + pi^2 < (eps/scale)^2 (|base^{-it}| = 1), so no node past the
    stop is rotated; its step records that last height t.
    Raises DomainError, before any node is read, for a product that does not
    decay like e^(-pi t/2) (gamma_power - cos_power < 1), and
    QuadratureError when _LINE_REFINE_LIMIT halvings are exhausted.
    """
    if f.gamma_power - f.cos_power < 1:
        raise special.DomainError(f"a line product needs gamma_power - cos_power >= 1, "
                                  f"got {f.gamma_power} - {f.cos_power}")
    with ctx.scoped():
        c = mpf(c)
        rel = mpf(10) ** (-ctx.digits)
        grid = h0 / 2 ** _LINE_REFINE_LIMIT
        chunk = special._RUN_CHUNK

        def level(i, prev):
            h = h0 / 2 ** i
            dn = 1 << (_LINE_REFINE_LIMIT - i)
            w = h / (2 * mp.pi)
            jtail = int(5 / h) + 1
            P, (W, z, zchunk), scale = f.eval_vertical(c, 0, dn, 1, grid)
            total, consec, j, thr, seed = P[0][0], 0, 1, None, z
            while True:
                P, _, sc = f.eval_vertical(c, j * dn, dn, chunk, grid)
                if thr is None or sc is not scale or prev is None:
                    # a line's scale changes only while all its ints are 0;
                    # level 0 has no previous value and reads its running sum
                    scale = sc
                    ref = abs(w * scale * total) if prev is None else abs(prev)
                    thr = int(mp.ceil((rel * max(_ABS_FLOOR, ref) / 10 / scale) ** 2))
                stop, consec = _tail_scan(P, max(0, jtail - j), thr, consec)
                total += 2 * _chunk_sum(P, chunk if stop is None else stop + 1, (W, seed, z))[0]
                if stop is not None:
                    return w * (scale * total), {"h": float(h), "t": float((j + stop) * h)}
                (sr, si), (zr, zi) = seed, zchunk      # seed *= z^chunk
                k = zr * (sr + si)
                seed = (k - si * (zr + zi)) >> W, (k + sr * (zi - zr)) >> W
                j += chunk

        return _refine("line", {"c": float(c)}, _LINE_REFINE_LIMIT, rel, level, trace)


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

        return _refine("circle", {"order": order}, _CIRCLE_REFINE_LIMIT, rel, level, trace)[0]


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
        f = VerticalProduct(ctx, gamma_power=k, cos_power=k - 1, neg_s_base=z)
        return line_integral(f, mpf(5) / 2, ctx)[0]
