"""Scalar special functions and integer sequences.

Complex Gamma (mpmath's, behind a pole check and a memo), complex Riemann
zeta (Euler-Maclaurin at every abscissa), exact rational Bernoulli
numbers, modified Bessel K0 (its series and asymptotic sums in fixed
point), the Piltz divisor sieve, Lambert series, and
``sum_until_negligible``, the one adaptive truncation rule that every slowly
decaying series of the package stops by.

Three evaluation surfaces coexist:

* scalar ``gamma``/``zeta`` for arbitrary points (memoized, used for direct
  calls and Cauchy-circle nodes);
* ``zeta_vertical_run`` for equispaced nodes on a vertical line, where the
  Dirichlet powers n^{-s} advance by one fixed-point complex multiplication
  (four integer multiplies) per node. The quadrature engine spends nearly
  all its time here. Abscissas that differ by integers, such as zeta(s) and
  zeta(2m+1+s) on a fold line, share one pass: the largest abscissa's terms
  are rotated once, and each abscissa sigma_0 - d adds them with the exact
  int weight n^d, under ceil(d log2 N) more guard bits. The scalar zeta is
  the same kernel on one node and one abscissa. There is no
  functional-equation branch: left of 1 the kernel tightens its tail's
  stopping test, and a run entirely left of 1 carries more guard bits, by
  ceil((1 - sigma) log2 N) each.
* Taylor jets at s = 0 (``zeta_jet``, ``log_gamma1_jet`` and the
  ``series_*`` helpers), from which the identities' residue terms are read.

Every evaluation is memoized per node: Gamma and scalar zeta per point,
``zeta_vertical_run`` per (abscissa, t), and ``_PRODUCT_MEMO`` holds the
base-free products of ``mellin.VerticalProduct``, one ``FixedLine`` per
line: fixed-point (re, im) ints under one exponent for the line, keyed by
the int node index n of t = n * grid. ``_JET_MEMO`` holds the rho-free
residue jets. ``clear_caches`` empties all five.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from mpmath import bernfrac, mp, mpf, mpc
from mpmath.libmp import from_man_exp, log_int_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .hp import PrecisionContext

__all__ = [
    "PoleError", "DomainError",
    "bernoulli", "gamma", "zeta", "bessel_k0",
    "divisor_sieve", "sum_until_negligible", "lambert_series",
    "zeta_vertical_run", "zeta_jet", "log_gamma1_jet", "series_mul",
    "series_pow", "series_exp", "clear_caches",
]


class PoleError(ZeroDivisionError):
    """Evaluation requested exactly at a pole."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


# ---------------------------------------------------------------------------
# Bernoulli numbers, exact rationals

_BERN: list[Fraction] = [Fraction(1)]          # B_0, B_1, ... grows on demand


def _extend_bernoulli(n: int) -> None:
    # mpmath's exact B_j; the registry check special.bernoulli_recurrence
    # tests the table against sum_{j=0}^{m} C(m+1, j) B_j = 0
    _BERN.extend(Fraction(*bernfrac(j)) for j in range(len(_BERN), n + 1))


def bernoulli(N: int) -> tuple[Fraction, ...]:
    """The exact rationals (B_0, ..., B_N)."""
    if N < 0:
        raise DomainError("Bernoulli order bound must be >= 0")
    _extend_bernoulli(N)
    return tuple(_BERN[: N + 1])


def bernoulli_frac(n: int) -> Fraction:
    _extend_bernoulli(n)
    return _BERN[n]


# ---------------------------------------------------------------------------
# Gamma: mpmath's gamma behind the pole check and a memo

_GAMMA_MEMO: dict = {}


def _gamma_raw(s: mpc) -> mpc:
    sr = s.real
    if s.imag == 0 and sr == int(sr) and sr <= 0:
        raise PoleError(f"gamma pole at s={int(sr)}")
    return mp.gamma(s)


def gamma(s, ctx: PrecisionContext):
    """Gamma(s) to working precision; PoleError at non-positive integers."""
    with ctx.scoped():
        s = mpc(s)
        key = (s.real._mpf_, s.imag._mpf_, ctx.prec_bits)
        v = _GAMMA_MEMO.get(key)
        if v is None:
            v = _gamma_raw(s)
            _GAMMA_MEMO[key] = v
        return v.real if s.imag == 0 else v


# ---------------------------------------------------------------------------
# zeta: Euler-Maclaurin at every abscissa

_ZETA_MEMO: dict = {}


def _em_sizes(abs_s: float, prec: int) -> tuple[int, int]:
    """Pick (N, J) so the Euler-Maclaurin remainder is below 2^-(prec+8).

    Remainder behaves like ((|s| + 2J) / (2 pi N))^(2J); minimize the cost
    N + 3.2 J over a small grid of J. The weight 3.2 was fitted to an
    older mpf loop and is kept for the int kernel, whose time barely
    depends on it: ``_em_tail`` stops on its own term test, so J is only a
    cap. On a cold 50-digit (3, -1) fold line the 27 paired runs took
    0.70-1.28 s at weight 3.2, 0.61-1.25 s at 0.3 to 1.5 and 0.82-1.33 s
    at 6 (2 cores, python backend); the machine's drift was wider than the
    differences between weights.
    """
    target = (prec + 8) * math.log(2)
    best = None
    for J in range(10, 260, 6):
        # q^(2J) = e^-target  ->  q = e^(-target/(2J))
        q = math.exp(-target / (2 * J))
        N = int((abs_s + 2 * J + 1) / (2 * math.pi * q)) + 1
        cost = N + 3.2 * J
        if best is None or cost < best[0]:
            best = (cost, N, J)
    return best[1], best[2]


def _zeta_raw(s: mpc, prec: int) -> mpc:
    if s == 1:
        raise PoleError("zeta pole at s=1")
    if s == 0:
        return mpc(-0.5)
    if s.real < 0 and s.imag == 0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        return mpc(0)   # trivial zeros
    return _zeta_em_run((s.real,), s.imag, mpf(0), 1, prec)[0][0]


def zeta(s, ctx: PrecisionContext):
    """Riemann zeta(s) to working precision; PoleError at s=1."""
    with ctx.scoped():
        s = mpc(s)
        key = (s.real._mpf_, s.imag._mpf_, ctx.prec_bits)
        v = _ZETA_MEMO.get(key)
        if v is None:
            v = _zeta_raw(s, ctx.prec_bits)
            _ZETA_MEMO[key] = v
        return v.real if s.imag == 0 else v


# ---------------------------------------------------------------------------
# Taylor jets: truncated power series [c_0, ..., c_{n-1}] at s = 0, the
# residue terms of the identities. Call inside the caller's precision scope.

# ("derivative", k, m, prec) or ("eta", k, prec) -> rho-free jet; filled by
# the identities' residue terms
_JET_MEMO: dict = {}


def series_mul(a: list, b: list) -> list:
    """Product of two jets of one length, truncated to that length."""
    return [mp.fsum(a[i] * b[r - i] for i in range(r + 1)) for r in range(len(a))]


def series_pow(a: list, p: int) -> list:
    """a^p for an integer p >= 0."""
    out = [mpf(1)] + [mpf(0)] * (len(a) - 1)
    for _ in range(p):
        out = series_mul(out, a)
    return out


def series_exp(a: list) -> list:
    """exp(a), from b' = a'b: b_r = (1/r) sum_{j=1}^{r} j a_j b_{r-j}."""
    b = [mp.exp(a[0])]
    for r in range(1, len(a)):
        b.append(mp.fsum(j * a[j] * b[r - j] for j in range(1, r + 1)) / r)
    return b


def zeta_jet(a: int, n: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients zeta^(r)(a)/r!, r < n, of zeta(a + s)."""
    if a == 1:
        raise PoleError("zeta pole at s=1")
    with ctx.scoped():
        return [mp.zeta(a, 1, r) / mp.factorial(r) for r in range(n)]


def log_gamma1_jet(n: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients of log Gamma(1+s) = -euler s + sum_{r>=2}
    (-1)^r zeta(r) s^r / r (DLMF 5.7.3), r < n."""
    with ctx.scoped():
        return ([mpf(0), -mp.euler] + [(-1) ** r * mp.zeta(r) / r for r in range(2, n)])[:n]


# --------------------------------------------------------------------------
# zeta on equispaced vertical-line nodes
#
# For s_u = sigma + i(t0 + u*dt) the Dirichlet term n^{-s_u} equals
# n^{-s_0} * (n^{-i dt})^u, so a whole run costs one complex multiplication
# per (term, node) instead of one complex exponential. Runs are chunked so
# Euler-Maclaurin sizes track the local |t|; mellin.line_integral reads a
# line in chunks of the same _RUN_CHUNK nodes.

_ZLINE_MEMO: dict = {}
_RUN_CHUNK = 96

# (zeta factors, Gamma power, cos power, c, prec, grid) -> FixedLine of the
# base-free products; filled by mellin.VerticalProduct
_PRODUCT_MEMO: dict = {}


def zeta_vertical_run(sigma, t0, dt, count: int, ctx: PrecisionContext) -> list:
    """[zeta(sigma + i(t0 + u*dt)) for u in range(count)], memoized per node.

    ``sigma`` may be a tuple of abscissas that differ by integers; then the
    result is one such run per abscissa, from one shared Dirichlet pass. A
    run with any miss, at any abscissa, is computed whole, in pieces of
    _RUN_CHUNK nodes, and every abscissa's values are memoized under its own
    key, so a call returns the same values whichever nodes the memo already
    held. ``FixedLine.fill`` hands in only the missing nodes of a line, as
    maximal equispaced runs."""
    with ctx.scoped():
        prec = ctx.prec_bits
        sigmas = tuple(map(mpf, sigma)) if isinstance(sigma, tuple) else (mpf(sigma),)
        t0 = mpf(t0)
        dt = mpf(dt)
        skeys = [s._mpf_ for s in sigmas]
        tkeys = [(t0 + u * dt)._mpf_ for u in range(count)]
        out = [[_ZLINE_MEMO.get((skey, tk, prec)) for tk in tkeys] for skey in skeys]
        if any(None in run for run in out):
            for c0 in range(0, count, _RUN_CHUNK):
                runs = _zeta_em_run(sigmas, t0 + c0 * dt, dt, min(_RUN_CHUNK, count - c0), prec)
                for skey, run, vals in zip(skeys, out, runs):
                    for u, v in enumerate(vals, c0):
                        _ZLINE_MEMO[(skey, tkeys[u], prec)] = run[u] = v
        return out if isinstance(sigma, tuple) else out[0]


# The run kernel works in fixed point: a real x is the Python int
# floor(x * 2^W), as in mpmath's own zeta sums (libmp.gammazeta.mpc_zetasum).
# A product costs one int multiply and a shift, with none of the normalizing
# and rounding of an mpf/mpc operation. Abscissas sigma_0 - d_i share one
# Dirichlet pass over n^{-(sigma_0 + it)}, sigma_0 the largest, and each
# weights it by the exact int n^{d_i}. Truncation errors of the shared terms
# add up to at most ~2^17 units of 2^-W over a 96-node chunk of a few hundred
# terms, and the weights (at most N^d, d = max d_i) scale them by at most
# 2^ceil(d log2 N): W = prec + _GUARD + ceil(d log2 N) keeps every sum below
# the 2^-(prec+8) EM target, as W = prec + _GUARD does for one abscissa.
# Left of 1 the sums grow like N^(1 - sigma) while zeta stays small, so when
# even sigma_0 is below 1, W gains ceil((1 - sigma_0) log2 N) bits more; a
# fold pair (c + 2m + 1, 1 - c) has sigma_0 >= 5/2 and gains none. The EM
# tail divides by N^2 2^{2W} as a shift by 2W and a floor division by N^2,
# the same floor as one division by the (2W+14)-bit product.
_GUARD = 24
_EM_RATIO: dict[tuple[int, int], int] = {}     # (j, W) -> C_{j+1}/C_j, fixed


def _from_fixed(re: int, im: int, W: int, prec: int) -> mpc:
    """(re + i im) 2^-W rounded to prec bits."""
    return mp.make_mpc((from_man_exp(re, -W, prec, "n"), from_man_exp(im, -W, prec, "n")))


def _em_ratio(j: int, W: int) -> int:
    # C_j = B_2j/(2j)!, so C_{j+1}/C_j = B_{2j+2} / (B_2j (2j+1)(2j+2))
    key = (j, W)
    v = _EM_RATIO.get(key)
    if v is None:
        r = bernoulli_frac(2 * j + 2) / (bernoulli_frac(2 * j) * (2 * j + 1) * (2 * j + 2))
        v = (r.numerator << W) // r.denominator
        _EM_RATIO[key] = v
    return v


def _powers_fixed(N: int, x: int, y: int, W: int) -> tuple[list[int], list[int]]:
    """n^{-(x+iy)} for n <= N as fixed-point (re, im) lists indexed by n;
    exponentials on primes only, composites as products."""
    one = 1 << W
    re = [one] * (N + 1)
    im = [0] * (N + 1)
    spf = list(range(N + 1))                   # smallest prime factor
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for q in range(p * p, N + 1, p):
                if spf[q] == q:
                    spf[q] = p
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            lg = log_int_fixed(n, W)
            mag = exp_fixed(-x * lg >> W, W) if x else one
            c, s = cos_sin_fixed(-y * lg >> W, W)
            re[n] = mag * c >> W
            im[n] = mag * s >> W
        else:
            a, b, c, d = re[p], im[p], re[n // p], im[n // p]
            re[n] = (a * c - b * d) >> W
            im[n] = (a * d + b * c) >> W
    return re, im


def _zeta_em_run(sigmas: tuple, t0: mpf, dt: mpf, count: int, prec: int) -> list:
    """Euler-Maclaurin zeta at sigma + i(t0 + u*dt), u < count, one run per
    sigma in ``sigmas``: any abscissas that differ by integers, also left of
    the critical line. A 1-node call (dt unused) is the scalar evaluator."""
    s0 = max(sigmas)
    ds = [int(s0 - sigma) for sigma in sigmas]
    if any(s0 - sigma != d for sigma, d in zip(sigmas, ds)):
        raise DomainError("abscissas of one zeta run must differ by integers")
    tmax = abs(t0) if count == 1 else max(abs(t0), abs(t0 + (count - 1) * dt))
    abs_s = math.hypot(float(s0), float(tmax))
    N, J = _em_sizes(abs_s, prec)
    if N < 2:
        N = 2
    lg = math.log2(N)

    def excess(sigma):   # bits by which the sums outgrow zeta left of 1
        return math.ceil(max(0, 1 - float(sigma)) * lg)

    W = prec + _GUARD + math.ceil(max(ds) * lg) + excess(s0)
    one = 1 << W
    sim = to_fixed(t0._mpf_, W)
    dim = to_fixed(dt._mpf_, W)
    # Dirichlet sums 1 + sum_{2 <= n < N} n^{d_i} n^{-s_0 - it_u}, the shared
    # terms rotated by n^{-i dt} from node to node
    bre, bim = _powers_fixed(N, to_fixed(s0._mpf_, W), sim, W)
    if count > 1:
        cre, cim = _powers_fixed(N, 0, dim, W)   # step rotations n^{-i dt}
    acc = [([one] * count, [0] * count) for _ in ds]
    steps = range(count - 1)
    for n in range(2, N):
        xr, xi = bre[n], bim[n]
        xsr, xsi = [xr], [xi]
        if count > 1:
            yr, yi = cre[n], cim[n]
            for _ in steps:
                xr, xi = (xr * yr - xi * yi) >> W, (xr * yi + xi * yr) >> W
                xsr.append(xr)
                xsi.append(xi)
        for (are, aim), d in zip(acc, ds):
            if d:
                w = repeat(n ** d)
                are[:] = map(add, are, map(mul, xsr, w))
                aim[:] = map(add, aim, map(mul, xsi, w))
            else:
                are[:] = map(add, are, xsr)
                aim[:] = map(add, aim, xsi)
    # N^{-s_0} on every node; N^{-s_i} = N^{d_i} N^{-s_0}
    nres, nims = [bre[N]], [bim[N]]
    for _ in steps:
        nre, nim = nres[-1], nims[-1]
        nres.append((nre * cre[N] - nim * cim[N]) >> W)
        nims.append((nre * cim[N] + nim * cre[N]) >> W)
    sims = [sim + u * dim for u in range(count)]
    ratios = [_em_ratio(j, W) for j in range(1, J)]
    return [_em_tail(to_fixed(sigma._mpf_, W), sims, are, aim, N ** d, nres, nims, N, J,
                     ratios, W, prec, excess(sigma))
            for sigma, d, (are, aim) in zip(sigmas, ds, acc)]


def _em_tail(sre: int, sims: list, are: list, aim: list, w: int, nres: list, nims: list,
             N: int, J: int, ratios: list, W: int, prec: int, excess: int) -> list:
    """Add the Euler-Maclaurin tail to the Dirichlet sums (are, aim) at
    s_u = sre + i sims[u], N^{-s_u} = w (nres[u] + i nims[u]), and round:
    per node N^{-s} (N/(s-1) + 1/2 + sum_j T_j) with T_j = C_j (s)_{2j-1}
    N^{1-2j}, by T_{j+1} = T_j (C_{j+1}/C_j) (s+2j-1)(s+2j) / N^2.

    The terms stop once they fall below 2^-(prec+8) of the sum before the
    tail. Left of 1 that sum exceeds zeta by up to about N^(1-sigma), which
    the tail cancels, so the test is tightened by ``excess``, that factor in
    bits: ceil((1 - sigma) log2 N), 0 from sigma = 1 on."""
    one = 1 << W
    # |N^{-s}|^2 is the same on the whole line; the floor keeps an underflowed
    # N^{-s} (huge sigma) from dividing by zero, where the tail is 0 anyway
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
        # stop once |N^{-s} T_j| < 2^-(prec+8+excess) |value|
        lim = ((vre * vre + vim * vim) << (2 * (W - prec - 8))) // nmag >> 2 * excess
        p2 = (sre * sre - sim * sim) >> W
        ps = (2 * sre * sim) >> W
        tre, tim = sre // (12 * N), sim // (12 * N)      # T_1 = s/(12N)
        sumre, sumim = 0, 0
        for j in range(1, J + 1):
            sumre += tre
            sumim += tim
            if tre * tre + tim * tim < lim or j == J:
                break
            qre = p2 + (4 * j - 1) * sre + (2 * j - 1) * 2 * j * one
            qim = ps + (4 * j - 1) * sim
            r = ratios[j - 1]
            tre, tim = (((tre * qre - tim * qim) * r >> 2 * W) // N2,
                        ((tre * qim + tim * qre) * r >> 2 * W) // N2)
        vre += (nre * sumre - nim * sumim) >> W
        vim += (nre * sumim + nim * sumre) >> W
        out.append(_from_fixed(vre, vim, W, prec))
    return out


# a line-integral level's int sum stays within 2^-(prec+_GUARD) of the line's
# first nonzero node while the level sums fewer than 2^_NODE_BITS nodes:
# production levels sum a few thousand, and 2^32 would take hours
_NODE_BITS = 32


class FixedLine:
    """The nodes of one vertical line as fixed-point ints, keyed by the int
    index n of t = n * grid: node n holds (re, im), its value being
    (re + i im) 2^-shift. The first nonzero value v sets
    shift = W - mag(v), W = prec + _GUARD + _NODE_BITS, and shift never
    changes; nodes before it are (0, 0). So every node carries at most a unit
    of rounding, 2^-(prec+_GUARD+_NODE_BITS) of the line's first nonzero
    node, and an exact int sum over one level's nodes is off by less than
    2^-(prec+_GUARD) of that node. Missing nodes are computed by
    ``run(t0, dt, count)`` in maximal equispaced runs, since refinement
    levels leave stride-2 gaps between known nodes."""

    def __init__(self, prec: int):
        self.nodes: dict = {}
        self.W = prec + _GUARD + _NODE_BITS
        self.shift = None

    def __len__(self) -> int:
        return len(self.nodes)

    def fill(self, out: list, run, n0: int, dn: int, grid) -> None:
        """Fill in each None of ``out``, nodes n0 + u dn read from ``nodes``,
        by ``run(t0, dt, count)`` (t0, dt multiples of grid) and memoize it."""
        nodes = self.nodes
        miss = [u for u, v in enumerate(out) if v is None]
        i = 0
        while i < len(miss):
            stride = miss[i + 1] - miss[i] if i + 1 < len(miss) else 1
            j = i + 1
            while j < len(miss) and miss[j] - miss[j - 1] == stride:
                j += 1
            vs = run(grid * (n0 + miss[i] * dn), grid * (stride * dn), j - i)
            for u, v in zip(miss[i:j], vs):
                nodes[n0 + u * dn] = out[u] = self._fixed(mpc(v))
            i = j

    def _fixed(self, v: mpc) -> tuple[int, int]:
        if self.shift is None:
            if not v:
                return 0, 0
            self.shift = self.W - mp.mag(v)
        re, im = v._mpc_
        return to_fixed(re, self.shift), to_fixed(im, self.shift)

    def unit(self) -> mpf:
        """2^-shift, the value of one int unit (any power of 2 while every
        node is 0)."""
        return mp.ldexp(1, -(self.W if self.shift is None else self.shift))


# ---------------------------------------------------------------------------
# modified Bessel function K0

def bessel_k0(z, ctx: PrecisionContext):
    """K_0(z), Re(z) > 0; series for small |z|, asymptotic for large |z|.

    The asymptotic branch is used only when its smallest term, about
    e^{-2|z|}, clears 2^-(prec+12). Both branches sum their terms as
    fixed-point (re, im) ints at scale 2^W, like the zeta run kernel; only
    the final log, sqrt and exp prefactors are mpc. The series branch adds
    2|z| log2(e) + 12 bits to W to absorb its e^{2|z|} cancellation.
    """
    with ctx.scoped():
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("bessel_k0 requires Re(z) > 0")
        prec = ctx.prec_bits
        az = abs(z)
        if float(az) * 2 > (prec + 12) * math.log(2):
            v = _k0_asymptotic(z, prec)
        else:
            v = _k0_series(z, prec)
        return v.real if z.imag == 0 else v


def _k0_asymptotic(z: mpc, prec: int) -> mpc:
    # K0(z) ~ sqrt(pi/2z) e^-z sum_j a_j, a_j = -a_{j-1} (2j-1)^2/(8j z),
    # summed until |a_j| < 2^-(prec+5)
    W = prec + _GUARD
    w = 1 / z
    wre, wim = to_fixed(w.real._mpf_, W), to_fixed(w.imag._mpf_, W)
    lim = 1 << 2 * (W - prec - 5)
    tre, tim = 1 << W, 0
    are, aim = tre, tim
    j = 1
    while tre * tre + tim * tim >= lim:
        c = (2 * j - 1) ** 2
        d = (8 * j) << W
        tre, tim = (-(tre * wre - tim * wim) * c) // d, (-(tre * wim + tim * wre) * c) // d
        are += tre
        aim += tim
        j += 1
        if j > 4 * prec:
            raise ArithmeticError("K0 asymptotic series stalled")
    return mp.sqrt(mp.pi / (2 * z)) * mp.exp(-z) * _from_fixed(are, aim, W, prec)


def _k0_series(z: mpc, prec: int) -> mpc:
    # K0 = -(ln(z/2)+gamma) I0(z) + sum_{j>=1} (z^2/4)^j / (j!)^2 * H_j
    bump = int(2 * float(abs(z)) * 1.4427) + 12   # cancellation allowance
    W = prec + bump + _GUARD
    one = 1 << W
    zre, zim = to_fixed(z.real._mpf_, W), to_fixed(z.imag._mpf_, W)
    qre, qim = (zre * zre - zim * zim) >> (W + 2), (zre * zim) >> (W + 1)
    q2 = (qre * qre + qim * qim) >> 2 * W            # |q|^2, int part
    tre, tim = one, 0
    ire, iim = one, 0
    kre, kim = 0, 0
    h = 0
    j = 1
    while True:
        d = (j * j) << W
        tre, tim = (tre * qre - tim * qim) // d, (tre * qim + tim * qre) // d
        h += one // j
        ire += tre
        iim += tim
        kre += (tre * h) >> W
        kim += (tim * h) >> W
        # past the peak (j^2 > |q|) the terms only shrink; floor division
        # leaves a negative term at -1 for good, so stop a few ulps above 0
        if j ** 4 > q2 and abs(tre) + abs(tim) < 16:
            break
        j += 1
    with mp.workprec(prec + bump):
        z = mpc(z)
        i0 = _from_fixed(ire, iim, W, prec + bump)
        ksum = _from_fixed(kre, kim, W, prec + bump)
        v = -(mp.log(z / 2) + mp.euler) * i0 + ksum
    return +v


# ---------------------------------------------------------------------------
# Piltz divisor sieve, adaptive series truncation and Lambert series

def divisor_sieve(k: int, N: int) -> tuple[int, ...]:
    """d with d[n] = d_k(n) for n <= N and d[0] = 0, by repeated Dirichlet
    convolution with the all-ones function."""
    if k < 1 or N < 1:
        raise DomainError("divisor_sieve requires k >= 1 and N >= 1")
    counts = [0] + [1] * N
    for _ in range(k - 1):
        nxt = [0] * (N + 1)
        for d in range(1, N + 1):
            cd = counts[d]
            for n in range(d, N + 1, d):
                nxt[n] += cd
        counts = nxt
    return tuple(counts)


def sum_until_negligible(term, ctx: PrecisionContext, run: int, cap: int, what: str):
    """Sum term(1), term(2), ... until |term(n)| < 10^-(digits+5) max(1, |acc|)
    for ``run`` consecutive n; returns (acc, last term, n). Raises
    ArithmeticError naming ``what`` when term(cap) still leaves the run short.
    Call inside the caller's precision scope."""
    thresh = ctx.tolerance(-5)
    acc = mpf(0)
    consec = 0
    for n in range(1, cap + 1):
        t = term(n)
        acc += t
        if abs(t) < thresh * max(1, abs(acc)):
            consec += 1
            if consec >= run:
                return acc, t, n
        else:
            consec = 0
    raise ArithmeticError(f"{what} did not converge within {cap} terms")


def lambert_series(a, y, ctx: PrecisionContext):
    """sum_{n>=1} n^a / (e^{ny} - 1) for y > 0.

    Equals sum sigma_a(n) e^{-ny}; truncated once the relative term size stays
    below 10^{-digits-5} for three consecutive terms.
    """
    with ctx.scoped():
        a = mpf(a)
        y = mpf(y)
        if y <= 0:
            raise DomainError("lambert_series requires y > 0")
        acc, _, _ = sum_until_negligible(lambda n: mp.power(n, a) / mp.expm1(n * y),
                                         ctx, 3, 10 ** 7, "lambert_series")
        return +acc


def clear_caches() -> None:
    """Drop memoized values: Gamma, scalar zeta, zeta-line nodes, the
    vertical-line products built from them and the residue-term jets
    (constants tables persist)."""
    _GAMMA_MEMO.clear()
    _ZETA_MEMO.clear()
    _ZLINE_MEMO.clear()
    _PRODUCT_MEMO.clear()
    _JET_MEMO.clear()
