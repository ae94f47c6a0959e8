import pytest
from mpmath import mp, mpc

from ztl import with_precision


def fixed_to_mpc(f, c, n0, dn, count, grid):
    """The node values scale * P[u] * base^(-i t_u), t_u = (n0 + u dn) grid,
    of the ``eval_vertical`` chunk (P, rot, scale) of ``f`` as mpc, the
    rotation from mpmath."""
    P, _, scale = f.eval_vertical(c, n0, dn, count, grid)
    return [scale * mpc(*p) * mp.expj(-(n0 + u * dn) * grid * f.ln_base)
            for u, p in enumerate(P)]


@pytest.fixture(scope="session")
def ctx50():
    return with_precision(50)


@pytest.fixture(scope="session")
def ctx30():
    return with_precision(30)
