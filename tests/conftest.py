import pytest
from mpmath import mpc

from ztl import with_precision


def fixed_to_mpc(chunk):
    """The node values scale * P[u] * seed * z^u of an ``eval_vertical``
    chunk (P, (W, seed, z), scale) as mpc."""
    P, (W, seed, (zr, zsum, _)), scale = chunk
    seed, z = mpc(*seed) / 2 ** W, mpc(zr, zsum - zr) / 2 ** W
    return [scale * mpc(*p) * seed * z ** u for u, p in enumerate(P)]


@pytest.fixture(scope="session")
def ctx50():
    return with_precision(50)


@pytest.fixture(scope="session")
def ctx30():
    return with_precision(30)
