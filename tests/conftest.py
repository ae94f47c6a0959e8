import pytest
from mpmath import mpc

from ztl import with_precision


def fixed_to_mpc(chunk):
    """The values of an ``eval_vertical`` chunk (re, im, scale) as mpc."""
    re, im, scale = chunk
    return [scale * mpc(x, y) for x, y in zip(re, im)]


@pytest.fixture(scope="session")
def ctx50():
    return with_precision(50)


@pytest.fixture(scope="session")
def ctx30():
    return with_precision(30)
