"""Shared fixtures.

Monodromy representations are expensive (high-precision tracking), so the
standard ones are computed once per session and shared.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from abelint.config import Config
from abelint.monodromy import divisor_lattice, monodromy
from abelint.ratpoly import RatPoly, chebyshev

X = RatPoly.x()

# degree-5 polynomial with distinct critical values and full S_5 monodromy;
# fixed once so every numeric test sees the same fixture
QUINTIC = X ** 5 + X ** 4 - 3 * X ** 3 + X + RatPoly.constant(2)

# the two spellings discussed for the quartic example: the first has the
# stated critical values {-1, -3/4}, the second computes to {0, -1}
QUARTIC_SHIFTED = ((X ** 2 - 1) / 2) ** 2 - 1
QUARTIC_PAPER_SPELLING = (X ** 2 / 2 - 1) ** 2 - 1

# the quartic fiber polynomial of the hyperelliptic examples
QUARTIC_F = (X ** 2 / 2 - 1) ** 2


def wide(lo, hi):
    """Signed integers of lo to hi bits with random low bits (integers drawn
    directly from a range cluster near its ends, such as 2^k + small)."""
    return st.builds(
        lambda bits, seed, sign: sign * (random.Random(seed).getrandbits(bits)
                                         | 1 << (bits - 1)),
        st.integers(lo, hi), st.integers(0, 2 ** 32), st.sampled_from([1, -1]))


# wide rationals with up to 70-bit denominators
wide_fractions = st.builds(Fraction, wide(1, 90), wide(1, 70).map(abs))


@pytest.fixture(scope="session")
def config():
    return Config()


@pytest.fixture(scope="session")
def t6():
    return chebyshev(6)


@pytest.fixture(scope="session")
def t6_rep(t6, config):
    return monodromy(t6, config)


@pytest.fixture(scope="session")
def t6_lattice(t6, t6_rep):
    return divisor_lattice(t6_rep, t6)


@pytest.fixture(scope="session")
def x6_rep(config):
    return monodromy(X ** 6, config)


@pytest.fixture(scope="session")
def x6_lattice(x6_rep):
    return divisor_lattice(x6_rep, X ** 6)


@pytest.fixture(scope="session")
def quintic_rep(config):
    return monodromy(QUINTIC, config)


@pytest.fixture(scope="session")
def quintic_lattice(quintic_rep):
    return divisor_lattice(quintic_rep, QUINTIC)


@pytest.fixture
def tracked_loops(monkeypatch):
    """The name of every loop `monodromy` tracks from here on, in order."""
    # the package binds the name abelint.monodromy to the function
    mono = importlib.import_module("abelint.monodromy")
    names, track = [], mono._loop_permutation

    def spy(p, dp, loop, start, config, tier, name):
        names.append(name)
        return track(p, dp, loop, start, config, tier, name)

    monkeypatch.setattr(mono, "_loop_permutation", spy)
    return names
