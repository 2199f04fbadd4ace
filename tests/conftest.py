"""Shared hand-built fixtures.

The tables here are written out by hand, independently of the construct
module, so they can serve as oracles for it.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from effalg.core import FiniteEffectAlgebra

DEFAULT_SEED = 20100108


def algebra_from_sums(n, zero, one, sums, labels=None):
    """Table with the neutral row filled in and each (x, y, z) set symmetrically."""
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[zero][x] = x
        table[x][zero] = x
    for x, y, z in sums:
        table[x][y] = z
        table[y][x] = z
    return FiniteEffectAlgebra(
        size=n, zero=zero, one=one,
        sum=tuple(tuple(r) for r in table),
        labels=tuple(labels) if labels else None)


def random_families(E: FiniteEffectAlgebra, count: int, seed: int = DEFAULT_SEED):
    """Deterministic random families (size 2..5) for the distributivity laws."""
    rng = random.Random(seed)
    n = E.size
    out = []
    for _ in range(count):
        k = rng.randint(2, 5)
        fam = [rng.randrange(n) for _ in range(k)]
        extra = rng.randrange(n)
        out.append((fam, extra))
    return out


# B2: Boolean algebra {0, a, a', 1}, indices 0..3
def make_b2():
    return algebra_from_sums(4, 0, 3, [(1, 2, 3)], labels=["0", "a", "a'", "1"])


# C3: chain {0, b, 1 = 2b}, indices 0..2
def make_c3():
    return algebra_from_sums(3, 0, 2, [(1, 1, 2)], labels=["0", "b", "1"])


# C4: chain {0, a, 2a, 1 = 3a}, indices 0..3
def make_c4():
    return algebra_from_sums(
        4, 0, 3, [(1, 1, 2), (1, 2, 3)], labels=["0", "a", "2a", "1"])


# E5: horizontal sum of B2 and C3: {0, a, a', b, 1}, indices 0..4
def make_e5():
    return algebra_from_sums(
        5, 0, 4, [(1, 2, 4), (3, 3, 4)], labels=["0", "a", "a'", "b", "1"])


# HS2: horizontal sum of two copies of B2: {0, a, a', c, c', 1}
def make_hs2():
    return algebra_from_sums(
        6, 0, 5, [(1, 2, 5), (3, 4, 5)], labels=["0", "a", "a'", "c", "c'", "1"])


# HEX6: a non-lattice algebra {0, a, b, c, d, 1} with a+b=c, 2a=2b=d,
# 3a=1, b+c=1; the pair (a, b) has the incomparable upper bounds c and d.
def make_hex6():
    return algebra_from_sums(
        6, 0, 5, [(1, 1, 4), (1, 2, 3), (1, 4, 5), (2, 2, 4), (2, 3, 5)],
        labels=["0", "a", "b", "c", "d", "1"])


@pytest.fixture
def b2():
    return make_b2()


@pytest.fixture
def c3():
    return make_c3()


@pytest.fixture
def c4():
    return make_c4()


@pytest.fixture
def e5():
    return make_e5()


@pytest.fixture
def hs2():
    return make_hs2()


@pytest.fixture
def hex6():
    return make_hex6()


@pytest.fixture
def corpus():
    """A spread of small valid algebras for exhaustive property checks."""
    return [make_b2(), make_c3(), make_c4(), make_e5(), make_hs2()]
