import itertools

import pytest
from hypothesis import settings

from factopo.budget import Budget
from factopo.catalogs import (category_catalogue, gset_catalogue, ring_catalogue,
                              sset_corpus)
from factopo.fincat import FinCat
from factopo.finring import FinRing
from factopo.toposx import FqVecSpace

# every property test replays the same 300 examples, keeps no example
# database on disk, and has no per-example deadline on a loaded machine;
# ``--hypothesis-profile fuzz`` draws 2,500 fresh examples instead, for the
# tests that do not fix their own count
settings.register_profile("factopo", derandomize=True, database=None,
                          deadline=None, max_examples=300)
settings.register_profile("fuzz", settings.get_profile("factopo"),
                          derandomize=False, max_examples=2500)
settings.load_profile("factopo")


@pytest.fixture(scope="session")
def rings():
    return ring_catalogue(Budget())


@pytest.fixture(scope="session")
def cats():
    return category_catalogue()


@pytest.fixture(scope="session")
def delta2():
    """The ordinals [0], [1], [2] with every monotone map between them, each
    map named by its target and its values, as the benchmark names them."""
    maps = {"d%d:%s" % (b, "".join(map(str, v))): (a, b, v)
            for a in range(3) for b in range(3)
            for v in itertools.combinations_with_replacement(range(b + 1),
                                                             a + 1)}
    named = {(b, v): m for m, (_a, b, v) in maps.items()}
    compose = {(g, f): named[(c, tuple(gv[i] for i in fv))]
               for g, (b, c, gv) in maps.items()
               for f, (_a, b2, fv) in maps.items() if b2 == b}
    return FinCat(range(3), {m: (a, b) for m, (a, b, _v) in maps.items()},
                  {a: named[(a, tuple(range(a + 1)))] for a in range(3)},
                  compose, name="Delta<=2")


@pytest.fixture(scope="session")
def corpus():
    return sset_corpus(Budget())


@pytest.fixture(scope="session")
def gsets():
    return gset_catalogue()


@pytest.fixture(scope="session")
def vspaces():
    return [FqVecSpace(q, n) for q in (2, 3, 4) for n in range(5)]


def square_zero_ring(p, k):
    """F_p[x_1..x_k]/(x_1..x_k)^2: local, neither Z/n nor a field, and its
    maximal ideal is not principal once k >= 2."""
    elems = list(itertools.product(range(p), repeat=k + 1))
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple((u + v) % p for u, v in zip(a, b))] for b in elems]
           for a in elems]
    mul = [[index[(a[0] * b[0] % p,) +
                  tuple((a[0] * v + b[0] * u) % p
                        for u, v in zip(a[1:], b[1:]))]
            for b in elems] for a in elems]
    names = ["".join(map(str, e)) for e in elems]
    one = index[(1,) + (0,) * k]
    gens = [index[(0,) + tuple(int(i == j) for j in range(k))]
            for i in range(k)]
    return FinRing(names, add, mul, 0, one, gens,
                   name="F_%d[x_1..x_%d]/(x)^2" % (p, k))


@pytest.fixture(scope="session")
def square_zero():
    return {(p, k): square_zero_ring(p, k)
            for p, k in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))}
