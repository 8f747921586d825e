import itertools
import math

import pytest

from factopo import ringspec, ringsys
from factopo.budget import Budget
from factopo.errors import NotAPrime
from factopo.finring import (FinRing, all_ideals, gf, ideal_generated,
                             localize, prime_ideals, prime_power, product_ring,
                             quotient_ring, zmod)
from factopo.ringspec import (check_duality, dom_lattice, recognize_ring,
                              spec_points, stalk, zar_lattice)
from oracles import ring_isomorphic

z12 = zmod(12)


def prime_at(A, elt_name):
    hits = [p for p in prime_ideals(A)
            if A.element_by_name(elt_name) in p.elements]
    assert len(hits) == 1
    return hits[0]


def test_recognize_ring_names():
    assert recognize_ring(zmod(9), Budget()) == "Z/9"
    assert recognize_ring(gf(2, 2), Budget()) == "F_4"
    assert recognize_ring(product_ring([zmod(2), zmod(3)]), Budget()) == "Z/6"


def subring(R, gens):
    out = {R.zero, R.one, *gens}
    while True:
        grown = {t[x][y] for t in (R.add, R.mul)
                 for x in out for y in out} - out
        if not grown:
            return out
        out |= grown


def recognize_bruteforce(R):
    """Oracle: the first of Z/n, F_n and their binary products that
    ring_isomorphic matches, searching homs out of a greedy generator set."""
    n = R.size
    if n == 1:
        return "0"
    gens, reached = [], subring(R, [])
    for x in R.elements():
        if x not in reached:
            gens.append(x)
            reached = subring(R, gens)
    R = FinRing(R.names, R.add, R.mul, R.zero, R.one, gens)

    def local(m):
        pk = prime_power(m, Budget())
        return [zmod(m)] + ([gf(*pk)] if pk and pk[1] > 1 else [])

    cands = local(n)
    for a in range(2, n):
        if n % a == 0 and a <= n // a:
            cands += [product_ring([fa, fb])
                      for fa in local(a) for fb in local(n // a)]
    for C in cands:
        if ring_isomorphic(R, C, Budget(10 ** 10)) is not None:
            return C.name
    return "ring-of-order-%d" % n


def test_recognize_ring_matches_the_isomorphism_search(square_zero):
    factors = [zmod(n) for n in range(2, 17)] + \
        [gf(2, 2), gf(2, 3), gf(3, 2), gf(2, 4), square_zero[2, 1],
         square_zero[3, 1]]
    rings = []
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(factors, k):
            if math.prod(f.size for f in combo) <= 16:
                rings.append(combo[0] if k == 1 else product_ring(list(combo)))
    for A in (zmod(36), zmod(60), product_ring([zmod(4), zmod(4)])):
        rings += [quotient_ring(A, I)[0] for I in all_ideals(A, Budget())]
        rings += [localize(A, [a])[0] for a in A.elements()]
    # quotients and localizations repeat; one ring per set of tables
    distinct = {(R.add, R.mul, R.one): R for R in rings}
    assert len(distinct) > 50
    for R in distinct.values():
        assert recognize_ring(R, Budget()) == recognize_bruteforce(R), R.name


def test_zar_lattice_z12():
    rows = zar_lattice(z12).as_json()["elements"]
    assert [e["label"] for e in rows] == \
        ["invert(0)", "invert(1)", "invert(4)", "invert(9)"]
    # bottom is the zero ring, top the ring itself
    sizes = sorted(e["size"] for e in rows)
    assert sizes == [1, 3, 4, 12]


def test_dom_lattice_z12():
    rows = dom_lattice(z12).as_json()["elements"]
    assert len(rows) == 4
    sizes = sorted(e["size"] for e in rows)
    assert sizes == [1, 2, 3, 6]


def test_duality_z12():
    pairing = check_duality(z12)
    assert pairing


def test_duality_catalogue(rings):
    for A in rings:
        assert check_duality(A), A.name


def test_stalks_of_z12_at_two():
    p = prime_at(z12, "2")
    ring_zar, hom_zar = stalk(z12, p, "zar")
    assert ring_isomorphic(ring_zar, zmod(4), Budget()) is not None
    assert hom_zar.source is z12
    ring_dom, _hom = stalk(z12, p, "dom")
    assert ring_isomorphic(ring_dom, zmod(2), Budget()) is not None
    with pytest.raises(NotAPrime):
        stalk(z12, ideal_generated(z12, [z12.element_by_name("4")]), "zar")


def test_stalk_classes(rings):
    # zar stalks are local, dom stalks are domains
    from factopo.ringsys import classify_ring
    for A in rings:
        for p in prime_ideals(A):
            assert classify_ring(stalk(A, p, "zar")[0]).is_local
            assert classify_ring(stalk(A, p, "dom")[0]).is_domain


def test_spec_points_poset_is_discrete():
    sp = spec_points(z12, "zar")
    assert sp.size == 2
    data = sp.as_json()
    assert data["base"] == "Z/12"
    assert all(i == j for i, j in data["order"])


def test_spec_points_finds_the_primes_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return prime_ideals(A)

    # patched where each module reads it, so calls through points_of count
    for module in (ringspec, ringsys):
        monkeypatch.setattr(module, "prime_ideals", counted)
    A = product_ring([zmod(2), zmod(3), zmod(5)])
    for topology in ("zar", "dom", "fin", "nfin"):
        calls.clear()
        assert spec_points(A, topology).size == 3
        assert len(calls) == 1, topology


def test_spec_points_fin_topology():
    sp = spec_points(z12, "fin")
    assert sp.size == 2
    assert sorted(e["stalk_size"] for e in sp.as_json()["elements"]) == [2, 3]
