import pytest

from factopo.errors import InvalidSpec, NotARing
from factopo.finring import (FinRing, RingHom, all_ideals, build_ring,
                             enumerate_homs, gf, hom_from_images, ideal_generated,
                             prime_ideals, prime_ideals_bruteforce, product_ring,
                             quotient_ring, ring_isomorphic, smallest_prime_factor,
                             table_ring, zmod)


def test_zmod_basics():
    A = zmod(6)
    assert A.size == 6
    assert A.names == ("0", "1", "2", "3", "4", "5")
    assert A.a(4, 5) == 3
    assert A.m(4, 5) == 2
    assert A.neg[2] == 4
    assert sorted(A.units()) == [1, 5]
    assert A.element_by_name("4") == 4
    with pytest.raises(InvalidSpec):
        A.element_by_name("six")


def test_zero_ring_is_legal():
    A = zmod(1)
    assert A.size == 1
    assert A.zero == A.one


def test_gf4_is_a_field():
    F = gf(2, 2)
    assert F.size == 4
    assert sorted(F.units()) == [e for e in F.elements() if e != F.zero]
    # x * x = x + 1 under the fixed irreducible
    x = F.element_by_name("x")
    assert F.m(x, x) == F.a(x, F.one)


def test_gf_rejects_nonprime():
    with pytest.raises(Exception):
        gf(4)


def test_table_ring_broken_distributivity():
    # Z/3 with one multiplication entry bent: stays associative and
    # commutative, breaks a*(b+c) = a*b + a*c
    spec = {"kind": "table", "elements": ["0", "1", "2"], "zero": 0, "one": 1,
            "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]]}
    with pytest.raises(NotARing) as err:
        build_ring(spec)
    assert "distribut" in str(err.value)


def test_build_ring_kinds():
    assert build_ring({"kind": "zmod", "n": 9}).size == 9
    assert build_ring({"kind": "gf", "p": 3, "k": 2}).size == 9
    P = build_ring({"kind": "product",
                    "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]})
    assert P.size == 6
    Q = build_ring({"kind": "quotient", "base": {"kind": "zmod", "n": 12},
                    "ideal_gens": ["4"]})
    assert Q.size == 4
    with pytest.raises(InvalidSpec):
        build_ring({"kind": "nope"})


def test_product_ring_is_z6():
    P = product_ring([zmod(2), zmod(3)])
    assert ring_isomorphic(P, zmod(6)) is not None
    assert ring_isomorphic(product_ring([zmod(2), zmod(2)]), zmod(4)) is None


def test_hom_validation():
    u = RingHom(zmod(4), zmod(2), (0, 1, 0, 1))
    u.validate()
    with pytest.raises(InvalidSpec):
        RingHom(zmod(4), zmod(2), (0, 0, 0, 0)).validate()  # drops 1
    with pytest.raises(InvalidSpec):
        RingHom(zmod(4), zmod(2), (0, 1, 1, 0)).validate()  # breaks addition


def test_enumerate_homs_counts():
    assert len(enumerate_homs(zmod(4), zmod(2))) == 1
    assert len(enumerate_homs(zmod(2), zmod(4))) == 0
    assert len(enumerate_homs(zmod(6), zmod(6))) == 1
    # Frobenius and the identity
    assert len(enumerate_homs(gf(2, 2), gf(2, 2))) == 2


def test_hom_from_images():
    A, B = zmod(6), zmod(6)
    h = hom_from_images(A, B, {g: g for g in A.generators})
    assert h is not None and h.mapping == tuple(range(6))
    F = gf(2, 2)
    x = F.element_by_name("x")
    frob = hom_from_images(F, F, {x: F.m(x, x)})
    assert frob is not None and frob.mapping != tuple(range(4))


def test_ideals_and_primes():
    A = zmod(12)
    assert len(all_ideals(A)) == 6
    assert len(all_ideals(zmod(6))) == 4
    primes = prime_ideals(A)
    assert sorted(p.label() for p in primes) == ["{0,2,4,6,8,10}", "{0,3,6,9}"]
    brute = prime_ideals_bruteforce(A)
    assert sorted(p.label() for p in brute) == sorted(p.label() for p in primes)


def ideals_by_subgroup_filter(A):
    """Oracle: every additive subgroup, kept when it absorbs multiplication.

    Subgroups grow from {0} by adding cyclic subgroups, since every subgroup
    of a finite group is a sum of cyclic ones.
    """
    cyclic = []
    for a in A.elements():
        c, x = {A.zero}, a
        while x not in c:
            c.add(x)
            x = A.add[x][a]
        cyclic.append(frozenset(c))
    zero = frozenset([A.zero])
    found, todo = {zero}, [zero]
    while todo:
        S = todo.pop()
        for C in cyclic:
            if C <= S:
                continue
            T = frozenset(A.add[s][c] for s in S for c in C)
            if T not in found:
                found.add(T)
                todo.append(T)
    return [S for S in sorted(found, key=lambda s: (len(s), sorted(s)))
            if all(A.mul[r][x] in S for x in S for r in A.elements())]


def test_all_ideals_match_the_subgroup_filter(rings, square_zero):
    extra = [gf(2, 6), product_ring([zmod(2)] * 5),
             product_ring([zmod(4)] * 3), zmod(60), zmod(64),
             product_ring([zmod(2), zmod(32)]), product_ring([zmod(2)] * 4),
             product_ring([zmod(2), square_zero[2, 2]])]
    for A in list(rings) + list(square_zero.values()) + extra:
        assert [I.elements for I in all_ideals(A)] == \
            ideals_by_subgroup_filter(A), A.name


def test_prime_bruteforce_agreement(rings):
    for A in rings:
        fast = sorted(p.label() for p in prime_ideals(A))
        slow = sorted(p.label() for p in prime_ideals_bruteforce(A))
        assert fast == slow, A.name


def test_quotient_ring():
    A = zmod(12)
    Q, proj = quotient_ring(A, ideal_generated(A, [A.element_by_name("4")]))
    assert Q.size == 4
    assert proj.source is A and proj.target is Q
    # zero ideal keeps the ring itself
    Q0, proj0 = quotient_ring(A, ideal_generated(A, []))
    assert Q0 is A and proj0.mapping == tuple(range(A.size))


def test_ideal_generated_is_smallest():
    A = zmod(12)
    I = ideal_generated(A, [A.element_by_name("8")])
    assert I.elements == frozenset({0, 4, 8})


def test_smallest_prime_factor():
    assert [smallest_prime_factor(n) for n in (2, 9, 15, 49)] == [2, 3, 3, 7]
