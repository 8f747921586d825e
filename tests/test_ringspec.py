import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import square_zero_ring
from factopo import finring, ringspec, ringsys
from factopo.budget import Budget
from factopo.errors import NotALattice, NotAPrime
from factopo.finring import (FinRing, all_ideals, gf, ideal_generated,
                             local_factors, localize, prime_ideals,
                             prime_power, product_ring, quotient_ring, zmod)
from factopo.posets import Poset
from factopo.ringspec import (_local_types, check_duality, check_lattice,
                              dom_lattice, recognize_ring, spec_points, stalk,
                              zar_lattice)
from oracles import (anti_isomorphism, check_lattice_by_triples,
                     complement_witness_by_radicals, dom_lattice_by_radicals,
                     recognize_ring_by_candidates, recognize_ring_by_factors,
                     ring_isomorphic, spec_points_by_stalks,
                     zar_lattice_by_kernels, zar_tables_by_idempotents)
from test_finring import ladder, spectrum_bases

z12 = zmod(12)
TOPOLOGIES = ("zar", "dom", "fin", "nfin")


def ring_name(R, budget=None):
    """R's name from the types of its local factors, as the spectrum views
    name the rings they do not build."""
    return recognize_ring([factor for _e, _P, factor, _field
                           in _local_types(R, budget or Budget())])


def prime_at(A, elt_name):
    hits = [p for p in prime_ideals(A)
            if A.element_by_name(elt_name) in p.elements]
    assert len(hits) == 1
    return hits[0]


def test_recognize_ring_names():
    assert ring_name(zmod(9)) == "Z/9"
    assert ring_name(gf(2, 2)) == "F_4"
    assert ring_name(product_ring([zmod(2), zmod(3)])) == "Z/6"
    assert ring_name(zmod(1)) == recognize_ring([]) == "0"


def subring(R, gens):
    out = {R.zero, R.one, *gens}
    while True:
        grown = {t[x][y] for t in (R.add, R.mul)
                 for x in out for y in out} - out
        if not grown:
            return out
        out |= grown


def with_greedy_generators(R):
    """R with a greedy set of ring generators, so that hom searches out of
    it stay small."""
    gens, reached = [], subring(R, [])
    for x in R.elements():
        if x not in reached:
            gens.append(x)
            reached = subring(R, gens)
    return FinRing(R.names, R.add, R.mul, R.zero, R.one, gens)


def recognize_bruteforce(R):
    """Oracle: the first of Z/n, F_n and their binary products that
    ring_isomorphic matches, searching homs out of a greedy generator set."""
    n = R.size
    if n == 1:
        return "0"
    R = with_greedy_generators(R)

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


def ring_of_name(name):
    """The product of the Z/d and F_q that a name without L_ parts lists."""
    parts = [zmod(int(part[2:])) if part.startswith("Z/") else
             gf(*prime_power(int(part[2:]), Budget()))
             for part in name.split("x")]
    return parts[0] if len(parts) == 1 else product_ring(parts)


def named_rings(square_zero):
    """Products of up to three small local rings and fields, and the
    quotients and localizations of Z/36, Z/60 and Z/4xZ/4, one per set of
    tables."""
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
    return list({(R.add, R.mul, R.one): R for R in rings}.values())


def test_recognize_ring_matches_the_isomorphism_search(square_zero):
    distinct = named_rings(square_zero)
    assert len(distinct) > 50
    unnamed = 0
    for R in distinct:
        name, want = ring_name(R), recognize_bruteforce(R)
        if not want.startswith("ring-of-order-"):
            assert name == want, R.name
        elif "L_" not in name:
            # a name the search did not try still names R's iso class
            unnamed += 1
            assert ring_isomorphic(with_greedy_generators(R),
                                   ring_of_name(name), Budget(10 ** 10)), name
    assert unnamed >= 3


def lattice_element_rings(A):
    budget = Budget()
    return [quotient_ring(A, I)[0] for I in all_ideals(A, budget)] + \
        [localize(A, [e])[0] for e in A.idempotents()]


def test_recognize_ring_names_what_the_candidate_search_named(square_zero):
    rings = named_rings(square_zero) + ladder()
    for A in ladder() + [product_ring([zmod(2)] * 4)]:
        rings += lattice_element_rings(A)
    renamed = set()
    for R in rings:
        budget, old_budget = Budget(), Budget()
        name = ring_name(R, budget)
        assert name == recognize_ring_by_factors(R, Budget()), R.name
        old = recognize_ring_by_candidates(R, old_budget)
        if old.startswith("ring-of-order-"):
            renamed.add((old, name))
            assert not name.startswith("ring-of-order-")
        else:
            assert name == old, R.name
        # no ring costs more steps to name than it did
        assert budget.used <= old_budget.used, R.name
    assert ("ring-of-order-8", "Z/2xZ/2xZ/2") in renamed
    assert ("ring-of-order-4", "L_4(F_2)") in renamed


def test_a_local_factor_is_named_by_order_and_residue_field(square_zero):
    names = {k: ring_name(R) for k, R in square_zero.items()}
    assert names == {(2, 1): "L_4(F_2)", (3, 1): "L_9(F_3)",
                     (2, 2): "L_8(F_2)", (3, 2): "L_27(F_3)",
                     (2, 3): "L_16(F_2)"}
    mixed = product_ring([square_zero[2, 1], zmod(4), gf(2, 2), zmod(3)])
    assert ring_name(mixed) == "F_4xL_4(F_2)xZ/12"


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
    holds, witness = check_duality(z12)
    assert holds
    # invert(1), the ring itself, pairs with the quotient by the whole
    # ring, and invert(0), the zero ring, with the quotient by the nilradical
    assert witness == [("invert(0)", "mod{0,6}"),
                       ("invert(1)", "mod{0,1,2,3,4,5,6,7,8,9,10,11}"),
                       ("invert(4)", "mod{0,2,4,6,8,10}"),
                       ("invert(9)", "mod{0,3,6,9}")]


def test_duality_catalogue(rings):
    for A in rings:
        holds, _witness = check_duality(A)
        assert holds, A.name


def assert_duality_matches_the_search(A):
    """The zar tables built on prime masks are those of idempotent
    arithmetic, and the complement witness of check_duality pairs each
    invert(e) with the quotient by the radical of eA, with the verdict of
    the anti-isomorphism search on the two lattices."""
    zl = zar_lattice(A)
    report = zl.as_json()
    assert {key: report[key] for key in ("order", "meet", "join")} == \
        zar_tables_by_idempotents(A), A.name
    holds, witness = check_duality(A)
    searched = anti_isomorphism(zl.poset, dom_lattice(A).poset, Budget())
    assert holds == (searched is not None), A.name
    assert witness == complement_witness_by_radicals(A), A.name


def test_duality_refuses_a_map_that_does_not_reverse_order(monkeypatch):
    # the dom lattice built with two of its masks swapped is still a
    # Boolean lattice, so the search finds an anti-isomorphism onto it, but
    # the complement of the masks check_duality reads no longer reverses
    # its order
    built = {}
    real = ringspec._lattice

    def swapped(kind, A, elements, budget):
        if kind == "dom":
            (l0, m0, t0), (l1, m1, t1), *rest = elements
            elements = [(l0, m1, t0), (l1, m0, t1), *rest]
        built[kind] = real(kind, A, elements, budget)
        return built[kind]

    monkeypatch.setattr(ringspec, "_lattice", swapped)
    A = zmod(6)
    assert check_duality(A) == (False, None)
    assert anti_isomorphism(built["zar"].poset, built["dom"].poset,
                            Budget()) is not None


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
    # zar stalks are local through a localization map; dom, fin and nfin
    # stalks are domains through a surjective and integral map
    for A in rings:
        for p in prime_ideals(A):
            L, h = stalk(A, p, "zar")
            assert ringsys.classify_ring(L).is_local
            assert ringsys.is_localization_map(h)
            for topology in ("dom", "fin", "nfin"):
                Q, h = stalk(A, p, topology)
                assert ringsys.classify_ring(Q).is_domain
                assert h.is_surjective()
                assert ringsys.is_integral_map(h)


def test_spec_points_poset_is_discrete(rings):
    sp = spec_points(z12, "zar")
    assert sp.size == 2
    data = sp.as_json()
    assert data["base"] == "Z/12"
    assert all(i == j for i, j in data["order"])
    for A in rings:
        for topology in TOPOLOGIES:
            order = spec_points(A, topology).as_json()["order"]
            assert all(i == j for i, j in order), (A.name, topology)


def test_spec_points_finds_the_primes_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return local_factors(A)

    # patched where each module reads it, so calls through prime_ideals count
    for module in (ringspec, finring):
        monkeypatch.setattr(module, "local_factors", counted)
    A = product_ring([zmod(2), zmod(3), zmod(5)])
    for topology in TOPOLOGIES:
        calls.clear()
        assert spec_points(A, topology).size == 3
        assert len(calls) == 1, topology


def test_spec_points_fin_topology():
    sp = spec_points(z12, "fin")
    assert sp.size == 2
    assert sorted(e["stalk_size"] for e in sp.as_json()["elements"]) == [2, 3]


def test_lattices_match_the_old_constructions(rings, square_zero):
    # the kernel scan and the radical filter give the same reports, the
    # ring names included, and the search the same duality verdict
    for A in spectrum_bases(rings, square_zero):
        assert zar_lattice(A).as_json() == zar_lattice_by_kernels(A), A.name
        assert dom_lattice(A).as_json() == dom_lattice_by_radicals(A), A.name
        assert_duality_matches_the_search(A)


def test_points_match_the_stalks_built_as_rings(rings, square_zero):
    for A in spectrum_bases(rings, square_zero):
        for topology in TOPOLOGIES:
            assert spec_points(A, topology).as_json() == \
                spec_points_by_stalks(A, topology), (A.name, topology)


def dual_numbers(R):
    """R[x]/(x^2), its element a + bx the pair (a, b): local, with R's
    residue field, when R is local."""
    pairs = list(itertools.product(R.elements(), repeat=2))
    at = {pair: i for i, pair in enumerate(pairs)}
    add = [[at[R.add[a][c], R.add[b][d]] for c, d in pairs] for a, b in pairs]
    mul = [[at[R.mul[a][c], R.add[R.mul[a][d]][R.mul[b][c]]]
            for c, d in pairs] for a, b in pairs]
    return FinRing(["%s+%sx" % (R.names[a], R.names[b]) for a, b in pairs],
                   add, mul, at[R.zero, R.zero], at[R.one, R.zero],
                   name="%s[x]/(x^2)" % R.name)


# local rings to draw products from: Z/p^k, F_q, and L_m(F_q), here
# F_p[x_1..x_k]/(x_1..x_k)^2 and the dual numbers over F_4 and Z/4
LOCAL_RINGS = [zmod(n) for n in (2, 3, 4, 5, 8, 9)] + \
    [gf(2, 2), gf(2, 3), gf(3, 2)] + \
    [square_zero_ring(p, k) for p, k in ((2, 1), (3, 1), (2, 2))] + \
    [dual_numbers(gf(2, 2)), dual_numbers(zmod(4))]


def test_the_drawn_local_rings_are_named_by_their_types():
    assert [ring_name(R) for R in LOCAL_RINGS] == [
        "Z/2", "Z/3", "Z/4", "Z/5", "Z/8", "Z/9", "F_4", "F_8", "F_9",
        "L_4(F_2)", "L_9(F_3)", "L_8(F_2)", "L_16(F_4)", "L_16(F_2)"]


@pytest.mark.fuzz
@given(st.lists(st.sampled_from(LOCAL_RINGS), min_size=1, max_size=4)
       .filter(lambda fs: math.prod(f.size for f in fs) <= 72))
def test_drawn_products_match_the_old_constructions(factors):
    A = product_ring(factors)
    assert zar_lattice(A).as_json() == zar_lattice_by_kernels(A)
    assert dom_lattice(A).as_json() == dom_lattice_by_radicals(A)
    assert_duality_matches_the_search(A)
    for topology in TOPOLOGIES:
        assert spec_points(A, topology).as_json() == \
            spec_points_by_stalks(A, topology), topology


def test_spectrum_views_build_no_ring(rings, monkeypatch):
    bases = list(rings) + [product_ring([zmod(2)] * 6),
                           product_ring([zmod(4), gf(2, 2), zmod(9)])]
    built = []
    init = FinRing.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinRing, "__init__", counting)
    for A in bases:
        zar_lattice(A)
        dom_lattice(A)
        check_duality(A)
        for topology in TOPOLOGIES:
            spec_points(A, topology)
    assert built == []
    # the spy sees a ring that is built
    stalk(bases[-1], prime_ideals(bases[-1])[0], "zar")
    assert len(built) == 1


def closure_lattice(family, points):
    """The subsets of range(points) in ``family`` and their intersections,
    with the whole set, as bitmasks ordered by inclusion: a lattice, whose
    poset and meet and join tables this returns."""
    sets = {(1 << points) - 1, *family}
    while more := {a & b for a in sets for b in sets} - sets:
        sets |= more
    sets = sorted(sets, key=lambda s: (s.bit_count(), s))
    at = {s: i for i, s in enumerate(sets)}
    up = [sum(1 << y for y, b in enumerate(sets) if a & ~b == 0)
          for a in sets]
    meet = [[at[a & b] for b in sets] for a in sets]
    # the join is the least member above both, the first in size order
    join = [[at[next(s for s in sets if (a | b) & ~s == 0)] for b in sets]
            for a in sets]
    return Poset(up, Budget()), meet, join


def refuses(P, meet, join):
    try:
        check_lattice(P, meet, join)
    except NotALattice:
        return True
    return False


def test_the_pentagon_and_the_diamond_are_not_distributive():
    # N5: 0 < {0} < {0,1} < 1 and 0 < {2} < 1; M3: three atoms under 1
    for family, points in (([0b000, 0b001, 0b011, 0b100], 3),
                           ([0b000, 0b001, 0b010, 0b100], 3)):
        P, meet, join = closure_lattice(family, points)
        assert P.size == 5
        assert not check_lattice_by_triples(P, meet, join)
        with pytest.raises(NotALattice, match="not distributive"):
            check_lattice(P, meet, join)
    P, meet, join = closure_lattice([0b001, 0b010], 2)
    assert check_lattice_by_triples(P, meet, join)
    assert not refuses(P, meet, join)


@pytest.mark.fuzz
@given(st.data())
def test_a_lattice_with_a_corrupted_cell_is_refused_iff_the_triples_refuse(
        data):
    points = data.draw(st.integers(1, 4), label="points")
    family = data.draw(st.lists(st.integers(0, (1 << points) - 1),
                                max_size=6), label="family")
    P, meet, join = closure_lattice(family, points)
    n = P.size
    if data.draw(st.booleans(), label="corrupt"):
        table = data.draw(st.sampled_from([meet, join]), label="table")
        x, y, value = (data.draw(st.integers(0, n - 1), label=label)
                       for label in ("x", "y", "value"))
        table[x][y] = value
    assert refuses(P, meet, join) == (not check_lattice_by_triples(P, meet,
                                                                   join))


def test_a_refusal_names_the_pair_and_the_law():
    P, meet, join = closure_lattice([0b01, 0b10], 2)
    meet[1][2] = 3
    with pytest.raises(NotALattice) as err:
        check_lattice(P, meet, join)
    assert str(err.value) == \
        "the meet of 1 and 2 is 3, not their greatest lower bound"
    meet[1][2] = 0
    join[2][1] = 2
    with pytest.raises(NotALattice) as err:
        check_lattice(P, meet, join)
    assert str(err.value) == \
        "the join of 2 and 1 is 2, not their least upper bound"
