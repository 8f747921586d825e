import itertools
import math

import pytest
from hypothesis import given, strategies as st

from factopo import ringsys, suites
from factopo.budget import Budget
from factopo.catalogs import ring_catalogue
from factopo.errors import (EnumerationBudgetExceeded,
                            FactorizerContractViolation, InvalidFamily,
                            InvalidSpec)
from factopo.fincat import FAIL, Factorization, verify_system
from factopo.finring import (RingHom, all_ideals, annihilator_kernel,
                             enumerate_homs, gf, identity_hom,
                             ideal_generated, product_ring, zmod)
from factopo.ringspec import spec_points
from factopo.ringsys import (SYSTEMS, class_predicates, classify_ring,
                             conservative_witness, cover_check,
                             dom_self_lift_decider, factorize,
                             is_conservative,
                             is_integral_map, is_integrally_closed_map,
                             is_localization_map, ring_universe,
                             triple_factorize, verify_factorization,
                             verify_ring_system, zar_combination_certificate,
                             zar_self_lift_decider)
from oracles import (classify_ring_by_scans, dom_self_lift_by_rings,
                     element_has_retraction, ideal_has_retraction,
                     integral_elements, is_integral_map_by_witnesses,
                     is_integrally_closed_map_by_witnesses,
                     nfin_cover_by_member_loops, points_of, ring_isomorphic,
                     verify_ring_system_two_runs, verify_system_two_runs,
                     zar_self_lift_by_rings)

z2, z3, z4, z6, z12 = zmod(2), zmod(3), zmod(4), zmod(6), zmod(12)
f4 = gf(2, 2)


def the_hom(A, B):
    homs = enumerate_homs(A, B, Budget())
    assert len(homs) == 1
    return homs[0]


# -- class membership ------------------------------------------------------

def test_projection_z4_z2_is_conservative_not_localization():
    u = the_hom(z4, z2)
    assert is_conservative(u)
    assert not is_localization_map(u)


def test_conservative_witness_z6_z2():
    u = the_hom(z6, z2)
    # 3 maps to the unit 1 without being a unit upstairs
    assert conservative_witness(u) == 3


def test_integral_and_closed_on_field_extension():
    u = the_hom(z2, f4)
    assert is_integral_map(u)
    ident = RingHom(f4, f4, tuple(range(4)))
    assert is_integrally_closed_map(ident)


def test_int_intclo_classes_match_the_monic_witnesses(rings):
    # every hom is integral and the closed ones are the bijections, as the
    # witnesses x^j - x^i re-evaluated at each target element show; the
    # classes charge nothing, the witnesses a step per power
    budget = Budget()
    for A in rings:
        for B in rings:
            for u in enumerate_homs(A, B, budget):
                assert is_integral_map_by_witnesses(u, budget), u
                assert is_integral_map(u)
                assert is_integrally_closed_map(u) == \
                    is_integrally_closed_map_by_witnesses(u, budget) == \
                    u.is_bijective(), u


# -- factorizations --------------------------------------------------------

def test_loc_cons_of_z12_to_z3():
    proj = RingHom(z12, z3, tuple(x % 3 for x in range(12)))
    proj.validate()
    f = factorize(proj, "loc-cons")
    verify_factorization("loc-cons", proj, f, Budget())
    assert f.middle.size == 3
    assert ring_isomorphic(f.middle, z3, Budget()) is not None
    # the whole content sits in the localization leg
    assert f.right.mapping == (0, 1, 2)


def test_loc_cons_of_z4_to_z2_is_trivial_on_the_left():
    u = the_hom(z4, z2)
    f = factorize(u, "loc-cons")
    verify_factorization("loc-cons", u, f, Budget())
    assert f.middle is z4
    assert f.left.mapping == tuple(range(4))


def test_surj_mono_of_z12_to_f4():
    u = the_hom(z12, f4)
    f = factorize(u, "surj-mono")
    verify_factorization("surj-mono", u, f, Budget())
    assert f.middle.size == 2
    assert ring_isomorphic(f.middle, z2, Budget()) is not None


def test_int_intclo_of_prime_field_inclusion():
    u = the_hom(z2, f4)
    f = factorize(u, "int-intclo")
    verify_factorization("int-intclo", u, f, Budget())
    # a field extension is all integral, the closed leg is an iso
    assert f.middle.size == 4
    assert f.right.mapping == tuple(range(4))


def test_triple_factorization_composes():
    u = the_hom(z12, f4)
    t = triple_factorize(u)
    assert t.left.then(t.right.left).then(t.right.right).mapping == u.mapping
    assert t.left.source is z12 and t.right.right.target is f4


def frobenius_f4():
    (frob,) = [h for h in enumerate_homs(f4, f4, Budget())
               if h.mapping != tuple(range(4))]
    return frob


# each clause of the contract, broken by a surj-mono factoriser that
# returns a wrong factorisation of a hom
BROKEN_FACTORISERS = {
    # a middle that is a copy of the source, not the left leg's target
    "legs do not meet": (
        lambda: the_hom(z4, z2),
        lambda u: Factorization(identity_hom(u.source), zmod(4), u)),
    # identity then identity, for the Frobenius of F_4
    "legs do not compose to the input": (
        frobenius_f4,
        lambda u: Factorization(identity_hom(u.source), u.source,
                                identity_hom(u.target))),
    # the diagonal Z/2 -> Z/2 x Z/2 on the left, not onto
    "left leg outside its class": (
        lambda: the_hom(z2, product_ring([z2, z2])),
        lambda u: Factorization(u, u.target, identity_hom(u.target))),
    # Z/4 -> Z/2 on the right, not one to one
    "right leg outside its class": (
        lambda: the_hom(z4, z2),
        lambda u: Factorization(identity_hom(u.source), u.source, u)),
}


@pytest.mark.parametrize("clause", sorted(BROKEN_FACTORISERS))
def test_factorize_refuses_a_broken_factorisation(clause, monkeypatch):
    hom, broken = BROKEN_FACTORISERS[clause]
    monkeypatch.setitem(ringsys.FACTORIZERS, "surj-mono", broken)
    with pytest.raises(FactorizerContractViolation,
                       match="^surj-mono factorisation of .*: %s$" % clause):
        factorize(hom(), "surj-mono")


# -- the axiom battery -----------------------------------------------------

# the universe of `verify --suite axioms`
AXIOM_RINGS = [zmod(n) for n in (1, 2, 3, 4, 6)] + [f4]

# rings with the quotients each has up to isomorphism, the ring itself and
# the zero ring aside; a universe closed under these is closed under
# quotients and localisations
QUOTIENTS = {"Z/1": [], "Z/2": [], "Z/3": [], "Z/4": ["Z/2"],
             "Z/6": ["Z/2", "Z/3"], "F_4": [], "Z/2xZ/2": ["Z/2"],
             "Z/8": ["Z/4", "Z/2"], "Z/9": ["Z/3"],
             "Z/12": ["Z/6", "Z/4", "Z/3", "Z/2"], "Z/2xF_4": ["Z/2", "F_4"]}
POOL = {R.name: R for R in (zmod(1), z2, z3, z4, z6, f4,
                            product_ring([z2, z2]), zmod(8), zmod(9), z12,
                            product_ring([z2, f4]))}


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("system", SYSTEMS)
def test_one_run_battery_matches_the_two_run_oracle_on_the_suite(system,
                                                                 seed):
    ours = verify_ring_system(system, AXIOM_RINGS)
    oracle = verify_ring_system_two_runs(system, AXIOM_RINGS, 1 + seed,
                                         Budget())
    assert ours.axioms == oracle.axioms
    assert ours.ok()


@pytest.mark.fuzz
@given(st.sampled_from(SYSTEMS), st.integers(0, 2 ** 32),
       st.sets(st.sampled_from(sorted(POOL)), min_size=1, max_size=3)
       .map(lambda tops: sorted({"Z/1", *tops,
                                 *(q for t in tops for q in QUOTIENTS[t])}))
       .flatmap(st.permutations))
def test_one_run_battery_matches_the_two_run_oracle(system, seed, names):
    rings = [POOL[n] for n in names]
    assert verify_ring_system(system, rings).axioms == \
        verify_ring_system_two_runs(system, rings, seed, Budget()).axioms


def test_both_batteries_count_two_automorphisms_fixing_frobenius_legs():
    # Z/2 -> Z/1 through F_4: Frobenius fixes Z/2 -> F_4 and F_4 -> Z/1
    U = ring_universe([zmod(1), z2, f4], Budget())
    through = (("Z/2", "F_4", 0), "F_4", ("F_4", "Z/1", 0))

    def fac(m):
        if m == ("Z/2", "Z/1", 0):
            return Factorization(*through)
        return Factorization(U.identities[U.src(m)], U.src(m), m)

    in_left, in_right = class_predicates("surj-mono", U)
    ours = verify_system(fac, in_left, in_right, U, budget=Budget())
    oracle = verify_system_two_runs(fac, fac, in_left, in_right, U, Budget())
    assert ours.axioms == oracle.axioms
    assert ours.failures()["middle-uniqueness"].counterexample == \
        (("Z/2", "Z/1", 0), 2)


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_battery_factorises_each_morphism_once(monkeypatch, system):
    calls = []
    factorizer = ringsys.FACTORIZERS[system]

    def counted(u):
        calls.append(u.mapping)
        return factorizer(u)

    monkeypatch.setitem(ringsys.FACTORIZERS, system, counted)
    assert verify_ring_system(system, AXIOM_RINGS).ok()
    assert len(calls) == \
        len(ring_universe(AXIOM_RINGS, Budget()).morphism_ids())


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_battery_looks_for_each_middles_iso_once(monkeypatch, system):
    # one factoriser per morphism searches afresh every time; one shared
    # factoriser must give the same factorisations with one search per
    # middle
    U = ring_universe(AXIOM_RINGS, Budget())
    fresh = [ringsys.system_factorizer(system, U, Budget())(m)
             for m in U.morphism_ids()]
    searched = []
    search = ringsys._iso_onto_universe

    def counted(M, rings, budget):
        searched.append((M.add, M.mul, M.zero, M.one, M.generators))
        return search(M, rings, budget)

    monkeypatch.setattr(ringsys, "_iso_onto_universe", counted)
    fac = ringsys.system_factorizer(system, U, Budget())
    assert [fac(m) for m in U.morphism_ids()] == fresh
    assert len(set(searched)) == len(searched) < len(fresh)


def test_a_leg_outside_its_class_is_a_class_membership_failure(monkeypatch):
    # the identity, then u: a surjection, but the right leg is not injective
    monkeypatch.setitem(ringsys.FACTORIZERS, "surj-mono",
                        lambda u: Factorization(identity_hom(u.source),
                                                u.source, u))
    report = verify_ring_system("surj-mono", AXIOM_RINGS)
    failure = report.failures()["class-membership"]
    assert failure.status == FAIL
    m, _left, right = failure.counterexample
    assert m == right and m[0] != m[1]


def test_the_battery_refuses_a_universe_with_repeated_names():
    with pytest.raises(InvalidSpec, match="distinct names"):
        verify_ring_system("loc-cons", [zmod(2), zmod(2)])


def test_the_battery_refuses_a_universe_without_the_middles():
    # Z/12 -> Z/2 inverts the odd elements, through the missing Z/4
    with pytest.raises(InvalidSpec, match="closed under quotients"):
        verify_ring_system("loc-cons", [zmod(12), zmod(2)])


# -- classification --------------------------------------------------------

def test_classify_z4():
    c = classify_ring(z4)
    assert (c.is_field, c.is_fat_field, c.is_local, c.is_domain) == \
        (False, True, True, False)
    assert c.witnesses["is_field"] == "2"


def test_classify_f4():
    c = classify_ring(f4)
    assert c.is_field and c.is_fat_field and c.is_local
    assert c.is_domain and c.is_integrally_closed_domain


def test_classify_z6():
    c = classify_ring(z6)
    assert not c.is_local and not c.is_domain
    assert c.witnesses["is_domain"] == ("2", "3")


# Z/1 to Z/64, nine fields and fifteen two-factor products
CLASSIFY_RINGS = [zmod(n) for n in range(1, 65)] + \
    [gf(p, k) for p, k in ((2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3),
                           (2, 5), (7, 2), (2, 6))] + \
    [product_ring(list(pair)) for pair in itertools.combinations_with_replacement(
        [z2, z3, z4, f4, zmod(5)], 2)]
SMALL_RINGS = [zmod(n) for n in range(1, 13)] + [f4, gf(2, 3), gf(3, 2)]


def assert_classify_matches_the_scans(A):
    new, old = Budget(), Budget()
    ours, theirs = classify_ring(A, new), classify_ring_by_scans(A, old)
    assert ours == theirs, A.name
    assert list(ours.witnesses) == list(theirs.witnesses), A.name
    # domains charge one step per element, not one per power
    assert new.used <= old.used, A.name


def test_classify_matches_the_scans():
    for A in CLASSIFY_RINGS:
        assert_classify_matches_the_scans(A)


@pytest.mark.fuzz
@given(st.lists(st.sampled_from(SMALL_RINGS), min_size=1, max_size=3)
       .filter(lambda fs: math.prod(f.size for f in fs) <= 72))
def test_classify_matches_the_scans_on_drawn_products(factors):
    assert_classify_matches_the_scans(
        factors[0] if len(factors) == 1 else product_ring(factors))


def test_classify_matches_membership(rings):
    # locality and domain-ness agree with the self-lifting deciders
    for A in rings:
        c = classify_ring(A)
        assert c.is_local == zar_self_lift_decider(A), A.name
        assert c.is_domain == dom_self_lift_decider(A), A.name


def test_self_lift_deciders_match_the_rings_they_no_longer_build(rings):
    # A -> A[1/a] and A -> A/I have a retraction iff their kernel is zero;
    # the oracles build the localisation or the quotient ring to see it
    extra = [zmod(36), zmod(60), product_ring([zmod(4), gf(2, 2), zmod(9)])]
    for A in list(rings) + extra:
        for a in A.elements():
            assert element_has_retraction(A, a) == \
                annihilator_kernel(A, [a]).is_zero(), (A.name, a)
        for I in all_ideals(A, Budget()):
            assert ideal_has_retraction(A, I) == I.is_zero(), (A.name, I)
        assert zar_self_lift_decider(A) == zar_self_lift_by_rings(A), A.name
        assert dom_self_lift_decider(A) == \
            dom_self_lift_by_rings(A, Budget()), A.name


def test_zar_certificate_charges_each_scan_before_it_runs():
    # Z/6 with 2 then 3: one reached sum, then {0, 2, 4}, times 6 elements
    budget = Budget()
    assert zar_combination_certificate(z6, [2, 3], budget) == (2, 1)
    assert budget.used == 6 + 3 * 6
    with pytest.raises(EnumerationBudgetExceeded):
        zar_combination_certificate(z6, [2, 3], Budget(6 + 3 * 6 - 1))


def test_dom_cover_charges_each_ideal_check():
    # Z/12 itself, 12 * (12 + 12) steps, is refused before its check
    whole = ideal_generated(z12, [z12.one])
    with pytest.raises(EnumerationBudgetExceeded):
        cover_check(z12, [whole], "dom", budget=Budget(12 * 24 - 1))
    assert cover_check(z12, [whole], "dom", budget=Budget()).covers is False


def test_homs_keep_units_and_witnesses_lie_in_the_image(rings):
    # what is_conservative and check_monic_witness take as known
    budget = Budget()
    for A in rings:
        for B in rings:
            units = set(B.units())
            for u in enumerate_homs(A, B, budget):
                assert {u(x) for x in A.units()} <= units, u
                image = set(u.mapping)
                assert all(set(w) <= image
                           for w in integral_elements(u, budget).values()), u


# -- covers ----------------------------------------------------------------

def test_zar_cover_z6():
    res = cover_check(z6, [2, 3], "zar")
    assert res.covers and res.certificate == {"combination": [2, 1]}
    res2 = cover_check(z6, [2], "zar")
    assert not res2.covers and "proper_ideal" in res2.certificate


def test_zar_cover_rejects_garbage():
    with pytest.raises(InvalidFamily):
        cover_check(z6, ["2"], "zar")


def test_dom_cover_z12():
    fam = [ideal_generated(z12, [2]), ideal_generated(z12, [3])]
    res = cover_check(z12, fam, "dom")
    assert res.covers
    # intersection is {0, 6}, both nilpotent
    assert res.certificate == {"nilpotency": {"0": 1, "6": 2}}
    res2 = cover_check(z12, [ideal_generated(z12, [3])], "dom")
    assert not res2.covers


def test_fin_cover_through_residue_fields():
    fam = [the_hom(z6, z2), the_hom(z6, z3)]
    assert cover_check(z6, fam, "fin").covers
    assert not cover_check(z6, [the_hom(z6, z2)], "fin").covers


def test_empty_family_covers_only_the_zero_ring():
    assert cover_check(zmod(1), [], "zar").covers
    assert not cover_check(z6, [], "zar").covers
    assert cover_check(zmod(1), [], "dom").covers
    assert not cover_check(z6, [], "dom").covers


CATALOGUE = ring_catalogue(Budget())
HOMS_OUT = {A.name: [u for B in CATALOGUE for u in enumerate_homs(A, B, Budget())]
            for A in CATALOGUE}


def assert_nfin_matches_the_member_loops(A, family):
    new, old = Budget(), Budget()
    assert cover_check(A, family, "nfin", budget=new) == \
        nfin_cover_by_member_loops(A, family, 16, old), (A.name, family)
    # each member's homs into a field are listed once, not once per hom
    assert new.used <= old.used, (A.name, family)


def test_nfin_routing_matches_the_member_loops():
    for A in CATALOGUE:
        homs = HOMS_OUT[A.name]
        for family in [[], homs, homs[::-1]] + [[u] for u in homs]:
            assert_nfin_matches_the_member_loops(A, family)


@pytest.mark.fuzz
@given(st.sampled_from(CATALOGUE).flatmap(lambda A: st.tuples(
    st.just(A), st.lists(st.sampled_from(HOMS_OUT[A.name]), max_size=3))))
def test_nfin_routing_matches_the_member_loops_on_drawn_families(drawn):
    assert_nfin_matches_the_member_loops(*drawn)


# -- points ----------------------------------------------------------------

def test_points_sizes():
    assert [len(points_of(A)) for A in (z12, z6, zmod(8), zmod(1), f4)] == \
        [2, 2, 1, 0, 1]


def test_points_of_matches_spec_points(rings):
    # the points by residue quotients against the spectrum read off the
    # local factors: the same primes in order, for every topology, and the
    # residue rings of the sizes of the dom stalks
    for A in rings:
        points = points_of(A)
        for topology in ("zar", "dom", "fin"):
            rows = spec_points(A, topology).as_json()["elements"]
            assert [p.label() for p, _res in points] == \
                [row["prime"] for row in rows], (A.name, topology)
        assert [res.target.size for _p, res in points] == \
            [row["stalk_size"] for row in
             spec_points(A, "dom").as_json()["elements"]], A.name


def test_points_labels_z6():
    assert sorted(p.label() for p, _res in points_of(z6)) == \
        ["{0,2,4}", "{0,3}"]


def test_points_equal_primes_rows_fail_when_a_point_is_missing(monkeypatch):
    # the rows count the points spectrum reports for each topology, which
    # the brute-force primes check
    real = suites.spec_points

    def dropping(A, topology, budget):
        sp = real(A, topology, budget)
        if (A.name, topology) == ("Z/6", "dom"):
            return sp._replace(rows=sp.rows[1:])
        return sp

    checks = suites.run_suite("ring-oracles", budget=Budget())["checks"]
    assert all(c["ok"] for c in checks)
    assert sum(c["name"].startswith("points-equal-primes:") for c in checks) \
        == 42
    monkeypatch.setattr(suites, "spec_points", dropping)
    checks = suites.run_suite("ring-oracles", budget=Budget())["checks"]
    assert [c for c in checks if not c["ok"]] == [
        {"name": "points-equal-primes:Z/6:dom", "ok": False,
         "counterexample": "1 points, 2 primes"}]
