import pytest

from factopo.budget import Budget
from factopo.errors import InvalidFamily
from factopo.finring import (RingHom, enumerate_homs, gf, ideal_generated,
                             product_ring, zmod)
from factopo.ringsys import (classify_ring, conservative_witness, cover_check,
                             dom_self_lift_decider, factorize,
                             integral_elements, is_conservative,
                             is_integral_map, is_integrally_closed_map,
                             is_localization_map, points_of, triple_factorize,
                             zar_self_lift_decider)
from oracles import ring_isomorphic

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
    assert is_integral_map(u, Budget())
    ident = RingHom(f4, f4, tuple(range(4)))
    assert is_integrally_closed_map(ident, Budget())


# -- factorizations --------------------------------------------------------

def test_loc_cons_of_z12_to_z3():
    proj = RingHom(z12, z3, tuple(x % 3 for x in range(12)))
    proj.validate()
    f = factorize(proj, "loc-cons")
    f.verify(proj, Budget())
    assert f.middle.size == 3
    assert ring_isomorphic(f.middle, z3, Budget()) is not None
    # the whole content sits in the localization leg
    assert f.right.mapping == (0, 1, 2)


def test_loc_cons_of_z4_to_z2_is_trivial_on_the_left():
    u = the_hom(z4, z2)
    f = factorize(u, "loc-cons")
    f.verify(u, Budget())
    assert f.middle is z4
    assert f.left.mapping == tuple(range(4))


def test_surj_mono_of_z12_to_f4():
    u = the_hom(z12, f4)
    f = factorize(u, "surj-mono")
    f.verify(u, Budget())
    assert f.middle.size == 2
    assert ring_isomorphic(f.middle, z2, Budget()) is not None


def test_int_intclo_of_prime_field_inclusion():
    u = the_hom(z2, f4)
    f = factorize(u, "int-intclo")
    f.verify(u, Budget())
    # a field extension is all integral, the closed leg is an iso
    assert f.middle.size == 4
    assert f.right.mapping == tuple(range(4))


def test_triple_factorization_composes():
    u = the_hom(z12, f4)
    t = triple_factorize(u)
    assert t.composite().mapping == u.mapping
    assert t.surj.source is z12 and t.intclo.target is f4


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


def test_classify_matches_membership(rings):
    # locality and domain-ness agree with the self-lifting deciders
    for A in rings:
        c = classify_ring(A)
        assert c.is_local == zar_self_lift_decider(A), A.name
        assert c.is_domain == dom_self_lift_decider(A), A.name


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


# -- points ----------------------------------------------------------------

def test_points_sizes():
    assert [len(points_of(A)) for A in (z12, z6, zmod(8), zmod(1), f4)] == \
        [2, 2, 1, 0, 1]


def test_points_labels_z6():
    assert sorted(p.label() for p, _res in points_of(z6)) == \
        ["{0,2,4}", "{0,3}"]
