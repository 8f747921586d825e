"""End-to-end acceptance battery.

One test per headline property, in a fixed order; the runtime-capped
ones assert their own wall clock.  Everything here recomputes its
expectation from definitions rather than trusting library internals.
"""

import itertools
import json
import random
import time

import pytest

from factopo.budget import Budget
from factopo.catalogs import (category_catalogue, gset_catalogue,
                              ring_catalogue, sset_corpus)
from factopo.catfib import (comprehensive_factorize, is_discrete_right_fibration,
                            is_final, slice_factorize)
from factopo.cli import main
from factopo.fincat import all_functors, terminal_category, Functor
from factopo.finring import (all_ideals, enumerate_homs, gf, ideal_generated,
                             nilradical, prime_ideals, prime_ideals_bruteforce,
                             product_ring, zmod)
from factopo.ringspec import check_duality, spec_points, stalk
from factopo.ringsys import (classify_ring, cover_check, dom_self_lift_decider,
                             verify_ring_system, zar_self_lift_decider)
from factopo.sset import (delta, delta_nis_self_lift_decider, is_standard_simplex,
                          spec_delta_nis)
from factopo.toposx import lines, orbit_partition
from oracles import fincat_isomorphic, points_of, ring_isomorphic, then


def fat_field_catalogue(bound=16):
    """Catalogue members where every element is nilpotent or invertible."""
    out = []
    for R in ring_catalogue(Budget()):
        if R.is_zero_ring() or R.size > bound:
            continue
        units = set(R.units())
        nilp = nilradical(R).elements
        if all(x in units or x in nilp for x in R.elements()):
            out.append(R)
    return out


def test_factorisation_axioms_across_ring_catalogue(rings):
    assert len(rings) >= 10
    assert all(A.size <= 16 for A in rings)
    started = time.perf_counter()
    for system in ("loc-cons", "surj-mono", "int-intclo"):
        report = verify_ring_system(system, rings)
        assert report.ok(), (system, report.failures())
    assert time.perf_counter() - started < 60


def test_spectrum_points_match_prime_ideals(rings):
    for A in rings:
        expected = len(prime_ideals(A))
        brute = len(prime_ideals_bruteforce(A, Budget()))
        assert expected == brute, A.name
        for topology in ("zar", "dom", "fin"):
            assert spec_points(A, topology).size == expected, (A.name, topology)
        assert len(points_of(A)) == expected, A.name


def test_cover_decisions_match_ideal_and_lifting_criteria(rings):
    fats = fat_field_catalogue()
    fields = [gf(p) for p in (2, 3, 5, 7, 11, 13)] \
        + [gf(2, 2), gf(2, 3), gf(2, 4), gf(3, 2)]
    homs_to_fat = {A.name: [(F, enumerate_homs(A, F, Budget())) for F in fats]
                   for A in rings}
    homs_to_field = {A.name: [(F, enumerate_homs(A, F, Budget()))
                              for F in fields]
                     for A in rings}
    rng = random.Random(11)
    zar_families = dom_families = 0
    for A in rings:
        ideals = all_ideals(A, Budget())
        # x is nilpotent when one of x, x^2, ..., x^|A| is zero
        nil = frozenset(x for x in A.elements()
                        if A.zero in itertools.accumulate([x] * A.size, A.m))
        for _ in range(10):
            k = rng.randrange(0, min(A.size, 4) + 1)
            fam = sorted(rng.sample(range(A.size), k)) if k else []
            computed = cover_check(A, fam, "zar").covers
            combination = A.one in ideal_generated(A, fam).elements
            lifting = all(any(h.mapping[a] in F.units() for a in fam)
                          for F, hs in homs_to_fat[A.name] for h in hs)
            assert computed == combination == lifting, (A.name, fam)
            zar_families += 1
        for _ in range(10):
            fam = [ideals[rng.randrange(len(ideals))]
                   for _ in range(rng.randrange(0, 4))]
            computed = cover_check(A, fam, "dom").covers
            meet = frozenset(A.elements())
            for ideal in fam:
                meet &= ideal.elements
            radical = meet <= nil
            lifting = all(
                any(all(h.mapping[x] == F.zero for x in ideal.elements)
                    for ideal in fam)
                for F, hs in homs_to_field[A.name] for h in hs)
            assert computed == radical == lifting, (A.name, len(fam))
            dom_families += 1
    assert zar_families + dom_families >= 200


def test_local_and_domain_flags_match_self_lifting(rings):
    for A in rings:
        c = classify_ring(A)
        assert c.is_local == zar_self_lift_decider(A), A.name
        assert c.is_domain == dom_self_lift_decider(A), A.name


def test_zariski_domain_lattice_duality(rings):
    named = [zmod(12), zmod(36), zmod(8), product_ring([zmod(2), gf(2, 2)])]
    for A in named + list(rings):
        holds, _witness = check_duality(A)
        assert holds, A.name


def test_stalks_land_local_and_domain(rings):
    for A in rings:
        for p in prime_ideals(A):
            assert classify_ring(stalk(A, p, "zar")[0]).is_local, A.name
            assert classify_ring(stalk(A, p, "dom")[0]).is_domain, A.name
    z12 = zmod(12)
    p2 = next(p for p in prime_ideals(z12)
              if z12.element_by_name("2") in p.elements)
    assert ring_isomorphic(stalk(z12, p2, "zar")[0], zmod(4),
                           Budget()) is not None
    assert ring_isomorphic(stalk(z12, p2, "dom")[0], zmod(2),
                           Budget()) is not None


def test_unique_cell_presentation_and_face_lattice(corpus):
    started = time.perf_counter()
    assert len(corpus) == 20
    assert max(X.dim for X in corpus) <= 5
    audited = 0
    for X in corpus:
        for n in range(X.dim + 1):
            for x in X.simplices(n):
                assert X.eilenberg_zilber(x) == x
                audited += 1
    assert audited > 900
    for n in range(5):
        D = delta(n)
        sp = spec_delta_nis(D)
        assert sp.size == 2 ** (n + 1) - 1
        # explicit order iso onto nonempty vertex subsets under inclusion
        subsets = [frozenset(e["cell"]) for e in sp.as_json()["elements"]]
        assert len(set(subsets)) == sp.size
        order = set(sp.poset.order_pairs())
        for i in range(sp.size):
            for j in range(sp.size):
                assert ((i, j) in order) == (subsets[i] <= subsets[j])
    assert time.perf_counter() - started < 10


def test_simplicial_self_lifting_picks_out_standard_simplices(corpus):
    for X in corpus:
        assert delta_nis_self_lift_decider(X) == \
            is_standard_simplex(X, Budget()), X.name


def test_comprehensive_factorisation_legs_and_slices(cats):
    small = [C for C in cats if len(C.objects) <= 6]
    T = terminal_category(Budget())
    jobs = []
    for C in small:
        for c in C.objects:
            jobs.append((Functor(T, C, {0: c}, {("le", 0, 0): C.identities[c]},
                                 name="pick-%s" % c), C, c))
    pool = []
    for C in small:
        for D in small:
            if len(C.morphisms) <= 6 and len(D.morphisms) <= 6:
                pool.extend(all_functors(C, D, Budget()))
    rng = random.Random(9)
    rng.shuffle(pool)
    jobs.extend((F, None, None) for F in pool[:30])
    assert len(jobs) >= 30
    for F, C, c in jobs:
        first, elem, proj = comprehensive_factorize(F, "right")
        assert is_final(first)
        assert is_discrete_right_fibration(proj)
        composite = then(first, proj)
        assert composite.obj_map == F.obj_map
        assert composite.mor_map == F.mor_map
        if C is not None:
            slice_cat = slice_factorize(C, c, "right")[1].category
            assert fincat_isomorphic(elem.category, slice_cat) is not None


def test_orbit_and_line_closed_forms(gsets, vspaces):
    assert [len(orbit_partition(X)) for X in gsets] == [1, 2, 2, 1, 2, 1]
    for V in vspaces:
        assert V.q in (2, 3, 4) and V.n <= 4
        assert len(lines(V)) == (V.q ** V.n - 1) // (V.q - 1)


def test_reports_are_byte_deterministic(tmp_path, capsys):
    ring_path = tmp_path / "z12.json"
    ring_path.write_text(json.dumps({"kind": "zmod", "n": 12}),
                         encoding="utf-8")

    def run(*argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    for argv in (("verify", "--suite", "catfib", "--seed", "7"),
                 ("verify", "--suite", "ring-oracles", "--seed", "3"),
                 ("spectrum", "--topology", "dom", "--base", str(ring_path)),
                 ("classify", "--ring", str(ring_path))):
        assert run(*argv) == run(*argv), argv
