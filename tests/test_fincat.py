import ast
import random
import time

import pytest
from hypothesis import assume, given, strategies as st

from factopo import catfib, fincat
from factopo.budget import Budget
from factopo.catalogs import category_catalogue
from factopo.catfib import (cat_universe, comma, comprehensive_factorize,
                            slice_factorize)
from factopo.errors import EnumerationBudgetExceeded, InvalidSpec, NotACategory
from factopo.fincat import (FinCat, Functor, all_functors, chain_category,
                            concrete_category, identity_functor, is_orthogonal,
                            monoid_category, poset_category, pushout,
                            terminal_category, validate_fincat, verify_system)
from factopo.ringsys import (class_predicates, ring_universe,
                             verify_ring_system)
from factopo.finring import enumerate_homs, gf, identity_hom, zmod
from oracles import (WarshallPoset, all_functors_by_backtracking,
                     associativity_violation_by_full_scan,
                     closure_and_cancellation_by_pairs,
                     concrete_category_by_pairs,
                     concrete_tables_by_composing_maps, fincat_isomorphic,
                     then, validate_by_triples, validate_entries_by_scan)

AXIOM_KEYS = ("class-membership", "composition-closure-left",
              "composition-closure-right", "intersection-isomorphisms",
              "left-cancellation", "codiagonal-stability", "middle-uniqueness")


def chain(n):
    return poset_category(list(range(n + 1)),
                          [(i, j) for i in range(n + 1) for j in range(i, n + 1)],
                          Budget(), name="[%d]" % n)


def test_poset_category_counts():
    C = chain(2)
    assert len(C.objects) == 3
    assert len(C.morphisms) == 6
    assert C.compose(("le", 1, 2), ("le", 0, 1)) == ("le", 0, 2)


def test_poset_category_refuses_what_is_not_an_order():
    with pytest.raises(InvalidSpec, match="duplicate poset elements"):
        poset_category([0, 0], [], Budget())
    with pytest.raises(InvalidSpec, match="outside the element list"):
        poset_category([0, 1], [(0, 2)], Budget())
    # the pairs must be closed: 0 <= 1 <= 2 without 0 <= 2
    with pytest.raises(InvalidSpec, match="not transitive"):
        poset_category([0, 1, 2], [(0, 1), (1, 2)], Budget())
    with pytest.raises(InvalidSpec, match="not antisymmetric"):
        poset_category(["a", "b"], [("a", "b"), ("b", "a")], Budget())


def test_terminal_category():
    T = terminal_category(Budget())
    assert len(T.objects) == 1 and len(T.morphisms) == 1


def test_validate_fincat_rejects_bad_composition():
    raw = {"objects": ["a", "b"],
           "morphisms": [{"id": "ia", "src": "a", "tgt": "a"},
                         {"id": "ib", "src": "b", "tgt": "b"},
                         {"id": "f", "src": "a", "tgt": "b"}],
           "identities": {"a": "ia", "b": "ib"},
           "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"],
                       ["f", "ia", "f"], ["ib", "f", "ib"]]}
    # ib o f must be f, not ib
    with pytest.raises(NotACategory):
        validate_fincat(raw)


def test_validate_fincat_rejects_wrong_row_shapes():
    # dict-shaped morphisms and compose tables must fail as domain errors,
    # not leak a TypeError from the row unpacking
    raw = {"objects": [0],
           "morphisms": {"i0": [0, 0]},
           "identities": {"0": "i0"},
           "compose": {"i0,i0": "i0"}}
    with pytest.raises(NotACategory):
        validate_fincat(raw)
    rows = [{"id": "i0", "src": 0, "tgt": 0}]
    with pytest.raises(NotACategory):
        validate_fincat({"objects": [0], "morphisms": rows,
                         "identities": {"0": "i0"},
                         "compose": [["i0", "i0"]]})


def test_validate_fincat_stringified_identity_keys():
    # JSON files stringify non-string object keys; they must still resolve
    raw = {"objects": [0, 1],
           "morphisms": [{"id": "i0", "src": 0, "tgt": 0},
                         {"id": "i1", "src": 1, "tgt": 1},
                         {"id": "f", "src": 0, "tgt": 1}],
           "identities": {"0": "i0", "1": "i1"},
           "compose": [["i0", "i0", "i0"], ["i1", "i1", "i1"],
                       ["f", "i0", "f"], ["i1", "f", "f"]]}
    C = validate_fincat(raw)
    assert C.identities[0] == "i0"


def test_functor_validation():
    C, T = chain(1), terminal_category(Budget())
    collapse = Functor(C, T, {0: 0, 1: 0},
                       {m: ("le", 0, 0) for m in C.morphisms})
    assert collapse.on_obj(1) == 0
    with pytest.raises(NotACategory):
        Functor(T, C, {0: 0}, {("le", 0, 0): ("le", 0, 1)})


def test_all_functors_counts():
    C = chain(1)
    assert len(all_functors(C, C, Budget())) == 3
    assert len(all_functors(terminal_category(Budget()), C, Budget())) == 2


def test_fincat_isomorphic():
    C = chain(1)
    D = poset_category(["x", "y"], [("x", "x"), ("x", "y"), ("y", "y")],
                       Budget())
    iso = fincat_isomorphic(C, D)
    assert iso is not None
    assert fincat_isomorphic(C, chain(2)) is None


def test_pushout_of_span():
    # glueing two arrows along a shared source gives the square corner
    C = poset_category([0, 1, 2, 3],
                       [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
                       + [(i, i) for i in range(4)], Budget(), name="sq")
    apex = pushout(C, ("le", 0, 1), ("le", 0, 2), Budget())
    assert apex is not None


def test_is_orthogonal_in_a_poset():
    C = chain(2)
    # unique diagonals always exist in a thin category with the right shape
    assert is_orthogonal(("le", 0, 1), ("le", 1, 2), C)


def test_verify_ring_system_small_universe():
    rings = [zmod(1), zmod(2), zmod(3), zmod(4), gf(2, 2)]
    for system in ("loc-cons", "surj-mono", "int-intclo"):
        report = verify_ring_system(system, rings)
        assert sorted(report.axioms) == sorted(AXIOM_KEYS), system
        assert report.ok(), (system, report.failures())


# unital, but a(bb) = aa = b while (ab)b = ab = a
NONASSOCIATIVE = (["e", "a", "b"], [["e", "a", "b"], ["a", "b", "a"],
                                    ["b", "a", "a"]], "e")


def test_nonassociative_category_is_refused():
    with pytest.raises(NotACategory, match="associativity fails on"):
        monoid_category(*NONASSOCIATIVE, Budget())


def catfib_suite_categories(cats):
    """The slices and coslices of the catalogue, and the elements and d/F
    comma categories of 30 functors between its small categories."""
    out = [slice_factorize(C, c, side)[1].category
           for C in cats for c in C.objects for side in ("right", "left")]
    small = [C for C in cats if len(C.morphisms) <= 6]
    pool = [F for A in small for B in small
            for F in all_functors(A, B, Budget())]
    random.Random(0).shuffle(pool)
    for F in pool[:30]:
        out.append(comprehensive_factorize(F, "right")[1].category)
        out.extend(comma(F, d, "d/F").category for d in F.target.objects)
    return out


class Unchecked(FinCat):
    """Built from a compose table without validating it, so that a corrupted
    table can be held and passed to ``FinCat.validate`` afterwards."""

    def validate(self):
        return None


def corruption_spots(C):
    """The pairs of non-identities whose composite can move to another arrow
    of its hom set: endpoints, totality and the unit laws still hold, so
    only associativity can fail."""
    return [(g, f) for g, f in C.compose_table
            if not C.is_identity(g) and not C.is_identity(f)
            and len(C.hom(C.src(f), C.tgt(g))) > 1]


def corrupted(C, rng):
    """C with the composites of one or two of its corruption spots moved."""
    spots = corruption_spots(C)
    comp = dict(C.compose_table)
    for _ in range(rng.choice((1, 2))):
        g, f = rng.choice(spots)
        comp[(g, f)] = rng.choice([m for m in C.hom(C.src(f), C.tgt(g))
                                   if m != comp[(g, f)]])
    return Unchecked(C.objects, C.morphisms, C.identities, comp, name=C.name)


def corruptions(cats, delta2, n=1000, seed=11):
    """n seeded corruptions of the categories that have room for one."""
    pool = [C for C in cats + [delta2] + catfib_suite_categories(cats)
            if corruption_spots(C)]
    rng = random.Random(seed)
    return [corrupted(rng.choice(pool), rng) for _ in range(n)]


def refusal(C):
    try:
        FinCat.validate(C)
    except NotACategory as exc:
        return str(exc)
    return None


def assert_names_a_broken_triple(C, refused):
    claim, _, triple = refused.partition(" on ")
    assert claim == "associativity fails", refused
    h, g, f = ast.literal_eval(triple)
    comp = C.compose_table
    assert comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)], refused


def old_refusal(C):
    try:
        validate_by_triples(C)
    except NotACategory as exc:
        return str(exc)
    return None


def test_associativity_check_matches_the_full_scan(cats, delta2):
    for C in cats + [delta2] + catfib_suite_categories(cats):
        assert associativity_violation_by_full_scan(C) is None, C.name
        assert refusal(C) is None and old_refusal(C) is None, C.name
    seen = {"refused": 0, "accepted": 0}
    for C in corruptions(cats, delta2):
        new, old = refusal(C), associativity_violation_by_full_scan(C)
        assert (new is None) == (old is None), (C.name, new, old)
        # the pair-and-triple loop, which tries the middles in another
        # order, gives the same verdict
        assert (new is None) == (old_refusal(C) is None), (C.name, new)
        if new is not None:
            assert_names_a_broken_triple(C, new)
        seen["refused" if new else "accepted"] += 1
    assert min(seen.values()) > 0, seen


def test_a_missing_composite_is_named_as_the_pair_loop_names_it(cats):
    """Rows are read in (f, g) order, so the refusal of a table with one
    composable pair left out is the pair loop's, byte for byte."""
    for C in cats:
        for pair in C.compose_table:
            comp = dict(C.compose_table)
            del comp[pair]
            D = Unchecked(C.objects, C.morphisms, C.identities, comp,
                          name=C.name)
            new = refusal(D)
            assert new.startswith("compose undefined on composable pair")
            assert new == old_refusal(D), (C.name, pair)


def fewest_composite_first(C):
    uses = dict.fromkeys(C.morphism_ids(), 0)
    for h in C.compose_table.values():
        uses[h] += 1
    return sorted(C.morphism_ids(), key=uses.__getitem__)


def test_associativity_is_tested_on_generating_middles_only(cats):
    U = cat_universe(cats)
    triples = sum(len(U.hom_from(U.tgt(g)))
                  for f in U.morphism_ids() for g in U.hom_from(U.tgt(f)))
    assert (len(U.morphisms), triples) == (466, 2_550_904)
    before = U.budget.used
    U.validate()
    # the 19 generating middles of the fewest-composite-first order leave
    # 90,722 triples to test; the 100 of morphism_ids order left 377,402
    used = U.budget.used - before
    assert used == 126_530
    before = U.budget.used
    assert len(validate_by_triples(U, fewest_composite_first(U))) == 19
    assert U.budget.used - before == used
    before = U.budget.used
    assert len(validate_by_triples(U)) == 100
    assert U.budget.used - before == 419_124


def test_verify_system_charges_one_step_per_pair_it_reads(cats):
    U = cat_universe(cats)
    budget = Budget()
    report = verify_system(lambda m: (U.identities[U.src(m)], U.src(m), m),
                           U.is_iso, lambda m: True, U, budget=budget)
    assert report.ok()
    assert budget.used == 84_372


def random_class(U, rng, small=False):
    """A seeded class of U's arrows: each arrow with one drawn density, the
    identities and the arrows of drawn hom sets, the isomorphisms and up to
    three drawn arrows, or every arrow but up to three.  ``small`` keeps to
    the first density and the isomorphisms, so that the codiagonal axiom
    computes few pushouts."""
    mors = U.morphism_ids()
    kind = rng.choice((0, 2) if small else (0, 1, 2, 3))
    if kind == 0:
        p = 0.05 if small else rng.choice((0.05, 0.5, 0.95))
        return {m: rng.random() < p for m in mors}
    if kind == 1:
        homs = {xy for xy in U._hom if rng.random() < 0.5}
        return {m: U.morphisms[m] in homs or U.is_identity(m) for m in mors}
    picked = set(rng.sample(mors, rng.choice((0, 1, 3))))
    if kind == 2:
        return {m: U.is_iso(m) or m in picked for m in mors}
    return {m: m not in picked for m in mors}


def test_closure_and_cancellation_read_off_rows_match_the_pair_loop(cats):
    rings = [zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), gf(2, 2)]
    R = ring_universe(rings, Budget())
    systems = []
    for name in ("loc-cons", "surj-mono", "int-intclo"):
        in_left, in_right = class_predicates(name, R)
        systems.append((R, {m: in_left(m) for m in R.morphism_ids()},
                        {m: in_right(m) for m in R.morphism_ids()}))
    rng = random.Random(5)
    systems += [(R, random_class(R, rng), random_class(R, rng))
                for _ in range(60)]
    U = cat_universe(cats)
    systems += [(U, random_class(U, rng, small=True), random_class(U, rng))
                for _ in range(16)]
    seen = set()
    for C, left, right in systems:
        report = verify_system(
            lambda m: (C.identities[C.src(m)], C.src(m), m),
            left.__getitem__, right.__getitem__, C, budget=Budget())
        old = closure_and_cancellation_by_pairs(C, left, right)
        # the other axioms do not read rows
        assert report.axioms == {**report.axioms, **old}
        seen.update((C.name, key, bad is None) for key, bad in old.items())
    assert len(seen) == 12, sorted(seen)


def functor_maps(functors):
    return [(list(F.obj_map.items()), list(F.mor_map.items()))
            for F in functors]


def test_all_functors_matches_the_backtracker(cats, delta2):
    for C in cats:
        for D in cats:
            assert functor_maps(all_functors(C, D, Budget())) == \
                functor_maps(all_functors_by_backtracking(C, D)), (C, D)
    assert functor_maps(all_functors(delta2, delta2, Budget())) == \
        functor_maps(all_functors_by_backtracking(delta2, delta2))
    assert len(all_functors(delta2, delta2, Budget())) == 14
    survivors = {}
    for C in corruptions(cats, delta2):
        if refusal(C) is None:
            survivors[frozenset(C.compose_table.items())] = C
    assert survivors
    small = [C for C in cats if len(C.morphisms) <= 3]
    for S in survivors.values():
        pairs = [(S, T) for T in small] + [(T, S) for T in small]
        if len(S.morphisms) <= 6:
            pairs.append((S, S))
        for C, D in pairs:
            assert functor_maps(all_functors(C, D, Budget())) == \
                functor_maps(all_functors_by_backtracking(C, D)), (C, D)


@st.composite
def dag_categories(draw):
    """The poset category of a DAG on up to four points, its edges closed
    by the Warshall oracle."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    order = WarshallPoset(range(n), [e for e, k in zip(pairs, keep) if k])
    return poset_category(list(range(n)), order.order_pairs(), Budget(),
                          name="dag")


@st.composite
def transformation_monoids(draw):
    """The one-object category of the monoid that up to two self-maps of
    {0, .., k - 1}, k <= 3, generate under composition; the test keeps
    those of at most six elements, which the backtracker handles quickly."""
    k = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * k),
                         max_size=2))
    elements = [tuple(range(k))]
    for a in elements:
        for g in gens:
            ga = tuple(g[i] for i in a)
            if ga not in elements:
                elements.append(ga)
    table = [[elements.index(tuple(a[i] for i in b)) for b in elements]
             for a in elements]
    return monoid_category(range(len(elements)), table, 0, Budget(),
                           name="monoid")


small_categories = st.one_of(
    dag_categories(),
    transformation_monoids().filter(lambda C: len(C.morphisms) <= 6))


@pytest.mark.fuzz
@given(small_categories, small_categories)
def test_all_functors_matches_the_backtracker_on_drawn_categories(C, D):
    assert functor_maps(all_functors(C, D, Budget())) == \
        functor_maps(all_functors_by_backtracking(C, D))


def test_all_functors_charges_are_pinned(cats, delta2):
    # one step per candidate and per look-ahead test, as the recursive
    # search charged them
    used = []
    for C, D in [(C, D) for C in cats for D in cats] + [(delta2, delta2)]:
        budget = Budget()
        all_functors(C, D, budget)
        used.append(budget.used)
    assert (sum(used[:-1]), used[-1]) == (2_119, 10_365)


def test_all_functors_walks_a_long_chain_without_recursing():
    # [45] has 1,035 non-identity arrows, one search step each, past the
    # depth of Python's default recursion limit
    found = all_functors(chain_category(45, Budget()),
                         terminal_category(Budget()), Budget())
    assert len(found) == 1


@pytest.mark.fuzz
@given(small_categories, st.data())
def test_one_corrupted_composite_is_refused_iff_associativity_fails(C, data):
    """A drawn category with one composite moved is refused exactly when
    the full scan finds a broken triple, and the refusal names one."""
    spots = corruption_spots(C)
    assume(spots)
    g, f = data.draw(st.sampled_from(spots))
    comp = dict(C.compose_table)
    comp[(g, f)] = data.draw(st.sampled_from(
        [m for m in C.hom(C.src(f), C.tgt(g)) if m != comp[(g, f)]]))
    D = Unchecked(C.objects, C.morphisms, C.identities, comp, name=C.name)
    new = refusal(D)
    assert (new is None) == (associativity_violation_by_full_scan(D) is None)
    if new is not None:
        assert_names_a_broken_triple(D, new)


@pytest.mark.fuzz
@given(small_categories, st.data())
def test_a_corrupted_entry_is_refused_as_the_entry_scan_refuses_it(C, data):
    """A drawn category with one or two compose entries dropped, pointed
    at an unknown morphism or at one with the wrong endpoints, or added for
    a pair that does not compose, each placed anywhere in the table, is
    refused as the per-entry scan that the row check replaced refuses it,
    with the same message."""
    mors, comp, touched = C.morphisms, dict(C.compose_table), set()
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(("drop", "unknown", "ends", "extra")))
        if kind == "extra":
            spots = [(g, f) for g in mors for f in mors
                     if mors[f][1] != mors[g][0]]
        else:
            spots = list(C.compose_table)
        spots = [pair for pair in spots if pair not in touched]
        assume(spots)
        g, f = data.draw(st.sampled_from(spots))
        touched.add((g, f))
        if kind == "drop":
            del comp[(g, f)]
            continue
        if kind == "unknown":
            h = ("unknown", len(comp))
        else:
            wrong = [m for m in mors if kind == "extra"
                     or mors[m] != (mors[f][0], mors[g][1])]
            assume(wrong)
            h = data.draw(st.sampled_from(wrong))
        items = [kv for kv in comp.items() if kv[0] != (g, f)]
        at = data.draw(st.integers(0, len(items)))
        comp = dict(items[:at] + [((g, f), h)] + items[at:])
    # under a budget that may run out first, as it does in the scan only
    # when the rows up to a missing composite cost more than it holds
    limit = data.draw(st.integers(0, 2 * len(comp)))

    def outcome(check):
        D = Unchecked(C.objects, mors, C.identities, comp, name=C.name,
                      budget=Budget(limit))
        try:
            check(D)
        except (NotACategory, EnumerationBudgetExceeded) as exc:
            return type(exc), str(exc)
        return None

    new = outcome(FinCat.validate)
    assert new is not None and new == outcome(validate_entries_by_scan)


def test_composing_by_rows_matches_the_pair_loop(cats, monkeypatch):
    """The universe of the catalogue's categories and the ring universe of
    ``verify --suite axioms`` compose to the same table, entry for entry in
    the same order, at the same charge, as one pair at a time; so does the
    refusal of a hom set with an arrow left out, and a budget runs out at
    the same step."""
    rings = [zmod(n) for n in (1, 2, 3, 4, 6)] + [gf(2, 2)]

    def universes(build):
        out = []
        # ring_universe imports concrete_category from fincat when it runs
        for module, run in ((catfib, lambda b: cat_universe(cats, budget=b)),
                            (fincat, lambda b: ring_universe(rings, b))):
            monkeypatch.setattr(module, "concrete_category", build)
            budget = Budget()
            out.append((run(budget), budget.used))
            monkeypatch.undo()
        return out

    for (new, new_steps), (old, old_steps) in zip(
            universes(concrete_category),
            universes(concrete_category_by_pairs)):
        assert list(new.compose_table.items()) == \
            list(old.compose_table.items())
        assert new.identities == old.identities
        assert list(new.payload) == list(old.payload)
        assert new_steps == old_steps

    def without_last(A, B, budget):
        found = all_functors(A, B, budget)
        return found[:-1] if (A.name, B.name) == ("[1]", "[2]") else found

    monkeypatch.setattr(catfib, "all_functors", without_last)
    refusals = []
    for build in (concrete_category, concrete_category_by_pairs):
        monkeypatch.setattr(catfib, "concrete_category", build)
        with pytest.raises(NotACategory) as exc:
            cat_universe(cats, budget=Budget())
        refusals.append(str(exc.value))
    monkeypatch.undo()
    assert refusals[0] == refusals[1]
    assert refusals[0].startswith("composite of enumerated arrows missing")

    # the search charges about 2,100 steps, composing 34,487 after it
    for limit in range(2500, 36000, 2500):
        for build in (concrete_category, concrete_category_by_pairs):
            monkeypatch.setattr(catfib, "concrete_category", build)
            budget = Budget(limit)
            with pytest.raises(EnumerationBudgetExceeded):
                cat_universe(cats, budget=budget)
            assert budget.used == limit + 1
            monkeypatch.undo()


def test_budget_stops_the_category_layer_at_once(cats, delta2):
    for run, budget in ((lambda b: all_functors(delta2, delta2, budget=b),
                         Budget(1000)),
                        (lambda b: cat_universe(cats, budget=b), Budget(10000))):
        started = time.perf_counter()
        with pytest.raises(EnumerationBudgetExceeded):
            run(budget)
        # the step that crossed the cap raised: nothing ran on past it
        assert budget.used == budget.limit + 1
        # a loose wall-clock bound, so a loaded host does not fail it
        assert time.perf_counter() - started < 5


def test_image_tuples_tabulate_what_composed_maps_do():
    """The universe of the catalogue's categories, and the ring universe of
    ``verify --suite axioms``, equal the tables built by composing the maps
    themselves and matching each composite back by its fingerprint."""
    def payloads(arrows):
        return {m: (a.source.name, a.target.name, list(a.obj_map.items()),
                    list(a.mor_map.items())) if isinstance(a, Functor) else a
                for m, a in arrows.items()}

    cats = category_catalogue()
    rings = [zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), gf(2, 2)]
    for U, (mors, ids, comp, arrows) in (
            (cat_universe(cats), concrete_tables_by_composing_maps(
                cats, lambda C: C.name,
                lambda A, B: all_functors(A, B, Budget()),
                lambda g, f: then(f, g), identity_functor)),
            (ring_universe(rings, Budget()), concrete_tables_by_composing_maps(
                rings, lambda R: R.name,
                lambda A, B: enumerate_homs(A, B, Budget()),
                lambda g, f: f.then(g), identity_hom))):
        assert U.morphisms == mors and U.identities == ids
        assert U.compose_table == comp
        assert payloads(U.payload) == payloads(arrows)


def test_a_hom_set_listing_one_arrow_twice_is_refused():
    C = chain(1)
    with pytest.raises(NotACategory, match="lists one arrow twice"):
        concrete_category([C], lambda C: C.name,
                          lambda A, B: all_functors(A, B, Budget()) * 2,
                          lambda F: [F.obj_map[x] for x in F.source.objects],
                          Budget())


def test_a_checked_functor_charges_its_source(cats):
    # one step per morphism and per compose entry of the source, to the
    # source's budget when the constructor checks, else to the one given
    for C in cats:
        before = C.budget.used
        F = Functor(C, C, {x: x for x in C.objects},
                    {m: m for m in C.morphisms})
        assert C.budget.used - before == \
            len(C.morphisms) + len(C.compose_table), C.name
        budget = Budget()
        assert F.validate(budget) is F
        assert budget.used == len(C.morphisms) + len(C.compose_table)
