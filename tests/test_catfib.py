import pytest
from hypothesis import given, strategies as st

from factopo import catalogs, catfib, fincat, suites
from factopo.budget import Budget
from factopo.catalogs import category_catalogue
from factopo.catfib import (cat_universe, comma,
                            comma_components, comprehensive_factorize,
                            identity_functor, is_discrete_left_fibration,
                            is_discrete_right_fibration, is_final, is_initial,
                            right_cover_check, slice_factorize)
from factopo.errors import (FactorizerContractViolation, InvalidFamily,
                            InvalidSpec)
from factopo.fincat import (Functor, all_functors, is_orthogonal,
                            poset_category, terminal_category)
from oracles import (comma_by_pairs, comma_components_by_category,
                     connected_components, elements_category_by_triples,
                     fincat_isomorphic, lifts_uniquely_by_scan, then)
from test_fincat import small_categories


def chain(n):
    return poset_category(list(range(n + 1)),
                          [(i, j) for i in range(n + 1) for j in range(i, n + 1)],
                          Budget(), name="[%d]" % n)


def pick(C, c):
    T = terminal_category(Budget())
    return Functor(T, C, {0: c}, {("le", 0, 0): C.identities[c]},
                   name="pick%s" % c)


@pytest.mark.parametrize("side", ["right", "left"])
def test_comprehensive_factorisation_refuses_a_projection_that_is_no_fibration(
        side, monkeypatch):
    monkeypatch.setattr(catfib, "_lifts_uniquely", lambda F, end: False)
    with pytest.raises(FactorizerContractViolation,
                       match="^comprehensive factorisation of .*: projection "
                             "is not a discrete %s fibration$" % side):
        comprehensive_factorize(pick(chain(1), 1), side)


def test_comprehensive_factorisation_refuses_legs_that_do_not_compose(
        monkeypatch):
    # over the discrete category on {0, 1}, the projection followed by the
    # swap is still a discrete fibration, but it sends the unit's image to 1
    D = poset_category([0, 1], [], Budget(), name="two")
    over = catfib._over

    def swapped_over(*args):
        cat, proj = over(*args)
        swap = {o: 1 - proj.on_obj(o) for o in cat.objects}
        return cat, Functor(cat, D, swap, {m: D.identities[swap[cat.src(m)]]
                                           for m in cat.morphisms})

    monkeypatch.setattr(catfib, "_over", swapped_over)
    with pytest.raises(FactorizerContractViolation,
                       match="^comprehensive factorisation of .*: legs do not "
                             "compose to it$"):
        comprehensive_factorize(pick(D, 0), "right")


def test_comma_of_identity_is_the_slice():
    C = chain(1)
    K = comma(identity_functor(C), 1, "F/d")
    assert len(K.category.objects) == 2
    assert fincat_isomorphic(K.category, C) is not None


def test_comma_point_functor():
    C = chain(1)
    K = comma(pick(C, 1), 0, "d/F")
    # objects are arrows 0 -> 1, of which there is one
    assert len(K.category.objects) == 1


def test_connected_components():
    C = poset_category([0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1)], Budget(),
                       name="pair")
    comps = connected_components(C)
    assert len(comps) == 2


def test_finality_table():
    C = chain(1)
    assert is_final(pick(C, 1)) and not is_initial(pick(C, 1))
    assert is_initial(pick(C, 0)) and not is_final(pick(C, 0))
    assert is_final(identity_functor(C)) and is_initial(identity_functor(C))


def test_fibration_classes():
    C = chain(1)
    _first, K, proj = slice_factorize(C, 1, "right")
    assert is_discrete_right_fibration(proj)
    assert not is_discrete_right_fibration(
        Functor(C, terminal_category(Budget()), {0: 0, 1: 0},
                {m: ("le", 0, 0) for m in C.morphisms}))
    _first, K2, proj2 = slice_factorize(C, 0, "left")
    assert is_discrete_left_fibration(proj2)


def test_slice_factorize_composes_to_the_point(cats):
    for C in cats:
        for c in C.objects:
            first, K, proj = slice_factorize(C, c, "right")
            composite = then(first, proj)
            assert composite.obj_map == {0: c}
            firstL, KL, projL = slice_factorize(C, c, "left")
            assert then(firstL, projL).obj_map == {0: c}


def test_slice_apex_is_terminal_and_coslice_apex_initial(cats):
    for C in cats:
        for c in C.objects:
            for side in ("right", "left"):
                first, K, _proj = slice_factorize(C, c, side)
                apex, cat = first.on_obj(0), K.category
                assert all(len(cat.hom(o, apex) if side == "right"
                               else cat.hom(apex, o)) == 1
                           for o in cat.objects), (C.name, c, side)


def test_comprehensive_on_point_functor_gives_the_slice():
    C = chain(1)
    first, elem, proj = comprehensive_factorize(pick(C, 1), "right")
    assert is_final(first)
    assert is_discrete_right_fibration(proj)
    slice_cat = slice_factorize(C, 1, "right")[1].category
    assert fincat_isomorphic(elem.category, slice_cat) is not None


def test_comprehensive_identity_case():
    C = chain(1)
    first, elem, proj = comprehensive_factorize(identity_functor(C), "right")
    assert len(elem.category.objects) == len(C.objects)
    assert then(first, proj).obj_map == identity_functor(C).obj_map


def test_comprehensive_factorisation_charges_only_its_budget():
    # the comma categories and the category of elements are built on the
    # budget the factorisation is given, not on the one its functor's
    # categories were built on
    a, b = Budget(), Budget()
    square = next(C for C in category_catalogue(a) if C.name == "square")
    before = a.used
    for side in ("right", "left"):
        comprehensive_factorize(identity_functor(square), side, budget=b)
    assert a.used == before and b.used > 0


def test_comprehensive_left_side():
    C = chain(1)
    first, elem, proj = comprehensive_factorize(pick(C, 0), "left")
    assert is_initial(first)
    assert is_discrete_left_fibration(proj)


def test_comprehensive_collapse_functor():
    C = chain(1)
    T = terminal_category(Budget())
    collapse = Functor(C, T, {0: 0, 1: 0}, {m: ("le", 0, 0) for m in C.morphisms})
    first, elem, proj = comprehensive_factorize(collapse, "right")
    assert len(elem.category.objects) == 1
    assert is_final(first)


def test_all_slices_cover_and_empty_family():
    C = chain(1)
    slices = [slice_factorize(C, c, "right")[2] for c in C.objects]
    assert right_cover_check(C, slices).covers
    res = right_cover_check(C, [])
    assert not res.covers
    proj1 = slice_factorize(C, 1, "right")[2]
    assert right_cover_check(C, [proj1]).covers  # C/1 is already everything
    with pytest.raises(InvalidFamily):
        right_cover_check(C, [Functor(C, C, {0: 0, 1: 0},
                                      {m: ("le", 0, 0) for m in C.morphisms})])


def test_functor_orthogonality_detects_finality():
    C = chain(1)
    T = terminal_category(Budget())
    proj0 = slice_factorize(C, 0, "right")[2]
    proj1 = slice_factorize(C, 1, "right")[2]
    uni = cat_universe([T, C, proj0.source, proj1.source])

    def mid(F):
        hits = [m for m, a in uni.payload.items()
                if uni.morphisms[m] == (F.source.name, F.target.name)
                and (a.obj_map, a.mor_map) == (F.obj_map, F.mor_map)]
        assert len(hits) == 1
        return hits[0]

    table = {(u, p): is_orthogonal(mid(F), mid(P), uni)
             for u, F in (("pick0", pick(C, 0)), ("pick1", pick(C, 1)))
             for p, P in (("proj0", proj0), ("proj1", proj1))}
    # the non-final point fails exactly against the slice it misses
    assert table == {("pick0", "proj0"): False, ("pick0", "proj1"): True,
                     ("pick1", "proj0"): True, ("pick1", "proj1"): True}


def test_comprehensive_over_catalogue_sample(cats):
    small = [C for C in cats if len(C.morphisms) <= 6]
    done = 0
    for C in small:
        for D in small:
            for F in all_functors(C, D, Budget())[:2]:
                first, elem, proj = comprehensive_factorize(F, "right")
                assert is_final(first) and is_discrete_right_fibration(proj)
                composite = then(first, proj)
                assert composite.obj_map == F.obj_map
                assert composite.mor_map == F.mor_map
                done += 1
    assert done >= 10


def same_category(A, B):
    return (A.objects, A.morphisms, A.identities, A.compose_table) == \
        (B.objects, B.morphisms, B.identities, B.compose_table)


def assert_comma_matches_the_oracles(F, d, side):
    """The components from the hom sets are the comma category's, in the
    same order, at one step per object and per arrow of the comma, and the
    comma is the one the pair scan builds."""
    budget, K = Budget(), comma_by_pairs(F, d, side).category
    assert comma_components(F, d, side, budget) == \
        connected_components(K), (F, d, side)
    assert budget.used == len(K.objects) + len(K.morphisms)
    assert same_category(comma(F, d, side).category, K), (F, d, side)


def posed_by_suites(monkeypatch, names):
    """The (F, d, side) of every comma that the named suites ask for, as
    components or as a category, and the comprehensive factorisations
    they make."""
    posed, factored = [], []
    real_components, real_comma = comma_components, comma
    real_comprehensive = comprehensive_factorize

    def spy_components(F, d, side, budget):
        posed.append((F, d, side))
        return real_components(F, d, side, budget)

    def spy_comma(F, d, side, budget=None):
        posed.append((F, d, side))
        return real_comma(F, d, side, budget)

    def spy_comprehensive(F, side="right", budget=None):
        factored.append(real_comprehensive(F, side, budget))
        return factored[-1]

    # the suites import what they run from catfib when they run
    monkeypatch.setattr(catfib, "comma_components", spy_components)
    monkeypatch.setattr(catfib, "comma", spy_comma)
    monkeypatch.setattr(catfib, "comprehensive_factorize", spy_comprehensive)
    for name in names:
        assert suites.run_suite(name, 0, Budget())["passed"]
    return posed, factored


def test_comma_components_match_the_comma_category_on_the_suites(monkeypatch):
    posed, _factored = posed_by_suites(monkeypatch, ("catfib", "duality"))
    assert {side for _F, _d, side in posed} == {"d/F", "F/d"}
    # 300 commas: the catfib suite builds each right slice once, for both
    # of the checks that read it
    assert len(posed) == 300
    for F, d, side in posed:
        assert_comma_matches_the_oracles(F, d, side)


@pytest.mark.fuzz
@given(small_categories, small_categories, st.data())
def test_comma_components_match_the_comma_category_on_drawn_functors(C, D,
                                                                     data):
    """Functors between drawn posets and monoids, every anchor, both
    sides."""
    F = data.draw(st.sampled_from(all_functors(C, D, Budget())))
    for d in D.objects:
        for side in ("d/F", "F/d"):
            assert_comma_matches_the_oracles(F, d, side)


def test_elements_category_matches_the_triple_loop(monkeypatch, cats):
    _posed, factored = posed_by_suites(monkeypatch, ("catfib",))
    assert len(factored) == 30
    small = [C for C in cats if len(C.morphisms) <= 6]
    for side in ("right", "left"):
        for C in small:
            for D in small:
                for F in all_functors(C, D, Budget())[:3]:
                    factored.append(comprehensive_factorize(F, side))
    assert {fac.middle.side for fac in factored} == {"right", "left"}
    for fac in factored:
        elem = fac.middle
        assert same_category(elem.category,
                             elements_category_by_triples(elem, Budget()))


def test_fibration_verdicts_match_the_scan(cats):
    """The catalogue's slice and coslice projections (true cases) and its
    functors (mostly false ones) get the verdicts of the scan over every
    morphism id."""
    functors = [F for C in cats for D in cats if len(C.morphisms) <= 6
                for F in all_functors(C, D, Budget())[:4]]
    functors += [slice_factorize(C, c, side)[2] for C in cats
                 for c in C.objects for side in ("right", "left")]
    verdicts = set()
    for F in functors:
        for test, end in ((is_discrete_right_fibration, "tgt"),
                          (is_discrete_left_fibration, "src")):
            verdict = test(F)
            assert verdict == lifts_uniquely_by_scan(F, end), (F, end)
            verdicts.add((end, verdict))
    assert verdicts == {(end, v) for end in ("tgt", "src")
                        for v in (True, False)}


def test_finality_charges_only_the_source_budget():
    a, b = Budget(), Budget()
    source = next(C for C in category_catalogue(a) if C.name == "span")
    target = next(C for C in category_catalogue(b) if C.name == "square")
    before_a, before_b = a.used, b.used
    for F in all_functors(source, target, Budget())[:5]:
        is_final(F)
        is_initial(F)
    assert a.used > before_a and b.used == before_b


def test_an_unreached_anchor_has_no_components():
    C = chain(1)
    F = pick(C, 0)
    assert comma_components(F, 1, "d/F", Budget()) == []
    assert comma_components_by_category(F, 1, "d/F") == []
    assert not is_final(F)


def test_components_are_ordered_by_their_least_member():
    # objects listed against their order: the discrete category on b, a
    # collapsed to the point has one component per object, a's first
    C = poset_category(["b", "a"], [], Budget(), name="ba")
    F = Functor(C, terminal_category(Budget()), {"b": 0, "a": 0},
                {m: ("le", 0, 0) for m in C.morphisms})
    point = ("le", 0, 0)
    for side in ("d/F", "F/d"):
        assert comma_components(F, 0, side, Budget()) == \
            [[("a", point)], [("b", point)]]
        assert_comma_matches_the_oracles(F, 0, side)


@pytest.mark.parametrize("d, side, message", [
    (7, "d/F", "anchor 7 is not an object of \\[1\\]"),
    (1, "F\\d", "comma side must be 'd/F' or 'F/d'")])
def test_a_foreign_anchor_or_a_bad_side_is_refused(d, side, message):
    F = pick(chain(1), 1)
    for build in (lambda: comma_components(F, d, side, Budget()),
                  lambda: comma(F, d, side),
                  lambda: comma_by_pairs(F, d, side)):
        with pytest.raises(InvalidSpec, match="^%s$" % message):
            build()


def test_the_catfib_suite_builds_each_slice_and_opposite_once(monkeypatch):
    ops, slices = [], []
    real_op, real_slice = Functor.op, catfib.slice_factorize

    def counting_op(F):
        ops.append(F)
        return real_op(F)

    def counting_slice(C, c, side="right", point=None):
        slices.append((C.name, c, side))
        return real_slice(C, c, side, point)

    monkeypatch.setattr(Functor, "op", counting_op)
    monkeypatch.setattr(catfib, "slice_factorize", counting_slice)
    assert suites.run_suite("catfib", 0, Budget())["passed"]
    assert len(ops) == len({id(F) for F in ops}) == 10
    assert len(slices) == len(set(slices)) == \
        2 * sum(len(C.objects) for C in category_catalogue())


def test_the_catfib_suite_builds_the_point_once(monkeypatch):
    # the catalogue's five posets and its own [0], and one more [0] that
    # every slice starts from
    names = []
    real = fincat.poset_category

    def counting(elements, le_pairs, budget, name=""):
        names.append(name)
        return real(elements, le_pairs, budget, name)

    for module in (fincat, catalogs):
        monkeypatch.setattr(module, "poset_category", counting)
    assert suites.run_suite("catfib", 900, Budget())["passed"]
    assert sorted(names) == ["[0]", "[0]", "[1]", "[2]", "cospan", "span",
                             "square"]
