import pytest

from factopo.errors import NotACategory
from factopo.fincat import (FinCat, Functor, all_functors, is_orthogonal,
                            poset_category, pushout, terminal_category,
                            validate_fincat)
from factopo.ringsys import verify_ring_system
from factopo.finring import gf, zmod
from oracles import fincat_isomorphic

AXIOM_KEYS = ("class-membership", "composition-closure-left",
              "composition-closure-right", "intersection-isomorphisms",
              "left-cancellation", "codiagonal-stability", "middle-uniqueness")


def chain(n):
    return poset_category(list(range(n + 1)),
                          [(i, j) for i in range(n + 1) for j in range(i, n + 1)],
                          name="[%d]" % n)


def test_poset_category_counts():
    C = chain(2)
    assert len(C.objects) == 3
    assert len(C.morphisms) == 6
    assert C.compose(("le", 1, 2), ("le", 0, 1)) == ("le", 0, 2)


def test_terminal_category():
    T = terminal_category()
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
    C, T = chain(1), terminal_category()
    collapse = Functor(C, T, {0: 0, 1: 0},
                       {m: ("le", 0, 0) for m in C.morphisms})
    assert collapse.on_obj(1) == 0
    with pytest.raises(NotACategory):
        Functor(T, C, {0: 0}, {("le", 0, 0): ("le", 0, 1)})


def test_all_functors_counts():
    C = chain(1)
    assert len(all_functors(C, C)) == 3
    assert len(all_functors(terminal_category(), C)) == 2


def test_fincat_isomorphic():
    C = chain(1)
    D = poset_category(["x", "y"], [("x", "x"), ("x", "y"), ("y", "y")])
    iso = fincat_isomorphic(C, D)
    assert iso is not None
    assert fincat_isomorphic(C, chain(2)) is None


def test_pushout_of_span():
    # glueing two arrows along a shared source gives the square corner
    C = poset_category([0, 1, 2, 3],
                       [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
                       + [(i, i) for i in range(4)], name="sq")
    apex = pushout(C, ("le", 0, 1), ("le", 0, 2))
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
