"""Fixed test-scale catalogues: rings, categories, simplicial objects.

The ring list is closed under quotients and under the localizations that
factorizations route through, which is what lets a whole hom collection
be verified inside one universe.
"""

from .budget import ensure_budget
from .fincat import (FinCat, chain_category, monoid_category, poset_category,
                     terminal_category)
from .finring import gf, product_ring, zmod
from .sset import (boundary, build_sset, delta, disjoint_union, horn,
                   subcomplex_of_delta)
from .toposx import (FinGSet, cyclic_group, disjoint_union_gset, regular_gset,
                     symmetric_3, trivial_gset)


def ring_catalogue(budget):
    """Fourteen rings of order at most sixteen, quotient-closed."""
    b = budget
    return [
        zmod(1, b), zmod(2, b), zmod(3, b), zmod(4, b), gf(2, 2, b),
        zmod(5, b), zmod(6, b), zmod(8, b), zmod(9, b), zmod(12, b),
        gf(2, 3, b), gf(3, 2, b), product_ring([zmod(2, b), zmod(2, b)], b),
        product_ring([zmod(2, b), zmod(4, b)], b),
    ]


def _ei_two_object_category(budget):
    # two objects, a Z/2 of automorphisms on the first, two maps across
    objects = ["a", "b"]
    morphisms = {
        "ida": ("a", "a"), "t": ("a", "a"),
        "f": ("a", "b"), "g": ("a", "b"), "idb": ("b", "b"),
    }
    identities = {"a": "ida", "b": "idb"}
    compose = {}
    for m, (s, t) in morphisms.items():
        compose[(m, identities[s])] = m
        compose[(identities[t], m)] = m
    compose[("t", "t")] = "ida"
    compose[("f", "t")] = "g"
    compose[("g", "t")] = "f"
    return FinCat(objects, morphisms, identities, compose, name="EI2",
                  budget=budget)


def category_catalogue(budget=None):
    """Eight finite categories with at most six objects."""
    b = ensure_budget(budget)
    span = poset_category(["a", "b", "c"], [("c", "a"), ("c", "b")], b,
                          name="span")
    cospan = poset_category(["a", "b", "c"], [("a", "c"), ("b", "c")], b,
                            name="cospan")
    square = poset_category(
        ["00", "01", "10", "11"],
        [("00", "01"), ("00", "10"), ("00", "11"), ("01", "11"), ("10", "11")],
        b, name="square")
    z2 = monoid_category([0, 1], [[0, 1], [1, 0]], 0, b, name="BZ2")
    return [terminal_category(b), chain_category(1, b), chain_category(2, b),
            span, cospan, square, z2, _ei_two_object_category(b)]


# a circle, a 2-cell with one genuinely degenerate face, two parallel edges
_SSET_FILES = [
    {"dim": 2, "name": "circle", "nondegenerate": {
        "0": ["v"],
        "1": [{"name": "e", "faces": [[[0], "v"], [[0], "v"]]}]}},
    {"dim": 3, "name": "pinch", "nondegenerate": {
        "0": ["p"],
        "1": [{"name": "c", "faces": [[[0], "p"], [[0], "p"]]}],
        "2": [{"name": "t",
               "faces": [[[0, 1], "c"], [[0, 1], "c"], [[0, 0], "p"]]}]}},
    {"dim": 2, "name": "parallel", "nondegenerate": {
        "0": ["v", "w"],
        "1": [{"name": "e1", "faces": [[[0], "w"], [[0], "v"]]},
              {"name": "e2", "faces": [[[0], "w"], [[0], "v"]]}]}},
]


def sset_corpus(budget):
    """Twenty truncated simplicial sets, all of dimension at most five,
    each built on ``budget``."""
    b = budget
    return [
        *(delta(n, budget=b) for n in range(5)),
        *(boundary(n, budget=b) for n in (1, 2, 3)),
        *(horn(n, k, budget=b)
          for n, k in ((1, 0), (2, 0), (2, 1), (2, 2), (3, 1))),
        disjoint_union(delta(1, budget=b), delta(0, budget=b), name="d1+d0"),
        disjoint_union(delta(0, budget=b), delta(0, budget=b), name="d0+d0"),
        *(build_sset(spec, b) for spec in _SSET_FILES),
        subcomplex_of_delta(3, [(0, 1, 2), (1, 2, 3)], b,
                            name="twotriangles"),
        subcomplex_of_delta(2, [(0, 1), (1, 2)], b, name="path2"),
    ]


def gset_catalogue():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    rot3 = FinGSet(z3, ["a", "b", "c"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                   name="rot3")
    return [
        regular_gset(z2), trivial_gset(z2, 2),
        disjoint_union_gset(regular_gset(z2), regular_gset(z2)),
        rot3, disjoint_union_gset(rot3, trivial_gset(z3, 1)),
        regular_gset(symmetric_3()),
    ]
