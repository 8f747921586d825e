"""The bitmask Poset against the Warshall oracle: the same order pairs,
covers, opposite order, meets and joins, and the same refusals."""

import ast
import contextlib
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_golden
from factopo.budget import Budget
from factopo.errors import EnumerationBudgetExceeded, InvalidSpec
from factopo.posets import Poset
from factopo.sset import boundary, delta, horn, spec_delta_nis
from oracles import WarshallPoset, poset_join, poset_meet


@contextlib.contextmanager
def recorded_posets():
    """Collects (elements, pairs) of every Poset built inside the block."""
    built = []
    init = Poset.__init__

    def record(self, elements, pairs, budget):
        built.append((list(elements), list(pairs)))
        init(self, elements, pairs, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poset, "__init__", record)
        yield built


def reaches(pairs, x, y):
    seen, todo = {x}, [x]
    while todo:
        a = todo.pop()
        for b, c in pairs:
            if b == a and c not in seen:
                seen.add(c)
                todo.append(c)
    return y in seen


def bound_pairs(elements, rng):
    """Every pair of a small poset, a seeded sample of a large one."""
    if len(elements) <= 40:
        return [(x, y) for x in elements for y in elements]
    return [(rng.choice(elements), rng.choice(elements)) for _ in range(60)]


def assert_agrees(elements, pairs, rng=None):
    try:
        want = WarshallPoset(elements, pairs)
    except InvalidSpec:
        with pytest.raises(InvalidSpec) as err:
            Poset(elements, pairs, Budget())
        # a refusal names two distinct elements that reach each other
        x, y = map(ast.literal_eval, re.fullmatch(
            r"not antisymmetric: (.+) and (.+) compare both ways",
            str(err.value)).groups())
        assert x != y and reaches(pairs, x, y) and reaches(pairs, y, x)
        return
    got = Poset(elements, pairs, Budget())
    assert got.order_pairs() == want.order_pairs()
    assert got.hasse_edges() == want.hasse_edges()
    for x, y in bound_pairs(elements, rng or random.Random(0)):
        assert poset_meet(got, x, y) == want.meet(x, y), (x, y)
        assert poset_join(got, x, y) == want.join(x, y), (x, y)


def test_every_golden_spectrum_and_lattice(tmp_path):
    with recorded_posets() as built:
        for name in test_golden.CASES:
            (tmp_path / name).mkdir()
            test_golden.run_case(name, tmp_path / name)
    assert len(built) >= 15
    for elements, pairs in built:
        assert_agrees(elements, pairs)


def test_cell_spectra_of_the_corpus_and_stock_shapes(corpus):
    stock = [delta(n) for n in range(7)] + \
        [boundary(n) for n in range(1, 7)] + \
        [horn(n, k) for n in range(1, 7) for k in range(n + 1)]
    with recorded_posets() as built:
        for X in corpus + stock:
            spec_delta_nis(X)
    assert len(built) == len(corpus + stock)
    rng = random.Random(7)
    for elements, pairs in built:
        assert_agrees(elements, pairs, rng)


def test_a_cycle_is_refused_with_two_of_its_members():
    assert_agrees([0, 1, 2, 3], [(3, 0), (0, 1), (1, 2), (2, 0)])
    assert_agrees(["a", "b"], [("a", "b"), ("b", "a")])


@given(st.data())
def test_random_relations_agree_with_the_oracle(data):
    n = data.draw(st.integers(0, 10), label="size")
    elements = data.draw(st.permutations(range(n)), label="elements")
    edges = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                         st.integers(0, max(n - 1, 0))),
                               max_size=3 * n), label="pairs")
    if data.draw(st.booleans(), label="acyclic"):
        # pairs that climb the drawn element order never close a cycle
        edges = [(min(i, j), max(i, j)) for i, j in edges]
    assert_agrees(elements, [(elements[i], elements[j]) for i, j in edges])


def test_the_budget_pays_for_elements_and_pairs_first():
    budget = Budget(10)
    with pytest.raises(EnumerationBudgetExceeded):
        Poset(list(range(6)), [(0, i) for i in range(1, 6)], budget)
    assert budget.used == 11
    budget = Budget()
    Poset(list(range(6)), [(0, i) for i in range(1, 6)], budget)
    assert budget.used == 11
