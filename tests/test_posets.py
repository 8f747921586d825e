"""The up-set Poset against the Warshall oracle and against the relation
poset it replaced: the same order pairs, covers, opposite order, meets and
joins, and the same refusals."""

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
from oracles import (RelationPoset, WarshallPoset, op, poset_join,
                     poset_meet, warshall_closure)


@contextlib.contextmanager
def recorded_posets():
    """Collects the up-set masks of every Poset built inside the block."""
    built = []
    init = Poset.__init__

    def record(self, up, budget):
        built.append(list(up))
        init(self, up, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poset, "__init__", record)
        yield built


def bound_pairs(n, rng):
    """Every pair of a small poset, a seeded sample of a large one."""
    if n <= 40:
        return [(x, y) for x in range(n) for y in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(60)]


def closed_masks(n, edges):
    """The up-set masks of the Warshall closure of ``edges``, and the
    closure itself."""
    rel = warshall_closure(n, edges)
    return [sum(1 << j for j in range(n) if row[j]) for row in rel], rel


def assert_agrees(n, pairs, rng=None):
    """Poset on the closure of ``pairs`` against the Warshall poset."""
    want = WarshallPoset(range(n), pairs)
    got = Poset(closed_masks(n, pairs)[0], Budget())
    assert got.order_pairs() == want.order_pairs()
    assert got.hasse_edges() == want.hasse_edges()
    assert op(got, Budget()).order_pairs() == \
        sorted((y, x) for x, y in want.order_pairs())
    for x, y in bound_pairs(n, rng or random.Random(0)):
        assert poset_meet(got, x, y) == want.meet(x, y), (x, y)
        assert poset_join(got, x, y) == want.join(x, y), (x, y)


@st.composite
def drawn_relations(draw):
    """A relation on 0..n-1, n <= 10, as (n, pairs); half of them climb
    the index order and so close no cycle."""
    n = draw(st.integers(0, 10), label="size")
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))),
                          max_size=3 * n), label="pairs")
    if draw(st.booleans(), label="acyclic"):
        edges = [(min(i, j), max(i, j)) for i, j in edges]
    return n, edges


def assert_refused_on_a_cycle(n, edges):
    """Poset refuses the closure of ``edges``, naming two distinct
    elements that reach each other."""
    up, rel = closed_masks(n, edges)
    with pytest.raises(InvalidSpec, match="not antisymmetric") as err:
        Poset(up, Budget())
    x, y = map(int, re.fullmatch(r"not antisymmetric: (\d+) and (\d+) "
                                 r"compare both ways", str(err.value)).groups())
    assert x != y and rel[x][y] and rel[y][x]


def test_every_golden_spectrum_and_lattice(tmp_path):
    with recorded_posets() as built:
        for name in test_golden.CASES:
            (tmp_path / name).mkdir()
            test_golden.run_case(name, tmp_path / name)
    assert len(built) >= 15
    for up in built:
        pairs = [(i, j) for i, mask in enumerate(up) for j in range(len(up))
                 if mask >> j & 1]
        assert_agrees(len(up), pairs)


def test_cell_spectra_of_the_corpus_and_stock_shapes(corpus):
    # the masks of one reverse pass equal the closure of the relation "the
    # cell of each stored face lies below its cell"
    stock = [delta(n) for n in range(7)] + \
        [boundary(n) for n in range(1, 7)] + \
        [horn(n, k) for n in range(1, 7) for k in range(n + 1)]
    rng = random.Random(7)
    for X in corpus + stock:
        refs = X.cells()
        pos = {r: i for i, r in enumerate(refs)}
        pairs = [(pos[w], pos[r]) for r in refs for _s, w in X.cell_faces(r)]
        want = WarshallPoset(range(len(refs)), pairs)
        assert spec_delta_nis(X).poset.order_pairs() == \
            want.order_pairs(), X.name
        assert_agrees(len(refs), pairs, rng)


def test_an_order_that_is_not_reflexive_is_refused():
    with pytest.raises(InvalidSpec, match="not reflexive: 1 is not below"):
        Poset([0b11, 0b00], Budget())


def test_an_order_that_is_not_transitive_is_refused():
    # 0 <= 1 <= 2, but 2 is missing from the up-set of 0
    with pytest.raises(InvalidSpec, match="not transitive: 0 <= 1"):
        Poset([0b011, 0b110, 0b100], Budget())


def test_a_two_cycle_is_refused_as_not_antisymmetric():
    with pytest.raises(InvalidSpec,
                       match="not antisymmetric: 0 and 1 compare both ways"):
        Poset([0b11, 0b11], Budget())


def test_a_cycle_is_refused_with_two_of_its_members():
    # the closure of 3 -> 0 -> 1 -> 2 -> 0: 0, 1 and 2 all compare both ways
    with pytest.raises(InvalidSpec,
                       match="not antisymmetric: 0 and 1 compare both ways"):
        Poset(closed_masks(4, [(3, 0), (0, 1), (1, 2), (2, 0)])[0], Budget())
    assert_refused_on_a_cycle(2, [(0, 1), (1, 0)])


@given(drawn_relations())
def test_random_relations_agree_with_the_oracle(drawn):
    n, edges = drawn
    try:
        WarshallPoset(range(n), edges)
    except InvalidSpec:
        assert_refused_on_a_cycle(n, edges)
        return
    assert_agrees(n, edges)


@pytest.mark.fuzz
@given(drawn_relations())
def test_drawn_relations_match_the_relation_poset(drawn):
    # the relation poset closes the drawn pairs itself; Poset is given the
    # masks of their Warshall closure
    n, edges = drawn
    try:
        want = RelationPoset(range(n), edges, Budget())
    except InvalidSpec:
        assert_refused_on_a_cycle(n, edges)
        return
    got = Poset(closed_masks(n, edges)[0], Budget())
    assert got.order_pairs() == want.order_pairs()
    assert got.hasse_edges() == want.hasse_edges()
    assert (got.up, got.down) == (want.up, want.down)


def test_the_budget_pays_for_elements_and_pairs_first():
    up = [0b111111] + [1 << i for i in range(1, 6)]
    budget = Budget(10)
    with pytest.raises(EnumerationBudgetExceeded):
        Poset(up, budget)
    assert budget.used == 17
    budget = Budget()
    Poset(up, budget)
    assert budget.used == 17
