import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factopo.budget import Budget
from factopo.catalogs import sset_corpus
from factopo.cli import main
from factopo.errors import (EnumerationBudgetExceeded, FactopoError,
                            FactorizerContractViolation, IdentityViolation,
                            InvalidSpec, NotSimplicial, TruncationTooLow)
from factopo.sset import (FinSSet, SimplicialMap, all_simplicial_maps,
                          boundary, build_sset, codegeneracy, coface,
                          compose_ops, deg_ndeg_factorize, delta,
                          delta_nis_self_lift_decider, disjoint_union,
                          epi_mono_split, horn, identity_op, identity_smap,
                          is_nondegenerate_map, is_standard_simplex,
                          spec_delta_nis, spec_raw, sset_cover_check,
                          subcomplex_of_delta, surjective_ops)
from factopo.suites import _ez_map_pool, run_suite
from oracles import (act_by_composite_table, act_by_recursion,
                     classifying_map, deg_ndeg_by_one_quotient,
                     deg_ndeg_by_rounds, elementary_ops,
                     is_standard_simplex_by_every_dimension, monotone_ops,
                     quotient_by_pairs, self_lift_by_simplices,
                     sset_cover_check_by_simplices, sset_isomorphic,
                     surjective_ops_by_filter)


# -- operator algebra ------------------------------------------------------

def injective_ops(k, n):
    return [tuple(v) for v in itertools.combinations(range(n + 1), k + 1)]


def test_operator_counts():
    # |Hom_Delta([k],[n])| = C(n+k+1, k+1)
    assert len(monotone_ops(1, 1)) == 3
    assert len(monotone_ops(2, 1)) == 4
    assert len(monotone_ops(1, 2)) == 6
    assert len(surjective_ops(2, 1)) == 2
    assert len(injective_ops(1, 2)) == 3
    assert injective_ops(2, 1) == []


def test_surjections_are_the_monotone_maps_that_are_onto():
    # the same tuples, in the same (lexicographic) order, as the filter of
    # all monotone maps, which fixes the order of every simplex list
    for k in range(9):
        for n in range(k + 2):
            assert surjective_ops(k, n) == surjective_ops_by_filter(k, n), \
                (k, n)


def test_surjections_are_listed_without_the_monotone_maps():
    # one vertex and one 11-cell whose faces are all degenerate on it: its
    # two 11-simplices are listed directly, where filtering the C(23, 12)
    # monotone maps [11] -> [11] took about a second
    X = FinSSet(12, {0: ["v"], 11: ["c"]},
                {(11, 0, i): ((0,) * 11, (0, 0)) for i in range(12)})
    started = time.perf_counter()
    assert X.simplices(11) == [((0,) * 12, (0, 0)),
                               (identity_op(11), (11, 0))]
    assert time.perf_counter() - started < 0.01


def test_epi_mono_split():
    delta_vals, tau = epi_mono_split((1, 1, 3))
    # values factor as a surjection onto {0,1} then the inclusion {1,3}
    assert tau == (0, 0, 1)
    assert delta_vals == (1, 3)
    assert compose_ops(delta_vals, tau) == (1, 1, 3)


def test_compose_ops():
    assert compose_ops((0, 2), (1, 0, 1)) == (2, 0, 2)
    assert compose_ops(identity_op(2), (0, 1, 1)) == (0, 1, 1)


# -- standard complexes ----------------------------------------------------

def test_delta2_simplex_counts():
    X = delta(2, dim=3)
    assert [len(X.simplices(n)) for n in range(4)] == [3, 6, 10, 15]


def test_delta0_is_a_point_in_every_dimension():
    X = delta(0, dim=4)
    assert all(len(X.simplices(n)) == 1 for n in range(5))


def test_boundary2_counts():
    X = boundary(2)
    assert {n: len(X.labels.get(n, [])) for n in (0, 1, 2)} == {0: 3, 1: 3, 2: 0}
    assert [len(X.simplices(n)) for n in range(3)] == [3, 6, 9]


def test_horn_counts():
    X = horn(2, 1)
    assert len(X.labels[0]) == 3 and len(X.labels[1]) == 2


def test_truncation_guard():
    with pytest.raises(TruncationTooLow):
        FinSSet(1, {0: ["v"], 1: ["e"]},
                {(1, 0, 0): (identity_op(0), (0, 0)),
                 (1, 0, 1): (identity_op(0), (0, 0))})
    with pytest.raises(TruncationTooLow):
        build_sset({"dim": 1, "nondegenerate": {
            "0": ["v"],
            "1": [{"name": "e", "faces": [[[0], "v"], [[0], "v"]]}]}})


def test_identity_violation_on_bad_faces():
    # a triangle whose faces disagree on a shared vertex
    spec = {"dim": 3, "nondegenerate": {
        "0": ["a", "b", "c", "d"],
        "1": [{"name": "e0", "faces": [[[0], "b"], [[0], "a"]]},
              {"name": "e1", "faces": [[[0], "c"], [[0], "a"]]},
              {"name": "e2", "faces": [[[0], "d"], [[0], "b"]]}],
        "2": [{"name": "t", "faces": [[[0, 1], "e2"], [[0, 1], "e1"],
                                      [[0, 1], "e0"]]}]}}
    with pytest.raises(IdentityViolation, match="2-cell t"):
        build_sset(spec)


def functoriality_violation(X):
    """The exhaustive oracle: X(beta) X(alpha) = X(alpha beta) on every simplex.

    alpha and beta range over the elementary operators (cofaces, and
    codegeneracies inside the truncation); returns the first failing
    (x, alpha, beta), or None.
    """
    for n in range(X.dim + 1):
        for x in X.simplices(n):
            for alpha in elementary_ops(X, n):
                mid = X.act(x, alpha)
                for beta in elementary_ops(X, len(alpha) - 1):
                    if X.act(mid, beta) != X.act(x, compose_ops(alpha, beta)):
                        return x, alpha, beta
    return None


def identity_violation_raised(X):
    try:
        FinSSet.validate(X)
    except IdentityViolation:
        return True
    return False


class Unchecked(FinSSet):
    """Built from stored faces without validating them, so that a corrupted
    table can be held and passed to ``FinSSet.validate`` afterwards."""

    def validate(self):
        return self


def test_cell_identities_pass_where_the_oracle_does(corpus):
    stock = [delta(n) for n in range(5)] + [boundary(n) for n in range(1, 5)] + \
        [horn(n, k) for n in range(1, 5) for k in range(n + 1)]
    named = {X.name: X for X in corpus + stock}
    for X in named.values():
        assert functoriality_violation(X) is None, X.name
        assert not identity_violation_raised(X), X.name


def test_cell_identities_agree_with_the_oracle_on_corrupted_faces(corpus):
    # replace one or two stored faces by other well-formed simplices
    def corruptible(X):
        return [key for key in sorted(X.faces_tbl)
                if len(X.simplices(key[0] - 1)) > 1]

    # the oracle's cost grows steeply with the truncation dimension
    pool = [X for X in corpus if X.dim <= 3 and corruptible(X)]
    rng = random.Random(11)
    verdicts = set()
    for trial in range(1000):
        X = pool[trial % len(pool)]
        faces = dict(X.faces_tbl)
        keys = corruptible(X)
        for key in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            faces[key] = rng.choice([x for x in X.simplices(key[0] - 1)
                                     if x != faces[key]])
        Y = Unchecked(X.dim, X.labels, faces)
        broken = functoriality_violation(Y) is not None
        assert identity_violation_raised(Y) == broken, (X.name, faces)
        verdicts.add(broken)
    assert verdicts == {False, True}


# -- actions and the canonical pair ----------------------------------------

def test_degeneracy_values():
    X = delta(2, dim=3)
    e01 = X.cell_simplex((1, 0))
    assert X.degeneracy(e01, 0) == ((0, 0, 1), (1, 0))
    v0 = X.cell_simplex((0, 0))
    assert X.degeneracy(X.degeneracy(v0, 0), 1) == ((0, 0, 0), (0, 0))


def test_canonical_pair_is_the_only_presentation():
    X = delta(2, dim=3)
    for n in range(X.dim + 1):
        for x in X.simplices(n):
            assert X.eilenberg_zilber(x) == x


def ez_hits_by_candidate_scan(X, x):
    """The oracle: every (surjection, cell) pair the degeneracies send to x."""
    n = len(x[0]) - 1
    return [(s2, (m, j2)) for m in sorted(X.labels) if m <= n
            for s2 in surjective_ops(n, m)
            for j2 in range(len(X.labels[m]))
            if X.apply_surjection((m, j2), s2) == x]


def ez_verdicts(X, n):
    """Whether the candidate scan and ``eilenberg_zilber`` each accept every
    n-simplex of X."""
    xs = X.simplices(n)
    scan = all(ez_hits_by_candidate_scan(X, x) == [x] for x in xs)
    try:
        for x in xs:
            X.eilenberg_zilber(x)
    except FactorizerContractViolation:
        return scan, False
    return scan, True


class WrongDegeneracy(FinSSet):
    """s_1 answers with s_0, so nondegenerate edges are mis-degenerated."""

    def degeneracy(self, x, j):
        return super().degeneracy(x, 0 if j == 1 else j)


def test_ez_audit_matches_the_candidate_scan(corpus):
    refused = 0
    for X in corpus:
        bent = WrongDegeneracy(X.dim, X.labels, X.faces_tbl, name=X.name)
        for n in range(X.dim + 1):
            assert ez_verdicts(X, n) == (True, True), (X.name, n)
            scan, audit = ez_verdicts(bent, n)
            assert scan == audit, (X.name, n)
            refused += not audit
    # every set with an edge is refused in dimension 2 at least
    assert refused >= sum(1 in X.labels for X in corpus)


def test_ez_suite_reports_a_pair_that_does_not_rebuild_its_simplex(
        monkeypatch):
    # every pair now rebuilds its bare cell, so a degenerate simplex fails
    monkeypatch.setattr(FinSSet, "apply_surjection",
                        lambda X, ref, sigma: X.cell_simplex(ref))
    report = run_suite("ez", budget=Budget())
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert len(failed) == 1 and failed[0].startswith("ez-unique-on-corpus")


def test_ez_suite_reports_the_first_simplex_that_fails(monkeypatch, corpus):
    # the audit stops at the first failure, in corpus order: delta1's first
    # simplex, not circle's last
    audit = FinSSet.eilenberg_zilber

    def failing(X, x):
        if X.name in ("delta1", "circle"):
            raise FactorizerContractViolation("forced on " + X.name)
        return audit(X, x)

    monkeypatch.setattr(FinSSet, "eilenberg_zilber", failing)
    names = [X.name for X in corpus]
    audited = 1 + sum(len(X.simplices(n))
                      for X in corpus[:names.index("delta1")]
                      for n in range(X.dim + 1))
    row = run_suite("ez", budget=Budget())["checks"][0]
    assert row == {"name": "ez-unique-on-corpus(%d simplices)" % audited,
                   "ok": False, "counterexample": "delta1: forced on delta1"}


def action_disagreement(X, simplices, table=None):
    """The first (x, alpha) on which X's action differs from the recursion
    or from the table keyed by whole composites, which it fills into
    ``table``, for x in ``simplices`` and every monotone alpha into its
    dimension from one inside the truncation, or None."""
    table = {} if table is None else table
    ops = {n: [alpha for k in range(X.dim + 1) for alpha in monotone_ops(k, n)]
           for n in range(X.dim + 1)}
    for x in simplices:
        for alpha in ops[len(x[0]) - 1]:
            got = X.act(x, alpha)
            if got != act_by_recursion(X, x, alpha) or \
                    got != act_by_composite_table(X, x, alpha, table):
                return x, alpha
    return None


def fresh(X, cls=FinSSet, faces=None):
    """A copy of X with an empty action table."""
    return cls(X.dim, X.labels, X.faces_tbl if faces is None else faces,
               name=X.name)


@pytest.fixture(scope="module")
def corpus_sweeps(corpus):
    """A fresh copy of each set of the corpus after every monotone alpha
    has acted on every simplex, the first disagreement with the oracles,
    and the table keyed by whole composites that the same calls filled."""
    out = []
    for X in corpus:
        X, table = fresh(X), {}
        everything = [x for n in range(X.dim + 1) for x in X.simplices(n)]
        out.append((X, action_disagreement(X, everything, table), table))
    return out


def test_action_table_matches_the_recursion(corpus, corpus_sweeps):
    # every simplex of the corpus; every cell of the other stock shapes up
    # to n = 5, which reaches every key (cell, delta) of the table
    for X, bad, _table in corpus_sweeps:
        assert bad is None, X.name
    names = {X.name for X in corpus}
    stock = [delta(n) for n in range(6)] + [boundary(n) for n in range(1, 6)] + \
        [horn(n, k) for n in range(1, 6) for k in range(n + 1)]
    bent = [fresh(X, WrongDegeneracy) for X in corpus]
    for X in [X for X in stock if X.name not in names] + bent:
        cells = [X.cell_simplex(ref) for ref in X.cells()]
        assert action_disagreement(X, cells) is None, X.name


def is_proper_injection(delta, m):
    """delta lists the values of an injective monotone [k] -> [m], k < m."""
    return 0 < len(delta) <= m and list(delta) == sorted(set(delta)) and \
        0 <= delta[0] and delta[-1] <= m


def test_action_table_keys_cells_by_proper_injections(corpus_sweeps):
    # a degeneracy of a cell never takes an entry, so the table is never
    # larger than the one keyed by whole composites, and mostly smaller
    for X, _bad, table in corpus_sweeps:
        cells = set(X.cells())
        for ref, delta in X._action:
            assert ref in cells and is_proper_injection(delta, ref[0]), \
                (X.name, ref, delta)
        assert len(X._action) <= len(table), X.name
    assert sum(len(X._action) for X, _b, _t in corpus_sweeps) < \
        sum(len(table) for _X, _b, table in corpus_sweeps)


def test_action_table_matches_the_recursion_on_corrupted_faces(corpus):
    pool = [X for X in corpus if X.dim <= 3 and len(X.faces_tbl) > 1]
    rng = random.Random(12)
    verdicts = set()
    for trial in range(60):
        X = pool[trial % len(pool)]
        faces = dict(X.faces_tbl)
        key = rng.choice(sorted(faces))
        faces[key] = rng.choice(X.simplices(key[0] - 1))
        Y = fresh(X, Unchecked, faces=faces)
        cells = [Y.cell_simplex(ref) for ref in Y.cells()]
        assert action_disagreement(Y, cells) is None, (X.name, faces)
        verdicts.add(identity_violation_raised(Y))
    assert verdicts == {False, True}


@pytest.mark.fuzz
@given(st.data())
def test_action_table_is_the_recursion_and_composes(data):
    # a drawn union of faces of Δ[4], truncated with one or two dimensions
    # of headroom, and a few drawn simplices each acted on by a drawn alpha
    # and then by a drawn beta
    facets = data.draw(st.lists(st.sets(st.integers(0, 4), min_size=1),
                                min_size=1, max_size=4), label="facets")
    top = max(len(S) for S in facets) - 1
    X = subcomplex_of_delta(4, facets, Budget(), dim=top + data.draw(
        st.integers(1, 2), label="headroom"))
    table = {}
    for _ in range(data.draw(st.integers(1, 4), label="pairs")):
        n = data.draw(st.integers(0, X.dim), label="n")
        x = data.draw(st.sampled_from(X.simplices(n)), label="x")
        k = data.draw(st.integers(0, X.dim), label="k")
        alpha = data.draw(st.sampled_from(monotone_ops(k, n)), label="alpha")
        kk = data.draw(st.integers(0, X.dim), label="kk")
        beta = data.draw(st.sampled_from(monotone_ops(kk, k)), label="beta")
        got = X.act(x, alpha)
        assert got == act_by_recursion(X, x, alpha) == \
            act_by_composite_table(X, x, alpha, table)
        assert X.act(got, beta) == X.act(x, compose_ops(alpha, beta))
    assert all(is_proper_injection(delta, ref[0]) for ref, delta in X._action)


def test_operator_tables_are_memoised_and_immutable():
    # a shared value that a caller could change would change every later
    # answer, so each table hands out tuples only
    def tuples(values):
        return type(values) is tuple and \
            all(type(v) is int for v in values)

    for n in range(5):
        assert tuples(identity_op(n)) and identity_op(n) is identity_op(n)
        for i in range(n + 1):
            assert tuples(coface(n + 1, i)) and tuples(codegeneracy(n, i))
            assert coface(n + 1, i) is coface(n + 1, i)
            assert codegeneracy(n, i) is codegeneracy(n, i)
        for k in range(5):
            for values in monotone_ops(k, n):
                split = epi_mono_split(values)
                assert type(split) is tuple and all(map(tuples, split))
                assert split is epi_mono_split(values)


@pytest.mark.parametrize("sigma, message", [
    ([1, 0], "simplex operator [1, 0] is not monotone"),
    ((1, 0), "simplex operator (1, 0) is not monotone"),
    ([1, 1], "simplex operator [1, 1] is not onto [1]"),
    ((0, 0), "simplex operator (0, 0) is not onto [1]"),
    ((0, 2), "simplex operator (0, 2) is not onto [1]"),
    ((0, 1, 1), "malformed simplex ((0, 1, 1), (1, 0)) in dimension 1"),
])
def test_a_bad_operator_is_refused_with_the_same_words(sigma, message):
    X = delta(1)
    with pytest.raises(InvalidSpec, match="^%s$" % re.escape(message)):
        X._check_simplex((sigma, (1, 0)), 1)
    # an operator given as a list that is a surjection is accepted
    assert X._check_simplex(([0, 1], (1, 0)), 1) is None


@pytest.mark.parametrize("face, message", [
    ([[1, 0], "e"], "simplex operator (1, 0) is not monotone"),
    ([[1, 1], "e"], "simplex operator (1, 1) is not onto [1]"),
    ([[0, 1, 1], "e"],
     "malformed simplex ((0, 1, 1), (1, 0)) in dimension 1"),
])
def test_a_bad_face_operator_ends_in_one_error_line(face, message, tmp_path,
                                                    capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "nondegenerate": {
        "0": ["a", "b"],
        "1": [{"name": "e", "faces": [[[0], "b"], [[0], "a"]]}],
        "2": [{"name": "t", "faces": [face, [[0, 0], "a"],
                                      [[0, 1], "e"]]}]}}))
    code = main(["spectrum", "--topology", "raw", "--object", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: %s: %s\n" % (path, message))


def test_a_high_cell_with_a_bad_face_is_refused_at_once(tmp_path, capsys):
    # the refusal reads the operator itself and never lists the C(30, 15)
    # monotone maps [14] -> [15]
    sigma = list(range(1, 16))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 16, "nondegenerate": {
        "15": [{"name": "c", "faces": [[sigma, "c"]] * 16}]}}))
    started = time.perf_counter()
    code = main(["spectrum", "--topology", "raw", "--object", str(path)])
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: %s: simplex operator %r is not onto [15]\n" % (
        path, tuple(sigma))


def test_action_table_charges_one_step_per_entry():
    budget = Budget()
    X = delta(3, budget=budget)
    # 15 cells and 28 stored faces of Delta[3], then the entries validation
    # filled
    assert budget.used == 43 + len(X._action)
    before = budget.used
    top = X.cell_simplex((3, 0))
    X.act(top, (0, 2))
    X.act(top, (0, 2))
    assert budget.used == before + 1 == 43 + len(X._action)


def test_subcomplex_of_delta_charges_before_enumerating():
    started = time.perf_counter()
    with pytest.raises(EnumerationBudgetExceeded):
        delta(24, budget=Budget())
    assert time.perf_counter() - started < 1


def test_action_functoriality_randomized():
    rng = random.Random(5)
    X = boundary(3)
    for _ in range(200):
        n = rng.randrange(X.dim + 1)
        xs = X.simplices(n)
        x = xs[rng.randrange(len(xs))]
        k = rng.randrange(3)
        ops = monotone_ops(k, n)
        alpha = ops[rng.randrange(len(ops))]
        kk = rng.randrange(3)
        ops2 = monotone_ops(kk, k)
        beta = ops2[rng.randrange(len(ops2))]
        assert X.act(X.act(x, alpha), beta) == X.act(x, compose_ops(alpha, beta))


# -- maps ------------------------------------------------------------------

def test_inclusion_is_nondegenerate():
    X, Y = boundary(2), delta(2)
    inc = SimplicialMap(X, Y, {
        (0, i): (identity_op(0), (0, i)) for i in range(3)} | {
        (1, i): (identity_op(1), (1, i)) for i in range(3)})
    assert is_nondegenerate_map(inc)
    assert not is_nondegenerate_map(
        SimplicialMap(delta(1), delta(0), {
            (0, 0): (identity_op(0), (0, 0)),
            (0, 1): (identity_op(0), (0, 0)),
            (1, 0): ((0, 0), (0, 0))}))


def test_map_validation_rejects_broken_faces():
    with pytest.raises(NotSimplicial):
        SimplicialMap(delta(1), delta(1), {
            (0, 0): (identity_op(0), (0, 0)),
            (0, 1): (identity_op(0), (0, 0)),
            (1, 0): (identity_op(1), (1, 0))})


def test_classifying_map_hits_its_simplex():
    X = boundary(2)
    e = X.cell_simplex((1, 2))
    g = classifying_map(X, e)
    top = g.source.cell_simplex((1, 0))
    assert g.apply(top) == e


def test_all_simplicial_maps_counts():
    # maps Delta[1] -> Delta[1] = monotone maps [1] -> [1]
    assert len(all_simplicial_maps(delta(1), delta(1), Budget())) == 3
    assert len(all_simplicial_maps(delta(0), boundary(2), Budget())) == 3


def test_sset_isomorphic():
    X = subcomplex_of_delta(2, [(0, 1), (1, 2)], Budget())
    Y = subcomplex_of_delta(3, [(1, 2), (2, 3)], Budget())
    assert sset_isomorphic(X, Y, Budget()) is not None
    # two edges out of one vertex: same counts, different face structure
    Z = subcomplex_of_delta(2, [(0, 1), (0, 2)], Budget())
    assert sset_isomorphic(X, Z, Budget()) is None
    assert sset_isomorphic(X, boundary(2), Budget()) is None


def test_disjoint_union_counts():
    X = disjoint_union(delta(0, dim=2), delta(0, dim=2))
    assert len(X.simplices(0)) == 2


# -- degeneracy collapse factorization -------------------------------------

def collapse_map():
    d1, d2 = delta(1), delta(2)
    return SimplicialMap(d2, d1, {
        (0, 0): (identity_op(0), (0, 0)),
        (0, 1): (identity_op(0), (0, 1)),
        (0, 2): (identity_op(0), (0, 1)),
        (1, 0): (identity_op(1), (1, 0)),
        (1, 1): (identity_op(1), (1, 0)),
        (1, 2): ((0, 0), (0, 1)),
        (2, 0): ((0, 1, 1), (1, 0)),
    })


def test_collapse_factorization_middle():
    fac = deg_ndeg_factorize(collapse_map())
    assert sset_isomorphic(fac.middle, delta(1), Budget()) is not None
    assert is_nondegenerate_map(fac.right)
    # composite agrees cell by cell
    f = collapse_map()
    for ref in f.source.cells():
        x = f.source.cell_simplex(ref)
        assert fac.right.apply(fac.left.apply(x)) == f.apply(x)


def delta_pair(m, k, budget=None):
    """Δ[m] and Δ[k], truncated alike, on one budget."""
    dim = max(m, k) + 1
    return delta(m, dim=dim, budget=budget), delta(k, dim=dim, budget=budget)


def induced_map(X, Y, alpha):
    """The map that the monotone alpha: [m] -> [k] induces on vertices, from
    a union X of faces of Δ[m] to Y = Δ[k], both labelled by vertex
    strings."""
    ass = {}
    for ref in X.cells():
        image, tau = epi_mono_split(
            tuple(alpha[int(v)] for v in X.cell_label(ref)))
        n = len(image) - 1
        ass[ref] = (tau, (n, Y.labels[n].index("".join(map(str, image)))))
    return SimplicialMap(X, Y, ass)


def collapse_key(fac):
    M = fac.middle
    return (M.dim, M.labels, M.faces_tbl, fac.left.assignment,
            fac.right.assignment)


def rng_of(seed):
    return random.Random(seed) if seed is not None else None


@pytest.fixture(scope="module")
def collapse_cases():
    """Every map of the ez pool, each restricted along the classifying map
    of every source cell, and every Δ[m] -> Δ[k] with m <= 3, k <= 4, each
    with the key of its collapse."""
    pool = _ez_map_pool(sset_corpus(Budget()), Budget())
    maps = pool + [classifying_map(f.source, f.source.cell_simplex(ref))
                   .then(f) for f in pool for ref in f.source.cells()]
    for m, k in itertools.product(range(4), range(5)):
        X, Y = delta_pair(m, k)
        maps += [induced_map(X, Y, alpha) for alpha in monotone_ops(m, k)]
    return [(f, collapse_key(deg_ndeg_factorize(f))) for f in maps]


@pytest.mark.parametrize("seed", [None, 0, 1, 7])
def test_collapse_is_order_independent(collapse_cases, seed):
    # the collapse on cells is the collapse one cell per round, in any order
    for f, key in collapse_cases:
        assert collapse_key(deg_ndeg_by_rounds(f, rng_of(seed), Budget())) \
            == key, f


@pytest.mark.parametrize("seed", [None, 0, 1, 7])
def test_collapse_out_of_delta4_matches_the_rounds(seed):
    # a map out of Δ[4] collapses by the kernel of its vertex map alone, so
    # the 16 surjections Δ[4] -> Δ[r] stand for all 210 maps Δ[4] -> Δ[k]
    for r in range(5):
        X, Y = delta_pair(4, r)
        for alpha in surjective_ops(4, r):
            f = induced_map(X, Y, alpha)
            assert collapse_key(deg_ndeg_factorize(f)) == collapse_key(
                deg_ndeg_by_rounds(f, rng_of(seed), Budget())), f


@pytest.mark.fuzz
@given(st.data())
def test_collapse_matches_the_rounds_on_drawn_maps(data):
    # a drawn monotone vertex map, out of a drawn union of faces of Δ[m]
    m, k = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    alpha = data.draw(st.sampled_from(monotone_ops(m, k)))
    subsets = data.draw(st.lists(st.sets(st.integers(0, m), min_size=1),
                                 min_size=1, max_size=3))
    X = subcomplex_of_delta(m, subsets, Budget(), dim=max(m, k) + 1)
    f = induced_map(X, delta(k, dim=X.dim), alpha)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    key = collapse_key(deg_ndeg_factorize(f))
    assert key == collapse_key(deg_ndeg_by_rounds(f, rng, Budget()))
    assert key == collapse_key(deg_ndeg_by_one_quotient(f))


def test_collapse_quotients_once_and_only_when_it_must(collapse_cases,
                                                       monkeypatch):
    # the middle is the one set a collapse builds, and a map with no
    # degenerate image builds none and is its own right leg
    built = []
    init = FinSSet.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinSSet, "__init__", recording)
    for f, key in collapse_cases:
        built.clear()
        fac = deg_ndeg_factorize(f)
        assert collapse_key(fac) == key
        if is_nondegenerate_map(f):
            assert built == [] and fac.right is f, f
        else:
            assert built == [fac.middle], f


@pytest.mark.parametrize("m, k, alpha, one, rounds", [
    (2, 1, (0, 1, 1), 20, 260),
    (3, 1, (0, 0, 1, 1), 56, 2774),
    (4, 2, (0, 0, 1, 2, 2), 132, 23758),
    (4, 0, (0,) * 5, 210, 38704),
])
def test_collapse_step_totals(m, k, alpha, one, rounds):
    # every step after the map is built, on fresh sets, the action
    # tables of the source and target included
    steps = []
    for collapse in (deg_ndeg_factorize,
                     lambda f, budget: deg_ndeg_by_rounds(f, None, budget)):
        budget = Budget()
        f = induced_map(*delta_pair(m, k, budget), alpha)
        built = budget.used
        collapse(f, budget=budget)
        steps.append(budget.used - built)
    assert steps == [one, rounds]


def test_factorization_of_identity_is_trivial():
    f = identity_smap(boundary(2))
    fac = deg_ndeg_factorize(f)
    assert sset_isomorphic(fac.middle, boundary(2), Budget()) is not None
    # a map with no degenerate image is its own right leg, its source the
    # middle
    X = subcomplex_of_delta(3, [(0, 1, 2), (2, 3)], Budget(), dim=5)
    for f in (f, induced_map(X, delta(4, dim=5), (0, 1, 3, 4))):
        fac = deg_ndeg_factorize(f)
        assert fac.middle is f.source and fac.right is f


def test_ez_suite_builds_every_set_on_its_budget(monkeypatch):
    built = []
    init = FinSSet.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinSSet, "__init__", recording)
    budget = Budget()
    assert run_suite("ez", budget=budget)["passed"]
    assert len(built) > 20 and all(X.budget is budget for X in built)


def test_collapse_middles_are_the_expected_simplices():
    # a map out of Delta[m] picks a simplex sigma*(w) with w nondegenerate;
    # its middle is Delta[dim w], where dim w = max sigma
    maps = [classifying_map(f.source, f.source.cell_simplex(ref)).then(f)
            for f in _ez_map_pool(sset_corpus(Budget()), Budget())
            for ref in f.source.cells()]
    for m in range(3):
        for k in range(3):
            X = delta(k, dim=max(k, m) + 1)
            top = X.cell_simplex((k, 0))
            maps.extend(classifying_map(X, X.act(top, alpha))
                        for alpha in monotone_ops(m, k))
    for f in maps:
        top = f.source.cell_simplex((f.source.top_dim, 0))
        fac = deg_ndeg_factorize(f)
        r = max(f.apply(top)[0])
        assert sset_isomorphic(fac.middle, delta(r, dim=fac.middle.dim),
                               Budget()) is not None, f


def test_quotient_refuses_a_congruence_the_action_does_not_respect():
    # v1 ~ v0 without s_0 v1 ~ s_0 v0: the check fires on v1, which is not
    # the representative of its class
    X = delta(1)
    with pytest.raises(FactorizerContractViolation,
                       match="congruence not stable"):
        quotient_by_pairs(
            X, [(X.cell_simplex((0, 0)), X.cell_simplex((0, 1)))], Budget())


def test_collapse_to_point():
    X = delta(1)
    f = SimplicialMap(X, delta(0, dim=2), {
        (0, 0): (identity_op(0), (0, 0)),
        (0, 1): (identity_op(0), (0, 0)),
        (1, 0): ((0, 0), (0, 0))})
    fac = deg_ndeg_factorize(f)
    assert len(fac.middle.labels[0]) == 1
    assert 1 not in fac.middle.labels or not fac.middle.labels[1]


def test_a_map_given_with_list_operators_collapses_to_a_point():
    # the operators are kept as tuples once the map and its source are
    # validated, so they can key the collapse's tables
    X = FinSSet(2, {0: ["0", "1"], 1: ["01"]},
                {(1, 0, 0): ([0], (0, 1)), (1, 0, 1): ([0], (0, 0))})
    f = SimplicialMap(X, delta(0, dim=2), {
        (0, 0): ([0], (0, 0)), (0, 1): ([0], (0, 0)),
        (1, 0): ([0, 0], (0, 0))})
    assert all(type(s) is tuple for s, _ref in X.faces_tbl.values())
    assert all(type(s) is tuple for s, _w in f.assignment.values())
    fac = deg_ndeg_factorize(f)
    assert fac.middle.labels == {0: ["0"]}
    assert fac.left.assignment == {(0, 0): ((0,), (0, 0)),
                                   (0, 1): ((0,), (0, 0)),
                                   (1, 0): ((0, 0), (0, 0))}


def test_collapse_matches_the_one_quotient(collapse_cases):
    # the congruence closure on cells against the quotient by every glued
    # pair of simplices up to the truncation, on the cases and the 16
    # surjections out of Δ[4]
    cases = list(collapse_cases)
    for r in range(5):
        X, Y = delta_pair(4, r)
        cases += [(f, collapse_key(deg_ndeg_factorize(f))) for f in (
            induced_map(X, Y, alpha) for alpha in surjective_ops(4, r))]
    for f, key in cases:
        assert collapse_key(deg_ndeg_by_one_quotient(f)) == key, f


def test_a_map_that_breaks_the_congruence_is_never_factored(collapse_cases):
    # one cell of a map sent elsewhere, with no face check, and some image
    # still degenerate: the collapse raises exactly when the map is not
    # simplicial, and otherwise agrees with the one quotient
    rng = random.Random(3)
    maps = [f for f, _key in collapse_cases if not is_nondegenerate_map(f)]
    refused = trial = 0
    while trial < 300:
        f = maps[trial % len(maps)]
        ass = dict(f.assignment)
        ref = rng.choice(sorted(ass))
        ass[ref] = rng.choice(f.target.simplices(ref[0]))
        bent = SimplicialMap(f.source, f.target, ass, check=False)
        if is_nondegenerate_map(bent):
            continue
        trial += 1
        try:
            SimplicialMap(f.source, f.target, ass)
        except NotSimplicial:
            with pytest.raises((FactorizerContractViolation, NotSimplicial)):
                deg_ndeg_factorize(bent)
            refused += 1
            continue
        assert collapse_key(deg_ndeg_factorize(bent)) == collapse_key(
            deg_ndeg_by_one_quotient(bent)), bent
    assert 0 < refused < 300


# -- covers and local objects ----------------------------------------------

def vertex_family(X):
    fams = []
    for i, _lbl in enumerate(X.labels.get(0, [])):
        p = delta(0, dim=X.dim)
        fams.append(SimplicialMap(p, X, {(0, 0): (identity_op(0), (0, i))}))
    return fams


def test_vertex_family_covers_raw_not_delta_nis():
    X = delta(2)
    fam = vertex_family(X)
    assert sset_cover_check(X, fam, "raw").covers
    res = sset_cover_check(X, fam, "delta-nis")
    assert not res.covers
    assert res.certificate == {"unlifted_simplex": [1, [0, 1], "01"]}


def finest_cell_cover(X):
    """One classifying map per nondegenerate cell; always a delta-nis cover."""
    return [classifying_map(X, X.cell_simplex(ref)) for ref in X.cells()]


def test_finest_cover_lifts_everything():
    X = boundary(2)
    fam = finest_cell_cover(X)
    assert sset_cover_check(X, fam, "delta-nis").covers


def test_degenerate_image_family_rejected():
    X = delta(1)
    bent = SimplicialMap(delta(1, dim=2), X, {
        (0, 0): (identity_op(0), (0, 0)),
        (0, 1): (identity_op(0), (0, 0)),
        (1, 0): ((0, 0), (0, 0))})
    with pytest.raises(Exception):
        sset_cover_check(X, [bent], "raw")


def cover_outcome(check, X, family, mode):
    """The cover check's result, or the class and words of its refusal."""
    try:
        return check(X, family, mode)
    except FactopoError as exc:
        return type(exc), str(exc)


def assert_covers_match_the_simplex_scan(X, families):
    for family in families:
        for mode in ("raw", "delta-nis"):
            assert cover_outcome(sset_cover_check, X, family, mode) == \
                cover_outcome(sset_cover_check_by_simplices, X, family,
                              mode), (X.name, mode, family)


def drawn_families(X, rng):
    """The empty, vertex and identity families, and the classifying maps of
    some drawn cells."""
    cells = X.cells()
    return [[], vertex_family(X), [identity_smap(X)],
            [classifying_map(X, X.cell_simplex(ref))
             for ref in rng.sample(cells, rng.randint(1, len(cells)))]]


def test_covers_and_self_lift_match_the_simplex_scans(corpus):
    stock = [delta(n) for n in range(6)] + [boundary(n) for n in range(1, 6)] + \
        [horn(n, k) for n in range(1, 5) for k in range(n + 1)]
    rng = random.Random(4)
    for X in corpus + stock:
        assert_covers_match_the_simplex_scan(
            X, [finest_cell_cover(X)] + drawn_families(X, rng))
        assert delta_nis_self_lift_decider(X) == self_lift_by_simplices(X), \
            X.name


@pytest.mark.fuzz
@given(st.data())
def test_covers_and_self_lift_match_the_simplex_scans_on_drawn_subcomplexes(
        data):
    # a drawn union of faces of Δ[4], truncated with one or two dimensions
    # of headroom, and drawn families of classifying maps of its cells
    facets = data.draw(st.lists(st.sets(st.integers(0, 4), min_size=1),
                                min_size=1, max_size=4), label="facets")
    top = max(len(S) for S in facets) - 1
    X = subcomplex_of_delta(4, facets, Budget(), dim=top + data.draw(
        st.integers(1, 2), label="headroom"))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    assert_covers_match_the_simplex_scan(X, drawn_families(X, rng))
    assert delta_nis_self_lift_decider(X) == self_lift_by_simplices(X)


def test_self_lift_and_the_standard_simplex_test_take_a_thousand_cells():
    # Δ[9] has 1,023 cells, more than the default recursion limit of 1,000
    # frames
    X = delta(9)
    assert delta_nis_self_lift_decider(X, Budget())
    assert is_standard_simplex(X, Budget())


def test_self_lift_reads_vertices_past_9_from_cell_positions():
    # a vertex and a 10-cell with every face degenerate: the vertex 10 of
    # Δ[10] is one vertex, not the two digits of its label
    X = FinSSet(11, {0: ["v"], 10: ["c"]},
                {(10, 0, i): ((0,) * 10, (0, 0)) for i in range(11)})
    assert not delta_nis_self_lift_decider(X, Budget())
    assert not is_standard_simplex(X, Budget())


def test_self_lift_builds_one_simplex_per_dimension_on_its_budget(
        monkeypatch):
    X = boundary(3)
    budget, built = Budget(), []
    init = FinSSet.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.top_dim, self.budget))

    monkeypatch.setattr(FinSSet, "__init__", spy)
    assert not delta_nis_self_lift_decider(X, budget)
    assert [n for n, _b in built] == [2, 1, 0]
    assert all(b is budget for _n, b in built)


def test_self_lift_matches_standard_simplex(corpus):
    for X in corpus:
        assert delta_nis_self_lift_decider(X) == \
            is_standard_simplex(X, Budget()) == \
            is_standard_simplex_by_every_dimension(X, Budget()), X.name


def assert_standard_simplex_matches_the_search(X):
    """The test read off the top cell against the isomorphism search with
    Δ[n], n the top dimension."""
    searched = X.top_dim >= 0 and sset_isomorphic(
        X, delta(X.top_dim, dim=X.dim), Budget()) is not None
    assert is_standard_simplex(X, Budget()) == searched, X.name


def test_standard_simplex_matches_the_isomorphism_search(corpus):
    stock = [delta(n) for n in range(6)] + \
        [boundary(n) for n in range(1, 6)] + \
        [horn(n, k) for n in range(1, 6) for k in range(n + 1)]
    for X in corpus + stock:
        assert_standard_simplex_matches_the_search(X)


@pytest.mark.fuzz
@given(st.data())
def test_standard_simplex_matches_the_isomorphism_search_on_drawn_subcomplexes(
        data):
    # a drawn union of faces of Δ[4]: one facet makes a standard simplex
    facets = data.draw(st.lists(st.sets(st.integers(0, 4), min_size=1),
                                min_size=1, max_size=4), label="facets")
    top = max(len(S) for S in facets) - 1
    assert_standard_simplex_matches_the_search(
        subcomplex_of_delta(4, facets, Budget(), dim=top + 1))


# -- spectra ---------------------------------------------------------------

def order_by_operator_scan(X):
    """The oracle: cell r lies below r2 when some injective operator takes
    r2 to r; the relation is already reflexive and transitive."""
    refs = X.cells()
    return [(i, i2) for i, r in enumerate(refs) for i2, r2 in enumerate(refs)
            if r[0] <= r2[0] and any(
                X.act(X.cell_simplex(r2), inj) == X.cell_simplex(r)
                for inj in injective_ops(r[0], r2[0]))]


def test_spec_order_matches_the_operator_scan(corpus):
    stock = [delta(n) for n in range(7)] + [boundary(n) for n in range(1, 7)] + \
        [horn(n, k) for n in range(1, 6) for k in range(n + 1)]
    for X in corpus + stock:
        assert spec_delta_nis(X).poset.order_pairs() == \
            order_by_operator_scan(X), X.name


def test_spec_delta_nis_charges_one_step_per_cell_and_order_pair():
    D = delta(7)
    budget = Budget()
    sp = spec_delta_nis(D, budget)
    # 255 cells, and 3^8 - 2^8 = 6,305 order pairs, one for each cell and
    # each set of vertices that holds its own
    assert budget.used == len(D.cells()) + len(sp.poset.order_pairs()) == 6560


def test_spec_delta_nis_sizes():
    assert [spec_delta_nis(delta(n)).size for n in range(4)] == [1, 3, 7, 15]


def test_spec_delta_nis_of_boundary():
    sp = spec_delta_nis(boundary(2))
    assert sp.size == 6
    strict = [(i, j) for i, j in sp.poset.order_pairs() if i != j]
    # each vertex sits under its two edges, nothing above the edges
    assert len(strict) == 6
    assert sp.as_json()["base"] == "boundary2"


def test_spec_raw_is_an_antichain_on_vertices():
    sp = spec_raw(boundary(2))
    assert sp.size == 3
    assert all(i == j for i, j in sp.poset.order_pairs())


def test_spec_dot_is_hasse_only():
    dot = spec_delta_nis(delta(2)).to_dot()
    # 7 nodes, 9 covering edges, no vertex-to-triangle shortcuts
    assert dot.count("[label=") == 7
    assert dot.count(" -> ") == 9
