import pytest

from factopo.budget import Budget
from factopo.errors import (FactorizerContractViolation, InvalidSpec,
                            NotEquivariant, NotLinear)
from factopo.suites import run_suite
from factopo.toposx import (EquivariantMap, FinGroup, FinGSet, FqVecSpace,
                            LinearMap, atoms_and_orbits, build_gset, build_vspace,
                            cyclic_group, disjoint_union_gset,
                            epi_mono_factorize_gset, epi_mono_factorize_linear,
                            gset_point_cover_check, line_count, lines,
                            orbit_inclusions, orbit_partition, prime_power,
                            regular_gset, simple_points, symmetric_3,
                            trivial_gset)


# -- groups and G-sets -----------------------------------------------------

def test_cyclic_group():
    G = cyclic_group(4)
    assert G.size == 4
    assert G.mul(3, 2) == 1


def test_symmetric_3():
    G = symmetric_3()
    assert G.size == 6
    assert G.names[G.unit] == "012"


def test_bad_group_table_rejected():
    with pytest.raises(Exception):
        FinGroup(["e", "a"], [[0, 1], [1, 1]])


def test_a_group_table_of_the_wrong_shape_is_refused_before_the_unit_search():
    spec = {"group": {"table": [[0, 1]], "elements": ["a", "b"]},
            "carrier": ["x"], "action": [[0, 0]]}
    with pytest.raises(InvalidSpec, match="group table is not 2 x 2"):
        build_gset(spec)


def test_regular_gset_is_one_orbit():
    X = regular_gset(cyclic_group(2))
    assert len(orbit_partition(X)) == 1


def test_orbit_counts(gsets):
    assert [len(orbit_partition(X)) for X in gsets] == [1, 2, 2, 1, 2, 1]


def test_atoms_are_exactly_the_orbits(gsets):
    for X in gsets:
        reports = atoms_and_orbits(X)
        assert all(r.atom for r in reports), X.name
        assert sum(len(r.points) for r in reports) == len(X.carrier)


def test_equivariance_check():
    G = cyclic_group(2)
    X = regular_gset(G)
    Y = trivial_gset(G, 1)
    EquivariantMap(X, Y, (0, 0)).validate()
    Z = trivial_gset(G, 2)
    with pytest.raises(NotEquivariant):
        EquivariantMap(X, Z, (0, 1)).validate()


def test_epi_mono_gset_collapse(gsets):
    G = gsets[2].group  # Z2 acting on two regular copies
    f = EquivariantMap(gsets[2], gsets[0], (0, 1, 0, 1))
    f.validate()
    epi, middle, mono = epi_mono_factorize_gset(f)
    assert len(middle.carrier) == 2
    assert epi.is_surjective() and mono.is_injective()


# each clause of the image factorisation's check, fired by one broken leg:
# the class test of a leg answers no, or the legs compose to the zero map
BROKEN_LEGS = {
    "gset-classes": ("is_surjective", lambda self: False,
                     "legs outside their classes"),
    "gset-compose": ("then", lambda self, other: EquivariantMap(
        self.source, other.target, (0,) * len(self.mapping)),
        "legs do not compose to it"),
    "linear-classes": ("is_injective", lambda self: False,
                       "legs outside their classes"),
    "linear-compose": ("then", lambda self, other: LinearMap(
        self.source, other.target,
        [(0,) * other.target.n] * self.source.n),
        "legs do not compose to it"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_LEGS))
def test_image_factorisations_refuse_a_broken_leg(case, monkeypatch):
    method, broken, words = BROKEN_LEGS[case]
    if case.startswith("gset"):
        G = cyclic_group(2)
        # onto the second of two fixed points
        cls, factorize = EquivariantMap, epi_mono_factorize_gset
        f = EquivariantMap(regular_gset(G), trivial_gset(G, 2), (1, 1))
    else:
        cls, factorize = LinearMap, epi_mono_factorize_linear
        f = LinearMap(FqVecSpace(2, 2), FqVecSpace(2, 2),
                      rows=((1, 0), (0, 0)))
    monkeypatch.setattr(cls, method, broken)
    with pytest.raises(FactorizerContractViolation,
                       match="^image factorisation of .*: %s$" % words):
        factorize(f)


def test_gset_point_cover():
    G = cyclic_group(3)
    X = disjoint_union_gset(regular_gset(G), trivial_gset(G, 1))
    fam = orbit_inclusions(X)
    assert gset_point_cover_check(X, fam).covers
    # dropping either orbit leaves points uncovered
    for i in range(len(fam)):
        rest = fam[:i] + fam[i + 1:]
        assert not gset_point_cover_check(X, rest).covers


def test_build_gset_file_shape():
    X = build_gset({"group": {"table": [[0, 1], [1, 0]]},
                    "carrier": ["p", "q"], "action": [[0, 1], [1, 0]]})
    assert len(orbit_partition(X)) == 1


# -- vector spaces ---------------------------------------------------------

def test_prime_power():
    assert prime_power(8, Budget()) == (2, 3)
    assert prime_power(9, Budget()) == (3, 2)
    assert prime_power(6, Budget()) is None


def test_vector_space_basics():
    V = FqVecSpace(2, 2)
    assert len(V.vectors()) == 4
    W = build_vspace({"q": 3, "n": 1})
    assert len(W.vectors()) == 3
    with pytest.raises(Exception):
        build_vspace({"q": 6, "n": 1})


def test_linear_map_and_rank():
    V, W = FqVecSpace(2, 2), FqVecSpace(2, 1)
    f = LinearMap(V, W, rows=((1,), (1,)))
    assert f.rank() == 1
    assert f.is_surjective() and not f.is_injective()


def test_nonlinear_table_rejected():
    V, W = FqVecSpace(2, 2), FqVecSpace(2, 1)
    assert LinearMap(V, W, rows=((1,), (0,))).rank() == 1
    with pytest.raises(NotLinear, match="row shape"):
        LinearMap(V, W, rows=((1,),))
    with pytest.raises(NotLinear, match="row shape"):
        LinearMap(V, W, rows=((1,), (0, 1)))
    with pytest.raises(NotLinear, match="outside the field"):
        LinearMap(W, W, rows=((2,),))
    with pytest.raises(NotLinear, match="fields differ"):
        LinearMap(W, FqVecSpace(3, 1), rows=((1,),))


def test_epi_mono_linear_middle_dimension():
    V = FqVecSpace(2, 2)
    f = LinearMap(V, V, rows=((1, 0), (1, 0)))  # rank 1
    epi, middle, mono = epi_mono_factorize_linear(f)
    assert middle.n == 1
    assert epi.is_surjective() and mono.is_injective()


def test_line_counts():
    assert line_count(2, 2) == 3 and len(lines(FqVecSpace(2, 2))) == 3
    assert line_count(2, 3) == 7
    assert line_count(3, 1) == 1
    assert line_count(4, 2) == 5


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_line_closed_form(q, n):
    assert len(lines(FqVecSpace(q, n))) == (q ** n - 1) // (q - 1)


def test_simple_points_spectrum():
    sp = simple_points(FqVecSpace(2, 2))
    assert sp.size == 4  # zero plus three lines
    data = sp.as_json()
    assert data["elements"][0]["label"] == "0"
    strict = [(i, j) for i, j in sp.poset.order_pairs() if i != j]
    assert len(strict) == 3


# -- the toposx suite ------------------------------------------------------

def drop_last_vector(monkeypatch):
    vectors = FqVecSpace.vectors
    monkeypatch.setattr(FqVecSpace, "vectors", lambda V: vectors(V)[:-1])


def fix_last_point_of_rot3(monkeypatch):
    # c no longer moves, so it cannot reach the rest of its orbit
    act = FinGSet.act

    def one_way(X, x, g):
        return x if (X.name, x) == ("rot3", 2) else act(X, x, g)

    monkeypatch.setattr(FinGSet, "act", one_way)


@pytest.mark.parametrize("corrupt, check", [
    (drop_last_vector, "line-counts-closed-form"),
    (fix_last_point_of_rot3, "orbit-atoms-and-finest-cover")])
def test_toposx_suite_reports_a_broken_fact(corrupt, check, monkeypatch):
    # the suite's comparison is the one check of the line count and of
    # transitivity, so a broken fact lands in its report
    corrupt(monkeypatch)
    report = run_suite("toposx", budget=Budget())
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [check]
    assert not report["passed"]
