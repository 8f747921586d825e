import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factopo.budget import Budget
from factopo.catalogs import ring_catalogue
from factopo.errors import InvalidSpec, NotARing
from factopo.finring import (FinRing, Ideal, RingHom, _poly_divmod,
                             all_ideals, annihilator_kernel, build_ring,
                             enumerate_homs, field_catalogue, gf,
                             hom_from_images, ideal_generated,
                             least_irreducible, local_factors, localize,
                             nilradical, prime_ideals, primitive_idempotents,
                             prime_ideals_bruteforce, prime_power, product_ring,
                             quotient_ring, smallest_prime_factor,
                             table_ring, zmod)
from oracles import (annihilator_kernel_by_closure,
                     generation_sequence_by_rounds, gf_tables_by_horner,
                     hom_mappings_by_full_scan, ideal_generated_by_closure,
                     is_hom_by_full_scan, prime_ideals_by_units,
                     product_tables_by_tuple_index,
                     quotient_tables_by_comprehension, radical,
                     ring_isomorphic, validate_axioms_by_light,
                     validate_axioms_by_maps, zmod_tables_by_comprehension)


def test_zmod_basics():
    A = zmod(6)
    assert A.size == 6
    assert A.names == ("0", "1", "2", "3", "4", "5")
    assert A.a(4, 5) == 3
    assert A.m(4, 5) == 2
    assert A.neg[2] == 4
    assert sorted(A.units()) == [1, 5]
    assert A.element_by_name("4") == 4
    with pytest.raises(InvalidSpec):
        A.element_by_name("six")


def test_zero_ring_is_legal():
    A = zmod(1)
    assert A.size == 1
    assert A.zero == A.one


def test_gf4_is_a_field():
    F = gf(2, 2)
    assert F.size == 4
    assert sorted(F.units()) == [e for e in F.elements() if e != F.zero]
    # x * x = x + 1 under the fixed irreducible
    x = F.element_by_name("x")
    assert F.m(x, x) == F.a(x, F.one)


def test_gf_rejects_nonprime():
    with pytest.raises(Exception):
        gf(4)


def test_table_ring_broken_distributivity():
    # Z/3 with one multiplication entry bent: stays associative and
    # commutative, breaks a*(b+c) = a*b + a*c
    spec = {"kind": "table", "elements": ["0", "1", "2"], "zero": 0, "one": 1,
            "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]]}
    with pytest.raises(NotARing) as err:
        build_ring(spec)
    assert "distribut" in str(err.value)


def test_table_ring_broken_additive_associativity():
    # Z/5 with 1+2 bent to 4: still commutative, with zero neutral and every
    # element invertible
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    add[1][2] = add[2][1] = 4
    spec = {"kind": "table", "elements": [str(i) for i in range(5)],
            "zero": 0, "one": 1,
            "add": add, "mul": [[i * j % 5 for j in range(5)] for i in range(5)]}
    with pytest.raises(NotARing) as err:
        build_ring(spec)
    assert "addition not associative" in str(err.value)
    assert witness_breaks(str(err.value), add, spec["mul"], [str(i) for i in range(5)])


def test_table_entries_out_of_range_are_refused():
    add, mul = [[0, 1], [1, 0]], [[0, 0], [0, 1]]
    for table, label, v in ((add, "add", 2), (mul, "mul", -1),
                            (mul, "mul", "1")):
        bent = [list(row) for row in table]
        bent[1][0] = v
        tables = (bent, mul) if label == "add" else (add, bent)
        with pytest.raises(NotARing) as err:
            FinRing(["0", "1"], *tables, 0, 1)
        assert str(err.value) == "%s table entry %r out of range" % (label, v)


def test_nonassociative_algebra_is_refused():
    # the F_2-algebra on 1, x, y with x^2 = y, xy = 1, y^2 = 0 is commutative
    # and distributive, but (xx)y = 0 while x(xy) = x
    basis = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
             (1, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 2): (0, 0, 0)}
    elems = list(itertools.product(range(2), repeat=3))

    def times(u, v):
        out = [0, 0, 0]
        for i, j in itertools.product(range(3), repeat=2):
            if u[i] and v[j]:
                out = [(o + t) % 2 for o, t in zip(out, basis[min(i, j), max(i, j)])]
        return elems.index(tuple(out))

    add = [[elems.index(tuple((a + b) % 2 for a, b in zip(u, v))) for v in elems]
           for u in elems]
    mul = [[times(u, v) for v in elems] for u in elems]
    names = ["".join(map(str, e)) for e in elems]
    with pytest.raises(NotARing) as err:
        FinRing(names, add, mul, 0, elems.index((1, 0, 0)))
    assert "multiplication not associative" in str(err.value)
    assert witness_breaks(str(err.value), add, mul, names)


def axiom_violation_by_full_scan(names, add, mul, zero, one):
    """Oracle: the first ring axiom the tables break, by the n^3 scan over
    every triple, or None for a commutative unital ring."""
    n = len(names)
    for x in range(n):
        if add[x][zero] != x:
            return "zero is not additively neutral at %s" % names[x]
        if mul[x][one] != x:
            return "one is not multiplicatively neutral at %s" % names[x]
        if zero not in add[x]:
            return "no additive inverse for %s" % names[x]
        for y in range(n):
            if add[x][y] != add[y][x]:
                return "addition not commutative at (%s, %s)" % (names[x], names[y])
            if mul[x][y] != mul[y][x]:
                return "multiplication not commutative at (%s, %s)" % (names[x], names[y])
    for x, y, z in itertools.product(range(n), repeat=3):
        at = " at (%s, %s, %s)" % (names[x], names[y], names[z])
        if add[add[x][y]][z] != add[x][add[y][z]]:
            return "addition not associative" + at
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            return "multiplication not associative" + at
        if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
            return "distributivity fails" + at
    return None


def witness_breaks(message, add, mul, names):
    """Whether the elements a refusal names really break its axiom."""
    if re.match(r"zero is not|one is not|no additive inverse", message):
        return True  # the oracle words these alike, checked by the caller
    claim, _, at = message.partition(" at (")
    w = [names.index(nm) for nm in at[:-1].split(", ")]
    if claim == "addition not commutative":
        x, y = w
        return add[x][y] != add[y][x]
    if claim == "multiplication not commutative":
        x, y = w
        return mul[x][y] != mul[y][x]
    x, y, z = w
    if claim == "addition not associative":
        return add[add[x][y]][z] != add[x][add[y][z]]
    if claim == "multiplication not associative":
        return mul[mul[x][y]][z] != mul[x][mul[y][z]]
    assert claim == "distributivity fails", message
    return mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]


def verdict(names, add, mul, zero, one):
    try:
        FinRing(names, add, mul, zero, one)
    except NotARing as exc:
        return str(exc)
    return None


def small_rings(square_zero):
    """Rings of order at most 12: local, fields, products, and not Z/n."""
    out = [zmod(n) for n in range(1, 13)] + [gf(2, 2), gf(2, 3), gf(3, 2)]
    out += [product_ring([zmod(a), zmod(b)])
            for a, b in ((2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (3, 4))]
    out += [product_ring([zmod(2)] * 3), product_ring([zmod(2), gf(2, 2)])]
    return out + [R for R in square_zero.values() if R.size <= 12]


@pytest.fixture(scope="session")
def small(square_zero):
    return small_rings(square_zero)


LADDER_Z = (8, 12, 16, 30, 36, 60, 64)
LADDER_F = (3, 4, 5, 6)


def ladder_factors():
    """The factors of the benchmark ladder's products."""
    return ([zmod(2)] * 3, [zmod(2), gf(2, 2)], [zmod(2)] * 4, [zmod(4)] * 2,
            [zmod(2), zmod(8)], [zmod(2), zmod(32)], [zmod(4)] * 3)


def ladder():
    """The benchmark's ring ladder, orders 8 to 64."""
    return [zmod(n) for n in LADDER_Z] + [gf(2, k) for k in LADDER_F] + \
        [product_ring(fs) for fs in ladder_factors()]


def spectrum_bases(rings, square_zero):
    """The catalogue, the ladder, the square-zero rings, (Z/2)^6 and
    (Z/4)^4: the bases the spectrum views are checked on against their
    former constructions."""
    return list(rings) + ladder() + list(square_zero.values()) + \
        [product_ring([zmod(2)] * 6), product_ring([zmod(4)] * 4)]


def relabelled(R, rng):
    """R's tables under a random relabelling, so zero and the generators sit
    anywhere: [names, add, mul, zero, one], the tables as lists of lists."""
    perm = rng.sample(range(R.size), R.size)
    names = [None] * R.size
    add = [[None] * R.size for _ in names]
    mul = [[None] * R.size for _ in names]
    for x, y in itertools.product(R.elements(), repeat=2):
        names[perm[x]] = R.names[x]
        add[perm[x]][perm[y]] = perm[R.add[x][y]]
        mul[perm[x]][perm[y]] = perm[R.mul[x][y]]
    return [names, add, mul, perm[R.zero], perm[R.one]]


def light_verdict(names, add, mul, zero, one):
    try:
        return validate_axioms_by_light(names, add, mul, zero, one)
    except NotARing as exc:
        return str(exc)


def maps_verdict(names, add, mul, zero, one):
    try:
        return validate_axioms_by_maps(names, add, mul, zero, one)
    except NotARing as exc:
        return str(exc)


def assert_verdict_matches_the_scans(names, add, mul, zero, one):
    """The check refuses exactly when the full scan and Light's test do,
    naming elements that break its law, and otherwise returns the S of
    Light's test; it refuses with the message, or returns the S, of the
    map-based check it replaced.  Returns whether it refused."""
    args = (names, add, mul, zero, one)
    new, old = verdict(*args), axiom_violation_by_full_scan(*args)
    assert (new is None) == (old is None), (args, new, old)
    light = light_verdict(*args)
    if new is None:
        assert FinRing(*args).additive_generators == light == \
            maps_verdict(*args)
        return False
    assert new == maps_verdict(*args), (args, new)
    assert witness_breaks(new, add, mul, names), new
    assert isinstance(light, str), (args, new)
    if re.match(r"zero is not|one is not|no additive inverse", new):
        assert new == old == light
    return True


def test_axiom_check_matches_the_full_scan(square_zero):
    for R in ladder():
        assert axiom_violation_by_full_scan(
            R.names, R.add, R.mul, R.zero, R.one) is None, R.name
    rng = random.Random(5)
    rings = small_rings(square_zero)
    # and wide generating sets, |S| >= 5, which Z/n never has
    wide = [gf(2, 4), gf(2, 5), product_ring([zmod(2)] * 4),
            product_ring([zmod(2)] * 5)]
    assert min(len(R.additive_generators) for R in wide) >= 5
    seen = {"refused": 0, "accepted": 0}
    for R in itertools.chain((rng.choice(rings) for _ in range(1200)),
                             wide * 100):
        args = relabelled(R, rng)
        for _cell in range(rng.choice((1, 2))):
            t = args[rng.choice((1, 2))]
            x, y = rng.randrange(R.size), rng.randrange(R.size)
            t[x][y] = t[y][x] = rng.randrange(R.size)
        refused = assert_verdict_matches_the_scans(*args)
        seen["refused" if refused else "accepted"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.fuzz
@given(st.data())
def test_one_corrupted_cell_pair_is_refused_iff_the_scan_finds_one(small, data):
    """A drawn ring with one symmetric pair of add or mul cells changed is
    refused exactly when the full scan finds a broken axiom, and the
    refusal names elements that break it."""
    R = data.draw(st.sampled_from(small), label="ring")
    names, add, mul = list(R.names), [list(r) for r in R.add], \
        [list(r) for r in R.mul]
    t = data.draw(st.sampled_from((add, mul)), label="table")
    x = data.draw(st.integers(0, R.size - 1), label="x")
    y = data.draw(st.integers(0, R.size - 1), label="y")
    t[x][y] = t[y][x] = data.draw(st.integers(0, R.size - 1), label="value")
    assert_verdict_matches_the_scans(names, add, mul, R.zero, R.one)


def test_ring_tables_match_the_old_builders(rings, square_zero):
    """Z/n by one expression per cell, F_q by Horner's rule, products by the
    tuple index, on the ladder and every field of order <= 256; and every
    quotient of the catalogue, square-zero and ladder rings by its cell
    lookups."""
    def tables(R):
        return [list(map(list, R.add)), list(map(list, R.mul))]

    for n in LADDER_Z:
        assert tables(zmod(n)) == list(zmod_tables_by_comprehension(n)), n
    fields = field_catalogue(256, Budget())
    assert [F.size for F in fields] == [q for q in range(2, 257)
                                        if prime_power(q, Budget())]
    for F in fields + [gf(2, k) for k in LADDER_F]:
        p, k = prime_power(F.size, Budget())
        assert tables(F) == list(gf_tables_by_horner(p, k)), F.name
    for fs in ladder_factors():
        assert tables(product_ring(fs)) == \
            list(product_tables_by_tuple_index(fs)[:2]), fs
    count = 0
    for A in list(rings) + list(square_zero.values()) + ladder():
        for I in all_ideals(A, Budget()):
            if not I.is_zero():
                assert tables(quotient_ring(A, I)[0]) == \
                    list(quotient_tables_by_comprehension(A, I)), I
                count += 1
    assert count > 100, count


def test_axiom_check_returns_the_generators_of_light(rings, square_zero):
    """S is the same as Light's test and the map-based check find on every
    ring built here, and on every quotient of one by an ideal."""
    built = list(rings) + list(square_zero.values()) + ladder()
    for A in list(built):
        built += [quotient_ring(A, I)[0] for I in all_ideals(A, Budget())]
    for R in built:
        args = R.names, R.add, R.mul, R.zero, R.one
        assert R.additive_generators == validate_axioms_by_light(*args) == \
            validate_axioms_by_maps(*args), R.name


def commutative_loops(rng):
    """Tables (add, e) of commutative loops of order 6 to 16 that are not
    associative (every commutative loop of order 5 or less is a group): Latin, symmetric, with the neutral element e.

    Three kinds: a neutral element put on the idempotent quasigroup
    x.y = (x + y)/2 of Z/m, m odd, with x.x = e; a group table of order
    <= 16 with one symmetric intercalate turned; and symmetric Latin
    squares of odd order filled at random until one is not associative."""
    out = []
    for m in range(5, 16, 2):
        half = (m + 1) // 2
        out.append([[y if x == 0 else x if y == 0 else
                     0 if x == y else (x - 1 + y - 1) * half % m + 1
                     for y in range(m + 1)] for x in range(m + 1)])
    for G in (zmod(8), zmod(12), zmod(16), product_ring([zmod(2)] * 3),
              product_ring([zmod(2), zmod(4)]), product_ring([zmod(2)] * 4),
              product_ring([zmod(2), zmod(6)]), product_ring([zmod(4)] * 2)):
        A = [list(row) for row in G.add]
        # a != d with a + a = d + d: cells (a, a), (d, d) hold u, (a, d)
        # and (d, a) hold v, and swapping u and v keeps the square Latin
        a, d = next((a, d) for a, d in itertools.combinations(
            range(1, G.size), 2) if A[a][a] == A[d][d])
        u, v = A[a][a], A[a][d]
        A[a][a] = A[d][d] = v
        A[a][d] = A[d][a] = u
        out.append(A)
    for n in (7, 9):
        A = None
        while A is None or associative(A):
            A = fill_symmetric_latin(n, rng)
        out.append(A)
    return [(A, 0) for A in out]


def associative(A):
    n = len(A)
    return all(A[A[x][y]][z] == A[x][A[y][z]]
               for x, y, z in itertools.product(range(n), repeat=3))


def fill_symmetric_latin(n, rng):
    """A symmetric Latin square of order n with row 0 the identity, filled
    cell by cell at random, or None when a cell has no value left."""
    A = [[None] * n for _ in range(n)]
    for x in range(n):
        A[0][x] = A[x][0] = x
    for x in range(1, n):
        for y in range(x, n):
            free = set(range(n)) - set(A[x]) - set(A[y])
            if not free:
                return None
            A[x][y] = A[y][x] = rng.choice(sorted(free))
    return A


def test_commutative_loops_are_refused():
    rng = random.Random(13)
    loops = commutative_loops(rng)
    assert {len(A) for A, _e in loops} >= {6, 7, 16}
    for A, e in loops:
        n = len(A)
        assert all(sorted(row) == list(range(n)) for row in A)
        assert all(A[x][y] == A[y][x] and A[e][x] == x
                   for x in range(n) for y in range(n))
        assert not associative(A)
        for _copy in range(3):
            perm = rng.sample(range(n), n)
            add = [[None] * n for _ in range(n)]
            for x, y in itertools.product(range(n), repeat=2):
                add[perm[x]][perm[y]] = perm[A[x][y]]
            zero = perm[e]
            one = rng.choice([x for x in range(n) if x != zero])
            # a product with one neutral and all else zero, so that only
            # the addition is at fault
            mul = [[y if x == one else x if y == one else zero
                    for y in range(n)] for x in range(n)]
            names = ["e%d" % x for x in range(n)]
            with pytest.raises(NotARing) as err:
                FinRing(names, add, mul, zero, one)
            assert str(err.value).startswith("addition not associative")
            assert witness_breaks(str(err.value), add, mul, names)
            assert isinstance(light_verdict(names, add, mul, zero, one), str)
            assert str(err.value) == maps_verdict(names, add, mul, zero, one)


def test_rows_additive_along_the_tree_only_are_refused():
    # (Z/2 x Z/4, +) relabelled, S = (0, 1, 2) with 2 + 2 = 0, and a
    # commutative product with one = 2, associative on S, whose every row is
    # additive along the spanning tree of the addition check; yet 1(2 + 2)
    # = 0 and 1*2 + 1*2 = 1 + 1 = 4, which only the rows of S checked
    # against S find
    add = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 4, 7, 5, 6, 2, 0, 3],
           [2, 7, 0, 4, 3, 6, 5, 1], [3, 5, 4, 0, 2, 1, 7, 6],
           [4, 6, 3, 2, 0, 7, 1, 5], [5, 2, 6, 1, 7, 4, 3, 0],
           [6, 0, 5, 7, 1, 3, 4, 2], [7, 3, 1, 6, 5, 0, 2, 4]]
    mul = [[0, 0, 0, 0, 0, 0, 0, 0], [0, 3, 1, 1, 0, 5, 3, 5],
           [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 7, 6, 5],
           [0, 0, 4, 4, 0, 4, 0, 4], [0, 5, 5, 7, 4, 0, 7, 4],
           [0, 3, 6, 6, 0, 7, 3, 7], [0, 5, 7, 5, 4, 4, 7, 0]]
    names = [str(i) for i in range(8)]
    with pytest.raises(NotARing) as err:
        FinRing(names, add, mul, 0, 2)
    assert str(err.value) == "distributivity fails at (1, 2, 2)"
    assert witness_breaks(str(err.value), add, mul, names)
    assert (add[2][2], mul[1][2], add[1][1]) == (0, 1, 4)
    assert light_verdict(names, add, mul, 0, 2).startswith("distributivity")


def test_a_ring_that_fails_only_commutativity_is_refused():
    # the upper-triangular 2x2 matrices over F_2, (a, b, d) for
    # [[a, b], [0, d]] named by its digits: a ring in every other axiom, so
    # only the commutation scan can refuse it
    elems = list(itertools.product((0, 1), repeat=3))
    names = ["%d%d%d" % e for e in elems]

    def times(x, y):
        (a, b, d), (a2, b2, d2) = x, y
        return a * a2 % 2, (a * b2 + b * d2) % 2, d * d2 % 2

    add = [[elems.index(tuple((u + v) % 2 for u, v in zip(x, y)))
            for y in elems] for x in elems]
    mul = [[elems.index(times(x, y)) for y in elems] for x in elems]
    zero, one = elems.index((0, 0, 0)), elems.index((1, 0, 1))
    n = len(elems)
    assert n == 8
    assert all(add[x][zero] == x and mul[x][one] == mul[one][x] == x
               and zero in add[x] for x in range(n))
    for x, y, z in itertools.product(range(n), repeat=3):
        assert add[x][y] == add[y][x]
        assert add[add[x][y]][z] == add[x][add[y][z]]
        assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
        assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
        assert mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
    message = "multiplication not commutative at (001, 010)"
    with pytest.raises(NotARing) as err:
        FinRing(names, add, mul, zero, one)
    assert str(err.value) == message
    assert witness_breaks(message, add, mul, names)
    assert light_verdict(names, add, mul, zero, one) == message
    assert maps_verdict(names, add, mul, zero, one) == message


def test_gf_tables_match_polynomial_arithmetic():
    for q in range(2, 65):
        pk = prime_power(q, Budget())
        if pk is None:
            continue
        p, k = pk
        modpoly = least_irreducible(p, k)
        elems = [tuple(i // p ** j % p for j in range(k)) for i in range(q)]

        def index(poly):
            return sum(c * p ** j for j, c in enumerate(poly))

        def times(a, b):
            prod = [0] * (2 * k - 1)
            for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
            return index(_poly_divmod(tuple(prod), modpoly, p)[1])

        F = gf(p, k)
        assert F.add == tuple(tuple(index((x + y) % p for x, y in zip(a, b))
                                    for b in elems) for a in elems), q
        assert F.mul == tuple(tuple(times(a, b) for b in elems)
                              for a in elems), q


def test_build_ring_kinds():
    assert build_ring({"kind": "zmod", "n": 9}).size == 9
    assert build_ring({"kind": "gf", "p": 3, "k": 2}).size == 9
    P = build_ring({"kind": "product",
                    "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]})
    assert P.size == 6
    Q = build_ring({"kind": "quotient", "base": {"kind": "zmod", "n": 12},
                    "ideal_gens": ["4"]})
    assert Q.size == 4
    with pytest.raises(InvalidSpec):
        build_ring({"kind": "nope"})


def test_product_ring_is_z6():
    P = product_ring([zmod(2), zmod(3)])
    assert ring_isomorphic(P, zmod(6), Budget()) is not None
    assert ring_isomorphic(product_ring([zmod(2), zmod(2)]), zmod(4),
                           Budget()) is None


def test_hom_validation():
    u = RingHom(zmod(4), zmod(2), (0, 1, 0, 1))
    u.validate()
    with pytest.raises(InvalidSpec):
        RingHom(zmod(4), zmod(2), (0, 0, 0, 0)).validate()  # drops 1
    with pytest.raises(InvalidSpec):
        RingHom(zmod(4), zmod(2), (0, 1, 1, 0)).validate()  # breaks addition


def hom_check_accepts(A, B, f):
    try:
        RingHom(A, B, f).validate()
    except InvalidSpec:
        return False
    return True


def test_hom_check_matches_the_full_scan(rings):
    # every hom between catalogue rings, and each with one value changed
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for A, B in itertools.product(rings, repeat=2):
        for h in enumerate_homs(A, B, Budget()):
            f = h.mapping
            cands = [f]
            for x in rng.sample(range(A.size), min(3, A.size)):
                cands.append(f[:x] + (rng.randrange(B.size),) + f[x + 1:])
            for cand in cands:
                verdict = hom_check_accepts(A, B, cand)
                assert verdict == is_hom_by_full_scan(A, B, cand), \
                    (A.name, B.name, cand)
                seen[verdict] += 1
    assert seen[True] and seen[False], seen


def test_hom_check_names_a_broken_pair():
    A, B = zmod(6), zmod(6)
    for f in itertools.product(range(6), repeat=6):
        if f[1] != 1 or is_hom_by_full_scan(A, B, f):
            continue
        with pytest.raises(InvalidSpec) as err:
            RingHom(A, B, f).validate()
        law, x, y = re.match(r"hom breaks (\w+) at \((\d+), (\d+)\)$",
                             str(err.value)).groups()
        table, op = (A.add, B.add) if law == "addition" else (A.mul, B.mul)
        x, y = int(x), int(y)
        assert f[table[x][y]] != op[f[x]][f[y]], (f, str(err.value))


@pytest.mark.fuzz
@settings(max_examples=300)
@given(st.data())
def test_hom_check_agrees_with_the_full_scan_on_random_maps(data):
    rings = [R for R in ring_catalogue(Budget()) if R.size <= 16]
    A = data.draw(st.sampled_from(rings), label="source")
    B = data.draw(st.sampled_from(rings), label="target")
    homs = enumerate_homs(A, B, Budget())
    # random maps are almost never homs, so half the draws start from one
    if homs and data.draw(st.booleans(), label="from a hom"):
        f = list(data.draw(st.sampled_from(homs), label="hom").mapping)
        for x in data.draw(st.lists(st.integers(0, A.size - 1), max_size=2),
                           label="changed"):
            f[x] = data.draw(st.integers(0, B.size - 1), label="value")
    else:
        f = data.draw(st.lists(st.integers(0, B.size - 1), min_size=A.size,
                               max_size=A.size), label="map")
    f = tuple(f)
    assert hom_check_accepts(A, B, f) == is_hom_by_full_scan(A, B, f)


def test_enumerate_homs_matches_the_full_scan(rings):
    for A, B in itertools.product(rings, repeat=2):
        assert [h.mapping for h in enumerate_homs(A, B, Budget())] == \
            hom_mappings_by_full_scan(A, B), (A.name, B.name)


def test_enumerate_homs_charges_the_generating_set():
    F = gf(2, 4)
    budget = Budget()
    enumerate_homs(F, F, budget=budget)
    # 16 images of the generator x, each checked against S = {0, 1, x, x^2, x^3}
    assert F.additive_generators == (0, 1, 2, 4, 8)
    assert budget.used == 16 * 16 * 5


def test_enumerate_homs_counts():
    assert len(enumerate_homs(zmod(4), zmod(2), Budget())) == 1
    assert len(enumerate_homs(zmod(2), zmod(4), Budget())) == 0
    assert len(enumerate_homs(zmod(6), zmod(6), Budget())) == 1
    # Frobenius and the identity
    assert len(enumerate_homs(gf(2, 2), gf(2, 2), Budget())) == 2


def test_hom_from_images():
    A, B = zmod(6), zmod(6)
    h = hom_from_images(A, B, {g: g for g in A.generators})
    assert h is not None and h.mapping == tuple(range(6))
    F = gf(2, 2)
    x = F.element_by_name("x")
    frob = hom_from_images(F, F, {x: F.m(x, x)})
    assert frob is not None and frob.mapping != tuple(range(4))


def test_ideals_and_primes():
    A = zmod(12)
    assert len(all_ideals(A, Budget())) == 6
    assert len(all_ideals(zmod(6), Budget())) == 4
    primes = prime_ideals(A)
    assert sorted(p.label() for p in primes) == ["{0,2,4,6,8,10}", "{0,3,6,9}"]
    brute = prime_ideals_bruteforce(A, Budget())
    assert sorted(p.label() for p in brute) == sorted(p.label() for p in primes)


def ideals_by_subgroup_filter(A):
    """Oracle: every additive subgroup, kept when it absorbs multiplication.

    Subgroups grow from {0} by adding cyclic subgroups, since every subgroup
    of a finite group is a sum of cyclic ones.
    """
    cyclic = []
    for a in A.elements():
        c, x = {A.zero}, a
        while x not in c:
            c.add(x)
            x = A.add[x][a]
        cyclic.append(frozenset(c))
    zero = frozenset([A.zero])
    found, todo = {zero}, [zero]
    while todo:
        S = todo.pop()
        for C in cyclic:
            if C <= S:
                continue
            T = frozenset(A.add[s][c] for s in S for c in C)
            if T not in found:
                found.add(T)
                todo.append(T)
    return [S for S in sorted(found, key=lambda s: (len(s), sorted(s)))
            if all(A.mul[r][x] in S for x in S for r in A.elements())]


def test_all_ideals_match_the_subgroup_filter(rings, square_zero):
    extra = [gf(2, 6), product_ring([zmod(2)] * 5),
             product_ring([zmod(4)] * 3), zmod(60), zmod(64),
             product_ring([zmod(2), zmod(32)]), product_ring([zmod(2)] * 4),
             product_ring([zmod(2), square_zero[2, 2]])]
    for A in list(rings) + list(square_zero.values()) + extra:
        assert [I.elements for I in all_ideals(A, Budget())] == \
            ideals_by_subgroup_filter(A), A.name


def test_prime_bruteforce_agreement(rings):
    for A in rings:
        fast = sorted(p.label() for p in prime_ideals(A))
        slow = sorted(p.label() for p in prime_ideals_bruteforce(A, Budget()))
        assert fast == slow, A.name


def test_local_factors_match_the_unit_scan(rings, square_zero):
    # the primes as the unit scan found them, the nilradical as the walk
    # over powers found it, and each factor's maximal ideal as the
    # nilpotents of eA, the part of P inside eA
    for A in spectrum_bases(rings, square_zero):
        factors = local_factors(A)
        assert [P.elements for _e, P, _m in factors] == \
            [P.elements for P in prime_ideals_by_units(A)], A.name
        assert prime_ideals(A) == [P for _e, P, _m in factors], A.name
        nil = radical(Ideal(A, frozenset([A.zero]))).elements
        assert nilradical(A).elements == nil, A.name
        assert sorted(e for e, _P, _m in factors) == \
            primitive_idempotents(A), A.name
        for e, P, m in factors:
            eA = set(A.mul[e])
            assert m == nil & eA == P.elements & eA, A.name
            assert e not in P.elements and A.sub(A.one, e) in P.elements


def test_annihilator_kernel_matches_the_closure(rings, square_zero):
    # the catalogue, the square-zero rings and the ladder; per ring: no
    # element, each element, and seeded lists of units, of nilpotents (the
    # localisation is the zero ring) and of any elements
    rng = random.Random(17)
    kinds = {"units": 0, "nilpotent": 0}
    for A in list(rings) + list(square_zero.values()) + ladder():
        units = sorted(A.units())
        nil = sorted(nilradical(A).elements - {A.zero})
        lists = [[]] + [[a] for a in A.elements()]
        lists += [rng.choices(units, k=rng.randint(1, 4)) for _ in range(10)]
        lists += [rng.choices(range(A.size), k=rng.randint(2, 4))
                  for _ in range(10)]
        if nil:
            lists += [rng.choices(nil, k=rng.randint(1, 3)) +
                      rng.choices(range(A.size), k=rng.randint(0, 2))
                      for _ in range(10)]
        for S in lists:
            kernel = annihilator_kernel(A, S).elements
            assert kernel == annihilator_kernel_by_closure(A, S), (A.name, S)
            if S and set(S) <= set(units):
                assert kernel == {A.zero}
                kinds["units"] += 1
            if set(S) & set(nil):
                assert kernel == frozenset(A.elements())
                kinds["nilpotent"] += 1
    assert min(kinds.values()) > 100, kinds


def test_generation_sequence_matches_the_full_rounds(rings, square_zero):
    for A in list(rings) + list(square_zero.values()) + ladder():
        assert A.generation_sequence() == generation_sequence_by_rounds(A), \
            A.name
    for A in (product_ring([zmod(2), zmod(2)]), gf(2, 2)):
        B = FinRing(A.names, A.add, A.mul, A.zero, A.one)
        with pytest.raises(InvalidSpec, match="do not generate"):
            B.generation_sequence()
        with pytest.raises(InvalidSpec, match="do not generate"):
            generation_sequence_by_rounds(B)


def test_constructed_ideals_are_ideals(rings):
    # quotient_ring trusts these constructors, so each must build an ideal
    for A in rings:
        made = [nilradical(A)] + prime_ideals(A)
        for a, b in itertools.combinations_with_replacement(A.elements(), 2):
            made += [ideal_generated(A, [a, b]), annihilator_kernel(A, [a, b])]
        # each maximal ideal m of a factor eA is an ideal of A too
        made += [Ideal(A, m) for _e, _P, m in local_factors(A)]
        for I in made:
            assert I.validate() is I, (A.name, I)


def test_product_tables_match_the_tuple_index(square_zero):
    table = build_ring({"kind": "table", "elements": ["b", "a"], "zero": "b",
                        "one": "a", "add": [["b", "a"], ["a", "b"]],
                        "mul": [["b", "b"], ["b", "a"]]})
    for factors in ([zmod(2), zmod(3)], [zmod(4), gf(2, 2), zmod(3)],
                    [table, zmod(2), table], [square_zero[2, 2], zmod(3)],
                    [zmod(1), zmod(5)], [zmod(6)]):
        P = product_ring(factors)
        add, mul, names, zero, one = product_tables_by_tuple_index(factors)
        assert P.add == tuple(map(tuple, add)) and \
            P.mul == tuple(map(tuple, mul))
        assert (list(P.names), P.zero, P.one) == (names, zero, one)


def test_primitive_idempotents_split_one(rings, square_zero):
    # orthogonal, summing to one, and none for the zero ring
    for A in list(rings) + list(square_zero.values()):
        prims = primitive_idempotents(A)
        assert all(A.mul[e][f] == A.zero for e in prims for f in prims
                   if e != f), A.name
        total = A.zero
        for e in prims:
            total = A.add[total][e]
        assert total == A.one and bool(prims) != A.is_zero_ring(), A.name


def test_localization_inverts_its_set(rings, square_zero):
    for A in list(rings) + list(square_zero.values()):
        for a in A.elements():
            L, proj = localize(A, [a])
            assert proj(a) in L.units(), (A.name, A.names[a])


def test_quotient_ring():
    A = zmod(12)
    Q, proj = quotient_ring(A, ideal_generated(A, [A.element_by_name("4")]))
    assert Q.size == 4
    assert proj.source is A and proj.target is Q
    # zero ideal keeps the ring itself
    Q0, proj0 = quotient_ring(A, ideal_generated(A, []))
    assert Q0 is A and proj0.mapping == tuple(range(A.size))


def test_ideal_generated_matches_the_closure(rings, square_zero):
    # the catalogue, the square-zero rings and the benchmark ladder's rings
    # of order 8-64; per ring: no generator, each element, seeded generator
    # lists with repeats, and the union of each of some pairs of ideals
    ladder = [gf(2, 4), gf(2, 5), gf(2, 6), zmod(16), zmod(30), zmod(36),
              zmod(60), zmod(64), product_ring([zmod(2), gf(2, 2)]),
              product_ring([zmod(4)] * 2), product_ring([zmod(2), zmod(8)]),
              product_ring([zmod(2)] * 4), product_ring([zmod(2), zmod(32)]),
              product_ring([zmod(4)] * 3)]
    rng = random.Random(7)
    cases = 0
    for A in list(rings) + list(square_zero.values()) + ladder:
        ideals = all_ideals(A, Budget())
        lists = [[]] + [[a] for a in A.elements()]
        lists += [rng.choices(range(A.size), k=rng.randint(2, 5))
                  for _ in range(30)]
        lists += [sorted(I.elements | J.elements)
                  for I, J in (rng.choices(ideals, k=2) for _ in range(30))]
        for gens in lists:
            assert ideal_generated(A, gens).elements == \
                ideal_generated_by_closure(A, gens), (A.name, gens)
        cases += len(lists)
    assert cases > 2000


def test_ideal_generated_is_smallest():
    A = zmod(12)
    I = ideal_generated(A, [A.element_by_name("8")])
    assert I.elements == frozenset({0, 4, 8})


def test_smallest_prime_factor():
    assert [smallest_prime_factor(n) for n in (2, 9, 15, 49, 9999991)] == \
        [2, 3, 3, 7, 9999991]
    with pytest.raises(InvalidSpec):
        smallest_prime_factor(1)


def test_prime_power_charges_trial_division_to_the_root():
    budget = Budget()
    assert prime_power(9999991, budget) == (9999991, 1)
    assert budget.used <= 3163
