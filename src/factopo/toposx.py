"""Image factorisations in two concrete toposes.

Finite right G-sets, where the atoms are the transitive orbits and the
orbit family is the finest point cover, and finite-dimensional vector
spaces over F_q, whose simple subobjects are the lines through the
origin together with the zero subobject sitting below all of them.
"""

import itertools
from typing import NamedTuple

from .budget import ensure_budget
from .errors import (FactorizerContractViolation, InvalidSpec, NotEquivariant,
                     NotLinear)
from .finring import gf, prime_power
from .posets import CoverResult, Factorization, Poset, Spectrum
from .reader import GSET, VSPACE, read


# ---------------------------------------------------------------------------
# groups and right actions

class FinGroup:
    """A finite group by its multiplication table of element indices."""

    def __init__(self, elements, table, name="G"):
        self.names = tuple(str(s) for s in elements)
        self.size = len(self.names)
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        self.validate()

    def mul(self, a, b):
        return self.table[a][b]

    def validate(self):
        n = self.size
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise InvalidSpec("group table is not %d x %d" % (n, n))
        if any(v not in range(n) for r in self.table for v in r):
            raise InvalidSpec("group table entry out of range")
        self.unit = next((e for e in range(n)
                          if all(self.table[e][x] == x == self.table[x][e]
                                 for x in range(n))), None)
        if self.unit is None:
            raise InvalidSpec("group has no two-sided unit")
        for a in range(n):
            if not any(self.table[a][b] == self.unit for b in range(n)):
                raise InvalidSpec("element %s has no inverse" % self.names[a])
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != \
                            self.table[a][self.table[b][c]]:
                        raise InvalidSpec(
                            "group multiplication is not associative")
        return self

    def __repr__(self):
        return "FinGroup(%s, order %d)" % (self.name, self.size)


def cyclic_group(n):
    return FinGroup([str(i) for i in range(n)],
                    [[(i + j) % n for j in range(n)] for i in range(n)],
                    name="Z%d" % n)


def symmetric_3():
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms]
             for p in perms]
    return FinGroup(["".join(map(str, p)) for p in perms], table, name="S3")


class FinGSet:
    """A finite set with a right action, given as a carrier x group table."""

    def __init__(self, group, carrier, action, name="X"):
        self.group = group
        self.carrier = tuple(str(s) for s in carrier)
        self.size = len(self.carrier)
        self.action = tuple(tuple(row) for row in action)
        self.name = name
        self.validate()

    def act(self, x, g):
        return self.action[x][g]

    def validate(self):
        if len(set(self.carrier)) != self.size:
            raise InvalidSpec("duplicate carrier labels")
        if len(self.action) != self.size or \
                any(len(r) != self.group.size for r in self.action):
            raise InvalidSpec("action table shape mismatch")
        if any(v not in range(self.size) for r in self.action for v in r):
            raise InvalidSpec("action table entry out of range")
        e = self.group.unit
        for x in range(self.size):
            if self.action[x][e] != x:
                raise InvalidSpec("unit fails to act trivially on %s"
                                  % self.carrier[x])
            for g in range(self.group.size):
                for h in range(self.group.size):
                    if self.action[x][self.group.mul(g, h)] != \
                            self.action[self.action[x][g]][h]:
                        raise InvalidSpec("action is not compatible with "
                                          "multiplication at %s" % self.carrier[x])
        return self

    def __repr__(self):
        return "FinGSet(%s: %d points over %s)" % (
            self.name, self.size, self.group.name)


def regular_gset(G):
    return FinGSet(G, G.names,
                   [[G.mul(x, g) for g in range(G.size)]
                    for x in range(G.size)],
                   name="%s-regular" % G.name)


def trivial_gset(G, n, name=None):
    return FinGSet(G, [str(i) for i in range(n)],
                   [[x] * G.size for x in range(n)],
                   name=name or "%s-trivial%d" % (G.name, n))


def disjoint_union_gset(X, Y, name=None):
    if X.group is not Y.group:
        raise InvalidSpec("summands act under different groups")
    carrier = ["a.%s" % s for s in X.carrier] + ["b.%s" % s for s in Y.carrier]
    action = [list(row) for row in X.action] + \
             [[v + X.size for v in row] for row in Y.action]
    return FinGSet(X.group, carrier, action,
                   name=name or "%s+%s" % (X.name, Y.name))


def build_gset(spec):
    read(spec, GSET)
    group = spec["group"]
    G = FinGroup(group.get("elements", range(len(group["table"]))),
                 group["table"], name=group.get("name", "G"))
    return FinGSet(G, spec["carrier"], spec["action"], name=spec.get("name", "X"))


class EquivariantMap:
    def __init__(self, source, target, mapping, name=""):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        self.name = name
        self.validate()

    def validate(self):
        if self.source.group is not self.target.group:
            raise NotEquivariant("source and target carry different groups")
        if len(self.mapping) != self.source.size or \
                any(v not in range(self.target.size) for v in self.mapping):
            raise NotEquivariant("mapping is not a function into the target")
        for x in range(self.source.size):
            for g in range(self.source.group.size):
                if self.mapping[self.source.act(x, g)] != \
                        self.target.act(self.mapping[x], g):
                    raise NotEquivariant(
                        "map breaks the action at %s" % self.source.carrier[x])
        return self

    def apply(self, x):
        return self.mapping[x]

    def is_surjective(self):
        return set(self.mapping) == set(range(self.target.size))

    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def then(self, other):
        if other.source is not self.target:
            raise InvalidSpec("%r cannot follow %r" % (other, self))
        return EquivariantMap(self.source, other.target,
                              [other.mapping[v] for v in self.mapping])

    def __repr__(self):
        return "EquivariantMap(%s -> %s)" % (self.source.name, self.target.name)


def epi_mono_factorize_gset(f):
    """Surjection onto the image sub-G-set followed by its inclusion."""
    image = sorted(set(f.mapping))
    back = {v: i for i, v in enumerate(image)}
    mid = FinGSet(f.target.group,
                  [f.target.carrier[v] for v in image],
                  [[back[f.target.act(v, g)]
                    for g in range(f.target.group.size)] for v in image],
                  name="im(%s)" % (f.name or "f"))
    epi = EquivariantMap(f.source, mid, [back[v] for v in f.mapping])
    mono = EquivariantMap(mid, f.target, image)
    if not (epi.is_surjective() and mono.is_injective()):
        raise FactorizerContractViolation(
            "image factorisation of %r: legs outside their classes" % f)
    if epi.then(mono).mapping != f.mapping:
        raise FactorizerContractViolation(
            "image factorisation of %r: legs do not compose to it" % f)
    return Factorization(epi, mid, mono)


# ---------------------------------------------------------------------------
# orbits

def orbit_partition(X):
    """Orbits as sorted index lists, ordered by their least point."""
    seen = set()
    orbits = []
    for x in range(X.size):
        if x in seen:
            continue
        orb = {X.act(x, g) for g in range(X.group.size)}
        orbits.append(sorted(orb))
        seen |= orb
    return orbits


class OrbitReport(NamedTuple):
    index: int
    points: tuple            # carrier labels
    size: int
    atom: bool               # transitivity, recomputed, never assumed


def atoms_and_orbits(X):
    """The orbit partition with each orbit's transitivity checked."""
    out = []
    for i, orb in enumerate(orbit_partition(X)):
        transitive = all(
            any(X.act(x, g) == y for g in range(X.group.size))
            for x in orb for y in orb)
        out.append(OrbitReport(i, tuple(X.carrier[x] for x in orb),
                               len(orb), transitive))
    return out


def orbit_inclusions(X):
    """The finest point cover: one inclusion per orbit."""
    fams = []
    for orb in orbit_partition(X):
        back = {v: i for i, v in enumerate(orb)}
        sub = FinGSet(X.group, [X.carrier[v] for v in orb],
                      [[back[X.act(v, g)] for g in range(X.group.size)]
                       for v in orb],
                      name="orbit-%s" % X.carrier[orb[0]])
        fams.append(EquivariantMap(sub, X, list(orb)))
    return fams


def gset_point_cover_check(X, family):
    """Joint surjectivity of equivariant maps into X."""
    for f in family:
        if f.target is not X:
            raise InvalidSpec("family member does not land in %s" % X.name)
    covered = set()
    for f in family:
        covered.update(f.mapping)
    missing = [x for x in range(X.size) if x not in covered]
    if missing:
        return CoverResult("points", False,
                           {"uncovered": X.carrier[missing[0]]})
    return CoverResult("points", True, {"points": X.size})


# ---------------------------------------------------------------------------
# vector spaces over F_q

class FqVecSpace:
    """F_q^n with vectors as index tuples over the field's element order;
    the space keeps ``budget``, which also pays for listing its vectors."""

    def __init__(self, q, n, name="", budget=None):
        self.budget = budget = ensure_budget(budget)
        pk = prime_power(q, budget)
        if pk is None:
            raise InvalidSpec("%r is not a prime power" % (q,))
        if n < 0:
            raise InvalidSpec("negative dimension")
        self.q = q
        self.n = n
        self.field = gf(*pk, budget=budget)
        self.name = name or "F%d^%d" % (q, n)

    def vectors(self):
        self.budget.spend(self.q ** self.budget.cap(self.n))
        return list(itertools.product(range(self.q), repeat=self.n))

    def zero_vector(self):
        return (self.field.zero,) * self.n

    def add(self, u, v):
        return tuple(self.field.a(a, b) for a, b in zip(u, v))

    def scale(self, c, v):
        return tuple(self.field.m(c, x) for x in v)

    def __repr__(self):
        return "FqVecSpace(%s)" % self.name


def build_vspace(spec, budget=None):
    read(spec, VSPACE)
    return FqVecSpace(spec["q"], spec["n"], name=spec.get("name", ""),
                      budget=budget)


def _inv(field, c):
    for d in range(field.size):
        if field.m(c, d) == field.one:
            return d
    raise InvalidSpec("element %s is not invertible" % field.names[c])


class LinearMap:
    """Determined by the rows: images of the source basis vectors."""

    def __init__(self, source, target, rows, name=""):
        self.source = source
        self.target = target
        self.rows = tuple(tuple(r) for r in rows)
        self.name = name
        self.validate()

    def validate(self):
        if self.source.q != self.target.q:
            raise NotLinear("source and target fields differ")
        if len(self.rows) != self.source.n or \
                any(len(r) != self.target.n for r in self.rows):
            raise NotLinear("row shape does not match the dimensions")
        if any(c not in range(self.target.q) for r in self.rows for c in r):
            raise NotLinear("row entry outside the field")
        return self

    def apply(self, v):
        out = self.target.zero_vector()
        for c, row in zip(v, self.rows):
            out = self.target.add(out, self.target.scale(c, row))
        return out

    def rank(self):
        return len(row_reduce(self.rows, self.target))

    def is_surjective(self):
        return self.rank() == self.target.n

    def is_injective(self):
        return self.rank() == self.source.n

    def then(self, other):
        if (other.source.q, other.source.n) != (self.target.q, self.target.n):
            raise InvalidSpec("%r cannot follow %r" % (other, self))
        return LinearMap(self.source, other.target,
                         [other.apply(r) for r in self.rows])

    def __repr__(self):
        return "LinearMap(%s -> %s)" % (self.source.name, self.target.name)


def row_reduce(rows, space):
    """Reduced echelon basis of the row span, pivots normalised to one."""
    field = space.field
    basis = []
    for r in rows:
        r = tuple(r)
        for b, piv in basis:
            c = r[piv]
            if c != field.zero:
                r = space.add(r, space.scale(field.sub(field.zero, c), b))
        piv = next((i for i, c in enumerate(r) if c != field.zero), None)
        if piv is None:
            continue
        r = space.scale(_inv(field, r[piv]), r)
        basis.append((r, piv))
    basis.sort(key=lambda t: t[1])
    # clear above the pivots so coordinates read off directly
    cleaned = []
    for i, (r, piv) in enumerate(basis):
        for (b, piv2) in basis[i + 1:]:
            c = r[piv2]
            if c != field.zero:
                r = space.add(r, space.scale(field.sub(field.zero, c), b))
        cleaned.append((r, piv))
    return cleaned


def _coordinates(v, basis, space):
    field = space.field
    coeffs = []
    r = tuple(v)
    for b, piv in basis:
        c = r[piv]
        coeffs.append(c)
        if c != field.zero:
            r = space.add(r, space.scale(field.sub(field.zero, c), b))
    if any(c != field.zero for c in r):
        raise NotLinear("vector %r escapes the span" % (v,))
    return tuple(coeffs)


def epi_mono_factorize_linear(f):
    """Quotient onto the image with its basis inclusion back in; checking
    the legs charges one step per entry of f to the source's budget."""
    basis = row_reduce(f.rows, f.target)
    r = len(basis)
    mid = FqVecSpace(f.source.q, r, name="im(%s)" % (f.name or "f"),
                     budget=f.source.budget)
    epi = LinearMap(f.source, mid,
                    [_coordinates(row, basis, f.target) for row in f.rows])
    mono = LinearMap(mid, f.target, [b for b, _ in basis])
    f.source.budget.spend(f.source.n * f.target.n)
    if not (epi.is_surjective() and mono.is_injective()):
        raise FactorizerContractViolation(
            "image factorisation of %r: legs outside their classes" % f)
    if epi.then(mono).rows != f.rows:
        raise FactorizerContractViolation(
            "image factorisation of %r: legs do not compose to it" % f)
    return Factorization(epi, mid, mono)


# ---------------------------------------------------------------------------
# the line spectrum

def line_count(q, n):
    return (q ** n - 1) // (q - 1)


def lines(V):
    """Canonical representatives: first nonzero coordinate scaled to one."""
    field = V.field
    reps = []
    for v in V.vectors():
        piv = next((i for i, c in enumerate(v) if c != field.zero), None)
        if piv is None:
            continue
        if v[piv] == field.one:
            reps.append(v)
    return reps


def simple_points(V):
    """Zero subobject below every line; nothing else comparable.

    The zero object is recorded as an ordinary bottom point even though
    it is not strictly initial in the abelian sense; that convention is
    deliberate and documented here.  The poset charges V's budget.
    """
    labels = ["0"]
    for v in lines(V):
        labels.append("[" + ",".join(V.field.names[c] for c in v) + "]")
    up = [(1 << len(labels)) - 1] + [1 << i for i in range(1, len(labels))]
    poset = Poset(up, V.budget)
    return Spectrum(poset, {"base": V.name},
                    [{"label": s} for s in labels], labels, "lines", {})
