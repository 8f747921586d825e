"""Answers the benchmark derives on its own, never from factopo.

Every verdict a workload checks comes from here: closed forms over the
benchmark's own description of each input (local factors of a ring, vertex
subsets of a simplicial set, the tables of a category it wrote itself) or
from the hand-written tables at the end.
"""

import itertools
import math


# ---------------------------------------------------------------------------
# finite commutative rings, described by their factors as written to file

def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


class RingModel:
    """A ring given as a product of ``zmod`` and ``gf`` parts.

    ``parts`` lists ("zmod", m) or ("gf", p, k) in file order.  Elements are
    indexed row-major over the parts (last part fastest), each ``gf`` element
    by its base-p digits.  Each part splits into local factors: Z/m into one
    Z/p^e per prime power of m, F_q into itself.
    """

    def __init__(self, parts):
        self.parts = parts
        self.part_sizes = [p[1] if p[0] == "zmod" else p[1] ** p[2]
                           for p in parts]
        self.size = math.prod(self.part_sizes)
        # (part index, prime, local size, residue field size)
        self.locals = []
        for j, part in enumerate(parts):
            if part[0] == "zmod":
                for p, e in prime_factors(part[1]):
                    self.locals.append((j, p, p ** e, p))
            else:
                q = part[1] ** part[2]
                self.locals.append((j, part[1], q, q))

    def spec(self):
        def one(part):
            if part[0] == "zmod":
                return {"kind": "zmod", "n": part[1]}
            return {"kind": "gf", "p": part[1], "k": part[2]}
        if len(self.parts) == 1:
            return one(self.parts[0])
        return {"kind": "product", "factors": [one(p) for p in self.parts]}

    @property
    def n_primes(self):
        return len(self.locals)

    def components(self, x):
        out = []
        for s in reversed(self.part_sizes):
            out.append(x % s)
            x //= s
        return out[::-1]

    def unit_at(self, x):
        """Per local factor: is the component of x a unit there?"""
        comps = self.components(x)
        flags = []
        for j, p, _size, _res in self.locals:
            c = comps[j]
            flags.append(c % p != 0 if self.parts[j][0] == "zmod" else c != 0)
        return flags

    def local_sizes(self):
        return sorted(size for _j, _p, size, _r in self.locals)

    def residue_sizes(self):
        return sorted(res for _j, _p, _s, res in self.locals)

    def is_field(self):
        return self.n_primes == 1 and self.locals[0][2] == self.locals[0][3]

    def classify(self):
        field = self.is_field()
        local = self.n_primes == 1
        # a finite ring is local iff every element is a unit or nilpotent,
        # and a finite domain is a field, hence integrally closed
        return {"is_field": field, "is_fat_field": local, "is_local": local,
                "is_domain": field, "is_integrally_closed_domain": field}

    def zar_covers(self, elements):
        flags = [self.unit_at(x) for x in elements]
        return all(any(f[i] for f in flags) for i in range(self.n_primes))

    def dom_covers(self, ideals):
        # the intersection lies in the nilradical iff every prime contains
        # one of the ideals, and an ideal lies in the prime at a local
        # factor iff all its generators are nonunits there
        return all(any(all(not self.unit_at(g)[i] for g in gens)
                       for gens in ideals)
                   for i in range(self.n_primes))


def subset_products(values):
    out = []
    for r in range(len(values) + 1):
        for combo in itertools.combinations(values, r):
            out.append(math.prod(combo))
    return sorted(out)


def spectrum_check(model, topology, report):
    elems = report["result"]["elements"]
    want = model.local_sizes() if topology == "zar" else model.residue_sizes()
    got = sorted(e["stalk_size"] for e in elems)
    if got != want:
        return "stalk sizes %s, want %s" % (got, want)
    if len(report["result"]["order"]) != len(elems):
        return "specialization order is not discrete"
    return None


def lattice_check(model, topology, report):
    elems = report["result"]["elements"]
    if len(elems) != 2 ** model.n_primes:
        return "%d lattice elements, want %d" % (len(elems),
                                                 2 ** model.n_primes)
    base = model.local_sizes() if topology == "zar" else model.residue_sizes()
    got = sorted(e["size"] for e in elems)
    if got != subset_products(base):
        return "element sizes %s, want %s" % (got, subset_products(base))
    return None


# ---------------------------------------------------------------------------
# subcomplexes of a standard simplex, given by their facets

def closure(facets):
    cells = set()
    for S in facets:
        for r in range(1, len(S) + 1):
            cells.update(itertools.combinations(sorted(S), r))
    return cells


def stock_facets(kind, n, k=None):
    full = tuple(range(n + 1))
    if kind == "delta":
        return [full]
    faces = list(itertools.combinations(full, n))
    if kind == "boundary":
        return faces
    return [S for S in faces if k in S]


def delta_nis_points(facets):
    """Cells of the spectrum and its order pairs (face containment)."""
    cells = closure(facets)
    pairs = sum(1 for a in cells for b in cells if set(a) <= set(b))
    return len(cells), pairs


def face_family_covers(facets, family, mode):
    cells = closure(facets)
    if mode == "raw":
        return {v for S in family for v in S} == {c[0] for c in cells
                                                 if len(c) == 1}
    # a simplex lifts through a face inclusion iff its carrier cell lies in
    # that face, so every cell must sit inside some member
    return all(any(set(c) <= set(S) for S in family) for c in cells)


# ---------------------------------------------------------------------------
# finite categories, as tables the benchmark writes itself

class CatTable:
    """Objects, morphisms id -> (src, tgt), identities, and compose
    (g, f) -> g after f."""

    def __init__(self, name, objects, morphisms, identities, compose):
        self.name = name
        self.objects = objects
        self.morphisms = morphisms
        self.identities = identities
        self.compose = compose

    def hom(self, x, y):
        return [m for m, st in self.morphisms.items() if st == (x, y)]

    def to_file(self):
        return {
            "name": self.name,
            "objects": self.objects,
            "morphisms": [{"id": m, "src": s, "tgt": t}
                          for m, (s, t) in self.morphisms.items()],
            "identities": self.identities,
            "compose": [[g, f, h] for (g, f), h in self.compose.items()],
        }


def poset_table(name, elements, le_pairs):
    le = {(x, x) for x in elements} | set(le_pairs)
    while True:
        more = {(a, d) for (a, b) in le for (c, d) in le if b == c} - le
        if not more:
            break
        le |= more
    mid = {(a, b): "%s<=%s" % (a, b) for (a, b) in le}
    morphisms = {mid[p]: p for p in sorted(le)}
    identities = {x: mid[(x, x)] for x in elements}
    compose = {(mid[(b, c)], mid[(a, b)]): mid[(a, c)]
               for (a, b) in le for (b2, c) in le if b == b2}
    return CatTable(name, list(elements), morphisms, identities, compose)


def bz2_table():
    return CatTable("BZ2", ["*"], {"e": ("*", "*"), "t": ("*", "*")},
                    {"*": "e"},
                    {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t",
                     ("t", "t"): "e"})


def delta_fragment_table(n_max):
    """Finite ordinals [0]..[n_max] with all monotone maps."""
    objects = [str(a) for a in range(n_max + 1)]
    morphisms = {}
    values = {}
    for a in range(n_max + 1):
        for b in range(n_max + 1):
            for vals in itertools.combinations_with_replacement(
                    range(b + 1), a + 1):
                m = "d%d:%s" % (b, "".join(map(str, vals)))
                morphisms[m] = (str(a), str(b))
                values[m] = (b, vals)
    by_values = {v: m for m, v in values.items()}
    identities = {str(a): by_values[(a, tuple(range(a + 1)))]
                  for a in range(n_max + 1)}
    compose = {}
    for g, (bs, _c) in morphisms.items():
        for f, (_a, bt) in morphisms.items():
            if bt == bs:
                c, gv = values[g]
                _b, fv = values[f]
                compose[(g, f)] = by_values[(c, tuple(gv[v] for v in fv))]
    return CatTable("Delta<=%d" % n_max, objects, morphisms, identities,
                    compose)


def ei2_table():
    """Two objects, a Z/2 of automorphisms on the first, two maps across."""
    morphisms = {"ida": ("a", "a"), "t": ("a", "a"), "f": ("a", "b"),
                 "g": ("a", "b"), "idb": ("b", "b")}
    identities = {"a": "ida", "b": "idb"}
    compose = {}
    for m, (s, t) in morphisms.items():
        compose[(m, identities[s])] = m
        compose[(identities[t], m)] = m
    compose.update({("t", "t"): "ida", ("f", "t"): "g", ("g", "t"): "f"})
    return CatTable("EI2", ["a", "b"], morphisms, identities, compose)


def catalogue_tables():
    """Poset and group categories whose functor counts have closed forms."""
    return [
        poset_table("[0]", ["0"], []),
        poset_table("[1]", ["0", "1"], [("0", "1")]),
        poset_table("[2]", ["0", "1", "2"], [("0", "1"), ("1", "2")]),
        poset_table("span", ["a", "b", "c"], [("c", "a"), ("c", "b")]),
        poset_table("cospan", ["a", "b", "c"], [("a", "c"), ("b", "c")]),
        poset_table("square", ["00", "01", "10", "11"],
                    [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")]),
        bz2_table(),
    ]


def is_orthogonal(cat, u, f):
    """Unique lifting of u against f, by checking every commuting square."""
    P, N = cat.morphisms[u]
    U, X = cat.morphisms[f]
    for top in cat.hom(P, U):
        for bottom in cat.hom(N, X):
            if cat.compose[(f, top)] != cat.compose[(bottom, u)]:
                continue
            lifts = [d for d in cat.hom(N, U)
                     if cat.compose[(d, u)] == top
                     and cat.compose[(f, d)] == bottom]
            if len(lifts) != 1:
                return False
    return True


def monotone_map_count(P, Q):
    le_p = set(P.morphisms.values())
    le_q = set(Q.morphisms.values())
    count = 0
    for image in itertools.product(Q.objects, repeat=len(P.objects)):
        f = dict(zip(P.objects, image))
        if all((f[a], f[b]) in le_q for (a, b) in le_p):
            count += 1
    return count


def functor_count(C, D):
    """Closed forms for the catalogue: posets and the group Z/2.

    Poset to poset: monotone maps.  A poset with a least or greatest
    element into BZ2: 2^(|P|-1) cocycles.  BZ2 into a poset: one per object.
    BZ2 into itself: the two endomorphisms of Z/2.
    """
    if C.name == "BZ2":
        return 2 if D.name == "BZ2" else len(D.objects)
    if D.name == "BZ2":
        return 2 ** (len(C.objects) - 1)
    return monotone_map_count(C, D)


def comprehensive_middle_objects(cat, shape, x=None):
    """Objects of the elements category in the right comprehensive
    factorisation.

    For F = C -> [0], d/F is C itself, one component (every catalogue
    category is connected).  For the identity, d/C has an initial object.
    For the pick of x, d/F is discrete on hom(d, x).
    """
    if shape == "terminal":
        return 1
    if shape == "identity":
        return len(cat.objects)
    return sum(len(cat.hom(d, x)) for d in cat.objects)


# ---------------------------------------------------------------------------
# hand-written tables

# functors Delta<=2 -> Delta<=2, counted once by hand-run brute force over
# delta_fragment_table(2); too slow to recount inside every run
DELTA2_ENDOFUNCTORS = 14

# terminal, two chains, span, cospan, square, BZ2 and EI2
CATEGORY_CATALOGUE_SIZE = 8

# ok/fail rows of each `verify --suite`, read off the suite definitions:
# axioms one per system (3); ring-oracles four per catalogue ring plus
# three classifications (14 * 4 + 3); duality one per catalogue ring plus
# two extras (14 + 2); ez, catfib and toposx list their checks literally
SUITE_CHECKS = {"axioms": 3, "ring-oracles": 59, "duality": 16, "ez": 8,
                "catfib": 4, "toposx": 4}


def line_count(q, n):
    return (q ** n - 1) // (q - 1)
