"""Finite commutative rings with explicit Cayley tables.

Rings are unital and commutative throughout; the one-element zero ring is a
legal value everywhere and is never special-cased into an error.  Elements
are integers 0..n-1 indexing the carrier, with printable names kept
alongside for certificates and exports.
"""

import itertools
import math
from operator import getitem, itemgetter
from typing import NamedTuple

from .budget import ensure_budget
from .errors import InvalidSpec, NotARing
from .reader import RING, read


def _through(row):
    """The map that reads a sequence at the places ``row`` lists, in one C
    call: _through(A[s])(A[r]) is row r after row s, y -> r + (s + y)."""
    if len(row) == 1:
        (i,) = row
        return lambda seq: (seq[i],)
    if not row:
        return lambda seq: ()
    return itemgetter(*row)


class FinRing:
    def __init__(self, names, add, mul, zero, one, generators=(), name=""):
        self.names = tuple(str(s) for s in names)
        self.size = len(self.names)
        self.add = tuple(tuple(row) for row in add)
        self.mul = tuple(tuple(row) for row in mul)
        self.zero = zero
        self.one = one
        self.generators = tuple(generators)
        self.name = name or "ring%d" % self.size
        self._cache = {}
        self.additive_generators = self.validate_axioms()
        self.neg = tuple(row.index(zero) for row in self.add)

    # -- table plumbing ----------------------------------------------------
    def elements(self):
        return range(self.size)

    def a(self, x, y):
        return self.add[x][y]

    def m(self, x, y):
        return self.mul[x][y]

    def sub(self, x, y):
        return self.add[x][self.neg[y]]

    def is_zero_ring(self):
        return self.size == 1

    def validate_axioms(self):
        """Refuse tables that are not a commutative unital ring, naming a
        counterexample; O(n^2).

        S is zero plus a greedy generating set of (R, +), so |S| <= log2(n)
        + 1.  Each element's rows are checked once, along a spanning tree of
        (R, +) from zero, and the rows of S against each other.  Returns S.
        """
        n = self.size
        if n == 0:
            raise NotARing("empty carrier")
        A, M, names = self.add, self.mul, self.names
        carrier = set(range(n))
        for table, label in ((A, "add"), (M, "mul")):
            if len(table) != n or any(len(row) != n for row in table):
                raise NotARing("%s table is not %dx%d" % (label, n, n))
            if not carrier.issuperset(itertools.chain.from_iterable(table)):
                v = next(v for row in table for v in row if v not in carrier)
                raise NotARing("%s table entry %r out of range" % (label, v))
        zero, one = self.zero, self.one
        if not (0 <= zero < n) or not (0 <= one < n):
            raise NotARing("zero or one out of range")
        At, Mt = tuple(zip(*A)), tuple(zip(*M))
        for x in range(n):
            if A[x][zero] != x:
                raise NotARing("zero is not additively neutral at %s" % names[x])
            if M[x][one] != x:
                raise NotARing("one is not multiplicatively neutral at %s" % names[x])
            if zero not in A[x]:
                raise NotARing("no additive inverse for %s" % names[x])
            if A[x] == At[x] and M[x] == Mt[x]:
                continue
            for y in range(n):
                if A[x][y] != A[y][x]:
                    raise NotARing("addition not commutative at (%s, %s)"
                                   % (names[x], names[y]))
                if M[x][y] != M[y][x]:
                    raise NotARing("multiplication not commutative at (%s, %s)"
                                   % (names[x], names[y]))

        def first_miss(lhs, rhs):
            return next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)

        def breaks(law, x, y, z):
            return NotARing("%s at (%s, %s, %s)"
                            % (law, names[x], names[y], names[z]))

        # Addition.  L_x is row x, y -> x + y.  Each x first reached as r + s,
        # r reached before and s in S, has L_x = L_r L_s checked, so every
        # L_x lies in the monoid the L_s generate, and the L_s are checked to
        # commute, so that monoid is commutative.  It carries zero to all of
        # R, so each member is fixed by where it sends zero, and L_x L_y =
        # L_(x+y) as both send zero to x + y: that is associativity.  Each
        # member of S has its row checked to be a permutation as it joins, so
        # every row is one, and each new member at least doubles the group
        # reached.  after[s](row) is that row read at the places A[s] lists,
        # L_row L_s in one call; zero adds no edge, as r + zero = r.
        S, reached, tree, after = [zero], {zero}, [], {}
        for a in range(n):
            if a in reached:
                continue
            Aa = A[a]
            if len(set(Aa)) != n:
                # z + a = 0 and a + y = a + y' = v for y != y', while
                # (z + a) + y = y: z + v cannot be both y and y'
                v = next(v for v in Aa if Aa.count(v) > 1)
                y = Aa.index(v)
                z = Aa.index(zero)
                if A[z][v] == y:
                    y = Aa.index(v, y + 1)
                raise breaks("addition not associative", z, a, y)
            after[a] = _through(Aa)
            for s in S[1:]:
                lhs, rhs = after[s](Aa), after[a](A[s])
                if lhs != rhs:
                    # a + (s + z) != s + (a + z), so one of them is not
                    # (a + s) + z = (s + a) + z
                    z = first_miss(lhs, rhs)
                    if lhs[z] != A[A[a][s]][z]:
                        raise breaks("addition not associative", a, s, z)
                    raise breaks("addition not associative", s, a, z)
            S.append(a)
            steps = [(s, after[s]) for s in S[1:]]
            todo = list(reached)
            while todo:
                r = todo.pop()
                Ar = A[r]
                for s, after_s in steps:
                    x = Ar[s]
                    if x not in reached:
                        rhs = after_s(Ar)
                        if A[x] != rhs:
                            raise breaks("addition not associative", r, s,
                                         first_miss(A[x], rhs))
                        reached.add(x)
                        todo.append(x)
                        tree.append((x, r, s))
        # Distributivity.  Each row M[s], s in S, is additive against S, so
        # additive, by induction along the tree now that + is associative;
        # and M[x] = M[r] + M[s] pointwise on each tree edge x = r + s, so
        # every row is a sum of additive rows.  Row zero is zero by the first
        # edge, S[1] = zero + S[1], as zero was all that was reached then.
        for s in S[1:]:
            Ms = M[s]
            after_Ms = _through(Ms)
            for t in S[1:]:
                lhs = after[t](Ms)
                rhs = after_Ms(A[Ms[t]])
                if lhs != rhs:
                    raise breaks("distributivity fails", s, t,
                                 first_miss(lhs, rhs))
        # row y of picked[s] is the row of A at ys; + is commutative by now,
        # so picked[s][y][yr] = yr + ys
        picked = {s: _through(M[s])(A) for s in S[1:]}
        for x, r, s in tree:
            # row x holds y(r + s), the sum holds yr + ys
            rhs = tuple(map(getitem, picked[s], M[r]))
            if M[x] != rhs:
                raise breaks("distributivity fails", first_miss(M[x], rhs),
                             r, s)
        # a commutative biadditive product is associative when it is so on
        # additive generators, since (xy)z - x(yz) is additive in each place
        for x, y, z in itertools.product(S, repeat=3):
            if M[M[x][y]][z] != M[x][M[y][z]]:
                raise breaks("multiplication not associative", x, y, z)
        for g in self.generators:
            if not (0 <= g < n):
                raise NotARing("generator %r out of range" % (g,))
        return tuple(S)

    # -- derived element sets ----------------------------------------------
    def units(self):
        if "units" not in self._cache:
            self._cache["units"] = frozenset(
                x for x, row in enumerate(self.mul) if self.one in row)
        return self._cache["units"]

    def idempotents(self):
        if "idempotents" not in self._cache:
            self._cache["idempotents"] = tuple(
                x for x in self.elements() if self.mul[x][x] == x)
        return self._cache["idempotents"]

    def generation_sequence(self):
        """How every element is built from {0, 1} and the generators.

        Returns [(element, op)] in construction order where op is one of
        ("zero",), ("one",), ("gen", g), ("neg", a), ("add", a, b),
        ("mul", a, b) with a, b earlier in the order.  InvalidSpec when the
        generators do not generate.
        """
        if "genseq" in self._cache:
            return self._cache["genseq"]
        n, known = self.size, {}
        learn = known.setdefault
        learn(self.zero, ("zero",))
        learn(self.one, ("one",))
        for g in self.generators:
            learn(g, ("gen", g))
        # rounds over the pairs known so far, stopping once all n are known
        while len(known) < n:
            before = len(known)
            snapshot = list(known)
            for x in snapshot:
                learn(self.neg[x], ("neg", x))
                for y in snapshot:
                    learn(self.add[x][y], ("add", x, y))
                    learn(self.mul[x][y], ("mul", x, y))
                if len(known) == n:
                    break
            if len(known) == before:
                raise InvalidSpec("generators %r do not generate %s"
                                  % (list(self.generators), self.name))
        seq = tuple(known.items())
        self._cache["genseq"] = seq
        return seq

    def element_by_name(self, label):
        if label not in self.names:
            raise InvalidSpec("no element named %r in %s" % (label, self.name))
        return self.names.index(label)

    def parse_element(self, value):
        """An element given in an input file by its name or its index."""
        if isinstance(value, str):
            return self.element_by_name(value)
        if not 0 <= value < self.size:
            raise InvalidSpec("element index %d out of range for %s"
                              % (value, self.name))
        return value

    def __repr__(self):
        return "FinRing(%s, order %d)" % (self.name, self.size)


# ---------------------------------------------------------------------------
# constructors

def zmod(n, budget=None):
    if n < 1:
        raise InvalidSpec("zmod modulus must be >= 1")
    ensure_budget(budget).spend(n * n)
    names = [str(i) for i in range(n)]
    add = _cyclic_rows(n)
    # row i holds j + (i - 1)j: row j of add read at (i - 1)j
    mul = [(0,) * n]
    for _ in range(1, n):
        mul.append(tuple(map(getitem, add, mul[-1])))
    return FinRing(names, add, mul, 0, 1 % n, (), name="Z/%d" % n)


def _cyclic_rows(n):
    """The addition table of Z/n: row i is a slice of 0..n-1 run twice."""
    twice = tuple(range(n)) * 2
    return [twice[i:i + n] for i in range(n)]


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(num, den, p):
    num = list(num)
    den = _poly_trim(tuple(den))
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(0, len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coeff = (num[shift + len(den) - 1] * inv_lead) % p
        quot[shift] = coeff
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - coeff * d) % p
    return tuple(quot), _poly_trim(tuple(num))


def _is_irreducible(poly, p):
    # poly is monic of degree k >= 1, little-endian including leading 1
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = tuple(tail) + (1,)
            _, rem = _poly_divmod(poly, den, p)
            if not rem:
                return False
    return True


def least_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p,
    ordered by the coefficient tuple (a_{k-1}, ..., a_0)."""
    for high in itertools.product(range(p), repeat=k):
        poly = tuple(reversed(high)) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise InvalidSpec("no irreducible polynomial found (p=%d, k=%d)" % (p, k))


def _poly_name(digits):
    terms = []
    for i in range(len(digits) - 1, -1, -1):
        c = digits[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else "%dx" % c)
        else:
            terms.append("x^%d" % i if c == 1 else "%dx^%d" % (c, i))
    return "+".join(terms) if terms else "0"


def gf(p, k=1, budget=None):
    if k < 1:
        raise InvalidSpec("gf degree must be >= 1")
    budget = ensure_budget(budget)
    budget.spend(p ** (2 * budget.cap(k)))
    n = p ** k
    if p < 2 or smallest_prime_factor(p) != p:
        raise InvalidSpec("gf characteristic must be prime, got %r" % (p,))
    modpoly = least_irreducible(p, k)
    # element b = b0 + p*r stands for the polynomial b0 + x*r; + adds
    # coefficients, so the table is that of (Z/p)^k, in either digit order
    add = _product_table([_cyclic_rows(p)] * k)
    top = n // p
    scal = [[0] * n]
    for c in range(1, p):
        scal.append([add[v][a] for a, v in enumerate(scal[-1])])
    # x^k reduced by the modulus, then x*c by one shift and one reduction
    xk = sum((-m) % p * p ** i for i, m in enumerate(modpoly[:k]))
    xmul = [add[p * (c % top)][scal[c // top][xk]] for c in range(n)]

    def horner_row(a):
        # ab for b = b0 + x*r is b0 a + x(ra), ra earlier in the row
        sa = [scal[c][a] for c in range(p)]
        row = [0]
        for b in range(1, n):
            row.append(add[sa[b % p]][xmul[row[b // p]]])
        return row

    # the powers of the first element of order n - 1, and their logs
    for g in range(1, n):
        row = horner_row(g)
        exp = [1]
        for _ in range(n - 2):
            exp.append(row[exp[-1]])
        if len(set(exp)) == n - 1:
            break
    log = [2 * (n - 1)] * n
    for i, v in enumerate(exp):
        log[v] = i
    # ab = exp[log a + log b]: row a is the exp table, run twice and padded
    # with zeros for log 0 = 2(n - 1) to land in, from log a on, read at
    # the logs
    padded = tuple(exp) * 2 + (0,) * (n - 1)
    at_logs = _through(log)
    mul = [(0,) * n] + [at_logs(padded[log[a]:]) for a in range(1, n)]
    names = [_poly_name([i // p ** j % p for j in range(k)]) for i in range(n)]
    gens = (p,) if k > 1 else ()
    return FinRing(names, add, mul, 0, 1, gens, name="F_%d" % n)


def product_ring(factors, budget=None):
    """Tuples in lexicographic order: (c_1, ..., c_k) has the mixed-radix
    index (...(c_1 n_2 + c_2) n_3 + ...) n_k + c_k."""
    if not factors:
        raise InvalidSpec("empty product")
    n = math.prod(f.size for f in factors)
    ensure_budget(budget).spend(n * n)

    def index(slots):
        i = 0
        for f, c in zip(factors, slots):
            i = i * f.size + c
        return i

    add = _product_table([f.add for f in factors])
    mul = _product_table([f.mul for f in factors])
    names = ["(%s)" % ",".join(combo)
             for combo in itertools.product(*[f.names for f in factors])]
    zero = index([f.zero for f in factors])
    one = index([f.one for f in factors])
    gens = []
    for i, f in enumerate(factors):
        gens.append(index([g.one if j == i else g.zero
                           for j, g in enumerate(factors)]))
        for g in f.generators:
            gens.append(index([g if j == i else h.zero
                               for j, h in enumerate(factors)]))
    gens = tuple(dict.fromkeys(gens))
    return FinRing(names, add, mul, zero, one, gens,
                   name="x".join(f.name for f in factors))


def _product_table(tables):
    """The table of a product of two or more factors, each as the product
    of its two halves: cell (a m + c, b m + d), with T the table of the
    first half and F that of the m-element second half, is T[a][b] m +
    F[c][d].  So row (a, c) is blocks[c][t] for t in row a of T, with
    blocks[c][t] row c of F shifted by t m."""
    if len(tables) == 1:
        return tables[0]
    half = len(tables) // 2
    T, F = _product_table(tables[:half]), _product_table(tables[half:])
    m = len(F)
    shifts = [range(t * m, t * m + m) for t in range(len(T))]
    blocks = [list(map(_through(Fc), shifts)) for Fc in F]
    return [tuple(itertools.chain.from_iterable(through_a(bc)))
            for through_a in map(_through, T) for bc in blocks]


def table_ring(spec, budget):
    names = spec["elements"]
    budget.spend(len(names) ** 2)
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise InvalidSpec("duplicate element names")

    def resolve(v, where):
        i = index.get(v, -1) if isinstance(v, str) else v
        if not 0 <= i < len(names):
            raise InvalidSpec("unknown element %r in %s" % (v, where))
        return i

    add = [[resolve(v, "add") for v in row] for row in spec["add"]]
    mul = [[resolve(v, "mul") for v in row] for row in spec["mul"]]
    one = resolve(spec["one"], "one")
    if "zero" in spec:
        zero = resolve(spec["zero"], "zero")
    else:
        # a row of the wrong length is no zero, and the shape check names it
        ident = list(range(len(names)))
        zeros = [z for z, row in enumerate(add) if row == ident]
        if len(zeros) != 1:
            raise NotARing("could not locate a unique additive zero")
        zero = zeros[0]
    gens = tuple(resolve(v, "generators") for v in spec.get("generators", []))
    ring = FinRing(names, add, mul, zero, one, gens,
                   name=spec.get("name", "table-ring"))
    ring.generation_sequence()
    return ring


def build_ring(spec, budget=None):
    """Construct a ring from a plain dict: zmod, gf, product, quotient or table.

    Constructors charge ``budget`` for their tables before allocating them.
    """
    read(spec, RING)
    return ring_from_spec(spec, ensure_budget(budget))


def ring_from_spec(spec, budget):
    """The ring of a spec that ``read`` has already checked against RING."""
    kind = spec["kind"]
    if kind == "zmod":
        return zmod(spec["n"], budget)
    if kind == "gf":
        return gf(spec["p"], spec.get("k", 1), budget)
    if kind == "product":
        return product_ring(
            [ring_from_spec(s, budget) for s in spec["factors"]], budget)
    if kind == "quotient":
        base = ring_from_spec(spec["base"], budget)
        gens = [base.parse_element(g) for g in spec["ideal_gens"]]
        return quotient_ring(base, ideal_generated(base, gens))[0]
    return table_ring(spec, budget)


# ---------------------------------------------------------------------------
# homomorphisms

class RingHom(NamedTuple):
    source: FinRing
    target: FinRing
    mapping: tuple

    def __call__(self, x):
        return self.mapping[x]

    def validate(self):
        """Refuse a mapping that is not a unital hom, naming a counterexample.

        f(x+s) = f(x)+f(s) and f(xs) = f(x)f(s) are tested for each x and
        each s in the source's additive generating set S only, n |S| steps:
        zero in S gives f(0) = 0, every y is a sum of members of S, so f is
        additive, and f(xy) follows as the product is additive in y."""
        A, B, f = self.source, self.target, self.mapping
        if len(f) != A.size or any(not (0 <= v < B.size) for v in f):
            raise InvalidSpec("hom mapping has wrong shape")
        if f[A.one] != B.one:
            raise InvalidSpec("hom does not preserve 1")
        at_f = _through(f)
        for s in A.additive_generators:
            # row s of a commutative table is its column s
            for At, Bt, law in ((A.add, B.add, "addition"),
                                (A.mul, B.mul, "multiplication")):
                lhs = _through(At[s])(f)
                rhs = at_f(Bt[f[s]])
                if lhs != rhs:
                    x = next(x for x, (u, v) in enumerate(zip(lhs, rhs))
                             if u != v)
                    raise InvalidSpec("hom breaks %s at (%s, %s)"
                                      % (law, A.names[x], A.names[s]))
        return self

    def kernel_elements(self):
        return frozenset(x for x in self.source.elements()
                         if self.mapping[x] == self.target.zero)

    def is_injective(self):
        return len(set(self.mapping)) == self.source.size

    def is_surjective(self):
        return len(set(self.mapping)) == self.target.size

    def is_bijective(self):
        return self.is_injective() and self.is_surjective()

    def then(self, other):
        """other after self."""
        if other.source is not self.target:
            raise InvalidSpec("homs are not composable")
        return RingHom(self.source, other.target,
                       tuple(other.mapping[v] for v in self.mapping))

    def __repr__(self):
        return "RingHom(%s -> %s)" % (self.source.name, self.target.name)


def identity_hom(A):
    return RingHom(A, A, tuple(range(A.size)))


def inverse_hom(h):
    if not h.is_bijective():
        raise InvalidSpec("%r is not a bijection" % (h,))
    inv = [0] * h.target.size
    for a, b in enumerate(h.mapping):
        inv[b] = a
    return RingHom(h.target, h.source, tuple(inv))


def hom_from_images(A, B, images):
    """Extend generator images to a hom, or return None if no hom does that.

    ``images`` maps each generator of A to an element of B; the extension is
    forced by the generation sequence and then checked by RingHom.validate.
    """
    mapping = [None] * A.size
    for e, op in A.generation_sequence():
        tag = op[0]
        if tag == "zero":
            mapping[e] = B.zero
        elif tag == "one":
            mapping[e] = B.one
        elif tag == "gen":
            v = images[op[1]]
            if mapping[e] is not None and mapping[e] != v:
                return None
            mapping[e] = v
        elif tag == "neg":
            mapping[e] = B.neg[mapping[op[1]]]
        elif tag == "add":
            mapping[e] = B.add[mapping[op[1]]][mapping[op[2]]]
        else:
            mapping[e] = B.mul[mapping[op[1]]][mapping[op[2]]]
    try:
        return RingHom(A, B, tuple(mapping)).validate()
    except InvalidSpec:
        return None


def enumerate_homs(A, B, budget):
    """All unital homs A -> B, sorted by mapping tuple."""
    gens = list(dict.fromkeys(A.generators))
    out = []
    for choice in itertools.product(range(B.size), repeat=len(gens)):
        budget.spend(A.size * len(A.additive_generators))
        hom = hom_from_images(A, B, dict(zip(gens, choice)))
        if hom is not None:
            out.append(hom)
    uniq = {h.mapping: h for h in out}
    return [uniq[m] for m in sorted(uniq)]


# ---------------------------------------------------------------------------
# ideals

class Ideal(NamedTuple):
    ring: FinRing
    elements: frozenset

    def validate(self):
        A, I = self.ring, self.elements
        if A.zero not in I:
            raise InvalidSpec("ideal misses 0")
        for x in I:
            for y in I:
                if A.add[x][y] not in I:
                    raise InvalidSpec("ideal not closed under addition")
            for r in A.elements():
                if A.mul[r][x] not in I:
                    raise InvalidSpec("ideal not absorbing")
        return self

    def is_proper(self):
        return self.ring.one not in self.elements

    def is_zero(self):
        return self.elements == frozenset([self.ring.zero])

    def sorted_elements(self):
        return sorted(self.elements)

    def label(self):
        return "{%s}" % ",".join(self.ring.names[x] for x in self.sorted_elements())

    def __le__(self, other):
        return self.elements <= other.elements

    def __repr__(self):
        return "Ideal(%s, %s)" % (self.ring.name, self.label())


def _ideal_sum(A, I, P):
    """I + P for additive subgroups I and P: the set of pairwise sums."""
    return frozenset(A.add[i][x] for i in I for x in P)


def ideal_generated(A, gens):
    """Smallest ideal containing gens: the sum of the principal ideals Rg,
    each row g of the commutative multiplication table."""
    I = frozenset([A.zero])
    for g in gens:
        P = frozenset(A.mul[g])
        if not P <= I:
            I = _ideal_sum(A, I, P)
    return Ideal(A, I)


def all_ideals(A, budget):
    """Every ideal, sorted by size and then elements.

    Every ideal of a finite ring is a finite sum of principal ideals Ra, so
    all of them grow from the zero ideal by I -> I + Ra.
    """
    # Ra is row a of the commutative multiplication table
    principal = list(dict.fromkeys(frozenset(row) for row in A.mul))
    zero = frozenset([A.zero])
    found = {zero}
    frontier = [zero]
    while frontier:
        I = frontier.pop()
        for P in principal:
            if P <= I:
                continue
            budget.spend(len(I) * len(P))
            J = _ideal_sum(A, I, P)
            if J not in found:
                found.add(J)
                frontier.append(J)
    return [Ideal(A, S)
            for S in sorted(found, key=lambda s: (len(s), sorted(s)))]


def nilradical(A):
    """The nilpotents: x with x^(2^b) = 0 once 2^b > |A|, as a nilpotent x
    has x^k = 0 for some k <= |A| (its nonzero powers are distinct)."""
    squares = tuple(A.mul[x][x] for x in A.elements())
    # power[x] = x^(2^t) read at x^2 is x^(2^(t + 1))
    square, power = _through(squares), squares
    for _ in range(A.size.bit_length() - 1):
        power = square(power)
    return Ideal(A, frozenset(x for x, v in enumerate(power) if v == A.zero))


def is_prime_ideal(I):
    A = I.ring
    if not I.is_proper():
        return False
    for x in A.elements():
        if x in I.elements:
            continue
        for y in A.elements():
            if y in I.elements:
                continue
            if A.mul[x][y] in I.elements:
                return False
    return True


def quotient_ring(A, I):
    """Quotient by an ideal; returns (ring, projection hom).

    I must be an ideal of A, which is not re-checked here: the library's
    constructors build ideals as such, and an ideal from elsewhere is
    checked with Ideal.validate first.  The zero ideal returns (A, identity)
    so factorizations of injective maps stay literal.  Cosets are named
    after their least representative.
    """
    if I.is_zero():
        return A, identity_hom(A)
    coset_of = [None] * A.size
    reps = []
    for x in A.elements():
        if coset_of[x] is not None:
            continue
        members = sorted(A.add[x][i] for i in I.elements)
        rep = members[0]
        idx = len(reps)
        reps.append(rep)
        for m in members:
            coset_of[m] = idx
    # row i of a table is the row of A at reps[i], read at reps
    at_reps = _through(reps)
    add = [_through(at_reps(row))(coset_of) for row in at_reps(A.add)]
    mul = [_through(at_reps(row))(coset_of) for row in at_reps(A.mul)]
    names = [A.names[r] for r in reps]
    gens = tuple(dict.fromkeys(coset_of[g] for g in A.generators))
    Q = FinRing(names, add, mul, coset_of[A.zero], coset_of[A.one], gens,
                name="%s/%s" % (A.name, I.label()))
    return Q, RingHom(A, Q, tuple(coset_of))


def primitive_idempotents(A):
    """The complete orthogonal set of primitive idempotents; [] for the zero ring."""
    nonzero = [e for e in A.idempotents() if e != A.zero]
    prims = []
    for e in nonzero:
        if not any(f != e and A.mul[f][e] == f for f in nonzero):
            prims.append(e)
    return sorted(prims)


def local_factors(A):
    """(e, P, m) for each local factor eA of A, one per primitive
    idempotent e, sorted by the elements of P; [] for the zero ring.  m is
    the maximal ideal of eA, its nilpotents, and P = (1 - e)A + m the one
    prime that e lies outside: A is eA x (1 - e)A, the primes of a product
    are those of one factor times the other, and the local ring eA has the
    one prime m.  So A/P is eA/m, the residue field of eA."""
    nil = nilradical(A).elements
    out = []
    for e in primitive_idempotents(A):
        m = nil.intersection(A.mul[e])
        P = _ideal_sum(A, frozenset(A.mul[A.sub(A.one, e)]), m)
        out.append((e, Ideal(A, P), m))
    return sorted(out, key=lambda f: f[1].sorted_elements())


def prime_ideals(A):
    """The primes of A, one per local factor, sorted by their elements."""
    return [P for _e, P, _m in local_factors(A)]


def prime_ideals_bruteforce(A, budget):
    """Oracle: scan every ideal and keep the ones with domain quotient."""
    return [I for I in all_ideals(A, budget) if is_prime_ideal(I)]


def annihilator_kernel(A, S):
    """Elements killed by some member of the multiplicative closure of S.

    That is Ann(u^N), u the product of S and N = 2^bit_length(n) > n.  Each
    member w of the closure divides u^k once k passes its exponents, and
    Ann(w) <= Ann(wv), so the kernel is the union of the chain Ann(u) <=
    Ann(u^2) <= ...  The chain is constant once two terms agree (x u^(k+2)
    = 0 puts xu in Ann(u^(k+1)) = Ann(u^k)), so from some k <= n on, as
    each step before that adds an element.  u^N takes bit_length(n)
    squarings, and the kernel is one read of row u^N.
    """
    u = A.one
    for s in S:
        u = A.mul[u][s]
    for _ in range(A.size.bit_length()):
        u = A.mul[u][u]
    return Ideal(A, frozenset(a for a, v in enumerate(A.mul[u])
                              if v == A.zero))


def localize(A, S):
    """Invert S: returns (ring, canonical hom), the quotient by the
    annihilator kernel.  Localizing at a nilpotent yields the zero ring."""
    return quotient_ring(A, annihilator_kernel(A, S))


def factors_through_surjection(h, q):
    """For surjective q: A -> Q and h: A -> B, the induced Q -> B if it
    exists (iff ker q <= ker h), else None."""
    if h.source is not q.source:
        raise InvalidSpec("homs must share their source")
    Q, B = q.target, h.target
    mapping = [None] * Q.size
    for x in h.source.elements():
        qx = q(x)
        if mapping[qx] is None:
            mapping[qx] = h(x)
        elif mapping[qx] != h(x):
            return None
    return RingHom(Q, B, tuple(mapping))


def field_catalogue(bound, budget):
    """All finite fields of order <= bound, smallest first."""
    out = []
    for q in range(2, bound + 1):
        pk = prime_power(q, budget)
        if pk:
            out.append(gf(*pk, budget=budget))
    return out


def prime_power(n, budget):
    """(p, k) with n == p**k and k >= 1, or None; the up to isqrt(n)
    steps of trial division are charged first."""
    if n < 2:
        return None
    budget.spend(math.isqrt(n))
    p = smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def smallest_prime_factor(n):
    """The least prime dividing n >= 2, by trial division up to isqrt(n)."""
    if n < 2:
        raise InvalidSpec("no prime factor of %r" % (n,))
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n
