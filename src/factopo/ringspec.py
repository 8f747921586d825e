"""Spectrum-level views of a finite ring.

Two finite lattices stand in for the small sites: localizations cut out by
idempotents on one side, reduced quotients on the other.  Their opposed
orders, the discrete point poset, and the stalk at each point are all the
spectrum amounts to at this scale, so that is what gets built and checked.
"""

import itertools
import math

from .budget import ensure_budget
from .errors import InvalidSpec, NotALattice, NotAPrime
from .finring import (Ideal, local_factors, localize, prime_ideals,
                      quotient_ring, smallest_prime_factor)
from .posets import Poset, Spectrum
from .ringsys import TOPOLOGIES


def recognize_ring(types):
    """A name for the iso class of the ring whose local factors have the
    listed types, each (rank, order, q) as ``_local_types`` gives it.

    A finite ring is the product of its local factors eR, one per primitive
    idempotent e, uniquely up to isomorphism.  The factors Z/p^k merge into
    the invariant factors of their product, Z/d_1 x Z/d_2 x ... with each
    d_i dividing the next, by the Chinese remainder theorem; any other
    field is F_q, and any other local factor is L_m(F_q), after its order
    m and its residue field.  The names are joined with x, smallest order
    first, and Z before F before L on ties; no factor at all is the zero
    ring, 0.
    """
    powers, parts = {}, []
    for rank, order, q in types:
        if rank == 0:
            powers.setdefault(q, []).append(order)
        else:
            parts.append((order, rank, "F_%d" % q if rank == 1 else
                          "L_%d(F_%d)" % (order, q)))
    # the i-th invariant factor takes the i-th largest power of each prime
    for column in itertools.zip_longest(
            *(sorted(orders, reverse=True) for orders in powers.values()),
            fillvalue=1):
        parts.append((math.prod(column), 0, "Z/%d" % math.prod(column)))
    return "x".join(name for _order, _rank, name in sorted(parts)) or "0"


def _local_types(A, budget):
    """(e, P, factor, field) for each local factor (e, P, m) of A, in prime
    order: the types (rank, order, q) of eA and of its residue field A/P =
    F_q, rank 0 when the unit generates the ring additively (Z/order), 1
    for a field, else 2; |A| steps a factor."""
    out = []
    for e, P, m in local_factors(A):
        budget.spend(A.size)
        q = A.size // len(P.elements)
        order = q * len(m)
        additive, x = 1, e
        while x != A.zero:
            x = A.add[x][e]
            additive += 1
        rank = 0 if additive == order else 1 if len(m) == 1 else 2
        field = (0 if smallest_prime_factor(q) == q else 1, q, q)
        out.append((e, P, (rank, order, q), field))
    return out


# ---------------------------------------------------------------------------
# lattices

def check_lattice(P, meet, join):
    """NotALattice, naming the pair and the law, unless meet[x][y] and
    join[x][y] are the greatest lower and least upper bounds in P of each
    pair of its elements 0..n-1, and the lattice is distributive: n^2 tests,
    which the caller charges before it builds the tables.

    A cell is the glb when its down-set mask is the intersection of the
    pair's: it is then a lower bound above every lower bound.  Dually for
    the lub, and glb and lub obey every lattice law in any poset.  That
    leaves distributivity, by Birkhoff's representation (Davey and
    Priestley, Introduction to Lattices and Order, 2nd ed., ch. 5): with J
    the join-irreducibles and jm[x] the mask of J below x, the lattice is
    distributive iff jm[x v y] = jm[x] | jm[y] for every pair.  In a
    distributive lattice a j in J below x v y equals (j ^ x) v (j ^ y), so
    it is below x or below y.  Conversely x -> jm[x] is one to one (x is
    the join of jm[x]) and keeps meets, so the condition embeds the lattice
    in a power set, which is distributive.
    """
    n = P.size
    down, up = P.down, P.up
    # x is join-irreducible iff it has exactly one lower cover c, that is
    # iff the elements strictly below x are the down-set of c
    principal = set(down)
    irreducible = sum(1 << x for x, d in enumerate(down)
                      if d ^ 1 << x in principal)
    jm = [d & irreducible for d in down]
    for x in range(n):
        for y in range(n):
            m, j = meet[x][y], join[x][y]
            if down[m] != down[x] & down[y]:
                raise NotALattice("the meet of %d and %d is %d, not their "
                                  "greatest lower bound" % (x, y, m))
            if up[j] != up[x] & up[y]:
                raise NotALattice("the join of %d and %d is %d, not their "
                                  "least upper bound" % (x, y, j))
            if jm[j] != jm[x] | jm[y]:
                raise NotALattice("not distributive: a join-irreducible "
                                  "below the join of %d and %d is below "
                                  "neither" % (x, y))


def _lattice(kind, A, elements, budget):
    """The checked lattice of ``kind`` on ``elements``, each (label, mask,
    types) in report order: the mask is a set of primes of A, bit i for the
    i-th, and the types name the element's ring.  The 2^k masks of k primes
    form a Boolean lattice (Davey and Priestley, ch. 5), ordered by
    inclusion, with the intersection as meet and the union as join."""
    n = len(elements)
    # n^2 steps for the meet and join tables and n^2 for check_lattice,
    # before any of them is built
    budget.spend(2 * n * n)
    masks = [mask for _label, mask, _types in elements]
    at = {mask: i for i, mask in enumerate(masks)}
    up = [sum(1 << y for y, my in enumerate(masks) if mx & ~my == 0)
          for mx in masks]
    meet = [[at[mx & my] for my in masks] for mx in masks]
    join = [[at[mx | my] for my in masks] for mx in masks]
    poset = Poset(up, budget)
    check_lattice(poset, meet, join)
    rows = [{"label": label, "ring": recognize_ring(types),
             "size": math.prod(size for _rank, size, _q in types)}
            for label, _mask, types in elements]
    return Spectrum(poset, {"kind": kind, "base": A.name}, rows,
                    [row["label"] for row in rows], "%s_lattice" % kind,
                    {key: [[i, j, cell] for i, row in enumerate(table)
                           for j, cell in enumerate(row)]
                     for key, table in (("meet", meet), ("join", join))})


def _zar_elements(A, factors):
    """Localizations at idempotents, ordered by which opens they keep.

    Localizing at an idempotent e is the quotient by its kernel (1 - e)A,
    so distinct idempotents give distinct localizations.  invert(e) is eA,
    the product of the local factors pA with pe = p, so its mask is the set
    of those primitive idempotents p, and it is named from their types:
    invert(e) <= invert(f) when ef = e, that is when e's mask is inside
    f's, and ef and e + f - ef have the intersection and the union.
    """
    return [("invert(%s)" % A.names[e],
             sum(1 << i for i, (p, _P, _t, _f) in enumerate(factors)
                 if A.mul[p][e] == p),
             [t for p, _P, t, _f in factors if A.mul[p][e] == p])
            for e in sorted(A.idempotents())]


def _dom_elements(A, factors):
    """Reduced quotients under reverse inclusion of their radical ideals.

    A radical ideal of a finite ring is the intersection of the primes
    above it, and the primes are maximal, so pairwise comaximal: the
    radical ideals are the 2^k intersections of sets of the k primes, one
    per mask.  A/I <= A/J when J <= I, that is when I's mask is inside
    J's; the meet, the radical of I + J, has the intersection of the two
    masks, and the join, I & J, their union.  By the Chinese remainder
    theorem A/I is the product of the residue fields A/P of the primes P
    in its mask, and it is named from their types.  The quotients are
    listed by ideal, smallest first.
    """
    n = 1 << len(factors)
    # a mask's ideal: the ideal of the mask less its top bit, cut with the
    # top bit's prime
    ideals = [frozenset(A.elements())]
    for mask in range(1, n):
        top = mask.bit_length() - 1
        ideals.append(ideals[mask ^ 1 << top] & factors[top][1].elements)
    masks = sorted(range(n), key=lambda m: (len(ideals[m]), sorted(ideals[m])))
    return [("mod%s" % Ideal(A, ideals[mask]).label(), mask,
             [f for i, (_e, _P, _t, f) in enumerate(factors) if mask >> i & 1])
            for mask in masks]


def zar_lattice(A, budget=None):
    """The zar lattice of A: see ``_zar_elements``."""
    budget = ensure_budget(budget)
    return _lattice("zar", A, _zar_elements(A, _local_types(A, budget)),
                    budget)


def dom_lattice(A, budget=None):
    """The dom lattice of A: see ``_dom_elements``."""
    budget = ensure_budget(budget)
    return _lattice("dom", A, _dom_elements(A, _local_types(A, budget)),
                    budget)


def check_duality(A, budget=None):
    """(holds, witness): whether taking complements of sets of primes is an
    order-reversing bijection from the zar lattice onto the dom lattice,
    and if so that map, as pairs of element labels in zar order.

    invert(e) keeps the primes of its mask, and A/I the primes of its, so
    complement sends the open invert(e) to its closed complement.  The map
    is checked on the two built posets, x <= y in zar iff its image of y
    is below its image of x in dom: n^2 bit tests, charged first.
    """
    budget = ensure_budget(budget)
    factors = _local_types(A, budget)
    zar, dom = _zar_elements(A, factors), _dom_elements(A, factors)
    zl, dl = _lattice("zar", A, zar, budget), _lattice("dom", A, dom, budget)
    n, full = len(zar), (1 << len(factors)) - 1
    budget.spend(n * n)
    at = {mask: j for j, (_label, mask, _types) in enumerate(dom)}
    image = [at.get(full ^ mask) for _label, mask, _types in zar]
    if len(dom) != n or None in image or not all(
            zl.poset.up[x] >> y & 1 == dl.poset.up[image[y]] >> image[x] & 1
            for x in range(n) for y in range(n)):
        return False, None
    return True, [(zl.labels[x], dl.labels[image[x]]) for x in range(n)]


# ---------------------------------------------------------------------------
# points and stalks

def stalk(A, p, topology):
    """The local form at a prime, with its structural hom: for zar the
    localization away from p, a local ring with a localization map; for
    the other topologies the quotient by p, a domain with a surjective
    and, the ring being finite, integral map."""
    if not isinstance(p, Ideal) or p.ring is not A or \
            all(p.elements != q.elements for q in prime_ideals(A)):
        raise NotAPrime("%r is not a prime ideal of %s" % (p, A.name))
    if topology not in TOPOLOGIES:
        raise InvalidSpec("unknown topology %r" % (topology,))
    if topology == "zar":
        return localize(A, [x for x in A.elements() if x not in p.elements])
    return quotient_ring(A, p)


def spec_points(A, topology="zar", budget=None):
    """All primes with their stalks, ordered by inclusion, which is
    discrete: every prime of a finite ring is maximal.  Each stalk that
    ``stalk`` builds is named without being built: for zar, the local
    factor eA with e outside P; for the others, the residue field A/P."""
    budget = ensure_budget(budget)
    if topology not in TOPOLOGIES:
        raise InvalidSpec("unknown topology %r" % (topology,))
    rows = []
    for _e, P, factor, field in _local_types(A, budget):
        local = factor if topology == "zar" else field
        rows.append({"prime": P.label(), "stalk": recognize_ring([local]),
                     "stalk_size": local[1]})
    poset = Poset([1 << i for i in range(len(rows))], budget)
    return Spectrum(poset, {"base": A.name, "topology": topology}, rows,
                    [row["prime"] for row in rows], "points", {})
