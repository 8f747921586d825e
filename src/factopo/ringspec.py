"""Spectrum-level views of a finite ring.

Two finite lattices stand in for the small sites: localizations cut out by
idempotents on one side, reduced quotients on the other.  Their opposed
orders, the discrete point poset, and the stalk at each point are all the
spectrum amounts to at this scale, so that is what gets built and checked.
"""

from __future__ import annotations

import math

from .budget import ensure_budget
from .errors import InvalidSpec, NotAPrime
from .finring import (Ideal, all_ideals, annihilator_kernel, ideal_generated,
                      localize, prime_ideals, prime_power,
                      primitive_idempotents, quotient_ring, radical,
                      smallest_prime_factor)
from .posets import Poset, Spectrum, anti_isomorphism
from .ringsys import classify_ring, is_integral_map, is_localization_map


def recognize_ring(R, budget):
    """A familiar name for R's iso class, or a size-tagged fallback.

    Tries Z/n, F_n, and binary products of those, in that order; the rings
    arising as lattice elements and stalks here are all of that shape.  A
    finite ring is the product of its local factors eR, one per primitive
    idempotent e, uniquely up to isomorphism, so R matches a candidate
    exactly when their local factors do.  A local factor is Z/m when e
    generates it additively and F_m when it is a field; no other factor
    occurs in a candidate.
    """
    n = R.size
    if n == 1:
        return "0"
    types = sorted(_local_type(R, e, budget) for e in primitive_idempotents(R))
    cands = _local_candidates(n, budget)
    for a in range(2, n):
        if n % a or a > n // a:
            continue
        for name_a, types_a in _local_candidates(a, budget):
            for name_b, types_b in _local_candidates(n // a, budget):
                cands.append(("%sx%s" % (name_a, name_b), types_a + types_b))
    for name, cand_types in cands:
        if sorted(cand_types) == types:
            return name
    return "ring-of-order-%d" % n


def _local_type(R, e, budget):
    """("Z", |eR|) or ("F", |eR|) for the local factor eR, else ("?", |eR|)."""
    budget.spend(R.size)
    factor = set(R.mul[e])
    order, x = 1, e
    while x != R.zero:
        x = R.add[x][e]
        order += 1
    if order == len(factor):
        return ("Z", order)
    if all(any(R.mul[x][y] == e for y in factor)
           for x in factor if x != R.zero):
        return ("F", len(factor))
    return ("?", len(factor))


def _local_candidates(n, budget):
    """(name, local factor types) of Z/n, and of F_n when n is a proper
    prime power."""
    types, m = [], n
    while m > 1:
        # the full power of m's least prime that divides m
        q = math.gcd(m, smallest_prime_factor(m) ** m)
        types.append(("Z", q))
        m //= q
    out = [("Z/%d" % n, types)]
    pk = prime_power(n, budget)
    if pk and pk[1] > 1:
        out.append(("F_%d" % n, [("F", n)]))
    return out


# ---------------------------------------------------------------------------
# lattices

def check_lattice(P, meet, join):
    """Lattice laws, order consistency, and distributivity, exhaustively."""
    idx = P.elements
    for x in idx:
        assert meet[x, x] == x and join[x, x] == x
        for y in idx:
            assert meet[x, y] == meet[y, x]
            assert join[x, y] == join[y, x]
            assert join[x, meet[x, y]] == x
            assert meet[x, join[x, y]] == x
            assert P.le(x, y) == (meet[x, y] == x)
            glb = P.meet(x, y)
            lub = P.join(x, y)
            assert glb == meet[x, y] and lub == join[x, y]
            for z in idx:
                assert meet[x, y] == meet[meet[x, y], meet[x, y]]
                assert meet[meet[x, y], z] == meet[x, meet[y, z]]
                assert join[join[x, y], z] == join[x, join[y, z]]
                assert meet[x, join[y, z]] == join[meet[x, y], meet[x, z]]


def _lattice(kind, A, labels, rings, names, order, meet, join, budget):
    """The checked lattice of ``kind``; element i is labels[i], rings[i]."""
    poset = Poset(list(range(len(labels))), order, budget)
    check_lattice(poset, meet, join)
    rows = [{"label": label, "ring": name, "size": R.size}
            for label, R, name in zip(labels, rings, names)]
    pairs = [(i, j) for i in poset.elements for j in poset.elements]
    return Spectrum(poset, {"kind": kind, "base": A.name}, rows, labels,
                    "%s_lattice" % kind,
                    {"meet": [[i, j, meet[i, j]] for i, j in pairs],
                     "join": [[i, j, join[i, j]] for i, j in pairs]})


def zar_lattice(A, budget=None):
    """Localizations at idempotents, ordered by which opens they keep.

    Meets invert the product.  Joins take the localization part of the map
    into the paired localization: its multiplicative set is the preimage of
    the pair's units, computed componentwise.  A localization is the
    quotient by its annihilator kernel, so meets and joins read that kernel
    and build no ring; a join's kernel is matched back to an idempotent,
    which must be e + f - ef, and is asserted to be.
    """
    budget = ensure_budget(budget)
    idems = sorted(A.idempotents())
    labels, rings, homs, names = [], [], [], []
    by_kernel = {}
    for i, e in enumerate(idems):
        L, h = localize(A, [e])
        kernel = frozenset(h.kernel_elements())
        assert kernel not in by_kernel, "distinct idempotents share a kernel"
        labels.append("invert(%s)" % A.names[e])
        rings.append(L)
        homs.append(h)
        names.append(recognize_ring(L, budget))
        by_kernel[kernel] = i
    order = [(x, y) for x, e in enumerate(idems) for y, f in enumerate(idems)
             if A.mul[e][f] == e]
    meet = {}
    join = {}
    for x, e in enumerate(idems):
        for y, f in enumerate(idems):
            ef = A.mul[e][f]
            meet[x, y] = by_kernel[annihilator_kernel(A, [ef]).elements]
            ux, uy = homs[x], homs[y]
            S = [a for a in A.elements()
                 if ux(a) in rings[x].units() and uy(a) in rings[y].units()]
            j = by_kernel.get(annihilator_kernel(A, S).elements)
            assert j is not None, "join middle is not a catalogued localization"
            assert idems[j] == A.sub(A.add[e][f], ef)
            join[x, y] = j
    return _lattice("zar", A, labels, rings, names, order, meet, join, budget)


def dom_lattice(A, budget=None):
    """Reduced quotients under reverse inclusion of their radical ideals."""
    budget = ensure_budget(budget)
    rads = [I for I in all_ideals(A, budget)
            if radical(I).elements == I.elements]
    rads.sort(key=lambda I: (len(I.elements), I.sorted_elements()))
    labels, rings, names = [], [], []
    by_ideal = {}
    for i, I in enumerate(rads):
        Q, _h = quotient_ring(A, I)
        labels.append("mod%s" % I.label())
        rings.append(Q)
        names.append(recognize_ring(Q, budget))
        by_ideal[I.elements] = i
    order = [(x, y) for x, I in enumerate(rads) for y, J in enumerate(rads)
             if J.elements <= I.elements]
    meet = {}
    join = {}
    for x, I in enumerate(rads):
        for y, J in enumerate(rads):
            s = ideal_generated(A, sorted(I.elements | J.elements))
            meet[x, y] = by_ideal[radical(s).elements]
            join[x, y] = by_ideal[I.elements & J.elements]
    return _lattice("dom", A, labels, rings, names, order, meet, join, budget)


def check_duality(A, budget=None):
    """Order-reversing bijection between the two lattices, if one exists.

    Returns (holds, witness) where the witness pairs element labels.
    """
    budget = ensure_budget(budget)
    zl = zar_lattice(A, budget)
    dl = dom_lattice(A, budget)
    mapping = anti_isomorphism(zl.poset, dl.poset, budget)
    if mapping is None:
        return False, None
    witness = [(zl.labels[i], dl.labels[j])
               for i, j in sorted(mapping.items())]
    return True, witness


# ---------------------------------------------------------------------------
# points and stalks

def stalk(A, p, topology, budget=None):
    """The local form at a prime, with its structural hom, class-checked."""
    budget = ensure_budget(budget)
    primes = prime_ideals(A)
    if not isinstance(p, Ideal) or p.ring is not A or \
            all(p.elements != q.elements for q in primes):
        raise NotAPrime("%r is not a prime ideal of %s" % (p, A.name))
    return _stalk(A, p, topology, budget)


def _stalk(A, p, topology, budget):
    """``stalk`` at p, which the caller knows to be a prime of A."""
    if topology == "zar":
        S = [x for x in A.elements() if x not in p.elements]
        L, h = localize(A, S)
        assert classify_ring(L, budget=budget).is_local
        assert is_localization_map(h)
        return L, h
    if topology == "dom":
        Q, h = quotient_ring(A, p)
        assert classify_ring(Q, budget=budget).is_domain
        assert h.is_surjective()
        return Q, h
    if topology in ("fin", "nfin"):
        Q, h = quotient_ring(A, p)
        assert classify_ring(Q, budget=budget).is_domain
        assert is_integral_map(h, budget=budget)
        return Q, h
    raise InvalidSpec("unknown topology %r" % (topology,))


def spec_points(A, topology="zar", budget=None):
    """All primes with their stalks; the order is computed, then required
    discrete, which is where finite rings land every time."""
    budget = ensure_budget(budget)
    primes, rows = prime_ideals(A), []
    for p in primes:
        ring, _hom = _stalk(A, p, topology, budget)
        rows.append({"prime": p.label(),
                     "stalk": recognize_ring(ring, budget),
                     "stalk_size": ring.size})
    order = [(i, j) for i, p in enumerate(primes) for j, q in enumerate(primes)
             if p.elements <= q.elements]
    assert all(i == j for i, j in order), "specialization order is not discrete"
    poset = Poset(list(range(len(primes))), order, budget)
    return Spectrum(poset, {"base": A.name, "topology": topology}, rows,
                    [row["prime"] for row in rows], "points")
