"""Spectrum-level views of a finite ring.

Two finite lattices stand in for the small sites: localizations cut out by
idempotents on one side, reduced quotients on the other.  Their opposed
orders, the discrete point poset, and the stalk at each point are all the
spectrum amounts to at this scale, so that is what gets built and checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import ensure_budget
from .errors import InvalidSpec, NotAPrime
from .finring import (FinRing, Ideal, RingHom, all_ideals, ideal_generated,
                      localization_at_element, localize, prime_ideals,
                      prime_power, primitive_idempotents, quotient_ring,
                      radical, smallest_prime_factor)
from .posets import Poset, anti_isomorphism, poset_to_dot
from .ringsys import (classify_ring, is_integral_map, is_localization_map,
                      points_of)


def recognize_ring(R, budget=None):
    """A familiar name for R's iso class, or a size-tagged fallback.

    Tries Z/n, F_n, and binary products of those, in that order; the rings
    arising as lattice elements and stalks here are all of that shape.  A
    finite ring is the product of its local factors eR, one per primitive
    idempotent e, uniquely up to isomorphism, so R matches a candidate
    exactly when their local factors do.  A local factor is Z/m when e
    generates it additively and F_m when it is a field; no other factor
    occurs in a candidate.
    """
    budget = ensure_budget(budget)
    n = R.size
    if n == 1:
        return "0"
    types = sorted(_local_type(R, e, budget) for e in primitive_idempotents(R))
    cands = _local_candidates(n)
    for a in range(2, n):
        if n % a or a > n // a:
            continue
        for name_a, types_a in _local_candidates(a):
            for name_b, types_b in _local_candidates(n // a):
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


def _local_candidates(n):
    """(name, local factor types) of Z/n, and of F_n when n is a proper
    prime power."""
    types, m = [], n
    while m > 1:
        # the full power of m's least prime that divides m
        q = math.gcd(m, smallest_prime_factor(m) ** m)
        types.append(("Z", q))
        m //= q
    out = [("Z/%d" % n, types)]
    pk = prime_power(n)
    if pk and pk[1] > 1:
        out.append(("F_%d" % n, [("F", n)]))
    return out


# ---------------------------------------------------------------------------
# lattices

@dataclass
class SpecElement:
    index: int
    label: str
    key: object
    ring: FinRing
    structural: RingHom
    iso_name: str

    def as_dict(self):
        return {"id": self.index, "label": self.label, "ring": self.iso_name,
                "size": self.ring.size}


class SpecLattice:
    """A finite lattice of spectrum elements with explicit meet/join tables."""

    def __init__(self, kind, base, elements, poset, meet, join):
        self.kind = kind
        self.base = base
        self.elements = elements
        self.poset = poset
        self.meet = meet
        self.join = join

    @property
    def size(self):
        return len(self.elements)

    def validate(self):
        """Lattice laws, order consistency, and distributivity, exhaustively."""
        idx = self.poset.elements
        P = self.poset
        for x in idx:
            assert self.meet[x, x] == x and self.join[x, x] == x
            for y in idx:
                assert self.meet[x, y] == self.meet[y, x]
                assert self.join[x, y] == self.join[y, x]
                assert self.join[x, self.meet[x, y]] == x
                assert self.meet[x, self.join[x, y]] == x
                assert P.le(x, y) == (self.meet[x, y] == x)
                glb = P.meet(x, y)
                lub = P.join(x, y)
                assert glb == self.meet[x, y] and lub == self.join[x, y]
                for z in idx:
                    assert self.meet[x, y] == self.meet[self.meet[x, y], self.meet[x, y]]
                    assert self.meet[self.meet[x, y], z] == self.meet[x, self.meet[y, z]]
                    assert self.join[self.join[x, y], z] == self.join[x, self.join[y, z]]
                    assert self.meet[x, self.join[y, z]] == \
                        self.join[self.meet[x, y], self.meet[x, z]]
        return self

    def as_json(self):
        return {
            "kind": self.kind,
            "base": self.base.name,
            "elements": [e.as_dict() for e in self.elements],
            "order": [[i, j] for i, j in self.poset.order_pairs()],
            "meet": [[i, j, self.meet[i, j]]
                     for i in self.poset.elements for j in self.poset.elements],
            "join": [[i, j, self.join[i, j]]
                     for i in self.poset.elements for j in self.poset.elements],
        }

    def to_dot(self, name=None):
        return poset_to_dot(
            self.poset,
            label=lambda i: self.elements[i].label,
            name=name or ("%s_lattice" % self.kind))


def zar_lattice(A, budget=None):
    """Localizations at idempotents, ordered by which opens they keep.

    Meets invert the product.  Joins take the localization part of the map
    into the paired localization: its multiplicative set is the preimage of
    the pair's units, computed componentwise so the product ring itself
    never needs building, and the resulting kernel is matched back to an
    idempotent.  The match must be e + f - ef, and is asserted to be.
    """
    budget = ensure_budget(budget)
    idems = sorted(A.idempotents())
    elements = []
    by_kernel = {}
    for i, e in enumerate(idems):
        L, h = localization_at_element(A, e)
        kernel = frozenset(h.kernel_elements())
        assert kernel not in by_kernel, "distinct idempotents share a kernel"
        elements.append(SpecElement(i, "invert(%s)" % A.names[e], e, L, h,
                                    recognize_ring(L, budget=budget)))
        by_kernel[kernel] = i
    order = []
    for x in elements:
        for y in elements:
            if A.mul[x.key][y.key] == x.key:
                order.append((x.index, y.index))
    poset = Poset([e.index for e in elements], order)
    meet = {}
    join = {}
    for x in elements:
        for y in elements:
            e, f = x.key, y.key
            Lm, hm = localization_at_element(A, A.mul[e][f])
            meet[x.index, y.index] = by_kernel[frozenset(hm.kernel_elements())]
            ux, uy = x.structural, y.structural
            S = [a for a in A.elements()
                 if ux(a) in x.ring.units() and uy(a) in y.ring.units()]
            L, toL = localize(A, S)
            j = by_kernel.get(frozenset(toL.kernel_elements()))
            assert j is not None, "join middle is not a catalogued localization"
            ef = A.mul[e][f]
            assert elements[j].key == A.sub(A.add[e][f], ef)
            join[x.index, y.index] = j
    return SpecLattice("zar", A, elements, poset, meet, join).validate()


def dom_lattice(A, budget=None):
    """Reduced quotients under reverse inclusion of their radical ideals."""
    budget = ensure_budget(budget)
    rads = [I for I in all_ideals(A, budget=budget)
            if radical(I).elements == I.elements]
    rads.sort(key=lambda I: (len(I.elements), I.sorted_elements()))
    elements = []
    by_ideal = {}
    for i, I in enumerate(rads):
        Q, h = quotient_ring(A, I)
        el = SpecElement(i, "mod%s" % I.label(), I, Q, h,
                         recognize_ring(Q, budget=budget))
        elements.append(el)
        by_ideal[I.elements] = i
    order = []
    for x in elements:
        for y in elements:
            if y.key.elements <= x.key.elements:
                order.append((x.index, y.index))
    poset = Poset([e.index for e in elements], order)
    meet = {}
    join = {}
    for x in elements:
        for y in elements:
            I, J = x.key, y.key
            s = ideal_generated(A, sorted(I.elements | J.elements))
            meet[x.index, y.index] = by_ideal[radical(s).elements]
            join[x.index, y.index] = by_ideal[I.elements & J.elements]
    return SpecLattice("dom", A, elements, poset, meet, join).validate()


def check_duality(A, budget=None):
    """Order-reversing bijection between the two lattices, if one exists.

    Returns (holds, witness) where the witness pairs element labels.
    """
    zl = zar_lattice(A, budget=budget)
    dl = dom_lattice(A, budget=budget)
    mapping = anti_isomorphism(zl.poset, dl.poset, budget=budget)
    if mapping is None:
        return False, None
    witness = [(zl.elements[i].label, dl.elements[j].label)
               for i, j in sorted(mapping.items())]
    return True, witness


# ---------------------------------------------------------------------------
# points and stalks

class SpecPoset:
    """Primes under specialization, each carrying its stalk for a topology."""

    def __init__(self, base, topology, points, poset):
        self.base = base
        self.topology = topology
        self.points = points
        self.poset = poset

    @property
    def size(self):
        return len(self.points)

    def as_json(self):
        return {
            "base": self.base.name,
            "topology": self.topology,
            "elements": [{"id": i, "prime": p.label(),
                          "stalk": iso_name, "stalk_size": ring.size}
                         for i, (p, ring, hom, iso_name) in enumerate(self.points)],
            "order": [[i, j] for i, j in self.poset.order_pairs()],
        }

    def to_dot(self, name="points"):
        labels = {i: self.points[i][0].label() for i in self.poset.elements}
        return poset_to_dot(self.poset, label=lambda i: labels[i], name=name)


def stalk(A, p, topology, budget=None):
    """The local form at a prime, with its structural hom, class-checked."""
    primes = prime_ideals(A)
    if not isinstance(p, Ideal) or p.ring is not A or \
            all(p.elements != q.elements for q in primes):
        raise NotAPrime("%r is not a prime ideal of %s" % (p, A.name))
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
    pts = []
    for p, _res in points_of(A):
        ring, hom = stalk(A, p, topology, budget=budget)
        pts.append((p, ring, hom, recognize_ring(ring, budget=budget)))
    order = []
    for i, (p, *_r) in enumerate(pts):
        for j, (q, *_s) in enumerate(pts):
            if p.elements <= q.elements:
                order.append((i, j))
    poset = Poset(list(range(len(pts))), order)
    assert poset.is_antichain(), "specialization order is not discrete"
    return SpecPoset(A, topology, pts, poset)
