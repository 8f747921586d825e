"""The three factorisation systems on finite commutative rings.

localization/conservative, surjective/injective, and integral/integrally
closed, together with the covering-family checks and the point sets they
induce.  At finite scale every element of a ring is integral over any
subring, so the third system degenerates: its left class is every hom,
its right class the isomorphisms, and its middles the whole target.
``tests/test_ringsys.py::test_int_intclo_classes_match_the_monic_witnesses``
checks that against explicit monic witnesses on every hom between the
catalogue rings.  Each property and class test reads the first item of
one stream of counterexamples.
"""

from typing import NamedTuple

from .budget import ensure_budget
from .errors import FactorizerContractViolation, InvalidFamily, InvalidSpec
from .finring import (Ideal, RingHom, all_ideals, annihilator_kernel,
                      enumerate_homs, factors_through_surjection,
                      field_catalogue, identity_hom, ideal_generated,
                      inverse_hom, localize, nilradical, prime_ideals,
                      quotient_ring)
from .posets import CoverResult, Factorization

TOPOLOGIES = ("zar", "dom", "fin", "nfin")


# ---------------------------------------------------------------------------
# class membership

def conservative_witness(u):
    """An element whose image is a unit while it is not, or None."""
    bu, au = u.target.units(), u.source.units()
    return next((x for x in u.source.elements()
                 if u(x) in bu and x not in au), None)


def is_conservative(u):
    # units always push forward along a unital hom; only the converse can fail
    return conservative_witness(u) is None


def is_localization_map(u):
    """True iff u is the canonical inversion of some multiplicative set.

    For finite rings that means: surjective with kernel exactly the
    annihilator kernel of the preimage of the target's units.
    """
    if not u.is_surjective():
        return False
    S = [x for x in u.source.elements() if u(x) in u.target.units()]
    return u.kernel_elements() == annihilator_kernel(u.source, S).elements


def is_integral_map(u):
    """Every target element admits a monic dependency over the image: true.

    In a finite ring the powers of b repeat, b^i == b^j with i < j, so b
    is a root of x^j - x^i, whose coefficients 0, 1 and -1 lie in every
    unital image.
    """
    return True


def is_integrally_closed_map(u):
    """Injective, and every element integral over the image lies in it:
    as every element is integral, that is a bijection."""
    return u.is_bijective()


# ---------------------------------------------------------------------------
# factorizations

def verify_factorization(system, u, f, budget):
    """Recheck the whole contract of f as a ``system`` factorisation of u,
    one step per element of the two ends: the legs compose to u and each
    passes the membership test for its side of the system.  A failure
    raises FactorizerContractViolation; f is returned."""
    budget.spend(u.source.size + u.target.size)
    what = "%s factorisation of %s -> %s" % (system, u.source.name,
                                            u.target.name)
    if not (f.left.source is u.source and f.right.target is u.target
            and f.left.target is f.middle is f.right.source):
        raise FactorizerContractViolation(what + ": legs do not meet")
    if f.left.then(f.right).mapping != u.mapping:
        raise FactorizerContractViolation(
            what + ": legs do not compose to the input")
    _fac, left_test, right_test = _SYSTEMS[system]
    if not left_test(f.left):
        raise FactorizerContractViolation(what + ": left leg outside its class")
    if not right_test(f.right):
        raise FactorizerContractViolation(what + ": right leg outside its class")
    return f


def loc_cons_factorize(u):
    """Invert what becomes invertible, then a conservative remainder."""
    A, B = u.source, u.target
    S = [x for x in A.elements() if u(x) in B.units()]
    L, proj = localize(A, S)
    right = factors_through_surjection(u, proj)
    right.validate()
    return Factorization(proj, L, right)


def surj_mono_factorize(u):
    A = u.source
    Q, proj = quotient_ring(A, Ideal(A, u.kernel_elements()).validate())
    right = factors_through_surjection(u, proj)
    right.validate()
    return Factorization(proj, Q, right)


def int_intclo_factorize(u):
    """Integral part first; over finite rings the closure is the full target,
    so the right leg is the identity; factorize's check confirms that."""
    return Factorization(u, u.target, identity_hom(u.target))


# each system: its factoriser, then its left and right class tests
_SYSTEMS = {
    "loc-cons": (loc_cons_factorize, is_localization_map, is_conservative),
    "surj-mono": (surj_mono_factorize, RingHom.is_surjective,
                  RingHom.is_injective),
    "int-intclo": (int_intclo_factorize, is_integral_map,
                   is_integrally_closed_map),
}
SYSTEMS = tuple(_SYSTEMS)


def factorize(u, system, budget=None):
    """The factorisation of u in ``system``, checked once by
    verify_factorization: its legs compose to u and lie in their classes."""
    budget = ensure_budget(budget)
    if system not in _SYSTEMS:
        raise InvalidSpec("unknown system %r" % (system,))
    return verify_factorization(system, u, _SYSTEMS[system][0](u), budget)


def triple_factorize(u, budget=None):
    """Surjection, then injective-and-integral, then integrally closed: the
    surj-mono factorisation with its right leg factored again by int-intclo,
    so ``right`` is itself a Factorization."""
    budget = ensure_budget(budget)
    sm = factorize(u, "surj-mono", budget)
    return sm._replace(right=factorize(sm.right, "int-intclo", budget))


# ---------------------------------------------------------------------------
# ring classification

class RingClassification(NamedTuple):
    is_field: bool
    is_fat_field: bool
    is_local: bool
    is_domain: bool
    is_integrally_closed_domain: bool
    witnesses: dict

    def as_dict(self):
        """The fields, with the witnesses sorted and left out when empty."""
        d = self._asdict()
        witnesses = d.pop("witnesses")
        if witnesses:
            d["witnesses"] = dict(sorted(witnesses.items()))
        return d


def classify_ring(A, budget=None):
    """Each property fails with the first item of its stream of
    counterexamples, or with "zero ring" for the zero ring.  A domain is
    integrally closed when its embedding into the localization away from
    0, its fraction field, is closed, one step per element of A."""
    budget = ensure_budget(budget)
    units, nilp, names = A.units(), nilradical(A).elements, A.names
    nonzero = [x for x in A.elements() if x != A.zero]
    streams = {
        "is_field": (names[x] for x in nonzero if x not in units),
        "is_fat_field": (names[x] for x in A.elements()
                         if x not in units and x not in nilp),
        "is_local": ((names[x], names[y]) for x in A.elements()
                     for y in (A.sub(A.one, x),)
                     if x not in units and y not in units),
        "is_domain": ((names[x], names[y]) for x in nonzero for y in nonzero
                      if A.mul[x][y] == A.zero),
    }
    wit = {}
    for prop, stream in streams.items():
        first = "zero ring" if A.is_zero_ring() else next(stream, None)
        if first is not None:
            wit[prop] = first
    if "is_domain" in wit:
        wit["is_integrally_closed_domain"] = wit["is_domain"]
    else:
        budget.spend(A.size)
        if not is_integrally_closed_map(localize(A, nonzero)[1]):
            wit["is_integrally_closed_domain"] = "embedding not closed"
    return RingClassification(*(prop not in wit for prop in
                                RingClassification._fields[:5]), wit)


# ---------------------------------------------------------------------------
# covering families

def zar_combination_certificate(A, elems, budget):
    """Coefficients with sum(c_i * a_i) == 1, or None; first hit under an
    ascending scan so the certificate is reproducible.  Each element costs
    one step per reached sum and ring element, charged before its scan."""
    reach = {A.zero: tuple([0] * len(elems))}
    for idx, a in enumerate(elems):
        budget.spend(len(reach) * A.size)
        nxt = dict(reach)
        for v, co in reach.items():
            for r in A.elements():
                s = A.add[v][A.mul[r][a]]
                if s not in nxt:
                    co2 = list(co)
                    co2[idx] = r
                    nxt[s] = tuple(co2)
        reach = nxt
    return reach.get(A.one)


def cover_check(A, family, topology, field_bound=16, budget=None):
    """Decide whether a family covers, with a certificate either way.

    zar: elements, covering iff 1 lies in the ideal they generate.
    dom: ideals, covering iff their intersection sits inside the nilradical.
    fin: homs out of A, covering iff every prime has a nonempty fiber in
    some member (the image of the prime generates a proper ideal there).
    nfin: a fin family through which every hom to a catalogue field factors.
    The empty family covers exactly the zero ring.
    """
    budget = ensure_budget(budget)
    if topology == "zar":
        elems = list(family)
        if not all(isinstance(a, int) and 0 <= a < A.size for a in elems):
            raise InvalidFamily("zar family members must be elements of %s" % A.name)
        combo = zar_combination_certificate(A, elems, budget)
        if combo is None:
            return CoverResult("zar", False,
                               {"proper_ideal": ideal_generated(A, elems).label()})
        return CoverResult("zar", True, {"combination": list(combo)})

    if topology == "dom":
        ideals = []
        for I in family:
            if not isinstance(I, Ideal) or I.ring is not A:
                raise InvalidFamily("dom family members must be ideals of %s" % A.name)
            budget.spend(len(I.elements) * (len(I.elements) + A.size))
            ideals.append(I.validate())
        inter = set(A.elements())
        for I in ideals:
            inter &= I.elements
        nil = nilradical(A).elements
        exponents = {}
        for x in sorted(inter):
            if x not in nil:
                return CoverResult("dom", False, {"non_nilpotent": A.names[x]})
            k, p = 1, x
            while p != A.zero:
                p = A.mul[p][x]
                k += 1
            exponents[A.names[x]] = k
        return CoverResult("dom", True, {"nilpotency": exponents})

    if topology in ("fin", "nfin"):
        homs = list(family)
        if not all(isinstance(u, RingHom) and u.source is A for u in homs):
            raise InvalidFamily("%s family members must be homs out of %s"
                                % (topology, A.name))
        assignment = {}
        for p in prime_ideals(A):
            chosen = None
            for i, u in enumerate(homs):
                budget.spend()
                fiber_ideal = ideal_generated(
                    u.target, sorted({u(x) for x in p.elements}))
                if fiber_ideal.is_proper():
                    chosen = i
                    break
            if chosen is None:
                return CoverResult(topology, False, {"empty_fiber_at": p.label()})
            assignment[p.label()] = chosen
        if topology == "fin":
            return CoverResult("fin", True, {"fiber_member": assignment})
        factoring = {}
        for K in field_catalogue(field_bound, budget):
            # each hom A -> K is routed to the least member it factors
            # through; a member's homs are listed while one is unrouted
            hs, routes = enumerate_homs(A, K, budget=budget), {}
            for i, u in enumerate(homs):
                if all(h.mapping in routes for h in hs):
                    break
                budget.spend()
                for g in enumerate_homs(u.target, K, budget=budget):
                    routes.setdefault(u.then(g).mapping, i)
            for h in hs:
                if h.mapping not in routes:
                    return CoverResult("nfin", False,
                                       {"unfactored_hom_to": K.name,
                                        "mapping": list(h.mapping)})
                factoring["%s:%s" % (K.name, ",".join(map(str, h.mapping)))] = \
                    routes[h.mapping]
        return CoverResult("nfin", True,
                           {"fiber_member": assignment, "field_routing": factoring})

    raise InvalidSpec("unknown topology %r" % (topology,))


# ---------------------------------------------------------------------------
# self-lifting: A -> A[1/a] and A -> A/I are onto, so they have a
# retraction iff they are injective, iff their kernel is zero

def zar_self_lift_decider(A):
    """Decide 'A lifts through every zar cover of itself'.

    A cover lifts iff some member admits a retraction; the worst cover is
    the set of retraction-free elements, so a single ideal-membership test
    settles the universal claim.
    """
    sectionless = [a for a in A.elements()
                   if not annihilator_kernel(A, [a]).is_zero()]
    return ideal_generated(A, sectionless).is_proper()


def dom_self_lift_decider(A, budget=None):
    budget = ensure_budget(budget)
    sectionless = [I for I in all_ideals(A, budget) if not I.is_zero()]
    return not cover_check(A, sectionless, "dom", budget=budget).covers


# ---------------------------------------------------------------------------
# axiom verification over an explicit universe

def ring_universe(rings, budget):
    """Hom-complete category on the given rings; arrows carry RingHom payloads.

    Names double as object keys, so they must be unique.  The ring list also
    needs to be closed under quotients up to isomorphism or the factorizer
    adapters will have nowhere to land their middles.
    """
    from .fincat import concrete_category
    names = [R.name for R in rings]
    if len(set(names)) != len(names):
        raise InvalidSpec("universe rings must carry distinct names")
    cat = concrete_category(
        rings, lambda R: R.name,
        lambda x, y: enumerate_homs(x, y, budget),
        lambda h: h.mapping, name="rings", budget=budget)
    cat.rings = {R.name: R for R in rings}
    return cat


def _iso_onto_universe(M, rings, budget):
    """A bijective hom from M onto the first universe ring of its size that
    has one, and that ring.  Any iso will do: verify_system's middle
    uniqueness does not depend on which copy of the middle it is given."""
    for C in rings:
        if C.size != M.size:
            continue
        for h in enumerate_homs(M, C, budget):
            if h.is_bijective():
                return h, C
    raise InvalidSpec(
        "no universe ring isomorphic to %s of size %d; the universe must be "
        "closed under quotients up to isomorphism" % (M.name, M.size))


def system_factorizer(system, universe, budget):
    """Adapt the system's factoriser to the morphism-id protocol of
    verify_system.  The legs are not checked here: verify_system checks
    that they compose and reports those outside their classes.  The iso
    onto the universe is looked for once per middle: the key holds all
    that enumerate_homs reads of it, so a recurring middle gets the iso
    that a fresh search would find."""
    rings = list(universe.rings.values())
    index = {(m[0], m[1], h.mapping): m
             for m, h in universe.payload.items()}
    factorizer = _SYSTEMS[system][0]
    isos = {}

    def fac(mor_id):
        u = universe.payload[mor_id]
        F = factorizer(u)
        M = F.middle
        key = (M.add, M.mul, M.zero, M.one, M.generators)
        if key not in isos:
            iso, C = _iso_onto_universe(M, rings, budget)
            isos[key] = iso.mapping, C
        mapping, C = isos[key]
        iso = RingHom(M, C, mapping)
        left = F.left.then(iso)
        right = inverse_hom(iso).then(F.right)
        return Factorization(index[(u.source.name, C.name, left.mapping)],
                             C.name,
                             index[(C.name, u.target.name, right.mapping)])

    return fac


def class_predicates(system, universe):
    _fac, left_test, right_test = _SYSTEMS[system]

    def in_left(m):
        return left_test(universe.payload[m])

    def in_right(m):
        return right_test(universe.payload[m])

    return in_left, in_right


def verify_ring_system(system, rings, budget=None):
    """Run the full axiom battery for one system over the given rings."""
    from .fincat import verify_system
    budget = ensure_budget(budget)
    universe = ring_universe(rings, budget)
    in_left, in_right = class_predicates(system, universe)
    return verify_system(system_factorizer(system, universe, budget),
                         in_left, in_right, universe, budget=budget)
