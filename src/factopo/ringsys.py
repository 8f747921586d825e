"""The three factorisation systems on finite commutative rings.

localization/conservative, surjective/injective, and integral/integrally
closed, together with the covering-family checks and the point sets they
induce.  At finite scale every element of a ring is integral over any
subring, so the third system degenerates: its middles equal the whole
target and its right class collapses to the isomorphisms.  That fact is
checked where it is used rather than assumed.
"""

from typing import NamedTuple

from .budget import ensure_budget
from .errors import FactorizerContractViolation, InvalidFamily, InvalidSpec
from .fincat import (CoverResult, Factorization, concrete_category,
                     verify_system)
from .finring import (Ideal, RingHom, all_ideals, annihilator_kernel,
                      enumerate_homs, factors_through_surjection,
                      field_catalogue, identity_hom, ideal_generated,
                      inverse_hom, localize, nilradical, prime_ideals,
                      quotient_ring)

SYSTEMS = ("loc-cons", "surj-mono", "int-intclo")
TOPOLOGIES = ("zar", "dom", "fin", "nfin")


# ---------------------------------------------------------------------------
# class membership

def conservative_witness(u):
    """An element whose image is a unit while it is not, or None."""
    A, B = u.source, u.target
    bu = B.units()
    au = A.units()
    for x in A.elements():
        if u(x) in bu and x not in au:
            return x
    return None


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


def integral_elements(u, budget):
    """Monic-dependency witnesses for every element of the target.

    Returns {element: coeff_tuple} where the tuple (c_0, ..., c_{d-1}) of
    image elements encodes x^d + c_{d-1} x^{d-1} + ... + c_0 vanishing at
    the element.  In a finite ring the powers of b repeat, b^i == b^j with
    i < j, so x^j - x^i is a witness with coefficients 0 and -1, which lie
    in every unital image.  The whole target is integral, which is exactly
    the degeneracy the callers check.
    """
    B = u.target
    witnesses = {}
    for b in B.elements():
        seen = {}
        p = B.one
        while p not in seen:
            budget.spend()
            seen[p] = len(seen)
            p = B.mul[p][b]
        coeffs = [B.zero] * len(seen)
        coeffs[seen[p]] = B.neg[B.one]
        witnesses[b] = tuple(coeffs)
    return witnesses


def check_monic_witness(u, b, coeffs):
    """Re-evaluate a witness polynomial at b, whose coefficients lie in the
    image of u as ``integral_elements`` builds them."""
    B = u.target
    acc, p = B.zero, B.one
    for c in coeffs:
        acc = B.add[acc][B.mul[c][p]]
        p = B.mul[p][b]
    return B.add[acc][p] == B.zero


def is_integral_map(u, budget):
    """Every target element admits a monic dependency over the image.

    Finite rings make this always true; it is still computed from the
    definition so the class test mirrors the construction it verifies.
    """
    wit = integral_elements(u, budget)
    return all(check_monic_witness(u, b, w) for b, w in wit.items())


def is_integrally_closed_map(u, budget):
    """Injective, and every element integral over the image lies in the image."""
    if not u.is_injective():
        return False
    image = set(u.mapping)
    wit = integral_elements(u, budget)
    return all(b in image for b in wit)


CLASS_TESTS = {
    "loc-cons": (lambda u, budget: is_localization_map(u),
                 lambda u, budget: is_conservative(u)),
    "surj-mono": (lambda u, budget: u.is_surjective(),
                  lambda u, budget: u.is_injective()),
    "int-intclo": (is_integral_map, is_integrally_closed_map),
}


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
    left_test, right_test = CLASS_TESTS[system]
    if not left_test(f.left, budget):
        raise FactorizerContractViolation(what + ": left leg outside its class")
    if not right_test(f.right, budget):
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


FACTORIZERS = {"loc-cons": loc_cons_factorize,
               "surj-mono": surj_mono_factorize,
               "int-intclo": int_intclo_factorize}


def factorize(u, system, budget=None):
    """The factorisation of u in ``system``, checked once by
    verify_factorization: its legs compose to u and lie in their classes."""
    budget = ensure_budget(budget)
    if system not in FACTORIZERS:
        raise InvalidSpec("unknown system %r" % (system,))
    return verify_factorization(system, u, FACTORIZERS[system](u), budget)


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
    budget = ensure_budget(budget)
    wit = {}
    units = A.units()
    nilp = nilradical(A).elements
    nonzero = [x for x in A.elements() if x != A.zero]

    is_field = not A.is_zero_ring()
    for x in nonzero:
        if x not in units:
            is_field = False
            wit["is_field"] = A.names[x]
            break
    if A.is_zero_ring():
        wit["is_field"] = "zero ring"

    is_fat = not A.is_zero_ring()
    for x in A.elements():
        if x not in units and x not in nilp:
            is_fat = False
            wit["is_fat_field"] = A.names[x]
            break
    if A.is_zero_ring():
        wit["is_fat_field"] = "zero ring"

    is_local = not A.is_zero_ring()
    if is_local:
        for x in A.elements():
            y = A.sub(A.one, x)
            if x not in units and y not in units:
                is_local = False
                wit["is_local"] = (A.names[x], A.names[y])
                break
    else:
        wit["is_local"] = "zero ring"

    is_domain = not A.is_zero_ring()
    if is_domain:
        for x in nonzero:
            for y in nonzero:
                if A.mul[x][y] == A.zero:
                    is_domain = False
                    wit["is_domain"] = (A.names[x], A.names[y])
                    break
            if not is_domain:
                break
    else:
        wit["is_domain"] = "zero ring"

    # fraction-field route, not a shortcut through is_field: embed into the
    # localization away from 0 and ask whether that embedding is closed
    if is_domain:
        K, toK = localize(A, nonzero)
        icd = is_integrally_closed_map(toK, budget)
        if not icd:
            wit["is_integrally_closed_domain"] = "embedding not closed"
    else:
        icd = False
        wit["is_integrally_closed_domain"] = wit.get("is_domain", "not a domain")

    return RingClassification(is_field, is_fat, is_local, is_domain, icd, wit)


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
        elems = []
        for a in family:
            if not isinstance(a, int) or not (0 <= a < A.size):
                raise InvalidFamily("zar family members must be elements of %s" % A.name)
            elems.append(a)
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
        homs = []
        for u in family:
            if not isinstance(u, RingHom) or u.source is not A:
                raise InvalidFamily("%s family members must be homs out of %s"
                                    % (topology, A.name))
            homs.append(u)
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
            for h in enumerate_homs(A, K, budget=budget):
                routed = None
                for i, u in enumerate(homs):
                    budget.spend()
                    for g in enumerate_homs(u.target, K, budget=budget):
                        if u.then(g).mapping == h.mapping:
                            routed = i
                            break
                    if routed is not None:
                        break
                if routed is None:
                    return CoverResult("nfin", False,
                                       {"unfactored_hom_to": K.name,
                                        "mapping": list(h.mapping)})
                factoring["%s:%s" % (K.name, ",".join(map(str, h.mapping)))] = routed
        return CoverResult("nfin", True,
                           {"fiber_member": assignment, "field_routing": factoring})

    raise InvalidSpec("unknown topology %r" % (topology,))


# ---------------------------------------------------------------------------
# points

def points_of(A):
    """The points of A: one per prime ideal, carried by its residue hom.
    Every system and topology has these same points."""
    out = []
    for p in prime_ideals(A):
        residue_field, res = quotient_ring(A, p)
        out.append((p, res))
    return out


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
    isos = {}

    def fac(mor_id):
        u = universe.payload[mor_id]
        F = FACTORIZERS[system](u)
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


def class_predicates(system, universe, budget):
    left_test, right_test = CLASS_TESTS[system]

    def in_left(m):
        return left_test(universe.payload[m], budget)

    def in_right(m):
        return right_test(universe.payload[m], budget)

    return in_left, in_right


def verify_ring_system(system, rings, budget=None):
    """Run the full axiom battery for one system over the given rings."""
    budget = ensure_budget(budget)
    universe = ring_universe(rings, budget)
    in_left, in_right = class_predicates(system, universe, budget)
    return verify_system(system_factorizer(system, universe, budget),
                         in_left, in_right, universe, budget=budget)
