"""Oracles for the tests: exhaustive searches and scans that the package
does not need, or that it replaced with faster ones."""

import itertools
import math
import random
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from operator import getitem

from factopo.budget import Budget, ensure_budget
from factopo.catfib import CommaCategory, _over
from factopo.errors import (FactorizerContractViolation, InvalidFamily,
                            InvalidSpec, NotACategory, NotARing)
from factopo.fincat import FinCat, Functor, _key, all_functors, verify_system
from factopo.finring import (Ideal, all_ideals, annihilator_kernel,
                             enumerate_homs, field_catalogue, ideal_generated,
                             inverse_hom, least_irreducible, localize,
                             nilradical, prime_ideals, prime_power,
                             primitive_idempotents, quotient_ring,
                             smallest_prime_factor)
from factopo.posets import CoverResult, Factorization, Poset, Spectrum, _bits
from factopo.ringspec import recognize_ring
from factopo.ringsys import (RingClassification, class_predicates,
                             cover_check, factorize, ring_universe,
                             zar_combination_certificate)
from factopo.sset import (FinSSet, SimplicialMap, _face_compatible,
                          codegeneracy, coface, compose_ops, delta,
                          identity_op, identity_smap, is_identity_op,
                          is_nondegenerate_map)


def ring_isomorphic(A, B, budget):
    """A bijective hom A -> B, or None."""
    if A.size != B.size:
        return None
    for h in enumerate_homs(A, B, budget):
        if h.is_bijective():
            return h
    return None


def fincat_isomorphic(C, D):
    """A functor C -> D bijective on objects and on morphisms, or None."""
    if (len(C.objects), len(C.morphisms)) != (len(D.objects), len(D.morphisms)):
        return None
    return next((F for F in all_functors(C, D, C.budget)
                 if len(set(F.obj_map.values())) == len(D.objects)
                 and len(set(F.mor_map.values())) == len(D.morphisms)), None)


def associativity_violation_by_full_scan(C):
    """The first composable (h, g, f) with h(gf) != (hg)f, testing every
    composable triple, or None; C's compose table must be total on
    composable pairs."""
    comp = C.compose_table
    for f in C.morphism_ids():
        for g in C.hom_from(C.tgt(f)):
            gf = comp[(g, f)]
            for h in C.hom_from(C.tgt(g)):
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    return (h, g, f)
    return None


def validate_entries_by_scan(C):
    """The compose-entry checks of FinCat.validate as a loop over the
    entries, then over the composable pairs in (f, g) order: raises
    NotACategory on the first entry with an unknown morphism, a
    non-composable pair or a composite with wrong endpoints, then on the
    first composable pair with no entry, and charges C.budget one step per
    composable pair."""
    mors, comp = C.morphisms, C.compose_table
    for (g, f), h in comp.items():
        if f not in mors or g not in mors or h not in mors:
            raise NotACategory("compose entry (%r, %r) -> %r uses unknown morphisms" % (g, f, h))
        if mors[f][1] != mors[g][0]:
            raise NotACategory("compose entry for non-composable pair (%r, %r)" % (g, f))
        if mors[h] != (mors[f][0], mors[g][1]):
            raise NotACategory("composite of (%r, %r) has wrong endpoints" % (g, f))
    for f in C.morphism_ids():
        out = C.hom_from(mors[f][1])
        C.budget.spend(len(out))
        for g in out:
            if (g, f) not in comp:
                raise NotACategory("compose undefined on composable pair (%r, %r)" % (g, f))


def validate_by_triples(C, order=None):
    """FinCat.validate as a loop over pairs and triples: every composable
    pair is looked up in the compose table in (f, g) order, then the unit
    laws, then Light's test, which takes the middles in ``order`` (default
    ``morphism_ids``), makes each one not yet reached a generator and tests
    it on every composable (h, g, f) one triple at a time.  Raises
    NotACategory as validate does, charges C.budget what validate charges
    for the same order, and returns the generators."""
    budget, mors, objset = C.budget, C.morphisms, set(C.objects)
    if len(objset) != len(C.objects):
        raise NotACategory("duplicate object ids")
    for m, (s, t) in mors.items():
        if s not in objset or t not in objset:
            raise NotACategory("morphism %r has endpoint outside the object set" % (m,))
    for x in C.objects:
        i = C.identities.get(x)
        if i is None or i not in mors:
            raise NotACategory("object %r has no identity morphism" % (x,))
        if mors[i] != (x, x):
            raise NotACategory("identity of %r is not an endomorphism of it" % (x,))
    validate_entries_by_scan(C)
    comp = C.compose_table
    for f in C.morphism_ids():
        s, t = mors[f]
        if comp[(C.identities[t], f)] != f:
            raise NotACategory("left unit law fails at %r" % (f,))
        if comp[(f, C.identities[s])] != f:
            raise NotACategory("right unit law fails at %r" % (f,))
    reached = {C.identities[x] for x in C.objects}
    reached_into = {x: [C.identities[x]] for x in C.objects}
    gens_from = {x: [] for x in C.objects}
    generators = []
    for g in order or C.morphism_ids():
        if g in reached:
            continue
        s, t = mors[g]
        after = [(h, comp[(h, g)]) for h in C.hom_from(t)]
        for f in C._into.get(s, ()):
            budget.spend(len(after))
            gf = comp[(g, f)]
            for h, hg in after:
                if comp[(h, gf)] != comp[(hg, f)]:
                    raise NotACategory(
                        "associativity fails on (%r, %r, %r)" % (h, g, f))
        generators.append(g)
        gens_from[s].append(g)
        budget.spend(len(reached_into[s]))
        fresh = [comp[(g, v)] for v in reached_into[s]]
        while fresh:
            w = fresh.pop()
            if w not in reached:
                reached.add(w)
                reached_into[mors[w][1]].append(w)
                budget.spend(len(gens_from[mors[w][1]]))
                fresh.extend(comp[(g2, w)] for g2 in gens_from[mors[w][1]])
    return generators


def closure_and_cancellation_by_pairs(C, left_class, right_class):
    """The composition-closure and left-cancellation verdicts of
    verify_system for the given class memberships, each the first
    counterexample or None, looking up every composable pair in the
    compose table one at a time."""
    comp, out = C.compose_table, {}
    for key, cls in (("composition-closure-left", left_class),
                     ("composition-closure-right", right_class)):
        res = None
        for f in C.morphism_ids():
            if not cls[f]:
                continue
            for g in C.hom_from(C.tgt(f)):
                if cls[g] and not cls[comp[(g, f)]]:
                    res = (g, f)
                    break
            if res is not None:
                break
        out[key] = res
    cancel = None
    for u in C.morphism_ids():
        for v in C.hom_from(C.tgt(u)):
            if right_class[v] and right_class[comp[(v, u)]] and not right_class[u]:
                cancel = (v, u)
                break
        if cancel is not None:
            break
    out["left-cancellation"] = cancel
    return out


def verify_system_two_runs(fac, fac_alt, in_left, in_right, universe,
                           budget):
    """verify_system as it was with a second factoriser ``fac_alt``: middle
    uniqueness asks for exactly one iso between the two middles that
    carries the first run's legs onto the second's, and an alternate run
    that does not compose to its input raises FactorizerContractViolation.
    The other axioms are verify_system's."""
    report = verify_system(fac, in_left, in_right, universe, budget=budget)
    C, comp = universe, universe.compose_table
    uniqueness = None
    for m in C.morphism_ids():
        a, mid, b = fac(m)
        a2, mid2, b2 = fac_alt(m)
        if C.compose(b2, a2) != m:
            raise FactorizerContractViolation(
                "alternate factorizer of %r does not compose to the input"
                % (m,))
        comparisons = [phi for phi in C.hom(mid, mid2)
                       if C.is_iso(phi) and comp[(phi, a)] == a2
                       and C.compose(b2, phi) == b]
        if len(comparisons) != 1:
            uniqueness = (m, len(comparisons))
            break
    report.axioms["middle-uniqueness"] = uniqueness
    return report


def iso_onto_universe_by_seed(M, rings, seed, budget):
    """A bijective hom from M onto some universe ring, and that ring: seed 0
    takes the first of each, other seeds shuffle the candidate rings and
    rotate among the isos."""
    cands = [R for R in rings if R.size == M.size]
    if seed:
        random.Random(seed).shuffle(cands)
    for C in cands:
        isos = [h for h in enumerate_homs(M, C, budget) if h.is_bijective()]
        if isos:
            return isos[seed % len(isos)], C
    raise InvalidSpec("no universe ring isomorphic to %s" % M.name)


def seeded_system_factorizer(system, universe, seed, budget):
    """factorize, checked, with its middle carried onto the universe ring
    that iso_onto_universe_by_seed picks, in morphism ids."""
    rings = list(universe.rings.values())
    index = {(m[0], m[1], h.mapping): m for m, h in universe.payload.items()}

    def fac(mor_id):
        u = universe.payload[mor_id]
        F = factorize(u, system, budget)
        iso, C = iso_onto_universe_by_seed(F.middle, rings, seed, budget)
        return (index[(u.source.name, C.name, F.left.then(iso).mapping)],
                C.name,
                index[(C.name, u.target.name,
                       inverse_hom(iso).then(F.right).mapping)])

    return fac


def verify_ring_system_two_runs(system, rings, alt_seed, budget):
    """The ring axiom battery as two runs: the factoriser under seed 0 and
    again under ``alt_seed``, each factorisation checked by factorize."""
    universe = ring_universe(rings, budget)
    in_left, in_right = class_predicates(system, universe)
    return verify_system_two_runs(
        seeded_system_factorizer(system, universe, 0, budget),
        seeded_system_factorizer(system, universe, alt_seed, budget),
        in_left, in_right, universe, budget)


def all_functors_by_backtracking(C, D):
    """Every functor C -> D: each object map in turn, then each image of the
    non-identity morphisms, re-checking the whole compose table at every
    candidate, and validating every result."""
    out = []
    mor_ids = [m for m in C.morphism_ids() if not C.is_identity(m)]
    for objs in itertools.product(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, objs))
        mor_map = {C.identities[x]: D.identities[obj_map[x]] for x in C.objects}

        def assign(i):
            if i == len(mor_ids):
                out.append(Functor(C, D, dict(obj_map), dict(mor_map), check=False))
                return
            m = mor_ids[i]
            s, t = C.morphisms[m]
            for cand in D.hom(obj_map[s], obj_map[t]):
                mor_map[m] = cand
                if all(D.compose(mor_map[g], mor_map[f]) == mor_map[h]
                       for (g, f), h in C.compose_table.items()
                       if g in mor_map and f in mor_map and h in mor_map):
                    assign(i + 1)
                del mor_map[m]

        assign(0)
    for F in out:
        F.validate(Budget(10 ** 10))
    return out


def then(F, G):
    """The functor G after F."""
    return Functor(F.source, G.target,
                   {x: G.obj_map[y] for x, y in F.obj_map.items()},
                   {m: G.mor_map[n] for m, n in F.mor_map.items()},
                   check=False)


def comma_by_pairs(F, d, side, budget=None):
    """catfib.comma by scanning every pair of objects (c, g), (c', g') and
    every h: c -> c' for the arrows of the comma; the scan is charged
    nothing."""
    budget = budget if budget is not None else Budget()
    C, D = F.source, F.target
    if d not in set(D.objects):
        raise InvalidSpec("anchor %r is not an object of %s" % (d, D.name))
    if side not in ("d/F", "F/d"):
        raise InvalidSpec("comma side must be 'd/F' or 'F/d'")
    objects = []
    for c in C.objects:
        fc = F.on_obj(c)
        arrows = D.hom(d, fc) if side == "d/F" else D.hom(fc, d)
        objects.extend((c, g) for g in arrows)
    morphisms = {}
    for (c, g) in objects:
        for (c2, g2) in objects:
            for h in C.hom(c, c2):
                if side == "d/F":
                    ok = D.compose(F.on_mor(h), g) == g2
                else:
                    ok = D.compose(g2, F.on_mor(h)) == g
                if ok:
                    morphisms[((c, g), (c2, g2), h)] = ((c, g), (c2, g2))
    cat, proj = _over(C, objects, morphisms, "%s%s%s" % (
        d, "/" if side == "d/F" else "\\", F.name), budget)
    return CommaCategory(F, d, side, cat, proj)


def connected_components(C):
    """Zig-zag components of the objects of a FinCat, each sorted by
    ``_key`` and least member first."""
    parent = {x: x for x in C.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m, (s, t) in C.morphisms.items():
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[max(rs, rt, key=_key)] = min(rs, rt, key=_key)
    groups = {}
    for x in C.objects:
        groups.setdefault(find(x), []).append(x)
    comps = [sorted(v, key=_key) for v in groups.values()]
    return sorted(comps, key=lambda comp: _key(comp[0]))


def comma_components_by_category(F, d, side, budget=None):
    """catfib.comma_components by building the comma category pair by pair
    and taking its connected components."""
    return connected_components(comma_by_pairs(F, d, side, budget).category)


def elements_category_by_triples(elem, budget):
    """The category of elements of a comprehensive factorisation's middle,
    from its presheaf's values and action, testing every pair of elements
    and every arrow of the base between them at one step each."""
    D, side, action = elem.base, elem.side, elem.action
    objects = [(d, x) for d in D.objects for x in elem.values[d]]
    morphisms = {}
    for (d, x) in objects:
        for (d2, x2) in objects:
            for m in D.hom(d, d2):
                budget.spend()
                if side == "right":
                    ok = action[(m, x2)] == x
                else:
                    ok = action[(m, x)] == x2
                if ok:
                    morphisms[((d, x), (d2, x2), m)] = ((d, x), (d2, x2))
    return _over(D, objects, morphisms, elem.category.name, budget)[0]


def lifts_uniquely_by_scan(F, end):
    """catfib._lifts_uniquely scanning every morphism id of the target for
    the arrows whose ``end`` is each F(e)."""
    E, C = F.source, F.target
    end_E, end_C = getattr(E, end), getattr(C, end)
    lifts = Counter((end_E(m), F.on_mor(m)) for m in E.morphism_ids())
    return all(lifts[(e, g)] == 1 for e in E.objects
               for g in C.morphism_ids() if end_C(g) == F.on_obj(e))


def fingerprint(a):
    """A functor's images, in its source's order of objects and morphisms,
    or a ring hom's mapping."""
    if isinstance(a, Functor):
        return (tuple(a.obj_map[x] for x in a.source.objects),
                tuple(a.mor_map[m] for m in a.source.morphism_ids()))
    return a.mapping


def concrete_tables_by_composing_maps(objects, object_key, hom_fn, compose_fn,
                                      identity_fn):
    """(morphisms, identities, compose, payload) of a category of concrete
    maps: every composable pair is composed as maps by ``compose_fn(g, f)``
    and matched back to an enumerated arrow (src_key, tgt_key, index) by its
    fingerprint, as is the map ``identity_fn(x)``."""
    keys = {x: object_key(x) for x in objects}
    arrows, lookup = {}, {}
    for x in objects:
        for y in objects:
            for i, a in enumerate(hom_fn(x, y)):
                mid = (keys[x], keys[y], i)
                arrows[mid] = a
                lookup[(keys[x], keys[y], fingerprint(a))] = mid
    identities = {keys[x]: lookup[(keys[x], keys[x],
                                   fingerprint(identity_fn(x)))]
                  for x in objects}
    compose = {}
    for g in arrows:
        for f in arrows:
            if f[1] == g[0]:
                h = compose_fn(arrows[g], arrows[f])
                compose[(g, f)] = lookup[(f[0], g[1], fingerprint(h))]
    return ({mid: mid[:2] for mid in arrows}, identities, compose, arrows)


def concrete_category_by_pairs(objects, object_key, hom_fn, positions, budget,
                               name=""):
    """fincat.concrete_category one composable pair at a time: each
    composite is f's image tuple read through g's, charged one step and
    looked up in its hom set."""
    keys = [object_key(x) for x in objects]
    arrows, images, homs = {}, {}, {}
    for x, kx in zip(objects, keys):
        for y, ky in zip(objects, keys):
            hom = homs[(kx, ky)] = {}
            for i, a in enumerate(hom_fn(x, y)):
                mid = (kx, ky, i)
                arrows[mid] = a
                images[mid] = image = tuple(positions(a))
                if hom.setdefault(image, mid) != mid:
                    raise NotACategory("hom set %r -> %r lists one arrow "
                                       "twice" % (kx, ky))
    identities = {}
    for k in keys:
        hom = homs[(k, k)]
        unit = tuple(range(len(next(iter(hom), ()))))
        if unit not in hom:
            raise NotACategory("identity of %r missing from hom enumeration"
                               % (k,))
        identities[k] = hom[unit]
    into = {}
    for mid in arrows:
        into.setdefault(mid[1], []).append(mid)
    compose = {}
    for g, image in images.items():
        place = image.__getitem__
        for f in into.get(g[0], ()):
            budget.spend()
            mid = homs[(f[0], g[1])].get(tuple(map(place, images[f])))
            if mid is None:
                raise NotACategory(
                    "composite of enumerated arrows missing from enumeration "
                    "(%r after %r)" % (g, f))
            compose[(g, f)] = mid
    return FinCat(keys, morphisms={mid: mid[:2] for mid in arrows},
                  identities=identities, compose=compose, payload=arrows,
                  name=name, budget=budget)


def is_hom_by_full_scan(A, B, f):
    """Whether the tuple f is a unital hom A -> B, testing + and * on every
    pair of elements of A."""
    if len(f) != A.size or any(not (0 <= v < B.size) for v in f):
        return False
    if f[A.one] != B.one:
        return False
    return all(f[A.add[x][y]] == B.add[f[x]][f[y]] and
               f[A.mul[x][y]] == B.mul[f[x]][f[y]]
               for x in A.elements() for y in A.elements())


def hom_mappings_by_full_scan(A, B):
    """The sorted mappings of every unital hom A -> B: each choice of
    generator images, extended along A's generation sequence, kept when the
    full scan accepts it."""
    gens = list(dict.fromkeys(A.generators))
    out = set()
    for choice in itertools.product(range(B.size), repeat=len(gens)):
        images = dict(zip(gens, choice))
        f = [None] * A.size
        clash = False
        for e, op in A.generation_sequence():
            tag = op[0]
            if tag == "zero":
                f[e] = B.zero
            elif tag == "one":
                f[e] = B.one
            elif tag == "gen":
                clash = clash or f[e] not in (None, images[op[1]])
                f[e] = images[op[1]]
            elif tag == "neg":
                f[e] = B.neg[f[op[1]]]
            elif tag == "add":
                f[e] = B.add[f[op[1]]][f[op[2]]]
            else:
                f[e] = B.mul[f[op[1]]][f[op[2]]]
        if not clash and is_hom_by_full_scan(A, B, tuple(f)):
            out.add(tuple(f))
    return sorted(out)


def validate_axioms_by_light(names, add, mul, zero, one):
    """FinRing.validate_axioms by Light's test, on n x n tables of elements:
    the ring axioms, refused with NotARing and a counterexample as
    validate_axioms words it, and S, zero plus a greedy generating set of
    (R, +), returned.  Associativity and distributivity are tested once per
    element and per member of S, n^2 |S| steps."""
    n = len(names)
    A = tuple(tuple(row) for row in add)
    M = tuple(tuple(row) for row in mul)
    for x in range(n):
        if A[x][zero] != x:
            raise NotARing("zero is not additively neutral at %s" % names[x])
        if M[x][one] != x:
            raise NotARing("one is not multiplicatively neutral at %s" % names[x])
        if zero not in A[x]:
            raise NotARing("no additive inverse for %s" % names[x])
        for y in range(n):
            if A[x][y] != A[y][x]:
                raise NotARing("addition not commutative at (%s, %s)"
                               % (names[x], names[y]))
            if M[x][y] != M[y][x]:
                raise NotARing("multiplication not commutative at (%s, %s)"
                               % (names[x], names[y]))

    def first_miss(lhs, rhs):
        return next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)

    # Light's test: the a with (x+a)+y = x+(a+y) for all x, y form a
    # submagma, which holds everything reachable from zero by adding
    # members of S; each member is tested as it joins
    S, reached = [zero], {zero}
    for a in range(n):
        if a in reached:
            continue
        Aa = A[a]
        for x in range(n):
            Ax = A[x]
            rhs = tuple(map(Ax.__getitem__, Aa))
            if A[Ax[a]] != rhs:
                raise NotARing("addition not associative at (%s, %s, %s)"
                               % (names[x], names[a],
                                  names[first_miss(A[Ax[a]], rhs)]))
        S.append(a)
        todo = list(reached)
        while todo:
            r = A[todo.pop()]
            for s in S:
                if r[s] not in reached:
                    reached.add(r[s])
                    todo.append(r[s])
    # the s with x(s+z) = xs + xz for all x, z are closed under +
    for s in S[1:]:
        As = A[s]
        for x in range(n):
            Mx = M[x]
            lhs = tuple(map(Mx.__getitem__, As))
            rhs = tuple(map(A[Mx[s]].__getitem__, Mx))
            if lhs != rhs:
                raise NotARing("distributivity fails at (%s, %s, %s)"
                               % (names[x], names[s],
                                  names[first_miss(lhs, rhs)]))
    for x, y, z in itertools.product(S, repeat=3):
        if M[M[x][y]][z] != M[x][M[y][z]]:
            raise NotARing("multiplication not associative at (%s, %s, %s)"
                           % (names[x], names[y], names[z]))
    return tuple(S)


def validate_axioms_by_maps(names, add, mul, zero, one):
    """FinRing.validate_axioms with each row composition made by ``map``
    over one row at a time: the same spanning tree, checks and messages.
    Refuses with NotARing and returns S."""
    n = len(names)
    if n == 0:
        raise NotARing("empty carrier")
    A = tuple(tuple(row) for row in add)
    M = tuple(tuple(row) for row in mul)
    carrier = set(range(n))
    for table, label in ((A, "add"), (M, "mul")):
        if len(table) != n or any(len(row) != n for row in table):
            raise NotARing("%s table is not %dx%d" % (label, n, n))
        if not carrier.issuperset(itertools.chain.from_iterable(table)):
            v = next(v for row in table for v in row if v not in carrier)
            raise NotARing("%s table entry %r out of range" % (label, v))
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
    # reached.
    S, reached, tree = [zero], {zero}, []
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
        for s in S[1:]:
            As = A[s]
            lhs = tuple(map(Aa.__getitem__, As))
            rhs = tuple(map(As.__getitem__, Aa))
            if lhs != rhs:
                # a + (s + z) != s + (a + z), so one of them is not
                # (a + s) + z = (s + a) + z
                z = first_miss(lhs, rhs)
                if lhs[z] != A[A[a][s]][z]:
                    raise breaks("addition not associative", a, s, z)
                raise breaks("addition not associative", s, a, z)
        S.append(a)
        todo = list(reached)
        while todo:
            r = todo.pop()
            Ar = A[r]
            for s in S:
                x = Ar[s]
                if x not in reached:
                    rhs = tuple(map(Ar.__getitem__, A[s]))
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
        for t in S[1:]:
            lhs = tuple(map(Ms.__getitem__, A[t]))
            rhs = tuple(map(A[Ms[t]].__getitem__, Ms))
            if lhs != rhs:
                raise breaks("distributivity fails", s, t,
                             first_miss(lhs, rhs))
    for x, r, s in tree:
        # row x holds y(r + s), the sum holds yr + ys
        rhs = tuple(map(getitem, map(A.__getitem__, M[r]), M[s]))
        if M[x] != rhs:
            raise breaks("distributivity fails", first_miss(M[x], rhs),
                         r, s)
    # a commutative biadditive product is associative when it is so on
    # additive generators, since (xy)z - x(yz) is additive in each place
    for x, y, z in itertools.product(S, repeat=3):
        if M[M[x][y]][z] != M[x][M[y][z]]:
            raise breaks("multiplication not associative", x, y, z)
    return tuple(S)


def zmod_tables_by_comprehension(n):
    """(add, mul) of Z/n, each cell computed by its own expression."""
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [[(i * j) % n for j in range(n)] for i in range(n)])


def gf_tables_by_horner(p, k):
    """(add, mul) of F_(p^k) by Horner's rule: element b = b0 + p*r stands
    for the polynomial b0 + x*r, so every row of both tables follows from
    rows of smaller elements."""
    n = p ** k
    modpoly = least_irreducible(p, k)
    top = n // p
    add = [list(range(n))]
    for a in range(1, n):
        lo = [(a % p + c) % p for c in range(p)]
        add.append([c + p * h for h in add[a // p][:top] for c in lo])
    scal = [[0] * n]
    for c in range(1, p):
        scal.append([add[v][a] for a, v in enumerate(scal[-1])])
    # x^k reduced by the modulus, then x*c by one shift and one reduction
    xk = sum((-m) % p * p ** i for i, m in enumerate(modpoly[:k]))
    xmul = [add[p * (c % top)][scal[c // top][xk]] for c in range(n)]
    mul = []
    for a in range(n):
        sa = [scal[c][a] for c in range(p)]
        row = [0]
        for b in range(1, n):
            row.append(add[sa[b % p]][xmul[row[b // p]]])
        mul.append(row)
    return add, mul


def quotient_tables_by_comprehension(A, I):
    """(add, mul) of A/I for a nonzero ideal I, cosets numbered in order of
    their least members, each cell looked up through the representatives."""
    coset_of = [None] * A.size
    reps = []
    for x in A.elements():
        if coset_of[x] is not None:
            continue
        members = sorted(A.add[x][i] for i in I.elements)
        reps.append(members[0])
        for m in members:
            coset_of[m] = len(reps) - 1
    n = len(reps)
    return ([[coset_of[A.add[reps[i]][reps[j]]] for j in range(n)]
             for i in range(n)],
            [[coset_of[A.mul[reps[i]][reps[j]]] for j in range(n)]
             for i in range(n)])


def annihilator_kernel_by_closure(A, S):
    """The elements of A killed by some member of the multiplicative
    closure of S, which is grown from {1} and S by products."""
    out = {A.one}
    frontier = [A.one]
    for s in S:
        if s not in out:
            out.add(s)
            frontier.append(s)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            p = A.mul[x][y]
            if p not in out:
                out.add(p)
                frontier.append(p)
    return frozenset(a for a in A.elements()
                     if any(A.mul[s][a] == A.zero for s in out))


def generation_sequence_by_rounds(A):
    """FinRing.generation_sequence with every round run in full, the last
    one after every element is known included."""
    known = {}
    order = []

    def learn(e, op):
        if e not in known:
            known[e] = op
            order.append(e)
            return True
        return False

    learn(A.zero, ("zero",))
    learn(A.one, ("one",))
    for g in A.generators:
        learn(g, ("gen", g))
    changed = True
    while changed:
        changed = False
        snapshot = list(order)
        for x in snapshot:
            if learn(A.neg[x], ("neg", x)):
                changed = True
            for y in snapshot:
                if learn(A.add[x][y], ("add", x, y)):
                    changed = True
                if learn(A.mul[x][y], ("mul", x, y)):
                    changed = True
    if len(order) != A.size:
        raise InvalidSpec(
            "generators %r do not generate %s" % (list(A.generators), A.name))
    return tuple((e, known[e]) for e in order)


def ideal_generated_by_closure(A, gens):
    """The elements of the smallest ideal of A containing gens: every
    multiple r g of a generator, closed under addition breadth first."""
    seed = {A.zero}
    for g in gens:
        for r in A.elements():
            seed.add(A.mul[r][g])
    out = set(seed)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for y in seed:
                s = A.add[x][y]
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(out)


def product_tables_by_tuple_index(factors):
    """(add, mul, names, zero, one) of the product ring, each cell found by
    looking up the tuple of the factors' results in an index of all
    element tuples."""
    combos = list(itertools.product(*[range(f.size) for f in factors]))
    index = {c: i for i, c in enumerate(combos)}

    def zip_op(tables, a, b):
        return index[tuple(t[x][y] for t, x, y in zip(tables, a, b))]

    add = [[zip_op([f.add for f in factors], a, b) for b in combos]
           for a in combos]
    mul = [[zip_op([f.mul for f in factors], a, b) for b in combos]
           for a in combos]
    names = ["(%s)" % ",".join(f.names[c] for f, c in zip(factors, combo))
             for combo in combos]
    return (add, mul, names, index[tuple(f.zero for f in factors)],
            index[tuple(f.one for f in factors)])


def warshall_closure(n, pairs):
    """The reflexive and transitive closure of the relation ``pairs`` on
    0..n-1, as an n x n boolean matrix, by Warshall's algorithm."""
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                row, rowk = rel[i], rel[k]
                for j in range(n):
                    if rowk[j]:
                        row[j] = True
    return rel


class WarshallPoset:
    """The poset of a generating relation on an n x n boolean matrix: a
    Warshall closure, then a scan for antisymmetry; covers found by testing
    every middle element, and bounds by scanning every element."""

    def __init__(self, elements, pairs=()):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidSpec("duplicate poset elements")
        pos = {x: i for i, x in enumerate(self.elements)}
        n, pairs = len(self.elements), list(pairs)
        if any(x not in pos or y not in pos for x, y in pairs):
            raise InvalidSpec("relation pair outside the element list")
        rel = warshall_closure(n, [(pos[x], pos[y]) for x, y in pairs])
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    raise InvalidSpec(
                        "not antisymmetric: %r and %r compare both ways"
                        % (self.elements[i], self.elements[j]))
        self._pos = pos
        self._rel = rel

    def le(self, x, y):
        return self._rel[self._pos[x]][self._pos[y]]

    def lt(self, x, y):
        return x != y and self.le(x, y)

    def order_pairs(self):
        return [(x, y) for i, x in enumerate(self.elements)
                for j, y in enumerate(self.elements) if self._rel[i][j]]

    def hasse_edges(self):
        return [(x, y) for x in self.elements for y in self.elements
                if self.lt(x, y) and
                not any(self.lt(x, z) and self.lt(z, y) for z in self.elements)]

    def meet(self, x, y):
        lower = [z for z in self.elements if self.le(z, x) and self.le(z, y)]
        best = [z for z in lower if all(self.le(w, z) for w in lower)]
        return best[0] if best else None

    def join(self, x, y):
        upper = [z for z in self.elements if self.le(x, z) and self.le(y, z)]
        best = [z for z in upper if all(self.le(z, w) for w in upper)]
        return best[0] if best else None


class RelationPoset:
    """A finite poset over hashable labels, built from a generating
    relation: ``pairs`` may be any subrelation whose closure is intended,
    and a cycle through two distinct elements is refused.  The relation is
    sorted topologically with ``graphlib`` and closed into up-set and
    down-set bitmasks by Purdom's closure in that order; ``budget`` pays
    one step per element and generating pair first.  The package's Poset
    takes the up-set masks themselves."""

    def __init__(self, elements, pairs, budget):
        budget.spend(len(elements) + len(pairs))
        self.elements = list(elements)
        pos = {x: i for i, x in enumerate(self.elements)}
        if len(pos) != len(self.elements):
            raise InvalidSpec("duplicate poset elements")
        above, below = [[] for _ in pos], [[] for _ in pos]
        for x, y in pairs:
            if x not in pos or y not in pos:
                raise InvalidSpec("relation pair outside the element list")
            if x != y:
                above[pos[x]].append(pos[y])
                below[pos[y]].append(pos[x])
        try:
            # every element after the elements directly above it
            order = list(TopologicalSorter(dict(enumerate(above)))
                         .static_order())
        except CycleError as err:
            i, j = err.args[1][:2]
            raise InvalidSpec("not antisymmetric: %r and %r compare both ways"
                              % (self.elements[i], self.elements[j])) from None
        self._pos = pos
        self.up = _purdom_close(order, above)
        self.down = _purdom_close(reversed(order), below)

    @property
    def size(self):
        return len(self.elements)

    def le(self, x, y):
        return bool(self.up[self._pos[x]] >> self._pos[y] & 1)

    def order_pairs(self):
        """All (x, y) with x <= y, reflexive pairs included, element order."""
        els = self.elements
        return [(x, els[j]) for x, up in zip(els, self.up) for j in _bits(up)]

    def hasse_edges(self):
        """Covering pairs only, x < y with nothing strictly between, in
        element order: the transitive reduction of the up-set masks."""
        els, up = self.elements, self.up
        out = []
        for i, x in enumerate(els):
            strict = up[i] ^ 1 << i
            far = 0
            for z in _bits(strict):
                far |= up[z] ^ 1 << z
            out.extend((x, els[j]) for j in _bits(strict & ~far))
        return out


def _purdom_close(order, succ):
    """Purdom's closure: bit i OR'd with the masks of succ[i], built first."""
    masks = [0] * len(succ)
    for i in order:
        mask = 1 << i
        for j in succ[i]:
            mask |= masks[j]
        masks[i] = mask
    return masks


def op(P, budget):
    """The poset P with its order reversed."""
    return Poset(P.down, budget)


def order_isomorphism(P, Q, budget):
    """A bijection preserving and reflecting order, or None.

    Backtracking over elements sorted by (|downset|, |upset|) signature;
    candidates restricted to matching signatures, so antichains cost little
    despite their n! symmetries.
    """
    if P.size != Q.size:
        return None

    def signatures(poset):
        return [(down.bit_count(), up.bit_count())
                for down, up in zip(poset.down, poset.up)]

    def le(poset, x, y):
        return poset.up[x] >> y & 1

    psig, qsig = signatures(P), signatures(Q)
    if sorted(psig) != sorted(qsig):
        return None
    order = sorted(range(P.size), key=psig.__getitem__)

    assigned = {}
    used = set()

    def extend(k):
        if k == len(order):
            return True
        x = order[k]
        for y in range(Q.size):
            if y in used or qsig[y] != psig[x]:
                continue
            budget.spend()
            if any(le(P, x0, x) != le(Q, y0, y) or le(P, x, x0) != le(Q, y, y0)
                   for x0, y0 in assigned.items()):
                continue
            assigned[x] = y
            used.add(y)
            if extend(k + 1):
                return True
            del assigned[x]
            used.discard(y)
        return False

    return dict(assigned) if extend(0) else None


def anti_isomorphism(P, Q, budget):
    """An order-reversing bijection P -> Q, or None."""
    return order_isomorphism(P, op(Q, budget), budget)


def split_by_sorting(values):
    """(delta, tau) injective after surjective with delta . tau = values,
    recomputed on every call."""
    image = sorted(set(values))
    pos = {v: i for i, v in enumerate(image)}
    return tuple(image), tuple(pos[v] for v in values)


def monotone_ops(k, n):
    """Value tuples of all monotone maps [k] -> [n]."""
    return [tuple(v) for v in
            itertools.combinations_with_replacement(range(n + 1), k + 1)]


def surjective_ops_by_filter(k, n):
    """The monotone surjections [k] -> [n], filtered from all monotone maps."""
    return [v for v in monotone_ops(k, n) if len(set(v)) == n + 1]


def elementary_ops(X, n):
    """The cofaces into [n], and the codegeneracies out of [n + 1] when
    n + 1 is inside X's truncation."""
    ops = []
    if n >= 1:
        ops.extend(coface(n, i) for i in range(n + 1))
    if n + 1 <= X.dim:
        ops.extend(codegeneracy(n, j) for j in range(n + 1))
    return ops


def image_simplices(f, n):
    """The image under f of every n-simplex of its source."""
    return {f.apply(x) for x in f.source.simplices(n)}


def act_by_recursion(X, x, alpha):
    """X(alpha) applied to the simplex x of the simplicial set X, recomputed
    on every call: beta = sigma.alpha splits as a surjection after an
    injection, and the injection is pushed down through the stored face
    opposite its largest missing vertex."""
    sigma, ref = x
    delta, tau = split_by_sorting(compose_ops(sigma, alpha))
    rho, w = _injection_by_recursion(X, ref, delta)
    return (compose_ops(rho, tau), w)


def _injection_by_recursion(X, ref, delta):
    m, j = ref
    if is_identity_op(delta) and len(delta) == m + 1:
        return (identity_op(m), ref)
    missing = max(i for i in range(m + 1) if i not in delta)
    face = X.faces_tbl[(m, j, missing)]
    delta2 = tuple(v if v < missing else v - 1 for v in delta)
    return act_by_recursion(X, face, delta2)


def act_by_composite_table(X, x, alpha, table):
    """X(alpha) applied to x as ``FinSSet.act`` read it when its table was
    keyed by the whole composite: ``table`` maps (cell c, beta) to
    beta*c for beta = sigma.alpha, and a miss splits beta, pushes its
    injection down through the stored face opposite its largest missing
    vertex, and stores the entries of the faces it passes."""
    sigma, ref = x
    beta = compose_ops(sigma, alpha)
    hit = table.get((ref, beta))
    if hit is None:
        delta, tau = split_by_sorting(beta)
        m, j = ref
        if is_identity_op(delta) and len(delta) == m + 1:
            rho, w = identity_op(m), ref
        else:
            missing = max(i for i in range(m + 1) if i not in delta)
            rho, w = act_by_composite_table(
                X, X.faces_tbl[(m, j, missing)],
                tuple(v if v < missing else v - 1 for v in delta), table)
        hit = table[ref, beta] = (compose_ops(rho, tau), w)
    return hit


def deg_ndeg_by_rounds(f, rng, budget):
    """The collapse factorisation one cell per round: each round picks a
    cell whose image is degenerate (at random under ``rng``, else the
    first), glues it along its degeneracy with one quotient, and rebuilds
    the right leg on the quotient."""
    M = f.source
    left = identity_smap(M)
    g = f
    while True:
        bad = [ref for ref in M.cells()
               if not g.target.is_nondeg_simplex(g.assignment[ref])]
        if not bad:
            break
        ref = bad[rng.randrange(len(bad))] if rng is not None else bad[0]
        sigma, _w = g.assignment[ref]
        pairs = []
        for k in range(M.dim + 1):
            groups = {}
            for alpha in monotone_ops(k, ref[0]):
                groups.setdefault(compose_ops(sigma, alpha), []).append(alpha)
            y = M.cell_simplex(ref)
            for alphas in groups.values():
                first = M.act(y, alphas[0])
                for alpha in alphas[1:]:
                    pairs.append((first, M.act(y, alpha)))
        M2, proj = quotient_by_pairs(M, pairs, budget)
        images = {}
        for r in M.cells():
            images.setdefault(proj.assignment[r], set()).add(g.assignment[r])
        g2ass = {}
        for ref2 in M2.cells():
            found = images.get(M2.cell_simplex(ref2), set())
            if len(found) != 1:
                raise FactorizerContractViolation(
                    "collapse identified cells with distinct images")
            g2ass[ref2] = found.pop()
        g = SimplicialMap(M2, f.target, g2ass)
        left = left.then(proj)
        M = M2
    budget.spend(len(f.assignment))
    if not is_nondegenerate_map(g):
        raise FactorizerContractViolation(
            "collapse of %r: right leg is degenerate" % f)
    if left.then(g).assignment != f.assignment:
        raise FactorizerContractViolation(
            "collapse of %r: legs do not compose to it" % f)
    return Factorization(left, M, g)


def deg_ndeg_by_one_quotient(f, budget=None):
    """The collapse factorisation as one quotient of the source by every
    simplex pair it glues, listing the simplices up to the truncation.

    A cell c with f(c) = sigma*(w), sigma not the identity, must be glued
    along sigma: c.alpha ~ c.alpha' whenever sigma.alpha = sigma.alpha'.
    These pairs are closed under the simplicial action, so one quotient by
    them is the middle, and its right leg is read off the classes.  A map
    with no degenerate image is its own right leg.  The legs are checked at
    the end, one step per cell of the source.
    """
    budget = ensure_budget(budget)
    M, left, g = f.source, identity_smap(f.source), f
    pairs = []
    for ref in M.cells():
        sigma, _w = f.assignment[ref]
        if is_identity_op(sigma):
            continue
        y = M.cell_simplex(ref)
        for k in range(M.dim + 1):
            groups = {}
            for alpha in monotone_ops(k, ref[0]):
                groups.setdefault(compose_ops(sigma, alpha), []).append(alpha)
            for alphas in groups.values():
                first = M.act(y, alphas[0])
                pairs.extend((first, M.act(y, a)) for a in alphas[1:])
    if pairs:
        M, left = quotient_by_pairs(f.source, pairs, budget)
        # the images under f of the cells that each cell of M carries
        images = {}
        for r, x in left.assignment.items():
            images.setdefault(x, set()).add(f.assignment[r])
        gass = {}
        for ref in M.cells():
            found = images.get(M.cell_simplex(ref), set())
            if len(found) != 1:
                raise FactorizerContractViolation(
                    "collapse identified cells with distinct images")
            gass[ref] = found.pop()
        g = SimplicialMap(M, f.target, gass)
    budget.spend(len(f.assignment))
    if not is_nondegenerate_map(g):
        raise FactorizerContractViolation(
            "collapse of %r: right leg is degenerate" % f)
    if left.then(g).assignment != f.assignment:
        raise FactorizerContractViolation(
            "collapse of %r: legs do not compose to it" % f)
    return Factorization(left, M, g)


def quotient_by_pairs(M, pairs, budget):
    """Quotient by the simplicial congruence generated by the pairs.

    The generating set is closed under the simplicial action (callers
    arrange that), so a union-find over raw simplices is the whole
    computation; what remains is re-expressing every class as a surjection
    applied to a nondegenerate class.  A class that an elementary operator
    splits, or that has two such presentations (EZ uniqueness fails),
    raises FactorizerContractViolation.
    """
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in pairs:
        union(a, b)

    # group simplices by class; the congruence must commute with every
    # elementary operator, which is trivial on a class's representative
    classes, members = {}, {}
    for n in range(M.dim + 1):
        row = {}
        for x in M.simplices(n):
            budget.spend()
            c = find(x)
            if c != x:
                for alpha in elementary_ops(M, n):
                    if find(M.act(x, alpha)) != find(M.act(c, alpha)):
                        raise FactorizerContractViolation(
                            "congruence not stable under the simplicial action")
            row.setdefault(c, []).append(x)
        members.update(row)
        classes[n] = sorted(row)

    # the class of each degeneracy of each class: the classes it hits are
    # the degenerate ones, and it presents them below
    deg = {(c, j): find(M.degeneracy(c, j))
           for n in range(M.dim) for c in classes[n] for j in range(n + 1)}
    deg_hits = set(deg.values())

    labels = {}
    ref_of_class = {}
    for n in range(M.dim + 1):
        row = []
        for c in classes[n]:
            if c in deg_hits:
                continue
            named = sorted(M.cell_label(x[1]) for x in members[c]
                           if M.is_nondeg_simplex(x))
            ref_of_class[c] = (n, len(row))
            row.append(named[0])
        if row:
            labels[n] = row

    # express every class as surjection . nondegenerate-class, uniquely
    simplex_of_class = {c: (identity_op(r[0]), r)
                        for c, r in ref_of_class.items()}
    for n in range(M.dim):
        results = {}
        for c2 in classes[n]:
            rho, w = simplex_of_class[c2]
            for j in range(n + 1):
                c = deg[(c2, j)]
                if c not in ref_of_class:
                    results.setdefault(c, set()).add(
                        (compose_ops(rho, codegeneracy(n, j)), w))
        for c, found in results.items():
            if len(found) != 1:
                raise FactorizerContractViolation(
                    "EZ presentation of a collapsed class is not unique: %r"
                    % (found,))
            simplex_of_class[c] = found.pop()

    faces = {(n, jj, i): simplex_of_class[find(M.face(c, i))]
             for c, (n, jj) in ref_of_class.items() if n
             for i in range(n + 1)}
    M2 = FinSSet(M.dim, labels, faces, name=M.name + "/~", budget=budget)

    proj_ass = {}
    for ref in M.cells():
        proj_ass[ref] = simplex_of_class[find(M.cell_simplex(ref))]
    return M2, SimplicialMap(M, M2, proj_ass)


def sset_cover_check_by_simplices(X, family, mode, budget=None):
    """raw: jointly surjective on vertices; delta-nis: every simplex lifts;
    decided by listing the simplices of X and of each member's image."""
    budget = ensure_budget(budget)
    for gmap in family:
        if gmap.target is not X:
            raise InvalidFamily("family member does not land in %s" % X.name)
        if not is_nondegenerate_map(gmap):
            raise InvalidFamily("family members must keep cells nondegenerate")
    if mode == "raw":
        need = set(X.simplices(0))
        got = set()
        for gmap in family:
            got |= image_simplices(gmap, 0)
        missing = sorted(need - got)
        if missing:
            return CoverResult("raw", False,
                               {"uncovered_vertex": X.cell_label(missing[0][1])})
        return CoverResult("raw", True, {"vertices": len(need)})
    if mode == "delta-nis":
        lifted = 0
        for n in range(X.dim + 1):
            images = [image_simplices(gmap, n) for gmap in family]
            for x in X.simplices(n):
                budget.spend()
                if not any(x in im for im in images):
                    return CoverResult("delta-nis", False,
                                       {"unlifted_simplex": [n, list(x[0]),
                                                             X.cell_label(x[1])]})
                lifted += 1
        return CoverResult("delta-nis", True, {"simplices_lifted": lifted})
    raise InvalidSpec("unknown sset cover mode %r" % (mode,))


def classifying_map(X, x):
    """The checked map out of a standard simplex that picks out x, its
    cell labelled by vertices v_0 < .. < v_k going to x acted on by that
    tuple.  Labels are read one digit per vertex, which holds for
    simplices of dimension at most 9."""
    sigma, ref = x
    n = len(sigma) - 1
    D = delta(n, dim=X.dim, budget=X.budget)
    ass = {}
    for (k, j) in D.cells():
        vals = tuple(int(c) for c in D.labels[k][j])
        ass[(k, j)] = X.act(x, vals)
    return SimplicialMap(D, X, ass, name="classify-%s" % str(x))


def self_lift_by_simplices(X, budget=None):
    """Whether the identity factors through a member of every cover.

    Because covers are closed under refinement by single cells, it is
    enough to look for a section of one classifying map, inside its fibers;
    retracts of a standard simplex are again standard simplices.  The
    fibers are built over every simplex up to the truncation.
    """
    budget = ensure_budget(budget)
    for ref in reversed(X.cells()):
        gmap = classifying_map(X, X.cell_simplex(ref))
        fiber = {}
        for n in range(X.dim + 1):
            for z in gmap.source.simplices(n):
                fiber.setdefault(gmap.apply(z), []).append(z)
            if any(x not in fiber for x in X.simplices(n)):
                break
        else:
            sections = _face_compatible(
                X, gmap.source, lambda r: fiber[X.cell_simplex(r)],
                budget)
            if next(sections, None) is not None:
                return True
    return False


def sset_isomorphic(X, Y, budget):
    """A dimension-wise bijection on cells preserving faces, or None: the
    first assignment of X's cells to Y's cells of their dimension that
    commutes with faces and is one to one."""
    if sorted(X.labels) != sorted(Y.labels) or \
            any(len(X.labels[n]) != len(Y.labels[n]) for n in X.labels):
        return None
    found = _face_compatible(
        X, Y, lambda ref: [Y.cell_simplex((ref[0], j))
                           for j in range(len(Y.labels[ref[0]]))], budget)
    ass = next((a for a in found if len(set(a.values())) == len(a)), None)
    return None if ass is None else SimplicialMap(X, Y, ass, check=False)


def is_standard_simplex_by_every_dimension(X, budget):
    """Whether X is isomorphic to Δ[n] for some n up to its top dimension,
    trying each n."""
    return any(sset_isomorphic(X, delta(n, dim=X.dim, budget=budget), budget)
               is not None for n in range(X.top_dim + 1))


def element_has_retraction(A, a):
    """Whether A -> A[1/a] admits a retraction, from the localisation."""
    L, proj = localize(A, [a])
    return L.size == A.size and proj.is_bijective()


def ideal_has_retraction(A, I):
    """Whether A -> A/I admits a retraction, from the quotient ring."""
    Q, proj = quotient_ring(A, I)
    return Q.size == A.size and proj.is_bijective()


def zar_self_lift_by_rings(A):
    """The zar self-lift decider on a localisation ring per element."""
    sectionless = [a for a in A.elements() if not element_has_retraction(A, a)]
    return zar_combination_certificate(A, sectionless, Budget()) is None


def dom_self_lift_by_rings(A, budget):
    """The dom self-lift decider on a quotient ring per ideal."""
    sectionless = [I for I in all_ideals(A, budget)
                   if not ideal_has_retraction(A, I)]
    return not cover_check(A, sectionless, "dom", budget=budget).covers


def integral_elements(u, budget):
    """Monic-dependency witnesses for every element of the target.

    Returns {element: coeff_tuple} where the tuple (c_0, ..., c_{d-1}) of
    image elements encodes x^d + c_{d-1} x^{d-1} + ... + c_0 vanishing at
    the element.  In a finite ring the powers of b repeat, b^i == b^j with
    i < j, so x^j - x^i is a witness with coefficients 0 and -1, which lie
    in every unital image.
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


def is_integral_map_by_witnesses(u, budget):
    """Every target element admits a monic dependency over the image, each
    witness re-evaluated."""
    wit = integral_elements(u, budget)
    return all(check_monic_witness(u, b, w) for b, w in wit.items())


def is_integrally_closed_map_by_witnesses(u, budget):
    """Injective, and every element with a witness lies in the image."""
    if not u.is_injective():
        return False
    image = set(u.mapping)
    return all(b in image for b in integral_elements(u, budget))


def classify_ring_by_scans(A, budget):
    """classify_ring as one scan per property, each with its own zero-ring
    case, and the fraction-field embedding tested by monic witnesses."""
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

    if is_domain:
        K, toK = localize(A, nonzero)
        icd = is_integrally_closed_map_by_witnesses(toK, budget)
        if not icd:
            wit["is_integrally_closed_domain"] = "embedding not closed"
    else:
        icd = False
        wit["is_integrally_closed_domain"] = wit.get("is_domain", "not a domain")

    return RingClassification(is_field, is_fat, is_local, is_domain, icd, wit)


def nfin_cover_by_member_loops(A, homs, field_bound, budget):
    """cover_check(A, homs, "nfin") routing each hom h to a catalogue
    field by trying the members in turn, listing a member's homs into the
    field again for every h."""
    fin = cover_check(A, homs, "fin", budget=budget)
    if not fin.covers:
        return fin._replace(topology="nfin")
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
                       {"fiber_member": fin.certificate["fiber_member"],
                        "field_routing": factoring})


def poset_meet(P, x, y):
    """The greatest lower bound of x and y in the Poset P, or None
    when the pair has none."""
    return _top(P, P.down, x, y)


def poset_join(P, x, y):
    return _top(P, P.up, x, y)


def _top(P, masks, x, y):
    # the common bound whose own mask is all of the common bounds
    common = masks[x] & masks[y]
    return next((z for z in range(P.size)
                 if common >> z & 1 and masks[z] == common), None)


def check_lattice_by_triples(P, meet, join):
    """Whether meet[x][y] and join[x][y] are the meets and joins of a
    distributive lattice on P's elements 0..n-1 with P's order: every
    lattice law tested on each pair and triple, and each cell against the
    bounds poset_meet and poset_join find."""
    idx = range(P.size)
    for x in idx:
        if meet[x][x] != x or join[x][x] != x:
            return False
        for y in idx:
            m, j = meet[x][y], join[x][y]
            if m != meet[y][x] or j != join[y][x] or join[x][m] != x or \
                    meet[x][j] != x or (P.up[x] >> y & 1) != (m == x) or \
                    poset_meet(P, x, y) != m or poset_join(P, x, y) != j:
                return False
            for z in idx:
                if m != meet[m][m] or \
                        meet[m][z] != meet[x][meet[y][z]] or \
                        join[j][z] != join[x][join[y][z]] or \
                        meet[x][join[y][z]] != join[m][meet[x][z]]:
                    return False
    return True


def radical(I):
    """The elements with a power in I, each found by walking its powers
    until they enter I or cycle."""
    A = I.ring
    out = set()
    for x in A.elements():
        p = x
        seen = set()
        while p not in seen:
            seen.add(p)
            if p in I.elements:
                out.add(x)
                break
            p = A.mul[p][x]
    return Ideal(A, frozenset(out))


def prime_ideals_by_units(A):
    """One prime per primitive idempotent e: (1 - e)A plus the non-units of
    eA, found by scanning eA for an inverse of each element."""
    primes = []
    for e in primitive_idempotents(A):
        co = A.sub(A.one, e)
        comp = ideal_generated(A, [co]).elements
        factor = sorted({A.mul[e][x] for x in A.elements()})
        unit_in_factor = {x for x in factor
                          if any(A.mul[x][y] == e for y in factor)}
        nonunits = [x for x in factor if x not in unit_in_factor]
        elems = {A.add[c][x] for c in comp for x in nonunits}
        primes.append(Ideal(A, frozenset(elems)))
    uniq = {p.elements: p for p in primes}
    return sorted(uniq.values(), key=lambda p: p.sorted_elements())


def recognize_ring_by_factors(R, budget):
    """R's name from the types of its local factors eR, each read off the
    factor's own elements: its order, the additive order of e, and its
    nilpotents; R's order charged per factor."""
    types = []
    for e in primitive_idempotents(R):
        budget.spend(R.size)
        factor = set(R.mul[e])
        order, x = 1, e
        while x != R.zero:
            x = R.add[x][e]
            order += 1
        nilpotent = 0
        for x in factor:
            for _ in range(R.size.bit_length()):
                x = R.mul[x][x]
            nilpotent += x == R.zero
        rank = 0 if order == len(factor) else 1 if nilpotent == 1 else 2
        types.append((rank, len(factor), len(factor) // nilpotent))
    return recognize_ring(types)


def points_of(A):
    """The points of A: one per prime ideal, carried by its residue hom.
    Every system and topology has these same points."""
    return [(p, quotient_ring(A, p)[1]) for p in prime_ideals(A)]


def spec_points_by_stalks(A, topology):
    """The point report with each stalk built as a ring, the localization
    away from the prime for zar and the quotient by it otherwise, and named
    from its own local factors."""
    budget = Budget(10 ** 10)
    primes, rows = prime_ideals_by_units(A), []
    for p in primes:
        if topology == "zar":
            ring, _h = localize(A, [x for x in A.elements()
                                    if x not in p.elements])
        else:
            ring, _h = quotient_ring(A, p)
        rows.append({"prime": p.label(),
                     "stalk": recognize_ring_by_factors(ring, budget),
                     "stalk_size": ring.size})
    order = [(i, j) for i, p in enumerate(primes) for j, q in enumerate(primes)
             if p.elements <= q.elements]
    return Spectrum(RelationPoset(range(len(primes)), order, budget),
                    {"base": A.name, "topology": topology}, rows,
                    [row["prime"] for row in rows], "points", {}).as_json()


def _lattice_report(kind, A, labels, rings, order, meet, join):
    """The JSON report of a lattice from its (x, y)-keyed tables, each
    element's ring named from its own local factors."""
    budget = Budget(10 ** 10)
    n = len(labels)
    rows = [{"label": label, "ring": recognize_ring_by_factors(R, budget),
             "size": R.size} for label, R in zip(labels, rings)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return Spectrum(RelationPoset(range(n), order, budget),
                    {"kind": kind, "base": A.name}, rows, labels,
                    "%s_lattice" % kind,
                    {"meet": [[i, j, meet[i, j]] for i, j in pairs],
                     "join": [[i, j, join[i, j]] for i, j in pairs]}
                    ).as_json()


def zar_lattice_by_kernels(A):
    """The zar lattice report: a localization is matched by its annihilator
    kernel, a meet by the kernel of ef, and a join by the kernel of the
    elements that both localizations invert, found by scanning A."""
    idems = sorted(A.idempotents())
    labels, rings, homs = [], [], []
    by_kernel = {}
    for i, e in enumerate(idems):
        L, h = localize(A, [e])
        kernel = frozenset(h.kernel_elements())
        assert kernel not in by_kernel, "distinct idempotents share a kernel"
        labels.append("invert(%s)" % A.names[e])
        rings.append(L)
        homs.append(h)
        by_kernel[kernel] = i
    order = [(x, y) for x, e in enumerate(idems) for y, f in enumerate(idems)
             if A.mul[e][f] == e]
    meet, join = {}, {}
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
    return _lattice_report("zar", A, labels, rings, order, meet, join)


def zar_tables_by_idempotents(A):
    """The zar lattice's order, meet and join as its report lists them,
    read from idempotent arithmetic: invert(e) <= invert(f) when ef = e,
    and their meet and join invert ef and e + f - ef."""
    idems = sorted(A.idempotents())
    index = {e: i for i, e in enumerate(idems)}
    pairs = [(x, e, y, f) for x, e in enumerate(idems)
             for y, f in enumerate(idems)]
    return {"order": [[x, y] for x, e, y, f in pairs if A.mul[e][f] == e],
            "meet": [[x, y, index[A.mul[e][f]]] for x, e, y, f in pairs],
            "join": [[x, y, index[A.sub(A.add[e][f], A.mul[e][f])]]
                     for x, e, y, f in pairs]}


def complement_witness_by_radicals(A):
    """The zar-dom duality as pairs of labels: invert(e) keeps the primes
    without e, so its complement is the set of primes with e, whose
    intersection is the radical of the ideal eA."""
    return [("invert(%s)" % A.names[e],
             "mod%s" % radical(ideal_generated(A, [e])).label())
            for e in sorted(A.idempotents())]


def dom_lattice_by_radicals(A):
    """The dom lattice report: the radical ideals filtered from all_ideals,
    a meet as the radical of the ideal two of them generate, a join as
    their intersection."""
    rads = [I for I in all_ideals(A, Budget(10 ** 10))
            if radical(I).elements == I.elements]
    rads.sort(key=lambda I: (len(I.elements), I.sorted_elements()))
    labels = ["mod%s" % I.label() for I in rads]
    rings = [quotient_ring(A, I)[0] for I in rads]
    by_ideal = {I.elements: i for i, I in enumerate(rads)}
    order = [(x, y) for x, I in enumerate(rads) for y, J in enumerate(rads)
             if J.elements <= I.elements]
    meet, join = {}, {}
    for x, I in enumerate(rads):
        for y, J in enumerate(rads):
            s = ideal_generated(A, sorted(I.elements | J.elements))
            meet[x, y] = by_ideal[radical(s).elements]
            join[x, y] = by_ideal[I.elements & J.elements]
    return _lattice_report("dom", A, labels, rings, order, meet, join)


def recognize_ring_by_candidates(R, budget):
    """The name of the first of Z/n, F_n and the binary products of those
    whose local factor types R's match, or ring-of-order-n; charges R's
    order per local factor and the trial divisions of prime_power."""
    n = R.size
    if n == 1:
        return "0"
    types = sorted(_local_type_z_or_f(R, e, budget)
                   for e in primitive_idempotents(R))
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


def _local_type_z_or_f(R, e, budget):
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
