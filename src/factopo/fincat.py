"""Finite categories with tabulated composition.

Everything else in the package treats this module as the correctness
backstop: lifting problems are decided by exhaustive scans over hom sets,
and factorisation systems are checked axiom by axiom inside an explicitly
enumerated universe.
"""

import itertools
import operator
from typing import NamedTuple

from .budget import ensure_budget
from .errors import FactorizerContractViolation, InvalidSpec, NotACategory
from .finring import _through
from .posets import Poset
from .reader import CATEGORY, read

# f(x) as one C call on every Python; operator.call is new in 3.11
_call = getattr(operator, "call", None) or (lambda f, x: f(x))
# what a row holds where the compose table has no entry
_GAP = object()


def _key(x):
    # stable total order for mixed hashable ids
    return repr(x)


class FinCat:
    """Category with finite object and morphism sets and an explicit compose table.

    ``morphisms`` maps a morphism id to its (src, tgt) pair, ``identities``
    maps each object to its identity morphism, and ``compose`` maps the
    composable pair (g, f) to g after f; the category keeps that dict
    rather than a copy, so that a large table is never held twice.
    ``payload`` optionally attaches concrete data (a ring hom, a functor,
    ...) to each morphism id.  The kept ``budget`` pays for validation and
    for the isomorphisms found later.
    """

    def __init__(self, objects, morphisms, identities, compose,
                 payload=None, name="", budget=None):
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)
        self.identities = dict(identities)
        self.compose_table = compose
        self.payload = dict(payload) if payload else {}
        self.name = name
        self.budget = ensure_budget(budget)
        self._isos = None
        self._ids = tuple(sorted(self.morphisms, key=_key))
        mors, hom = self.morphisms, {}
        for m in self._ids:
            hom.setdefault(mors[m], []).append(m)
        self._hom = {xy: tuple(ms) for xy, ms in hom.items()}
        # arrows out of (into) each object, by the rank of their other end
        rank = {x: i for i, x in enumerate(self.objects)}
        self._from, self._into = {}, {}
        for end, index in ((1, self._from), (0, self._into)):
            arrows = {}
            for m in sorted(self._ids, key=lambda m: rank.get(mors[m][end], -1)):
                arrows.setdefault(mors[m][1 - end], []).append(m)
            index.update((x, tuple(ms)) for x, ms in arrows.items())
        self.validate()

    def src(self, m):
        return self.morphisms[m][0]

    def tgt(self, m):
        return self.morphisms[m][1]

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def morphism_ids(self):
        return self._ids

    def compose(self, g, f):
        """g after f; raises NotACategory if the pair is not composable."""
        if self.tgt(f) != self.src(g):
            raise NotACategory("morphisms %r and %r are not composable" % (g, f))
        return self.compose_table[(g, f)]

    def is_identity(self, m):
        return self.identities.get(self.src(m)) == m and self.src(m) == self.tgt(m)

    def is_iso(self, m):
        return m in self._isomorphisms()

    def _isomorphisms(self):
        """The m with some g composing with it to identities both ways,
        found once, one step per compose entry."""
        if self._isos is None:
            self.budget.spend(len(self.compose_table))
            comp, ids = self.compose_table, set(self.identities.values())
            self._isos = frozenset(m for (g, m), h in comp.items()
                                   if h in ids and comp[(m, g)] in ids)
        return self._isos

    def validate(self):
        budget = self.budget
        objset = set(self.objects)
        if len(objset) != len(self.objects):
            raise NotACategory("duplicate object ids")
        for m, (s, t) in self.morphisms.items():
            if s not in objset or t not in objset:
                raise NotACategory("morphism %r has endpoint outside the object set" % (m,))
        for x in self.objects:
            i = self.identities.get(x)
            if i is None or i not in self.morphisms:
                raise NotACategory("object %r has no identity morphism" % (x,))
            if self.morphisms[i] != (x, x):
                raise NotACategory("identity of %r is not an endomorphism of it" % (x,))
        # row[f] holds the composites gf for g in hom_from(tgt f), in that
        # order, and each must run from src f to tgt g; when every row does
        # and the rows hold as many entries as the table, the table's keys
        # are exactly the composable pairs
        mors, comp, rows, ends = self.morphisms, self.compose_table, {}, {}
        lookup, total = comp.get, 0
        for f in self._ids:
            s, t = mors[f]
            out = self._from.get(t, ())
            if budget.used + len(out) > budget.limit:
                # a bad entry is refused before the row that crosses the cap
                self._check_entries()
            budget.spend(len(out))
            row = rows[f] = list(map(lookup, zip(out, itertools.repeat(f)),
                                     itertools.repeat(_GAP)))
            want = ends.get((s, t))
            if want is None:
                want = ends[(s, t)] = [(s, mors[g][1]) for g in out]
            if list(map(mors.get, row)) != want:
                # with every entry sound, the row disagrees at a gap
                self._check_entries()
                raise NotACategory("compose undefined on composable pair "
                                   "(%r, %r)" % (out[row.index(_GAP)], f))
            total += len(out)
        if total != len(comp):
            self._check_entries()
        self._rows = rows
        uses = dict.fromkeys(self._ids, 0)
        for row in rows.values():
            for h in row:
                uses[h] += 1
        for f in self._ids:
            s, t = mors[f]
            if comp[(self.identities[t], f)] != f:
                raise NotACategory("left unit law fails at %r" % (f,))
            if comp[(f, self.identities[s])] != f:
                raise NotACategory("right unit law fails at %r" % (f,))
        # Light's test: the middles g with h(gf) = (hg)f for all composable
        # h, f contain the identities (unit laws) and are closed under
        # composition, so testing generators suffices: each morphism not yet
        # reached becomes one, and left multiplication by them closes the
        # rest.  Rarely composite morphisms are tried first, since few
        # others reach them.  For a middle g: s -> t and each f into s,
        # row[gf] must be the (hg)f, read off row[f] at the places of the
        # hg in hom_from(s).
        reached, reached_into, gens_from, places = set(), {}, {}, {}
        for x in self.objects:
            i = self.identities[x]
            reached.add(i)
            reached_into[x], gens_from[x] = [i], []
        for g in sorted(self._ids, key=uses.__getitem__):
            if g in reached:
                continue
            s, t = mors[g]
            place = places.get(s)
            if place is None:
                place = places[s] = {m: i for i, m in enumerate(self._from[s])}
            at = [place[hg] for hg in rows[g]]
            for f in self._into.get(s, ()):
                budget.spend(len(at))
                row = rows[f]
                hg_f = [row[i] for i in at]
                h_gf = rows[comp[(g, f)]]
                if hg_f != h_gf:
                    h = next(h for h, x, y in zip(self.hom_from(t), hg_f, h_gf)
                             if x != y)
                    raise NotACategory(
                        "associativity fails on (%r, %r, %r)" % (h, g, f))
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

    def _check_entries(self):
        """Refuse the first compose entry, in table order, with an unknown
        morphism, a non-composable pair or a composite with wrong ends."""
        mors = self.morphisms
        for (g, f), h in self.compose_table.items():
            if f not in mors or g not in mors or h not in mors:
                raise NotACategory("compose entry (%r, %r) -> %r uses unknown morphisms" % (g, f, h))
            if mors[f][1] != mors[g][0]:
                raise NotACategory("compose entry for non-composable pair (%r, %r)" % (g, f))
            if mors[h] != (mors[f][0], mors[g][1]):
                raise NotACategory("composite of (%r, %r) has wrong endpoints" % (g, f))

    def hom_from(self, x):
        return self._from.get(x, ())

    def hom_into(self, x):
        return self._into.get(x, ())

    def op(self):
        mors = {m: (t, s) for m, (s, t) in self.morphisms.items()}
        comp = {(f, g): h for (g, f), h in self.compose_table.items()}
        return FinCat(self.objects, mors, dict(self.identities), comp,
                      payload=self.payload, name=self.name + "^op",
                      budget=self.budget)

    def __repr__(self):
        return "FinCat(%s: %d objects, %d morphisms)" % (
            self.name or "?", len(self.objects), len(self.morphisms))


def validate_fincat(raw, budget=None):
    """Build a FinCat from plain data, raising NotACategory on the first bad law.

    ``raw`` uses the file layout: objects, morphisms as {id, src, tgt} rows,
    identities keyed by object, compose as [g, f, h] triples.
    """
    budget = ensure_budget(budget)
    read(raw, CATEGORY, NotACategory)
    objects = raw["objects"]
    budget.spend(len(objects))
    # JSON forces string keys, so identities for non-string objects arrive
    # stringified; remap a key to the unique object it spells, if any
    objset, by_repr = set(objects), {}
    for obj in objects:
        by_repr.setdefault(str(obj), []).append(obj)
    identities = {}
    for key, value in raw["identities"].items():
        if key not in objset and len(by_repr.get(key, ())) == 1:
            key = by_repr[key][0]
        identities[key] = value
    morphisms = {}
    for row in raw["morphisms"]:
        if row["id"] in morphisms:
            raise NotACategory("duplicate morphism id %r" % (row["id"],))
        morphisms[row["id"]] = (row["src"], row["tgt"])
    compose = {}
    for g, f, h in raw["compose"]:
        if (g, f) in compose:
            raise NotACategory("duplicate compose entry (%r, %r)" % (g, f))
        compose[(g, f)] = h
    return FinCat(objects, morphisms, identities, compose,
                  name=raw.get("name", ""), budget=budget)


class Functor:
    def __init__(self, source, target, obj_map, mor_map, name="", check=True):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self.name = name
        if check:
            self.validate(source.budget)

    def validate(self, budget):
        """This functor, or NotACategory unless it keeps endpoints,
        identities and composites; one step per morphism and compose entry
        of the source."""
        C, D = self.source, self.target
        budget.spend(len(C.morphisms) + len(C.compose_table))
        targets = set(D.objects)
        for x in C.objects:
            if self.obj_map.get(x) not in targets:
                raise NotACategory("functor misses object %r" % (x,))
        for m, (s, t) in C.morphisms.items():
            fm = self.mor_map.get(m)
            if fm is None or fm not in D.morphisms:
                raise NotACategory("functor misses morphism %r" % (m,))
            if D.morphisms[fm] != (self.obj_map[s], self.obj_map[t]):
                raise NotACategory("functor breaks endpoints on %r" % (m,))
        for x in C.objects:
            if self.mor_map[C.identities[x]] != D.identities[self.obj_map[x]]:
                raise NotACategory("functor breaks the identity at %r" % (x,))
        for (g, f), h in C.compose_table.items():
            if D.compose(self.mor_map[g], self.mor_map[f]) != self.mor_map[h]:
                raise NotACategory("functor breaks composition on (%r, %r)" % (g, f))
        return self

    def on_obj(self, x):
        return self.obj_map[x]

    def on_mor(self, m):
        return self.mor_map[m]

    def op(self):
        return Functor(self.source.op(), self.target.op(),
                       self.obj_map, self.mor_map, name=self.name + "^op",
                       check=False)

    def __repr__(self):
        return "Functor(%s: %s -> %s)" % (self.name or "?",
                                          self.source.name, self.target.name)


def identity_functor(C):
    return Functor(C, C, {x: x for x in C.objects},
                   {m: m for m in C.morphisms}, name="id", check=False)


# ---------------------------------------------------------------------------
# small builders used all over the test suites

def poset_category(elements, le_pairs, budget, name=""):
    """Category of a poset given the pairs of its order, reflexive ones
    optional; Poset refuses them unless transitive and antisymmetric."""
    pos = {x: i for i, x in enumerate(elements)}
    if len(pos) != len(elements):
        raise InvalidSpec("duplicate poset elements")
    up = [1 << i for i in range(len(elements))]
    for a, b in le_pairs:
        if a not in pos or b not in pos:
            raise InvalidSpec("relation pair outside the element list")
        up[pos[a]] |= 1 << pos[b]
    morphisms = {("le", elements[i], elements[j]): (elements[i], elements[j])
                 for i, j in Poset(up, budget).order_pairs()}
    identities = {x: ("le", x, x) for x in elements}
    compose = {}
    for (g, (b1, c)) in morphisms.items():
        for (f, (a, b2)) in morphisms.items():
            if b2 == b1:
                compose[(g, f)] = ("le", a, c)
    return FinCat(elements, morphisms, identities, compose,
                  name=name or "poset", budget=budget)


def terminal_category(budget):
    return poset_category([0], [], budget, name="[0]")


def chain_category(n, budget):
    return poset_category(list(range(n + 1)),
                          itertools.combinations(range(n + 1), 2), budget,
                          name="[%d]" % n)


def monoid_category(elements, table, unit, budget, name=""):
    """One-object category from a monoid multiplication table (table[a][b] = a*b)."""
    obj = "*"
    idx = {e: i for i, e in enumerate(elements)}
    morphisms = {("m", e): (obj, obj) for e in elements}
    compose = {}
    for a in elements:
        for b in elements:
            compose[(("m", a), ("m", b))] = ("m", table[idx[a]][idx[b]])
    return FinCat([obj], morphisms, {obj: ("m", unit)}, compose,
                  name=name or "monoid", budget=budget)


def concrete_category(objects, object_key, hom_fn, positions, budget,
                      name=""):
    """Tabulate a category whose arrows are concrete maps.

    ``hom_fn(x, y)`` lists the arrows x -> y; ``positions(a)`` gives a as
    the tuple of the positions that the source's places go to among the
    target's, so g after f is f's tuple read through g's and an identity is
    (0, 1, ..., k - 1).  A hom set listing one tuple twice is refused.
    Arrow ids are (src_key, tgt_key, index); the payload keeps the arrows.
    """
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
    # the arrows into each object, by source in arrow order, with the
    # getters that read an image at their places: g after f is f's getter
    # applied to g's image, so g after every f from one source is one C loop
    into = {}
    for mid, image in images.items():
        fs, getters = into.setdefault(mid[1], {}).setdefault(mid[0], ([], []))
        fs.append(mid)
        getters.append(_through(image))
    compose = {}
    for g, image in images.items():
        y, z = g[:2]
        for x, (fs, getters) in into.get(y, {}).items():
            row = list(map(homs[(x, z)].get,
                           map(_call, getters, itertools.repeat(image))))
            if None in row or budget.used + len(row) > budget.limit:
                # one step per pair, so that a missing composite and the
                # step that crosses the cap are met in the order of the pairs
                for f, h in zip(fs, row):
                    budget.spend()
                    if h is None:
                        raise NotACategory(
                            "composite of enumerated arrows missing from "
                            "enumeration (%r after %r)" % (g, f))
            else:
                budget.spend(len(row))
            compose.update(zip(zip(itertools.repeat(g), fs), row))
    return FinCat(keys, morphisms={mid: mid[:2] for mid in arrows},
                  identities=identities, compose=compose, payload=arrows,
                  name=name, budget=budget)


# ---------------------------------------------------------------------------
# lifting problems

def is_orthogonal(u, f, ambient, budget=None):
    """True iff every commuting square from u to f has exactly one diagonal:
    for each top P -> U and bottom N -> X with f top = bottom u, exactly one
    ell: N -> U has ell u = top and f ell = bottom."""
    budget = ensure_budget(budget)
    C, comp = ambient, ambient.compose_table
    P, N = C.src(u), C.tgt(u)
    U, X = C.src(f), C.tgt(f)
    for top in C.hom(P, U):
        for bottom in C.hom(N, X):
            budget.spend()
            if comp[(f, top)] != comp[(bottom, u)]:
                continue
            lifts = 0
            for ell in C.hom(N, U):
                budget.spend()
                lifts += comp[(ell, u)] == top and comp[(f, ell)] == bottom
            if lifts != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# colimit search, needed for the codiagonal axiom

def pushout(C, f, g, budget):
    """Pushout of f: X -> A and g: X -> B inside C, or None when absent.

    Every cocone candidate is tested against the full universal property,
    so the answer is exact for the given universe.
    """
    if C.src(f) != C.src(g):
        raise NotACategory("pushout legs must share their source")
    A, B = C.tgt(f), C.tgt(g)
    comp, cocones = C.compose_table, []
    for P in C.objects:
        for iA in C.hom(A, P):
            for iB in C.hom(B, P):
                budget.spend()
                if comp[(iA, f)] == comp[(iB, g)]:
                    cocones.append((P, iA, iB))
    for (P, iA, iB) in cocones:
        universal = True
        for (Q, jA, jB) in cocones:
            budget.spend()
            mediators = [m for m in C.hom(P, Q)
                         if comp[(m, iA)] == jA and comp[(m, iB)] == jB]
            if len(mediators) != 1:
                universal = False
                break
        if universal:
            return (P, iA, iB)
    return None


# ---------------------------------------------------------------------------
# factorisation-system verification

PASS = "pass"
FAIL = "fail"


class AxiomResult(NamedTuple):
    status: str
    counterexample: object = None


class SystemReport(NamedTuple):
    """Axiom-by-axiom verdicts for a candidate factorisation system."""
    axioms: dict

    def ok(self):
        return all(r.status != FAIL for r in self.axioms.values())

    def failures(self):
        return {k: r for k, r in self.axioms.items() if r.status == FAIL}


def _verdict(counterexamples):
    """An axiom's verdict: fail with its first counterexample, if any."""
    for x in counterexamples:
        return AxiomResult(FAIL, x)
    return AxiomResult(PASS)


def verify_system(fac, in_left, in_right, universe, budget=None):
    """Check the factorisation-system axioms over every morphism of the universe.

    ``fac(m)`` must return a Factorization (left, middle, right) with both
    legs morphisms of the universe; it is called once per morphism.
    ``in_left`` / ``in_right`` are membership predicates on morphism ids.
    A composite mismatch raises FactorizerContractViolation; everything
    else lands in the report, so a leg outside its class is the
    ``class-membership`` failure.
    Middle uniqueness asks that exactly one automorphism of the middle fix
    both legs.  That is the count of comparisons with any isomorphic copy
    of the factorisation: if m = b'a' with a' = ja and b' = bj^-1 for an
    iso j, then phi -> theta = j^-1 phi maps the isos phi with phi a = a'
    and b' phi = b one to one onto the automorphisms theta with
    theta a = a and b theta = b, with inverse theta -> j theta.  So a
    second, differently enumerated run of the factoriser could never give
    another verdict.
    Composites of pairs drawn from hom sets are read off the compose table,
    and the closure and cancellation scans read them off the universe's
    rows, one step for each pair (g, f) they scan with g in the class.
    """
    budget = ensure_budget(budget)
    C = universe
    mors = C.morphism_ids()
    comp = C.compose_table
    left_class = {}
    right_class = {}
    for m in mors:
        budget.spend()
        left_class[m] = bool(in_left(m))
        right_class[m] = bool(in_right(m))

    factored = {}
    for m in mors:
        a, mid, b = fac(m)
        budget.spend()
        if a not in C.morphisms or b not in C.morphisms:
            raise FactorizerContractViolation(
                "factorizer of %r returned legs outside the universe" % (m,))
        if C.src(a) != C.src(m) or C.tgt(b) != C.tgt(m) or C.tgt(a) != mid or C.src(b) != mid:
            raise FactorizerContractViolation(
                "factorizer of %r returned legs with wrong endpoints" % (m,))
        if C.compose(b, a) != m:
            raise FactorizerContractViolation(
                "legs of %r compose to %r, not the input" % (m, C.compose(b, a)))
        factored[m] = (a, mid, b)

    # each axiom is the stream of its counterexamples, scanned up to the
    # first; the g in a class composable after f, and the composites gf,
    # are read off f's row
    def after_in(cls, f):
        gs = C.hom_from(C.tgt(f))
        keep = list(map(cls.__getitem__, gs))
        return (list(itertools.compress(gs, keep)),
                list(itertools.compress(C._rows[f], keep)))

    def unclosed(cls):
        for f in mors:
            if cls[f]:
                gs, gfs = after_in(cls, f)
                budget.spend(len(gs))
                closed = list(map(cls.__getitem__, gfs))
                if not all(closed):
                    yield gs[closed.index(False)], f

    def non_isos():
        for m in mors:
            if left_class[m] and right_class[m]:
                budget.spend()
                if not C.is_iso(m):
                    yield m

    def uncancelled():
        for u in mors:
            vs, vus = after_in(right_class, u)
            budget.spend(len(vs))
            cancelled = ([] if right_class[u]
                         else list(map(right_class.__getitem__, vus)))
            if True in cancelled:
                yield vs[cancelled.index(True)], u

    def unstable_codiagonals():
        for a in mors:
            if not left_class[a]:
                continue
            po = pushout(C, a, a, budget)
            if po is None:
                continue
            P, i1, i2 = po
            Y = C.tgt(a)
            mediators = [c for c in C.hom(P, Y)
                         if comp[(c, i1)] == C.identities[Y]
                         and comp[(c, i2)] == C.identities[Y]]
            if len(mediators) != 1 or not left_class[mediators[0]]:
                yield a

    def unfixed_middles():
        for m in mors:
            a, mid, b = factored[m]
            budget.spend()
            fixing = [theta for theta in C.hom(mid, mid)
                      if C.is_iso(theta)
                      and comp[(theta, a)] == a and comp[(b, theta)] == b]
            if len(fixing) != 1:
                yield m, len(fixing)

    return SystemReport({
        "class-membership": _verdict(
            (m, a, b) for m, (a, _mid, b) in factored.items()
            if not (left_class[a] and right_class[b])),
        "composition-closure-left": _verdict(unclosed(left_class)),
        "composition-closure-right": _verdict(unclosed(right_class)),
        "intersection-isomorphisms": _verdict(non_isos()),
        "left-cancellation": _verdict(uncancelled()),
        "codiagonal-stability": _verdict(unstable_codiagonals()),
        "middle-uniqueness": _verdict(unfixed_middles()),
    })


# ---------------------------------------------------------------------------
# functor search

def all_functors(C, D, budget):
    """Every functor C -> D, ordered by object images and then by the
    hom-set positions of the images of the non-identity morphisms.

    Backtracking gives those morphisms images one at a time, in
    ``morphism_ids`` order, and fixes an object's image with the first of
    them touching it; objects none touches are enumerated up front.  A
    composite h = gf comes right after its pair, with F(g)F(f) its only
    candidate.  Each compose entry of C is checked once, when its last
    member gets an image (Ullmann 1976); entries among identities hold by
    D's unit laws.  Looking ahead (Mackworth 1977), an entry with h and
    one of g, f mapped needs a completion in D.  Every candidate and
    every look-ahead test costs a step.
    """
    mor_ids = [m for m in C.morphism_ids() if not C.is_identity(m)]
    free = [x for x in C.objects
            if not any(x in C.morphisms[m] for m in mor_ids)]
    entries = {}
    for (g, f), h in C.compose_table.items():
        for m in {g, f, h}:
            entries.setdefault(m, []).append((g, f, h))
    steps, done = [], {C.identities[x] for x in free}
    todo = [(m, None) for m in reversed(mor_ids)]
    while todo:
        m, pair = todo.pop()
        if m in done:
            continue
        s, t = C.morphisms[m]
        new = [x for x in dict.fromkeys((s, t))
               if C.identities[x] not in done]
        done.update([m] + [C.identities[x] for x in new])
        mine = entries.get(m, [])
        checks = [e for e in mine
                  if e[:2] != pair and all(k in done for k in e)]
        # (0, f, h): some xF(f) is F(h); (1, g, h): some F(g)x is F(h)
        ahead = [(0, f, h) if f in done else (1, g, h)
                 for g, f, h in mine
                 if g != f and h in done and len({g, f} - done) == 1]
        steps.append((m, s, t, new, pair, checks, ahead))
        # the composites this step forces come next
        todo.extend((h, (g, f)) for g, f, h in mine
                    if g in done and f in done and h not in done)
    comp, solvable = D.compose_table, set()
    if any(step[6] for step in steps):
        for (x, y), z in comp.items():
            budget.spend()
            solvable.update(((0, y, z), (1, x, z)))
    endos = [c for c in D.morphism_ids() if D.src(c) == D.tgt(c)]
    obj_map, mor_map, out = {}, {}, []
    keys = [C.identities[x] for x in C.objects] + mor_ids

    def pool(i):
        s, t, new, pair = steps[i][1:5]
        if pair is not None:
            return (comp[(mor_map[pair[0]], mor_map[pair[1]])],)
        if s in new and t in new:
            return endos if s == t else D.morphism_ids()
        if s in new:
            return D.hom_into(obj_map[t])
        if t in new:
            return D.hom_from(obj_map[s])
        return D.hom(obj_map[s], obj_map[t])

    def functor():
        return Functor(C, D, {x: obj_map[x] for x in C.objects},
                       {m: mor_map[m] for m in keys}, check=False)

    for images in itertools.product(D.objects, repeat=len(free)):
        budget.spend()
        for x, y in zip(free, images):
            obj_map[x] = y
            mor_map[C.identities[x]] = D.identities[y]
        if not steps:
            out.append(functor())
            continue
        # depth first on a stack of one candidate iterator per step being
        # placed, so no recursion limit bounds the number of steps; every
        # read of obj_map or mor_map at a step is of an entry set earlier
        # on the current path, so backtracking only overwrites
        stack = [iter(pool(0))]
        while stack:
            i = len(stack) - 1
            m, s, t, new, _pair, checks, ahead = steps[i]
            for cand in stack[-1]:
                budget.spend()
                mor_map[m] = cand
                for x, y in zip((s, t), D.morphisms[cand]):
                    if x in new:
                        obj_map[x] = y
                        mor_map[C.identities[x]] = D.identities[y]
                if not all(comp[(mor_map[g], mor_map[f])] == mor_map[h]
                           for g, f, h in checks):
                    continue
                for kind, k, h in ahead:
                    budget.spend()
                    if (kind, mor_map[k], mor_map[h]) not in solvable:
                        break
                else:
                    break  # cand is placed
            else:
                stack.pop()
                continue
            if i + 1 == len(steps):
                out.append(functor())
            else:
                stack.append(iter(pool(i + 1)))
    obj_rank = {y: i for i, y in enumerate(D.objects)}
    hom_rank = {c: i for hom in D._hom.values() for i, c in enumerate(hom)}
    out.sort(key=lambda F: ([obj_rank[F.obj_map[x]] for x in C.objects],
                            [hom_rank[F.mor_map[m]] for m in mor_ids]))
    return out
