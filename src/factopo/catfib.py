"""Slice-style factorisations on finite categories.

Two systems live here: final functors followed by discrete right
fibrations, and initial functors followed by discrete left fibrations.
Comma categories drive everything; the comprehensive factorization routes
a functor through the category of elements of its connected-component
presheaf.
"""

from collections import Counter
from dataclasses import dataclass

from .budget import ensure_budget
from .errors import FactorizerContractViolation, InvalidFamily, InvalidSpec
from .fincat import (CoverResult, Factorization, FinCat, Functor, _key,
                     all_functors, concrete_category, identity_functor,
                     terminal_category)


@dataclass
class CommaCategory:
    ambient: Functor
    anchor: object
    side: str               # "d/F" or "F/d"
    category: FinCat
    projection: Functor     # down to the source of the ambient functor


def comma(F, d, side, budget=None):
    """Objects are pairs (c, arrow between d and F(c)); morphisms inherited.
    The category is built on ``budget``."""
    budget = ensure_budget(budget)
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


def _over(base, objects, morphisms, name, budget):
    """The category of ``objects`` (c, ...) and ``morphisms`` (s, t, h) over
    ``base``, composing the h there and built on ``budget``, and its
    projection to ``base``."""
    into = {}
    for m1, (_s1, t1) in morphisms.items():
        into.setdefault(t1, []).append(m1)
    identities = {o: (o, o, base.identities[o[0]]) for o in objects}
    compose = {}
    for m2, (s2, t2) in morphisms.items():
        for m1 in into.get(s2, ()):
            s1 = morphisms[m1][0]
            compose[(m2, m1)] = (s1, t2, base.compose(m2[2], m1[2]))
    cat = FinCat(objects, morphisms, identities, compose, name=name,
                 budget=budget)
    proj = Functor(cat, base, {o: o[0] for o in objects},
                   {m: m[2] for m in morphisms}, name="proj")
    return cat, proj


def connected_components(C):
    """Zig-zag components of the objects, canonical least id first."""
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


def is_final(F):
    """Every d/F comma category is nonempty and zig-zag connected."""
    return _commas_connected(F, "d/F")


def is_initial(F):
    """Every F/d comma category is nonempty and zig-zag connected."""
    return _commas_connected(F, "F/d")


def _commas_connected(F, side):
    for d in F.target.objects:
        K = comma(F, d, side, F.source.budget).category
        if len(connected_components(K)) != 1:
            return False
    return True


def is_discrete_right_fibration(F):
    """Every arrow into an F-image has exactly one lift with the given target."""
    return _lifts_uniquely(F, "tgt")


def is_discrete_left_fibration(F):
    """Every arrow out of an F-image has exactly one lift with the given source."""
    return _lifts_uniquely(F, "src")


def _lifts_uniquely(F, end):
    """Every arrow whose ``end`` ("src" or "tgt") is F(e) lifts to exactly
    one arrow with that end at e."""
    E, C = F.source, F.target
    end_E, end_C = getattr(E, end), getattr(C, end)
    lifts = Counter((end_E(m), F.on_mor(m)) for m in E.morphism_ids())
    return all(lifts[(e, g)] == 1 for e in E.objects
               for g in C.morphism_ids() if end_C(g) == F.on_obj(e))


def slice_factorize(C, c, side="right"):
    """Route the object inclusion through its slice or coslice.

    Right side: point at the identity object of C/c (terminal there) and
    project down, the projection being a discrete right fibration.  Left
    side dual through c/C with an initial object.
    """
    if side not in ("right", "left"):
        raise InvalidSpec("side must be 'right' or 'left'")
    idc = identity_functor(C)
    K = comma(idc, c, "F/d" if side == "right" else "d/F", C.budget)
    apex = (c, C.identities[c])
    cat = K.category
    T = terminal_category(C.budget)
    first = Functor(T, cat, {0: apex},
                    {("le", 0, 0): cat.identities[apex]},
                    name="pick-%s" % str(c))
    return Factorization(first, K, K.projection)


@dataclass
class ElementsCategory:
    base: FinCat
    side: str                   # "right" or "left"
    values: dict                # object of base -> tuple of component reps
    action: dict                # (base morphism, element) -> element
    category: FinCat
    projection: Functor


def comprehensive_factorize(F, side="right", budget=None):
    """Factor through the elements of the component presheaf.

    Right side: P(d) = components of d/F, acted on by precomposition;
    the functor lands at the component of the identity and the projection
    from the elements category is a discrete right fibration.  Left side
    uses F/d and postcomposition.  Both facts are checked on the result,
    one step per pair of an element and an arrow of D and per arrow of C.
    """
    budget = ensure_budget(budget)
    if side not in ("right", "left"):
        raise InvalidSpec("side must be 'right' or 'left'")
    C, D = F.source, F.target
    commaside = "d/F" if side == "right" else "F/d"
    comps = {}
    rep = {}
    for d in D.objects:
        K = comma(F, d, commaside, budget).category
        comps[d] = connected_components(K)
        rep[d] = {}
        for comp in comps[d]:
            for o in comp:
                rep[d][o] = comp[0]
    values = {d: tuple(comp[0] for comp in comps[d]) for d in D.objects}
    action = {}
    for m in D.morphism_ids():
        s, t = D.morphisms[m]
        if side == "right":
            # P(m): P(t) -> P(s), precompose the anchored arrow
            for x in values[t]:
                c, g = x
                action[(m, x)] = rep[s][(c, D.compose(g, m))]
        else:
            # Q(m): Q(s) -> Q(t), postcompose
            for x in values[s]:
                c, g = x
                action[(m, x)] = rep[t][(c, D.compose(m, g))]
    objects = [(d, x) for d in D.objects for x in values[d]]
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
    cat, proj = _over(D, objects, morphisms, "el(%s)" % F.name, budget)
    elem = ElementsCategory(D, side, values, action, cat, proj)
    first_obj = {}
    first_mor = {}
    for c in C.objects:
        fc = F.on_obj(c)
        first_obj[c] = (fc, rep[fc][(c, D.identities[fc])])
    for h, (c, c2) in C.morphisms.items():
        first_mor[h] = (first_obj[c], first_obj[c2], F.on_mor(h))
    first = Functor(C, cat, first_obj, first_mor,
                    name="unit-%s" % F.name)
    budget.spend(len(objects) * len(D.morphisms) + len(C.morphisms))
    what = "comprehensive factorisation of %s -> %s" % (C.name, D.name)
    if not _lifts_uniquely(proj, "tgt" if side == "right" else "src"):
        raise FactorizerContractViolation(
            what + ": projection is not a discrete %s fibration" % side)
    if any(proj.on_obj(first.on_obj(c)) != F.on_obj(c) for c in C.objects) or \
            any(proj.on_mor(first.on_mor(h)) != F.on_mor(h) for h in C.morphisms):
        raise FactorizerContractViolation(what + ": legs do not compose to it")
    return Factorization(first, elem, proj)


def right_cover_check(C, family):
    """Joint object-surjectivity of discrete right fibrations."""
    for G in family:
        if G.target is not C:
            raise InvalidFamily("family member does not land in %s" % C.name)
        if not is_discrete_right_fibration(G):
            raise InvalidFamily(
                "family member %r is not a discrete right fibration" % (G,))
    covered = set()
    for G in family:
        covered.update(G.on_obj(x) for x in G.source.objects)
    missing = [x for x in C.objects if x not in covered]
    if missing:
        return CoverResult("cat-right", False,
                           {"uncovered_object": str(missing[0])})
    return CoverResult("cat-right", True, {"objects": len(C.objects)})


def all_slices_cover(C):
    """The projections from every slice; always a cover."""
    return [slice_factorize(C, c, "right")[2] for c in C.objects]


def cat_universe(cats, budget=None):
    """Tabulate finitely many categories with all functors between them.

    Objects are named by each category's name (required unique); the
    payload carries the actual functors so lifting problems can be posed
    with the generic orthogonality machinery.  A functor A -> B composes as
    the positions, among B's objects and then B's ``morphism_ids``, of the
    images of A's objects and morphisms.
    """
    budget = ensure_budget(budget)
    names = [C.name for C in cats]
    if len(set(names)) != len(names):
        raise InvalidSpec("categories need distinct names to form a universe")
    places = {}
    for C in cats:
        objs = {x: i for i, x in enumerate(C.objects)}
        places[C.name] = objs, {m: len(objs) + i
                                for i, m in enumerate(C.morphism_ids())}

    def positions(F):
        objs, mors = places[F.target.name]
        return ([objs[F.obj_map[x]] for x in F.source.objects]
                + [mors[F.mor_map[m]] for m in F.source.morphism_ids()])

    return concrete_category(
        list(cats), lambda C: C.name,
        lambda A, B: all_functors(A, B, budget=budget), positions,
        name="cats", budget=budget)
