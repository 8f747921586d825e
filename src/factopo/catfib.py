"""Slice-style factorisations on finite categories.

Two systems live here: final functors followed by discrete right
fibrations, and initial functors followed by discrete left fibrations.
Finality and the comprehensive factorization read only the connected
components of comma categories, and those come straight from the hom sets,
one union per arrow of the comma; only ``slice_factorize`` builds a comma
category.  The comprehensive factorization routes a functor through the
category of elements of its connected-component presheaf.
"""

from collections import Counter
from typing import NamedTuple

from .budget import ensure_budget
from .errors import FactorizerContractViolation, InvalidFamily, InvalidSpec
from .fincat import (FinCat, Functor, _key, all_functors, concrete_category,
                     identity_functor, terminal_category)
from .posets import CoverResult, Factorization


class CommaCategory(NamedTuple):
    ambient: Functor
    anchor: object
    side: str               # "d/F" or "F/d"
    category: FinCat
    projection: Functor     # down to the source of the ambient functor


def _comma_cells(F, d, side, budget):
    """Each object (c, g) of d/F or F/d, c-major in hom-set order, with the
    arrows (source, target, h) of the comma that leave it (d/F) or enter it
    (F/d), one for each h of C out of (into) c: (c, g) -> (c', F(h) g), or
    (c, g' F(h)) -> (c', g').  One step per object and one per arrow."""
    C, D = F.source, F.target
    if d not in set(D.objects):
        raise InvalidSpec("anchor %r is not an object of %s" % (d, D.name))
    if side not in ("d/F", "F/d"):
        raise InvalidSpec("comma side must be 'd/F' or 'F/d'")
    comp, right = D.compose_table, side == "d/F"
    for c in C.objects:
        fc = F.on_obj(c)
        hs = [(h, F.on_mor(h))
              for h in (C.hom_from(c) if right else C.hom_into(c))]
        for g in (D.hom(d, fc) if right else D.hom(fc, d)):
            budget.spend(1 + len(hs))
            if right:
                yield (c, g), [((c, g), (C.tgt(h), comp[(fh, g)]), h)
                               for h, fh in hs]
            else:
                yield (c, g), [((C.src(h), comp[(g, fh)]), (c, g), h)
                               for h, fh in hs]


def comma(F, d, side, budget=None):
    """Objects are pairs (c, arrow between d and F(c)); morphisms inherited.
    The category is enumerated and built on ``budget``."""
    budget = ensure_budget(budget)
    objects, morphisms = [], {}
    for o, arrows in _comma_cells(F, d, side, budget):
        objects.append(o)
        morphisms.update(((s, t, h), (s, t)) for s, t, h in arrows)
    cat, proj = _over(F.source, objects, morphisms, "%s%s%s" % (
        d, "/" if side == "d/F" else "\\", F.name), budget)
    return CommaCategory(F, d, side, cat, proj)


def comma_components(F, d, side, budget):
    """The zig-zag components of d/F or F/d, without building it: each
    arrow of the comma joins its ends.  Each component is sorted by
    ``_key``, and the components by their least member."""
    cells = list(_comma_cells(F, d, side, budget))
    parent = {o: o for o, _arrows in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _o, arrows in cells:
        for s, t, _h in arrows:
            parent[find(s)] = find(t)
    groups = {}
    for o, _arrows in cells:
        groups.setdefault(find(o), []).append(o)
    return sorted((sorted(v, key=_key) for v in groups.values()),
                  key=lambda comp: _key(comp[0]))


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


def is_final(F):
    """Every d/F comma category is nonempty and zig-zag connected."""
    return _commas_connected(F, "d/F")


def is_initial(F):
    """Every F/d comma category is nonempty and zig-zag connected."""
    return _commas_connected(F, "F/d")


def _commas_connected(F, side):
    return all(len(comma_components(F, d, side, F.source.budget)) == 1
               for d in F.target.objects)


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
    end_E = getattr(E, end)
    at = C.hom_into if end == "tgt" else C.hom_from
    lifts = Counter((end_E(m), F.on_mor(m)) for m in E.morphism_ids())
    return all(lifts[(e, g)] == 1 for e in E.objects
               for g in at(F.on_obj(e)))


def slice_factorize(C, c, side="right", point=None):
    """Route the object inclusion through its slice or coslice.

    Right side: point at the identity object of C/c (terminal there) and
    project down, the projection being a discrete right fibration.  Left
    side dual through c/C with an initial object.  ``point`` is the
    terminal category the first leg starts from, built on C's budget when
    not given, so that a caller slicing many times builds it once.
    """
    if side not in ("right", "left"):
        raise InvalidSpec("side must be 'right' or 'left'")
    idc = identity_functor(C)
    K = comma(idc, c, "F/d" if side == "right" else "d/F", C.budget)
    apex = (c, C.identities[c])
    cat = K.category
    T = point or terminal_category(C.budget)
    first = Functor(T, cat, {0: apex},
                    {("le", 0, 0): cat.identities[apex]},
                    name="pick-%s" % str(c))
    return Factorization(first, K, K.projection)


class ElementsCategory(NamedTuple):
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
    one step per element, per arrow of the elements and per arrow of C.
    """
    budget = ensure_budget(budget)
    if side not in ("right", "left"):
        raise InvalidSpec("side must be 'right' or 'left'")
    C, D = F.source, F.target
    right = side == "right"
    rep, values = {}, {}
    for d in D.objects:
        comps = comma_components(F, d, "d/F" if right else "F/d", budget)
        rep[d] = {o: comp[0] for comp in comps for o in comp}
        values[d] = tuple(comp[0] for comp in comps)
    objects = [(d, x) for d in D.objects for x in values[d]]
    # each element (d, x) and each m: s -> d (right side) is an arrow from
    # (s, P(m) x), P(m) precomposing x's anchored arrow with m; each m:
    # d -> t (left side) is one to (t, Q(m) x), Q(m) postcomposing
    action, morphisms = {}, {}
    for (d, x) in objects:
        c, g = x
        arrows = D.hom_into(d) if right else D.hom_from(d)
        budget.spend(len(arrows))
        for m in arrows:
            e = D.src(m) if right else D.tgt(m)
            y = action[(m, x)] = rep[e][(c, D.compose(g, m) if right
                                         else D.compose(m, g))]
            ends = ((e, y), (d, x)) if right else ((d, x), (e, y))
            morphisms[ends + (m,)] = ends
    cat, proj = _over(D, objects, morphisms, "el(%s)" % F.name, budget)
    elem = ElementsCategory(D, side, values, action, cat, proj)
    first_obj = {}
    first_mor = {}
    for c in C.objects:
        fc = F.on_obj(c)
        first_obj[c] = (fc, rep[fc][(c, D.identities[fc])])
    for h, (c, c2) in C.morphisms.items():
        first_mor[h] = (first_obj[c], first_obj[c2], F.on_mor(h))
    first = Functor(C, cat, first_obj, first_mor, name="unit-%s" % F.name,
                    check=False).validate(budget)
    budget.spend(len(objects) + len(morphisms) + len(C.morphisms))
    what = "comprehensive factorisation of %s -> %s" % (C.name, D.name)
    if not _lifts_uniquely(proj, "tgt" if right else "src"):
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
