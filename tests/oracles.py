"""Oracles for the tests: exhaustive searches and scans that the package
does not need, or that it replaced with faster ones."""

import itertools

from factopo.fincat import Functor, all_functors
from factopo.finring import enumerate_homs


def ring_isomorphic(A, B, budget=None):
    """A bijective hom A -> B, or None."""
    if A.size != B.size:
        return None
    for h in enumerate_homs(A, B, budget=budget):
        if h.is_bijective():
            return h
    return None


def fincat_isomorphic(C, D):
    """A functor C -> D bijective on objects and on morphisms, or None."""
    if (len(C.objects), len(C.morphisms)) != (len(D.objects), len(D.morphisms)):
        return None
    return next((F for F in all_functors(C, D)
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
        F.validate()
    return out
