"""Isomorphism oracles for the tests: exhaustive searches the package does not need."""

from factopo.fincat import all_functors
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
