"""Executable property suites: the invariants each module promises,
bundled behind `verify --suite`.

Every suite is deterministic for a fixed seed; randomness only chooses
samples, never expected values.  Failures carry the first counterexample.
"""

import random

from .budget import ensure_budget
from .errors import FactopoError, FactorizerContractViolation
from .finring import gf, prime_ideals, prime_ideals_bruteforce, product_ring, zmod
from .ringspec import check_duality, spec_points
from .ringsys import SYSTEMS, classify_ring, verify_ring_system


def _check(checks, name, counterexamples):
    """One row: it passes when ``counterexamples`` yields nothing, and
    otherwise fails with the first item, the scan going no further."""
    bad = next(iter(counterexamples), None)
    checks.append({"name": name, "ok": True} if bad is None else
                  {"name": name, "ok": False, "counterexample": str(bad)})


def suite_axioms(seed, budget):
    rings = [zmod(n, budget) for n in (1, 2, 3, 4, 6)] + [gf(2, 2, budget)]
    checks = []
    for system in SYSTEMS:
        report = verify_ring_system(system, rings, budget=budget)
        _check(checks, "axioms:%s" % system, () if report.ok() else (
            "%s: %s" % failure for failure in report.failures().items()))
    return checks


def suite_ring_oracles(seed, budget):
    from .catalogs import ring_catalogue
    checks = []
    for A in ring_catalogue(budget):
        primes = prime_ideals(A)
        brute = prime_ideals_bruteforce(A, budget)
        same = sorted(p.sorted_elements() for p in primes) == \
            sorted(p.sorted_elements() for p in brute)
        _check(checks, "primes-vs-bruteforce:%s" % A.name,
               () if same else ("%d vs %d" % (len(primes), len(brute)),))
        for t in ("zar", "dom", "fin"):
            points = spec_points(A, t, budget).size
            _check(checks, "points-equal-primes:%s:%s" % (A.name, t),
                   () if points == len(brute) else
                   ("%d points, %d primes" % (points, len(brute)),))
    z4 = classify_ring(zmod(4, budget), budget)
    _check(checks, "classify:Z/4",
           () if z4.is_fat_field and z4.is_local and not z4.is_domain
           else (z4.as_dict(),))
    f4 = classify_ring(gf(2, 2, budget), budget)
    _check(checks, "classify:F_4",
           () if f4.is_field and f4.is_domain and
           f4.is_integrally_closed_domain else (f4.as_dict(),))
    z6 = classify_ring(zmod(6, budget), budget)
    _check(checks, "classify:Z/6",
           () if not z6.is_local and not z6.is_domain else (z6.as_dict(),))
    return checks


def suite_duality(seed, budget):
    from .catalogs import ring_catalogue
    checks = []
    extra = [zmod(36, budget),
             product_ring([zmod(2, budget), gf(2, 2, budget)], budget)]
    for A in ring_catalogue(budget) + extra:
        holds, _witness = check_duality(A, budget)
        _check(checks, "zar-dom-duality:%s" % A.name,
               () if holds else ("no anti-isomorphism found",))
    return checks


def _ez_map_pool(corpus, budget):
    from .sset import all_simplicial_maps
    by_name = {X.name: X for X in corpus}
    pairs = [("delta1", "delta1"), ("delta1", "delta2"),
             ("boundary1", "delta1"), ("path2", "delta1"),
             ("path2", "delta2"), ("circle", "circle"),
             ("parallel", "delta1"), ("horn2_1", "delta2"),
             ("boundary2", "delta2"), ("delta2", "delta2")]
    pool = []
    for sn, tn in pairs:
        pool.extend(all_simplicial_maps(by_name[sn], by_name[tn], budget))
    return pool


def suite_ez(seed, budget):
    from .catalogs import sset_corpus
    from .sset import (deg_ndeg_factorize, delta, delta_nis_self_lift_decider,
                       is_nondegenerate_map, is_standard_simplex, spec_delta_nis)
    checks = []
    corpus = sset_corpus(budget)
    simplices = ((X, x) for X in corpus for n in range(X.dim + 1)
                 for x in X.simplices(n))
    audited = 0

    def ez_failures():
        nonlocal audited
        for X, x in simplices:
            budget.spend()
            audited += 1
            try:
                X.eilenberg_zilber(x)
            except FactorizerContractViolation as exc:
                yield "%s: %s" % (X.name, exc)

    _check(checks, "ez-unique-on-corpus", ez_failures())
    checks[-1]["name"] += "(%d simplices)" % audited
    for n in range(5):
        size = spec_delta_nis(delta(n, budget=budget), budget).size
        _check(checks, "spec-delta-nis-count:delta%d" % n,
               () if size == 2 ** (n + 1) - 1 else (size,))
    rng = random.Random(seed)
    pool = _ez_map_pool(corpus, budget)
    rng.shuffle(pool)
    sample = pool[:max(20, min(24, len(pool)))]

    def collapse_failures():
        for i, f in enumerate(sample):
            # a collapse is its own left leg: factored again, its right leg
            # is a bijection on cells, so an isomorphism onto the first middle
            fac = deg_ndeg_factorize(f, budget=budget)
            again = deg_ndeg_factorize(fac.left, budget=budget)
            image = set(again.right.assignment.values())
            if len(image) != len(again.right.assignment) or image != set(
                    map(fac.middle.cell_simplex, fac.middle.cells())):
                yield "map %d of %s -> %s" % (i, f.source.name, f.target.name)
            if not is_nondegenerate_map(fac.right):
                yield "right leg degenerate on map %d" % i

    _check(checks, "collapse-legs-in-their-classes(%d maps)" % len(sample),
           collapse_failures())
    verdicts = ((X.name, delta_nis_self_lift_decider(X, budget=budget),
                 is_standard_simplex(X, budget)) for X in corpus)
    _check(checks, "local-iff-standard-simplex",
           ("%s: self-lift %r, standard-simplex %r" % (name, lifts, simp)
            for name, lifts, simp in verdicts if lifts != simp))
    return checks


def suite_catfib(seed, budget):
    from .catalogs import category_catalogue
    from .catfib import (comprehensive_factorize, is_discrete_left_fibration,
                         is_discrete_right_fibration, is_final, is_initial,
                         right_cover_check, slice_factorize)
    from .fincat import all_functors, terminal_category
    checks = []
    cats = category_catalogue(budget)
    T = terminal_category(budget)
    # every right slice, kept for the all-slices-cover check
    right = [[slice_factorize(C, c, "right", T) for c in C.objects]
             for C in cats]

    def slice_failures():
        for C, slices in zip(cats, right):
            for c, (first, _K, proj) in zip(C.objects, slices):
                if not is_final(first) or not is_discrete_right_fibration(proj):
                    yield "%s at %r (right)" % (C.name, c)
                firstl, _Kl, projl = slice_factorize(C, c, "left", T)
                if not is_initial(firstl) or \
                        not is_discrete_left_fibration(projl):
                    yield "%s at %r (left)" % (C.name, c)

    _check(checks, "slice-legs-pass-class-tests", slice_failures())
    small = [C for C in cats if len(C.morphisms) <= 6]
    pool = []
    for A in small:
        for B in small:
            pool.extend(all_functors(A, B, budget))
    rng = random.Random(seed)
    rng.shuffle(pool)
    sample = pool[:30]
    names = ["functor %d: %s -> %s" % (i, F.source.name, F.target.name)
             for i, F in enumerate(sample)]

    def comprehensive_failures():
        for F, name in zip(sample, names):
            first, _elem, proj = comprehensive_factorize(F, "right", budget)
            if not is_final(first) or not is_discrete_right_fibration(proj):
                yield name

    _check(checks, "comprehensive-on-%d-functors" % len(sample),
           comprehensive_failures())

    def op_failures():
        for F, name in zip(sample[:10], names):
            op = F.op()
            if is_final(F) != is_initial(op):
                yield "finality duality at " + name
            if is_discrete_right_fibration(F) != \
                    is_discrete_left_fibration(op):
                yield "fibration duality at " + name

    _check(checks, "op-duality-laws", op_failures())
    _check(checks, "all-slices-cover", (
        C.name for C, slices in zip(cats, right)
        if not right_cover_check(C, [proj for _f, _K, proj in slices]).covers))
    return checks


def suite_toposx(seed, budget):
    from .catalogs import gset_catalogue
    from .toposx import (EquivariantMap, FqVecSpace, LinearMap, atoms_and_orbits,
                         epi_mono_factorize_gset, epi_mono_factorize_linear,
                         gset_point_cover_check, line_count, lines,
                         orbit_inclusions)
    checks = []
    expected_orbits = [1, 2, 2, 1, 2, 1]
    gsets = gset_catalogue()

    def orbit_failures():
        for X, want in zip(gsets, expected_orbits):
            orbs = atoms_and_orbits(X)
            if len(orbs) != want or not all(o.atom for o in orbs):
                yield "%s: %d orbits" % (X.name, len(orbs))
            fam = orbit_inclusions(X)
            if not gset_point_cover_check(X, fam).covers:
                yield "%s: orbit family fails to cover" % X.name
            if any(gset_point_cover_check(X, fam[:i] + fam[i + 1:]).covers
                   for i in range(len(fam))):
                yield "%s: orbit cover not minimal" % X.name

    _check(checks, "orbit-atoms-and-finest-cover", orbit_failures())
    counts = ((q, n, len(lines(FqVecSpace(q, n, budget=budget))))
              for q in (2, 3, 4) for n in range(5))
    _check(checks, "line-counts-closed-form", (
        "q=%d n=%d: %d lines" % (q, n, got) for q, n, got in counts
        if got != (line_count(q, n) if n >= 1 else 0)))
    V2 = FqVecSpace(2, 2, budget=budget)
    mid = epi_mono_factorize_linear(LinearMap(V2, V2, [(1, 0), (1, 0)])).middle
    _check(checks, "linear-rank-one-image", () if mid.n == 1 else (mid.n,))
    epi2, mid2, mono2 = epi_mono_factorize_gset(
        EquivariantMap(gsets[2], gsets[0], [0, 1, 0, 1]))
    _check(checks, "gset-collapse-image",
           () if mid2.size == 2 and epi2.is_surjective() and
           mono2.is_injective() else (mid2.size,))
    return checks


_SUITE_FNS = {
    "axioms": suite_axioms,
    "ring-oracles": suite_ring_oracles,
    "duality": suite_duality,
    "ez": suite_ez,
    "catfib": suite_catfib,
    "toposx": suite_toposx,
}
SUITES = tuple(_SUITE_FNS) + ("all",)


def run_suite(name, seed=0, budget=None):
    budget = ensure_budget(budget)
    if name not in SUITES:
        raise FactopoError("unknown suite %r; choose from %s"
                           % (name, ", ".join(SUITES)))
    names = list(_SUITE_FNS) if name == "all" else [name]
    checks = []
    for n in names:
        checks.extend(_SUITE_FNS[n](seed, budget))
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c["ok"] for c in checks),
        "checks": checks,
    }
