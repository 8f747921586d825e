"""Executable property suites: the invariants each module promises,
bundled behind `verify --suite`.

Every suite is deterministic for a fixed seed; randomness only chooses
samples, never expected values.  Failures carry the first counterexample.
"""

import random

from .budget import ensure_budget
from .catalogs import (category_catalogue, gset_catalogue, ring_catalogue,
                       sset_corpus)
from .catfib import (comprehensive_factorize, is_discrete_left_fibration,
                     is_discrete_right_fibration, is_final, is_initial,
                     right_cover_check, slice_factorize)
from .errors import FactopoError, FactorizerContractViolation
from .fincat import all_functors, terminal_category
from .finring import gf, prime_ideals, prime_ideals_bruteforce, product_ring, zmod
from .ringspec import check_duality, spec_points
from .ringsys import SYSTEMS, classify_ring, verify_ring_system
from .sset import (all_simplicial_maps, deg_ndeg_factorize, delta,
                   delta_nis_self_lift_decider, is_nondegenerate_map,
                   is_standard_simplex, spec_delta_nis)
from .toposx import (atoms_and_orbits, epi_mono_factorize_gset,
                     epi_mono_factorize_linear, gset_point_cover_check,
                     line_count, lines, orbit_inclusions, LinearMap,
                     FqVecSpace)


def _check(checks, name, ok, counterexample=None):
    row = {"name": name, "ok": bool(ok)}
    if not ok and counterexample is not None:
        row["counterexample"] = str(counterexample)
    checks.append(row)


def suite_axioms(seed, budget):
    rings = [zmod(n, budget) for n in (1, 2, 3, 4, 6)] + [gf(2, 2, budget)]
    checks = []
    for system in SYSTEMS:
        report = verify_ring_system(system, rings, budget=budget)
        fails = list(report.failures().items())
        _check(checks, "axioms:%s" % system, report.ok(),
               "%s: %s" % (fails[0][0], fails[0][1].counterexample)
               if fails else None)
    return checks


def suite_ring_oracles(seed, budget):
    checks = []
    for A in ring_catalogue(budget):
        primes = prime_ideals(A)
        brute = prime_ideals_bruteforce(A, budget)
        ok = sorted(p.sorted_elements() for p in primes) == \
            sorted(p.sorted_elements() for p in brute)
        _check(checks, "primes-vs-bruteforce:%s" % A.name, ok,
               None if ok else "%d vs %d" % (len(primes), len(brute)))
        for t in ("zar", "dom", "fin"):
            points = spec_points(A, t, budget).size
            _check(checks, "points-equal-primes:%s:%s" % (A.name, t),
                   points == len(brute),
                   "%d points, %d primes" % (points, len(brute)))
    z4 = classify_ring(zmod(4, budget), budget)
    _check(checks, "classify:Z/4",
           z4.is_fat_field and z4.is_local and not z4.is_domain, z4.as_dict())
    f4 = classify_ring(gf(2, 2, budget), budget)
    _check(checks, "classify:F_4",
           f4.is_field and f4.is_domain and f4.is_integrally_closed_domain,
           f4.as_dict())
    z6 = classify_ring(zmod(6, budget), budget)
    _check(checks, "classify:Z/6",
           not z6.is_local and not z6.is_domain, z6.as_dict())
    return checks


def suite_duality(seed, budget):
    checks = []
    extra = [zmod(36, budget),
             product_ring([zmod(2, budget), gf(2, 2, budget)], budget)]
    for A in ring_catalogue(budget) + extra:
        ok, witness = check_duality(A, budget)
        _check(checks, "zar-dom-duality:%s" % A.name, ok,
               None if ok else "no anti-isomorphism found")
    return checks


def _ez_map_pool(corpus, budget):
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
    checks = []
    corpus = sset_corpus(budget)
    bad = None
    total = 0
    simplices = ((X, x) for X in corpus for n in range(X.dim + 1)
                 for x in X.simplices(n))
    for X, x in simplices:
        budget.spend()
        total += 1
        try:
            X.eilenberg_zilber(x)
        except FactorizerContractViolation as exc:
            bad = "%s: %s" % (X.name, exc)
            break
    _check(checks, "ez-unique-on-corpus(%d simplices)" % total,
           bad is None, bad)
    for n in range(5):
        sp = spec_delta_nis(delta(n, budget=budget), budget)
        _check(checks, "spec-delta-nis-count:delta%d" % n,
               sp.size == 2 ** (n + 1) - 1, sp.size)
    rng = random.Random(seed)
    pool = _ez_map_pool(corpus, budget)
    rng.shuffle(pool)
    sample = pool[:max(20, min(24, len(pool)))]
    bad = None
    for i, f in enumerate(sample):
        # a collapse is its own left leg: factored again, its right leg is
        # a bijection on cells, so an isomorphism onto the first middle
        fac = deg_ndeg_factorize(f, budget=budget)
        again = deg_ndeg_factorize(fac.left, budget=budget)
        image = set(again.right.assignment.values())
        if len(image) != len(again.right.assignment) or \
                image != set(map(fac.middle.cell_simplex, fac.middle.cells())):
            bad = "map %d of %s -> %s" % (i, f.source.name, f.target.name)
            break
        if not is_nondegenerate_map(fac.right):
            bad = "right leg degenerate on map %d" % i
            break
    _check(checks, "collapse-legs-in-their-classes(%d maps)" % len(sample),
           bad is None, bad)
    bad = None
    for X in corpus:
        lifts = delta_nis_self_lift_decider(X, budget=budget)
        simp = is_standard_simplex(X, budget)
        if lifts != simp:
            bad = "%s: self-lift %r, standard-simplex %r" % (X.name, lifts, simp)
            break
    _check(checks, "local-iff-standard-simplex", bad is None, bad)
    return checks


def suite_catfib(seed, budget):
    checks = []
    cats = category_catalogue(budget)
    T = terminal_category(budget)
    # every right slice, kept for the all-slices-cover check
    right = [[slice_factorize(C, c, "right", T) for c in C.objects]
             for C in cats]
    bad = None
    for C, slices in zip(cats, right):
        for c, (first, K, proj) in zip(C.objects, slices):
            if not is_final(first) or not is_discrete_right_fibration(proj):
                bad = "%s at %r (right)" % (C.name, c)
                break
            firstl, Kl, projl = slice_factorize(C, c, "left", T)
            if not is_initial(firstl) or not is_discrete_left_fibration(projl):
                bad = "%s at %r (left)" % (C.name, c)
                break
        if bad:
            break
    _check(checks, "slice-legs-pass-class-tests", bad is None, bad)
    small = [C for C in cats if len(C.morphisms) <= 6]
    pool = []
    for A in small:
        for B in small:
            pool.extend(all_functors(A, B, budget))
    rng = random.Random(seed)
    rng.shuffle(pool)
    sample = pool[:30]
    bad = None
    for i, F in enumerate(sample):
        first, elem, proj = comprehensive_factorize(F, "right", budget=budget)
        if not is_final(first) or not is_discrete_right_fibration(proj):
            bad = "functor %d: %s -> %s" % (i, F.source.name, F.target.name)
            break
    _check(checks, "comprehensive-on-%d-functors" % len(sample),
           bad is None, bad)
    bad = None
    for F in sample[:10]:
        op = F.op()
        if is_final(F) != is_initial(op):
            bad = "finality duality at %r" % F
            break
        if is_discrete_right_fibration(F) != is_discrete_left_fibration(op):
            bad = "fibration duality at %r" % F
            break
    _check(checks, "op-duality-laws", bad is None, bad)
    bad = None
    for C, slices in zip(cats, right):
        if not right_cover_check(C, [proj for _f, _K, proj in slices]).covers:
            bad = C.name
            break
    _check(checks, "all-slices-cover", bad is None, bad)
    return checks


def suite_toposx(seed, budget):
    checks = []
    expected_orbits = [1, 2, 2, 1, 2, 1]
    gsets = gset_catalogue()
    bad = None
    for X, want in zip(gsets, expected_orbits):
        orbs = atoms_and_orbits(X)
        if len(orbs) != want or not all(o.atom for o in orbs):
            bad = "%s: %d orbits" % (X.name, len(orbs))
            break
        fam = orbit_inclusions(X)
        if not gset_point_cover_check(X, fam).covers:
            bad = "%s: orbit family fails to cover" % X.name
            break
        if any(gset_point_cover_check(X, fam[:i] + fam[i + 1:]).covers
               for i in range(len(fam))):
            bad = "%s: orbit cover not minimal" % X.name
            break
    _check(checks, "orbit-atoms-and-finest-cover", bad is None, bad)
    bad = None
    for q in (2, 3, 4):
        for n in range(5):
            V = FqVecSpace(q, n, budget=budget)
            got = len(lines(V))
            want = line_count(q, n) if n >= 1 else 0
            if got != want:
                bad = "q=%d n=%d: %d lines" % (q, n, got)
                break
        if bad:
            break
    _check(checks, "line-counts-closed-form", bad is None, bad)
    V2 = FqVecSpace(2, 2, budget=budget)
    f = LinearMap(V2, V2, [(1, 0), (1, 0)])
    epi, mid, mono = epi_mono_factorize_linear(f)
    _check(checks, "linear-rank-one-image", mid.n == 1, mid.n)
    X = gsets[2]
    target = gsets[0]
    from .toposx import EquivariantMap
    col = EquivariantMap(X, target, [0, 1, 0, 1])
    epi2, mid2, mono2 = epi_mono_factorize_gset(col)
    _check(checks, "gset-collapse-image",
           mid2.size == 2 and epi2.is_surjective() and mono2.is_injective(),
           mid2.size)
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
