"""Spans around factopo's public functions, installed from the benchmark.

``Tracer.install`` wraps, in place, every public function of the traced
modules, every binding other modules made of it with ``from .x import y``
(including module-level dispatch tables), and the public methods of their
classes.  A wrapper records (name, start, end, parent, error) into the
current request's list; the child ships that list to the parent with its
report, and the parent keeps every request's spans until the run ends.

Calls made so often that a span each would swamp the work they time stay
unwrapped: ``HOT`` lists them.  ``cli.Budget`` is replaced by a subclass that
only remembers its instances, so step counts cost nothing per step.
"""

import functools
import importlib
import inspect
import statistics
import time

MODULES = ("cli", "budget", "finring", "ringsys", "ringspec", "posets",
           "sset", "fincat", "catfib", "toposx", "suites", "catalogs")

# inner-loop calls: element arithmetic, simplicial operators, poset and
# category lookups, and the budget's per-step charge
HOT = {
    "budget.Budget.spend",
    "finring.FinRing.a", "finring.FinRing.m", "finring.FinRing.sub",
    "finring.FinRing.power", "finring.FinRing.elements",
    "finring.FinRing.units", "finring.FinRing.nilpotents",
    "finring.FinRing.idempotents", "finring.FinRing.is_zero_ring",
    "finring.RingHom.__call__", "finring.Ideal.contains",
    "finring.hom_from_images", "finring.FinRing.generation_sequence",
    "finring.Ideal.label", "finring.Ideal.sorted_elements",
    "finring.Ideal.__le__",
    "sset.FinSSet.act", "sset.FinSSet.face", "sset.FinSSet.degeneracy",
    "sset.FinSSet.cells", "sset.FinSSet.cell_simplex",
    "sset.FinSSet.cell_label", "sset.FinSSet.simplices",
    "sset.FinSSet.simplex_count", "sset.FinSSet.is_nondeg_simplex",
    "sset.FinSSet.apply_surjection", "sset.FinSSet.top_dim",
    "sset.SimplicialMap.apply", "sset.compose_ops", "sset.epi_mono_split",
    "sset.monotone_ops", "sset.surjective_ops", "sset.injective_ops",
    "sset.identity_op", "sset.is_identity_op", "sset.coface",
    "sset.codegeneracy",
    "posets.Poset.le", "posets.Poset.lt", "posets.Poset.downset",
    "posets.Poset.upset", "posets.Poset.size",
    "fincat.FinCat.src", "fincat.FinCat.tgt", "fincat.FinCat.hom",
    "fincat.FinCat.compose", "fincat.FinCat.morphism_ids",
    "fincat.FinCat.is_identity", "fincat.FinCat.hom_from",
    "fincat.Functor.on_obj", "fincat.Functor.on_mor",
    "fincat.Functor.fingerprint", "fincat.arrow_fingerprint",
    "fincat.Functor.__init__", "fincat.Functor.then", "fincat.FinCat.is_iso",
    "fincat.FinCat.inverse_of",
    "toposx.FinGroup.mul", "toposx.FinGSet.act", "toposx.FqVecSpace.add",
    "toposx.FqVecSpace.scale",
}

# spans whose result or arguments feed a per-layer count
PROBES = {
    "ringspec.recognize_ring":
        lambda args, result: not result.startswith("ring-of-order-"),
    "fincat.all_functors": lambda args, result: len(result),
    "toposx.FqVecSpace.vectors": lambda args, result: len(result),
    "sset.delta":
        lambda args, result: [args[0], result.dim],
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = None
        self.stack = []
        self.notes = []
        self.budgets = []
        self._patched = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                err = 0
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, err)
            if probe is not None:
                tracer.notes.append((idx, probe(args, result)))
            return result

        wrapper.__wrapped_by_bench__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of ``MODULES`` in place."""
        mods = {m: importlib.import_module("factopo." + m) for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = "%s.%s" % (short, attr)
                    if name not in HOT:
                        wrappers[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj) and \
                        obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj)
        # rebind every module-level reference, including dispatch tables
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
                            self._patched.append((obj, key, value))
        self._patch_budget(mods["cli"])

    def _wrap_methods(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if not inspect.isfunction(obj):
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if name not in HOT:
                self._set(cls, attr, self._wrap(name, obj))

    def _patch_budget(self, cli):
        base = cli.Budget
        tracer = self

        class CountingBudget(base):
            __slots__ = ()

            def __init__(self, limit=None):
                base.__init__(self, limit)
                tracer.budgets.append(self)

        self._set(cli, "Budget", CountingBudget)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patched = []

    # -- per request, inside the child ---------------------------------------

    def begin_request(self):
        self.spans = []
        self.stack = []
        self.notes = []
        self.budgets = []

    def end_request(self):
        spans, self.spans = self.spans, None
        return {
            "spans": spans,
            "notes": self.notes,
            "steps": sum(b.used for b in self.budgets),
            "budget_exceeded": any(b.used > b.limit for b in self.budgets),
        }


def span_cost(calls=20000, repeats=5):
    """Median seconds a wrapper adds to one call: an empty function timed
    with and without a span around it, scaled by the calibration loop like
    the spans themselves.

    The tracing overhead of a pass is its span count times this, because
    the difference between a traced and an untraced pass is smaller than
    the drift between two passes.
    """
    from runner import CALIB_REF_S, calibrate

    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrap("noop", noop)
    probe.begin_request()
    calib = calibrate()
    costs = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - started - bare) / calls)
        probe.spans.clear()
    calib = (calib + calibrate()) / 2
    return statistics.median(costs) * CALIB_REF_S / calib


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

SUITES = {"axioms": "suite_axioms", "ring-oracles": "suite_ring_oracles",
          "duality": "suite_duality", "ez": "suite_ez",
          "catfib": "suite_catfib", "toposx": "suite_toposx"}

INGEST = {"cli.load_json", "cli.build_hom", "cli.build_ring_family",
          "cli.build_smap", "cli.build_sset_family", "finring.build_ring",
          "sset.build_sset", "fincat.validate_fincat", "toposx.build_vspace",
          "toposx.build_gset"}
RING_BUILD = {"finring.build_ring", "finring.zmod", "finring.gf",
              "finring.product_ring", "finring.table_ring"}
IDEALS = {"finring.all_ideals", "finring.additive_subgroups",
          "finring.ideal_generated", "finring.prime_ideals",
          "finring.prime_ideals_bruteforce", "finring.radical",
          "finring.nilradical"}
FACTORIZE = {"ringsys.factorize", "ringsys.triple_factorize",
             "ringsys.loc_cons_factorize", "ringsys.surj_mono_factorize",
             "ringsys.int_intclo_factorize"}
SSET_BUILD = {"sset.delta", "sset.boundary", "sset.horn",
              "sset.subcomplex_of_delta", "sset.build_sset",
              "sset.disjoint_union"}

# metric -> the spans it totals, outermost only, so recursion and nesting
# inside the same group are not counted twice
TOTALS = {
    "cli.ingest_s": INGEST,
    "finring.build_s": RING_BUILD,
    "finring.ring_isomorphic_s": {"finring.ring_isomorphic"},
    "finring.enumerate_homs_s": {"finring.enumerate_homs"},
    "finring.ideals_s": IDEALS,
    "ringspec.recognize_ring_s": {"ringspec.recognize_ring"},
    "ringspec.canonical_tables_s": {"ringspec.canonical_tables"},
    "ringsys.factorize_s": FACTORIZE,
    "ringsys.cover_check_s": {"ringsys.cover_check"},
    "ringsys.classify_s": {"ringsys.classify_ring"},
    "posets.poset_init_s": {"posets.Poset.__init__"},
    "posets.anti_isomorphism_s": {"posets.anti_isomorphism",
                                  "posets.order_isomorphism"},
    "sset.validate_s": {"sset.FinSSet.validate"},
    "sset.construct_s": SSET_BUILD,
    "sset.self_lift_s": {"sset.delta_nis_self_lift_decider"},
    "sset.deg_ndeg_factorize_s": {"sset.deg_ndeg_factorize"},
    "sset.isomorphic_s": {"sset.sset_isomorphic"},
    "sset.spec_s": {"sset.spec_delta_nis", "sset.spec_raw"},
    "fincat.all_functors_s": {"fincat.all_functors"},
    "fincat.is_orthogonal_s": {"fincat.is_orthogonal"},
    "fincat.verify_system_s": {"fincat.verify_system"},
    "catfib.cat_universe_s": {"catfib.cat_universe"},
    "catfib.comprehensive_s": {"catfib.comprehensive_factorize"},
    "toposx.lines_s": {"toposx.lines", "toposx.simple_points"},
    "toposx.orbits_s": {"toposx.atoms_and_orbits", "toposx.orbit_partition"},
}
TOTALS.update({"suites.%s_s" % s: {"suites." + fn}
               for s, fn in SUITES.items()})

CALLS = {
    "finring.ring_isomorphic_calls": "finring.ring_isomorphic",
    "finring.enumerate_homs_calls": "finring.enumerate_homs",
    "ringspec.recognize_ring_calls": "ringspec.recognize_ring",
    "sset.validate_calls": "sset.FinSSet.validate",
    "fincat.all_functors_calls": "fincat.all_functors",
}

SELF = {
    "ringspec.zar_lattice_self_s": "ringspec.zar_lattice",
    "ringspec.dom_lattice_self_s": "ringspec.dom_lattice",
}


def layer_names():
    """Every per-layer metric this module reports, for BENCHMARK.json."""
    out = set(TOTALS) | set(CALLS) | set(SELF)
    out |= {"%s.self_s" % m for m in MODULES}
    out |= {"%s.errors" % m for m in MODULES}
    out |= {"budget.steps", "budget.exceeded", "budget.s_per_msteps",
            "ringspec.recognize_named_ratio", "sset.delta_rebuild_ratio",
            "fincat.functors_found", "toposx.vectors_enumerated",
            "catalogs.build_s", "trace.overhead_s", "trace.spans",
            "trace.self_sum_ratio"}
    return sorted(out)


def per_layer(results, names, cost_per_span):
    """Per-layer metrics over one traced pass: {metric: (value, unit, n)}.

    ``cost_per_span`` is what ``span_cost`` measured."""
    catalog_spans = {n for n in names if n.startswith("catalogs.")}
    groups = dict(TOTALS, **{"catalogs.build_s": catalog_spans})
    totals = {m: 0.0 for m in groups}
    calls = {m: 0 for m in CALLS}
    selfs = {m: 0.0 for m in SELF}
    module_self = {m: 0.0 for m in MODULES}
    errors = {m: 0 for m in MODULES}
    named = functors = vectors = 0
    delta_calls = delta_keys = 0
    traced = 0.0
    n_spans = 0
    per_msteps = []
    steps = exceeded = 0
    for res in results:
        # spans are in unscaled seconds; scale them like the request
        scale = res.seconds / res.raw_seconds if res.raw_seconds else 1.0
        traced += res.seconds
        steps += res.steps
        exceeded += bool(res.budget_exceeded)
        if res.steps >= 1000:
            per_msteps.append(res.seconds / (res.steps / 1e6))
        spans = [(names[s[0]], s[1] * scale, s[2] * scale, s[3], s[4])
                 for s in res.spans]
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _err in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, err) in enumerate(spans):
            module = name.split(".", 1)[0]
            dur = end - start
            module_self[module] += dur - child_time[i]
            if err and (parent < 0 or
                        spans[parent][0].split(".", 1)[0] != module):
                errors[module] += 1
            for metric, members in groups.items():
                if name in members and not _inside(spans, parent, members):
                    totals[metric] += dur
            for metric, target in CALLS.items():
                calls[metric] += name == target
            for metric, target in SELF.items():
                if name == target:
                    selfs[metric] += dur - child_time[i]
        keys = set()
        for idx, value in res.notes:
            name = spans[idx][0] if idx < len(spans) else ""
            if name == "ringspec.recognize_ring":
                named += bool(value)
            elif name == "fincat.all_functors":
                functors += value
            elif name == "toposx.FqVecSpace.vectors":
                vectors += value
            elif name == "sset.delta":
                delta_calls += 1
                keys.add(tuple(value))
        delta_keys += len(keys)
    n = len(results)
    out = {}
    for metric, value in totals.items():
        out[metric] = (value, "s", n)
    for metric, value in calls.items():
        out[metric] = (value, "count", n)
    for metric, value in selfs.items():
        out[metric] = (value, "s", n)
    for module in MODULES:
        out["%s.self_s" % module] = (module_self[module], "s", n)
        out["%s.errors" % module] = (errors[module], "count", n)
    out["budget.steps"] = (steps, "count", n)
    out["budget.exceeded"] = (exceeded, "count", n)
    out["budget.s_per_msteps"] = (
        statistics.median(per_msteps) if per_msteps else 0.0, "s/Msteps",
        len(per_msteps))
    # a recognize_ring that raises (budget) records no note and counts as
    # unnamed
    n_recognize = calls["ringspec.recognize_ring_calls"]
    out["ringspec.recognize_named_ratio"] = (
        named / n_recognize if n_recognize else 0.0, "ratio", n_recognize)
    out["sset.delta_rebuild_ratio"] = (
        delta_calls / delta_keys if delta_keys else 0.0, "ratio",
        delta_calls)
    out["fincat.functors_found"] = (functors, "count", n)
    out["toposx.vectors_enumerated"] = (vectors, "count", n)
    out["trace.spans"] = (n_spans, "count", n)
    out["trace.overhead_s"] = (n_spans * cost_per_span, "s", n_spans)
    out["trace.self_sum_ratio"] = (
        sum(module_self.values()) / traced if traced else 0.0, "ratio", n)
    return out


def _inside(spans, parent, members):
    while parent >= 0:
        if spans[parent][0] in members:
            return True
        parent = spans[parent][3]
    return False
