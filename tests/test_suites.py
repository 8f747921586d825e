"""Every row of a `verify` suite can fail, and reports the first
counterexample in its scan order; each suite does a pinned amount of work.

A row is broken by patching one name of the layer the suite reads it from
(the suites import what they run from their layer when they run), so that
exactly that row fails; a row that scans several items is broken at two of
them, and must name the first.
"""

import pytest

from factopo import catfib, sset, toposx
from factopo.budget import Budget
from factopo.posets import CoverResult
from factopo.suites import SUITES, _check, run_suite


def failed_rows(suite, seed=0):
    """The rows that fail, and the steps the suite spent: a row stops at
    its first counterexample, so the steps are pinned too."""
    budget = Budget()
    checks = run_suite(suite, seed, budget)["checks"]
    return [c for c in checks if not c["ok"]], budget.used


def fail_legs(monkeypatch, module, builder, calls, leg, check):
    """Wrap ``module.builder`` so that the ``leg`` of the results of the
    calls numbered (from 0) in ``calls`` fails ``module.check``."""
    real_builder, real_check = getattr(module, builder), getattr(module, check)
    results, marked = [], []

    def spy(*args, **kwargs):
        results.append(real_builder(*args, **kwargs))
        if len(results) - 1 in calls:
            marked.append(getattr(results[-1], leg))
        return results[-1]

    def broken(F, *args):
        return not any(F is m for m in marked) and real_check(F, *args)

    monkeypatch.setattr(module, builder, spy)
    monkeypatch.setattr(module, check, broken)


def test_a_row_draws_its_first_counterexample_and_no_more():
    drawn, checks = [], []

    def stream(items):
        for x in items:
            drawn.append(x)
            yield x

    _check(checks, "fails", stream([0, 1, 2]))
    _check(checks, "passes", stream([]))
    assert checks == [{"name": "fails", "ok": False, "counterexample": "0"},
                      {"name": "passes", "ok": True}]
    assert drawn == [0]


# -- ez ----------------------------------------------------------------------

def test_collapse_row_reports_the_first_degenerate_right_leg(monkeypatch):
    # each sampled map is factored, then its left leg again: the maps'
    # own factorisations are the even calls
    fail_legs(monkeypatch, sset, "deg_ndeg_factorize", {2 * 7, 2 * 12},
              "right", "is_nondegenerate_map")
    assert failed_rows("ez") == ([{
        "name": "collapse-legs-in-their-classes(24 maps)", "ok": False,
        "counterexample": "right leg degenerate on map 7"}], 12078)


def test_local_row_reports_the_first_set_whose_verdicts_differ(monkeypatch):
    real = sset.is_standard_simplex
    monkeypatch.setattr(sset, "is_standard_simplex", lambda X, budget: (
        X.name in ("horn2_1", "circle")) != real(X, budget))
    assert failed_rows("ez") == ([{
        "name": "local-iff-standard-simplex", "ok": False,
        "counterexample": "horn2_1: self-lift False, standard-simplex True",
    }], 12111)


# -- catfib ------------------------------------------------------------------

def test_slice_row_reports_the_first_category_that_fails(monkeypatch, cats):
    # the right slices are built first, object by object in catalogue
    # order; break the last slice of the third category and the first of
    # the fifth
    start = [sum(len(C.objects) for C in cats[:i]) for i in range(len(cats))]
    fail_legs(monkeypatch, catfib, "slice_factorize",
              {start[3] - 1, start[4]}, "left", "is_final")
    assert failed_rows("catfib") == ([{
        "name": "slice-legs-pass-class-tests", "ok": False,
        "counterexample": "[2] at 2 (right)"}], 4508)


def test_comprehensive_row_reports_the_first_functor_that_fails(monkeypatch):
    fail_legs(monkeypatch, catfib, "comprehensive_factorize", {4, 9},
              "left", "is_final")
    assert failed_rows("catfib") == ([{
        "name": "comprehensive-on-30-functors", "ok": False,
        "counterexample": "functor 4: cospan -> [2]"}], 2831)


@pytest.mark.parametrize("check, law", [
    ("is_initial", "finality"),
    ("is_discrete_left_fibration", "fibration")])
def test_op_duality_row_reports_the_first_functor_that_fails(check, law,
                                                             monkeypatch):
    # every opposite gets the wrong verdict, so the first sampled functor
    # is named
    real = getattr(catfib, check)
    monkeypatch.setattr(catfib, check,
                        lambda F: F.name.endswith("^op") != real(F))
    assert failed_rows("catfib") == ([{
        "name": "op-duality-laws", "ok": False,
        "counterexample": "%s duality at Functor(?: [0] -> [1])" % law,
    }], 4444)


def test_all_slices_row_reports_the_first_category_not_covered(monkeypatch,
                                                               cats):
    real = catfib.right_cover_check
    broken = {cats[1].name, cats[3].name}

    def cover(C, family):
        if C.name in broken:
            return CoverResult("cat-right", False, {})
        return real(C, family)

    monkeypatch.setattr(catfib, "right_cover_check", cover)
    assert failed_rows("catfib") == ([{
        "name": "all-slices-cover", "ok": False, "counterexample": "[1]",
    }], 4983)


# -- toposx ------------------------------------------------------------------

def test_line_row_reports_the_first_space_that_fails(monkeypatch):
    real = toposx.lines

    def lines(V):
        found = real(V)
        return found[:-1] if (V.q, V.n) in ((3, 2), (4, 1)) else found

    monkeypatch.setattr(toposx, "lines", lines)
    assert failed_rows("toposx") == ([{
        "name": "line-counts-closed-form", "ok": False,
        "counterexample": "q=3 n=2: 3 lines"}], 113)


# -- the work of each suite --------------------------------------------------

STEPS = {
    "axioms": (3035, 3035),
    "ring-oracles": (1923, 1923),
    "duality": (3144, 3144),
    "ez": (12408, 12370),
    "catfib": (4983, 4712),
    "toposx": (672, 672),
}


def test_the_step_table_names_every_suite():
    assert tuple(STEPS) + ("all",) == SUITES


@pytest.mark.parametrize("seed", [0, 900])
@pytest.mark.parametrize("suite", list(STEPS))
def test_each_suite_spends_its_pinned_steps(suite, seed):
    # a row that scans further or stops sooner than its first
    # counterexample moves these
    budget = Budget()
    assert run_suite(suite, seed, budget)["passed"]
    assert budget.used == STEPS[suite][seed == 900]
