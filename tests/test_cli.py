import contextlib
import importlib
import io
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import factopo
from factopo import reader, sset, suites
from factopo.budget import Budget
from factopo.cli import (COMMANDS, COMMON, build_parser, main, parse_argv,
                         report_text)
from factopo.errors import EnumerationBudgetExceeded
from factopo.fincat import SystemReport
from factopo.posets import Poset


class Raw(str):
    """A file body written as it stands: text that json.dumps cannot make."""


def write(path, payload):
    text = payload if isinstance(payload, Raw) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def z6(tmp_path):
    return write(tmp_path / "z6.json", {"kind": "zmod", "n": 6})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cover_zar_certificate(tmp_path, z6, capsys):
    fam = write(tmp_path / "f.json", {"topology": "zar", "elements": ["2", "3"]})
    code, out, _err = run(capsys, "cover", "--topology", "zar",
                          "--base", z6, "--family", fam)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "cover"
    assert report["result"]["covers"] is True
    assert report["result"]["certificate"] == [2, 1]


def test_cover_false_still_exits_zero(tmp_path, z6, capsys):
    fam = write(tmp_path / "f.json", {"topology": "zar", "elements": ["2"]})
    code, out, _err = run(capsys, "cover", "--topology", "zar",
                          "--base", z6, "--family", fam)
    assert code == 0
    assert json.loads(out)["result"]["covers"] is False


def test_factorize_report(tmp_path, capsys):
    hom = write(tmp_path / "h.json", {
        "source": {"kind": "zmod", "n": 12},
        "target": {"kind": "zmod", "n": 3},
        "map": [str(x % 3) for x in range(12)]})
    code, out, _err = run(capsys, "factorize", "--system", "loc-cons",
                          "--hom", hom)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["system"] == "loc-cons"
    assert result["middle"]["size"] == 3
    assert result["left"]["source"] == "Z/12"


def test_factorize_images_shorthand(tmp_path, capsys):
    hom = write(tmp_path / "h.json", {
        "source": {"kind": "zmod", "n": 4},
        "target": {"kind": "zmod", "n": 2},
        "images": {"1": "1"}})
    code, out, _err = run(capsys, "factorize", "--system", "surj-mono",
                          "--hom", hom)
    assert code == 0
    assert json.loads(out)["result"]["middle"]["size"] == 2


def test_classify(z6, capsys):
    code, out, _err = run(capsys, "classify", "--ring", z6)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["is_local"] is False and result["is_domain"] is False


def test_spectrum_dot_is_hasse(tmp_path, capsys):
    obj = write(tmp_path / "d2.json", {"kind": "delta", "n": 2})
    out_path = tmp_path / "d2.dot"
    code, out, _err = run(capsys, "spectrum", "--topology", "delta-nis",
                          "--object", obj, "--format", "dot",
                          "--out", str(out_path))
    assert code == 0
    assert out == ""
    dot = out_path.read_text(encoding="utf-8")
    assert dot.count("[label=") == 7
    assert dot.count(" -> ") == 9


def test_spectrum_json_for_ring(tmp_path, z6, capsys):
    code, out, _err = run(capsys, "spectrum", "--topology", "zar", "--base", z6)
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["elements"]) == 2


def test_spectrum_lattice(tmp_path, z6, capsys):
    code, out, _err = run(capsys, "spectrum", "--topology", "zar", "--base", z6,
                          "--lattice")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "zar" and len(result["elements"]) == 4


def test_spectrum_lines(tmp_path, capsys):
    space = write(tmp_path / "v.json", {"q": 2, "n": 2})
    code, out, _err = run(capsys, "spectrum", "--topology", "lines",
                          "--space", space)
    assert code == 0
    assert len(json.loads(out)["result"]["elements"]) == 4


def test_sset_cover_roundtrip(tmp_path, capsys):
    obj = write(tmp_path / "d1.json", {"kind": "delta", "n": 1})
    fam = write(tmp_path / "fam.json", {"maps": [
        {"source": {"kind": "delta", "n": 1},
         "assignment": {"0": {"0": [[0], "0"], "1": [[0], "1"]},
                        "1": {"01": [[0, 1], "01"]}}}]})
    code, out, _err = run(capsys, "cover", "--topology", "delta-nis",
                          "--object", obj, "--family", fam)
    assert code == 0
    assert json.loads(out)["result"]["covers"] is True


def test_orthogonal(tmp_path, capsys):
    cat = write(tmp_path / "c.json", {
        "objects": ["a", "b"],
        "morphisms": [{"id": "ia", "src": "a", "tgt": "a"},
                      {"id": "ib", "src": "b", "tgt": "b"},
                      {"id": "f", "src": "a", "tgt": "b"}],
        "identities": {"a": "ia", "b": "ib"},
        "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"],
                    ["f", "ia", "f"], ["ib", "f", "f"]]})
    code, out, _err = run(capsys, "orthogonal", "--category", cat,
                          "--left", "f", "--right", "ib")
    assert code == 0
    assert json.loads(out)["result"]["orthogonal"] is True


def test_nonassociative_category_is_refused_with_one_error_line(tmp_path,
                                                                capsys):
    # unital, but a(bb) = aa = b while (ab)b = ab = a
    names = ["e", "a", "b"]
    table = [["e", "a", "b"], ["a", "b", "a"], ["b", "a", "a"]]
    cat = write(tmp_path / "c.json", {
        "objects": ["*"],
        "morphisms": [{"id": x, "src": "*", "tgt": "*"} for x in names],
        "identities": {"*": "e"},
        "compose": [[x, y, xy] for x, row in zip(names, table)
                    for y, xy in zip(names, row)]})
    code, out, err = run(capsys, "orthogonal", "--category", cat,
                         "--left", "a", "--right", "b")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "associativity fails on" in err


def test_verify_suite_report(capsys):
    code, out, _err = run(capsys, "verify", "--suite", "axioms")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert len(result["checks"]) == 3


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "ring-oracles",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "ring-oracles",
                         "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_error_has_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "zmod",\n "n": }', encoding="utf-8")
    code, _out, err = run(capsys, "classify", "--ring", str(bad))
    assert code == 1
    assert "bad.json:2:7" in err


def test_domain_error_carries_the_path(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"kind": "zmod"})
    code, _out, err = run(capsys, "classify", "--ring", str(bad))
    assert code == 1
    assert "bad.json" in err


def test_usage_error_exit_two(tmp_path, z6, capsys):
    code, _out, err = run(capsys, "spectrum", "--topology", "zar",
                          "--base", z6, "--format", "dot")
    assert code == 2
    assert "--out" in err


@pytest.mark.parametrize("topology, where", [
    ("lines", "--space"), ("raw", "--object"), ("delta-nis", "--object"),
    ("fin", "--base"), ("nfin", "--base")])
def test_lattice_outside_zar_and_dom_is_refused(topology, where, capsys):
    # refused before the input is read, so a missing file never shows
    code, out, err = run(capsys, "spectrum", "--topology", topology,
                         where, "nowhere.json", "--lattice")
    assert (code, out) == (2, "")
    assert err == "error: --lattice only applies to zar and dom\n"


@pytest.mark.parametrize("command, topology, given, needed", [
    ("cover", "zar", "--family", "--base"),
    ("cover", "raw", "--family", "--object"),
    ("spectrum", "delta-nis", "--base", "--object"),
    ("spectrum", "lines", "--object", "--space")])
def test_a_topology_without_its_input_is_refused(command, topology, given,
                                                 needed, capsys):
    # refused before the file given is read, so a missing file never shows
    code, out, err = run(capsys, command, "--topology", topology,
                         given, "nowhere.json")
    assert (code, out) == (2, "")
    assert err == "error: %s over %s needs %s\n" % (command, topology, needed)


def test_format_dot_is_refused_before_the_command_runs(capsys):
    code, out, err = run(capsys, "classify", "--ring", "nowhere.json",
                         "--format", "dot")
    assert (code, out) == (2, "")
    assert err == "error: --format dot is only available for spectrum\n"
    code, out, err = run(capsys, "spectrum", "--topology", "zar",
                         "--base", "nowhere.json", "--format", "dot")
    assert (code, out) == (2, "")
    assert err == "error: --format dot needs --out\n"


def test_json_spectra_draw_no_hasse_diagram(tmp_path, z6, monkeypatch,
                                            capsys):
    def no_diagram(self):
        raise AssertionError("Hasse diagram drawn for a JSON report")

    monkeypatch.setattr(Poset, "hasse_edges", no_diagram)
    space = write(tmp_path / "v.json", {"q": 2, "n": 2})
    obj = write(tmp_path / "d2.json", {"kind": "delta", "n": 2})
    for argv in (["--topology", "zar", "--base", z6],
                 ["--topology", "dom", "--base", z6, "--lattice"],
                 ["--topology", "lines", "--space", space],
                 ["--topology", "raw", "--object", obj],
                 ["--topology", "delta-nis", "--object", obj]):
        code, out, _err = run(capsys, "spectrum", *argv)
        assert code == 0, argv
        assert json.loads(out)["result"]["elements"], argv


def test_missing_file(capsys):
    code, _out, err = run(capsys, "classify", "--ring", "nowhere.json")
    assert code == 1
    assert "nowhere.json" in err


def test_file_that_is_not_utf8_is_refused_with_one_error_line(tmp_path,
                                                             capsys):
    bad = tmp_path / "r.json"
    bad.write_bytes(b'{"kind": "zmod", "n": 4, "x": "\xff"}')
    code, out, err = run(capsys, "classify", "--ring", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: " % bad) and err.count("\n") == 1, err


@pytest.mark.parametrize("dot", [False, True])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_path_that_cannot_be_written_is_refused(where, dot, tmp_path, z6,
                                                    capsys):
    target = tmp_path / "nowhere" / "out" if where == "missing directory" \
        else tmp_path
    argv = ["spectrum", "--topology", "zar", "--base", z6, "--out",
            str(target)] + (["--format", "dot"] if dot else [])
    code, out, err = run(capsys, *argv)
    strerror = "No such file or directory" if where == "missing directory" \
        else "Is a directory"
    assert (code, out) == (1, "")
    assert err == "error: %s: %s\n" % (target, strerror)


def test_budget_flag_is_echoed_and_enforced(tmp_path, z6, capsys):
    code, out, _err = run(capsys, "classify", "--ring", z6,
                          "--budget", "50000")
    assert code == 0
    assert json.loads(out)["config"]["budget"] == 50000
    code2, _out, err = run(capsys, "verify", "--suite", "duality",
                           "--budget", "10")
    assert code2 == 1
    assert "budget" in err


# the deterministic step totals of the lattice commands on (Z/n)^k, the
# ring's own build included: n^k per local factor, 2 n'^2 for the n'
# elements' tables and check, and the Poset's n' + 3^k
LATTICE_STEPS = {
    ("zar", 2, 6): 13_489,
    ("dom", 2, 6): 13_489,
    ("zar", 4, 4): 67_233,
    ("dom", 4, 4): 67_233,
}


@pytest.mark.parametrize("topology, n, k", sorted(LATTICE_STEPS))
def test_lattice_step_totals_are_pinned(topology, n, k, tmp_path, capsys,
                                        monkeypatch):
    base = write(tmp_path / "base.json", {
        "kind": "product", "factors": [{"kind": "zmod", "n": n}] * k})
    argv = ["spectrum", "--topology", topology, "--lattice", "--base", base]
    made = []
    init = Budget.__init__

    def counting(self, limit=None):
        made.append(self)
        init(self, limit)

    monkeypatch.setattr(Budget, "__init__", counting)
    assert run(capsys, *argv)[0] == 0
    total = LATTICE_STEPS[topology, n, k]
    assert [budget.used for budget in made] == [total]
    assert run(capsys, *argv, "--budget", str(total))[0] == 0
    code, out, err = run(capsys, *argv, "--budget", str(total - 1))
    assert (code, out) == (1, "")
    assert err == "error: enumeration budget of %d steps exceeded\n" % (
        total - 1)


def test_timing_only_on_request(z6, capsys):
    _code, out, _err = run(capsys, "classify", "--ring", z6)
    assert "timing" not in json.loads(out)
    _code, out2, _err = run(capsys, "classify", "--ring", z6, "--timing")
    assert "timing" in json.loads(out2)


# what a command line can hold besides the canonical form: every flag of
# every command (so repeats and other commands' flags), abbreviations,
# --opt=value, help, the end of options, dash-led values and ints that
# argparse reads through int()
FLAGS = sorted({opt.flag for command in COMMANDS.values()
                for opt in command.options + COMMON})
ODD_WORDS = FLAGS + ["--top", "--fam", "--budget=5", "--topology=zar", "-h",
                     "--help", "--", "-", "-5", "-0", "-x", " -5", "", "x",
                     "frobnicate", "classify", "spectrum"]
INTS = ["5", "0", "16", " 5", "5 ", "1_0", "+3", "\u0663", "0x10", "5.0",
        "1" * 5000, "x", ""]
PATHS = ["ring.json", "f", "a b", '"f"', "[1]", "\u00e9", "=x", ""]


@st.composite
def command_lines(draw):
    """A canonical command line with some options left out and the rest in
    any order, then up to three words inserted, dropped or replaced."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    words = [name]
    for opt in draw(st.permutations(COMMANDS[name].options + COMMON)):
        if opt.required or draw(st.booleans()):
            words.append(opt.flag)
            if opt.kind is not bool:
                words.append(draw(st.sampled_from(
                    opt.choices or (INTS if opt.kind is int else PATHS))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit != "insert" and at < len(words):
            del words[at]
        if edit != "drop":
            words.insert(at, draw(st.sampled_from(ODD_WORDS + INTS)))
    return words


@pytest.mark.fuzz
@given(command_lines())
def test_parse_argv_reads_what_argparse_reads(argv):
    # the fast reader gives argparse's options or passes; whatever argparse
    # refuses, it passes on
    fast = parse_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            assert fast is None, (argv, exc.code)
            return
    assert fast is None or vars(fast) == want, argv


# strings with quotes, backslashes, controls, non-ASCII and a lone
# surrogate; numbers past 64 bits, NaN, the infinities and -0.0
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\\n\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')), max_size=8)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 40, 10 ** 40), FLOATS, TEXT)
# ints, floats and bools sort among themselves; None sorts with nothing,
# and a mix of strings and numbers does not sort
NUMBER_KEYS = st.one_of(st.integers(), FLOATS, st.booleans())


def rarely(common, rare):
    return st.integers(0, 19).flatmap(lambda n: rare if n == 0 else common)


def containers(children):
    return st.one_of(
        # a list, now and then a set, which json refuses
        rarely(st.lists(children, max_size=4),
               st.sets(st.integers(), max_size=2)),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.lists(TEXT, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
        rarely(st.dictionaries(NUMBER_KEYS, children, max_size=4),
               st.dictionaries(st.one_of(TEXT, NUMBER_KEYS), children,
                               max_size=4)),
        st.dictionaries(st.none(), children, max_size=1))


REPORTS = st.recursive(SCALARS, containers, max_leaves=25)


@pytest.mark.fuzz
@given(REPORTS)
@example({"result": {"a": {1, 2}}})
@example({3: [], 2.5: {}, False: (), -math.inf: [[]]})
@example({"n": 10 ** 5000})
@example({"ints": [1, -10 ** 5000]})
@example({10 ** 5000: None})
def test_report_text_writes_what_json_dumps_writes(report):
    try:
        want = json.dumps(report, indent=2, sort_keys=True)
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err)):
            report_text(report)
        return
    assert report_text(report) == want


def test_a_count_past_the_digit_limit_is_refused_with_one_error_line(
        tmp_path, capsys):
    # one 60-cell truncated at 10^90 lifts C(10^90 + 1, 61) + ... simplices,
    # an int of about 5,400 digits
    X = {"dim": 10 ** 90, "nondegenerate": {"0": ["v"], "60": [
        {"name": "c", "faces": [[[0] * 60, "v"]] * 61}]}}
    started = time.perf_counter()
    code, out, err = run_files(capsys, tmp_path, [
        "cover", "--topology", "delta-nis", "--object", "{a}",
        "--family", "{b}", "--budget", str(10 ** 100)], {
        "a": X, "b": {"maps": [{"source": X, "assignment": {
            "0": {"v": [[0], "v"]}, "60": {"c": [list(range(61)), "c"]}}}]}})
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err == "error: report cannot be written: an integer in it has " \
        "more than %d digits\n" % sys.get_int_max_str_digits()


def test_unknown_morphism_of_an_unnamed_category_names_the_file(tmp_path,
                                                                capsys):
    cat = write(tmp_path / "c.json", {"objects": [], "morphisms": [],
                                      "identities": {}, "compose": []})
    code, out, err = run(capsys, "orthogonal", "--category", cat,
                         "--left", "a", "--right", "a")
    assert (code, out) == (1, "")
    assert err == "error: %s: category has no morphism 'a'\n" % cat


DELTA1 = {"kind": "delta", "n": 1}
SMALL_CAT = {"objects": ["a"],
             "morphisms": [{"id": "ia", "src": "a", "tgt": "a"}],
             "identities": {"a": "ia"}, "compose": [["ia", "ia", "ia"]]}
EDGE_MAP = {"source": DELTA1, "assignment": {
    "0": {"0": [[0], "0"], "1": [[0], "1"]}, "1": {"01": [[0, 1], "01"]}}}

SSET_SPECTRUM = ["spectrum", "--topology", "raw", "--object", "{a}"]
MAP_COVER = ["cover", "--topology", "raw", "--object", "{a}", "--family",
             "{b}"]


RING_CLASSIFY = ["classify", "--ring", "{a}"]


def quotient_z12(gen):
    return {"kind": "quotient", "base": {"kind": "zmod", "n": 12},
            "ideal_gens": [gen]}


def nested_product(depth):
    text = '{"kind": "zmod", "n": 2}'
    for _ in range(depth):
        text = '{"kind": "product", "factors": [%s]}' % text
    return Raw(text)


def table_z2(add):
    return {"kind": "table", "elements": ["0", "1"], "one": "1", "add": add,
            "mul": [[0, 0], [0, 1]]}


def map_family(assignment):
    return {"a": {"kind": "delta", "n": 2},
            "b": {"maps": [dict(EDGE_MAP, assignment=assignment)]}}


# each input escaped the CLI as a traceback, or exited 0, before it was
# refused where it is parsed; argv words in braces name the files written
MALFORMED = {
    "horn-without-k": (SSET_SPECTRUM, {"a": {"kind": "horn", "n": 3}}),
    "stock-n-word": (SSET_SPECTRUM, {"a": {"kind": "delta", "n": "x"}}),
    "stock-n-list": (SSET_SPECTRUM, {"a": {"kind": "delta", "n": [2]}}),
    "stock-n-negative": (SSET_SPECTRUM,
                         {"a": {"kind": "boundary", "n": -1}}),
    "stock-dim-word": (SSET_SPECTRUM,
                       {"a": {"kind": "delta", "n": 2, "dim": "x"}}),
    "horn-k-out-of-range": (SSET_SPECTRUM,
                            {"a": {"kind": "horn", "n": 3, "k": 9}}),
    "map-assignment-scalar": (MAP_COVER, map_family(5)),
    "map-dimension-scalar": (MAP_COVER, map_family({"0": 5})),
    "map-cell-scalar": (MAP_COVER, map_family({"0": {"0": 5}})),
    "map-cell-no-label": (MAP_COVER, map_family({"0": {"0": [[0]]}})),
    "map-cell-empty-operator": (MAP_COVER,
                                map_family({"0": {"0": [[], "0"]}})),
    "map-cell-word-operator": (MAP_COVER,
                               map_family({"0": {"0": [["a"], "0"]}})),
    "sset-nonint-dim-key": (
        ["spectrum", "--topology", "raw", "--object", "{a}"],
        {"a": {"dim": 2, "nondegenerate": {"0": ["v"], "x": []}}}),
    "sset-nonpair-face": (
        ["spectrum", "--topology", "raw", "--object", "{a}"],
        {"a": {"dim": 2, "nondegenerate": {"0": ["v"], "1": [
            {"name": "e", "faces": [[[0], "v"], 7]}]}}}),
    "sset-nonlist-row": (
        ["spectrum", "--topology", "raw", "--object", "{a}"],
        {"a": {"dim": 2, "nondegenerate": {"0": ["v"], "1": 5}}}),
    "cat-list-ids": (
        ["orthogonal", "--category", "{a}", "--left", '["le","a","a"]',
         "--right", '["le","a","a"]'],
        {"a": {"objects": ["a"],
               "morphisms": [{"id": ["le", "a", "a"], "src": "a",
                              "tgt": "a"}],
               "identities": {"a": ["le", "a", "a"]},
               "compose": [[["le", "a", "a"]] * 3]}}),
    # fields of the wrong shape: a string of identities escaped as a
    # ValueError, a string of objects or of ideal generators was read one
    # character at a time
    "cat-identities-string": (
        ["orthogonal", "--category", "{a}", "--left", "ia", "--right", "ia"],
        {"a": dict(SMALL_CAT, identities="ab")}),
    "cat-objects-string": (
        ["orthogonal", "--category", "{a}", "--left", "ia", "--right", "ia"],
        {"a": {"objects": "ab",
               "morphisms": [{"id": "ia", "src": "a", "tgt": "a"},
                             {"id": "ib", "src": "b", "tgt": "b"}],
               "identities": {"a": "ia", "b": "ib"},
               "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"]]}}),
    "quotient-gens-string": (RING_CLASSIFY, {"a": dict(quotient_z12("4"),
                                                      ideal_gens="48")}),
    "morphism-id-object": (
        ["orthogonal", "--category", "{a}", "--left", '{"x": 1}',
         "--right", "ia"],
        {"a": SMALL_CAT}),
    # a morphism id nested past the JSON reader's recursion limit escaped
    # as a RecursionError
    "morphism-id-nested-100000": (
        ["orthogonal", "--category", "{a}", "--left", "[" * 100000,
         "--right", "ia"],
        {"a": SMALL_CAT}),
    "zar-elements-scalar": (
        ["cover", "--topology", "zar", "--base", "{a}", "--family", "{b}"],
        {"a": {"kind": "zmod", "n": 6}, "b": {"elements": 3}}),
    "dom-ideals-scalar": (
        ["cover", "--topology", "dom", "--base", "{a}", "--family", "{b}"],
        {"a": {"kind": "zmod", "n": 6}, "b": {"ideals": 3}}),
    "family-hom-map-scalar": (
        ["cover", "--topology", "fin", "--base", "{a}", "--family", "{b}"],
        {"a": {"kind": "zmod", "n": 6},
         "b": {"homs": [{"target": {"kind": "zmod", "n": 3}, "map": 5}]}}),
    # numbers that were truncated, and ring elements read without a range
    # check, before every numeric field went through one reader
    "zmod-n-float": (RING_CLASSIFY, {"a": {"kind": "zmod", "n": 12.7}}),
    "zmod-n-bool": (RING_CLASSIFY, {"a": {"kind": "zmod", "n": True}}),
    "gf-k-float": (RING_CLASSIFY, {"a": {"kind": "gf", "p": 2, "k": 2.9}}),
    "gf-p-float": (RING_CLASSIFY, {"a": {"kind": "gf", "p": 2.5}}),
    "vspace-q-float": (["spectrum", "--topology", "lines", "--space", "{a}"],
                       {"a": {"q": 2.5, "n": 2}}),
    "vspace-n-bool": (["spectrum", "--topology", "lines", "--space", "{a}"],
                      {"a": {"q": 2, "n": True}}),
    "stock-n-float": (SSET_SPECTRUM, {"a": {"kind": "delta", "n": 2.9}}),
    "sset-dim-float": (SSET_SPECTRUM,
                       {"a": {"dim": 1.5, "nondegenerate": {"0": ["v"]}}}),
    "sset-face-value-float": (
        SSET_SPECTRUM,
        {"a": {"dim": 2, "nondegenerate": {"0": ["v"], "1": [
            {"name": "e", "faces": [[[0.5], "v"], [[0], "v"]]}]}}}),
    "map-cell-float-operator": (MAP_COVER, map_family({
        "0": {"0": [[0.5], "0"], "1": [[0], "1"]},
        "1": {"01": [[0, 1], "01"]}})),
    "quotient-gen-out-of-range": (RING_CLASSIFY, {"a": quotient_z12(99)}),
    "quotient-gen-negative": (RING_CLASSIFY, {"a": quotient_z12(-1)}),
    "quotient-gen-bool": (RING_CLASSIFY, {"a": quotient_z12(True)}),
    "map-nonint-dim-key": (
        ["cover", "--topology", "raw", "--object", "{a}", "--family", "{b}"],
        {"a": {"kind": "delta", "n": 2},
         "b": {"maps": [dict(EDGE_MAP, assignment={
             "x": EDGE_MAP["assignment"]["0"],
             "1": EDGE_MAP["assignment"]["1"]})]}}),
    # nesting past the JSON reader's recursion limit and an int past its
    # digit limit escaped load_json as RecursionError and ValueError, and a
    # table ring's string or short row with no "zero" escaped as an
    # IndexError from the search for zero
    "json-nested-100000": (RING_CLASSIFY, {"a": Raw("[" * 100000)}),
    "product-nested-600": (RING_CLASSIFY, {"a": nested_product(600)}),
    "json-int-5000-digits": (RING_CLASSIFY,
                             {"a": Raw('{"kind": "zmod", "n": %s}'
                                       % ("1" * 5000))}),
    "table-string-row": (RING_CLASSIFY, {"a": table_z2(["0", [1, 0]])}),
    "table-short-row": (RING_CLASSIFY, {"a": table_z2([[0], [1, 0]])}),
    # a table ring's string of elements was read one character at a time,
    # and a bool passed as the element index 0 or 1
    "table-elements-string": (RING_CLASSIFY, {"a": dict(
        table_z2([[0, 1], [1, 0]]), elements="01")}),
    "table-one-bool": (RING_CLASSIFY, {"a": dict(table_z2([[0, 1], [1, 0]]),
                                                 one=True)}),
    # inputs that were misread instead of refused: a field's typo was
    # ignored, "1_2" was read as 12, a repeated key kept its last value,
    # names of other JSON types became names by str(), the dimension key
    # "00" replaced the row of "0", a stock shape with no n was Δ[0], and a
    # null topology was no topology
    "gf-field-typo": (RING_CLASSIFY, {"a": {"kind": "gf", "p": 2, "K": 3}}),
    "zmod-n-string": (RING_CLASSIFY, {"a": {"kind": "zmod", "n": "1_2"}}),
    "zmod-duplicate-key": (RING_CLASSIFY,
                           {"a": Raw('{"kind": "zmod", "n": 8, "n": 12}')}),
    "table-element-name-bool": (RING_CLASSIFY, {"a": dict(
        table_z2([[0, 1], [1, 0]]), elements=[False, "1"])}),
    "sset-cell-name-number": (SSET_SPECTRUM, {"a": {
        "dim": 2, "nondegenerate": {"0": ["v"], "1": [
            {"name": 7, "faces": [[[0], "v"], [[0], "v"]]}]}}}),
    "vspace-name-list": (["spectrum", "--topology", "lines", "--space", "{a}"],
                         {"a": {"q": 2, "n": 2, "name": ["V"]}}),
    "sset-dim-key-alias": (SSET_SPECTRUM, {"a": {
        "dim": 2, "nondegenerate": {"0": ["v", "w"], "00": ["u"]}}}),
    "stock-without-n": (SSET_SPECTRUM, {"a": {"kind": "delta"}}),
    "family-topology-null": (
        ["cover", "--topology", "zar", "--base", "{a}", "--family", "{b}"],
        {"a": {"kind": "zmod", "n": 6},
         "b": {"topology": None, "elements": ["2", "3"]}}),
    # the faces of a vertex given as an object were never read
    "sset-vertex-with-faces": (SSET_SPECTRUM, {"a": {
        "dim": 1, "nondegenerate": {"0": [
            {"name": "v", "faces": [[[7], "zz"], [[], 5]]}]}}}),
}


def run_files(capsys, tmp_path, argv, files):
    paths = {k: write(tmp_path / (k + ".json"), v) for k, v in files.items()}
    return run(capsys, *[paths[a[1:-1]] if a in ("{a}", "{b}") else a
                         for a in argv])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_refused_with_one_error_line(case, tmp_path,
                                                        capsys):
    code, out, err = run_files(capsys, tmp_path, *MALFORMED[case])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# the budget covers table allocation, factoring a field order and vector
# enumeration, so each of these stops before doing what it cannot afford
NFIN_Z12 = {"a": {"kind": "zmod", "n": 12},
            "b": {"homs": [{"images": {}, "target": {"kind": "zmod", "n": 4}},
                           {"images": {}, "target": {"kind": "zmod", "n": 3}}]}}
OVER_BUDGET = {
    "zmod-100000": (["classify", "--ring", "{a}", "--budget", "1000"],
                    {"a": {"kind": "zmod", "n": 100000}}),
    "lines-2^40": (["spectrum", "--topology", "lines", "--space", "{a}",
                    "--budget", "100"], {"a": {"q": 2, "n": 40}}),
    "lines-2^1000000000": (["spectrum", "--topology", "lines", "--space",
                            "{a}", "--budget", "100"],
                           {"a": {"q": 2, "n": 1000000000}}),
    "lines-q-2^61-1": (["spectrum", "--topology", "lines", "--space", "{a}",
                        "--budget", "100"],
                       {"a": {"q": 2305843009213693951, "n": 1}}),
    "lines-q-1000003": (["spectrum", "--topology", "lines", "--space", "{a}",
                         "--budget", "100"], {"a": {"q": 1000003, "n": 1}}),
    "nfin-field-bound-1000": (["cover", "--topology", "nfin", "--base", "{a}",
                               "--family", "{b}", "--field-bound", "1000",
                               "--budget", "1000"], NFIN_Z12),
    "nfin-field-bound-3000": (["cover", "--topology", "nfin", "--base", "{a}",
                               "--family", "{b}", "--field-bound", "3000",
                               "--budget", "1000"], NFIN_Z12),
    "z8-budget-10": (["classify", "--ring", "{a}", "--budget", "10"],
                     {"a": {"kind": "zmod", "n": 8}}),
    "delta7-delta-nis": (["spectrum", "--topology", "delta-nis", "--object",
                          "{a}", "--budget", "1"],
                         {"a": {"kind": "delta", "n": 7}}),
    "delta24-raw": (["spectrum", "--topology", "raw", "--object", "{a}",
                     "--budget", "1"], {"a": {"kind": "delta", "n": 24}}),
    "cover-map-out-of-delta24": (["cover", "--topology", "raw", "--object",
                                  "{a}", "--family", "{b}", "--budget",
                                  "1000"],
                                 {"a": {"kind": "delta", "n": 2},
                                  "b": {"maps": [{"source": {"kind": "delta",
                                                             "n": 24},
                                                  "assignment": {}}]}}),
    "lines-2^13-budget-10000": (["spectrum", "--topology", "lines", "--space",
                                 "{a}", "--budget", "10000"],
                                {"a": {"q": 2, "n": 13}}),
    "table-z150-budget-1": (["classify", "--ring", "{a}", "--budget", "1"],
                            {"a": {"kind": "table",
                                   "elements": [str(i) for i in range(150)],
                                   "one": 1,
                                   "add": [[(i + j) % 150 for j in range(150)]
                                           for i in range(150)],
                                   "mul": [[i * j % 150 for j in range(150)]
                                           for i in range(150)]}}),
    # a stock shape's n and a field's degree k were used before anything
    # was charged: OverflowError on n >= 2^63, and p^k computed for seconds
    "delta-n-2^63": (SSET_SPECTRUM + ["--budget", "1000"],
                     {"a": {"kind": "delta", "n": 2 ** 63}}),
    "boundary-n-2^63": (SSET_SPECTRUM + ["--budget", "1000"],
                        {"a": {"kind": "boundary", "n": 2 ** 63}}),
    "horn-n-2^63": (SSET_SPECTRUM + ["--budget", "1000"],
                    {"a": {"kind": "horn", "n": 2 ** 63, "k": 0}}),
    "gf-k-10^9": (RING_CLASSIFY + ["--budget", "1000"],
                  {"a": {"kind": "gf", "p": 2, "k": 10 ** 9}}),
    "gf-k-10^30": (RING_CLASSIFY + ["--budget", "1000"],
                   {"a": {"kind": "gf", "p": 2, "k": 10 ** 30}}),
    # a cover's count of simplices lifted sums over every dimension up to
    # the truncation, read from the file as an unbounded int
    "cover-delta-nis-dim-10^12": (["cover", "--topology", "delta-nis",
                                   "--object", "{a}", "--family", "{b}",
                                   "--budget", "100000"],
                                  {"a": {"dim": 10 ** 12,
                                         "nondegenerate": {"0": ["v"]}},
                                   "b": {"maps": [{"source": {
                                       "dim": 10 ** 12,
                                       "nondegenerate": {"0": ["v"]}},
                                       "assignment": {
                                           "0": {"v": [[0], "v"]}}}]}}),
    # the suite built its simplicial sets on budgets of their own
    "verify-ez-budget-10000": (["verify", "--suite", "ez", "--budget",
                                "10000"], {}),
    # one step above Z/1000's own n^2: the zar certificate's sums and the
    # dom family's ideal checks ran uncharged, for seconds per family
    "zar-400-evens-z1000": (["cover", "--topology", "zar", "--base", "{a}",
                             "--family", "{b}", "--budget", "1000001"],
                            {"a": {"kind": "zmod", "n": 1000},
                             "b": {"topology": "zar", "elements": [
                                 str(2 * i) for i in range(400)]}}),
    "dom-20-units-z1000": (["cover", "--topology", "dom", "--base", "{a}",
                            "--family", "{b}", "--budget", "1000001"],
                           {"a": {"kind": "zmod", "n": 1000},
                            "b": {"topology": "dom",
                                  "ideals": [["1"]] * 20}}),
}


@pytest.mark.parametrize("case", sorted(OVER_BUDGET))
def test_over_budget_input_is_refused_at_once(case, tmp_path, capsys):
    started = time.perf_counter()
    code, out, err = run_files(capsys, tmp_path, *OVER_BUDGET[case])
    assert time.perf_counter() - started < 2
    assert (code, out) == (1, "")
    argv = OVER_BUDGET[case][0]
    limit = argv[argv.index("--budget") + 1]
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "budget of %s steps exceeded" % limit in err


def test_orthogonal_charges_the_category_to_its_budget(tmp_path, capsys):
    # a discrete category on 10,000 objects, refused before its identity
    # keys are matched to the objects
    objects = ["o%d" % i for i in range(10000)]
    cat = write(tmp_path / "discrete.json", {
        "objects": objects,
        "morphisms": [{"id": "id" + x, "src": x, "tgt": x} for x in objects],
        "identities": {x: "id" + x for x in objects},
        "compose": [["id" + x, "id" + x, "id" + x] for x in objects]})
    started = time.perf_counter()
    code, out, err = run(capsys, "orthogonal", "--category", cat,
                         "--left", "ido0", "--right", "ido0", "--budget", "10")
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "budget of 10 steps exceeded" in err


def test_the_budget_bounds_the_truncation_dimension(tmp_path, capsys):
    # the identity of a circle truncated at dimension 400 covers it, decided
    # on its two cells without listing its 80,601 simplices; listing them
    # is what the budget bounds
    circle = {"dim": 400, "nondegenerate": {"0": ["v"], "1": [
        {"name": "e", "faces": [[[0], "v"], [[0], "v"]]}]}}
    identity = {"source": circle, "assignment": {
        "0": {"v": [[0], "v"]}, "1": {"e": [[0, 1], "e"]}}}
    started = time.perf_counter()
    code, out, err = run_files(
        capsys, tmp_path, ["cover", "--topology", "delta-nis", "--object",
                           "{a}", "--family", "{b}", "--budget", "100000"],
        {"a": circle, "b": {"maps": [identity]}})
    assert time.perf_counter() - started < 0.5
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert (result["covers"], result["certificate"]) == (True, 80601)
    X = sset.build_sset(circle, Budget(100000))
    started = time.perf_counter()
    with pytest.raises(EnumerationBudgetExceeded):
        X.simplices(400)
    assert time.perf_counter() - started < 0.5


def test_failing_axiom_is_reported(monkeypatch, capsys):
    def one_failure(system, rings, budget=None):
        return SystemReport({"orthogonality": "(a, b)"})

    monkeypatch.setattr(suites, "verify_ring_system", one_failure)
    code, out, _err = run(capsys, "verify", "--suite", "axioms")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["checks"][0]["counterexample"] == "orthogonality: (a, b)"


def field_names(table, seen=None):
    """Every field name in a reader table and in the tables inside it."""
    seen = set() if seen is None else seen
    if id(table) in seen:
        return set()
    seen.add(id(table))
    if isinstance(table, reader.Kinds):
        inner = list(table.tables.values()) + [table.untagged]
    elif isinstance(table, dict):
        inner = list(table.values())
    elif isinstance(table, (list, tuple)):
        inner = list(table)
    else:
        return set()
    names = {k.rstrip("?") for k in table if isinstance(k, str)} \
        if isinstance(table, dict) else set()
    for t in inner:
        names |= field_names(t, seen)
    return names


def test_every_table_field_is_named_in_the_readme():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("## File formats"):readme.index("## Scale")]
    tables = [reader.RING, reader.HOM, reader.SSET, reader.SMAP,
              reader.CATEGORY, reader.VSPACE, reader.GSET,
              *reader.FAMILIES.values()]
    names = set().union(*map(field_names, tables))
    assert len(names) > 30
    assert sorted(n for n in names if "`%s`" % n not in section) == []


# a fresh interpreter without site packages runs the code given, then
# says which factopo modules and which of dataclasses and inspect it has
# loaded; the code may name more to say in ``said``
COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
said = {}
%s
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.startswith("factopo.")),
    "loaded": sorted({"dataclasses", "inspect"} & set(sys.modules)),
    **said}))
"""
RUN = "from factopo.cli import main; said['code'] = main(sys.argv[2:])"
# the layers a command loads before it runs: the ring layers
RING_LAYERS = ["factopo." + m for m in (
    "budget", "cli", "errors", "finring", "posets", "reader", "ringspec",
    "ringsys", "suites")]


def cold_start(code, *args):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-S", "-c", COLD_START % code,
                           str(src), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    return json.loads(done.stdout.splitlines()[-1])


def test_a_cold_start_loads_no_dataclasses_and_every_record_is_a_tuple(
        tmp_path):
    """Two commands load neither dataclasses nor inspect, and each of the
    12 record classes is a tuple."""
    ring = write(tmp_path / "f4.json", {"kind": "gf", "p": 2, "k": 2})
    said = cold_start("""
from factopo import catfib, cli, fincat, finring, posets, ringsys, toposx
said['codes'] = [cli.main(["classify", "--ring", sys.argv[2]]),
                 cli.main(["verify", "--suite", "all"])]
records = [catfib.CommaCategory, catfib.ElementsCategory, cli.Command,
           cli.Option, posets.CoverResult, posets.Factorization,
           fincat.SystemReport, finring.Ideal,
           finring.RingHom, posets.Spectrum, ringsys.RingClassification,
           toposx.OrbitReport]
said['not_tuples'] = [c.__name__ for c in records if not issubclass(c, tuple)]
said['records'] = len(records)
""", ring)
    assert {k: said[k] for k in ("codes", "loaded", "not_tuples",
                                 "records")} == {
        "codes": [0, 0], "loaded": [], "not_tuples": [], "records": 12}


def test_a_command_loads_the_ring_layers_and_the_layer_it_runs(tmp_path):
    """``import factopo`` loads no layer; the parser, or a ring command,
    loads the ring layers; a simplicial or category command adds its own
    layer and no other."""
    ring = write(tmp_path / "f4.json", {"kind": "gf", "p": 2, "k": 2})
    delta2 = write(tmp_path / "d2.json", {"kind": "delta", "n": 2})
    cat = write(tmp_path / "c.json", {
        "objects": ["a", "b"],
        "morphisms": [{"id": "ia", "src": "a", "tgt": "a"},
                      {"id": "ib", "src": "b", "tgt": "b"},
                      {"id": "f", "src": "a", "tgt": "b"}],
        "identities": {"a": "ia", "b": "ib"},
        "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"],
                    ["f", "ia", "f"], ["ib", "f", "f"]]})
    assert cold_start("import factopo") == {"modules": [], "loaded": []}
    assert cold_start("import factopo.cli as c; c.build_parser()") == {
        "modules": RING_LAYERS, "loaded": []}
    assert cold_start(RUN, "classify", "--ring", ring) == {
        "modules": RING_LAYERS, "loaded": [], "code": 0}
    for argv, layer in (
            (["spectrum", "--topology", "raw", "--object", delta2], "sset"),
            (["orthogonal", "--category", cat, "--left", "f", "--right",
              "ib"], "fincat")):
        assert cold_start(RUN, *argv) == {
            "modules": sorted(RING_LAYERS + ["factopo." + layer]),
            "loaded": [], "code": 0}


# the package's public names, pinned: the lazy table keeps every one
PUBLIC = [
    "Budget", "EnumerationBudgetExceeded", "FactopoError", "Factorization",
    "FactorizerContractViolation", "FinCat", "FinGSet", "FinGroup", "FinRing",
    "FinSSet", "FqVecSpace", "Functor", "Ideal", "IdentityViolation",
    "InvalidFamily", "InvalidSpec", "LinearMap", "NotACategory",
    "NotALattice", "NotAPrime", "NotARing", "NotEquivariant", "NotLinear",
    "NotSimplicial", "OutputError", "ParseError", "RingHom", "SimplicialMap",
    "TruncationTooLow", "UsageError", "atoms_and_orbits", "boundary",
    "budget", "build_gset", "build_ring", "build_smap", "build_sset",
    "build_vspace", "cat_universe", "catalogs", "catfib", "check_duality",
    "classify_ring", "comma", "comprehensive_factorize", "cover_check",
    "deg_ndeg_factorize", "delta", "delta_nis_self_lift_decider",
    "dom_lattice", "dom_self_lift_decider", "epi_mono_factorize_gset",
    "epi_mono_factorize_linear", "errors", "factorize", "fincat", "finring",
    "gf", "hom_from_images", "horn", "is_discrete_right_fibration",
    "is_final", "is_orthogonal", "lines", "posets", "prime_ideals",
    "product_ring", "quotient_ring", "reader", "ringspec", "ringsys",
    "run_suite", "simple_points", "slice_factorize", "spec_delta_nis",
    "spec_points", "spec_raw", "sset", "sset_cover_check", "stalk", "suites",
    "toposx", "triple_factorize", "validate_fincat", "verify_ring_system",
    "verify_system", "zar_lattice", "zar_self_lift_decider", "zmod"]


def test_every_public_name_resolves_to_its_definition():
    """Each name of ``__all__`` is the layer module of that name, or the
    object that the layer the table names defines under it, and ``dir``
    lists them all."""
    assert factopo.__all__ == dir(factopo) == PUBLIC
    for name in PUBLIC:
        layer = importlib.import_module("factopo." + factopo._LAYER_OF[name])
        value = getattr(factopo, name)
        if name == layer.__name__[len("factopo."):]:
            assert value is layer
        else:
            assert value is vars(layer)[name], name
            assert value.__module__ == layer.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        factopo.cli_main
