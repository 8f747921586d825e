"""Byte-for-byte regression on the golden corpus in ``tests/golden``,
and a fuzzer that mutates its input documents.

Each case is ``<name>.json``: an ``argv`` whose ``{placeholder}`` words
name the input documents under ``files`` (``{out}`` names a fresh output
path), and ``<name>.out``: the expected stdout, or the file written to
``{out}`` when the case has one.  A case with an ``exit`` code pins a help
or usage screen instead, as an 80-column terminal shows it: its ``.out`` is
the stdout of an exit 0 and the stderr of any other.  A refactor must leave
every report unchanged; an intended change of output rewrites the expected
files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factopo import cli, reader
from factopo.budget import Budget
from factopo.cli import main, parse_argv
from factopo.errors import FactopoError, InvalidSpec

GOLDEN = pathlib.Path(__file__).with_name("golden")
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def load_case(name):
    return json.loads((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))


REPORTS = [name for name in CASES if "exit" not in load_case(name)]


def invoke(case, workdir, extra=()):
    """Run the case's argv in-process on its files written to ``workdir``;
    returns (exit code, stdout, stderr, paths)."""
    paths = {"out": workdir / "out"}
    for key, doc in case["files"].items():
        paths[key] = workdir / (key + ".json")
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a
            for a in case["argv"]] + list(extra)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:  # how argparse ends --help and usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), paths


def run_case(name, workdir):
    case = load_case(name)
    code, stdout, stderr, paths = invoke(case, workdir)
    assert code == case.get("exit", 0), "%s exited %d" % (name, code)
    if "exit" in case:
        shown, silent = (stdout, stderr) if code == 0 else (stderr, stdout)
        assert silent == "", name
        return shown
    if "{out}" in case["argv"]:
        assert stdout == ""
        return paths["out"].read_text(encoding="utf-8")
    return stdout


@pytest.mark.parametrize("name", CASES)
def test_golden_report(name, tmp_path):
    want = (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == want


@pytest.mark.parametrize("name", REPORTS)
def test_each_report_runs_on_one_budget(name, tmp_path, monkeypatch):
    made = []
    init = Budget.__init__

    def counting(self, limit=None):
        made.append(self)
        init(self, limit)

    monkeypatch.setattr(Budget, "__init__", counting)
    run_case(name, tmp_path)
    assert len(made) == 1, [b.used for b in made]


@pytest.mark.parametrize("name", REPORTS)
def test_a_budget_of_one_step_refuses_every_report(name, tmp_path):
    code, stdout, stderr, _paths = invoke(load_case(name), tmp_path,
                                          ["--budget", "1"])
    lines = stderr.splitlines()
    assert (code, stdout) == (1, ""), (code, stdout)
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


@pytest.mark.parametrize("name", REPORTS)
def test_every_report_takes_the_fast_path(name):
    # parse_argv reads every golden report's command line without argparse
    argv = [word.strip("{}") + ".json" if word.startswith("{") else word
            for word in load_case(name)["argv"]]
    assert parse_argv(argv) is not None, argv


def test_python_m_factopo_reads_sys_argv(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(load_case("classify-field")["files"]["ring"]),
                    encoding="utf-8")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "factopo", "classify",
                           "--ring", str(ring)], capture_output=True, env=env,
                          check=False)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "classify-field.out").read_bytes()


def locations(doc, path=()):
    """The path of every value inside a JSON document, its root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, path + (key,))


WITH_FILES = [name for name in CASES if load_case(name)["files"]]


def containers(doc):
    """Every object and list of a JSON document, the document first."""
    if isinstance(doc, (dict, list)):
        yield doc
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from containers(value)


@pytest.mark.parametrize("name", WITH_FILES)
def test_each_input_file_is_read_once(name, tmp_path, monkeypatch):
    # reader.read runs once on each input file, at its top, and never again
    # on a part of it
    docs, reads = [], []
    load, read = cli.load_json, reader.read

    def loading(path):
        doc = load(path)
        docs.append((doc, {id(part) for part in containers(doc)}))
        return doc

    def counting(doc, table, error=InvalidSpec):
        reads.append(id(doc))
        return read(doc, table, error)

    monkeypatch.setattr(cli, "load_json", loading)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("factopo") and \
                getattr(module, "read", None) is read:
            monkeypatch.setattr(module, "read", counting)
    run_case(name, tmp_path)
    assert len(docs) == len(load_case(name)["files"])
    assert [reads.count(id(doc)) for doc, _parts in docs] == [1] * len(docs)
    assert [sum(r in parts for r in reads) for _doc, parts in docs] == \
        [1] * len(docs)


# what a mutation puts in place of a value: another JSON type, or a number
# past a machine word, past any table, or below zero
OTHER_TYPES = [None, True, 0, 1.5, "x", [], {}]
NUMBERS = [2 ** 63, 10 ** 30, -1]


DROPPED = object()


@st.composite
def mutants(draw):
    """A golden case whose one input document lost a field or entry, had a
    value replaced, or had a value wrapped in a list, with the mutation:
    the case's name, the document's key, the path of the value, and the
    value put there (``DROPPED`` for none)."""
    name = draw(st.sampled_from(WITH_FILES))
    case = load_case(name)
    key = draw(st.sampled_from(sorted(case["files"])))
    doc = case["files"][key] = copy.deepcopy(case["files"][key])
    path = draw(st.sampled_from(list(locations(doc))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]] if path else doc
    kind = draw(st.sampled_from(["drop", "type", "number", "wrap"]))
    if kind == "drop" and path:
        del parent[path[-1]]
        return case, (name, key, path, DROPPED)
    # a whole document has no field to drop, so it gets another type
    new = [old] if kind == "wrap" else draw(st.sampled_from(
        NUMBERS if kind == "number" else
        [v for v in OTHER_TYPES if type(v) is not type(old)]))
    if path:
        parent[path[-1]] = new
    else:
        case["files"][key] = new
    return case, (name, key, path, new)


# the table that reads the file each flag names; a family file's depends
# on --topology
FLAG_TABLES = {"--ring": reader.RING, "--base": reader.RING,
               "--hom": reader.HOM, "--object": reader.SSET,
               "--space": reader.VSPACE, "--category": reader.CATEGORY}


def table_refuses(mutation):
    """Whether the file's table refuses the mutation on its own: it drops
    a required field, or puts a value where the table allows none of its
    type.  The path is found in the table along the unmutated document."""
    name, key, path, new = mutation
    case = load_case(name)
    argv, doc = case["argv"], case["files"][key]
    flag = argv[argv.index("{%s}" % key) - 1]
    table = reader.FAMILIES[argv[argv.index("--topology") + 1]] \
        if flag == "--family" else FLAG_TABLES[flag]
    for step in path:
        parent, _problem = reader.match(doc, table)
        table = next(u for k, _v, u in reader.entries(parent, doc)
                     if k == step)
        doc = doc[step]
    if new is DROPPED:
        return isinstance(parent, dict) and path[-1] in parent
    try:
        reader.read(new, table)
    except FactopoError:
        return True
    return False


@given(mutants())
def test_mutated_golden_inputs_exit_cleanly(mutant):
    # any input answers, or is refused with one error line, within a bound
    # far above what the golden cases take under this budget; what its
    # table refuses must be refused
    case, mutation = mutant
    with tempfile.TemporaryDirectory() as tmp:
        started = time.perf_counter()
        code, _stdout, stderr, _paths = invoke(
            case, pathlib.Path(tmp), ["--budget", "100000"])
        elapsed = time.perf_counter() - started
    assert code in (0, 1, 2), code
    if code == 1:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    if table_refuses(mutation):
        assert code == 1, (mutation, code)
    assert elapsed < 10, elapsed


if __name__ == "__main__":
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(name, pathlib.Path(tmp))
        (GOLDEN / (name + ".out")).write_text(text, encoding="utf-8")
        print("wrote %s.out" % name, file=sys.stderr)
