"""Byte-for-byte regression on the golden corpus in ``tests/golden``.

Each case is ``<name>.json``: an ``argv`` whose ``{placeholder}`` words
name the input documents under ``files`` (``{out}`` names a fresh output
path), and ``<name>.out``: the expected stdout, or the file written to
``{out}`` when the case has one.  A refactor must leave every report
unchanged; an intended change of output rewrites the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from factopo.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def run_case(name, workdir):
    case = json.loads((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))
    paths = {"out": workdir / "out"}
    for key, doc in case["files"].items():
        paths[key] = workdir / (key + ".json")
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a
            for a in case["argv"]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, "%s exited %d" % (name, code)
    if "{out}" in case["argv"]:
        assert stdout.getvalue() == ""
        return paths["out"].read_text(encoding="utf-8")
    return stdout.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_golden_report(name, tmp_path):
    want = (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == want


if __name__ == "__main__":
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(name, pathlib.Path(tmp))
        (GOLDEN / (name + ".out")).write_text(text, encoding="utf-8")
        print("wrote %s.out" % name, file=sys.stderr)
