"""The test configuration itself: a failing property test is reported
as a failure, and the tests after it still run.  And four source rules:
files are written only through :mod:`cxfilter.io`'s atomic writers,
WAVs are read and written only inside :mod:`cxfilter.io`, whose WAV
directory codec every other module goes through, the speaker cap
``MAX_SPEAKERS`` is read only in :mod:`cxfilter.losses`, whose
permutation search it bounds, and importing :mod:`cxfilter.cli` leaves
the slow-to-import scipy submodules unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "cxfilter"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_internal_error(tmp_path):
    (tmp_path / "test_case.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            str(tmp_path / "test_case.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


# Path methods that write a file in place.
PATH_WRITERS = ("write_text", "write_bytes", "touch")
# (module, enclosing function, call) writing outside io.py by design:
# the output-directory probe, an empty file removed again at once.
ALLOWED_WRITES = {("cli.py", "_make_out_dir", "touch")}


def _write_call(call: ast.Call):
    """The name of a file-writing call, or None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in PATH_WRITERS:
        return func.attr
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = call.args[:1]
    else:
        return None
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    for mode in modes:
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return "open"  # a mode computed at run time may write
        if set(mode.value) & set("wax+"):
            return "open"
    return None


def _writes(node, function=None):
    """(enclosing function, call) of every file-writing call under a node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _writes(child, child.name)
            continue
        if isinstance(child, ast.Call) and (call := _write_call(child)):
            yield function, call
        yield from _writes(child, function)


def test_files_are_written_only_through_io():
    found = {
        (path.name, function, call)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "io.py"
        for function, call in _writes(ast.parse(path.read_text()))
    }
    assert found == ALLOWED_WRITES


WAV_CALLS = ("read_wav", "write_wav")


def test_wavs_are_read_and_written_only_in_io():
    found = sorted(
        (path.name, call.lineno)
        for path in PACKAGE.glob("*.py")
        if path.name != "io.py"
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) in WAV_CALLS
    )
    assert found == []


def test_speaker_cap_is_read_only_in_losses():
    found = sorted(
        (path.name, node.lineno)
        for path in PACKAGE.glob("*.py")
        if path.name != "losses.py"
        for node in ast.walk(ast.parse(path.read_text()))
        # A name, an attribute or an imported name.
        if "MAX_SPEAKERS" in (getattr(node, k, None) for k in ("id", "attr", "name"))
    )
    assert found == []


# scipy submodules imported only inside the functions that use them:
# scipy.signal alone adds more to a process start than cxfilter.cli
# takes without it.
LAZY_SCIPY = ("scipy.signal", "scipy.optimize", "scipy.stats")


def test_cli_import_leaves_lazy_scipy_modules_unloaded():
    code = (
        "import sys, cxfilter.cli; "
        f"print([m for m in {LAZY_SCIPY!r} if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
