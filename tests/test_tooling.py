"""The test configuration itself: a failing property test is reported as
a failure, and the tests after it still run.  And these source rules:
files are written only through :mod:`cxfilter.io`'s atomic writers,
directories are made only by :mod:`cxfilter.io`, with the file that
goes into them, WAVs are read and written only inside
:mod:`cxfilter.io`, whose WAV directory codec every other module goes
through, the speaker cap ``MAX_SPEAKERS`` is read only in
:mod:`cxfilter.losses`, whose permutation search it bounds, the
fitting order is decided only in :mod:`cxfilter.fcp`, the one module
that names ``energy_sort``, no module has a ``global`` statement or
sets an attribute of a module it imports, scipy is imported only by
the solve where numpy bundles no OpenBLAS, importing
:mod:`cxfilter.cli` loads no scipy module, nor does a ``simulate``, a
generated ``separate`` or a ``sweep`` run, and a ``separate`` batch
after the import loads no further module, and a ``CliError`` is built
only where an exit code differs from what ``cli.main`` maps an
exception type to, and only the prediction stage and the SI-SDR-LE
analysis call ``stft`` or ``istft``, so stages hand each other
signals, threads are started only by the one hand-out helper and
processes only by the batch runner's pool, OpenBLAS is pinned only by
the batch runner and its pool workers, threads are handed out only by
the FCP fit and the scene scorer, and a C library is opened
through ctypes only by numpy's OpenBLAS loader and the heap policy,
which alone calls ``mallopt``.  A smoke run of ``tools/peak_rss.py`` checks that it
prints a finite slope."""

import ast
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cxfilter.cli import main
from cxfilter.fcp import openblas
from cxfilter.io import write_json

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
# (module, enclosing function, call) writing outside io.py by design.
ALLOWED_WRITES = set()


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


# Calls that make a directory.
DIRECTORY_MAKERS = ("mkdir", "makedirs")


def test_directories_are_made_only_in_io():
    # io._replacing makes a file's directory when it writes the file, so
    # no run leaves a directory without a file in it.
    found = sorted(
        (path.name, call.lineno)
        for path in PACKAGE.glob("*.py")
        if path.name != "io.py"
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None))
        in DIRECTORY_MAKERS
    )
    assert found == []


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


def test_fitting_order_is_decided_only_in_fcp():
    found = sorted(
        (path.name, type(node).__name__)
        for path in PACKAGE.glob("*.py")
        if path.name != "fcp.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if "energy_sort" in (getattr(node, k, None) for k in ("id", "attr", "name"))
    )
    # The package re-exports the public name and nothing else names it.
    assert found == [("__init__.py", "alias")]


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # a parent that is a module, not a package
        return False


def _module_mutations(tree, scope=None, modules=None):
    """(enclosing function, kind) of every ``global`` statement under a
    node, and of every assignment, augmented assignment, ``del``,
    ``setattr`` or ``delattr`` whose target is an imported module: a
    name bound by ``import``, or by ``from`` when it names a module.
    ``setattr`` counts when called or when passed on, as to ``partial``."""
    if modules is None:
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules |= {
                    a.asname or a.name
                    for a in node.names
                    if _is_module(f"{node.module}.{a.name}")
                }

    def is_module(node):
        return isinstance(node, ast.Name) and node.id in modules

    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name if scope is None else f"{scope}.{child.name}"
        if isinstance(child, ast.Global):
            yield scope, "global"
        elif isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
            if is_module(child.value):
                yield scope, type(child.ctx).__name__.lower()
        elif isinstance(child, ast.Call):
            seq = [child.func, *child.args]
            for setter, target in zip(seq, seq[1:]):
                name = getattr(setter, "id", getattr(setter, "attr", None))
                if name in ("setattr", "delattr") and is_module(target):
                    yield scope, name
        yield from _module_mutations(child, inner, modules)


def test_no_module_holds_state_that_another_sets():
    found = sorted(
        (path.name, function, kind)
        for path in PACKAGE.glob("*.py")
        for function, kind in _module_mutations(ast.parse(path.read_text()))
    )
    assert found == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f():\n    global x\n    x = 1", [("f", "global")]),
        ("import os\nos.sep = '/'", [(None, "store")]),
        ("import numpy.random\ndel numpy.x", [(None, "del")]),
        ("from cxfilter import fcp as m\nm.x += 1", [(None, "store")]),
        ("from cxfilter import fcp\nsetattr(fcp, 'x', 1)", [(None, "setattr")]),
        (
            "import functools\nfrom cxfilter import fcp\n"
            "def pin():\n    functools.partial(setattr, fcp, 'x')",
            [("pin", "setattr")],
        ),
        ("class A:\n    def f(self):\n        object.__setattr__(self, 'x', 1)", []),
        ("from cxfilter.fcp import MAX_TAPS\nMAX_TAPS.x = 1", []),
        ("import os\nclass A:\n    def f(self):\n        self.sep = os.sep", []),
    ],
)
def test_module_mutation_rule_finds_its_cases(source, found):
    assert list(_module_mutations(ast.parse(source))) == found


# Classes whose construction starts a thread or a process.
WORKER_CLASSES = ("Thread", "ThreadPoolExecutor", "ProcessPoolExecutor")
# (class, module, enclosing function) of every such construction: threads
# start only in the one hand-out helper, processes only in the batch
# runner's pool.
WORKER_CONSTRUCTIONS = {
    ("ThreadPoolExecutor", "fcp.py", "run_on_threads"),
    ("ProcessPoolExecutor", "experiment.py", "_map_jobs"),
}


def _named_calls(tree, names):
    """(enclosing function, name) of every call of one of ``names``, by
    the name it is called through: ``Thread(...)``,
    ``threading.Thread(...)`` and so on."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                yield scope, name


def _worker_constructions(tree):
    """(enclosing function, class) of every construction of one of
    :data:`WORKER_CLASSES`."""
    return _named_calls(tree, WORKER_CLASSES)


def test_threads_and_processes_start_in_one_place_each():
    found = {
        (kind, path.name, scope)
        for path in PACKAGE.glob("*.py")
        for scope, kind in _worker_constructions(ast.parse(path.read_text()))
    }
    assert found == WORKER_CONSTRUCTIONS


@pytest.mark.parametrize(
    "source, found",
    [
        ("import threading\nthreading.Thread(target=f)", [(None, "Thread")]),
        ("from threading import Thread\ndef f():\n    Thread()", [("f", "Thread")]),
        (
            "import concurrent.futures as cf\nclass A:\n    def f(self):\n"
            "        cf.ThreadPoolExecutor(2)",
            [("A.f", "ThreadPoolExecutor")],
        ),
        (
            "def f():\n    def g():\n        ProcessPoolExecutor(max_workers=2)",
            [("f.g", "ProcessPoolExecutor")],
        ),
        ("import threading\nthreading.local()", []),
        ("from threading import Thread\nclass T(Thread):\n    pass", []),
    ],
)
def test_worker_rule_finds_its_cases(source, found):
    assert list(_worker_constructions(ast.parse(source))) == found


# Calls that pin numpy's OpenBLAS threads or hand out Python threads.
THREAD_CALLS = ("_pin_blas_threads", "run_on_threads")
# (call, module, enclosing function) of each: one batch runner pins and
# restores OpenBLAS, for its own process and its pool workers, and only
# the FCP fit and the scene scorer split their work over threads.
THREAD_CALL_SITES = {
    ("_pin_blas_threads", "experiment.py", "_map_jobs"),
    ("_pin_blas_threads", "experiment.py", "_start_worker"),
    ("run_on_threads", "fcp.py", "estimate_fcp_filter"),
    ("run_on_threads", "metrics.py", "evaluate_scene"),
}


def test_blas_pins_and_thread_hand_outs_happen_in_one_place_each():
    found = {
        (name, path.name, scope)
        for path in PACKAGE.glob("*.py")
        for scope, name in _named_calls(ast.parse(path.read_text()), THREAD_CALLS)
    }
    assert found == THREAD_CALL_SITES


@pytest.mark.parametrize(
    "source, found",
    [
        (
            "from cxfilter.experiment import _pin_blas_threads\ndef f():\n"
            "    previous = _pin_blas_threads()\n    _pin_blas_threads(previous)",
            [("f", "_pin_blas_threads")] * 2,
        ),
        (
            "from cxfilter import fcp\nclass A:\n    def f(self, g):\n"
            "        fcp.run_on_threads(g, [0, 1], 2)",
            [("A.f", "run_on_threads")],
        ),
        (
            "def f(items):\n    def g(c):\n        pass\n"
            "    run_on_threads(g, items, 1)",
            [("f", "run_on_threads")],
        ),
        ("from cxfilter.fcp import run_on_threads\nhand_out = run_on_threads", []),
    ],
)
def test_thread_call_rule_finds_its_cases(source, found):
    assert list(_named_calls(ast.parse(source), THREAD_CALLS)) == found


# Calls that open a shared library through ctypes, and glibc's mallopt.
NATIVE_CALLS = ("CDLL", "LoadLibrary", "mallopt")
# (call, module, enclosing function) of each: numpy's OpenBLAS is opened
# in one place, and only the heap policy opens the C library and sets
# its allocator, since no call can restore that.
NATIVE_CALL_SITES = {
    ("CDLL", "fcp.py", "openblas"),
    ("CDLL", "experiment.py", "set_heap_policy"),
    ("mallopt", "experiment.py", "set_heap_policy"),
}


def test_c_libraries_are_opened_and_the_heap_set_in_one_place_each():
    found = {
        (name, path.name, scope)
        for path in PACKAGE.glob("*.py")
        for scope, name in _named_calls(ast.parse(path.read_text()), NATIVE_CALLS)
    }
    assert found == NATIVE_CALL_SITES


@pytest.mark.parametrize(
    "source, found",
    [
        ("import ctypes\nctypes.CDLL(None)", [(None, "CDLL")]),
        (
            "from ctypes import CDLL\ndef f():\n    CDLL(None).mallopt(-1, 0)",
            [("f", "mallopt"), ("f", "CDLL")],
        ),
        (
            "import ctypes\nclass A:\n    def f(self):\n"
            "        ctypes.cdll.LoadLibrary('libc.so.6')",
            [("A.f", "LoadLibrary")],
        ),
        (
            "def f(libc):\n    mallopt = libc.mallopt\n    mallopt(-3, 1)",
            [("f", "mallopt")],
        ),
        ("import ctypes\nctypes.c_int(1)\nopen_ = ctypes.CDLL", []),
    ],
)
def test_native_call_rule_finds_its_cases(source, found):
    assert list(_named_calls(ast.parse(source), NATIVE_CALLS)) == found


# (function, exit code) of each CliError that cli.py builds: the codes
# that main's mapping of exception types to exit codes does not give.
ALLOWED_CLI_ERRORS = {
    ("_Parser.error", "EXIT_BAD_ARGS"),
    ("_resolve_config", "EXIT_IO"),
    ("cmd_eval", "EXIT_IO"),
    ("cmd_eval", "EXIT_SHAPE_MISMATCH"),
}


def _scoped_nodes(node, scope=None):
    """(enclosing function, node) of every node under a node; a method
    reads ``Class.method``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name if scope is None else f"{scope}.{child.name}"
        yield from _scoped_nodes(child, inner)


def test_cli_errors_are_built_only_where_main_maps_otherwise():
    found = {
        (scope, ast.unparse(node.args[0]) if node.args else None)
        for scope, node in _scoped_nodes(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CliError"
    }
    assert found == ALLOWED_CLI_ERRORS


def _imported_roots(node) -> list:
    """The top-level packages an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_scipy_is_imported_only_by_the_solve_fallback():
    # numpy's FFT renders scenes and numpy's bundled OpenBLAS solves; scipy
    # runs only the solve on a numpy built on another BLAS.
    found = sorted(
        (path.name, scope)
        for path in PACKAGE.glob("*.py")
        for scope, node in _scoped_nodes(ast.parse(path.read_text()))
        if "scipy" in _imported_roots(node)
    )
    assert found == [("fcp.py", "cho_factor"), ("fcp.py", "cho_solve")]


# (call, module, top-level function) of every STFT analysis and synthesis:
# stages hand each other signals, so only the prediction stage and the
# SI-SDR-LE analysis move between a signal and a spectrogram.
TRANSFORM_CALLS = {
    ("stft", "pipeline.py", "run_fcp_stage"),
    ("stft", "metrics.py", "_analyse"),
    ("istft", "pipeline.py", "run_fcp_stage"),
    ("istft", "metrics.py", "si_sdr_le"),
}


def test_no_spectrogram_crosses_a_stage_boundary():
    found = {
        (name, path.name, str(scope).split(".")[0])
        for path in PACKAGE.glob("*.py")
        for scope, node in _scoped_nodes(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in ("stft", "istft")
    }
    assert found == TRANSFORM_CALLS


def _fresh_python(code: str, cwd=None) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this package from the source tree."""
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


SCIPY_MODULES = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"


def test_cli_import_leaves_lazy_scipy_modules_unloaded():
    # scipy is imported only inside the solve where numpy bundles no
    # OpenBLAS: it takes longer to import than cxfilter.cli does without it.
    assert _fresh_python("import sys, cxfilter.cli; " + SCIPY_MODULES) == "[]\n"


# One 0.5 s scene, generated, for the batch runs.
SHORT_BATCH = {"num_scenes": 1, "scene": {"duration_s": 0.5}}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "out", "--count", "1", "--duration", "0.5"],
        ["separate", "--out", "out", "--config", "short.json", "--fcp", "essu",
         "--jobs", "1"],
        ["sweep", "--out", "out", "--config", "short.json", "--axis", "taps",
         "--values", "2,3", "--jobs", "1"],
    ],
    ids=["simulate", "separate", "sweep"],
)
def test_runs_load_no_scipy(tmp_path, argv):
    if argv[0] != "simulate" and openblas() is None:
        pytest.skip("the FCP solve imports scipy where numpy bundles no OpenBLAS")
    write_json(tmp_path / "short.json", SHORT_BATCH)
    code = (
        f"import sys, cxfilter.cli; assert cxfilter.cli.main({argv!r}) == 0; "
        + SCIPY_MODULES
    )
    assert _fresh_python(code, cwd=tmp_path).splitlines()[-1] == "[]"


@pytest.mark.parametrize("fcp", ["off", "essu"])
def test_separate_batch_imports_no_module_after_the_cli(tmp_path, fcp):
    # Set-up work stays in the import: a batch loads nothing more.
    simulate = ["simulate", "--out", str(tmp_path / "scenes"), "--count", "1",
                "--speakers", "2", "--duration", "0.5"]
    assert main(simulate) == 0
    argv = ["separate", "--scenes", "scenes", "--out", "out", "--fcp", fcp,
            "--jobs", "1"]
    code = (
        "import sys, cxfilter.cli; before = set(sys.modules); "
        f"assert cxfilter.cli.main({argv!r}) == 0; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert _fresh_python(code, cwd=tmp_path).splitlines()[-1] == "[]"


def test_peak_rss_tool_prints_a_finite_slope():
    # Two short scenes keep the smoke run to a few seconds; the tool's
    # default 10, 30 and 60 s durations are for measurements.
    tool = PYPROJECT.parent / "tools" / "peak_rss.py"
    run = subprocess.run(
        [sys.executable, str(tool), "--durations", "0.5,1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["0.5 s", "1 s", "slope"]
    peaks = [float(line.split()[-2]) for line in lines[:2]]
    assert all(peak > 0 for peak in peaks)
    slope = float(lines[2].split()[1])
    assert math.isfinite(slope)
    assert lines[2] == f"slope: {slope:.2f} MiB/s"
