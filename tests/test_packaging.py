"""The distribution metadata names the package and reads its version;
every exported name resolves; every runtime import is a declared
dependency, and importing the package loads no writer it does not use; no
test shadows another; every xfail is strict and gives its reason."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delayedcsit"


def test_project_name_and_single_version_source():
    tomllib = pytest.importorskip("tomllib")  # the stdlib's from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["name"] == "delayedcsit"
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "delayedcsit.__version__"


def test_exported_names_resolve():
    # a deleted function must leave every export list too
    names = ["delayedcsit"] + [f"delayedcsit.{path.stem}"
                               for path in sorted(PACKAGE.glob("*.py"))
                               if path.stem != "__init__"]
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        assert exported is not None, name
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, (name, missing)


def _third_party_imports(source: str) -> set:
    """The top-level names of the modules ``source`` imports, at any depth
    of it, that are neither the standard library's nor relative."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"delayedcsit"}


def test_runtime_imports_are_declared():
    # an import inside a function is found too: a missing dependency would
    # fail only when that function first runs
    assert _third_party_imports(
        "import json, numpy.linalg as la\nfrom . import schemes\n"
        "from scipy import linalg\ndef f():\n    import orjson\n"
    ) == {"numpy", "scipy", "orjson"}
    tomllib = pytest.importorskip("tomllib")  # the stdlib's from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in meta["project"]["dependencies"]}
    used = set().union(*(_third_party_imports(path.read_text(encoding="utf-8"))
                         for path in PACKAGE.glob("*.py")))
    assert used - declared == set()


def test_importing_the_package_leaves_orjson_unloaded():
    # only the trace writer uses orjson, so a process that imports the
    # package and writes no JSON does not pay for loading it
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    code = ("import sys, delayedcsit.cli\n"
            "print(sorted({'delayedcsit', 'orjson'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "['delayedcsit']"


def test_no_test_name_is_defined_twice():
    # a second def of a name replaces the first, so the suite would run one
    # test fewer and say nothing
    shadowed = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            names = [n.name for n in scope.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and n.name.startswith("test")]
            shadowed += [(path.name, getattr(scope, "name", None), name)
                         for name in sorted(set(names)) if names.count(name) > 1]
    assert not shadowed


def _loose_xfails(source: str) -> list:
    """Line numbers of the ``pytest.mark.xfail`` marks in ``source`` that
    lack ``strict=True`` or a nonempty ``reason``."""
    tree = ast.parse(source)
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    loose = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "xfail"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "mark"):
            continue
        call = calls.get(id(node))
        given = {k.arg: k.value for k in call.keywords} if call else {}
        strict, reason = given.get("strict"), given.get("reason")
        if not (isinstance(strict, ast.Constant) and strict.value is True
                and reason is not None
                and not (isinstance(reason, ast.Constant) and not reason.value)):
            loose.append(node.lineno)
    return loose


def test_every_xfail_is_strict_with_a_reason():
    # a test that starts to pass under a loose xfail is reported as XPASS
    # and the run still passes, so a fix would go unseen
    assert _loose_xfails(
        "import pytest\n"
        "@pytest.mark.xfail\ndef test_a(): pass\n"
        "@pytest.mark.xfail(reason='r')\ndef test_b(): pass\n"
        "@pytest.mark.xfail(strict=True)\ndef test_c(): pass\n"
        "@pytest.mark.xfail(strict=True, reason='')\ndef test_d(): pass\n"
        "@pytest.mark.xfail(strict=True, reason='r')\ndef test_e(): pass\n"
        "P = pytest.param(1, marks=pytest.mark.xfail(strict=False, reason='r'))\n"
    ) == [2, 4, 6, 8, 12]
    loose = [(path.name, line)
             for path in sorted((ROOT / "tests").glob("test_*.py"))
             for line in _loose_xfails(path.read_text(encoding="utf-8"))]
    assert not loose


def _private_imports(source: str) -> list:
    """The ``_name``s that ``source`` imports from a sibling module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own: a caller elsewhere would keep it
    # from being changed or deleted there
    assert _private_imports(
        "from . import numerics\nfrom .schemes import _NL, json_pieces\n"
        "from numpy import _core\ndef f():\n    from .ledger import _block\n"
    ) == ["_NL", "_block"]
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _private_imports(path.read_text(encoding="utf-8"))]
    assert not found
