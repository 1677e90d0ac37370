"""The distribution metadata names the package and reads its version;
every exported name resolves; no test shadows another."""

import ast
import importlib
import pathlib

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
