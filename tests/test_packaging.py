"""The distribution metadata names the package and reads its version;
every exported name resolves."""

import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delayedcsit"


def test_project_name_and_single_version_source():
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
