"""Tooling checks against stale names: every exported name resolves, and
every name the demos import from laxsched exists. The demos are parsed, not
run, because some of them take many seconds."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import laxsched

MODULES = sorted(m.name for m in pkgutil.iter_modules(laxsched.__path__) if m.name != "__main__")
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"laxsched.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"laxsched.{name}.__all__ lists undefined names {missing}"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "laxsched":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"{demo.name} imports undefined names {missing}"


def test_import_loads_no_scipy():
    # scipy is imported only by the oracle's witness LP, on first use
    code = (
        "import sys, laxsched, laxsched.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(pathlib.Path(laxsched.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
