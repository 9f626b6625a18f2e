"""Every public name of ``metriconn`` resolves: a stale ``__all__`` entry
breaks ``from metriconn.<module> import *``, and the package re-exports
only names its modules list.  Importing the package loads numpy and none
of the packages that serve the tests only."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import metriconn

MODULES = sorted(info.name for info in pkgutil.iter_modules(metriconn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"metriconn.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from metriconn.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_the_package_imports_only_listed_names():
    tree = ast.parse(Path(metriconn.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"metriconn.{module_name}")
        assert hasattr(metriconn, name), name
        assert name in module.__all__, f"metriconn.{module_name}.{name}"


TEST_ONLY = ("scipy", "sympy", "mpmath", "hypothesis", "pytest")


def test_import_loads_numpy_and_no_test_only_package():
    # a fresh interpreter: this one has pytest and its plugins loaded
    code = ("import sys, metriconn; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
    src = str(Path(metriconn.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(done.stdout.split())
    assert "metriconn" in loaded and "numpy" in loaded
    assert sorted(loaded.intersection(TEST_ONLY)) == []
