"""Every public name of ``metriconn`` resolves: a stale ``__all__`` entry
breaks ``from metriconn.<module> import *``, and the package re-exports
only names its modules list."""

import ast
import importlib
import pkgutil
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
