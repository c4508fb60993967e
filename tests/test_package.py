import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tlh

_MODULES = sorted(m.name for m in pkgutil.iter_modules(tlh.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"tlh.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if attr not in vars(module)]
    assert missing == []


def test_package_reexports_exist():
    tree = ast.parse(Path(tlh.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"tlh.{node.module}")
        missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
    for node in imports:
        for alias in node.names:
            assert hasattr(tlh, alias.asname or alias.name)


def test_independent_routes_import_nothing_of_the_engine():
    # the closed form and the link table are checked against the recursion
    # engine, so neither may reach into tlh.shuffle, even for its helpers
    imported = {}
    for name in ("closed_form", "links"):
        tree = ast.parse(Path(tlh.__file__).with_name(f"{name}.py").read_text())
        paths = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                paths += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                paths += [f"{node.module or ''}.{a.name}" for a in node.names]
        imported[name] = [p for p in paths if "shuffle" in p.split(".")]
    assert imported == {"closed_form": [], "links": []}


def test_memory_budget_error_is_one_class():
    from tlh import budget, shuffle

    assert tlh.MemoryBudgetExceeded is budget.MemoryBudgetExceeded
    assert shuffle.MemoryBudgetExceeded is budget.MemoryBudgetExceeded
