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
