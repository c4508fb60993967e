import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 1 MB of RSS
    # and 7 ms that every CLI process would pay for
    src = os.path.dirname(os.path.dirname(tlh.__file__))
    probe = "import sys, tlh.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.split() == []


def test_verify_reads_one_private_engine_name_and_no_budget():
    # the packed route agreement, with its runs, their pairing and their
    # joint memory check, is the engine's to keep: verify reads its counts
    tree = ast.parse(Path(tlh.__file__).with_name("verify.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {part for a in node.names for part in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            imported |= {a.name for a in node.names}
    assert "budget" not in imported
    private = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "shuffle" and node.attr.startswith("_")
    }
    assert private == {"_agreement"}
