import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    # a refactor that moves patched code, or renames a named test, must
    # update the table with it (run it with python tests/mutants.py)
    text = (mutants.ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defined, test


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
