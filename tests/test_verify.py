import pytest

from tlh import shuffle, verify
from tlh.poly import NonExactDivision


def _broken(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


def test_raising_check_is_graded_fail(monkeypatch):
    monkeypatch.setattr(
        shuffle, "zero_expansion_identity", _broken(NonExactDivision("no quotient"))
    )
    prefix, expansion = verify.run_suites(["zeroseq"], max_n=3)
    assert prefix.status == verify.PASS
    assert expansion.name == "zero-expansion-identity"
    assert expansion.status == verify.FAIL
    assert expansion.detail == "raised NonExactDivision: no quotient"
    assert verify.exit_status([prefix, expansion]) == 1


@pytest.mark.parametrize("exc", [TypeError("bug"), KeyError("bug")])
def test_bare_errors_in_a_check_propagate(monkeypatch, exc):
    monkeypatch.setattr(shuffle, "zero_expansion_identity", _broken(exc))
    with pytest.raises(type(exc)):
        verify.run_suites(["zeroseq"], max_n=3)


@pytest.mark.parametrize("max_n", [0, -1])
def test_run_suites_rejects_a_bound_below_one(max_n):
    with pytest.raises(ValueError, match="max_n"):
        verify.run_suites(["magic", "zeroseq"], max_n=max_n)
