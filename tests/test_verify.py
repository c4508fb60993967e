import pytest

from tlh import shuffle, verify
from tlh.poly import A, BinomialFactor, NonExactDivision


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


def _recursion_results(max_n):
    return {r.name: r for r in verify.run_suites(["recursions"], max_n=max_n)}


def test_normalization_check_fails_if_division_stops_a_power_short(monkeypatch):
    # The check multiplies (1 - q)^#0 into the series and must divide all of
    # it back out; a division that leaves one power in while claiming to have
    # cancelled it must not pass.
    divide_power = BinomialFactor.divide_power

    def one_short(self, p, mult):
        quo, left = divide_power(self, p, mult)
        return (quo * self.poly() if left < mult else quo), left

    monkeypatch.setattr(BinomialFactor, "divide_power", one_short)
    results = _recursion_results(3)
    assert results["dual-recursion-equivalence"].status == verify.PASS
    check = results["normalization-consistency"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |v|=1, |v|=2, |v|=3"


def test_dual_check_fails_if_one_weight_class_is_perturbed(monkeypatch):
    # In v = 0010 the words 000, 100, 010 and 110 insert no one to the right
    # of v's one, so they share one weight; change that weight alone.
    weight = shuffle.insertion_weight

    def perturbed(v, w):
        value = weight(v, w)
        return value + A if v == "0010" and w.endswith("0") else value

    monkeypatch.setattr(shuffle, "insertion_weight", perturbed)
    results = _recursion_results(4)
    assert results["normalization-consistency"].status == verify.PASS
    check = results["dual-recursion-equivalence"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |v|=4"
