import random
import threading
import weakref
from collections import Counter
from math import comb

import pytest

from tlh import budget, closed_form, links, shuffle, tableaux, verify
from tlh.poly import Q, BinomialFactor, NonExactDivision, Polynomial
from tlh.shuffle import poincare_poly


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


@pytest.mark.parametrize("seed", [0x5EED, 0xD1CE])
def test_random_polys_are_the_ones_randint_draws(seed):
    # the polycore inputs are those of the randint draws: the same
    # polynomials and the generator left in the same state, at each size
    # the polycore checks ask for
    def by_randint(rng, terms=4, span=8):
        out = {}
        for _ in range(rng.randrange(terms + 1)):
            exp = tuple(rng.randint(-span, span) for _ in range(3))
            out[exp] = rng.randint(-5, 5)
        return Polynomial(out)

    got, want = random.Random(seed), random.Random(seed)
    for i in range(20000):
        size = [(4, 8), (3, 4), (3, 3)][i % 3]
        assert verify._random_poly(got, *size) == by_randint(want, *size), i
    assert got.getstate() == want.getstate()


def test_a_check_is_copied_with_another_fn_by_dataclasses_replace():
    # as perfbench's tracer wraps each check's fn, though Check is a NamedTuple
    import dataclasses

    check = verify.SUITES["recursions"][0]
    copy = dataclasses.replace(check, fn=len)
    assert type(copy) is verify.Check and copy.fn is len
    assert copy._replace(fn=check.fn) == check


def _result(kind, status):
    return verify.CheckResult("suite", "check", kind, status, "detail")


def test_exit_status_is_1_on_any_failed_check():
    passed = _result(verify.THEOREM, verify.PASS)
    conjecture = _result(verify.CONJECTURE, verify.FAIL)
    theorem = _result(verify.THEOREM, verify.FAIL)
    finding = _result(verify.CONJECTURE, verify.FINDING)
    assert verify.exit_status([passed, theorem]) == 1
    assert verify.exit_status([passed, finding]) == 0
    assert verify.exit_status([passed, conjecture]) == 1
    assert verify.exit_status([conjecture, theorem]) == 1


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


def test_division_inverse_check_fails_if_division_stops_a_power_short(monkeypatch):
    # A division that leaves one power in while claiming to have cancelled
    # it must not pass the check of the engine's exact divisions.
    divide_power = BinomialFactor.divide_power

    def one_short(self, p, mult):
        quo, left = divide_power(self, p, mult)
        return (quo * self.poly() if left < mult else quo), left

    monkeypatch.setattr(BinomialFactor, "divide_power", one_short)
    results = {r.name: r for r in verify.run_suites(["polycore"], max_n=20)}
    check = results["exact-division-inverse"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: quotient recovery"


# Each mutant below breaks one link of the normalization check's second
# side, (1 - q)^#0(v) f(v) with f stepped on the f route; the P and
# insertion routes of the dual check never step on it.


def _assert_normalization_fails(detail):
    results = _recursion_results(4)
    assert results["dual-recursion-equivalence"].status == verify.PASS
    check = results["normalization-consistency"]
    assert check.status == verify.FAIL
    assert check.detail == detail


def test_normalization_check_fails_if_the_prefix_sum_stops_a_doubling_short(
    monkeypatch,
):
    # f(0^m) = f(1 0^(m-1)) / (1 - q) sums q-rows 0..r by strides of 1, 2,
    # 4, ... rows; one stride fewer leaves the upper rows summed in part
    step = shuffle._SeriesLayout.step

    def short(layout, key, ds, work):
        r = layout.demand[key]
        if "1" in key or not ds or r < 0:
            return step(layout, key, ds, work)
        mask = layout.masks[r]
        p = work[ds[0]] & mask
        for stride in layout.strides[: r.bit_length() - 1]:
            p = (p + (p << stride)) & mask
        return p

    monkeypatch.setattr(shuffle._SeriesLayout, "step", short)
    _assert_normalization_fails("failed: |v|=2, |v|=3, |v|=4")


def test_normalization_check_fails_if_the_v0_step_drops_its_q_shift(monkeypatch):
    # f(v.0) = q f(0 v) + f(1 v), stepped as f(0 v) + f(1 v)
    step = shuffle._SeriesLayout.step

    def unshifted(layout, key, ds, work):
        r = layout.demand[key]
        if len(ds) < 2 or r < 0:
            return step(layout, key, ds, work)
        return (work[ds[1]] + work[ds[0]]) & layout.masks[r]

    monkeypatch.setattr(shuffle._SeriesLayout, "step", unshifted)
    _assert_normalization_fails("failed: |v|=2, |v|=3, |v|=4")


def test_normalization_check_fails_if_one_factor_of_1_minus_q_is_missing(
    monkeypatch,
):
    # the residue reads only the zeros of its key, one (1 - q) per zero: a
    # key with one zero turned to a one gets (1 - q)^(#0 - 1)
    residue = shuffle._residue

    def one_short(key, packed, rows, sq):
        return residue(key.replace("0", "1", 1), packed, rows, sq)

    monkeypatch.setattr(shuffle, "_residue", one_short)
    _assert_normalization_fails("failed: |v|=2, |v|=3, |v|=4")


def test_normalization_check_fails_if_the_residue_stops_a_row_short(monkeypatch):
    # the residue of the low (rows - 1) SQ bits alone, 0 for a root of one
    # row: the top q-row, where P(v) reaches its q-degree bound, reads 0
    residue = shuffle._residue

    def cut_short(key, packed, rows, sq):
        return residue(key, packed, rows - 1, sq) if rows > 1 else 0

    monkeypatch.setattr(shuffle, "_residue", cut_short)
    _assert_normalization_fails("failed: |v|=0, |v|=1, |v|=2, |v|=3, |v|=4")


def test_dual_check_fails_if_one_weight_class_is_perturbed(monkeypatch):
    # In v = 0010 the words 000, 100, 010 and 110 insert no one to the right
    # of v's one, so they share one weight; change that weight alone, from
    # 1 + a to t + a.
    weight_class = shuffle._weight_class

    def perturbed(v, w):
        ms = weight_class(v, w)
        return (ms[0] + 1,) if v == "0010" and w.endswith("0") else ms

    monkeypatch.setattr(shuffle, "_weight_class", perturbed)
    results = _recursion_results(4)
    assert results["normalization-consistency"].status == verify.PASS
    check = results["dual-recursion-equivalence"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |v|=4"


def test_dual_check_fails_if_the_insertion_fold_is_one_1_minus_q_short(monkeypatch):
    # acc <- acc (1 - q) + q^(z - k) G_k from k = z down to 0, the last fold
    # without its (1 - q): every G_k but G_0 gets (1 - q)^(k - 1)
    step = shuffle._InsertionLayout.step

    def one_short(layout, key, ds, work):
        if "0" not in key or "1" not in key:
            return step(layout, key, ds, work)
        z = key.count("0")
        acc = 0
        for k in range(z, -1, -1):
            g = 0
            for w in ds:
                if w.count("1") == k:
                    p = work[w]
                    for l, m in enumerate(reversed(shuffle._weight_class(key, w))):
                        p = (p << layout.w * (l + m)) + (p << layout.sa)
                    g += p
            acc = acc - (acc << layout.sq) * (k > 0) + (g << (z - k) * layout.sq)
        return acc

    monkeypatch.setattr(shuffle._InsertionLayout, "step", one_short)
    results = _recursion_results(4)
    assert results["normalization-consistency"].status == verify.PASS
    check = results["dual-recursion-equivalence"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |v|=2, |v|=3, |v|=4"


def test_top_a_check_fails_if_its_mask_is_one_a_row_low(monkeypatch):
    # a^(|v| - 1) masked where a^|v| should be: the top coefficient's field
    # lies outside the mask
    a_row = shuffle._Layout.a_row

    def one_low(layout, j):
        return a_row(layout, max(j - 1, 0))

    monkeypatch.setattr(shuffle._Layout, "a_row", one_low)
    results = {r.name: r for r in verify.run_suites(["recursions", "top-a"], max_n=4)}
    assert results["dual-recursion-equivalence"].status == verify.PASS
    assert results["normalization-consistency"].status == verify.PASS
    check = results["top-a-coefficient-is-one"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |v|=1, |v|=2, |v|=3, |v|=4"


# The recursion and top-a checks read P, the insertion route and the f route
# side by side, a length at a time, and pair their values by word: the
# streams must yield the same words in the same order, and a word that one
# stream skips, or yields out of turn, is a bug that the call raises.


def _skipping(make, word):
    """``make``, a function returning a run's estimate and stream, without ``word``."""
    def skipped(*args):
        parts, stream = make(*args)
        return parts, ((v, value) for v, value in stream if v != word)

    return skipped


def test_dual_check_fails_on_a_word_its_stream_skips(monkeypatch):
    run = shuffle._run

    def insertion_skips_010(roots, route, geometry):
        if route is shuffle._InsertionLayout:
            return _skipping(run, "010")(roots, route, geometry)
        return run(roots, route, geometry)

    monkeypatch.setattr(shuffle, "_run", insertion_skips_010)
    with pytest.raises(ValueError, match="out of step: \\['010', '100'\\]"):
        _recursion_results(4)


def test_normalization_check_fails_on_a_word_its_stream_skips(monkeypatch):
    monkeypatch.setattr(shuffle, "_normalized", _skipping(shuffle._normalized, "010"))
    with pytest.raises(ValueError, match="out of step: \\['010', '100'\\]"):
        _recursion_results(4)


def test_every_p_check_fails_on_a_word_the_p_stream_skips(monkeypatch):
    run = shuffle._run

    def p_skips_010(roots, route, geometry):
        if route is shuffle._Layout:
            return _skipping(run, "010")(roots, route, geometry)
        return run(roots, route, geometry)

    monkeypatch.setattr(shuffle, "_run", p_skips_010)
    for suites in (["recursions"], ["top-a"]):
        with pytest.raises(ValueError, match="out of step: \\['100', '010'\\]"):
            verify.run_suites(suites, max_n=4)


def test_streams_out_of_step_raise(monkeypatch):
    # the insertion run's roots listed in the reverse of P's step order: it
    # yields every word, but not in P's order, so no pair forms
    step_order = shuffle._step_order
    monkeypatch.setattr(shuffle, "_step_order", lambda m: step_order(m)[::-1])
    with pytest.raises(ValueError, match="streams out of step"):
        verify.run_suites(["recursions"], max_n=3)
    # a stream that ends before its partner raises too
    with pytest.raises(ValueError, match="shorter"):
        list(shuffle._lockstep(iter([("0", 1), ("1", 2)]), iter([("0", 1)])))


def test_an_engine_error_in_one_route_fails_every_check_that_reads_it(monkeypatch):
    lengths = []
    normalized = shuffle._normalized

    def raising_mid_length_2(m, geometry):
        lengths.append(m)
        parts, stream = normalized(m, geometry)

        def raising():
            for v, value in stream:
                if m == 2:
                    raise NonExactDivision("no quotient")
                yield v, value

        return parts, raising()

    monkeypatch.setattr(shuffle, "_normalized", raising_mid_length_2)
    results = verify.run_suites(["recursions", "top-a"], max_n=3)
    assert [r.status for r in results] == [verify.FAIL] * 3
    assert {r.detail for r in results} == {"raised NonExactDivision: no quotient"}
    # the store keeps the error, so the routes are stepped once, not per check
    assert lengths == [0, 1, 2]


# Verify stdout names a case only when it fails, so these pin the labels of
# the |shape|, N and k sizes, which no stdout digest reaches.


def _results(suite, max_n):
    return {r.name: r for r in verify.run_suites([suite], max_n=max_n)}


def test_catalan_suite_passes_past_the_first_eight_counts():
    # the counts come from C(2n, n) / (n + 1): no table ends at n = 7
    results = _results("catalan", 10)
    assert {r.status for r in results.values()} == {verify.PASS}
    assert results["qt-catalan-count"].detail == "10 case(s)"


def test_inner_outer_count_names_the_failing_shape_size(monkeypatch):
    corners = tableaux.corners

    def one_outer_too_many(shape):
        inner, outer = corners(shape)
        return (inner, outer + outer[:1]) if shape.rows == (2, 1) else (inner, outer)

    monkeypatch.setattr(tableaux, "corners", one_outer_too_many)
    check = _results("corners", 4)["inner-outer-count"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: |shape|=3"


def test_inner_outer_count_checks_every_shape_of_a_failing_size(monkeypatch):
    # a shape that raises after one that failed is still reached
    corners = tableaux.corners

    def broken(shape):
        if shape.rows == (1, 1, 1):
            raise tableaux.NotInnerCorner("late shape")
        inner, outer = corners(shape)
        return (inner, outer + outer[:1]) if shape.rows == (3,) else (inner, outer)

    monkeypatch.setattr(tableaux, "corners", broken)
    check = _results("corners", 3)["inner-outer-count"]
    assert check.status == verify.FAIL
    assert check.detail == "raised NotInnerCorner: late shape"


def test_sl_family_names_the_failing_N(monkeypatch):
    sl_specialization = links.sl_specialization

    def off_at_three(p, n):
        value = sl_specialization(p, n)
        return value + Q if n == 3 else value

    monkeypatch.setattr(links, "sl_specialization", off_at_three)
    results = _results("specialize", 4)
    assert results["two-strand-jones-shape"].status == verify.PASS
    check = results["two-strand-sl-family"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: N=3"


def test_jones_shape_names_the_failing_k(monkeypatch):
    superpoly = links.two_strand_superpoly

    def off_at_two(k):
        value = superpoly(k)
        return value + Q ** 10 if k == 2 else value

    monkeypatch.setattr(links, "two_strand_superpoly", off_at_two)
    results = _results("specialize", 4)
    assert results["two-strand-sl-family"].status == verify.PASS
    check = results["two-strand-jones-shape"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: k=2"


def test_one_p_run_per_call_serves_every_check_that_reads_it(monkeypatch):
    runs = []
    run, normalized = shuffle._run, shuffle._normalized

    def spy(roots, route, geometry):
        runs.append((frozenset(roots), route))
        return run(roots, route, geometry)

    def spy_normalized(m, geometry):
        runs.append((m, "f"))
        return normalized(m, geometry)

    stores = []

    class Recorded(verify._Store):
        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self))

    monkeypatch.setattr(shuffle, "_run", spy)
    monkeypatch.setattr(shuffle, "_normalized", spy_normalized)
    monkeypatch.setattr(verify, "_Store", Recorded)
    # per call: one insertion run over every word, one f run a length, and
    # two P runs a length, one beside each of the other two routes
    per_call = Counter({(frozenset(verify._words(3)), shuffle._InsertionLayout): 1})
    for m in range(4):
        per_call[frozenset(shuffle.all_sequences(m)), shuffle._Layout] = 2
        per_call[m, "f"] = 1
    for calls in (1, 2):  # the second call steps every run again
        results = verify.run_suites(["recursions", "top-a"], max_n=3)
        assert [r.status for r in results] == [verify.PASS] * 3
        assert Counter(runs) == Counter({run: n * calls for run, n in per_call.items()})
        # the call's values are freed when it returns
        assert len(stores) == calls and stores[-1]() is None


def test_one_call_computes_each_shared_value_once(monkeypatch):
    # the store keeps each value for the whole call: three magic checks read
    # the r = 0 tableau sum of each n, and it is computed once
    calls = []
    tableau_sum = tableaux.tableau_sum

    def spy(n, r):
        calls.append((n, r))
        return tableau_sum(n, r)

    monkeypatch.setattr(tableaux, "tableau_sum", spy)
    verify.run_suites(["magic"], max_n=3)
    assert Counter(c for c in calls if c[1] == 0) == {(n, 0): 1 for n in (1, 2, 3)}
    # a suite whose one check reads the counts runs alone
    (top_a,) = verify.run_suites(["top-a"], max_n=3)
    assert top_a.status == verify.PASS


def test_one_call_computes_each_tableau_sum_once(monkeypatch):
    # the transpose and magic checks read tableau sums of the same (n, r)
    calls = []
    tableau_sum = tableaux.tableau_sum

    def spy(n, r):
        calls.append((n, r))
        return tableau_sum(n, r)

    monkeypatch.setattr(tableaux, "tableau_sum", spy)
    results = verify.run_suites(["transpose", "magic"])
    assert {r.status for r in results} == {verify.PASS, verify.FINDING}
    assert Counter(calls) == {(n, r): 1 for n in range(1, 5) for r in range(3)}


def test_the_three_streams_of_a_length_yield_the_same_words_in_order(monkeypatch):
    # what keeps every value from waiting for its partner: P, the insertion
    # route and the f route yield each length's words in one order, in two
    # passes of a pair of streams a length, P beside the insertion route and
    # then beside the f route
    words = []
    lockstep = shuffle._lockstep

    def recording(p, other):
        seen = [[], []]
        words.append(seen)

        def recorded(stream, into):
            for v, value in stream:
                into.append(v)
                yield v, value

        return lockstep(*map(recorded, (p, other), seen))

    monkeypatch.setattr(shuffle, "_lockstep", recording)
    passed = shuffle._agreement(8)
    assert all(passed[count] == {m: 2**m for m in range(9)} for count in passed)
    assert len(words) == 2 * 9
    (p, insertion), (p_again, f) = (
        [[v for pair in half for v in pair[i]] for i in (0, 1)]
        for half in (words[:9], words[9:])
    )
    assert p == insertion == p_again == f
    for m in range(9):
        in_order = shuffle._step_order(m)
        assert [v for v in p if len(v) == m] == in_order
        assert sorted(in_order) == shuffle.all_sequences(m)


def test_the_insertion_run_ends_before_the_f_route_makes_a_plan(monkeypatch):
    # the two passes never overlap: no f plan is made, and no f work is
    # live, until the insertion run has yielded its last root
    run, normalized = shuffle._run, shuffle._normalized
    roots, yielded, done_at_plan = [], [], []

    def spy(route_roots, route, geometry):
        parts, stream = run(route_roots, route, geometry)
        if route is not shuffle._InsertionLayout:
            return parts, stream
        roots.extend(route_roots)

        def recorded():
            for v, value in stream:
                yielded.append(v)
                yield v, value

        return parts, recorded()

    def spy_normalized(m, geometry):
        done_at_plan.append(len(yielded) == len(roots))
        return normalized(m, geometry)

    monkeypatch.setattr(shuffle, "_run", spy)
    monkeypatch.setattr(shuffle, "_normalized", spy_normalized)
    passed = shuffle._agreement(5)
    assert all(passed[count] == {m: 2**m for m in range(6)} for count in passed)
    assert sorted(yielded) == sorted(roots) == sorted(verify._words(5))
    assert done_at_plan == [True] * 6


# The three routes are compared as packed ints, which is exact only on one
# geometry whose fields hold every value; a field too narrow could wrap two
# wrong values alike, and no mutant of a route would show it.


def test_every_run_of_one_agreement_shares_a_geometry_that_holds_its_bounds(
    monkeypatch,
):
    geometries, routes, bounds = set(), [], []
    evaluate, top_a_test = shuffle._evaluate, shuffle._Layout.top_a_test

    def spy(roots, plan, layout):
        geometries.add((layout.w, layout.a_rows, layout.t_width))
        routes.append(layout.route)
        # the run's own proven bounds: its L1 bound, and on the f route the
        # largest slice mass of its length up to its q-degree bound
        dq, l1 = map(max, zip(*layout.bounds(plan[0]).values()))
        bounds.append(l1)
        if layout.route == "f":
            m = max(map(len, plan[0]))
            bounds.append(shuffle._slice_mass(m, dq, range(m + 1)) if m else 1)
        return evaluate(roots, plan, layout)

    def spy_top_a_test(layout, j):
        # the top-a check reads P's ints on a layout of the same geometry
        geometries.add((layout.w, layout.a_rows, layout.t_width))
        return top_a_test(layout, j)

    monkeypatch.setattr(shuffle, "_evaluate", spy)
    monkeypatch.setattr(shuffle._Layout, "top_a_test", spy_top_a_test)
    passed = shuffle._agreement(8)
    assert all(passed[count] == {m: 2**m for m in range(9)} for count in passed)
    assert Counter(routes) == {"P": 18, "f": 9, "insertion": 1}
    [(w, a_rows, t_width)] = geometries
    assert a_rows == range(9) and t_width == comb(8, 2) + 1
    # each bound plus a sign fits a field, and one bound needs all its bits:
    # the fewest that hold every route's bound plus a sign, not whole bytes
    assert all(bound < 2 ** (w - 1) for bound in bounds)
    assert max(bounds).bit_length() + 1 == w == 33


def test_each_stream_yields_the_packed_image_of_p(monkeypatch):
    # decoded on the shared geometry, every int of every stream is P(v)
    values = []
    lockstep = shuffle._lockstep

    def recording(p, other):
        for v, *ints in lockstep(p, other):
            values.append((v, ints))
            yield v, *ints

    monkeypatch.setattr(shuffle, "_lockstep", recording)
    shuffle._agreement(6)
    geometry = shuffle._shared_geometry(6)
    layout = shuffle._Layout(*geometry)
    slots = layout.slots(layout.dq + 1)
    # each signed w-bit field plus 2^(w - 1), read as an unsigned field
    w, fields = layout.w, layout.fields
    bias = shuffle._tile(1 << w - 1, w, fields)
    half = shuffle._unpack_bits(bias, w, fields, slots)
    # a pair per word in each of the two passes
    assert sorted(v for v, _ in values) == sorted(verify._words(6) * 2)
    for v, ints in values:
        assert len(ints) == 2 and all(type(x) is int for x in ints), v
        for x in ints:
            value = shuffle._unpack_bits(x + bias, w, fields, slots) - half
            assert value == poincare_poly(v), v


def test_packed_runs_charge_no_slot_table_and_count_no_terms(monkeypatch):
    parts = []
    room = budget._room

    def spy(what, estimate):
        # a packed pass's estimate, not a word list's charge
        if any(part.startswith("live values") for part in estimate):
            parts.append(estimate)
        return room(what, estimate)

    monkeypatch.setattr(budget, "_room", spy)
    shuffle._agreement(4)
    # one check a length in each pass: P's run with the insertion run, then
    # with the f run of its length
    assert len(parts) == 10
    assert not any("slot table" in estimate for estimate in parts)
    parts.clear()
    poincare_poly("0101")
    [estimate] = parts
    assert "slot table" in estimate
    # at a whole budget per slot table field, a run that decodes is refused;
    # the runs that yield ints charge none
    monkeypatch.setattr(shuffle, "_SLOT_BYTES_PER_FIELD", budget._memory_budget())
    shuffle._agreement(4)
    with pytest.raises(shuffle.MemoryBudgetExceeded, match="evaluating '0101' .* of slot table"):
        poincare_poly("0101")


# Each pass holds two runs at once, P's run of one length and the run it is
# read beside, so the two are checked against memory together, in one
# pre-flight, before P's run takes a step.


def _agreement_checks(bound, monkeypatch):
    """Every run's estimate and every joint check of ``_agreement(bound)``.

    Recorded with every stream read as empty, so nothing steps; the spies
    stay, and go on recording, until the test ends.
    """
    runs, checks = [], []
    run, normalized, room = shuffle._run, shuffle._normalized, budget._room

    def recorded(make):
        def made(*args):
            parts, stream = make(*args)
            runs.append(sum(parts.values()))
            return parts, stream

        return made

    def spy_room(what, parts):
        if any(part.startswith("live values") for part in parts):
            checks.append(parts)
        return room(what, parts)

    monkeypatch.setattr(shuffle, "_run", recorded(run))
    monkeypatch.setattr(shuffle, "_normalized", recorded(normalized))
    monkeypatch.setattr(budget, "_room", spy_room)
    with monkeypatch.context() as empty:
        empty.setattr(shuffle, "_evaluate", lambda roots, plan, layout: iter(()))
        shuffle._agreement(bound)
    return runs, checks


def test_agreement_fits_at_its_largest_joint_estimate(monkeypatch):
    # at 1.05 times the largest joint estimate of its two passes, the
    # agreement up to length 10 steps every run and counts every word,
    # checking the very estimates recorded with no step taken
    runs, checks = _agreement_checks(10, monkeypatch)
    assert len(checks) == 2 * 11  # P's run of each length, in each pass
    recorded = list(checks)
    need = max(sum(parts.values()) for parts in recorded)
    monkeypatch.setattr(budget, "_memory_budget", lambda: need * 105 // 100)
    checks.clear()
    passed = shuffle._agreement(10)
    assert all(passed[count] == {m: 2**m for m in range(11)} for count in passed)
    assert checks == recorded


def test_agreement_refuses_a_pair_of_runs_that_fit_only_alone(monkeypatch):
    # a budget below the largest joint estimate, but above every run's
    # own, refuses the agreement up to length 10 by name, the message
    # naming both runs' parts, before P's run of that pair takes a step
    runs, checks = _agreement_checks(10, monkeypatch)
    joint = [sum(parts.values()) for parts in checks]
    memory = (max(runs) + max(joint)) // 2
    assert max(runs) < memory < max(joint)
    refused = next(i for i, need in enumerate(joint) if need > memory)
    layouts, stepped = [], set()
    evaluate, step = shuffle._evaluate, shuffle._Layout.step

    def spy_evaluate(roots, plan, layout):
        if layout.route == "P":
            layouts.append(layout)
        return evaluate(roots, plan, layout)

    def spy_step(layout, key, ds, work):
        stepped.add(id(layout))
        return step(layout, key, ds, work)

    monkeypatch.setattr(shuffle, "_evaluate", spy_evaluate)
    monkeypatch.setattr(shuffle._Layout, "step", spy_step)
    monkeypatch.setattr(budget, "_memory_budget", lambda: memory)
    checks.clear()
    with pytest.raises(shuffle.MemoryBudgetExceeded, match="^evaluating P's run over ") as err:
        shuffle._agreement(10)
    assert err.value.need == joint[refused] and len(checks) == refused + 1
    assert sum(part.startswith("live values on the") for part in checks[-1]) == 2
    for part, size in checks[-1].items():
        assert f"{budget._mib(size)} of {part}" in str(err.value)
    # P's runs of the lengths before have stepped, and the refused one not
    assert len(layouts) == refused + 1
    assert [id(layout) in stepped for layout in layouts] == [True] * refused + [False]


# The closed form is checked against the series that `tlh fulltwist` serves,
# so it guards the split f route, which answers from n = 7 at qmax 12.


def test_closed_form_oracle_reads_the_split_f_route(monkeypatch):
    # whole P answers n <= 6; n = 7 decodes its low and its high pass
    served, decoded = [], []
    full_twist_series, unpack_bits = shuffle.full_twist_series, shuffle._unpack_bits

    def spy_full_twist_series(n, qmax):
        served.append(n)
        return full_twist_series(n, qmax)

    def spy_unpack_bits(packed, w, fields, exps):
        decoded.append(served[-1])
        return unpack_bits(packed, w, fields, exps)

    monkeypatch.setattr(shuffle, "full_twist_series", spy_full_twist_series)
    monkeypatch.setattr(shuffle, "_unpack_bits", spy_unpack_bits)
    results = verify.run_suites(["hhh0"], max_n=7)
    assert all(r.status == verify.PASS for r in results)
    assert served == list(range(1, 8))
    assert decoded == [7, 7]


def test_closed_form_oracle_refuses_the_served_run_before_the_closed_form(
    monkeypatch,
):
    # a budget that the served run of n = 8 outgrows, and no smaller one:
    # the oracle fails by name, and the closed form never walks n = 8
    needs = {}
    room = budget._room

    def spy_room(what, parts):
        needs[n] = max(needs.get(n, 0), sum(parts.values()))
        return room(what, parts)

    monkeypatch.setattr(budget, "_room", spy_room)
    for n in range(1, 9):
        shuffle.full_twist_series(n, 12)
    monkeypatch.undo()
    memory = max(needs[n] for n in range(1, 8))
    assert needs[8] > memory
    walked = []
    hochschild_zero_series = closed_form.hochschild_zero_series

    def spy_closed_form(n, qmax):
        walked.append((n, qmax))
        return hochschild_zero_series(n, qmax)

    monkeypatch.setattr(closed_form, "hochschild_zero_series", spy_closed_form)
    monkeypatch.setattr(budget, "_memory_budget", lambda: memory)
    oracle = verify.run_suites(["hhh0"], max_n=8)[0]
    assert oracle.name == "closed-form-oracle" and oracle.status == verify.FAIL
    assert oracle.detail.startswith("raised MemoryBudgetExceeded: ")
    assert (8, 12) not in walked and (7, 12) in walked


# The determinism checks compare values asked for again, in another order
# or on other threads, with the first ones: a wrong value on either side
# must fail them.


def test_thread_schedule_check_fails_on_a_wrong_worker_value(monkeypatch):
    poincare_poly = shuffle.poincare_poly

    def wrong_off_the_main_thread(v):
        value = poincare_poly(v)
        on_main = threading.current_thread() is threading.main_thread()
        return value if on_main else value + Q

    monkeypatch.setattr(shuffle, "poincare_poly", wrong_off_the_main_thread)
    results = _results("determinism", 3)
    assert results["memo-order-independence"].status == verify.PASS
    check = results["thread-schedule-independence"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: pool vs serial"


def test_memo_order_check_fails_on_a_wrong_second_value(monkeypatch):
    poincare_poly = shuffle.poincare_poly
    asked = Counter()

    def wrong_when_asked_twice(v):
        asked[v] += 1
        value = poincare_poly(v)
        return value + Q if asked[v] == 2 else value

    monkeypatch.setattr(shuffle, "poincare_poly", wrong_when_asked_twice)
    results = _results("determinism", 3)
    check = results["memo-order-independence"]
    assert check.status == verify.FAIL
    assert check.detail == "failed: forward vs backward"
    # every later ask is right again, and the serial values are the first
    assert results["thread-schedule-independence"].status == verify.PASS
