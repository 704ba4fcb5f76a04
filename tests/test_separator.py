"""Separator searches: greedy disjoint families, staged blocking, bracket schedule."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from cellprobe import (
    CellProbeError,
    ParameterError,
    SizeError,
    find_separator,
    find_separator_brackets,
    greedy_disjoint,
    pairwise_disjoint,
)
from cellprobe.separator import BracketSeparatorResult, _as_matrix, _greedy, _meets


def test_greedy_disjoint_takes_first_compatible():
    assert greedy_disjoint([{1, 2}, {2, 3}, {4}]) == (1, 3)
    assert greedy_disjoint([]) == ()
    assert greedy_disjoint([set(), set()]) == (1, 2)


def test_pairwise_disjoint():
    assert pairwise_disjoint([{1}, {2}, set()])
    assert not pairwise_disjoint([{1}, {1}])


def test_separator_blocks_shared_cell_then_succeeds():
    res = find_separator([{1}, {1}, {1}, {1}], 2)
    assert res.B == frozenset({1})
    assert res.V == (1, 2, 3, 4)
    assert res.w == 4
    assert res.k0 == Fraction(2)
    assert res.stages_run == 2
    assert not res.log[0].success and res.log[1].success
    assert all(entry.invariant_ok for entry in res.log)


def test_separator_disjoint_family_needs_no_blocking():
    res = find_separator([{i} for i in range(10)], 2)
    assert res.B == frozenset()
    assert res.w == 10
    assert res.stages_run == 1


def test_separator_accepts_gap_one_rejects_less():
    res = find_separator([{1}, {2}], 1)
    assert res.w == 2
    with pytest.raises(ParameterError):
        find_separator([{1}], Fraction(1, 2))
    with pytest.raises(ParameterError):
        find_separator([], 2)


def test_separator_guarantees_on_random_families():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.choice([32, 64])
        q = rng.randint(1, 3)
        g = rng.choice([2, 4])
        family = [set(rng.sample(range(n), rng.randint(0, q))) for _ in range(n)]
        res = find_separator(family, g)
        assert Fraction(res.w) >= Fraction(n) / (g * max(res.q, 1)) ** res.q
        assert Fraction(len(res.B)) <= Fraction(res.w) / g
        assert pairwise_disjoint([family[v - 1] - res.B for v in res.V])
        assert res.checks == (("w_floor", True), ("b_small", True))


def test_bracket_separator_stage_zero_at_desk_scale():
    n = 2 ** 16
    family = [{i % 128} for i in range(n)]
    res = find_separator_brackets(family, 4)
    assert (res.a, res.b) == (8, 32)
    assert res.B == frozenset()
    assert res.stages_run == 1
    assert not res.size_floor_ok
    assert res.b_size_ok
    assert res.w == 128
    assert res.checks == (("b_between", True), ("b_small", True))
    assert res.v_floor  # 128 >= n / lg^a n = 2^16 / 16^8
    assert res.v_floor == res.log[-1].success


def test_bracket_separator_preconditions():
    family = [{i} for i in range(16)]
    with pytest.raises(ParameterError):
        find_separator_brackets(family, 3)
    # q = 2 exceeds (lg lg 16)/4
    fam_q2 = [{i, i + 1} for i in range(16)]
    with pytest.raises(ParameterError):
        find_separator_brackets(fam_q2, 4)
    res = find_separator_brackets(fam_q2, 4, require_preconditions=False)
    assert res.a == 64 and res.b == 256
    assert res.v_floor == res.log[-1].success


def test_bracket_separator_exponent_limit():
    fam = [set(range(i, i + 6)) for i in range(0, 60, 6)]
    with pytest.raises(SizeError):
        find_separator_brackets(fam, 4, require_preconditions=False)


def test_bracket_separator_thresholds_decrease_with_stage():
    n = 2 ** 16
    family = [{0} for _ in range(n)]
    res = find_separator_brackets(family, 4)
    assert res.V and res.w >= 1
    assert res.v_floor == res.log[-1].success


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CellProbeError as err:
        return type(err), str(err)


# a few hot cells shared by many sets (so stage 0 fails), plain, negative and near-2^62 ids
_CELL_IDS = st.one_of(st.integers(0, 3), st.integers(-4, 40), st.integers(2**62 - 2, 2**62 + 2))


@st.composite
def probe_sets(draw):
    """A set of 0 to 4 distinct cells, as a set, a list or a tuple that may repeat cells."""
    cells = sorted(draw(st.sets(_CELL_IDS, max_size=4)))
    kind = draw(st.sampled_from(("set", "list", "tuple")))
    if kind == "set":
        return set(cells)
    repeats = draw(st.lists(st.sampled_from(cells), max_size=2)) if cells else []
    ordered = draw(st.permutations(cells + repeats))
    return list(ordered) if kind == "list" else tuple(ordered)


families = st.lists(probe_sets(), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(families, st.sampled_from((1, Fraction(3, 2), 2, 4)))
@example([{1}] * 4, 2)                                   # q = 1, stage 0 fails on a hot cell
@example([(7, 7, 1), [1, 2], {2, 3}, (), {3, 9}], 2)     # q = 2, repeated cells, the row loop
@example([set(), ()], 2)                                 # q = 0
def test_separator_matches_the_frozenset_reference(family, gap):
    # equal dataclasses: the same B, V, w, q, k0 and stage log
    assert _outcome(find_separator, family, gap) == _outcome(reference.find_separator, family, gap)
    assert greedy_disjoint(family) == reference.greedy_disjoint(
        [frozenset(map(int, s)) for s in family])


@settings(max_examples=300, deadline=None)
@given(families, st.sampled_from((4, 5, 6)))
@example([{i % 3} for i in range(16)], 4)
@example([(i % 5, (i * 3) % 7 + 10, 10) for i in range(20)], 4)
def test_bracket_separator_matches_the_frozenset_reference(family, c):
    got = _outcome(find_separator_brackets, family, c, require_preconditions=False)
    want = _outcome(reference.find_separator_brackets, family, c, require_preconditions=False)
    assert got == want
    if isinstance(got, BracketSeparatorResult):
        # the logged success is the test w >= n/lg^a n, decided again here
        lg_l = math.log2(math.log2(got.n))
        assert got.v_floor == got.log[-1].success == _meets(got.w, got.n, lg_l, got.a)


def test_both_greedy_branches_match_the_reference():
    rng = random.Random(5)
    single = [set(rng.sample(range(6), rng.randint(0, 1))) for _ in range(50)]
    multi = [set(rng.sample(range(12), rng.randint(0, 3))) for _ in range(50)]
    # at most one live cell in every row takes the np.unique branch, more takes the row loop
    for family, most_live in ((single, 1), (multi, 3)):
        matrix, cells = _as_matrix(family)
        blocked = np.zeros(len(cells), bool)
        blocked[::3] = True
        chosen, used = _greedy(matrix, blocked)
        outside = [s - set(cells[blocked].tolist()) for s in family]
        assert max(map(len, outside)) == most_live
        assert chosen == reference.greedy_disjoint(outside)
        assert set(cells[used].tolist()) == set().union(*(outside[v - 1] for v in chosen))


def test_cell_ids_past_int64_are_a_parameter_error():
    for call in (lambda f: find_separator(f, 1), lambda f: find_separator_brackets(f, 4),
                 greedy_disjoint):
        for family in ([{2**70}, {1}], [{1}, {2}, {3}, (-2**63 - 1,)]):
            with pytest.raises(ParameterError, match="separator family"):
                call(family)


def test_ids_that_int_coerces_give_the_old_result():
    family = [{True, -3}, (np.int32(1), np.int64(-3)), [-3, 1, True], {np.int32(-3), 1}] * 2
    res = find_separator(family, 1)
    assert res == reference.find_separator(family, 1)
    assert res.B == frozenset({1, -3}) and res.V == tuple(range(1, 9))
    assert {type(x) for x in res.B} == {int} and {type(v) for v in res.V} == {int}
