"""Separator searches: greedy disjoint families, staged blocking, bracket schedule."""

import random
from fractions import Fraction

import pytest

from cellprobe import (
    ParameterError,
    SizeError,
    find_separator,
    find_separator_brackets,
    greedy_disjoint,
    pairwise_disjoint,
)


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


def test_bracket_separator_exponent_limit():
    fam = [set(range(i, i + 6)) for i in range(0, 60, 6)]
    with pytest.raises(SizeError):
        find_separator_brackets(fam, 4, require_preconditions=False)


def test_bracket_separator_thresholds_decrease_with_stage():
    n = 2 ** 16
    family = [{0} for _ in range(n)]
    res = find_separator_brackets(family, 4)
    assert res.V and res.w >= 1
