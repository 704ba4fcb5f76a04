"""Index-pair selection with geometrically spread gaps."""

import math
import random
from fractions import Fraction

import pytest

from cellprobe import ParameterError, find_stretcher


def test_consecutive_indices_yield_early_pairs():
    res = find_stretcher(tuple(range(1, 21)), 256, 2)
    assert res.t == 16
    assert res.w == 20
    assert [(p.prev, p.left, p.right) for p in res.pairs] == [(0, 2, 3), (3, 5, 6)]
    assert res.v_prime == (2, 3, 5, 6)
    assert res.w_prime == 4
    assert res.guarantee == 2
    assert res.guarantee_ok
    assert res.stuck_at is None and res.window is None


def test_first_pair_measures_gap_from_zero():
    res = find_stretcher(tuple(range(1, 21)), 256, 2)
    first = res.pairs[0]
    assert first.prev == 0
    assert Fraction(first.left - 0) >= 2 * Fraction(first.right - first.left)


def test_stuck_window_is_reported_with_diagnostics():
    res = find_stretcher((1, 2, 4, 8), 16, Fraction(11, 10))
    assert res.stuck_at == 0
    assert res.window == (0, 1, 2, 4, 8)
    assert res.pairs == ()
    assert (res.v_prime, res.w_prime) == ((), 0)
    # the sweep's own parameters: t = floor(1.1 * 4), guarantee = 2 * floor(4 / 4.4)
    assert (res.t, res.w, res.guarantee) == (4, 4, 0)
    assert res.guarantee_ok


def test_a_sweep_stuck_after_a_pair_keeps_that_pair():
    # t = floor(1.1 * lg 6) = 2: the window (0, 2, 3) holds the pair (2, 3), (3, 4, 5) none
    res = find_stretcher((2, 3, 4, 5, 6), 6, Fraction(11, 10))
    assert [(p.prev, p.left, p.right) for p in res.pairs] == [(0, 2, 3)]
    assert (res.v_prime, res.w_prime) == ((2, 3), 2)
    assert res.stuck_at == 2
    assert res.window == (3, 4, 5)
    assert res.guarantee == 2 and res.guarantee_ok


def test_short_input_produces_no_pairs_without_error():
    # every gap doubles, but the window never fits: w < t
    res = find_stretcher(tuple(2 ** k for k in range(16)), 2 ** 16, 2)
    assert res.pairs == ()
    assert res.guarantee == 0
    assert res.guarantee_ok


def test_input_validation():
    with pytest.raises(ParameterError):
        find_stretcher((3, 2), 8, 2)
    with pytest.raises(ParameterError):
        find_stretcher((0, 1), 8, 2)
    with pytest.raises(ParameterError):
        find_stretcher((1, 9), 8, 2)
    with pytest.raises(ParameterError):
        find_stretcher((1, 2), 8, 1)


def test_random_runs_satisfy_pair_rule_and_floor():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice([64, 256, 1024])
        w = rng.randint(2, 40)
        indices = tuple(sorted(rng.sample(range(1, n + 1), w)))
        c = rng.choice([2, 4])
        res = find_stretcher(indices, n, c)
        seq = (0,) + res.v_prime
        for k in range(0, len(seq) - 2, 2):
            assert seq[k + 1] - seq[k] >= c * (seq[k + 2] - seq[k + 1])
        assert set(res.v_prime) <= set(indices)
        if res.stuck_at is not None:  # the floor is owed only by a completed sweep
            assert len(res.window) == res.t + 1
            continue
        assert res.w_prime >= 2 * math.floor(w / (c * math.log2(n)))
