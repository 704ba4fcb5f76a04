"""Separator searches: greedy disjoint families, staged blocking, bracket schedule."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from cellprobe import (
    CellProbeError,
    ConsistencyError,
    ParameterError,
    SizeError,
    find_separator,
    find_separator_brackets,
    greedy_disjoint,
    pairwise_disjoint,
)
from cellprobe import separator
from cellprobe.separator import BracketSeparatorResult, _as_pairs, _greedy, _meets


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
    assert Fraction(len(res.B)) <= Fraction(n, 16 ** res.b)   # |B| <= n/lg^b n
    assert res.w == 128
    assert res.checks == (("b_between", True), ("b_small", True))
    assert res.v_floor  # 128 >= n / lg^a n = 2^16 / 16^8
    assert res.v_floor == (Fraction(res.w) >= Fraction(n, 16 ** res.a))
    assert res.stage_log == (("stage.0.disjoint_found", 128), ("stage.0.threshold", n / 16 ** 8),
                             ("stage.0.success", True), ("stage.0.b_size", 0))


def test_stage_zero_floor_is_met_by_one_set_below_the_crossover():
    """One greedy set meets the stage-0 floor n/lg^8 n, as ``_meets`` decides it, up to
    n = 12,961,163,241,350, where (lg n)^8 and n cross; at 2^44 the floor is past 1."""
    for n, meets in ((12_961_163_241_350, True), (2 ** 44, False)):
        assert _meets(1, n, math.log2(math.log2(n)), 8) is meets


def test_bracket_separator_names_the_floor_stage_zero_missed(monkeypatch):
    monkeypatch.setattr("cellprobe.separator._meets", lambda *args: False)
    with pytest.raises(ConsistencyError, match=r"stage 0 found 16 disjoint sets, under n/lg\^8 n"):
        find_separator_brackets([{i} for i in range(16)], 4, require_preconditions=False)


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
    assert res.v_floor == (Fraction(res.w) >= Fraction(16, 4 ** res.a))


def test_bracket_separator_exponent_limit():
    fam = [set(range(i, i + 6)) for i in range(0, 60, 6)]
    with pytest.raises(SizeError):
        find_separator_brackets(fam, 4, require_preconditions=False)


def test_bracket_separator_thresholds_decrease_with_stage():
    n = 2 ** 16
    family = [{0} for _ in range(n)]
    res = find_separator_brackets(family, 4)
    assert res.V and res.w >= 1
    assert res.v_floor == (Fraction(res.w) >= Fraction(n, 16 ** res.a))


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
    if not isinstance(want, reference.BracketSchedule):
        assert got == want
        return
    # the full stage loop settles at stage 0 with B empty: the result's constants rest on it
    assert (want.stages_run, want.B, want.b_size_ok) == (1, frozenset(), True)
    assert got == BracketSeparatorResult(V=want.V, a=want.a, b=want.b, n=want.n, q=want.q,
                                         c=want.c, size_floor_ok=want.size_floor_ok)
    (stage,) = want.log
    assert (got.B, got.stages_run) == (want.B, want.stages_run)
    assert got.stage_log == tuple(zip(
        ("stage.0.disjoint_found", "stage.0.threshold", "stage.0.success", "stage.0.b_size"),
        (stage.disjoint_found, stage.threshold, stage.success, stage.b_size)))
    assert got.checks == (("b_between", got.c * got.a <= got.b <= got.c * (2 * got.c) ** got.a),
                          ("b_small", want.b_size_ok))
    assert got.v_nonempty == (got.w > 0)
    # the logged success is the test w >= n/lg^a n, decided again here
    lg_l = math.log2(math.log2(got.n))
    assert got.v_floor == stage.success == _meets(got.w, got.n, lg_l, got.a)


def test_both_greedy_branches_match_the_reference(monkeypatch):
    scans = []
    scan = separator._scan
    monkeypatch.setattr(separator, "_scan", lambda *args: scans.append(args) or scan(*args))
    rng = random.Random(5)
    # every row with at most one live cell: one round settles it
    single = [set(rng.sample(range(6), rng.randint(0, 1))) for _ in range(50)]
    # a chain of 64 rows: the first round settles rows 1, 2, 41 and 42, the scan the rest
    chain = [{i, i + 1} for i in range(64)]
    for family, blocked_ids, scanned in ((single, {0, 3}, False), (chain, {40}, True)):
        pairs, cells, n, _ = _as_pairs(family)
        blocked = np.isin(cells, list(blocked_ids))
        scans.clear()
        chosen, used = _greedy(pairs, n, blocked)
        outside = [s - blocked_ids for s in family]
        assert bool(scans) is scanned
        assert chosen == reference.greedy_disjoint(outside)
        assert set(cells[used].tolist()) == set().union(*(outside[v - 1] for v in chosen))


def test_chain_families_in_both_orders():
    chain = [{i, i + 1} for i in range(2 ** 12)]
    assert greedy_disjoint(chain) == tuple(range(1, 2 ** 12, 2))
    for family in (chain, chain[::-1]):
        assert greedy_disjoint(family) == reference.greedy_disjoint(family)
        assert find_separator(family, 2) == reference.find_separator(family, 2)


_POOL_IDS = st.one_of(st.integers(-3, 40), st.sampled_from((2**63 - 1, -(2**63 - 1))))


@st.composite
def colliding_families(draw):
    """Runs of chains, stars and free rows over a small pool of cells, in either order: a
    chain's cells run from a drawn start, up to 2^63 - 1; free rows may repeat a cell or be
    empty."""
    pool = draw(st.lists(_POOL_IDS, min_size=1, max_size=12, unique=True))
    family = []
    for shape in draw(st.lists(st.sampled_from(("chain", "star", "rows")), min_size=1, max_size=4)):
        if shape == "chain":
            start = draw(st.one_of(st.integers(-3, 40), st.just(2**63 - 61)))
            family += [(start + i, start + i + 1) for i in range(draw(st.integers(1, 60)))]
        elif shape == "star":
            hub = draw(st.sampled_from(pool))
            family += [{hub, leaf} for leaf in draw(st.lists(st.sampled_from(pool), max_size=20))]
        else:
            family += draw(st.lists(st.lists(st.sampled_from(pool), max_size=4), max_size=20))
    return family[::-1] if draw(st.booleans()) else family


@settings(max_examples=300, deadline=None)
@given(colliding_families(), st.sampled_from((1, 2)))
@example([(i, i + 1) for i in range(30)], 2)             # a chain: one round, then the row scan
@example([{0, i} for i in range(1, 30)], 1)               # a star: one round
def test_greedy_on_colliding_families_matches_the_reference(family, gap):
    assert greedy_disjoint(family) == reference.greedy_disjoint(
        [frozenset(map(int, s)) for s in family])
    assert _outcome(find_separator, family, gap) == _outcome(reference.find_separator, family, gap)


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


def test_greedy_settles_a_chain_and_a_star_of_2_17_sets_in_time(src_env):
    """The chain settles two sets per numpy round, so rounds alone would take about 65,000
    of them and time out; a round that settles under 1/8 of the open sets hands the rest
    to the row scan. The star settles in one round."""
    code = ("from cellprobe import greedy_disjoint\n"
            "chain = [{i, i + 1} for i in range(2 ** 17)]\n"
            "star = [{0, i} for i in range(1, 2 ** 17)]\n"
            "assert len(greedy_disjoint(chain)) == 65536\n"
            "assert len(greedy_disjoint(star)) == 1\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env, timeout=20)
    assert done.returncode == 0, done.stderr
