"""Binomial helpers, good-prefix extraction, and the threshold-sum analysis."""

import dataclasses
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cellprobe import (
    Distribution,
    ParameterError,
    binomial_tail,
    entropy_sum_analysis,
    entropy_sum_analysis_uniform,
    find_threshold,
    good_prefix_set,
    stretch_term,
)


def test_binomial_tail_values_and_real_thresholds():
    assert binomial_tail(4, 2) == Fraction(11, 16)
    assert binomial_tail(4, 1.5) == Fraction(11, 16)
    assert binomial_tail(4, -3) == 1
    assert binomial_tail(4, 5) == 0
    assert binomial_tail(0, 0) == 1
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(0, 12)
        thr = rng.randint(-1, n + 1)
        direct = sum(Fraction(math.comb(n, k), 2 ** n) for k in range(max(0, thr), n + 1))
        assert binomial_tail(n, thr) == direct
    # long tails and real thresholds, where the running term does most of the work
    for _ in range(200):
        n = rng.randint(0, 400)
        thr = rng.choice((rng.randint(-2, n + 2), Fraction(rng.randint(-6, 3 * n + 6), 3),
                          rng.uniform(-1, n + 1)))
        lo = max(0, math.ceil(thr))
        assert binomial_tail(n, thr) == Fraction(sum(math.comb(n, k) for k in range(lo, n + 1)),
                                                 2 ** n)


def test_stretch_term_exact_when_sixth_power():
    got = stretch_term(64, 4)
    assert isinstance(got, Fraction) and got == 8
    assert stretch_term(1, 1) == Fraction(1)
    assert stretch_term(0, 5) == Fraction(0)
    approx = stretch_term(2, 3)
    assert isinstance(approx, float)
    assert approx == pytest.approx(2 ** (1 / 3) * math.sqrt(3))


def test_find_threshold_on_uniform_prefixes():
    dist = Distribution.uniform(list(product((0, 1), repeat=4)))
    rep = find_threshold(dist, list(product((0, 1), repeat=4)), 4)
    assert rep.t == 3
    assert rep.pr_at_t == Fraction(5, 16)
    assert rep.pr_at_next == Fraction(1, 16)
    assert rep.pr_lower_tail == Fraction(15, 16)


def test_find_threshold_needs_a_quarter_of_mass():
    dist = Distribution.uniform(list(product((0, 1), repeat=4)))
    assert find_threshold(dist, [(0, 0, 0, 0)], 4) is None


def _stepped_threshold(dist, a_set, p):
    """The threshold search as first written: step t up from 0 while the next tail keeps 1/4."""
    members = {tuple(y) for y in a_set}
    mass_by_sum = {}
    for y, pr in dist.items():
        if tuple(y[:p]) in members:
            mass_by_sum[sum(y[:p])] = mass_by_sum.get(sum(y[:p]), 0) + pr
    t, tail = 0, sum(mass_by_sum.values())
    while True:
        next_tail = sum(m for s, m in mass_by_sum.items() if s >= t + 1)
        if 4 * next_tail < 1:
            break
        t, tail = t + 1, next_tail
    lower = sum(m for s, m in mass_by_sum.items() if s <= t)
    return t, tail, next_tail, lower


def test_find_threshold_equals_the_stepped_search_on_non_negative_sums():
    rng = random.Random(5)
    for _ in range(200):
        arity = rng.randint(1, 4)
        p = rng.randint(1, arity)
        outcomes = {tuple(rng.randint(0, 3) for _ in range(arity))
                    for _ in range(rng.randint(1, 8))}
        dist = reference.from_counts({y: rng.randint(1, 9) for y in outcomes})
        prefixes = sorted({y[:p] for y in outcomes})
        a_set = rng.sample(prefixes, rng.randint(1, len(prefixes)))
        rep = find_threshold(dist, a_set, p)
        if rep is None:
            assert 4 * sum(pr for y, pr in dist.items() if y[:p] in a_set) < 1
            continue
        assert (rep.t, rep.pr_at_t, rep.pr_at_next, rep.pr_lower_tail) == \
            _stepped_threshold(dist, a_set, p)


def test_find_threshold_reads_negative_and_huge_sums_directly():
    dist = Distribution({(-5, 0, 0): Fraction(1, 2), (-5, 1, 1): Fraction(1, 2)})
    rep = find_threshold(dist, [(-5,)], 1)
    assert (rep.t, rep.pr_at_t, rep.pr_at_next, rep.pr_lower_tail) == (-5, 1, 0, 1)
    # the stepped search took time linear in the largest sum
    dist = Distribution({(1000000, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(1, 2)})
    start = time.perf_counter()
    rep = find_threshold(dist, [(1000000,), (0,)], 1)
    assert time.perf_counter() - start < 0.5
    assert (rep.t, rep.pr_at_t, rep.pr_at_next, rep.pr_lower_tail) == (
        1000000, Fraction(1, 2), 0, 1)


def _skewed_prefix_dist():
    # prefix 0 keeps a uniform 2-bit block, prefix 1 pins the block to 00
    pmf = {(0, a, b): Fraction(3, 16) for a, b in product((0, 1), repeat=2)}
    pmf[(1, 0, 0)] = Fraction(1, 4)
    return Distribution(pmf)


def test_good_prefix_set_keeps_every_uniform_prefix():
    dist = Distribution.uniform(list(product((0, 1), repeat=5)))
    rep = good_prefix_set(dist, 2, 5, 4)
    assert rep.A == tuple(sorted(product((0, 1), repeat=2)))
    assert rep.pr_A == 1
    assert rep.hypothesis_ok and rep.claim_half_ok
    assert rep.hypothesis_entropy == pytest.approx(3.0, abs=1e-12)


def test_good_prefix_set_excludes_degraded_prefix():
    rep = good_prefix_set(_skewed_prefix_dist(), 1, 3, 2)
    assert rep.A == ((0,),)
    assert rep.pr_A == Fraction(3, 4)
    assert rep.claim_half_ok


def test_good_prefix_set_reports_a_failed_hypothesis_with_its_measurement():
    rep = good_prefix_set(_skewed_prefix_dist(), 1, 3, 4)
    assert not rep.hypothesis_ok
    assert rep.hypothesis_entropy == pytest.approx(1.5, abs=1e-12)
    assert rep.hypothesis_floor == pytest.approx(1.75, abs=1e-12)


def test_an_analysis_without_a_threshold_measures_nothing():
    # prefix 0 keeps a uniform 2-bit block but carries only 1/8 of the mass
    pmf = {(0, a, b): Fraction(1, 32) for a, b in product((0, 1), repeat=2)}
    pmf[(1, 0, 0)] = Fraction(7, 8)
    wit = entropy_sum_analysis(Distribution(pmf), 1, 2, 3, 4)
    assert wit.prefix_report.A == ((0,),) and wit.pr_A == Fraction(1, 8)
    assert wit.threshold_report is None
    assert (wit.t, wit.s, wit.s_prime, wit.cuts) == (None,) * 4
    assert (wit.P_upper, wit.P_lower, wit.P_lower_leq, wit.P_joint, wit.block_bound) == (None,) * 5
    assert not (wit.holds_upper or wit.holds_lower or wit.holds_joint or wit.holds)
    assert (wit.ell, wit.d, wit.a_size) == (1, 1, 1)


@lru_cache(maxsize=None)
def _uniform_bits(n):
    return Distribution.uniform(list(product((0, 1), repeat=n)))


@st.composite
def _index_triples(draw):
    n = draw(st.integers(2, 9))
    p = draw(st.integers(0, n - 2))
    i = draw(st.integers(p + 1, n - 1))
    return n, p, i, draw(st.integers(i + 1, n))


def _assert_routes_agree(n, p, i, j, c):
    by_enum = entropy_sum_analysis(_uniform_bits(n), p, i, j, c)
    by_formula = entropy_sum_analysis_uniform(n, p, i, j, c)
    # the closed form measures no prefix set: every prefix is good
    assert by_formula.prefix_report is None
    assert by_enum.prefix_report.A == tuple(product((0, 1), repeat=p))
    for field in dataclasses.fields(by_enum):
        if field.name != "prefix_report":
            got, want = getattr(by_enum, field.name), getattr(by_formula, field.name)
            assert (got, type(got)) == (want, type(want)), field.name
    assert by_enum.hypothesis_ok and by_formula.hypothesis_ok
    assert by_enum.pr_A == 1
    assert by_enum.ratio_ok == (i - p >= c * (j - i))


@pytest.mark.parametrize("n,p,i,j,c", [
    (6, 1, 4, 6, 2),
    (8, 2, 6, 8, 3),
    (7, 0, 5, 7, 2),
    (9, 3, 7, 9, 64),
])
def test_enumeration_agrees_with_binomial_route(n, p, i, j, c):
    _assert_routes_agree(n, p, i, j, c)


@settings(max_examples=300, deadline=None)
@given(_index_triples(), st.sampled_from((1, 2, 3, Fraction(7, 3), 8, 64)))
def test_routes_agree_on_small_uniform_spaces(npij, c):
    # exact s (c = 1, 8, 64 on suitable d) and float s (c = 2, 3, 7/3) alike
    _assert_routes_agree(*npij, c)


def test_uniform_long_prefix_witness():
    w = entropy_sum_analysis_uniform(261, 1, 257, 261, 64)
    assert w.ell == 256 and w.d == 4 and w.ratio_ok
    assert w.t == 1
    assert w.s_exact and w.s == 139
    assert w.s_prime == Fraction(129)
    # ceil s, ceil s', floor s' and ceil(d/2 + c^(1/3) sqrt d): the cuts that were measured
    assert w.cuts == (139, 129, 129, 10)
    assert float(w.P_upper) == pytest.approx(0.16099726, abs=1e-7)
    assert w.P_lower == Fraction(1, 2)
    assert w.P_joint == 0
    assert w.block_bound == binomial_tail(4, 10) == 0
    assert w.holds
    assert w.P_lower_leq == Fraction(1, 2) + Fraction(math.comb(257, 129), 2 ** 257)


def test_joint_probability_never_exceeds_its_factors():
    dist = reference.from_counts(
        {o: 1 + sum(o) for o in product((0, 1), repeat=6)})
    w = entropy_sum_analysis(dist, 1, 4, 6, 2)
    assert w.P_joint <= w.P_upper
    assert w.P_joint <= w.P_lower_leq
    assert w.P_lower_leq >= w.P_lower


_UNIFORM4 = Distribution.uniform(list(product((0, 1), repeat=4)))


def test_index_validation():
    with pytest.raises(ParameterError):
        entropy_sum_analysis_uniform(8, 3, 3, 6, 2)
    with pytest.raises(ParameterError):
        entropy_sum_analysis_uniform(8, 2, 6, 9, 2)
    with pytest.raises(ParameterError):
        entropy_sum_analysis_uniform(8, 1, 4, 8, 0)
    with pytest.raises(ParameterError):
        entropy_sum_analysis_uniform(0, 0, 1, 2, 2)
    # a float c of -inf is refused as it is written, not converted to a Fraction
    with pytest.raises(ParameterError, match="c must be positive, got -inf"):
        entropy_sum_analysis_uniform(8, 1, 4, 8, float("-inf"))
    with pytest.raises(ParameterError, match="c must be positive, got -inf"):
        good_prefix_set(_UNIFORM4, 0, 2, float("-inf"))
    for c in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="c must be finite"):
            entropy_sum_analysis_uniform(8, 1, 4, 8, c)


def test_good_prefix_set_refuses_a_c_past_the_float_range():
    """10^400 has no float; converting it raised a bare OverflowError."""
    for check in (lambda c: good_prefix_set(_UNIFORM4, 0, 2, c),
                  lambda c: entropy_sum_analysis_uniform(8, 1, 4, 8, c)):
        with pytest.raises(ParameterError, match="c is past the float range"):
            check(Fraction(10**400))
        # a positive c whose float is 0 would divide the entropy floor by 0
        with pytest.raises(ParameterError, match="c is past the float range"):
            check(Fraction(1, 10**400))


def test_good_prefix_set_refuses_a_nan_c():
    """NaN compares false with 0, so a check by float(c) <= 0 let it through."""
    with pytest.raises(ParameterError, match="c must be finite, got nan"):
        good_prefix_set(_UNIFORM4, 0, 2, float("nan"))


def test_good_prefix_set_refuses_an_infinite_c():
    """At c = inf the floor is the full span, and the hypothesis read as holding."""
    with pytest.raises(ParameterError, match="c must be finite, got inf"):
        good_prefix_set(_UNIFORM4, 0, 2, float("inf"))


def test_the_ratio_is_decided_exactly():
    """ell >= c d at c = 7/3 and d = 27 holds with equality, ell = 63; float 7/3 times 27
    rounds above 63, so a float comparison read it as failed."""
    assert Fraction(7, 3) * 27 == 63 and 63 < float(Fraction(7, 3)) * 27
    assert entropy_sum_analysis_uniform(100, 1, 64, 91, Fraction(7, 3)).ratio_ok
    assert not entropy_sum_analysis_uniform(100, 1, 63, 90, Fraction(7, 3)).ratio_ok
    # a float c is compared at the exact binary value it holds, which lies above 7/3
    assert Fraction(7 / 3) > Fraction(7, 3)
    assert not entropy_sum_analysis_uniform(100, 1, 64, 91, 7 / 3).ratio_ok


def test_the_closed_form_sum_at_n_14000_runs_in_time(src_env):
    """One tail scan and a few binomial rows; stepping t up one tail sum at a time took
    about 20 s on a 2-core Xeon, this form under 1 s. Exit 1 (a failed tail bound) is
    the expected verdict."""
    done = subprocess.run(
        [sys.executable, "-m", "cellprobe", "entropy-sum", "--uniform", "14000", "--p", "3500",
         "--i", "10500", "--j", "14000", "--c", "8", "--format", "machine"],
        capture_output=True, text=True, env=src_env, timeout=10)
    assert done.returncode <= 1, done.stderr
