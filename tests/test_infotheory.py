"""Exact distributions, entropies, TV distances, and the two good-set filters."""

import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from cellprobe import (
    ConsistencyError,
    Distribution,
    DomainError,
    ParameterError,
    RangeError,
    SizeError,
    conditional_entropy,
    entropy,
    good_blocks,
    good_cells,
    tv_from_uniform,
)
import cellprobe.infotheory as infotheory
from cellprobe.core import DOMAIN_ALL, DOMAIN_BAL, domain_of
from cellprobe.infotheory import (
    _by_product,
    _keyed_tallies,
    _product_tallies,
    _tv,
    cell_dtype,
    columns_tv,
    distinct_rows,
    entropy_by_group,
    group_entropies,
    group_rows,
    mean_entropy,
    prefix_groups,
    subset_tallies,
    validate_blocks,
)


def test_distribution_requires_unit_mass():
    with pytest.raises(ParameterError):
        Distribution({(0,): Fraction(1, 2)})
    d = Distribution({(0,): Fraction(1, 2), (1,): Fraction(1, 2), (2,): Fraction(0)})
    assert d.support() == ((0,), (1,))


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
def test_distribution_refuses_non_finite_probabilities(p):
    with pytest.raises(ParameterError):
        Distribution({(0,): 0.5, (1,): 0.5, (2,): p})


@pytest.mark.parametrize("outcome", [(0.5,), (0.0,), ("1",), (2 ** 70,), (-2 ** 63 - 1,), (None,)])
def test_distribution_refuses_outcomes_that_are_not_int64(outcome):
    with pytest.raises(DomainError):
        Distribution({outcome: Fraction(1, 2), (1,): Fraction(1, 2)})
    with pytest.raises(DomainError):
        Distribution.uniform([outcome])


def test_from_rows_drops_zero_counts():
    d = Distribution.from_rows([[0], [1]], [0, 2])
    assert d.support() == ((1,),) and d.denom == 2
    assert entropy(d) == 0.0
    with pytest.raises(ParameterError):
        Distribution.from_rows([[0], [1]], [0, 0])


def test_from_rows_sums_counts_past_int64_exactly():
    d = Distribution.from_rows([[0], [1]], [2 ** 62, 2 ** 62])
    assert d.denom == 2 ** 63
    assert d.items() == (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2)))
    assert entropy(d) == 1.0


@pytest.mark.parametrize("counts", [[1.7, 1], [1.0, 1], ["1", 1], [None, 1]])
def test_from_rows_refuses_a_count_that_is_not_an_integer(counts):
    # a float count was truncated: [1.7, 1] read as 1/2, 1/2
    with pytest.raises(DomainError):
        Distribution.from_rows([[0], [1]], counts)


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, 3 ** 50])
def test_from_rows_takes_a_python_count_past_int64_exactly(big):
    d = Distribution.from_rows([[0], [1]], [big, 1])
    assert d.denom == big + 1
    assert d.items() == (((0,), Fraction(big, big + 1)), ((1,), Fraction(1, big + 1)))
    assert Distribution.from_rows([[0]], [big]).items() == (((0,), Fraction(1)),)


def test_from_rows_refuses_negative_counts():
    with pytest.raises(ParameterError):
        Distribution.from_rows([[0], [1]], [-1, 2])


def test_outcomes_at_the_int64_ends_are_kept():
    d = Distribution({(-2 ** 63,): Fraction(1, 2), (2 ** 63 - 1,): Fraction(1, 2)})
    assert d.support() == ((-2 ** 63,), (2 ** 63 - 1,))
    assert entropy(d) == 1.0


def test_coordinates_outside_the_arity_are_refused():
    d = Distribution.uniform([(0, 0), (0, 1), (1, 0)])
    for coords in [(2,), (-1,), (0, 5)]:
        with pytest.raises(RangeError):
            d.marginal(coords)
        with pytest.raises(RangeError):
            conditional_entropy(d, coords, ())
        with pytest.raises(RangeError):
            conditional_entropy(d, (0,), coords)


def test_good_cells_refuses_values_outside_the_alphabet():
    for row in [(0, 5), (0, -1)]:
        d = Distribution.uniform([row, (1, 1)])
        with pytest.raises(DomainError):
            good_cells(d, 1, Fraction(1, 4), 2)


def test_entropy_is_the_conditional_entropy_of_every_coordinate():
    rng = random.Random(13)
    for trial in range(40):
        arity = rng.randint(1, 4)
        outcomes = rng.sample(list(product(range(3), repeat=arity)), rng.randint(1, 3 ** arity))
        if trial % 2:
            d = reference.from_counts({o: rng.randint(1, 30) for o in outcomes})
        else:
            weights = [Fraction(rng.random() + 0.01) for _ in outcomes]
            d = Distribution({o: w / sum(weights) for o, w in zip(outcomes, weights)})
        assert entropy(d).hex() == conditional_entropy(d, range(d.arity), ()).hex()


def test_distribution_marginal_and_conditioning():
    d = Distribution.uniform([(0, 0), (0, 1), (1, 0)])
    m = dict(d.marginal((0,)).items())
    assert m == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
    # Pr[x = (0, 1) | x_0 = 0], read off the joint and the marginal
    assert dict(d.items())[(0, 1)] / m[(0,)] == Fraction(1, 2)


def test_entropy_of_uniform_is_log_support():
    d = Distribution.uniform(list(product((0, 1), repeat=5)))
    assert entropy(d) == pytest.approx(5.0, abs=1e-12)


def test_conditional_entropy_by_definition():
    d = Distribution.uniform([(0, 0), (0, 1), (1, 0)])
    assert conditional_entropy(d, (0,), (1,)) == pytest.approx(2 / 3, abs=1e-12)
    # empty conditioning set falls back to the marginal entropy
    assert conditional_entropy(d, (0,), ()) == pytest.approx(
        entropy(d.marginal((0,))), abs=1e-12)


def test_chain_rule_and_conditioning_on_random_joints():
    rng = random.Random(7)
    for _ in range(50):
        arity = rng.randint(2, 4)
        outcomes = list(product((0, 1), repeat=arity))
        weights = [rng.randint(0, 6) for _ in outcomes]
        if sum(weights) == 0:
            weights[0] = 1
        d = reference.from_counts(
            {o: w for o, w in zip(outcomes, weights) if w})
        split = rng.randint(1, arity - 1)
        front = tuple(range(split))
        back = tuple(range(split, arity))
        joint = entropy(d)
        chained = entropy(d.marginal(front)) + conditional_entropy(d, back, front)
        assert abs(joint - chained) <= 1e-9
        assert conditional_entropy(d, back, front) <= entropy(d.marginal(back)) + 1e-9


def _fraction_conditional_entropy(dist, target, given):
    """Reference: bucket exact Fractions, then take each reduced ratio's log."""
    groups: dict = {}
    for o, p in dist.items():
        bucket = groups.setdefault(tuple(o[c] for c in given), {})
        t = tuple(o[c] for c in target)
        bucket[t] = bucket.get(t, 0) + p
    parts = []
    for g in sorted(groups):
        w = sum(groups[g].values())
        h = math.fsum(-float(p / w) * (math.log2((p / w).numerator) - math.log2((p / w).denominator))
                      for p in groups[g].values())
        parts.append(float(w) * h)
    return math.fsum(parts)


def test_conditional_entropy_is_bit_identical_to_the_fraction_route():
    rng = random.Random(11)
    for trial in range(60):
        arity = rng.randint(1, 5)
        outcomes = list(product(range(3), repeat=arity))
        if trial % 2:
            d = Distribution.uniform(rng.sample(outcomes, rng.randint(1, len(outcomes))))
        else:
            d = reference.from_counts({o: rng.randint(1, 40) for o in
                                          rng.sample(outcomes, rng.randint(1, len(outcomes)))})
        coords = list(range(arity))
        target = tuple(rng.sample(coords, rng.randint(1, arity)))
        given = tuple(rng.sample(coords, rng.randint(0, arity)))
        got = conditional_entropy(d, target, given)
        assert got.hex() == _fraction_conditional_entropy(d, target, given).hex()
        from_rows = Distribution.from_rows(d.rows, d.counts)
        assert conditional_entropy(from_rows, target, given).hex() == got.hex()


def test_denominator_past_int64_measures_and_float_pmfs_are_refused():
    # four large primes: the common denominator passes 2^63
    primes = (1000003, 1000033, 1000037, 1000039)
    outcomes = list(product((0, 1), repeat=4))
    head = [Fraction(1, q) for q in primes]
    rest = (1 - sum(head)) / (len(outcomes) - len(head))
    d = Distribution({o: head[k] if k < len(head) else rest for k, o in enumerate(outcomes)})
    assert d.denom >= 2 ** 63 and d.counts.dtype == object
    for target, given in [((2, 3), (0, 1)), ((0,), ()), ((1, 3), (2,))]:
        got = conditional_entropy(d, target, given)
        assert got.hex() == _fraction_conditional_entropy(d, target, given).hex()
    assert good_blocks(Distribution.uniform(outcomes), (2, 2), 0.5).good == (1, 2)
    # a float is no exact probability: 0.1 + 0.2 + 0.7 held at its binary values
    # sums to 1 - 2^-55, and even floats that sum to 1 exactly are refused
    for pmf in ({(0,): 0.1, (1,): 0.2, (2,): 0.7}, {(0,): 0.5, (1,): Fraction(1, 2)}):
        with pytest.raises(ParameterError, match="not an exact rational"):
            Distribution(pmf)
    # ints and numpy integers are exact
    assert Distribution({(0,): 1, (1,): np.int64(0)}).support() == ((0,),)
    f = Distribution({(0, 0): Fraction(1, 10), (0, 1): Fraction(2, 10), (1, 0): Fraction(3, 10),
                      (1, 1): Fraction(4, 10)})
    assert conditional_entropy(f, (1,), (0,)) == pytest.approx(
        0.3 * _h([1 / 3, 2 / 3]) + 0.7 * _h([3 / 7, 4 / 7]), abs=1e-12)
    assert conditional_entropy(f, (0, 1), ()) == pytest.approx(entropy(f), abs=1e-12)


def _h(ps):
    return -sum(p * math.log2(p) for p in ps)


def test_group_rows_matches_sorted_distinct_rows():
    rng = random.Random(5)
    # narrow keys, wide ones, keys past int64, negatives, empty shapes
    for k, w, lo, hi in [(500, 3, 0, 2), (500, 3, 0, 49), (300, 20, 0, 299),
                         (200, 2, -3, 4), (0, 3, 0, 1), (7, 0, 0, 1), (4000, 4, 0, 2)]:
        rows = [tuple(rng.randint(lo, hi) for _ in range(w)) for _ in range(k)]
        values = np.array(rows, dtype=np.int64).reshape(k, w)
        first, inverse = group_rows(values)
        distinct = sorted(set(rows))
        assert [rows[f] for f in first.tolist()] == distinct
        assert first.tolist() == [rows.index(r) for r in distinct]
        assert inverse.tolist() == [distinct.index(r) for r in rows]


def test_tv_distance_exact():
    d1 = Distribution({(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    d2 = Distribution.uniform([(0,), (1,)])
    assert reference.tv_distance(d1, d2) == Fraction(1, 4)
    with pytest.raises(DomainError):
        reference.tv_distance(d1, Distribution.uniform([(0, 0), (1, 1)]))


def test_tv_from_uniform_counts_missing_mass():
    d = Distribution.uniform([(0, 0), (0, 1)])
    # space {0,1}^2: two present points at 1/2 each, two missing
    assert tv_from_uniform(d, 4) == Fraction(1, 2)
    direct = Distribution.uniform(list(product((0, 1), repeat=2)))
    assert tv_from_uniform(d, 4) == reference.tv_distance(d, direct)


def test_high_entropy_implies_near_uniform():
    space = list(product((0, 1), repeat=4))
    half = [o for o in space if o[0] == 0]
    chk = reference.check_high_entropy_uniform(Distribution.uniform(half), space, 1.0)
    assert chk.precondition_ok
    assert chk.distance == Fraction(1, 2)
    assert chk.bound == pytest.approx(4.0)
    assert chk.holds


def test_validate_blocks_rejects_bad_partitions():
    assert validate_blocks((1, 3), 4) == (1, 3)
    with pytest.raises(ParameterError):
        validate_blocks((1, 2), 4)
    with pytest.raises(ParameterError):
        validate_blocks((0, 4), 4)


def test_good_blocks_scores_conditional_entropies():
    x = [o for o in product((0, 1), repeat=4) if o[0] == 0]
    rep = good_blocks(x, (1, 1, 1, 1), 0.5)
    assert rep.scores == pytest.approx((0.0, 1.0, 1.0, 1.0))
    assert rep.good == (2, 3, 4)
    assert rep.deficiency == pytest.approx(1.0)
    assert rep.size_bound == pytest.approx(2.0)
    assert rep.size_bound_ok


def test_good_blocks_zero_deficiency_keeps_everything():
    x = list(product((0, 1), repeat=4))
    rep = good_blocks(x, (2, 2), 0.25)
    assert rep.good == (1, 2)
    assert rep.deficiency == pytest.approx(0.0)


def test_good_cells_drops_constant_column():
    outcomes = [y for y in product(range(2), repeat=3) if y[0] == 0]
    d = Distribution.uniform(outcomes)
    for q in (1, 2):
        rep = good_cells(d, q, Fraction(1, 4), 2)
        assert rep.good == (2, 3)


def test_good_cells_greedy_removes_worst_first():
    # column 0 constant (worst), columns 1 and 2 skewed
    d = reference.from_counts({(0, 0, 0): 2, (0, 0, 1): 1, (0, 1, 1): 1})
    rep = good_cells(d, 2, Fraction(1, 100), 2)
    assert 1 not in rep.good


def test_good_cells_subset_budget(monkeypatch):
    monkeypatch.setattr("cellprobe.infotheory._SUBSET_LIMIT", 100)
    d = Distribution.uniform(list(product((0, 1), repeat=10)))
    with pytest.raises(SizeError):
        good_cells(d, 5, Fraction(1, 2), 2)


def test_count_matrix_matches_direct_counter():
    rng = random.Random(3)
    rows = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(40)]
    d = reference.from_counts(
        {r: rows.count(r) for r in set(rows)})
    direct: dict[tuple, int] = {}
    for r in rows:
        key = (r[1], r[3])
        direct[key] = direct.get(key, 0) + 1
    expected = {k: Fraction(v, len(rows)) for k, v in direct.items()}
    assert dict(d.marginal((1, 3)).items()) == expected


def test_count_matrix_tv_agrees_with_distribution_tv():
    d = Distribution.uniform([(0, 0), (0, 1), (1, 1)])
    got = tv_from_uniform(d.marginal((0, 1)), 4)
    full = Distribution.uniform(list(product((0, 1), repeat=2)))
    assert got == reference.tv_distance(d, full)


def test_count_matrix_column_entropy():
    d = Distribution.uniform([(0, 0), (0, 1), (1, 0)])
    got = 1 - good_cells(d, 1, Fraction(1, 2), 2).scores[0]
    assert got == pytest.approx(entropy(d.marginal((0,))), abs=1e-12)


@st.composite
def weighted_rows(draw):
    """(distribution, alphabet): rows over [0, m) weighted in one of four ways.

    ``unit`` weighs every drawn row 1 (repeated rows merge); ``counts`` draws
    small counts; ``past53`` counts whose total passes 2^53, so no float
    weight is exact; ``past63`` probabilities whose common denominator passes
    2^63, so the counts are Python ints.
    """
    m = draw(st.sampled_from((2, 3, 5, 17)))
    arity = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * arity), min_size=1, max_size=12))
    mode = draw(st.sampled_from(("unit", "counts", "past53", "past63")))
    if mode == "unit":
        return Distribution.from_rows(rows), m
    if mode == "counts":
        return Distribution.from_rows(rows, draw(st.lists(
            st.integers(1, 9), min_size=len(rows), max_size=len(rows)))), m
    if mode == "past53":
        return Distribution.from_rows(rows, draw(st.lists(
            st.integers(2 ** 53, 2 ** 58), min_size=len(rows), max_size=len(rows)))), m
    distinct = sorted(set(rows))
    # one count of 1 keeps the full total as the common denominator
    counts = [1] + draw(st.lists(st.integers(2 ** 64, 2 ** 70),
                                 min_size=len(distinct) - 1, max_size=len(distinct) - 1))
    total = sum(counts)
    return Distribution({r: Fraction(c, total) for r, c in zip(distinct, counts)}), m


def _tv_by_definition(dist, space):
    """Half the L1 distance to uniform on ``space`` points, one Fraction per outcome."""
    present = sum(abs(p - Fraction(1, space)) for _, p in dist.items())
    return (present + Fraction(space - len(dist), space)) / 2


@settings(max_examples=400, deadline=None)
@given(weighted_rows(), st.data())
def test_columns_tv_equals_the_marginal_route(dm, data):
    dist, m = dm
    cols = data.draw(st.lists(st.integers(0, dist.arity - 1), max_size=5))
    (got,) = columns_tv(dist.rows, [cols], dist.counts, dist.denom, m)
    assert got == tv_from_uniform(dist.marginal(cols), m ** len(cols))
    assert got == _tv_by_definition(dist.marginal(cols), m ** len(cols))
    columns = subset_tallies(dist.rows, [(c,) for c in range(dist.arity)], dist.counts,
                             dist.denom, m)
    for c, tallies in enumerate(columns):
        assert tallies[tallies > 0].tolist() == dist.marginal((c,)).counts.tolist()


def test_columns_tv_reaches_every_counting_route():
    rows = [(0, 1, 2), (2, 2, 0), (0, 1, 2), (1, 0, 0)]
    # unit counts; space * denom just past 2^63 (no int64 product); denom past 2^53
    for counts, past in ((None, 1), ([3 * 2 ** 58, 3 * 2 ** 58 - 7, 3, 4], 2 ** 60),
                         ([2 ** 60, 1, 3, 2 ** 59], 2 ** 53)):
        dist = Distribution.from_rows(rows, counts)
        assert dist.denom >= past
        for cols, m in (((0, 2), 3), ((0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1), 3), ((2, 1), 2 ** 40)):
            (got,) = columns_tv(dist.rows, [cols], dist.counts, dist.denom, m)
            assert got == tv_from_uniform(dist.marginal(cols), m ** len(cols))
            assert got == _tv_by_definition(dist.marginal(cols), m ** len(cols))
    big = Distribution({(0, 1): Fraction(1, 2 ** 64 + 13), (1, 1): 1 - Fraction(1, 2 ** 64 + 13)})
    assert big.counts.dtype == object
    for cols in ((0,), (0, 1), (1, 1, 0)):
        (got,) = columns_tv(big.rows, [cols], big.counts, big.denom, 2)
        assert got == tv_from_uniform(big.marginal(cols), 2 ** len(cols))
        assert got == _tv_by_definition(big.marginal(cols), 2 ** len(cols))


_INT64_ENDS = (-2 ** 63, -2 ** 63 + 1, -2 ** 63 + 5, 2 ** 63 - 6, 2 ** 63 - 2, 2 ** 63 - 1)


@st.composite
def row_matrices(draw):
    """A k x w int64 matrix: small values, negatives, values at one end of int64 (lo far
    from 0, the key folds wrap), or at both ends (key space past 2^63); rows in
    lexicographic order, reversed, shuffled or all equal."""
    k = draw(st.sampled_from((0, 1, draw(st.integers(2, 40)))))
    w = draw(st.integers(0, 4))
    ends = draw(st.sampled_from(("small", "negative", "low end", "high end", "both ends")))
    value = {"small": st.integers(0, 3), "negative": st.integers(-5, 2),
             "low end": st.integers(-2 ** 63, -2 ** 63 + 9),
             "high end": st.integers(2 ** 63 - 10, 2 ** 63 - 1),
             "both ends": st.sampled_from(_INT64_ENDS)}[ends]
    rows = draw(st.lists(st.tuples(*[value] * w), min_size=k, max_size=k))
    order = draw(st.sampled_from(("ordered", "reversed", "shuffled", "constant")))
    if order == "ordered":
        rows.sort()
    elif order == "reversed":
        rows.sort(reverse=True)
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    elif rows:
        rows = [rows[0]] * k
    return np.array(rows, dtype=np.int64).reshape(k, w)


@settings(max_examples=400, deadline=None)
@given(row_matrices())
@example(np.array([[2 ** 62 - 1, 2 ** 62], [2 ** 62, 2 ** 62 - 1]], dtype=np.int64))
@example(np.array([[-2 ** 63, 2 ** 63 - 1], [-2 ** 63, -2 ** 63]], dtype=np.int64))
@example(np.zeros((3, 0), dtype=np.int64))
@example(np.array([[3], [-2], [0], [-2]], dtype=np.int64))
@example(np.array([[2 ** 63 - 1], [2 ** 63 - 10], [2 ** 63 - 1]], dtype=np.int64))
def test_group_rows_equals_the_sorting_fold(values):
    first, inverse = group_rows(values)
    want_first, want_inverse = reference.group_rows_by_unique(values)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def _same_groups(got, want):
    (values, weights, entropies), (want_values, want_weights, want_entropies) = got, want
    assert values.tolist() == want_values.tolist()
    assert weights == want_weights
    assert [h.hex() for h in entropies] == [h.hex() for h in want_entropies]


@settings(max_examples=400, deadline=None)
@given(weighted_rows(), st.data())
def test_entropy_by_group_is_bit_identical_to_the_loop(dm, data):
    # unit counts give uniform groups, drawn counts mixed terms, past63 Python-int counts
    dist, _ = dm
    coords = st.lists(st.integers(0, dist.arity - 1), max_size=dist.arity, unique=True)
    target, given_coords = data.draw(coords), data.draw(coords)
    _same_groups(entropy_by_group(dist, target, given_coords),
                 reference.entropy_by_group(dist, target, given_coords))


def test_entropy_by_group_on_each_kind_of_group():
    skewed = Distribution.from_rows([(0, 0), (0, 1), (0, 1), (1, 0), (1, 1), (2, 1)], [1, 2, 3, 4, 4, 5])
    big = Distribution({(0, 0): Fraction(1, 2 ** 64 + 13), (0, 1): Fraction(1, 2),
                        (1, 1): Fraction(1, 2) - Fraction(1, 2 ** 64 + 13)})
    assert big.denom >= 2 ** 63
    uniform = Distribution.uniform(product((0, 1), repeat=3))
    # group 0 mixes terms, group 1 shares one, group 2 holds one pair; one-pair
    # groups everywhere when the target adds nothing, so each term is -0.0
    for dist in (skewed, big, uniform):
        for target, given_coords in (((1,), (0,)), ((), (0, 1)), ((0, 1), ()), ((1,), (1, 0))):
            got = entropy_by_group(dist, target, given_coords)
            _same_groups(got, reference.entropy_by_group(dist, target, given_coords))
    assert entropy_by_group(skewed, (1,), (0,))[2][2].hex() == (0.0).hex()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_tallies_equal_the_int64_fold_for_each_column_type(dtype):
    rng = np.random.default_rng(3)
    m = 5
    rows = rng.integers(0, m, (300, 4))
    # equal counts take the unweighted count, unequal ones the weighted
    for counts in (np.full(300, 7, dtype=np.int64), rng.integers(1, 50, 300)):
        held = rows.astype(dtype)
        denom = int(counts.sum())
        for cols in ((0,), (2, 0), (1, 3, 2), (0, 1, 2, 3)):
            want = reference.column_tallies([rows[:, c] for c in cols], counts, m)
            routes = (_keyed_tallies, _product_tallies) if len(cols) <= 2 else (_keyed_tallies,)
            for route in routes:
                (got,) = route(held, [cols], counts, denom, m)
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
            dist = Distribution.from_rows(rows, counts)
            assert columns_tv(held, [cols], counts, denom, m) == \
                [tv_from_uniform(dist.marginal(cols), m ** len(cols))]


@st.composite
def tally_cases(draw):
    """(rows, counts, m, subsets): k x u values over [0, m), some columns constant, with
    unit, equal or drawn counts whose total falls below or past 2^53, and subsets of one
    to three columns, a column possibly repeated."""
    m = draw(st.integers(2, 5))
    u = draw(st.integers(2, 8))
    k = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(st.lists(st.integers(0, m - 1), min_size=u, max_size=u),
                                  min_size=k, max_size=k)),
                    dtype=draw(st.sampled_from((cell_dtype(m), np.int64))))
    for c in draw(st.sets(st.integers(0, u - 1))):
        rows[:, c] = draw(st.integers(0, m - 1))
    mode = draw(st.sampled_from(("unit", "equal", "below53", "equal_past53", "past53")))
    if mode == "unit":
        counts = np.ones(k, dtype=np.int64)
    elif mode == "equal":
        counts = np.full(k, draw(st.integers(2, 2 ** 40)), dtype=np.int64)
    elif mode == "equal_past53":
        counts = np.full(k, 2 ** 53 // k + 1, dtype=np.int64)
    else:
        # 12 counts below 2^49 total below 2^53; counts from 2^53 on pass it with one row
        bounds = (1, 2 ** 49 - 1) if mode == "below53" else (2 ** 53, 2 ** 58)
        counts = np.array(draw(st.lists(st.integers(*bounds), min_size=k, max_size=k)),
                          dtype=np.int64)
    subsets = draw(st.lists(st.lists(st.integers(0, u - 1), min_size=1, max_size=3).map(tuple),
                            min_size=1, max_size=8))
    return rows, counts, m, subsets


def _as_counter(tallies, m: int, size: int, oracle) -> dict:
    """A kernel tally as {values: count} over the keys present: all m^size slots unravel
    to their digits; a shorter tally lists the oracle's keys in order."""
    if len(tallies) < m ** size:
        return dict(zip(sorted(oracle), tallies.tolist()))
    return {tuple(int(d) for d in np.unravel_index(key, (m,) * size)): int(count)
            for key, count in enumerate(tallies.tolist()) if count}


@settings(max_examples=200, deadline=None)
@given(tally_cases())
@example((np.array([[1, 0, 2]], dtype=np.uint8), np.array([5]), 3, [(0,), (2, 1), (1, 1), (0, 1, 2)]))
@example((np.array([[1, 1], [0, 1]], dtype=np.uint8), np.array([2 ** 53 - 2, 1]), 2, [(0, 1)]))
@example((np.array([[1, 1], [0, 1]], dtype=np.uint8), np.array([2 ** 53 - 1, 1]), 2, [(0, 1)]))
def test_subset_tallies_equal_the_counter_oracle_on_both_routes(case):
    rows, counts, m, subsets = case
    denom = int(sum(counts.tolist()))
    # the product holds subsets of two columns at most, and is exact below 2^53 only
    routes = [(subset_tallies, subsets), (_keyed_tallies, subsets)]
    small = [s for s in subsets if len(s) <= 2]
    if denom >= 2 ** 53:
        assert not _by_product(rows.shape[1], m, 1, denom)
    elif small:
        routes.append((_product_tallies, small))
    for route, chosen in routes:
        got = list(route(rows, chosen, counts, denom, m))
        assert len(got) == len(chosen)
        for s, tallies, want in zip(chosen, got, reference.counter_tallies(rows, chosen, counts)):
            assert tallies.dtype == np.int64
            assert _as_counter(tallies, m, len(s), want) == dict(want)
            assert int(sum(tallies.tolist())) == denom


def _bound_fires(dist, q, eta, m):
    return Fraction(m ** q - len(dist), m ** q) > eta


@settings(max_examples=300, deadline=None)
@given(weighted_rows(), st.integers(1, 4),
       st.sampled_from((Fraction(1, 100), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))))
@example((Distribution.from_rows([(0, 0, 1), (1, 1, 0), (1, 0, 1)]), 2), 2, Fraction(1, 4))
@example((Distribution.from_rows(list(product(range(3), repeat=3))[:20]), 3), 2, Fraction(1, 2))
# columns held as uint32, and past 2^32 as int64
@example((Distribution.from_rows([(0, 2 ** 32 - 1), (2 ** 31, 5), (7, 7)]), 2 ** 32), 1, Fraction(1, 2))
@example((Distribution.from_rows([(0, 2 ** 40), (2 ** 33, 5), (7, 7)]), 2 ** 41), 1, Fraction(1, 2))
def test_good_cells_matches_the_marginal_reference(dm, q, eta):
    dist, m = dm
    report = good_cells(dist, q, eta, m)
    assert report == reference.good_cells(dist, q, eta, m)
    # each subset counted keeps the exact distance of its marginal
    assert report.subset_tvs == {s: tv_from_uniform(dist.marginal(s), m ** q)
                                 for s in report.subset_tvs}


@pytest.mark.parametrize("m, q, size, eta, fires", [
    (2, 2, 3, Fraction(1, 8), True),       # bound 1/4
    (2, 2, 3, Fraction(1, 3), False),
    (2, 2, 2, Fraction(1, 2), False),      # bound equal to eta: not past it
    (2, 2, 4, Fraction(1, 8), False),      # full support, bound 0
    (3, 2, 4, Fraction(1, 3), True),       # bound 5/9
    (3, 3, 20, Fraction(1, 8), True),      # bound 7/27
    (3, 3, 20, Fraction(1, 3), False),
    (5, 2, 24, Fraction(1, 8), False),     # bound 1/25
    (17, 2, 30, Fraction(3, 4), True),     # bound 259/289
    (17, 2, 280, Fraction(1, 8), False),   # bound 9/289
])
def test_good_cells_on_both_sides_of_the_support_bound(m, q, size, eta, fires):
    rng = random.Random(m * 1000 + q * 100 + size)
    rows = rng.sample(list(product(range(m), repeat=5)), size)
    dist = Distribution.from_rows(rows)
    assert _bound_fires(dist, q, eta, m) == fires
    assert good_cells(dist, q, eta, m) == reference.good_cells(dist, q, eta, m)


def test_bound_decided_scheme_needs_no_subset_budget(monkeypatch):
    monkeypatch.setattr("cellprobe.infotheory._SUBSET_LIMIT", 100)
    # 12 cells over 17 values, 40 rows: 17^6 - 40 of 17^6 points carry no mass
    rng = random.Random(8)
    dist = Distribution.from_rows([[rng.randrange(17) for _ in range(12)] for _ in range(40)])
    assert _bound_fires(dist, 6, Fraction(1, 2), 17)
    report = good_cells(dist, 6, Fraction(1, 2), 17)
    assert report == reference.good_cells(dist, 6, Fraction(1, 2), 17)
    assert len(report.good) == 5
    with pytest.raises(SizeError):
        reference.good_cells(dist, 6, Fraction(1, 2), 17, max_subsets=100)


@st.composite
def planted_cells(draw):
    """(distribution, alphabet, q, eta): every row of a grid of one to three uniform columns
    over [0, m), weighed 1 or a drawn count, and two to five cell columns, each a copy of a
    grid column, a planted far one (a constant, or a grid column folded onto half the
    values) or drawn row by row.  eta is a fixed fraction or the exact distance of one
    column, so some column lies exactly at eta."""
    m = draw(st.integers(2, 4))
    grid = np.array(list(product(range(m), repeat=draw(st.integers(1, 3)))), dtype=np.int64)
    k, j = grid.shape
    columns = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(("copy", "constant", "folded", "drawn")))
        if kind == "copy":
            columns.append(grid[:, draw(st.integers(0, j - 1))])
        elif kind == "constant":
            columns.append(np.full(k, draw(st.integers(0, m - 1))))
        elif kind == "folded":
            columns.append(grid[:, draw(st.integers(0, j - 1))] // 2)
        else:
            columns.append(np.array(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))))
    counts = None
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    dist = Distribution.from_rows(np.column_stack(columns), counts)
    q = draw(st.integers(1, min(3, dist.arity)))
    distances = [tv_from_uniform(dist.marginal((c,)), m) for c in range(dist.arity)]
    eta = draw(st.sampled_from(sorted({*(tv for tv in distances if tv),
                                       Fraction(1, 100), Fraction(1, 4), Fraction(1, 2)})))
    return dist, m, q, eta


@settings(max_examples=300, deadline=None)
@given(planted_cells())
# a column exactly at eta (1/4) beside a uniform one it is independent of: the pair lies at
# eta too, so neither fails; on the product route for q = 2, the keyed route for q = 3
@example((Distribution.from_rows([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]), 2, 1, Fraction(1, 4)))
@example((Distribution.from_rows([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]), 2, 2, Fraction(1, 4)))
@example((Distribution.from_rows([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]), 2, 3, Fraction(1, 4)))
def test_good_cells_equals_the_counter_oracle_on_both_routes(case):
    """Each subset holding a column farther than eta fails untallied, on the indicator
    product's route and on the keyed one: the kept cells, the scores and every distance
    held equal the oracle that tallies every subset, and the subsets held are exactly
    those with no far column (none when the support bound decides)."""
    dist, m, q, eta = case
    want = reference.counter_good_cells(dist, q, eta, m)
    far = {c for c in range(dist.arity) if tv_from_uniform(dist.marginal((c,)), m) > eta}
    held = set() if _bound_fires(dist, q, eta, m) else {
        s for s in want.subset_tvs if far.isdisjoint(s)}
    reports = [good_cells(dist, q, eta, m)]
    with mock.patch("cellprobe.infotheory._by_product", return_value=False):
        reports.append(good_cells(dist, q, eta, m))
    for report in reports:
        assert report == want
        assert set(report.subset_tvs) == held
        assert all(report.subset_tvs[s] == want.subset_tvs[s] for s in held)


@st.composite
def uniform_sets_and_cuts(draw):
    """(distribution, sizes): the uniform distribution on a set of distinct rows over [0, m),
    each weighed one equal count (past int64 too), and a cut of its coordinates into
    consecutive blocks."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 7))
    rows = draw(st.sets(st.tuples(*[st.integers(0, m - 1)] * n), min_size=1, max_size=40))
    count = draw(st.sampled_from((1, 3, 2 ** 70)))
    dist = Distribution.from_rows(sorted(rows), [count] * len(rows))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    return dist, tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, n)))


@settings(max_examples=300, deadline=None)
@given(uniform_sets_and_cuts())
@example((Distribution.from_rows([(0, 0, 1), (0, 1, 0), (1, 1, 1)]), (1, 1, 1)))
@example((Distribution.from_rows([(0, 0), (0, 1), (1, 0)], [2 ** 70] * 3), (1, 1)))
def test_good_blocks_scores_equal_conditional_entropy_exactly(case):
    """Scores read off the prefix runs equal, as floats, the entropies grouped from each
    block's marginal, by the package and by the reference's loop over every count."""
    dist, sizes = case
    report = good_blocks(dist, sizes, Fraction(1, 2))
    start = 0
    for size, score in zip(sizes, report.scores):
        block, prefix = range(start, start + size), range(start)
        assert score == conditional_entropy(dist, block, prefix)
        _, weights, entropies = reference.entropy_by_group(dist, block, prefix)
        assert score == mean_entropy(weights, entropies, dist.denom)
        start += size


def test_sorted_rows_are_held_as_given():
    rows = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=np.int8)
    dist = Distribution.on_distinct_rows(rows)
    assert dist.rows is rows
    want = Distribution.from_rows(rows)
    assert dist.items() == want.items() and dist.denom == want.denom == 3
    assert dist.counts.dtype == want.counts.dtype
    with pytest.raises(ParameterError):
        Distribution.on_distinct_rows(rows[:0])


def test_distinct_rows_proves_distinct_rows_and_fails_on_a_repeated_key():
    rows = np.array(list(product(range(3), repeat=4)), dtype=np.uint8)
    assert distinct_rows(rows) and distinct_rows(rows[::-1]) and distinct_rows(rows[:1])
    assert distinct_rows(rows[:0]) and distinct_rows(np.zeros((1, 0), dtype=np.int8))
    assert not distinct_rows(np.vstack((rows, rows[5:6])))
    assert not distinct_rows(np.zeros((2, 0), dtype=np.int8))
    # two distinct rows built to share a key: 0 * M + M = 1 * M + 0, wrapped to 64 bits
    multiplier = int(infotheory._KEY_MULTIPLIER)
    assert not distinct_rows(np.array([[0, multiplier - 2 ** 64], [1, 0]], dtype=np.int64))


row_sets = st.integers(2, 4).flatmap(lambda m: st.integers(1, 5).flatmap(lambda u: st.tuples(
    st.just(m), st.lists(st.tuples(*[st.integers(0, m - 1)] * u), min_size=1, max_size=40,
                         unique=True))))


@settings(max_examples=60, deadline=None)
@given(row_sets, st.integers(1, 3), st.sampled_from([Fraction(1, 20), Fraction(1, 4),
                                                      Fraction(3, 4)]), st.data())
def test_good_cells_reads_no_row_order(case, q, eta, data):
    """Distinct rows held in any order give good_cells' report of the grouped rows, with
    the same subsets counted at the same distances."""
    m, rows = case
    y = np.array(rows, dtype=np.uint8)
    order = data.draw(st.permutations(range(len(rows))))
    q = min(q, y.shape[1])
    want = good_cells(Distribution.from_rows(y), q, eta, m)
    got = good_cells(Distribution.on_distinct_rows(y[list(order)]), q, eta, m)
    assert got == want and got.subset_tvs == want.subset_tvs


@pytest.mark.parametrize("domain, sizes", [(DOMAIN_BAL, range(2, 17, 2)),
                                           (DOMAIN_ALL, range(1, 11))])
def test_the_first_blocks_runs_give_its_tv(domain, sizes):
    """The first block is a prefix: the counts of the runs of the sorted rows at its end,
    as ``prefix_groups`` gives them, give its TV to uniform as ``columns_tv`` counts it,
    at every cut."""
    for n in sizes:
        whole = domain_of(domain, n)
        rows = whole.rows(0, whole.size)
        dist = Distribution.on_distinct_rows(rows)
        for hi in range(1, n + 1):
            tallies = prefix_groups(dist.prefix_runs(), dist.counts, 0, hi)[1]
            (want,) = columns_tv(rows, [range(hi)], dist.counts, dist.denom, 2)
            assert _tv(tallies, dist.denom, 2 ** hi) == want


@settings(max_examples=300, deadline=None)
@given(weighted_rows(), st.tuples(st.integers(0, 5), st.integers(0, 5)))
@example((Distribution.from_rows([(0, 1, 1), (0, 1, 2), (1, 0, 0)], [2 ** 70, 1, 2 ** 66]), 3),
         (1, 3))
def test_prefix_groups_equal_the_reference_groups(dm, bounds):
    """The runs at ``stop`` grouped by the runs at ``cut`` are the groups of the reference's
    loop over the block [cut, stop) given the prefix [0, cut): the same values, weights and
    entropies, bit for bit, with counts past int64 summed exactly."""
    dist, _ = dm
    cut, stop = sorted(min(b, dist.arity) for b in bounds)
    first, run_counts, starts, weights = prefix_groups(dist.prefix_runs(), dist.counts, cut, stop)
    assert run_counts.dtype == weights.dtype == dist.counts.dtype
    got = (dist.rows[first[starts], :cut], weights.tolist(),
           group_entropies(run_counts, weights, starts))
    _same_groups(got, reference.entropy_by_group(dist, range(cut, stop), range(cut)))


def test_prefix_runs_are_kept_and_refuse_rows_out_of_order(monkeypatch):
    rows = np.array(list(product((0, 1), repeat=3)), dtype=np.int8)
    dist = Distribution.on_distinct_rows(rows)
    assert dist.prefix_runs().tolist() == [-1, 2, 1, 2, 0, 2, 1, 2]
    assert dist.prefix_runs() is dist.prefix_runs()
    with pytest.raises(ConsistencyError, match="row 1 does not follow row 0"):
        Distribution.on_distinct_rows(rows[::-1]).prefix_runs()
    for repeated in (rows[[0, 1, 1]], np.zeros((2, 0), dtype=np.int8)):
        with pytest.raises(ConsistencyError):
            Distribution.on_distinct_rows(repeated).prefix_runs()
    # rows compared a block at a time: a row out of order in a later block is named
    monkeypatch.setattr(infotheory, "_FOLD_ROWS", 3)
    swapped = rows[[0, 1, 2, 3, 4, 6, 5, 7]]
    with pytest.raises(ConsistencyError, match="row 6 does not follow row 5"):
        Distribution.on_distinct_rows(swapped).prefix_runs()
    assert Distribution.on_distinct_rows(rows).prefix_runs().tolist() == dist.prefix_runs().tolist()
    # the readers of the runs refuse such rows too, rather than misread them
    with pytest.raises(ConsistencyError):
        good_blocks(Distribution.on_distinct_rows(swapped), (1, 2), 1)
