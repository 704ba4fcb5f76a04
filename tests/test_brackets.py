"""Bracket matching, the balanced domain by rank, and unmatched-bracket walk probabilities."""

import math
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import reference
from cellprobe import (
    DomainError,
    ParameterError,
    RangeError,
    catalan_count,
    match_index,
    match_rows,
    unmatched_close_prob,
    unmatched_open_prob,
)
import cellprobe.brackets
from cellprobe.brackets import balanced, partners, unmatched_ends
from cellprobe.core import DOMAIN_BAL, domain_of
from cellprobe.schemes import build_bracket_table
from reference import enumerate_bal, is_balanced, scan_matches


def balanced_rows(n: int) -> np.ndarray:
    """Every balanced string of length n, in lexicographic order, as an int8 matrix."""
    strings = enumerate_bal(n)
    return np.array(strings, dtype=np.int8).reshape(len(strings), n)


def test_is_balanced():
    assert is_balanced(())
    assert is_balanced((1, 0, 1, 1, 0, 0))
    assert not is_balanced((0, 1))
    assert not is_balanced((1, 1, 0))
    with pytest.raises(DomainError):
        is_balanced((1, 2, 0))


def test_scan_matches_balanced_and_partial():
    # "(()())" with 1 = open
    assert scan_matches((1, 1, 0, 1, 0, 0)) == (6, 3, 2, 5, 4, 1)
    # unmatched brackets map to None
    assert scan_matches((0, 1)) == (None, None)
    assert scan_matches((1, 0, 1)) == (2, 1, None)


def test_match_rows_equals_the_stack_scan_on_every_balanced_string():
    for n in range(0, 15, 2):
        strings = enumerate_bal(n)
        got = match_rows(np.array(strings, dtype=np.int8).reshape(len(strings), n))
        assert got.tolist() == [list(scan_matches(x)) for x in strings]
    # blocks of rows are independent: one matrix past the block size answers the same
    strings = enumerate_bal(16)
    assert len(strings) > 1000
    big = np.array(strings * 4, dtype=np.int8)
    assert match_rows(big).tolist() == [list(scan_matches(x)) for x in strings] * 4


def test_match_rows_refuses_the_first_unbalanced_row():
    rows = [x for x in product((0, 1), repeat=6)]
    bad = next(x for x in rows if not is_balanced(x))
    with pytest.raises(DomainError, match=re.escape(f"input {bad} is not a balanced")):
        match_rows(np.array(rows, dtype=np.int8))


def _random_balanced(rng, n: int) -> tuple:
    """A random balanced string of length n: a shuffled string of n/2 opens and n/2
    closes, rotated to start just after a lowest point of its walk."""
    bits = rng.permutation([1] * (n // 2) + [0] * (n // 2))
    cut = int(np.argmin(np.cumsum(2 * bits - 1))) + 1
    return tuple(np.roll(bits, -cut).tolist())


def _nested(n: int) -> tuple:
    return (1,) * (n // 2) + (0,) * (n // 2)


def test_match_rows_equals_the_stack_scan_on_wide_rows_past_an_int8_depth():
    rng = np.random.default_rng(24)
    for n in (200, 256):
        assert match_rows(np.array([_nested(n)], dtype=np.int8)).tolist() == [list(scan_matches(_nested(n)))]
    for n in range(60, 301, 10):
        strings = [_random_balanced(rng, n) for _ in range(5)] + [_nested(n)]
        assert all(map(is_balanced, strings))
        got = match_rows(np.array(strings, dtype=np.int8))
        assert got.dtype == np.int64
        assert got.tolist() == [list(scan_matches(x)) for x in strings]


def test_match_rows_reads_any_integer_or_bool_layout():
    rows = balanced_rows(12)
    want = [list(scan_matches(x)) for x in map(tuple, rows.tolist())]
    wide = np.zeros((len(rows), 20), dtype=np.int8)
    wide[:, 5:17] = rows
    for bits in (rows.astype(bool), rows.astype(np.int64), np.asfortranarray(rows), wide[:, 5:17]):
        got = match_rows(bits)
        assert got.dtype == np.int64 and got.shape == rows.shape
        assert got.tolist() == want
    for shape in ((0, 6), (0, 0), (3, 0)):
        got = match_rows(np.zeros(shape, dtype=np.int8))
        assert got.dtype == np.int64 and got.shape == shape


def test_match_rows_answers_the_same_on_any_split_into_blocks():
    rows = balanced_rows(14)
    whole = match_rows(rows)
    for size in range(1, 8):
        parts = [match_rows(rows[start:start + size]) for start in range(0, len(rows), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_match_rows_names_the_first_unbalanced_row_in_a_later_block():
    rows = np.tile(balanced_rows(16), (4, 1))
    assert len(rows) > 5000
    rows[5000] = (0, 1) * 8
    rows[5001] = (1,) * 16
    with pytest.raises(DomainError, match=re.escape(f"input {(0, 1) * 8} is not a balanced")):
        match_rows(rows)


def test_partners_equal_the_stack_scan_in_the_narrowest_signed_type():
    """The partner kernel on every balanced string up to n = 14 and on random ones up to
    n = 300, in int8 through n = 127 and int16 from n = 128; match_rows is its int64 copy."""
    for n in range(0, 15, 2):
        rows = balanced_rows(n)
        got = partners(rows)
        assert got.dtype == np.int8 and got.shape == rows.shape
        assert got.tolist() == [list(scan_matches(x)) for x in map(tuple, rows.tolist())]
    rng = np.random.default_rng(30)
    for n in (*range(16, 301, 14), 126, 128, 300):
        strings = [_random_balanced(rng, n) for _ in range(5)] + [_nested(n)]
        got = partners(np.array(strings, dtype=np.int8))
        assert got.dtype == (np.int8 if n <= 127 else np.int16)
        assert got.tolist() == [list(scan_matches(x)) for x in strings]
        wide = match_rows(np.array(strings, dtype=np.int8))
        assert wide.dtype == np.int64 and np.array_equal(wide, got)
    for n, dtype in ((1, np.int8), (127, np.int8), (128, np.int16), (129, np.int16),
                     (32767, np.int16), (32768, np.int32)):
        assert partners(np.zeros((0, n), dtype=np.int8)).dtype == dtype


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64, 4096])
def test_partners_answer_the_same_on_every_block_split(block, monkeypatch):
    """The kernel's own blocks of rows are independent, and the first unbalanced row is
    named whichever block it falls in."""
    rows = balanced_rows(14)
    want = [list(scan_matches(x)) for x in map(tuple, rows.tolist())]
    monkeypatch.setattr(cellprobe.brackets, "_MATCH_BLOCK", block)
    assert partners(rows).tolist() == want
    bad = rows.copy()
    bad[200] = (0, 1) * 7
    bad[201:] = 1
    with pytest.raises(DomainError, match=re.escape(f"input {(0, 1) * 7} is not a balanced")):
        partners(bad)


def test_match_index_and_its_errors():
    bits = (1, 1, 0, 1, 0, 0)
    assert match_index(bits, 1) == 6
    assert match_index(bits, 6) == 1
    assert match_index(bits, 2) == 3
    with pytest.raises(DomainError):
        match_index((1, 1, 0), 1)
    with pytest.raises(RangeError):
        match_index(bits, 0)
    with pytest.raises(RangeError):
        match_index(bits, 7)
    with pytest.raises(DomainError, match="0/1"):
        match_index((1, 2, 0, 0, 0, 0), 1)
    with pytest.raises(RangeError):
        match_index((), 1)


def test_catalan_count_matches_enumeration():
    assert [catalan_count(n) for n in (2, 4, 6, 8)] == [1, 2, 5, 14]
    for n in range(0, 14, 2):
        strings = enumerate_bal(n)
        assert len(strings) == catalan_count(n)
        assert all(is_balanced(s) for s in strings)
        assert strings == sorted(strings)
        assert len(set(strings)) == len(strings)


def test_unmatched_ends_of_a_window_agree_with_the_full_matching():
    for n in range(2, 15, 2):
        rows = balanced_rows(n)
        matches = match_rows(rows)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                opens, closes = unmatched_ends(rows[:, i - 1:j])
                assert (opens == (matches[:, i - 1] > j)).all()
                assert (closes == (matches[:, j - 1] < i)).all()


def test_unmatched_ends_of_a_window_wider_than_an_int8_depth():
    rng = np.random.default_rng(7)
    n, i, j = 300, 101, 240
    rows = np.array([_random_balanced(rng, n) for _ in range(40)] + [_nested(n)], dtype=np.int8)
    matches = match_rows(rows)
    opens, closes = unmatched_ends(rows[:, i - 1:j])
    assert (opens == (matches[:, i - 1] > j)).all()
    assert (closes == (matches[:, j - 1] < i)).all()
    # in the nested row, the open at 101 pairs at 200 inside the window, the close at 240 at 61
    assert not opens[-1] and closes[-1]


def test_balanced_domain_rows_equal_the_recursive_enumeration():
    for n in range(0, 21, 2):
        domain, want = domain_of(DOMAIN_BAL, n), balanced_rows(n)
        assert domain.size == catalan_count(n) == len(want)
        # chunks of uneven sizes, an empty one among them, cover the domain in order
        cuts = sorted({0, domain.size, *range(0, domain.size, 37 + n), domain.size // 3})
        blocks = [domain.rows(a, b) for a, b in zip(cuts, cuts[1:])]
        blocks.append(domain.rows(domain.size, domain.size))
        for block in blocks:
            assert block.dtype == np.int8 and block.shape[1] == n
        assert np.array_equal(np.concatenate(blocks), want)
    for bad in (3, -2):
        with pytest.raises(ParameterError):
            domain_of(DOMAIN_BAL, bad)


def test_balanced_domain_conventions():
    domain = domain_of(DOMAIN_BAL, 0)
    assert domain.size == 1 and domain.rows(0, 1).shape == (1, 0)
    assert domain_of(DOMAIN_BAL, 8).rows(0, 1).tolist() == [[1, 0] * 4]
    assert domain_of(DOMAIN_BAL, 8).rows(13, 14).tolist() == [[1] * 4 + [0] * 4]
    with pytest.raises(ParameterError):
        catalan_count(-2)
    for start, stop in ((-1, 2), (3, 2), (0, 15)):
        with pytest.raises(RangeError):
            domain_of(DOMAIN_BAL, 8).rows(start, stop)


@pytest.mark.parametrize("n", [40, 70, 72, 200])
def test_random_ranks_give_balanced_strings_in_increasing_order(n):
    """Past n = 70 the domain leaves int64, and ranks that fit int64 still unrank."""
    domain = domain_of(DOMAIN_BAL, n)
    top = min(domain.size, 2 ** 63 - 1)
    ranks = np.unique(np.random.default_rng(n).integers(0, top, 1000, dtype=np.int64))
    ranks = [0, *ranks.tolist(), top - 1]
    rows = np.concatenate([domain.rows(r, r + 1) for r in ranks])
    assert balanced(rows).all() and all(map(is_balanced, rows.tolist()))
    assert [reference.balanced_rank(x) for x in rows.tolist()] == ranks
    keys = [tuple(x) for x in rows.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_encoding_the_balanced_domain_peaks_within_a_chunk_of_what_it_holds():
    scheme = build_bracket_table(24)
    tracemalloc.start()
    try:
        bits, cells = scheme.encoded()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (bits.nbytes + cells.nbytes) < 2 << 20


def _brute_open(d: int) -> Fraction:
    hits = 0
    for x in range(2 ** d):
        bits = tuple((x >> k) & 1 for k in range(d))
        if bits[0] == 1 and scan_matches(bits)[0] is None:
            hits += 1
    return Fraction(hits, 2 ** d)


def _brute_close(d: int) -> Fraction:
    hits = 0
    for x in range(2 ** d):
        bits = tuple((x >> k) & 1 for k in range(d))
        if bits[-1] == 0 and scan_matches(bits)[-1] is None:
            hits += 1
    return Fraction(hits, 2 ** d)


def test_unmatched_probabilities_match_brute_force():
    for d in range(1, 13):
        assert unmatched_open_prob(d) == _brute_open(d)
        assert unmatched_close_prob(d) == _brute_close(d)


def test_unmatched_frozen_values():
    assert unmatched_open_prob(1) == Fraction(1, 2)
    assert unmatched_open_prob(3) == Fraction(1, 4)
    assert unmatched_open_prob(4) == Fraction(3, 16)
    with pytest.raises(ParameterError):
        unmatched_open_prob(0)


def test_closed_form_matches_the_walks():
    opens, closes = reference.unmatched_open_probs(400), reference.unmatched_close_probs(400)
    for d in range(1, 401):
        assert unmatched_open_prob(d) == opens[d - 1]
        assert unmatched_close_prob(d) == closes[d - 1]
    with pytest.raises(ParameterError):
        unmatched_close_prob(0)


def test_open_equals_close_by_reversal():
    for d in range(1, 15):
        assert unmatched_open_prob(d) == unmatched_close_prob(d)


def test_walk_identity_and_sqrt_floor():
    minimum = None
    for d in range(1, 21):
        p = unmatched_open_prob(d)
        assert p == Fraction(math.comb(d - 1, (d - 1) // 2), 2 ** d)
        if d >= 4:
            val = math.sqrt(d) * float(p)
            minimum = val if minimum is None else min(minimum, val)
    assert minimum == pytest.approx(0.375, abs=1e-12)
    assert 4 * unmatched_open_prob(4) ** 2 >= Fraction(9, 64)
