"""Model basics: bit handling, schemes, verification, restriction."""

import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference

from cellprobe import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    ConsistencyError,
    DomainError,
    KIND_MATCH,
    KIND_SUM,
    ParameterError,
    RangeError,
    Scheme,
    SizeError,
    TableDecoder,
    TableEncoder,
    bits_to_str,
    match_rows,
    parse_bits,
    prefix_sums,
    redundancy,
    restrict_scheme,
    validate_bits,
    verify_scheme,
)
from cellprobe.core import RestrictedScheme
from cellprobe.schemes import (
    build_bracket_table,
    build_precomputed_sums,
    build_raw_identity,
    build_two_level_rank,
)
from reference import loop_verify, oracle_all, prefix_sum, prefix_sum_all


def _read_single(values):
    return values[:, 0]


def test_prefix_sum_basics():
    x = (1, 0, 1, 1)
    assert prefix_sum(x, 1) == 1
    assert prefix_sum(x, 4) == 3
    assert prefix_sum_all(x) == (1, 1, 2, 3)
    assert prefix_sums(x) == (1, 1, 2, 3)
    assert prefix_sum_all is prefix_sums


def test_parse_bits_accepts_digits_and_bracket_chars():
    assert parse_bits("0110") == (0, 1, 1, 0)
    assert parse_bits("(())") == (1, 1, 0, 0)
    assert bits_to_str((1, 0)) == "10"
    with pytest.raises(DomainError):
        parse_bits("012")


def test_validate_bits_rejects_non_binary():
    assert validate_bits([1, 0]) == (1, 0)
    with pytest.raises(DomainError):
        validate_bits((2,))


def test_table_decoder_default_for_unseen_rows():
    dec = TableDecoder({(1, 2): 7})
    assert dec(np.array([[1, 2], [0, 0], [1, 2]])).tolist() == [7, 0, 7]


def test_scheme_normalizes_probes_and_validates():
    enc = TableEncoder({(0,): (0,), (1,): (1,)})
    sch = Scheme(n=1, u=1, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                 probes=((0, 0),), encoder=enc, decoders=(_read_single,))
    assert sch.probes == ((0,),)
    assert sch.q == 1
    with pytest.raises(ParameterError):
        Scheme(n=1, u=1, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
               probes=((3,),), encoder=enc, decoders=(_read_single,))
    # Match queries need the balanced domain, and that domain needs even n
    with pytest.raises(ParameterError):
        Scheme(n=1, u=1, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_MATCH,
               probes=((0,),), encoder=enc, decoders=(_read_single,))
    with pytest.raises(ParameterError):
        Scheme(n=3, u=1, cell_alphabet=2, domain=DOMAIN_BAL, kind=KIND_MATCH,
               probes=((0,),) * 3, encoder=enc, decoders=(_read_single,) * 3)


def test_answer_query_domain_and_range_errors():
    sch = build_precomputed_sums(4)
    assert sch.answer((1, 0, 1, 0), 3) == 2
    with pytest.raises(DomainError):
        sch.answer((1, 0), 1)
    with pytest.raises(RangeError):
        sch.answer((1, 0, 1, 0), 5)
    with pytest.raises(RangeError):
        sch.answer((1, 0, 1, 0), 0)


def test_redundancy_counts_fractional_bits():
    sch = build_precomputed_sums(8)
    expect = 8 * math.log2(9) - 8
    assert redundancy(sch) == pytest.approx(expect, abs=1e-9)


def test_verify_scheme_passes_reference():
    rep = verify_scheme(build_precomputed_sums(6))
    assert rep.ok and rep.status == "pass"
    assert rep.inputs_checked == 64
    assert rep.checked == 64 * 6
    assert rep.failures == 0 and rep.counterexample is None


def test_verify_scheme_reports_lex_first_counterexample():
    n = 3
    table = {}
    for x in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        table[x] = prefix_sum_all(x)
    enc = TableEncoder(table)
    bad = Scheme(n=n, u=n, cell_alphabet=n + 1, domain=DOMAIN_ALL, kind=KIND_SUM,
                 probes=tuple((i,) for i in range(n)), encoder=enc,
                 decoders=(_read_single, _read_single, lambda v: v[:, 0] + 1))
    rep = verify_scheme(bad)
    assert not rep.ok and rep.status == "fail"
    ce = rep.counterexample
    assert ce.x == (0, 0, 0) and ce.i == 3
    assert ce.got == 1 and ce.expected == 0


def test_verify_scheme_honors_max_inputs():
    rep = verify_scheme(build_precomputed_sums(6), max_inputs=10)
    assert rep.inputs_checked == 10
    # only the first inputs are encoded: the table stops after them
    first = [x for x, _ in zip(product((0, 1), repeat=6), range(10))]
    partial = Scheme(n=6, u=6, cell_alphabet=7, domain=DOMAIN_ALL, kind=KIND_SUM,
                     probes=tuple((i,) for i in range(6)),
                     encoder=TableEncoder({x: prefix_sum_all(x) for x in first}),
                     decoders=(_read_single,) * 6)
    assert verify_scheme(partial, max_inputs=10).ok
    with pytest.raises(DomainError):
        verify_scheme(partial)


@pytest.mark.parametrize("build", [
    lambda: build_two_level_rank(8, 2, 4, 9),
    lambda: build_bracket_table(10),
])
def test_verify_scheme_agrees_with_the_per_query_loop(build):
    base = build()
    # corrupt two decoders so that some, not all, answers go wrong
    decoders = list(base.decoders)
    decoders[2] = lambda v, d=base.decoders[2]: d(v) + (v[:, 0] % 3 == 1)
    decoders[-1] = lambda v, d=base.decoders[-1]: d(v) ^ (v.sum(axis=1) % 2)
    bad = Scheme(n=base.n, u=base.u, cell_alphabet=base.cell_alphabet, domain=base.domain,
                 kind=base.kind, probes=base.probes, encoder=base.encoder,
                 decoders=tuple(decoders))
    rep = verify_scheme(bad)
    checked, failures, first = loop_verify(bad)
    assert (rep.checked, rep.failures) == (checked, failures)
    assert 0 < failures < checked
    ce = rep.counterexample
    assert (ce.x, ce.i, ce.got, ce.expected) == first


@pytest.mark.parametrize("wrong", [
    {0: lambda v: v[:, 0] == 1, 3: lambda v: v[:, 0] >= 0},                            # query 4 fails first
    {0: lambda v: v[:, 0] == 1, 1: lambda v: v[:, 0] >= 0, 3: lambda v: v[:, 0] >= 0},  # tie: query 2 wins
])
def test_verify_counterexample_is_first_input_then_first_query(wrong):
    base = build_precomputed_sums(4)
    decoders = tuple(
        (lambda v, d=d, bad=wrong[k]: d(v) + bad(v).astype(np.int64)) if k in wrong else d
        for k, d in enumerate(base.decoders))
    bad = Scheme(n=4, u=base.u, cell_alphabet=base.cell_alphabet + 1, domain=base.domain,
                 kind=base.kind, probes=base.probes, encoder=base.encoder, decoders=decoders)
    ce = verify_scheme(bad).counterexample
    assert (ce.x, ce.i, ce.got, ce.expected) == loop_verify(bad)[2]


def test_most_likely_cell_value_is_modal_and_ties_break_low():
    sch = build_two_level_rank(16, 4, 16, 17)
    # the single superblock cell stores 0 for every input
    rs = restrict_scheme(sch, (8,))
    assert rs.fixed_values == (0,)
    assert len(rs.rows) == 2 ** 16
    # the first raw cell is uniform over 16 values, so the tie breaks to 0
    rs = restrict_scheme(sch, (0,))
    assert rs.fixed_values == (0,)
    assert len(rs.rows) == 2 ** 12


def test_restriction_preserves_answers_exactly():
    sch = build_two_level_rank(8, 2, 4, 9)
    rs = restrict_scheme(sch, (1, 4))
    assert rs.preserves_answers()
    # Enc' is Enc on the kept cells, input by input
    assert rs.cells().tolist() == [[sch.encode(x)[c] for c in rs.kept_cells]
                                   for x in map(tuple, rs.surviving_bits().tolist())]
    assert rs.u_prime == sch.u - 2
    m = sch.cell_alphabet
    assert len(rs.rows) * m ** 2 >= sch.domain_size()
    # and the restricted scheme answers each surviving input as the scheme does
    for x in map(tuple, rs.surviving_bits()[:40].tolist()):
        assert [rs.answer(x, i) for i in range(1, 9)] == [sch.answer(x, i) for i in range(1, 9)]


def test_the_preservation_check_catches_a_misplaced_fixed_value(monkeypatch):
    sch = build_two_level_rank(8, 2, 4, 9)
    rs = restrict_scheme(sch, (1, 4))
    assert rs.preserves_answers()

    def misplaced(self, i, values, _assemble=RestrictedScheme.probe_values):
        # a probe holding a fixed cell gets each value one slot to the right
        merged = _assemble(self, i, values)
        fixed = set(self.fixed_cells) & set(self.base.probes[i - 1])
        return np.roll(merged, 1, axis=1) if fixed else merged

    monkeypatch.setattr(RestrictedScheme, "probe_values", misplaced)
    assert not rs.preserves_answers()


def test_oracle_all_matches_per_query_answers():
    sch = build_precomputed_sums(5)
    x = (1, 1, 0, 1, 0)
    assert oracle_all(sch, x) == tuple(sch.answer(x, i) for i in range(1, 6))
    bal = build_bracket_table(6)
    bits = bal.encoded()[0]
    want = [list(oracle_all(bal, x)) for x in map(tuple, bits.tolist())]
    assert match_rows(bits).tolist() == want


@pytest.mark.parametrize("build", [lambda: build_precomputed_sums(40),
                                   lambda: build_raw_identity(1100, 2)],
                         ids=["sum-n40", "raw-identity-n1100"])
def test_domain_past_the_encoding_budget_is_refused_before_allocating(build):
    scheme = build()
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="--max-inputs"):
            scheme.encoded()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a short prefix is still encoded and checked
    rep = verify_scheme(scheme, max_inputs=5)
    assert rep.ok and rep.inputs_checked == 5


def test_callable_encoders_receive_bits_matrices():
    seen = []

    def encode(bits):
        seen.append((bits.dtype, bits.shape))
        return bits.sum(axis=1, keepdims=True)

    sch = Scheme(n=3, u=1, cell_alphabet=4, domain=DOMAIN_ALL, kind=KIND_SUM,
                 probes=((0,),) * 3, encoder=encode, decoders=(_read_single,) * 3)
    assert sch.encoded()[1][:, 0].tolist() == [sum(x) for x in product((0, 1), repeat=3)]
    # the whole domain in one k x n int8 block
    assert seen == [(np.int8, (8, 3))]


@pytest.mark.parametrize("decoder", [
    lambda v: v[0],                      # written for one input: gives the first row
    lambda v: v[:-1, 0],                 # one answer short
    lambda v: v[:, 0] / 2,               # not integers
    lambda v: v[:, 0] > 0,               # booleans are not answers either
], ids=["per-input", "short", "float", "bool"])
def test_a_decoder_must_answer_every_row_with_an_integer(decoder):
    base = build_precomputed_sums(4)
    bad = Scheme(n=4, u=base.u, cell_alphabet=base.cell_alphabet, domain=base.domain,
                 kind=base.kind, probes=base.probes, encoder=base.encoder,
                 decoders=base.decoders[:2] + (decoder,) + base.decoders[3:])
    with pytest.raises(ConsistencyError, match="query 3"):
        verify_scheme(bad)
    with pytest.raises(ConsistencyError, match="query 3"):
        restrict_scheme(bad, (0,)).preserves_answers()


def test_verify_refuses_a_max_inputs_below_one():
    for bad in (0, -5):
        with pytest.raises(ParameterError, match="max_inputs"):
            verify_scheme(build_precomputed_sums(4), max_inputs=bad)
    assert verify_scheme(build_precomputed_sums(4), max_inputs=1).inputs_checked == 1


# values that fold into small keys, and values at both int64 ends, whose key
# space passes int64 and sends the decoder to the grouping sort
_DECODER_VALUES = st.one_of(st.integers(-3, 3),
                            st.sampled_from([-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 2, 2 ** 63 - 1]))
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def _decoder_cases(draw):
    width = draw(st.integers(0, 4))
    pool = draw(st.lists(_DECODER_VALUES, min_size=1, max_size=5, unique=True))
    row = st.tuples(*[st.sampled_from(pool)] * width)
    table = draw(st.dictionaries(row, _INT64, max_size=8))
    # rows are drawn from the table's keys and from the pool, so some miss the table
    keys = st.sampled_from(sorted(table)) if table else row
    rows = draw(st.lists(st.one_of(keys, row), max_size=40))
    values = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return TableDecoder(table, draw(_INT64)), values


@settings(max_examples=300, deadline=None)
@given(_decoder_cases())
@example((TableDecoder({(): 5}), np.zeros((3, 0), dtype=np.int64)))
@example((TableDecoder({(1, 2): 7}, default=-1), np.zeros((0, 2), dtype=np.int64)))
@example((TableDecoder({(-2 ** 63 + 1,): 4}), np.array([[-2 ** 63], [-2 ** 63 + 1]])))
@example((TableDecoder({(-2 ** 63, 2 ** 63 - 1): 1}),
          np.array([[-2 ** 63, 2 ** 63 - 1], [0, 0], [-2 ** 63, 2 ** 63 - 1]])))
def test_table_decoder_agrees_with_the_grouping_reference(case):
    decoder, values = case
    got = decoder(values)
    assert got.dtype == np.int64
    assert got.tolist() == reference.table_decode(decoder, values).tolist()


def test_table_decoder_counts_keys_while_the_key_space_is_small_beside_the_rows():
    rng = np.random.default_rng(5)
    # 50^3 keys: past 2^16, within four per row of 40,000 rows
    values = rng.integers(0, 50, size=(40_000, 3))
    decoder = TableDecoder({tuple(r): int(a) for r, a in zip(values[:500].tolist(),
                                                            rng.integers(-9, 9, 500))}, 3)
    assert decoder(values).tolist() == reference.table_decode(decoder, values).tolist()


def _encode_by_dict(table: dict, bits: np.ndarray) -> list:
    for x in map(tuple, bits.tolist()):
        if x not in table:
            raise DomainError(f"input {x} not present in the encoder table")
    return [list(table[x]) for x in map(tuple, bits.tolist())]


@st.composite
def _encoder_cases(draw):
    n = draw(st.integers(1, 6))
    domain = list(product((0, 1), repeat=n))
    # the whole domain, or all of it but one input, or a random part
    kind = draw(st.sampled_from(["full", "missing one", "part"]))
    if kind == "full":
        inputs = domain
    elif kind == "missing one":
        gone = draw(st.sampled_from(domain))
        inputs = [x for x in domain if x != gone]
    else:
        inputs = draw(st.lists(st.sampled_from(domain), unique=True))
    u = draw(st.integers(0, 3))
    table = {x: tuple(draw(st.lists(st.integers(0, 9), min_size=u, max_size=u))) for x in inputs}
    # a run of the domain in order, as Scheme.encoded() asks, or any rows at all
    if draw(st.booleans()):
        start = draw(st.integers(0, len(domain)))
        rows = domain[start:draw(st.integers(start, len(domain)))]
    else:
        rows = draw(st.lists(st.sampled_from(domain), max_size=20))
    return table, np.array(rows, dtype=np.int8).reshape(len(rows), n)


@settings(max_examples=300, deadline=None)
@given(_encoder_cases())
def test_table_encoder_agrees_with_a_lookup_per_row(case):
    table, bits = case
    encoder = TableEncoder(table)
    try:
        expected = _encode_by_dict(table, bits)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            encoder(bits)
        assert str(got.value) == str(err)
    else:
        assert encoder(bits).tolist() == expected


def test_table_encoder_reads_the_domain_as_runs_of_its_own_rows(monkeypatch):
    import cellprobe.core

    n = 14
    domain = list(product((0, 1), repeat=n))
    table = {x: (sum(x), x[0]) for x in domain}
    packed = []

    def row_keys(bits, _kernel=cellprobe.core._row_keys):
        packed.append(len(bits))
        return _kernel(bits)
    monkeypatch.setattr(cellprobe.core, "_row_keys", row_keys)

    def scheme(encoder, domain_kind=DOMAIN_ALL):
        return Scheme(n=n, u=2, cell_alphabet=n + 1, domain=domain_kind, kind=KIND_SUM,
                      probes=((0,),) * n, encoder=encoder, decoders=(_read_single,) * n)

    # a full table: one key per 4,096-row block, no per-row search
    full = TableEncoder(table)
    packed.clear()
    _, cells = scheme(full).encoded()
    assert cells.tolist() == [list(table[x]) for x in domain]
    assert packed == [1] * (len(domain) // 4096)
    # extra rows: the balanced strings are no run of a table over every string
    packed.clear()
    bits, cells = scheme(full, DOMAIN_BAL).encoded()
    assert cells.tolist() == [list(table[x]) for x in map(tuple, bits.tolist())]
    assert max(packed) > 1
    # one input missing: the same refusal, naming it
    gone = domain[5000]
    with pytest.raises(DomainError, match=re.escape(f"input {gone} not present in the encoder table")):
        scheme(TableEncoder({x: c for x, c in table.items() if x != gone})).encoded()
