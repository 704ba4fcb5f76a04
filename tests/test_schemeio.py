"""Scheme file format: write, read, and byte-identical round trips."""

import contextlib
import hashlib
import io
import os
import tempfile
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cellprobe import (
    CellProbeError,
    ParameterError,
    ConsistencyError,
    DomainError,
    Scheme,
    TableDecoder,
    TableEncoder,
    load_scheme,
    read_scheme,
    save_scheme,
    write_scheme,
)
from cellprobe.brackets import enumerate_bal
from cellprobe.cli import main
from cellprobe.core import DOMAIN_ALL, DOMAIN_BAL, KIND_MATCH, KIND_SUM
from cellprobe.schemes import build_bracket_table, build_precomputed_sums, build_two_level_rank
from reference import domain_inputs, oracle_all


def _table_scheme() -> Scheme:
    n = 2
    inputs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    enc = TableEncoder({x: (x[0], x[0] + x[1]) for x in inputs})
    decs = (TableDecoder({(v,): v for v in range(3)}),
            TableDecoder({(v,): v for v in range(3)}))
    return Scheme(n=n, u=2, cell_alphabet=3, domain=DOMAIN_ALL, kind=KIND_SUM,
                  probes=((0,), (1,)), encoder=enc, decoders=decs)


def test_builtin_round_trip_is_byte_identical():
    sch = build_two_level_rank(8, 2, 4, 9)
    text = write_scheme(sch)
    again = write_scheme(read_scheme(text))
    assert again == text


def test_builtin_round_trip_preserves_equality():
    sch = build_precomputed_sums(6)
    assert read_scheme(write_scheme(sch)) == sch


def test_table_round_trip_is_byte_identical():
    sch = _table_scheme()
    text = write_scheme(sch)
    back = read_scheme(text)
    assert write_scheme(back) == text
    assert back == sch


def test_bracket_scheme_round_trip():
    sch = build_bracket_table(6)
    back = read_scheme(write_scheme(sch))
    assert back == sch
    for x in domain_inputs(sch):
        assert oracle_all(back, x) == oracle_all(sch, x)
        assert [back.answer(x, i) for i in range(1, 7)] == [sch.answer(x, i) for i in range(1, 7)]


def test_save_and_load(tmp_path):
    sch = build_precomputed_sums(4)
    path = tmp_path / "p4.scm"
    save_scheme(sch, path)
    assert load_scheme(path) == sch


def test_read_scheme_rejects_header_mismatch():
    sch = build_precomputed_sums(4)
    text = write_scheme(sch).replace("q: 1", "q: 2")
    with pytest.raises(ConsistencyError):
        read_scheme(text)


def test_read_scheme_rejects_garbage():
    with pytest.raises(ParameterError):
        read_scheme("not a scheme file\n")


def test_empty_probe_line_round_trips():
    n = 1
    enc = TableEncoder({(0,): (0,), (1,): (1,)})
    dec = TableDecoder({(): 0}, default=0)
    sch = Scheme(n=n, u=1, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                 probes=((),), encoder=enc, decoders=(dec,))
    text = write_scheme(sch)
    assert "  -" in text
    assert write_scheme(read_scheme(text)) == text


def test_decoder_answers_past_int64_are_refused_when_read():
    # decoders answer in int64 columns, so such an answer could not be given
    text = write_scheme(_table_scheme())
    assert "    2 -> 2" in text
    for bad in ("9223372036854775808", "-9223372036854775809"):
        with pytest.raises(ParameterError, match="int64|2\\^63"):
            read_scheme(text.replace("    2 -> 2", f"    2 -> {bad}", 1))
    with pytest.raises(ParameterError):
        TableDecoder({(0,): 0}, default=2 ** 63)


def _mirror16() -> Scheme:
    """The 3.5 MB mirror table the goldens and the chain16 benchmark load."""
    return Scheme(n=16, u=16, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                  probes=tuple((i,) for i in range(16)),
                  encoder=TableEncoder({x: x for x in product((0, 1), repeat=16)}),
                  decoders=(TableDecoder({(0,): 0, (1,): 1}),) * 16)


def _bracket_table6() -> Scheme:
    """``bracket_table(6)`` with its encoder spelled out as a table."""
    base = build_bracket_table(6)
    return Scheme(n=6, u=base.u, cell_alphabet=base.cell_alphabet, domain=DOMAIN_BAL,
                  kind=KIND_MATCH, probes=base.probes,
                  encoder=TableEncoder({x: base.encode(x) for x in domain_inputs(base)}),
                  decoders=base.decoders)


def _no_cells2() -> Scheme:
    """u = 0: every table row and probe set is written as ``-``."""
    return Scheme(n=2, u=0, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                  probes=((), ()),
                  encoder=TableEncoder({x: () for x in product((0, 1), repeat=2)}),
                  decoders=(TableDecoder({(): 0}), TableDecoder({(): 1}, default=2)))


# sha256 of write_scheme's output, recorded before table schemes were held as matrices
WRITE_DIGESTS = {
    "mirror16": (_mirror16, "9725be6330806045e02949258345e08e29d53c7989c6ef15742bd1a061a4e22f"),
    "bracket_table6": (_bracket_table6, "3b1d330b91a092d7020168dfa9f7c1d5374bcbb7c2c2147de267e8283292ec68"),
    "no_cells2": (_no_cells2, "03467dd738c7f66a664d6c12ee1e5b46fc6a78a460d1933d2e93b939d99759bd"),
}


@pytest.mark.parametrize("name", sorted(WRITE_DIGESTS))
def test_written_table_schemes_keep_their_bytes(name):
    build, digest = WRITE_DIGESTS[name]
    text = write_scheme(build())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert write_scheme(read_scheme(text)) == text


@st.composite
def table_schemes(draw, max_n=6):
    """Random table schemes: n <= max_n, u <= 4, either domain, decoder defaults.

    Returns the scheme and the dict its encoder was built from.  Tables may
    miss inputs, have rows one value wider than u, or hold one value just
    outside the alphabet, so encoding can fail in each of its ways.
    """
    domain = draw(st.sampled_from([DOMAIN_ALL, DOMAIN_BAL]))
    if domain == DOMAIN_ALL:
        n, kind = draw(st.integers(1, max_n)), KIND_SUM
        xs = list(product((0, 1), repeat=n))
    else:
        n = draw(st.sampled_from([m for m in (2, 4, 6) if m <= max_n]))
        kind = draw(st.sampled_from([KIND_SUM, KIND_MATCH]))
        xs = list(enumerate_bal(n))
    u = draw(st.integers(0, 4))
    alphabet = draw(st.integers(2, 12))
    width = u + draw(st.sampled_from([0, 0, 0, 1]))
    values = draw(st.lists(st.integers(0, alphabet - 1),
                           min_size=len(xs) * width, max_size=len(xs) * width))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([-1, alphabet]))
    missing = draw(st.sets(st.sampled_from(xs), max_size=2)) if draw(st.booleans()) else set()
    table = {x: tuple(values[k * width:(k + 1) * width])
             for k, x in enumerate(xs) if x not in missing}
    probes, decoders = [], []
    for _ in range(n):
        probe = tuple(sorted(draw(st.sets(st.integers(0, u - 1), max_size=u)))) if u else ()
        keys = st.tuples(*[st.integers(0, alphabet - 1)] * len(probe))
        entries = draw(st.dictionaries(keys, st.integers(-3, 20), max_size=4))
        probes.append(probe)
        decoders.append(TableDecoder(entries, default=draw(st.integers(-2, 3))))
    scheme = Scheme(n=n, u=u, cell_alphabet=alphabet, domain=domain, kind=kind,
                    probes=tuple(probes), encoder=TableEncoder(table),
                    decoders=tuple(decoders))
    return scheme, table


@settings(max_examples=150, deadline=None)
@given(table_schemes())
def test_random_table_schemes_round_trip_byte_stable(drawn):
    scheme, _ = drawn
    text = write_scheme(scheme)
    back = read_scheme(text)
    assert write_scheme(back) == text
    assert back == scheme


def _reference_rows(scheme: Scheme, table: dict) -> list:
    """Per-input reference: look each input up in the dict, checked as ``Scheme.encode`` checks."""
    rows = []
    for x in domain_inputs(scheme):
        if x not in table:
            raise DomainError(f"input {x} not present in the encoder table")
        cells = table[x]
        if len(cells) != scheme.u:
            raise ConsistencyError(f"encoder produced {len(cells)} cells, scheme has {scheme.u}")
        m = scheme.cell_alphabet
        if cells and not (0 <= min(cells) and max(cells) < m):
            raise ConsistencyError(f"encoder output {cells} leaves the cell alphabet [0, {m})")
        rows.append((x, cells))
    return rows


def _outcome(fn):
    try:
        return fn()
    except CellProbeError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(table_schemes())
def test_encoded_matches_a_per_input_loop(drawn):
    scheme, table = drawn

    def encoded_rows(s):
        bits, cells = s.encoded()
        return list(zip(map(tuple, bits.tolist()), map(tuple, cells.tolist())))

    expected = _outcome(lambda: _reference_rows(scheme, table))
    assert _outcome(lambda: encoded_rows(scheme)) == expected
    assert _outcome(lambda: encoded_rows(read_scheme(write_scheme(scheme)))) == expected


@st.composite
def scheme_texts(draw):
    """Arbitrary text, or a small table scheme file with a few characters edited."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    scheme, _ = draw(table_schemes(max_n=3))
    text = write_scheme(scheme)
    pieces = st.sampled_from(list("0123456789-> \n()x:") + ["99999999999999999999", "\t", "é"])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.one_of(st.just(""), pieces)) + text[at + cut:]
    return text


@settings(max_examples=300, deadline=None)
@given(scheme_texts())
def test_any_text_reads_as_a_scheme_or_a_usage_error(text):
    try:
        scheme = read_scheme(text)
    except CellProbeError:
        return
    assert isinstance(scheme, Scheme)
    if scheme.domain_size() <= 4096:
        try:
            scheme.encoded()
        except CellProbeError:
            pass


@st.composite
def distribution_texts(draw):
    """Arbitrary text, or a small distribution file with a few characters edited."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    arity = draw(st.integers(1, 3))
    outcomes = draw(st.lists(st.tuples(*[st.integers(0, 2)] * arity), min_size=1, max_size=8,
                             unique=True))
    weights = [draw(st.integers(1, 9)) for _ in outcomes]
    text = "".join(f"{','.join(map(str, o))} {Fraction(w, sum(weights))}\n"
                   for o, w in zip(outcomes, weights))
    # the long pieces lie just past the int64 range, or far past it
    pieces = st.sampled_from(list("0123456789-,/ \n#.") + [
        "\t", "é", "9223372036854775808", "-9223372036854775809", "18446744073709551616",
        "99999999999999999999"])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.one_of(st.just(""), pieces)) + text[at + cut:]
    return text


# --p 0 keeps the threshold search at t = 0 whatever the outcome values
_DIST_COMMANDS = (
    ["entropy", "--target", "0", "--given", "1"],
    ["entropy"],
    ["goodset", "cells", "--q", "2", "--eta", "1/4", "--alphabet", "3"],
    ["entropy-sum", "--p", "0", "--i", "1", "--j", "2", "--c", "1"],
)


@settings(max_examples=300, deadline=None)
@given(distribution_texts())
def test_any_text_reads_as_a_distribution_or_a_usage_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.dist")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in _DIST_COMMANDS:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = main([*command, "--dist", path])
            except CellProbeError:
                continue
            assert code in (0, 1, 2), out.getvalue()
