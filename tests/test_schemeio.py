"""Scheme file format: write, read, and byte-identical round trips."""

import contextlib
import functools
import hashlib
import io
import os
import re
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from cellprobe import schemeio
from cellprobe.cli import main
from cellprobe.core import DOMAIN_ALL, DOMAIN_BAL, KIND_MATCH, KIND_SUM
from cellprobe.schemes import build_bracket_table, build_precomputed_sums, build_two_level_rank
import reference
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


@contextlib.contextmanager
def _stride_reads():
    """What each ``_stride_rows`` call in the block returned: None where the token reader
    read the table instead."""
    got = []

    def spy(*args, _read=schemeio._stride_rows):
        got.append(_read(*args))
        return got[-1]

    with mock.patch.object(schemeio, "_stride_rows", spy):
        yield got


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
    with _stride_reads() as reads:
        assert write_scheme(read_scheme(text)) == text
    # one byte layout per row, but u = 0 rows are a '-', which the stride reader leaves
    assert [read is not None for read in reads] == [name != "no_cells2"]


@st.composite
def numeral_tables(draw):
    """Table schemes whose columns mix digit counts and signs, up to both ends of int64;
    u may be 0 and a table may hold one row."""
    n, u = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    inputs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12,
                           unique=True))
    value = st.one_of(st.integers(0, 9), st.integers(-999, 99_999),
                      st.sampled_from([-2 ** 63, 2 ** 63 - 1, -1, 255, 256, 2 ** 32]),
                      st.integers(-2 ** 63, 2 ** 63 - 1))
    table = {x: tuple(draw(st.lists(value, min_size=u, max_size=u))) for x in inputs}
    return Scheme(n=n, u=u, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                  probes=((),) * n, encoder=TableEncoder(table),
                  decoders=(TableDecoder({}),) * n)


@settings(max_examples=200, deadline=None)
@given(numeral_tables())
def test_the_writer_matches_the_template_writer(scheme):
    text = write_scheme(scheme)
    assert text == reference.write_scheme(scheme)
    assert read_scheme(text) == scheme


def _bracket_table20() -> Scheme:
    """``bracket_table(20)`` with its 16,796 rows held as a table: values 0 to 20, so its
    columns mix one and two digits."""
    base = build_bracket_table(20)
    return Scheme(n=20, u=20, cell_alphabet=21, domain=DOMAIN_BAL, kind=KIND_MATCH,
                  probes=base.probes, encoder=TableEncoder.from_rows(*base.encoded()),
                  decoders=base.decoders)


@st.composite
def padded_tables(draw):
    """Table schemes with u >= 1 and every cell in [0, 10^18), columns mixing digit counts."""
    n, u = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    inputs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12,
                           unique=True))
    value = st.one_of(st.integers(0, 9), st.integers(0, 99_999),
                      st.sampled_from([10, 255, 256, 10 ** 17, 10 ** 18 - 1]),
                      st.integers(0, 10 ** 18 - 1))
    table = {x: tuple(draw(st.lists(value, min_size=u, max_size=u))) for x in inputs}
    return Scheme(n=n, u=u, cell_alphabet=2, domain=DOMAIN_ALL, kind=KIND_SUM,
                  probes=((),) * n, encoder=TableEncoder(table),
                  decoders=(TableDecoder({}),) * n)


@settings(max_examples=200, deadline=None)
@given(padded_tables())
@example(_bracket_table20())
def test_every_written_table_with_cells_under_10_18_is_read_by_stride(scheme):
    text = write_scheme(scheme)
    with _stride_reads() as reads:
        back = read_scheme(text)
    assert reads[0] is not None
    assert write_scheme(back) == text
    assert back.encoder == scheme.encoder


@functools.lru_cache(maxsize=None)
def _written(name: str) -> str:
    return write_scheme({"mirror16": _mirror16, "bracket_table20": _bracket_table20}[name]())


# (table, edit, the edited row from the row) at the edges of the stride reader's 4,096-row
# blocks; bracket_table20's value fields are two bytes, the first a space below 10
_EDGE_EDITS = [
    ("mirror16", "bit to 2", lambda row: row[:3] + "2" + row[4:]),
    ("mirror16", "digit to x", lambda row: row[:-1] + "x"),
    ("mirror16", "short input", lambda row: row[:2] + row[3:]),
    ("bracket_table20", "space after a digit", lambda row: row[:26] + "1 " + row[28:]),
    ("bracket_table20", "value changed", lambda row: row[:-2] + "19"),
]


@pytest.mark.parametrize("row", [4095, 4096, 4097, -1], ids=["4095", "4096", "4097", "last"])
@pytest.mark.parametrize("table,edit,change", _EDGE_EDITS, ids=[e[1] for e in _EDGE_EDITS])
def test_a_row_at_a_block_edge_reads_as_the_line_reader_reads_it(table, edit, change, row):
    """An edited row on either side of a 4,096-row edge, or last, reads as the line reader
    reads it: a changed value by stride, a row in doubt a line at a time, and a refusal
    names that row's line, 8 + its rank."""
    lines = _written(table).split("\n")
    first = lines.index("encoder: table") + 1
    at = first + row % (lines.index("probes:") - first)
    lines[at] = change(lines[at])
    edited = "\n".join(lines)
    with _stride_reads() as reads:
        outcome = _read_outcome(read_scheme, edited)
    assert outcome == _read_outcome(reference.read_scheme, edited)
    if edit == "value changed":
        assert reads[0] is not None and write_scheme(outcome[0]) == edited
    else:
        assert reads == [None]
    if table == "mirror16":
        assert outcome[1].startswith(f"line {at + 1}: ")


# (edit, new row, read by stride) on the row "  01 ->   7  20" of a table three bytes a field
_PADDED_EDITS = [("space after a digit", "  01 ->   7 2 0", False),
                 ("space ends a field", "  01 ->   7 20 ", False),
                 ("zeros for spaces", "  01 -> 007 020", True),
                 ("digits in the padding", "  01 -> 107  20", True)]


@pytest.mark.parametrize("edit,row,by_stride", _PADDED_EDITS, ids=[e[0] for e in _PADDED_EDITS])
def test_a_padded_field_holds_spaces_only_before_its_digits(edit, row, by_stride):
    table = {(0, 0): (5, 100), (0, 1): (7, 20), (1, 0): (100, 3), (1, 1): (42, 9)}
    scheme = Scheme(n=2, u=2, cell_alphabet=101, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=((0,), (1,)), encoder=TableEncoder(table),
                    decoders=(TableDecoder({}),) * 2)
    text = write_scheme(scheme)
    assert "\n  01 ->   7  20\n" in text
    text = text.replace("  01 ->   7  20", row)
    with _stride_reads() as reads:
        outcome = _read_outcome(read_scheme, text)
    assert outcome == _read_outcome(reference.read_scheme, text)
    assert (reads[0] is not None) == by_stride


def test_a_callable_encoders_rows_are_written_as_the_template_writer_writes_them():
    # the rows come from encoded(), in the alphabet's own type: uint16 past 256 values
    base = build_precomputed_sums(13, 300)  # two blocks of rows
    scheme = Scheme(n=13, u=13, cell_alphabet=300, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=base.probes, encoder=base.encoder, decoders=base.decoders)
    assert scheme.encoded()[1].dtype == np.uint16
    assert write_scheme(scheme) == reference.write_scheme(scheme)


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
        xs = list(reference.enumerate_bal(n))
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
    with _stride_reads() as reads:
        back = read_scheme(text)
    assert write_scheme(back) == text
    assert back == scheme
    cells = scheme.encoder.cells
    if cells.size and 0 <= cells.min() and cells.max() <= 9:  # every row has one byte layout
        assert reads[0] is not None


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


# values of 19 and 20 characters at both ends of int64, inside and just outside it
_EDGE_VALUES = ("9223372036854775807", "9223372036854775808", "-9223372036854775808",
                "-9223372036854775809", "+9223372036854775807", "09223372036854775807",
                "09223372036854775808", "-09223372036854775808", "99999999999999999999")


def _edit_row(draw, row: str) -> str:
    """One edit of an encoder row ``  <bits> -> <values>``, of a kind the reader must judge."""
    left, _, right = row.partition("->")
    values = right.split()
    kind = draw(st.sampled_from(["tab", "sign", "edge", "dash", "arrow", "letter", "spaces"]))
    if kind == "tab":
        at = draw(st.integers(0, len(row)))
        return row[:at] + "\t" + row[at:]
    if kind == "arrow":  # a second '->', none, or one in another place
        tokens, at = left.split() + ["->"] + values, len(left.split())
        step = at + 1 if values else max(at - 1, 0)
        tokens[at], tokens[step] = tokens[step], tokens[at]  # the arrow one token later or earlier
        return draw(st.sampled_from([row + " -> 1", row.replace("->", "-> ->"),
                                     row.replace("->", ""), row.replace(" -> ", "->"),
                                     row.replace("->", "-->"), "  " + " ".join(tokens)]))
    if kind == "spaces":  # an indent other than two spaces, or bits split or spaced out
        return draw(st.sampled_from([row.lstrip(), " " + row, "\t" + row.lstrip(), row + "  ",
                                     row.replace(left.strip(), " ".join(left.strip()), 1)]))
    if kind == "dash":
        return draw(st.sampled_from([left + "-> -", left + "-> - 1", left + "-> --", left + "->",
                                     left + "-> -1", left + "-> +"]))
    if not values or values == ["-"]:
        return row + draw(st.sampled_from(["", " 0", " +0", " é"]))
    i = draw(st.integers(0, len(values) - 1))
    if kind == "sign":
        values[i] = draw(st.sampled_from(["+", "-", "+-", "--", "-+"])) + values[i]
    elif kind == "edge":
        values[i] = draw(st.sampled_from(_EDGE_VALUES))
    else:  # a non-digit inside a value, or a byte past ASCII
        at = draw(st.integers(0, len(values[i])))
        letter = draw(st.sampled_from(["x", "_", ".", "/", ":", "é", "\u2028", "\xa0", "\x00"]))
        values[i] = values[i][:at] + letter + values[i][at:]
    return left + "-> " + " ".join(values)


@st.composite
def edited_table_texts(draw):
    """A small table scheme file as written, or with one to three edits to its encoder rows,
    blank lines, line endings or characters."""
    scheme, _ = draw(table_schemes(max_n=4))
    lines = write_scheme(scheme).split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith("  ") and "->" in line
            and not line.startswith("    ")]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["row", "row", "row", "repeat", "blank", "crlf", "char"]))
        at = draw(st.sampled_from(rows)) if rows else 0
        if kind == "row" and rows:
            lines[at] = _edit_row(draw, lines[at])
        elif kind == "repeat" and rows:  # one row's input on another row
            bits = lines[draw(st.sampled_from(rows))].lstrip().partition(" ")[0]
            lines[at] = "  " + bits + " " + lines[at].lstrip().partition(" ")[2]
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", " \t ", "\t", "\r", "\x0c", "\x1f"])))
        elif kind == "crlf":
            lines = [line + "\r" for line in lines]
        else:
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            piece = draw(st.sampled_from(list("é\x85\x0b\x1c\x01 01-")))
            lines[at] = line[:cut] + piece + line[cut + draw(st.integers(0, 1)):]
    return "\n".join(lines)


def _read_outcome(read, text):
    """The scheme ``read`` makes of ``text``, with its table as lists, or its error."""
    try:
        scheme = read(text)
    except Exception as err:  # the two readers must fail alike, whatever they raise
        return type(err), str(err)
    enc = scheme.encoder
    table = (enc.inputs.tolist(), enc.cells.tolist()) if isinstance(enc, TableEncoder) else None
    return scheme, table


@settings(max_examples=400, deadline=None)
@given(edited_table_texts())
def test_byte_reader_matches_the_line_reader(text):
    assert _read_outcome(read_scheme, text) == _read_outcome(reference.read_scheme, text)


_ROW = "  01 -> 0 1"
# (edit, old text, new text) on the table of _table_scheme; "u0" edits the table of _no_cells2
#
# every row keeps its length, but the rows no longer share one byte layout, so the stride
# reader must leave them to the token reader; an old text starting with '^' is a pattern,
# replaced on every line
_STRIDE_REFUSALS = [
    ("digit to x", _ROW, "  01 -> 0 x"), ("digit to colon", _ROW, "  01 -> 0 :"),
    ("bit to 2", _ROW, "  21 -> 0 1"), ("bit to slash", _ROW, "  0/ -> 0 1"),
    ("fat arrow", _ROW, "  01 => 0 1"), ("nul in a gap", _ROW, "  01\x00-> 0 1"),
    ("blank line after the rows", "  11 -> 1 2\n", "  11 -> 1 2\n\n"),
    ("longer row after the rows", "  11 -> 1 2\n", "  11 -> 1 20\n"),
    ("u0 as written", "  01 -> -", "  01 -> -"),
    ("19-digit column", r"^(  [01]+ -> )", r"\g<1>1234567890123456789 "),
    ("trailing spaces", r"^(  [01]+ -> .*)$", r"\1  "),
]
_LISTED_EDITS = [
    ("blank line", _ROW, "\n" + _ROW), ("spaces and tab line", _ROW, " \t \n" + _ROW),
    ("unit separator line", _ROW, "\x1f\n" + _ROW), ("crlf", "\n", "\r\n"),
    ("lone cr", _ROW + "\n", _ROW + "\r"), ("form feed", _ROW + "\n", _ROW + "\x0c"),
    ("tabs between tokens", _ROW, "  01\t->\t0\t1"), ("tab indent", _ROW, "\t01 -> 0 1"),
    ("trailing tab", _ROW, _ROW + "\t"), ("signs", _ROW, "  01 -> +0 -1"),
    ("signs again", _ROW, "  01 -> -0 +1"), ("double sign", _ROW, "  01 -> --0 1"),
    ("sign after", _ROW, "  01 -> 0 1-"), ("lone plus", _ROW, "  01 -> 0 +"),
    *((f"edge {v}", _ROW, f"  01 -> 0 {v}") for v in _EDGE_VALUES),
    ("u0 two dashes", "  01 -> -", "  01 -> - -"), ("u0 nothing", "  01 -> -", "  01 ->"),
    ("u0 plus", "  01 -> -", "  01 -> +"), ("u0 value", "  01 -> -", "  01 -> 0"),
    ("u0 signed zero", "  01 -> -", "  01 -> -0"), ("second arrow", _ROW, "  01 -> 0 -> 1"),
    ("arrow at end", _ROW, _ROW + " ->"), ("arrow one token late", _ROW, "  01 0 -> 1"),
    ("arrow first", _ROW, "  -> 01 0 1"), ("arrow unspaced", _ROW, "  01->0 1"),
    *((f"{c!r} in a value", _ROW, f"  01 -> 0 1{c}5") for c in "x:/_."),
    ("byte past ascii", _ROW, _ROW + "é"), ("nbsp inside", _ROW, "  01 -> 0 \xa01"),
    ("nbsp after", _ROW, _ROW + "\xa0"), ("line separator", _ROW, _ROW + "\u2028"),
    ("control byte", _ROW, "  01 -> 0 \x011"), ("repeated input", _ROW, "  00 -> 0 1"),
    ("bracket bit", _ROW, "  0( -> 0 1"), ("long input", _ROW, "  012 -> 0 1"),
    ("short input", _ROW, "  0 -> 0 1"), ("split input", _ROW, "  0 1 -> 0 1"),
    ("bare arrow", _ROW, "  ->\n" + _ROW), ("u0 bare arrow", "  01 -> -", "  ->"),
    *_STRIDE_REFUSALS, ("rows end the text", r"^probes:[\s\S]*", ""),
    ("two-digit column", r"^(  [01]+ -> )", r"\g<1>10 "),
]


@pytest.mark.parametrize("edit,old,new", _LISTED_EDITS, ids=[e[0] for e in _LISTED_EDITS])
def test_byte_reader_matches_the_line_reader_on_listed_edits(edit, old, new):
    text = write_scheme(_no_cells2() if edit.startswith("u0") else _table_scheme())
    if old.startswith("^"):
        text, count = re.subn(old, new, text, flags=re.MULTILINE)
        assert count
    else:
        assert old in text
        text = text.replace(old, new) if edit == "crlf" else text.replace(old, new, 1)
    with _stride_reads() as reads:
        outcome = _read_outcome(read_scheme, text)
    assert outcome == _read_outcome(reference.read_scheme, text)
    if edit in {refusal[0] for refusal in _STRIDE_REFUSALS}:
        assert reads == [None]
    if edit in ("rows end the text", "two-digit column"):  # one layout still: read by stride
        assert reads[0] is not None


def _listed_edit(edit: str, old: str, new: str) -> str:
    text = write_scheme(_no_cells2() if edit.startswith("u0") else _table_scheme())
    if old.startswith("^"):
        return re.sub(old, new, text, flags=re.MULTILINE)
    return text.replace(old, new) if edit == "crlf" else text.replace(old, new, 1)


@settings(max_examples=200, deadline=None)
@given(edited_table_texts())
def test_a_files_bytes_read_as_its_text(text):
    # ASCII bytes are read as they are; other line breaks send them through str.splitlines
    if text.isascii():
        assert _read_outcome(read_scheme, text.encode("ascii")) == _read_outcome(read_scheme, text)


@pytest.mark.parametrize("edit,old,new", _LISTED_EDITS, ids=[e[0] for e in _LISTED_EDITS])
def test_a_files_bytes_read_as_its_text_on_listed_edits(edit, old, new):
    text = _listed_edit(edit, old, new)
    if not text.isascii():  # refused as undecodable, as a file with such a byte always was
        with pytest.raises(UnicodeDecodeError):
            read_scheme(text.encode("utf-8"))
        return
    assert _read_outcome(read_scheme, text.encode("ascii")) == _read_outcome(read_scheme, text)


@pytest.mark.parametrize("where", ["header", "encoder row", "decoder"])
def test_a_byte_past_ascii_is_a_usage_error(where, tmp_path, capsys):
    text = write_scheme(_table_scheme())
    old = {"header": "kind: sum", "encoder row": "  01 -> 0 1", "decoder": "    1 -> 1"}[where]
    path = tmp_path / "utf8.scm"
    path.write_bytes(text.replace(old, old + "é", 1).encode("utf-8"))
    assert main(["verify", "--scheme", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _peak_above_start(fn) -> int:
    """The traced peak of ``fn()`` in bytes above what was live when it started."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peak(text: str) -> tuple[int, int]:
    """The traced peak of ``read_scheme(text)`` in bytes, and how many tables it read by stride."""
    with _stride_reads() as reads:
        peak = _peak_above_start(lambda: read_scheme(text))
    return peak, sum(read is not None for read in reads)


def test_reading_the_mirror_table_by_stride_stays_under_13_mib():
    # measured at 10.3 MiB: the 3.5 MB text as bytes, 1 MiB of uint8 cells, the bits and
    # the digit matrix (14.5 MiB with int64 cells); 2.7 MiB of margin for other numpy versions
    peak, stride_reads = _traced_peak(write_scheme(_mirror16()))
    assert stride_reads == 1 and peak < 13 * 2 ** 20


def test_reading_the_mirror_table_by_tokens_stays_under_40_mib():
    # one row re-spaced: the stride reader refuses the table and the token reader reads it
    text = write_scheme(_mirror16()).replace(" -> 0 0 0 0", "  ->  0  0 0 0", 1)
    peak, stride_reads = _traced_peak(text)
    assert stride_reads == 0 and peak < 40 * 2 ** 20


@pytest.mark.parametrize("command", [["verify"], ["pipeline", "--c", "2", "--format", "machine"]],
                         ids=["verify", "pipeline"])
def test_both_table_readers_give_one_report_at_65536_rows(command, tmp_path, capsys):
    # mirror16 as written has one byte layout on every row, so the stride reader reads it;
    # the copy spaces one row's values twice, so the token reader reads the whole table.
    # Exit 1 is the expected verdict (mirror16 is wrong on purpose).
    text = write_scheme(_mirror16())
    row = "\n  0000000000000101 -> " + " ".join("0000000000000101") + "\n"
    spaced = row.replace(" ", "  ").replace("    ", "  ", 1)
    assert text.count(row) == 1 and len(spaced) > len(row)
    reports = {}
    for name, body in (("stride", text), ("tokens", text.replace(row, spaced))):
        path = tmp_path / f"{name}.scm"
        path.write_text(body, encoding="ascii")
        with _stride_reads() as reads:
            code = main([*command, "--scheme", str(path)])
        assert [read is not None for read in reads] == [name == "stride"]
        assert code <= 1
        reports[name] = capsys.readouterr().out
    assert reports["stride"] == reports["tokens"]


def test_building_the_mirror_table_from_a_dict_stays_under_4_mib():
    # measured at 3.1 MiB: 1 MiB of cells read as bytes, 1 MiB of inputs and the sort keys
    # (11.1 MiB when every cell was read into one int64 matrix first)
    table = {x: x for x in product((0, 1), repeat=16)}
    assert _peak_above_start(lambda: TableEncoder(table)) < 4 * 2 ** 20


def test_writing_the_mirror_table_stays_under_8_mib():
    # measured at 6.8 MiB: the 3.5 MB text twice, as its blocks and as the joined file, and
    # one block's matrices (10.1 MiB when the joined text was copied once more to end it)
    scheme = _mirror16()
    assert _peak_above_start(lambda: write_scheme(scheme)) < 8 * 2 ** 20


@pytest.mark.parametrize("alphabet,values", [(256, (253, 254, 255, 256)),
                                             (200, (100, 150, 199, 300))],
                         ids=["256-under-256", "300-under-200"])
@pytest.mark.parametrize("reader", ["stride", "tokens"])
def test_a_value_past_the_alphabet_is_refused_not_wrapped(alphabet, values, reader):
    # each value fits the next type up from the alphabet's own: read as it, not wrapped
    scheme = Scheme(n=2, u=1, cell_alphabet=alphabet, domain=DOMAIN_ALL, kind=KIND_SUM,
                    probes=((0,), (0,)),
                    encoder=TableEncoder(dict(zip(product((0, 1), repeat=2), zip(values)))),
                    decoders=(TableDecoder({}),) * 2)
    text = write_scheme(scheme)
    if reader == "tokens":
        text = text.replace(f"  00 -> {values[0]}", f"  00  ->  {values[0]}", 1)
    with _stride_reads() as reads:
        back = read_scheme(text)
    assert (reads[0] is not None) == (reader == "stride")
    assert back.encoder.cells.dtype == np.uint16
    with pytest.raises(ConsistencyError, match=re.escape(
            f"encoder output ({values[3]},) leaves the cell alphabet [0, {alphabet})")):
        back.encoded()


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
