"""Line-oriented scheme files: read, write, and byte-stable round trips.

Layout (all integers decimal):

    n: 2
    u: 2
    q: 1
    cell_alphabet: 3
    domain: all_bitstrings
    kind: sum
    encoder: builtin:precomputed_sums cell_alphabet=3 n=2
    probes:
      0
      1
    decoders: builtin

Table-backed schemes replace the encoder line with ``encoder: table``
followed by ``<bits> -> <cell values>`` lines (inputs in lexicographic
order; one line per input, n bits, the same number of int64 values on
every line), and ``decoders: table`` followed by per-query blocks of
``<probe values> -> <answer>`` lines.  The empty probe set / value tuple is
written as ``-``.  A file written by this module, re-read and re-written,
reproduces its bytes exactly.

The encoder rows are written 4,096 rows at a time: each block is one byte
matrix, a row a line, with every value right-aligned in the width of the
table's widest numeral and spaces before it (a negative value's sign just
before its first digit), so every row of a table has one length.  The digits
are taken in the cells' own type; only a table with a negative value is
widened, to its magnitudes in uint64, so -2^63 is written too.

The encoder rows are read by stride when they share one byte layout: every
row up to a line that starts with a byte past ' ' (or the end of the text) is
the first row's bytes apart from its bits (``0``, ``1``, ``(``, ``)``) and its
value fields, each at most 18 bytes of spaces then digits.  Such rows are one
k x L byte matrix, L the first row's line length, checked and read 4,096 rows
at a time, the blocks they are written in: each check is one pass over a
block's bytes against the first row's template laid out for a whole block, so
no temporary spans the matrix.  Every table written with u >= 1 and cells in
[0, 10^18) is read so.  Any other table (u = 0, a negative or 19-digit value,
rows spaced some other way) is read a line at a time, and every refusal comes
from that reader or from the repeated input check both share.  A file's bytes
are read as they are, with no second copy as a str, when they are ASCII and
hold no line break but '\n'.
"""

from __future__ import annotations

import re

import numpy as np

from .bits import parse_bits
from .core import DOMAIN_ALL, DOMAIN_BAL, Scheme, TableDecoder, TableEncoder
from .errors import CellProbeError, ConsistencyError, ParameterError
from .infotheory import cell_dtype, group_rows
from .schemes import build_builtin

_HEADER_KEYS = ("n", "u", "q", "cell_alphabet", "domain", "kind")
_LINE = re.compile(r"^.*\S.*$", re.MULTILINE)
_LINE_BYTES = re.compile(_LINE.pattern.encode(), re.MULTILINE)
# a first row's values: fields of spaces then digits, one space before each but the first
_FIXED_VALUES = re.compile(rb" *[0-9]+(?: +[0-9]+)*")
# an encoder row with one input token and numerals one space apart, or a lone '-' or none
_ROW = re.compile(r"[ \t]*([01()]+)[ \t]*->[ \t]*(?:([+-]?[0-9]+(?: [+-]?[0-9]+)*)|-)?[ \t]*")
_TOKEN = re.compile(r"[^ \t]+")
_NUMERAL = re.compile(r"[+-]?[0-9]+")
_LONG = re.compile(r"[^ ]{19}")  # a value of 19 characters or more may be past int64
# the ASCII line breaks str.splitlines knows besides '\n', and '\x1f', which str.rstrip strips
_ODD = "\r\x0b\x0c\x1c\x1d\x1e\x1f"
_BLOCK = 4096  # the rows of one encoder block, as written and as read by stride


def _values_key(values: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in values) if values else "-"


def _format_builtin(tag: tuple) -> str:
    name, params = tag
    rendered = " ".join(f"{k}={v}" for k, v in params)
    return f"builtin:{name} {rendered}".rstrip()


def _encoder_lines(scheme: Scheme) -> list[str]:
    """The ``<bits> -> <values>`` lines of a table encoder, one string per 4,096 rows.

    A block is one byte matrix, a row a line: ``  ``, the bits, `` -> ``, then per value
    column ``width`` bytes and a space, the last a line end, ``width`` the widest numeral's.
    Each value is right-aligned with spaces before it; a table without values writes ``-``."""
    enc = scheme.encoder
    inputs, cells = (enc.inputs, enc.cells) if isinstance(enc, TableEncoder) else scheme.encoded()
    (k, n), u = inputs.shape, cells.shape[1]
    lo, hi = int(cells.min(initial=0)), int(cells.max(initial=0))
    width = max(len(str(lo)), len(str(hi)))
    head = np.frombuffer(b"  " + b"0" * n + b" -> ", np.uint8)
    last = n + 5 + width  # the column of each row's first value's last digit
    blocks = []
    for start in range(0, k, _BLOCK):
        bits, values = inputs[start:start + _BLOCK], cells[start:start + _BLOCK]
        rows = np.empty((len(bits), n + 6 + max(u * (width + 1), 2)), dtype=np.uint8)
        rows[:, :n + 6] = head
        rows[:, 2:n + 2] += bits.view(np.uint8)
        rows[:, last + 1::width + 1] = 32
        rows[:, -1] = 10
        rows[:, n + 6] = 45  # the '-' of a table without values, else a value's first byte
        if lo < 0:  # digits of the magnitude, -2^63's too, in uint64
            sign = values < 0
            values = values.astype(np.int64)
            np.negative(values, out=values, where=sign)
            values = values.view(np.uint64)
        for p in range(width if u else 0):  # the digit worth 10^p
            digit = (values % 10).astype(np.uint8)
            digit += 48
            if p:  # a leading zero is a space, and a negative value's first one its sign
                lead = values == 0
                digit[lead] = 32
                if lo < 0:
                    digit[lead & sign] = 45
                    sign &= ~lead
            rows[:, last - p::width + 1] = digit
            values = values // 10
        blocks.append(rows.ravel()[:-1].tobytes().decode("ascii"))
    return blocks


def _decoder_tables(scheme: Scheme) -> list[tuple[dict, int]]:
    tables = []
    for i, (probe, dec) in enumerate(zip(scheme.probes, scheme.decoders), start=1):
        if isinstance(dec, TableDecoder):
            tables.append((dict(dec.table), dec.default))
            continue
        values = scheme.encoded()[1][:, list(probe)]
        keys = values[group_rows(values)[0]]
        tables.append((dict(zip(map(tuple, keys.tolist()), scheme.decode(i, keys).tolist())), 0))
    return tables


def write_scheme(scheme: Scheme) -> str:
    table = scheme.builtin is None
    lines = [f"{key}: {getattr(scheme, key)}" for key in _HEADER_KEYS]
    lines += ["encoder: table", *_encoder_lines(scheme)] if table else [
        f"encoder: {_format_builtin(scheme.builtin)}"]
    lines += ["probes:", *(f"  {_values_key(probe)}" for probe in scheme.probes)]
    lines.append(f"decoders: {'table' if table else 'builtin'}")
    for i, (entries, default) in enumerate(_decoder_tables(scheme) if table else [], start=1):
        lines.append(f"  query {i}")
        if default:
            lines.append(f"    default {default}")
        lines += [f"    {_values_key(values)} -> {entries[values]}" for values in sorted(entries)]
    return "\n".join([*lines, ""])  # the text ends with a line end, and is built once


def save_scheme(scheme: Scheme, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_scheme(scheme))


class _Lines:
    """The non-blank lines of a text whose only line break is '\n', rstripped, from ``pos``.

    The text is a str, or a file's bytes, held as read when they are ASCII (one byte a
    character) and hold no other line break, and refused as undecodable otherwise."""

    def __init__(self, text: str | bytes):
        odd = [c.encode() for c in _ODD] if isinstance(text, bytes) else _ODD
        if not text.isascii() or any(c in text for c in odd):
            # the lines the line-by-line reader saw: split by str.splitlines, each rstripped;
            # a file with a byte past ASCII is refused here
            text = text.decode("ascii") if isinstance(text, bytes) else text
            text = "\n".join(line.rstrip() for line in text.splitlines())
        self.text, self.pos, self.next = text, 0, 0
        self.pattern = _LINE_BYTES if isinstance(text, bytes) else _LINE

    def peek(self) -> str | None:
        found = self.pattern.search(self.text, self.pos)
        if not found:
            return None
        self.pos, self.next = found.start(), found.end() + 1
        line = found.group()
        return (line if isinstance(line, str) else line.decode("ascii")).rstrip()

    def take(self) -> str:
        if (line := self.peek()) is None:
            raise ParameterError("scheme file ended early")
        self.pos = self.next
        return line


def _parse_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        return () if text == "-" else tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParameterError(f"expected integers, got {text!r}") from None


def _refusal(number: int, line: str, n: int, width: int) -> CellProbeError:
    """The error for a bad encoder row on line ``number``: its own parse error, if it has one."""
    left, _, right = line.partition("->")
    try:
        parse_bits(left.strip()), _parse_values(right)
    except CellProbeError as err:
        return type(err)(f"line {number}: {err}")
    return ParameterError(f"line {number}: an encoder row holds {n} bits, '->' and {width} "
                          f"values in [-2^63, 2^63), got {line.strip()!r}")


def _rows(mask: np.ndarray) -> np.ndarray:
    """Which rows of a boolean matrix hold a True; one test of the whole matrix first."""
    return mask.any(axis=1) if mask.any() else np.zeros(len(mask), dtype=bool)


def _stride_rows(raw: bytes, start: int, n: int):
    """The encoder rows at ``raw[start:]`` read as one k x L byte matrix, L the length of the
    first row's line, as (bits, cells, line offsets, end offset); None on any doubt.  Every row
    must be the first row ``  <n bits> -> <values>`` apart from its bits and value fields, and
    the line after the rows must start with a byte past ' ' or the text end there.  A field runs
    from the byte after the space before it to the end of the first row's digit run there, at
    most 18 bytes so int64 holds every value; spaces only before its digits are leading zeros.
    The matrix is checked and read ``_BLOCK`` rows at a time, up to the first row in doubt."""
    row = raw[start:raw.find(b"\n", start) + 1]
    if n < 1 or len(row) < n + 8 or row[:2] != b"  " or row[n + 2:n + 6] != b" -> ":
        return None
    if not _FIXED_VALUES.fullmatch(row, n + 6, len(row) - 1):
        return None
    ends = np.array([m.end() for m in re.finditer(rb"[0-9]+", row[n + 6:])]) + n + 6
    starts = np.append(n + 6, ends[:-1] + 1)
    sizes = ends - starts
    if sizes.max() > 18:
        return None
    width, k = len(row), (len(raw) - start) // len(row)
    rows = np.frombuffer(raw, np.uint8, k * width, start).reshape(k, width)
    # each byte less the least its column allows, and the most that may leave: the
    # template's own byte in a gap or the arrow, '0'-'9' in a value, and in the input
    # '(' 0, ')' 1, '0' 8, '1' 9, the offsets that & 0xf6 clears
    low, most = np.frombuffer(row, np.uint8).copy(), np.zeros(width, dtype=np.uint8)
    keep = np.full(width, 0xff, dtype=np.uint8)
    spans = list(zip(starts.tolist(), ends.tolist()))
    pad = np.concatenate([np.arange(a, b - 1) for a, b in spans])  # each field's bytes but its last
    for a, b in spans:
        low[a:b], most[a:b] = 48, 9
    low[2:n + 2], keep[2:n + 2] = 40, 0xf6
    same = np.flatnonzero(np.diff(pad) == 1)  # the pad bytes whose next is one of their field
    # the templates laid out for a whole block, so each check is one pass over its bytes
    low, most, keep = (np.tile(t, min(k, _BLOCK)) for t in (low, most, keep))
    bits = np.empty((k, n), dtype=bool)
    cells = np.empty((k, len(sizes)), dtype=cell_dtype(10 ** int(sizes.max())))
    for top in range(0, k, _BLOCK):
        block = rows[top:top + _BLOCK]
        size = block.size
        offset = np.subtract(block.reshape(-1), low[:size]).reshape(block.shape)
        space = block[:, pad] == 32  # a leading zero, if no digit of its field is before it
        offset[:, pad] = np.where(space, 0, offset[:, pad])
        wrong = (offset.reshape(-1) & keep[:size]) > most[:size]
        # a row that is no line, from the first without a line end on, or out of the template
        bad = ((block[:, -1] != 10) | _rows(wrong.reshape(block.shape))
               | _rows(space[:, same + 1] > space[:, same]))
        good = int(np.argmax(bad)) if bad.any() else len(block)
        # an input byte's bit: '1' and '(' are odd after it is xor-ed with itself >> 3
        code = block.reshape(-1) >> 3
        code ^= block.reshape(-1)
        code &= 1
        bits[top:top + good] = code.view(bool).reshape(block.shape)[:good, 2:n + 2]
        # Horner's rule down the value fields, each value's p-th byte at once, in the
        # narrowest type that holds every numeral as long as the widest field
        value = cells[top:top + good]
        value[:] = offset[:good, starts]
        for p in range(1, int(sizes.max())):
            live = np.flatnonzero(sizes > p)
            value[:, live] = value[:, live] * 10 + offset[:good, starts[live] + p]
        if good < len(block):
            k = top + good
            break
    end = start + k * width
    if end < len(raw) and raw[end] <= 32:
        return None
    return bits[:k], cells[:k], np.arange(k), end - start


def _line_rows(text: str | bytes, start: int, n: int, first: int):
    """The encoder rows at ``text[start:]`` read a line at a time, as ``_stride_rows`` gives
    them, to the first line neither blank nor indented two spaces and holding a '->'.  A row's
    tokens are its runs of bytes but ' ' and tab: left of its first '->' one input of n bits,
    right of it numerals, or a lone '-' for none.  A bad row raises, naming line ``first`` +
    its offset: first one not of that shape with w values, w the count most rows have, then
    one whose input holds a byte past '01()' or a value past int64."""
    lines = (text[start:].decode("ascii") if isinstance(text, bytes) else text[start:]).split("\n")
    at, inputs, values, widths, malformed, end = [], [], [], [], [], 0
    for i, line in enumerate(lines):
        if line.strip():
            if not (line.startswith("  ") and "->" in line):
                break
            found = _ROW.fullmatch(line)
            if found:
                bits, numerals = found[1], found[2] or ""
                width = numerals.count(" ") + 1 if numerals else 0
            else:  # tabs or runs of spaces between values, or a row in fault
                left, right = (_TOKEN.findall(side) for side in line.split("->", 1))
                dash = right == ["-"]
                if len(left) != 1 or not (dash or all(map(_NUMERAL.fullmatch, right))):
                    malformed.append(len(at))
                bits, numerals = left[0] if left else "", "" if dash else " ".join(right)
                width = 0 if dash else len(right)
            at.append(i)
            inputs.append(bits)
            values.append(numerals)
            widths.append(width)
        end += len(line) + 1
    if not at:
        return np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=np.int64), np.zeros(0, int), end
    k, widths = len(at), np.array(widths)
    w = int(np.bincount(widths).argmax())
    bad = (widths != w) | (np.fromiter(map(len, inputs), int, k) != n)
    bad[malformed] = True
    if not bad.any():
        numerals = " ".join(values)
        byte = np.frombuffer("".join(inputs).encode("ascii", "replace"), np.uint8).reshape(k, n)
        bits = (byte == 49) | (byte == 40)  # '1' and '(' are 1, '0' and ')' are 0
        bad = ~(bits | (byte == 48) | (byte == 41)).all(axis=1)
        if _LONG.search(numerals):
            bad |= [not all(-2 ** 63 <= int(v) < 2 ** 63 for v in row.split() if len(v) > 18)
                    for row in values]
    if bad.any():
        r = int(np.argmax(bad))
        raise _refusal(first + at[r], lines[at[r]], n, w)
    cells = np.fromstring(numerals.encode(), np.int64, sep=" ") if w else np.zeros(0, np.int64)
    return bits, cells.reshape(k, w), np.array(at), end


def _read_encoder(src: _Lines, n: int) -> TableEncoder:
    """The rows after ``encoder: table``: by stride when they share one byte layout, else a
    line at a time; either way a repeated input is refused here, naming both lines."""
    text, start = src.text, src.pos
    raw = text if isinstance(text, bytes) else text.encode("ascii", "replace")  # a byte a char
    first = raw.count(b"\n", 0, start) + 1  # the line number of the text at ``start``
    rows = _stride_rows(raw, start, n)
    del raw
    bits, cells, lines, end = rows or _line_rows(text, start, n, first)
    src.pos = start + end
    enc = TableEncoder.from_rows(bits.view(np.int8), cells)
    same = np.flatnonzero(enc._keys[1:] == enc._keys[:-1])
    if len(same):
        number = first + lines
        earlier, again = number[(bits == enc.inputs[same[0]]).all(axis=1)][:2]
        raise ParameterError(f"line {again}: input repeats line {earlier}")
    return enc


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _parse_builtin(spec: str):
    name, _, rest = spec[len("builtin:"):].partition(" ")
    params = {}
    for tok in rest.split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ParameterError(f"malformed builtin parameter {tok!r}")
        params[key] = _parse_int(value, f"builtin parameter {key!r}")
    return name, params


def read_scheme(text: str | bytes) -> Scheme:
    """Parse a scheme document, rebuilding builtins and cross-checking headers; bytes are
    read as ASCII text."""
    src = _Lines(text)
    header: dict[str, str] = {}
    for key in _HEADER_KEYS:
        line = src.take()
        got_key, _, value = line.partition(":")
        if got_key.strip() != key:
            raise ParameterError(f"expected header {key!r}, got {line!r}")
        header[key] = value.strip()
    try:
        n, u, q, alphabet = (int(header[key]) for key in _HEADER_KEYS[:4])
    except ValueError as exc:
        raise ParameterError(f"non-integer header field: {exc}") from None
    domain, kind = header["domain"], header["kind"]
    if domain not in (DOMAIN_ALL, DOMAIN_BAL):
        raise ParameterError(f"unknown domain {domain!r}")
    line = src.take()
    if not line.startswith("encoder:"):
        raise ParameterError(f"expected encoder line, got {line!r}")
    enc_spec = line.partition(":")[2].strip()
    builtin_params = encoder = None
    if enc_spec.startswith("builtin:"):
        builtin_params = _parse_builtin(enc_spec)
    elif enc_spec == "table":
        encoder = _read_encoder(src, n)
    else:
        raise ParameterError(f"encoder must be builtin:<name> or table, got {enc_spec!r}")
    line = src.take()
    if line.strip() != "probes:":
        raise ParameterError(f"expected 'probes:', got {line!r}")
    probes = tuple(_parse_values(src.take()) for _ in range(n))
    line = src.take()
    if not line.startswith("decoders:"):
        raise ParameterError(f"expected decoders line, got {line!r}")
    dec_spec = line.partition(":")[2].strip()
    if builtin_params is not None:
        if dec_spec != "builtin":
            raise ParameterError("builtin encoder requires 'decoders: builtin'")
        name, params = builtin_params
        scheme = build_builtin(name, **params)
        stated = (n, u, q, alphabet, domain, kind, probes)
        actual = tuple(getattr(scheme, key) for key in (*_HEADER_KEYS, "probes"))
        if stated != actual:
            raise ConsistencyError(
                f"scheme file disagrees with builtin {name!r}: stated {stated}, built {actual}")
        return scheme

    if dec_spec != "table":
        raise ParameterError("table encoder requires 'decoders: table'")
    decoders = []
    for i in range(1, n + 1):
        line = src.take()
        if line.strip() != f"query {i}":
            raise ParameterError(f"expected 'query {i}', got {line!r}")
        default, table = 0, {}
        while (peeked := src.peek()) is not None and peeked.startswith("    "):
            entry = src.take().strip()
            if entry.startswith("default "):
                default = _parse_int(entry.split()[1], f"query {i} default")
                continue
            left, arrow, right = entry.partition("->")
            if not arrow:
                raise ParameterError(f"malformed decoder entry {entry!r}")
            table[_parse_values(left)] = _parse_int(right.strip(), f"query {i} answer")
        decoders.append(TableDecoder(table, default))

    scheme = Scheme(n=n, u=u, cell_alphabet=alphabet, domain=domain, kind=kind, probes=probes,
                    encoder=encoder, decoders=tuple(decoders))
    if scheme.q != q:
        raise ConsistencyError(f"header says q={q} but probe sets give q={scheme.q}")
    return scheme


def load_scheme(path) -> Scheme:
    with open(path, "rb") as fh:
        return read_scheme(fh.read())
