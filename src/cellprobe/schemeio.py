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

The encoder rows are read by stride when they share one byte layout: the
first row is ``  <n bits> -> <values>`` with single spaces, 1 to 18 digits
per value and nothing after the last, and every row up to a line that starts
with a byte past ' ' (or the end of the text) is that row's bytes apart from
its bits (``0``, ``1``, ``(``, ``)``) and digits.  Such rows are one k x L
byte matrix, L the first row's line length, whose values are read column by
column.  Every other table, including any this module did not write, is read
token by token; every refusal comes from that reader or from the repeated
input check both share.  A file's bytes are read as they are, with no second
copy as a str, when they are ASCII and hold no line break but '\n'.

The encoder rows are written the same way round, 4,096 rows at a time: each
block is one byte matrix, a row a line, with every value right-aligned in the
width of the table's widest numeral and NULs before it (a negative value's
sign just before its first digit), and one compress drops the NULs.  The
digits are taken in the cells' own type; only a table with a negative value
is widened, to its magnitudes in uint64, so -2^63 is written too.
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
_TOKEN = re.compile(rb"\S+")
_NUMERAL = re.compile(rb"[+-]?[0-9]+")
_FIXED_VALUES = re.compile(rb"[0-9]{1,18}(?: [0-9]{1,18})*")
# the ASCII line breaks str.splitlines knows besides '\n', and '\x1f', which str.rstrip strips
_ODD = "\r\x0b\x0c\x1c\x1d\x1e\x1f"


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
    Each value is right-aligned with NULs before it, which one compress drops."""
    enc = scheme.encoder
    inputs, cells = (enc.inputs, enc.cells) if isinstance(enc, TableEncoder) else scheme.encoded()
    (k, n), u = inputs.shape, cells.shape[1]
    lo, hi = int(cells.min(initial=0)), int(cells.max(initial=0))
    width = max(len(str(lo)), len(str(hi)))
    head = np.frombuffer(b"  " + b"0" * n + b" -> ", np.uint8)
    last = n + 5 + width  # the column of each row's first value's last digit
    blocks = []
    for start in range(0, k, 4096):
        bits, values = inputs[start:start + 4096], cells[start:start + 4096]
        rows = np.empty((len(bits), n + 6 + max(u * (width + 1), 2)), dtype=np.uint8)
        rows[:, :n + 6] = head
        rows[:, 2:n + 2] += bits.view(np.uint8)
        if not u:
            rows[:, n + 6:] = np.frombuffer(b"-\n", np.uint8)
            blocks.append(rows.ravel()[:-1].tobytes().decode("ascii"))
            continue
        rows[:, last + 1::width + 1] = 32
        rows[:, -1] = 10
        if lo < 0:  # digits of the magnitude, -2^63's too, in uint64
            sign = values < 0
            values = values.astype(np.int64)
            np.negative(values, out=values, where=sign)
            values = values.view(np.uint64)
        for p in range(width):  # the digit worth 10^p
            digit = (values % 10).astype(np.uint8)
            digit += 48
            if p:  # a leading zero is a NUL, and a negative value's first one its sign
                lead = values == 0
                digit[lead] = 0
                if lo < 0:
                    digit[lead & sign] = 45
                    sign &= ~lead
            rows[:, last - p::width + 1] = digit
            values = values // 10
        flat = rows.ravel() if width == 1 else rows[rows != 0]  # one digit needs no padding
        blocks.append(flat[:-1].tobytes().decode("ascii"))
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


def _values(full: np.ndarray, at: np.ndarray):
    """The numerals at columns 1.. of ``at``, token starts in ``full``, as int64, with masks of
    the tokens that are no numeral and of the values past int64.  A numeral is a sign or none,
    then digits: Horner's rule in uint64 reads up to 19 exactly, more go through Python int."""
    b = full[at]
    neg, sign = b == 45, (b == 45) | (b == 43)
    if sign.any():
        at += sign
        b = full[at]
    digit = b - np.uint8(48)
    bad = digit > 9  # right after the sign a gap is no digit either
    value = digit.astype(np.uint64)
    live = ~bad
    live[:, 0] = False  # column 0 is the input
    for j in range(1, 20):
        b = full[j:][at]
        live &= b > 32  # a numeral ends at its first gap
        digit = b - np.uint8(48)
        bad |= live & (digit > 9)
        live &= digit <= 9
        if j == 19 or not live.any():
            break
        np.multiply(value, 10, out=value, where=live)
        np.add(value, digit, out=value, where=live, casting="unsafe")
    past = value > 2 ** 63 - 1 if j == 19 else np.zeros(value.shape, dtype=bool)  # 19 digits
    if past.any():  # -2^63 fits
        past &= (value != 2 ** 63) | ~neg
    value = value.view(np.int64)
    np.negative(value, out=value, where=neg)
    for t in np.flatnonzero(live).tolist():  # 20 digits or more
        token = _TOKEN.match(full.data, int(at.flat[t] - sign.flat[t])).group()
        bad.flat[t] = not _NUMERAL.fullmatch(token)
        past.flat[t] = not bad.flat[t] and not -2 ** 63 <= int(token) < 2 ** 63
        value.flat[t] = int(token) if not (bad.flat[t] or past.flat[t]) else 0
    return value[:, 1:], bad[:, 1:], past[:, 1:]


def _stride_rows(raw: bytes, start: int, n: int):
    """The encoder rows at ``raw[start:]`` read as one k x L byte matrix, L the length of the
    first row's line, as the token reader's (bits, cells, line offsets, end offset); None on any
    doubt.  Every row must be the first row's bytes apart from its bits and digits, and the line
    after the rows must start with a byte past ' ' or the text end there.  The first row must
    be ``  <n bits> -> <values>`` with 1 to 18 digits a value, single spaces between and nothing
    after the last value, so int64 holds every value unchecked."""
    row = raw[start:raw.find(b"\n", start) + 1]
    if n < 1 or len(row) < n + 8 or row[:2] != b"  " or row[n + 2:n + 6] != b" -> ":
        return None
    if not _FIXED_VALUES.fullmatch(row, n + 6, len(row) - 1):
        return None
    spans = np.array([m.span() for m in re.finditer(rb"[0-9]+", row[n + 6:])]) + n + 6
    width, k = len(row), (len(raw) - start) // len(row)
    rows = np.frombuffer(raw, np.uint8, k * width, start).reshape(k, width)
    broken = rows[:, -1] != 10  # the rows from the first without a line end on are no lines
    rows = rows[:int(np.argmax(broken)) if broken.any() else k]
    # each byte less the least its column allows, and the most that may leave: the
    # template's own byte in a gap or the arrow, '0'-'9' in a value, '(' to '1' in the input
    low, most = np.frombuffer(row, np.uint8).copy(), np.zeros(width, dtype=np.uint8)
    digit = np.concatenate([np.arange(lo, hi) for lo, hi in spans.tolist()])
    low[digit], most[digit] = 48, 9
    low[2:n + 2], most[2:n + 2] = 40, 9
    offset = rows - low
    bits = offset[:, 2:n + 2]  # '(' 0, ')' 1, '0' 8, '1' 9: the offsets up to 9 that & 6 clears
    bad = _rows(offset > most) | _rows((bits & 6) > 0)
    bits = (bits == 0) | (bits == 9)
    digits = np.take(offset, digit, axis=1)
    del offset  # the cells take its room
    k = int(np.argmax(bad)) if bad.any() else len(rows)
    end = start + k * width
    if end < len(raw) and raw[end] <= 32:
        return None
    # Horner's rule down the value columns, each value's p-th digit at once, in the
    # narrowest type that holds every numeral as long as the widest column's
    sizes = spans[:, 1] - spans[:, 0]
    first = np.cumsum(sizes) - sizes
    cells = np.take(digits[:k], first, axis=1).astype(cell_dtype(10 ** int(sizes.max())))
    for p in range(1, int(sizes.max())):
        live = np.flatnonzero(sizes > p)
        cells[:, live] = cells[:, live] * 10 + digits[:k, first[live] + p]
    return bits[:k], cells, np.arange(k), end - start


def _token_buffer(raw: bytes, start: int, n: int) -> np.ndarray:
    """The bytes from ``start`` between two '\n', then room for the token reader's reads to
    run past their end: an input token, the gap after it and 21 more."""
    size = len(raw) - start
    full = np.full(size + min(max(n, 0), size) + 22, 10, dtype=np.uint8)
    full[1:size + 1] = np.frombuffer(raw, np.uint8)[start:]
    return full


def _token_rows(text: str, full: np.ndarray, start: int, n: int, first: int):
    """The ``<bits> -> <values>`` rows at ``text[start:]``, read in numpy passes over the tokens
    of ``full``, its ``_token_buffer``: the rows run to the first line that is neither blank
    nor indented two spaces and holding a '->'.  A bad row raises, naming line ``first`` + its
    line offset."""
    size = len(text) - start
    span = min(max(n, 0), size) + 1  # an input token and the gap after it
    buf = full[:size + 2]
    ends = np.flatnonzero(buf == 10)  # line j lies between ends[j] and ends[j + 1]
    firsts, gt = ends[:-1] + 1, np.flatnonzero(buf == 62)
    arrows = np.append(gt[buf[gt - 1] == 45] - 1, len(buf))
    arrow = arrows[np.searchsorted(arrows, firsts)]  # each line's first '->', if before its end
    row_like = (buf[firsts] == 32) & (full[firsts + 1] == 32) & (arrow < ends[1:])
    full[arrow[row_like]] = full[arrow[row_like] + 1] = 32  # a row's first '->' ends its input
    if np.count_nonzero(buf < 32) > len(ends):  # a tab is a gap, any other control byte text
        ctrl = np.flatnonzero((buf < 32) & (buf != 10))
        buf[ctrl] = np.where(buf[ctrl] == 9, 32, 63)
    gap = buf <= 32  # tokens are the runs between gaps, now only ' ' and '\n'
    starts = np.flatnonzero(gap[:-1] > gap[1:])
    starts += 1
    line_token = np.searchsorted(starts, ends)  # the index of each line's first token
    count = np.diff(line_token)
    stop = int(np.argmax(np.append(~row_like & (count > 0), True)))  # the first line past the rows
    lines = np.flatnonzero(row_like[:stop])  # a row of a bare '->' holds no token
    if not len(lines):
        return np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=np.int64), lines, int(ends[stop])
    # per row: its first token, the next row's first, and its first token right of the arrow
    lo, hi, arrow = line_token[lines], line_token[lines + 1], arrow[lines]
    if not len(starts):
        starts = np.array([len(buf)])  # a token past the text, whose rows then hold none

    def token_start(k):  # where token k starts; the token after the last lies past the text
        return np.where(k < len(starts), starts[np.minimum(k, len(starts) - 1)], len(buf))

    mid = np.minimum(lo + 1, len(starts))
    odd = ~((token_start(lo) < arrow) & ((hi == lo + 1) | (token_start(mid) > arrow)))
    mid[odd] = np.searchsorted(starts, arrow[odd])  # rows without one token left of '->'
    at = token_start(mid)
    width = hi - mid - ((hi - mid == 1) & (full[at] == 45) & (full[at + 1] <= 32))  # '-' is none
    w = int(np.bincount(width).argmax())  # the value count most rows have
    win = np.lib.stride_tricks.sliding_window_view(full, span)[token_start(lo)]
    gap = win <= 32  # an input token is n bytes and a gap
    bad = (mid - lo != 1) | (width != w) | (n != span - 1) | ~gap[:, -1] | _rows(gap[:, :-1])
    m = int(np.argmax(bad)) if bad.any() else len(lines)  # rows before m hold 1 + w tokens
    cells, malformed, past = _values(full, starts[lo[0]:lo[0] + m * (1 + w)].reshape(m, 1 + w))
    bad[:m] |= _rows(malformed)
    win = win[:, :-1]
    bits = (win == 49) | (win == 40)  # '1' and '(' are 1, '0' and ')' are 0
    if not bad.any():
        bad = _rows(~(bits | (win == 48) | (win == 41))) | _rows(past)
    if bad.any():
        r = int(np.argmax(bad))
        line = text[start + ends[lines[r]]:start + ends[lines[r] + 1] - 1]
        raise _refusal(first + lines[r], line if isinstance(line, str) else line.decode(), n, w)
    return bits, cells, lines, int(ends[stop])


def _read_encoder(src: _Lines, n: int) -> TableEncoder:
    """The rows after ``encoder: table``: by stride when they share one byte layout, else
    token by token; either way a repeated input is refused here, naming both lines."""
    text, start = src.text, src.pos
    raw = text if isinstance(text, bytes) else text.encode("ascii", "replace")  # a byte a char
    first = raw.count(b"\n", 0, start) + 1  # the line number of the text at ``start``
    rows = _stride_rows(raw, start, n)
    if rows is None:
        full = _token_buffer(raw, start, n)
        del raw  # the token reader's passes write to its own copy of the bytes
        rows = _token_rows(text, full, start, n, first)
    bits, cells, lines, end = rows
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
