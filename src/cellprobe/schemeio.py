"""Line-oriented scheme files: read, write, and byte-stable round trips.

Layout (all integers decimal):

    n: 4
    u: 4
    q: 1
    cell_alphabet: 5
    domain: all_bitstrings
    kind: sum
    encoder: builtin:precomputed_sums cell_alphabet=5 n=4
    probes:
      0
      1
      2
      3
    decoders: builtin

Table-backed schemes replace the encoder line with ``encoder: table``
followed by ``<bits> -> <cell values>`` lines (inputs in lexicographic
order; one line per input, n bits, the same number of int64 values on
every line), and ``decoders: table`` followed by per-query blocks of
``<probe values> -> <answer>`` lines.  The empty probe set / value tuple is
written as ``-``.  A file written by this module, re-read and re-written,
reproduces its bytes exactly.
"""

from __future__ import annotations

from itertools import compress, takewhile

import numpy as np

from .bits import parse_bits
from .core import DOMAIN_ALL, DOMAIN_BAL, Scheme, TableDecoder, TableEncoder
from .errors import CellProbeError, ConsistencyError, ParameterError
from .infotheory import group_rows
from .schemes import build_builtin

_HEADER_KEYS = ("n", "u", "q", "cell_alphabet", "domain", "kind")

# byte -> bit for the characters of an input, -1 for any other byte
_BIT = np.full(256, -1, dtype=np.int8)
_BIT[list(b"01()")] = (0, 1, 1, 0)
_TEXT = np.ones(256, dtype=bool)
_TEXT[list(b" \t\n\r\x0b\x0c")] = False
_NONDIGIT = _TEXT.copy()
_NONDIGIT[list(b"0123456789")] = False


def _values_key(values: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in values) if values else "-"


def _format_builtin(tag: tuple) -> str:
    name, params = tag
    rendered = " ".join(f"{k}={v}" for k, v in params)
    return f"builtin:{name} {rendered}".rstrip()


def _encoder_lines(scheme: Scheme) -> list[str]:
    """The ``<bits> -> <values>`` lines of a table encoder, one string per 4,096 rows."""
    enc = scheme.encoder
    inputs, cells = (enc.inputs, enc.cells) if isinstance(enc, TableEncoder) else scheme.encoded()
    (k, n), u = inputs.shape, cells.shape[1]
    template = "\n  %s -> " + (" ".join(["%d"] * u) or "-")
    blocks = []
    for block in (slice(start, start + 4096) for start in range(0, k, 4096)):
        rows = np.empty((len(inputs[block]), 1 + u), dtype=object)
        rows[:, 0] = (inputs[block] + ord("0")).view(f"S{n}").ravel().astype(str)
        rows[:, 1:] = cells[block]
        blocks.append((template * len(rows) % tuple(rows.ravel()))[1:])
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
    lines = [
        f"n: {scheme.n}",
        f"u: {scheme.u}",
        f"q: {scheme.q}",
        f"cell_alphabet: {scheme.cell_alphabet}",
        f"domain: {scheme.domain}",
        f"kind: {scheme.kind}",
    ]
    if scheme.builtin is not None:
        lines.append(f"encoder: {_format_builtin(scheme.builtin)}")
    else:
        lines.append("encoder: table")
        lines.extend(_encoder_lines(scheme))
    lines.append("probes:")
    for probe in scheme.probes:
        lines.append(f"  {_values_key(probe)}")
    if scheme.builtin is not None:
        lines.append("decoders: builtin")
    else:
        lines.append("decoders: table")
        for i, (table, default) in enumerate(_decoder_tables(scheme), start=1):
            lines.append(f"  query {i}")
            if default:
                lines.append(f"    default {default}")
            for values in sorted(table):
                lines.append(f"    {_values_key(values)} -> {table[values]}")
    return "\n".join(lines) + "\n"


def save_scheme(scheme: Scheme, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_scheme(scheme))


class _Lines:
    def __init__(self, text: str):
        self.lines = [ln.rstrip() for ln in text.splitlines()]
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise ParameterError("scheme file ended early")
        self.pos += 1
        return line


def _parse_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "-":
        return ()
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParameterError(f"expected integers, got {text!r}") from None


def _refuse(bad, numbers: list[int], lines: list[str], n: int, width: int) -> None:
    """Raise for the first encoder row flagged ``bad``, naming its line."""
    if bad.any():
        r = int(np.argmax(bad))
        number, left, _, right = numbers[r] + 1, *lines[r].partition("->")
        try:
            parse_bits(left.strip()), _parse_values(right)
        except CellProbeError as err:
            raise type(err)(f"line {number}: {err}") from None
        raise ParameterError(f"line {number}: an encoder row holds {n} bits, '->' and {width} "
                             f"values in [-2^63, 2^63), got {lines[r].strip()!r}")


def _read_encoder(src: _Lines, n: int) -> TableEncoder:
    """The ``<bits> -> <values>`` rows after ``encoder: table``, parsed as one byte buffer."""
    start = src.pos
    src.pos += sum(1 for _ in takewhile(
        lambda line: not line or line.startswith("  ") and "->" in line, src.lines[start:]))
    numbers = list(compress(range(start, src.pos), src.lines[start:src.pos]))
    if not numbers:
        return TableEncoder({})
    lines, k = [src.lines[i] for i in numbers], len(numbers)
    # the '0' after the last newline is one token past every row
    buf = np.frombuffer(bytearray("\n".join([*lines, "0"]), "ascii", "replace"), dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    firsts = np.r_[0, ends[:-1] + 1]
    arrows = np.flatnonzero((buf[:-1] == 45) & (buf[1:] == 62))
    arrow = arrows[np.searchsorted(arrows, firsts)]
    buf[arrow] = buf[arrow + 1] = 32  # a row's first '->' ends its input
    # tokens are runs of text bytes; their bounds alternate start, stop (then size)
    text = _TEXT[buf]
    bounds = np.flatnonzero(np.diff(text.view(np.int8), prepend=np.int8(0), append=np.int8(0)))
    bounds[1::2] -= bounds[0::2]
    starts, size = bounds[0::2], bounds[1::2]
    # per row: its first token, its first token right of the arrow, the next row's first
    lo, mid, hi = (np.searchsorted(starts, at) for at in (firsts, arrow, ends))
    dash = (hi - mid == 1) & (buf[starts[mid]] == 45) & (size[mid] == 1)
    width = hi - mid - dash  # a lone '-' stands for no values
    w = int(np.bincount(width).argmax())  # the value count most rows have
    bad = (mid - lo != 1) | (size[lo] != n) | (width != w)
    # a non-digit byte right of the arrow must open a signed value or be a lone '-'
    odd = np.flatnonzero(_NONDIGIT[buf])
    row = np.searchsorted(firsts, odd, side="right") - 1
    odd, row = odd[odd > arrow[row]], row[odd > arrow[row]]
    digit_next = (buf[odd + 1] >= 48) & (buf[odd + 1] <= 57)
    sign = ((buf[odd] == 43) | (buf[odd] == 45)) & ~text[odd - 1] & digit_next
    bad[row[~(sign | dash[row])]] = True
    _refuse(bad, numbers, lines, n, w)
    window = np.lib.stride_tricks.sliding_window_view(buf, n, writeable=True)
    bits = _BIT[window[starts[lo]]]
    bad = (bits < 0).any(axis=1)
    # a value of 19 or more characters may pass int64: parse it exactly
    long = np.flatnonzero(size > 18)
    row = np.searchsorted(lo, long, side="right") - 1
    for t, r in zip(long[long >= mid[row]].tolist(), row[long >= mid[row]].tolist()):
        bad[r] |= not -2 ** 63 <= int(buf[starts[t]:starts[t] + size[t]].tobytes()) < 2 ** 63
    _refuse(bad, numbers, lines, n, w)
    window[starts[lo]] = buf[starts[mid[dash]]] = 32
    del text, bounds, starts, size  # the token arrays outweigh the values parsed next
    # fromstring reads blank text as one 0, so w = 0 skips it and the count is checked
    cells = np.fromstring(buf[:-1].tobytes(), np.int64, sep=" ") if w else np.zeros(0, np.int64)
    if cells.size != k * w:
        raise ParameterError(f"encoder table: read {cells.size} cell values, expected {k * w}")
    enc = TableEncoder.from_rows(bits, cells.reshape(k, w))
    same = np.flatnonzero((enc.inputs[1:] == enc.inputs[:-1]).all(axis=1))
    if len(same):
        first, again = np.flatnonzero((bits == enc.inputs[same[0]]).all(axis=1))[:2]
        raise ParameterError(f"line {numbers[again] + 1}: input repeats line {numbers[first] + 1}")
    return enc


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _parse_builtin(spec: str):
    head, _, rest = spec.partition(" ")
    name = head[len("builtin:"):]
    params = {}
    for tok in rest.split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ParameterError(f"malformed builtin parameter {tok!r}")
        params[key] = _parse_int(value, f"builtin parameter {key!r}")
    return name, params


def read_scheme(text: str) -> Scheme:
    """Parse a scheme document, rebuilding builtins and cross-checking headers."""
    src = _Lines(text)
    header: dict[str, str] = {}
    for key in _HEADER_KEYS:
        line = src.take()
        got_key, _, value = line.partition(":")
        if got_key.strip() != key:
            raise ParameterError(f"expected header {key!r}, got {line!r}")
        header[key] = value.strip()
    try:
        n = int(header["n"])
        u = int(header["u"])
        q = int(header["q"])
        alphabet = int(header["cell_alphabet"])
    except ValueError as exc:
        raise ParameterError(f"non-integer header field: {exc}") from None
    domain = header["domain"]
    if domain not in (DOMAIN_ALL, DOMAIN_BAL):
        raise ParameterError(f"unknown domain {domain!r}")
    kind = header["kind"]

    line = src.take()
    if not line.startswith("encoder:"):
        raise ParameterError(f"expected encoder line, got {line!r}")
    enc_spec = line.partition(":")[2].strip()
    builtin_params = None
    encoder = None
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
        actual = (
            scheme.n, scheme.u, scheme.q, scheme.cell_alphabet,
            scheme.domain, scheme.kind, scheme.probes,
        )
        if stated != actual:
            raise ConsistencyError(
                f"scheme file disagrees with builtin {name!r}: stated {stated}, built {actual}"
            )
        return scheme

    if dec_spec != "table":
        raise ParameterError("table encoder requires 'decoders: table'")
    decoders = []
    for i in range(1, n + 1):
        line = src.take()
        if line.strip() != f"query {i}":
            raise ParameterError(f"expected 'query {i}', got {line!r}")
        default = 0
        table = {}
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

    scheme = Scheme(
        n=n,
        u=u,
        cell_alphabet=alphabet,
        domain=domain,
        kind=kind,
        probes=probes,
        encoder=encoder,
        decoders=tuple(decoders),
    )
    if scheme.q != q:
        raise ConsistencyError(f"header says q={q} but probe sets give q={scheme.q}")
    return scheme


def load_scheme(path) -> Scheme:
    with open(path, "r", encoding="ascii") as fh:
        return read_scheme(fh.read())
