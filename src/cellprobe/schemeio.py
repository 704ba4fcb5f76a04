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
order), and ``decoders: table`` followed by per-query blocks of
``<probe values> -> <answer>`` lines.  The empty probe set / value tuple is
written as ``-``.  A file written by this module, re-read and re-written,
reproduces its bytes exactly.
"""

from __future__ import annotations

from .bits import bits_to_str, parse_bits
from .core import DOMAIN_ALL, DOMAIN_BAL, Scheme, TableDecoder, TableEncoder
from .errors import ConsistencyError, ParameterError
from .infotheory import group_rows
from .schemes import build_builtin

_HEADER_KEYS = ("n", "u", "q", "cell_alphabet", "domain", "kind")


def _values_key(values: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in values) if values else "-"


def _format_builtin(tag: tuple) -> str:
    name, params = tag
    rendered = " ".join(f"{k}={v}" for k, v in params)
    return f"builtin:{name} {rendered}".rstrip()


def _encoder_table(scheme: Scheme) -> dict:
    enc = scheme.encoder
    if isinstance(enc, TableEncoder):
        return dict(enc.table)
    bits, cells = scheme.encoded()
    return dict(zip(map(tuple, bits.tolist()), map(tuple, cells.tolist())))


def _decoder_tables(scheme: Scheme) -> list[tuple[dict, int]]:
    tables = []
    for probe, dec in zip(scheme.probes, scheme.decoders):
        if isinstance(dec, TableDecoder):
            tables.append((dict(dec.table), dec.default))
            continue
        values = scheme.encoded()[1][:, list(probe)]
        first, _ = group_rows(values)
        table = {tuple(v): dec(tuple(v)) for v in values[first].tolist()}
        tables.append((table, 0))
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
        table = _encoder_table(scheme)
        for x in sorted(table):
            lines.append(f"  {bits_to_str(x)} -> {_values_key(table[x])}")
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
        table = {}
        while (peeked := src.peek()) is not None and peeked.startswith("  ") and "->" in peeked:
            left, _, right = src.take().partition("->")
            table[parse_bits(left.strip())] = _parse_values(right)
        encoder = TableEncoder(table)
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
