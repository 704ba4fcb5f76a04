"""Non-adaptive cell-probe schemes: encoders, probe sets, decoders, restriction.

A scheme stores inputs from a domain (every bit string, or the balanced
bracket strings) in ``u`` cells over a fixed alphabet.  Query ``i`` reads only
the cells in its probe set and feeds their values, ordered by cell index, to
its decoder.  Queries are 1-indexed at the API surface; cells are 0-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice, product
from typing import Callable

import numpy as np

from .bits import Bits, prefix_sums, validate_bits
from .brackets import catalan_count, enumerate_bal, is_balanced, scan_matches
from .errors import (
    ConsistencyError,
    DomainError,
    ParameterError,
    RangeError,
    SizeError,
)
from .infotheory import group_rows

DOMAIN_ALL = "all_bitstrings"
DOMAIN_BAL = "balanced_brackets"

KIND_SUM = "sum"
KIND_MATCH = "match"

_ENCODE_CHUNK = 4096
# largest bits plus cells matrices one encoding may allocate
_ENCODE_BUDGET_BYTES = 2 << 30


def prefix_sum(x: Bits, i: int) -> int:
    """Ground-truth Sum(i): number of ones among the first i bits."""
    return sum(x[:i])


# Ground-truth Sum on every prefix; one implementation, kept under both names.
prefix_sum_all = prefix_sums


def match_all(x: Bits) -> tuple[int, ...]:
    """Ground-truth Match(i) for every position of a balanced string."""
    matches = scan_matches(x)
    if any(m is None for m in matches):
        raise DomainError("match oracle needs a balanced bracket string")
    return matches  # type: ignore[return-value]


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One byte-string key per row of a 0/1 matrix, for any width; keys sort as rows do."""
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


class TableEncoder:
    """Encoder backed by an explicit input -> cells table.

    Held as two row-aligned matrices sorted by input: ``inputs`` (k x n int8,
    distinct 0/1 rows) and ``cells`` (k x u int64).
    """

    __slots__ = ("inputs", "cells", "_keys")

    def __init__(self, table):
        n, u = (len(next(iter(rows), ())) for rows in (table, table.values()))
        if any(len(x) != n for x in table) or any(len(v) != u for v in table.values()):
            raise ConsistencyError("encoder table rows differ in length")
        try:
            inputs = np.frombuffer(bytes(chain.from_iterable(table)), dtype=np.uint8)
            cells = np.fromiter(chain.from_iterable(table.values()), np.int64, len(table) * u)
        except (TypeError, ValueError, OverflowError):
            inputs = None
        if inputs is None or (inputs > 1).any():
            raise ParameterError("encoder table needs 0/1 inputs and int64 cell values")
        k = len(table)
        rows = TableEncoder.from_rows(inputs.view(np.int8).reshape(k, n), cells.reshape(k, u))
        self.inputs, self.cells, self._keys = rows.inputs, rows.cells, rows._keys

    @classmethod
    def from_rows(cls, inputs: np.ndarray, cells: np.ndarray) -> TableEncoder:
        """The table mapping row r of ``inputs`` (0/1 rows) to row r of ``cells``, sorted."""
        self = cls.__new__(cls)
        keys = _row_keys(inputs)
        order = np.argsort(keys, kind="stable")
        self.inputs, self.cells, self._keys = inputs[order], cells[order], keys[order]
        return self

    def lookup(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, found)`` for every row of a 0/1 bits matrix, by one sorted-key search."""
        if not len(self._keys) or bits.shape[1] != self.inputs.shape[1]:
            return np.zeros((len(bits), self.cells.shape[1]), np.int64), np.zeros(len(bits), bool)
        keys = _row_keys(bits)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self.cells[pos], self._keys[pos] == keys

    def __call__(self, x: Bits) -> tuple[int, ...]:
        x = tuple(x)
        if len(x) == self.inputs.shape[1] and set(x) <= {0, 1}:
            cells, found = self.lookup(np.array([x], dtype=np.int8))
            if found[0]:
                return tuple(cells[0].tolist())
        raise DomainError(f"input {x} not present in the encoder table")

    def __eq__(self, other):
        return isinstance(other, TableEncoder) and (self.inputs.tolist(), self.cells.tolist()) == (
            other.inputs.tolist(), other.cells.tolist())


class TableDecoder:
    """Decoder backed by a probe-values -> answer table.

    Value tuples that never arise from the domain default to 0, keeping the
    decoder total without bloating serialized tables.
    """

    __slots__ = ("table", "default")

    def __init__(self, table, default: int = 0):
        self.table = {tuple(k): int(v) for k, v in table.items()}
        self.default = default

    def __call__(self, values: tuple[int, ...]) -> int:
        return self.table.get(tuple(values), self.default)

    def __eq__(self, other):
        return (
            isinstance(other, TableDecoder)
            and self.table == other.table
            and self.default == other.default
        )


def map_rows(fn, values: np.ndarray) -> np.ndarray:
    """``fn(tuple(row))`` for every row of an int matrix, one call per distinct row."""
    first, inverse = group_rows(values)
    out = np.asarray([fn(tuple(row)) for row in values[first].tolist()])
    return out[inverse]


def _normalize_probe(cells, u: int) -> tuple[int, ...]:
    probe = tuple(sorted(set(int(c) for c in cells)))
    if probe and not (0 <= probe[0] and probe[-1] < u):
        raise ParameterError(f"probe set {probe} not within cells [0, {u})")
    return probe


@dataclass(frozen=True, eq=False)
class Scheme:
    """A non-adaptive cell-probe data structure (Enc, Q, d).

    ``probes[i-1]`` is the sorted probe set of query i; decoder i receives the
    probed values in that same (ascending cell index) order.
    """

    n: int
    u: int
    cell_alphabet: int
    domain: str
    kind: str
    probes: tuple[tuple[int, ...], ...]
    encoder: Callable[[Bits], tuple[int, ...]]
    decoders: tuple[Callable[[tuple[int, ...]], int], ...]
    builtin: tuple | None = field(default=None)
    _domain: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.u < 0:
            raise ParameterError(f"u must be >= 0, got {self.u}")
        if self.cell_alphabet < 2:
            raise ParameterError(f"cell alphabet must be >= 2, got {self.cell_alphabet}")
        if self.domain not in (DOMAIN_ALL, DOMAIN_BAL):
            raise ParameterError(f"unknown domain {self.domain!r}")
        if self.kind not in (KIND_SUM, KIND_MATCH):
            raise ParameterError(f"unknown query kind {self.kind!r}")
        if self.kind == KIND_MATCH and self.domain != DOMAIN_BAL:
            raise ParameterError("match queries are only defined over balanced brackets")
        if self.domain == DOMAIN_BAL and self.n % 2:
            raise ParameterError("balanced bracket domain needs even n")
        if len(self.probes) != self.n:
            raise ParameterError(f"need {self.n} probe sets, got {len(self.probes)}")
        object.__setattr__(
            self, "probes", tuple(_normalize_probe(p, self.u) for p in self.probes)
        )
        if len(self.decoders) != self.n:
            raise ParameterError(f"need {self.n} decoders, got {len(self.decoders)}")

    @property
    def q(self) -> int:
        return max((len(p) for p in self.probes), default=0)

    def domain_size(self) -> int:
        if self.domain == DOMAIN_ALL:
            return 2 ** self.n
        return catalan_count(self.n)

    def inputs(self):
        """All domain elements in lexicographic order."""
        if self.domain == DOMAIN_ALL:
            yield from product((0, 1), repeat=self.n)
        else:
            yield from enumerate_bal(self.n)

    def contains(self, x) -> bool:
        try:
            x = validate_bits(x)
        except DomainError:
            return False
        if len(x) != self.n:
            return False
        return self.domain == DOMAIN_ALL or is_balanced(x)

    def encode(self, x: Bits) -> tuple[int, ...]:
        cells = self.encoder(x)
        if len(cells) != self.u:
            raise ConsistencyError(f"encoder produced {len(cells)} cells, scheme has {self.u}")
        m = self.cell_alphabet
        if cells and not (0 <= min(cells) and max(cells) < m):
            raise ConsistencyError(f"encoder output {cells} leaves the cell alphabet [0, {m})")
        return tuple(cells)

    def encoded(self, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The domain as ``(bits, cells)``: |X| x n bits and |X| x u int64 cells.

        Rows follow ``inputs()`` (lexicographic order).  The whole domain is
        encoded once and cached read-only on the scheme; with ``limit`` set
        below the domain size and nothing cached, only the first ``limit``
        inputs are encoded.
        """
        if limit is not None:
            limit = max(0, limit)
        if self._domain is None:
            if limit is not None and limit < self.domain_size():
                return self._encode(limit)
            object.__setattr__(self, "_domain", self._encode(None))
        bits, cells = self._domain
        return bits[:limit], cells[:limit]

    def _encode(self, limit: int | None) -> tuple[np.ndarray, np.ndarray]:
        total = self.domain_size()
        size = total if limit is None else min(limit, total)
        need = size * (self.n + 8 * self.u)
        if need > _ENCODE_BUDGET_BYTES:
            raise SizeError(
                f"encoding {size} inputs of a domain of {total} takes {need} bytes, over the "
                f"{_ENCODE_BUDGET_BYTES}-byte budget; encode a prefix with --max-inputs")
        bits = np.empty((size, self.n), dtype=np.int8)
        cells = np.empty((size, self.u), dtype=np.int64)
        inputs = None if self.domain == DOMAIN_ALL else self.inputs()
        # input number r has bit j at shift n-1-j; the budget keeps r < 2^63
        shifts = np.minimum(np.arange(self.n - 1, -1, -1), 63)
        for start in range(0, size, _ENCODE_CHUNK):
            stop = min(start + _ENCODE_CHUNK, size)
            if inputs is None:
                bits[start:stop] = np.arange(start, stop)[:, None] >> shifts & 1
            else:
                bits[start:stop] = list(islice(inputs, stop - start))
            cells[start:stop] = self._encode_rows(bits[start:stop])
        bits.flags.writeable = False
        cells.flags.writeable = False
        return bits, cells

    def _encode_rows(self, bits: np.ndarray) -> np.ndarray:
        """Cells of a block of domain rows; the first bad row raises as ``encode`` would."""
        if not isinstance(self.encoder, TableEncoder):
            encs = [self.encode(x) for x in map(tuple, bits.tolist())]
            return np.array(encs, dtype=np.int64).reshape(len(bits), self.u)
        cells, found = self.encoder.lookup(bits)
        in_alphabet = ((cells >= 0) & (cells < self.cell_alphabet)).all(axis=1)
        ok = found & in_alphabet & (cells.shape[1] == self.u)
        if not ok.all():
            self.encode(tuple(bits[int(np.argmin(ok))].tolist()))
        return cells

    def oracle_rows(self, bits: np.ndarray) -> np.ndarray:
        """Ground-truth answers (rows x n) for every row of a bits matrix."""
        if self.kind == KIND_SUM:
            return np.cumsum(bits, axis=1, dtype=np.int64)
        return np.array([match_all(x) for x in bits.tolist()], dtype=np.int64).reshape(bits.shape)

    def answer(self, x: Bits, i: int) -> int:
        cells = self.encode(x)
        probe = self.probes[i - 1]
        return self.decoders[i - 1](tuple(cells[c] for c in probe))

    def oracle_all(self, x: Bits) -> tuple[int, ...]:
        """Ground-truth answers for every query on x, per the scheme's kind."""
        if self.kind == KIND_SUM:
            return prefix_sum_all(x)
        return match_all(x)

    def __eq__(self, other):
        if not isinstance(other, Scheme):
            return NotImplemented
        header = (self.n, self.u, self.cell_alphabet, self.domain, self.kind, self.probes)
        if header != (other.n, other.u, other.cell_alphabet, other.domain, other.kind, other.probes):
            return False
        if self.builtin is not None or other.builtin is not None:
            return self.builtin == other.builtin
        return self.encoder == other.encoder and self.decoders == other.decoders


def answer_query(scheme: Scheme, x, i: int) -> int:
    """Sum(i) or Match(i) as the scheme computes it, with full input validation."""
    x = validate_bits(x)
    if not scheme.contains(x):
        raise DomainError(f"input {x} is outside the scheme's domain ({scheme.domain})")
    if not 1 <= i <= scheme.n:
        raise RangeError(f"query index {i} outside [1, {scheme.n}]")
    return scheme.answer(x, i)


def redundancy(scheme: Scheme) -> float:
    """Stored bits minus information-theoretic minimum: u*lg(alphabet) - lg|domain|."""
    size = scheme.domain_size()
    if size < 1:
        raise DomainError("scheme domain is empty")
    return scheme.u * math.log2(scheme.cell_alphabet) - math.log2(size)


@dataclass(frozen=True)
class Counterexample:
    x: Bits
    i: int
    got: int
    expected: int


@dataclass(frozen=True)
class VerificationReport:
    status: str                 # "pass" | "fail"
    checked: int                # (input, query) pairs examined
    inputs_checked: int
    failures: int
    counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def verify_scheme(scheme: Scheme, *, max_inputs: int | None = None) -> VerificationReport:
    """Exhaustively compare every scheme answer against the ground truth.

    Inputs run in lexicographic order (optionally capped at ``max_inputs``),
    queries in ascending order, so a reported counterexample is the first one.
    """
    bits, cells = scheme.encoded(max_inputs)
    # one query column at a time: Sum against a running prefix sum, Match
    # against one scan of every input
    matches = scheme.oracle_rows(bits) if scheme.kind == KIND_MATCH else None
    expected = np.zeros(len(bits), dtype=np.int64)
    failures = 0
    first: Counterexample | None = None
    first_row = len(bits)
    for i in range(1, scheme.n + 1):
        if matches is None:
            expected += bits[:, i - 1]
        else:
            expected = matches[:, i - 1]
        got = map_rows(scheme.decoders[i - 1], cells[:, list(scheme.probes[i - 1])])
        wrong = got != expected
        count = int(np.count_nonzero(wrong))
        failures += count
        # the earliest input wins; on a tie the earlier query, seen first, stays
        row = int(np.argmax(wrong)) if count else first_row
        if row < first_row:
            first_row = row
            first = Counterexample(x=tuple(bits[row].tolist()), i=i,
                                   got=int(got[row]), expected=int(expected[row]))
    status = "pass" if failures == 0 else "fail"
    return VerificationReport(status, len(bits) * scheme.n, len(bits), failures, first)


def _cell_set(scheme: Scheme, b_cells) -> tuple[int, ...]:
    b_sorted = tuple(sorted(set(int(c) for c in b_cells)))
    if b_sorted and not (0 <= b_sorted[0] and b_sorted[-1] < scheme.u):
        raise ParameterError(f"cell set {b_sorted} not within [0, {scheme.u})")
    return b_sorted


def _modal_rows(scheme: Scheme, b_sorted: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Modal value z of the cells in B and the domain rows that carry it."""
    _, cells = scheme.encoded()
    if not b_sorted:
        return (), np.arange(len(cells))
    first, inverse = group_rows(cells[:, list(b_sorted)])
    # groups are numbered in lexicographic order, so argmax breaks ties low
    best = int(np.argmax(np.bincount(inverse)))
    return tuple(cells[first[best], list(b_sorted)].tolist()), np.flatnonzero(inverse == best)


def most_likely_cell_values(scheme: Scheme, b_cells) -> tuple[tuple[int, ...], tuple[Bits, ...]]:
    """Modal value z of the cells in B over the domain, and its preimage set X.

    Ties go to the lexicographically smallest z.  The pigeonhole bound
    |X| >= |domain| / alphabet^|B| always holds for the returned X.
    """
    z, rows = _modal_rows(scheme, _cell_set(scheme, b_cells))
    return z, tuple(map(tuple, scheme.encoded()[0][rows].tolist()))


@dataclass(frozen=True, eq=False)
class RestrictedScheme:
    """A scheme with the cells in B hardwired to the fixed values z.

    ``rows`` indexes the surviving inputs in the base scheme's encoded
    domain.  ``reduced_probes`` keeps original cell indices;
    ``renamed_probes`` maps them into [0, u') over the surviving cells,
    matching the column order of ``cells()``.  On every surviving input the
    reduced decoders reproduce the base scheme's answers.
    """

    base: Scheme
    fixed_cells: tuple[int, ...]
    fixed_values: tuple[int, ...]
    rows: np.ndarray
    kept_cells: tuple[int, ...]
    reduced_probes: tuple[tuple[int, ...], ...]
    renamed_probes: tuple[tuple[int, ...], ...]

    @property
    def u_prime(self) -> int:
        return len(self.kept_cells)

    @property
    def surviving(self) -> tuple[Bits, ...]:
        """The surviving inputs X, as bit tuples."""
        return tuple(map(tuple, self.surviving_bits().tolist()))

    def surviving_bits(self) -> np.ndarray:
        """The surviving inputs as a |X| x n bits matrix."""
        return self.base.encoded()[0][self.rows]

    def cells(self) -> np.ndarray:
        """Enc'(x) for every surviving x, as a |X| x u' matrix (set Y)."""
        return self.base.encoded()[1][np.ix_(self.rows, self.kept_cells)]

    def restricted_encoding(self, x: Bits) -> tuple[int, ...]:
        cells = self.base.encode(x)
        return tuple(cells[c] for c in self.kept_cells)

    def encodings(self) -> tuple[tuple[int, ...], ...]:
        """Enc'(x) for every surviving x, in the surviving order (set Y)."""
        return tuple(map(tuple, self.cells().tolist()))

    def decode_reduced(self, i: int, values: tuple[int, ...]) -> int:
        """Apply d'_i: merge fixed cell values back in, then run the base decoder."""
        fixed = dict(zip(self.fixed_cells, self.fixed_values))
        probe = self.base.probes[i - 1]
        it = iter(values)
        merged = tuple(fixed[c] if c in fixed else next(it) for c in probe)
        return self.base.decoders[i - 1](merged)

    def answer(self, x: Bits, i: int) -> int:
        if not 1 <= i <= self.base.n:
            raise RangeError(f"query index {i} outside [1, {self.base.n}]")
        cells = self.base.encode(x)
        values = tuple(cells[c] for c in self.reduced_probes[i - 1])
        return self.decode_reduced(i, values)

    def preserves_answers(self) -> bool:
        """Whether d'_i equals d_i on every surviving input."""
        cells, rows = self.base.encoded()[1], self.rows
        for i, (probe, reduced) in enumerate(zip(self.base.probes, self.reduced_probes), start=1):
            base = map_rows(self.base.decoders[i - 1], cells[np.ix_(rows, probe)])
            mine = map_rows(lambda v, i=i: self.decode_reduced(i, v), cells[np.ix_(rows, reduced)])
            if not np.array_equal(mine, base):
                return False
        return True


def _domain_rows(scheme: Scheme, xs) -> np.ndarray:
    bits, _ = scheme.encoded()
    index = {x: k for k, x in enumerate(map(tuple, bits.tolist()))}
    try:
        return np.array([index[x] for x in xs], dtype=np.int64)
    except KeyError as err:
        raise DomainError(f"input {err.args[0]} is outside the scheme's domain") from None


def restrict_scheme(scheme: Scheme, b_cells, z=None, survivors=None) -> RestrictedScheme:
    """Fix the cells in B to z and keep only the inputs X that agree with z.

    With z/survivors omitted they default to the most likely value and its
    preimage.  Supplying an x whose encoding disagrees with z is an error.
    """
    b_sorted = _cell_set(scheme, b_cells)
    if z is None or survivors is None:
        z, rows = _modal_rows(scheme, b_sorted)
    else:
        z = tuple(z)
        survivors = tuple(tuple(x) for x in survivors)
        if len(z) != len(b_sorted):
            raise ConsistencyError(f"{len(b_sorted)} cells fixed but {len(z)} values given")
        rows = _domain_rows(scheme, survivors)
        agree = (scheme.encoded()[1][np.ix_(rows, b_sorted)] == np.array(z, dtype=np.int64)).all(axis=1)
        if not agree.all():
            x = survivors[int(np.argmin(agree))]
            raise ConsistencyError(f"input {x} does not have value {z} on cells {b_sorted}")
    b_set = set(b_sorted)
    kept = tuple(c for c in range(scheme.u) if c not in b_set)
    rename = {c: idx for idx, c in enumerate(kept)}
    reduced = tuple(tuple(c for c in probe if c not in b_set) for probe in scheme.probes)
    renamed = tuple(tuple(rename[c] for c in probe) for probe in reduced)
    return RestrictedScheme(
        base=scheme,
        fixed_cells=b_sorted,
        fixed_values=z,
        rows=rows,
        kept_cells=kept,
        reduced_probes=reduced,
        renamed_probes=renamed,
    )


def check_restriction(rs: RestrictedScheme) -> bool:
    """Exhaustive answer-preservation check over the surviving inputs."""
    return rs.preserves_answers()
