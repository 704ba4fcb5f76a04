"""Non-adaptive cell-probe schemes: encoders, probe sets, decoders, restriction.

A scheme stores inputs from a domain (every bit string, or the balanced
bracket strings) in ``u`` cells over a fixed alphabet.  Query ``i`` reads only
the cells in its probe set and feeds their values, ordered by cell index, to
its decoder.  Queries are 1-indexed at the API surface; cells are 0-indexed.

Encoders and decoders work on matrices, one row per input: an encoder maps a
k x n int8 bits matrix to a k x u int64 cells matrix, and decoder i maps a
k x |probe i| int64 matrix of probed values to a length-k integer column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .bits import Bits, validate_bits
from .brackets import balanced_rows, catalan_count, is_balanced, match_rows
from .errors import (
    ConsistencyError,
    DomainError,
    ParameterError,
    RangeError,
    SizeError,
)
from .infotheory import fold_rows, group_rows, is_dense

DOMAIN_ALL = "all_bitstrings"
DOMAIN_BAL = "balanced_brackets"

KIND_SUM = "sum"
KIND_MATCH = "match"

_ENCODE_CHUNK = 4096
# largest bits plus cells matrices one encoding may allocate
_ENCODE_BUDGET_BYTES = 2 << 30


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One byte-string key per row of a 0/1 matrix, for any width; keys sort as rows do."""
    (k, n), width = bits.shape, -(-bits.shape[1] // 8)
    padded = np.zeros((k, 8 * width), dtype=np.uint8)  # whole bytes, so one flat pack
    padded[:, :n] = bits
    packed = np.packbits(padded.reshape(-1)).reshape(k, width)
    return packed.view(np.dtype((np.void, width))).ravel()


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
        # keys compare as byte strings in the order they sort; a written table is in order
        strings = keys.view(f"S{keys.itemsize}")
        ordered = (strings[1:] >= strings[:-1]).all()
        order = slice(None) if ordered else np.argsort(keys, kind="stable")
        self.inputs, self.cells, self._keys = inputs[order], cells[order], keys[order]
        # __call__ hands out slices of the table
        self.inputs.flags.writeable = self.cells.flags.writeable = False
        return self

    def __call__(self, bits: np.ndarray) -> np.ndarray:
        """The cells of every row of a 0/1 bits matrix.

        A block that is a run of the table's own rows in order, as ``Scheme.encoded()``
        asks for, is found by its first key and read as one slice; any other block
        is looked up row by row with one sorted-key search.
        """
        found = np.zeros(len(bits), dtype=bool)
        pos = np.zeros(len(bits), dtype=np.int64)
        if len(self._keys) and bits.shape[1] == self.inputs.shape[1]:
            start = int(np.searchsorted(self._keys, _row_keys(bits[:1]))[0]) if len(bits) else 0
            run = slice(start, start + len(bits))
            if np.array_equal(self.inputs[run], bits):
                return self.cells[run]
            keys = _row_keys(bits)
            pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            found = self._keys[pos] == keys
        if not found.all():
            x = tuple(bits[int(np.argmin(found))].tolist())
            raise DomainError(f"input {x} not present in the encoder table")
        return self.cells[pos]

    def __eq__(self, other):
        return isinstance(other, TableEncoder) and (self.inputs.tolist(), self.cells.tolist()) == (
            other.inputs.tolist(), other.cells.tolist())


class TableDecoder:
    """Decoder backed by a probe-values -> answer table.

    Value tuples that never arise from the domain default to 0, keeping the
    decoder total without bloating serialized tables.  Answers are int64.
    """

    __slots__ = ("table", "default")

    def __init__(self, table, default: int = 0):
        self.table = {tuple(k): int(v) for k, v in table.items()}
        self.default = int(default)
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (*self.table.values(), self.default)):
            raise ParameterError("decoder answers must lie in [-2^63, 2^63)")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The answer for every row of a values matrix, one lookup per distinct row.

        Each row folds into one base-radix key.  While the key space is small beside
        the rows, the keys present are found by counting and each is looked up once;
        past that, the rows are grouped by ``group_rows``'s sort.
        """
        values = np.asarray(values, dtype=np.int64)
        (k, w), get = values.shape, self.table.get
        lo = int(values.min()) if values.size else 0
        radix = int(values.max()) - lo + 1 if values.size else 1
        space = radix ** w
        if not is_dense(space, k):
            first, inverse = group_rows(values)
            out = [get(tuple(row), self.default) for row in values[first].tolist()]
            return np.array(out, dtype=np.int64)[inverse]
        key = fold_rows(values, radix, lo)
        present = np.flatnonzero(np.bincount(key, minlength=space))
        rows = present[:, None] // radix ** np.arange(w - 1, -1, -1) % radix + lo
        answers = np.zeros(space, dtype=np.int64)
        answers[present] = [get(row, self.default) for row in map(tuple, rows.tolist())]
        return answers[key]

    def __eq__(self, other):
        return (
            isinstance(other, TableDecoder)
            and self.table == other.table
            and self.default == other.default
        )


def _normalize_probe(cells, u: int) -> tuple[int, ...]:
    probe = tuple(sorted(set(int(c) for c in cells)))
    if probe and not (0 <= probe[0] and probe[-1] < u):
        raise ParameterError(f"probe set {probe} not within cells [0, {u})")
    return probe


@dataclass(frozen=True, eq=False)
class Scheme:
    """A non-adaptive cell-probe data structure (Enc, Q, d).

    ``probes[i-1]`` is the sorted probe set of query i; decoder i receives the
    probed values in that same (ascending cell index) order, one row per input.
    """

    n: int
    u: int
    cell_alphabet: int
    domain: str
    kind: str
    probes: tuple[tuple[int, ...], ...]
    encoder: Callable[[np.ndarray], np.ndarray]
    decoders: tuple[Callable[[np.ndarray], np.ndarray], ...]
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

    def encode(self, x: Bits) -> tuple[int, ...]:
        """Enc(x) for one input of the domain, checked as every encoded block is."""
        x = validate_bits(x)
        if len(x) != self.n or not (self.domain == DOMAIN_ALL or is_balanced(x)):
            raise DomainError(f"input {x} is outside the scheme's domain ({self.domain})")
        return tuple(self._encode_rows(np.array([x], dtype=np.int8))[0].tolist())

    def encoded(self, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The domain as ``(bits, cells)``: |X| x n bits and |X| x u int64 cells.

        Rows follow the domain's lexicographic order.  The whole domain is
        encoded once and cached read-only on the scheme; with ``limit`` set
        below the domain size and nothing cached, only the first ``limit``
        inputs are encoded.
        """
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
        balanced = None if self.domain == DOMAIN_ALL else balanced_rows(self.n)
        # input number r has bit j at shift n-1-j; the budget keeps r < 2^63
        shifts = np.minimum(np.arange(self.n - 1, -1, -1), 63)
        for start in range(0, size, _ENCODE_CHUNK):
            stop = min(start + _ENCODE_CHUNK, size)
            if balanced is None:
                bits[start:stop] = np.arange(start, stop)[:, None] >> shifts & 1
            else:
                bits[start:stop] = balanced[start:stop]
            cells[start:stop] = self._encode_rows(bits[start:stop])
        bits.flags.writeable = False
        cells.flags.writeable = False
        return bits, cells

    def _encode_rows(self, bits: np.ndarray) -> np.ndarray:
        """Cells of a block of inputs, checked; the first bad row raises.

        An input the encoder refuses is found by halving the block, so that a
        bad row before it is still the one reported.
        """
        try:
            cells = np.asarray(self.encoder(bits), dtype=np.int64)
        except DomainError:
            if len(bits) <= 1:
                raise
            half = len(bits) // 2
            return np.concatenate((self._encode_rows(bits[:half]), self._encode_rows(bits[half:])))
        if cells.ndim != 2 or len(cells) != len(bits):
            raise ConsistencyError(f"encoder gave a {cells.shape} array for {len(bits)} inputs")
        if cells.shape[1] != self.u:
            raise ConsistencyError(f"encoder produced {cells.shape[1]} cells, scheme has {self.u}")
        m = self.cell_alphabet
        ok = ((cells >= 0) & (cells < m)).all(axis=1)
        if not ok.all():
            row = tuple(cells[int(np.argmin(ok))].tolist())
            raise ConsistencyError(f"encoder output {row} leaves the cell alphabet [0, {m})")
        return cells

    def decode(self, i: int, values: np.ndarray) -> np.ndarray:
        """Decoder i on a k x |probe| matrix of probed values: a length-k integer column."""
        got = np.asarray(self.decoders[i - 1](values))
        if got.shape != (len(values),) or got.dtype.kind not in "iu":
            raise ConsistencyError(f"query {i}: decoder gave a {got.dtype} array of shape "
                                   f"{got.shape} for {len(values)} rows, not one integer per row")
        return got

    def _query(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise RangeError(f"query index {i} outside [1, {self.n}]")
        return self.probes[i - 1]

    def answer(self, x: Bits, i: int) -> int:
        """Sum(i) or Match(i) on x as the scheme computes it, with full input validation."""
        cells = self.encode(x)
        return int(self.decode(i, np.array([[cells[c] for c in self._query(i)]], dtype=np.int64))[0])

    def __eq__(self, other):
        if not isinstance(other, Scheme):
            return NotImplemented
        header = (self.n, self.u, self.cell_alphabet, self.domain, self.kind, self.probes)
        if header != (other.n, other.u, other.cell_alphabet, other.domain, other.kind, other.probes):
            return False
        if self.builtin is not None or other.builtin is not None:
            return self.builtin == other.builtin
        return self.encoder == other.encoder and self.decoders == other.decoders


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
    if max_inputs is not None and max_inputs < 1:
        raise ParameterError(f"max_inputs must be >= 1, got {max_inputs}")
    bits, cells = scheme.encoded(max_inputs)
    # one query column at a time: Sum against a running prefix sum, Match
    # against one scan of every input
    matches = match_rows(bits) if scheme.kind == KIND_MATCH else None
    expected = np.zeros(len(bits), dtype=np.int64)
    failures = 0
    first: Counterexample | None = None
    first_row = len(bits)
    for i in range(1, scheme.n + 1):
        if matches is None:
            expected += bits[:, i - 1]
        else:
            expected = matches[:, i - 1]
        got = scheme.decode(i, cells[:, list(scheme.probes[i - 1])])
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

    def surviving_bits(self) -> np.ndarray:
        """The surviving inputs X as a |X| x n bits matrix."""
        return self.base.encoded()[0][self.rows]

    def cells(self) -> np.ndarray:
        """Enc'(x) for every surviving x, as a |X| x u' matrix (set Y)."""
        return self.base.encoded()[1][np.ix_(self.rows, self.kept_cells)]

    def decode_reduced(self, i: int, values: np.ndarray) -> np.ndarray:
        """Apply d'_i to a k x |reduced probe| matrix: put the fixed values back, then decode."""
        return self.base.decode(i, self.probe_values(i, values))

    def probe_values(self, i: int, values: np.ndarray) -> np.ndarray:
        """Query i's full k x |probe| values: the reduced probe's values with the fixed ones
        put back in their slots."""
        fixed = dict(zip(self.fixed_cells, self.fixed_values))
        probe = self.base.probes[i - 1]
        merged = np.tile(np.array([fixed.get(c, 0) for c in probe], dtype=np.int64), (len(values), 1))
        merged[:, [k for k, c in enumerate(probe) if c not in fixed]] = values
        return merged

    def answer(self, x: Bits, i: int) -> int:
        self.base._query(i)
        cells = self.base.encode(x)
        values = np.array([[cells[c] for c in self.reduced_probes[i - 1]]], dtype=np.int64)
        return int(self.decode_reduced(i, values)[0])

    def preserves_answers(self) -> bool:
        """Whether d'_i equals d_i on every surviving input.

        d_i is decoded once on the base side.  d'_i decodes the values that
        ``probe_values`` rebuilds, so it is decoded only on the rows where they
        differ from the base's values; by construction of X there are none.
        """
        cells, rows = self.base.encoded()[1], self.rows
        for i, (probe, reduced) in enumerate(zip(self.base.probes, self.reduced_probes), start=1):
            values = cells[np.ix_(rows, probe)]
            base = self.base.decode(i, values)
            rebuilt = self.probe_values(i, values[:, [probe.index(c) for c in reduced]])
            moved = (rebuilt != values).any(axis=1)
            if moved.any() and not np.array_equal(self.base.decode(i, rebuilt[moved]), base[moved]):
                return False
        return True


def restrict_scheme(scheme: Scheme, b_cells) -> RestrictedScheme:
    """Fix the cells in B to their most likely joint value z and keep the inputs X that carry it.

    Ties go to the lexicographically smallest z.  The pigeonhole bound
    |X| >= |domain| / alphabet^|B| always holds.
    """
    b_sorted = tuple(sorted(set(int(c) for c in b_cells)))
    if b_sorted and not (0 <= b_sorted[0] and b_sorted[-1] < scheme.u):
        raise ParameterError(f"cell set {b_sorted} not within [0, {scheme.u})")
    _, cells = scheme.encoded()
    z, rows = (), np.arange(len(cells))
    if b_sorted:
        first, inverse = group_rows(cells[:, list(b_sorted)])
        # groups are numbered in lexicographic order, so argmax breaks ties low
        best = int(np.argmax(np.bincount(inverse)))
        z, rows = tuple(cells[first[best], list(b_sorted)].tolist()), np.flatnonzero(inverse == best)
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
