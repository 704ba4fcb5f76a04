"""Non-adaptive cell-probe schemes: encoders, probe sets, decoders, restriction.

A scheme stores inputs from a domain (every bit string, or the balanced
bracket strings) in ``u`` cells over a fixed alphabet.  Query ``i`` reads only
the cells in its probe set and feeds their values, ordered by cell index, to
its decoder.  Queries are 1-indexed at the API surface; cells are 0-indexed.

Encoders and decoders work on matrices, one row per input: an encoder maps a
k x n int8 bits matrix to a k x u integer cells matrix, and decoder i maps a
k x |probe i| int64 matrix of probed values to a length-k integer column.
Between the two, an encoded domain holds its cells in ``cell_dtype`` of the
alphabet, one byte a cell up to 256 values: checked in the encoder's own integer
type (int64 for any other output) before they are stored, and widened back to
int64 for each decoder.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np

from .bits import Bits, validate_bits
from .brackets import balanced, catalan_count, partners, unrank_balanced
from .errors import (
    ConsistencyError,
    DomainError,
    ParameterError,
    RangeError,
    SizeError,
)
from .infotheory import _integers, cell_dtype, fold_rows, group_rows, is_dense
from .textfmt import fmt_short

DOMAIN_ALL = "all_bitstrings"
DOMAIN_BAL = "balanced_brackets"

KIND_SUM = "sum"
KIND_MATCH = "match"

_ENCODE_CHUNK = 4096
# the one size cap: the most one encoding or listing of a domain may allocate
_ENCODE_BUDGET_BYTES = 2 << 30


def check_budget(need: int, what: str, advice: str = "") -> None:
    """Refuse, before allocating it, ``need`` bytes for ``what`` past the budget."""
    if need > _ENCODE_BUDGET_BYTES:
        raise SizeError(f"{what} takes {fmt_short(need)} bytes, over the "
                        f"{_ENCODE_BUDGET_BYTES}-byte budget{advice}")


@dataclass(frozen=True)
class Domain:
    """A domain addressed by rank: ``size`` inputs in lexicographic order (0 < 1), and
    ``rows(start, stop)`` the int8 bits block of ranks start..stop-1."""

    size: int
    rows: Callable[[int, int], np.ndarray]


def domain_of(name: str, n: int) -> Domain:
    """The domain ``name`` (``DOMAIN_ALL`` or ``DOMAIN_BAL``) of length-n strings.

    A row of the bit strings is its rank's bits, the big-endian bytes of the rank
    unpacked; a rank is an int64, so past 64 bits every one is a leading zero.  A block
    of balanced strings prices the ballot numbers it is unranked by before they are built.
    """
    if name == DOMAIN_BAL:
        return Domain(catalan_count(n), partial(_balanced_rows, n))
    return Domain(2 ** n, partial(_bitstring_rows, n))


def _bitstring_rows(n: int, start: int, stop: int) -> np.ndarray:
    size = min(n, 64)
    used = -(-size // 8)  # the rank's last bytes, which hold its last ``size`` bits
    ranks = np.arange(start, stop, dtype=np.uint64).astype(">u8").view(np.uint8)
    ranks = ranks.reshape(-1, 8)[:, 8 - used:]
    bits = np.unpackbits(ranks, axis=1).view(np.int8)[:, 8 * used - size:]
    if n == size:
        return bits
    rows = np.zeros((len(bits), n), dtype=np.int8)
    rows[:, n - size:] = bits
    return rows


def _balanced_rows(n: int, start: int, stop: int) -> np.ndarray:
    check_budget(8 * (n + 1) * (n + 3),
                 f"unranking the balanced strings of length {n} by their ballot numbers")
    return unrank_balanced(n, start, stop)


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
    distinct 0/1 rows) and ``cells`` (k x u), in ``cell_dtype`` of one past the
    largest value when none is negative, else int64.  It hands out cells of that type.
    A dict's cells are read as bytes when every value lies in 0..255, else as int64.
    """

    __slots__ = ("inputs", "cells", "_keys")

    def __init__(self, table):
        widths = []
        for rows in (table, table.values()):
            lengths = set(map(len, rows)) or {0}
            if len(lengths) > 1:
                raise ConsistencyError("encoder table rows differ in length")
            widths += lengths
        n, u = widths
        try:
            inputs = np.frombuffer(bytes(chain.from_iterable(table)), dtype=np.uint8)
            try:  # cells in 0..255 are the uint8 cells from_rows would narrow to
                cells = np.frombuffer(bytes(chain.from_iterable(table.values())), np.uint8)
            except (TypeError, ValueError):  # past a byte, or a float or numeral int64 takes
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
        if not cells.size or cells.min() >= 0:
            cells = cells.astype(cell_dtype(int(cells.max(initial=0)) + 1), copy=False)
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
    decoder total without bloating serialized tables.  Answers are int64.  On the
    first call with rows of a width, the table's keys of that width are laid out once
    as an answer per slot of their key space, and every call looks its rows up there.
    """

    __slots__ = ("table", "default", "_slots")

    def __init__(self, table, default: int = 0):
        self.table = {tuple(k): int(v) for k, v in table.items()}
        self.default = int(default)
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (*self.table.values(), self.default)):
            raise ParameterError("decoder answers must lie in [-2^63, 2^63)")
        self._slots = {}

    def _slot_answers(self, w: int):
        """``(lo, radix, answers)`` for rows of w values, built on first use: each key of
        w values folded base radix from lo and its answer at that slot, the default at
        every other.  None when a key of w values is no int64 tuple, or their key space
        is not small beside them."""
        if w not in self._slots:
            keys = [key for key in self.table if len(key) == w]
            try:
                matrix = np.array([[operator.index(v) for v in key] for key in keys],
                                  dtype=np.int64).reshape(len(keys), w)
            except (TypeError, OverflowError):
                matrix = None
            slots = None
            if matrix is not None:
                lo = int(matrix.min()) if matrix.size else 0
                radix = int(matrix.max()) - lo + 1 if matrix.size else 1
                if is_dense(radix ** w, len(keys)):
                    answers = np.full(radix ** w, self.default, dtype=np.int64)
                    answers[fold_rows(matrix, radix, lo)] = [self.table[key] for key in keys]
                    slots = lo, radix, answers
            self._slots[w] = slots
        return self._slots[w]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The answer for every row of a values matrix.

        A row folds into its slot of the table's answers for rows of its width, and a
        row with a value outside the table's keys takes the default.  Without such
        answers, the rows are grouped by ``group_rows``'s sort and each distinct row is
        looked up once.
        """
        values = np.asarray(values, dtype=np.int64)
        slots = self._slot_answers(values.shape[1])
        if slots is None:
            first, inverse = group_rows(values)
            out = [self.table.get(tuple(row), self.default) for row in values[first].tolist()]
            return np.array(out, dtype=np.int64)[inverse]
        lo, radix, answers = slots
        hi = lo + radix - 1
        if not values.size or lo <= values.min() and values.max() <= hi:
            return answers.take(fold_rows(values, radix, lo))
        out = answers.take(fold_rows(np.clip(values, lo, hi), radix, lo))
        out[((values < lo) | (values > hi)).any(axis=1)] = self.default
        return out

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
        if self.domain == DOMAIN_BAL and self.n % 2:  # decided without counting the domain
            raise ParameterError(f"balanced strings need even non-negative length, got {self.n}")
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
        return domain_of(self.domain, self.n).size

    def encode(self, x: Bits) -> tuple[int, ...]:
        """Enc(x) for one input of the domain, checked as every encoded block is."""
        x = validate_bits(x)
        row = np.array([x], dtype=np.int8)
        if len(x) != self.n or not (self.domain == DOMAIN_ALL or balanced(row)[0]):
            raise DomainError(f"input {x} is outside the scheme's domain ({self.domain})")
        return tuple(self._encode_rows(row)[0].tolist())

    def encoded(self, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The domain as ``(bits, cells)``: |X| x n int8 bits and |X| x u cells in
        ``cell_dtype(cell_alphabet)``, uint8 up to 256 values.

        Rows follow the domain's lexicographic order.  The whole domain is
        encoded once and cached read-only on the scheme; with ``limit`` set
        below the domain size and nothing cached, only the first ``limit``
        inputs are encoded.
        """
        if self._domain is None:
            dtype = cell_dtype(self.cell_alphabet)
            row, advice = self.n + dtype.itemsize * self.u, "; encode a prefix with --max-inputs"
            # a balanced domain holds at least 2^(n/2 - 1) strings, priced before they are counted
            if limit is None and self.domain == DOMAIN_BAL:
                check_budget(2 ** (self.n // 2 - 1) * row,
                             f"encoding the balanced strings of length {self.n}", advice)
            domain = domain_of(self.domain, self.n)
            size = domain.size if limit is None else min(limit, domain.size)
            what = f"encoding {fmt_short(size)} inputs of a domain of {fmt_short(domain.size)}"
            check_budget(size * row, what, advice)
            bits = np.empty((size, self.n), dtype=np.int8)
            cells = np.empty((size, self.u), dtype=dtype)
            for start in range(0, size, _ENCODE_CHUNK):
                stop = min(start + _ENCODE_CHUNK, size)
                block = domain.rows(start, stop)
                bits[start:stop] = block
                # checked within [0, m), so the narrow type holds every value
                cells[start:stop] = self._encode_rows(block)
            bits.flags.writeable = False
            cells.flags.writeable = False
            if size < domain.size:
                return bits, cells
            object.__setattr__(self, "_domain", (bits, cells))
        bits, cells = self._domain
        return bits[:limit], cells[:limit]

    def _encode_rows(self, bits: np.ndarray) -> np.ndarray:
        """Cells of a block of inputs, checked; the first bad row raises.

        An integer output (any but uint64) is checked and handed back in its own type,
        anything else as int64.  An input the encoder refuses is found by halving the
        block, so that a bad row before it is still the one reported.
        """
        try:
            cells = _integers(self.encoder(bits))
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
        # rows walked only to name one; m is compared as a Python int, which no type bounds
        if cells.size and not 0 <= int(cells.min()) <= int(cells.max()) < m:
            ok = ((cells >= 0) & (cells < m)).all(axis=1)
            row = tuple(cells[int(np.argmin(ok))].tolist())
            raise ConsistencyError(f"encoder output {row} leaves the cell alphabet [0, {m})")
        return cells

    def decode(self, i: int, values: np.ndarray) -> np.ndarray:
        """Decoder i on a k x |probe| matrix of probed values, handed over as int64: a
        length-k integer column."""
        got = np.asarray(self.decoders[i - 1](np.asarray(values, dtype=np.int64)))
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
    # one query column at a time: Sum against a running prefix sum, Match against the
    # position-major partner table, in the narrowest type that holds n
    matches = partners(bits).T if scheme.kind == KIND_MATCH else None
    expected = np.zeros(len(bits), dtype=np.int64)
    failures = 0
    first: Counterexample | None = None
    first_row = len(bits)
    for i in range(1, scheme.n + 1):
        if matches is None:
            expected += bits[:, i - 1]
        else:
            expected = matches[i - 1]
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
        """The surviving inputs X as a |X| x n bits matrix; with no cell fixed, the
        scheme's cached read-only bits themselves."""
        bits = self.base.encoded()[0]
        return bits[self.rows] if self.fixed_cells else bits

    def cells(self) -> np.ndarray:
        """Enc'(x) for every surviving x, as a |X| x u' matrix (set Y); with no cell fixed,
        the scheme's cached read-only cells themselves."""
        cells = self.base.encoded()[1]
        return cells[np.ix_(self.rows, self.kept_cells)] if self.fixed_cells else cells

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

        d_i is decoded once on the base side, over every surviving row, which
        also checks the decoder's output.  d'_i decodes the values that
        ``probe_values`` rebuilds, so it is decoded only on the rows where they
        differ from the base's values; by construction of X there are none.  A
        probe that holds no fixed cell rebuilds its own values and is not compared.
        """
        cells, fixed = self.base.encoded()[1], set(self.fixed_cells)
        for i, (probe, reduced) in enumerate(zip(self.base.probes, self.reduced_probes), start=1):
            values = cells[np.ix_(self.rows, probe)] if fixed else cells[:, list(probe)]
            base = self.base.decode(i, values)
            if fixed.isdisjoint(probe):
                continue
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
