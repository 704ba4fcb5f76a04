"""Exact entropy and statistical-distance toolkit over explicit finite distributions.

A distribution is held as integer counts: its distinct outcomes are the rows
of an integer matrix (int64, or the narrower type it was built from) and each
row's probability is its count over one common denominator.  Probabilities given as exact rationals stay exact; entropies
are real-valued (bits, base-2 logs).  Inequality checks elsewhere in the
package compare against these values with a 1e-9 tolerance.

The measurements bucket counts with numpy and make a ``Fraction`` only for
a value they return.  Each float they return is the one the ``Fraction``
route gives, bit for bit: a ratio is reduced by its gcd before its log is
taken, and sums go through ``fsum``, which rounds exactly and so does not
depend on order.  A sum of n equal terms is taken as n times the term: the
exact sum is that product, and one float multiplication rounds it correctly,
as ``fsum`` does (with ``fsum``'s +0.0 for a sum of -0.0 terms).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, compress, islice
from math import fsum
from numbers import Rational

import numpy as np

from .errors import ConsistencyError, DomainError, ParameterError, RangeError, SizeError
from .textfmt import fmt_short

Outcome = tuple[int, ...]

# most q-subsets good_cells counts one by one; past it, SizeError unless the support bound decides
_SUBSET_LIMIT = 200_000
# rows ``fold_rows`` widens to int64, and ``prefix_runs`` compares, at a time
_FOLD_ROWS = 1 << 14
# bytes of the block ``_product_tallies`` (float64 indicators) and ``distinct_rows``
# (padded row bytes) build at a time
_BLOCK_BYTES = 1 << 20
# the odd multiplier of ``distinct_rows``' wrapped row keys
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _outcome_matrix(outcomes) -> np.ndarray:
    """The outcomes as the rows of a k x arity int64 matrix; each entry must be an int64."""
    rows = []
    for outcome in outcomes:
        try:
            row = tuple(operator.index(v) for v in outcome)
        except TypeError as err:
            raise DomainError(f"outcome {outcome!r} is not a tuple of integers") from err
        if any(not -2 ** 63 <= v < 2 ** 63 for v in row):
            raise DomainError(f"outcome {outcome!r} holds a value past int64")
        rows.append(row)
    if not rows:
        raise ParameterError("distribution needs at least one outcome of positive mass")
    arity = len(rows[0])
    if any(len(row) != arity for row in rows):
        raise DomainError("distribution outcomes must share one arity")
    return np.array(rows, dtype=np.int64).reshape(len(rows), arity)


class Distribution:
    """Finite probability mass function over equal-length int tuples.

    ``rows`` is a k x arity integer matrix of the distinct outcomes in
    lexicographic order, int64 or the narrower integer type ``from_rows`` was
    given, and ``counts[r] / denom`` the probability of row r.  Only
    ``on_distinct_rows`` may hold rows in another order, for readers of no row order.
    Counts are int64 while ``denom`` fits int64 and Python ints beyond.
    Zero-probability outcomes are dropped on construction.
    """

    __slots__ = ("rows", "counts", "denom", "_runs")

    def __init__(self, pmf):
        outcomes, probs = [], []
        for outcome, p in pmf.items():
            if not isinstance(p, Rational):
                raise ParameterError(f"probability {p!r} for {outcome} is not an exact rational")
            if p < 0:
                raise ParameterError(f"negative probability {fmt_short(p)} for {outcome}")
            if p:
                outcomes.append(outcome)
                probs.append(Fraction(p))
        rows = _outcome_matrix(outcomes)
        total = sum(probs)
        if total != 1:
            raise ParameterError(f"probabilities sum to {fmt_short(total)}, "
                                 f"{fmt_short(total - 1)} off exactly 1")
        denom = math.lcm(*(p.denominator for p in probs))
        self._set(rows, [p.numerator * (denom // p.denominator) for p in probs], denom)

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        outcomes = [tuple(o) for o in outcomes]
        if len(set(outcomes)) != len(outcomes):
            raise ParameterError("uniform support contains repeated outcomes")
        return cls.from_rows(_outcome_matrix(outcomes))

    @classmethod
    def from_rows(cls, rows, counts=None) -> "Distribution":
        """Distribution of the rows of an int matrix, each row weighted by its
        count (1 by default); equal rows merge and zero-count rows drop.

        An integer array of a type int64 holds (any but uint64) is held as given,
        in its own type and not copied: a caller that hands over a fresh matrix
        holds it once, and one that goes on to write to its matrix passes a copy.
        Anything else is read as int64."""
        rows = _integers(rows)
        if counts is None:
            return cls._of(rows, np.ones(len(rows), dtype=np.int64), len(rows))
        # each count must be an integer; one past int64 is held exactly, as _set
        # holds the counts of a denominator past int64
        try:
            counts = np.array([operator.index(c) for c in np.asarray(counts, dtype=object)],
                              dtype=object)
        except TypeError as err:
            raise DomainError("counts must be integers") from err
        if (counts < 0).any():
            raise ParameterError(f"negative count {counts.min()}")
        if not counts.all():
            rows, counts = rows[counts > 0], counts[counts > 0]
        # the int64 sum wraps past 2^63; the total is summed exactly
        return cls._of(rows, counts, sum(counts.tolist()))

    @classmethod
    def on_distinct_rows(cls, rows: np.ndarray) -> "Distribution":
        """The uniform distribution on the rows of an integer matrix that are distinct:
        held as given, with nothing grouped or copied.  The rows keep the order they come
        in, lexicographic for the rows of a domain and any of them taken in rank order;
        rows in any other order serve only a reader of no row order."""
        rows = _integers(rows)
        if not len(rows):
            raise ParameterError("a distribution needs positive total mass")
        dist = cls.__new__(cls)
        dist.rows, dist.counts, dist.denom = rows, np.ones(len(rows), dtype=np.int64), len(rows)
        dist._runs = None
        return dist

    @classmethod
    def _of(cls, rows: np.ndarray, counts, denom: int) -> "Distribution":
        return cls.__new__(cls)._set(rows, counts, denom)

    def _set(self, rows: np.ndarray, counts, denom: int) -> "Distribution":
        """Hold ``rows`` (read, never written) weighted by ``counts`` out of
        ``denom``; equal rows merge."""
        if denom <= 0:
            raise ParameterError("a distribution needs positive total mass")
        first, inverse = group_rows(rows)
        # counts never exceed denom; past int64 they stay Python ints
        counts = np.asarray(counts, dtype=np.int64 if denom < 2 ** 63 else object)
        # rows already distinct and in order are kept, not copied, so a
        # full-width marginal of a large set holds one matrix, not two
        distinct = len(first) == len(rows) and bool((first[1:] > first[:-1]).all())
        self.rows = rows if distinct else rows[first]
        self.counts = sum_by(len(first), inverse, counts)
        self.denom = denom
        self._runs = None
        return self

    def items(self) -> tuple[tuple[Outcome, Fraction], ...]:
        return tuple((o, Fraction(c, self.denom))
                     for o, c in zip(self.support(), self.counts.tolist()))

    def support(self) -> tuple[Outcome, ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @property
    def arity(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Distribution({len(self)} outcomes over {self.arity} coordinates)"

    def is_uniform(self) -> bool:
        return bool((self.counts == self.counts[0]).all())

    def marginal(self, coords) -> "Distribution":
        """Distribution of the projection onto ``coords``, each in [0, arity)."""
        coords = list(coords)
        bad = [c for c in coords if not 0 <= c < self.arity]
        if bad:
            raise RangeError(f"coordinate {bad[0]} outside a distribution of arity {self.arity}")
        cols = coords
        if coords and coords == list(range(coords[0], coords[-1] + 1)):
            # a run of coordinates, such as a prefix, is a view and not a copy
            cols = slice(coords[0], coords[-1] + 1)
        return self._of(self.rows[:, cols], self.counts, self.denom)

    def prefix_runs(self) -> np.ndarray:
        """Each row's first coordinate that differs from the row above (-1 for the first
        row), found once and kept: the rows that agree on a prefix [0, h) are a run, opened
        by the row whose entry is below h.  Rows that do not strictly increase, as
        ``on_distinct_rows`` may hold, raise ``ConsistencyError``."""
        if self._runs is None:
            self._runs = _first_differences(self.rows)
        return self._runs


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    return conditional_entropy(dist, range(dist.arity), ())


def _integers(values) -> np.ndarray:
    """``values`` itself when it is an integer array of a type int64 holds, else as int64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.dtype != np.uint64:
        return values
    return np.asarray(values, dtype=np.int64)


def distinct_rows(values: np.ndarray) -> bool:
    """Whether the rows of a k x w integer matrix are pairwise distinct, proven without a
    row sort.  Each row's bytes, zero-padded to whole 64-bit words, fold into one key,
    ``key * _KEY_MULTIPLIER + word`` word by word and wrapped to 64 bits, and the k keys
    are sorted.  Equal rows fold to equal keys, so k distinct keys prove k distinct rows;
    a repeated key proves nothing, and answers False."""
    k, width = len(values), values.shape[1] * values.dtype.itemsize
    words = -(-width // 8)
    key = np.zeros(k, dtype=np.uint64)
    step = max(1, _BLOCK_BYTES // (8 * words or 1))
    for start in range(0, k, step):
        block = np.ascontiguousarray(values[start:start + step])
        padded = np.zeros((len(block), 8 * words), dtype=np.uint8)
        padded[:, :width] = block.view(np.uint8).reshape(len(block), width)
        part = key[start:start + step]
        for word in padded.view(np.uint64).T:
            part *= _KEY_MULTIPLIER
            part += word
    key.sort()
    return bool((key[1:] != key[:-1]).all())


def group_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a k x w int matrix, in its own type unless uint64.

    Returns ``(first, inverse)``.  Groups are numbered in lexicographic order
    of their rows, ``first[g]`` is the index of the first row of group g and
    ``inverse[r]`` is the group of row r.  Rows already in order, as every
    prefix of a lexicographic domain is, group as runs without a sort.
    """
    values = _integers(values)
    k, w = values.shape
    lo = int(values.min()) if values.size else 0
    radix = int(values.max()) - lo + 1 if values.size else 1
    space = radix ** w
    if space >= 2 ** 63:
        order = np.lexsort(values.T[::-1])
        ordered = values[order]
        starts = np.ones(k, dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        inverse = np.empty(k, dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
        return order[starts], inverse
    key = fold_rows(values, radix, lo)
    if (key[1:] >= key[:-1]).all():
        starts = np.ones(k, dtype=bool)
        starts[1:] = key[1:] != key[:-1]
        return np.flatnonzero(starts), np.cumsum(starts) - 1
    # the narrowest unsigned key type lets numpy's stable sort use radix passes
    key = key.astype(np.min_scalar_type(space - 1))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(k)


def fold_rows(values: np.ndarray, radix: int, lo: int = 0) -> np.ndarray:
    """One int64 key per row of a k x w integer matrix whose entries lie in
    [lo, lo + radix): the row less ``lo`` read as base-``radix`` digits, the first
    column most significant, so keys sort as rows do.  The caller keeps radix ** w
    within int64."""
    if values.shape[1] == 1:
        # a lone column is its own key, and cheaper than a product
        return np.subtract(values[:, 0], lo, dtype=np.int64)
    powers = radix ** np.arange(values.shape[1] - 1, -1, -1, dtype=np.int64)
    key = np.empty(len(values), dtype=np.int64)
    # a block of rows at a time, so a narrow matrix is never widened to int64 whole
    for start in range(0, len(values), _FOLD_ROWS):
        block = values[start:start + _FOLD_ROWS]
        np.matmul(np.asarray(block, dtype=np.int64), powers, out=key[start:start + len(block)])
    if lo:
        # the product may wrap past int64, and the offset wraps with it: the key fits
        key -= (lo * int(powers.sum()) + 2 ** 63) % 2 ** 64 - 2 ** 63
    return key


def is_dense(space: int, k: int) -> bool:
    """Whether an array over all ``space`` keys is cheap beside k rows (then it fits int64)."""
    return space <= max(4 * k, 1 << 16)


def sum_by(groups: int, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Total of ``counts`` in each group; keeps the dtype (int64 or Python-int object)."""
    acc = np.zeros(groups, dtype=counts.dtype)
    np.add.at(acc, inverse, counts)
    return acc


def _neg_plogp(c: int, w: int) -> float:
    """-(c/w) lg(c/w) exactly as the reduced Fraction c/w gives it."""
    g = math.gcd(c, w)
    return -(c / w) * (math.log2(c // g) - math.log2(w // g))


def _first_differences(rows: np.ndarray) -> np.ndarray:
    """``Distribution.prefix_runs`` of a k x w integer matrix, a block of rows at a time."""
    runs = np.full(len(rows), -1, dtype=np.min_scalar_type(-rows.shape[1] - 1))
    # rows of no coordinates are all equal, as one zero column shows
    rows = rows if rows.shape[1] else np.zeros((len(rows), 1), dtype=np.int8)
    for start in range(1, len(rows), _FOLD_ROWS):
        block = rows[start - 1:start + _FOLD_ROWS]
        diff = np.argmax(block[1:] != block[:-1], axis=1)
        # a row exceeds the row above where they first differ; an equal row fails at 0
        at = np.arange(len(diff)), diff
        rising = block[1:][at] > block[:-1][at]
        if not rising.all():
            row = start + int(np.argmin(rising))
            raise ConsistencyError(f"row {row} does not follow row {row - 1} in lexicographic order")
        runs[start:start + len(diff)] = diff
    return runs


def prefix_groups(runs: np.ndarray, counts, cut: int, stop: int):
    """The runs at ``stop`` of rows whose ``prefix_runs`` are ``runs``, grouped by the runs at
    ``cut`` <= stop: ``(first, run_counts, starts, weights)``, each run's first row and count
    and each group's first run and count, summed by ``np.add.reduceat`` in the counts' own
    type, so that Python-int counts past int64 stay exact."""
    first = np.flatnonzero(runs < stop)
    run_counts = np.add.reduceat(counts, first)
    starts = np.flatnonzero(runs[first] < cut)
    return first, run_counts, starts, np.add.reduceat(run_counts, starts)


def prefix_entropies(dist, cut: int, stop: int) -> tuple[np.ndarray, list[int], list[float]]:
    """H(coordinates [cut, stop) | coordinates [0, cut) = g) for each prefix value g, off the
    prefix runs: ``(first, weights, entropies)`` in lexicographic order of g, a row holding
    g, g's count (out of ``dist.denom``) and the block's entropy under g."""
    first, run_counts, starts, weights = prefix_groups(dist.prefix_runs(), dist.counts, cut, stop)
    return first[starts], weights.tolist(), group_entropies(run_counts, weights, starts)


def entropy_by_group(dist, target, given) -> tuple[np.ndarray, list[int], list[float]]:
    """H(target-coords | given-coords = g) for every value g of the given coords: returns
    ``prefix_entropies``' weights and entropies, with each value g in place of a row."""
    given = list(given)
    # pairs sort by (given, target), so the given coordinates are a prefix of their rows
    pairs = dist.marginal(given + list(target))
    first, weights, entropies = prefix_entropies(pairs, len(given), pairs.arity)
    return pairs.rows[first, :len(given)], weights, entropies


def group_entropies(pair_counts, weights: np.ndarray, starts: np.ndarray) -> list[float]:
    """The entropy of each group of pairs: group g holds the pairs from ``starts[g]`` up to
    the next group's start and weighs ``weights[g]``, the total of its pairs' counts."""
    if weights.dtype == object:
        return _entropies_exact(pair_counts.tolist(), weights.tolist(), starts.tolist())
    sizes = np.diff(np.append(starts, len(pair_counts)))
    g_inv = np.repeat(np.arange(len(starts)), sizes)
    # one term per distinct (pair count, group weight), gathered to every pair
    cw = np.stack((pair_counts, weights[g_inv]), axis=1)
    t_first, t_inv = group_rows(cw)
    terms = np.array([_neg_plogp(c, w) for c, w in cw[t_first].tolist()], dtype=np.float64)
    # fsum of n equal terms is their correctly rounded product; + 0.0 gives fsum's +0.0
    # for the -0.0 of a one-outcome group
    entropies = (sizes * terms[t_inv[starts]] + 0.0).tolist()
    # a group whose term changes from one pair to the next sums its own by fsum
    changes = np.flatnonzero(t_inv[1:] != t_inv[:-1]) + 1
    mixed = np.zeros(len(starts), dtype=bool)
    mixed[g_inv[changes[g_inv[changes] == g_inv[changes - 1]]]] = True
    mixed = np.flatnonzero(mixed).tolist()
    if mixed:
        pair_terms = terms[t_inv].tolist()
        bounds = starts.tolist() + [len(t_inv)]
        for g in mixed:
            entropies[g] = fsum(pair_terms[bounds[g]:bounds[g + 1]])
    return entropies


def _entropies_exact(pair_counts: list[int], weights: list[int], starts: list[int]) -> list[float]:
    """Each group's entropy from Python-int counts, for counts past int64."""
    terms: dict[tuple[int, int], float] = {}
    entropies = []
    for w, start, end in zip(weights, starts, starts[1:] + [len(pair_counts)]):
        parts = []
        for c in pair_counts[start:end]:
            t = terms.get((c, w))
            if t is None:
                t = terms[(c, w)] = _neg_plogp(c, w)
            parts.append(t)
        entropies.append(fsum(parts))
    return entropies


def mean_entropy(weights, entropies, denom: int) -> float:
    """Sum over groups of Pr[g] * H(. | g), with Pr[g] = weight / denom."""
    return fsum((w / denom) * h for w, h in zip(weights, entropies))


def conditional_entropy(dist, target, given) -> float:
    """H(target-coords | given-coords), computed from the definition.

    An empty ``given`` yields the unconditional entropy of the target marginal.
    """
    _, weights, entropies = entropy_by_group(dist, target, given)
    return mean_entropy(weights, entropies, dist.denom)


def tv_from_uniform(dist: Distribution, space_size: int):
    """Exact TV distance to the uniform distribution on a space of ``space_size`` points."""
    if space_size < len(dist):
        raise ParameterError("space smaller than the support it must contain")
    return _tv(dist.counts, dist.denom, space_size)


def columns_tv(rows, subsets, counts, denom: int, m: int) -> list[Fraction]:
    """Exact TV distance to uniform on [0, m)^k of each subset's k columns of ``rows``, row r
    weighing counts[r]/denom: ``tv_from_uniform(dist.marginal(s), m ** len(s))`` for each
    subset s, without building the marginals."""
    return [_tv(tallies, denom, m ** len(s))
            for s, tallies in zip(subsets, subset_tallies(rows, subsets, counts, denom, m))]


def subset_tallies(rows, subsets, counts, denom: int, m: int):
    """Yield, for each subset of the columns of a k x w matrix of values in [0, m) (row r
    weighing counts[r] out of ``denom``), the total count of each base-m key its columns
    spell, the first column most significant: all m^len slots in key order, or only the
    keys present, in key order, when the slots would be many beside k.

    A subset may repeat a column.  The subsets of at most two columns over a small alphabet
    come out of one indicator product (``_product_tallies``), every other subset out of one
    key of its own (``_keyed_tallies``); ``_by_product`` is the rule between the two.
    """
    subsets = [tuple(s) for s in subsets]
    width = len({c for s in subsets for c in s})
    if _by_product(width, m, max(map(len, subsets), default=0), denom):
        return _product_tallies(rows, subsets, counts, denom, m)
    return _keyed_tallies(rows, subsets, counts, denom, m)


def _by_product(width: int, m: int, size: int, denom: int) -> bool:
    """Whether subsets of up to ``size`` of ``width`` columns over m values take the
    indicator product, which must be exact (denom < 2^53).  Per row, the product costs
    about (width (m-1))^2 multiply-adds and the keys about one bincount step per subset,
    up to width^2 / 2; the product also runs faster per step the wider it is.  On a 2-core
    Xeon with OpenBLAS the product was the faster route while (m-1)^2 <= width, for 8, 16
    and 24 columns, m from 2 to 6 and 2^12 to 2^20 rows (``BENCH_pair_tables.json``)."""
    return size <= 2 and denom < 2 ** 53 and (m - 1) ** 2 <= width


def _product_tallies(rows, subsets, counts, denom: int, m: int):
    """Every subset of one or two columns out of one Gram product of the indicators of the
    values 1..m-1 of the columns used: entry ((x, a), (y, b)) counts the rows with a = x and
    b = y, and the diagonal holds each column's tally; the value-0 slots follow from those
    and ``denom``.  The product is float64 and exact: each entry, and each partial sum of
    it, is an integer sum of counts no larger than denom < 2^53."""
    used = sorted({c for s in subsets for c in s})
    at = {c: idx for idx, c in enumerate(used)}
    cols = slice(None) if used == list(range(rows.shape[1])) else used
    equal = bool((counts == counts[0]).all())
    width = (m - 1) * len(used)
    gram = np.zeros((width, width))
    step = max(1, _BLOCK_BYTES // (8 * width))
    for start in range(0, len(rows), step):
        block = rows[start:start + step, cols]
        # one contiguous comparison per value, side by side: value x of column a at
        # (x - 1) * len(used) + a
        ones = np.concatenate([block == x for x in range(1, m)], axis=1).astype(np.float64)
        weighed = ones if equal else ones * counts[start:start + step, None]
        gram += weighed.T @ ones
    gram = gram.astype(np.int64) * (counts[0] if equal else 1)
    pairs = gram.reshape(m - 1, len(used), m - 1, len(used))
    column = [np.concatenate(([denom - int(d.sum())], d))
              for d in np.diagonal(gram).reshape(m - 1, len(used)).T]
    for s in subsets:
        if len(s) < 2:
            yield column[at[s[0]]] if s else np.array([denom], dtype=np.int64)
            continue
        a, b = at[s[0]], at[s[1]]
        table = np.empty((m, m), dtype=np.int64)
        table[1:, 1:] = pairs[:, a, :, b]
        table[1:, 0] = column[a][1:] - table[1:, 1:].sum(axis=1)
        table[0, :] = column[b] - table[1:, :].sum(axis=0)
        yield table.reshape(-1)


def _keyed_tallies(rows, subsets, counts, denom: int, m: int):
    """Each subset's tallies from one key per row, its columns read as base-m digits: one
    ``np.bincount`` over all m^len slots while they are few and the counts float-exact
    (denom < 2^53), else the keys present, by ``group_rows``'s sort.  The lone columns
    among the subsets are tallied together first, by ``_column_tallies``."""
    equal = bool((counts == counts[0]).all())
    columns = sorted({s[0] for s in subsets if len(s) == 1})
    lone = {}
    if columns and is_dense(m, len(counts)) and denom < 2 ** 53:
        lone = dict(zip(columns, _column_tallies(rows, columns, counts, m, equal)))
    # subsets that read more columns than the matrix holds read them from one C-order copy
    by_col = (rows.T.astype(cell_dtype(m), order="C")
              if sum(map(len, subsets)) > rows.shape[1] else rows.T)
    for s in subsets:
        if len(s) == 1 and lone:
            yield lone[s[0]]
            continue
        space = m ** len(s)
        if not is_dense(space, len(counts)) or denom >= 2 ** 53:
            # the columns in their own type: group_rows widens a block of rows at a time
            first, inverse = group_rows(rows[:, list(s)])
            yield sum_by(len(first), inverse, counts)
            continue
        # keys in the narrowest unsigned type that holds them, or the columns' own if wider
        dtype = np.result_type(np.min_scalar_type(space - 1), by_col)
        key = by_col[s[0]].astype(dtype) if s else np.zeros(len(counts), dtype)
        # m itself fits the key's type once a second column needs it
        for c in s[1:]:
            key *= m
            key += by_col[c]
        if equal:
            yield np.bincount(key, minlength=space) * counts[0]
        else:
            yield np.bincount(key, weights=counts, minlength=space).astype(np.int64)


def _column_tallies(rows, columns, counts, m: int, equal: bool) -> np.ndarray:
    """The m tallies of each listed column of a k x w matrix of values in [0, m), as the rows
    of a len(columns) x m matrix, from one ``np.bincount`` a block of rows at a time: entry
    (r, c) keys as its value plus m times its column's place, so each block is read whole
    and in order, where a column of a C-order matrix alone is read with a stride.  The
    weighted counts must be float-exact."""
    width = len(columns)
    cols = slice(None) if columns == list(range(rows.shape[1])) else columns
    offsets = np.arange(width) * m
    offsets = offsets.astype(np.result_type(np.min_scalar_type(width * m - 1), rows))
    tallies = np.zeros(width * m, dtype=np.int64 if equal else np.float64)
    # a block's keys, widened to intp by bincount, take 128 KiB: 1 MiB blocks ran no
    # faster on 16,796 to 2.7 million rows, and raised the peak of a small domain's run
    step = max(1, (1 << 17) // (8 * width))
    for start in range(0, len(rows), step):
        keys = (rows[start:start + step, cols] + offsets).reshape(-1)
        weights = None if equal else np.repeat(counts[start:start + step], width)
        tallies += np.bincount(keys, weights=weights, minlength=width * m)
    tallies = tallies * counts[0] if equal else tallies.astype(np.int64)
    return tallies.reshape(width, m)


def cell_dtype(m: int) -> np.dtype:
    """The narrowest unsigned type that holds every value in [0, m): uint8, uint16 or
    uint32, and int64 past 2^32, since a uint64 value would not add into an int64 key."""
    return np.min_scalar_type(m - 1) if m <= 2 ** 32 else np.dtype(np.int64)


def _tv(tallies, denom: int, space: int) -> Fraction:
    """TV distance to uniform on ``space`` points of ``tallies`` out of ``denom``; the
    points not listed hold no mass, so the space is never materialised."""
    if space * denom < 2 ** 62:
        present = int(np.abs(tallies * space - denom).sum())
    else:
        present = sum(abs(c * space - denom) for c in tallies.tolist())
    return Fraction(present + (space - len(tallies)) * denom, 2 * denom * space)


# ---------------------------------------------------------------------------
# good-index extraction


@dataclass(frozen=True)
class GoodSetReport:
    """Indices that survive an entropy/closeness filter, plus the bookkeeping.

    ``good`` uses 1-based indices (block k, or the k-th kept cell column).
    ``scores`` holds the measured quantity each index was judged by: the
    conditional entropy for blocks, the marginal entropy deficiency for cells.
    ``subset_tvs`` maps each q-subset of cells that was counted (0-based, sorted)
    to its exact distance from uniform; it takes no part in equality.  A subset the
    support bound or one of its columns decided was not counted and is not held.
    """

    kind: str
    good: tuple[int, ...]
    deficiency: float
    parameter: float
    scores: tuple[float, ...]
    size_bound: float
    size_bound_ok: bool
    subset_tvs: dict = field(default_factory=dict, compare=False, repr=False)


def validate_blocks(sizes, n: int) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError(f"block sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise ParameterError(f"block sizes {sizes} sum to {sum(sizes)}, expected {n}")
    return sizes


def good_blocks(x_set, sizes, eps) -> GoodSetReport:
    """Blocks whose conditional entropy given earlier blocks is nearly full.

    Input is (the uniform distribution over) a set X of n-bit strings and a
    partition of the n coordinates into consecutive blocks.  Block i is good
    when H(Z_i | Z_1..Z_{i-1}) >= s_i - eps, measured exactly from X.  At
    least k - a/eps blocks are good, where a = n - lg|X|.
    """
    dist = x_set if isinstance(x_set, Distribution) else Distribution.uniform(x_set)
    if not dist.is_uniform():
        raise ParameterError("expected a uniform distribution over the input set")
    try:
        eps = float(eps)
    except OverflowError:
        raise ParameterError("eps is past the float range") from None
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    n = dist.arity
    sizes = validate_blocks(sizes, n)
    a = n - math.log2(len(dist))
    # block k's groups are the runs at its start, each split into the runs at its end
    cuts = list(accumulate(sizes, initial=0))
    scores = [mean_entropy(*prefix_entropies(dist, lo, hi)[1:], dist.denom)
              for lo, hi in zip(cuts, cuts[1:])]
    good = [k for k, (size, h) in enumerate(zip(sizes, scores), start=1) if h >= size - eps]
    size_bound = len(sizes) - a / eps
    return GoodSetReport(
        kind="blocks",
        good=tuple(good),
        deficiency=a,
        parameter=eps,
        scores=tuple(scores),
        size_bound=size_bound,
        size_bound_ok=len(good) >= size_bound - 1e-9,
    )


def good_cells(dist, q: int, eta, alphabet: int) -> GoodSetReport:
    """Cell columns G such that every q-subset of G is jointly eta-close to uniform.

    Builds G greedily: all q-subsets are tested exactly once; while any subset
    fails, the worst index among those appearing in failing subsets (largest
    marginal entropy deficiency, then most failures, then smallest index) is
    dropped, which only ever removes subsets from consideration.  The lemma's
    floor |G| >= u' - 16*q*a/eta^2 is reported, not enforced.

    The support bound decides first: each q-subset is at least (m^q - |support|)/m^q
    from uniform.  Past eta, all fail, so G is the q - 1 cells of lowest deficiency
    (ties to the larger index), found with no subset listed or ``SizeError``.  Then
    the columns decide: a subset holding a column farther than eta from uniform on m
    values fails, and only the other subsets are counted.
    """
    if q < 1:
        raise ParameterError(f"subset size must be >= 1, got {q}")
    if alphabet < 2:
        raise ParameterError(f"alphabet must be >= 2, got {alphabet}")
    eta_f = Fraction(eta) if not isinstance(eta, Fraction) else eta
    if eta_f <= 0:
        raise ParameterError(f"eta must be positive, got {fmt_short(eta_f)}")
    try:
        eta_sq = float(eta_f) ** 2
    except OverflowError:
        eta_sq = math.inf
    if not 0 < eta_sq < math.inf:
        raise ParameterError(f"eta = {fmt_short(eta_f)} squared is outside the float range")
    if dist.rows.size and not 0 <= int(dist.rows.min()) <= int(dist.rows.max()) < alphabet:
        raise DomainError(f"cell values must lie in [0, {alphabet})")
    u = dist.arity
    all_fail = Fraction(alphabet ** q - len(dist), alphabet ** q) > eta_f
    n_subsets = math.comb(u, q)
    if n_subsets > _SUBSET_LIMIT and not all_fail:
        raise SizeError(f"{n_subsets} subsets of size {q} exceed the exhaustive limit {_SUBSET_LIMIT}")
    a = u * math.log2(alphabet) - math.log2(len(dist))
    subsets = [] if all_fail else list(combinations(range(u), q))
    d = dist.denom
    # the indicator product gives every column with the q-subsets' tables, in one pass over
    # the rows; the keyed route tallies the columns alone first, so that a subset they decide
    # costs no key
    joint = bool(subsets) and _by_product(u, alphabet, q, d)
    columns = [(c,) for c in range(u)]
    tallies = subset_tallies(dist.rows, columns + subsets if joint else columns, dist.counts, d,
                             alphabet)
    column_tallies = list(islice(tallies, u))
    # each log is taken of the unreduced ratio c/d, as the reports print it
    deficiency = tuple(
        math.log2(alphabet) - fsum(-(c / d) * math.log2(c / d) for c in t[t > 0].tolist())
        for t in column_tallies)

    alive = set(sorted(range(u), key=lambda c: (deficiency[c], -c))[:q - 1] if all_fail else range(u))
    # a subset is no closer to uniform than any of its columns (TV does not grow under the
    # projection, which maps uniform to uniform), so one far column fails it untallied
    far = {c for c, t in enumerate(column_tallies) if _tv(t, d, alphabet) > eta_f}
    keep = [far.isdisjoint(s) for s in subsets]
    counted = list(compress(subsets, keep))
    tallies = (compress(tallies, keep) if joint
               else subset_tallies(dist.rows, counted, dist.counts, d, alphabet))
    tvs = {s: _tv(t, d, alphabet ** q) for s, t in zip(counted, tallies)}
    failing = [s for s in subsets if s not in tvs or tvs[s] > eta_f]
    while failing:
        involved: dict[int, int] = {}
        for subset in failing:
            for c in subset:
                involved[c] = involved.get(c, 0) + 1
        worst = max(involved, key=lambda c: (deficiency[c], involved[c], -c))
        alive.discard(worst)
        failing = [s for s in failing if worst not in s]

    good = tuple(c + 1 for c in sorted(alive))
    size_bound = u - 16 * q * a / eta_sq
    return GoodSetReport(
        kind="cells",
        good=good,
        deficiency=a,
        parameter=float(eta_f),
        scores=deficiency,
        size_bound=size_bound,
        size_bound_ok=len(good) >= size_bound - 1e-9,
        subset_tvs=tvs,
    )
