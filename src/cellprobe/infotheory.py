"""Exact entropy and statistical-distance toolkit over explicit finite distributions.

Probabilities are kept as exact rationals whenever the caller supplies them
that way; entropies are real-valued (bits, base-2 logs).  Inequality checks
elsewhere in the package compare against these values with a 1e-9 tolerance.

The measurements over large supports run on ``CountMatrix``: outcome rows in
an int matrix with integer counts over one denominator.  They bucket counts
with numpy and make a ``Fraction`` only for a value they return.  Each float
they return is the one the ``Fraction`` route gives, bit for bit: a ratio is
reduced by its gcd before its log is taken, and sums go through ``fsum``,
which rounds exactly and so does not depend on order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import fsum

import numpy as np

from .errors import DomainError, ParameterError, SizeError

Outcome = tuple[int, ...]

_SUM_TOL = 1e-12


def _lg(p) -> float:
    """log2 of a probability; splits Fractions to keep precision on tiny values."""
    if isinstance(p, Fraction):
        return math.log2(p.numerator) - math.log2(p.denominator)
    return math.log2(p)


class Distribution:
    """Finite probability mass function over equal-length int tuples.

    Zero-probability outcomes are dropped on construction; iteration order is
    the sorted order of outcomes, so downstream reports are deterministic.
    """

    __slots__ = ("_items",)

    def __init__(self, pmf):
        items = []
        exact = True
        for outcome, p in pmf.items():
            outcome = tuple(outcome)
            if not isinstance(p, Fraction):
                exact = False
            if p < 0:
                raise ParameterError(f"negative probability {p} for {outcome}")
            if p == 0:
                continue
            items.append((outcome, p))
        if not items:
            raise ParameterError("distribution needs at least one outcome of positive mass")
        arity = len(items[0][0])
        if any(len(o) != arity for o, _ in items):
            raise DomainError("distribution outcomes must share one arity")
        total = sum(p for _, p in items)
        if exact:
            if total != 1:
                raise ParameterError(f"probabilities sum to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > _SUM_TOL:
            raise ParameterError(f"probabilities sum to {float(total)}, expected 1")
        items.sort(key=lambda kv: kv[0])
        self._items = tuple(items)

    @classmethod
    def uniform(cls, outcomes) -> "Distribution":
        outcomes = [tuple(o) for o in outcomes]
        if len(set(outcomes)) != len(outcomes):
            raise ParameterError("uniform support contains repeated outcomes")
        p = Fraction(1, len(outcomes))
        return cls({o: p for o in outcomes})

    @classmethod
    def from_counts(cls, counts) -> "Distribution":
        total = sum(counts.values())
        return cls({tuple(o): Fraction(c, total) for o, c in counts.items() if c})

    def items(self):
        return self._items

    def support(self) -> tuple[Outcome, ...]:
        return tuple(o for o, _ in self._items)

    def prob(self, outcome) -> Fraction:
        outcome = tuple(outcome)
        for o, p in self._items:
            if o == outcome:
                return p
        return Fraction(0)

    @property
    def arity(self) -> int:
        return len(self._items[0][0])

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self._items == other._items

    def __repr__(self) -> str:
        return f"Distribution({len(self._items)} outcomes over {self.arity} coordinates)"

    def is_uniform(self) -> bool:
        first = self._items[0][1]
        return all(p == first for _, p in self._items)

    def marginal(self, coords) -> "Distribution":
        coords = tuple(coords)
        acc: dict[Outcome, object] = {}
        for o, p in self._items:
            key = tuple(o[c] for c in coords)
            acc[key] = acc.get(key, 0) + p
        return Distribution(acc)

    def given(self, coords, value) -> "Distribution":
        """Conditional distribution (over full outcomes) given coords == value."""
        coords = tuple(coords)
        value = tuple(value)
        hits = [(o, p) for o, p in self._items if tuple(o[c] for c in coords) == value]
        if not hits:
            raise DomainError(f"conditioning event {value} on coords {coords} has probability 0")
        total = sum(p for _, p in hits)
        return Distribution({o: p / total for o, p in hits})

    def integer_counts(self):
        """(rows, counts, denom) with counts/denom == probabilities, all exact ints.

        A float probability counts at the exact binary fraction it holds.
        """
        probs = [p if isinstance(p, Fraction) else Fraction(p) for _, p in self._items]
        denom = math.lcm(*(p.denominator for p in probs))
        rows = [o for o, _ in self._items]
        counts = [p.numerator * (denom // p.denominator) for p in probs]
        return rows, counts, denom


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    return fsum(-float(p) * _lg(p) for _, p in dist.items())


def group_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a k x w int matrix.

    Returns ``(first, inverse)``.  Groups are numbered in lexicographic order
    of their rows, ``first[g]`` is the index of the first row of group g and
    ``inverse[r]`` is the group of row r.
    """
    values = np.asarray(values, dtype=np.int64)
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
    # fold each row into one key; key order is lexicographic row order
    key = np.zeros(k, dtype=np.int64)
    for c in range(w):
        key = key * radix + (values[:, c] - lo)
    # the narrowest unsigned key type lets numpy's stable sort use radix passes
    key = key.astype(np.min_scalar_type(space - 1))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(k)


def sum_by(groups: int, inverse: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Total of ``counts`` in each group; keeps the dtype (int64 or Python-int object)."""
    acc = np.zeros(groups, dtype=counts.dtype)
    np.add.at(acc, inverse, counts)
    return acc


def _neg_plogp(c: int, w: int) -> float:
    """-(c/w) lg(c/w) exactly as the reduced Fraction c/w gives it."""
    g = math.gcd(c, w)
    return -(c / w) * (math.log2(c // g) - math.log2(w // g))


def entropy_by_group(dist, target, given) -> tuple[np.ndarray, list[int], list[float]]:
    """H(target-coords | given-coords = g) for every value g of the given coords.

    Returns ``(values, weights, entropies)`` in lexicographic order of g:
    the given-coordinate values, each one's count (out of ``denom`` of the
    count matrix) and the entropy of the target coordinates under it.
    """
    cm = as_counts(dist)
    target, given = list(target), list(given)
    g_first, g_inv = group_rows(cm.rows[:, given])
    # pairs sort by (given, target), so each group's pairs are contiguous
    p_first, p_inv = group_rows(cm.rows[:, given + target])
    pair_counts = sum_by(len(p_first), p_inv, cm.counts)
    pair_group = g_inv[p_first]
    weights = sum_by(len(g_first), pair_group, pair_counts).tolist()
    ends = np.cumsum(np.bincount(pair_group, minlength=len(g_first))).tolist()
    pair_counts = pair_counts.tolist()
    terms: dict[tuple[int, int], float] = {}
    entropies = []
    start = 0
    for w, end in zip(weights, ends):
        parts = []
        for c in pair_counts[start:end]:
            t = terms.get((c, w))
            if t is None:
                t = terms[(c, w)] = _neg_plogp(c, w)
            parts.append(t)
        entropies.append(fsum(parts))
        start = end
    return cm.rows[np.ix_(g_first, given)], weights, entropies


def mean_entropy(weights, entropies, denom: int) -> float:
    """Sum over groups of Pr[g] * H(. | g), with Pr[g] = weight / denom."""
    return fsum((w / denom) * h for w, h in zip(weights, entropies))


def conditional_entropy(dist, target, given) -> float:
    """H(target-coords | given-coords), computed from the definition.

    ``dist`` is a ``Distribution`` or a ``CountMatrix``.  An empty ``given``
    yields the unconditional entropy of the target marginal.
    """
    cm = as_counts(dist)
    _, weights, entropies = entropy_by_group(cm, target, given)
    return mean_entropy(weights, entropies, cm.denom)


def tv_distance(d1: Distribution, d2: Distribution):
    """Total variation distance (1/2 L1); exact when both pmfs are exact."""
    if d1.arity != d2.arity:
        raise DomainError(f"cannot compare supports of arity {d1.arity} and {d2.arity}")
    p1 = dict(d1.items())
    p2 = dict(d2.items())
    keys = sorted(set(p1) | set(p2))
    diff = sum(abs(p1.get(k, 0) - p2.get(k, 0)) for k in keys)
    return diff / 2


def tv_from_uniform(dist: Distribution, space_size: int):
    """TV distance to the uniform distribution on a space of ``space_size`` points.

    Outcomes outside the support contribute only missing mass, so the space is
    never materialised.
    """
    if space_size < len(dist):
        raise ParameterError("space smaller than the support it must contain")
    inv = Fraction(1, space_size)
    present = sum(abs(p - inv) for _, p in dist.items())
    missing = (space_size - len(dist)) * inv
    return (present + missing) / 2


@dataclass(frozen=True)
class HighEntropyCheck:
    """Outcome of the near-uniformity test for a high-entropy distribution."""

    entropy: float
    floor: float            # lg|S| - alpha
    precondition_ok: bool
    distance: object        # Fraction | None
    bound: float            # 4 * sqrt(alpha)
    holds: bool


def check_high_entropy_uniform(dist: Distribution, space, alpha: float) -> HighEntropyCheck:
    """Check that entropy >= lg|S| - alpha forces TV-closeness 4*sqrt(alpha) to uniform.

    ``space`` is the ambient set S the distribution lives in.  When the entropy
    precondition fails the check reports that instead of a distance.
    """
    if alpha < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    space = {tuple(s) for s in space}
    if not set(dist.support()) <= space:
        raise DomainError("distribution support is not contained in the given space")
    h = entropy(dist)
    floor = math.log2(len(space)) - alpha
    if h < floor - 1e-9:
        return HighEntropyCheck(h, floor, False, None, 4 * math.sqrt(alpha), False)
    dist_tv = tv_from_uniform(dist, len(space))
    bound = 4 * math.sqrt(alpha)
    return HighEntropyCheck(h, floor, True, dist_tv, bound, float(dist_tv) <= bound + 1e-9)


# ---------------------------------------------------------------------------
# good-index extraction


@dataclass(frozen=True)
class GoodSetReport:
    """Indices that survive an entropy/closeness filter, plus the bookkeeping.

    ``good`` uses 1-based indices (block k, or the k-th kept cell column).
    ``scores`` holds the measured quantity each index was judged by: the
    conditional entropy for blocks, the marginal entropy deficiency for cells.
    """

    kind: str
    good: tuple[int, ...]
    deficiency: float
    parameter: float
    scores: tuple[float, ...]
    size_bound: float
    size_bound_ok: bool


def validate_blocks(sizes, n: int) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError(f"block sizes must be positive, got {sizes}")
    if sum(sizes) != n:
        raise ParameterError(f"block sizes {sizes} sum to {sum(sizes)}, expected {n}")
    return sizes


def as_uniform_counts(x) -> "CountMatrix":
    """A uniform CountMatrix from a CountMatrix, a Distribution or a set of outcomes."""
    if isinstance(x, (Distribution, CountMatrix)):
        cm = as_counts(x)
        if (cm.counts != cm.counts[0]).any():
            raise ParameterError("expected a uniform distribution over the input set")
        return cm
    return CountMatrix(Distribution.uniform(x))


def good_blocks(x_set, sizes, eps) -> GoodSetReport:
    """Blocks whose conditional entropy given earlier blocks is nearly full.

    Input is (the uniform distribution over) a set X of n-bit strings and a
    partition of the n coordinates into consecutive blocks.  Block i is good
    when H(Z_i | Z_1..Z_{i-1}) >= s_i - eps, measured exactly from X.  At
    least k - a/eps blocks are good, where a = n - lg|X|.
    """
    dist = as_uniform_counts(x_set)
    eps = float(eps)
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    n = dist.width
    sizes = validate_blocks(sizes, n)
    a = n - math.log2(len(dist))
    scores = []
    good = []
    start = 0
    for k, size in enumerate(sizes, start=1):
        block = tuple(range(start, start + size))
        prefix = tuple(range(start))
        h = conditional_entropy(dist, block, prefix)
        scores.append(h)
        if h >= size - eps:
            good.append(k)
        start += size
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


class CountMatrix:
    """Integer-count view of a distribution, for subset statistics.

    Rows are the distinct support outcomes in lexicographic order,
    ``counts[i]/denom`` their probabilities.  Counts are int64 while
    ``denom`` fits int64 and Python ints beyond.  All derived quantities
    (joint counts, TV distances) stay exact.
    """

    def __init__(self, dist: Distribution):
        rows, counts, denom = dist.integer_counts()
        self._set(np.asarray(rows, dtype=np.int64).reshape(len(rows), dist.arity), counts, denom)

    @classmethod
    def from_rows(cls, rows, counts=None) -> "CountMatrix":
        """Distribution of the rows of an int matrix, each row weighted by its
        count (1 by default); equal rows merge."""
        rows = np.asarray(rows, dtype=np.int64)
        if counts is None:
            counts = np.ones(len(rows), dtype=np.int64)
        first, inverse = group_rows(rows)
        merged = sum_by(len(first), inverse, np.asarray(counts, dtype=np.int64))
        cm = cls.__new__(cls)
        cm._set(rows[first], merged, int(merged.sum()))
        return cm

    def _set(self, rows: np.ndarray, counts, denom: int) -> None:
        if denom <= 0:
            raise ParameterError("a count matrix needs positive total mass")
        self.rows = rows
        # counts never exceed denom; past int64 they stay Python ints
        self.counts = np.asarray(counts, dtype=np.int64 if denom < 2 ** 63 else object)
        self.denom = denom
        self.width = rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def _counts_on(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """(distinct values, counts) of the projection onto ``cols``, in lexicographic order."""
        cols = list(cols)
        first, inverse = group_rows(self.rows[:, cols])
        return self.rows[np.ix_(first, cols)], sum_by(len(first), inverse, self.counts)

    def joint_counts(self, cols, alphabet: int):
        """Sorted (key, count) pairs for the projection onto ``cols``.

        Keys fold each projected row in base ``alphabet``, first column most
        significant.
        """
        values, acc = self._counts_on(cols)
        keys = []
        for row in values.tolist():
            key = 0
            for v in row:
                key = key * alphabet + v
            keys.append(key)
        return keys, acc.tolist()

    def tv_uniform(self, cols, alphabet: int) -> Fraction:
        """Exact TV distance between the projection onto ``cols`` and uniform."""
        cols = tuple(cols)
        space = alphabet ** len(cols)
        if not cols:
            return Fraction(0)
        _, acc = self._counts_on(cols)
        if space * self.denom < 2 ** 62:
            present = int(np.abs(acc * space - self.denom).sum())
        else:
            present = sum(abs(cnt * space - self.denom) for cnt in acc.tolist())
        missing = (space - len(acc)) * self.denom
        return Fraction(present + missing, 2 * self.denom * space)

    def column_entropy(self, col: int) -> float:
        _, acc = self._counts_on((col,))
        d = self.denom
        return fsum(-(c / d) * math.log2(c / d) for c in acc.tolist())


def as_counts(dist) -> CountMatrix:
    """``dist`` as a CountMatrix; a Distribution is converted."""
    return dist if isinstance(dist, CountMatrix) else CountMatrix(dist)


def good_cells(dist, q: int, eta, alphabet: int, max_subsets: int = 200_000) -> GoodSetReport:
    """Cell columns G such that every q-subset of G is jointly eta-close to uniform.

    Builds G greedily: all q-subsets are tested exactly once; while any subset
    fails, the worst index among those appearing in failing subsets (largest
    marginal entropy deficiency, then most failures, then smallest index) is
    dropped, which only ever removes subsets from consideration.  The lemma's
    floor |G| >= u' - 16*q*a/eta^2 is reported, not enforced.
    """
    if q < 1:
        raise ParameterError(f"subset size must be >= 1, got {q}")
    if alphabet < 2:
        raise ParameterError(f"alphabet must be >= 2, got {alphabet}")
    eta_f = Fraction(eta) if not isinstance(eta, Fraction) else eta
    if eta_f <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    cm = as_counts(dist)
    u = cm.width
    n_subsets = math.comb(u, q)
    if n_subsets > max_subsets:
        raise SizeError(f"{n_subsets} subsets of size {q} exceed the exhaustive limit {max_subsets}")
    a = u * math.log2(alphabet) - math.log2(len(cm))
    deficiency = tuple(math.log2(alphabet) - cm.column_entropy(c) for c in range(u))

    failing = []
    for subset in combinations(range(u), q):
        if cm.tv_uniform(subset, alphabet) > eta_f:
            failing.append(subset)

    alive = set(range(u))
    while failing:
        involved: dict[int, int] = {}
        for subset in failing:
            for c in subset:
                involved[c] = involved.get(c, 0) + 1
        worst = max(involved, key=lambda c: (deficiency[c], involved[c], -c))
        alive.discard(worst)
        failing = [s for s in failing if worst not in s]

    good = tuple(c + 1 for c in sorted(alive))
    size_bound = u - 16 * q * a / float(eta_f) ** 2
    return GoodSetReport(
        kind="cells",
        good=good,
        deficiency=a,
        parameter=float(eta_f),
        scores=deficiency,
        size_bound=size_bound,
        size_bound_ok=len(good) >= size_bound - 1e-9,
    )
