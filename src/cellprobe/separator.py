"""Staged greedy separators: remove a small blocker set B so that many probe
sets become pairwise disjoint.

Both procedures run stages i = 0..q over the family Q(1)\\B, ..., Q(n)\\B.
A stage either finds enough greedily-disjoint sets and stops, or unions the
elements of the greedy family into B (a covering: every set then loses at
least one element).  Empty sets are disjoint from everything, so the family
of all-empty sets always succeeds, which bounds the stage count by q + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ConsistencyError, ParameterError, SizeError
from .textfmt import fmt_short

_BRACKET_EXPONENT_LIMIT = 10_000


def _as_matrix(family) -> tuple[np.ndarray, np.ndarray]:
    """The family as an n x q matrix of compact cell ids (rows sorted, -1 pads), and the ids."""
    rows = list(family)
    sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, int(sizes.sum()))
    except OverflowError:
        raise ParameterError("separator family: every cell id must fit int64") from None
    cells, ids = np.unique(flat, return_inverse=True)
    matrix = np.full((len(rows), int(sizes.max(initial=0))), -1, np.int64)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    matrix[np.repeat(np.arange(len(rows)), sizes), np.arange(len(flat)) - starts] = ids
    matrix.sort(axis=1)
    matrix[:, 1:][matrix[:, 1:] == matrix[:, :-1]] = -1     # a repeated cell counts once
    matrix.sort(axis=1)
    q = int((matrix >= 0).sum(axis=1).max(initial=0))
    return matrix[:, matrix.shape[1] - q:], cells


def _greedy(matrix: np.ndarray, blocked: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy disjoint rows outside the blocked cells: their 1-based indices, the cells used."""
    live = np.where(np.append(blocked, True)[matrix], -1, matrix)   # -1 reads the appended True
    if (live >= 0).sum(axis=1).max(initial=0) <= 1:
        # each row is empty or one cell: take the empty rows and each cell's first row
        cell = live.max(axis=1, initial=-1)
        found, first = np.unique(cell, return_index=True)
        chosen = np.sort(np.append(np.flatnonzero(cell < 0), first[found >= 0])) + 1
        return tuple(chosen.tolist()), found[found >= 0]
    taken = bytearray(len(blocked) + 1)
    chosen = []
    # rows zipped from column lists: n row lists alive at once would set off full gc passes
    for idx, row in enumerate(zip(*live.T.tolist()), start=1):
        for c in row:
            if taken[c]:
                break
        else:
            chosen.append(idx)
            for c in row:
                taken[c] = c >= 0    # the padding's slot stays clear
    return tuple(chosen), np.flatnonzero(taken[:-1])


def greedy_disjoint(family) -> tuple[int, ...]:
    """1-based indices of a maximal disjoint subfamily, scanning in index order."""
    matrix, cells = _as_matrix(family)
    return _greedy(matrix, np.zeros(len(cells), bool))[0]


def pairwise_disjoint(sets) -> bool:
    seen: set = set()
    for s in sets:
        s = set(s)
        if seen & s:
            return False
        seen |= s
    return True


@dataclass(frozen=True)
class StageLog:
    stage: int
    disjoint_found: int
    threshold: object          # Fraction | float
    success: bool
    b_size: int                # |B| after the stage
    b_bound: object            # invariant bound on |B| at this point
    invariant_ok: bool


@dataclass(frozen=True)
class SeparatorResult:
    """Blocker B, disjoint-family query indices V (1-based), and witness w = |V|."""

    B: frozenset
    V: tuple[int, ...]
    w: int
    n: int
    q: int
    gap: Fraction
    k0: Fraction
    stages_run: int
    log: tuple[StageLog, ...]

    @property
    def checks(self) -> tuple[tuple[str, bool], ...]:
        """The guarantees w >= k0 and |B| <= w/g, decided exactly."""
        return (
            ("w_floor", Fraction(self.w) >= self.k0),
            ("b_small", Fraction(len(self.B)) <= Fraction(self.w) / self.gap),
        )


def find_separator(family, g) -> SeparatorResult:
    """Find B with |B| <= w/g leaving >= w in [n/(g*q)^q, n] disjoint sets.

    Stage i succeeds when the greedy count reaches k0*(g*q)^i where
    k0 = n/(g*q)^q; otherwise B absorbs every element of the greedy family.
    """
    matrix, cells = _as_matrix(family)
    n, q = matrix.shape
    if not n:
        raise ParameterError("separator needs a nonempty family of sets")
    gap = Fraction(g)
    if gap < 1:
        raise ParameterError(f"gap must be >= 1, got {fmt_short(gap)}")
    k0 = Fraction(n) / (gap * q) ** q if q else Fraction(n)
    blocked = np.zeros(len(cells), bool)
    b_size = 0
    log: list[StageLog] = []
    for i in range(q + 1):
        chosen, used = _greedy(matrix, blocked)
        threshold = k0 * (gap * q) ** i
        bound_now = k0 * gap ** (i - 1) * q ** i if i >= 1 else Fraction(0)
        if len(chosen) >= threshold:
            log.append(StageLog(i, len(chosen), threshold, True,
                                b_size, bound_now, b_size <= bound_now))
            return SeparatorResult(
                B=frozenset(cells[blocked].tolist()), V=chosen, w=len(chosen), n=n, q=q,
                gap=gap, k0=k0, stages_run=i + 1, log=tuple(log),
            )
        blocked[used] = True
        b_size += len(used)
        bound_after = k0 * gap ** i * q ** (i + 1)
        log.append(StageLog(i, len(chosen), threshold, False,
                            b_size, bound_after, b_size <= bound_after))
    raise ConsistencyError("separator failed to terminate; stage q cannot fail")


@dataclass(frozen=True)
class BracketSeparatorResult:
    """Separator with the bracket schedule: exponents a, b with b = c*a.

    ``size_floor_ok`` records whether n/lg^b n >= 1 held (it cannot at desk
    scale once b is moderately large); ``b_size_ok`` records |B| <= n/lg^b n.
    """

    B: frozenset
    V: tuple[int, ...]
    a: int
    b: int
    n: int
    q: int
    c: int
    stages_run: int
    log: tuple[StageLog, ...]
    size_floor_ok: bool
    b_size_ok: bool

    @property
    def w(self) -> int:
        return len(self.V)

    @property
    def checks(self) -> tuple[tuple[str, bool], ...]:
        """The guarantees c*a <= b <= c*(2c)^a and |B| <= n/lg^b n."""
        return (
            ("b_between", self.c * self.a <= self.b <= self.c * (2 * self.c) ** self.a),
            ("b_small", self.b_size_ok),
        )

    @property
    def v_floor(self) -> bool:
        """w >= n/lg^a n: the test the successful stage passed, as its log records it."""
        return self.log[-1].success


def _meets(count: int, n: int, lg_l: float, exponent: int) -> bool:
    """count >= n / (lg n)^exponent, compared in log space to dodge overflow."""
    if count <= 0:
        return False
    return math.log2(count) + exponent * lg_l >= math.log2(n) - 1e-12


def find_separator_brackets(family, c: int, require_preconditions: bool = True) -> BracketSeparatorResult:
    """Stage-i success threshold n/(lg n)^(d^(q-i)) with d = 2c; then a = d^(q-i), b = c*a.

    The guarantee arithmetic assumes q <= (lg lg n)/c and n large; with
    ``require_preconditions`` off the schedule still runs and the result
    records which size bounds actually held.
    """
    matrix, cells = _as_matrix(family)
    n, q = matrix.shape
    if not n:
        raise ParameterError("separator needs a nonempty family of sets")
    c = int(c)
    if c < 4:
        raise ParameterError(f"the bracket schedule needs c >= 4, got {c}")
    if n < 4:
        raise ParameterError(f"need n >= 4 so lg lg n is positive, got {n}")
    lg_l = math.log2(math.log2(n))
    if require_preconditions and q * c > lg_l:  # c may be past the float range
        raise ParameterError(f"q = {q} exceeds (lg lg n)/c = {float(Fraction(lg_l) / c):.4f}")
    d = 2 * c
    if d ** q > _BRACKET_EXPONENT_LIMIT:
        raise SizeError(
            f"schedule exponent d^q = {fmt_short(d ** q)} exceeds {_BRACKET_EXPONENT_LIMIT}")
    blocked = np.zeros(len(cells), bool)
    b_size = 0
    log: list[StageLog] = []
    for i in range(q + 1):
        chosen, used = _greedy(matrix, blocked)
        exponent = d ** (q - i)
        # threshold n/L^exponent rendered as a float when it fits
        threshold = n * 2.0 ** (-exponent * lg_l) if exponent * lg_l < 1000 else 0.0
        if _meets(len(chosen), n, lg_l, exponent):
            a, b = exponent, c * exponent
            b_size_ok = _b_within(b_size, n, lg_l, b)
            log.append(StageLog(i, len(chosen), threshold, True,
                                b_size, f"n/lg^{b} n", b_size_ok))
            return BracketSeparatorResult(
                B=frozenset(cells[blocked].tolist()), V=chosen, a=a, b=b, n=n, q=q, c=c,
                stages_run=i + 1, log=tuple(log),
                size_floor_ok=math.log2(n) >= b * lg_l - 1e-12,
                b_size_ok=b_size_ok,
            )
        blocked[used] = True
        b_size += len(used)
        next_exp = c * d ** (q - i - 1)
        log.append(StageLog(i, len(chosen), threshold, False,
                            b_size, f"n/lg^{next_exp} n",
                            _b_within(b_size, n, lg_l, next_exp)))
    raise ConsistencyError("bracket separator failed to terminate; stage q cannot fail")


def _b_within(b_size: int, n: int, lg_l: float, exponent: int) -> bool:
    """|B| <= n / (lg n)^exponent, in log space."""
    if b_size == 0:
        return True
    return math.log2(b_size) + exponent * lg_l <= math.log2(n) + 1e-12
