"""Staged greedy separators: remove a small blocker set B so that many probe
sets become pairwise disjoint.

``find_separator`` runs stages i = 0..q over the family Q(1)\\B, ..., Q(n)\\B.
A stage either finds enough greedily-disjoint sets and stops, or unions the
elements of the greedy family into B (a covering: every set then loses at
least one element).  Empty sets are disjoint from everything, so the family
of all-empty sets always succeeds, which bounds the stage count by q + 1.

Every search starts from one list of (set, compact cell id) pairs, sorted by cell and
then by set.  It comes from one sort of one packed int64 key, the cell id less the
smallest id shifted past the bits of a set index, or'ed with the set index; ids whose
span leaves no room for that shift are first replaced by their ranks.

Greedy runs in rounds: a round takes each open set that comes first among the open
sets on every one of its cells, then refuses the open sets on the cells it took.
This is the index-order scan, since every earlier set sharing a cell with a taken
set was already refused, and every refused set comes after the set that took its
cell.

``find_separator_brackets`` runs stage 0 of the bracket schedule alone, which
settles it at every size the workbench reaches (see ``BracketSeparatorResult``).
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
# a greedy round that settles under 1/_ROUND_SHARE of the open rows hands them to the row scan
_ROUND_SHARE = 8


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the entry before."""
    first = np.ones(len(ordered), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _as_pairs(family) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, int, int]:
    """The family as (row, compact cell id) pairs sorted by cell then row, a repeated cell
    kept once a row; with the distinct cell ids, n and q."""
    rows = list(family)
    n = len(rows)
    sizes = np.fromiter(map(len, rows), np.int64, n)
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, int(sizes.sum()))
    except OverflowError:
        raise ParameterError("separator family: every cell id must fit int64") from None
    # one sort of (id - low) << s | row, s the bits of a row index
    s = (n - 1).bit_length()
    low, high = (int(flat.min()), int(flat.max())) if len(flat) else (0, 0)
    ranks = None
    if (high - low) >> (62 - s):        # no room for the shift: rank the ids first
        ranks, flat = np.unique(flat, return_inverse=True)
        low = 0
    keys = (flat - low) << s | np.repeat(np.arange(n), sizes)
    keys.sort()
    keys = keys[_firsts(keys)]
    row, raw = keys & ((1 << s) - 1), keys >> s
    first = _firsts(raw)
    cell = np.cumsum(first) - 1
    cells = ranks if ranks is not None else raw[first] + low
    q = int(np.bincount(row, minlength=n).max(initial=0))
    return (row, cell), cells, n, q


def _greedy(pairs, n: int, blocked: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy disjoint rows outside the blocked cells: their 1-based indices, the cells used.

    Each round takes every open row that is the first open row on each of its cells and
    refuses the open rows on the cells it took; once a round settles under 1/_ROUND_SHARE
    of the open rows, the rest are scanned in index order.
    """
    row, cell = pairs
    live = ~blocked[cell]
    row, cell = row[live], cell[live]
    taken = np.ones(n, bool)
    taken[row] = False                  # a row with no live cell is taken at once
    used = np.zeros(len(blocked), bool)
    open_rows = n - int(np.count_nonzero(taken))
    while open_rows:
        behind = np.zeros(n, bool)
        behind[row[~_firsts(cell)]] = True      # an earlier open row shares one of its cells
        first = ~behind[row]
        taken[row[first]] = True
        used[cell[first]] = True
        settled = np.zeros(n, bool)
        settled[row[used[cell]]] = True         # the rows taken and the rows they refuse
        kept = ~settled[row]
        row, cell = row[kept], cell[kept]
        done = int(np.count_nonzero(settled))
        open_rows -= done
        if done * _ROUND_SHARE < done + open_rows:
            break
    if open_rows:
        scanned, scan_used = _scan(row, cell, len(blocked))
        taken[scanned] = True
        used |= scan_used
    return tuple((np.flatnonzero(taken) + 1).tolist()), np.flatnonzero(used)


def _scan(row: np.ndarray, cell: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The index-order greedy over the rows of (row, cell) pairs with nothing taken: the
    rows it takes (0-based) and the mask of the cells they use."""
    row, cell = np.divmod(np.sort(row * n_cells + cell), n_cells)
    starts = np.flatnonzero(_firsts(row))
    widths = np.diff(starts, append=len(row))
    # column k of the live matrix: each row's k-th cell, -1 past its width
    columns = [np.where(widths > k, cell[np.minimum(starts + k, len(row) - 1)], -1).tolist()
               for k in range(int(widths.max()))]
    used = bytearray(n_cells + 1)
    chosen = []
    # rows zipped from column lists: n row lists alive at once would set off full gc passes
    for idx, cells in enumerate(zip(*columns)):
        for c in cells:
            if used[c]:
                break
        else:
            chosen.append(idx)
            for c in cells:
                used[c] = c >= 0    # the padding's slot stays clear
    return row[starts][chosen], np.frombuffer(used, np.uint8)[:-1].astype(bool)


def greedy_disjoint(family) -> tuple[int, ...]:
    """1-based indices of a maximal disjoint subfamily, scanning in index order."""
    pairs, cells, n, _ = _as_pairs(family)
    return _greedy(pairs, n, np.zeros(len(cells), bool))[0]


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
    threshold: Fraction        # k0 (gq)^i
    success: bool
    b_size: int                # |B| after the stage
    b_bound: Fraction          # invariant bound on |B| at this point
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
    pairs, cells, n, q = _as_pairs(family)
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
        chosen, used = _greedy(pairs, n, blocked)
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
    """Stage 0 of the bracket schedule: query indices V (1-based), a = (2c)^q, b = c*a, whether
    the floor n/lg^b n >= 1 held, and whether q <= (lg lg n)/c (n >= 2^16 at c = 4, q = 1)."""

    V: tuple[int, ...]
    a: int
    b: int
    n: int
    q: int
    c: int
    size_floor_ok: bool
    precondition_ok: bool

    # Fixed below about 1.29e13 sets by the stage-0 floor n/(lg n)^a: a >= 8 when q >= 1,
    # and (lg n)^8 > n there, so the first set, which greedy always takes, meets it (at
    # q = 0 greedy takes all n sets); a miss raises. So B is empty and b = c*a <= c*(2c)^a.
    B = frozenset()
    stages_run = 1
    checks = (("b_between", True), ("b_small", True))
    v_floor = v_nonempty = True

    @property
    def w(self) -> int:
        return len(self.V)

    @property
    def stage_log(self) -> tuple[tuple[str, object], ...]:
        """The one log line, its floor n/lg^a n a float (0.0 past the range)."""
        exponent = self.a * math.log2(math.log2(self.n))
        floor = self.n * 2.0 ** -exponent if exponent < 1000 else 0.0
        return (("stage.0.disjoint_found", self.w), ("stage.0.threshold", floor),
                ("stage.0.success", True), ("stage.0.b_size", 0))


def _meets(count: int, n: int, lg_l: float, exponent: int) -> bool:
    """count >= n / (lg n)^exponent for count >= 1, compared in log space to dodge overflow."""
    return math.log2(count) + exponent * lg_l >= math.log2(n) - 1e-12


def find_separator_brackets(family, c: int) -> BracketSeparatorResult:
    """Stage 0 of the schedule n/(lg n)^(d^(q-i)), d = 2c: one greedy pass, a = d^q, b = c*a.
    The precondition lg lg n >= q*c = m is decided in integers, as floor(lg n) >= 2^m."""
    pairs, cells, n, q = _as_pairs(family)
    if not n:
        raise ParameterError("separator needs a nonempty family of sets")
    c = int(c)
    if c < 4:
        raise ParameterError(f"the bracket schedule needs c >= 4, got {c}")
    if n < 4:
        raise ParameterError(f"need n >= 4 so lg lg n is positive, got {n}")
    lg_l = math.log2(math.log2(n))
    a = (2 * c) ** q
    if a > _BRACKET_EXPONENT_LIMIT:
        raise SizeError(f"schedule exponent d^q = {fmt_short(a)} exceeds "
                        f"{_BRACKET_EXPONENT_LIMIT} at c = {fmt_short(c)}")
    chosen, _ = _greedy(pairs, n, np.zeros(len(cells), bool))
    if not _meets(len(chosen), n, lg_l, a):
        raise ConsistencyError(
            f"bracket separator: stage 0 found {len(chosen)} disjoint sets, under n/lg^{a} n")
    return BracketSeparatorResult(V=chosen, a=a, b=c * a, n=n, q=q, c=c,
                                  size_floor_ok=math.log2(n) >= c * a * lg_l - 1e-12,
                                  precondition_ok=q * c <= (n.bit_length() - 1).bit_length() - 1)
