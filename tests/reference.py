"""Per-input references the row-wise package is checked against.

The package encodes and decodes whole matrices; these are the plain
one-input-at-a-time formulas: the builtin schemes' encoders and decoders as
tuple closures, a Python prefix-sum and Match oracle, a verification loop
that asks the scheme one (input, query) pair at a time, the staged
separators on frozensets, the good-cells filter that builds one
marginal per subset, the recursive balanced-string enumeration and the
table decoder that groups its rows by a sort.  The counting kernels are
kept as they were before each did its pass once: row grouping by a column
fold and a sort, group entropies by a loop over every count, and column
tallies by an int64 key.  Also kept here: the nesting-level walks that
counted the unmatched-bracket probabilities before their closed form, the
float near-uniformity check no package code calls, the line-by-line
scheme-file reader the byte-buffer reader is checked against, the scheme-file
writer that formatted each value through a Python object and a ``%``
template, and the ``TableEncoder`` dict constructor that read every cell as
int64.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, product, takewhile
from math import fsum
from typing import NamedTuple

import numpy as np

from cellprobe import (
    DOMAIN_ALL,
    DOMAIN_BAL,
    KIND_SUM,
    CellProbeError,
    ConsistencyError,
    Distribution,
    DomainError,
    GoodSetReport,
    ParameterError,
    Scheme,
    SizeError,
    TableDecoder,
    TableEncoder,
    build_builtin,
    entropy,
    parse_bits,
    prefix_sums,
    scan_matches,
    tv_from_uniform,
)
from cellprobe import schemeio
from cellprobe.infotheory import _neg_plogp, group_rows
from cellprobe.separator import (
    _BRACKET_EXPONENT_LIMIT,
    SeparatorResult,
    StageLog,
    _meets,
)


def prefix_sum(x, i: int) -> int:
    """Sum(i): number of ones among the first i bits."""
    return sum(x[:i])


# Sum on every prefix; the package's pure-Python helper, kept under both names
prefix_sum_all = prefix_sums


def match_all(x) -> tuple[int, ...]:
    """Match(i) for every position of a balanced string."""
    matches = scan_matches(x)
    if any(m is None for m in matches):
        raise DomainError("match oracle needs a balanced bracket string")
    return matches


def oracle_all(scheme, x) -> tuple[int, ...]:
    """Ground-truth answers for every query on x, per the scheme's kind."""
    return prefix_sum_all(x) if scheme.kind == KIND_SUM else match_all(x)


def enumerate_bal(n: int) -> list:
    """All balanced strings of length ``n`` in lexicographic order (0 < 1), by recursion."""
    if n < 0 or n % 2:
        raise ParameterError(f"balanced strings need even non-negative length, got {n}")
    out: list = []
    buf = [0] * n

    def rec(pos: int, depth: int) -> None:
        if pos == n:
            out.append(tuple(buf))
            return
        if depth > 0:
            buf[pos] = 0
            rec(pos + 1, depth - 1)
        # an open bracket is legal while the remaining positions can close it
        if depth + 1 <= n - pos - 1:
            buf[pos] = 1
            rec(pos + 1, depth + 1)

    rec(0, 0)
    return out


def domain_inputs(scheme) -> list:
    """All domain elements in lexicographic order."""
    if scheme.domain == DOMAIN_ALL:
        return list(product((0, 1), repeat=scheme.n))
    return enumerate_bal(scheme.n)


def table_decode(decoder: TableDecoder, values) -> np.ndarray:
    """``TableDecoder.__call__`` by grouping the rows with a sort, then one lookup per group."""
    first, inverse = group_rows(values)
    out = [decoder.table.get(tuple(row), decoder.default) for row in values[first].tolist()]
    return np.array(out, dtype=np.int64)[inverse]


def group_rows_by_unique(values) -> tuple[np.ndarray, np.ndarray]:
    """``group_rows`` for rows in any order: a column-by-column key fold, then
    ``np.unique``'s sort (``np.lexsort`` past int64)."""
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
    key = np.zeros(k, dtype=np.int64)
    for col in values.T:
        key *= radix
        key += col - lo
    key = key.astype(np.min_scalar_type(space - 1))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(k)


def entropy_by_group(dist, target, given) -> tuple[np.ndarray, list[int], list[float]]:
    """``infotheory.entropy_by_group`` by a Python loop over every (group, outcome)
    count: one ``_neg_plogp`` term per distinct (count, weight), one ``fsum`` per group."""
    given = list(given)
    pairs = dist.marginal(given + list(target))
    g_first, g_inv = group_rows_by_unique(pairs.rows[:, :len(given)])
    weights = [0] * len(g_first)
    for g, c in zip(g_inv.tolist(), pairs.counts.tolist()):
        weights[g] += c
    ends = np.cumsum(np.bincount(g_inv, minlength=len(g_first))).tolist()
    pair_counts = pairs.counts.tolist()
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
    return pairs.rows[g_first, :len(given)], weights, entropies


def column_tallies(columns, counts, m: int) -> np.ndarray:
    """Total count of each of the m^k keys that k value columns spell: every column
    folded into one int64 key, then one weighted ``np.bincount`` (counts below 2^53)."""
    key = np.zeros(len(counts), dtype=np.int64)
    for col in columns:
        key *= m
        key += col
    return np.bincount(key, weights=counts, minlength=m ** len(columns)).astype(np.int64)


def loop_verify(scheme):
    """One ``Scheme.answer`` call per (input, query), in lexicographic order."""
    checked = failures = 0
    first = None
    for x in domain_inputs(scheme):
        expected = oracle_all(scheme, x)
        for i in range(1, scheme.n + 1):
            got = scheme.answer(x, i)
            checked += 1
            if got != expected[i - 1]:
                failures += 1
                if first is None:
                    first = (x, i, got, expected[i - 1])
    return checked, failures, first


def _read_single(values):
    return values[0]


def precomputed_sums(n, cell_alphabet=None):
    """(encoder, decoders) of ``build_precomputed_sums`` on tuples."""
    return (lambda x: tuple(accumulate(x))), (_read_single,) * n


def two_level_rank(n, block, superblock, cell_alphabet):
    n_blocks, n_super, per_super = n // block, n // superblock, superblock // block

    def encode(x):
        sums = (0,) + tuple(accumulate(x))
        raw = tuple(sum(x[t * block + z] << z for z in range(block)) for t in range(n_blocks))
        partial = tuple(
            sums[t * block] - sums[(t // per_super) * superblock] for t in range(n_blocks))
        return raw + partial + tuple(sums[s * superblock] for s in range(n_super))

    decoders = []
    for i in range(1, n + 1):
        mask = (1 << (i - (i - 1) // block * block)) - 1
        decoders.append(lambda values, _mask=mask:
                        values[1] + values[2] + bin(values[0] & _mask).count("1"))
    return encode, tuple(decoders)


def raw_identity(n, cell_alphabet):
    per_cell = cell_alphabet.bit_length() - 1
    u = -(-n // per_cell)

    def encode(x):
        return tuple(sum(x[c * per_cell + z] << z for z in range(min(per_cell, n - c * per_cell)))
                     for c in range(u))

    decoders = []
    for i in range(1, n + 1):
        last = (i - 1) // per_cell
        mask = (1 << (i - last * per_cell)) - 1
        decoders.append(lambda values, _last=last, _mask=mask:
                        sum(bin(v).count("1") for v in values[:_last])
                        + bin(values[_last] & _mask).count("1"))
    return encode, tuple(decoders)


def bracket_table(n, cell_alphabet=None):
    return match_all, (_read_single,) * n


CLOSURES = {
    "precomputed_sums": precomputed_sums,
    "two_level_rank": two_level_rank,
    "raw_identity": raw_identity,
    "bracket_table": bracket_table,
}


def _as_sets(family) -> list[frozenset]:
    sets = [frozenset(int(e) for e in s) for s in family]
    if not sets:
        raise ParameterError("separator needs a nonempty family of sets")
    return sets


def greedy_disjoint(family) -> tuple[int, ...]:
    """1-based indices of a maximal disjoint subfamily, scanning in index order."""
    chosen = []
    used: set = set()
    for idx, s in enumerate(family, start=1):
        s = frozenset(s)
        if used.isdisjoint(s):
            chosen.append(idx)
            used |= s
    return tuple(chosen)


def find_separator(family, g) -> SeparatorResult:
    """``separator.find_separator`` with one frozenset per probe set."""
    sets = _as_sets(family)
    n = len(sets)
    q = max(len(s) for s in sets)
    gap = Fraction(g)
    if gap < 1:
        raise ParameterError(f"gap must be >= 1, got {g}")
    k0 = Fraction(n) / (gap * q) ** q if q else Fraction(n)
    blocker: set = set()
    log: list[StageLog] = []
    for i in range(q + 1):
        reduced = [s - blocker for s in sets]
        chosen = greedy_disjoint(reduced)
        threshold = k0 * (gap * q) ** i
        bound_now = k0 * gap ** (i - 1) * q ** i if i >= 1 else Fraction(0)
        if len(chosen) >= threshold:
            log.append(StageLog(i, len(chosen), threshold, True,
                                len(blocker), bound_now, len(blocker) <= bound_now))
            return SeparatorResult(
                B=frozenset(blocker), V=chosen, w=len(chosen), n=n, q=q,
                gap=gap, k0=k0, stages_run=i + 1, log=tuple(log),
            )
        for v in chosen:
            blocker |= reduced[v - 1]
        bound_after = k0 * gap ** i * q ** (i + 1)
        log.append(StageLog(i, len(chosen), threshold, False,
                            len(blocker), bound_after, len(blocker) <= bound_after))
    raise ConsistencyError("separator failed to terminate; stage q cannot fail")


class BracketStage(NamedTuple):
    """One stage of the bracket schedule: its floor n/lg^exponent n as a float (0.0 past
    the range), and whether |B| after it stays within n/lg^b_exponent n."""

    stage: int
    disjoint_found: int
    threshold: float
    success: bool
    b_size: int
    b_exponent: int
    b_size_ok: bool


@dataclass(frozen=True)
class BracketSchedule:
    """The bracket schedule's stage loop as it ran: the blocker, every stage, and the
    size bounds that held."""

    B: frozenset
    V: tuple[int, ...]
    a: int
    b: int
    n: int
    q: int
    c: int
    stages_run: int
    log: tuple[BracketStage, ...]
    size_floor_ok: bool
    b_size_ok: bool


def find_separator_brackets(family, c: int, require_preconditions: bool = True):
    """``separator.find_separator_brackets`` with one frozenset per probe set, running the
    schedule's full stage loop, where the package runs stage 0 alone."""
    sets = _as_sets(family)
    n = len(sets)
    c = int(c)
    if c < 4:
        raise ParameterError(f"the bracket schedule needs c >= 4, got {c}")
    if n < 4:
        raise ParameterError(f"need n >= 4 so lg lg n is positive, got {n}")
    q = max(len(s) for s in sets)
    if require_preconditions and q > math.log2(math.log2(n)) / c:
        raise ParameterError(
            f"q = {q} exceeds (lg lg n)/c = {math.log2(math.log2(n)) / c:.4f}"
        )
    d = 2 * c
    if d ** q > _BRACKET_EXPONENT_LIMIT:
        raise SizeError(f"schedule exponent d^q = {d ** q} exceeds {_BRACKET_EXPONENT_LIMIT}")
    lg_l = math.log2(math.log2(n))
    blocker: set = set()
    log: list[BracketStage] = []
    for i in range(q + 1):
        reduced = [s - blocker for s in sets]
        chosen = greedy_disjoint(reduced)
        exponent = d ** (q - i)
        threshold = n * 2.0 ** (-exponent * lg_l) if exponent * lg_l < 1000 else 0.0
        if _meets(len(chosen), n, lg_l, exponent):
            a, b = exponent, c * exponent
            b_size_ok = _b_within(len(blocker), n, lg_l, b)
            log.append(BracketStage(i, len(chosen), threshold, True, len(blocker), b, b_size_ok))
            return BracketSchedule(
                B=frozenset(blocker), V=chosen, a=a, b=b, n=n, q=q, c=c,
                stages_run=i + 1, log=tuple(log),
                size_floor_ok=math.log2(n) >= b * lg_l - 1e-12,
                b_size_ok=b_size_ok,
            )
        for v in chosen:
            blocker |= reduced[v - 1]
        next_exp = c * d ** (q - i - 1)
        log.append(BracketStage(i, len(chosen), threshold, False, len(blocker), next_exp,
                                _b_within(len(blocker), n, lg_l, next_exp)))
    raise ConsistencyError("bracket separator failed to terminate; stage q cannot fail")


def _b_within(b_size: int, n: int, lg_l: float, exponent: int) -> bool:
    """|B| <= n / (lg n)^exponent, in log space."""
    if b_size == 0:
        return True
    return math.log2(b_size) + exponent * lg_l <= math.log2(n) + 1e-12


def good_cells(dist, q: int, eta, alphabet: int, max_subsets: int = 200_000) -> GoodSetReport:
    """``infotheory.good_cells`` with one marginal per q-subset and no support bound."""
    if q < 1:
        raise ParameterError(f"subset size must be >= 1, got {q}")
    if alphabet < 2:
        raise ParameterError(f"alphabet must be >= 2, got {alphabet}")
    eta_f = Fraction(eta) if not isinstance(eta, Fraction) else eta
    if eta_f <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    if dist.rows.size and not 0 <= int(dist.rows.min()) <= int(dist.rows.max()) < alphabet:
        raise DomainError(f"cell values must lie in [0, {alphabet})")
    u = dist.arity
    n_subsets = math.comb(u, q)
    if n_subsets > max_subsets:
        raise SizeError(f"{n_subsets} subsets of size {q} exceed the exhaustive limit {max_subsets}")
    a = u * math.log2(alphabet) - math.log2(len(dist))
    d = dist.denom
    deficiency = tuple(
        math.log2(alphabet)
        - fsum(-(c / d) * math.log2(c / d) for c in dist.marginal((col,)).counts.tolist())
        for col in range(u))

    failing = []
    for subset in combinations(range(u), q):
        if tv_from_uniform(dist.marginal(subset), alphabet ** q) > eta_f:
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


def unmatched_open_probs(d_max: int) -> list[Fraction]:
    """``unmatched_open_prob(d)`` for d = 1..d_max, by one nesting-level walk.

    After the forced open at position 1 the level starts at 1 and must never
    return to 0; the walk's state after d-1 steps gives the value at d.
    """
    levels = {1: 1}
    out = []
    for d in range(1, d_max + 1):
        out.append(Fraction(sum(levels.values()), 2**d))
        nxt: dict[int, int] = {}
        for level, ways in levels.items():
            nxt[level + 1] = nxt.get(level + 1, 0) + ways
            if level - 1 >= 1:
                nxt[level - 1] = nxt.get(level - 1, 0) + ways
        levels = nxt
    return out


def unmatched_close_probs(d_max: int) -> list[Fraction]:
    """``unmatched_close_prob(d)`` for d = 1..d_max, by one stack-height walk.

    Closes that arrive at height 0 are absorbed; x_d is an unmatched close
    exactly when the height is 0 after the first d-1 bits.
    """
    heights = {0: 1}
    out = []
    for d in range(1, d_max + 1):
        out.append(Fraction(heights.get(0, 0), 2**d))
        nxt: dict[int, int] = {}
        for height, ways in heights.items():
            nxt[height + 1] = nxt.get(height + 1, 0) + ways
            down = max(height - 1, 0)
            nxt[down] = nxt.get(down, 0) + ways
        heights = nxt
    return out


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


# the scheme-file reader, line by line

_HEADER_KEYS = ("n", "u", "q", "cell_alphabet", "domain", "kind")

# byte -> bit for the characters of an input, -1 for any other byte
_BIT = np.full(256, -1, dtype=np.int8)
_BIT[list(b"01()")] = (0, 1, 1, 0)
_TEXT = np.ones(256, dtype=bool)
_TEXT[list(b" \t\n\r\x0b\x0c")] = False
_NONDIGIT = _TEXT.copy()
_NONDIGIT[list(b"0123456789")] = False


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


# the scheme-file writer, one Python object per value through a '%' template


def encoder_lines(scheme) -> list[str]:
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


def write_scheme(scheme) -> str:
    """``schemeio.write_scheme`` with its encoder rows formatted by ``encoder_lines``."""
    table = scheme.builtin is None
    lines = [f"{key}: {getattr(scheme, key)}" for key in _HEADER_KEYS]
    lines += ["encoder: table", *encoder_lines(scheme)] if table else [
        f"encoder: {schemeio._format_builtin(scheme.builtin)}"]
    lines += ["probes:", *(f"  {schemeio._values_key(probe)}" for probe in scheme.probes)]
    lines.append(f"decoders: {'table' if table else 'builtin'}")
    for i, (entries, default) in enumerate(schemeio._decoder_tables(scheme) if table else [],
                                           start=1):
        lines.append(f"  query {i}")
        if default:
            lines.append(f"    default {default}")
        lines += [f"    {schemeio._values_key(values)} -> {entries[values]}"
                  for values in sorted(entries)]
    return "\n".join(lines) + "\n"


# the dict constructor of TableEncoder, every cell read into one int64 matrix


def table_encoder(table) -> TableEncoder:
    """``TableEncoder(table)``: its refusals in the same order, its cells read as int64."""
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
    return TableEncoder.from_rows(inputs.view(np.int8).reshape(k, n), cells.reshape(k, u))
