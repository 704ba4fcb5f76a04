"""Per-input references the row-wise package is checked against.

The package encodes and decodes whole matrices; these are the plain
one-input-at-a-time formulas: the builtin schemes' encoders and decoders as
tuple closures, a Python prefix-sum and Match oracle, a verification loop
that asks the scheme one (input, query) pair at a time, the staged
separators on frozensets, and the good-cells filter that builds one
marginal per subset.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import fsum

from cellprobe import (
    DOMAIN_ALL,
    KIND_SUM,
    ConsistencyError,
    DomainError,
    GoodSetReport,
    ParameterError,
    SizeError,
    enumerate_bal,
    prefix_sums,
    scan_matches,
    tv_from_uniform,
)
from cellprobe.separator import (
    _BRACKET_EXPONENT_LIMIT,
    BracketSeparatorResult,
    SeparatorResult,
    StageLog,
    _b_within,
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


def domain_inputs(scheme) -> list:
    """All domain elements in lexicographic order."""
    if scheme.domain == DOMAIN_ALL:
        return list(product((0, 1), repeat=scheme.n))
    return enumerate_bal(scheme.n)


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


def find_separator_brackets(family, c: int, require_preconditions: bool = True):
    """``separator.find_separator_brackets`` with one frozenset per probe set."""
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
    log: list[StageLog] = []
    for i in range(q + 1):
        reduced = [s - blocker for s in sets]
        chosen = greedy_disjoint(reduced)
        exponent = d ** (q - i)
        threshold = n * 2.0 ** (-exponent * lg_l) if exponent * lg_l < 1000 else 0.0
        if _meets(len(chosen), n, lg_l, exponent):
            a, b = exponent, c * exponent
            b_size_ok = _b_within(len(blocker), n, lg_l, b)
            log.append(StageLog(i, len(chosen), threshold, True,
                                len(blocker), f"n/lg^{b} n", b_size_ok))
            return BracketSeparatorResult(
                B=frozenset(blocker), V=chosen, a=a, b=b, n=n, q=q, c=c,
                stages_run=i + 1, log=tuple(log),
                size_floor_ok=math.log2(n) >= b * lg_l - 1e-12,
                b_size_ok=b_size_ok,
            )
        for v in chosen:
            blocker |= reduced[v - 1]
        next_exp = c * d ** (q - i - 1)
        log.append(StageLog(i, len(chosen), threshold, False,
                            len(blocker), f"n/lg^{next_exp} n",
                            _b_within(len(blocker), n, lg_l, next_exp)))
    raise ConsistencyError("bracket separator failed to terminate; stage q cannot fail")


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
