"""Threshold analysis for prefix sums of a high-entropy block.

Given indices p < i < j with ell = i - p and d = j - i, the analysis finds
the largest integer t such that the good prefixes still carry sum-tail mass
1/4 at t, then evaluates the three probability statements

    P_upper = Pr[sum of first j bits >= s],   s  = t + (ell+d)/2 + c^(1/3)*sqrt(d)
    P_lower = Pr[sum of first i bits <  s'],  s' = t + ell/2
    P_joint = Pr[both]

all in exact rational arithmetic.  It is one analysis with two ways of
measuring it.  t comes from one tail scan, and s, s' and the block cut are
computed once and turned into integer cuts, since every sum is an integer.
Only the five probabilities at those cuts are measured two ways: by
enumeration over an explicit distribution, or in closed binomial form for the
exactly uniform distribution on {0,1}^n, which never materializes the space.
When the good prefixes carry under 1/4 of the mass no t exists, and the
witness reports that instead of raising: t and everything measured at it are
None, and no tail bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import ParameterError
from .infotheory import entropy_by_group, group_rows, mean_entropy, sum_by
from .textfmt import fmt_short

_TOL = 1e-9


def binomial_tail(n_trials: int, threshold) -> Fraction:
    """Pr[Bin(n_trials, 1/2) >= threshold]; the threshold may be any real."""
    if n_trials < 0:
        raise ParameterError(f"trial count must be >= 0, got {n_trials}")
    lo = max(0, math.ceil(threshold))
    if lo > n_trials:
        return Fraction(0)
    # C(n, k+1) = C(n, k)*(n-k)/(k+1), exactly, from one C(n, lo)
    terms = accumulate(range(lo, n_trials), lambda term, k: term * (n_trials - k) // (k + 1),
                       initial=math.comb(n_trials, lo))
    return Fraction(sum(terms), 2 ** n_trials)


def _sixth_root(m: int):
    """Exact integer sixth root of m >= 0, or None."""
    if m < 2:
        return m
    lo, hi = 1, 1 << (m.bit_length() // 6 + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 6 < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** 6 == m else None


def stretch_term(c, d):
    """c^(1/3)*sqrt(d) as an exact Fraction when c^2*d^3 is a perfect 6th power."""
    if isinstance(c, Rational) and isinstance(d, Rational) and c >= 0 and d >= 0:
        m = Fraction(c) ** 2 * Fraction(d) ** 3
        num, den = _sixth_root(m.numerator), _sixth_root(m.denominator)
        if num is not None and den is not None:
            return Fraction(num, den)
    return float(c) ** (1 / 3) * math.sqrt(d)


@dataclass(frozen=True)
class PrefixSetReport:
    """The good prefixes A and the hypothesis measurements behind them."""

    A: tuple
    pr_A: Fraction
    hypothesis_entropy: float   # H(Z | Y) as measured
    hypothesis_floor: float     # ell + d - 1/c
    hypothesis_ok: bool
    member_floor: float         # ell + d - 2/c
    claim_half_ok: bool         # Pr[Y in A] >= 1/2


def good_prefix_set(dist, p: int, j: int, c) -> PrefixSetReport:
    """Prefixes y of length p whose conditional block (p..j] keeps near-full entropy.

    Zero-probability prefixes are excluded (their conditional entropy is
    undefined and they carry no mass).  The entropy hypothesis
    H(block | prefix) >= (j-p) - 1/c is measured and reported in
    ``hypothesis_ok``, never raised.
    """
    n = dist.arity
    if not 0 <= p < j <= n:
        raise ParameterError(f"need 0 <= p < j <= {n}, got p={p} j={j}")
    if float(c) <= 0:
        raise ParameterError(f"c must be positive, got {fmt_short(c)}")
    span = j - p
    prefixes, weights, entropies = entropy_by_group(dist, range(p, j), range(p))
    measured = mean_entropy(weights, entropies, dist.denom)
    floor = span - 1 / float(c)
    member_floor = span - 2 / float(c)
    members = []
    mass = 0
    for y, w, h in zip(prefixes.tolist(), weights, entropies):
        if h >= member_floor - _TOL:
            members.append(tuple(y))
            mass += w
    pr_a = Fraction(mass, dist.denom)
    return PrefixSetReport(
        A=tuple(members),
        pr_A=pr_a,
        hypothesis_entropy=measured,
        hypothesis_floor=floor,
        hypothesis_ok=measured >= floor - _TOL,
        member_floor=member_floor,
        claim_half_ok=pr_a >= Fraction(1, 2),
    )


@dataclass(frozen=True)
class ThresholdReport:
    t: int
    pr_at_t: Fraction        # Pr[Y in A and sum >= t]
    pr_at_next: Fraction     # Pr[Y in A and sum >= t+1], necessarily < 1/4
    pr_lower_tail: Fraction  # Pr[Y in A and sum <= t]


def _threshold(sums, mass, denom: int) -> ThresholdReport | None:
    """Largest sum t whose tail keeps 1/4: ``mass[k]`` out of ``denom`` sits at
    ``sums[k]``, and the sums ascend.  None when the whole mass is under 1/4."""
    total = sum(mass)
    if 4 * total < denom:
        return None
    # tails[k] = mass of the sums >= sums[k]; it shrinks with k, and t is the
    # largest sum whose tail keeps 1/4
    tails = list(accumulate(reversed(mass)))[::-1] + [0]
    k = sum(4 * tail >= denom for tail in tails) - 1
    return ThresholdReport(t=int(sums[k]), pr_at_t=Fraction(tails[k], denom),
                           pr_at_next=Fraction(tails[k + 1], denom),
                           pr_lower_tail=Fraction(total - tails[k + 1], denom))


def find_threshold(dist, a_set, p: int) -> ThresholdReport | None:
    """Largest integer t with Pr[prefix in A and prefix-sum >= t] >= 1/4.

    When Pr[prefix in A] < 1/4 no integer qualifies, and the result is None.
    """
    members = {tuple(y) for y in a_set}
    prefix = dist.rows[:, :p]
    first, inverse = group_rows(prefix)
    in_a = np.array([tuple(y) in members for y in prefix[first].tolist()], dtype=bool)
    mask = in_a[inverse]
    sums, at_sum = np.unique(prefix[mask].sum(axis=1), return_inverse=True)
    return _threshold(sums, sum_by(len(sums), at_sum, dist.counts[mask]).tolist(), dist.denom)


@dataclass(frozen=True)
class EntropySumWitness:
    """Everything the threshold analysis measured, with exact probabilities."""

    p: int
    i: int
    j: int
    ell: int
    d: int
    c: object
    ratio_ok: bool              # ell >= c*d
    prefix_report: PrefixSetReport | None
    a_size: int
    pr_A: Fraction
    # t and everything measured at it are None when Pr[prefix in A] < 1/4
    t: int | None
    threshold_report: ThresholdReport | None
    s: object                   # t + (ell+d)/2 + c^(1/3)*sqrt(d); Fraction when exact
    s_prime: Fraction | None
    s_exact: bool
    cuts: tuple | None          # the integer cuts measured: ceil s, ceil s', floor s', block
    P_upper: Fraction | None
    P_lower: Fraction | None    # strict: sum < s'
    P_lower_leq: Fraction | None  # variant: sum <= s'
    P_joint: Fraction | None
    block_bound: Fraction | None  # Pr[sum over (i, j] >= d/2 + c^(1/3)*sqrt(d)]
    holds_upper: bool
    holds_lower: bool
    holds_joint: bool

    @property
    def holds(self) -> bool:
        return self.holds_upper and self.holds_lower and self.holds_joint

    @property
    def hypothesis_ok(self) -> bool:
        """The entropy hypothesis; it holds by construction on the closed form."""
        return self.prefix_report is None or self.prefix_report.hypothesis_ok


def _validate_indices(n: int, p: int, i: int, j: int, c) -> None:
    if not 0 <= p < i < j <= n:
        raise ParameterError(f"need 0 <= p < i < j <= {n}, got p={p} i={i} j={j}")
    try:
        if float(c) <= 0:
            raise ParameterError(f"c must be positive, got {fmt_short(c)}")
    except OverflowError:
        raise ParameterError("c is past the float range") from None


def _witness(p, i, j, c, prefix_report, a_size, pr_a, threshold, measure) -> EntropySumWitness:
    """The cuts at t, and the witness of what ``measure`` finds at them.

    ``measure(upper, lower, lower_leq, block)`` returns P_upper, P_lower,
    P_lower_leq, P_joint and block_bound at integer cuts: sum_j >= upper,
    sum_i < lower, sum_i <= lower_leq, block sum >= block.  Without a
    threshold nothing is measured: the cuts and probabilities are None, and
    no tail bound holds.
    """
    ell, d = i - p, j - i
    term = stretch_term(c, d)
    s_exact = isinstance(term, Fraction)
    t = s = s_prime = cuts = None
    P_upper = P_lower = P_lower_leq = P_joint = block_bound = None
    if threshold is not None:
        t = threshold.t
        s = Fraction(t) + Fraction(ell + d, 2) + term if s_exact else t + (ell + d) / 2 + term
        s_prime = Fraction(t) + Fraction(ell, 2)
        block = Fraction(d, 2) + term if s_exact else d / 2 + term
        # the sums are integers, so each real cut compares through its ceiling or floor
        cuts = (math.ceil(s), math.ceil(s_prime), math.floor(s_prime), math.ceil(block))
        P_upper, P_lower, P_lower_leq, P_joint, block_bound = measure(*cuts)
    return EntropySumWitness(
        p=p, i=i, j=j, ell=ell, d=d, c=c,
        ratio_ok=ell >= float(c) * d,
        prefix_report=prefix_report,
        a_size=a_size,
        pr_A=pr_a,
        t=t,
        threshold_report=threshold,
        s=s,
        s_prime=s_prime,
        s_exact=s_exact,
        cuts=cuts,
        P_upper=P_upper,
        P_lower=P_lower,
        P_lower_leq=P_lower_leq,
        P_joint=P_joint,
        block_bound=block_bound,
        holds_upper=t is not None and P_upper >= Fraction(1, 10),
        holds_lower=t is not None and P_lower >= Fraction(1, 10),
        holds_joint=t is not None and P_joint <= Fraction(1, 1000),
    )


def entropy_sum_analysis(dist, p: int, i: int, j: int, c) -> EntropySumWitness:
    """Exact threshold analysis by enumeration over the distribution's support."""
    _validate_indices(dist.arity, p, i, j, c)
    prefix = good_prefix_set(dist, p, j, c)
    sum_j = dist.rows[:, :j].sum(axis=1)
    sum_i = dist.rows[:, :i].sum(axis=1)

    def prob(mask) -> Fraction:
        return Fraction(int(dist.counts[mask].sum()), dist.denom)

    def measure(upper, lower, lower_leq, block):
        above, below = sum_j >= upper, sum_i < lower
        return (prob(above), prob(below), prob(sum_i <= lower_leq), prob(above & below),
                prob(sum_j - sum_i >= block))

    return _witness(p, i, j, c, prefix, len(prefix.A), prefix.pr_A,
                    find_threshold(dist, prefix.A, p), measure)


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n)."""
    return list(accumulate(range(n), lambda term, k: term * (n - k) // (k + 1), initial=1))


def entropy_sum_analysis_uniform(n: int, p: int, i: int, j: int, c) -> EntropySumWitness:
    """Same analysis for the exactly uniform distribution on {0,1}^n, in closed form.

    Every prefix is good (each conditional block is exactly uniform), so A is
    all of {0,1}^p, the prefix sum is Bin(p), and the first-i sum Bin(i) and
    the block sum Bin(d) are independent.
    """
    _validate_indices(n, p, i, j, c)
    d = j - i

    def measure(upper, lower, lower_leq, block):
        row_i = _binomial_row(i)
        below_i = list(accumulate(row_i, initial=0))   # below_i[a] = #{sum_i < a}
        tail_d = list(accumulate(reversed(_binomial_row(d))))[::-1] + [0]

        def block_tail(b):   # #{block sums >= b}
            return tail_d[min(max(b, 0), d + 1)]

        # split on the first-i sum a < s'; the block then needs >= s - a
        joint = sum(count * block_tail(upper - a)
                    for a, count in enumerate(row_i[:lower]))
        return (binomial_tail(j, upper), Fraction(below_i[lower], 2 ** i),
                Fraction(below_i[lower_leq + 1], 2 ** i), Fraction(joint, 2 ** j),
                Fraction(block_tail(block), 2 ** d))

    return _witness(p, i, j, c, None, 2 ** p, Fraction(1),
                    _threshold(range(p + 1), _binomial_row(p), 2 ** p), measure)
