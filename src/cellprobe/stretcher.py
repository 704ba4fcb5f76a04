"""Sweep extraction of index pairs whose left gap dominates the right gap.

From ascending indices v_1 < ... < v_w in [1, n] the sweep produces an even
subsequence v'_1 < ... < v'_{w'} with

    v'_{2k+1} - v'_{2k} >= c * (v'_{2k+2} - v'_{2k+1}),   v'_0 := 0,

of length w' >= 2*floor(w/(c*lg n)).  Each window of t = floor(c*lg n)
consecutive indices must contain a qualifying position; otherwise the gaps
would grow geometrically past n.  At small n that existence argument can
genuinely fail.  The sweep then stops and its result names the stuck position
and window beside the pairs found before it, so a caller reads one result
whether or not the sweep completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .textfmt import fmt_short


@dataclass(frozen=True)
class StretchPair:
    """One selected pair with the gaps that witness the inequality."""

    prev: int    # v'_{2k} (0 for the first pair)
    left: int    # v'_{2k+1}
    right: int   # v'_{2k+2}

    @property
    def left_gap(self) -> int:
        return self.left - self.prev

    @property
    def right_gap(self) -> int:
        return self.right - self.left

    def satisfies(self, c) -> bool:
        # left >= (p/q) right, for c = p/q in lowest terms, as q left >= p right in integers
        c = Fraction(c)
        return c.denominator * self.left_gap >= c.numerator * self.right_gap


@dataclass(frozen=True)
class StretcherResult:
    v_prime: tuple[int, ...]
    w_prime: int
    pairs: tuple[StretchPair, ...]
    n: int
    c: Fraction
    t: int
    w: int
    guarantee: int            # 2*floor(w/(c*lg n))
    guarantee_ok: bool
    stuck_at: int | None = None               # the position whose window held no pair
    window: tuple[int, ...] | None = None     # v_s .. v_{s+t} there, v_0 := 0


def find_stretcher(indices, n: int, c) -> StretcherResult:
    """Run the window sweep, always taking the first qualifying position.

    A window with no qualifying position stops the sweep: ``stuck_at`` and
    ``window`` then name it, and the pairs are those found before it.
    """
    v = tuple(int(x) for x in indices)
    if any(v[k] >= v[k + 1] for k in range(len(v) - 1)):
        raise ParameterError("indices must be strictly ascending")
    if v and not (1 <= v[0] and v[-1] <= n):
        raise ParameterError(f"indices must lie in [1, {n}]")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    cf = Fraction(c)
    if cf <= 1:
        raise ParameterError(f"c must be > 1, got {fmt_short(cf)}")
    w = len(v)
    try:
        t = math.floor(float(cf) * math.log2(n))
        guarantee = 2 * math.floor(w / (float(cf) * math.log2(n)))
    except OverflowError:
        raise ParameterError("c * lg n is past the float range") from None

    seq = (0,) + v  # sentinel v_0 := 0
    # the left gap is at least c times the right one, with c = p/q: q * left >= p * right
    p, q = cf.numerator, cf.denominator
    pairs: list[StretchPair] = []
    s = 0
    stuck_at = window = None
    while t >= 1 and s <= w - t:
        for i in range(1, t):
            if q * (seq[s + i] - seq[s]) >= p * (seq[s + i + 1] - seq[s + i]):
                pairs.append(StretchPair(prev=seq[s], left=seq[s + i], right=seq[s + i + 1]))
                s = s + i + 1
                break
        else:
            stuck_at, window = s, seq[s:s + t + 1]
            break

    v_prime = tuple(x for p in pairs for x in (p.left, p.right))
    return StretcherResult(
        v_prime=v_prime, w_prime=len(v_prime), pairs=tuple(pairs), n=n, c=cf, t=t, w=w,
        guarantee=guarantee, guarantee_ok=len(v_prime) >= guarantee,
        stuck_at=stuck_at, window=window,
    )
