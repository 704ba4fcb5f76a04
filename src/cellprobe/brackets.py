"""Balanced-bracket combinatorics: matching, Catalan counts, ranks, ballot-walk probabilities.

Convention: bit 1 is an open bracket and bit 0 is a closed bracket, so every
prefix of a balanced string has at least as many ones as zeros.  The empty
string (n = 0) counts as balanced.

The matrix kernels (``partners``, ``unmatched_ends``, ``unrank_balanced``)
work on a block of strings transposed to position-major order, so that each
step, one depth, one partner distance or one bit of a rank, is a single pass
over every string of the block.  A pass is plain arithmetic on whole
matrices: ``partners`` adds each pair's distance in, since one write through
a boolean mask costs more than all the rest of its pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, RangeError

# rows per block in partners, which keeps a few narrow n x block matrices
_MATCH_BLOCK = 4096


def _depths(bits: np.ndarray) -> np.ndarray:
    """Nesting depths of a k x n bits block, position-major: an (n+1) x k matrix whose
    row j is each row's depth after its first j brackets, in the narrowest signed
    type that holds n.  Built with one add per position, each over k values."""
    n = bits.shape[1]
    dtype = np.min_scalar_type(-n - 1)
    steps = np.array(bits.T, dtype=dtype, order="C")
    steps += steps
    steps -= 1
    depth = np.zeros((n + 1, len(bits)), dtype=dtype)
    for p in range(n):
        np.add(depth[p], steps[p], out=depth[p + 1])
    return depth


def _balanced(depth: np.ndarray) -> np.ndarray:
    """Which strings of a position-major depth matrix never go below 0 and end at 0."""
    return (depth.min(axis=0) >= 0) & (depth[-1] == 0)


def balanced(bits: np.ndarray) -> np.ndarray:
    """Which rows of a k x n bits matrix are balanced strings, as a length-k bool column."""
    return _balanced(_depths(bits))


def partners(bits: np.ndarray) -> np.ndarray:
    """Match for every position of every row of a k x n matrix of balanced strings.

    Entry [r, p] is the 1-based partner of position p+1 in row r, in the narrowest
    signed type that holds n, ``np.min_scalar_type(-n - 1)`` (int8 through n = 127); the
    result is the transposed view of an n x k position-major matrix.  Each block of
    rows is scanned position-major.  An open at p pairs with the first q = p + t whose
    depth after it is the depth before p; t is odd, so the scan tries t = 1, 3, 5, ...
    over all positions at once and stops when every open has its partner.  That costs
    O(k * n * L) for the longest partner distance L in a block: at most n/2 passes, so
    a 64 x 2,000 fully nested block takes about a thousand.

    One pass finds the opens still pending whose depth returns t positions on, forms
    t times that hit matrix in one scratch matrix every pass reuses, adds it to the
    signed distances at the opens and subtracts it at the closes t rows down.  Each
    open hits once, since the hit clears it from the pending opens, and its close is
    hit in the same pass, so every distance is written by exactly one add and no pass
    needs a write through a mask.
    """
    k, n = bits.shape
    dtype = np.min_scalar_type(-n - 1)
    out = np.empty((n, k), dtype=dtype)
    positions = np.arange(1, n + 1, dtype=dtype)[:, None]
    moved = np.empty((n, min(k, _MATCH_BLOCK)), dtype=dtype)
    for start in range(0, k, _MATCH_BLOCK):
        block = bits[start:start + _MATCH_BLOCK]
        depth = _depths(block)
        bad = ~_balanced(depth)
        if bad.any():
            x = tuple(np.asarray(block[int(np.argmax(bad))], dtype=np.int64).tolist())
            raise DomainError(f"input {x} is not a balanced bracket string")
        pending = depth[1:] > depth[:-1]
        # signed distance to the partner: +t on an open, -t on its close
        dist = np.zeros(pending.shape, dtype=dtype)
        for t in range(1, n, 2):
            hit = depth[t + 1:] == depth[:n - t]
            hit &= pending[:n - t]
            step = np.multiply(hit, t, out=moved[:n - t, :len(block)], dtype=dtype)
            dist[:n - t] += step
            dist[t:] -= step
            pending[:n - t] ^= hit
            if not pending.any():
                break
        np.add(positions, dist, out=out[:, start:start + _MATCH_BLOCK])
    return out.T


def match_rows(bits: np.ndarray) -> np.ndarray:
    """``partners`` as int64: entry [r, p] is the 1-based partner of position p+1 in row r."""
    return partners(bits).astype(np.int64)


def unmatched_ends(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a k x w bits matrix: whether its first bracket opens and stays
    unmatched within the row, and whether its last closes and stays unmatched.

    The first stays open when the depth after every prefix is at least 1, the
    last stays closed when the final depth lies below the depth after every
    shorter prefix; both read the position-major depths of the window.
    """
    depth = _depths(window)
    return (depth[1:] >= 1).all(axis=0), (depth[:-1] > depth[-1]).all(axis=0)


def match_index(bits, i: int) -> int:
    """1-based partner of position ``i`` in a balanced string."""
    bits = tuple(bits)
    if any(b not in (0, 1) for b in bits):
        raise DomainError(f"bracket strings are 0/1 sequences, got {bits}")
    row = np.array([bits], dtype=np.int8).reshape(1, len(bits))
    if not balanced(row)[0]:
        raise DomainError("match_index is only defined on balanced strings")
    if not 1 <= i <= len(bits):
        raise RangeError(f"position {i} out of range 1..{len(bits)}")
    return int(match_rows(row)[0, i - 1])


def catalan_count(n: int) -> int:
    """Number of balanced bracket strings of length ``n`` (n even, n >= 0)."""
    if n < 0 or n % 2:
        raise ParameterError(f"balanced strings need even non-negative length, got {n}")
    half = n // 2
    return math.comb(n, half) // (half + 1)


@lru_cache(maxsize=None)
def _ballot_table(n: int) -> tuple[np.ndarray, int]:
    """T[p, j]: how many balanced strings of length n continue p bits holding j ones with
    a close at position p (0 at depth 2j - p = 0), from the ballot numbers ways[r, h + 1],
    the walks of r steps from depth h down to 0 that never go below it; and ways[n, 1],
    the count of the strings.  A count past int64 is held as int64's largest value, which
    no int64 rank reaches."""
    top = np.uint64(np.iinfo(np.int64).max)
    ways = np.zeros((n + 1, n + 3), dtype=np.uint64)
    ways[0, 1] = 1
    for r in range(1, n + 1):
        np.minimum(ways[r - 1, :-2] + ways[r - 1, 2:], top, out=ways[r, 1:-1])
    p, j = np.arange(n)[:, None], np.arange(n // 2 + 1)
    depth = 2 * j - p
    table = np.where(depth > 0, ways[n - 1 - p, np.maximum(depth, 0)], np.uint64(0))
    table.flags.writeable = False  # one cached table serves every caller
    return table, int(ways[n, 1])


def unrank_balanced(n: int, start: int, stop: int) -> np.ndarray:
    """The balanced strings of length ``n`` of lexicographic ranks start..stop-1 (0 < 1),
    as the rows of an int8 bits block; the block is a transposed position-major view.

    Position by position, over every rank at once: a rank below the count of
    strings that close here takes the close; any other takes the open and drops
    that count.  Ranks are unsigned, so rank - count wraps past the rank when the
    count is the larger, and the smaller of the two is the rank to carry on.
    """
    table, last = _ballot_table(n)
    if not 0 <= start <= stop <= last:
        raise RangeError(f"ranks {start}..{stop} outside 0..{last}, the int64 ranks of length {n}")
    ranks = np.arange(start, stop, dtype=np.uint64)
    ones = np.zeros(len(ranks), dtype=np.intp)
    bits = np.empty((n, len(ranks)), dtype=bool)
    for p, closes in enumerate(table):
        below = closes.take(ones)
        np.greater_equal(ranks, below, out=bits[p])
        np.subtract(ranks, below, out=below)
        np.minimum(ranks, below, out=ranks)
        ones += bits[p]
    return bits.view(np.int8).T


def unmatched_open_prob(d: int) -> Fraction:
    """Pr over uniform x in {0,1}^d that x_1 is open and never matched in x.

    After the forced open at position 1 the nesting level starts at 1 and must
    never return to 0 in the remaining d-1 bits.  A +-1 walk of d-1 steps that
    never drops below its start has C(d-1, floor((d-1)/2)) paths (a ballot
    count), so the probability is that count over 2^d.
    """
    if d < 1:
        raise ParameterError(f"window length must be >= 1, got {d}")
    return Fraction(math.comb(d - 1, (d - 1) // 2), 2**d)


def unmatched_close_prob(d: int) -> Fraction:
    """Pr over uniform x in {0,1}^d that x_d is closed and never matched in x.

    x_d is an unmatched close exactly when the first d-1 bits end at their
    running minimum of the nesting level; reversing those bits maps such walks
    onto the walks of ``unmatched_open_prob``, so the two probabilities agree.
    """
    return unmatched_open_prob(d)
