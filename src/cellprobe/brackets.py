"""Balanced-bracket combinatorics: matching, Catalan counts, ballot-walk probabilities.

Convention: bit 1 is an open bracket and bit 0 is a closed bracket, so every
prefix of a balanced string has at least as many ones as zeros.  The empty
string (n = 0) counts as balanced.

The matrix kernels (``match_rows``, ``unmatched_ends``) work on a block of
strings transposed to position-major order, so that each step, one depth or
one partner distance, is a single pass over every string of the block.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bits import Bits
from .errors import DomainError, ParameterError, RangeError, SizeError

# Full enumeration beyond this length is too large to be useful at desk scale.
ENUMERATION_LIMIT = 28

# rows per block in match_rows, which keeps a few narrow n x block copies
_MATCH_BLOCK = 4096


def is_balanced(bits) -> bool:
    """True when every prefix has #open >= #closed and the totals are equal."""
    depth = 0
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"bracket strings are 0/1 sequences, got {b!r}")
        depth += 1 if b else -1
        if depth < 0:
            return False
    return depth == 0


def scan_matches(bits) -> tuple:
    """Stack-scan partner map for an arbitrary 0/1 string.

    Entry k is the 1-based partner of position k+1, or None when that bracket
    stays unmatched within the string.  A closed bracket always pairs with the
    most recent unmatched open bracket, if any.
    """
    partners: list = [None] * len(bits)
    stack: list[int] = []
    for pos, b in enumerate(bits):
        if b == 1:
            stack.append(pos)
        elif stack:
            opener = stack.pop()
            partners[opener] = pos + 1
            partners[pos] = opener + 1
    return tuple(partners)


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


def match_rows(bits: np.ndarray) -> np.ndarray:
    """Match for every position of every row of a k x n matrix of balanced strings.

    Entry [r, p] is the 1-based partner of position p+1 in row r, as int64; the
    result may be a transposed view of an n x k matrix.  Each block of rows is
    scanned position-major.  An open at p pairs with the first q = p + t whose
    depth after it is the depth before p; t is odd, so the scan tries t = 1, 3,
    5, ... over all positions at once and stops when every open has its partner.
    That costs O(k * n * L) for the longest partner distance L in a block: at
    most n/2 passes, 14 on a workbench domain (n <= 28), but a 64 x 2,000
    fully nested block takes about a thousand.
    """
    k, n = bits.shape
    out = np.empty((n, k), dtype=np.int64)
    positions = np.arange(1, n + 1)[:, None]
    for start in range(0, k, _MATCH_BLOCK):
        block = bits[start:start + _MATCH_BLOCK]
        depth = _depths(block)
        bad = (depth.min(axis=0) < 0) | (depth[n] != 0)
        if bad.any():
            x = tuple(np.asarray(block[int(np.argmax(bad))], dtype=np.int64).tolist())
            raise DomainError(f"input {x} is not a balanced bracket string")
        pending = depth[1:] > depth[:-1]
        # signed distance to the partner: +t on an open, -t on its close
        dist = np.zeros(pending.shape, dtype=depth.dtype)
        for t in range(1, n, 2):
            hit = depth[t + 1:] == depth[:n - t]
            hit &= pending[:n - t]
            np.copyto(dist[:n - t], t, where=hit)
            np.copyto(dist[t:], -t, where=hit)
            pending[:n - t] ^= hit
            if not pending.any():
                break
        np.add(positions, dist, out=out[:, start:start + _MATCH_BLOCK])
    return out.T


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
    if not is_balanced(bits):
        raise DomainError("match_index is only defined on balanced strings")
    if not 1 <= i <= len(bits):
        raise RangeError(f"position {i} out of range 1..{len(bits)}")
    return scan_matches(bits)[i - 1]


def catalan_count(n: int) -> int:
    """Number of balanced bracket strings of length ``n`` (n even, n >= 0)."""
    if n < 0 or n % 2:
        raise ParameterError(f"balanced strings need even non-negative length, got {n}")
    half = n // 2
    return math.comb(n, half) // (half + 1)


def balanced_rows(n: int) -> np.ndarray:
    """All balanced strings of length ``n`` as the rows of an int8 matrix, in
    lexicographic order (0 < 1).

    Built a position at a time over the prefixes, each held as its value and
    depth: a prefix takes a 0 while its depth is positive and a 1 while the
    positions left can still close it.  The values are sorted, then unpacked.
    """
    if n < 0 or n % 2:
        raise ParameterError(f"balanced strings need even non-negative length, got {n}")
    if n > ENUMERATION_LIMIT:
        raise SizeError(f"refusing to enumerate balanced strings of length {n} > {ENUMERATION_LIMIT}")
    values = np.zeros(1, dtype=np.int64)
    depth = np.zeros(1, dtype=np.int64)
    for pos in range(n):
        close, open_ = depth > 0, depth + 1 <= n - pos - 1
        values = np.concatenate((2 * values[close], 2 * values[open_] + 1))
        depth = np.concatenate((depth[close] - 1, depth[open_] + 1))
    values.sort()
    # n <= 28 bits: four big-endian bytes per value, of which the last n bits are the string
    words = values.astype(">u4").view(np.uint8).reshape(len(values), 4)
    return np.unpackbits(words, axis=1)[:, 32 - n:].astype(np.int8)


def enumerate_bal(n: int) -> list[Bits]:
    """All balanced strings of length ``n`` in lexicographic order (0 < 1), as tuples."""
    return list(map(tuple, balanced_rows(n).tolist()))


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
