"""Balanced-bracket combinatorics: matching, Catalan counts, ballot-walk probabilities.

Convention: bit 1 is an open bracket and bit 0 is a closed bracket, so every
prefix of a balanced string has at least as many ones as zeros.  The empty
string (n = 0) counts as balanced.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bits import Bits
from .errors import DomainError, ParameterError, RangeError, SizeError

# Full enumeration beyond this length is too large to be useful at desk scale.
ENUMERATION_LIMIT = 28

# rows per block in match_rows, which keeps a few int64 copies of each block
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


def match_rows(bits: np.ndarray) -> np.ndarray:
    """Match for every position of every row of a k x n matrix of balanced strings.

    Entry [r, p] is the 1-based partner of position p+1 in row r.  Partners
    share a nesting level, along which opens and closes alternate, so a stable
    sort of each row by level pairs entries 2t and 2t+1.
    """
    out = np.empty(bits.shape, dtype=np.int64)
    for start in range(0, len(bits), _MATCH_BLOCK):
        block = bits[start:start + _MATCH_BLOCK].astype(np.int64)
        depth = np.cumsum(2 * block - 1, axis=1)
        bad = (depth < 0).any(axis=1) | (2 * block.sum(axis=1) != bits.shape[1])
        if bad.any():
            x = tuple(block[int(np.argmax(bad))].tolist())
            raise DomainError(f"input {x} is not a balanced bracket string")
        # an open sits at the depth after it, a close at the depth before it
        order = np.argsort(depth + 1 - block, axis=1, kind="stable")
        rows = np.arange(len(block))[:, None]
        opens, closes = order[:, 0::2], order[:, 1::2]
        part = out[start:start + _MATCH_BLOCK]
        part[rows, opens] = closes + 1
        part[rows, closes] = opens + 1
    return out


def unmatched_ends(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a k x w bits matrix: whether its first bracket opens and stays
    unmatched within the row, and whether its last closes and stays unmatched.

    The first stays open when every prefix holds more opens than closes, the
    last stays closed when every suffix holds more closes than opens.
    """
    steps = 2 * window.astype(np.int64) - 1
    return ((np.cumsum(steps, axis=1) >= 1).all(axis=1),
            (np.cumsum(-steps[:, ::-1], axis=1) >= 1).all(axis=1))


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
