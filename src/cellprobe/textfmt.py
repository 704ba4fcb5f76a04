"""Deterministic text rendering for report values.

Every report renderer funnels values through these helpers so that repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction

from .errors import DomainError

__all__ = ["LongFraction", "fmt", "fmt_float", "fmt_short", "machine_value"]


class LongFraction(Fraction):
    """A Fraction whose terms print in full, past Python's limit on the digits
    ``str`` gives an int; every other int past that limit is refused."""

    __slots__ = ()


def fmt_float(x: float) -> str:
    if x != x:
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _fraction(x: Fraction) -> str:
    """Exact form p/q, or p when the denominator is 1."""
    text = _digits if isinstance(x, LongFraction) else _text
    if x.denominator == 1:
        return text(x.numerator)
    return f"{text(x.numerator)}/{text(x.denominator)}"


def fmt_short(x) -> str:
    """x for an error message: exact when short, else to three significant digits."""
    if not isinstance(x, (int, Fraction)):
        return str(x)
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 64:
        return str(x)
    return str(decimal.Context(prec=3, Emax=decimal.MAX_EMAX).divide(x.numerator, x.denominator))


def _text(x) -> str:
    """str(x); an int past Python's limit on the digits str() prints is refused."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(f"{fmt_short(x)} has more digits than Python prints") from None


def _digits(x: int) -> str:
    """str(x) for a nonnegative int of any length: split at a power of ten until
    each part prints within Python's int-to-str digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # under 3 * limit bits is under 0.91 * limit digits
    if not limit or x.bit_length() < 3 * limit:
        return str(x)
    half = x.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(x, 10 ** half)
    return _digits(high) + _digits(low).zfill(half)


def machine_value(v) -> str:
    """Single-token value for line-oriented key=value output."""
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, Fraction):
        return _fraction(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, (tuple, list)):
        return ",".join(machine_value(x) for x in v) or "-"
    return _text(v)


def fmt(x) -> str:
    """Readable form: exact value plus a short decimal approximation."""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _fraction(x)
        return f"{_fraction(x)} (~{float(x):.6g})"
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(fmt(v) for v in x) + ")"
    if x is None:
        return "-"
    return _text(x)

