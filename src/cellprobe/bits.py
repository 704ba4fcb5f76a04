"""Plain-tuple bit vectors and small helpers shared across the package."""

from __future__ import annotations

from .errors import DomainError

Bits = tuple[int, ...]

_CHAR_TO_BIT = {"0": 0, "1": 1, ")": 0, "(": 1}


def validate_bits(x) -> Bits:
    """Return ``x`` as a tuple of 0/1 ints; rejects empty or non-binary input."""
    bits = tuple(x)
    if len(bits) < 1:
        raise DomainError("bit vector must have length >= 1")
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"bit vector entries must be 0 or 1, got {b!r}")
    return bits


def parse_bits(text: str) -> Bits:
    """Parse a bit string; accepts 0/1 digits or ()-style brackets."""
    try:
        return tuple(_CHAR_TO_BIT[ch] for ch in text.strip())
    except KeyError as exc:
        raise DomainError(f"cannot parse bit character {exc.args[0]!r}") from None


def bits_to_str(bits) -> str:
    return "".join("1" if b else "0" for b in bits)

