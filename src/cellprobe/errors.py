"""Shared exception types.

The CLI maps these onto exit codes: anything derived from CellProbeError is a
usage/parameter problem (exit 2) unless a command documents otherwise.
"""

from __future__ import annotations


class CellProbeError(Exception):
    """Base class for all workbench errors."""


class ParameterError(CellProbeError, ValueError):
    """A parameter violates a documented precondition."""


class CapacityError(ParameterError):
    """A cell alphabet is too small to hold the values a scheme must store."""


class DomainError(CellProbeError, ValueError):
    """An input lies outside the domain an operation is defined on."""


class RangeError(CellProbeError, IndexError):
    """A query or cell index is out of range."""


class ConsistencyError(CellProbeError, ValueError):
    """Pieces of a composite object contradict each other."""


class SizeError(CellProbeError, ValueError):
    """An exhaustive computation would be infeasibly large."""
