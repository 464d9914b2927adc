"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see ``cli.run``): malformed
input is 1, an invalid network 2, a zero-probability conditioning event 3,
an exceeded enumeration guard 4.
"""

from __future__ import annotations

import reprlib
from itertools import islice
from typing import Mapping


class MapIndepError(Exception):
    """Base class for every error raised by this package."""


class InvalidQueryError(MapIndepError):
    """Malformed input: unknown variables or states, bad partitions, bad parameters."""


class NetworkValidationError(MapIndepError):
    """The network violates a structural or probabilistic invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{v.code} at {v.where}: {v.message}" for v in self.violations)
        super().__init__(f"invalid network: {detail}")


class InfeasibleQueryError(MapIndepError):
    """The conditioning event of a query has probability zero."""


class CapacityError(MapIndepError):
    """An enumeration exceeded its configured guard."""


class FormulaSyntaxError(MapIndepError):
    """A propositional formula failed to parse; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DocumentError(MapIndepError):
    """A JSON document does not match its schema."""


def brief(assignment: Mapping[str, str]) -> str:
    """``repr(dict(assignment))`` kept short for an error message: its first
    four entries in their own order, each name and state cut by ``reprlib``."""
    items = [f"{reprlib.repr(k)}: {reprlib.repr(v)}" for k, v in islice(assignment.items(), 4)]
    return "{" + ", ".join(items + ["..."] * (len(assignment) > 4)) + "}"
