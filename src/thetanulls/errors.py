"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class MalformedInputError(ValueError):
    """Structurally invalid input: wrong shapes, duplicates, bad encodings."""


class DomainError(ValueError):
    """Mathematically invalid input: parity, genus or precondition violations."""


class ResourceCapError(RuntimeError):
    """A computation would exceed its configured resource guard."""


def _int_in(x, lo: int, hi, what: str) -> int:
    """x as a plain int in lo..hi (hi None: no upper end): operator.index
    takes ints and numpy integers and refuses floats such as 1.0; bools are
    refused as well."""
    try:
        v = None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        v = None
    if v is None or v < lo or (hi is not None and v > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise DomainError(f"{what} must be an integer {span}, got {x!r}")
    return v
