"""Packet headers.

A packet header is simply a tuple of field values conforming to a
:class:`~repro.core.fields.FieldSchema`.  The library keeps headers as plain
tuples for speed, but this module provides a validating wrapper, pretty
printing, and helpers used by trace generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence, Tuple

import numpy as np

from .fields import FieldKind, FieldSchema

__all__ = ["Header", "headers_array", "validate_header", "format_header"]


Header = Tuple[int, ...]


def _rows_of(headers, k: int) -> bool:
    """True when ``headers`` is a sequence of length-``k`` rows."""
    try:
        return all(len(header) == k for header in headers)
    except TypeError:
        return False


def headers_array(
    headers: Sequence[Sequence[int]], schema: FieldSchema
) -> np.ndarray:
    """A ``(B, k)`` array view of a batch of headers, dtype-matched to
    :meth:`Classifier.bounds_arrays` (int64 normally, Python objects when
    any field is wider than 62 bits, e.g. IPv6 prefixes)."""
    wide = any(spec.width > 62 for spec in schema)
    k = len(schema)
    if wide or isinstance(headers, np.ndarray) or not _rows_of(headers, k):
        arr = np.asarray(headers, dtype=object if wide else np.int64)
    else:
        # Row sequences (tuples, lists): one flat pass over the values is
        # about 3x faster than np.asarray's nested conversion.
        arr = np.fromiter(
            chain.from_iterable(headers), np.int64, len(headers) * k
        ).reshape(len(headers), k)
    if arr.size == 0:
        return arr.reshape(0, len(schema))
    if arr.ndim != 2 or arr.shape[1] != len(schema):
        raise ValueError(
            f"headers must be (B, {len(schema)}); got shape {arr.shape}"
        )
    return arr


def validate_header(header: Sequence[int], schema: FieldSchema) -> Header:
    """Check that ``header`` fits ``schema`` and return it as a tuple.

    Raises ValueError on arity or range violations.  Hot paths skip this and
    trust their inputs; use it at API boundaries.
    """
    if len(header) != len(schema):
        raise ValueError(
            f"header has {len(header)} fields, schema expects {len(schema)}"
        )
    for value, spec in zip(header, schema):
        if not 0 <= value <= spec.max_value:
            raise ValueError(
                f"field {spec.name!r}: value {value} outside "
                f"[0, {spec.max_value}]"
            )
    return tuple(header)


def _format_ipv4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def format_header(header: Sequence[int], schema: FieldSchema) -> str:
    """Human-readable rendering of a header, IPv4-style for 32-bit prefix
    fields."""
    parts = []
    for value, spec in zip(header, schema):
        if spec.kind is FieldKind.PREFIX and spec.width == 32:
            parts.append(f"{spec.name}={_format_ipv4(value)}")
        else:
            parts.append(f"{spec.name}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class Packet:
    """A validated header bound to its schema.

    Mostly a convenience for examples and debugging; algorithms accept bare
    tuples.
    """

    header: Header
    schema: FieldSchema

    @classmethod
    def of(cls, header: Sequence[int], schema: FieldSchema) -> "Packet":
        """Validate and wrap a header."""
        return cls(validate_header(header, schema), schema)

    def __getitem__(self, index: int) -> int:
        return self.header[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Packet({format_header(self.header, self.schema)})"
