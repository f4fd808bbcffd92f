"""Frozen dataclass records built from values already checked.

A public constructor copies and checks what it is given. Where a value was
checked where it was made, ``prebuilt`` stores it in the record as it is,
without running ``__init__`` or ``__post_init__``. It takes exactly the
dataclass's field names, so the record's layout is spelled only once, in
its class.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache


@lru_cache(maxsize=None)
def _field_names(cls: type) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def prebuilt(cls: type, **values):
    """The record of the frozen dataclass cls holding values as given.

    Raises:
        TypeError: values do not name every field of cls, and only those.
    """
    if values.keys() != _field_names(cls):
        raise TypeError(
            f"{cls.__name__} takes the fields {sorted(_field_names(cls))},"
            f" got {sorted(values)}"
        )
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record
