"""Frozen dataclass records: the one spelling of each argument check, and
records built from values already checked.

A bad value from outside the program is a ``ConfigError`` with a one-line
message, raised by the constructor of the record that holds it with the
checks here: ``checked_real`` for a number, ``checked_array`` for a float
array of a fixed shape, each returning the converted value (an array
read-only), ``checked_records`` and ``checked_types`` for the records it
holds and ``check_label`` for a label. A value of the wrong type is a bad
value, and a boolean is not a number, alone or in a list. The scenario
loader has no value checks of its own: each value it reads is checked
here, by the record it builds.

Where a value was checked where it was made, the class's ``prebuilt``
builder stores it in the record as it is, without running ``__init__`` or
``__post_init__``. It takes exactly the dataclass's field names, so the
record's layout is spelled only once, in its class.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ConfigError

_BOOLS = (bool, np.bool_)


def _shown(value) -> str:
    """value's repr if it is short and one line, else its type's name."""
    text = repr(value)
    return text if len(text) <= 40 and "\n" not in text else type(value).__name__


def checked_real(value, what: str, *, above=None, at_least=None):
    """value as a float, checked finite and, if a bound is given, > above
    or >= at_least.

    Raises:
        ConfigError: value is a boolean, or not a finite real number in bounds.
    """
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        valid = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        valid = False
    except TypeError:  # not a real number
        raise ConfigError(f"{what} must be a number, got {_shown(value)}") from None
    bound = ""
    if above is not None:
        valid, bound = valid and value > above, f" and > {above:g}"
    elif at_least is not None:
        valid, bound = valid and value >= at_least, f" and >= {at_least:g}"
    if not valid:
        raise ConfigError(f"{what} must be finite{bound}")
    return float(value)


def float_copy(values, shape, what: str) -> np.ndarray:
    """A C-order float copy of values, not yet checked finite; ConfigError
    unless they are numbers (not booleans) of the shape n, or (-1, n) for
    rows of n (an empty sequence is no rows)."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind not in "iuf":  # booleans, strings, objects, None
            raise TypeError
        # a list mixing booleans and numbers converts to an int or float
        # array, so only the elements themselves show the booleans
        if not isinstance(values, np.ndarray) and any(
            isinstance(v, _BOOLS) for v in np.asarray(values, dtype=object).flat
        ):
            raise TypeError
        array = raw.astype(float, order="C")
        exact = (shape,) if isinstance(shape, int) else (len(array), shape[1])
        if array.shape == (0,):  # [] converts to (0,), not to no rows (0, n)
            array = array.reshape(exact)
        if array.shape != exact:
            raise ValueError
    except (TypeError, ValueError):
        count = shape if isinstance(shape, int) else f"rows of {shape[-1]}"
        message = f"{what} must be {count} numbers, got {_shown(values)}"
        raise ConfigError(message) from None
    return array


def checked_array(values, shape, what: str, *, copy=True, finite=True) -> np.ndarray:
    """A read-only ``float_copy`` of values, checked finite (ConfigError).

    copy=False checks values, a float array of that shape, in place and
    makes it read-only; finite=False leaves the finite check to the caller.
    """
    array = float_copy(values, shape, what) if copy else values
    flat = array if array.ndim == 1 else array.ravel()
    if finite and not all(map(math.isfinite, flat.tolist())):
        raise ConfigError(f"{what} must be finite")
    array.setflags(write=False)
    return array


def check_utf8(text: str, what: str) -> None:
    """Refuse text that UTF-8 cannot encode, such as a lone surrogate: every
    file the package writes is UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{what} {text!r} is not UTF-8 text") from None


# Every character str.splitlines breaks a line at, which parse_trace splits on.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def check_label(label) -> None:
    """Refuse a label that cannot name a trace column: one that is not a
    string, or holds a comma, a line break or a character UTF-8 cannot
    encode."""
    if not isinstance(label, str):
        raise ConfigError("obstacle label must be a string")
    if any(c in label for c in "," + LINE_BREAKS):
        message = f"obstacle label {label!r} may not contain commas or line breaks"
        raise ConfigError(message)
    check_utf8(label, "obstacle label")


def shown_path(path) -> str:
    """path as an error shows it: its repr if a character is not printable
    (a line break, a NUL), so that the message stays one line."""
    text = str(path)
    return text if text.isprintable() else repr(text)


def checked_records(values, cls: type, what: str) -> tuple:
    """values, an iterable of cls records, as a tuple; else ConfigError."""
    try:
        records = tuple(values)
    except TypeError:  # not iterable
        records = None
    if records is None or not all(isinstance(r, cls) for r in records):
        raise ConfigError(f"{what} must be {cls.__name__} records")
    return records


def checked_type(value, kind, what: str):
    """value, if it has the type (or union) kind; else ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} may not be of type {type(value).__name__}")
    return value


def checked_types(record, **kinds) -> None:
    """ConfigError unless each named field of record has its type (or union)."""
    for field, kind in kinds.items():
        checked_type(getattr(record, field), kind, field)


def prebuilt(cls: type):
    """The builder of the frozen dataclass cls's records from values already
    checked: a function of exactly cls's fields, by position or by name,
    that stores them in a new record as they are. Its code is generated once,
    as dataclasses generates ``__init__``, so a record costs one dict store
    per field, with no ``__init__``, ``__post_init__`` or frozen
    ``__setattr__``, and Python's call check keeps it to exactly its fields.

    Raises (the builder):
        TypeError: the values do not name every field of cls, and only those.
    """
    names = [f.name for f in fields(cls)]
    # the builder's own names start with __, which no field's can (mangled)
    stores = "".join(f"    __values[{n!r}] = {n}\n" for n in names)
    namespace = {"__new": object.__new__, "__cls": cls}
    exec(
        f"def {cls.__name__}_prebuilt({', '.join(names)}):\n"
        f"    __record = __new(__cls)\n    __values = __record.__dict__\n"
        f"{stores}    return __record\n",
        namespace,
    )
    return namespace[f"{cls.__name__}_prebuilt"]
