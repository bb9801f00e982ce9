"""Deterministic serialisation helpers for the CLI.

Output must be byte-identical across runs for identical arguments, so
floats are always printed with 17 significant digits (full round-trip
precision), field order follows insertion order, and exact rationals are
rendered as "p/q" strings.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import ArgumentError


def fmt_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _quote(text):
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _fraction(value):
    return f'"{value.numerator}/{value.denominator}"'


# The formatter of each scalar leaf, by exact type. A subclass of one of
# these types (numpy.float64 is a float) takes the formatter of the first
# type in this order that it is an instance of.
_SCALARS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: fmt_float,
    Fraction: _fraction,
    str: _quote,
}


def dumps(value, indent=0):
    """Stable JSON rendering with controlled float formatting.

    A dict or list (or tuple) puts one member per line, indented two spaces
    per level, starting from indent levels; empty ones are {} and []. Dict
    keys are written as str(key). Leaves are None, bools, ints, floats
    (fmt_float), Fractions ("p/q") and strings; any other type raises
    ArgumentError.
    """
    out = []
    _write(value, "\n" + "  " * indent, out)
    return "".join(out)


def _write(value, pad, out):
    """Append the text of value to out; pad is a newline and value's indentation.

    Leaves inside a container are formatted in place through _SCALARS, so
    only containers and subclasses of the leaf types reach this function.
    """
    cls = type(value)
    if cls is not dict and cls is not list and cls is not tuple:
        for base, fmt in _SCALARS.items():
            if isinstance(value, base):
                out.append(fmt(value))
                return
        if isinstance(value, dict):
            cls = dict
        elif not isinstance(value, (list, tuple)):
            raise ArgumentError(f"cannot serialise value of type {cls.__name__}")
    if not value:
        out.append("{}" if cls is dict else "[]")
        return
    inner = pad + "  "
    sep, comma = ("{" if cls is dict else "[") + inner, "," + inner
    append, scalar = out.append, _SCALARS.get
    if cls is dict:
        for key, item in value.items():
            fmt = scalar(type(item))
            if fmt is None:
                append(f"{sep}{_quote(str(key))}: ")
                _write(item, inner, out)
            else:
                append(f"{sep}{_quote(str(key))}: {fmt(item)}")
            sep = comma
        append(pad + "}")
    else:
        for item in value:
            fmt = scalar(type(item))
            if fmt is None:
                append(sep)
                _write(item, inner, out)
            else:
                append(sep + fmt(item))
            sep = comma
        append(pad + "]")


def csv_lines(header, rows):
    """CSV text from a header tuple and an iterable of row tuples; floats in %.17g."""
    out = [",".join(header)]
    out.extend(",".join("%.17g" % x if isinstance(x, float) else str(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


@contextmanager
def open_output(out=None):
    """The destination of out: stdout for None or "-", a path opened for
    writing (unwritable paths raise OSError), or an open text handle, which
    is left open."""
    if out in (None, "-"):
        yield sys.stdout
    elif isinstance(out, str):
        with open(out, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield out


def write_output(text, out=None):
    """Write text, and a final newline if it lacks one, to out (see open_output)."""
    with open_output(out) as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
