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


# Rows per piece of csv_runs, so a written spectrum is never held whole.
_WRITE_ROWS = 4096


def _cell(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


# "000" .. "999": the last three digits of every rank from 1000 on.
_THREE = tuple("%03d" % i for i in range(1000))


def _rank_rows(start, stop, sep):
    """The text of the ranks start .. stop-1 in %d, each followed by sep.

    The one row formatter of csv_runs and parse_csv_runs. From rank 1000 on,
    the ranks of one thousand-block share their leading digits `lead`, so
    the block is one join over _THREE, with no rank formatted on its own.
    """
    pieces = []
    low = min(stop, 1000)
    if start < low:
        pieces.append(sep.join(map(str, range(start, low))) + sep)
        start = low
    while start < stop:
        lead = str(start // 1000)
        lo = start % 1000
        hi = min(1000, lo + stop - start)
        pieces.append(lead + (sep + lead).join(_THREE[lo:hi]) + sep)
        start += hi - lo
    return "".join(pieces)


def csv_lines(header, rows):
    """CSV text from a header tuple and an iterable of row tuples."""
    out = [",".join(header)]
    out.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


def csv_runs(header, runs):
    """CSV text of a run-length encoded column, as consecutive pieces.

    runs holds (value, count) pairs with positive counts; ranks count from 0
    and each gets one "rank,value" row. The pieces are the header line, then
    at most _WRITE_ROWS rows each; joined, they equal csv_lines over the
    expanded (rank, value) rows. Each run's value is formatted once, and a
    piece's rows are built by _rank_rows.
    """
    yield ",".join(header) + "\n"
    rank = 0
    for value, count in runs:
        sep = "," + _cell(value) + "\n"
        for start in range(rank, rank + count, _WRITE_ROWS):
            yield _rank_rows(start, min(start + _WRITE_ROWS, rank + count), sep)
        rank += count


# Rows regenerated and compared at a time when parse_csv_runs checks a run.
_CHECK_ROWS = 4096


def _digits_below(k):
    """Total count of decimal digits in the ranks 0 .. k-1."""
    total, power = k, 10
    while power < k:
        total += k - power  # each rank >= power has one more digit
        power *= 10
    return total


def parse_csv_runs(header, data):
    """The runs whose joined csv_runs(header, runs) text is exactly data (bytes), else None.

    None means only that data is not in the writer's canonical form (ranks
    as %d from 0, values as %.17g, "\\n" line ends); the caller parses it
    some other way. Each run's first row gives its value and so the byte
    length L of every ",value\\n" suffix in the run; the line of rank k then
    starts at a computed offset (the digits of the ranks before it plus
    k * L), so the run's end is found by galloping and bisecting on single
    lines. Every row of the run is then compared with the writer's own text
    (_rank_rows), _CHECK_ROWS rows at a time, in place: only a run's first
    value is copied out of data, and the whole text is never built.
    """
    head = (",".join(header) + "\n").encode()
    if not data.startswith(head):
        return None
    runs = []
    pos, rank = len(head), 0
    while pos < len(data):
        start = pos + len(b"%d," % rank)  # the run's first value
        try:
            value = float(data[start:data.find(b"\n", start)])
        except ValueError:
            return None
        if runs and value == runs[-1][0]:
            return None  # 0.0 after -0.0: equal values in two runs
        sep = "," + _cell(value) + "\n"
        sep_bytes = sep.encode()
        line = b"%d" + sep_bytes  # %.17g text holds no "%"
        base = pos - _digits_below(rank) - rank * len(sep_bytes)

        def offset(k):
            return base + _digits_below(k) + k * len(sep_bytes)

        def row_matches(k):
            return data.startswith(line % k, offset(k))

        if not row_matches(rank):
            return None  # not "rank,value" with the value written as %.17g
        good, bad = 1, 2  # rows of the run known to match; a count not yet ruled out
        while row_matches(rank + bad - 1):
            good, bad = bad, 2 * bad
        while bad - good > 1:
            mid = (good + bad) // 2
            if row_matches(rank + mid - 1):
                good = mid
            else:
                bad = mid
        end = rank + good
        for k in range(rank, end, _CHECK_ROWS):
            rows = _rank_rows(k, min(k + _CHECK_ROWS, end), sep).encode()
            if not data.startswith(rows, offset(k)):
                return None
        runs.append((value, good))
        rank, pos = end, offset(end)
    return tuple(runs)


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
