"""Deterministic serialisation helpers for the CLI.

Output must be byte-identical across runs for identical arguments, so
floats are always printed with 17 significant digits (full round-trip
precision), field order follows insertion order, and exact rationals are
rendered as "p/q" strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError


def fmt_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def dumps(value, indent=0):
    """Stable JSON rendering with controlled float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise ArgumentError(f"cannot serialise value of type {type(value).__name__}")


def _cell(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def csv_lines(header, rows):
    """CSV text from a header tuple and an iterable of row tuples."""
    out = [",".join(header)]
    out.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


def csv_runs(header, runs):
    """CSV text of a run-length encoded column: one "rank,value" row per rank.

    runs holds (value, count) pairs with positive counts; ranks count from 0.
    The text equals csv_lines over the expanded (rank, value) rows, but each
    run's value is formatted once and its ranks are joined in one call.
    """
    out = [",".join(header) + "\n"]
    rank = 0
    for value, count in runs:
        sep = "," + _cell(value) + "\n"
        out.append(sep.join(map(str, range(rank, rank + count))) + sep)
        rank += count
    return "".join(out)


def write_output(text, out_path=None):
    """Write to the given path or stdout; unwritable paths raise OSError."""
    if out_path in (None, "-"):
        import sys

        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
