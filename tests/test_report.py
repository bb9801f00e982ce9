"""report.dumps against the recursive writer it replaced, kept here as the oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cspherelab import report
from cspherelab.cli import run
from cspherelab.errors import ArgumentError


def _old_dumps(value, indent=0):
    """The previous report.dumps: one isinstance chain and one join per container."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return report.fmt_float(value)
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{_old_dumps(str(k))}: {_old_dumps(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_old_dumps(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise ArgumentError(f"cannot serialise value of type {type(value).__name__}")


# The op list of the benchmark's exact-basis workload.
EXACT_BASIS_OPS = [(2, 8, 8), (2, 6, 5), (3, 4, 4), (3, 5, 5), (3, 6, 3), (4, 3, 3), (4, 4, 2)]


@pytest.mark.parametrize("d, m, n", EXACT_BASIS_OPS)
def test_basis_documents_match_the_old_writer(monkeypatch, capsys, d, m, n):
    docs = []
    dumps = report.dumps

    def recording(value, indent=0):
        docs.append(value)
        return dumps(value, indent)

    monkeypatch.setattr(report, "dumps", recording)
    assert run(["basis", "--d", str(d), "--m", str(m), "--n", str(n)]) == 0
    assert capsys.readouterr().out == _old_dumps(docs[0]) + "\n"


class _Int(int):
    pass


class _Str(str):
    pass


class _Fraction(Fraction):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


LEAVES = [
    None, True, False, 0, 1, -7, 10**40, -(3**90), _Int(12),
    0.0, -0.0, 1.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, math.nan, math.inf, -math.inf,
    np.float64(0.1), np.float64(math.nan), np.float64(-math.inf), np.float64(-2.5e17),
    Fraction(0), Fraction(-3, 7), Fraction(2**70, 3**41), _Fraction(5, 9),
    "", "plain", 'say "hi"', "back\\slash", '\\"', "tab\tand\nnewline", "ünï", _Str('s"ub'),
]


def _document(rng, depth):
    """A random nested value built from LEAVES and every container kind."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    size = rng.choice([0, 1, 1, 2, 3, 5])
    kind = rng.choice(["list", "tuple", "dict", "subdict", "sublist"])
    items = [_document(rng, depth - 1) for _ in range(size)]
    if kind in ("dict", "subdict"):
        keys = [rng.choice(["k", 'q"', "b\\", 3, 2.5, None, True, Fraction(1, 2)]) for _ in items]
        value = {key: item for key, item in zip(keys, items)}
        return _Dict(value) if kind == "subdict" else value
    return {"list": list, "tuple": tuple, "sublist": _List}[kind](items)


def test_generated_corpus_matches_the_old_writer():
    rng = random.Random(1717)
    corpus = [[], {}, (), [[]], {"a": {}}, ([], ()), LEAVES, tuple(LEAVES),
              {str(i): leaf for i, leaf in enumerate(LEAVES)}]
    corpus += [leaf for leaf in LEAVES]
    corpus += [_document(rng, 5) for _ in range(300)]
    for value in corpus:
        for indent in (0, 2):
            assert report.dumps(value, indent) == _old_dumps(value, indent), value


@pytest.mark.parametrize("value", [
    object(), {1, 2}, b"bytes", 1 + 2j, np.int64(3), np.float32(0.5), np.array([1.0]),
    [1, {"k": [2, object()]}], {"k": frozenset()},
], ids=["object", "set", "bytes", "complex", "np.int64", "np.float32", "ndarray", "nested",
        "dict-value"])
def test_unsupported_types_raise_in_both_writers(value):
    with pytest.raises(ArgumentError, match="cannot serialise value of type") as new:
        report.dumps(value)
    with pytest.raises(ArgumentError, match="cannot serialise value of type") as old:
        _old_dumps(value)
    assert str(new.value) == str(old.value)
