"""The report writer against the emitter it replaced, byte for byte.

``reference_emit`` is the writer as it stood before emission dispatched on
exact types: one ``isinstance`` chain per value and ``json.dumps`` for every
key and string.  Every document ``cli.emit_json`` writes must keep its bytes.
"""

from __future__ import annotations

import json
import random
import types
from fractions import Fraction
from typing import Any, Mapping

import numpy as np
import pytest

from mapindep import cli
from test_golden import CASES, run_case


def reference_emit(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(str(k))}: {reference_emit(v, indent + 1)}" for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{reference_emit(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if value is None:
        return "null"
    return json.dumps(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports_emit_as_before(name, tmp_path, monkeypatch):
    emitted = []
    emit_json = cli.emit_json

    def checking(value):
        text = emit_json(value)
        assert text == reference_emit(value) + "\n"
        emitted.append(value)
        return text

    monkeypatch.setattr(cli, "emit_json", checking)
    output = run_case(name, tmp_path)
    if output.startswith("exit 0\n"):
        assert any(isinstance(doc, dict) and "result" in doc for doc in emitted)


class Label(str):
    pass


class Weight(float):
    pass


class Record(dict):
    pass


class Row(tuple):
    pass


STRINGS = ("", "T", "s0", "é", "日本語", "tab\tnew\nline", 'quote"back\\slash', "\x00\x1f", " ", "😀")
FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 1e300, -1e300,
          0.1 + 0.2, 1 / 3, float("inf"), float("nan"))
KEYS = (*STRINGS, 0, -7, 2.5, None, True, ("t", 1), Fraction(1, 3), Label("label"))


def random_leaf(rng: random.Random):
    pick = rng.randrange(10)
    if pick == 0:
        return rng.choice(STRINGS)
    if pick == 1:
        return rng.choice(FLOATS)
    if pick == 2:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-320, 300)
    if pick == 3:
        return np.float64(rng.random() * 10.0 ** rng.randint(-300, 300))
    if pick == 4:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    if pick == 5:
        return rng.choice((True, False))
    if pick == 6:
        return rng.randint(-10 ** 20, 10 ** 20)
    if pick == 7:
        return None
    if pick == 8:
        return Weight(rng.random())
    return Label(rng.choice(STRINGS))


def random_value(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.35:
        return random_leaf(rng)
    kind = rng.randrange(5)
    size = rng.randint(0, 4)
    if kind <= 1:
        mapping = {rng.choice(KEYS): random_value(rng, depth + 1) for _ in range(size)}
        if kind == 1:
            return rng.choice((Record, types.MappingProxyType))(mapping)
        return mapping
    items = [random_value(rng, depth + 1) for _ in range(size)]
    return items if kind <= 3 else rng.choice((tuple, Row))(items)


def test_random_values_emit_as_before():
    rng = random.Random(1201)
    for _ in range(1000):
        value = random_value(rng)
        assert cli.emit_json(value) == reference_emit(value) + "\n"
