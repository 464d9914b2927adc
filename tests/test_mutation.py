"""No input ends in a traceback or an unbounded error line.

A seeded mutation test, run in process through ``cli.run``.  It mutates
fig1b's network document and the query document of every fig1b case in
``test_golden.CASES``.  At each JSON path it puts null, true, an empty list
or object, a value of another JSON type, a 5,000-character string, an
integer past ``int()``'s digit limit, and arrays nested 400 and 100,000
deep.  Each whole file is also given invalid UTF-8, a byte-order mark, or a
truncation.  Mutated networks go through ``validate`` and through one of the
queries; mutated queries run on the intact network.  Two formula shapes go
through ``compile``: a 1,500-term flat disjunction, and ``!`` and ``(``
nested 3,000 deep.

Every run must keep the CLI's contract: an exit code in 0-4, no exception
out of ``cli.run``, no ``Traceback`` on stderr and no stderr line over 500
characters, and on exit 0 a report that parses as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from mapindep.cli import run
from conftest import FIXTURES
from test_golden import CASES

SEED = 13
MAX_LINE = 500
FIG1B_DOC = json.loads((FIXTURES / "fig1b.json").read_text(encoding="utf-8"))
QUERIES = {name: (query, flags) for name, (net, query, flags) in CASES.items() if net == "fig1b"}

# A JSON value of each type, to put where another type belongs.
_OF_TYPE = {str: '"T"', float: "0.5", int: "1", list: '["T"]', dict: '{"T": "T"}'}
_MARK = "\x00mutation\x00"


def _paths(value, path=()):
    """Every JSON path in ``value``, the document itself excluded, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(doc, path, text: str) -> bytes:
    """``doc`` as JSON, with the value at ``path`` replaced by the JSON text ``text``."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _MARK
    return json.dumps(copy, indent=1).replace(json.dumps(_MARK), text).encode("utf-8")


def _value_mutants(doc, rng: random.Random):
    """(label, bytes) for every listed value at every path of ``doc``."""
    for path in _paths(doc):
        original = doc
        for key in path:
            original = original[key]
        other = rng.choice([text for kind, text in _OF_TYPE.items() if kind is not type(original)])
        for label, text in (
            ("null", "null"), ("true", "true"), ("[]", "[]"), ("{}", "{}"), ("other type", other),
            ("long string", json.dumps("s" * 5000)), ("long integer", "9" * 5000),
            ("nested 400", "[" * 400 + "]" * 400), ("nested 100000", "[" * 100_000 + "]" * 100_000),
        ):
            yield f"{label} at {list(path)}", _replaced(doc, path, text)


def _file_mutants(data: bytes, rng: random.Random):
    """(label, bytes) for a BOM, and invalid UTF-8 and a truncation at four seeded bytes of the file ``data``."""
    yield "BOM", b"\xef\xbb\xbf" + data
    for at in sorted(rng.sample(range(len(data)), 4)):
        yield f"invalid UTF-8 at byte {at}", data[:at] + b"\xff" + data[at + 1:]
        yield f"truncated at byte {at}", data[:at]


def _mutants(doc, rng: random.Random):
    yield from _value_mutants(doc, rng)
    yield from _file_mutants(json.dumps(doc, indent=1).encode("utf-8"), rng)


def _contract_breach(argv, report) -> str | None:
    """Run ``argv`` through ``cli.run``; what broke the contract, or None."""
    report.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:
            return f"{type(exc).__name__} escaped"
    lines = stderr.getvalue().splitlines()
    if code not in range(5):
        return f"exit code {code!r}"
    if any("Traceback" in line for line in lines):
        return "Traceback on stderr"
    if max(map(len, lines), default=0) > MAX_LINE:
        return f"a {max(map(len, lines))}-character stderr line"
    if code == 0 and "--output" in argv:
        try:
            json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return "no JSON report"
    return None


def _query_argv(network, query, flags, report):
    return ["query", "--network", str(network), "--query", str(query), "--output", str(report), *flags]


def test_mutated_documents_keep_the_cli_contract(tmp_path):
    rng = random.Random(SEED)
    network, query, report = tmp_path / "net.json", tmp_path / "query.json", tmp_path / "report.json"
    intact = tmp_path / "fig1b.json"
    intact.write_text(json.dumps(FIG1B_DOC), encoding="utf-8")
    breaches, runs = [], 0

    def check(label, argv):
        nonlocal runs
        runs += 1
        breach = _contract_breach(argv, report)
        if breach:
            breaches.append(f"{label}: {breach}")

    names = sorted(QUERIES)
    for label, data in _mutants(FIG1B_DOC, rng):
        network.write_bytes(data)
        check(f"validate, network {label}", ["validate", "--network", str(network)])
        name = rng.choice(names)
        query_doc, flags = QUERIES[name]
        query.write_text(json.dumps(query_doc), encoding="utf-8")
        check(f"{name}, network {label}", _query_argv(network, query, flags, report))
    for name in names:
        query_doc, flags = QUERIES[name]
        for label, data in _mutants(query_doc, rng):
            query.write_bytes(data)
            check(f"{name}, query {label}", _query_argv(intact, query, flags, report))
    flat = " | ".join(f"x{i}" for i in range(1500))
    check("compile, flat", ["compile", "--formula", flat, "--out", str(network)])
    check("validate, flat", ["validate", "--network", str(network)])
    for formula in ("!" * 3000 + "x0", "(" * 3000 + "x0" + ")" * 3000):
        check(f"compile, {formula[:3]}... nested", ["compile", "--formula", formula, "--out", str(network)])

    assert runs > 1500
    assert not breaches, f"{len(breaches)} of {runs} runs broke the contract; first: {breaches[:5]}"
