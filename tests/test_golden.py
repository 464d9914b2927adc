"""Golden CLI reports: the exact report bytes (``elapsed_ms`` lines dropped)
and exit codes of one query per mode on the committed fixtures, a few more
on compiled formulas and a small gated network, plus the output of
``scripts/run_fixture_queries.py``.

"Same behaviour" for this package means the same report bytes, so an
engine change that alters any of these files alters an answer, a tie flag,
an enumeration order or a float in its last digit.  The files were written
by this module's ``main`` and are regenerated only when a report change is
intended::

    PYTHONPATH=src python tests/test_golden.py

A new golden is one ``CASES`` entry and a regeneration.  CI runs every
entry once more through the installed ``mapindep`` console script, by
passing ``run_case`` a runner that calls it in a subprocess.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

from mapindep.cli import emit_json, run, save_network
from mapindep.compiler import compile_network, parse_formula
from conftest import FIXTURES, ROOT, gated_network

GOLDEN = ROOT / "tests" / "golden"


# Compiled formulas, named as networks: every root uniform, every other CPT 0/1.
FORMULAS = {"and_or": "(x0 & x1) | x2", "or4": "x0 | x1 | x2 | x3"}

FIG1B_STRONG = {"mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"]}

# name -> (network, query document, extra CLI flags)
CASES = {
    "map": ("fig1b", {"mode": "map", "hypothesis": ["A"], "evidence": {"C": "T"}}, ()),
    "strong": ("fig1b", FIG1B_STRONG, ()),
    "strong_table": ("fig1b", FIG1B_STRONG, ("--table-limit", "3")),
    "quantify": ("fig1b", {**FIG1B_STRONG, "mode": "quantify"}, ()),
    "quantify_two_hypothesis_table": (
        "fig1b",
        {"mode": "quantify", "hypothesis": ["A", "B"], "evidence": {"C": "T"}, "focus": ["E"]},
        ("--table-limit", "8"),
    ),
    "weak": ("fig1b", {**FIG1B_STRONG, "mode": "weak"}, ()),
    "weak_table": ("fig1a", {"mode": "weak", "hypothesis": ["A"], "evidence": {"C": "T"},
                             "focus": ["B", "D"]}, ("--table-limit", "4")),
    "maximum": ("fig1b", {**FIG1B_STRONG, "mode": "maximum", "k": 1}, ()),
    "partition": ("fig1a", {"mode": "partition", "hypothesis": ["A"], "evidence": {"C": "T"},
                            "candidates": ["B", "D"]}, ()),
    "threshold_fraction": (
        "fn_ter",
        {"mode": "threshold", "hypothesis": ["H"], "evidence": {}, "focus": ["R"],
         "h_star": {"H": "h1"}, "s": "3/16"},
        ("--table-limit", "2"),
    ),
    # Pr(or_1=T, x0) is (3/8, 1/4): only the first entry exceeds the non-dyadic s.
    "threshold_third": (
        "and_or",
        {"mode": "threshold", "hypothesis": ["or_1"], "evidence": {}, "focus": ["x0"],
         "h_star": {"or_1": "T"}, "s": "1/3"},
        ("--table-limit", "2"),
    ),
    # The query `mapindep compile --aset x0,x1 --emit-query` writes: the
    # majority holds for every assignment to the A-set, so every row passes.
    "threshold_majority_table": (
        "or4",
        {"mode": "threshold", "hypothesis": ["or_1"], "evidence": {}, "focus": ["x0", "x1"],
         "h_star": {"or_1": "T"}, "s": "1/8"},
        ("--table-limit", "4"),
    ),
    "quantify_skipped_table": ("gated", {"mode": "quantify", "hypothesis": ["H"], "evidence": {"E": "T"},
                                         "focus": ["R"]}, ("--table-limit", "2")),
    "strong_strict_zeros": ("gated", {"mode": "strong", "hypothesis": ["H"], "evidence": {"E": "T"},
                                      "focus": ["R"]}, ("--strict-zeros",)),
    # fn_bin's R is uniform, so both of its values tie exactly.
    "map_tie": ("fn_bin", {"mode": "map", "hypothesis": ["R"], "evidence": {}}, ()),
    "strong_tie_table": ("fn_bin", {"mode": "strong", "hypothesis": ["R"], "evidence": {}, "focus": ["H"]},
                         ("--table-limit", "2")),
}


def strip_elapsed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if '"elapsed_ms"' not in line)


def network_path(name: str, workdir: Path) -> Path:
    if name == "gated":
        path = workdir / "gated.json"
        save_network(gated_network(), path)
        return path
    if name in FORMULAS:
        path = workdir / f"{name}.json"
        save_network(compile_network(parse_formula(FORMULAS[name])).network, path)
        return path
    return FIXTURES / f"{name}.json"


def run_case(name: str, workdir: Path, runner: Callable[[list[str]], int] = run) -> str:
    """Exit code line, then the report with its ``elapsed_ms`` line dropped.

    ``runner`` takes the CLI's argv and returns its exit code: ``cli.run`` in
    process here, the installed ``mapindep`` console script in CI.
    """
    net, query, flags = CASES[name]
    query_path = workdir / f"{name}.query.json"
    query_path.write_text(json.dumps(query), encoding="utf-8")
    out = workdir / f"{name}.report.json"
    code = runner(["query", "--network", str(network_path(net, workdir)), "--query", str(query_path),
                   "--output", str(out), *flags])
    report = strip_elapsed(out.read_text(encoding="utf-8")) if out.exists() else ""
    return f"exit {code}\n{report}"


def fixture_script_output() -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_fixture_queries.py")],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == expected


def test_compile_emits_the_majority_table_case(tmp_path):
    # `compile --aset --emit-query` writes the network and the query document
    # that threshold_majority_table runs.
    net, query, _ = CASES["threshold_majority_table"]
    out, emitted = tmp_path / "compiled.json", tmp_path / "emitted.json"
    assert run(["compile", "--formula", FORMULAS[net], "--aset", "x0,x1", "--out", str(out),
                "--emit-query", str(emitted)]) == 0
    assert emitted.read_text(encoding="utf-8") == emit_json(query)
    assert out.read_text(encoding="utf-8") == network_path(net, tmp_path).read_text(encoding="utf-8")


def test_fixture_script_matches_golden():
    expected = (GOLDEN / "run_fixture_queries.txt").read_text(encoding="utf-8")
    assert fixture_script_output() == expected


def main() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.txt").write_text(run_case(name, Path(tmp)), encoding="utf-8")
    (GOLDEN / "run_fixture_queries.txt").write_text(fixture_script_output(), encoding="utf-8")


if __name__ == "__main__":
    main()
