import functools
import gc
import json
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mapindep import cli, independence, inference
from mapindep.cli import (
    EXIT_CAPACITY,
    EXIT_INFEASIBLE,
    EXIT_INVALID_NETWORK,
    EXIT_OK,
    EXIT_USAGE,
    bench,
    emit_json,
    load_network,
    network_to_document,
    parse_threshold,
    run,
    save_network,
)
from mapindep.errors import (
    CapacityError,
    DocumentError,
    InfeasibleQueryError,
    InvalidQueryError,
    NetworkValidationError,
)
from mapindep.independence import (
    maximum_map_independence,
    quantify,
    relevance_partition,
    strong_map_independence,
    threshold_map_independence,
    weak_map_independence,
)
from mapindep.inference import DEFAULT_GUARD, candidate_joints, map_solve, marginal, posterior
from mapindep.model import Cpt, Network, QueryPartition, Variable
from conftest import FIXTURES, gated_network
from netgen import random_binary_network
from test_golden import CASES, run_case, strip_elapsed

TF = ("T", "F")

FIG1B = str(FIXTURES / "fig1b.json")
FIG1A = str(FIXTURES / "fig1a.json")
NAN_CPT = str(FIXTURES.parent / "tests" / "data" / "nan_cpt.json")


def write_query(tmp_path, name, doc):
    """Write ``doc`` as JSON; bytes are written as they are."""
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    return str(path)


def read_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# documents


def test_save_load_round_trip(tmp_path, fig1b):
    path = tmp_path / "net.json"
    save_network(fig1b, path)
    again = load_network(path)
    assert network_to_document(again) == network_to_document(fig1b)
    # and the bytes are stable across a second save
    save_network(again, tmp_path / "net2.json")
    assert (tmp_path / "net.json").read_bytes() == (tmp_path / "net2.json").read_bytes()


def test_load_rejects_invalid_network(tmp_path):
    net = Network("bad", (Variable("A", TF),), (Cpt("A", (), ((0.9, 0.2),)),))
    path = tmp_path / "bad.json"
    path.write_text(emit_json(network_to_document(net)), encoding="utf-8")
    with pytest.raises(NetworkValidationError):
        load_network(path)


def test_load_reports_row_count_mismatch(tmp_path):
    doc = {
        "name": "mis",
        "variables": [{"name": "A", "states": ["T", "F"]}, {"name": "B", "states": ["T", "F"]}],
        "cpts": [
            {"variable": "A", "parents": [], "table": [[0.5, 0.5]]},
            {"variable": "B", "parents": ["A"], "table": [[0.5, 0.5]]},
        ],
    }
    path = tmp_path / "mis.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(NetworkValidationError) as exc:
        load_network(path)
    assert any(v.code == "shape" for v in exc.value.violations)


def test_load_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"name": "x", "variables": [', encoding="utf-8")
    with pytest.raises(DocumentError):
        load_network(path)


def chain_document():
    """A -> B -> C over binary variables."""
    return {
        "name": "chain",
        "variables": [{"name": v, "states": ["T", "F"]} for v in "ABC"],
        "cpts": [
            {"variable": "A", "parents": [], "table": [[0.5, 0.5]]},
            {"variable": "B", "parents": ["A"], "table": [[1.0, 0.0], [0.0, 1.0]]},
            {"variable": "C", "parents": ["B"], "table": [[0.3, 0.7], [0.6, 0.4]]},
        ],
    }


# A string in place of a list would iterate into its characters.  Each level
# is checked whole, so a fault in its last item is found as in its first.
@pytest.mark.parametrize("path, value, what", [
    pytest.param(("variables",), "", "variables", id="variables-"),
    pytest.param(("cpts",), "", "cpts", id="cpts-"),
    pytest.param(("variables", 0, "states"), "TF", "states", id="states-TF"),
    pytest.param(("variables", 2, "states"), "TF", "states", id="states-TF-third-variable"),
    pytest.param(("cpts", 1, "parents"), "A", "parents", id="parents-A"),
    pytest.param(("cpts", 2, "parents"), None, "parents", id="parents-None-last-cpt"),
    pytest.param(("cpts", 1, "table"), "1001", "table", id="table-1001"),
    pytest.param(("cpts", 2, "table"), {}, "table", id="table-object-last-cpt"),
    pytest.param(("cpts", 1, "table", 0), "10", "table row", id="row-10"),
    pytest.param(("cpts", 2, "table", 1), "10", "table row", id="row-10-last-cpt"),
])
def test_network_fields_must_be_arrays(tmp_path, capsys, path, value, what):
    doc = chain_document()
    *at, key = path
    functools.reduce(operator.getitem, at, doc)[key] = value
    assert run(["validate", "--network", write_query(tmp_path, "net.json", doc)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: malformed network document: {what} must be a JSON array\n"


def _fig1b_with(field, value):
    doc = json.loads(Path(FIG1B).read_text(encoding="utf-8"))
    owner = {
        "name": doc,
        "states": next(v for v in doc["variables"] if v["name"] == "B"),
        "table": next(c for c in doc["cpts"] if c["variable"] == "B"),
        "parents": next(c for c in doc["cpts"] if c["variable"] == "B"),
    }[field]
    owner[field] = value
    return doc


# str() and float() would load these as "None", "1" or 1.0 instead of refusing them.
@pytest.mark.parametrize("field, value, message", [
    ("table", [[True, False]], "table entries must be JSON numbers"),
    ("table", [["0.5", "0.5"]], "table entries must be JSON numbers"),
    ("name", None, "names and states must be JSON strings"),
    ("states", [1, 2], "names and states must be JSON strings"),
    ("table", [[10**400, 0]], "int too large to convert to float"),
])
def test_network_values_must_have_their_json_types(tmp_path, capsys, field, value, message):
    path = write_query(tmp_path, "net.json", _fig1b_with(field, value))
    assert run(["validate", "--network", path]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: malformed network document: {message}\n"


def test_network_integer_entries_load_as_floats(tmp_path):
    net = load_network(write_query(tmp_path, "net.json", _fig1b_with("table", [[1, 0]])))
    assert net.cpt("B").rows == ((1.0, 0.0),)
    assert all(type(p) is float for p in net.cpt("B").rows[0])


@pytest.mark.parametrize("row", [[0.6, 0.4], [1, 0.5]])
def test_network_entries_load_as_floats_with_their_values(row):
    # One integer anywhere sends every entry through float(); without one, entries stay as parsed.
    doc = chain_document()
    doc["cpts"][2]["table"][1] = row
    net = cli.network_from_document(doc)
    assert [c.rows for c in net.cpts] == [((0.5, 0.5),), ((1.0, 0.0), (0.0, 1.0)), ((0.3, 0.7), tuple(row))]
    assert {type(p) for c in net.cpts for r in c.rows for p in r} == {float}


def test_seventeen_digit_float_emission():
    text = emit_json({"p": 0.1 + 0.2})
    assert "0.30000000000000004" in text
    assert json.loads(text)["p"] == 0.1 + 0.2


def test_fraction_emission_and_parsing():
    assert '"3/16"' in emit_json({"s": Fraction(3, 16)})
    assert parse_threshold("3/16") == Fraction(3, 16)
    assert parse_threshold(0.125) == 0.125
    with pytest.raises(DocumentError):
        parse_threshold("three sixteenths")


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_validate_ok():
    assert run(["validate", "--network", FIG1B]) == EXIT_OK


def test_validate_invalid_network(tmp_path, capsys):
    net = Network("bad", (Variable("A", TF),), (Cpt("A", (), ((0.5, 0.4),)),))
    path = tmp_path / "bad.json"
    path.write_text(emit_json(network_to_document(net)), encoding="utf-8")
    assert run(["validate", "--network", str(path)]) == EXIT_INVALID_NETWORK
    assert "row_sum" in capsys.readouterr().err


def test_validate_nan_entry_is_invalid(capsys):
    assert run(["validate", "--network", NAN_CPT]) == EXIT_INVALID_NETWORK
    assert "probability_range: cpt A row 0" in capsys.readouterr().err


def test_query_on_nan_entry_writes_no_report(tmp_path):
    query = write_query(tmp_path, "q.json", {"mode": "map", "hypothesis": ["A"], "evidence": {}})
    out = tmp_path / "r.json"
    assert run(["query", "--network", NAN_CPT, "--query", query, "--output", str(out)]) == EXIT_INVALID_NETWORK
    assert not out.exists()


def test_validate_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert run(["validate", "--network", str(path)]) == EXIT_USAGE


def test_missing_file_is_usage_error():
    assert run(["validate", "--network", "/nonexistent.json"]) == EXIT_USAGE


def test_usage_error_on_unknown_subcommand():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_map_subcommand(capsys):
    code = run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["assignment"] == {"A": "F"}
    assert abs(report["result"]["posterior"] - 0.644) < 1e-9


def test_map_unknown_state_is_usage_error(capsys):
    assert run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=maybe"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: evidence must be VAR=STATE pairs, got 'C'\n"


def test_map_evidence_naming_a_variable_twice_is_usage_error(capsys):
    code = run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T,C=F"])
    assert code == EXIT_USAGE
    assert "'C'" in capsys.readouterr().err


def test_map_infeasible_evidence(tmp_path):
    net = Network(
        "copy",
        (Variable("A", TF), Variable("B", TF)),
        (Cpt("A", (), ((1.0, 0.0),)), Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0)))),
    )
    path = tmp_path / "copy.json"
    save_network(net, path)
    code = run(["map", "--network", str(path), "--hypothesis", "A", "--evidence", "B=F"])
    assert code == EXIT_INFEASIBLE


def test_capacity_guard_exit(tmp_path):
    net = random_binary_network(random.Random(3), 23)
    path = tmp_path / "wide.json"
    save_network(net, path)
    hypothesis = ",".join(net.names[:21])  # 2^21 candidates trips the guard
    code = run(["map", "--network", str(path), "--hypothesis", hypothesis])
    assert code == EXIT_CAPACITY


def test_query_strong(tmp_path):
    query = write_query(tmp_path, "q.json", {
        "mode": "strong",
        "hypothesis": ["A"],
        "evidence": {"C": "T"},
        "focus": ["B", "E"],
    })
    out = tmp_path / "report.json"
    assert run(["query", "--network", FIG1B, "--query", query, "--output", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["result"]["verdict"] is False
    assert report["result"]["counterexample"] == {"B": "T", "E": "T"}
    assert report["query"]["mode"] == "strong"
    assert report["version"]


def test_query_weak_and_quantify(tmp_path):
    out = tmp_path / "r.json"
    weak = write_query(tmp_path, "w.json", {
        "mode": "weak", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    assert run(["query", "--network", FIG1B, "--query", weak, "--output", str(out)]) == EXIT_OK
    assert read_report(out)["result"]["verdict"] is True

    quant = write_query(tmp_path, "qq.json", {
        "mode": "quantify", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    assert run(["query", "--network", FIG1B, "--query", quant, "--output", str(out)]) == EXIT_OK
    metrics = read_report(out)["result"]["metrics"]
    assert abs(metrics["proportion"] - 0.75) < 1e-9
    assert abs(metrics["mass"] - 0.76) < 1e-9
    assert metrics["hamming_weighting"] == "uniform"


def test_query_maximum(tmp_path):
    out = tmp_path / "r.json"
    query = write_query(tmp_path, "m.json", {
        "mode": "maximum", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"], "k": 1,
    })
    assert run(["query", "--network", FIG1B, "--query", query, "--output", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["result"]["verdict"] is True
    assert report["result"]["subset"] == ["B"]


def test_query_partition_mode(tmp_path):
    out = tmp_path / "r.json"
    query = write_query(tmp_path, "p.json", {
        "mode": "partition", "hypothesis": ["A"], "evidence": {"C": "T"}, "candidates": ["B", "D"],
    })
    assert run(["query", "--network", FIG1A, "--query", query, "--output", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["result"]["relevant"] == ["B"]
    assert report["result"]["irrelevant"] == ["D"]
    assert report["result"]["justification"]["B"]["counterexample"] == {"B": "T"}


def test_query_threshold_with_fraction(tmp_path, fn_ter):
    out = tmp_path / "r.json"
    net_path = tmp_path / "fn_ter.json"
    save_network(fn_ter, net_path)
    query = write_query(tmp_path, "t.json", {
        "mode": "threshold", "hypothesis": ["H"], "evidence": {}, "focus": ["R"],
        "h_star": {"H": "h1"}, "s": "3/16",
    })
    assert run(["query", "--network", str(net_path), "--query", query, "--output", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["result"]["verdict"] is True
    assert report["result"]["min_joint"] == 0.22


def test_query_missing_mode_field(tmp_path):
    bad = write_query(tmp_path, "bad.json", {"mode": "strong", "hypothesis": ["A"]})
    out = tmp_path / "r.json"
    assert run(["query", "--network", FIG1B, "--query", bad, "--output", str(out)]) == EXIT_USAGE


STRONG_QUERY = {"mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"]}


@pytest.mark.parametrize("network, message", [
    (["fig1b"], "network document must be a JSON object"),
    ({"name": "fig1b", "variables": []}, "malformed network document: 'cpts'"),
    # An integer past int()'s default limit of 4,300 digits.
    pytest.param(b'{"name": "fig1b", "variables": [], "cpts": [], "note": ' + b"9" * 5000 + b"}",
                 "{path}: invalid JSON: an integer has too many digits to read", id="long-integer"),
    pytest.param(b'{"name": "fig1b", "variables": [], "cpts": [], "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "{path}: invalid JSON: arrays or objects nested too deeply to read", id="nested-100000"),
])
def test_query_rejects_malformed_network_document(tmp_path, capsys, network, message):
    net = write_query(tmp_path, "net.json", network)
    query = write_query(tmp_path, "q.json", STRONG_QUERY)
    out = tmp_path / "r.json"
    assert run(["query", "--network", net, "--query", query, "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.format(path=net)}\n"
    assert not out.exists()


@pytest.mark.parametrize("query, message", [
    (["strong"], "query document must be a JSON object"),
    ({**STRONG_QUERY, "mode": "explain"},
     "mode must be one of ('map', 'strong', 'weak', 'maximum', 'threshold', 'quantify', 'partition'), "
     "got 'explain'"),
    ({**STRONG_QUERY, "hypothesis": "A"}, "hypothesis must be a list of strings"),
    ({**STRONG_QUERY, "hypothesis": ["A", 1]}, "hypothesis must be a list of strings"),
    ({**STRONG_QUERY, "evidence": {"C": 1}}, "evidence must map variable names to state names"),
    ({**STRONG_QUERY, "evidence": ["C", "T"]}, "evidence must map variable names to state names"),
    ({**STRONG_QUERY, "mode": "maximum", "k": 1.0}, "k must be an integer"),
    ({**STRONG_QUERY, "mode": "maximum", "k": True}, "k must be an integer"),
    # Every field is echoed into the report, where these would not be JSON.
    ({"mode": "map", "hypothesis": ["A"], "evidence": {"C": "T"}, "note": math.nan},
     "query document may not hold NaN or Infinity"),
    ({**STRONG_QUERY, "note": {"bound": math.inf}}, "query document may not hold NaN or Infinity"),
    ({**STRONG_QUERY, "note": [-math.inf]}, "query document may not hold NaN or Infinity"),
    ({**STRONG_QUERY, "mode": "threshold", "h_star": {"A": "T"}, "s": 10**400},
     "threshold s must be in [0, 1), got an integer past the double range"),
    pytest.param(b'{"mode": "map", "hypothesis": ["A"], "note": ' + b"9" * 5000 + b"}",
                 "{path}: invalid JSON: an integer has too many digits to read", id="long-integer"),
    pytest.param(b'{"mode": "map", "hypothesis": ["\xff"]}',
                 "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 32: invalid start byte",
                 id="not-utf-8"),
    # Long values are echoed in brief.
    ({**STRONG_QUERY, "mode": "x" * 5000},
     "mode must be one of ('map', 'strong', 'weak', 'maximum', 'threshold', 'quantify', 'partition'), "
     "got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ({**STRONG_QUERY, "mode": "threshold", "h_star": {"A": "T"}, "s": "9" * 5000},
     "bad fraction string '999999999999...9999999999999'"),
    ({**STRONG_QUERY, "mode": "maximum", "k": 10**400},
     "k must be between 1 and 2, got 100000000000000000...0000000000000000000"),
    ({**STRONG_QUERY, "mode": "threshold", "h_star": {"A": "T"}, "s": "9" * 500},
     "threshold s must be in [0, 1), got 999999999999...9999999999999"),
    ({**STRONG_QUERY, "hypothesis": ["x" * 5000]}, "unknown variable 'xxxxxxxxxxxx...xxxxxxxxxxxxx' in network 'fig1b'"),
    ({**STRONG_QUERY, "evidence": {"C": "T" * 5000}}, "unknown state 'TTTTTTTTTTTT...TTTTTTTTTTTTT' for variable 'C'"),
    ({**STRONG_QUERY, "focus": ["B"] * 3000}, "duplicate variables in ['B', 'B', 'B', 'B', 'B', 'B', ...]"),
    # The report echoes the query, so nesting is refused before the query runs.
    pytest.param(b'{"mode": "map", "hypothesis": ["A"], "note": ' + b"[" * 400 + b"]" * 400 + b"}",
                 "query document nests arrays and objects more than 64 deep", id="nested-400"),
    pytest.param(b'{"mode": "map", "hypothesis": ["A"], "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "{path}: invalid JSON: arrays or objects nested too deeply to read", id="nested-100000"),
    *(pytest.param({**STRONG_QUERY, "mode": "threshold", "h_star": {"A": "T"}, "s": s},
                   "threshold s must be a number or fraction string", id=f"s-{json.dumps(s)}")
      for s in (True, None, [0.1])),
])
def test_query_rejects_malformed_query_document(tmp_path, capsys, query, message):
    path = write_query(tmp_path, "q.json", query)
    out = tmp_path / "r.json"
    assert run(["query", "--network", FIG1B, "--query", path, "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {message.format(path=path)}\n"
    assert len(err) - len(path) < 200
    assert not out.exists()


def test_query_nesting_limit_counts_the_document_itself(tmp_path, capsys):
    def note(depth):
        return b'{"mode": "map", "hypothesis": ["A"], "note": ' + b"[" * depth + b"]" * depth + b"}"

    out = tmp_path / "r.json"
    assert run(["query", "--network", FIG1B, "--query", write_query(tmp_path, "ok.json", note(63)),
                "--output", str(out)]) == EXIT_OK
    assert read_report(out)["query"]["note"] == json.loads(b"[" * 63 + b"]" * 63)
    assert run(["query", "--network", FIG1B, "--query", write_query(tmp_path, "deep.json", note(64)),
                "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: query document nests arrays and objects more than 64 deep\n"


def test_infeasible_evidence_on_many_variables_is_echoed_in_brief(tmp_path, capsys):
    # 200 observed roots, one of them in a state of probability zero.
    roots = [f"V{i}" for i in range(200)]
    net = Network(
        "many-roots",
        tuple(Variable(v, TF) for v in ("H", "R", *roots)),
        (
            Cpt("H", (), ((0.7, 0.3),)),
            Cpt("R", ("H",), ((0.9, 0.1), (0.2, 0.8))),
            Cpt("V0", (), ((1.0, 0.0),)),
            *(Cpt(v, (), ((0.5, 0.5),)) for v in roots[1:]),
        ),
    )
    net_path = str(tmp_path / "net.json")
    save_network(net, net_path)
    evidence = {v: "F" if v == "V0" else "T" for v in roots}
    flag = ",".join(f"{v}={state}" for v, state in evidence.items())
    strong = {"mode": "strong", "hypothesis": ["H"], "evidence": evidence, "focus": ["R"]}
    threshold = {**strong, "mode": "threshold", "h_star": {"H": "T"}, "s": 0.1}
    for argv in (
        ["map", "--network", net_path, "--hypothesis", "H", "--evidence", flag],
        ["bench", "--network", net_path, "--hypothesis", "H", "--evidence", flag, "--rmax", "1",
         "--output", str(tmp_path / "b.json")],
        ["query", "--network", net_path, "--query", write_query(tmp_path, "s.json", strong),
         "--output", str(tmp_path / "s.out.json")],
        ["query", "--network", net_path, "--query", write_query(tmp_path, "t.json", threshold),
         "--output", str(tmp_path / "t.out.json")],
    ):
        assert run(argv) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: evidence {") and err.count("\n") == 1
        assert " {'V0': 'F', 'V1': 'T', 'V2': 'T', 'V3': 'T', ...} has probability zero" in err
        assert len(err) <= 500
    with pytest.raises(InfeasibleQueryError) as info:
        posterior(net, {"H": "T"}, evidence)
    assert len(str(info.value)) <= 500


def _long_names_network(n):
    """``n`` variables with 5,000-character names in one cycle, each CPT row off by 1e-3."""
    names = [f"{i}{'x' * 5000}" for i in range(n)]
    return {
        "name": "long-names",
        "variables": [{"name": v, "states": ["T", "F"]} for v in names],
        "cpts": [{"variable": v, "parents": [names[i - 1]], "table": [[0.5, 0.501], [0.5, 0.501]]}
                 for i, v in enumerate(names)],
    }


def test_invalid_network_and_aset_error_lines_are_bounded(tmp_path, capsys):
    off = json.loads(Path(FIG1B).read_text(encoding="utf-8"))
    for cpt in off["cpts"]:
        cpt["table"] = [[row[0] + 1e-3, *row[1:]] for row in cpt["table"]]
    off_path = write_query(tmp_path, "off.json", off)
    dangling = _fig1b_with("parents", ["A", "p" * 5000])
    strong = write_query(tmp_path, "q.json", {"mode": "strong", "hypothesis": ["A"], "focus": ["B"]})
    long_names = write_query(tmp_path, "long.json", _long_names_network(40))
    cases = [
        (["map", "--network", off_path, "--hypothesis", "A"], EXIT_INVALID_NETWORK),
        (["query", "--network", off_path, "--query", strong, "--output", str(tmp_path / "r.json")],
         EXIT_INVALID_NETWORK),
        (["validate", "--network", write_query(tmp_path, "dangling.json", dangling)], EXIT_INVALID_NETWORK),
        (["compile", "--formula", "x1 & x2", "--aset", ",".join(f"y{i}{'y' * 50}" for i in range(200))],
         EXIT_USAGE),
        (["compile", "--formula", f"x1 & x2 {'z' * 5000}"], EXIT_USAGE),
        (["compile", "--formula", f"x1 & & {'z' * 5000}"], EXIT_USAGE),
        (["validate", "--network", long_names], EXIT_INVALID_NETWORK),
        (["map", "--network", long_names, "--hypothesis", "A"], EXIT_INVALID_NETWORK),
    ]
    for argv, code in cases:
        assert run(argv) == code, argv
        err = capsys.readouterr().err
        assert err and "Traceback" not in err, argv
        assert max(map(len, err.splitlines())) <= 500, argv
    rows = sum(len(cpt["table"]) for cpt in off["cpts"])
    with pytest.raises(NetworkValidationError) as info:
        load_network(off_path)
    assert len(info.value.violations) == rows
    assert str(info.value).startswith("invalid network: row_sum at cpt A row 0: sums to 1.001, deviation 0.001; ")
    assert str(info.value).endswith(f"; {rows - 3} more ({rows} violations in all)")


def test_query_table_limit(tmp_path):
    out = tmp_path / "r.json"
    query = write_query(tmp_path, "q.json", {
        "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    assert run([
        "query", "--network", FIG1B, "--query", query, "--output", str(out), "--table-limit", "3",
    ]) == EXIT_OK
    assert len(read_report(out)["result"]["per_assignment"]) == 3


def test_query_negative_table_limit_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    query = write_query(tmp_path, "q.json", {
        "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    assert run([
        "query", "--network", FIG1B, "--query", query, "--output", str(out), "--table-limit", "-3",
    ]) == EXIT_USAGE
    assert "--table-limit" in capsys.readouterr().err
    assert not out.exists()


def test_query_unwritable_output_is_usage_error(tmp_path, capsys):
    query = write_query(tmp_path, "q.json", {
        "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    out = tmp_path / "missing" / "r.json"
    assert run(["query", "--network", FIG1B, "--query", query, "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_valid_network(tmp_path):
    out = tmp_path / "net.json"
    code = run(["compile", "--formula", "!(x1 & x2) | (x3 | x4)", "--out", str(out)])
    assert code == EXIT_OK
    assert run(["validate", "--network", str(out)]) == EXIT_OK


def test_compile_stdout_document(capsys):
    assert run(["compile", "--formula", "x1 & x2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert {v["name"] for v in doc["variables"]} == {"x1", "x2", "and_1"}


def test_compile_emit_query_round_trip(tmp_path):
    net_path = tmp_path / "net.json"
    query_path = tmp_path / "query.json"
    out = tmp_path / "report.json"
    assert run([
        "compile", "--formula", "!(x1 & x2) | (x3 | x4)",
        "--aset", "x1,x2", "--out", str(net_path), "--emit-query", str(query_path),
    ]) == EXIT_OK
    query_doc = json.loads(query_path.read_text())
    assert query_doc["s"] == "1/8"
    assert query_doc["focus"] == ["x1", "x2"]
    assert run(["query", "--network", str(net_path), "--query", str(query_path), "--output", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["result"]["verdict"] is True
    assert report["result"]["min_joint"] == 3 / 16


def test_compile_syntax_error_exit(capsys):
    assert run(["compile", "--formula", "x1 &"]) == EXIT_USAGE
    assert "byte offset" in capsys.readouterr().err


def test_compile_refuses_an_undecodable_byte(capsys):
    # A byte that is not UTF-8 reaches argv as a lone surrogate.
    assert run(["compile", "--formula", "x1 & \udcff"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unexpected character '\\udcff' (byte offset 5)" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--emit-query"])
def test_compile_unwritable_output_is_usage_error(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "f.json"
    paths = {"--out": str(tmp_path / "net.json"), "--emit-query": str(tmp_path / "q.json"), flag: str(target)}
    assert run([
        "compile", "--formula", "!(x1 & x2) | (x3 | x4)", "--aset", "x1,x2",
        "--out", paths["--out"], "--emit-query", paths["--emit-query"],
    ]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err


def test_compile_emit_query_requires_aset(tmp_path):
    assert run([
        "compile", "--formula", "x1 & x2", "--emit-query", str(tmp_path / "q.json"),
    ]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# bench


def test_bench_rows(fig1b):
    table = bench(fig1b, ["A"], {"C": "T"}, r_max=2, trials=1)
    assert [row["r_size"] for row in table["rows"]] == [1, 2]
    assert [row["omega"] for row in table["rows"]] == [2, 4]
    assert all(row["median_seconds"] > 0 for row in table["rows"])
    assert table["truncated"] is None


def test_bench_single_row(fig1b):
    table = bench(fig1b, ["A"], {"C": "T"}, r_max=1, trials=1)
    assert len(table["rows"]) == 1


@pytest.mark.parametrize("trials", [0, -4, True])
def test_bench_refuses_a_bad_trial_count(fig1b, trials):
    # A count below 1 times nothing and has no median; True is not a count.
    with pytest.raises(InvalidQueryError, match="^trials must be a positive integer, got "):
        bench(fig1b, ["A"], {"C": "T"}, r_max=1, trials=trials)


@pytest.mark.parametrize("r_max", ["2", 1.5, True])
def test_bench_refuses_a_focus_size_that_is_not_an_integer(fig1b, monkeypatch, r_max):
    # Refused before the range check and before any elimination; True is not a size.
    tables = []
    joint_table = inference.joint_table

    def counted(*args, **kwargs):
        tables.append(args)
        return joint_table(*args, **kwargs)

    monkeypatch.setattr(inference, "joint_table", counted)
    with pytest.raises(InvalidQueryError, match="^rmax must be an integer, got "):
        bench(fig1b, ["A"], {"C": "T"}, r_max=r_max, trials=1)
    assert tables == []


def test_bench_truncates_at_guard():
    net = random_binary_network(random.Random(9), 8)
    table = bench(net, [net.names[0]], {}, r_max=5, trials=1, guard=8)
    assert [row["r_size"] for row in table["rows"]] == [1, 2, 3]
    assert table["truncated"] is not None


def test_bench_truncates_oversized_hypothesis(fig1b):
    table = bench(fig1b, ["A", "B"], {"C": "T"}, r_max=1, trials=1, guard=3)
    assert table["rows"] == []
    assert table["truncated"].startswith("stopped at |R|=1: |Omega(H)| = 4")


def grid_network(size):
    """A size x size binary grid: g{i}_{j} has parents g{i-1}_{j} and g{i}_{j-1}."""
    cpts = []
    for i in range(size):
        for j in range(size):
            parents = tuple(p for p, inside in ((f"g{i - 1}_{j}", i > 0), (f"g{i}_{j - 1}", j > 0)) if inside)
            cpts.append(Cpt(f"g{i}_{j}", parents, ((0.6, 0.4), (0.3, 0.7), (0.2, 0.8), (0.9, 0.1))[:2 ** len(parents)]))
    return Network(f"grid{size}", tuple(Variable(c.child, ("s0", "s1")) for c in cpts), tuple(cpts))


def test_bench_guards_every_elimination(fig1b, monkeypatch):
    # A 5 x 5 grid: |Omega(H)| = |Omega(R)| = 2, but each rank's table over
    # the far corner forms products of more than 8 entries.
    net = grid_network(5)
    with pytest.raises(CapacityError):
        bench(net, ["g4_4"], {}, r_max=1, trials=1, guard=8)
    assert len(bench(net, ["g4_4"], {}, r_max=1, trials=1)["rows"]) == 1
    # Pr(e) and the 2 + 4 ranks of |R| = 1, 2 each get the guard.
    guards = []

    def recording(*args, guard=None):
        guards.append(guard)
        return candidate_joints(*args, guard=guard)

    monkeypatch.setattr(inference, "candidate_joints", recording)
    bench(fig1b, ["A"], {"C": "T"}, r_max=2, trials=1, guard=64)
    assert guards == [64] * 7


def test_every_public_function_guards_its_eliminations(fig1b, monkeypatch):
    # On a 5 x 5 grid every table over the far corner forms products of more
    # than 8 entries; at guard 8 each function refuses before forming one.
    net = grid_network(5)
    corner, root = {"g4_4": "s0"}, {"g0_0": "s1"}
    partition = QueryPartition(root, ("g4_4",), ("g4_3",))
    calls = [
        functools.partial(marginal, net, corner),
        functools.partial(posterior, net, corner, root),
        functools.partial(map_solve, net, ["g4_4"], root),
        functools.partial(strong_map_independence, net, partition),
        functools.partial(weak_map_independence, net, partition),
        functools.partial(quantify, net, partition),
        functools.partial(maximum_map_independence, net, partition, 1),
        functools.partial(threshold_map_independence, net, corner, partition, 0.1),
        functools.partial(relevance_partition, net, root, ["g4_4"], ["g4_3"]),
    ]
    sizes = []
    product = inference._product

    def recording(factors, scope, cards):
        sizes.append(math.prod(cards[v] for v in scope))
        return product(factors, scope, cards)

    monkeypatch.setattr(inference, "_product", recording)
    for call in calls:
        with pytest.raises(CapacityError):
            call(guard=8)
    assert max(sizes, default=0) <= 8
    # Below the guard the answers are the unguarded eliminations' own bits.
    pr_c, pr_ac = (candidate_joints(fig1b, (), e)[0] for e in ({"C": "T"}, {"A": "T", "C": "T"}))
    assert marginal(fig1b, {"C": "T"}) == pr_c
    assert posterior(fig1b, {"A": "T"}, {"C": "T"}) == pr_ac / pr_c
    # quantify's Pr(e) gets the decider's guard.
    guards = []

    def marginal_recording(*args, guard):
        guards.append(guard)
        return marginal(*args, guard=guard)

    monkeypatch.setattr(independence, "marginal", marginal_recording)
    fig1b_partition = QueryPartition({"C": "T"}, ("A",), ("B",))
    assert quantify(fig1b, fig1b_partition, guard=64) == quantify(fig1b, fig1b_partition)
    assert guards == [64, DEFAULT_GUARD]


def test_bench_subcommand(tmp_path):
    out = tmp_path / "bench.json"
    code = run([
        "bench", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T",
        "--rmax", "2", "--trials", "1", "--output", str(out),
    ])
    assert code == EXIT_OK
    report = read_report(out)
    assert len(report["result"]["rows"]) == 2
    assert report["query"]["mode"] == "bench"


def test_bench_subcommand_refuses_zero_trials(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = run([
        "bench", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T",
        "--rmax", "1", "--trials", "0", "--output", str(out),
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: trials must be a positive integer, got 0\n"
    assert not out.exists()


def test_bench_rmax_out_of_range(fig1b):
    assert run([
        "bench", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T",
        "--rmax", "5", "--trials", "1", "--output", "/tmp/unused.json",
    ]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# determinism


def test_reports_byte_identical_modulo_elapsed(tmp_path):
    query = write_query(tmp_path, "q.json", {
        "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    run(["query", "--network", FIG1B, "--query", query, "--output", str(outs[0])])
    run(["query", "--network", FIG1B, "--query", query, "--output", str(outs[1])])
    run(["query", "--network", FIG1B, "--query", query, "--output", str(outs[2]), "--parallel", "4"])
    texts = [strip_elapsed(o.read_text()) for o in outs]
    assert texts[0] == texts[1] == texts[2]


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # The parser is built once per process; earlier calls' flags, a usage
    # error and --version must leave a later plain query as a fresh process runs it.
    query = write_query(tmp_path, "q.json", {
        "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
    })
    fresh = tmp_path / "fresh.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mapindep", "query", "--network", FIG1B, "--query", query, "--output", str(fresh)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(FIXTURES.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_OK

    flagged = tmp_path / "flagged.json"
    assert run([
        "query", "--network", FIG1B, "--query", query, "--output", str(flagged),
        "--strict-zeros", "--table-limit", "2",
    ]) == EXIT_OK
    assert run(["query", "--network", FIG1B, "--query", query]) == EXIT_USAGE
    assert run(["--version"]) == EXIT_OK
    capsys.readouterr()
    plain = tmp_path / "plain.json"
    assert run(["query", "--network", FIG1B, "--query", query, "--output", str(plain)]) == EXIT_OK
    assert "per_assignment" in flagged.read_text()
    assert strip_elapsed(plain.read_text()) == strip_elapsed(fresh.read_text())


# ---------------------------------------------------------------------------
# the collector pause


def _exit_code_calls(tmp_path):
    """(expected exit code, argv) for a compile and one query per exit code 1-4."""
    bad_query = write_query(tmp_path, "bad.json", {"mode": "nope"})
    gated = tmp_path / "gated.json"
    save_network(gated_network(), gated)
    or21 = tmp_path / "or21.json"
    xs = [f"x{i}" for i in range(21)]
    return [
        (EXIT_OK, ["compile", "--formula", " | ".join(xs), "--out", str(or21)]),
        (EXIT_USAGE, ["query", "--network", FIG1B, "--query", bad_query, "--output", str(tmp_path / "r.json")]),
        (EXIT_INVALID_NETWORK, ["map", "--network", NAN_CPT, "--hypothesis", "A"]),
        (EXIT_INFEASIBLE, ["map", "--network", str(gated), "--hypothesis", "H", "--evidence", "E=T,R=F"]),
        (EXIT_CAPACITY, ["map", "--network", str(or21), "--hypothesis", ",".join(xs)]),
    ]


@pytest.fixture
def collector_state():
    """Restores the collector's state and callbacks after the test."""
    enabled, callbacks = gc.isenabled(), list(gc.callbacks)
    yield
    gc.callbacks[:] = callbacks
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_restores_the_collector_and_leaves_no_cycles(tmp_path, collector_state, enabled):
    # run pauses the cyclic collector, so whatever garbage a call leaves in
    # cycles outlives it; every golden case and exit code must leave none.
    # Every collection from just before a call to a full one just after it
    # is counted, so one the re-enabled collector starts is counted too.
    assert run(["validate", "--network", FIG1B]) == EXIT_OK  # builds the cached parser
    calls = [(f"golden {name}", functools.partial(run_case, name, tmp_path), None) for name in sorted(CASES)]
    calls += [(f"{argv[0]} exiting {code}", functools.partial(run, argv), code)
              for code, argv in _exit_code_calls(tmp_path)]
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    gc.callbacks.append(count)
    for label, call, code in calls:
        (gc.enable if enabled else gc.disable)()
        gc.collect()
        freed.clear()
        result = call()
        assert code is None or result == code, label
        assert gc.isenabled() is enabled, label
        gc.collect()
        assert sum(freed) == 0, label


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_run_restores_the_collector_when_argparse_exits_or_an_error_escapes(monkeypatch, collector_state, enabled):
    # argparse's usage and version messages each leave one formatter cycle,
    # so only the state is checked here.
    def escape(path):
        raise RuntimeError("escaped")

    monkeypatch.setattr(cli, "load_network", escape)
    (gc.enable if enabled else gc.disable)()
    assert run(["query"]) == EXIT_USAGE
    assert gc.isenabled() is enabled
    assert run(["--version"]) == EXIT_OK
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="escaped"):
        run(["validate", "--network", FIG1B])
    assert gc.isenabled() is enabled


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mapindep", "--version"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(FIXTURES.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_only_commands_that_eliminate_import_numpy(tmp_path):
    script = """
import sys
import mapindep
from mapindep import cli
network, formula = sys.argv[1:]
assert cli.run(["validate", "--network", network]) == 0
assert cli.run(["compile", "--formula", "a & (b | !c)", "--out", formula]) == 0
assert "numpy" not in sys.modules
assert cli.run(["map", "--network", network, "--hypothesis", "A", "--evidence", "C=T"]) == 0
assert "numpy" in sys.modules
try:
    mapindep.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("mapindep.no_such_name did not raise AttributeError")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "fig1b.json"), str(tmp_path / "f.json")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(FIXTURES.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
