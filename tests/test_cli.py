import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
from mapindep.errors import DocumentError, NetworkValidationError
from mapindep.model import Cpt, Network, Variable
from conftest import FIXTURES
from netgen import random_binary_network

TF = ("T", "F")

FIG1B = str(FIXTURES / "fig1b.json")
FIG1A = str(FIXTURES / "fig1a.json")
NAN_CPT = str(FIXTURES.parent / "tests" / "data" / "nan_cpt.json")


def write_query(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
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


def two_node_document():
    return {
        "name": "pair",
        "variables": [{"name": "A", "states": ["T", "F"]}, {"name": "B", "states": ["T", "F"]}],
        "cpts": [
            {"variable": "A", "parents": [], "table": [[0.5, 0.5]]},
            {"variable": "B", "parents": ["A"], "table": [[1.0, 0.0], [0.0, 1.0]]},
        ],
    }


def _set_field(doc, field, value):
    if field in ("variables", "cpts"):
        doc[field] = value
    elif field == "states":
        doc["variables"][0]["states"] = value
    elif field == "row":
        doc["cpts"][1]["table"][0] = value
    else:
        doc["cpts"][1][field] = value


# A string in place of a list would iterate into its characters.
@pytest.mark.parametrize("field, value", [
    ("variables", ""),
    ("states", "TF"),
    ("cpts", ""),
    ("parents", "A"),
    ("table", "1001"),
    ("row", "10"),
])
def test_network_fields_must_be_arrays(tmp_path, capsys, field, value):
    doc = two_node_document()
    _set_field(doc, field, value)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", "--network", str(path)]) == EXIT_USAGE
    assert "must be a JSON array" in capsys.readouterr().err


def _fig1b_with(field, value):
    doc = json.loads(Path(FIG1B).read_text(encoding="utf-8"))
    owner = {
        "name": doc,
        "states": next(v for v in doc["variables"] if v["name"] == "B"),
        "table": next(c for c in doc["cpts"] if c["variable"] == "B"),
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


def test_map_brute_method(capsys):
    code = run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T", "--method", "brute"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["assignment"] == {"A": "F"}


def test_map_unknown_state_is_usage_error(capsys):
    assert run(["map", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=maybe"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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
])
def test_query_rejects_malformed_network_document(tmp_path, capsys, network, message):
    net = write_query(tmp_path, "net.json", network)
    query = write_query(tmp_path, "q.json", STRONG_QUERY)
    out = tmp_path / "r.json"
    assert run(["query", "--network", net, "--query", query, "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
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
])
def test_query_rejects_malformed_query_document(tmp_path, capsys, query, message):
    path = write_query(tmp_path, "q.json", query)
    out = tmp_path / "r.json"
    assert run(["query", "--network", FIG1B, "--query", path, "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_bench_truncates_at_guard():
    net = random_binary_network(random.Random(9), 8)
    table = bench(net, [net.names[0]], {}, r_max=5, trials=1, guard=8)
    assert [row["r_size"] for row in table["rows"]] == [1, 2, 3]
    assert table["truncated"] is not None


def test_bench_truncates_oversized_hypothesis(fig1b):
    table = bench(fig1b, ["A", "B"], {"C": "T"}, r_max=1, trials=1, guard=3)
    assert table["rows"] == []
    assert table["truncated"].startswith("stopped at |R|=1: |Omega(H)| = 4")


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


def test_bench_rmax_out_of_range(fig1b):
    assert run([
        "bench", "--network", FIG1B, "--hypothesis", "A", "--evidence", "C=T",
        "--rmax", "5", "--trials", "1", "--output", "/tmp/unused.json",
    ]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# determinism


def strip_elapsed(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"elapsed_ms"' not in line)


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mapindep", "--version"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(FIXTURES.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
