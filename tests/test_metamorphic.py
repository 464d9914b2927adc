"""Metamorphic relations: changes to a network that must leave its answers
alone, checked through the CLI on seeded random networks, without an oracle.

* Pad.  A barren subtree, or an unobserved root d-separated from the query,
  leaves the report bytes identical in every mode: ancestral pruning drops
  them before any elimination.
* Relabel.  Permuting a variable's states leaves every verdict unchanged.
  Names are kept, so witnesses and table rows map to themselves, with
  joints within 1e-12 relative.  The canonical rank order moves with the
  states, so the first counterexample may be another one; it must still
  be a counterexample in the original network.  Queries that meet an exact
  tie are skipped, since the first maximiser moves with the order too.
* Reorder.  Permuting the declaration order of the variables and of the
  CPTs leaves the same answers, compared as for Relabel.  The canonical
  order moves with the declarations, so partition's sets are compared as
  sets, and maximum's subset is not compared: it is built greedily in
  canonical order.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from mapindep.cli import run, save_network
from mapindep.inference import map_solve, marginal
from mapindep.model import Cpt, Network, Variable
from netgen import _normalized_row, random_assignment, random_network, random_partition
from test_golden import strip_elapsed

TABLE = ("--table-limit", "64")


def queries(rng: random.Random, net: Network) -> list[tuple[dict, tuple[str, ...]]]:
    """One query document per mode over one random partition, with its CLI flags."""
    part = random_partition(rng, net, n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(2, 3))
    base = {"hypothesis": list(part.hypothesis), "evidence": dict(part.evidence)}
    focused = {**base, "focus": list(part.focus)}
    h_star = random_assignment(rng, net, list(part.hypothesis))
    return [
        ({"mode": "map", **base}, ()),
        ({"mode": "strong", **focused}, TABLE),
        ({"mode": "weak", **focused}, TABLE),
        ({"mode": "quantify", **focused}, TABLE),
        ({"mode": "maximum", **focused, "k": min(2, len(part.focus))}, ()),
        ({"mode": "threshold", **focused, "h_star": h_star, "s": 0.005}, TABLE),
        ({"mode": "partition", **base, "candidates": list(part.focus)}, ()),
    ]


def answers(net: Network, cases, tmp_path, capsys) -> list[tuple[int, str, str | None]]:
    """Exit code, stderr and report of each query on ``net``."""
    net_path, query_path, out = tmp_path / "net.json", tmp_path / "query.json", tmp_path / "report.json"
    save_network(net, net_path)
    found = []
    for doc, flags in cases:
        query_path.write_text(json.dumps(doc), encoding="utf-8")
        out.unlink(missing_ok=True)
        code = run(["query", "--network", str(net_path), "--query", str(query_path), "--output", str(out), *flags])
        report = out.read_text(encoding="utf-8") if out.exists() else None
        found.append((code, capsys.readouterr().err, report))
    return found


def padded(rng: random.Random, net: Network) -> Network:
    """``net`` plus an isolated root and a barren two-node chain below two of its
    variables, each put at a random place in the declaration order after its parents."""
    variables, cpts = list(net.variables), list(net.cpts)

    def add(name: str, parents: tuple[str, ...]) -> None:
        after = max((i for i, v in enumerate(variables) if v.name in parents), default=-1)
        var = Variable(name, tuple(f"p{j}" for j in range(rng.randint(2, 3))))
        rows = math.prod(v.cardinality for v in variables if v.name in parents)
        at = rng.randint(after + 1, len(variables))
        variables.insert(at, var)
        cpts.insert(at, Cpt(name, parents, tuple(_normalized_row(rng, var.cardinality) for _ in range(rows))))

    add("pad_root", ())
    add("pad_a", (rng.choice(net.names),))
    add("pad_b", ("pad_a", rng.choice(net.names)))
    return Network(net.name, tuple(variables), tuple(cpts))


def permuted(net: Network, perms: dict[str, list[int]]) -> Network:
    """``net`` with the states of each variable in ``perms`` reordered: new state j is old state perms[v][j]."""
    variables = tuple(
        Variable(v.name, tuple(v.states[i] for i in perms[v.name])) if v.name in perms else v
        for v in net.variables
    )
    cpts = []
    for c in net.cpts:
        scope = (*c.parents, c.child)
        table = np.array(c.rows).reshape([net.cardinality(v) for v in scope])
        for axis, var in enumerate(scope):
            if var in perms:
                table = np.take(table, perms[var], axis=axis)
        rows = table.reshape(-1, net.cardinality(c.child)).tolist()
        cpts.append(Cpt(c.child, c.parents, tuple(map(tuple, rows))))
    return Network(net.name, variables, tuple(cpts))


def test_padding_leaves_report_bytes_unchanged(tmp_path, capsys):
    for seed in range(25):
        rng = random.Random(f"pad:{seed}")
        net = random_network(rng, rng.randint(4, 8), max_parents=2, max_states=3)
        cases = queries(rng, net)
        before, after = (
            [(code, err, report and strip_elapsed(report)) for code, err, report in answers(n, cases, tmp_path, capsys)]
            for n in (net, padded(rng, net))
        )
        assert all(code == 0 for code, _, _ in before), seed
        assert after == before, seed


def _key(assignment: dict) -> tuple:
    return tuple(sorted(assignment.items()))


def _still_a_counterexample(net: Network, doc: dict, found: dict) -> bool:
    """Does ``found`` fail the query's test on ``net`` (the original network)?"""
    context = {**doc["evidence"], **found}
    if doc["mode"] == "threshold":
        return marginal(net, {**doc["h_star"], **context}) <= doc["s"]
    reference = map_solve(net, doc["hypothesis"], doc["evidence"]).assignment
    return map_solve(net, doc["hypothesis"], context).assignment != reference


def _assert_same_answer(net: Network, doc: dict, before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for field, value in before.items():
        other = after[field]
        if field == "counterexample":
            assert (value is None) == (other is None)
            if other is not None:
                assert _still_a_counterexample(net, doc, other)
        elif field == "justification":
            for var, finding in value.items():
                assert finding["map_independent"] == other[var]["map_independent"]
                if other[var]["counterexample"] is not None:
                    assert _still_a_counterexample(net, doc, other[var]["counterexample"])
        elif field == "per_assignment":
            rows = {_key(row["assignment"]): row for row in value}
            for row in other:
                mine = rows.get(_key(row["assignment"]))
                if mine is not None:
                    assert row["map"] == mine["map"]
                    assert row["h_star_joint"] == pytest.approx(mine["h_star_joint"], rel=1e-12)
            if doc["mode"] in ("quantify", "threshold"):
                assert len(other) == len(value)
        elif field == "skipped":
            assert sorted(map(_key, other)) == sorted(map(_key, value))
        elif field == "metrics":
            assert other == pytest.approx(value, rel=1e-12)
        elif isinstance(value, float):
            assert other == pytest.approx(value, rel=1e-12, abs=1e-300)
        else:
            assert other == value, field


def test_permuting_states_keeps_every_verdict(tmp_path, capsys):
    checked = 0
    for seed in range(25):
        rng = random.Random(f"relabel:{seed}")
        net = random_network(rng, rng.randint(4, 8), max_parents=2, max_states=3)
        perms = {v.name: rng.sample(range(v.cardinality), v.cardinality) for v in net.variables if rng.random() < 0.6}
        cases = queries(rng, net)
        before = answers(net, cases, tmp_path, capsys)
        after = answers(permuted(net, perms), cases, tmp_path, capsys)
        for (doc, _), (code, _, report), (other_code, _, other_report) in zip(cases, before, after):
            assert code == other_code == 0, seed
            result, other = json.loads(report)["result"], json.loads(other_report)["result"]
            if result.get("ties_encountered") or result.get("tie") or other.get("ties_encountered") or other.get("tie"):
                continue
            _assert_same_answer(net, doc, result, other)
            checked += 1
    assert checked >= 150


def test_reordering_declarations_keeps_every_answer(tmp_path, capsys):
    checked = 0
    for seed in range(40):
        rng = random.Random(f"reorder:{seed}")
        net = random_network(rng, rng.randint(5, 8), max_parents=2, max_states=3)
        variables, cpts = list(net.variables), list(net.cpts)
        rng.shuffle(variables)
        rng.shuffle(cpts)
        cases = queries(rng, net)
        before = answers(net, cases, tmp_path, capsys)
        after = answers(Network(net.name, tuple(variables), tuple(cpts)), cases, tmp_path, capsys)
        for (doc, _), (code, _, report), (other_code, _, other_report) in zip(cases, before, after):
            assert code == other_code == 0, seed
            result, other = json.loads(report)["result"], json.loads(other_report)["result"]
            if result.get("ties_encountered") or result.get("tie") or other.get("ties_encountered") or other.get("tie"):
                continue
            for found in (result, other):
                if doc["mode"] == "maximum":
                    del found["subset"]
                if doc["mode"] == "partition":
                    found["relevant"], found["irrelevant"] = set(found["relevant"]), set(found["irrelevant"])
            if doc["mode"] == "quantify":
                for name in ("proportion", "mean_hamming"):
                    assert other["metrics"][name] == result["metrics"][name], seed
            _assert_same_answer(net, doc, result, other)
            checked += 1
    assert checked >= 250
