"""Tests of the benchmark itself: references, tracer and a smoke run.

Run from the repository root::

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import mapindep  # noqa: E402
import mapindep.cli as cli  # noqa: E402
from mapindep.compiler import parse_formula  # noqa: E402
from netgen import random_binary_network, random_partition  # noqa: E402
from oracles import brute_amajsat, brute_marginal, brute_strong  # noqa: E402


def _small_instances(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        damp = 0.04 if i % 2 else None
        net = random_binary_network(rng, rng.randint(5, 8), damp=damp)
        part = random_partition(rng, net, n_evidence=1, n_hypothesis=rng.randint(1, 2),
                                n_focus=rng.randint(1, 3))
        yield net, part, oracle.Net(cli.network_to_document(net))


def test_joint_and_elimination_match_brute_marginal():
    for net, part, ref in _small_instances(11, 12):
        joint = oracle.joint_table(ref)
        keep = list(part.hypothesis) + list(part.focus)
        full = oracle.joint_marginal(ref, joint, keep, part.evidence)
        eliminated = oracle.eliminate(ref, keep, part.evidence)
        for rank in range(full.size):
            assignment = oracle._assignment(ref, keep, rank)
            expected = brute_marginal(net, {**part.evidence, **assignment})
            assert full.reshape(-1)[rank] == pytest.approx(expected, rel=1e-12)
            assert eliminated.reshape(-1)[rank] == pytest.approx(expected, rel=1e-12)


def test_strong_reference_matches_brute_strong():
    verdicts = set()
    for net, part, ref in _small_instances(12, 30):
        hyp, focus = ref.canonical(part.hypothesis), ref.canonical(part.focus)
        verdict, counterexample = brute_strong(net, tuple(hyp), dict(part.evidence), tuple(focus))
        joint = oracle.joint_table(ref)
        query = {"mode": "strong", "hypothesis": hyp, "evidence": dict(part.evidence), "focus": focus}
        result = oracle.expected_result(
            ref, lambda keep: oracle.joint_marginal(ref, joint, keep, part.evidence), query)
        assert (result["verdict"], result["counterexample"]) == (verdict, counterexample)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_threshold_reference_matches_brute_amajsat():
    rng = random.Random(13)
    verdicts = set()
    for _ in range(20):
        ast = workloads.random_formula(rng, rng.randint(4, 7), rng.randint(0, 3))
        variables = workloads.formula_variables(ast)
        chosen = set(rng.sample(variables, rng.randint(1, len(variables) - 1)))
        a_set = [v for v in variables if v in chosen]
        expected = brute_amajsat(parse_formula(workloads.format_formula(ast)), tuple(a_set))
        result = oracle.expected_threshold(variables, ast, a_set, "phi")
        assert result["verdict"] == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_mismatches_reports_wrong_answers_only():
    assert oracle.mismatches({"verdict": True, "p": 0.5}, {"verdict": True, "p": 0.5 + 1e-13, "extra": 1}) == []
    assert oracle.mismatches({"verdict": True}, {"verdict": False})
    assert oracle.mismatches({"p": 0.5}, {"p": 0.5001})
    assert oracle.mismatches({"p": 0.5}, {"p": 0.5 + 1e-13}, rel=0.0, abs_tol=0.0)
    assert oracle.mismatches({"w": {"A": "T"}}, {})


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "mapindep" or name.startswith("mapindep."))
        for attr, value in vars(module).items()
    }


def _traced_counts(tmp_path: Path) -> dict:
    network = ROOT / "fixtures" / "fig1b.json"
    query = tmp_path / "q.json"
    query.write_text(json.dumps(
        {"mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"]}))
    with Tracer() as tracer:
        for parallel in ("1", "2"):
            code = cli.run(["query", "--network", str(network), "--query", str(query),
                            "--output", str(tmp_path / "r.json"), "--parallel", parallel])
            assert code == 0
    return {name: t["calls"] for name, t in tracer.layer_totals().items()}


def test_tracer_restores_every_binding_and_counts_repeat(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        import mapindep.independence as independence
        import mapindep.inference as inference
        assert independence.marginal is not before[("mapindep.inference", "marginal")]
        assert inference.min_fill_order is not before[("mapindep.model", "min_fill_order")]
        assert mapindep.marginal is independence.marginal
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert first == second
    assert first["inference.marginal"] > 0 and first["model.min_fill_order"] == first["inference.marginal"]


def test_tracer_marks_a_missing_function_absent(tmp_path, monkeypatch):
    import mapindep.inference as inference
    monkeypatch.delattr(inference, "candidate_joints")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert "inference.candidate_joints" not in tracer.present
    assert "inference.marginal" in tracer.present


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    out = _bench(ROOT, "--workload", "amajsat", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "sweep20", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_same_seed_gives_the_same_documents(tmp_path):
    texts = []
    for run in ("a", "b"):
        work = tmp_path / run
        work.mkdir()
        plan = workloads.generate("sweep20", 5, work)
        texts.append([Path(q["query"]).read_text() for q in plan["queries"]]
                     + [Path(plan["queries"][0]["network"]).read_text()])
    assert texts[0] == texts[1]
