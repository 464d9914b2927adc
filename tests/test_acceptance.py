"""Acceptance suite: one test per release criterion, at the pinned tolerances.

Each test prints one ``[acceptance] <criterion>: PASS/FAIL`` line (visible
under ``pytest -s`` or in captured output on failure), so the suite doubles
as a checklist.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mapindep.cli import bench, run
from mapindep.independence import (
    maximum_map_independence,
    quantify,
    strong_map_independence,
    threshold_map_independence,
    weak_map_independence,
)
from mapindep.inference import map_solve, marginal, posterior
from mapindep.model import QueryPartition, d_separated
from conftest import FIXTURES
from netgen import random_binary_network, random_partition
from oracles import brute_marginal, brute_strong

FIG1A = str(FIXTURES / "fig1a.json")
FIG1B = str(FIXTURES / "fig1b.json")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def part(evidence, hypothesis, focus):
    return QueryPartition(evidence=evidence, hypothesis=hypothesis, focus=focus)


def test_criterion_1_posterior_reproduction(fig1a, fig1b):
    with criterion("1 posterior reproduction"):
        t0 = time.perf_counter()
        assert posterior(fig1b, {"A": "T"}, {"C": "T", "B": "T"}) == pytest.approx(0.42, abs=1e-9)
        assert posterior(fig1b, {"A": "T"}, {"C": "T", "B": "F"}) == pytest.approx(0.26, abs=1e-9)
        assert posterior(fig1b, {"A": "T"}, {"C": "T", "E": "T"}) == pytest.approx(0.44, abs=1e-9)
        assert posterior(fig1b, {"A": "T"}, {"C": "T", "E": "F"}) == pytest.approx(0.30, abs=1e-9)
        assert posterior(fig1a, {"A": "T"}, {"C": "T"}) == pytest.approx(0.48, abs=1e-9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_independence_reproduction(fig1a, fig1b):
    with criterion("2 independence reproduction"):
        t0 = time.perf_counter()
        assert strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B",))).verdict is True
        assert strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("E",))).verdict is True
        pair = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
        assert pair.verdict is False
        assert pair.counterexample == {"B": "T", "E": "T"}
        assert weak_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E"))).verdict is True
        assert weak_map_independence(fig1a, part({"C": "T"}, ("A",), ("B",))).verdict is False
        assert strong_map_independence(fig1a, part({"C": "T"}, ("A",), ("D",))).verdict is True
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_maximum_reproduction(fig1b):
    with criterion("3 maximum reproduction"):
        k1 = maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 1)
        assert k1.verdict is True
        assert k1.subset == ("B",)
        k2 = maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 2)
        assert k2.verdict is False


def test_criterion_4_footnote_fixture(fn_ter):
    with criterion("4 footnote fixture"):
        for r_state in ("T", "F"):
            assert map_solve(fn_ter, ("H",), {"R": r_state}).assignment == {"H": "h1"}
        expected = {("h1", "T"): 0.28, ("h2", "T"): 0.22, ("h3", "T"): 0.0,
                    ("h1", "F"): 0.22, ("h2", "F"): 0.20, ("h3", "F"): 0.08}
        for (h, r), joint in expected.items():
            assert marginal(fn_ter, {"H": h, "R": r}) == pytest.approx(joint, abs=1e-12)
        p = part({}, ("H",), ("R",))
        assert threshold_map_independence(fn_ter, {"H": "h1"}, p, 0.22).verdict is False
        assert threshold_map_independence(fn_ter, {"H": "h1"}, p, 0.1875).verdict is True


def test_criterion_5_reduction_reproduction():
    from mapindep.compiler import build_amajsat_instance, count_models, parse_formula

    with criterion("5 reduction reproduction"):
        t0 = time.perf_counter()
        ast = parse_formula("!(x1 & x2) | (x3 | x4)")
        assert count_models(ast) == 15
        instance = build_amajsat_instance(ast, ("x1", "x2"))
        assert marginal(instance.network, {instance.phi_node: "T"}) == 15 / 16
        assert instance.query.s == Fraction(1, 8)
        partition = part(instance.query.evidence, (instance.phi_node,), instance.query.focus)
        report = threshold_map_independence(
            instance.network, instance.query.h_star, partition, instance.query.s
        )
        assert report.verdict is True
        assert report.min_joint == 3 / 16
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_oracle_equivalence():
    with criterion("6 oracle equivalence"):
        t0 = time.perf_counter()
        rng = random.Random(600)
        for _ in range(200):
            net = random_binary_network(rng, rng.randint(2, 12))
            names = list(net.names)
            rng.shuffle(names)
            partial = {v: rng.choice(net.variable(v).states) for v in names[: rng.randint(0, 4)]}
            assert marginal(net, partial) == pytest.approx(brute_marginal(net, partial), abs=1e-9)

        rng = random.Random(601)
        for _ in range(100):
            net = random_binary_network(rng, rng.randint(4, 12))
            partition = random_partition(
                rng, net, n_evidence=rng.randint(0, 2), n_focus=rng.randint(1, 3)
            )
            report = strong_map_independence(net, partition)
            hyp = tuple(sorted(partition.hypothesis, key=net.declaration_index))
            focus = tuple(sorted(partition.focus, key=net.declaration_index))
            verdict, counterexample = brute_strong(net, hyp, dict(partition.evidence), focus)
            assert report.verdict == verdict
            assert report.counterexample == counterexample
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def _informative_cases(build, check, *, need=100, cap=1000):
    """Run ``check`` on generated cases until ``need`` of them were informative."""
    informative = 0
    attempts = 0
    while informative < need and attempts < cap:
        attempts += 1
        informative += bool(check(*build()))
    assert informative >= need, f"only {informative} informative cases in {attempts} attempts"


def test_criterion_7_property_suite():
    # strong implies weak
    with criterion("7a strong implies weak"):
        rng = random.Random(700)

        def build():
            net = random_binary_network(rng, rng.randint(4, 8), damp=0.04)
            return net, random_partition(rng, net, n_focus=rng.randint(2, 3))

        def check(net, partition):
            strong = strong_map_independence(net, partition)
            if not strong.verdict or strong.ties_encountered:
                return False
            assert weak_map_independence(net, partition).verdict is True
            return True

        _informative_cases(build, check)

    # singleton collapse
    with criterion("7b singleton collapse"):
        rng = random.Random(701)

        def build():
            net = random_binary_network(rng, rng.randint(3, 8))
            return net, random_partition(rng, net, n_focus=1)

        def check(net, partition):
            assert (
                strong_map_independence(net, partition).verdict
                == weak_map_independence(net, partition).verdict
            )
            return True

        _informative_cases(build, check)

    # downward closure on 3-subsets
    with criterion("7c downward closure"):
        rng = random.Random(702)

        def build():
            net = random_binary_network(rng, rng.randint(5, 8), damp=0.04)
            return net, random_partition(rng, net, n_focus=3)

        def check(net, partition):
            if len(partition.focus) < 3:
                return False
            report = strong_map_independence(net, partition)
            if not report.verdict or report.ties_encountered:
                return False
            for drop in range(3):
                focus = tuple(v for i, v in enumerate(partition.focus) if i != drop)
                sub = QueryPartition(
                    evidence=partition.evidence,
                    hypothesis=partition.hypothesis,
                    focus=focus,
                )
                assert strong_map_independence(net, sub).verdict is True
            return True

        _informative_cases(build, check)

    # d-separation sufficiency
    with criterion("7d d-separation implies strong independence"):
        rng = random.Random(703)

        def build():
            net = random_binary_network(rng, rng.randint(4, 9), max_parents=2)
            return net, random_partition(rng, net, n_focus=rng.randint(1, 2))

        def check(net, partition):
            if not d_separated(
                net, set(partition.hypothesis), set(partition.focus), set(partition.evidence)
            ):
                return False
            report = strong_map_independence(net, partition)
            if report.ties_encountered:
                return False
            assert report.verdict is True
            return True

        _informative_cases(build, check, cap=2000)

    # quantification consistency
    with criterion("7e quantification consistency"):
        rng = random.Random(704)

        def build():
            net = random_binary_network(rng, rng.randint(4, 8))
            return net, random_partition(rng, net, n_focus=rng.randint(1, 3))

        def check(net, partition):
            report = strong_map_independence(net, partition)
            if report.ties_encountered:
                return False
            metrics = quantify(net, partition)
            assert report.verdict == (metrics.proportion == 1.0)
            assert report.verdict == (abs(metrics.mass - 1.0) <= 1e-9)
            assert report.verdict == (metrics.mean_hamming == 0.0)
            return True

        _informative_cases(build, check)


def test_criterion_8_quantification_reproduction(fig1b):
    with criterion("8 quantification reproduction"):
        metrics = quantify(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
        assert metrics.proportion == pytest.approx(0.75, abs=1e-9)
        assert metrics.mass == pytest.approx(0.76, abs=1e-9)
        assert metrics.mean_hamming == pytest.approx(0.25, abs=1e-9)


def test_criterion_9_fpt_scaling():
    with criterion("9 FPT scaling"):
        rng = random.Random(2026)
        net = random_binary_network(rng, 20, max_parents=3, name="bench20")
        # A two-variable hypothesis gives each sweep rank enough work that
        # the medians are stable against scheduler noise.
        hypothesis = [net.names[0], net.names[2]]
        evidence = {net.names[1]: "s0"}

        table = bench(net, hypothesis, evidence, r_max=8, trials=9)
        rows = table["rows"]
        assert [row["r_size"] for row in rows] == list(range(1, 9))
        omegas = [row["omega"] for row in rows]
        assert omegas == sorted(omegas)
        times = [row["median_seconds"] for row in rows]
        for k in range(3, 8):  # ratio of row k+1 over row k, 1-indexed sizes
            ratio = times[k] / times[k - 1]
            assert 1.2 <= ratio <= 8.0, f"ratio at |R|={k + 1}: {ratio:.2f}"

        intermediates = [v for v in net.names if v not in hypothesis and v not in evidence]
        partition = part(evidence, tuple(hypothesis), tuple(intermediates[:8]))
        t0 = time.perf_counter()
        strong_map_independence(net, partition, table_limit=0)
        assert time.perf_counter() - t0 < 10.0


def _strip_elapsed(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if '"elapsed_ms"' not in line)


def test_criterion_10_report_determinism(tmp_path):
    import json

    with criterion("10 report determinism"):
        strong_q = tmp_path / "strong.json"
        strong_q.write_text(json.dumps({
            "mode": "strong", "hypothesis": ["A"], "evidence": {"C": "T"}, "focus": ["B", "E"],
        }))
        maximum_q = tmp_path / "maximum.json"
        maximum_q.write_text(json.dumps({
            "mode": "maximum", "hypothesis": ["A"], "evidence": {"C": "T"},
            "focus": ["B", "E"], "k": 1,
        }))
        compiled_net = tmp_path / "compiled.json"
        threshold_q = tmp_path / "threshold.json"
        assert run([
            "compile", "--formula", "!(x1 & x2) | (x3 | x4)", "--aset", "x1,x2",
            "--out", str(compiled_net), "--emit-query", str(threshold_q),
        ]) == 0

        cases = [
            (FIG1B, strong_q),        # criterion 2
            (FIG1B, maximum_q),       # criterion 3
            (str(compiled_net), threshold_q),  # criterion 5
        ]
        for net_path, query_path in cases:
            outs = [tmp_path / f"out{i}.json" for i in range(4)]
            for i, extra in enumerate(([], [], ["--parallel", "4"], ["--parallel", "4"])):
                code = run([
                    "query", "--network", str(net_path), "--query", str(query_path),
                    "--output", str(outs[i]), *extra,
                ])
                assert code == 0
            texts = {_strip_elapsed(o) for o in outs}
            assert len(texts) == 1, f"reports differ for {query_path.name}"
