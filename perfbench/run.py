"""Benchmark of the mapindep CLI: seeded query workloads, answers checked.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep20 --seed 1 --seconds 30 --trace 0

Each run generates the workload's documents from ``--seed`` under
``.perfbench_work/``, starts fresh interpreters for the set-up samples, lets
one client process (``client.py``) answer the fixed query batch in a closed
loop for ``--seconds``, checks every report against an independent
reference (``oracle.py``) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is a JSON object with the run context.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer totals of one traced batch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5   # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 150

REFERENCES = {
    "sweep20": "independent: numpy full joint (2^20 entries) per network",
    "big400": "independent: the benchmark's own bucket elimination (barren-node pruning, "
              "min-degree order, np.einsum)",
    "amajsat": "independent: numpy truth-table model counts, compared exactly",
}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _client(plan_path: Path, mode: str, seconds: float, results: Path) -> tuple[float, dict]:
    """Run one client to the end; returns (seconds from start to its ready line, its results)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py"), "--plan", str(plan_path), "--mode", mode,
         "--seconds", str(seconds), "--results", str(results)],
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"{mode} client exited with code {code}")
    return ready, json.loads(results.read_text(encoding="utf-8"))


def _strip_elapsed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if '"elapsed_ms"' not in line)


def _expected(plan: dict, q: dict, cache: dict) -> dict:
    """The reference ``result`` of one query, from the workload's oracle."""
    query = json.loads(Path(q["query"]).read_text(encoding="utf-8"))
    if plan["workload"] == "amajsat":
        net = oracle.Net(json.loads(Path(q["network"]).read_text(encoding="utf-8")))
        variables = workloads.formula_variables(q["formula"])
        phi = query["hypothesis"][0]
        if q["mode"] == "threshold":
            # The compiler wrote this query; it must ask the A-MAJSAT question.
            asked = (query["mode"], query["h_star"], set(query["focus"]), Fraction(query["s"]), query["evidence"])
            wanted = ("threshold", {phi: "T"}, set(q["a_set"]), Fraction(1, 2 ** (len(q["a_set"]) + 1)), {})
            if asked != wanted:
                return {"emitted_query": wanted}
            return oracle.expected_threshold(variables, q["formula"], q["a_set"], phi)
        return oracle.expected_result(net, oracle.formula_joint_fn(variables, q["formula"], phi), query)

    if q["network"] not in cache:
        doc = json.loads(Path(q["network"]).read_text(encoding="utf-8"))
        net = oracle.Net(doc)
        joint = oracle.joint_table(net) if plan["workload"] == "sweep20" else None
        cache.clear()  # one network in memory at a time; queries come grouped by network
        cache[q["network"]] = (net, joint)
    net, joint = cache[q["network"]]
    evidence = query.get("evidence") or {}
    if joint is not None:
        joint_fn = lambda keep: oracle.joint_marginal(net, joint, keep, evidence)  # noqa: E731
    else:
        joint_fn = lambda keep: oracle.eliminate(net, keep, evidence)  # noqa: E731
    return oracle.expected_result(net, joint_fn, query, q["table_limit"])


def check(plan: dict, samples: list, workdir: Path) -> tuple[int, list[str]]:
    """Count failed query runs: a non-zero exit, a wrong answer, or a report that differs between repetitions."""
    exact = plan["workload"] == "amajsat"
    queries = {q["id"]: q for q in plan["queries"]}
    reps: dict[str, int] = {}
    first: dict[str, tuple[str, list[str]]] = {}  # query id -> (report without elapsed_ms, mismatches)
    cache: dict = {}
    problems: list[str] = []
    for qid, _, code in samples:
        rep = reps.get(qid, 0)
        reps[qid] = rep + 1
        if code != 0:
            problems.append(f"{qid} rep {rep}: exit code {code}")
            continue
        text = (workdir / "out" / f"r{rep}" / f"{qid}.json").read_text(encoding="utf-8")
        if qid not in first:
            result = json.loads(text)["result"]
            expected = _expected(plan, queries[qid], cache)
            wrong = (oracle.mismatches(expected, result, rel=0.0, abs_tol=0.0) if exact
                     else oracle.mismatches(expected, result))
            first[qid] = (_strip_elapsed(text), wrong)
        reference, wrong = first[qid]
        if wrong:
            problems.append(f"{qid} rep {rep}: " + "; ".join(wrong[:3]))
        elif _strip_elapsed(text) != reference:
            problems.append(f"{qid} rep {rep}: report differs from rep 0")
    return len(problems), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mapindep" / "__init__.py").is_file():
        print(f"error: {src}/mapindep not found; run from the root of a mapindep checkout",
              file=sys.stderr)
        return 2

    try:
        with workloads.work_directory(root, f"{args.workload}-{args.seed}-{os.getpid()}") as workdir:
            return _run(args, root, src, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args, root: Path, src: Path, workdir: Path) -> int:
    plan = workloads.generate(args.workload, args.seed, workdir)
    plan.update(src=str(src), workdir=str(workdir))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    results_path = workdir / "results.json"

    setup_samples = []
    setup_codes = []
    for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 1):
        seconds, results = _client(plan_path, "setup", 0, results_path)
        setup_samples.append(seconds)
        setup_codes += results["setup_codes"]
    workloads.write_strong_queries(plan)

    seconds, results = _client(plan_path, "trace" if args.trace else "run", args.seconds, results_path)
    setup_samples.append(seconds)
    setup_codes += results["setup_codes"]

    samples = results["samples"]
    check_started = time.perf_counter()
    failed, problems = check(plan, samples, workdir)
    check_s = time.perf_counter() - check_started
    bad_setup = sum(1 for c in setup_codes if c != 0)
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    if bad_setup:
        print(f"check: {bad_setup} set-up call(s) failed", file=sys.stderr)
    attempted = len(samples)
    times = [ms for _, ms, _ in samples]
    p90 = statistics.quantiles(times, n=10)[-1]  # every batch has at least three queries

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": results["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            # The mean, not the median: this host switches between speed
            # regimes for seconds at a time, and a per-run median picks one
            # regime, which splits runs into two groups.
            "batch_s": {"value": statistics.fmean(results["batches"]), "unit": "s"},
            "query_ms.p50": {"value": statistics.median(times), "unit": "ms"},
            "query_ms.p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
        }

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "reference": REFERENCES[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": oracle.np.__version__,
        "git_commit": _git_commit(root),
        "batch_samples_s": results["batches"],
        "queries_per_batch": len(plan["queries"]),
        "query_samples": attempted,
        "samples_beyond_p90": sum(1 for t in times if t > p90),
        "setup_samples_s": setup_samples,
        "check_s": check_s,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "loop": "closed, one client",
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and not bad_setup,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
