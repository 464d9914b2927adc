"""The measured process: one closed-loop client driving ``mapindep.cli.run``.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
the path.  It imports the package, runs the plan's set-up calls (the
``compile`` calls on amajsat), prints ``ready`` and then, unless only set-up
was asked for, answers the fixed query batch over and over: each query is
sent only after the previous report has been written.  Query documents and
reports live on disk, so every query pays for load, validate, solve and
emit, as it does for a CLI user.  Reports of repetition ``k`` go to
``out/r<k>/``; the answer checker in ``run.py`` reads them afterwards.

Modes:

* ``setup``: set-up only, for the set-up time samples.
* ``run``: batches until ``--seconds`` have passed; times only.
* ``trace``: one batch under ``tracer.Tracer``, after untraced batches for
  half of ``--seconds``; writes the per-layer table.

Results go to ``--results`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _run_batch(cli, queries: list[dict], out_dir: Path, samples: list) -> float:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    for q in queries:
        argv = [*q["argv"], "--output", str(out_dir / f"{q['id']}.json")]
        t0 = time.perf_counter()
        code = cli.run(argv)
        samples.append((q["id"], (time.perf_counter() - t0) * 1000.0, code))
    return time.perf_counter() - started


def _layer_metrics(batch, traced_s: float, untraced_s: float) -> dict:
    """Per-layer totals for one batch; ``None`` marks a function that no longer exists."""
    totals = batch.layer_totals()

    def get(name, field):
        entry = totals.get(name)
        return None if entry is None else entry[field]

    deciders = [totals[n] for n in totals if n.startswith("independence.")]
    min_fill = batch.observed("model.min_fill_order")
    min_fill_present = "model.min_fill_order" in totals
    decider_calls = sum(d["calls"] for d in deciders)
    marginal_calls = get("inference.marginal", "calls")
    return {
        "inference.marginal.calls": marginal_calls,
        "independence.marginals_per_query": (
            None if marginal_calls is None or not decider_calls
            else batch.marginals_under_deciders() / decider_calls),
        "inference.candidate_joints.calls": get("inference.candidate_joints", "calls"),
        "inference.map_solve.calls": get("inference.map_solve", "calls"),
        "model.min_fill_order.ms": get("model.min_fill_order", "ms"),
        "model.min_fill_order.calls": get("model.min_fill_order", "calls"),
        "model.min_fill_order.nodes": sum(n for n, _ in min_fill) if min_fill_present else None,
        "model.min_fill_order.width_max": max((w for _, w in min_fill), default=0) if min_fill_present else None,
        "inference.marginal.self_ms": get("inference.marginal", "self_ms"),
        "inference.map_solve.self_ms": get("inference.map_solve", "self_ms"),
        "independence.decide.ms": sum(d["ms"] for d in deciders) if deciders else None,
        "independence.decide.self_ms": sum(d["self_ms"] for d in deciders) if deciders else None,
        "cli.load_network.ms": get("cli.load_network", "ms"),
        "cli.load_query.ms": get("cli.load_query", "ms"),
        "model.validate_network.ms": get("model.validate_network", "ms"),
        "cli.emit_json.ms": get("cli.emit_json", "ms"),
        "cli.run.self_ms": get("cli.run", "self_ms"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--results", required=True)
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import mapindep.cli as cli

    setup_codes = [cli.run(argv) for argv in plan["setup"]]
    print("ready", flush=True)

    results: dict = {"setup_codes": setup_codes}
    if args.mode != "setup":
        work = Path(plan["workdir"])
        queries = plan["queries"]
        budget = args.seconds if args.mode == "run" else args.seconds / 2
        samples: list = []
        batches: list[float] = []
        started = time.perf_counter()
        while True:
            batches.append(_run_batch(cli, queries, work / "out" / f"r{len(batches)}", samples))
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(batches) > budget:
                break
        results.update(batches=batches, samples=samples)
        if args.mode == "trace":
            from tracer import Tracer
            with Tracer() as tracer:
                traced_s = _run_batch(cli, queries, work / "out" / f"r{len(batches)}", samples)
            results["layers"] = _layer_metrics(tracer, traced_s, statistics.fmean(batches))
        results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.results).write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
