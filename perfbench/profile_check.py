"""Compare the traced layer shares with one cProfile pass over the same batch.

Run from the root of a source checkout::

    python3 perfbench/profile_check.py --workload big400 --seed 1

It generates the workload under ``.perfbench_work/``, answers the batch once
under ``cProfile`` and once under ``tracer.Tracer``, and prints, for each,
the share of ``marginal`` time spent in ``min_fill_order`` and in the
factor algebra (``_restrict``, ``_multiply``, ``_sum_out``).  cProfile adds
cost to every Python call, so its shares lean towards call-heavy code; the
tracer wraps only the public functions.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _batch(cli, plan: dict, out: Path) -> None:
    for q in plan["queries"]:
        code = cli.run([*q["argv"], "--output", str(out / f"{q['id']}.json")])
        if code != 0:
            raise SystemExit(f"{q['id']}: exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import mapindep.cli as cli

    with workloads.work_directory(root, f"profile-{args.workload}-{args.seed}-{os.getpid()}") as workdir:
        plan = workloads.generate(args.workload, args.seed, workdir)
        for argv in plan["setup"]:
            cli.run(argv)
        workloads.write_strong_queries(plan)

        profiler = cProfile.Profile()
        profiler.runcall(_batch, cli, plan, workdir)
        stats = pstats.Stats(profiler).stats
        cumulative = {}
        for (_, _, fn), (_, _, _, ct, _) in stats.items():
            cumulative[fn] = cumulative.get(fn, 0.0) + ct
        marginal = cumulative.get("marginal", 0.0)
        print(f"cProfile  marginal {marginal:8.3f} s   "
              f"min_fill_order {cumulative.get('min_fill_order', 0.0) / marginal:6.1%}   "
              + "   ".join(f"{fn} {cumulative.get(fn, 0.0) / marginal:6.1%}"
                         for fn in ("_restrict", "_multiply", "_sum_out")))

        with Tracer() as tracer:
            _batch(cli, plan, workdir)
        totals = tracer.layer_totals()
        m = totals["inference.marginal"]
        print(f"tracer    marginal {m['ms'] / 1000:8.3f} s   "
              f"min_fill_order {totals['model.min_fill_order']['ms'] / m['ms']:6.1%}   "
              f"marginal self (factor algebra) {m['self_ms'] / m['ms']:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
