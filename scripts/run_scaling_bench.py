"""Scaling of the paper's per-rank strong sweep on a random 20-node binary network.

The sweep (``mapindep.cli.bench``) runs one elimination per joint
assignment to the focus set R, the candidate joints of that assignment's
MAP problem, so wall time should roughly double per added
binary variable once |R| dominates the fixed per-query cost.  It times that
algorithm, not the query engine, which answers a strong query from one
table.  Writes a JSON report next to printing the table.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mapindep.cli import bench, emit_json, save_network  # noqa: E402
from mapindep.model import Cpt, Network, Variable  # noqa: E402


def random_binary_network(rng: random.Random, n_vars: int, max_parents: int = 3,
                          name: str = "random") -> Network:
    """Random DAG of binary variables; CPT rows sampled away from zero."""
    variables = tuple(Variable(f"V{i}", ("s0", "s1")) for i in range(n_vars))
    cpts = []
    for i, v in enumerate(variables):
        k = rng.randint(0, min(i, max_parents))
        parents = tuple(f"V{j}" for j in sorted(rng.sample(range(i), k)))
        rows = []
        for _ in range(2 ** k):
            a, b = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
            rows.append((a / (a + b), b / (a + b)))
        cpts.append(Cpt(v.name, parents, tuple(rows)))
    return Network(name, variables, tuple(cpts))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--rmax", type=int, default=8)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--output", default="bench_report.json")
    parser.add_argument("--save-network", default=None, help="also write the generated network")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    net = random_binary_network(rng, args.nodes, name=f"bench{args.nodes}")
    if args.save_network:
        save_network(net, args.save_network)
    hypothesis = [net.names[0], net.names[2]]
    evidence = {net.names[1]: net.variable(net.names[1]).states[0]}

    table = bench(net, hypothesis, evidence, args.rmax, args.trials)
    print(f"network={net.name} seed={args.seed} H={hypothesis} e={evidence}")
    print(f"{'|R|':>4} {'|Omega(R)|':>10} {'median (ms)':>12} {'ratio':>6}")
    previous = None
    for row in table["rows"]:
        ratio = "" if previous is None else f"{row['median_seconds'] / previous:.2f}"
        print(f"{row['r_size']:>4} {row['omega']:>10} {row['median_seconds'] * 1000:>12.2f} {ratio:>6}")
        previous = row["median_seconds"]
    if table["truncated"]:
        print("note:", table["truncated"])

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(emit_json({"network": net.name, "seed": args.seed, "bench": table}))
    print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
