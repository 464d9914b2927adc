"""Seeded inputs for the benchmark workloads.

``generate`` writes the network and query documents of one workload into a
work directory and returns its plan: the CLI calls that make up set-up, the
fixed query batch, and what the answer checker needs to know about each
query.  Only ``random`` drives the choices, so a seed gives byte-identical
documents on any machine.  The program under test never sees the seed,
only the documents.

What varies with the seed: every CPT value (and every and/or operator of
the formulas), the evidence, hypothesis and focus variables, the A-sets,
and with them the verdicts and short-circuit points.  What does not: the
batch composition (modes, |H|, |R|, flags) and the graphs -- the parent
sets of each network and the shape of each formula, drawn once from a
fixed structure seed.  The package's elimination cost depends on the graph,
not on the numbers, so fixing the graphs keeps a batch's cost the same from
seed to seed and the run-to-run spread down to what the program and the
machine contribute.  The slot mix is chosen so that the median and the
90th percentile of per-query time fall inside groups of queries of the
same cost class rather than in a gap between two classes.
"""

from __future__ import annotations

import json
import random
import shutil
from contextlib import contextmanager
from pathlib import Path

WORKLOADS = ("sweep20", "big400", "amajsat")

# sweep20: one evidence variable, |H| = 1-2, |R| = 4-10.  Each slot runs on
# every network, half of which have wild CPTs and half damped ones.  Only
# cheap slots may short-circuit; the mid and heavy ones sweep all of
# Omega(R) (quantify, or strong with a table), so their cost does not hinge
# on where the first counterexample falls.
SWEEP20_NETWORKS = 4
SWEEP20_DAMP = 0.04  # the damping tests/netgen.py uses for mostly-true verdicts
SWEEP20_SLOTS = (
    # (mode, |H|, |R| / pool / candidates, extra CLI flags)
    # cheap, may short-circuit: 40% of the batch.  The threaded queries sit
    # here, where their extra sensitivity to the second core's load cannot
    # move p50 or p90.
    ("strong", 1, 4, ("--parallel", "2")),
    ("weak", 2, 10, ("--parallel", "2")),
    ("maximum", 1, 5, ()),
    ("partition", 2, 6, ()),
    # mid, 256 eliminations each: the median falls here
    ("quantify", 2, 6, ()),
    ("quantify", 1, 7, ()),
    ("strong", 1, 7, ("--table-limit", "8")),
    ("strong", 2, 6, ("--table-limit", "8")),
    # heavy, 1024 eliminations each: the 90th percentile falls here
    ("quantify", 1, 9, ()),
    ("strong", 2, 8, ("--table-limit", "8")),
)
SWEEP20_MAXIMUM_K = 2

# big400: 400 binary nodes with at most two parents each, drawn from the
# previous BIG400_WINDOW nodes.  The window bounds the min-fill width (9-12
# on the graphs tried), so no factor outgrows memory.  Parent counts 0/1/2
# come in equal shares.
BIG400_NODES = 400
BIG400_WINDOW = 60
BIG400_NETWORKS = 1  # one network keeps a batch near 3 s, so a run holds about ten
BIG400_EVIDENCE = 3
BIG400_SLOTS = (
    # (mode, |H|, |R|), in thirds of rising cost, so the median falls among
    # the |H| = 2 maps and p90 among the strong queries; strong carries a
    # table, so it sweeps all of Omega(R)
    ("map", 1, 0),
    ("map", 2, 0),
    ("strong", 1, 1),
)
BIG400_TABLE_LIMIT = ("--table-limit", "4")

# amajsat: random formulas over 16-20 variables compiled with an A-set.
AMAJSAT_VARS = (16, 17, 19, 20)    # one formula each
AMAJSAT_EXTRA_OPS = 6              # binary operators beyond the n - 1 a tree needs
# |A| of the two threshold queries per formula: with the strong queries the
# batch is a third cheap, a third |A| = 6 (the median) and a third |A| = 8 (p90)
AMAJSAT_ASETS = (6, 8)
AMAJSAT_STRONG_FOCUS = 3


def _row(rng: random.Random, width: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(width)]
    total = sum(raw)
    return [x / total for x in raw]


def _damped_row(rng: random.Random, base: list[float], damp: float) -> list[float]:
    raw = [max(0.05, b + rng.uniform(-damp, damp)) for b in base]
    total = sum(raw)
    return [x / total for x in raw]


def _network_doc(name: str, parents: list[list[int]], rng: random.Random, damp: float | None) -> dict:
    """Binary network V0..Vn-1 with the given parent lists; rows floored at 0.05."""
    n = len(parents)
    cpts = []
    for i, par in enumerate(parents):
        n_rows = 2 ** len(par)
        if damp is None:
            rows = [_row(rng, 2) for _ in range(n_rows)]
        else:
            base = _row(rng, 2)
            rows = [_damped_row(rng, base, damp) for _ in range(n_rows)]
        cpts.append({"variable": f"V{i}", "parents": [f"V{j}" for j in par], "table": rows})
    return {
        "name": name,
        "variables": [{"name": f"V{i}", "states": ["s0", "s1"]} for i in range(n)],
        "cpts": cpts,
    }


def _parents(rng: random.Random, n: int, max_parents: int, window: int) -> list[list[int]]:
    """Parents among the previous ``window`` nodes; counts 0..max_parents in equal shares."""
    shares = list(range(max_parents + 1)) * (n // (max_parents + 1) + 1)
    shares = shares[:n]
    rng.shuffle(shares)
    out = []
    for i in range(n):
        lo = max(0, i - window)
        k = min(i - lo, shares[i])
        out.append(sorted(rng.sample(range(lo, i), k)))
    return out


def _declared(names: list[str]) -> list[str]:
    return sorted(names, key=lambda v: int(v[1:]))


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _query(qid: str, mode: str, network: Path, doc: dict, workdir: Path, flags=()) -> dict:
    qpath = workdir / f"{qid}.query.json"
    _write(qpath, doc)
    argv = ["query", "--network", str(network), "--query", str(qpath), *flags]
    table_limit = int(flags[flags.index("--table-limit") + 1]) if "--table-limit" in flags else None
    return {"id": qid, "mode": mode, "network": str(network), "query": str(qpath),
            "argv": argv, "table_limit": table_limit}


def _sweep20(shape: random.Random, rng: random.Random, workdir: Path) -> dict:
    queries = []
    for n_idx in range(SWEEP20_NETWORKS):
        damp = None if n_idx % 2 == 0 else SWEEP20_DAMP
        doc = _network_doc(f"sweep20_{n_idx}", _parents(shape, 20, 3, 20), rng, damp)
        net_path = workdir / f"sweep20_{n_idx}.net.json"
        _write(net_path, doc)
        for s_idx, (mode, n_h, n_r, flags) in enumerate(SWEEP20_SLOTS):
            names = [f"V{i}" for i in range(20)]
            rng.shuffle(names)
            e_var, hyp, rest = names[0], _declared(names[1:1 + n_h]), names[1 + n_h:]
            focus = _declared(rest[:n_r])
            query = {"mode": mode, "hypothesis": hyp, "evidence": {e_var: rng.choice(["s0", "s1"])}}
            if mode == "partition":
                query["candidates"] = focus
            else:
                query["focus"] = focus
            if mode == "maximum":
                query["k"] = SWEEP20_MAXIMUM_K
            queries.append(_query(f"n{n_idx}_q{s_idx}_{mode}", mode, net_path, query, workdir, flags))
    return {"setup": [], "queries": queries}


def _big400(shape: random.Random, rng: random.Random, workdir: Path) -> dict:
    queries = []
    for n_idx in range(BIG400_NETWORKS):
        doc = _network_doc(f"big400_{n_idx}", _parents(shape, BIG400_NODES, 2, BIG400_WINDOW), rng, None)
        net_path = workdir / f"big400_{n_idx}.net.json"
        _write(net_path, doc)
        for s_idx, (mode, n_h, n_r) in enumerate(BIG400_SLOTS):
            names = [f"V{i}" for i in range(BIG400_NODES)]
            picked = rng.sample(names, BIG400_EVIDENCE + n_h + n_r)
            e_vars = _declared(picked[:BIG400_EVIDENCE])
            hyp = _declared(picked[BIG400_EVIDENCE:BIG400_EVIDENCE + n_h])
            query = {"mode": mode, "hypothesis": hyp,
                     "evidence": {v: rng.choice(["s0", "s1"]) for v in e_vars}}
            flags = ()
            if mode == "strong":
                query["focus"] = _declared(picked[BIG400_EVIDENCE + n_h:])
                flags = BIG400_TABLE_LIMIT
            queries.append(_query(f"n{n_idx}_q{s_idx}_{mode}", mode, net_path, query, workdir, flags))
    return {"setup": [], "queries": queries}


def random_formula(rng: random.Random, n_vars: int, extra_ops: int) -> list:
    """A formula AST over x0..x{n-1} that uses every variable at least once.

    Nodes are ``["var", name]``, ``["not", a]``, ``["and", a, b]`` and
    ``["or", a, b]``.  Leaves are merged pairwise at random, so the tree has
    n + extra_ops leaves and about a quarter of its nodes negated.
    """
    leaves = [f"x{i}" for i in range(n_vars)]
    leaves += [rng.choice(leaves) for _ in range(extra_ops)]
    rng.shuffle(leaves)
    pool: list = [["var", v] for v in leaves]
    while len(pool) > 1:
        a = pool.pop(rng.randrange(len(pool)))
        b = pool.pop(rng.randrange(len(pool)))
        node = [rng.choice(["and", "or"]), a, b]
        if rng.random() < 0.25:
            node = ["not", node]
        pool.append(node)
    return pool[0]


def format_formula(ast: list) -> str:
    """Fully parenthesised text in the CLI's formula grammar."""
    kind = ast[0]
    if kind == "var":
        return ast[1]
    if kind == "not":
        return "!(" + format_formula(ast[1]) + ")"
    op = "&" if kind == "and" else "|"
    return "(" + format_formula(ast[1]) + " " + op + " " + format_formula(ast[2]) + ")"


def formula_variables(ast: list) -> list[str]:
    """Variables in order of first occurrence, which is the compiled network's declaration order."""
    seen: dict[str, None] = {}
    stack = [ast]
    while stack:
        node = stack.pop()
        if node[0] == "var":
            seen.setdefault(node[1], None)
        else:
            stack.extend(reversed(node[1:]))
    return list(seen)


def relabel(ast: list, rng: random.Random) -> list:
    """The same tree with every and/or drawn afresh; the compiled graph does not change."""
    kind = ast[0]
    if kind == "var":
        return ast
    if kind == "not":
        return ["not", relabel(ast[1], rng)]
    return [rng.choice(["and", "or"]), relabel(ast[1], rng), relabel(ast[2], rng)]


def _amajsat(shape: random.Random, rng: random.Random, workdir: Path) -> dict:
    setup = []
    queries = []
    for f_idx, n_vars in enumerate(AMAJSAT_VARS):
        ast = relabel(random_formula(shape, n_vars, AMAJSAT_EXTRA_OPS), rng)
        text = format_formula(ast)
        variables = formula_variables(ast)
        nets = []
        for a_idx, a_size in enumerate(AMAJSAT_ASETS):
            chosen = set(rng.sample(variables, a_size))
            a_set = [v for v in variables if v in chosen]
            net_path = workdir / f"f{f_idx}_a{a_idx}.net.json"
            q_path = workdir / f"f{f_idx}_a{a_idx}.query.json"
            setup.append(["compile", "--formula", text, "--aset", ",".join(a_set),
                          "--out", str(net_path), "--emit-query", str(q_path)])
            nets.append(net_path)
            queries.append({
                "id": f"f{f_idx}_a{a_idx}_threshold", "mode": "threshold",
                "network": str(net_path), "query": str(q_path),
                "argv": ["query", "--network", str(net_path), "--query", str(q_path)],
                "table_limit": None, "formula": ast, "a_set": a_set,
            })
        # The strong query's hypothesis is the compiled top node, whose name
        # only the compiler knows; write_strong_queries fills it in after the
        # first set-up has run.
        chosen = set(rng.sample(variables, AMAJSAT_STRONG_FOCUS))
        focus = [v for v in variables if v in chosen]
        q_path = workdir / f"f{f_idx}_strong.query.json"
        queries.append({
            "id": f"f{f_idx}_strong", "mode": "strong",
            "network": str(nets[0]), "query": str(q_path),
            "argv": ["query", "--network", str(nets[0]), "--query", str(q_path)],
            "table_limit": None, "formula": ast, "focus": focus,
            "hypothesis_from": str(workdir / f"f{f_idx}_a0.query.json"),
        })
    return {"setup": setup, "queries": queries}


@contextmanager
def work_directory(root: Path, name: str):
    """A fresh ``.perfbench_work/<name>`` under ``root``; removed afterwards, with
    ``.perfbench_work`` itself once no other run uses it."""
    workdir = root / ".perfbench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's documents into ``workdir`` and return its plan."""
    shape = random.Random(f"{workload}:structure")
    rng = random.Random(f"{workload}:{seed}")
    make = {"sweep20": _sweep20, "big400": _big400, "amajsat": _amajsat}[workload]
    plan = make(shape, rng, workdir)
    plan.update(workload=workload, seed=seed)
    return plan


def write_strong_queries(plan: dict) -> None:
    """Write the amajsat strong queries, taking H from the compiler's emitted query."""
    for q in plan["queries"]:
        if "hypothesis_from" in q:
            emitted = json.loads(Path(q["hypothesis_from"]).read_text(encoding="utf-8"))
            _write(Path(q["query"]), {"mode": "strong", "hypothesis": emitted["hypothesis"],
                                      "evidence": {}, "focus": q["focus"]})
