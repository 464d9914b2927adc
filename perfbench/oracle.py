"""Reference answers that share no code with the package under test.

Three references, one per workload:

* ``joint_table`` multiplies every CPT of a small network into its full
  joint distribution with numpy broadcasting (2^20 entries for sweep20)
  and sums it down to the axes a query needs.
* ``eliminate`` is a separate, deliberately plain bucket elimination for
  the 400-node networks: it drops barren nodes, orders the rest by minimum
  degree and multiplies each bucket with ``np.einsum``.  It is independent
  of the package's min-fill elimination, so big400 answers are checked
  against it rather than against pinned output.
* ``truth_counts`` evaluates a formula on every assignment with numpy
  boolean arrays and counts models per A-assignment, which gives the
  A-MAJSAT threshold verdict and ``min_joint`` exactly.

The deciders below re-derive each report's result dictionary from a table
Pr(H, R, e): the same canonical orders, first-maximiser tie-break, absolute
tie tolerance and short-circuit points as the package documents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

TIE_TOL = 1e-9
TIE_WARNING = "tie-ambiguous"


# ---------------------------------------------------------------------------
# network documents


class Net:
    """A network document with its CPTs as numpy arrays (parents..., child)."""

    def __init__(self, doc: dict):
        self.names = [v["name"] for v in doc["variables"]]
        self.states = {v["name"]: list(v["states"]) for v in doc["variables"]}
        self.index = {n: i for i, n in enumerate(self.names)}
        self.factors = []
        for c in doc["cpts"]:
            scope = [*c["parents"], c["variable"]]
            shape = [len(self.states[v]) for v in scope]
            self.factors.append((scope, np.asarray(c["table"], dtype=float).reshape(shape)))
        self.parents = {c["variable"]: list(c["parents"]) for c in doc["cpts"]}

    def card(self, var: str) -> int:
        return len(self.states[var])

    def canonical(self, names) -> list[str]:
        return sorted(names, key=self.index.__getitem__)


def joint_table(net: Net) -> np.ndarray:
    """The full joint Pr(V0, ..., Vn-1) as an n-dimensional array."""
    n = len(net.names)
    joint = np.ones([1] * n)
    for scope, values in net.factors:
        axes = [net.index[v] for v in scope]
        order = np.argsort(axes)
        shape = [1] * n
        for v in scope:
            shape[net.index[v]] = net.card(v)
        joint = joint * values.transpose(order).reshape(shape)
    return joint


def joint_marginal(net: Net, joint: np.ndarray, keep: list[str], evidence: dict) -> np.ndarray:
    """Pr(keep, evidence) from the full joint, axes in the order of ``keep``."""
    index = [slice(None)] * len(net.names)
    for var, state in evidence.items():
        index[net.index[var]] = slice(net.states[var].index(state), net.states[var].index(state) + 1)
    table = joint[tuple(index)]
    drop = tuple(i for i, n in enumerate(net.names) if n not in keep)
    table = table.sum(axis=drop)
    remaining = [n for n in net.names if n in keep]
    return table.transpose([remaining.index(v) for v in keep])


def eliminate(net: Net, keep: list[str], evidence: dict) -> np.ndarray:
    """Pr(keep, evidence) by bucket elimination, axes in the order of ``keep``."""
    wanted = set(keep) | set(evidence)
    relevant: set[str] = set()
    stack = list(wanted)
    while stack:  # ancestors of the query; every other node sums to one
        v = stack.pop()
        if v not in relevant:
            relevant.add(v)
            stack.extend(net.parents[v])

    factors = []
    for scope, values in net.factors:
        if scope[-1] not in relevant:
            continue
        index = tuple(
            net.states[v].index(evidence[v]) if v in evidence else slice(None) for v in scope
        )
        factors.append(([v for v in scope if v not in evidence], values[index]))

    hidden = relevant - set(keep) - set(evidence)
    adjacency: dict[str, set[str]] = {v: set() for v in hidden}
    for scope, _ in factors:
        for a in scope:
            if a in hidden:
                adjacency[a].update(b for b in scope if b != a)
    while adjacency:
        var = min(adjacency, key=lambda v: (len(adjacency[v]), net.index[v]))
        neighbours = adjacency.pop(var)
        for a in neighbours:
            if a in adjacency:
                adjacency[a].discard(var)
                adjacency[a].update(b for b in neighbours if b != a)
        bucket = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        scope = sorted({v for s, _ in bucket for v in s if v != var}, key=net.index.__getitem__)
        factors.append((scope, _einsum(bucket, scope)))
    return _einsum(factors, list(keep))


def _einsum(factors, out_scope: list[str]) -> np.ndarray:
    labels: dict[str, int] = {}
    operands = []
    for scope, values in factors:
        operands += [values, [labels.setdefault(v, len(labels)) for v in scope]]
    for v in out_scope:
        labels.setdefault(v, len(labels))
    if not operands:
        return np.ones([])
    return np.einsum(*operands, [labels[v] for v in out_scope])


def truth_counts(ast: list, variables: list[str], a_set: list[str]) -> np.ndarray:
    """Satisfying assignments of the formula per assignment to ``a_set``.

    ``variables`` fixes the axis order; the result has one axis per A
    variable in that order, index 0 meaning true (the compiler's state T).
    """
    n = len(variables)
    axes = {v: i for i, v in enumerate(variables)}

    def value(node):
        kind = node[0]
        if kind == "var":
            shape = [1] * n
            shape[axes[node[1]]] = 2
            return np.array([True, False]).reshape(shape)
        if kind == "not":
            return ~value(node[1])
        left, right = value(node[1]), value(node[2])
        return (left & right) if kind == "and" else (left | right)

    models = np.broadcast_to(value(ast), [2] * n)
    drop = tuple(i for i, v in enumerate(variables) if v not in a_set)
    return models.sum(axis=drop, dtype=np.int64)


# ---------------------------------------------------------------------------
# assignments in canonical row-major order (last variable fastest)


def _assignment(net: Net, names: list[str], rank: int) -> dict:
    out = {}
    for name in reversed(names):
        rank, idx = divmod(rank, net.card(name))
        out[name] = net.states[name][idx]
    return {name: out[name] for name in names}


def _first_argmax(values) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def _map_of(joints) -> tuple[int, bool]:
    best = _first_argmax(joints)
    tie = any(i != best and joints[best] - p <= TIE_TOL for i, p in enumerate(joints))
    return best, tie


# ---------------------------------------------------------------------------
# deciders over a table Pr(H, R, e) with axes H... then R...


def _fold(net: Net, table: np.ndarray, hyp: list[str], focus: list[str], h_star: int,
          stop_early: bool, table_limit):
    """The package's per-rank fold over Omega(focus), computed from Pr(H, focus, e)."""
    n_h = int(np.prod([net.card(v) for v in hyp]))
    fold = {"verdict": True, "counterexample": None, "ties": False, "skipped": [], "rows": [],
            "unchanged": 0, "mass": 0.0, "hamming": 0}
    for rank, joints in enumerate(table.reshape(n_h, -1).T):  # one row of |Omega(H)| joints per r
        r = _assignment(net, focus, rank)
        total = float(sum(joints))
        if total == 0.0:
            fold["skipped"].append(r)
            fold["unchanged"] += 1
            continue
        best, tie = _map_of(list(joints))
        fold["ties"] = fold["ties"] or tie
        changed = best != h_star
        if changed and fold["counterexample"] is None:
            fold["counterexample"] = r
            fold["verdict"] = False
        if changed:
            a, b = _assignment(net, hyp, best), _assignment(net, hyp, h_star)
            fold["hamming"] += sum(1 for v in hyp if a[v] != b[v])
        else:
            fold["unchanged"] += 1
            fold["mass"] += total
        if table_limit is not None and len(fold["rows"]) < table_limit:
            fold["rows"].append({"assignment": r, "map": _assignment(net, hyp, best),
                                 "h_star_joint": float(joints[h_star])})
        if stop_early and changed:
            break
    return fold


def _report(mode, verdict, witness, counterexample, ties, skipped, extra=None) -> dict:
    out = {"mode": mode, "verdict": verdict, "witness": witness, "counterexample": counterexample}
    out.update(extra or {})
    out.update({"ties_encountered": ties, "warning": TIE_WARNING if ties else None,
                "skipped": skipped})
    return out


def expected_result(net: Net, joint_fn, query: dict, table_limit=None) -> dict:
    """The report's ``result`` object for a query document.

    ``joint_fn(keep)`` returns Pr(keep, e) with axes in the order of ``keep``.
    """
    mode = query["mode"]
    hyp = net.canonical(query["hypothesis"])
    joints = [float(p) for p in joint_fn(hyp).reshape(-1)]  # Pr(h, e): the reference MAP's table
    h_star, ref_tie = _map_of(joints)
    p_e = sum(joints)
    witness = _assignment(net, hyp, h_star)

    def fold(focus, stop_early, table_limit):
        return _fold(net, joint_fn(hyp + focus), hyp, focus, h_star, stop_early, table_limit)

    if mode == "map":
        runner_up = max(p for i, p in enumerate(joints) if i != h_star)
        return {"mode": "map", "assignment": witness, "joint_probability": joints[h_star],
                "posterior": joints[h_star] / p_e, "tie": ref_tie,
                "runner_up_gap": joints[h_star] - runner_up}

    if mode in ("strong", "quantify"):
        focus = net.canonical(query["focus"])
        with_metrics = mode == "quantify"
        stop_early = not with_metrics and table_limit is None
        swept = fold(focus, stop_early, table_limit)
        total = int(np.prod([net.card(v) for v in focus]))
        ties = ref_tie or swept["ties"]
        out = _report(mode, swept["verdict"], witness, swept["counterexample"], ties, swept["skipped"])
        if with_metrics:
            out["metrics"] = {"mass": swept["mass"] / p_e, "proportion": swept["unchanged"] / total,
                              "mean_hamming": swept["hamming"] / total, "hamming_weighting": "uniform"}
        if table_limit is not None:
            out["per_assignment"] = swept["rows"]
        return out

    if mode == "weak":
        focus = net.canonical(query["focus"])
        verdict, counterexample, ties = True, None, ref_tie
        skipped, rows = [], []
        stop_early = table_limit is None
        for var in focus:
            swept = fold([var], stop_early, table_limit)
            ties = ties or swept["ties"]
            skipped += swept["skipped"]
            if table_limit is not None:
                rows += swept["rows"][: max(0, table_limit - len(rows))]
            if not swept["verdict"]:
                if verdict:
                    counterexample = swept["counterexample"]
                verdict = False
                if table_limit is None:
                    break
        out = _report("weak", verdict, witness, counterexample, ties, skipped)
        if table_limit is not None:
            out["per_assignment"] = rows
        return out

    if mode == "maximum":
        pool = net.canonical(query["focus"])
        k = query["k"]
        ties = ref_tie
        failing: list[frozenset] = []

        def independent(subset) -> bool:
            nonlocal ties
            swept = fold(list(subset), True, None)
            ties = ties or swept["ties"]
            if not swept["verdict"]:
                failing.append(frozenset(subset))
            return swept["verdict"]

        def pruned(subset) -> bool:
            return any(f <= set(subset) for f in failing)

        best = None
        for subset in combinations(pool, k):
            if not ties and pruned(subset):
                continue
            if independent(subset):
                best = list(subset)
                break
        if best is not None and not ties:
            for var in pool:
                if ties:
                    break
                if var in best:
                    continue
                extended = net.canonical([*best, var])
                if pruned(extended):
                    continue
                if independent(extended):
                    best = extended
        return _report("maximum", best is not None, witness, None, ties, [], {"subset": best})

    if mode == "partition":
        relevant, irrelevant, justification = [], [], {}
        for var in net.canonical(query["candidates"]):
            swept = fold([var], True, None)
            justification[var] = {"map_independent": swept["verdict"],
                                  "counterexample": swept["counterexample"]}
            (irrelevant if swept["verdict"] else relevant).append(var)
        return {"mode": "partition", "relevant": relevant, "irrelevant": irrelevant,
                "justification": justification}

    raise ValueError(f"no reference for mode {mode!r}")


def expected_threshold(variables: list[str], ast: list, a_set: list[str], phi: str) -> dict:
    """The A-MAJSAT threshold result: exact verdict, counterexample and min_joint."""
    counts = truth_counts(ast, variables, a_set).reshape(-1)
    n = len(variables)
    s = Fraction(1, 2 ** (len(a_set) + 1))
    verdict, counterexample = True, None
    for rank, c in enumerate(counts):
        if not Fraction(int(c), 2 ** n) > s:
            verdict = False
            counterexample = {v: ("F" if (rank >> (len(a_set) - 1 - i)) & 1 else "T")
                              for i, v in enumerate(a_set)}
            break
    return {"mode": "threshold", "verdict": verdict, "witness": {phi: "T"},
            "counterexample": counterexample, "min_joint": float(Fraction(int(counts.min()), 2 ** n)),
            "ties_encountered": False, "warning": None, "skipped": []}


def formula_joint_fn(variables: list[str], ast: list, phi: str):
    """``joint_fn`` for a compiled formula network, over the top node and formula variables.

    Pr(phi = T, r) = #models(r) / 2^n exactly; Pr(phi = F, r) is the rest of
    the 2^(n - |r|) completions.
    """
    n = len(variables)

    def joint_fn(keep):
        focus = [v for v in keep if v != phi]
        true = truth_counts(ast, variables, focus).astype(float)
        total = float(2 ** (n - len(focus)))
        table = np.stack([true, total - true]) / 2 ** n
        order = [phi] + sorted(focus, key=variables.index)
        return table.transpose([order.index(v) for v in keep])

    return joint_fn


# ---------------------------------------------------------------------------
# comparison


def mismatches(expected, actual, path: str = "result", rel: float = 1e-9, abs_tol: float = 1e-16) -> list[str]:
    """Differences between an expected and an actual result; keys only in ``actual`` are ignored.

    Floats match within ``rel`` of the larger magnitude plus ``abs_tol``,
    which covers differences of nearly equal joints such as
    ``runner_up_gap``; pass zeros for exact comparison.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += mismatches(value, actual[key], f"{path}.{key}", rel, abs_tol)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {expected!r}, got {actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]", rel, abs_tol)]
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if abs(expected - actual) <= rel * max(abs(expected), abs(actual)) + abs_tol:
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []
