"""Independent brute-force oracles the package's answers are checked against.

These reimplement the definitions from scratch -- chain-rule products over
explicit state tuples, full-joint enumeration, truth tables -- and share no
code with the factor engine or the sweep machinery they are used to verify.
"""

from __future__ import annotations

import builtins
import math
from itertools import product

import numpy as np

from mapindep.compiler import And, FormulaAst, Not, Var, evaluate, formula_variables
from mapindep.model import Network


def _state_lists(net: Network, names: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [net.variable(n).states for n in names]


def chain_product(net: Network, full: dict[str, str]) -> float:
    """Pr(full) as the plain product of CPT entries, computed independently."""
    result = 1.0
    for v in net.variables:
        cpt = net.cpt(v.name)
        row = 0
        for p in cpt.parents:
            row = row * len(net.variable(p).states) + net.variable(p).states.index(full[p])
        result *= cpt.rows[row][v.states.index(full[v.name])]
    return result


def brute_marginal(net: Network, partial: dict[str, str]) -> float:
    """Pr(partial) by filtering the full joint enumeration."""
    names = net.names
    total = 0.0
    for states in product(*_state_lists(net, names)):
        full = dict(zip(names, states))
        if all(full[k] == v for k, v in partial.items()):
            total += chain_product(net, full)
    return total


def _first_argmax(values: list[float]) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def brute_columns(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: dict[str, str],
    focus: tuple[str, ...],
) -> tuple[dict[str, str], list[tuple[dict[str, str], float, dict[str, str], float]]]:
    """The reference explanation h* and one record per focus assignment r.

    One pass over the full joint fills the buckets Pr(h, r, e) by (r, h);
    h* is the first argmax of the r-marginalized buckets.  Records come in
    canonical order of r: (r, Pr(r, e), the first argmax h of Pr(h, r, e),
    Pr(h*, r, e)).
    """
    h_tuples = list(product(*_state_lists(net, hypothesis)))
    r_tuples = list(product(*_state_lists(net, focus)))
    h_index = {h: i for i, h in enumerate(h_tuples)}
    r_index = {r: i for i, r in enumerate(r_tuples)}
    buckets = [[0.0] * len(h_tuples) for _ in r_tuples]
    reference = [0.0] * len(h_tuples)

    names = net.names
    for states in product(*_state_lists(net, names)):
        full = dict(zip(names, states))
        if any(full[k] != v for k, v in evidence.items()):
            continue
        p = chain_product(net, full)
        hi = h_index[tuple(full[v] for v in hypothesis)]
        ri = r_index[tuple(full[v] for v in focus)]
        buckets[ri][hi] += p
        reference[hi] += p

    ref_idx = _first_argmax(reference)
    records = [
        (dict(zip(focus, r)), sum(joints), dict(zip(hypothesis, h_tuples[_first_argmax(joints)])), joints[ref_idx])
        for r, joints in zip(r_tuples, buckets)
    ]
    return dict(zip(hypothesis, h_tuples[ref_idx])), records


def brute_strong(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: dict[str, str],
    focus: tuple[str, ...],
) -> tuple[bool, dict[str, str] | None]:
    """The strong MAP-independence definition, decided by full enumeration.

    Returns the verdict and the first (canonical-order) counterexample.
    Zero-probability focus assignments are skipped, matching the package's
    reading of the universal quantifier.
    """
    h_star, records = brute_columns(net, hypothesis, evidence, focus)
    for r, total, best, _ in records:
        if total != 0.0 and best != h_star:
            return False, r
    return True, None


def brute_weak(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: dict[str, str],
    focus: tuple[str, ...],
) -> tuple[bool, dict[str, str] | None]:
    """Weak MAP-independence: the strong definition for each focus variable on
    its own, in the order given.  Returns the verdict and the first
    counterexample of the first variable that has one."""
    for var in focus:
        verdict, counterexample = brute_strong(net, hypothesis, evidence, (var,))
        if not verdict:
            return False, counterexample
    return True, None


def brute_quantify(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: dict[str, str],
    focus: tuple[str, ...],
) -> tuple[float, float, float]:
    """Quantified MAP-independence by full enumeration: (mass, proportion, mean Hamming).

    ``mass`` is the total Pr(r | e) of the assignments r whose MAP equals
    h*; ``proportion`` counts those, plus the zero-probability ones that
    cannot move it, against |Omega(R)|; ``mean_hamming`` sums, over every
    r whose MAP differs, the number of hypothesis variables that differ,
    divided by |Omega(R)|.
    """
    h_star, records = brute_columns(net, hypothesis, evidence, focus)
    p_e = sum(total for _, total, _, _ in records)
    mass = 0.0
    unchanged = 0
    flips = 0
    for _, total, best, _ in records:
        if total == 0.0 or best == h_star:
            unchanged += 1
            mass += total
        else:
            flips += sum(1 for v in hypothesis if best[v] != h_star[v])
    return mass / p_e, unchanged / len(records), flips / len(records)


def brute_amajsat(ast: FormulaAst, a_vars: tuple[str, ...]) -> bool:
    """Does every assignment to A leave a strict majority of M-assignments satisfying?"""
    names = formula_variables(ast)
    m_vars = tuple(n for n in names if n not in a_vars)
    half = 2 ** len(m_vars)
    for a_values in product((False, True), repeat=len(a_vars)):
        env = dict(zip(a_vars, a_values))
        satisfying = 0
        for m_values in product((False, True), repeat=len(m_vars)):
            env.update(zip(m_vars, m_values))
            if evaluate(ast, env):
                satisfying += 1
        if not 2 * satisfying > half:
            return False
    return True


def truth_table_count(ast: FormulaAst) -> int:
    """The formula's satisfying assignments, counted on its whole truth table
    at once: one numpy boolean per row, valued by recursion over the AST."""
    names = formula_variables(ast)
    rows = np.arange(2 ** len(names))
    columns = {v: (rows >> i & 1).astype(bool) for i, v in enumerate(names)}

    def value(node):
        if isinstance(node, Var):
            return columns[node.name]
        if isinstance(node, Not):
            return ~value(node.operand)
        left, right = value(node.left), value(node.right)
        return left & right if isinstance(node, And) else left | right

    return int(np.count_nonzero(value(ast)))


def brute_min_fill_order(adjacency: dict[str, set[str]], priority: dict[str, int]) -> tuple[list[str], int]:
    """Greedy min-fill order recounting the fill of every remaining node at each step.

    The smallest key ``(fill, priority)`` is eliminated first; equal keys go
    to the node first in ``adjacency`` order.  Returns the order and its width.
    """
    adj = {v: set(ns) for v, ns in adjacency.items()}
    order: list[str] = []
    width = 0
    while adj:
        best = None
        best_key = None
        for v, ns in adj.items():
            neighbors = list(ns)
            fill = 0
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    if neighbors[j] not in adj[neighbors[i]]:
                        fill += 1
            key = (fill, priority[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        ns = adj.pop(best)
        width = max(width, len(ns))
        for a in ns:
            adj[a].discard(best)
            for b in ns:
                if a != b:
                    adj[a].add(b)
        order.append(best)
    return order, width


def last_cpt_parents(net: Network) -> dict[str, set[str]]:
    """Each declared name's declared parents; the last CPT of a child counts."""
    declared = set(net.names)
    parents: dict[str, set[str]] = {name: set() for name in net.names}
    for cpt in net.cpts:
        if cpt.child in declared:
            parents[cpt.child] = {p for p in cpt.parents if p in declared}
    return parents


def peel_acyclic(net: Network) -> bool:
    """Whether the parent graph is acyclic: peel off parentless nodes until none is left.

    The graph has one node per declared name and the edges of each child's
    last CPT whose parent is declared.
    """
    parents = last_cpt_parents(net)
    while True:
        roots = {name for name, ps in parents.items() if not ps}
        if not roots:
            return not parents
        for name in roots:
            del parents[name]
        for ps in parents.values():
            ps -= roots


def brute_d_separated(net: Network, x: set[str], y: set[str], z: set[str]) -> bool:
    """Whether no simple undirected path from a node of ``x`` to one of ``y`` is active given ``z``.

    A path is active when each node inside it that is not a collider is
    outside ``z``, and each collider (both of its path edges point into it)
    is in ``z`` or has a descendant in ``z``.  The edges are those of each
    child's last CPT.  A path is not extended past a node that blocks it,
    nor past a node of ``y``: every extension would hold the same block, or
    the active path to that node.
    """
    parents = last_cpt_parents(net)
    children: dict[str, set[str]] = {name: set() for name in parents}
    for child, ps in parents.items():
        for p in ps:
            children[p].add(child)

    def descendants(name: str) -> set[str]:
        found, frontier = {name}, [name]
        while frontier:
            for c in children[frontier.pop()] - found:
                found.add(c)
                frontier.append(c)
        return found

    def blocks(prev: str, node: str, nxt: str) -> bool:
        if prev in parents[node] and nxt in parents[node]:
            return descendants(node).isdisjoint(z)
        return node in z

    def active_path_from(path: list[str]) -> bool:
        if path[-1] in y:
            return True
        for nxt in (parents[path[-1]] | children[path[-1]]) - set(path):
            if len(path) >= 2 and blocks(path[-2], path[-1], nxt):
                continue
            if active_path_from([*path, nxt]):
                return True
        return False

    return not any(active_path_from([start]) for start in x)


def compensated_sum(values, start=0):
    # The builtin sum of Python 3.12+: exact on ints, compensated on floats.
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    return math.fsum([start, *values])
