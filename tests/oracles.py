"""Independent brute-force oracles the package's answers are checked against.

These reimplement the definitions from scratch -- chain-rule products over
explicit state tuples, full-joint enumeration, truth tables -- and share no
code with the factor engine or the sweep machinery they are used to verify.
"""

from __future__ import annotations

from itertools import product

from mapindep.compiler import FormulaAst, evaluate, formula_variables
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
