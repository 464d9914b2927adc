"""Seeded random networks, queries and formulas shared across the test suite.

Everything takes an explicit random.Random so test cases are reproducible.
CPT rows are sampled from a floor of 0.05 and normalized, which keeps every
full assignment strictly positive (no accidental zero-probability evidence)
and makes exact argmax ties practically impossible.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np

from mapindep.compiler import And, FormulaAst, Not, Or, Var
from mapindep.model import ROW_SUM_TOL, Cpt, Network, QueryPartition, Variable


def _normalized_row(rng: random.Random, width: int) -> tuple[float, ...]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(width)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _damped_row(rng: random.Random, base: list[float], damp: float) -> tuple[float, ...]:
    raw = [max(0.05, b + rng.uniform(-damp, damp)) for b in base]
    total = sum(raw)
    return tuple(x / total for x in raw)


def random_network(
    rng: random.Random,
    n_vars: int,
    max_parents: int = 3,
    max_states: int = 2,
    damp: float | None = None,
    name: str = "random",
) -> Network:
    """A random DAG over V0..V{n-1}; parents only point backwards.

    With ``damp`` set, each CPT's rows are small perturbations of a shared
    base row, which makes the child nearly independent of its parents and
    MAP-independence verdicts mostly true -- useful for properties that are
    vacuous on wild networks.
    """
    variables = []
    cpts = []
    for i in range(n_vars):
        card = 2 if max_states <= 2 else rng.randint(2, max_states)
        states = tuple(f"s{j}" for j in range(card))
        variables.append(Variable(f"V{i}", states))
    for i, v in enumerate(variables):
        k = rng.randint(0, min(i, max_parents))
        parent_idx = sorted(rng.sample(range(i), k))
        parents = tuple(variables[j].name for j in parent_idx)
        n_rows = 1
        for j in parent_idx:
            n_rows *= variables[j].cardinality
        if damp is None:
            rows = tuple(_normalized_row(rng, v.cardinality) for _ in range(n_rows))
        else:
            base = list(_normalized_row(rng, v.cardinality))
            rows = tuple(_damped_row(rng, base, damp) for _ in range(n_rows))
        cpts.append(Cpt(v.name, parents, rows))
    return Network(name, tuple(variables), tuple(cpts))


def random_binary_network(rng: random.Random, n_vars: int, max_parents: int = 3,
                          damp: float | None = None, name: str = "random") -> Network:
    return random_network(rng, n_vars, max_parents=max_parents, max_states=2, damp=damp, name=name)


# Faults for corrupted_network.  Each edits a network held as mutable lists
# (variables [name, states], CPTs [child, parents, rows]) in place.

def _some_cpt(rng, cpts, has=lambda c: True):
    candidates = [c for c in cpts if has(c)]
    return rng.choice(candidates) if candidates else None


def _copy(cpt):
    return [cpt[0], list(cpt[1]), [list(r) for r in cpt[2]]]


def _duplicate_variable(rng, variables, cpts):
    # Half the time its CPT is declared twice too, so every count still matches.
    name, states = rng.choice(variables)
    variables.insert(rng.randint(0, len(variables)), [name, list(states)])
    c = _some_cpt(rng, cpts, lambda c: c[0] == name)
    if c is not None and rng.random() < 0.5:
        cpts.insert(rng.randint(0, len(cpts)), _copy(c))


def _too_few_states(rng, variables, cpts):
    # Prefer a variable no CPT names as a parent, so that its own table is the only
    # other thing the change touches.
    named = {p for c in cpts for p in c[1]}
    v = rng.choice([v for v in variables if v[0] not in named] or variables)
    v[1] = v[1][:rng.randint(0, 1)]
    for c in cpts:
        if c[0] == v[0]:
            c[2] = [[1.0] * len(v[1]) for _ in c[2]]


def _duplicate_state(rng, variables, cpts):
    v = rng.choice(variables)
    if len(v[1]) >= 2:
        v[1][-1] = v[1][0]
    elif v[1]:
        v[1].append(v[1][0])


def _unknown_child(rng, variables, cpts):
    cpts.insert(rng.randint(0, len(cpts)), ["Z", [], [[0.5, 0.5]]])


def _duplicate_cpt(rng, variables, cpts):
    cpts.insert(rng.randint(0, len(cpts)), _copy(rng.choice(cpts)))


def _missing_cpt(rng, variables, cpts):
    cpts.pop(rng.randrange(len(cpts)))


def _dangling_parent(rng, variables, cpts):
    c = rng.choice(cpts)
    c[1].insert(rng.randint(0, len(c[1])), "Z")


def _add_parent(c, parent, card):
    # The new parent goes last, so it varies fastest: each row repeats ``card`` times.
    c[1].append(parent)
    c[2] = [list(r) for r in c[2] for _ in range(card)]


def _duplicate_parent(rng, variables, cpts):
    c = _some_cpt(rng, cpts, lambda c: c[1])
    if c is not None:
        p = rng.choice(c[1])
        _add_parent(c, p, next((len(s) for n, s in variables if n == p), 2) if rng.random() < 0.5 else 1)


def _row_count(rng, variables, cpts):
    c = rng.choice(cpts)
    if c[2] and rng.random() < 0.5:
        c[2].pop(rng.randrange(len(c[2])))
    else:
        c[2].append(list(rng.choice(c[2])) if c[2] else [1.0, 0.0])


def _ragged_row(rng, variables, cpts):
    c = _some_cpt(rng, cpts, lambda c: c[2])
    if c is not None:
        row = rng.choice(c[2])
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(0.0)


_EDGE_ENTRIES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -5e-324, 1.0 + 2.0**-52, 1.5, -0.5)


def _odd_entry(rng, variables, cpts):
    c = _some_cpt(rng, cpts, lambda c: any(c[2]))
    if c is not None:
        row = rng.choice([r for r in c[2] if r])
        row[rng.randrange(len(row))] = rng.choice(_EDGE_ENTRIES)


def _float_pair_row(rng, cpts):
    # A row of two or more floats, or None.
    def fits(r):
        return len(r) >= 2 and all(type(x) is float for x in r)

    c = _some_cpt(rng, cpts, lambda c: any(map(fits, c[2])))
    return None if c is None else rng.choice([r for r in c[2] if fits(r)])


def _moved_mass(rng, variables, cpts):
    # An entry leaves [0, 1] while its row still sums to 1 within the tolerance: one
    # goes negative and another takes up its mass, or a one-hot row peaks an ulp above 1.
    row = _float_pair_row(rng, cpts)
    if row is not None:
        i, j = rng.sample(range(len(row)), 2)
        if rng.random() < 0.25:
            row[:] = [0.0] * len(row)
            row[i] = math.nextafter(1.0, 2.0)
        else:
            d = rng.choice((0.5, 2.0**-60, 5e-324))
            row[i], row[j] = row[i] + row[j] + d, -d


def _row_sum_edge(rng, variables, cpts):
    # Sum to the double nearest 1 +- ROW_SUM_TOL (or 1, or twice the tolerance), give or
    # take an ulp or two.
    row = _float_pair_row(rng, cpts)
    if row is not None:
        target = 1.0 + rng.choice((ROW_SUM_TOL, -ROW_SUM_TOL, 0.0, 2 * ROW_SUM_TOL))
        toward = rng.choice((math.inf, -math.inf))
        for _ in range(rng.randint(0, 2)):
            target = math.nextafter(target, toward)
        row[-1] = target - sum(row[:-1])


def _cycle(rng, variables, cpts):
    # Make a parent (or the child itself) depend on the child.
    c = rng.choice(cpts)
    cards = {n: len(s) for n, s in variables}
    if c[0] not in cards:
        return
    target = _some_cpt(rng, cpts, lambda t: t[0] in c[1] or t is c) if c[1] else c
    if target is not None:
        _add_parent(target, c[0], cards[c[0]])


def _shuffle_variables(rng, variables, cpts):
    rng.shuffle(variables)  # children may now be declared before their parents


def _shuffle_cpts(rng, variables, cpts):
    rng.shuffle(cpts)


_ENTRY_TYPES = (int, bool, Fraction, Decimal, str, np.float64, complex, lambda x: None)


def _non_float_entries(rng, variables, cpts):
    # int and bool rows are one-hot, so they still sum to 1; other types convert floats.
    c = _some_cpt(rng, cpts, lambda c: c[2])
    if c is not None:
        kind = rng.choice(_ENTRY_TYPES)
        for row in rng.sample(c[2], rng.randint(1, len(c[2]))):
            if kind in (int, bool):
                hot = rng.randrange(len(row)) if row else 0
                row[:] = [kind(i == hot) for i in range(len(row))]
            else:
                row[:] = [kind(x) if type(x) is float and math.isfinite(x) else x for x in row]


FAULTS = (
    _duplicate_variable, _too_few_states, _duplicate_state, _unknown_child, _duplicate_cpt,
    _missing_cpt, _dangling_parent, _duplicate_parent, _row_count, _ragged_row, _odd_entry,
    _moved_mass, _row_sum_edge, _cycle, _shuffle_variables, _shuffle_cpts, _non_float_entries,
)


def corrupted_network(rng: random.Random) -> Network:
    """A random network of 1-8 variables with up to three faults from ``FAULTS``.

    Faults cover every validation code, NaN, infinite and signed-zero
    entries, row sums at the tolerance edge, ragged rows, children declared
    before their parents, cycles, and entries that are not floats.  Some
    faults (shuffles, -0.0, sums inside the tolerance) leave the network
    valid, and a fifth of the networks get no fault at all.
    """
    net = random_network(rng, rng.randint(1, 8), max_states=3)
    variables = [[v.name, list(v.states)] for v in net.variables]
    cpts = [_copy([c.child, c.parents, c.rows]) for c in net.cpts]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        if variables and cpts:
            rng.choice(FAULTS)(rng, variables, cpts)
    return Network(
        net.name,
        tuple(Variable(name, tuple(states)) for name, states in variables),
        tuple(Cpt(child, tuple(parents), tuple(map(tuple, rows))) for child, parents, rows in cpts),
    )


def random_assignment(rng: random.Random, net: Network, vars: list[str]) -> dict[str, str]:
    return {v: rng.choice(net.variable(v).states) for v in vars}


def random_partition(
    rng: random.Random,
    net: Network,
    n_evidence: int = 1,
    n_hypothesis: int = 1,
    n_focus: int = 2,
) -> QueryPartition:
    """Disjoint (evidence, hypothesis, focus) drawn from the network's variables.

    Requested sizes are clamped to what the network can supply, keeping at
    least one focus variable.
    """
    names = list(net.names)
    rng.shuffle(names)
    n_hypothesis = min(n_hypothesis, max(1, len(names) - 2))
    n_evidence = min(n_evidence, len(names) - n_hypothesis - 1)
    n_focus = max(1, min(n_focus, len(names) - n_evidence - n_hypothesis))
    needed = n_evidence + n_hypothesis + n_focus
    if needed > len(names):
        raise ValueError(f"network has {len(names)} variables, partition needs {needed}")
    e_vars = names[:n_evidence]
    h_vars = names[n_evidence:n_evidence + n_hypothesis]
    r_vars = names[n_evidence + n_hypothesis:needed]
    return QueryPartition(
        evidence=random_assignment(rng, net, e_vars),
        hypothesis=tuple(h_vars),
        focus=tuple(r_vars),
    )


def random_formula(rng: random.Random, names: list[str], size: int) -> FormulaAst:
    """A random AST with roughly ``size`` operator nodes over the given variables."""
    if size <= 0:
        return Var(rng.choice(names))
    pick = rng.random()
    if pick < 0.25:
        return Not(random_formula(rng, names, size - 1))
    left_size = rng.randint(0, size - 1)
    left = random_formula(rng, names, left_size)
    right = random_formula(rng, names, size - 1 - left_size)
    return And(left, right) if pick < 0.625 else Or(left, right)
