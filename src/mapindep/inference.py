"""Exact inference: joint, marginal and posterior probabilities plus the MAP solver.

Every query in the package rests on one primitive, ``joint_table``: a
sum-product variable elimination over dense factors that returns
Pr(keep, partial) as an array with one axis per kept variable (bucket
elimination with the query variables left free).  Only the ancestors of the
kept and observed variables take part: every other variable is barren, and
since CPT rows sum to 1 (``validate_network`` checks this within
``ROW_SUM_TOL``) its CPT sums out to 1 and is dropped before elimination
(Baker & Boult, UAI 1990).  The remaining variables that are neither
observed nor kept are summed out along a min-fill order.  A marginal is
the table over no variables; the MAP solver takes the first maximiser of
the table over the hypothesis.  A deliberately simple cross-check
(``method="brute"``) builds the same tables by summing chain-rule products
over each cell's completions.  Both are exact up to floating point and agree
within 1e-9 on the network sizes this package targets.

Both routes keep their bookkeeping on integer ids (neighbor bitmasks,
factor ids, state indices) resolved once per table.  Their arithmetic is
plain double precision, with no underflow handling: a product below the
smallest double becomes 0.0, so a Pr(e) that underflows is reported as
infeasible evidence.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

import numpy as np

from .errors import CapacityError, InfeasibleQueryError, InvalidQueryError
from .model import (
    _min_fill,
    Assignment,
    Network,
    ancestors,
    as_assignment,
    assignment_at,
    assignment_count,
    canonical_vars,
    check_assignment,
    ordered_vars,
)

DEFAULT_TIE_TOL = 1e-9
DEFAULT_GUARD = 1 << 20


@dataclass(frozen=True, eq=False)
class Factor:
    """Dense non-negative table over ``scope``, row-major (last variable fastest)."""

    scope: tuple[str, ...]
    values: np.ndarray  # shape = per-variable cardinalities of scope


@dataclass(frozen=True)
class MapResult:
    """Outcome of a MAP query.

    ``joint_probability`` is Pr(h*, context) for the winning assignment and
    ``posterior`` the same value normalized by the context probability.
    ``tie`` flags another candidate within the tie tolerance of the maximum;
    ``runner_up_gap`` is the margin to the best losing candidate.
    """

    assignment: Assignment
    joint_probability: float
    posterior: float
    tie: bool
    runner_up_gap: float


# ---------------------------------------------------------------------------
# factor algebra

_factor_cache: "weakref.WeakKeyDictionary[Network, dict[str, Factor]]" = weakref.WeakKeyDictionary()


def _base_factors(net: Network, names: list[str]) -> list[Factor]:
    """The CPT factors of ``names``; each is built on first use and kept with the network."""
    cache = _factor_cache.setdefault(net, {})
    factors = []
    for name in names:
        f = cache.get(name)
        if f is None:
            cpt = net.cpt(name)
            scope = (*cpt.parents, name)
            shape = tuple(map(net.cardinalities.__getitem__, scope))
            f = cache[name] = Factor(scope, np.asarray(cpt.rows, dtype=float).reshape(shape))
        factors.append(f)
    return factors


def _align(f_scope: tuple[str, ...], values: np.ndarray, scope: tuple[str, ...]) -> np.ndarray:
    # Transpose the factor's axes into their order of appearance in ``scope``
    # (unless they already are), then insert size-1 axes for the missing
    # variables so broadcasting aligns.
    axes = [f_scope.index(v) for v in scope if v in f_scope]
    if axes != sorted(axes):
        values = values.transpose(axes)
    sizes = iter(values.shape)
    return values.reshape(tuple(next(sizes) if v in f_scope else 1 for v in scope))


def _product(factors: list[tuple[tuple[str, ...], np.ndarray]], scope: tuple[str, ...]) -> np.ndarray:
    # ``factors`` are (scope, values) pairs.  ``scope`` starts with the first
    # factor's scope, so trailing size-1 axes align it; the others are
    # multiplied in left to right.
    first = factors[0][1]
    values = first.reshape(first.shape + (1,) * (len(scope) - first.ndim))
    for f_scope, f_values in factors[1:]:
        values = values * _align(f_scope, f_values, scope)
    return values


def joint_table(
    net: Network,
    keep: tuple[str, ...],
    partial: Mapping[str, str],
    *,
    guard: int | None = None,
) -> np.ndarray:
    """Pr(keep, partial) as an array with one axis per kept variable, in the order given.

    Only the ancestors of the kept and assigned variables are eliminated: a
    variable outside that set is barren, so its CPT is dropped, and the
    remaining variables that are neither kept nor assigned in ``partial`` are
    summed out along a min-fill order over those variables alone.  Dropping
    a barren CPT relies on its rows summing to 1, which ``validate_network``
    enforces within ``ROW_SUM_TOL``; on a network built without validation
    the table can differ from a full elimination by that row-sum slack.  An empty
    ``keep`` gives a 0-d array holding Pr(partial).  The elimination is
    planned on scopes before any arithmetic.  Kept variables stay in every
    bucket they touch, so a product can outgrow the final table; with a
    ``guard``, a plan whose final table or any product of two or more factors
    has more than ``guard`` entries raises CapacityError before any product.

    The plan's bookkeeping runs on integer ids: the summed-out variables are
    numbered in declaration order, their interaction graph is one bitmask per
    variable, built from the restricted CPT scopes, and each bucket finds its
    factors through a list of the ids of the factors that hold its variable.
    The arithmetic is that of a plain bucket elimination over dense arrays:
    the same products in the same order, so the same bits.
    """
    keep = ordered_vars(net, keep)
    observed = {var: net.state_index(var, state) for var, state in partial.items()}
    if set(keep) & set(observed):
        raise InvalidQueryError("kept variables must not be assigned")
    relevant = ancestors(net, (*keep, *observed))
    names = [v for v in net.names if v in relevant]

    # Factor i is (scopes[i], arrays[i]): the restricted CPTs first, then each
    # step's result.
    scopes: list[tuple[str, ...]] = []
    arrays: list[np.ndarray] = []
    for f in _base_factors(net, names):
        scope, values = f.scope, f.values
        if not observed.keys().isdisjoint(scope):
            axis = 0
            for var in scope:
                if var in observed:
                    values = np.take(values, observed[var], axis=axis)
                else:
                    axis += 1
            scope = tuple(v for v in scope if v not in observed)
        scopes.append(scope)
        arrays.append(values)

    hidden = [v for v in names if v not in observed and v not in keep]
    ids = {v: i for i, v in enumerate(hidden)}
    neighbours = [0] * len(hidden)
    holders: list[list[int]] = [[] for _ in hidden]
    for i, scope in enumerate(scopes):
        members = [ids[v] for v in scope if v in ids]
        mask = sum(1 << j for j in members)
        for j in members:
            neighbours[j] |= mask
            holders[j].append(i)
    order, _ = _min_fill(hidden, [ns & ~(1 << j) for j, ns in enumerate(neighbours)])

    # The plan, one step per bucket: the ids of the factors it multiplies, in
    # the order they were made, the product's scope in order of first
    # appearance, and the variable summed out.
    live = [True] * len(scopes)
    steps: list[tuple[list[int], tuple[str, ...], str]] = []
    for var in order:
        bucket = [i for i in holders[ids[var]] if live[i]]
        for i in bucket:
            live[i] = False
        scope = tuple(dict.fromkeys(v for i in bucket for v in scopes[i]))
        steps.append((bucket, scope, var))
        result = tuple(v for v in scope if v != var)
        for v in result:
            if v in ids:
                holders[ids[v]].append(len(scopes))
        scopes.append(result)
        live.append(True)
    rest = [i for i, alive in enumerate(live) if alive]
    final_scope = tuple(dict.fromkeys(v for i in rest for v in scopes[i]))
    if guard is not None:
        cards = net.cardinalities
        for scope in [s for bucket, s, _ in steps if len(bucket) > 1] + [final_scope]:
            size = math.prod(cards[v] for v in scope)
            if size > guard:
                raise CapacityError(f"elimination table of {size} entries exceeds guard {guard}")

    for bucket, scope, var in steps:
        arrays.append(_product([(scopes[i], arrays[i]) for i in bucket], scope).sum(axis=scope.index(var)))
    final = _product([((), np.array(1.0)), *((scopes[i], arrays[i]) for i in rest)], final_scope)
    return _align(final_scope, final, keep)


def _column_argmax(table: np.ndarray, tie_tol: float) -> tuple[list[int], list[bool]]:
    """The tie rule: each column's first maximising row, and whether another
    row lies within ``tie_tol`` of that maximum (rows in canonical rank order).
    """
    argmax = table.argmax(axis=0)
    columns = np.arange(table.shape[1])
    near = table[argmax, columns] - table <= tie_tol
    near[argmax, columns] = False
    return argmax.tolist(), near.any(axis=0).tolist()


def _brute_table(net: Network, keep: tuple[str, ...], partial: Mapping[str, str]) -> list[float]:
    """Pr(k, partial) for every assignment k to ``keep``, in row-major rank order.

    Each cell sums the chain-rule product over every completion of its
    assignment, in rank order.  The product is ``joint_probability``'s,
    factor for factor and with its early 0.0, taken over state indices
    resolved once: every CPT's parent positions and cardinalities are looked
    up before the first completion.
    """
    keep = ordered_vars(net, keep)
    rest = tuple(v for v in net.names if v not in partial and v not in keep)
    cards = net.cardinalities
    position = {name: i for i, name in enumerate(net.names)}
    chain = []
    for i, name in enumerate(net.names):
        cpt = net.cpt(name)
        chain.append((i, cpt.rows, [(position[p], cards[p]) for p in cpt.parents]))
    states = [0] * len(net.names)
    for var, state in partial.items():
        states[net.declaration_index(var)] = net.state_index(var, state)
    keep_at = [position[v] for v in keep]
    rest_at = [position[v] for v in rest]
    table = []
    for k in product(*(range(cards[v]) for v in keep)):
        for i, state in zip(keep_at, k):
            states[i] = state
        total = 0.0
        for c in product(*(range(cards[v]) for v in rest)):
            for i, state in zip(rest_at, c):
                states[i] = state
            joint = 1.0
            for i, rows, parents in chain:
                row = 0
                for j, card in parents:
                    row = row * card + states[j]
                entry = rows[row][states[i]]
                if entry == 0.0:
                    joint = 0.0
                    break
                joint *= entry
            total += joint
        table.append(total)
    return table


# ---------------------------------------------------------------------------
# public operations


def joint_probability(net: Network, full: Mapping[str, str]) -> float:
    """Chain-rule product of CPT entries for a full assignment."""
    if len(full) != len(net.variables):
        missing = [v for v in net.names if v not in full]
        raise InvalidQueryError(f"joint_probability needs a full assignment; missing {missing}")
    check_assignment(net, full)
    product = 1.0
    for v in net.variables:
        cpt = net.cpt(v.name)
        row = 0
        for p in cpt.parents:
            row = row * net.cardinality(p) + net.state_index(p, full[p])
        entry = cpt.rows[row][net.state_index(v.name, full[v.name])]
        if entry == 0.0:
            return 0.0
        product *= entry
    return product


def marginal(net: Network, partial: Mapping[str, str], method: str = "ve") -> float:
    """Pr(partial), the probability of a (possibly empty) partial assignment."""
    check_assignment(net, partial)
    if method == "ve":
        return float(joint_table(net, (), partial))
    if method == "brute":
        return _brute_table(net, (), partial)[0]
    raise InvalidQueryError(f"unknown inference method {method!r}")


def posterior(net: Network, target: Mapping[str, str], evidence: Mapping[str, str], method: str = "ve") -> float:
    """Pr(target | evidence).  Zero-probability evidence is an error, not a NaN."""
    target = as_assignment(target)
    if set(target) & set(evidence):
        raise InvalidQueryError("target and evidence must be disjoint")
    p_e = marginal(net, evidence, method)
    if p_e == 0.0:
        raise InfeasibleQueryError(f"evidence {dict(evidence)!r} has probability zero")
    return marginal(net, {**target, **evidence}, method) / p_e


def candidate_joints(
    net: Network,
    hypothesis: tuple[str, ...],
    context: Mapping[str, str],
    method: str = "ve",
    *,
    guard: int | None = None,
) -> list[float]:
    """Pr(h, context) for every h over ``hypothesis``, in canonical rank order.

    ``guard`` bounds the ``"ve"`` table and its products (see ``joint_table``);
    on the ``"brute"`` route it bounds the |Omega(V minus context)| chain-rule
    products summed over all candidates' completions.
    """
    if method == "ve":
        return joint_table(net, hypothesis, context, guard=guard).ravel().tolist()
    if method != "brute":
        raise InvalidQueryError(f"unknown inference method {method!r}")
    if guard is not None:
        completions = assignment_count(net, (v for v in net.names if v not in context))
        if completions > guard:
            raise CapacityError(f"brute enumeration of {completions} assignments exceeds guard {guard}")
    return _brute_table(net, hypothesis, context)


def map_solve(
    net: Network,
    hypothesis,
    evidence: Mapping[str, str] | None = None,
    conditioning: Mapping[str, str] | None = None,
    *,
    method: str = "ve",
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
) -> MapResult:
    """Most probable joint value assignment to ``hypothesis`` given the context.

    The candidates' joints Pr(h, context) come from one table over the
    hypothesis on either ``method``, in canonical row-major order; the first
    maximizer wins, and a second candidate within ``tie_tol`` of the maximum
    raises the ``tie`` flag.  The context is the union of evidence and any
    extra conditioning assignment; its probability is the table's total.
    """
    evidence = as_assignment(evidence or {})
    conditioning = as_assignment(conditioning or {})
    hyp = canonical_vars(net, hypothesis)
    if not hyp:
        raise InvalidQueryError("hypothesis set must be non-empty")
    check_assignment(net, evidence)
    check_assignment(net, conditioning)
    if set(evidence) & set(conditioning):
        raise InvalidQueryError("evidence and conditioning must be disjoint")
    context = {**evidence, **conditioning}
    if set(hyp) & set(context):
        raise InvalidQueryError("hypothesis overlaps the conditioning context")

    joints = candidate_joints(net, hyp, context, method, guard=guard)
    p_context = sum(joints)
    if p_context == 0.0:
        raise InfeasibleQueryError(f"conditioning context {context!r} has probability zero")

    (best_idx,), (tie,) = _column_argmax(np.asarray(joints).reshape(-1, 1), tie_tol)
    best = joints[best_idx]
    runner_up = max(p for i, p in enumerate(joints) if i != best_idx)
    return MapResult(
        assignment=assignment_at(net, hyp, best_idx),
        joint_probability=best,
        posterior=best / p_context,
        tie=tie,
        runner_up_gap=best - runner_up,
    )


def map_threshold(
    net: Network,
    h_star: Mapping[str, str],
    evidence: Mapping[str, str] | None = None,
    q: float | Fraction = 0.0,
    method: str = "ve",
) -> bool:
    """Whether Pr(h_star, evidence) strictly exceeds ``q``."""
    evidence = as_assignment(evidence or {})
    if not h_star:
        raise InvalidQueryError("h_star must be non-empty")
    if set(h_star) & set(evidence):
        raise InvalidQueryError("h_star and evidence must be disjoint")
    check_assignment(net, h_star)
    check_assignment(net, evidence)
    if evidence and marginal(net, evidence, method) == 0.0:
        raise InfeasibleQueryError(f"evidence {evidence!r} has probability zero")
    return marginal(net, {**h_star, **evidence}, method) > q
