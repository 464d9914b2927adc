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
the table over no variables, and a full assignment's joint probability is
that table with every variable assigned; the MAP solver takes the first
maximiser of the table over the hypothesis.

Bookkeeping is on integer ids resolved once per table: every elimination
scope is a tuple of per-call variable ids.  CPT arrays are read in one pass
and kept with the network.  The arithmetic is plain double precision, with
no underflow handling: a product below the smallest double becomes 0.0, so
a Pr(e) that underflows is reported as infeasible evidence.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Mapping

import numpy as np

from .errors import DEFAULT_GUARD, CapacityError, InfeasibleQueryError, InvalidQueryError, brief
from .model import (
    _min_fill,
    Assignment,
    Network,
    ancestors,
    as_assignment,
    assignment_at,
    canonical_vars,
    check_assignment,
    ordered_vars,
)


@dataclass(frozen=True)
class MapResult:
    """Outcome of a MAP query.

    ``joint_probability`` is Pr(h*, e) for the winning assignment and
    ``posterior`` the same value normalized by Pr(e).
    ``tie`` flags another candidate within the fixed absolute tolerance
    ``_TIE_TOL`` (1e-9) of the maximum; ``runner_up_gap`` is the margin to
    the best losing candidate.
    """

    assignment: Assignment
    joint_probability: float
    posterior: float
    tie: bool
    runner_up_gap: float


# ---------------------------------------------------------------------------
# factor algebra

def _base_factors(net: Network, names: list[str]) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """The CPTs of ``names`` as (scope, values) pairs, values row-major over scope =
    (*parents, child).  The CPTs not yet cached with the network (``Network._factors``)
    are read in one ``np.fromiter`` pass, and each is a reshaped slice of that array."""
    cache = net._factors
    missing = [net.cpt(name) for name in names if name not in cache]
    if missing:
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(cpt.rows for cpt in missing)), float)
        start = 0
        for cpt in missing:
            scope = (*cpt.parents, cpt.child)
            shape = tuple(map(net.cardinalities.__getitem__, scope))
            stop = start + math.prod(shape)
            cache[cpt.child] = (scope, flat[start:stop].reshape(shape))
            start = stop
    return [cache[name] for name in names]


def _align(f_scope: tuple[int, ...], values: np.ndarray, scope: tuple[int, ...], cards: list[int]) -> np.ndarray:
    # Transpose the factor's axes into their order of appearance in ``scope``
    # (unless they already are), then insert size-1 axes for the missing
    # variables so broadcasting aligns.
    axes = [f_scope.index(v) for v in scope if v in f_scope]
    if axes != sorted(axes):
        values = values.transpose(axes)
    return values.reshape([cards[v] if v in f_scope else 1 for v in scope])


def _product(factors: list[tuple[tuple[int, ...], np.ndarray]], scope: tuple[int, ...], cards: list[int]) -> np.ndarray:
    # ``factors`` are (scope, values) pairs.  ``scope`` starts with the first
    # factor's scope, so trailing size-1 axes align it; the others are
    # multiplied in left to right.
    first = factors[0][1]
    values = first.reshape(first.shape + (1,) * (len(scope) - first.ndim))
    for f_scope, f_values in factors[1:]:
        values = values * _align(f_scope, f_values, scope, cards)
    return values


def joint_table(
    net: Network,
    keep: tuple[str, ...],
    partial: Mapping[str, str],
    *,
    guard: int = DEFAULT_GUARD,
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
    bucket they touch, so a product can outgrow the final table; a plan
    whose final table or any product of two or more factors has more than
    ``guard`` entries raises CapacityError before any product.

    Variables are numbered once per call, the summed-out ones first in
    declaration order, then the kept ones; every scope is a tuple of these
    ids, and the restriction loop also builds the interaction graph (one
    bitmask per summed-out variable) and each variable's list of factors.
    The arithmetic is that of a plain bucket elimination over dense arrays:
    the same products in the same order, so the same bits; a bucket of one
    factor is summed without a product.
    """
    keep = ordered_vars(net, keep)
    observed = {var: net.state_index(var, state) for var, state in partial.items()}
    if set(keep) & set(observed):
        raise InvalidQueryError("kept variables must not be assigned")
    relevant = ancestors(net, (*keep, *observed))
    names = [v for v in net.names if v in relevant]
    hidden = [v for v in names if v not in observed and v not in keep]
    n = len(hidden)
    ids = {v: i for i, v in enumerate((*hidden, *keep))}
    cards = list(map(net.cardinalities.__getitem__, ids))

    # Factor i is (scopes[i], arrays[i]): the restricted CPTs first, then each
    # step's result.
    scopes: list[tuple[int, ...]] = []
    arrays: list[np.ndarray] = []
    neighbours = [0] * n
    holders: list[list[int]] = [[] for _ in hidden]
    for scope, values in _base_factors(net, names):
        if not observed.keys().isdisjoint(scope):
            values = values[tuple([observed.get(var, slice(None)) for var in scope])]
        scope = tuple([ids[v] for v in scope if v in ids])
        members = [j for j in scope if j < n]
        mask = sum([1 << j for j in members])
        for j in members:
            neighbours[j] |= mask
            holders[j].append(len(scopes))
        scopes.append(scope)
        arrays.append(values)
    order, _ = _min_fill(hidden, [ns & ~(1 << j) for j, ns in enumerate(neighbours)])

    # The plan, one step per bucket: the ids of the factors it multiplies, in
    # the order they were made, the product's scope in order of first
    # appearance, and the axis summed out.
    live = [True] * len(scopes)
    steps: list[tuple[list[int], tuple[int, ...], int]] = []
    for var in map(ids.__getitem__, order):
        bucket = [i for i in holders[var] if live[i]]
        for i in bucket:
            live[i] = False
        scope = tuple(dict.fromkeys(v for i in bucket for v in scopes[i]))
        axis = scope.index(var)
        steps.append((bucket, scope, axis))
        result = scope[:axis] + scope[axis + 1:]
        for v in result:
            if v < n:
                holders[v].append(len(scopes))
        scopes.append(result)
        live.append(True)
    rest = [i for i, alive in enumerate(live) if alive]
    final_scope = tuple(dict.fromkeys(v for i in rest for v in scopes[i]))
    for scope in [s for bucket, s, _ in steps if len(bucket) > 1] + [final_scope]:
        size = math.prod(map(cards.__getitem__, scope))
        if size > guard:
            raise CapacityError(f"elimination table of {size} entries exceeds guard {guard}")

    for bucket, scope, axis in steps:
        if len(bucket) == 1:
            values = arrays[bucket[0]]
        else:
            values = _product([(scopes[i], arrays[i]) for i in bucket], scope, cards)
        arrays.append(np.add.reduce(values, axis=axis))
    final = _product([((), np.array(1.0)), *((scopes[i], arrays[i]) for i in rest)], final_scope, cards)
    return _align(final_scope, final, tuple(range(n, len(cards))), cards)


_TIE_TOL = 1e-9


def _column_argmax(table: np.ndarray) -> tuple[list[int], list[bool]]:
    """The tie rule: each column's first maximising row, and whether another
    row lies within ``_TIE_TOL`` of that maximum (rows in canonical rank order).
    """
    argmax = table.argmax(axis=0)
    columns = np.arange(table.shape[1])
    near = table[argmax, columns] - table <= _TIE_TOL
    near[argmax, columns] = False
    return argmax.tolist(), near.any(axis=0).tolist()


# ---------------------------------------------------------------------------
# public operations


def _check_query_values(guard) -> None:
    """Refuse a ``guard`` that is not an int >= 0 (a bool is not) before any work."""
    if not isinstance(guard, int) or isinstance(guard, bool) or guard < 0:
        raise InvalidQueryError(f"guard must be a non-negative integer, got {reprlib.repr(guard)}")


def joint_probability(net: Network, full: Mapping[str, str]) -> float:
    """Chain-rule product of CPT entries for a full assignment: the 0-d table
    of ``joint_table``, which multiplies them in declaration order from 1.0."""
    full = as_assignment(full)
    if len(full) != len(net.variables):
        missing = [v for v in net.names if v not in full]
        raise InvalidQueryError(f"joint_probability needs a full assignment; missing {reprlib.repr(missing)}")
    check_assignment(net, full)
    return float(joint_table(net, (), full))


def marginal(net: Network, partial: Mapping[str, str], *, guard: int = DEFAULT_GUARD) -> float:
    """Pr(partial), the probability of a (possibly empty) partial assignment.

    ``guard`` bounds the elimination as in ``candidate_joints``: work past it
    raises CapacityError before any product.
    """
    check_assignment(net, partial)
    return candidate_joints(net, (), partial, guard=guard)[0]


def posterior(
    net: Network,
    target: Mapping[str, str],
    evidence: Mapping[str, str],
    *,
    guard: int = DEFAULT_GUARD,
) -> float:
    """Pr(target | evidence), each of its two marginals guarded by ``guard``.
    Zero-probability evidence is an error, not a NaN."""
    target = as_assignment(target)
    check_assignment(net, target)
    if set(target) & set(evidence):
        raise InvalidQueryError("target and evidence must be disjoint")
    p_e = marginal(net, evidence, guard=guard)
    if p_e == 0.0:
        raise InfeasibleQueryError(f"evidence {brief(evidence)} has probability zero")
    return marginal(net, {**target, **evidence}, guard=guard) / p_e


def candidate_joints(
    net: Network,
    hypothesis: tuple[str, ...],
    context: Mapping[str, str],
    *,
    guard: int = DEFAULT_GUARD,
) -> list[float]:
    """Pr(h, context) for every h over ``hypothesis``, row-major in the order
    given (last variable fastest); ``guard`` bounds the table and its products
    (see ``joint_table``)."""
    _check_query_values(guard)
    return joint_table(net, hypothesis, context, guard=guard).ravel().tolist()


def map_solve(
    net: Network,
    hypothesis,
    evidence: Mapping[str, str] | None = None,
    *,
    guard: int = DEFAULT_GUARD,
) -> MapResult:
    """Most probable joint value assignment to ``hypothesis`` given ``evidence``.

    The candidates' joints Pr(h, e) come from one table over the hypothesis,
    in canonical row-major order; the first maximizer wins, and a second
    candidate within the fixed tolerance ``_TIE_TOL`` of the maximum raises
    the ``tie`` flag.  Pr(e) is the table's total.  Conditioning on an
    observed value r is just more evidence: pass ``{**e, **r}``.
    """
    _check_query_values(guard)
    evidence = as_assignment(evidence or {})
    hyp = canonical_vars(net, hypothesis)
    if not hyp:
        raise InvalidQueryError("hypothesis set must be non-empty")
    check_assignment(net, evidence)
    if set(hyp) & set(evidence):
        raise InvalidQueryError("hypothesis and evidence must be disjoint")

    joints = candidate_joints(net, hyp, evidence, guard=guard)
    p_evidence = reduce(add, joints)  # left to right: the builtin sum is compensated from Python 3.12
    if p_evidence == 0.0:
        raise InfeasibleQueryError(f"evidence {brief(evidence)} has probability zero")

    (best_idx,), (tie,) = _column_argmax(np.asarray(joints).reshape(-1, 1))
    best = joints[best_idx]
    runner_up = max(p for i, p in enumerate(joints) if i != best_idx)
    return MapResult(
        assignment=assignment_at(net, hyp, best_idx),
        joint_probability=best,
        posterior=best / p_evidence,
        tie=tie,
        runner_up_gap=best - runner_up,
    )
