"""MAP-independence deciders, the threshold variant, and quantification.

A hypothesis H is MAP-independent from a focus set R given evidence e when
the most probable joint value assignment to H stays the same no matter
which value R would have been observed to take.  The strong decider checks
every joint assignment to R; the weak decider checks each focus variable
on its own; the maximum search looks for a largest subset of a candidate
pool from which H is strongly independent.

Every decider is a reduction over tables Pr(H, S, e) built by
``inference.joint_table``.  Strong and quantify build one, S = R.  Weak,
partition and maximum ask the same question of many focus subsets S of one
set F (the focus set, the candidates or the pool): they build Pr(H, F, e)
once, and each S's table is its sum over F minus S.  That holds while the
table has at most ``_JOINT_CELLS`` cells and its plan passes the guard;
otherwise each S gets its own elimination, so a focus set too large for one
joint table is still answered variable by variable.  Each column (one
assignment s) yields its first maximiser and tie flag, by the rule
``map_solve`` also applies, its total Pr(s, e) and the entry of the
reference explanation h*; the columns are folded in canonical row-major
order, and the first differing assignment is the counterexample.
Zero-probability (s, e) combinations cannot be observed, so by default
they are skipped and listed in the report; ``strict_zeros`` turns them into
an InfeasibleQueryError instead.

h* = argmax_H Pr(H, e) comes from the first subset table a decider folds:
its row sums are Pr(H, e), reduced by the same tie rule, and their total is
Pr(e), so a zero total is the check for infeasible evidence.  It runs
after the guard has passed the table's elimination, and later subsets
(weak, partition, maximum) reuse the rank.  No decider eliminates for h*
or Pr(e) on its own; only quantify's ``mass`` eliminates for Pr(e), and
``threshold``, which has no reference explanation, checks Pr(e) with a
guarded elimination after its table's.

The ``workers`` keyword is accepted for compatibility and ignored: a query
is one elimination, so there is no sweep to split.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import CapacityError, InfeasibleQueryError, InvalidQueryError
from .inference import (
    DEFAULT_GUARD,
    DEFAULT_TIE_TOL,
    _column_argmax,
    joint_table,
    marginal,
)
from .model import (
    Assignment,
    Network,
    QueryPartition,
    assignment_at,
    assignment_count,
    canonical_vars,
    check_assignment,
    resolve_partition,
)

TIE_WARNING = "tie-ambiguous"

# Weak, partition and maximum build one table Pr(H, F, e) and sum each focus
# subset's table out of it while |Omega(H)| * |Omega(F)| is at most this many
# cells, and eliminate per subset above it.  The bound is the measured
# crossover: on four 30-node random binary networks with |H| = 1, the one
# table was faster for weak, partition and maximum (k = 2) in 12 of 12 cases
# at 2^13 cells, 8 of 12 at 2^14, 5 of 12 at 2^15, 2 of 12 at 2^16 and none
# at 2^17.
_JOINT_CELLS = 1 << 14


@dataclass(frozen=True)
class Quantification:
    """How much of Omega(R) leaves the explanation untouched.

    ``mass`` sums Pr(r | e) over the unchanged assignments, ``proportion``
    counts them against |Omega(R)|, and ``mean_hamming`` averages the
    number of hypothesis variables whose MAP value flips (unweighted over
    Omega(R)).
    """

    mass: float
    proportion: float
    mean_hamming: float


@dataclass(frozen=True)
class SweepRow:
    """One per-assignment table entry: r, its MAP (if computed), Pr(h*, r, e)."""

    assignment: Assignment
    map_assignment: Assignment | None
    h_star_joint: float


@dataclass(frozen=True)
class IndependenceReport:
    mode: str
    verdict: bool
    witness: Assignment
    counterexample: Assignment | None = None
    subset: tuple[str, ...] | None = None
    min_joint: float | None = None
    per_assignment: tuple[SweepRow, ...] | None = None
    skipped: tuple[Assignment, ...] = ()
    ties_encountered: bool = False
    warning: str | None = None
    metrics: Quantification | None = None
    elapsed: float = 0.0


@dataclass(frozen=True)
class SingletonFinding:
    map_independent: bool
    counterexample: Assignment | None


@dataclass(frozen=True)
class RelevancePartition:
    """Candidates split into explanation-relevant and irrelevant variables."""

    relevant: tuple[str, ...]
    irrelevant: tuple[str, ...]
    justification: dict[str, SingletonFinding]


# ---------------------------------------------------------------------------
# reductions over the table Pr(H, S, e)


@dataclass
class _Fold:
    h_star: int
    verdict: bool = True
    counterexample: Assignment | None = None
    ties: bool = False
    skipped: list[Assignment] = field(default_factory=list)
    rows: list[SweepRow] = field(default_factory=list)
    min_joint: float | None = None
    unchanged: int = 0
    mass_num: float = 0.0
    hamming_sum: int = 0


def _hamming(net: Network, hypothesis: tuple[str, ...], a_idx: int, b_idx: int) -> int:
    """How many mixed-radix digits (one per hypothesis variable) the two ranks differ in."""
    distance = 0
    for name in reversed(hypothesis):
        card = net.cardinality(name)
        a_idx, a_digit = divmod(a_idx, card)
        b_idx, b_digit = divmod(b_idx, card)
        distance += a_digit != b_digit
    return distance


def _fold(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: Assignment,
    focus: tuple[str, ...],
    table: np.ndarray,
    *,
    h_star_idx: int | None = None,
    tie_tol: float,
    strict_zeros: bool,
    stop_early: bool,
    table_limit: int | None = None,
) -> _Fold:
    """Fold the columns of ``table`` = Pr(H, S, e), S = ``focus``, in canonical rank order.

    Each column gives its first maximiser and tie flag (``_column_argmax``),
    Pr(h*, s, e) and its total Pr(s, e); the first column whose maximiser
    is not h* is the counterexample, and ``stop_early`` ends the fold there.
    Without ``h_star_idx``, h* is the first maximiser of the row sums
    Pr(H, e), whose tie flag starts ``ties``; a zero total means Pr(e) = 0.
    """
    table = table.reshape(assignment_count(net, hypothesis), -1)
    h_star_tie = False
    if h_star_idx is None:
        joints = table.sum(axis=1)
        if joints.sum() == 0.0:
            raise InfeasibleQueryError(f"evidence {evidence!r} has probability zero")
        (h_star_idx,), (h_star_tie,) = _column_argmax(joints.reshape(-1, 1), tie_tol)
    argmax, ties = _column_argmax(table, tie_tol)
    columns = zip(argmax, ties, table[h_star_idx].tolist(), table.sum(axis=0).tolist())

    fold = _Fold(h_star_idx, ties=h_star_tie)
    for rank, (best, tie, h_star_joint, total) in enumerate(columns):
        if total == 0.0:
            r = assignment_at(net, focus, rank)
            if strict_zeros:
                raise InfeasibleQueryError(
                    f"conditioning assignment {r!r} has probability zero under the evidence"
                )
            fold.skipped.append(r)
            fold.unchanged += 1  # vacuously: an impossible r cannot move the MAP
            continue
        fold.ties = fold.ties or tie
        if fold.min_joint is None or h_star_joint < fold.min_joint:
            fold.min_joint = h_star_joint
        changed = best != h_star_idx
        if changed and fold.counterexample is None:
            fold.counterexample = assignment_at(net, focus, rank)
            fold.verdict = False
        if not changed:
            fold.unchanged += 1
            fold.mass_num += total
        else:
            fold.hamming_sum += _hamming(net, hypothesis, best, h_star_idx)
        if table_limit is not None and len(fold.rows) < table_limit:
            fold.rows.append(
                SweepRow(assignment_at(net, focus, rank), assignment_at(net, hypothesis, best), h_star_joint)
            )
        if stop_early and changed:
            break
    return fold


def _subset_tables(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: Assignment,
    focus: tuple[str, ...],
    guard: int,
) -> Callable[[tuple[str, ...]], np.ndarray]:
    """A function giving Pr(H, S, e), axes H then S, for subsets S of ``focus``.

    While |Omega(H)| * |Omega(F)| is at most ``_JOINT_CELLS`` and the guard,
    and the plan of Pr(H, F, e), F = ``focus``, passes the guard, that one
    table is built here and each S's table is its sum over F minus S.
    Otherwise each call eliminates for S alone, which is how a focus set
    whose joint table exceeds the guard is still answered.
    """
    if assignment_count(net, hypothesis + focus) <= min(_JOINT_CELLS, guard):
        try:
            joint = joint_table(net, hypothesis + focus, evidence, guard=guard)
        except CapacityError:
            pass
        else:
            first = len(hypothesis)
            return lambda subset: joint.sum(axis=tuple(first + i for i, v in enumerate(focus) if v not in subset))
    return lambda subset: joint_table(net, hypothesis + subset, evidence, guard=guard)


def _singleton_folds(
    net: Network,
    hypothesis: tuple[str, ...],
    evidence: Assignment,
    focus: tuple[str, ...],
    *,
    guard: int,
    **fold_options,
) -> Iterator[tuple[str, _Fold]]:
    """(R_i, fold of Pr(H, R_i, e)) per focus variable in canonical order; the first finds h*."""
    table_of = _subset_tables(net, hypothesis, evidence, focus, guard)
    h_star_idx = None
    for var in focus:
        fold = _fold(net, hypothesis, evidence, (var,), table_of((var,)), h_star_idx=h_star_idx, **fold_options)
        h_star_idx = fold.h_star
        yield var, fold


# ---------------------------------------------------------------------------
# public operations


def strong_map_independence(
    net: Network,
    partition: QueryPartition,
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    workers: int = 1,
    table_limit: int | None = None,
    strict_zeros: bool = False,
    short_circuit: bool = True,
    with_metrics: bool = False,
) -> IndependenceReport:
    """Is the MAP of the hypothesis the same for every joint assignment to the focus?

    Reduces one table Pr(H, R, e), comparing each column's MAP to the
    reference explanation in canonical order; stops at the first
    counterexample unless a table or metrics were requested.  The metrics
    divide by Pr(e), the one elimination they add: the table's total is
    Pr(e) too, but summed in another order its last digits differ, and
    ``mass`` is reported to 17 significant digits.
    """
    started = time.perf_counter()
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    fold = _fold(
        net, hypothesis, evidence, focus, joint_table(net, hypothesis + focus, evidence, guard=guard),
        tie_tol=tie_tol, strict_zeros=strict_zeros, table_limit=table_limit,
        stop_early=short_circuit and not with_metrics and table_limit is None,
    )

    metrics = None
    if with_metrics:
        total = assignment_count(net, focus)
        metrics = Quantification(
            mass=fold.mass_num / marginal(net, evidence),
            proportion=fold.unchanged / total,
            mean_hamming=fold.hamming_sum / total,
        )
    return IndependenceReport(
        mode="strong",
        verdict=fold.verdict,
        witness=assignment_at(net, hypothesis, fold.h_star),
        counterexample=fold.counterexample,
        min_joint=fold.min_joint,
        per_assignment=tuple(fold.rows) if table_limit is not None else None,
        skipped=tuple(fold.skipped),
        ties_encountered=fold.ties,
        warning=TIE_WARNING if fold.ties else None,
        metrics=metrics,
        elapsed=time.perf_counter() - started,
    )


def weak_map_independence(
    net: Network,
    partition: QueryPartition,
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    workers: int = 1,
    table_limit: int | None = None,
    strict_zeros: bool = False,
    short_circuit: bool = True,
) -> IndependenceReport:
    """Strong MAP-independence checked per focus variable, one at a time.

    Each focus variable R_i is folded over its own table Pr(H, R_i, e), so
    interaction effects between focus variables are deliberately not
    visible here.  The tables are sums over one Pr(H, R, e) while that has
    at most ``_JOINT_CELLS`` cells and fits the guard; above that each R_i
    gets its own elimination, so the work grows with the sum of the focus
    cardinalities rather than their product.
    """
    started = time.perf_counter()
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    stop_early = short_circuit and table_limit is None
    folds: list[_Fold] = []
    for _, fold in _singleton_folds(
        net, hypothesis, evidence, focus,
        tie_tol=tie_tol, guard=guard, strict_zeros=strict_zeros,
        stop_early=stop_early, table_limit=table_limit,
    ):
        folds.append(fold)
        if stop_early and not fold.verdict:
            break
    counterexample = next((f.counterexample for f in folds if not f.verdict), None)
    rows = [row for f in folds for row in f.rows][:table_limit]
    ties = any(f.ties for f in folds)
    return IndependenceReport(
        mode="weak",
        verdict=counterexample is None,
        witness=assignment_at(net, hypothesis, folds[0].h_star),
        counterexample=counterexample,
        per_assignment=tuple(rows) if table_limit is not None else None,
        skipped=tuple(r for f in folds for r in f.skipped),
        ties_encountered=ties,
        warning=TIE_WARNING if ties else None,
        elapsed=time.perf_counter() - started,
    )


def maximum_map_independence(
    net: Network,
    partition: QueryPartition,
    k: int,
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    workers: int = 1,
    strict_zeros: bool = False,
) -> IndependenceReport:
    """Find a subset of the candidate pool, of size at least ``k``, from which
    the hypothesis is strongly MAP-independent.

    Size-k subsets are tried in canonical (lexicographic) order; the first
    hit is greedily extended to a maximal qualifying set.  During the
    extension, a known-failing subset prunes every superset of it.  Both
    the extension and the pruning rely on downward closure, which ties can
    break, so the extension stops as soon as a tie is encountered.  Each
    evaluated subset S is folded over its table Pr(H, S, e): a sum over one
    table Pr(H, pool, e) while that has at most ``_JOINT_CELLS`` cells and
    fits the guard, else its own elimination.
    """
    started = time.perf_counter()
    hypothesis, evidence, pool = resolve_partition(net, partition)
    if not pool:
        raise InvalidQueryError("candidate pool must be non-empty")
    if not 1 <= k <= len(pool):
        raise InvalidQueryError(f"k must be between 1 and {len(pool)}, got {k}")
    if math.comb(len(pool), k) > guard:
        raise CapacityError(f"C({len(pool)}, {k}) exceeds guard {guard}")
    table_of = _subset_tables(net, hypothesis, evidence, pool, guard)
    h_star_idx: int | None = None  # found by the first subset evaluated
    ties = False
    failing: list[frozenset[str]] = []

    def pruned(subset: tuple[str, ...]) -> bool:
        return any(f.issubset(subset) for f in failing)

    def independent(subset: tuple[str, ...]) -> bool:
        nonlocal h_star_idx, ties
        fold = _fold(
            net, hypothesis, evidence, subset, table_of(subset), h_star_idx=h_star_idx,
            tie_tol=tie_tol, strict_zeros=strict_zeros, stop_early=True,
        )
        h_star_idx = fold.h_star
        ties = ties or fold.ties
        if not fold.verdict:
            failing.append(frozenset(subset))
        return fold.verdict

    best: tuple[str, ...] | None = None
    for subset in combinations(pool, k):
        if independent(subset):
            best = subset
            break

    if best is not None and not ties:
        for var in pool:
            if ties:
                break  # downward closure no longer trustworthy
            if var in best:
                continue
            extended = canonical_vars(net, (*best, var))
            if not pruned(extended) and independent(extended):
                best = extended

    return IndependenceReport(
        mode="maximum",
        verdict=best is not None,
        witness=assignment_at(net, hypothesis, h_star_idx),
        subset=best,
        ties_encountered=ties,
        warning=TIE_WARNING if ties else None,
        elapsed=time.perf_counter() - started,
    )


def threshold_map_independence(
    net: Network,
    h_star: Mapping[str, str],
    partition: QueryPartition,
    s: float | Fraction,
    *,
    guard: int = DEFAULT_GUARD,
    workers: int = 1,
    table_limit: int | None = None,
) -> IndependenceReport:
    """Does Pr(h_star, r, e) strictly exceed ``s`` for every r over the focus?

    The supplied ``h_star`` is taken at face value (it need not be the true
    MAP).  One table Pr(h_star, R, e) covers all of Omega(R), so the
    reported minimum joint probability is exact; zero-probability
    assignments simply fail the strict comparison.
    """
    started = time.perf_counter()
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    if set(h_star) != set(hypothesis):
        raise InvalidQueryError("h_star must assign exactly the hypothesis variables")
    check_assignment(net, h_star)
    if not 0 <= s < 1:
        raise InvalidQueryError(f"threshold s must be in [0, 1), got {s}")

    joints = joint_table(net, focus, {**evidence, **h_star}, guard=guard).ravel().tolist()
    if evidence and joint_table(net, (), evidence, guard=guard) == 0.0:
        raise InfeasibleQueryError(f"evidence {evidence!r} has probability zero")

    verdict = True
    counterexample = None
    min_joint = None
    rows: list[SweepRow] = []
    for rank, p in enumerate(joints):
        if min_joint is None or p < min_joint:
            min_joint = p
        if verdict and not p > s:  # strict comparison, exact for Fraction thresholds
            verdict = False
            counterexample = assignment_at(net, focus, rank)
        if table_limit is not None and len(rows) < table_limit:
            rows.append(SweepRow(assignment_at(net, focus, rank), None, p))
    return IndependenceReport(
        mode="threshold",
        verdict=verdict,
        witness={v: h_star[v] for v in hypothesis},
        counterexample=counterexample,
        min_joint=min_joint,
        per_assignment=tuple(rows) if table_limit is not None else None,
        elapsed=time.perf_counter() - started,
    )


def quantify(
    net: Network,
    partition: QueryPartition,
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    workers: int = 1,
    strict_zeros: bool = False,
) -> Quantification:
    """Quantified MAP-independence of the focus set: mass, proportion, mean Hamming."""
    report = strong_map_independence(
        net, partition,
        tie_tol=tie_tol, guard=guard,
        strict_zeros=strict_zeros, short_circuit=False, with_metrics=True,
    )
    return report.metrics


def relevance_partition(
    net: Network,
    evidence: Mapping[str, str],
    hypothesis,
    candidates,
    mode: str = "weak",
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    strict_zeros: bool = False,
) -> RelevancePartition:
    """Split candidate variables by whether observing them could move the MAP.

    Each candidate is tested on its own; for singletons the weak and
    strong-singleton readings coincide, so ``mode`` only names the check.
    """
    if mode not in ("weak", "strong-singleton"):
        raise InvalidQueryError(f"unknown relevance mode {mode!r}")
    hyp, evidence, cands = resolve_partition(net, QueryPartition(evidence, hypothesis, candidates))
    if not cands:
        return RelevancePartition(relevant=(), irrelevant=(), justification={})
    justification = {
        var: SingletonFinding(fold.verdict, fold.counterexample)
        for var, fold in _singleton_folds(
            net, hyp, evidence, cands,
            tie_tol=tie_tol, guard=guard, strict_zeros=strict_zeros, stop_early=True,
        )
    }
    relevant = tuple(var for var, finding in justification.items() if not finding.map_independent)
    irrelevant = tuple(var for var, finding in justification.items() if finding.map_independent)
    return RelevancePartition(relevant, irrelevant, justification)
