"""MAP-independence deciders, the threshold variant, and quantification.

A hypothesis H is MAP-independent from a focus set R given evidence e when
the most probable joint value assignment to H stays the same no matter
which value R would have been observed to take.  The strong decider checks
every joint assignment to R; the weak decider checks each focus variable
on its own; the maximum search looks for a largest subset of a candidate
pool from which H is strongly independent.

Every decider but ``threshold`` is a reduction over tables Pr(H, S, e)
built by ``inference.joint_table``, for focus subsets S of one set F (the
focus set, the candidates or the pool), and ``_SubsetFolds`` is the one
place that folds them.  Strong and quantify fold S = F = R; weak,
partition and maximum fold many subsets.  ``_SubsetFolds`` builds
Pr(H, F, e) once, and each S's table is its sum over F minus S.  That
holds while the table has at most ``_JOINT_CELLS`` cells and its plan
passes the guard; otherwise each S gets its own elimination, so a focus
set too large for one joint table is still answered variable by variable.
Each column (one assignment s) yields its first maximiser and tie flag, by
the rule ``map_solve`` also applies, its total Pr(s, e) and the entry of
the reference explanation h*; the columns are folded in canonical
row-major order, and the first differing assignment is the counterexample.
Zero-probability (s, e) combinations cannot be observed, so by default
they are skipped and listed in the report; ``strict_zeros`` turns them into
an InfeasibleQueryError instead.

h* = argmax_H Pr(H, e) comes from the first subset table a decider folds:
its row sums are Pr(H, e), reduced by the same tie rule, and their total is
Pr(e), so a zero total is the check for infeasible evidence.  It runs
after the guard has passed the table's elimination.  ``_SubsetFolds``
hands the first fold's h* to every later fold and keeps the ties seen so
far, so no decider carries h* itself.  No decider eliminates for h* or
Pr(e) on its own; only quantify's ``mass`` eliminates for Pr(e), and
``threshold``, which has no reference explanation, reads its answer off
one table Pr(h_star, R, e) and checks Pr(e) with a guarded elimination
after it.

The ``workers`` keyword is accepted for compatibility and ignored: a query
is one elimination, so there is no sweep to split.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .errors import DEFAULT_GUARD, CapacityError, InfeasibleQueryError, InvalidQueryError, brief
from .inference import (
    DEFAULT_TIE_TOL,
    _check_query_values,
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
    """One decider's answer, a deterministic value.  Every mode sets ``mode``,
    ``verdict`` and ``witness``; strong, weak and threshold ``counterexample``
    and, with a table, ``per_assignment``; strong and weak ``skipped``; strong
    and threshold ``min_joint``; maximum ``subset``; strong, when asked,
    ``metrics``.  ``warning`` follows ``ties_encountered``.
    """

    mode: str
    verdict: bool
    witness: Assignment
    counterexample: Assignment | None = None
    subset: tuple[str, ...] | None = None
    min_joint: float | None = None
    per_assignment: tuple[SweepRow, ...] | None = None
    skipped: tuple[Assignment, ...] = ()
    ties_encountered: bool = False
    metrics: Quantification | None = None

    @property
    def warning(self) -> str | None:
        return TIE_WARNING if self.ties_encountered else None


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
    verdict: bool = True
    counterexample: Assignment | None = None
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


class _SubsetFolds:
    """Folds of Pr(H, S, e), axes H then S, for focus subsets S of one set F.

    Strong and quantify fold S = F = R once; weak, partition and maximum
    fold many subsets of F.  Each subset's table is chosen by one rule.
    While |Omega(H)| * |Omega(F)| is at most ``_JOINT_CELLS`` and the guard,
    and the plan of Pr(H, F, e) passes the guard, that one table is built
    here and each S's table is its sum over F minus S (for S = F, a sum over
    no axes: an exact copy).  Otherwise each fold eliminates for S alone,
    which is how a focus set whose joint table exceeds the guard is still
    answered.  The first fold finds h*; every later fold reuses its rank.
    ``h_star`` and ``ties`` (any tie seen so far, h*'s own included) are
    read off after the folds.
    """

    def __init__(self, net, hypothesis, evidence, focus, *, guard, tie_tol, strict_zeros):
        self.h_star: int | None = None
        self.ties = False
        self._net = net
        self._hypothesis = hypothesis
        self._evidence = evidence
        self._focus = focus
        self._guard = guard
        self._tie_tol = tie_tol
        self._strict_zeros = strict_zeros
        self._joint = None
        if assignment_count(net, hypothesis + focus) <= min(_JOINT_CELLS, guard):
            try:
                self._joint = joint_table(net, hypothesis + focus, evidence, guard=guard)
            except CapacityError:
                pass

    def fold(self, subset: tuple[str, ...], *, stop_early: bool, table_limit: int | None = None) -> _Fold:
        """Fold the columns of Pr(H, S, e), S = ``subset``, in canonical rank order.

        Each column gives its first maximiser and tie flag (``_column_argmax``),
        Pr(h*, s, e) and its total Pr(s, e); the first column whose maximiser
        is not h* is the counterexample, and ``stop_early`` ends the fold there.
        At most ``table_limit`` columns are decoded into rows.  The first fold
        sets h* to the first maximiser of the row sums Pr(H, e), whose tie
        flag starts ``ties``; a zero total means Pr(e) = 0.
        """
        net, hypothesis = self._net, self._hypothesis
        if self._joint is None:
            table = joint_table(net, hypothesis + subset, self._evidence, guard=self._guard)
        else:
            first = len(hypothesis)
            table = self._joint.sum(axis=tuple(first + i for i, v in enumerate(self._focus) if v not in subset))
        table = table.reshape(assignment_count(net, hypothesis), -1)
        if self.h_star is None:
            joints = table.sum(axis=1)
            if joints.sum() == 0.0:
                raise InfeasibleQueryError(f"evidence {brief(self._evidence)} has probability zero")
            (self.h_star,), (self.ties,) = _column_argmax(joints.reshape(-1, 1), self._tie_tol)
        h_star = self.h_star
        argmax, ties = _column_argmax(table, self._tie_tol)
        columns = zip(argmax, ties, table[h_star].tolist(), table.sum(axis=0).tolist())

        fold = _Fold()
        for rank, (best, tie, h_star_joint, total) in enumerate(columns):
            if total == 0.0:
                r = assignment_at(net, subset, rank)
                if self._strict_zeros:
                    raise InfeasibleQueryError(
                        f"conditioning assignment {brief(r)} has probability zero under the evidence"
                    )
                fold.skipped.append(r)
                fold.unchanged += 1  # vacuously: an impossible r cannot move the MAP
                continue
            self.ties = self.ties or tie
            if fold.min_joint is None or h_star_joint < fold.min_joint:
                fold.min_joint = h_star_joint
            changed = best != h_star
            if changed and fold.counterexample is None:
                fold.counterexample = assignment_at(net, subset, rank)
                fold.verdict = False
            if not changed:
                fold.unchanged += 1
                fold.mass_num += total
            else:
                fold.hamming_sum += _hamming(net, hypothesis, best, h_star)
            if table_limit is not None and len(fold.rows) < table_limit:
                fold.rows.append(
                    SweepRow(assignment_at(net, subset, rank), assignment_at(net, hypothesis, best), h_star_joint)
                )
            if stop_early and changed:
                break
        return fold


# ---------------------------------------------------------------------------
# public operations


def _check_table_limit(table_limit) -> None:
    if table_limit is None:
        return
    if not isinstance(table_limit, int) or isinstance(table_limit, bool) or table_limit < 0:
        raise InvalidQueryError(f"table_limit must be None or a non-negative integer, got {reprlib.repr(table_limit)}")


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

    Folds one table Pr(H, R, e) through ``_SubsetFolds`` with F = S = R,
    comparing each column's MAP to the reference explanation (the first
    maximiser of its row sums) in canonical order; stops at the first
    counterexample unless a table or metrics were requested.  The metrics
    divide by Pr(e), the one elimination they add: the table's total is
    Pr(e) too, but summed in another order its last digits differ, and
    ``mass`` is reported to 17 significant digits.
    """
    _check_table_limit(table_limit)
    _check_query_values(guard, tie_tol)
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    source = _SubsetFolds(
        net, hypothesis, evidence, focus, guard=guard, tie_tol=tie_tol, strict_zeros=strict_zeros
    )
    fold = source.fold(
        focus, stop_early=short_circuit and not with_metrics and table_limit is None, table_limit=table_limit
    )

    metrics = None
    if with_metrics:
        total = assignment_count(net, focus)
        metrics = Quantification(
            mass=fold.mass_num / marginal(net, evidence, guard=guard),
            proportion=fold.unchanged / total,
            mean_hamming=fold.hamming_sum / total,
        )
    return IndependenceReport(
        mode="strong",
        verdict=fold.verdict,
        witness=assignment_at(net, hypothesis, source.h_star),
        counterexample=fold.counterexample,
        min_joint=fold.min_joint,
        per_assignment=tuple(fold.rows) if table_limit is not None else None,
        skipped=tuple(fold.skipped),
        ties_encountered=source.ties,
        metrics=metrics,
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

    Each focus variable R_i, in canonical order, is folded over its own
    table Pr(H, R_i, e) against the h* of the first fold, so interaction
    effects between focus variables are deliberately not visible here.  The
    tables are sums over one Pr(H, R, e) while that has at most
    ``_JOINT_CELLS`` cells and fits the guard; above that each R_i gets its
    own elimination, so the work grows with the sum of the focus
    cardinalities rather than their product.  The first failing R_i gives
    the counterexample and, unless a table was requested or
    ``short_circuit`` is off, ends the loop.  Table rows follow the focus
    order, up to ``table_limit`` in all.
    """
    _check_table_limit(table_limit)
    _check_query_values(guard, tie_tol)
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    source = _SubsetFolds(
        net, hypothesis, evidence, focus, guard=guard, tie_tol=tie_tol, strict_zeros=strict_zeros
    )
    stop_early = short_circuit and table_limit is None
    folds: list[_Fold] = []
    rows: list[SweepRow] = []
    for var in focus:
        limit = None if table_limit is None else table_limit - len(rows)
        folds.append(source.fold((var,), stop_early=stop_early, table_limit=limit))
        rows += folds[-1].rows
        if stop_early and not folds[-1].verdict:
            break
    counterexample = next((f.counterexample for f in folds if not f.verdict), None)
    return IndependenceReport(
        mode="weak",
        verdict=counterexample is None,
        witness=assignment_at(net, hypothesis, source.h_star),
        counterexample=counterexample,
        per_assignment=tuple(rows) if table_limit is not None else None,
        skipped=tuple(r for f in folds for r in f.skipped),
        ties_encountered=source.ties,
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
    break, so the extension stops as soon as a tie is encountered, in any
    subset folded so far.  Each evaluated subset S is folded over its table
    Pr(H, S, e) against the h* of the first subset evaluated: a sum over
    one table Pr(H, pool, e) while that has at most ``_JOINT_CELLS`` cells
    and fits the guard, else its own elimination.
    """
    _check_query_values(guard, tie_tol)
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidQueryError("k must be an integer")
    hypothesis, evidence, pool = resolve_partition(net, partition)
    if not pool:
        raise InvalidQueryError("candidate pool must be non-empty")
    if not 1 <= k <= len(pool):
        raise InvalidQueryError(f"k must be between 1 and {len(pool)}, got {reprlib.repr(k)}")
    if math.comb(len(pool), k) > guard:
        raise CapacityError(f"C({len(pool)}, {k}) exceeds guard {guard}")
    source = _SubsetFolds(
        net, hypothesis, evidence, pool, guard=guard, tie_tol=tie_tol, strict_zeros=strict_zeros
    )
    failing: list[frozenset[str]] = []

    def independent(subset: tuple[str, ...]) -> bool:
        if not source.fold(subset, stop_early=True).verdict:
            failing.append(frozenset(subset))
            return False
        return True

    best = next((subset for subset in combinations(pool, k) if independent(subset)), None)
    if best is not None:
        for var in pool:
            if source.ties:
                break  # downward closure no longer trustworthy
            if var in best:
                continue
            extended = canonical_vars(net, (*best, var))
            if not any(f.issubset(extended) for f in failing) and independent(extended):
                best = extended

    return IndependenceReport(
        mode="maximum",
        verdict=best is not None,
        witness=assignment_at(net, hypothesis, source.h_star),
        subset=best,
        ties_encountered=source.ties,
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
    MAP).  One table Pr(h_star, R, e) covers all of Omega(R), and the
    answer is read straight off its entries in rank order: the first entry
    not above ``s`` is the counterexample, and the reported minimum joint
    probability is their exact minimum.  Zero-probability assignments
    simply fail the strict comparison.  Only the rows of a requested table
    are decoded into assignments.

    The comparison is exact for a ``Fraction`` s too, yet compares doubles
    only.  With f = float(s), the double nearest s, no double lies strictly
    between s and f; so an entry p exceeds s exactly when p > f if f <= s,
    and when p >= f if f > s.  Which of the two holds is decided once, by
    one exact comparison of f with s.
    """
    _check_table_limit(table_limit)
    _check_query_values(guard)
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if not focus:
        raise InvalidQueryError("focus set must be non-empty")
    if set(h_star) != set(hypothesis):
        raise InvalidQueryError("h_star must assign exactly the hypothesis variables")
    check_assignment(net, h_star)
    if not isinstance(s, (int, float, Fraction)) or isinstance(s, bool):
        raise InvalidQueryError(f"threshold s must be a number, got {reprlib.repr(s)}")
    if not 0 <= s < 1:
        # str(s) cut in the middle when long: reprlib quotes it, and str(s) holds no quote.
        raise InvalidQueryError(f"threshold s must be in [0, 1), got {reprlib.repr(str(s))[1:-1]}")

    joints = joint_table(net, focus, {**evidence, **h_star}, guard=guard).ravel().tolist()
    # A positive entry proves Pr(e) > 0, so only an all-zero table needs Pr(e) itself.
    if evidence and not any(joints) and joint_table(net, (), evidence, guard=guard) == 0.0:
        raise InfeasibleQueryError(f"evidence {brief(evidence)} has probability zero")

    # p > s exactly, as one comparison of doubles (see the docstring).
    bound = float(s)
    above = bound.__lt__ if bound <= s else bound.__le__
    failing_rank = next((rank for rank, p in enumerate(joints) if not above(p)), None)
    rows = None
    if table_limit is not None:
        rows = tuple(
            SweepRow(assignment_at(net, focus, rank), None, p) for rank, p in enumerate(joints[:table_limit])
        )
    return IndependenceReport(
        mode="threshold",
        verdict=failing_rank is None,
        witness={v: h_star[v] for v in hypothesis},
        counterexample=None if failing_rank is None else assignment_at(net, focus, failing_rank),
        min_joint=min(joints),
        per_assignment=rows,
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
        strict_zeros=strict_zeros, with_metrics=True,
    )
    return report.metrics


def relevance_partition(
    net: Network,
    evidence: Mapping[str, str],
    hypothesis,
    candidates,
    *,
    tie_tol: float = DEFAULT_TIE_TOL,
    guard: int = DEFAULT_GUARD,
    strict_zeros: bool = False,
) -> RelevancePartition:
    """Split candidate variables by whether observing them could move the MAP.

    Each candidate is tested on its own, as the weak decider tests it.
    """
    _check_query_values(guard, tie_tol)
    hyp, evidence, cands = resolve_partition(net, QueryPartition(evidence, hypothesis, candidates))
    if not cands:
        return RelevancePartition(relevant=(), irrelevant=(), justification={})
    source = _SubsetFolds(net, hyp, evidence, cands, guard=guard, tie_tol=tie_tol, strict_zeros=strict_zeros)
    justification = {}
    for var in cands:
        fold = source.fold((var,), stop_early=True)
        justification[var] = SingletonFinding(fold.verdict, fold.counterexample)
    relevant = tuple(var for var, finding in justification.items() if not finding.map_independent)
    irrelevant = tuple(var for var, finding in justification.items() if finding.map_independent)
    return RelevancePartition(relevant, irrelevant, justification)
