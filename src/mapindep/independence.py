"""MAP-independence deciders, the threshold variant, and quantification.

A hypothesis H is MAP-independent from a focus set R given evidence e when
the most probable joint value assignment to H stays the same no matter
which value R would have been observed to take.  The strong decider checks
every joint assignment to R; the weak decider checks each focus variable
on its own; the maximum search looks for a largest subset of a candidate
pool from which H is strongly independent.

Every decider first runs ``_resolve``, the one order of checks made before
any elimination: ``table_limit``, ``guard``, the partition, a non-empty
focus.  Every decider but ``threshold`` then folds tables
Pr(H, S, e) from ``inference.joint_table`` for focus subsets S of one set F
(the focus set, the candidates or the pool), through ``_SubsetFolds``, its
one front door.  Strong and quantify fold S = F = R; weak, partition and
maximum fold many subsets.  The first fold builds Pr(H, F, e), and each S's
table is its sum over F minus S.  That holds while the table has at most
``_JOINT_CELLS`` cells and its plan passes the guard; otherwise each S gets
its own elimination, so a focus set too large for one joint table is still
answered variable by variable.
Each column (one assignment s) yields its first maximiser and tie flag, by
the one fixed tie rule of ``inference._column_argmax`` that ``map_solve``
also applies, its total Pr(s, e) and the entry of
the reference explanation h*; the columns are folded in canonical
row-major order, and the first differing assignment is the counterexample.
Zero-probability (s, e) combinations cannot be observed, so by default
they are skipped and listed in the report; ``strict_zeros`` turns them into
an InfeasibleQueryError instead.

h* = argmax_H Pr(H, e) comes from the first subset table a decider folds:
its row sums are Pr(H, e), reduced by the same tie rule, and their total is
Pr(e), so a zero total is the check for infeasible evidence.  It runs
after the guard has passed the table's elimination; every later fold
reuses it, so no decider carries h* itself.  No decider eliminates for h*
or Pr(e) on its own; only quantify's ``mass`` eliminates for Pr(e), and
``threshold``, which has no reference explanation, reads its answer off
one table Pr(h_star, R, e) and checks Pr(e) with a guarded elimination
after it.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .errors import DEFAULT_GUARD, CapacityError, InfeasibleQueryError, InvalidQueryError, brief
from .inference import _check_query_values, _column_argmax, joint_table, marginal
from .model import (
    Assignment,
    Network,
    QueryPartition,
    as_assignment,
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


def _resolve(net, partition, *, guard, table_limit=None, empty="focus set"):
    """The checks every decider shares, in this order and before any work: ``table_limit``,
    ``guard``, the partition (resolved into (hypothesis, evidence, focus)), and a
    non-empty focus, named ``empty`` (``None`` lets an empty focus through)."""
    if table_limit is not None and (
        not isinstance(table_limit, int) or isinstance(table_limit, bool) or table_limit < 0
    ):
        raise InvalidQueryError(f"table_limit must be None or a non-negative integer, got {reprlib.repr(table_limit)}")
    _check_query_values(guard)
    hypothesis, evidence, focus = resolve_partition(net, partition)
    if empty and not focus:
        raise InvalidQueryError(f"{empty} must be non-empty")
    return hypothesis, evidence, focus


class _SubsetFolds:
    """Folds of Pr(H, S, e), axes H then S, for focus subsets S of one set F.

    Every decider but ``threshold`` enters here: construction runs ``_resolve``
    and sets ``hypothesis``, ``evidence`` and ``focus`` F, with no elimination.
    Strong and quantify fold S = F = R once; weak, partition and maximum fold
    many subsets of F.  While |Omega(H)| * |Omega(F)| is at most ``_JOINT_CELLS``
    and the guard, and the plan of Pr(H, F, e) passes the guard, the first fold
    builds that one table and each S's table is its sum over F minus S (for
    S = F, an exact copy); otherwise each fold eliminates for S alone, so a
    focus set too large for one table is still answered.  The first fold finds
    h*, which every later fold reuses; ``h_star`` and ``ties`` (any tie seen so
    far, h*'s own included) are read off after the folds, or by ``report``.
    """

    def __init__(self, net, partition, *, guard, strict_zeros, table_limit=None, empty="focus set"):
        self.hypothesis, self.evidence, self.focus = _resolve(
            net, partition, guard=guard, table_limit=table_limit, empty=empty
        )
        self.h_star: int | None = None
        self.ties = False
        self._net = net
        self._guard = guard
        self._strict_zeros = strict_zeros
        self._joint = None

    def fold(self, subset: tuple[str, ...], *, stop_early: bool, table_limit: int | None = None) -> _Fold:
        """Fold the columns of Pr(H, S, e), S = ``subset``, in canonical rank order.

        Each column gives its first maximiser and tie flag (``_column_argmax``),
        Pr(h*, s, e) and its total Pr(s, e); the first column whose maximiser
        is not h* is the counterexample, and ``stop_early`` ends the fold there.
        At most ``table_limit`` columns are decoded into rows.  The first fold
        sets h* to the first maximiser of the row sums Pr(H, e), whose tie
        flag starts ``ties``; a zero total means Pr(e) = 0.
        """
        net, hypothesis, focus = self._net, self.hypothesis, self.focus
        if self.h_star is None and assignment_count(net, hypothesis + focus) <= min(_JOINT_CELLS, self._guard):
            try:
                self._joint = joint_table(net, hypothesis + focus, self.evidence, guard=self._guard)
            except CapacityError:
                pass
        if self._joint is None:
            table = joint_table(net, hypothesis + subset, self.evidence, guard=self._guard)
        else:
            first = len(hypothesis)
            table = self._joint.sum(axis=tuple(first + i for i, v in enumerate(focus) if v not in subset))
        table = table.reshape(assignment_count(net, hypothesis), -1)
        if self.h_star is None:
            joints = table.sum(axis=1)
            if joints.sum() == 0.0:
                raise InfeasibleQueryError(f"evidence {brief(self.evidence)} has probability zero")
            (self.h_star,), (self.ties,) = _column_argmax(joints.reshape(-1, 1))
        h_star = self.h_star
        argmax, ties = _column_argmax(table)
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

    def report(self, mode: str, folds: list[_Fold], table_limit: int | None, **fields) -> IndependenceReport:
        """Strong's or weak's report of ``folds``: the first counterexample, rows and skipped
        assignments in fold order, h* as the witness, and the mode's own ``fields``."""
        counterexample = next((f.counterexample for f in folds if not f.verdict), None)
        return IndependenceReport(
            mode=mode,
            verdict=counterexample is None,
            witness=assignment_at(self._net, self.hypothesis, self.h_star),
            counterexample=counterexample,
            per_assignment=None if table_limit is None else tuple(r for f in folds for r in f.rows),
            skipped=tuple(r for f in folds for r in f.skipped),
            ties_encountered=self.ties,
            **fields,
        )


# ---------------------------------------------------------------------------
# public operations


def strong_map_independence(
    net: Network,
    partition: QueryPartition,
    *,
    guard: int = DEFAULT_GUARD,
    table_limit: int | None = None,
    strict_zeros: bool = False,
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
    source = _SubsetFolds(net, partition, guard=guard, strict_zeros=strict_zeros, table_limit=table_limit)
    fold = source.fold(source.focus, stop_early=not with_metrics and table_limit is None, table_limit=table_limit)

    metrics = None
    if with_metrics:
        total = assignment_count(net, source.focus)
        metrics = Quantification(
            mass=fold.mass_num / marginal(net, source.evidence, guard=guard),
            proportion=fold.unchanged / total,
            mean_hamming=fold.hamming_sum / total,
        )
    return source.report("strong", [fold], table_limit, min_joint=fold.min_joint, metrics=metrics)


def weak_map_independence(
    net: Network,
    partition: QueryPartition,
    *,
    guard: int = DEFAULT_GUARD,
    table_limit: int | None = None,
    strict_zeros: bool = False,
) -> IndependenceReport:
    """Strong MAP-independence checked per focus variable, one at a time.

    Each focus variable R_i, in canonical order, is folded over its own
    table Pr(H, R_i, e) against the h* of the first fold, so interaction
    effects between focus variables are deliberately not visible here.  The
    tables are sums over one Pr(H, R, e) while that has at most
    ``_JOINT_CELLS`` cells and fits the guard; above that each R_i gets its
    own elimination, so the work grows with the sum of the focus
    cardinalities rather than their product.  The first failing R_i gives
    the counterexample and, unless a table was requested, ends the loop.
    Table rows follow the focus order, up to ``table_limit`` in all.
    """
    source = _SubsetFolds(net, partition, guard=guard, strict_zeros=strict_zeros, table_limit=table_limit)
    stop_early = table_limit is None
    folds: list[_Fold] = []
    for var in source.focus:
        limit = None if table_limit is None else table_limit - sum(len(f.rows) for f in folds)
        folds.append(source.fold((var,), stop_early=stop_early, table_limit=limit))
        if stop_early and not folds[-1].verdict:
            break
    return source.report("weak", folds, table_limit)


def maximum_map_independence(
    net: Network,
    partition: QueryPartition,
    k: int,
    *,
    guard: int = DEFAULT_GUARD,
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
    source = _SubsetFolds(net, partition, guard=guard, strict_zeros=strict_zeros, empty="candidate pool")
    pool = source.focus
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidQueryError("k must be an integer")
    if not 1 <= k <= len(pool):
        raise InvalidQueryError(f"k must be between 1 and {len(pool)}, got {reprlib.repr(k)}")
    if math.comb(len(pool), k) > guard:
        raise CapacityError(f"C({len(pool)}, {k}) exceeds guard {guard}")
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
        witness=assignment_at(net, source.hypothesis, source.h_star),
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
    hypothesis, evidence, focus = _resolve(net, partition, guard=guard, table_limit=table_limit)
    h_star = as_assignment(h_star)
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
    guard: int = DEFAULT_GUARD,
    strict_zeros: bool = False,
) -> Quantification:
    """Quantified MAP-independence of the focus set: mass, proportion, mean Hamming."""
    report = strong_map_independence(net, partition, guard=guard, strict_zeros=strict_zeros, with_metrics=True)
    return report.metrics


def relevance_partition(
    net: Network,
    evidence: Mapping[str, str],
    hypothesis,
    candidates,
    *,
    guard: int = DEFAULT_GUARD,
    strict_zeros: bool = False,
) -> RelevancePartition:
    """Split candidate variables by whether observing them could move the MAP.

    Each candidate is tested on its own, as the weak decider tests it.
    """
    source = _SubsetFolds(
        net, QueryPartition(evidence, hypothesis, candidates),
        guard=guard, strict_zeros=strict_zeros, empty=None,
    )
    justification = {}
    for var in source.focus:
        fold = source.fold((var,), stop_early=True)
        justification[var] = SingletonFinding(fold.verdict, fold.counterexample)
    relevant = tuple(var for var, finding in justification.items() if not finding.map_independent)
    irrelevant = tuple(var for var, finding in justification.items() if finding.map_independent)
    return RelevancePartition(relevant, irrelevant, justification)
