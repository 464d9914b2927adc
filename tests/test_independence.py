import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from mapindep import independence, inference
from mapindep.errors import CapacityError, InfeasibleQueryError, InvalidQueryError
from mapindep.independence import (
    maximum_map_independence,
    quantify,
    relevance_partition,
    strong_map_independence,
    threshold_map_independence,
    weak_map_independence,
)
from mapindep.inference import map_solve
from mapindep.model import Cpt, Network, QueryPartition, Variable, assignment_at, d_separated
from conftest import gated_network
from netgen import dyadic_network, random_binary_network, random_network, random_partition
from oracles import brute_columns, brute_marginal, brute_quantify, brute_strong, brute_weak

JOINT_TABLE = inference.joint_table

TF = ("T", "F")


def part(evidence, hypothesis, focus):
    return QueryPartition(evidence=evidence, hypothesis=hypothesis, focus=focus)


# ---------------------------------------------------------------------------
# strong


def test_strong_fig1b_singletons(fig1b):
    assert strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B",))).verdict is True
    assert strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("E",))).verdict is True


def test_strong_fig1b_pair_interaction(fig1b):
    report = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
    assert report.verdict is False
    assert report.counterexample == {"B": "T", "E": "T"}
    assert report.witness == {"A": "F"}
    assert report.ties_encountered is False
    assert report.warning is None


def test_strong_fig1a_dseparated_focus(fig1a):
    assert strong_map_independence(fig1a, part({"C": "T"}, ("A",), ("D",))).verdict is True


def test_strong_counterexample_present_iff_false(fig1b):
    true_report = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B",)))
    assert true_report.counterexample is None
    false_report = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
    assert false_report.counterexample is not None


def test_strong_requires_focus(fig1b):
    with pytest.raises(InvalidQueryError):
        strong_map_independence(fig1b, part({"C": "T"}, ("A",), ()))


def test_strong_guard(fig1b):
    with pytest.raises(CapacityError):
        strong_map_independence(fig1b, part({}, ("A",), ("B", "C", "E")), guard=7)


def test_strong_guard_bounds_the_table():
    # |Omega(H)| = 4 and |Omega(R)| = 8 each pass guard 16; their 32-cell table does not.
    net = random_binary_network(random.Random(5), 6)
    names = net.names
    p = part({}, names[:2], names[2:5])
    with pytest.raises(CapacityError):
        strong_map_independence(net, p, guard=16)
    assert strong_map_independence(net, p, guard=32).witness


def test_strong_guard_bounds_intermediate_factors():
    # Five roots feed one child C: the (H, R) table has 4 cells, but with C
    # observed every elimination of a root builds a product that keeps H and R.
    roots = ("H", "R", "Y1", "Y2", "Y3")
    net = Network(
        "wide",
        tuple(Variable(v, TF) for v in (*roots, "C")),
        (
            *(Cpt(v, (), ((0.6, 0.4),)) for v in roots),
            Cpt("C", roots, tuple((0.9, 0.1) if i % 3 else (0.2, 0.8) for i in range(32))),
        ),
    )

    def answer(evidence, guard=inference.DEFAULT_GUARD):
        return strong_map_independence(net, part(evidence, ("H",), ("R",)), guard=guard)

    # Observed, C stays in the elimination; unobserved, it is barren and pruned.
    with pytest.raises(CapacityError, match="^elimination table of 32 entries exceeds guard 16$"):
        answer({"C": "T"}, guard=16)
    assert answer({"C": "T"}, guard=64) == answer({"C": "T"})
    assert answer({}, guard=16) == answer({})
    assert answer({}).verdict


def test_strong_zero_probability_focus_assignments_skipped():
    net = gated_network()
    report = strong_map_independence(net, part({"E": "T"}, ("H",), ("R",)))
    assert report.verdict is True
    assert report.skipped == ({"R": "F"},)


def test_strong_strict_zeros_fails_instead():
    net = gated_network()
    with pytest.raises(InfeasibleQueryError):
        strong_map_independence(net, part({"E": "T"}, ("H",), ("R",)), strict_zeros=True)


def test_strong_infeasible_evidence():
    net = Network(
        "gated_plus",
        (Variable("E", TF), Variable("R", TF), Variable("H", TF), Variable("X", TF)),
        (
            Cpt("E", (), ((0.5, 0.5),)),
            Cpt("R", ("E",), ((1.0, 0.0), (0.0, 1.0))),
            Cpt("H", (), ((0.7, 0.3),)),
            Cpt("X", (), ((0.4, 0.6),)),
        ),
    )
    with pytest.raises(InfeasibleQueryError):
        strong_map_independence(net, part({"E": "T", "R": "F"}, ("H",), ("X",)))


def test_strong_table_and_cap(fig1b):
    report = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), table_limit=10)
    assert len(report.per_assignment) == 4
    first = report.per_assignment[0]
    assert first.assignment == {"B": "T", "E": "T"}
    assert first.map_assignment == {"A": "T"}
    # Pr(A=F, B=T, E=T, C=T) = 0.5 * 0.6 * 0.4 * 0.4
    assert first.h_star_joint == pytest.approx(0.048, abs=1e-12)
    capped = strong_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), table_limit=2)
    assert len(capped.per_assignment) == 2


def test_strong_matches_brute_definition_check():
    rng = random.Random(101)
    for _ in range(25):
        net = random_binary_network(rng, rng.randint(4, 9))
        partition = random_partition(rng, net, n_focus=rng.randint(1, 3))
        report = strong_map_independence(net, partition)
        hyp, evidence, focus = (
            report.witness.keys(),
            partition.evidence,
            tuple(sorted(partition.focus, key=net.declaration_index)),
        )
        verdict, counterexample = brute_strong(net, tuple(hyp), dict(evidence), focus)
        assert report.verdict == verdict
        assert report.counterexample == counterexample


# ---------------------------------------------------------------------------
# weak


def test_weak_fig1b_pair(fig1b):
    report = weak_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
    assert report.verdict is True
    assert report.counterexample is None


def test_weak_fig1a_default_value_flip(fig1a):
    report = weak_map_independence(fig1a, part({"C": "T"}, ("A",), ("B",)))
    assert report.verdict is False
    assert report.counterexample == {"B": "T"}


def test_weak_fig1a_dseparated(fig1a):
    assert weak_map_independence(fig1a, part({"C": "T"}, ("A",), ("D",))).verdict is True


def test_weak_at_most_linear_in_focus_values(fig1b):
    # Table rows bound the sweep: two per binary focus variable.
    report = weak_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), table_limit=100)
    assert len(report.per_assignment) == 4


def test_weak_decodes_only_the_rows_it_reports(monkeypatch):
    # Ten binary focus children of H and a table of 8: the rows are the
    # first four variables' two each, and no later fold decodes any.
    focus = tuple(f"R{i}" for i in range(10))
    net = Network(
        "ten_children",
        (Variable("H", TF), *(Variable(r, TF) for r in focus)),
        (Cpt("H", (), ((0.6, 0.4),)), *(Cpt(r, ("H",), ((0.7, 0.3), (0.4, 0.6))) for r in focus)),
    )
    built = []
    sweep_row = independence.SweepRow

    def counting(*args):
        built.append(sweep_row(*args))
        return built[-1]

    monkeypatch.setattr(independence, "SweepRow", counting)
    report = weak_map_independence(net, part({}, ("H",), focus), table_limit=8)
    assert [row.assignment for row in report.per_assignment] == [
        {r: state} for r in focus[:4] for state in TF
    ]
    assert built == list(report.per_assignment)


def test_weak_full_sweep_keeps_first_counterexample():
    # Both focus variables flip the MAP; with a table requested the sweep
    # covers everything but must still report the canonical-first failure.
    net = Network(
        "double_flip",
        (Variable("R1", TF), Variable("R2", TF), Variable("H", TF)),
        (
            Cpt("R1", (), ((0.5, 0.5),)),
            Cpt("R2", (), ((0.5, 0.5),)),
            Cpt("H", ("R1", "R2"), ((0.9, 0.1), (0.4, 0.6), (0.4, 0.6), (0.1, 0.9))),
        ),
    )
    short = weak_map_independence(net, part({}, ("H",), ("R1", "R2")))
    full = weak_map_independence(net, part({}, ("H",), ("R1", "R2")), table_limit=100)
    assert short.verdict is full.verdict is False
    assert short.counterexample == full.counterexample == {"R1": "T"}
    assert len(full.per_assignment) == 4


def test_singleton_collapse_on_named_fixtures(fig1a, fig1b):
    for net, focus in ((fig1a, "B"), (fig1a, "D"), (fig1b, "B"), (fig1b, "E")):
        p = part({"C": "T"}, ("A",), (focus,))
        assert strong_map_independence(net, p).verdict == weak_map_independence(net, p).verdict


# ---------------------------------------------------------------------------
# maximum


def test_maximum_fig1b(fig1b):
    report = maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 1)
    assert report.verdict is True
    assert report.subset == ("B",)
    report = maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 2)
    assert report.verdict is False
    assert report.subset is None


def test_maximum_fig1a_picks_qualifying_singleton(fig1a):
    report = maximum_map_independence(fig1a, part({"C": "T"}, ("A",), ("B", "D")), 1)
    assert report.verdict is True
    assert report.subset == ("D",)


def test_maximum_greedy_extension_grows_to_maximal():
    # Three independent root variables never move H's MAP, so k=1 extends to all three.
    rng = random.Random(7)
    net = Network(
        "pool",
        (Variable("H", TF), Variable("X", TF), Variable("Y", TF), Variable("Z", TF)),
        (
            Cpt("H", (), ((0.8, 0.2),)),
            Cpt("X", (), ((0.5, 0.5),)),
            Cpt("Y", (), ((0.3, 0.7),)),
            Cpt("Z", (), ((0.6, 0.4),)),
        ),
    )
    report = maximum_map_independence(net, part({}, ("H",), ("X", "Y", "Z")), 1)
    assert report.verdict is True
    assert report.subset == ("X", "Y", "Z")


def test_maximum_greedy_extension_stops_at_a_tie():
    # Pr(H=T, Y=T) = 0.75 * 0.25 = Pr(H=F, Y=T) = 0.25 * 0.75, exactly: adding Y ties a
    # column.  The extension keeps {X, Y} (h* is still the first maximiser) and then
    # stops, so Z, which would also qualify, is never tried.
    net = Network(
        "tie",
        (Variable("H", TF), Variable("X", TF), Variable("Y", TF), Variable("Z", TF)),
        (
            Cpt("H", (), ((0.75, 0.25),)),
            Cpt("X", (), ((0.5, 0.5),)),
            Cpt("Y", ("H",), ((0.25, 0.75), (0.75, 0.25))),
            Cpt("Z", (), ((0.25, 0.75),)),
        ),
    )
    report = maximum_map_independence(net, part({}, ("H",), ("X", "Y", "Z")), 1)
    assert report.verdict is True
    assert report.subset == ("X", "Y")
    assert report.ties_encountered is True
    assert report.warning is not None


def test_maximum_k_bounds(fig1b):
    with pytest.raises(InvalidQueryError):
        maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 0)
    with pytest.raises(InvalidQueryError):
        maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 3)


def test_maximum_combinatorial_guard():
    rng = random.Random(13)
    net = random_binary_network(rng, 12)
    names = list(net.names)
    p = part({}, (names[0],), tuple(names[1:11]))
    with pytest.raises(CapacityError):
        maximum_map_independence(net, p, 5, guard=100)


# ---------------------------------------------------------------------------
# threshold


def test_threshold_fn_ter(fn_ter):
    p = part({}, ("H",), ("R",))
    report = threshold_map_independence(fn_ter, {"H": "h1"}, p, 0.22)
    assert report.verdict is False
    assert report.counterexample == {"R": "F"}
    assert report.min_joint == pytest.approx(0.22, abs=1e-15)
    assert threshold_map_independence(fn_ter, {"H": "h1"}, p, 0.1875).verdict is True


def test_threshold_zero_s_with_positive_joints(fn_bin):
    p = part({}, ("H",), ("R",))
    assert threshold_map_independence(fn_bin, {"H": "T"}, p, 0.0).verdict is True


def test_threshold_suitable_s_separates_claims(fn_bin):
    # Pr(H, r) is 0.255 for the true per-value MAP and 0.245 for the other
    # assignment, so any s in between tells them apart.
    p = part({}, ("H",), ("R",))
    s = Fraction(1, 4)
    assert threshold_map_independence(fn_bin, {"H": "T"}, p, s).verdict is True
    assert threshold_map_independence(fn_bin, {"H": "F"}, p, s).verdict is False


def test_threshold_validates_h_star_and_s(fn_ter):
    p = part({}, ("H",), ("R",))
    with pytest.raises(InvalidQueryError):
        threshold_map_independence(fn_ter, {"R": "T"}, p, 0.1)
    with pytest.raises(InvalidQueryError):
        threshold_map_independence(fn_ter, {"H": "h1"}, p, 1.0)
    with pytest.raises(InvalidQueryError, match="^focus set must be non-empty$"):
        threshold_map_independence(fn_ter, {"H": "h1"}, part({}, ("H",), ()), 0.1)


def test_threshold_table(fn_ter):
    p = part({}, ("H",), ("R",))
    report = threshold_map_independence(fn_ter, {"H": "h1"}, p, 0.1, table_limit=10)
    assert [row.h_star_joint for row in report.per_assignment] == [
        pytest.approx(0.28, abs=1e-15),
        pytest.approx(0.22, abs=1e-15),
    ]
    assert all(row.map_assignment is None for row in report.per_assignment)


def test_threshold_comparison_is_exact_for_every_s():
    # Each s sits exactly on an entry p of the table, a hair (2^-60 to
    # 2^-120 relative, below half an ulp) below or above it, one double away,
    # or at a non-dyadic fraction.  The hair below rounds up to p itself, so
    # the entry p > s holds only if the rule compares p >= float(s) there.
    rng = random.Random(1853)
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 7), max_states=3)
        partition = random_partition(rng, net, rng.randint(0, 1), 1, rng.randint(1, 2))
        h_star = {h: rng.choice(net.variable(h).states) for h in partition.hypothesis}
        focus = tuple(v for v in net.names if v in partition.focus)
        if inference.marginal(net, partition.evidence) == 0.0:
            continue
        joints = inference.joint_table(net, focus, {**partition.evidence, **h_star}).ravel().tolist()
        for p in rng.sample(joints, min(3, len(joints))):
            hair = Fraction(1, 2 ** rng.randint(60, 120))
            for s in (
                Fraction(p), Fraction(p) * (1 - hair), Fraction(p) * (1 + hair),
                p, math.nextafter(p, 0.0), math.nextafter(p, 1.0),
                Fraction(rng.randint(1, 999), 1000), Fraction(1, 3),
            ):
                if not 0 <= s < 1:
                    continue
                report = threshold_map_independence(net, h_star, partition, s)
                failing = next((rank for rank, q in enumerate(joints) if not Fraction(q) > Fraction(s)), None)
                assert report.verdict is (failing is None)
                expected = None if failing is None else assignment_at(net, focus, failing)
                assert report.counterexample == expected


def test_bad_query_values_are_invalid_queries(fig1b):
    # A negative or fractional table_limit would slice the table, and a k or s
    # of the wrong type would end in TypeError (a bool k would count as 0 or 1).
    p = part({"C": "T"}, ("A",), ("B", "E"))

    def threshold(s=0.1, **kwargs):
        return threshold_map_independence(fig1b, {"A": "T"}, p, s, **kwargs)

    for decide in (partial(strong_map_independence, fig1b, p), partial(weak_map_independence, fig1b, p), threshold):
        for limit in (-1, 1.5, True):
            with pytest.raises(InvalidQueryError, match="^table_limit must be None or a non-negative integer"):
                decide(table_limit=limit)
        rows = decide(table_limit=4).per_assignment
        assert len(rows) == 4
        assert decide(table_limit=1).per_assignment == rows[:1]
        assert decide(table_limit=0).per_assignment == ()
    for k in (1.0, "1", True):
        with pytest.raises(InvalidQueryError, match="^k must be an integer$"):
            maximum_map_independence(fig1b, p, k)
    for s in ("0.1", None, True):
        with pytest.raises(InvalidQueryError, match="^threshold s must be a number"):
            threshold(s)
    assert threshold(Fraction(1, 10)) == threshold(0.1)
    # A guard or tie_tol of the wrong type ended in TypeError or was read as a
    # number, and a negative or NaN tie_tol flagged no tie.
    with_tie_tol = [
        partial(strong_map_independence, fig1b, p),
        partial(weak_map_independence, fig1b, p),
        partial(maximum_map_independence, fig1b, p, 1),
        partial(quantify, fig1b, p),
        partial(relevance_partition, fig1b, {"C": "T"}, ("A",), ("B", "E")),
        partial(map_solve, fig1b, ("A",), {"C": "T"}),
    ]
    guarded = [
        *with_tie_tol,
        threshold,
        partial(inference.marginal, fig1b, {"C": "T"}),
        partial(inference.posterior, fig1b, {"A": "T"}, {"C": "T"}),
        partial(inference.candidate_joints, fig1b, ("A",), {"C": "T"}),
    ]
    for call in guarded:
        for guard in (None, "x", True, 1.5, -1):
            with pytest.raises(InvalidQueryError, match="^guard must be a non-negative integer"):
                call(guard=guard)
    for call in with_tie_tol:
        for tie_tol in ("x", None, True, -1e-9, math.nan, math.inf):
            with pytest.raises(InvalidQueryError, match="^tie_tol must be a finite non-negative number"):
                call(tie_tol=tie_tol)
    assert map_solve(fig1b, ("A",), {"C": "T"}, tie_tol=0) == map_solve(fig1b, ("A",), {"C": "T"}, tie_tol=0.0)


# ---------------------------------------------------------------------------
# quantification


def test_quantify_fig1b(fig1b):
    metrics = quantify(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
    assert metrics.proportion == pytest.approx(0.75, abs=1e-9)
    assert metrics.mass == pytest.approx(0.76, abs=1e-9)
    assert metrics.mean_hamming == pytest.approx(0.25, abs=1e-9)


def test_quantify_strongly_independent_focus(fig1a):
    metrics = quantify(fig1a, part({"C": "T"}, ("A",), ("D",)))
    assert metrics.mass == pytest.approx(1.0, abs=1e-9)
    assert metrics.proportion == 1.0
    assert metrics.mean_hamming == 0.0


def test_quantify_consistent_with_verdict():
    rng = random.Random(211)
    for _ in range(20):
        net = random_binary_network(rng, rng.randint(4, 9))
        partition = random_partition(rng, net, n_focus=rng.randint(1, 3))
        verdict = strong_map_independence(net, partition).verdict
        metrics = quantify(net, partition)
        assert verdict == (metrics.proportion == 1.0)
        assert verdict == (abs(metrics.mass - 1.0) <= 1e-9)
        assert verdict == (metrics.mean_hamming == 0.0)


def with_deterministic_rows(rng, net, share):
    """``net`` with about ``share`` of its CPT rows made one-hot, so some
    focus assignments get probability zero under the evidence."""
    def row(r):
        if rng.random() >= share:
            return r
        hot = rng.randrange(len(r))
        return tuple(1.0 if i == hot else 0.0 for i in range(len(r)))

    cpts = tuple(Cpt(c.child, c.parents, tuple(row(r) for r in c.rows)) for c in net.cpts)
    return Network(net.name, net.variables, cpts)


def test_quantify_matches_brute_force_with_several_hypothesis_variables():
    # |H| = 2-3 over 2-3 states each, so the Hamming distance is read off
    # mixed-radix ranks; a third of the CPT rows are one-hot, so skipped
    # assignments and zero evidence occur too.
    rng = random.Random(419)
    checked = skipped = flips = 0
    for _ in range(40):
        net = with_deterministic_rows(rng, random_network(rng, rng.randint(5, 7), max_states=3), 0.3)
        partition = random_partition(rng, net, n_evidence=rng.randint(0, 1),
                                     n_hypothesis=rng.randint(2, 3), n_focus=rng.randint(1, 2))
        hyp = tuple(sorted(partition.hypothesis, key=net.declaration_index))
        focus = tuple(sorted(partition.focus, key=net.declaration_index))
        h_star, records = brute_columns(net, hyp, partition.evidence, focus)
        if sum(total for _, total, _, _ in records) == 0.0:
            with pytest.raises(InfeasibleQueryError):
                quantify(net, partition)
            continue
        mass, proportion, mean_hamming = brute_quantify(net, hyp, partition.evidence, focus)
        metrics = quantify(net, partition)
        assert metrics.mass == pytest.approx(mass, abs=1e-9)
        assert metrics.proportion == proportion
        assert metrics.mean_hamming == pytest.approx(mean_hamming, abs=1e-12)

        limit = rng.randint(0, 4)
        report = strong_map_independence(net, partition, table_limit=limit, short_circuit=False,
                                         with_metrics=True)
        assert report.witness == h_star
        assert (report.verdict, report.counterexample) == brute_strong(net, hyp, partition.evidence, focus)
        assert list(report.skipped) == [r for r, total, _, _ in records if total == 0.0]
        expected_rows = [(r, best, joint) for r, total, best, joint in records if total != 0.0][:limit]
        assert [(row.assignment, row.map_assignment) for row in report.per_assignment] == [
            (r, best) for r, best, _ in expected_rows
        ]
        for row, (_, _, joint) in zip(report.per_assignment, expected_rows):
            assert row.h_star_joint == pytest.approx(joint, abs=1e-12)
        checked += 1
        skipped += bool(report.skipped)
        flips += mean_hamming > 0
    assert checked >= 30 and skipped >= 10 and flips >= 15


def test_dyadic_networks_agree_exactly_with_the_oracles():
    # Entries in {0, 1/4, 1/2, 3/4, 1} make every sum exact, so at tie_tol=0
    # exact ties and skipped columns are common and the answers must equal
    # the oracles' to the bit.
    infeasible = ties = skipped = refuted = 0
    for seed in range(300):
        rng = random.Random(f"dyadic:{seed}")
        net = dyadic_network(rng, rng.randint(3, 7))
        partition = random_partition(rng, net, n_evidence=rng.randint(0, 2),
                                     n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(1, 3))
        hyp = tuple(sorted(partition.hypothesis, key=net.declaration_index))
        focus = tuple(sorted(partition.focus, key=net.declaration_index))
        evidence = partition.evidence
        deciders = (strong_map_independence, weak_map_independence, quantify)
        if brute_marginal(net, evidence) == 0.0:
            for decide in deciders:
                with pytest.raises(InfeasibleQueryError):
                    decide(net, partition, tie_tol=0)
            infeasible += 1
            continue
        strong, weak, metrics = (decide(net, partition, tie_tol=0) for decide in deciders)
        h_star, records = brute_columns(net, hyp, evidence, focus)
        assert strong.witness == weak.witness == h_star
        assert (strong.verdict, strong.counterexample) == brute_strong(net, hyp, evidence, focus)
        assert (weak.verdict, weak.counterexample) == brute_weak(net, hyp, evidence, focus)
        assert (metrics.mass, metrics.proportion, metrics.mean_hamming) == brute_quantify(net, hyp, evidence, focus)
        full = strong_map_independence(net, partition, tie_tol=0, short_circuit=False)
        assert list(full.skipped) == [r for r, total, _, _ in records if total == 0.0]
        full_weak = weak_map_independence(net, partition, tie_tol=0, short_circuit=False)
        assert list(full_weak.skipped) == [
            r for var in focus for r, total, _, _ in brute_columns(net, hyp, evidence, (var,))[1] if total == 0.0
        ]
        ties += full.ties_encountered
        skipped += bool(full.skipped)
        refuted += not strong.verdict
    assert infeasible >= 20 and ties >= 50 and skipped >= 100 and refuted >= 40


def test_quantify_with_skipped_assignments_stays_consistent():
    net = gated_network()
    metrics = quantify(net, part({"E": "T"}, ("H",), ("R",)))
    assert metrics.proportion == 1.0
    assert metrics.mass == pytest.approx(1.0, abs=1e-9)
    assert metrics.mean_hamming == 0.0


# ---------------------------------------------------------------------------
# relevance partition


def test_relevance_fig1a(fig1a):
    parts = relevance_partition(fig1a, {"C": "T"}, ("A",), ("B", "D"))
    assert parts.relevant == ("B",)
    assert parts.irrelevant == ("D",)
    assert parts.justification["B"].map_independent is False
    assert parts.justification["B"].counterexample == {"B": "T"}
    assert parts.justification["D"].map_independent is True


def test_relevance_fig1b(fig1b):
    parts = relevance_partition(fig1b, {"C": "T"}, ("A",), ("B", "E"))
    assert parts.relevant == ()
    assert parts.irrelevant == ("B", "E")


def test_relevance_empty_candidates(fig1b):
    parts = relevance_partition(fig1b, {"C": "T"}, ("A",), ())
    assert parts.relevant == ()
    assert parts.irrelevant == ()


# ---------------------------------------------------------------------------
# one table per query


@pytest.fixture
def tables(monkeypatch):
    """Kept variables of every table built, in call order, from both modules."""
    built = []

    def counting(net, keep, partial, **kwargs):
        built.append(tuple(keep))
        return JOINT_TABLE(net, keep, partial, **kwargs)

    monkeypatch.setattr(inference, "joint_table", counting)
    monkeypatch.setattr(independence, "joint_table", counting)
    return built


# No decider builds a table over H alone: h* and the Pr(e) = 0 check come
# from the row sums of its first table Pr(H, S, e).  Quantify adds Pr(e)
# (keep ()) for its mass.


def test_strong_and_quantify_build_one_table(fig1b, tables):
    p = part({"C": "T"}, ("A",), ("E", "B"))
    strong_map_independence(fig1b, p, short_circuit=False)
    assert tables == [("A", "B", "E")]
    tables.clear()
    quantify(fig1b, p)
    assert tables == [("A", "B", "E"), ()]


def test_threshold_builds_one_table(fn_ter, fig1b, tables):
    # A positive entry of the table proves Pr(e) > 0, so Pr(e) is not eliminated.
    threshold_map_independence(fn_ter, {"H": "h1"}, part({}, ("H",), ("R",)), 0.1)
    assert tables == [("R",)]
    tables.clear()
    threshold_map_independence(fig1b, {"A": "T"}, part({"C": "T"}, ("A",), ("E", "B")), 0.1)
    assert tables == [("B", "E")]


def test_threshold_eliminates_pr_e_for_an_all_zero_table(tables):
    # H = F is impossible, so the table Pr(H=F, R, E=T) is all zeros while
    # Pr(E=T) = 0.5: the query answers false instead of raising.
    net = Network(
        "certain-h",
        (Variable("E", TF), Variable("H", TF), Variable("R", TF)),
        (
            Cpt("E", (), ((0.5, 0.5),)),
            Cpt("H", (), ((1.0, 0.0),)),
            Cpt("R", ("H",), ((0.9, 0.1), (0.2, 0.8))),
        ),
    )
    report = threshold_map_independence(net, {"H": "F"}, part({"E": "T"}, ("H",), ("R",)), 0.1)
    assert (report.verdict, report.counterexample, report.min_joint) == (False, {"R": "T"}, 0.0)
    assert tables == [("R",), ()]


def test_threshold_over_guard_forms_no_product(fig1b, monkeypatch):
    products = []
    product = inference._product

    def counting(factors, scope, cards):
        products.append(scope)
        return product(factors, scope, cards)

    monkeypatch.setattr(inference, "_product", counting)
    with pytest.raises(CapacityError):
        threshold_map_independence(fig1b, {"A": "T"}, part({"C": "T"}, ("A",), ("E", "B")), 0.1, guard=3)
    assert products == []


# Weak, partition and maximum sum every focus subset's table out of one
# table Pr(H, F, e) over the focus set, the candidates or the pool.


def test_weak_and_partition_build_one_table(fig1b, tables):
    weak_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")))
    assert tables == [("A", "B", "E")]
    tables.clear()
    relevance_partition(fig1b, {"C": "T"}, ("A",), ("B", "E"))
    assert tables == [("A", "B", "E")]


def test_maximum_builds_one_table(fig1b, tables):
    # (B,) qualifies and the extension (B, E) is evaluated and fails.
    maximum_map_independence(fig1b, part({"C": "T"}, ("A",), ("B", "E")), 1)
    assert tables == [("A", "B", "E")]


def naive_bayes_network():
    # H with an observed child E and three focus children: R1 barely depends
    # on H, while R2 and R3 = F each overturn the prior MAP H = T.  Every
    # other child is barren for a table over H and one or two focus
    # children, so those tables have 4 or 8 entries and their products no
    # more; the table over all three has 16.
    weak_link = ((0.5, 0.5), (0.52, 0.48))
    strong_link = ((0.9, 0.1), (0.1, 0.9))
    return Network(
        "naive",
        (Variable("H", TF), Variable("E", TF), Variable("R1", TF), Variable("R2", TF), Variable("R3", TF)),
        (
            Cpt("H", (), ((0.6, 0.4),)),
            Cpt("E", ("H",), ((0.7, 0.3), (0.4, 0.6))),
            Cpt("R1", ("H",), weak_link),
            Cpt("R2", ("H",), strong_link),
            Cpt("R3", ("H",), strong_link),
        ),
    )


def comparable(report):
    return (report.verdict, report.witness, report.counterexample, report.subset,
            report.skipped, report.ties_encountered)


def test_subsets_get_their_own_tables_above_the_guard(tables):
    # The 16-entry table over H, R1, R2, R3 is past guard 8, so it is never
    # planned; every subset's table fits the guard, and each subset is then
    # answered from its own elimination, as the default guard answers it
    # from sums over the one table.
    net = naive_bayes_network()
    p = part({"E": "T"}, ("H",), ("R1", "R2", "R3"))
    weak = weak_map_independence(net, p, guard=8)
    assert tables == [("H", "R1"), ("H", "R2")]
    assert comparable(weak) == comparable(weak_map_independence(net, p))
    assert weak.counterexample == {"R2": "F"}

    tables.clear()
    split = relevance_partition(net, p.evidence, p.hypothesis, p.focus, guard=8)
    assert tables == [("H", "R1"), ("H", "R2"), ("H", "R3")]
    assert split == relevance_partition(net, p.evidence, p.hypothesis, p.focus)
    assert split.irrelevant == ("R1",)

    tables.clear()
    best = maximum_map_independence(net, p, 1, guard=8)
    assert tables == [("H", "R1"), ("H", "R1", "R2"), ("H", "R1", "R3")]
    assert comparable(best) == comparable(maximum_map_independence(net, p, 1))
    assert best.subset == ("R1",)


def test_subsets_get_their_own_tables_when_the_one_plan_fails_the_guard(tables):
    # A hidden root Y with children H, R1 and R2: the one table over H, R1,
    # R2 has 8 entries, within guard 8, but eliminating Y multiplies all
    # four CPTs into 16, so the plan refuses it and R1 gets its own table,
    # whose product over Y, H, R1 has 8.  Observing R1 = F makes Y = F
    # likely and overturns the prior MAP H = T.
    strong_link = ((0.9, 0.1), (0.1, 0.9))
    net = Network(
        "hidden_root",
        (Variable("Y", TF), Variable("H", TF), Variable("R1", TF), Variable("R2", TF)),
        (
            Cpt("Y", (), ((0.5, 0.5),)),
            Cpt("H", ("Y",), ((0.8, 0.2), (0.3, 0.7))),
            Cpt("R1", ("Y",), strong_link),
            Cpt("R2", ("Y",), strong_link),
        ),
    )
    p = part({}, ("H",), ("R1", "R2"))
    weak = weak_map_independence(net, p, guard=8)
    assert tables == [("H", "R1", "R2"), ("H", "R1")]
    assert comparable(weak) == comparable(weak_map_independence(net, p))
    assert weak.verdict is False
    assert weak.counterexample == {"R1": "F"}


def test_one_table_and_per_subset_tables_agree(monkeypatch):
    # The same queries with every subset eliminated on its own (cell bound
    # 0) and summed out of one table (the default bound), cross-checked
    # against the strong definition by full enumeration.
    rng = random.Random(1207)
    default_bound = independence._JOINT_CELLS
    informative = 0
    for trial in range(50):
        net = random_network(rng, rng.randint(4, 7), max_states=3 if trial % 2 else 2)
        p = random_partition(rng, net, n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(2, 4))
        h, e, f = p.hypothesis, p.evidence, p.focus
        runs = []
        for bound in (0, default_bound):
            monkeypatch.setattr(independence, "_JOINT_CELLS", bound)
            runs.append((
                weak_map_independence(net, p),
                weak_map_independence(net, p, table_limit=64),
                maximum_map_independence(net, p, 1),
                relevance_partition(net, e, h, f),
            ))
        (weak, table, best, split), one_table = runs
        assert [comparable(r) for r in (weak, table, best)] == [comparable(r) for r in one_table[:3]]
        assert split == one_table[3]
        rows, one_table_rows = table.per_assignment, one_table[1].per_assignment
        assert [(r.assignment, r.map_assignment) for r in rows] == [
            (r.assignment, r.map_assignment) for r in one_table_rows
        ]
        for row, one_table_row in zip(rows, one_table_rows):
            assert one_table_row.h_star_joint == pytest.approx(row.h_star_joint, rel=1e-12, abs=0.0)

        if weak.ties_encountered or best.ties_encountered:
            continue
        informative += 1
        singletons = {var: brute_strong(net, h, e, (var,)) for var in sorted(f, key=net.declaration_index)}
        first_failing = next((c for v, c in singletons.values() if not v), None)
        assert (weak.verdict, weak.counterexample) == (first_failing is None, first_failing)
        assert {var: (j.map_independent, j.counterexample) for var, j in split.justification.items()} == singletons
        if best.verdict:
            assert brute_strong(net, h, e, best.subset) == (True, None)
    assert informative >= 40


def test_strong_and_quantify_agree_on_both_table_sources(monkeypatch):
    # Strong and quantify fold S = F = R, either summed over no axes of the
    # one table (the default bound) or eliminated on their own (cell bound
    # 0); both give the same table, so the reports must be equal exactly.
    fold = independence._SubsetFolds.fold
    one_table_used = set()

    def recording(self, *args, **kwargs):
        one_table_used.add(self._joint is not None)
        return fold(self, *args, **kwargs)

    monkeypatch.setattr(independence._SubsetFolds, "fold", recording)
    rng = random.Random(1603)
    default_bound = independence._JOINT_CELLS
    for trial in range(40):
        net = random_network(rng, rng.randint(4, 7), max_states=3 if trial % 2 else 2)
        p = random_partition(rng, net, n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(1, 4))
        runs = []
        for bound, one_table in ((0, False), (default_bound, True)):
            monkeypatch.setattr(independence, "_JOINT_CELLS", bound)
            runs.append((
                strong_map_independence(net, p),
                strong_map_independence(net, p, table_limit=64),
                quantify(net, p),
            ))
            assert one_table_used == {one_table}
            one_table_used.clear()
        assert runs[0] == runs[1]


def symmetric_hypothesis(net, h):
    """``net`` with ``h`` uniform and every child of ``h`` blind to it, so h's states tie exactly."""
    card = net.cardinality(h)
    cpts = []
    for c in net.cpts:
        if c.child == h:
            c = Cpt(h, c.parents, tuple((1.0 / card,) * card for _ in c.rows))
        elif h in c.parents:
            stride = math.prod(net.cardinality(q) for q in c.parents[c.parents.index(h) + 1:])
            c = Cpt(c.child, c.parents, tuple(c.rows[r - r // stride % card * stride] for r in range(len(c.rows))))
        cpts.append(c)
    return Network(net.name, net.variables, tuple(cpts))


@pytest.mark.parametrize("cells", [0, independence._JOINT_CELLS], ids=["per-subset", "one-table"])
def test_later_folds_are_given_the_first_folds_h_star(monkeypatch, cells):
    # h* is the first maximiser of the first folded table's row sums; every
    # later fold of the same query must be handed that rank, not find its own.
    calls = []
    fold = independence._SubsetFolds.fold

    def recording(self, *args, **kwargs):
        given = self.h_star
        result = fold(self, *args, **kwargs)
        calls.append((given, self.h_star))
        return result

    monkeypatch.setattr(independence._SubsetFolds, "fold", recording)
    monkeypatch.setattr(independence, "_JOINT_CELLS", cells)
    rng = random.Random(1511)
    handed_on = tied = 0
    for trial in range(30):
        net = random_network(rng, rng.randint(4, 7), max_states=3 if trial % 2 else 2)
        p = random_partition(rng, net, n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(2, 4))
        if trial % 3 == 0:
            net = symmetric_hypothesis(net, p.hypothesis[0])
        for decide in (
            lambda: weak_map_independence(net, p, short_circuit=False),
            lambda: relevance_partition(net, p.evidence, p.hypothesis, p.focus),
            lambda: maximum_map_independence(net, p, 1),
        ):
            calls.clear()
            report = decide()
            (first, h_star), *later = calls
            assert first is None
            assert [given for given, _ in later] == [h_star] * len(later)
            assert all(found == h_star for _, found in later)
            handed_on += len(later)
            tied += getattr(report, "ties_encountered", False)
    assert handed_on >= 90
    assert tied >= 15


def infeasible_network():
    # E is certainly T, so the evidence E=F has probability zero.
    return Network(
        "infeasible",
        (Variable("E", TF), Variable("H", TF), Variable("R", TF)),
        (
            Cpt("E", (), ((1.0, 0.0),)),
            Cpt("H", (), ((0.7, 0.3),)),
            Cpt("R", ("H",), ((0.9, 0.1), (0.2, 0.8))),
        ),
    )


def run_decider(name, net, **kwargs):
    p = part({"E": "F"}, ("H",), ("R",))
    if name == "strong":
        return strong_map_independence(net, p, **kwargs)
    if name == "weak":
        return weak_map_independence(net, p, **kwargs)
    if name == "quantify":
        return quantify(net, p, **kwargs)
    if name == "maximum":
        return maximum_map_independence(net, p, 1, **kwargs)
    if name == "partition":
        return relevance_partition(net, p.evidence, p.hypothesis, p.focus, **kwargs)
    return threshold_map_independence(net, {"H": "T"}, p, 0.1, **kwargs)


DECIDERS = ("strong", "weak", "quantify", "maximum", "partition", "threshold")


@pytest.mark.parametrize("name", DECIDERS)
def test_infeasible_evidence_raises(name):
    with pytest.raises(InfeasibleQueryError):
        run_decider(name, infeasible_network())


@pytest.mark.parametrize(
    "name, guard",
    [pytest.param(n, 1, id=n) for n in DECIDERS]
    + [pytest.param(n, 3, id=f"{n}-guard3") for n in DECIDERS if n != "threshold"],
)
def test_hypothesis_guard_wins_over_infeasible_evidence(name, guard):
    # The guard passes the decider's table Pr(H, R, e) before it is built,
    # and the table's total is the infeasibility check.  Guard 1 fails
    # |Omega(H)| = 2; guard 3 admits |Omega(H)| but not the 4-cell table.
    # Threshold builds its table Pr(h*, R, e) before it eliminates for
    # Pr(e): guard 1 fails the 2-cell table, and guard 3 admits it.
    with pytest.raises(CapacityError):
        run_decider(name, infeasible_network(), guard=guard)


def test_guard_bounds_only_the_decider_table():
    # Eliminating V0 for a table over V1 alone multiplies V0's bucket into
    # a 2 * 3 * 2 * 2 = 24-entry factor over V0, V1, V2, V4; the table
    # Pr(V1, V0, e) keeps V0, and its largest product has 12 entries.
    two, three = ("s0", "s1"), ("s0", "s1", "s2")
    net = Network(
        "guarded",
        (Variable("V0", two), Variable("V1", three), Variable("V2", two),
         Variable("V4", two), Variable("V7", three)),
        (
            Cpt("V0", (), ((0.6, 0.4),)),
            Cpt("V1", ("V0",), ((0.5, 0.3, 0.2), (0.1, 0.3, 0.6))),
            Cpt("V2", (), ((0.3, 0.7),)),
            Cpt("V4", ("V1",), ((0.9, 0.1), (0.4, 0.6), (0.2, 0.8))),
            Cpt("V7", ("V0", "V2", "V4"), (
                (0.2, 0.3, 0.5), (0.6, 0.2, 0.2), (0.1, 0.1, 0.8), (0.3, 0.4, 0.3),
                (0.5, 0.4, 0.1), (0.2, 0.2, 0.6), (0.7, 0.1, 0.2), (0.4, 0.1, 0.5),
            )),
        ),
    )
    p = part({"V7": "s2"}, ("V1",), ("V0",))
    for decide in (strong_map_independence, weak_map_independence):
        assert decide(net, p, guard=16) == decide(net, p)


def test_partition_rejects_evidence_on_hypothesis_before_any_table(fig1b, tables):
    with pytest.raises(InvalidQueryError):
        relevance_partition(fig1b, {"A": "T"}, ("A",), ("B",))
    assert tables == []


# ---------------------------------------------------------------------------
# structural properties


def test_strong_implies_weak():
    rng = random.Random(307)
    informative = 0
    for _ in range(40):
        net = random_binary_network(rng, rng.randint(4, 8), damp=0.05)
        partition = random_partition(rng, net, n_focus=rng.randint(2, 3))
        strong = strong_map_independence(net, partition)
        if strong.verdict and not strong.ties_encountered:
            assert weak_map_independence(net, partition).verdict is True
            informative += 1
    assert informative >= 15


def test_singleton_collapse_random():
    rng = random.Random(311)
    for _ in range(30):
        net = random_binary_network(rng, rng.randint(3, 8))
        partition = random_partition(rng, net, n_focus=1)
        assert (
            strong_map_independence(net, partition).verdict
            == weak_map_independence(net, partition).verdict
        )


def test_downward_closure_tie_free():
    rng = random.Random(313)
    informative = 0
    for _ in range(30):
        net = random_binary_network(rng, rng.randint(5, 8), damp=0.05)
        partition = random_partition(rng, net, n_focus=3)
        report = strong_map_independence(net, partition)
        if not report.verdict or report.ties_encountered:
            continue
        informative += 1
        focus = partition.focus
        for drop in range(3):
            subset = tuple(v for i, v in enumerate(focus) if i != drop)
            sub = QueryPartition(
                evidence=partition.evidence, hypothesis=partition.hypothesis, focus=subset
            )
            assert strong_map_independence(net, sub).verdict is True
    assert informative >= 10


def test_dseparation_implies_strong_independence():
    rng = random.Random(331)
    informative = 0
    for _ in range(60):
        net = random_binary_network(rng, rng.randint(4, 9))
        partition = random_partition(rng, net, n_focus=rng.randint(1, 2))
        hyp = set(partition.hypothesis)
        if not d_separated(net, hyp, set(partition.focus), set(partition.evidence)):
            continue
        report = strong_map_independence(net, partition)
        if report.ties_encountered:
            continue
        assert report.verdict is True
        informative += 1
    assert informative >= 10


def with_symmetric_variable(net, name):
    """``net`` with ``name``'s states made interchangeable: uniform CPT rows,
    and each child's rows copied from those where ``name`` takes state 0,
    so that every Pr(H, e) with ``name`` in H ties exactly across its states."""
    cpts = []
    for cpt in net.cpts:
        rows = cpt.rows
        if cpt.child == name:
            width = len(rows[0])
            rows = tuple((1.0 / width,) * width for _ in rows)
        elif name in cpt.parents:
            cards = [net.cardinality(p) for p in cpt.parents]
            pos = cpt.parents.index(name)
            stride = math.prod(cards[pos + 1:])
            rows = tuple(rows[i - (i // stride % cards[pos]) * stride] for i in range(len(rows)))
        cpts.append(replace(cpt, rows=rows))
    return replace(net, cpts=tuple(cpts))


def test_witness_is_the_map_of_the_hypothesis():
    rng = random.Random(409)
    tied = 0
    for trial in range(60):
        net = random_network(rng, rng.randint(4, 9), max_states=3)
        partition = random_partition(
            rng, net, n_hypothesis=rng.randint(1, 2), n_focus=rng.randint(1, 3)
        )
        if trial % 2:
            net = with_symmetric_variable(net, partition.hypothesis[0])
        expected = map_solve(net, partition.hypothesis, partition.evidence)
        tied += expected.tie
        for report in (
            strong_map_independence(net, partition),
            weak_map_independence(net, partition),
            maximum_map_independence(net, partition, 1),
        ):
            assert report.witness == expected.assignment
            assert report.ties_encountered or not expected.tie
    assert tied == 30


def test_reports_deterministic_and_parallel_identical(fig1b):
    p = part({"C": "T"}, ("A",), ("B", "E"))
    kwargs = dict(short_circuit=False, with_metrics=True, table_limit=8)
    a = strong_map_independence(fig1b, p, **kwargs)
    b = strong_map_independence(fig1b, p, **kwargs)
    c = strong_map_independence(fig1b, p, workers=4, **kwargs)
    assert a == b == c


def test_parallel_counterexample_is_canonical_first():
    rng = random.Random(401)
    for _ in range(15):
        net = random_binary_network(rng, rng.randint(5, 9))
        partition = random_partition(rng, net, n_focus=3)
        seq = strong_map_independence(net, partition)
        par = strong_map_independence(net, partition, workers=4)
        assert seq.verdict == par.verdict
        assert seq.counterexample == par.counterexample
