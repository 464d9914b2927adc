import functools
import operator
import random

import numpy as np
import pytest

from mapindep import inference
from mapindep.errors import CapacityError, InfeasibleQueryError, InvalidQueryError
from mapindep.inference import (
    candidate_joints,
    joint_probability,
    joint_table,
    map_solve,
    marginal,
    posterior,
)
from mapindep.compiler import And, Not, Or, Var, build_amajsat_instance, compile_network
from mapindep.independence import strong_map_independence, threshold_map_independence
from mapindep.model import (
    Cpt,
    Network,
    QueryPartition,
    Variable,
    _min_fill,
    assignment_at,
    enumerate_assignments,
    min_fill_order,
)
from netgen import random_assignment, random_binary_network, random_network
from oracles import _first_argmax, brute_marginal, brute_min_fill_order, chain_product, compensated_sum

TF = ("T", "F")


def deterministic_pair():
    # B copies A; A is certainly T, so B=F is impossible.
    return Network(
        "copy",
        (Variable("A", TF), Variable("B", TF)),
        (
            Cpt("A", (), ((1.0, 0.0),)),
            Cpt("B", ("A",), ((1.0, 0.0), (0.0, 1.0))),
        ),
    )


# ---------------------------------------------------------------------------
# joint probability


def test_joint_fig1b_product(fig1b):
    p = joint_probability(fig1b, {"A": "T", "B": "T", "E": "T", "C": "T"})
    assert p == pytest.approx(0.5 * 0.6 * 0.4 * 0.6, abs=1e-15)


def test_joint_certain_single_node():
    net = Network("one", (Variable("A", TF),), (Cpt("A", (), ((1.0, 0.0),)),))
    assert joint_probability(net, {"A": "T"}) == 1.0


def test_joint_zero_entry_short_circuits(fn_ter):
    assert joint_probability(fn_ter, {"R": "T", "H": "h3"}) == 0.0


def test_joint_is_the_exact_product_far_below_1e_300():
    n = 1010
    net = Network(
        "roots",
        tuple(Variable(f"X{i}", ("T", "F")) for i in range(n)),
        tuple(Cpt(f"X{i}", (), ((0.5, 0.5),)) for i in range(n)),
    )
    full = {f"X{i}": "T" for i in range(n)}
    assert joint_probability(net, full) == marginal(net, full) == 2.0 ** -n


def test_joint_rejects_partial(fig1b):
    with pytest.raises(InvalidQueryError):
        joint_probability(fig1b, {"A": "T"})


def test_joint_matches_enumeration_on_random_nets():
    # joint_table multiplies the CPT entries in declaration order from 1.0,
    # as the chain rule does, so the doubles are equal, not merely close.
    # Compiled formulas put 0/1 entries in the products.
    rng = random.Random(3)
    for i in range(60):
        if i < 20:
            net = random_binary_network(rng, rng.randint(1, 8))
        elif i < 40:
            net = random_network(rng, rng.randint(1, 8), max_states=3)
        else:
            net = compile_network(formula_over(rng, [f"x{j}" for j in range(rng.randint(2, 4))], 2)).network
        full = random_assignment(rng, net, list(net.names))
        assert joint_probability(net, full) == chain_product(net, full)


# ---------------------------------------------------------------------------
# marginals


def test_marginal_fig1b(fig1b):
    assert marginal(fig1b, {"A": "T", "C": "T"}) == pytest.approx(0.178, abs=1e-9)


def test_marginal_fig1a(fig1a):
    assert marginal(fig1a, {"A": "T", "C": "T"}) == pytest.approx(0.24, abs=1e-9)


def test_marginal_empty_is_total_probability(fig1b):
    assert marginal(fig1b, {}) == pytest.approx(1.0, abs=1e-12)


def test_ve_agrees_with_independent_oracle():
    # 40 networks of 2-12 nodes observe a prefix of the declaration order,
    # 15 of 2-9 nodes observe at most 3 variables drawn at random.
    cases = []
    rng = random.Random(17)
    for _ in range(40):
        net = random_binary_network(rng, rng.randint(2, 12))
        k = rng.randint(0, len(net.names))
        cases.append((net, random_assignment(rng, net, list(net.names)[:k])))
    rng = random.Random(29)
    for _ in range(15):
        net = random_binary_network(rng, rng.randint(2, 9))
        vars = list(net.names)
        rng.shuffle(vars)
        cases.append((net, random_assignment(rng, net, vars[: rng.randint(0, 3)])))
    for net, partial in cases:
        assert marginal(net, partial) == pytest.approx(brute_marginal(net, partial), abs=1e-9)


# ---------------------------------------------------------------------------
# joint tables


def test_joint_table_matches_independent_oracle():
    rng = random.Random(71)
    # The last six networks draw the query from their first four declared
    # nodes; parents point backwards, so most of their nodes are barren.
    for sizes, max_states, pool in [((4, 8), 3, None)] * 30 + [((10, 12), 2, 4)] * 6:
        net = random_network(rng, rng.randint(*sizes), max_states=max_states)
        names = list(net.names)[:pool]
        rng.shuffle(names)
        k = rng.randint(0, 3)
        # reverse declaration order, so every keep set of two or more is non-canonical
        keep = tuple(sorted(names[:k], key=net.declaration_index, reverse=True))
        evidence = random_assignment(rng, net, names[k:k + rng.randint(0, 2)])
        table = joint_table(net, keep, evidence)
        assert table.shape == tuple(net.cardinality(v) for v in keep)
        for idx in np.ndindex(table.shape):
            cell = {v: net.variable(v).states[i] for v, i in zip(keep, idx)}
            assert table[idx] == pytest.approx(brute_marginal(net, {**evidence, **cell}), abs=1e-12)


def test_joint_table_infeasible_evidence_is_all_zero():
    table = joint_table(deterministic_pair(), ("A",), {"B": "F"})
    assert table.shape == (2,)
    assert not table.any()


def test_joint_table_rejects_kept_evidence(fig1b):
    with pytest.raises(InvalidQueryError):
        joint_table(fig1b, ("A", "C"), {"C": "T"})


def barren_network():
    # A -> B -> C -> L <- D, L -> M, and an isolated root X.
    return Network(
        "barren",
        tuple(Variable(v, TF) for v in "ABCDLMX"),
        (
            Cpt("A", (), ((0.3, 0.7),)),
            Cpt("B", ("A",), ((0.9, 0.1), (0.2, 0.8))),
            Cpt("C", ("B",), ((0.6, 0.4), (0.1, 0.9))),
            Cpt("D", (), ((0.5, 0.5),)),
            Cpt("L", ("C", "D"), ((0.7, 0.3), (0.4, 0.6), (0.2, 0.8), (0.9, 0.1))),
            Cpt("M", ("L",), ((0.8, 0.2), (0.3, 0.7))),
            Cpt("X", (), ((0.6, 0.4),)),
        ),
    )


def test_a_string_of_variable_names_is_rejected(fig1b):
    # "AB" names A and B in fig1b letter by letter; it must not be read that way.
    with pytest.raises(InvalidQueryError, match="got the string 'AB'"):
        map_solve(fig1b, "AB", {"C": "T"})
    with pytest.raises(InvalidQueryError, match="got the string 'AB'"):
        joint_table(fig1b, "AB", {"C": "T"})


def test_evidence_given_as_a_string_is_rejected(fig1b):
    for call in (
        lambda: map_solve(fig1b, ["A"], "C"),
        lambda: marginal(fig1b, "C"),
        lambda: posterior(fig1b, {"A": "T"}, "C"),
        lambda: posterior(fig1b, "A", {"C": "T"}),
    ):
        with pytest.raises(InvalidQueryError, match="expected a mapping from variable names to states"):
            call()


def test_joint_table_eliminates_only_ancestors(monkeypatch):
    net = barren_network()
    seen = []

    def recording(nodes, neighbours):
        seen.append(set(nodes))
        return _min_fill(nodes, neighbours)

    monkeypatch.setattr(inference, "_min_fill", recording)
    cases = [
        ((), {}, set()),
        (("B",), {}, {"A"}),
        (("C",), {"A": "T"}, {"B"}),
        (("X",), {"B": "F"}, {"A"}),
        # observing the leaf M makes M, L, D and the whole chain relevant again
        (("B",), {"M": "T"}, {"A", "C", "D", "L"}),
        (("D",), {"L": "F"}, {"A", "B", "C"}),
    ]
    for keep, evidence, hidden in cases:
        table = joint_table(net, keep, evidence)
        assert seen.pop() == hidden
        for idx in np.ndindex(table.shape):
            cell = {v: net.variable(v).states[i] for v, i in zip(keep, idx)}
            assert table[idx] == pytest.approx(brute_marginal(net, {**evidence, **cell}), abs=1e-12)


def formula_over(rng, names, extra):
    """A random formula using every name, plus ``extra`` repeated occurrences."""
    terms = [Var(n) for n in names] + [Var(rng.choice(names)) for _ in range(extra)]
    terms = [Not(t) if rng.random() < 0.3 else t for t in terms]
    while len(terms) > 1:
        a = terms.pop(rng.randrange(len(terms)))
        b = terms.pop(rng.randrange(len(terms)))
        terms.append(And(a, b) if rng.random() < 0.5 else Or(a, b))
    return terms[0]


def test_elimination_orders_match_full_rescan_on_compiled_formulas(monkeypatch):
    seen = []

    def recording(nodes, neighbours):
        # The hidden variables, in declaration order, and their interaction graph.
        adjacency = {v: {u for j, u in enumerate(nodes) if mask >> j & 1} for v, mask in zip(nodes, neighbours)}
        result = _min_fill(nodes, neighbours)
        seen.append((adjacency, {v: i for i, v in enumerate(nodes)}, result))
        return result

    monkeypatch.setattr(inference, "_min_fill", recording)
    rng = random.Random(1620)
    for n_vars in (16, 17, 18, 19, 20):
        for _ in range(2):
            names = [f"x{i}" for i in range(n_vars)]
            instance = build_amajsat_instance(formula_over(rng, names, 6), rng.sample(names, rng.randint(3, 6)))
            net, phi, query = instance.network, instance.phi_node, instance.query
            focus = tuple(rng.sample(names, 3))
            strong_map_independence(net, QueryPartition(evidence={}, hypothesis=(phi,), focus=focus))
            partition = QueryPartition(evidence=dict(query.evidence), hypothesis=(phi,), focus=query.focus)
            threshold_map_independence(net, query.h_star, partition, query.s)
    assert sum(len(adjacency) > 20 for adjacency, _, _ in seen) >= 20
    for adjacency, priority, result in seen:
        assert result == min_fill_order(adjacency, priority) == brute_min_fill_order(adjacency, priority)


def test_factor_cache_holds_only_ancestral_cpts():
    cases = [
        (("B",), {}, {"A", "B"}),
        (("X",), {"B": "F"}, {"A", "B", "X"}),
        (("B",), {"M": "T"}, {"A", "B", "C", "D", "L", "M"}),
    ]
    for keep, evidence, relevant in cases:
        net = barren_network()
        joint_table(net, keep, evidence)
        cached = net._factors
        assert set(cached) == relevant
        for name, (scope, values) in cached.items():
            cpt = net.cpt(name)
            assert scope == (*cpt.parents, name)
            assert values.ravel().tolist() == [p for row in cpt.rows for p in row]
    # A strong query's tables (Pr(e), the h* table, Pr(H, R, e)) need the
    # ancestors of H, R and e, and nothing else.
    net = barren_network()
    strong_map_independence(net, QueryPartition(evidence={"A": "T"}, hypothesis=("C",), focus=("D",)))
    assert set(net._factors) == {"A", "B", "C", "D"}


def wide_child():
    # C has H, R and three hidden roots as parents: the table over (H, R) has
    # four cells, but with C observed, summing out a Y keeps H and R in a
    # 32-cell product.
    roots = ("H", "R", "Y1", "Y2", "Y3")
    return Network(
        "wide",
        tuple(Variable(v, TF) for v in (*roots, "C")),
        (
            *(Cpt(v, (), ((0.5 + 0.1 * i, 0.5 - 0.1 * i),)) for i, v in enumerate(roots)),
            Cpt("C", roots, tuple((0.9, 0.1) if i % 3 else (0.2, 0.8) for i in range(32))),
        ),
    )


def test_joint_table_guard_bounds_intermediate_factors():
    net = wide_child()
    # Observed, C stays in the elimination and its CPT enters 32-entry products.
    observed = {"C": "T"}
    with pytest.raises(CapacityError):
        joint_table(net, ("H", "R"), observed, guard=16)
    table = joint_table(net, ("H", "R"), observed, guard=64)
    assert np.array_equal(table, joint_table(net, ("H", "R"), observed))
    # Unobserved, C is barren and pruned, so no product outgrows the table.
    table = joint_table(net, ("H", "R"), {}, guard=16)
    assert np.array_equal(table, joint_table(net, ("H", "R"), {}))
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# posteriors


def test_posterior_fig1b_worked_values(fig1b):
    assert posterior(fig1b, {"A": "T"}, {"C": "T", "B": "T"}) == pytest.approx(0.42, abs=1e-9)
    assert posterior(fig1b, {"A": "T"}, {"C": "T", "B": "F"}) == pytest.approx(0.26, abs=1e-9)
    assert posterior(fig1b, {"A": "T"}, {"C": "T", "E": "T"}) == pytest.approx(0.44, abs=1e-9)
    assert posterior(fig1b, {"A": "T"}, {"C": "T", "E": "F"}) == pytest.approx(0.30, abs=1e-9)


def test_posterior_fig1a(fig1a):
    assert posterior(fig1a, {"A": "T"}, {"C": "T"}) == pytest.approx(0.48, abs=1e-9)


def test_posterior_zero_evidence_is_an_error():
    net = deterministic_pair()
    with pytest.raises(InfeasibleQueryError):
        posterior(net, {"A": "T"}, {"B": "F"})


def test_posterior_rejects_overlap(fig1b):
    with pytest.raises(InvalidQueryError):
        posterior(fig1b, {"A": "T"}, {"A": "F"})
    with pytest.raises(InvalidQueryError, match="^hypothesis and evidence must be disjoint$"):
        map_solve(fig1b, ("A",), {"C": "T", "A": "T"})


def test_posterior_refuses_a_bad_target_before_any_elimination(monkeypatch):
    # An unknown target variable or state was reported only after Pr(e) had
    # been eliminated, and on infeasible evidence as InfeasibleQueryError.
    net = deterministic_pair()
    built = []

    def counting(*args, **kwargs):
        built.append(args[1])
        return joint_table(*args, **kwargs)

    monkeypatch.setattr(inference, "joint_table", counting)
    for target in ({"Q": "T"}, {"B": "X"}):
        for evidence in ({"A": "F"}, {"A": "T"}):
            with pytest.raises(InvalidQueryError):
                posterior(net, target, evidence)
    assert built == []


def test_normalization_over_hypothesis():
    rng = random.Random(41)
    for _ in range(20):
        net = random_binary_network(rng, rng.randint(3, 10))
        names = list(net.names)
        rng.shuffle(names)
        h = tuple(names[:2])
        evidence = random_assignment(rng, net, names[2:3])
        total = sum(candidate_joints(net, h, evidence))
        assert total == pytest.approx(marginal(net, evidence), abs=1e-9)


# ---------------------------------------------------------------------------
# MAP


def test_map_fig1b_baseline(fig1b):
    result = map_solve(fig1b, ("A",), {"C": "T"})
    assert result.assignment == {"A": "F"}
    assert result.posterior == pytest.approx(0.644, abs=1e-9)
    assert result.tie is False
    assert result.runner_up_gap > 0


def two_children():
    # C has parents H, Y1 and D has parents H, Y2, Y3.  With both observed
    # and H kept, Y1's bucket is a 4-entry product and Y2's an 8-entry one.
    roots = ("H", "Y1", "Y2", "Y3")
    return Network(
        "two-children",
        tuple(Variable(v, TF) for v in (*roots, "C", "D")),
        (
            *(Cpt(v, (), ((0.6 - 0.1 * i, 0.4 + 0.1 * i),)) for i, v in enumerate(roots)),
            Cpt("C", ("H", "Y1"), ((0.9, 0.1), (0.3, 0.7), (0.2, 0.8), (0.6, 0.4))),
            Cpt("D", ("H", "Y2", "Y3"), tuple((0.1 * (i + 1), 1 - 0.1 * (i + 1)) for i in range(8))),
        ),
    )


def test_joint_table_guard_checked_before_any_product(monkeypatch):
    net = two_children()
    observed = {"C": "T", "D": "T"}
    unguarded = joint_table(net, ("H",), observed)
    products = []
    original = inference._product

    def counting(factors, scope, cards):
        products.append(scope)
        return original(factors, scope, cards)

    monkeypatch.setattr(inference, "_product", counting)
    with pytest.raises(CapacityError):
        joint_table(net, ("H",), observed, guard=4)
    assert products == []  # the 4-entry product over (H, Y1) was never formed
    assert np.array_equal(joint_table(net, ("H",), observed, guard=8), unguarded)


def test_map_guard_bounds_the_elimination(fig1b):
    # With C observed, the elimination forms an 8-entry product.
    with pytest.raises(CapacityError):
        map_solve(fig1b, ("A",), {"C": "T"}, guard=7)
    assert map_solve(fig1b, ("A",), {"C": "T"}, guard=8).assignment == {"A": "F"}


def test_map_fn_ter_stable_under_conditioning(fn_ter):
    for r_state in ("T", "F"):
        result = map_solve(fn_ter, ("H",), {"R": r_state})
        assert result.assignment == {"H": "h1"}


def test_map_uniform_tie(fn_bin):
    result = map_solve(fn_bin, ("R",))
    assert result.tie is True
    assert result.assignment == {"R": "T"}  # first state wins
    assert result.runner_up_gap == pytest.approx(0.0, abs=1e-15)


def test_map_guard(fig1b):
    with pytest.raises(CapacityError):
        map_solve(fig1b, ("A", "B"), guard=3)


def test_map_builds_one_table(fig1b, monkeypatch):
    built = []

    def counting(net, keep, partial, **kwargs):
        built.append(tuple(keep))
        return joint_table(net, keep, partial, **kwargs)

    monkeypatch.setattr(inference, "joint_table", counting)
    map_solve(fig1b, ("B", "A"), {"C": "T"})
    assert built == [("A", "B")]


def test_map_posterior_does_not_depend_on_the_builtin_sum(monkeypatch):
    # Seed 35's nine joints total differently under a compensated sum, enough
    # to move the posterior; the report must keep the left-to-right total.
    rng = random.Random(35)
    net = random_network(rng, 6, max_states=3)
    evidence = random_assignment(rng, net, ["V0"])
    joints = candidate_joints(net, ("V4", "V5"), evidence)
    best, total = max(joints), functools.reduce(operator.add, joints)
    assert best / compensated_sum(joints) != best / total
    monkeypatch.setattr(inference, "sum", compensated_sum, raising=False)
    result = map_solve(net, ("V4", "V5"), evidence)
    assert result.joint_probability == best
    assert result.posterior == best / total


def test_map_zero_context():
    net = deterministic_pair()
    with pytest.raises(InfeasibleQueryError):
        map_solve(net, ("A",), {"B": "F"})


def test_map_argmax_invariant_under_normalization():
    # argmax over joints equals argmax over posteriors.
    rng = random.Random(53)
    for _ in range(20):
        net = random_binary_network(rng, rng.randint(3, 9))
        names = list(net.names)
        rng.shuffle(names)
        h = tuple(sorted(names[:2], key=net.declaration_index))
        evidence = random_assignment(rng, net, names[2:3])
        result = map_solve(net, h, evidence)
        joints = candidate_joints(net, h, evidence)
        p_e = marginal(net, evidence)
        posteriors = [j / p_e for j in joints]
        best = max(range(len(joints)), key=lambda i: (posteriors[i], -i))
        assert result.assignment == assignment_at(net, h, best)


def test_column_argmax_matches_loop_rule():
    # The tie rule as a per-column Python loop (first maximiser, then any
    # other entry within the tolerance), kept as the reference.
    # The levels 0.0 and 1e-9 differ by exactly the tolerance, so they tie;
    # 0.5 - 2e-9 lies just outside it from 0.5, and 0.5 - 1e-10 inside.
    rng = random.Random(41)
    tie_tol = inference._TIE_TOL
    levels = [0.0, 1e-9, 0.5, 0.5 - 1e-10, 0.5 - 2e-9]  # exact and near ties
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        values = [rng.choice(levels + [rng.random()]) for _ in range(rows * cols)]
        table = np.array(values).reshape(rows, cols)
        argmax, ties = inference._column_argmax(table)
        for c in range(cols):
            column = table[:, c].tolist()
            best = _first_argmax(column)
            assert argmax[c] == best
            assert ties[c] == any(i != best and column[best] - p <= tie_tol for i, p in enumerate(column))
    assert inference._column_argmax(np.array([[0.0, 0.5 - 2e-9], [1e-9, 0.5]])) == ([1, 1], [True, False])


def test_map_exhaustive_dominance():
    # h* beats every candidate, verified by exhaustive comparison.
    rng = random.Random(61)
    for _ in range(10):
        net = random_binary_network(rng, rng.randint(3, 8))
        names = list(net.names)
        rng.shuffle(names)
        h = tuple(sorted(names[:2], key=net.declaration_index))
        evidence = random_assignment(rng, net, names[2:3])
        result = map_solve(net, h, evidence)
        for candidate in enumerate_assignments(net, h):
            assert result.joint_probability >= marginal(net, {**evidence, **candidate}) - 1e-12
