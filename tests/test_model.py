import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapindep.errors import InvalidQueryError, NetworkValidationError
from mapindep.model import (
    Cpt,
    Network,
    QueryPartition,
    Variable,
    assignment_rank,
    d_separated,
    enumerate_assignments,
    min_fill_order,
    moral_adjacency,
    network_stats,
    resolve_partition,
    topological_order,
    validate_network,
)
from netgen import random_network
from oracles import brute_min_fill_order, chain_product

TF = ("T", "F")


def binary_chain(n):
    variables = tuple(Variable(f"V{i}", TF) for i in range(n))
    cpts = [Cpt("V0", (), ((0.5, 0.5),))]
    for i in range(1, n):
        cpts.append(Cpt(f"V{i}", (f"V{i-1}",), ((0.8, 0.2), (0.3, 0.7))))
    return Network("chain", variables, tuple(cpts))


# ---------------------------------------------------------------------------
# validation


def test_fig1b_fixture_is_valid(fig1b):
    assert validate_network(fig1b) == []


def test_cycle_is_reported():
    net = Network(
        "loop",
        (Variable("A", TF), Variable("B", TF)),
        (
            Cpt("A", ("B",), ((0.5, 0.5), (0.5, 0.5))),
            Cpt("B", ("A",), ((0.5, 0.5), (0.5, 0.5))),
        ),
    )
    codes = {v.code for v in validate_network(net)}
    assert "cycle" in codes


def test_bad_row_sum_reports_deviation():
    net = Network(
        "bad",
        (Variable("A", TF),),
        (Cpt("A", (), ((0.5, 0.4),)),),
    )
    violations = validate_network(net)
    assert any(v.code == "row_sum" and "0.1" in v.message for v in violations)


def test_structural_violations_located():
    net = Network(
        "broken",
        (Variable("A", TF), Variable("A", TF), Variable("B", ("x",))),
        (
            Cpt("A", ("Z",), ((1.0, 0.0),)),
            Cpt("B", (), ((1.0,), (0.5,))),
        ),
    )
    codes = {v.code for v in validate_network(net)}
    assert {"duplicate_variable", "too_few_states", "dangling_parent", "shape"} <= codes


def test_entry_out_of_range():
    net = Network("neg", (Variable("A", TF),), (Cpt("A", (), ((1.5, -0.5),)),))
    codes = {v.code for v in validate_network(net)}
    assert "probability_range" in codes


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entry_out_of_range(bad):
    net = Network(
        "nonfinite",
        (Variable("A", TF), Variable("B", TF)),
        (Cpt("A", (), ((0.5, 0.5),)), Cpt("B", ("A",), ((0.5, 0.5), (bad, bad)))),
    )
    located = [(v.code, v.where) for v in validate_network(net)]
    assert ("probability_range", "cpt B row 1") in located


def test_violation_locations():
    net = Network(
        "broken",
        (Variable("A", TF), Variable("A", TF), Variable("C", ("x",))),
        (
            Cpt("A", ("Z",), ((1.0, 0.0),)),
            Cpt("C", (), ((1.0,), (0.5,))),
            Cpt("C", (), ((1.0,),)),
            Cpt("D", (), ((1.0,),)),
        ),
    )
    located = [(v.code, v.where) for v in validate_network(net)]
    assert located == [
        ("duplicate_variable", "variable A"),
        ("too_few_states", "variable C"),
        ("dangling_parent", "cpt A"),
        ("shape", "cpt C"),
        ("duplicate_cpt", "cpt C"),
        ("unknown_child", "cpt D"),
    ]
    net = Network("rows", (Variable("A", TF), Variable("B", TF)), (
        Cpt("A", (), ((0.5, 0.5),)),
        Cpt("B", ("A",), ((0.5,), (1.5, 0.2))),
    ))
    located = [(v.code, v.where) for v in validate_network(net)]
    assert located == [
        ("shape", "cpt B row 0"),
        ("probability_range", "cpt B row 1"),
        ("row_sum", "cpt B row 1"),
    ]


def test_missing_and_duplicate_cpts():
    net = Network(
        "cptless",
        (Variable("A", TF), Variable("B", TF)),
        (Cpt("A", (), ((0.5, 0.5),)), Cpt("A", (), ((0.5, 0.5),))),
    )
    codes = {v.code for v in validate_network(net)}
    assert {"missing_cpt", "duplicate_cpt"} <= codes


def test_valid_iff_total_probability_one():
    # Valid random networks put total mass 1 on the joint; corrupting a row
    # both trips the validator and moves the total.
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng, rng.randint(2, 10))
        assert validate_network(net) == []
        total = sum(
            chain_product(net, full) for full in enumerate_assignments(net, net.names)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    net = binary_chain(3)
    rows = list(net.cpts[1].rows)
    rows[0] = (0.8, 0.4)
    broken = Network(net.name, net.variables, (net.cpts[0], Cpt("V1", ("V0",), tuple(rows)), net.cpts[2]))
    assert any(v.code == "row_sum" for v in validate_network(broken))
    total = sum(chain_product(broken, full) for full in enumerate_assignments(broken, broken.names))
    assert abs(total - 1.0) > 1e-6


# ---------------------------------------------------------------------------
# topological order


def test_topological_chain():
    assert topological_order(binary_chain(3)) == ["V0", "V1", "V2"]


def test_topological_fig1b(fig1b):
    assert topological_order(fig1b) == ["B", "C", "E", "A"]


def test_topological_single_node():
    net = Network("one", (Variable("A", TF),), (Cpt("A", (), ((1.0, 0.0),)),))
    assert topological_order(net) == ["A"]


def test_topological_cycle_raises():
    net = Network(
        "loop",
        (Variable("A", TF), Variable("B", TF)),
        (
            Cpt("A", ("B",), ((0.5, 0.5), (0.5, 0.5))),
            Cpt("B", ("A",), ((0.5, 0.5), (0.5, 0.5))),
        ),
    )
    with pytest.raises(NetworkValidationError):
        topological_order(net)


def test_topological_respects_edges_on_random_dags():
    rng = random.Random(11)
    for _ in range(30):
        net = random_network(rng, rng.randint(1, 12))
        order = topological_order(net)
        assert sorted(order) == sorted(net.names)
        position = {n: i for i, n in enumerate(order)}
        for c in net.cpts:
            for p in c.parents:
                assert position[p] < position[c.child]


# ---------------------------------------------------------------------------
# d-separation


def test_dsep_fig1a(fig1a):
    assert d_separated(fig1a, {"D"}, {"A"}, {"C"}) is True
    assert d_separated(fig1a, {"B"}, {"A"}, {"C"}) is False


def collider():
    return Network(
        "collider",
        (Variable("C1", TF), Variable("C2", TF), Variable("M", TF)),
        (
            Cpt("C1", (), ((0.5, 0.5),)),
            Cpt("C2", (), ((0.5, 0.5),)),
            Cpt("M", ("C1", "C2"), ((0.9, 0.1), (0.5, 0.5), (0.5, 0.5), (0.1, 0.9))),
        ),
    )


def test_dsep_collider():
    net = collider()
    assert d_separated(net, {"C1"}, {"C2"}, set()) is True
    assert d_separated(net, {"C1"}, {"C2"}, {"M"}) is False


def test_dsep_canonical_three_node_structures():
    chain = binary_chain(3)  # V0 -> V1 -> V2
    assert d_separated(chain, {"V0"}, {"V2"}, set()) is False
    assert d_separated(chain, {"V0"}, {"V2"}, {"V1"}) is True

    fork = Network(
        "fork",
        (Variable("M", TF), Variable("A", TF), Variable("B", TF)),
        (
            Cpt("M", (), ((0.5, 0.5),)),
            Cpt("A", ("M",), ((0.9, 0.1), (0.2, 0.8))),
            Cpt("B", ("M",), ((0.7, 0.3), (0.4, 0.6))),
        ),
    )
    assert d_separated(fork, {"A"}, {"B"}, set()) is False
    assert d_separated(fork, {"A"}, {"B"}, {"M"}) is True

    coll = collider()
    assert d_separated(coll, {"C1"}, {"C2"}, set()) is True
    assert d_separated(coll, {"C1"}, {"C2"}, {"M"}) is False


def test_dsep_descendant_of_collider_activates():
    net = Network(
        "collider_child",
        (Variable("C1", TF), Variable("C2", TF), Variable("M", TF), Variable("D", TF)),
        (
            Cpt("C1", (), ((0.5, 0.5),)),
            Cpt("C2", (), ((0.5, 0.5),)),
            Cpt("M", ("C1", "C2"), ((0.9, 0.1), (0.5, 0.5), (0.5, 0.5), (0.1, 0.9))),
            Cpt("D", ("M",), ((0.8, 0.2), (0.3, 0.7))),
        ),
    )
    assert d_separated(net, {"C1"}, {"C2"}, {"D"}) is False


def test_dsep_symmetric_on_random_networks():
    rng = random.Random(23)
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 10))
        names = list(net.names)
        rng.shuffle(names)
        x, y, z = {names[0]}, {names[1]}, set(names[2:2 + rng.randint(0, 3)])
        assert d_separated(net, x, y, z) == d_separated(net, y, x, z)


def test_dsep_unknown_variable():
    net = binary_chain(2)
    with pytest.raises(InvalidQueryError):
        d_separated(net, {"V0"}, {"nope"}, set())


def test_dsep_overlapping_sets_rejected():
    net = binary_chain(3)
    with pytest.raises(InvalidQueryError):
        d_separated(net, {"V0"}, {"V0"}, set())


# ---------------------------------------------------------------------------
# assignment enumeration


def test_enumerate_single_binary():
    net = binary_chain(1)
    assert list(enumerate_assignments(net, ["V0"])) == [{"V0": "T"}, {"V0": "F"}]


def test_enumerate_two_binary_row_major():
    net = binary_chain(2)
    assert list(enumerate_assignments(net, ["V0", "V1"])) == [
        {"V0": "T", "V1": "T"},
        {"V0": "T", "V1": "F"},
        {"V0": "F", "V1": "T"},
        {"V0": "F", "V1": "F"},
    ]


def test_enumerate_empty_vars():
    net = binary_chain(2)
    assert list(enumerate_assignments(net, [])) == [{}]


def test_enumerate_set_input_uses_declaration_order():
    net = binary_chain(2)
    first = next(enumerate_assignments(net, {"V1", "V0"}))
    assert list(first) == ["V0", "V1"]


@settings(deadline=None, max_examples=40)
@given(k=st.integers(min_value=1, max_value=8))
def test_enumerate_counts_and_ranks(k):
    net = binary_chain(k)
    names = tuple(net.names)
    seen = set()
    for rank, assignment in enumerate(enumerate_assignments(net, names)):
        seen.add(tuple(assignment.items()))
        assert assignment_rank(net, names, assignment) == rank
    assert len(seen) == 2 ** k


def test_mixed_cardinality_enumeration(fn_ter):
    combos = list(enumerate_assignments(fn_ter, ["R", "H"]))
    assert len(combos) == 6
    assert combos[0] == {"R": "T", "H": "h1"}
    assert combos[1] == {"R": "T", "H": "h2"}  # last variable varies fastest
    assert combos[-1] == {"R": "F", "H": "h3"}


# ---------------------------------------------------------------------------
# stats


def test_stats_single_node():
    net = Network("one", (Variable("A", TF),), (Cpt("A", (), ((1.0, 0.0),)),))
    stats = network_stats(net)
    assert stats.variable_count == 1
    assert stats.max_cardinality == 2
    assert stats.treewidth_upper_bound == 0
    assert stats.edge_count == 0


def test_stats_fig1b_moralizes_to_a_clique(fig1b):
    stats = network_stats(fig1b)
    assert stats.treewidth_upper_bound == 3
    assert stats.edge_count == 3


def test_stats_chain():
    stats = network_stats(binary_chain(5))
    assert stats.max_cardinality == 2
    assert stats.treewidth_upper_bound == 1


def test_stats_ternary_cardinality(fn_ter):
    assert network_stats(fn_ter).max_cardinality == 3


def random_graph(rng):
    """Up to 30 nodes, edge density 0.1-0.4, adjacency order and priorities shuffled."""
    names = [f"N{i}" for i in range(rng.randint(0, 30))]
    rng.shuffle(names)
    density = rng.uniform(0.1, 0.4)
    adjacency = {v: set() for v in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < density:
                adjacency[a].add(b)
                adjacency[b].add(a)
    ranks = list(range(len(names)))
    rng.shuffle(ranks)
    return adjacency, dict(zip(names, ranks))


def test_min_fill_order_matches_full_rescan():
    rng = random.Random(5150)
    for _ in range(2000):
        adjacency, priority = random_graph(rng)
        assert min_fill_order(adjacency, priority) == brute_min_fill_order(adjacency, priority)


def test_stats_width_matches_full_rescan_on_400_nodes():
    net = random_network(random.Random(400), 400, max_parents=2)
    priority = {name: i for i, name in enumerate(net.names)}
    order, width = min_fill_order(moral_adjacency(net), priority)
    assert (order, width) == brute_min_fill_order(moral_adjacency(net), priority)
    assert network_stats(net).treewidth_upper_bound == width


# ---------------------------------------------------------------------------
# partitions


def test_resolve_partition_canonicalizes(fig1b):
    p = QueryPartition(evidence={"C": "T"}, hypothesis=("A",), focus=("E", "B"))
    hyp, evidence, focus = resolve_partition(fig1b, p)
    assert hyp == ("A",)
    assert focus == ("B", "E")
    assert evidence == {"C": "T"}


def test_resolve_partition_rejects_overlap(fig1b):
    p = QueryPartition(evidence={"C": "T"}, hypothesis=("A",), focus=("C",))
    with pytest.raises(InvalidQueryError):
        resolve_partition(fig1b, p)


def test_resolve_partition_requires_hypothesis(fig1b):
    p = QueryPartition(evidence={}, hypothesis=(), focus=("B",))
    with pytest.raises(InvalidQueryError):
        resolve_partition(fig1b, p)
