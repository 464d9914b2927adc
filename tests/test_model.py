import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapindep
from mapindep import model
from mapindep.errors import InvalidQueryError, NetworkValidationError
from mapindep.inference import joint_table, map_solve
from mapindep.model import (
    ROW_SUM_TOL,
    Cpt,
    Network,
    QueryPartition,
    Variable,
    Violation,
    _find_cycle,
    _holds_everywhere,
    _locate_violations,
    _min_fill,
    ancestors,
    canonical_vars,
    check_assignment,
    d_separated,
    enumerate_assignments,
    min_fill_order,
    moral_adjacency,
    ordered_vars,
    resolve_partition,
    validate_network,
)
from netgen import corrupted_network, random_network
from oracles import (
    brute_d_separated,
    brute_min_fill_order,
    chain_product,
    compensated_sum,
    last_cpt_parents,
    peel_acyclic,
)

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


def test_duplicate_state_and_parent_located():
    net = Network(
        "dups",
        (Variable("A", ("T", "T")), Variable("B", TF)),
        (Cpt("A", (), ((0.5, 0.5),)), Cpt("B", ("A", "A"), ((0.5, 0.5),) * 4)),
    )
    assert validate_network(net) == [
        Violation("duplicate_state", "variable A", "state names not unique"),
        Violation("duplicate_parent", "cpt B", "parent listed twice"),
    ]


ALL_CODES = {
    "duplicate_variable", "too_few_states", "duplicate_state", "unknown_child", "duplicate_cpt",
    "dangling_parent", "duplicate_parent", "shape", "probability_range", "row_sum", "missing_cpt",
    "cycle",
}


def _outcome(check, net):
    try:
        return check(net)
    except Exception as exc:
        return type(exc), str(exc)


def test_whole_network_check_agrees_with_the_locating_pass():
    # validate_network answers [] from whole-network checks and falls back to the
    # per-row pass otherwise: the same violations in the same order, or the same error.
    codes = set()
    for seed in range(2000):
        net = corrupted_network(random.Random(seed))
        expected = _outcome(_locate_violations, net)
        assert _outcome(validate_network, net) == expected, seed
        if expected == []:
            assert _holds_everywhere(net), seed  # a valid network never takes the slow path
        elif isinstance(expected, list):
            codes.update(v.code for v in expected)
    assert codes == ALL_CODES


def test_whole_network_check_passes_the_fixtures(fig1a, fig1b, fn_bin, fn_ter):
    # fig1a and fig1b declare children before parents, so acyclicity takes _find_cycle.
    for net in (fig1a, fig1b, fn_bin, fn_ter):
        assert _holds_everywhere(net)


def _one_row(row):
    # A single parentless variable whose CPT is ``row``.
    states = tuple(f"s{i}" for i in range(len(row)))
    return Network("row", (Variable("A", states),), (Cpt("A", (), (tuple(row),)),))


def test_row_sum_message_does_not_depend_on_the_builtin_sum(monkeypatch):
    # A compensated sum (the builtin's from Python 3.12) totals this row to
    # 1.000000002; the message keeps the left-to-right total.
    net = _one_row([0.4114051791491751, 0.0857513609328521, 0.42828718846975783, 0.07455627344821497])
    expected = [Violation("row_sum", "cpt A row 0", "sums to 1.0000000020000002, deviation 2e-09")]
    assert validate_network(net) == expected
    monkeypatch.setattr(model, "sum", compensated_sum, raising=False)
    assert validate_network(net) == expected


@pytest.mark.parametrize("row", [
    # Found by seeded search: the left-to-right and compensated sums of each
    # row fall on opposite sides of ROW_SUM_TOL, the first row's outside it.
    [0.467433250104427, 0.46342071183174854, 0.027649625532938007, 0.04149641353088643],
    [0.2775465252614627, 0.2103126240377874, 0.23490797309459233, 0.2772328786061576],
])
def test_row_sum_verdict_does_not_depend_on_the_builtin_sum(monkeypatch, row):
    left_to_right = abs(functools.reduce(operator.add, row) - 1.0) > ROW_SUM_TOL
    assert left_to_right != (abs(compensated_sum(row) - 1.0) > ROW_SUM_TOL)
    net = _one_row(row)
    assert [v.code for v in validate_network(net)] == ["row_sum"] * left_to_right
    monkeypatch.setattr(model, "sum", compensated_sum, raising=False)
    assert [v.code for v in validate_network(net)] == ["row_sum"] * left_to_right


def test_missing_and_duplicate_cpts():
    net = Network(
        "cptless",
        (Variable("A", TF), Variable("B", TF)),
        (Cpt("A", (), ((0.5, 0.5),)), Cpt("A", (), ((0.5, 0.5),))),
    )
    codes = {v.code for v in validate_network(net)}
    assert {"missing_cpt", "duplicate_cpt"} <= codes


@pytest.mark.parametrize("seed", [9, 27, 63])
def test_a_missing_cpt_raises_the_validation_error(seed):
    # corrupted_network's missing_cpt fault drops one CPT at these seeds.  Each
    # call that needs it raises the violation validate_network reports.
    net = corrupted_network(random.Random(seed))
    (missing,) = [n for n in net.names if n not in {c.child for c in net.cpts}]
    other = next(n for n in net.names if n != missing)
    expected = [v for v in validate_network(net) if v.code == "missing_cpt"]
    calls = [lambda: net.cpt(missing), lambda: net.parents(missing), lambda: ancestors(net, [missing]),
             lambda: d_separated(net, [missing], [other], []), lambda: joint_table(net, (missing,), {}),
             lambda: map_solve(net, [missing])]
    for call in calls:
        with pytest.raises(NetworkValidationError) as exc:
            call()
        assert exc.value.violations == expected


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


def _structure(decl, cpts):
    # Only the graph matters here: every CPT gets a uniform row per parent assignment.
    return Network(
        "structure",
        tuple(Variable(n, TF) for n in decl),
        tuple(Cpt(c, ps, ((0.5, 0.5),) * 2 ** len(ps)) for c, ps in cpts),
    )


CYCLE_TEXTS = [
    # Children declared before their parents; each network has two or more cycles.
    ("DCBA", [("C", ("D",)), ("A", ("B",)), ("D", ("C",)), ("B", ("A",))], "C -> D -> C"),
    ("EDCBA", [("A", ("B", "E")), ("B", ("C",)), ("C", ("A", "D")), ("D", ("B",)), ("E", ())],
     "A -> B -> C -> A"),
    ("CBA", [("A", ("B",)), ("B", ("C",)), ("C", ("C", "A"))], "C -> C"),
    ("CBA", [("A", ("B",)), ("B", ("C",)), ("C", ("B", "A"))], "B -> C -> B"),
    ([f"V{i}" for i in range(7, -1, -1)], [(f"V{i}", (f"V{(i - 1) % 8}", f"V{(i + 3) % 8}")) for i in range(8)],
     "V0 -> V7 -> V6 -> V5 -> ... -> V0"),
    ("FEDCBA", [("A", ("F",)), ("B", ("A",)), ("C", ("B",)), ("D", ("C", "A")), ("E", ("D",)), ("F", ("E", "B"))],
     "A -> F -> E -> D -> ... -> A"),
    # The last CPT of A counts: its first CPT has no parents.
    ("CBA", [("A", ()), ("B", ("A",)), ("C", ("B",)), ("A", ("C", "B"))], "A -> C -> B -> A"),
]


@pytest.mark.parametrize("decl, cpts, text", CYCLE_TEXTS)
def test_cycle_text_is_pinned(decl, cpts, text):
    net = _structure(decl, cpts)
    assert Violation("cycle", "graph", text) in validate_network(net)


def _graph_cases():
    # Corrupted networks, and random networks declared out of order, half of
    # them with one extra parent edge that may close a cycle.
    for seed in range(3000):
        yield corrupted_network(random.Random(seed))
    rng = random.Random(24)
    for _ in range(300):
        net = random_network(rng, rng.randint(1, 10))
        variables, cpts = list(net.variables), list(net.cpts)
        rng.shuffle(variables)
        rng.shuffle(cpts)
        if rng.random() < 0.5:
            i = rng.randrange(len(cpts))
            cpts[i] = Cpt(cpts[i].child, (*cpts[i].parents, rng.choice(net.names)), cpts[i].rows)
        yield Network(net.name, tuple(variables), tuple(cpts))


def test_graph_queries_agree_with_the_oracles():
    cyclic = 0
    for net in _graph_cases():
        cycle = _find_cycle(net)
        assert (cycle is None) == peel_acyclic(net)
        if cycle is None:
            continue
        cyclic += 1
        parents = last_cpt_parents(net)
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(parent in parents[child] for child, parent in zip(cycle, cycle[1:]))
    assert cyclic > 200


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


def test_dsep_agrees_with_the_path_oracle():
    rng = random.Random(25)
    verdicts = []
    for _ in range(300):
        net = random_network(rng, rng.randint(3, 9), max_parents=rng.randint(1, 4), max_states=3)
        for _ in range(5):
            names = list(net.names)
            rng.shuffle(names)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            if a + b > len(names):
                a = b = 1
            c = rng.randint(0, min(3, len(names) - a - b))
            x, y, z = set(names[:a]), set(names[a:a + b]), set(names[a + b:a + b + c])
            verdict = d_separated(net, x, y, z)
            assert verdict == brute_d_separated(net, x, y, z), (net.cpts, x, y, z)
            verdicts.append(verdict)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_graph_queries_read_the_last_cpt_of_a_child():
    # B's CPTs list A, then no parent: the last one counts, so A and B share no edge.
    net = _structure("AB", [("A", ()), ("B", ("A",)), ("B", ())])
    assert net.parents("B") == ()
    assert moral_adjacency(net, net.names) == {"A": set(), "B": set()}
    assert d_separated(net, {"A"}, {"B"}, set()) is True


def test_moral_adjacency_over_an_ancestral_set():
    net = collider()  # C1 -> M <- C2
    assert moral_adjacency(net, net.names) == {"C1": {"C2", "M"}, "C2": {"C1", "M"}, "M": {"C1", "C2"}}
    assert moral_adjacency(net, {"C1", "C2"}) == {"C1": set(), "C2": set()}


def test_dsep_unknown_variable():
    net = binary_chain(2)
    with pytest.raises(InvalidQueryError):
        d_separated(net, {"V0"}, {"nope"}, set())


def test_dsep_overlapping_sets_rejected():
    net = binary_chain(3)
    with pytest.raises(InvalidQueryError):
        d_separated(net, {"V0"}, {"V0"}, set())


def test_variable_list_given_as_a_string_is_rejected():
    # A string would iterate into its characters, each one a variable name here.
    net = Network("letters", (Variable("A", TF), Variable("B", TF), Variable("C", TF)),
                  (Cpt("A", (), ((0.5, 0.5),)), Cpt("B", ("A",), ((0.8, 0.2), (0.3, 0.7))),
                   Cpt("C", ("B",), ((0.8, 0.2), (0.3, 0.7)))))
    for call in (
        lambda: ordered_vars(net, "AB"),
        lambda: canonical_vars(net, "AB"),
        lambda: enumerate_assignments(net, "AB"),
        lambda: QueryPartition({"C": "T"}, "A", ("B",)),
        lambda: QueryPartition({"C": "T"}, ("A",), "B"),
        lambda: d_separated(net, "A", {"C"}, set()),
        lambda: d_separated(net, {"A"}, "C", set()),
        lambda: d_separated(net, {"A"}, {"C"}, "B"),
    ):
        with pytest.raises(InvalidQueryError, match="got the string"):
            list(call())


def test_evidence_given_as_a_string_is_rejected(fig1b):
    # dict("C") would fail with a bare ValueError, and "C".items() with an AttributeError.
    for call in (
        lambda: QueryPartition("C", ("A",), ("B",)),
        lambda: check_assignment(fig1b, "C"),
    ):
        with pytest.raises(InvalidQueryError, match="expected a mapping from variable names to states, got 'C'"):
            call()


def test_state_index_resolves_states_and_names_what_is_unknown(fig1b):
    assert [fig1b.state_index(v.name, s) for v in fig1b.variables for s in v.states] == [0, 1] * len(fig1b.variables)
    for call, message in (
        (lambda: fig1b.state_index("Z", "T"), "unknown variable 'Z' in network 'fig1b'"),
        (lambda: fig1b.state_index("A", "X"), "unknown state 'X' for variable 'A'"),
        (lambda: fig1b.state_index("A", ["T"]), "unknown state ['T'] for variable 'A'"),
        (lambda: fig1b.state_index("A", "T" * 5000), "unknown state 'TTTTTTTTTTTT...TTTTTTTTTTTTT' for variable 'A'"),
    ):
        with pytest.raises(InvalidQueryError) as info:
            call()
        assert str(info.value) == message


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
        digits = "".join(str(net.state_index(name, assignment[name])) for name in names)
        assert int(digits, 2) == rank
    assert len(seen) == 2 ** k


def test_mixed_cardinality_enumeration(fn_ter):
    combos = list(enumerate_assignments(fn_ter, ["R", "H"]))
    assert len(combos) == 6
    assert combos[0] == {"R": "T", "H": "h1"}
    assert combos[1] == {"R": "T", "H": "h2"}  # last variable varies fastest
    assert combos[-1] == {"R": "F", "H": "h3"}


# ---------------------------------------------------------------------------
# min-fill elimination order


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


def near_chordal_graph(rng):
    """A random tree or chordal graph on up to 25 nodes, plus up to 2 random extra edges.

    Each new node joins a clique of the graph so far (a random node and some
    of its pairwise adjacent neighbors; for a tree, the node alone), so the
    graph before the extra edges is chordal and min-fill eliminates it with
    fill 0 throughout; the extra edges make a few steps create fill.
    """
    names = [f"N{i}" for i in range(rng.randint(1, 25))]
    tree = rng.random() < 0.5
    adjacency = {names[0]: set()}
    for v in names[1:]:
        u = rng.choice(list(adjacency))
        clique = [u]
        if not tree:
            for w in rng.sample(sorted(adjacency[u]), len(adjacency[u])):
                if rng.random() < 0.6 and all(w in adjacency[c] for c in clique[1:]):
                    clique.append(w)
        adjacency[v] = set(clique)
        for c in clique:
            adjacency[c].add(v)
    for _ in range(rng.randint(0, 2) if len(names) > 1 else 0):
        a, b = rng.sample(names, 2)
        adjacency[a].add(b)
        adjacency[b].add(a)
    order = list(adjacency)
    rng.shuffle(order)
    ranks = list(range(len(names)))
    rng.shuffle(ranks)
    return {v: adjacency[v] for v in order}, dict(zip(order, ranks))


def test_min_fill_core_keeps_keys_up_to_date_on_near_chordal_graphs():
    # Mostly fill-0 steps, which update each neighbor's key in place, with a
    # few fill-creating steps between them, which recount.
    rng = random.Random(1990)
    for _ in range(1500):
        adjacency, priority = near_chordal_graph(rng)
        nodes = sorted(adjacency, key=priority.__getitem__)
        masks = [sum(1 << nodes.index(a) for a in adjacency[v]) for v in nodes]
        expected = brute_min_fill_order(adjacency, priority)
        assert _min_fill(nodes, masks) == expected
        assert min_fill_order(adjacency, priority) == expected


def test_min_fill_core_recounts_every_changed_key_on_dense_graphs():
    # At edge density 0.3-0.6 most steps create fill, so most keys come from
    # the recount after a fill-creating step, not from the in-place update.
    rng = random.Random(2114)
    for _ in range(3000):
        n = rng.randint(8, 14)
        density = rng.uniform(0.3, 0.6)
        masks = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < density:
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
        nodes = [f"N{i}" for i in range(n)]
        adjacency = {v: {nodes[j] for j in range(n) if mask >> j & 1} for v, mask in zip(nodes, masks)}
        assert _min_fill(nodes, masks) == brute_min_fill_order(adjacency, {v: i for i, v in enumerate(nodes)})


def test_stats_width_matches_full_rescan_on_400_nodes():
    net = random_network(random.Random(400), 400, max_parents=2)
    priority = {name: i for i, name in enumerate(net.names)}
    adjacency = moral_adjacency(net, net.names)
    assert min_fill_order(adjacency, priority) == brute_min_fill_order(adjacency, priority)


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


# ---------------------------------------------------------------------------
# package exports


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mapindep import *", namespace)
    assert set(mapindep.__all__) <= namespace.keys()
    for name in ("topological_order", "network_stats", "NetworkStats"):
        assert name not in mapindep.__all__ and not hasattr(mapindep, name) and not hasattr(model, name)
