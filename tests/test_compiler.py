import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapindep.compiler import (
    MAX_FORMULA_DEPTH,
    And,
    Not,
    Or,
    Var,
    build_amajsat_instance,
    compile_network,
    count_models,
    evaluate,
    format_formula,
    formula_variables,
    parse_formula,
)
from mapindep.errors import CapacityError, FormulaSyntaxError, InvalidQueryError
from mapindep.independence import threshold_map_independence
from mapindep.inference import marginal, posterior
from mapindep.model import QueryPartition, validate_network
from netgen import random_formula
from oracles import brute_amajsat, truth_table_count

PHI_EX = "!(x1 & x2) | (x3 | x4)"


# ---------------------------------------------------------------------------
# parsing


def test_parse_running_example():
    ast = parse_formula(PHI_EX)
    assert ast == Or(Not(And(Var("x1"), Var("x2"))), Or(Var("x3"), Var("x4")))


def test_parse_bare_variable():
    assert parse_formula("x1") == Var("x1")


def test_parse_left_associative_chain():
    assert parse_formula("x1 & x2 & x3") == And(And(Var("x1"), Var("x2")), Var("x3"))
    assert parse_formula("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))


def test_parse_precedence():
    assert parse_formula("!a & b | c") == Or(And(Not(Var("a")), Var("b")), Var("c"))


def test_parse_unicode_aliases():
    assert parse_formula("¬(x1 ∧ x2) ∨ x3") == parse_formula("!(x1 & x2) | x3")


def test_parse_double_negation():
    assert parse_formula("!!x") == Not(Not(Var("x")))


def test_parse_empty_input():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("   ")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x1 & $", 5),
        ("x1 &", 4),
        ("(x1", 3),
        ("x1 x2", 3),
        ("¬ ∧", 3),  # the alias for '&' sits at byte 3 (after the 2-byte '¬' and a space)
    ],
)
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.offset == offset


def test_formula_variables_first_occurrence_order():
    assert formula_variables(parse_formula("x2 & (x1 | x2) & x3")) == ("x2", "x1", "x3")


ident = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
formulas = st.recursive(
    st.builds(Var, ident),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
    ),
    max_leaves=12,
)


@settings(deadline=None, max_examples=150)
@given(ast=formulas)
def test_format_parse_round_trip(ast):
    assert parse_formula(format_formula(ast)) == ast


# ---------------------------------------------------------------------------
# model counting


def test_count_models_running_example():
    assert count_models(parse_formula(PHI_EX)) == 15


def test_count_models_conjunction():
    assert count_models(parse_formula("x1 & x2")) == 1


def test_count_models_tautology():
    assert count_models(parse_formula("x1 | !x1")) == 2


def _brute_count(ast):
    names = formula_variables(ast)
    return sum(evaluate(ast, dict(zip(names, values))) for values in product((False, True), repeat=len(names)))


@settings(deadline=None, max_examples=150)
@given(ast=formulas)
def test_count_models_agrees_with_brute_evaluation(ast):
    assert count_models(ast) == _brute_count(ast)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_count_models_past_one_block(n):
    # Past 16 variables the count folds more than one block of 2^16 assignments.
    rng = random.Random(n)
    names = [f"v{i}" for i in range(n)]
    ast = random_formula(rng, names, 2 * n)
    while len(formula_variables(ast)) < 17:
        ast = random_formula(rng, names, 2 * n)
    assert count_models(ast) == truth_table_count(ast)


def test_evaluate_reads_every_variable():
    # No short-circuit: an env without y fails even where x alone decides.
    with pytest.raises(KeyError):
        evaluate(parse_formula("x | y"), {"x": True})


def test_count_models_guard():
    wide = " | ".join(f"v{i}" for i in range(25))
    with pytest.raises(CapacityError):
        count_models(parse_formula(wide))


@pytest.mark.parametrize("opening, closing", [("!", ""), ("(", ")"), ("(!", ")")])
def test_parse_nesting_bound(opening, closing):
    # '!' and '(' count together; the error points at the first token past the bound.
    levels = MAX_FORMULA_DEPTH // len(opening)
    assert parse_formula(opening * levels + "x" + closing * levels) is not None
    deeper = opening * levels + "!x" + closing * levels
    with pytest.raises(FormulaSyntaxError, match=f"more than {MAX_FORMULA_DEPTH} deep") as exc:
        parse_formula(deeper)
    assert exc.value.offset == MAX_FORMULA_DEPTH


def test_parse_long_flat_chain():
    ast = parse_formula(" & ".join(f"x{i}" for i in range(3000)))
    assert formula_variables(ast) == tuple(f"x{i}" for i in range(3000))


def test_parse_refuses_a_lone_surrogate():
    # A byte that is not UTF-8 reaches argv as a lone surrogate, which has no UTF-8 encoding.
    with pytest.raises(FormulaSyntaxError, match="unexpected character") as exc:
        parse_formula("x1 & \udcff")
    assert exc.value.offset == 5


@pytest.mark.parametrize("op, models", [("|", 2 ** 20 - 1), ("&", 1)])
def test_long_flat_chain_formats_evaluates_and_counts(op, models):
    # The left-deep tree of a 1,500-term chain is 1,499 levels deep; no walk recurses.
    names = [f"x{i % 20}" for i in range(1500)]
    ast = parse_formula(f" {op} ".join(names))
    assert format_formula(ast) == f" {op} ".join(names)
    assert formula_variables(ast) == tuple(f"x{i}" for i in range(20))
    assert count_models(ast) == models
    every = dict.fromkeys(names, op == "&")
    assert evaluate(ast, every) is (op == "&")
    assert evaluate(ast, every | {"x7": op == "|"}) is (op == "|")


def test_format_of_a_long_chain_parses_back():
    # A left operand of the same connective goes bare, so the chain's '(' do not nest past the bound.
    ast = parse_formula(" | ".join(["x0"] * 300))
    text = format_formula(ast)
    assert "(" not in text
    assert format_formula(parse_formula(text)) == text
    # Right operands and operands of the other connective keep their parentheses.
    assert format_formula(parse_formula("a | (b | c) | d & e")) == "a | (b | c) | (d & e)"


def test_ast_equality_and_hash_hold_to_the_documented_depth():
    # Their dataclass == and hash recurse; the AST docstring promises 250 levels.
    def build():
        negations, chain = Var("x"), Var("x")
        for _ in range(250):
            negations, chain = Not(negations), Or(chain, Var("x"))
        return negations, chain

    for ast, copy in zip(build(), build()):
        assert copy == ast and hash(copy) == hash(ast)


# ---------------------------------------------------------------------------
# compilation


def test_compile_running_example():
    instance = compile_network(parse_formula(PHI_EX))
    assert len(instance.variable_nodes) == 4
    assert len(instance.network.variables) == 8
    assert marginal(instance.network, {instance.phi_node: "T"}) == 15 / 16


def test_compile_conjunction_probability():
    instance = compile_network(parse_formula("x1 & x2"))
    assert marginal(instance.network, {instance.phi_node: "T"}) == 0.25


def test_compile_tautology_probability():
    instance = compile_network(parse_formula("x1 | !x1"))
    assert marginal(instance.network, {instance.phi_node: "T"}) == 1.0


def test_compile_single_leaf_gets_identity_top():
    instance = compile_network(parse_formula("x1"))
    assert instance.phi_node == "id_1"
    assert len(instance.network.variables) == 2
    assert marginal(instance.network, {instance.phi_node: "T"}) == 0.5


def test_compile_operator_nodes_are_deterministic():
    instance = compile_network(parse_formula(PHI_EX))
    roots = set(instance.variable_nodes)
    for cpt in instance.network.cpts:
        if cpt.child in roots:
            assert cpt.rows == ((0.5, 0.5),)
        else:
            assert all(entry in (0.0, 1.0) for row in cpt.rows for entry in row)


def test_compile_networks_validate():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(6)]
    for _ in range(25):
        ast = random_formula(rng, names, rng.randint(0, 8))
        assert validate_network(compile_network(ast).network) == []


def test_compile_names_in_preorder_and_declares_in_post_order():
    instance = compile_network(parse_formula(PHI_EX))
    assert instance.network.names == ("x1", "x2", "x3", "x4", "and_3", "not_2", "or_4", "or_1")
    assert instance.phi_node == "or_1"
    assert [c.parents for c in instance.network.cpts[4:]] == [("x1", "x2"), ("and_3",), ("x3", "x4"),
                                                              ("not_2", "or_4")]


def test_compile_long_flat_chain():
    # The left-deep tree of a flat chain is as deep as the chain is long.
    n = 1500
    instance = compile_network(parse_formula(" | ".join(f"x{i}" for i in range(n))))
    net = instance.network
    assert net.names == tuple(f"x{i}" for i in range(n)) + tuple(f"or_{i}" for i in range(n - 1, 0, -1))
    assert net.cpt("or_1").parents == ("or_2", f"x{n - 1}")
    assert net.cpt(f"or_{n - 1}").parents == ("x0", "x1")
    assert instance.phi_node == "or_1"
    assert validate_network(net) == []


def test_compile_names_each_occurrence_of_a_shared_subtree():
    shared = Not(Var("x"))
    instance = compile_network(And(shared, shared))
    assert instance.network.names == ("x", "not_2", "not_3", "and_1")
    assert instance.network.cpt("and_1").parents == ("not_2", "not_3")


def test_compile_deepest_negation_chain():
    instance = compile_network(parse_formula("!" * MAX_FORMULA_DEPTH + "x"))
    assert instance.phi_node == "not_1"
    assert marginal(instance.network, {instance.phi_node: "T"}) == 0.5


def test_compile_operator_names_cannot_collide_with_variables():
    instance = compile_network(parse_formula("or_1 | x"))
    names = [v.name for v in instance.network.variables]
    assert len(names) == len(set(names))
    assert marginal(instance.network, {instance.phi_node: "T"}) == 0.75


@settings(deadline=None, max_examples=60)
@given(ast=formulas)
def test_compile_soundness_against_model_count(ast):
    n = len(formula_variables(ast))
    instance = compile_network(ast)
    assert marginal(instance.network, {instance.phi_node: "T"}) * 2 ** n == count_models(ast)


def test_conditional_soundness_on_random_assignments():
    rng = random.Random(19)
    names = [f"v{i}" for i in range(5)]
    for _ in range(25):
        ast = random_formula(rng, names, rng.randint(1, 7))
        instance = compile_network(ast)
        roots = formula_variables(ast)
        env = {v: rng.random() < 0.5 for v in roots}
        observed = {v: "T" if env[v] else "F" for v in roots}
        p = posterior(instance.network, {instance.phi_node: "T"}, observed)
        assert p == (1.0 if evaluate(ast, env) else 0.0)


# ---------------------------------------------------------------------------
# the majority-threshold reduction


def run_instance(instance):
    q = instance.query
    partition = QueryPartition(evidence=q.evidence, hypothesis=(instance.phi_node,), focus=q.focus)
    return threshold_map_independence(instance.network, q.h_star, partition, q.s)


def test_amajsat_running_example_is_yes():
    instance = build_amajsat_instance(parse_formula(PHI_EX), ("x1", "x2"))
    assert instance.query.s == Fraction(1, 8)
    report = run_instance(instance)
    assert report.verdict is True
    assert report.min_joint == 3 / 16


def test_amajsat_conjunction_is_no():
    instance = build_amajsat_instance(parse_formula("x1 & x2"), ("x1",))
    assert instance.query.s == Fraction(1, 4)
    assert run_instance(instance).verdict is False


def test_amajsat_strict_inequality_at_boundary():
    # Pr(top=T, x1=F) is exactly 1/4, which is not strictly above s = 1/4.
    instance = build_amajsat_instance(parse_formula("x1 | x2"), ("x1",))
    report = run_instance(instance)
    assert report.verdict is False
    assert report.min_joint == 0.25


def test_amajsat_rejects_bad_a_sets():
    ast = parse_formula("x1 & x2")
    with pytest.raises(InvalidQueryError):
        build_amajsat_instance(ast, ())
    with pytest.raises(InvalidQueryError):
        build_amajsat_instance(ast, ("x1", "x2"))
    with pytest.raises(InvalidQueryError):
        build_amajsat_instance(ast, ("zz",))
    with pytest.raises(InvalidQueryError, match="^the A-set contains duplicates$"):
        build_amajsat_instance(ast, ("x1", "x1"))


def test_reduction_faithful_to_brute_force_decider():
    rng = random.Random(23)
    agreements = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        ast = random_formula(rng, names, rng.randint(1, 8))
        present = formula_variables(ast)
        if len(present) < 2:
            continue
        a_size = rng.randint(1, len(present) - 1)
        a_vars = tuple(present[:a_size])
        instance = build_amajsat_instance(ast, a_vars)
        assert run_instance(instance).verdict == brute_amajsat(ast, a_vars)
        agreements += 1
    assert agreements >= 25
