"""Propositional formulas and their compilation into Bayesian networks.

The construction gives every formula variable a uniform binary root node
and every operator occurrence a deterministic binary node whose CPT is the
operator's truth table, so the top node's probability of being true equals
the satisfying fraction of the formula:  Pr(top = T) = #models / 2^n.

That makes the compiled networks a convenient source of adversarial
threshold-independence instances: asking whether Pr(top = T, r) > 2^(-|A|-1)
for every assignment r to a chosen variable subset A is exactly the
question of whether each A-assignment leaves a majority of the remaining
assignments satisfying.

Grammar (ASCII canonical; the Unicode connectives are aliases)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '!' factor | '(' expr ')' | identifier

``!`` binds tightest, then ``&``, then ``|``; the binary connectives are
left-associative and always parse to strictly binary AST nodes.  A chain of
``&`` or ``|`` may be as long as memory allows, but ``!`` and ``(`` may nest
at most ``MAX_FORMULA_DEPTH`` (200) levels deep, counted together: the parser
recurses once per level, and a deeper formula is refused with a
``FormulaSyntaxError`` at the byte offset of the first token past the bound.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Union

from .errors import CapacityError, FormulaSyntaxError, InvalidQueryError
from .model import Assignment, Cpt, Network, Variable

MODEL_COUNT_MAX_VARS = 24

# How many '!' and '(' levels a formula may nest, counted together.
MAX_FORMULA_DEPTH = 200

_T, _F = "T", "F"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "FormulaAst"


@dataclass(frozen=True)
class And:
    left: "FormulaAst"
    right: "FormulaAst"


@dataclass(frozen=True)
class Or:
    left: "FormulaAst"
    right: "FormulaAst"


FormulaAst = Union[Var, Not, And, Or]


@dataclass(frozen=True)
class ThresholdQuery:
    """A ready-to-run threshold-independence query emitted by the reduction."""

    h_star: Assignment
    focus: tuple[str, ...]
    evidence: Assignment
    s: Fraction


@dataclass(frozen=True)
class CompiledInstance:
    network: Network
    phi_node: str
    variable_nodes: tuple[str, ...]
    query: ThresholdQuery | None = None


# ---------------------------------------------------------------------------
# parsing

_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, byte offset) triples; kinds: ident ! & | ( ) end."""
    tokens = []
    offset = 0
    i = 0
    while i < len(text):
        ch = text[i]
        nbytes = len(ch.encode("utf-8"))
        if ch.isspace():
            i += 1
            offset += nbytes
            continue
        ch = _ALIASES.get(ch, ch)
        if ch in "!&|()":
            tokens.append((ch, ch, offset))
            i += 1
            offset += nbytes
            continue
        if ch in _IDENT_START:
            start_i, start_off = i, offset
            while i < len(text) and text[i] in _IDENT_CONT:
                offset += 1  # identifier characters are ASCII, one byte each
                i += 1
            tokens.append(("ident", text[start_i:i], start_off))
            continue
        raise FormulaSyntaxError(f"unexpected character {text[i]!r}", offset)
    tokens.append(("end", "", offset))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> FormulaAst:
        node = self.term()
        while self.peek()[0] == "|":
            self.advance()
            node = Or(node, self.term())
        return node

    def term(self) -> FormulaAst:
        node = self.factor()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.factor())
        return node

    def factor(self) -> FormulaAst:
        kind, text, offset = self.advance()
        if kind == "ident":
            return Var(text)
        if kind not in ("!", "("):
            found = reprlib.repr(text) if text else "end of input"
            raise FormulaSyntaxError(f"expected '!', '(' or identifier, found {found}", offset)
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(f"formula nests '!' and '(' more than {MAX_FORMULA_DEPTH} deep", offset)
        if kind == "!":
            node = Not(self.factor())
        else:
            node = self.expr()
            kind, _, offset = self.peek()
            if kind != ")":
                raise FormulaSyntaxError("expected ')'", offset)
            self.advance()
        self.depth -= 1
        return node


def parse_formula(text: str) -> FormulaAst:
    """Parse the grammar above into an AST; raises FormulaSyntaxError with a byte offset."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise FormulaSyntaxError("empty formula", 0)
    parser = _Parser(tokens)
    ast = parser.expr()
    kind, text_, offset = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing {reprlib.repr(text_)}", offset)
    return ast


def format_formula(ast: FormulaAst) -> str:
    """Canonical ASCII rendering; parse(format(ast)) reproduces the AST."""
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Not):
        return f"!{_wrap(ast.operand)}"
    op = "&" if isinstance(ast, And) else "|"
    return f"{_wrap(ast.left)} {op} {_wrap(ast.right)}"


def _wrap(ast: FormulaAst) -> str:
    if isinstance(ast, (And, Or)):
        return f"({format_formula(ast)})"
    return format_formula(ast)


def formula_variables(ast: FormulaAst) -> tuple[str, ...]:
    """Variable identifiers in order of first occurrence (preorder)."""
    seen: dict[str, None] = {}
    for node in _preorder(ast):
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
    return tuple(seen)


def _preorder(ast: FormulaAst) -> Iterator[FormulaAst]:
    stack = [ast]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend((node.right, node.left))


def evaluate(ast: FormulaAst, env: dict[str, bool]) -> bool:
    if isinstance(ast, Var):
        return env[ast.name]
    if isinstance(ast, Not):
        return not evaluate(ast.operand, env)
    if isinstance(ast, And):
        return evaluate(ast.left, env) and evaluate(ast.right, env)
    return evaluate(ast.left, env) or evaluate(ast.right, env)


def count_models(ast: FormulaAst) -> int:
    """Exhaustive truth-table count of satisfying assignments (guarded)."""
    names = formula_variables(ast)
    if len(names) > MODEL_COUNT_MAX_VARS:
        raise CapacityError(f"model counting guarded at {MODEL_COUNT_MAX_VARS} variables, got {len(names)}")
    count = 0
    for values in product((False, True), repeat=len(names)):
        if evaluate(ast, dict(zip(names, values))):
            count += 1
    return count


# ---------------------------------------------------------------------------
# network construction

# Rows over the parent assignments (last parent fastest), columns (T, F).
_NOT_ROWS = ((0.0, 1.0), (1.0, 0.0))
_ID_ROWS = ((1.0, 0.0), (0.0, 1.0))
_AND_ROWS = ((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
_OR_ROWS = ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def compile_network(ast: FormulaAst, name: str = "compiled") -> CompiledInstance:
    """Compile a formula into a network whose top node is true with the
    satisfying fraction.

    Each formula variable becomes a uniform binary root; each operator
    occurrence becomes a deterministic node over its operand nodes.  A
    bare-variable formula gets an identity node so the top node always
    exists.  Operator nodes are named ``<kind>_<preorder index>``.
    """
    var_names = formula_variables(ast)
    taken = set(var_names)
    variables = [Variable(v, (_T, _F)) for v in var_names]
    cpts = [Cpt(v, (), ((0.5, 0.5),)) for v in var_names]
    counter = 0

    def fresh(kind: str) -> str:
        nonlocal counter
        counter += 1
        node = f"{kind}_{counter}"
        while node in taken:
            node = "_" + node
        taken.add(node)
        return node

    # An explicit stack, so that no formula is too deep to compile: an
    # operator is named when it is popped (preorder), and declared when the
    # (name, rows, arity) entry pushed under its operands is popped after
    # them (post-order).  A bare variable starts under its identity node.
    stack: list = [(fresh("id"), _ID_ROWS, 1), ast] if isinstance(ast, Var) else [ast]
    built: list[str] = []  # node names of the operands built so far
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            built.append(node.name)
        elif isinstance(node, Not):
            stack += [(fresh("not"), _NOT_ROWS, 1), node.operand]
        elif isinstance(node, (And, Or)):
            kind, rows = ("and", _AND_ROWS) if isinstance(node, And) else ("or", _OR_ROWS)
            stack += [(fresh(kind), rows, 2), node.right, node.left]
        else:
            name_, rows, arity = node
            operands = tuple(built[-arity:])
            del built[-arity:]
            if arity == 2 and operands[0] == operands[1]:
                # x&x and x|x both collapse to the diagonal of the truth table.
                operands, rows = operands[:1], _ID_ROWS
            variables.append(Variable(name_, (_T, _F)))
            cpts.append(Cpt(name_, operands, rows))
            built.append(name_)
    (phi,) = built
    net = Network(name=name, variables=tuple(variables), cpts=tuple(cpts))
    return CompiledInstance(network=net, phi_node=phi, variable_nodes=var_names)


def build_amajsat_instance(ast: FormulaAst, a_vars) -> CompiledInstance:
    """Compile the formula and attach the majority-threshold query for ``a_vars``.

    With every root uniform, Pr(top = T, r) > 2^(-|A|-1) for all r over the
    A-nodes holds exactly when each assignment to A leaves a strict majority
    of assignments to the remaining variables satisfying the formula.
    """
    a = tuple(a_vars)
    names = formula_variables(ast)
    if not a:
        raise InvalidQueryError("the A-set must be non-empty")
    if len(set(a)) != len(a):
        raise InvalidQueryError("the A-set contains duplicates")
    unknown = [v for v in a if v not in names]
    if unknown:
        raise InvalidQueryError(f"A-set variables not in the formula: {reprlib.repr(unknown)}")
    if len(a) >= len(names):
        raise InvalidQueryError("the A-set must be a proper subset of the formula variables")
    compiled = compile_network(ast)
    query = ThresholdQuery(
        h_star={compiled.phi_node: _T},
        focus=a,
        evidence={},
        s=Fraction(1, 2 ** (len(a) + 1)),
    )
    return CompiledInstance(
        network=compiled.network,
        phi_node=compiled.phi_node,
        variable_nodes=compiled.variable_nodes,
        query=query,
    )
