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

Only the parser recurses.  Every other walk (compile, format, evaluate,
count, list the variables) is one fold on an explicit stack, ``_fold``.
``count_models`` folds 2^16 assignments at once, each value an integer of at
most 2^16 bits (8 KB), and holds at most as many values as the tree nests to
the right.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable, Union

from .errors import CapacityError, FormulaSyntaxError, InvalidQueryError
from .model import Assignment, Cpt, Network, Variable

MODEL_COUNT_MAX_VARS = 24
_BLOCK_VARS = 16  # count_models folds 2^16 assignments at once, one bit each

# How many '!' and '(' levels a formula may nest, counted together.
MAX_FORMULA_DEPTH = 200

_T, _F = "T", "F"


@dataclass(frozen=True)
class Var:
    """A formula variable.  Here as in Not, And and Or, ``==`` and ``hash``
    recurse once per level: they hold to 250 levels, but a longer chain of '&'
    or '|' raises RecursionError; compare it by its ``format_formula`` string."""

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
        ch = _ALIASES.get(text[i], text[i])
        if ch in _IDENT_START:
            j = i + 1
            while j < len(text) and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], offset))
            offset += j - i  # identifier characters are ASCII, one byte each
            i = j
            continue
        if ch in "!&|()":
            tokens.append((ch, ch, offset))
        elif not ch.isspace():  # refused before it is encoded: a lone surrogate has no UTF-8 bytes
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", offset)
        offset += len(text[i].encode("utf-8"))
        i += 1
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


def _fold(ast: FormulaAst, leaf: Callable, combine: Callable, enter: Callable = lambda op: None):
    """``ast`` valued bottom-up: a variable by ``leaf(var)``, an operator by
    ``combine(op, mark, *operand values)``, where ``mark = enter(op)`` was taken
    when the walk first reached it (preorder).  Leaves are met left to right,
    and a subtree is walked once per occurrence."""
    stack: list = [ast]
    values: list = []
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            values.append(leaf(node))
        elif isinstance(node, tuple):  # (operator, mark, arity), pushed under its operands
            op, mark, arity = node
            operands = values[-arity:]
            del values[-arity:]
            values.append(combine(op, mark, *operands))
        elif isinstance(node, Not):
            stack += [(node, enter(node), 1), node.operand]
        else:
            stack += [(node, enter(node), 2), node.right, node.left]
    return values[0]


def format_formula(ast: FormulaAst) -> str:
    """Canonical ASCII rendering; parse(format(ast)) reproduces the AST while
    the rendering nests '!' and '(' at most ``MAX_FORMULA_DEPTH`` deep."""

    def show(op, _, first, second=None):
        if isinstance(op, Not):
            return f"!({first})" if isinstance(op.operand, (And, Or)) else f"!{first}"
        left = f"({first})" if isinstance(op.left, (And, Or)) else first
        right = f"({second})" if isinstance(op.right, (And, Or)) else second
        return f"{left} {'&' if isinstance(op, And) else '|'} {right}"

    return _fold(ast, lambda var: var.name, show)


def formula_variables(ast: FormulaAst) -> tuple[str, ...]:
    """Variable identifiers in order of first occurrence (preorder)."""
    seen: dict[str, None] = {}
    _fold(ast, lambda var: seen.setdefault(var.name), lambda *_: None)
    return tuple(seen)


def _truth(ast: FormulaAst, env: dict, true):
    # '!' is '^ true': true is True for bools, all ones for bit-vectors.
    def connect(op, _, a, b=None):
        return true ^ a if isinstance(op, Not) else a & b if isinstance(op, And) else a | b

    return _fold(ast, lambda var: env[var.name], connect)


def evaluate(ast: FormulaAst, env: dict[str, bool]) -> bool:
    """The formula's truth under ``env``.  Every variable is read (no
    short-circuit), so ``env`` must map all of them to bools, or KeyError is raised."""
    return _truth(ast, env, True)


def count_models(ast: FormulaAst) -> int:
    """Exhaustive truth-table count of satisfying assignments (guarded).  The
    first 16 variables vary within a block of bit-vectors, and each assignment
    of the rest is one fold, bit k of a value its truth at the k-th row."""
    names = formula_variables(ast)
    if len(names) > MODEL_COUNT_MAX_VARS:
        raise CapacityError(f"model counting guarded at {MODEL_COUNT_MAX_VARS} variables, got {len(names)}")
    inner, outer = names[:_BLOCK_VARS], names[_BLOCK_VARS:]
    full = (1 << (1 << len(inner))) - 1
    # Bit k of variable i's column is bit i of k: runs of 2^i zeros and ones.
    columns = {v: full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i, v in enumerate(inner)}
    return sum(_truth(ast, columns | dict(zip(outer, fixed)), full).bit_count()
               for fixed in product((0, full), repeat=len(outer)))


# ---------------------------------------------------------------------------
# network construction

# Rows over the parent assignments (last parent fastest), columns (T, F).
_ID_ROWS = ((1.0, 0.0), (0.0, 1.0))
_ROWS = {Var: _ID_ROWS, Not: ((0.0, 1.0), (1.0, 0.0)), And: ((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
         Or: ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0))}
_KIND = {Var: "id", Not: "not", And: "and", Or: "or"}


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

    def fresh(op: FormulaAst) -> str:
        nonlocal counter
        counter += 1
        node = f"{_KIND[type(op)]}_{counter}"
        while node in taken:
            node = "_" + node
        taken.add(node)
        return node

    def declare(op: FormulaAst, name_: str, *operands: str) -> str:
        rows = _ROWS[type(op)]
        if len(operands) == 2 and operands[0] == operands[1]:
            # x&x and x|x both collapse to the diagonal of the truth table.
            operands, rows = operands[:1], _ID_ROWS
        variables.append(Variable(name_, (_T, _F)))
        cpts.append(Cpt(name_, operands, rows))
        return name_

    phi = _fold(ast, lambda var: var.name, declare, fresh)
    if isinstance(ast, Var):
        phi = declare(ast, fresh(ast), phi)
    net = Network(name=name, variables=tuple(variables), cpts=tuple(cpts))
    return CompiledInstance(network=net, phi_node=phi, variable_nodes=var_names)


def build_amajsat_instance(ast: FormulaAst, a_vars) -> CompiledInstance:
    """Compile the formula and attach the majority-threshold query for ``a_vars``.

    With every root uniform, Pr(top = T, r) > 2^(-|A|-1) for all r over the
    A-nodes holds exactly when each assignment to A leaves a strict majority
    of assignments to the remaining variables satisfying the formula.
    """
    a = tuple(a_vars)
    compiled = compile_network(ast)
    if not a:
        raise InvalidQueryError("the A-set must be non-empty")
    if len(set(a)) != len(a):
        raise InvalidQueryError("the A-set contains duplicates")
    unknown = [v for v in a if v not in compiled.variable_nodes]
    if unknown:
        raise InvalidQueryError(f"A-set variables not in the formula: {reprlib.repr(unknown)}")
    if len(a) >= len(compiled.variable_nodes):
        raise InvalidQueryError("the A-set must be a proper subset of the formula variables")
    query = ThresholdQuery(h_star={compiled.phi_node: _T}, focus=a, evidence={}, s=Fraction(1, 2 ** (len(a) + 1)))
    return replace(compiled, query=query)
