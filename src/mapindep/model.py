"""Discrete Bayesian network model: types, validation, and graph queries.

A network is a DAG of categorical variables with one conditional probability
table (CPT) per variable.  Networks are immutable after construction and all
operations here are pure functions, so a single network can be shared freely
across threads.

Ordering conventions used throughout the package:

* declaration order is canonical -- variable order, state order, CPT row
  order, assignment enumeration and tie-breaking all follow the order in
  which things were declared;
* CPT rows are laid out row-major over the parent list (the last parent
  varies fastest); columns follow the child's state list.
"""

from __future__ import annotations

import heapq
import reprlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from graphlib import CycleError, TopologicalSorter
from itertools import chain, product, repeat
from math import prod
from operator import add, lt, sub
from typing import TypeVar

from .errors import InvalidQueryError, NetworkValidationError, cut

# A (partial or full) joint value assignment: variable name -> state name.
Assignment = dict[str, str]

ROW_SUM_TOL = 1e-9

T = TypeVar("T")


@dataclass(frozen=True)
class Variable:
    """A categorical variable with at least two named states."""

    name: str
    states: tuple[str, ...]

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for ``child`` given ``parents``.

    ``rows`` holds one row per joint parent assignment (row-major, last
    parent fastest) and one column per child state.
    """

    child: str
    parents: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


@dataclass(frozen=True, eq=False)
class Network:
    """An ordered collection of variables plus one CPT per variable."""

    name: str
    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]

    # -- lookups (cached; the dataclass is frozen so these never go stale) --

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def cardinalities(self) -> dict[str, int]:
        """Each variable's number of states, by name."""
        return {v.name: len(v.states) for v in self.variables}

    @cached_property
    def _var_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def _cpt_by_child(self) -> dict[str, Cpt]:
        return {c.child: c for c in self.cpts}

    def _unknown_variable(self, name: str) -> InvalidQueryError:
        return InvalidQueryError(f"unknown variable {reprlib.repr(name)} in network {reprlib.repr(self.name)}")

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[self._var_index[name]]
        except KeyError:
            raise self._unknown_variable(name) from None

    def cpt(self, name: str) -> Cpt:
        self.variable(name)
        if name not in self._cpt_by_child:
            raise NetworkValidationError([Violation("missing_cpt", f"variable {cut(name)}", "no CPT declared")])
        return self._cpt_by_child[name]

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    def state_index(self, var: str, state: str) -> int:
        """The position of ``state`` in ``var``'s state list.  It is looked up
        per call, with no per-network index of every variable's states: a
        query resolves only its few evidence and hypothesis states."""
        i = self._var_index.get(var)
        if i is None:
            raise self._unknown_variable(var)
        try:
            return self.variables[i].states.index(state)
        except ValueError:
            raise InvalidQueryError(f"unknown state {reprlib.repr(state)} for variable {reprlib.repr(var)}") from None

    def cardinality(self, name: str) -> int:
        return self.variable(name).cardinality

    def declaration_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise self._unknown_variable(name) from None


@dataclass(frozen=True)
class NetworkStats:
    variable_count: int
    max_cardinality: int
    treewidth_upper_bound: int
    edge_count: int


@dataclass(frozen=True)
class Violation:
    """One violated network invariant, with its location."""

    code: str
    where: str
    message: str


@dataclass(frozen=True)
class QueryPartition:
    """The (evidence, hypothesis, focus) split a query operates on.

    Every variable not named here is intermediate and gets marginalized.
    ``focus`` is the set whose joint value assignments are swept (R), or the
    candidate pool (I^P) for the maximum-subset search.
    """

    evidence: Assignment = field(default_factory=dict)
    hypothesis: tuple[str, ...] = ()
    focus: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "evidence", as_assignment(self.evidence))
        object.__setattr__(self, "hypothesis", tuple(_collection(self.hypothesis)))
        object.__setattr__(self, "focus", tuple(_collection(self.focus)))


# ---------------------------------------------------------------------------
# validation


def validate_network(net: Network) -> list[Violation]:
    """Collect every violated invariant; an empty list means the network is valid.

    Violations are data, not failures: structural problems (dangling parent
    references, bad shapes, cycles) and probabilistic ones (entries outside
    [0, 1], NaN included, rows not summing to 1 within ``ROW_SUM_TOL``) are
    all reported with their location.

    A network is first checked whole, by ``_holds_everywhere``: one predicate
    per invariant, each over the whole network at once.  Only when one of
    them fails (or raises, say on a non-numeric entry) does the locating
    pass, ``_locate_violations``, walk every CPT row to find and phrase what
    is wrong; its result, exceptions included, is the answer.
    """
    try:
        if _holds_everywhere(net):
            return []
    except Exception:
        pass  # the locating pass raises it again, or says where the fault lies
    return _locate_violations(net)


def _holds_everywhere(net: Network) -> bool:
    # True only if _locate_violations(net) would return []: each test below is
    # the conjunction of one of its per-variable, per-CPT or per-row checks.
    names = [v.name for v in net.variables]
    states = [v.states for v in net.variables]
    cards = dict(zip(names, map(len, states)))
    cpts = net.cpts
    children = [c.child for c in cpts]
    parents = [c.parents for c in cpts]
    tables = [c.rows for c in cpts]
    if not (
        len(cards) == len(names) == len(children)
        and min(cards.values()) >= 2
        and list(map(len, map(set, states))) == list(map(len, states))
        and set(children) == cards.keys()
        and cards.keys() >= set(chain.from_iterable(parents))
        and list(map(len, map(set, parents))) == list(map(len, parents))
    ):
        return False
    child_cards = list(map(cards.__getitem__, children))
    row_counts = list(map(len, tables))
    if row_counts != [prod(map(cards.__getitem__, ps)) for ps in parents]:
        return False
    rows = list(chain.from_iterable(tables))
    if list(map(len, rows)) != list(chain.from_iterable(map(repeat, child_cards, row_counts))):
        return False
    entries = list(chain.from_iterable(rows))
    total = sum(entries)  # NaN if any entry is NaN, which min and max may miss
    if not (total == total and 0.0 <= min(entries) and max(entries) <= 1.0):
        return False
    # Each row added left to right from 0, as _locate_violations does.
    row_sums = map(reduce, repeat(add), rows, repeat(0))
    if max(map(abs, map(sub, row_sums, repeat(1.0)))) > ROW_SUM_TOL:
        return False
    # Acyclic: every parent declared before its child, or else no cycle found.
    index = net._var_index
    parent_at = map(index.__getitem__, chain.from_iterable(parents))
    child_at = chain.from_iterable(map(repeat, map(index.__getitem__, children), map(len, parents)))
    return all(map(lt, parent_at, child_at)) or _find_cycle(net) is None


def _locate_violations(net: Network) -> list[Violation]:
    """``validate_network``'s answer, found by checking every CPT row in turn.

    Each violation is located and phrased as it is found, in declaration
    order: variables, then CPTs row by row, then missing CPTs, then one
    cycle.
    """
    out: list[Violation] = []
    seen_vars: set[str] = set()
    for v in net.variables:
        if v.name in seen_vars:
            out.append(Violation("duplicate_variable", f"variable {cut(v.name)}", "name declared twice"))
        seen_vars.add(v.name)
        if len(v.states) < 2:
            out.append(Violation("too_few_states", f"variable {cut(v.name)}",
                                 f"{len(v.states)} state(s), need at least 2"))
        if len(set(v.states)) != len(v.states):
            out.append(Violation("duplicate_state", f"variable {cut(v.name)}", "state names not unique"))

    cards = {v.name: v.cardinality for v in net.variables}
    seen_children: set[str] = set()
    for c in net.cpts:
        if c.child not in cards:
            out.append(Violation("unknown_child", f"cpt {cut(c.child)}", "no such variable"))
            continue
        if c.child in seen_children:
            out.append(Violation("duplicate_cpt", f"cpt {cut(c.child)}", "variable has more than one CPT"))
            continue
        seen_children.add(c.child)

        dangling = [p for p in c.parents if p not in cards]
        for p in dangling:
            out.append(Violation("dangling_parent", f"cpt {cut(c.child)}",
                                 f"parent {reprlib.repr(p)} is not a variable"))
        if len(set(c.parents)) != len(c.parents):
            out.append(Violation("duplicate_parent", f"cpt {cut(c.child)}", "parent listed twice"))
        if dangling:
            continue

        expected_rows = prod(cards[p] for p in c.parents)
        if len(c.rows) != expected_rows:
            out.append(Violation("shape", f"cpt {cut(c.child)}", f"{len(c.rows)} rows, expected {expected_rows}"))
            continue
        width = cards[c.child]
        for i, row in enumerate(c.rows):
            if len(row) != width:
                out.append(Violation("shape", f"cpt {cut(c.child)} row {i}", f"{len(row)} columns, expected {width}"))
                continue
            if any(not 0.0 <= p <= 1.0 for p in row):  # NaN fails every comparison
                out.append(Violation("probability_range", f"cpt {cut(c.child)} row {i}", "entry outside [0, 1]"))
            total = reduce(add, row, 0)  # left to right: the builtin sum is compensated from Python 3.12
            deviation = abs(total - 1.0)
            if deviation > ROW_SUM_TOL:
                out.append(Violation("row_sum", f"cpt {cut(c.child)} row {i}",
                                     f"sums to {total!r}, deviation {deviation:g}"))

    missing = [n for n in cards if n not in seen_children]
    for n in missing:
        out.append(Violation("missing_cpt", f"variable {cut(n)}", "no CPT declared"))

    cycle = _find_cycle(net)
    if cycle is not None:
        out.append(Violation("cycle", "graph", _cycle_text(cycle)))
    return out


def _cycle_text(cycle: list[str]) -> str:
    # A long cycle is named by its first four variables and the one it closes on.
    shown = cycle if len(cycle) <= 6 else [*cycle[:4], "...", cycle[-1]]
    return " -> ".join(map(cut, shown))


def _parent_lists(net: Network) -> dict[str, list[str]]:
    # Each declared child's resolvable parents; the last CPT of a child counts.
    index = net._var_index
    return {c.child: [p for p in c.parents if p in index] for c in net.cpts if c.child in index}


def _find_cycle(net: Network) -> list[str] | None:
    # One cycle as a closed walk along parent edges, or None.  Each child is
    # given its parents as successors, so graphlib's search walks the parent
    # lists from the children in CPT order.
    parents = _parent_lists(net)
    sorter = TopologicalSorter()
    for child in parents:
        sorter.add(child)
    for child, ps in parents.items():
        for p in ps:
            sorter.add(p, child)
    try:
        sorter.prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def as_assignment(assignment: Mapping[str, str]) -> Assignment:
    """A dict copy of ``assignment``; anything but a mapping (a string, say) is refused."""
    if not isinstance(assignment, Mapping):
        raise InvalidQueryError(f"expected a mapping from variable names to states, got {reprlib.repr(assignment)}")
    return dict(assignment)


def check_assignment(net: Network, assignment: Mapping[str, str]) -> None:
    """Raise InvalidQueryError unless ``assignment`` is a mapping of real variables to their states."""
    for var, state in as_assignment(assignment).items():
        net.state_index(var, state)


def _collection(vars: Iterable[str]) -> Iterable[str]:
    """``vars`` itself, unless it is a string: that would iterate into its characters."""
    if isinstance(vars, str):
        raise InvalidQueryError(f"expected a collection of variable names, got the string {reprlib.repr(vars)}")
    return vars


def ordered_vars(net: Network, vars: Iterable[str]) -> tuple[str, ...]:
    """Resolve a collection of variable names against the network.

    Sequences keep their order; unordered collections are canonicalized to
    declaration order.  Duplicates are rejected, and so is a string.
    """
    names = list(_collection(vars))
    for n in names:
        net.variable(n)
    if len(set(names)) != len(names):
        raise InvalidQueryError(f"duplicate variables in {reprlib.repr(names)}")
    if not isinstance(vars, (list, tuple)):
        names.sort(key=net.declaration_index)
    return tuple(names)


def canonical_vars(net: Network, vars: Iterable[str]) -> tuple[str, ...]:
    """Resolve names and sort them into declaration order."""
    return ordered_vars(net, set(ordered_vars(net, vars)))


# ---------------------------------------------------------------------------
# graph queries


def topological_order(net: Network) -> list[str]:
    """Variables ordered so every parent precedes its children.

    Each distinct name is placed once, and the last CPT of a child gives its
    parents.  Deterministic: among simultaneously ready variables the one
    with the lowest ``declaration_index`` wins.  Raises NetworkValidationError
    on a cycle.
    """
    sorter = TopologicalSorter({name: () for name in net.names} | _parent_lists(net))
    try:
        sorter.prepare()
    except CycleError:
        raise NetworkValidationError([Violation("cycle", "graph", _cycle_text(_find_cycle(net)))]) from None
    ready: list[int] = []
    order: list[str] = []
    while sorter.is_active():
        for name in sorter.get_ready():
            heapq.heappush(ready, net.declaration_index(name))
        name = net.variables[heapq.heappop(ready)].name
        order.append(name)
        sorter.done(name)
    return order


def ancestors(net: Network, names: Iterable[str]) -> set[str]:
    """The ancestral set of ``names``: the names themselves and every ancestor."""
    found = set(names)
    frontier = list(found)
    while frontier:
        for p in net.parents(frontier.pop()):
            if p not in found:
                found.add(p)
                frontier.append(p)
    return found


def d_separated(net: Network, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> bool:
    """Whether every undirected path between ``x`` and ``y`` is blocked given ``z``.

    Standard d-separation semantics, decided by the moralisation criterion
    (Lauritzen, Dawid, Larsen & Leimer, 1990): ``x`` and ``y`` are
    d-separated by ``z`` exactly when ``z`` separates them in the moral graph
    of the ancestral set of all three.  The last CPT of a child gives its
    parents.
    """
    if isinstance(z, Mapping):
        z = z.keys()
    xs = frozenset(ordered_vars(net, set(_collection(x))))
    ys = frozenset(ordered_vars(net, set(_collection(y))))
    zs = frozenset(ordered_vars(net, set(_collection(z))))
    if xs & ys or xs & zs or ys & zs:
        raise InvalidQueryError("d-separation query sets must be pairwise disjoint")

    adj = moral_adjacency(net, ancestors(net, xs | ys | zs))
    reached, frontier = set(xs), list(xs)
    while frontier:
        new = adj[frontier.pop()] - zs - reached
        reached |= new
        frontier.extend(new)
    return reached.isdisjoint(ys)


# ---------------------------------------------------------------------------
# assignment enumeration


def assignment_count(net: Network, vars: Iterable[str]) -> int:
    return prod(net.cardinality(v) for v in vars)


def assignment_at(net: Network, vars_ordered: tuple[str, ...], rank: int) -> Assignment:
    """Decode a row-major rank (last variable fastest) into an assignment."""
    out: dict[str, str] = {}
    for name in reversed(vars_ordered):
        var = net.variable(name)
        rank, idx = divmod(rank, var.cardinality)
        out[name] = var.states[idx]
    return {name: out[name] for name in vars_ordered}


def enumerate_assignments(net: Network, vars: Iterable[str]) -> Iterator[Assignment]:
    """Yield every full assignment over ``vars`` exactly once, in row-major order.

    The last variable varies fastest and states appear in declaration order,
    so the k-th yielded assignment has rank k.  An empty collection yields
    the single empty assignment.
    """
    names = ordered_vars(net, vars)
    for states in product(*(net.variable(name).states for name in names)):
        yield dict(zip(names, states))


# ---------------------------------------------------------------------------
# structural statistics


def min_fill_order(adjacency: Mapping[str, set[str]], priority: Mapping[str, int]) -> tuple[list[str], int]:
    """Greedy min-fill elimination order over an undirected interaction graph.

    Returns the order and its width (the largest neighbor set met at
    elimination time), which upper-bounds the graph's treewidth.  Each step
    eliminates the node with the smallest key ``(fill, priority)``, where fill
    counts the non-adjacent pairs among its neighbors.  Priorities are
    expected to be distinct; equal keys go to the node first in
    ``adjacency`` order.  The nodes are numbered in that order and their
    neighbor sets turned into bitmasks for ``_min_fill``, which counts fill
    with ``int.bit_count`` and updates keys in place after a fill-0 step.
    """
    nodes = sorted(adjacency, key=priority.__getitem__)
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    return _min_fill(nodes, [sum(bit[a] for a in adjacency[v]) for v in nodes])


def _min_fill(nodes: Sequence[T], neighbours: Sequence[int]) -> tuple[list[T], int]:
    """``min_fill_order`` on node ids: node i is ``nodes[i]``, its neighbors the bits of ``neighbours[i]``.

    Equal fills go to the lower id, so ``nodes`` lists the nodes by priority.
    A node's fill is counted with ``int.bit_count``: each neighbor a of v
    misses ``(N(v) & ~N(a)).bit_count() - 1`` of v's other neighbors, and
    every missing pair is met from both ends.  Every key is computed once
    and then kept up to date.  Eliminating ``best`` with fill 0 (its
    neighbors N already a clique) adds no edge: each a in N only loses
    ``best``, and with it the pairs of ``best`` with a's neighbors outside
    N, ``(N(a) & ~N & ~bit(best)).bit_count()`` of them.  When ``best`` had
    non-zero fill, the new fill edges all join two members of N, so only
    the nodes of N and the nodes outside N with two or more neighbors in N
    can have a neighbor pair whose adjacency changed; their keys are
    recounted and every other key stands.
    """
    n = len(nodes)
    adj = list(neighbours)

    def fill(v: int) -> int:
        nv = adj[v]
        missing, rest = -nv.bit_count(), nv
        while rest:
            low = rest & -rest
            missing += (nv & ~adj[low.bit_length() - 1]).bit_count()
            rest ^= low
        return missing // 2

    # A key is fill * n + id, so the smallest key breaks equal fills on the id.
    keys = {v: fill(v) * n + v for v in range(n)}
    order: list[T] = []
    width = 0
    while keys:
        key = min(keys.values())
        best = key % n
        del keys[best]
        ns, bit = adj[best], 1 << best
        width = max(width, ns.bit_count())
        rest = ns
        if key < n:
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                keys[a] -= (adj[a] & ~ns & ~bit).bit_count() * n
                adj[a] &= ~bit
                rest ^= low
        else:
            once = twice = 0
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                adj[a] = (adj[a] | ns) & ~(bit | low)
                outside = adj[a] & ~ns
                twice |= once & outside
                once |= outside
                rest ^= low
            changed = ns | twice
            while changed:
                low = changed & -changed
                v = low.bit_length() - 1
                keys[v] = fill(v) * n + v
                changed ^= low
        order.append(nodes[best])
    return order, width


def moral_adjacency(net: Network, names: Iterable[str] | None = None) -> dict[str, set[str]]:
    """Undirected moral graph over ``names``, every variable by default.

    Each child's family, the child and its parents, forms a clique; the last
    CPT of a child gives its parents, as ``Network.parents`` does.  ``names``
    must be ancestral (hold every parent of each of its members), so that
    every family met lies inside it.
    """
    adj: dict[str, set[str]] = {n: set() for n in (net.names if names is None else names)}
    for c in net._cpt_by_child.values():
        if c.child in adj:
            family = (c.child, *c.parents)
            for a in family:
                adj[a].update(family)
    for a, ns in adj.items():
        ns.discard(a)
    return adj


def network_stats(net: Network) -> NetworkStats:
    """Size statistics; the treewidth figure is a min-fill upper bound, not exact."""
    priority = {v.name: i for i, v in enumerate(net.variables)}
    _, width = min_fill_order(moral_adjacency(net), priority)
    return NetworkStats(
        variable_count=len(net.variables),
        max_cardinality=max((v.cardinality for v in net.variables), default=0),
        treewidth_upper_bound=width,
        edge_count=sum(len(c.parents) for c in net.cpts),
    )


def resolve_partition(net: Network, partition: QueryPartition) -> tuple[tuple[str, ...], Assignment, tuple[str, ...]]:
    """Validate a partition against the network.

    Returns (hypothesis, evidence, focus) with hypothesis and focus
    canonicalized to declaration order.  The three declared sets must be
    pairwise disjoint and the hypothesis non-empty.
    """
    check_assignment(net, partition.evidence)
    hypothesis = canonical_vars(net, partition.hypothesis)
    focus = canonical_vars(net, partition.focus)
    if not hypothesis:
        raise InvalidQueryError("hypothesis set must be non-empty")
    evid = set(partition.evidence)
    if evid & set(hypothesis) or evid & set(focus) or set(hypothesis) & set(focus):
        raise InvalidQueryError("evidence, hypothesis and focus must be pairwise disjoint")
    return hypothesis, dict(partition.evidence), focus
