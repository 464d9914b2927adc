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
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import prod

from .errors import InvalidQueryError, NetworkValidationError

# A (partial or full) joint value assignment: variable name -> state name.
Assignment = dict[str, str]

ROW_SUM_TOL = 1e-9


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
    def _var_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def _cpt_by_child(self) -> dict[str, Cpt]:
        return {c.child: c for c in self.cpts}

    @cached_property
    def _state_index(self) -> dict[str, dict[str, int]]:
        return {v.name: {s: i for i, s in enumerate(v.states)} for v in self.variables}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for c in self.cpts:
            for p in c.parents:
                if p in out:
                    out[p].append(c.child)
        return {k: tuple(v) for k, v in out.items()}

    def variable(self, name: str) -> Variable:
        try:
            return self.variables[self._var_index[name]]
        except KeyError:
            raise InvalidQueryError(f"unknown variable {name!r} in network {self.name!r}") from None

    def cpt(self, name: str) -> Cpt:
        self.variable(name)
        return self._cpt_by_child[name]

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._children[name]

    def state_index(self, var: str, state: str) -> int:
        table = self._state_index.get(var)
        if table is None:
            raise InvalidQueryError(f"unknown variable {var!r} in network {self.name!r}")
        try:
            return table[state]
        except KeyError:
            raise InvalidQueryError(f"unknown state {state!r} for variable {var!r}") from None

    def cardinality(self, name: str) -> int:
        return self.variable(name).cardinality

    def declaration_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise InvalidQueryError(f"unknown variable {name!r} in network {self.name!r}") from None


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
        object.__setattr__(self, "evidence", dict(self.evidence))
        object.__setattr__(self, "hypothesis", tuple(self.hypothesis))
        object.__setattr__(self, "focus", tuple(self.focus))


# ---------------------------------------------------------------------------
# validation


def validate_network(net: Network) -> list[Violation]:
    """Collect every violated invariant; an empty list means the network is valid.

    Violations are data, not failures: structural problems (dangling parent
    references, bad shapes, cycles) and probabilistic ones (entries outside
    [0, 1], NaN included, rows not summing to 1 within ``ROW_SUM_TOL``) are
    all reported with their location.
    """
    out: list[Violation] = []
    seen_vars: set[str] = set()
    for v in net.variables:
        if v.name in seen_vars:
            out.append(Violation("duplicate_variable", f"variable {v.name}", "name declared twice"))
        seen_vars.add(v.name)
        if len(v.states) < 2:
            out.append(Violation("too_few_states", f"variable {v.name}",
                                 f"{len(v.states)} state(s), need at least 2"))
        if len(set(v.states)) != len(v.states):
            out.append(Violation("duplicate_state", f"variable {v.name}", "state names not unique"))

    cards = {v.name: v.cardinality for v in net.variables}
    seen_children: set[str] = set()
    for c in net.cpts:
        if c.child not in cards:
            out.append(Violation("unknown_child", f"cpt {c.child}", "no such variable"))
            continue
        if c.child in seen_children:
            out.append(Violation("duplicate_cpt", f"cpt {c.child}", "variable has more than one CPT"))
            continue
        seen_children.add(c.child)

        dangling = [p for p in c.parents if p not in cards]
        for p in dangling:
            out.append(Violation("dangling_parent", f"cpt {c.child}", f"parent {p!r} is not a variable"))
        if len(set(c.parents)) != len(c.parents):
            out.append(Violation("duplicate_parent", f"cpt {c.child}", "parent listed twice"))
        if dangling:
            continue

        expected_rows = prod(cards[p] for p in c.parents)
        if len(c.rows) != expected_rows:
            out.append(Violation("shape", f"cpt {c.child}", f"{len(c.rows)} rows, expected {expected_rows}"))
            continue
        width = cards[c.child]
        for i, row in enumerate(c.rows):
            if len(row) != width:
                out.append(Violation("shape", f"cpt {c.child} row {i}", f"{len(row)} columns, expected {width}"))
                continue
            if any(not 0.0 <= p <= 1.0 for p in row):  # NaN fails every comparison
                out.append(Violation("probability_range", f"cpt {c.child} row {i}", "entry outside [0, 1]"))
            deviation = abs(sum(row) - 1.0)
            if deviation > ROW_SUM_TOL:
                out.append(Violation("row_sum", f"cpt {c.child} row {i}",
                                     f"sums to {sum(row)!r}, deviation {deviation:g}"))

    missing = [n for n in cards if n not in seen_children]
    for n in missing:
        out.append(Violation("missing_cpt", f"variable {n}", "no CPT declared"))

    cycle = _find_cycle(net)
    if cycle is not None:
        out.append(Violation("cycle", "graph", " -> ".join(cycle)))
    return out


def _find_cycle(net: Network) -> list[str] | None:
    # Iterative DFS over resolvable edges only; returns one cycle if present.
    parents = {
        c.child: [p for p in c.parents if p in net._var_index]
        for c in net.cpts
        if c.child in net._var_index
    }
    color: dict[str, int] = {}  # 0 unseen, 1 on stack, 2 done
    for root in parents:
        if color.get(root, 0) != 0:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path: list[str] = []
        while stack:
            node, i = stack.pop()
            if i == 0:
                color[node] = 1
                path.append(node)
            kids = parents.get(node, [])
            if i < len(kids):
                stack.append((node, i + 1))
                nxt = kids[i]
                state = color.get(nxt, 0)
                if state == 1:
                    return path[path.index(nxt):] + [nxt]
                if state == 0:
                    stack.append((nxt, 0))
            else:
                color[node] = 2
                path.pop()
    return None


def check_assignment(net: Network, assignment: Mapping[str, str]) -> None:
    """Raise InvalidQueryError unless every binding names a real variable and state."""
    for var, state in assignment.items():
        net.state_index(var, state)


def ordered_vars(net: Network, vars: Iterable[str]) -> tuple[str, ...]:
    """Resolve a collection of variable names against the network.

    Sequences keep their order; unordered collections are canonicalized to
    declaration order.  Duplicates are rejected.
    """
    names = list(vars)
    for n in names:
        net.variable(n)
    if len(set(names)) != len(names):
        raise InvalidQueryError(f"duplicate variables in {names}")
    if not isinstance(vars, (list, tuple)):
        names.sort(key=net.declaration_index)
    return tuple(names)


def canonical_vars(net: Network, vars: Iterable[str]) -> tuple[str, ...]:
    """Resolve names and sort them into declaration order."""
    return ordered_vars(net, set(ordered_vars(net, list(vars))))


# ---------------------------------------------------------------------------
# graph queries


def topological_order(net: Network) -> list[str]:
    """Variables ordered so every parent precedes its children.

    Deterministic: among simultaneously ready variables the one declared
    first wins.  Raises NetworkValidationError on a cycle.
    """
    indegree = {v.name: 0 for v in net.variables}
    for c in net.cpts:
        if c.child in indegree:
            indegree[c.child] = sum(1 for p in c.parents if p in indegree)
    ready = [net.declaration_index(n) for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = net.variables[heapq.heappop(ready)].name
        order.append(name)
        for child in net.children(name):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, net.declaration_index(child))
    if len(order) != len(net.variables):
        cycle = _find_cycle(net) or []
        raise NetworkValidationError([Violation("cycle", "graph", " -> ".join(cycle))])
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

    Standard d-separation semantics, decided by reachability over
    (node, direction) pairs: a trail through an unobserved chain or fork
    stays active, and a collider is active only if it or one of its
    descendants is observed.
    """
    if isinstance(z, Mapping):
        z = z.keys()
    xs = frozenset(ordered_vars(net, set(x)))
    ys = frozenset(ordered_vars(net, set(y)))
    zs = frozenset(ordered_vars(net, set(z)))
    if xs & ys or xs & zs or ys & zs:
        raise InvalidQueryError("d-separation query sets must be pairwise disjoint")

    # Observed nodes and their ancestors: the nodes that can activate a collider.
    anc = ancestors(net, zs)

    UP, DOWN = 0, 1  # arrived from a child / from a parent
    visited: set[tuple[str, int]] = set()
    frontier2 = [(n, UP) for n in xs]
    while frontier2:
        node, direction = frontier2.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in zs and node in ys:
            return False
        if direction == UP and node not in zs:
            frontier2.extend((p, UP) for p in net.parents(node))
            frontier2.extend((c, DOWN) for c in net.children(node))
        elif direction == DOWN:
            if node not in zs:
                frontier2.extend((c, DOWN) for c in net.children(node))
            if node in anc:
                frontier2.extend((p, UP) for p in net.parents(node))
    return True


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


def assignment_rank(net: Network, vars_ordered: tuple[str, ...], assignment: Mapping[str, str]) -> int:
    rank = 0
    for name in vars_ordered:
        rank = rank * net.cardinality(name) + net.state_index(name, assignment[name])
    return rank


def enumerate_assignments(net: Network, vars: Iterable[str]) -> Iterator[Assignment]:
    """Yield every full assignment over ``vars`` exactly once, in row-major order.

    The last variable varies fastest and states appear in declaration order,
    so the k-th yielded assignment has rank k.  An empty collection yields
    the single empty assignment.
    """
    names = ordered_vars(net, vars)
    total = assignment_count(net, names)
    for rank in range(total):
        yield assignment_at(net, names, rank)


# ---------------------------------------------------------------------------
# structural statistics


def min_fill_order(adjacency: Mapping[str, set[str]], priority: Mapping[str, int]) -> tuple[list[str], int]:
    """Greedy min-fill elimination order over an undirected interaction graph.

    Returns the order and its width (the largest neighbor set met at
    elimination time), which upper-bounds the graph's treewidth.  Each step
    eliminates the node with the smallest key ``(fill, priority)``, where fill
    counts the non-adjacent pairs among its neighbors.  Priorities are
    expected to be distinct; equal keys go to the node first in
    ``adjacency`` order.

    Every key is computed once and then kept up to date: eliminating ``best``
    with neighborhood N changes only the keys of N (their neighbor sets lost
    ``best``) and, when ``best`` had non-zero fill, of the neighbors of N,
    whose neighbor pairs the new fill edges among N may join.
    """
    adj = {v: set(ns) for v, ns in adjacency.items()}

    def key(v: str) -> tuple[int, int]:
        return sum(1 for a, b in combinations(adj[v], 2) if b not in adj[a]), priority[v]

    keys = {v: key(v) for v in adj}
    order: list[str] = []
    width = 0
    while keys:
        best = min(keys, key=keys.__getitem__)
        fill, _ = keys.pop(best)
        ns = adj.pop(best)
        width = max(width, len(ns))
        for a in ns:
            adj[a].discard(best)
            for b in ns:
                if a != b:
                    adj[a].add(b)
        changed = set(ns)
        if fill:
            for a in ns:
                changed.update(adj[a])
        for v in changed:
            keys[v] = key(v)
        order.append(best)
    return order, width


def moral_adjacency(net: Network) -> dict[str, set[str]]:
    """Undirected moral graph: each CPT's family {child} + parents forms a clique."""
    adj: dict[str, set[str]] = {v.name: set() for v in net.variables}
    for c in net.cpts:
        family = (c.child, *c.parents)
        for a in family:
            for b in family:
                if a != b:
                    adj[a].add(b)
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
