"""Command-line front end, JSON file formats, and the scaling benchmark.

Three document kinds travel through the CLI, all UTF-8 JSON:

* network documents::

    {"name": ..., "variables": [{"name": ..., "states": [...]}, ...],
     "cpts": [{"variable": ..., "parents": [...], "table": [[...], ...]}, ...]}

  CPT table rows are row-major over the parents as listed (last parent
  varies fastest); columns follow the child's state list.

* query documents: ``{"mode": "map"|"strong"|"weak"|"maximum"|"threshold"|
  "quantify"|"partition", "hypothesis": [...], "evidence": {var: state},
  "focus": [...], "k": int, "h_star": {var: state}, "s": number or exact
  fraction string such as "3/16", "candidates": [...]}`` with the
  mode-specific fields required.  Every number must be finite: the query
  is echoed into its report, where NaN or Infinity would not be JSON.

* report documents: the query echoed back plus the result fields, the tool
  version, and elapsed milliseconds.  Keys keep a fixed order and floats
  are emitted with 17 significant digits, so two runs of the same query
  produce byte-identical reports except for the elapsed field.

Exit codes: 0 success, 1 usage, parse or write error, 2 invalid network,
3 infeasible query (zero-probability conditioning), 4 capacity guard
exceeded.  Diagnostics go to stderr; reports go to the output path (or
stdout when no path applies).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import reprlib
import statistics
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from . import __version__
from .compiler import build_amajsat_instance, compile_network, parse_formula
from .errors import (
    DEFAULT_GUARD,
    CapacityError,
    DocumentError,
    InfeasibleQueryError,
    InvalidQueryError,
    MapIndepError,
    NetworkValidationError,
    brief,
)
from .model import (
    Cpt,
    Network,
    QueryPartition,
    Variable,
    assignment_at,
    assignment_count,
    resolve_partition,
    validate_network,
)

# The engine, and numpy with it, is imported only by the commands that
# eliminate (map, query and bench), so validate and compile start without it.
if TYPE_CHECKING:
    from .independence import IndependenceReport
    from .inference import MapResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_NETWORK = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4
_ERROR_EXITS = (
    (NetworkValidationError, EXIT_INVALID_NETWORK),
    (InfeasibleQueryError, EXIT_INFEASIBLE),
    (CapacityError, EXIT_CAPACITY),
)

# How many levels of arrays and objects a query document may nest, its own included.
MAX_QUERY_DEPTH = 64

QUERY_MODES = ("map", "strong", "weak", "maximum", "threshold", "quantify", "partition")


# ---------------------------------------------------------------------------
# JSON emission
#
# json.dump renders floats with the shortest round-tripping repr; reports
# pin 17 significant digits instead, so the writer below is used for every
# document this tool produces.  The report types (str, float, dict, list,
# tuple) are dispatched on their exact type; anything else, subclasses
# included, takes the isinstance chain.  Strings are quoted as json.dumps
# quotes them.

_quote = json.encoder.encode_basestring_ascii


def _emit(value: Any, indent: int = 0) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is float:
        return format(value, ".17g")
    if kind is dict:
        return _emit_mapping(value, indent)
    if kind is list or kind is tuple:
        return _emit_sequence(value, indent)
    if isinstance(value, Mapping):
        return _emit_mapping(value, indent)
    if isinstance(value, (list, tuple)):
        return _emit_sequence(value, indent)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return _quote(f"{value.numerator}/{value.denominator}")
    if value is None:
        return "null"
    return json.dumps(value)


def _emit_mapping(value: Mapping, indent: int) -> str:
    if not value:
        return "{}"
    inner = "  " * (indent + 1)
    items = ",\n".join(f"{inner}{_quote(str(k))}: {_emit(v, indent + 1)}" for k, v in value.items())
    return "{\n" + items + "\n" + "  " * indent + "}"


def _emit_sequence(value: list | tuple, indent: int) -> str:
    if not value:
        return "[]"
    inner = "  " * (indent + 1)
    items = ",\n".join(f"{inner}{_emit(v, indent + 1)}" for v in value)
    return "[\n" + items + "\n" + "  " * indent + "]"


def emit_json(value: Any) -> str:
    return _emit(value) + "\n"


# ---------------------------------------------------------------------------
# network documents


def network_to_document(net: Network) -> dict:
    return {
        "name": net.name,
        "variables": [{"name": v.name, "states": list(v.states)} for v in net.variables],
        "cpts": [
            {"variable": c.child, "parents": list(c.parents), "table": [list(r) for r in c.rows]}
            for c in net.cpts
        ],
    }


def _arrays(values: list, what: str) -> list:
    # A string would iterate into its characters and load as something else.
    if not set(map(type, values)) <= {list}:
        raise DocumentError(f"malformed network document: {what} must be a JSON array")
    return values


def network_from_document(doc: Any) -> Network:
    """The network a document describes.  Every array must be a JSON array
    (a ``list``), names and states JSON strings and table entries JSON
    numbers: ``str`` and ``float`` would turn null, true or "0.5" into
    something else.  Each level (variables and CPTs, states, parents,
    tables, table rows, entries) is type-checked in one pass, not per item.
    Entries that JSON parsed as floats are kept as they are; only a network
    holding an integer entry has every entry passed through ``float``."""
    if not isinstance(doc, Mapping):
        raise DocumentError("network document must be a JSON object")
    try:
        var_docs, cpt_docs = _arrays([doc["variables"]], "variables") + _arrays([doc["cpts"]], "cpts")
        names = [v["name"] for v in var_docs]
        states = _arrays([v["states"] for v in var_docs], "states")
        children = [c["variable"] for c in cpt_docs]
        parents = _arrays([c["parents"] for c in cpt_docs], "parents")
        tables = _arrays([c["table"] for c in cpt_docs], "table")
        entries = set(map(type, chain.from_iterable(_arrays(list(chain.from_iterable(tables)), "table row"))))
        if not set(map(type, chain((doc["name"],), names, children, *states, *parents))) <= {str}:
            raise DocumentError("malformed network document: names and states must be JSON strings")
        if not entries <= {float, int}:
            raise DocumentError("malformed network document: table entries must be JSON numbers")
        row = tuple if entries <= {float} else lambda r: tuple(map(float, r))
        cpts = tuple(map(Cpt, children, map(tuple, parents), [tuple(map(row, table)) for table in tables]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise DocumentError(f"malformed network document: {exc}") from exc
    return Network(doc["name"], tuple(map(Variable, names, map(tuple, states))), cpts)


def _read_json(path: str | Path) -> Any:
    """The parsed JSON document at ``path``; an unreadable file or bad JSON is a DocumentError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # besides JSONDecodeError, only int()'s digit limit raises it here
        raise DocumentError(f"{path}: invalid JSON: an integer has too many digits to read") from exc
    except RecursionError:
        raise DocumentError(f"{path}: invalid JSON: arrays or objects nested too deeply to read") from None


def load_network(path: str | Path) -> Network:
    """Read and validate a network document."""
    net = network_from_document(_read_json(path))
    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(emit_json(network_to_document(net)), encoding="utf-8")


# ---------------------------------------------------------------------------
# query documents


def parse_threshold(value: Any) -> float | Fraction:
    """Numbers pass through; strings like "3/16" parse as exact fractions."""
    if isinstance(value, bool):
        raise DocumentError("threshold s must be a number or fraction string")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise DocumentError("threshold s must be in [0, 1), got an integer past the double range") from None
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad fraction string {reprlib.repr(value)}") from exc
    raise DocumentError("threshold s must be a number or fraction string")


def load_query(path: str | Path) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, Mapping):
        raise DocumentError("query document must be a JSON object")
    # The query is echoed into its report by a recursive writer, so a document
    # nested past what it can write is refused before the query runs.
    level, depth = [doc], 0
    while level:
        depth += 1
        if depth > MAX_QUERY_DEPTH:
            raise DocumentError(f"query document nests arrays and objects more than {MAX_QUERY_DEPTH} deep")
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c) if isinstance(v, (dict, list))]
    # The query is echoed into its report, where NaN or Infinity would not be JSON.
    try:
        json.dumps(doc, allow_nan=False)
    except ValueError:
        raise DocumentError("query document may not hold NaN or Infinity") from None
    mode = doc.get("mode")
    if mode not in QUERY_MODES:
        raise DocumentError(f"mode must be one of {QUERY_MODES}, got {reprlib.repr(mode)}")
    required = {
        "map": ("hypothesis",),
        "strong": ("hypothesis", "focus"),
        "weak": ("hypothesis", "focus"),
        "quantify": ("hypothesis", "focus"),
        "maximum": ("hypothesis", "focus", "k"),
        "threshold": ("hypothesis", "focus", "h_star", "s"),
        "partition": ("hypothesis", "candidates"),
    }[mode]
    missing = [f for f in required if f not in doc]
    if missing:
        raise DocumentError(f"mode {mode!r} requires fields {missing}")
    return dict(doc)


def _str_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what} must be a list of strings")
    return list(value)


def _assignment(value: Any, what: str) -> dict[str, str]:
    if value is None:
        return {}
    if not isinstance(value, Mapping) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise DocumentError(f"{what} must map variable names to state names")
    return dict(value)


# ---------------------------------------------------------------------------
# report documents


def _assignment_doc(a: Mapping[str, str] | None) -> Any:
    return None if a is None else dict(a)


def _independence_result(report: IndependenceReport) -> dict:
    out: dict[str, Any] = {
        "mode": report.mode,
        "verdict": report.verdict,
        "witness": _assignment_doc(report.witness),
        "counterexample": _assignment_doc(report.counterexample),
    }
    if report.mode == "maximum":
        out["subset"] = list(report.subset) if report.subset is not None else None
    if report.mode == "threshold":
        out["min_joint"] = report.min_joint
    out["ties_encountered"] = report.ties_encountered
    out["warning"] = report.warning
    out["skipped"] = [dict(a) for a in report.skipped]
    if report.metrics is not None:
        out["metrics"] = {
            "mass": report.metrics.mass,
            "proportion": report.metrics.proportion,
            "mean_hamming": report.metrics.mean_hamming,
            "hamming_weighting": "uniform",
        }
    if report.per_assignment is not None:
        out["per_assignment"] = [
            {
                "assignment": dict(row.assignment),
                "map": _assignment_doc(row.map_assignment),
                "h_star_joint": row.h_star_joint,
            }
            for row in report.per_assignment
        ]
    return out


def _map_result(result: MapResult) -> dict:
    return {
        "mode": "map",
        "assignment": dict(result.assignment),
        "joint_probability": result.joint_probability,
        "posterior": result.posterior,
        "tie": result.tie,
        "runner_up_gap": result.runner_up_gap,
    }


def make_report(network: Network, query: Mapping[str, Any], result: dict, elapsed_s: float) -> dict:
    return {
        "version": __version__,
        "network": network.name,
        "query": dict(query),
        "result": result,
        "elapsed_ms": elapsed_s * 1000.0,
    }


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def _write_report(doc: dict, path: str | None) -> None:
    text = emit_json(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


# ---------------------------------------------------------------------------
# benchmark


def bench(
    net: Network,
    hypothesis: list[str],
    evidence: Mapping[str, str],
    r_max: int,
    trials: int = 3,
    *,
    guard: int = DEFAULT_GUARD,
) -> dict:
    """Median wall time of the paper's per-rank strong sweep against growing focus sets.

    The sweep runs one elimination per r in Omega(R), the candidate joints
    Pr(H, r, e) from which the paper's algorithm reads that r's MAP (the
    argmax itself, linear in |Omega(H)|, is left out of the timing).  That
    is the algorithm whose cost the paper bounds by |Omega(R)|; it is not
    the query engine, which decides a strong query from one table.  The
    focus for size k is the first k intermediate variables in declaration
    order.  Trials are interleaved across sizes, so a burst of host load
    spreads over every row instead of skewing one.  Rows past the
    enumeration guard are dropped and noted.
    """
    from .inference import candidate_joints

    taken = set(hypothesis) | set(evidence)
    intermediates = [v for v in net.names if v not in taken]
    if not isinstance(r_max, int) or isinstance(r_max, bool):
        raise InvalidQueryError(f"rmax must be an integer, got {reprlib.repr(r_max)}")
    if not 1 <= r_max <= len(intermediates):
        raise InvalidQueryError(f"rmax must be between 1 and {len(intermediates)}, got {r_max}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise InvalidQueryError(f"trials must be a positive integer, got {reprlib.repr(trials)}")
    # bench's checks: the partition, Pr(e) = 0 (its elimination guarded), then |Omega(H)|
    # (here a note, no rows).  A strong query checks its table's guards before Pr(e) = 0:
    # when Pr(e) = 0 and only the strong table is past the guard, it exits 4, bench 3.
    hyp, evidence, _ = resolve_partition(net, QueryPartition(evidence=dict(evidence), hypothesis=tuple(hypothesis)))
    if candidate_joints(net, (), evidence, guard=guard)[0] == 0.0:
        raise InfeasibleQueryError(f"evidence {brief(evidence)} has probability zero")
    count = assignment_count(net, hyp)
    if count > guard:
        truncated = f"stopped at |R|=1: |Omega(H)| = {count} exceeds guard {guard}"
        return {"rows": [], "trials": trials, "truncated": truncated}
    sizes = []
    truncated = None
    for k in range(1, r_max + 1):
        focus = tuple(intermediates[:k])
        omega = assignment_count(net, focus)
        if omega > guard:
            truncated = f"stopped at |R|={k}: |Omega(R)| = {omega} exceeds guard {guard}"
            break
        sizes.append((focus, omega))
    times: list[list[float]] = [[] for _ in sizes]
    for _ in range(trials):
        for (focus, omega), samples in zip(sizes, times):
            t0 = time.perf_counter()
            for rank in range(omega):
                candidate_joints(net, hyp, {**evidence, **assignment_at(net, focus, rank)}, guard=guard)
            samples.append(time.perf_counter() - t0)
    rows = [
        {"r_size": len(focus), "omega": omega, "median_seconds": statistics.median(samples)}
        for (focus, omega), samples in zip(sizes, times)
    ]
    return {"rows": rows, "trials": trials, "truncated": truncated}


# ---------------------------------------------------------------------------
# subcommands


def _parse_evidence(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out: dict[str, str] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise InvalidQueryError(f"evidence must be VAR=STATE pairs, got {reprlib.repr(piece)}")
        var, state = piece.split("=", 1)
        var = var.strip()
        if var in out:
            raise InvalidQueryError(f"evidence names {reprlib.repr(var)} more than once")
        out[var] = state.strip()
    return out


def _parse_names(text: str | None) -> list[str]:
    if not text:
        return []
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _cmd_validate(args) -> int:
    try:
        net = load_network(args.network)
    except NetworkValidationError as exc:
        for v in exc.violations:
            print(f"{v.code}: {v.where}: {v.message}", file=sys.stderr)
        return EXIT_INVALID_NETWORK
    print(f"{net.name}: valid ({len(net.variables)} variables)")
    return EXIT_OK


def _cmd_map(args) -> int:
    from .inference import map_solve

    net = load_network(args.network)
    hypothesis = _parse_names(args.hypothesis)
    evidence = _parse_evidence(args.evidence)
    t0 = time.perf_counter()
    result = map_solve(net, hypothesis, evidence)
    query = {"mode": "map", "hypothesis": hypothesis, "evidence": evidence}
    _write_report(make_report(net, query, _map_result(result), time.perf_counter() - t0), None)
    return EXIT_OK


def _cmd_query(args) -> int:
    from .independence import (
        maximum_map_independence,
        relevance_partition,
        strong_map_independence,
        threshold_map_independence,
        weak_map_independence,
    )
    from .inference import map_solve

    net = load_network(args.network)
    query = load_query(args.query)
    mode = query["mode"]
    table_limit = args.table_limit
    if table_limit is not None and table_limit < 0:
        raise InvalidQueryError(f"--table-limit must be non-negative, got {table_limit}")

    t0 = time.perf_counter()
    if mode == "map":
        result_doc = _map_result(
            map_solve(net, _str_list(query["hypothesis"], "hypothesis"), _assignment(query.get("evidence"), "evidence"))
        )
    elif mode == "partition":
        parts = relevance_partition(
            net,
            _assignment(query.get("evidence"), "evidence"),
            _str_list(query["hypothesis"], "hypothesis"),
            _str_list(query["candidates"], "candidates"),
            strict_zeros=args.strict_zeros,
        )
        result_doc = {
            "mode": "partition",
            "relevant": list(parts.relevant),
            "irrelevant": list(parts.irrelevant),
            "justification": {
                var: {
                    "map_independent": finding.map_independent,
                    "counterexample": _assignment_doc(finding.counterexample),
                }
                for var, finding in parts.justification.items()
            },
        }
    else:
        partition = QueryPartition(
            evidence=_assignment(query.get("evidence"), "evidence"),
            hypothesis=tuple(_str_list(query["hypothesis"], "hypothesis")),
            focus=tuple(_str_list(query["focus"], "focus")),
        )
        if mode in ("strong", "quantify"):
            report = strong_map_independence(
                net, partition, table_limit=table_limit, strict_zeros=args.strict_zeros,
                with_metrics=mode == "quantify"
            )
            report = replace(report, mode=mode)
        elif mode == "weak":
            report = weak_map_independence(
                net, partition, table_limit=table_limit, strict_zeros=args.strict_zeros
            )
        elif mode == "maximum":
            report = maximum_map_independence(net, partition, query["k"], strict_zeros=args.strict_zeros)
        else:  # threshold; modes are validated by load_query
            report = threshold_map_independence(
                net,
                _assignment(query["h_star"], "h_star"),
                partition,
                parse_threshold(query["s"]),
                table_limit=table_limit,
            )
        result_doc = _independence_result(report)

    _write_report(make_report(net, query, result_doc, time.perf_counter() - t0), args.output)
    return EXIT_OK


def _cmd_compile(args) -> int:
    ast = parse_formula(args.formula)
    a_set = _parse_names(args.aset)
    if a_set:
        instance = build_amajsat_instance(ast, a_set)
    else:
        instance = compile_network(ast)
    if args.emit_query and instance.query is None:
        raise InvalidQueryError("--emit-query requires --aset")
    doc = network_to_document(instance.network)
    if args.out:
        _write_text(args.out, emit_json(doc))
    else:
        sys.stdout.write(emit_json(doc))
    if args.emit_query:
        q = instance.query
        query_doc = {
            "mode": "threshold",
            "hypothesis": [instance.phi_node],
            "evidence": dict(q.evidence),
            "focus": list(q.focus),
            "h_star": dict(q.h_star),
            "s": q.s,
        }
        _write_text(args.emit_query, emit_json(query_doc))
    return EXIT_OK


def _cmd_bench(args) -> int:
    net = load_network(args.network)
    hypothesis = _parse_names(args.hypothesis)
    evidence = _parse_evidence(args.evidence)
    t0 = time.perf_counter()
    table = bench(net, hypothesis, evidence, args.rmax, args.trials)
    query = {
        "mode": "bench",
        "hypothesis": hypothesis,
        "evidence": evidence,
        "rmax": args.rmax,
        "trials": table["trials"],
    }
    doc = make_report(net, query, table, time.perf_counter() - t0)
    _write_report(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; it depends on no input, so one is built per process."""
    parser = argparse.ArgumentParser(
        prog="mapindep",
        description="Exact inference and MAP-independence analysis for discrete Bayesian networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document against every invariant")
    p.add_argument("--network", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("map", help="most probable explanation for a hypothesis set")
    p.add_argument("--network", required=True)
    p.add_argument("--hypothesis", required=True, help="comma-separated variable names")
    p.add_argument("--evidence", default="", help="comma-separated VAR=STATE pairs")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("query", help="run a query document and write a report")
    p.add_argument("--network", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="accepted for compatibility and ignored: a query is one elimination")
    p.add_argument("--table-limit", type=int, default=None, metavar="M")
    p.add_argument("--strict-zeros", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("compile", help="compile a propositional formula into a network")
    p.add_argument("--formula", required=True)
    p.add_argument("--aset", default="", help="comma-separated formula variables for the threshold query")
    p.add_argument("--out", default=None)
    p.add_argument("--emit-query", default=None, metavar="Q")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("bench", help="per-rank strong-sweep scaling against growing focus sets")
    p.add_argument("--network", required=True)
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--evidence", default="")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and translate errors into exit codes.

    Python's cyclic garbage collector is paused for the whole call and
    re-enabled on return, by any path, only if it was enabled before.  The
    pause is process-wide.  A query makes no reference cycles, so
    reference counting frees everything it allocates, and the collections
    its allocations would trigger could free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv)
    finally:
        if enabled:
            gc.enable()


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except MapIndepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_USAGE)


def main() -> None:
    sys.exit(run())
