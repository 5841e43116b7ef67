"""End-to-end run pipeline shared by the CLI, the benchmark harness, and
the test suite: parse, typecheck, translate per mode, normalize, execute on
the interpreter and/or the SQL backend, and compare.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from operator import is_not, itemgetter
from typing import Optional

from .database import Database
from .errors import EvalError, ProvqlError
from .interp import eval_big
from .lineage_trans import d_translate_program
from .normalize import NormalQuery, normalize
from .parser import SourceProgram, parse_program, pretty_print_program
from .sqlbackend import PlanExecutor, load_database, plan_sql
from .typecheck import Mode, typecheck_program
from .where_trans import w_translate_program
from . import syntax as S
from . import values as V


@dataclass
class RunConfig:
    mode: Mode = Mode.PLAIN
    engine: str = "interpret"  # interpret | sql | both
    repetitions: int = 1
    emit_translated: bool = False
    emit_normal: bool = False
    emit_sql: bool = False
    explain: bool = False

    def __post_init__(self):
        if self.engine not in ("interpret", "sql", "both"):
            raise ProvqlError(f"unknown engine {self.engine!r}")
        if self.repetitions < 1:
            raise ProvqlError("repetitions must be >= 1")


@dataclass
class Prepared:
    source: SourceProgram
    mode: Mode
    translated: SourceProgram  # equals source in plain mode


def prepare(text: str, mode: Mode) -> Prepared:
    """Parse, typecheck in the given mode, and translate to a plain program."""
    prog = parse_program(text)
    checked = typecheck_program(prog, mode)
    if checked.main is None:
        raise ProvqlError("program has no main expression")
    if mode is Mode.WHERE:
        translated = w_translate_program(prog)
    elif mode is Mode.LINEAGE:
        translated = d_translate_program(prog, checked)
    else:
        translated = prog
    typecheck_program(translated, Mode.PLAIN)  # the translation must typecheck
    return Prepared(prog, mode, translated)


def query_expr(prog: SourceProgram) -> S.Expr:
    """The main query or lineage block's body with all declarations folded
    in as lets.

    The SQL engine requires the main expression to be a query block,
    possibly under let bindings; translated programs have no lineage blocks.
    """
    main = prog.main
    lets: list[tuple[str, S.Expr]] = []
    for d in prog.decls:
        if not isinstance(d.expr, S.DatabaseRef):
            lets.append((d.name, d.expr))
    while isinstance(main, S.Let):
        lets.append((main.name, main.value))
        main = main.body
    if not isinstance(main, (S.Query, S.LineageBlock)):
        raise ProvqlError(
            "the SQL engine needs the main expression to be a query block"
        )
    body = main.body
    for name, value in reversed(lets):
        body = S.Let(name, value, body)
    return body


def normalized_query(prepared: Prepared) -> NormalQuery:
    return normalize(query_expr(prepared.translated))


def table_schemas(prog: SourceProgram) -> dict[str, S.Row]:
    out: dict[str, S.Row] = {}
    for d in prog.decls:
        for node in S.walk(d.expr):
            if isinstance(node, S.TableRef):
                out[node.name] = node.row
    if prog.main is not None:
        for node in S.walk(prog.main):
            if isinstance(node, S.TableRef):
                out[node.name] = node.row
    return out


def run_interp(db: Database, prepared: Prepared) -> V.Value:
    """Direct interpretation of the source program (the oracle path)."""
    eval_mode = Mode.WHERE if prepared.mode is Mode.WHERE else Mode.PLAIN
    _, v = eval_big(db.copy(), prepared.source.as_expr(), eval_mode)
    return v


def run_sql(conn, prepared: Prepared, explain: Optional[list] = None) -> V.Value:
    """Translated, normalized, and executed on the database."""
    nq = normalized_query(prepared)
    ex = PlanExecutor(conn, explain=explain)
    return ex.run(nq)


def comparable(v: V.Value, mode: Mode) -> V.Value:
    """Canonical form for cross-engine comparison.

    Where mode: annotated base values become data/prov records.  Lineage
    mode: results convert back to annotated cells, so witness lists compare
    as color sets (the translation emits concatenated lists, which can
    repeat a row that witnesses an output twice; the correctness theorem is
    stated on sets).  Every list is sorted, deepest first.

    One bottom-up walk converts and sorts; it keys each value once and
    rebuilds a node only when a child changed.  Keys are typed, not tagged:
    a leaf keys as its Python value, a record as the tuple of its field
    keys in label order, a lineage cell as its value's key and its sorted
    color keys, and a list as the tuple of its sorted item keys.  So `v`
    must be the result of a well-typed program, whose lists each hold one
    type.  On such values the result equals `V.canonical_order` of
    `annotated_to_records(v)` (where mode) or `interp.d2a(v)` (lineage
    mode), and the walk raises the same `EvalError`s as those do.  A list
    object that sits under several records (the SQL engine shares one list
    among outer rows with the same key) is walked once.
    """
    return _canonical(v, mode, {})[0]


def _canonical(v: V.Value, mode: Mode, memo: dict) -> tuple[V.Value, object]:
    """`comparable`'s walk: the canonical form of `v` and its sort key.
    `memo` holds, for one call, the lineage colors the walk has made, one
    per (table, oid), with their sort keys, and under its `id` the result
    for each list it has walked."""
    t = type(v)
    if t is V.VConst:
        return v, v.value
    if t is V.VRecord:
        values = v.values
        keys = []
        changed = None
        for i, x in enumerate(values):
            if type(x) is V.VConst:
                keys.append(x.value)
                continue
            y, k = _canonical(x, mode, memo)
            keys.append(k)
            if y is not x:
                if changed is None:
                    changed = list(values)
                changed[i] = y
        if changed is not None:
            v = V.VRecord(v.labels, tuple(changed))
        return v, tuple(keys)
    if t is V.VList:
        # the walk's input is live for the whole call, so ids are stable
        done = memo.get(id(v))
        if done is None:
            done = memo[id(v)] = _canonical_list(v, mode, memo)
        return done
    if t is V.VAnnList:
        return _sorted_cells([_cell(x, cs, mode, memo) for x, cs in v.cells])
    if t is V.VAnnot:
        base, k = _canonical(v.base, mode, memo)
        key = (k, V.color_sort_key(v.color))
        if mode is Mode.WHERE:
            return V.VRecord(_ANNOT_LABELS, (base, V.color_value(v.color))), key
        if base is not v.base:
            v = V.VAnnot(base, v.color)
        return v, key
    if t is V.VTable:
        return v, v.name
    raise EvalError(f"cannot compare value of kind {t.__name__}")


def _canonical_list(v: V.VList, mode: Mode, memo: dict) -> tuple[V.Value, object]:
    if mode is Mode.LINEAGE:
        return _sorted_cells(_data_prov_cells(v.items, mode, memo))
    walked = [_canonical(x, mode, memo) for x in v.items]
    walked.sort(key=itemgetter(1))
    items = tuple([y for y, _ in walked])
    if any(map(is_not, items, v.items)):
        v = V.VList(items)
    return v, tuple([k for _, k in walked])


_ANNOT_LABELS = ("!data", "!prov")


def _data_prov_cells(items, mode: Mode, memo: dict) -> list:
    """Lineage cells from a list of data/prov records, read as `interp.d2a`
    reads them."""
    cells = []
    for x in items:
        if type(x) is not V.VRecord or x.labels != V.DATA_PROV_LABELS:
            raise EvalError("value is not in data/prov form")
        data, prov = x.values
        if type(prov) is not V.VList:
            raise EvalError("malformed witness list")
        witnesses = dict([_witness(p, memo) for p in prov.items])
        y, k = _canonical(data, mode, memo)
        cells.append(((k, tuple(sorted(witnesses))), (y, frozenset(witnesses.values()))))
    return cells


def _witness(p: V.Value, memo: dict) -> tuple:
    """The sort key and lineage color of a witness pair, as
    `interp.pair_color` reads it; both are made once per (table, oid)."""
    if type(p) is V.VRecord and p.labels == V.PAIR_LABELS:
        t, o = p.values
        if type(t) is V.VConst and type(o) is V.VConst:
            found = memo.get((t.value, o.value))
            if found is None:
                c = V.LineageColor(t.value, o.value)
                found = memo[t.value, o.value] = (V.color_sort_key(c), c)
            return found
    raise EvalError("malformed lineage pair")


def _cell(x: V.Value, cs: frozenset, mode: Mode, memo: dict) -> tuple:
    """A lineage cell and its key: (value key, sorted color keys)."""
    y, k = _canonical(x, mode, memo)
    return (k, tuple(sorted(map(V.color_sort_key, cs)))), (y, cs)


def _sorted_cells(keyed: list) -> tuple[V.VAnnList, tuple]:
    keyed.sort(key=itemgetter(0))
    return V.VAnnList(tuple([c for _, c in keyed])), tuple([k for k, _ in keyed])


def annotated_to_records(v: V.Value) -> V.Value:
    if isinstance(v, V.VAnnot):
        return V.vrecord(
            [("!data", annotated_to_records(v.base)), ("!prov", V.color_value(v.color))]
        )
    if isinstance(v, V.VRecord):
        return V.VRecord(v.labels, tuple([annotated_to_records(x) for x in v.values]))
    if isinstance(v, V.VList):
        return V.VList(tuple(annotated_to_records(x) for x in v.items))
    if isinstance(v, V.VAnnList):
        return V.VAnnList(tuple((annotated_to_records(x), c) for x, c in v.cells))
    return v


@dataclass
class RunResult:
    value: Optional[V.Value]
    timings_ms: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.timings_ms) if self.timings_ms else 0.0


def run(
    text: str,
    cfg: RunConfig,
    db: Optional[Database] = None,
    conn=None,
) -> RunResult:
    """The full pipeline; measures per-repetition execution time.  The
    query is normalized once, before the repetitions."""
    prepared = prepare(text, cfg.mode)
    result = RunResult(None)
    if cfg.emit_translated:
        result.outputs["translated"] = pretty_print_program(prepared.translated)
    if cfg.emit_normal or cfg.emit_sql or cfg.engine in ("sql", "both"):
        nq = normalized_query(prepared)
        if cfg.emit_normal:
            from .normalize import render_back
            from .parser import pretty_print

            result.outputs["normal"] = pretty_print(render_back(nq))
        if cfg.emit_sql:
            result.outputs["sql"] = plan_sql(nq)
    own_conn = False
    if cfg.engine in ("sql", "both") and conn is None:
        if db is None:
            raise ProvqlError("SQL engine needs a database")
        import sqlite3

        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        own_conn = True
    try:
        vi = vs = None
        for _ in range(cfg.repetitions):
            t0 = time.perf_counter()
            if cfg.engine in ("interpret", "both"):
                if db is None:
                    raise ProvqlError("interpreter engine needs a database")
                vi = run_interp(db, prepared)
            if cfg.engine in ("sql", "both"):
                ex = PlanExecutor(conn, explain=[] if cfg.explain else None)
                vs = ex.run(nq)
                if cfg.explain:
                    result.outputs["explain"] = ex.explain
                    result.outputs["explain_rows"] = ex.row_counts
            result.timings_ms.append((time.perf_counter() - t0) * 1000.0)
        if cfg.engine == "both":
            a = comparable(vi, cfg.mode)
            b = comparable(vs, cfg.mode)
            if a != b:
                raise ProvqlError(
                    "engine mismatch: interpreter and SQL results differ"
                )
            result.value = a
        else:
            result.value = comparable(vi if cfg.engine == "interpret" else vs, cfg.mode)
    finally:
        if own_conn:
            conn.close()
    return result
