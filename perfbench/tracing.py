"""Span tracing from outside the program.

`Tracer.install` wraps provql's public functions where `provql.pipeline`,
`PlanExecutor` and `apply_update` look them up, and hands the executor a
proxy connection, so every call into a layer records a span (name, start,
end, parent span, op id) while an op is running.  Spans live in flat arrays
until the run ends; `layer_totals` reduces them to per-op time, self time
and call counts, and `write_spans` saves them.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

from provql import interp, pipeline, sqlbackend
from provql import syntax as S
from provql import values as V
from provql.normalize import NormalQuery, QueryGen, SubQuery

OP = "op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self._stack: list[int] = []
        self.op: int | None = None
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(-1 if self.op is None else self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: float) -> None:
        if self.op is not None:
            self.counters[(self.op, name)] += n

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open(OP)

    def end_op(self, span: int) -> None:
        self.close(span)
        self.op = None

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` with a span around each call made during an op.  `before`
        and `after` count work outside the span, so counting is not charged
        to the layer."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, out)
            return out

        return traced

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, before, after))

    def install(self) -> None:
        self._patch(pipeline, "parse_program", "parser")
        self._patch(pipeline, "typecheck_program", "typecheck")
        self._patch(pipeline, "w_translate_program", "where_trans")
        self._patch(pipeline, "d_translate_program", "lineage_trans")
        self._patch(pipeline, "normalize", "normalize", _count_normalize_in, _count_normalize_out)
        self._patch(pipeline, "comparable", "pipeline.comparable")
        self._patch(sqlbackend.PlanExecutor, "run", "sqlbackend")
        self._patch(sqlbackend, "apply_update", "sqlbackend.write")
        # apply_update imports eval_big from provql.interp at call time
        self._patch(interp, "eval_big", "interp")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- reducing --------------------------------------------------------

    def layer_totals(self) -> dict[int, dict[str, tuple[float, float, int]]]:
        """Per op, per span name: (time, self time, calls), in seconds.

        Time counts only the outermost span of a name, so a recursive layer
        (PlanExecutor.run) is not counted twice; self time is a span's
        duration minus the part of it that its child spans cover.
        """
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i in range(n):
            op = self.op_of[i]
            nid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            entry = out[op][self.names[nid]]
            entry[1] += dur - covered[i]
            entry[2] += 1
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                entry[0] += dur
        return {op: {k: tuple(v) for k, v in d.items()} for op, d in out.items()}

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with gzip.open(path, "wt") as f:
            for i in range(len(self.start)):
                f.write(
                    json.dumps(
                        [
                            self.names[self.name_of[i]],
                            round(self.start[i], 9),
                            round(self.end[i], 9),
                            self.parent[i],
                            self.op_of[i],
                        ]
                    )
                    + "\n"
                )


class TracedConnection:
    """A sqlite3 connection whose statements and fetches are `sqlite` spans."""

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer

    def execute(self, sql, *args):
        t = self._tracer
        if t.op is None:
            return self._conn.execute(sql, *args)
        i = t.open("sqlite")
        try:
            cur = self._conn.execute(sql, *args)
        finally:
            t.close(i)
        t.count("sqlite.statements", 1)
        return _TracedCursor(cur, t)

    def commit(self):
        t = self._tracer
        if t.op is None:
            return self._conn.commit()
        i = t.open("sqlite")
        try:
            return self._conn.commit()
        finally:
            t.close(i)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _TracedCursor:
    def __init__(self, cur, tracer: Tracer):
        self._cur = cur
        self._tracer = tracer

    def fetchall(self):
        i = self._tracer.open("sqlite")
        try:
            rows = self._cur.fetchall()
        finally:
            self._tracer.close(i)
        self._tracer.count("sqlite.rows", len(rows))
        return rows

    def fetchone(self):
        i = self._tracer.open("sqlite")
        try:
            row = self._cur.fetchone()
        finally:
            self._tracer.close(i)
        self._tracer.count("sqlite.rows", row is not None)
        return row

    def __iter__(self):
        return iter(self.fetchall())


# -- counters ---------------------------------------------------------------


def _count_normalize_in(tracer: Tracer, args) -> None:
    tracer.count("translate.nodes", sum(1 for _ in S.walk(args[0])))


def _count_normalize_out(tracer: Tracer, nq: NormalQuery) -> None:
    nodes, branches = normal_query_size(nq)
    tracer.count("normalize.out_nodes", nodes)
    tracer.count("normalize.out_branches", branches)


def normal_query_size(nq: NormalQuery) -> tuple[int, int]:
    """(IR nodes, branches) of a normal query, nested subqueries included.

    A branch and each of its generators count as one node; conditions and
    results count with `syntax.walk`, descending into `SubQuery` plans."""
    nodes = branches = 0
    for b in nq.branches:
        branches += 1
        nodes += 1
        for g in b.gens:
            nodes += 1
            if isinstance(g, QueryGen):
                n, m = normal_query_size(g.query)
                nodes, branches = nodes + n, branches + m
        for e in [*b.conds, b.result]:
            for node in S.walk(e):
                nodes += 1
                if isinstance(node, SubQuery):
                    n, m = normal_query_size(node.query)
                    nodes, branches = nodes + n, branches + m
    return nodes, branches


def output_rows(v: V.Value) -> int:
    """List cells in a result, counted at every nesting level."""
    if isinstance(v, V.VList):
        return len(v.items) + sum(output_rows(x) for x in v.items)
    if isinstance(v, V.VAnnList):
        return len(v.cells) + sum(output_rows(x) for x, _ in v.cells)
    if isinstance(v, V.VRecord):
        return sum(output_rows(x) for _, x in v.fields)
    return 0


# -- per-layer metrics ------------------------------------------------------

# metric -> span name; time per query op, outermost spans only
_QUERY_TIMES = {
    "parser.ms": "parser",
    "typecheck.ms": "typecheck",
    "where_trans.ms": "where_trans",
    "lineage_trans.ms": "lineage_trans",
    "normalize.ms": "normalize",
    "sqlbackend.ms": "sqlbackend",
    "sqlite.ms": "sqlite",
    "pipeline.comparable_ms": "pipeline.comparable",
}
_QUERY_SELF_TIMES = {"sqlbackend.self_ms": "sqlbackend", "op.self_ms": OP}
_QUERY_CALLS = {"typecheck.calls": "typecheck", "normalize.calls": "normalize", "sqlbackend.runs": "sqlbackend"}
_QUERY_COUNTERS = ["sqlite.statements", "sqlite.rows", "output.rows"]
# IR sizes, per normalize call rather than per op
_NORMALIZE_COUNTERS = ["translate.nodes", "normalize.out_nodes", "normalize.out_branches"]
# metric -> span name; time per write op
_WRITE_TIMES = {"sqlbackend.write_ms": "sqlbackend.write", "interp.ms": "interp"}


def layer_metrics(
    tracer: Tracer, query_ops: list[int], write_ops: list[int], speed: dict[int, float] | None = None
) -> dict[str, float]:
    """Per-layer figures, each per query op (IR sizes per normalize call)
    or, for the write path, per write op; 0 where there is nothing to
    divide by.  `speed` scales each op's span times to the reference speed
    (see harness); without it they stay wall clock."""
    totals = tracer.layer_totals()

    def per(ops: list[int], value) -> float:
        return sum(value(op) for op in ops) / len(ops) if ops else 0.0

    def field_of(op: int, span: str, k: int) -> float:
        return totals.get(op, {}).get(span, (0.0, 0.0, 0))[k]

    def ms(op: int, span: str, k: int) -> float:
        return 1000.0 * field_of(op, span, k) * (speed[op] if speed else 1.0)

    out: dict[str, float] = {}
    for metric, span in _QUERY_TIMES.items():
        out[metric] = per(query_ops, lambda op: ms(op, span, 0))
    for metric, span in _QUERY_SELF_TIMES.items():
        out[metric] = per(query_ops, lambda op: ms(op, span, 1))
    for metric, span in _QUERY_CALLS.items():
        out[metric] = per(query_ops, lambda op: field_of(op, span, 2))
    for name in _QUERY_COUNTERS:
        out[name] = per(query_ops, lambda op: tracer.counters.get((op, name), 0.0))
    out["sqlite.rows_per_output_row"] = (
        out["sqlite.rows"] / out["output.rows"] if out["output.rows"] else 0.0
    )
    calls = sum(field_of(op, "normalize", 2) for op in query_ops)
    for name in _NORMALIZE_COUNTERS:
        total = sum(tracer.counters.get((op, name), 0.0) for op in query_ops)
        out[name] = total / calls if calls else 0.0
    for metric, span in _WRITE_TIMES.items():
        out[metric] = per(write_ops, lambda op: ms(op, span, 0))
    return out
