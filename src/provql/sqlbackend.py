"""SQL backend: render normal queries to SQL, execute them, decode results,
translate updates, and generate the benchmark database.

The backend is embedded SQLite.  Emitted SQL stays within the common
dialect subset (SELECT / UNION ALL / scalar operators / EXISTS); oids are
explicit integer columns assigned from per-table sequences managed by this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Optional, Union

from .database import Database, OID
from .errors import BackendError
from .normalize import Branch, NormalQuery, SubQuery, TableGen
from .interp import delta
from . import syntax as S
from . import values as V


# ---------------------------------------------------------------------------
# SQL text model


@dataclass
class SqlSelect:
    select: list[tuple[str, str]]  # (expression, alias)
    from_: list[tuple[str, str]]  # (table, alias)
    where: list[str]

    def to_sql(self) -> str:
        cols = ", ".join(f"{e} AS {qident(a)}" for e, a in self.select) or "1"
        out = f"SELECT {cols}"
        if self.from_:
            out += " FROM " + ", ".join(f"{qident(t)} AS {qident(a)}" for t, a in self.from_)
        if self.where:
            out += " WHERE " + " AND ".join(self.where)
        return out


@dataclass
class SqlQuery:
    selects: list[SqlSelect]

    def to_sql(self) -> str:
        return "\nUNION ALL\n".join(s.to_sql() for s in self.selects)


def qident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def qstr(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# Result shapes (column layout of a flattened result)


@dataclass
class LeafShape:
    ty: S.Type  # base type, for decoding


@dataclass
class RecordShape:
    fields: list[tuple[str, "Shape"]]


@dataclass
class ListShape:
    """A static list: fixed number of cells, each with its own shape."""

    cells: list["Shape"]


Shape = Union[LeafShape, RecordShape, ListShape]


def shape_columns(shape: Shape) -> int:
    if isinstance(shape, LeafShape):
        return 1
    if isinstance(shape, RecordShape):
        return sum(shape_columns(s) for _, s in shape.fields)
    return sum(shape_columns(s) for s in shape.cells)


def shape_names(shape: Shape, prefix: str = "") -> list[str]:
    if isinstance(shape, LeafShape):
        return [prefix or "value"]
    out = []
    if isinstance(shape, RecordShape):
        for l, s in shape.fields:
            out.extend(shape_names(s, f"{prefix}_{l}" if prefix else l))
    else:
        for i, s in enumerate(shape.cells):
            out.extend(shape_names(s, f"{prefix}_{i + 1}" if prefix else str(i + 1)))
    return out


def compile_decoder(shape: Shape):
    """A closure decoding one result row; column positions, label order, and
    boolean coercions are resolved once instead of per row."""
    VConst, VRecord, VList = V.VConst, V.VRecord, V.VList
    if isinstance(shape, LeafShape):
        # Interning pays off for constant select-list columns (provenance
        # table/column strings) and low-cardinality data columns.
        cache: dict = {}
        if shape.ty == S.BOOL:
            cache = {0: V.VConst(False), 1: V.VConst(True)}
            return 1, lambda row, pos: cache[1 if row[pos] else 0]

        def leaf(row, pos, cache=cache):
            x = row[pos]
            v = cache.get(x)
            if v is None:
                v = cache[x] = VConst(x)
            return v

        return 1, leaf
    if isinstance(shape, RecordShape):
        subs = []
        offset = 0
        for label, s in shape.fields:
            width, fn = compile_decoder(s)
            subs.append((label, offset, fn))
            offset += width
        subs.sort(key=lambda x: x[0])  # canonical label order
        # unrolled fast paths for the common small arities
        if len(subs) == 1:
            l1, o1, f1 = subs[0]
            return offset, lambda row, pos: VRecord(((l1, f1(row, pos + o1)),))
        if len(subs) == 2:
            (l1, o1, f1), (l2, o2, f2) = subs
            return offset, lambda row, pos: VRecord(
                ((l1, f1(row, pos + o1)), (l2, f2(row, pos + o2)))
            )
        if len(subs) == 3:
            (l1, o1, f1), (l2, o2, f2), (l3, o3, f3) = subs
            return offset, lambda row, pos: VRecord(
                (
                    (l1, f1(row, pos + o1)),
                    (l2, f2(row, pos + o2)),
                    (l3, f3(row, pos + o3)),
                )
            )

        def rec(row, pos, subs=tuple(subs)):
            return VRecord(tuple((l, fn(row, pos + off)) for l, off, fn in subs))

        return offset, rec
    subs2 = []
    offset = 0
    for s in shape.cells:
        width, fn = compile_decoder(s)
        subs2.append((offset, fn))
        offset += width
    if len(subs2) == 1:
        o1, f1 = subs2[0]
        return offset, lambda row, pos: VList((f1(row, pos + o1),))
    if len(subs2) == 2:
        (o1, f1), (o2, f2) = subs2
        return offset, lambda row, pos: VList((f1(row, pos + o1), f2(row, pos + o2)))

    def lst(row, pos, subs=tuple(subs2)):
        return VList(tuple(fn(row, pos + off) for off, fn in subs))

    return offset, lst


# ---------------------------------------------------------------------------
# Expression rendering


class _NotRenderable(Exception):
    pass


@dataclass(frozen=True)
class ParamRef(S.Expr):
    """A correlated outer-variable projection, rendered as a placeholder."""

    var: str
    label: str
    ty: S.Type  # base type, for decoding and boolean placement


class _Renderer:
    """Renders normal-form expressions against generator aliases."""

    def __init__(self, scopes: dict[str, tuple[str, S.Row]], params: Optional[list] = None):
        # var -> (sql alias, row type); an empty alias renders unqualified
        # columns, as UPDATE and DELETE statements need
        self.scopes = scopes
        self.params = params  # ordered (var, label) slots when parameterizing

    def expr(self, e: S.Expr, boolean: bool = False) -> str:
        if isinstance(e, ParamRef):
            self.params.append((e.var, e.label))
            if boolean and e.ty == S.BOOL:
                return "? <> 0"
            return "?"
        if isinstance(e, S.Const):
            return self.const(e.value, boolean)
        if isinstance(e, S.ValueLit):
            v = V.strip_annotations(e.value)
            if isinstance(v, V.VConst):
                return self.const(v.value, boolean)
            raise _NotRenderable()
        if isinstance(e, S.Project) and isinstance(e.expr, S.Var):
            name = e.expr.name
            if name not in self.scopes:
                raise _NotRenderable()
            alias, row = self.scopes[name]
            ty = S.row_get(row, e.label)
            if ty is None:
                raise _NotRenderable()
            col = f"{qident(alias)}.{qident(e.label)}" if alias else qident(e.label)
            if boolean and ty == S.BOOL:
                return f"{col} <> 0"
            return col
        if isinstance(e, S.Prim):
            return self.prim(e, boolean)
        if isinstance(e, S.If):
            c = self.expr(e.cond, True)
            a = self.expr(e.then, boolean)
            b = self.expr(e.els, boolean)
            return f"CASE WHEN {c} THEN {a} ELSE {b} END"
        if isinstance(e, S.IsEmpty) and isinstance(e.coll, SubQuery):
            sub = render_sql(e.coll.query, outer=self.scopes, params=self.params)
            inner = "\nUNION ALL\n".join(
                SqlSelect([("1", "x")], s.from_, s.where).to_sql() for s in sub.selects
            )
            return f"NOT EXISTS ({inner})"
        raise _NotRenderable()

    def const(self, v, boolean: bool) -> str:
        if isinstance(v, bool):
            return ("1 <> 0" if v else "1 <> 1") if boolean else ("1" if v else "0")
        if isinstance(v, int):
            return str(v)
        return qstr(v)

    def prim(self, e: S.Prim, boolean: bool) -> str:
        op = e.op
        if op in ("&&", "||"):
            a = self.expr(e.args[0], True)
            b = self.expr(e.args[1], True)
            return f"({a} {'AND' if op == '&&' else 'OR'} {b})"
        if op == "not":
            return f"(NOT {self.expr(e.args[0], True)})"
        if op in ("==", "<>"):
            a = self.expr(e.args[0])
            b = self.expr(e.args[1])
            return f"({a} {'=' if op == '==' else '<>'} {b})"
        if op in ("<", ">"):
            return f"({self.expr(e.args[0])} {op} {self.expr(e.args[1])})"
        if op in ("+", "-", "*"):
            return f"({self.expr(e.args[0])} {op} {self.expr(e.args[1])})"
        if op == "mod":
            return f"({self.expr(e.args[0])} % {self.expr(e.args[1])})"
        raise _NotRenderable()


def _const_type(x) -> S.Type:
    """The base type of a constant's Python value."""
    return S.BOOL if isinstance(x, bool) else S.INT if isinstance(x, int) else S.STRING


def leaf_type(e: S.Expr, scopes: dict[str, tuple[str, S.Row]]) -> S.Type:
    if isinstance(e, ParamRef):
        return e.ty
    if isinstance(e, S.Const):
        return _const_type(e.value)
    if isinstance(e, S.ValueLit):
        v = V.strip_annotations(e.value)
        if isinstance(v, V.VConst):
            return _const_type(v.value)
    if isinstance(e, S.Project) and isinstance(e.expr, S.Var):
        entry = scopes.get(e.expr.name)
        if entry is not None:
            ty = S.row_get(entry[1], e.label)
            if ty is not None:
                return ty
    if isinstance(e, S.Prim):
        if e.op in ("+", "-", "*", "mod"):
            return S.INT
        return S.BOOL
    if isinstance(e, S.If):
        return leaf_type(e.then, scopes)
    if isinstance(e, S.IsEmpty):
        return S.BOOL
    raise _NotRenderable()


# ---------------------------------------------------------------------------
# render_sql


def render_sql(
    nq: NormalQuery,
    outer: Optional[dict[str, tuple[str, S.Row]]] = None,
    params: Optional[list] = None,
) -> SqlQuery:
    """Render a flat normal query to one SELECT per union branch.

    Record results flatten depth-first; static list cells flatten with
    numbered suffixes.  Raises when a field is not flat.  When ``params``
    is given, placeholder slots are appended to it in SQL text order.
    """
    selects = []
    shape0: Optional[Shape] = None
    names0: Optional[list[str]] = None
    for b in nq.branches:
        scopes, from_ = _generator_scopes(b.gens, outer)
        r = _Renderer(scopes, params)
        try:
            # the select list renders before WHERE so placeholder order
            # matches the statement text
            cols, shape = _flatten_result(b.result, r, scopes)
            where = [r.expr(c, True) for c in b.conds]
        except _NotRenderable:
            raise BackendError("non-flat field in SQL rendering") from None
        names = shape_names(shape)
        if shape0 is None:
            shape0, names0 = shape, names
        elif len(names) != len(names0 or []):
            raise BackendError("union branches have different shapes")
        selects.append(SqlSelect(list(zip(cols, names0 or names)), from_, where))
    if shape0 is None:
        raise BackendError("cannot render an empty union")
    q = SqlQuery(selects)
    q.shape = shape0  # type: ignore[attr-defined]
    return q


def _generator_scopes(gens: list[TableGen], outer=None):
    """Renderer scopes and the FROM list for a branch's generators, with
    aliases numbered after the enclosing scopes'."""
    scopes = dict(outer or {})
    from_ = []
    for g in gens:
        alias = f"t{len(scopes)}"
        scopes[g.var] = (alias, g.row)
        from_.append((g.table, alias))
    return scopes, from_


def _flatten_result(e: S.Expr, r: _Renderer, scopes) -> tuple[list[str], Shape]:
    if isinstance(e, S.RecordLit):
        cols: list[str] = []
        fields = []
        for l, x in e.fields_:
            c, s = _flatten_result(x, r, scopes)
            cols.extend(c)
            fields.append((l, s))
        return cols, RecordShape(fields)
    if isinstance(e, SubQuery):
        if not e.query.is_static_list():
            raise _NotRenderable()
        cols = []
        cells = []
        for br in e.query.branches:
            c, s = _flatten_result(br.result, r, scopes)
            cols.extend(c)
            cells.append(s)
        return cols, ListShape(cells)
    if isinstance(e, S.ValueLit) and isinstance(e.value, V.VRecord):
        cols = []
        fields = []
        for l, x in e.value.fields:
            c, s = _flatten_result(S.ValueLit(x), r, scopes)
            cols.extend(c)
            fields.append((l, s))
        return cols, RecordShape(fields)
    return [r.expr(e)], LeafShape(leaf_type(e, r.scopes))


# ---------------------------------------------------------------------------
# Execution


def execute(conn, q: SqlQuery) -> V.VList:
    """Run a rendered query and decode rows back to values (multiset
    semantics: row order is not meaningful)."""
    shape = getattr(q, "shape", None)
    if shape is None:
        raise BackendError("query was rendered without a shape")
    try:
        rows = conn.execute(q.to_sql()).fetchall()
    except Exception as exc:  # connection/SQL failure
        raise BackendError(f"SQL execution failed: {exc}") from exc
    width, decode = compile_decoder(shape)
    if rows and len(rows[0]) != width:
        raise BackendError("decode mismatch: column count")
    return V.VList(tuple(decode(row, 0) for row in rows))


@dataclass
class _Statement:
    """A plan branch's one SQL statement, outer projections as placeholders.

    A flat statement's rows decode to results.  A skeleton statement's rows
    decode to the generators' rows, on which the ``residual`` conditions
    and the result are evaluated in memory.
    """

    kind: str  # "sql" (flat) or "sql-skeleton", as listed by explain
    sql: str
    slots: tuple  # (outer var, label) per placeholder, in text order
    decode: Callable
    residual: tuple = ()


class PlanExecutor:
    """Evaluation of normal queries, one SQL statement per plan branch.

    A branch's statement is rendered on its first run and cached; each run
    binds the outer row's values to its placeholders.  A branch whose
    result renders flat is decoded straight from its rows.  Otherwise the
    statement fetches the generators' rows, filtered by the conditions that
    render, and the result (including nested subqueries, run per outer row
    with memoization) is assembled in memory.
    """

    def __init__(self, conn, explain: Optional[list] = None):
        self.conn = conn
        self.memo: dict = {}
        self.freevar_cache: dict = {}
        self.statements: dict = {}
        self.explain = explain

    def run(self, nq: NormalQuery, env: Optional[dict[str, V.Value]] = None) -> V.VList:
        # Memoization is per branch: the branches of a union usually depend
        # on different outer variables, so their caches must not be keyed on
        # the union of all of them.
        env = env or {}
        items: list[V.Value] = []
        for b in nq.branches:
            fvs = self._branch_free_vars(b)
            relevant = {k: env[k] for k in fvs if k in env}
            key = (
                id(b),
                tuple(sorted((k, V.serialize(v)) for k, v in relevant.items())),
            )
            if key not in self.memo:
                self.memo[key] = self._branch(b, relevant)
            items.extend(self.memo[key])
        return V.VList(tuple(items))

    def _branch(self, b: Branch, env: dict[str, V.Value]) -> list[V.Value]:
        st = self.statements.get(id(b))
        if st is None:
            st = self.statements[id(b)] = _statement(b, env)
        if self.explain is not None:
            self.explain.append((st.kind, st.sql))
        args = [env[var].get(label).value for var, label in st.slots]
        rows = self.conn.execute(st.sql, args).fetchall()
        if st.kind == "sql":
            return [st.decode(row, 0) for row in rows]
        names = [g.var for g in b.gens]
        out = []
        for row in rows:
            benv = dict(env)
            benv.update(zip(names, st.decode(row, 0).items))
            if all(self._truth(c, benv) for c in st.residual):
                out.append(self.eval_expr(b.result, benv))
        return out

    def _truth(self, c: S.Expr, env: dict[str, V.Value]) -> bool:
        v = self.eval_expr(c, env)
        return v == V.TRUE

    def eval_expr(self, e: S.Expr, env: dict[str, V.Value]) -> V.Value:
        if isinstance(e, S.Const):
            return V.VConst(e.value)
        if isinstance(e, S.ValueLit):
            return e.value
        if isinstance(e, S.Var):
            if e.name not in env:
                raise BackendError(f"unbound variable {e.name!r} in plan")
            return env[e.name]
        if isinstance(e, S.Project):
            v = self.eval_expr(e.expr, env)
            if not isinstance(v, V.VRecord):
                raise BackendError("projection from non-record in plan")
            return v.get(e.label)
        if isinstance(e, S.RecordLit):
            return V.vrecord([(l, self.eval_expr(x, env)) for l, x in e.fields_])
        if isinstance(e, S.Prim):
            return delta(e.op, [self.eval_expr(a, env) for a in e.args])
        if isinstance(e, S.If):
            return self.eval_expr(
                e.then if self._truth(e.cond, env) else e.els, env
            )
        if isinstance(e, SubQuery):
            return self.run(e.query, env)
        if isinstance(e, S.IsEmpty):
            coll = self.eval_expr(e.coll, env)
            return V.VConst(len(coll.items) == 0)  # type: ignore[union-attr]
        raise BackendError(f"cannot evaluate {type(e).__name__} in plan")

    def _branch_free_vars(self, b: Branch) -> frozenset:
        key = id(b)
        if key in self.freevar_cache:
            return self.freevar_cache[key]
        out = _branch_free_vars(b)
        self.freevar_cache[key] = out
        return out


def _branch_free_vars(b: Branch) -> frozenset:
    out: set[str] = set()
    for e in [*b.conds, b.result]:
        out |= _expr_free_vars(e)
    return frozenset(out - {g.var for g in b.gens})


def _query_free_vars(nq: NormalQuery) -> frozenset:
    out: set[str] = set()
    for b in nq.branches:
        out |= _branch_free_vars(b)
    return frozenset(out)


def _expr_free_vars(e: S.Expr) -> set[str]:
    if isinstance(e, SubQuery):
        return set(_query_free_vars(e.query))
    out: set[str] = set()
    if isinstance(e, S.Var):
        out.add(e.name)
    for c in e.children():
        out |= _expr_free_vars(c)
    return out


def _statement(b: Branch, env: dict[str, V.Value]) -> _Statement:
    """Render a branch's statement.  Placeholders take the types of the
    values ``env`` binds at this first run, which hold for every run: a
    branch's outer variables are always bound by the same enclosing table
    generators."""
    bound = frozenset(g.var for g in b.gens)
    slots: list = []
    try:
        pb = Branch(
            b.gens,
            [_parametrize(c, env, bound) for c in b.conds],
            _parametrize(b.result, env, bound),
        )
        q = render_sql(NormalQuery([pb]), params=slots)
        return _Statement("sql", q.to_sql(), tuple(slots), compile_decoder(q.shape)[1])
    except (BackendError, _NotRenderable):
        slots.clear()
    scopes, from_ = _generator_scopes(b.gens)
    where, residual = [], []
    for c in b.conds:
        # a condition that does not render must leave no placeholder slots
        cslots: list = []
        try:
            where.append(_Renderer(scopes, cslots).expr(_parametrize(c, env, bound), True))
            slots.extend(cslots)
        except _NotRenderable:
            residual.append(c)
    select = [
        (f"{qident(scopes[g.var][0])}.{qident(label)}", f"{g.var}_{label}")
        for g in b.gens
        for label, _ in g.row
    ]
    shape = ListShape([RecordShape([(l, LeafShape(ty)) for l, ty in g.row]) for g in b.gens])
    sql = SqlSelect(select, from_, where).to_sql()
    return _Statement("sql-skeleton", sql, tuple(slots), compile_decoder(shape)[1], tuple(residual))


def _parametrize(e: S.Expr, env: dict[str, V.Value], bound: frozenset) -> S.Expr:
    """Replace projections of the outer variables bound in ``env`` by
    placeholders, typed by the values bound there."""
    if isinstance(e, S.Project) and isinstance(e.expr, S.Var):
        name = e.expr.name
        if name in env and name not in bound:
            return ParamRef(name, e.label, _const_type(env[name].get(e.label).value))
    if isinstance(e, S.Var) and e.name in env and e.name not in bound:
        raise _NotRenderable()  # whole-row references cannot be bound
    if isinstance(e, SubQuery):
        out = []
        for sb in e.query.branches:
            inner = bound | {g.var for g in sb.gens}
            out.append(
                Branch(
                    sb.gens,
                    [_parametrize(c, env, inner) for c in sb.conds],
                    _parametrize(sb.result, env, inner),
                )
            )
        return SubQuery(NormalQuery(out))
    return S.map_children(e, lambda c: _parametrize(c, env, bound))


# ---------------------------------------------------------------------------
# Schema DDL, loading, updates


_SQL_TYPES = {"Int": "INTEGER", "Bool": "INTEGER", "String": "TEXT"}

BENCH_INDEXES = [
    ("tasks", "employee"),
    ("tasks", "task"),
    ("employees", "dept"),
    ("contacts", "dept"),
]


def schema_ddl(db: Database, indexes: bool = True) -> list[str]:
    stmts = []
    for name in sorted(db.tables):
        td = db.tables[name]
        cols = []
        for label, ty in td.schema:
            if label == OID:
                cols.append(f"{qident(label)} INTEGER PRIMARY KEY")
            else:
                cols.append(f"{qident(label)} {_SQL_TYPES[str(ty)]} NOT NULL")
        stmts.append(f"CREATE TABLE {qident(name)} ({', '.join(cols)})")
    stmts.append(
        'CREATE TABLE "_provql_seq" ("table_name" TEXT PRIMARY KEY, "next_oid" INTEGER NOT NULL)'
    )
    if indexes:
        for table, col in BENCH_INDEXES:
            if table in db.tables:
                stmts.append(
                    f"CREATE INDEX {qident('idx_' + table + '_' + col)} "
                    f"ON {qident(table)} ({qident(col)})"
                )
    return stmts


def load_database(conn, db: Database) -> None:
    """Create the schema and load an in-memory database snapshot."""
    for stmt in schema_ddl(db):
        conn.execute(stmt)
    for name in sorted(db.tables):
        td = db.tables[name]
        cols = [l for l, _ in td.schema]
        placeholders = ", ".join("?" for _ in cols)
        stmt = (
            f"INSERT INTO {qident(name)} ({', '.join(qident(c) for c in cols)}) "
            f"VALUES ({placeholders})"
        )
        conn.executemany(
            stmt,
            [tuple(int(r[c]) if isinstance(r[c], bool) else r[c] for c in cols) for r in td.rows],
        )
        conn.execute(
            'INSERT INTO "_provql_seq" VALUES (?, ?)', (name, td.next_oid)
        )
    conn.commit()


def read_database(conn, schema: dict[str, S.Row]) -> Database:
    """Snapshot the SQL state back into the in-memory model."""
    db = Database()
    for name, row in schema.items():
        db.create_table(name, row)
        td = db.get(name)
        cols = S.row_labels(td.schema)
        sel = ", ".join(qident(c) for c in cols)
        for raw in conn.execute(f"SELECT {sel} FROM {qident(name)}"):
            r = {}
            for c, x in zip(cols, raw):
                ty = S.row_get(td.schema, c)
                r[c] = bool(x) if ty == S.BOOL else x
            td.rows.append(r)
        seq = conn.execute(
            'SELECT "next_oid" FROM "_provql_seq" WHERE "table_name" = ?', (name,)
        ).fetchone()
        td.next_oid = seq[0] if seq else max((r[OID] for r in td.rows), default=0) + 1
    return db


def _next_oids(conn, table: str, count: int) -> list[int]:
    cur = conn.execute(
        'SELECT "next_oid" FROM "_provql_seq" WHERE "table_name" = ?', (table,)
    ).fetchone()
    if cur is None:
        raise BackendError(f"no sequence for table {table!r}")
    start = cur[0]
    conn.execute(
        'UPDATE "_provql_seq" SET "next_oid" = ? WHERE "table_name" = ?',
        (start + count, table),
    )
    return list(range(start, start + count))


def apply_update(conn, stmt: S.Expr, schema: dict[str, S.Row]) -> None:
    """Translate one insert/update/delete statement to SQL and run it."""
    from .normalize import rewrite_fixpoint
    from .interp import eval_big
    from .typecheck import Mode

    if isinstance(stmt, S.Insert):
        table = _resolve_table(stmt.table)
        _, rows_v = eval_big(Database(), rewrite_fixpoint(stmt.values), Mode.PLAIN)
        if not isinstance(rows_v, V.VList):
            raise BackendError("insert values did not evaluate to a list")
        td_row = schema[table.name]
        cols = [l for l, _ in td_row if l != OID]
        oids = _next_oids(conn, table.name, len(rows_v.items))
        for oid, item in zip(oids, rows_v.items):
            if not isinstance(item, V.VRecord):
                raise BackendError("insert row is not a record")
            labels = [l for l, _ in item.fields]
            if OID in labels:
                raise BackendError("attempt to write oid")
            vals = []
            for c in cols:
                x = V.strip_annotations(item.get(c))
                assert isinstance(x, V.VConst)
                vals.append(int(x.value) if isinstance(x.value, bool) else x.value)
            collist = ", ".join(qident(c) for c in cols + [OID])
            qs = ", ".join("?" for _ in range(len(cols) + 1))
            conn.execute(
                f"INSERT INTO {qident(table.name)} ({collist}) VALUES ({qs})",
                (*vals, oid),
            )
        conn.commit()
        return
    if isinstance(stmt, S.Update):
        table = _resolve_table(stmt.table)
        row = schema[table.name]
        r = _Renderer({stmt.var: ("", row)})
        try:
            pred = r.expr(rewrite_fixpoint(stmt.pred), True)
            sets = []
            for label, x in stmt.assigns:
                if label == OID:
                    raise BackendError("attempt to write oid")
                sets.append(f"{qident(label)} = {r.expr(rewrite_fixpoint(x))}")
        except _NotRenderable:
            raise BackendError("update clause is not SQL-renderable") from None
        conn.execute(
            f"UPDATE {qident(table.name)} SET {', '.join(sets)} WHERE {pred}"
        )
        conn.commit()
        return
    if isinstance(stmt, S.Delete):
        table = _resolve_table(stmt.table)
        row = schema[table.name]
        r = _Renderer({stmt.var: ("", row)})
        try:
            pred = r.expr(rewrite_fixpoint(stmt.pred), True)
        except _NotRenderable:
            raise BackendError("delete predicate is not SQL-renderable") from None
        conn.execute(f"DELETE FROM {qident(table.name)} WHERE {pred}")
        conn.commit()
        return
    raise BackendError(f"not an update statement: {type(stmt).__name__}")


def _resolve_table(e: S.Expr) -> S.TableRef:
    from .normalize import rewrite_fixpoint

    t = rewrite_fixpoint(e)
    if isinstance(t, S.ValueLit) and isinstance(t.value, V.VTable):
        return S.TableRef(t.value.name, t.value.row, t.value.spec)
    if not isinstance(t, S.TableRef):
        raise BackendError("update target is not a table")
    return t


# ---------------------------------------------------------------------------
# Benchmark schema and data generator

BENCH_SCHEMA: dict[str, list[tuple[str, S.Type]]] = {
    "departments": [("oid", S.INT), ("name", S.STRING)],
    "employees": [("oid", S.INT), ("dept", S.STRING), ("name", S.STRING), ("salary", S.INT)],
    "tasks": [("oid", S.INT), ("employee", S.STRING), ("task", S.STRING)],
    "contacts": [("oid", S.INT), ("dept", S.STRING), ("name", S.STRING), ("client", S.BOOL)],
}

TASK_NAMES = [
    "abstract", "build", "call", "design", "enhance", "file",
    "go", "implement", "join", "keep", "lead", "manage",
]


def generate_benchmark_data(
    departments: int, seed: int, employees_per_dept: int = 100
) -> Database:
    """Deterministic-by-seed population of the benchmark schema.

    Each department has on average ``employees_per_dept`` employees and
    each employee has 0-2 tasks.
    """
    if departments < 1:
        raise BackendError("departments must be >= 1")
    rng = Random(seed)
    db = Database()
    for name, cols in BENCH_SCHEMA.items():
        db.create_table(name, cols)
    lo = max(1, employees_per_dept // 2)
    hi = employees_per_dept + employees_per_dept // 2
    for d in range(departments):
        dept = f"dept_{d:04d}"
        db.insert_rows("departments", [{"name": dept}])
        for c in range(rng.randint(1, 4)):
            db.insert_rows(
                "contacts",
                [{"dept": dept, "name": f"cont_{d:04d}_{c}", "client": rng.random() < 0.3}],
            )
        for e in range(rng.randint(lo, hi)):
            emp = f"emp_{d:04d}_{e:04d}"
            if rng.random() < 0.02:
                salary = rng.choice([500, 900, 1_500_000, 2_000_000])
            else:
                salary = rng.randrange(1_000, 120_001, 400)
            db.insert_rows(
                "employees", [{"dept": dept, "name": emp, "salary": salary}]
            )
            for _ in range(rng.randint(0, 2)):
                db.insert_rows(
                    "tasks", [{"employee": emp, "task": rng.choice(TASK_NAMES)}]
                )
    return db


def bench_schema_rows() -> dict[str, S.Row]:
    return {name: S.make_row(cols) for name, cols in BENCH_SCHEMA.items()}
