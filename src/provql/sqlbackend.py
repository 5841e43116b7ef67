"""SQL backend: render normal queries to SQL, execute them, decode results,
translate writes, and generate the benchmark database.

Every normal query of a typechecked program renders: its results are
records of base-typed columns, whole rows and conditionals included.
Writes compile through normal forms too (`apply_update`): each statement
reaches its table through the normal form of a one-generator comprehension
over its target, and an insert's values run on the connection as a query,
literal rows included.  So every write goes through `normalize`, and the
backend never calls the interpreter.

The backend is embedded SQLite.  Emitted SQL stays within the common
dialect subset (SELECT / UNION ALL / scalar operators / EXISTS / ORDER BY),
plus SQLite's rowids, which key the rows of nested results; oids are
explicit integer columns assigned from per-table sequences managed by this
module.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import count, groupby
from operator import itemgetter
from random import Random
from types import CodeType
from typing import Callable, Iterator, Optional, Union

from .database import Database, OID, value_row
from .errors import BackendError
from .normalize import Branch, NormalQuery, SubQuery, TableGen, normalize
from . import syntax as S
from . import values as V


# ---------------------------------------------------------------------------
# SQL text model


@dataclass
class SqlSelect:
    select: list[tuple[str, str]]  # (expression, alias)
    from_: list[tuple[str, str]]  # (table, alias)
    where: list[str]
    order_by: list[str] = field(default_factory=list)

    def to_sql(self) -> str:
        cols = ", ".join(f"{e} AS {qident(a)}" for e, a in self.select) or "1"
        out = f"SELECT {cols}"
        if self.from_:
            out += " FROM " + ", ".join(f"{qident(t)} AS {qident(a)}" for t, a in self.from_)
        if self.where:
            out += " WHERE " + " AND ".join(self.where)
        if self.order_by:
            out += " ORDER BY " + ", ".join(self.order_by)
        return out


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


@dataclass
class HoleShape:
    """A nested list, zero columns wide: one list from each of its levels,
    one level per union branch, concatenated in branch order (see
    `PlanExecutor`)."""

    levels: list["_Level"]


Shape = Union[LeafShape, RecordShape, ListShape, HoleShape]


def shape_names(shape: Shape, prefix: str = "") -> list[str]:
    if isinstance(shape, LeafShape):
        return [prefix or "value"]
    if isinstance(shape, HoleShape):
        return []
    out = []
    if isinstance(shape, RecordShape):
        for l, s in shape.fields:
            out.extend(shape_names(s, f"{prefix}_{l}" if prefix else l))
    else:
        for i, s in enumerate(shape.cells):
            out.extend(shape_names(s, f"{prefix}_{i + 1}" if prefix else str(i + 1)))
    return out


class _Column(dict):
    """The values of one result column, interned: a value seen before costs
    one lookup, and a new one must have the column's type.  SQLite yields
    NULL for a zero divisor and REAL for a 64-bit overflow, even in an
    ``Int`` or ``Bool`` column."""

    def __init__(self, ty: S.Type, name: str):
        super().__init__({0: V.FALSE, 1: V.TRUE} if ty == S.BOOL else {})
        self.ty, self.name = ty, name
        self.py_type = {S.INT: int, S.STRING: str}.get(ty)  # None for Bool

    def __missing__(self, x):
        if type(x) is not self.py_type:
            raise BackendError(
                f"{self.ty} column {self.name!r} yielded {x!r}"
                " (a zero divisor or a 64-bit overflow in SQL)"
            )
        v = self[x] = V.VConst(x)
        return v


_EMPTY = V.VList(())


@dataclass(frozen=True, eq=False)
class _Decoder:
    """A generated decoding function's compiled code and what its
    environment holds: the labels tuples that the records it decodes share,
    a `_Column` per leaf and, per level of a hole, that level's lists.
    Columns and lists belong to one run, so `bind` makes them."""

    code: CodeType
    labels: dict[str, tuple]
    columns: tuple[tuple[str, S.Type, str], ...]  # (env name, type, column name)
    levels: tuple[tuple[str, "_Level"], ...]  # (env name, level)

    def bind(self, groups: dict) -> Callable:
        """The function for one run: fresh interned columns, and each hole
        level's lists (key -> `VList`), taken out of ``groups``."""
        env = {"R": V.VRecord, "L": V.VList, "EMPTY": _EMPTY, **self.labels}
        for name, ty, col in self.columns:
            env[name] = _Column(ty, col)
        for name, level in self.levels:
            env[name] = groups.pop(level)
        return eval(self.code, env)


def compile_decoder(shape: Shape, start: int, lookups: Optional[dict] = None) -> _Decoder:
    """The decoder of a result row whose decoded columns start at ``start``,
    e.g. ``lambda row: R(lb0, (c2[row[2]], h1.get((row[1],), EMPTY)))``,
    where ``lb0`` is the labels tuple ``("n", "xs")`` and ``h1`` the lists of
    a hole's level, looked up by the columns ``lookups[level]`` of the row.
    Only integers enter its source, so plans whose shapes have the same
    columns share its compiled code."""
    parts: tuple[dict, list, list] = ({}, [], [])
    source = _decoder_source(shape, parts, lookups or {}, iter(shape_names(shape)), count(start))
    labels, columns, levels = parts
    return _Decoder(_compiled(f"lambda row: {source}"), labels, tuple(columns), tuple(levels))


def _decoder_source(s: Shape, parts: tuple, lookups: dict, names: Iterator[str], cols: Iterator[int]) -> str:
    """The decoder expression for ``s``; adds the labels tuples, columns and
    levels it reads to ``parts``.  A module function, not a closure: a
    recursive closure refers to itself, which would leave every decoder's
    columns, and the values they interned, for the cycle collector."""
    labels, columns, levels = parts
    if isinstance(s, LeafShape):
        i = next(cols)
        columns.append((f"c{i}", s.ty, next(names)))
        return f"c{i}[row[{i}]]"
    if isinstance(s, HoleShape):
        # each level's list is found under its own key, projected from this
        # row's leading columns; a hole concatenates them in branch order
        lists = []
        for level in s.levels:
            h = f"h{len(labels) + len(levels)}"
            levels.append((h, level))
            key = "".join(f"row[{i}], " for i in lookups[level])
            lists.append(f"{h}.get(({key}), EMPTY)")
        if len(lists) == 1:
            return lists[0]
        return "L(" + " + ".join(f"{x}.items" for x in lists) + ")"
    if isinstance(s, RecordShape):
        lb = f"lb{len(labels) + len(levels)}"
        labels[lb] = tuple([l for l, _ in s.fields])
        values = "".join(f"{_decoder_source(x, parts, lookups, names, cols)}, " for _, x in s.fields)
        return f"R({lb}, ({values}))"
    cells = "".join(f"{_decoder_source(x, parts, lookups, names, cols)}, " for x in s.cells)
    return f"L(({cells}))"


@lru_cache(maxsize=1024)
def _compiled(source: str):
    return compile(source, "<decoder>", "eval")


# ---------------------------------------------------------------------------
# Expression rendering


class _NotRenderable(Exception):
    pass


class _Renderer:
    """Renders normal-form expressions against generator aliases."""

    def __init__(self, scopes: Optional[dict[str, tuple[str, S.Row]]] = None, aliases=None, used=None):
        self.scopes = scopes or {}  # var -> (sql alias, row type)
        # numbers every FROM entry of a statement, subqueries' included, so
        # no two entries share an alias even where a variable is shadowed
        self.aliases = aliases if aliases is not None else count()
        # the aliases whose columns the statement's renderers have read
        self.used: set[str] = used if used is not None else set()

    def bind(self, gens: list[TableGen]) -> tuple["_Renderer", list[tuple[str, str]]]:
        """A renderer whose scopes add ``gens`` under fresh aliases, and
        their FROM entries."""
        scopes = dict(self.scopes)
        from_ = []
        for g in gens:
            alias = f"t{next(self.aliases)}"
            scopes[g.var] = (alias, g.row)
            from_.append((g.table, alias))
        return _Renderer(scopes, self.aliases, self.used), from_

    def expr(self, e: S.Expr, boolean: bool = False) -> str:
        if isinstance(e, S.Const):
            return self.const(e.value, boolean)
        if isinstance(e, S.Project) and isinstance(e.expr, S.Var):
            name = e.expr.name
            if name not in self.scopes:
                raise _NotRenderable()
            alias, row = self.scopes[name]
            ty = S.row_get(row, e.label)
            if ty is None:
                raise _NotRenderable()
            self.used.add(alias)
            col = f"{qident(alias)}.{qident(e.label)}"
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
            # only the rows' existence matters: FROM and WHERE, no select list
            selects = []
            for b in e.coll.query.branches:
                r, from_ = self.bind(b.gens)
                selects.append(SqlSelect([], from_, [r.expr(c, True) for c in b.conds]).to_sql())
            if not selects:
                return self.const(True, boolean)
            return f"NOT EXISTS ({' UNION ALL '.join(selects)})"
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


def leaf_type(e: S.Expr, scopes: dict[str, tuple[str, S.Row]]) -> S.Type:
    if isinstance(e, S.Const):
        x = e.value
        return S.BOOL if isinstance(x, bool) else S.INT if isinstance(x, int) else S.STRING
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
    if isinstance(e, S.IsEmpty):
        return S.BOOL
    raise _NotRenderable()


# ---------------------------------------------------------------------------
# Plan rendering


def plan_sql(nq: NormalQuery) -> str:
    """The statements `PlanExecutor` runs for ``nq``, in the order it runs
    them, separated by ``;`` and a newline; nothing is run."""
    return ";\n".join(level.sql for level in _plan(nq).order)


def _flatten_result(
    e: S.Expr, r: _Renderer, hole: Callable[[SubQuery], Shape]
) -> tuple[list[str], Shape]:
    """Select-list columns and shape of a result; a nested list becomes
    ``hole(subquery)``.  Records flatten in label order, a generator's
    variable to its row's columns, and a conditional to one CASE per column
    of its branches, which must have the same shape."""
    if isinstance(e, S.Var) and e.name in r.scopes:
        e = S.record_lit([(l, S.Project(e, l)) for l, _ in r.scopes[e.name][1]])
    if isinstance(e, S.RecordLit):
        cols: list[str] = []
        fields = []
        for l, x in sorted(e.fields_, key=lambda f: f[0]):
            c, s = _flatten_result(x, r, hole)
            cols.extend(c)
            fields.append((l, s))
        return cols, RecordShape(fields)
    if isinstance(e, S.If):
        cond = r.expr(e.cond, True)
        then, shape = _flatten_result(e.then, r, hole)
        els, els_shape = _flatten_result(e.els, r, hole)
        if els_shape != shape:
            raise _NotRenderable()
        return [f"CASE WHEN {cond} THEN {a} ELSE {b} END" for a, b in zip(then, els)], shape
    if isinstance(e, SubQuery):
        if not e.query.is_static_list():
            return [], hole(e)
        cols = []
        cells = []
        for br in e.query.branches:
            c, s = _flatten_result(br.result, r, hole)
            cols.extend(c)
            cells.append(s)
        return cols, ListShape(cells)
    return [r.expr(e)], LeafShape(leaf_type(e, r.scopes))


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True, eq=False)
class _Level:
    """A plan branch's one SQL statement, compiled: its text and decoder.

    It is keyed by the rowids of the enclosing generators that its subtree
    (its conditions, its result, its ``empty(...)`` subqueries and its own
    holes) reads, so enclosing rows that agree on them share one list.  Its
    FROM list holds those generators and its own, outermost first; its
    WHERE list their conditions, and the enclosing conditions that read
    only those generators, plus one correlated ``EXISTS`` over the other
    enclosing generators and their conditions; it is ordered by the rowids
    of its FROM list.  Each row starts with the key, then its own
    generators' rowids when it has holes to look up; the decoder reads the
    rest.
    """

    sql: str
    shape: Shape
    decoder: _Decoder
    children: tuple["_Level", ...]  # its holes' levels, which run before it
    # the generators it is keyed by, as indexes into those in scope of the
    # enclosing branch
    key: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """A normal query's levels, compiled once and run any number of times;
    it holds no result values."""

    roots: tuple[_Level, ...]  # one per top-level branch
    order: tuple[_Level, ...]  # every level, in the order they run


def _plan(nq: NormalQuery) -> _Plan:
    """The plan of ``nq``, compiled on first use and kept on ``nq``."""
    if nq.plan is None:
        roots = tuple(_compile(nq, ()))
        nq.plan = _Plan(roots, tuple(_run_order(roots)))
    return nq.plan


def _compile(nq: NormalQuery, chain: tuple) -> list[_Level]:
    """The levels of ``nq`` nested under the branches in ``chain``."""
    return [_level(b, chain) for b in nq.branches]


def _level(b: Branch, chain: tuple) -> _Level:
    inner = (*chain, b)
    r = _Renderer()
    from_: list[tuple[str, str]] = []  # every generator in scope
    index: dict[str, int] = {}  # alias -> its generator's index in from_
    conds: list[tuple[str, set[int]]] = []  # and the generators each reads
    children: list[_Level] = []
    used = r.used  # shared by the renderers bound from r

    def reading(render: Callable, *args):
        """``render(*args)``, and the generators in scope that it read."""
        used.clear()
        out = render(*args)
        return out, {index[a] for a in used if a in index}

    def hole(sq: SubQuery) -> Shape:
        levels = _compile(sq.query, inner)
        children.extend(levels)
        return HoleShape(levels)

    try:
        for o in inner:
            # each branch's conditions render in its own scope, so an inner
            # generator that shadows an outer variable does not capture the
            # outer branch's references to it
            r, entries = r.bind(o.gens)
            for entry in entries:
                index[entry[1]] = len(from_)
                from_.append(entry)
            conds.extend(reading(r.expr, c, True) for c in o.conds)
        (cols, shape), reads = reading(_flatten_result, b.result, r, hole)
    except _NotRenderable:
        # the normal forms of typechecked programs always render
        raise BackendError("plan branch is not SQL-renderable") from None
    outer = len(from_) - len(b.gens)
    # the subtree reads what its conditions, its result and its holes read
    reads = reads.union(*[gens for _, gens in conds[len(conds) - len(b.conds) :]], *[c.key for c in children])
    key = tuple(sorted(i for i in reads if i < outer))
    row = key + tuple(range(outer, len(from_)))
    # the generators outside the row, and the enclosing conditions that
    # read them, become a semi-join, so this statement returns no more rows
    # than the join of every generator in scope would
    kept = set(row)
    where = [c for c, gens in conds if gens <= kept]
    dropped = [from_[i] for i in range(len(from_)) if i not in kept]
    if dropped:
        semi = SqlSelect([], dropped, [c for c, gens in conds if not gens <= kept])
        where.append(f"EXISTS ({semi.to_sql()})")
    rowids = [f"{qident(from_[i][1])}.rowid" for i in row]
    keys = rowids if children else rowids[: len(key)]
    select = [(k, f"k{i}") for i, k in enumerate(keys)] + list(zip(cols, shape_names(shape)))
    # a hole looks each of its levels up by the columns of this row that
    # hold the level's key
    lookups = {child: tuple([row.index(i) for i in child.key]) for child in children}
    return _Level(
        SqlSelect(select, [from_[i] for i in row], where, rowids).to_sql(),
        shape,
        compile_decoder(shape, len(keys), lookups),
        tuple(children),
        key,
    )


class PlanExecutor:
    """Evaluation of normal queries by query shredding: each plan branch,
    at any nesting depth, runs as one SQL statement per `run`.

    A nested list in a result is a hole in the decoder, filled from the
    rows of the nested query's branches.  Each branch is keyed by the
    rowids of the enclosing generators it reads, and the other enclosing
    generators become an ``EXISTS``, so outer rows that agree on those
    rowids share one decoded list.  A branch runs before the branch that
    holds its hole.

    A query's plan (statement texts, key layouts, decoder code) is compiled
    on its first run and kept on the `NormalQuery`; a run's own state, the
    lists decoded so far and the interned column values, lives only inside
    `run`.  ``explain``, when given, collects the statements' texts in the
    order they run, and ``row_counts`` the number of rows each fetched.
    """

    def __init__(self, conn, explain: Optional[list] = None):
        self.conn = conn
        self.explain = explain
        self.row_counts: list[int] = []

    def run(self, nq: NormalQuery) -> V.VList:
        plan = _plan(nq)
        # level -> its lists (key -> VList), until the level holding it binds them
        groups: dict = {}
        for level in plan.order:
            if self.explain is not None:
                self.explain.append(level.sql)
            try:
                rows = self.conn.execute(level.sql).fetchall()
            except sqlite3.Error as exc:
                raise BackendError(f"SQL execution failed: {exc}") from exc
            if self.explain is not None:
                self.row_counts.append(len(rows))
            decode = level.decoder.bind(groups)
            # rows come ordered by key, which is their leading columns, so
            # each list is one run of rows
            runs = groupby(rows, itemgetter(slice(len(level.key))))
            groups[level] = {key: V.VList(tuple(map(decode, run))) for key, run in runs}
        lists = [groups.pop(level).get((), _EMPTY) for level in plan.roots]
        return lists[0] if len(lists) == 1 else V.VList(tuple([x for xs in lists for x in xs.items]))


def _run_order(levels):
    """``levels`` and the levels nested under them, in the order
    `PlanExecutor` runs them: a level after the levels of its holes."""
    for level in levels:
        yield from _run_order(level.children)
        yield level


# ---------------------------------------------------------------------------
# Schema DDL, loading, updates


_SQL_TYPES = {"Int": "INTEGER", "Bool": "INTEGER", "String": "TEXT"}

BENCH_INDEXES = [
    ("tasks", "employee"),
    ("tasks", "task"),
    ("employees", "dept"),
    ("contacts", "dept"),
    ("employees", "name"),
    ("departments", "name"),
]


def schema_ddl(db: Database) -> list[str]:
    return _table_ddl(db) + _index_ddl(db)


def _table_ddl(db: Database) -> list[str]:
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
    return stmts


def _index_ddl(db: Database) -> list[str]:
    return [
        f"CREATE INDEX {qident('idx_' + table + '_' + col)} ON {qident(table)} ({qident(col)})"
        for table, col in BENCH_INDEXES
        if table in db.tables
    ]


def load_database(conn, db: Database) -> None:
    """Create the schema and load an in-memory database snapshot.  The
    indexes are built after the rows are in, which is cheaper than
    maintaining them row by row."""
    for stmt in _table_ddl(db):
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
    for stmt in _index_ddl(db):
        conn.execute(stmt)
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
    """Translate one insert/update/delete statement to SQL and run it.

    An insert runs its values as a query before it writes, as the
    interpreter evaluates them before it inserts, and checks every row
    before it writes any.  An update or delete is the normal form of the
    comprehension ``for (x <-- T) where (pred) [(l1 = e1, ...)]``, with a
    unit result for a delete: its one branch's conditions become the
    WHERE, its result fields the SET list.
    """
    if isinstance(stmt, S.Insert):
        var = S.fresh_name("x", S.free_vars(stmt.table))
        g, _ = _target(stmt, var, S.Singleton(S.UNIT_LIT), schema)
        rows = [value_row(item) for item in PlanExecutor(conn).run(normalize(stmt.values)).items]
        cols = [l for l, _ in g.row if l != OID]
        for row in rows:
            if OID in row:
                raise BackendError("attempt to write oid")
            for c in cols:
                if c not in row:
                    raise BackendError(f"insert row lacks column {c!r}")
        oids = _next_oids(conn, g.table, len(rows))
        collist = ", ".join(qident(c) for c in cols + [OID])
        qs = ", ".join("?" for _ in range(len(cols) + 1))
        conn.executemany(
            f"INSERT INTO {qident(g.table)} ({collist}) VALUES ({qs})",
            [(*(row[c] for c in cols), oid) for row, oid in zip(rows, oids)],
        )
        conn.commit()
        return
    if not isinstance(stmt, (S.Update, S.Delete)):
        raise BackendError(f"not an update statement: {type(stmt).__name__}")
    assigns = stmt.assigns if isinstance(stmt, S.Update) else ()
    if any(label == OID for label, _ in assigns):
        raise BackendError("attempt to write oid")
    g, b = _target(stmt, stmt.var, S.Where(stmt.pred, S.Singleton(S.RecordLit(assigns))), schema)
    # the target has an alias, so a correlated subquery over the same table
    # cannot capture its columns
    r, ((_, alias),) = _Renderer().bind([g])
    target = f"{qident(g.table)} AS {qident(alias)}"
    try:
        pred = " AND ".join(r.expr(c, True) for c in b.conds)
        if isinstance(stmt, S.Update):
            # The interpreter computes every new row from the old table, but
            # SQLite evaluates an UPDATE's SET values and WHERE row by row as
            # it writes, so a subquery there could read rows this statement
            # already changed.  Subqueries stay out of SET values; a WHERE
            # with one selects its targets first, in an uncorrelated IN
            # (whose own "t0" shadows the target's), as DELETE does itself.
            if any(isinstance(x, SubQuery) for x in S.walk(b.result)):
                raise _NotRenderable()
            sets = ", ".join(f"{qident(label)} = {r.expr(x)}" for label, x in b.result.fields_)
            if any(isinstance(x, SubQuery) for c in b.conds for x in S.walk(c)):
                pred = f"{qident(alias)}.rowid IN (SELECT {qident(alias)}.rowid FROM {target} WHERE {pred})"
            sql = f"UPDATE {target} SET {sets} WHERE {pred}"
        else:
            sql = f"DELETE FROM {target} WHERE {pred}"
    except _NotRenderable:
        what = "update clause" if isinstance(stmt, S.Update) else "delete predicate"
        raise BackendError(f"{what} is not SQL-renderable") from None
    conn.execute(sql)
    conn.commit()


def _target(
    stmt: S.Expr, var: str, body: S.Expr, schema: dict[str, S.Row]
) -> tuple[TableGen, Branch]:
    """The one branch of the normal form of ``for (var <-- target) body``,
    and its generator, which ranges over the table ``stmt`` writes, with
    that table's schema row.  Every write reaches its table this way."""
    nq = normalize(S.For(var, stmt.table, body, True))
    # a target that is not one table leaves no branch, several, or one
    # whose generator is not the statement's own
    if len(nq.branches) != 1 or [g.var for g in nq.branches[0].gens] != [var]:
        raise BackendError(f"{type(stmt).__name__.lower()} target is not a table")
    (b,) = nq.branches
    (g,) = b.gens
    if g.table not in schema:
        raise BackendError(f"write to unknown table {g.table!r}")
    return replace(g, row=schema[g.table]), b


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
