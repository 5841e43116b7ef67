"""Reference semantics: a small-step machine over evaluation contexts, and
an equivalent environment-based big-step evaluator used where speed matters.

Three evaluation modes: plain call-by-value; where mode, in which table
reads attach per-cell provenance colors and data/prov project them; and
lineage mode, the relation used inside lineage blocks, in which list cells
carry color sets.  A lineage block reached in plain mode evaluates in one
observable step: annotate, run the lineage relation to a value, convert
back to data/prov records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import EvalError, StuckTermError
from .database import Database, row_value, value_row
from .typecheck import Mode
from . import syntax as S
from . import values as V

DEFAULT_STEP_LIMIT = 10_000_000


@dataclass
class MachineState:
    db: Database
    focus: S.Expr
    mode: Mode = Mode.PLAIN


@dataclass
class Done:
    value: V.Value


# ---------------------------------------------------------------------------
# Values at the expression level


def is_value_expr(e: S.Expr, mode: Mode) -> bool:
    if isinstance(e, (S.Const, S.ValueLit, S.Fun, S.TableRef, S.EmptyList, S.DatabaseRef)):
        return True
    if isinstance(e, S.RecordLit):
        return all(is_value_expr(x, mode) for _, x in e.fields_)
    if isinstance(e, S.Singleton):
        # In lineage mode a bare singleton still has to acquire its (empty)
        # annotation, so it is a redex rather than a value.
        return mode is not Mode.LINEAGE and is_value_expr(e.item, mode)
    if isinstance(e, S.Concat):
        return is_value_expr(e.left, mode) and is_value_expr(e.right, mode)
    return False


def expr_to_value(e: S.Expr, mode: Mode) -> V.Value:
    if isinstance(e, S.Const):
        return V.VConst(e.value)
    if isinstance(e, S.ValueLit):
        return e.value
    if isinstance(e, S.Fun):
        return V.VClosure(e.fname, e.params, e.body, None)
    if isinstance(e, S.TableRef):
        return V.VTable(e.name, e.row, e.spec)
    if isinstance(e, S.DatabaseRef):
        return V.UNIT_VALUE
    if isinstance(e, S.RecordLit):
        return V.vrecord([(l, expr_to_value(x, mode)) for l, x in e.fields_])
    if isinstance(e, S.EmptyList):
        return V.VAnnList(()) if mode is Mode.LINEAGE else V.VList(())
    if isinstance(e, S.Singleton):
        return V.VList((expr_to_value(e.item, mode),))
    if isinstance(e, S.Concat):
        left = expr_to_value(e.left, mode)
        right = expr_to_value(e.right, mode)
        return concat_values(left, right)
    raise StuckTermError(f"not a value: {type(e).__name__}", e.span)


def concat_values(a: V.Value, b: V.Value) -> V.Value:
    if isinstance(a, V.VAnnList) or isinstance(b, V.VAnnList):
        return V.VAnnList(_as_cells(a) + _as_cells(b))
    if isinstance(a, V.VList) and isinstance(b, V.VList):
        return V.VList(a.items + b.items)
    raise EvalError("++ on non-list values")


def _as_cells(v: V.Value) -> tuple:
    if isinstance(v, V.VAnnList):
        return v.cells
    if isinstance(v, V.VList):
        return tuple((x, frozenset()) for x in v.items)
    raise EvalError("expected a list value")


# ---------------------------------------------------------------------------
# Decomposition into evaluation context and redex

HOLE = S.Hole()


def decompose(e: S.Expr, mode: Mode) -> Optional[tuple[S.Expr, S.Expr]]:
    """Unique decomposition of a non-value term into context and redex."""
    if is_value_expr(e, mode):
        return None
    for rebuild, child in _eval_positions(e, mode):
        if not is_value_expr(child, mode):
            sub = decompose(child, mode)
            if sub is None:
                raise StuckTermError(
                    f"stuck term in {type(e).__name__}", e.span
                )
            ctx, redex = sub
            return rebuild(ctx), redex
    return HOLE, e


def plug(ctx: S.Expr, m: S.Expr) -> S.Expr:
    """Fill the unique hole of an evaluation context."""
    if isinstance(ctx, S.Hole):
        return m
    filled = False

    def fill(c: S.Expr) -> S.Expr:
        nonlocal filled
        if filled:
            return c
        if isinstance(c, S.Hole):
            filled = True
            return m
        return S.map_children(c, fill)

    out = S.map_children(ctx, fill)
    if not filled:
        raise EvalError("context has no hole")
    return out


def _eval_positions(e: S.Expr, mode: Mode):
    """Yield (rebuild, child) pairs in evaluation order; rebuild(x) puts x
    back in the child's position."""
    if isinstance(e, S.App):
        yield (lambda x: S.rebuild(e, fn=x)), e.fn
        for i, a in enumerate(e.args):
            yield (lambda x, i=i: S.rebuild(e, args=_tuple_set(e.args, i, x))), a
    elif isinstance(e, S.Prim):
        for i, a in enumerate(e.args):
            yield (lambda x, i=i: S.rebuild(e, args=_tuple_set(e.args, i, x))), a
    elif isinstance(e, S.RecordLit):
        for i, (l, x) in enumerate(e.fields_):
            yield (
                lambda c, i=i, l=l: S.rebuild(
                    e, fields_=_tuple_set(e.fields_, i, (l, c))
                )
            ), x
    elif isinstance(e, S.Project):
        yield (lambda x: S.rebuild(e, expr=x)), e.expr
    elif isinstance(e, S.Let):
        yield (lambda x: S.rebuild(e, value=x)), e.value
    elif isinstance(e, S.If):
        yield (lambda x: S.rebuild(e, cond=x)), e.cond
    elif isinstance(e, S.Where):
        yield (lambda x: S.rebuild(e, cond=x)), e.cond
    elif isinstance(e, S.IsEmpty):
        yield (lambda x: S.rebuild(e, coll=x)), e.coll
    elif isinstance(e, S.Singleton):
        yield (lambda x: S.rebuild(e, item=x)), e.item
    elif isinstance(e, S.Concat):
        yield (lambda x: S.rebuild(e, left=x)), e.left
        yield (lambda x: S.rebuild(e, right=x)), e.right
    elif isinstance(e, S.For):
        yield (lambda x: S.rebuild(e, source=x)), e.source
    elif isinstance(e, S.Insert):
        yield (lambda x: S.rebuild(e, table=x)), e.table
        yield (lambda x: S.rebuild(e, values=x)), e.values
    elif isinstance(e, (S.Update, S.Delete)):
        yield (lambda x: S.rebuild(e, table=x)), e.table
    elif isinstance(e, S.Data) and mode is Mode.WHERE:
        yield (lambda x: S.rebuild(e, expr=x)), e.expr
    elif isinstance(e, S.ProvOf) and mode is Mode.WHERE:
        yield (lambda x: S.rebuild(e, expr=x)), e.expr
    elif isinstance(e, S.UnionAnnot) and mode is Mode.LINEAGE:
        yield (lambda x: S.rebuild(e, expr=x)), e.expr
    # Query and LineageBlock are redexes with unevaluated bodies.


def _tuple_set(t: tuple, i: int, x) -> tuple:
    return t[:i] + (x,) + t[i + 1 :]


# ---------------------------------------------------------------------------
# Reduction


def reduce_redex(redex: S.Expr, db: Database, mode: Mode) -> tuple[S.Expr, str]:
    """Contract one redex; may read or mutate the database."""
    e = redex
    if isinstance(e, S.Query):
        return e.body, "query"
    if isinstance(e, S.LineageBlock):
        if mode is Mode.LINEAGE:
            return e.body, "lineage-nested"
        if mode is Mode.WHERE:
            raise EvalError("lineage block in where-provenance mode", e.span)
        inner = annotate_term(e.body)
        _, v = evaluate(db, inner, Mode.LINEAGE)
        return S.ValueLit(a2d(v)), "lineage"
    if isinstance(e, S.Let):
        return S.substitute(e.body, {e.name: e.value}), "let"
    if isinstance(e, S.App):
        fname, params, body = _as_function(e.fn)
        if len(params) != len(e.args):
            raise EvalError(
                f"function takes {len(params)} argument(s), got {len(e.args)}", e.span
            )
        bindings = dict(zip(params, e.args))
        if fname is not None:
            bindings[fname] = e.fn
        return S.substitute(body, bindings), "beta"
    if isinstance(e, S.Prim):
        args = [expr_to_value(a, mode) for a in e.args]
        return S.ValueLit(delta(e.op, args, e.span)), "prim"
    if isinstance(e, S.Project):
        v = expr_to_value(e.expr, mode)
        if not isinstance(v, V.VRecord):
            raise StuckTermError("projection from non-record", e.span)
        return S.ValueLit(v.get(e.label)), "project"
    if isinstance(e, S.If):
        c = expr_to_value(e.cond, mode)
        if c == V.TRUE:
            return e.then, "if-true"
        if c == V.FALSE:
            return e.els, "if-false"
        raise StuckTermError("non-boolean condition", e.span)
    if isinstance(e, S.Where):
        c = expr_to_value(e.cond, mode)
        if c == V.TRUE:
            return e.body, "where-true"
        if c == V.FALSE:
            return S.EmptyList(), "where-false"
        raise StuckTermError("non-boolean condition", e.span)
    if isinstance(e, S.IsEmpty):
        if mode is Mode.LINEAGE:
            raise EvalError("empty() inside a lineage block", e.span)
        v = expr_to_value(e.coll, mode)
        items = v.items if isinstance(v, V.VList) else _as_cells(v)
        return S.Const(len(items) == 0), "empty-true" if not items else "empty-false"
    if isinstance(e, S.For):
        return _reduce_for(e, db, mode)
    if isinstance(e, S.UnionAnnot):
        return _reduce_union(e, mode)
    if isinstance(e, S.Singleton) and mode is Mode.LINEAGE:
        cell = (expr_to_value(e.item, mode), frozenset())
        return S.ValueLit(V.VAnnList((cell,))), "cell"
    if isinstance(e, S.Data):
        v = expr_to_value(e.expr, mode)
        if not isinstance(v, V.VAnnot):
            raise StuckTermError("data applied to unannotated value", e.span)
        return S.ValueLit(v.base), "data"
    if isinstance(e, S.ProvOf):
        v = expr_to_value(e.expr, mode)
        if not isinstance(v, V.VAnnot):
            raise StuckTermError("prov applied to unannotated value", e.span)
        return S.ValueLit(V.color_value(v.color)), "prov"
    if isinstance(e, S.Insert):
        t = expr_to_value(e.table, mode)
        rows = expr_to_value(e.values, mode)
        if not isinstance(t, V.VTable):
            raise StuckTermError("insert into non-table", e.span)
        items = rows.items if isinstance(rows, V.VList) else [c[0] for c in _as_cells(rows)]
        db.insert_rows(t.name, [value_row(r) for r in items])
        return S.UNIT_LIT, "insert"
    if isinstance(e, S.Update):
        t = expr_to_value(e.table, mode)
        if not isinstance(t, V.VTable):
            raise StuckTermError("update of non-table", e.span)
        _apply_update(e, t, db, mode)
        return S.UNIT_LIT, "update"
    if isinstance(e, S.Delete):
        t = expr_to_value(e.table, mode)
        if not isinstance(t, V.VTable):
            raise StuckTermError("delete from non-table", e.span)
        _apply_delete(e, t, db, mode)
        return S.UNIT_LIT, "delete"
    if isinstance(e, S.Var):
        raise StuckTermError(f"unbound variable {e.name!r}", e.span)
    raise StuckTermError(f"no rule for {type(e).__name__}", e.span)


def _as_function(e: S.Expr):
    if isinstance(e, S.Fun):
        return e.fname, e.params, e.body
    if isinstance(e, S.ValueLit) and isinstance(e.value, V.VClosure):
        c = e.value
        if c.env is not None:
            raise EvalError("environment closure in the substitution machine")
        return c.fname, c.params, c.body
    raise StuckTermError("application of a non-function")


def _reduce_for(e: S.For, db: Database, mode: Mode) -> tuple[S.Expr, str]:
    src = expr_to_value(e.source, mode)
    if isinstance(src, V.VTable):
        if not e.table:
            raise StuckTermError("list comprehension over a table", e.span)
        if mode is Mode.LINEAGE:
            # A concat tree of single cells: restriction preserves the tree
            # structure (hidden rows appear as empty leaves), so every step
            # commutes with restriction.
            tree = cells_tree(db.lineage_cells(src.name))
            return S.For(e.var, tree, e.body, False, span=e.span), "for-table"
        if mode is Mode.WHERE and src.spec:
            rows: V.Value = db.rows_annotated_where(src.name, src.spec, _spec_eval(db))
        else:
            rows = db.rows_as_values(src.name)
        return S.For(e.var, S.ValueLit(rows), e.body, False, span=e.span), "for-table"
    # Dispatch on the syntactic shape of the (value) source, so concat
    # trees split by the concat rule rather than being flattened first.
    if isinstance(e.source, S.Concat):
        return (
            S.Concat(
                S.For(e.var, e.source.left, e.body, False),
                S.For(e.var, e.source.right, e.body, False),
            ),
            "for-concat",
        )
    if mode is Mode.LINEAGE:
        cells = _as_cells(src)
        if not cells:
            return S.EmptyList(), "for-empty"
        if len(cells) == 1:
            v, a = cells[0]
            return S.UnionAnnot(S.substitute(e.body, {e.var: v}), a), "for-cell"
        head, tail = V.VAnnList(cells[:1]), V.VAnnList(cells[1:])
        return (
            S.Concat(
                S.For(e.var, S.ValueLit(head), e.body, False),
                S.For(e.var, S.ValueLit(tail), e.body, False),
            ),
            "for-concat",
        )
    if not isinstance(src, V.VList):
        raise StuckTermError("comprehension over a non-list", e.span)
    items = src.items
    if not items:
        return S.EmptyList(), "for-empty"
    if isinstance(e.source, S.Singleton):
        return S.substitute(e.body, {e.var: e.source.item}), "for-singleton"
    if len(items) == 1:
        return S.substitute(e.body, {e.var: items[0]}), "for-singleton"
    return (
        S.Concat(
            S.For(e.var, S.ValueLit(V.VList(items[:1])), e.body, False),
            S.For(e.var, S.ValueLit(V.VList(items[1:])), e.body, False),
        ),
        "for-concat",
    )


def _reduce_union(e: S.UnionAnnot, mode: Mode) -> tuple[S.Expr, str]:
    if mode is not Mode.LINEAGE:
        raise StuckTermError("lineage annotation outside lineage mode", e.span)
    v = expr_to_value(e.expr, mode)
    if isinstance(e.expr, S.Concat):
        return (
            S.Concat(S.UnionAnnot(e.expr.left, e.colors), S.UnionAnnot(e.expr.right, e.colors)),
            "union-concat",
        )
    cells = _as_cells(v)
    if not cells:
        return S.EmptyList(), "union-empty"
    out = V.VAnnList(tuple((x, cs | e.colors) for x, cs in cells))
    return S.ValueLit(out), "union-annot"


def _spec_eval(db: Database):
    def run(fn_expr: S.Expr, row: V.VRecord) -> V.VRecord:
        _, out = evaluate(db.copy(), S.App(fn_expr, (S.ValueLit(row),)), Mode.WHERE)
        if not isinstance(out, V.VRecord):
            raise EvalError("provenance function must return a triple")
        return out

    return run


def _apply_update(e: S.Update, t: V.VTable, db: Database, mode: Mode) -> None:
    td = db.get(t.name)
    new_rows = []
    for r in td.rows:
        rv = row_value(r)
        _, cond = evaluate(db.copy(), S.substitute(e.pred, {e.var: rv}), mode)
        if cond == V.TRUE:
            updated = dict(r)
            for label, rhs in e.assigns:
                _, val = evaluate(db.copy(), S.substitute(rhs, {e.var: rv}), mode)
                stripped = V.strip_annotations(val)
                if not isinstance(stripped, V.VConst):
                    raise EvalError(f"update sets non-base value for {label!r}", e.span)
                updated[label] = stripped.value
            new_rows.append(updated)
        else:
            new_rows.append(r)
    td.rows = new_rows


def _apply_delete(e: S.Delete, t: V.VTable, db: Database, mode: Mode) -> None:
    td = db.get(t.name)
    keep = []
    for r in td.rows:
        rv = row_value(r)
        _, cond = evaluate(db.copy(), S.substitute(e.pred, {e.var: rv}), mode)
        if cond == V.FALSE:
            keep.append(r)
        elif cond != V.TRUE:
            raise EvalError("delete predicate returned a non-boolean", e.span)
    td.rows = keep


# ---------------------------------------------------------------------------
# Primitive constants


def delta(op: str, args: list[V.Value], span=None) -> V.Value:
    # Comparisons look through where-provenance annotations.
    if op in ("==", "<>"):
        a, b = (V.strip_annotations(x) for x in args)
        eq = a == b
        return V.VConst(eq if op == "==" else not eq)
    if op in ("<", ">", "+", "-", "*", "mod"):
        a, b = (_int_of(x, op, span) for x in args)
        if op == "<":
            return V.VConst(a < b)
        if op == ">":
            return V.VConst(a > b)
        if op in ("+", "-", "*"):
            n = a + b if op == "+" else a - b if op == "-" else a * b
            if not S.INT_MIN <= n <= S.INT_MAX:
                raise EvalError(f"{op} overflows a 64-bit Int", span)
            return V.VConst(n)
        if b == 0:
            raise EvalError("division by zero", span)
        # Truncated (SQL-style) remainder.
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return V.VConst(a - q * b)
    if op in ("&&", "||"):
        a, b = (_bool_of(x, op, span) for x in args)
        return V.VConst((a and b) if op == "&&" else (a or b))
    if op == "not":
        return V.VConst(not _bool_of(args[0], op, span))
    raise EvalError(f"unknown constant {op!r}", span)


def _int_of(v: V.Value, op: str, span) -> int:
    v = V.strip_annotations(v)
    if isinstance(v, V.VConst) and isinstance(v.value, int) and not isinstance(v.value, bool):
        return v.value
    raise EvalError(f"{op} applied to a non-integer", span)


def _bool_of(v: V.Value, op: str, span) -> bool:
    v = V.strip_annotations(v)
    if isinstance(v, V.VConst) and isinstance(v.value, bool):
        return v.value
    raise EvalError(f"{op} applied to a non-boolean", span)


# ---------------------------------------------------------------------------
# Stepping and evaluation


def step_info(state: MachineState):
    d = decompose(state.focus, state.mode)
    if d is None:
        return Done(expr_to_value(state.focus, state.mode))
    ctx, redex = d
    new, rule = reduce_redex(redex, state.db, state.mode)
    return MachineState(state.db, plug(ctx, new), state.mode), rule, redex


def evaluate(
    db: Database,
    e: S.Expr,
    mode: Mode = Mode.PLAIN,
    limit: int = DEFAULT_STEP_LIMIT,
    trace: Optional[Callable[[str, S.Expr], None]] = None,
) -> tuple[Database, V.Value]:
    """Iterate the step relation to a value (the reference path)."""
    state = MachineState(db, e, mode)
    for _ in range(limit):
        out = step_info(state)
        if isinstance(out, Done):
            return state.db, out.value
        state, rule, redex = out
        if trace is not None:
            trace(rule, redex)
    raise EvalError(f"step limit of {limit} exceeded")


# ---------------------------------------------------------------------------
# annotate / a2d


def annotate(v: V.Value) -> V.Value:
    """Wrap every list cell with an empty lineage color set."""
    if isinstance(v, V.VList):
        return V.VAnnList(tuple((annotate(x), frozenset()) for x in v.items))
    if isinstance(v, V.VAnnList):
        return V.VAnnList(tuple((annotate(x), cs) for x, cs in v.cells))
    if isinstance(v, V.VRecord):
        return V.VRecord(v.labels, tuple([annotate(x) for x in v.values]))
    if isinstance(v, V.VClosure):
        if v.env is None:
            return V.VClosure(v.fname, v.params, annotate_term(v.body), None)
        return V.VClosure(v.fname, v.params, v.body, v.env.map_values(annotate))
    return v


def annotate_term(e: S.Expr) -> S.Expr:
    """Extension of annotate to terms: annotate every embedded value.

    Embedded plain lists become concat trees of empty-annotated cells.
    """
    if isinstance(e, S.ValueLit):
        v = e.value
        if isinstance(v, (V.VList, V.VAnnList)):
            return ann_tree(annotate(v))
        return S.ValueLit(annotate(v))
    return S.map_children(e, annotate_term)


def ann_tree(v: V.Value) -> S.Expr:
    """An annotated list value as a right-nested concat tree of cells."""
    return cells_tree(list(_as_cells(v)))


def cells_tree(cells: list) -> S.Expr:
    """A right-nested concat tree with one leaf per cell; None entries
    (rows hidden by restriction) become empty leaves."""
    if not cells:
        return S.EmptyList()
    leaves = [
        S.ValueLit(V.VAnnList(() if c is None else (c,))) for c in cells
    ]
    out = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        out = S.Concat(leaf, out)
    return out


def a2d(v: V.Value) -> V.Value:
    """Turn annotated cells into records of data and prov (canonical order)."""
    if isinstance(v, V.VAnnList):
        out = []
        for x, cs in v.cells:
            prov = V.VList(
                tuple(V.color_value(c) for c in sorted(cs, key=V.color_sort_key))
            )
            out.append(V.VRecord(V.DATA_PROV_LABELS, (a2d(x), prov)))
        return V.VList(tuple(out))
    if isinstance(v, V.VList):
        return V.VList(tuple(a2d(x) for x in v.items))
    if isinstance(v, V.VRecord):
        return V.VRecord(v.labels, tuple([a2d(x) for x in v.values]))
    return v


def d2a(v: V.Value) -> V.Value:
    """Inverse of a2d on its image: rebuild annotated cells from records.

    In the image of a2d every list in data position is a list of
    data/prov records (witness lists are consumed at each cell), so list
    conversion is unconditional; in particular empty lists become empty
    annotated lists.
    """
    if isinstance(v, V.VAnnList):
        return V.VAnnList(tuple((d2a(x), cs) for x, cs in v.cells))
    if isinstance(v, V.VList):
        cells = []
        for x in v.items:
            if not (isinstance(x, V.VRecord) and x.labels == V.DATA_PROV_LABELS):
                raise EvalError("value is not in data/prov form")
            data, prov = x.values
            if not isinstance(prov, V.VList):
                raise EvalError("malformed witness list")
            colors = frozenset(pair_color(p) for p in prov.items)
            cells.append((d2a(data), colors))
        return V.VAnnList(tuple(cells))
    if isinstance(v, V.VRecord):
        return V.VRecord(v.labels, tuple([d2a(x) for x in v.values]))
    return v


def pair_color(p: V.Value) -> V.LineageColor:
    """A witness pair (table, oid) as a lineage color."""
    if isinstance(p, V.VRecord) and p.labels == V.PAIR_LABELS:
        t, o = p.values
        if isinstance(t, V.VConst) and isinstance(o, V.VConst):
            return V.LineageColor(t.value, o.value)
    raise EvalError("malformed lineage pair")


# ---------------------------------------------------------------------------
# Big-step evaluator (environments and closures)


class Env:
    __slots__ = ("d",)

    def __init__(self, d: Optional[dict] = None):
        self.d = d or {}

    def bind(self, name: str, v: V.Value) -> "Env":
        new = dict(self.d)
        new[name] = v
        return Env(new)

    def lookup(self, name: str) -> V.Value:
        if name not in self.d:
            raise EvalError(f"unbound variable {name!r}")
        return self.d[name]

    def map_values(self, f) -> "Env":
        return Env({k: f(v) for k, v in self.d.items()})


def eval_big(
    db: Database, e: S.Expr, mode: Mode = Mode.PLAIN, env: Optional[Env] = None
) -> tuple[Database, V.Value]:
    """Equivalent big-step evaluation; differentially tested against the
    stepper and used for bulk evaluation."""
    ev = _BigStep(db)
    out = ev.run(e, env or Env(), mode)
    return db, out


class _BigStep:
    def __init__(self, db: Database):
        self.db = db
        # each table's rows as values, by (table, mode, spec): converted on
        # the first read, shared by every loop that reads them again, and
        # dropped by every write
        self.rows: dict[tuple, V.Value] = {}

    def run(self, e: S.Expr, env: Env, mode: Mode) -> V.Value:
        # one lookup on the node's class instead of a chain of isinstance
        # tests; syntax node classes have no subclasses
        handler = _BIG_STEP_RULES.get(type(e))
        if handler is None:
            raise EvalError(f"cannot evaluate {type(e).__name__}", e.span)
        return handler(self, e, env, mode)

    def _const(self, e: S.Const, env: Env, mode: Mode) -> V.Value:
        return V.VConst(e.value)

    def _value_lit(self, e: S.ValueLit, env: Env, mode: Mode) -> V.Value:
        return e.value

    def _var(self, e: S.Var, env: Env, mode: Mode) -> V.Value:
        return env.lookup(e.name)

    def _fun(self, e: S.Fun, env: Env, mode: Mode) -> V.Value:
        return V.VClosure(e.fname, e.params, e.body, env)

    def _table_ref(self, e: S.TableRef, env: Env, mode: Mode) -> V.Value:
        return V.VTable(e.name, e.row, self._close_spec(e.spec, env))

    def _database_ref(self, e: S.DatabaseRef, env: Env, mode: Mode) -> V.Value:
        return V.UNIT_VALUE

    def _record_lit(self, e: S.RecordLit, env: Env, mode: Mode) -> V.Value:
        return V.vrecord([(l, self.run(x, env, mode)) for l, x in e.fields_])

    def _project(self, e: S.Project, env: Env, mode: Mode) -> V.Value:
        v = self.run(e.expr, env, mode)
        if not isinstance(v, V.VRecord):
            raise EvalError("projection from non-record", e.span)
        return v.get(e.label)

    def _app(self, e: S.App, env: Env, mode: Mode) -> V.Value:
        fv = self.run(e.fn, env, mode)
        args = [self.run(a, env, mode) for a in e.args]
        return self._apply(fv, args, mode, e.span)

    def _prim(self, e: S.Prim, env: Env, mode: Mode) -> V.Value:
        return delta(e.op, [self.run(a, env, mode) for a in e.args], e.span)

    def _let(self, e: S.Let, env: Env, mode: Mode) -> V.Value:
        return self.run(e.body, env.bind(e.name, self.run(e.value, env, mode)), mode)

    def _if(self, e: S.If, env: Env, mode: Mode) -> V.Value:
        c = self.run(e.cond, env, mode)
        if c == V.TRUE:
            return self.run(e.then, env, mode)
        if c == V.FALSE:
            return self.run(e.els, env, mode)
        raise EvalError("non-boolean condition", e.span)

    def _where(self, e: S.Where, env: Env, mode: Mode) -> V.Value:
        if self.run(e.cond, env, mode) == V.TRUE:
            return self.run(e.body, env, mode)
        return V.VAnnList(()) if mode is Mode.LINEAGE else V.VList(())

    def _query(self, e: S.Query, env: Env, mode: Mode) -> V.Value:
        return self.run(e.body, env, mode)

    def _lineage_block(self, e: S.LineageBlock, env: Env, mode: Mode) -> V.Value:
        if mode is Mode.LINEAGE:
            return self.run(e.body, env, mode)
        if mode is Mode.WHERE:
            raise EvalError("lineage block in where-provenance mode", e.span)
        return a2d(self.run(e.body, env.map_values(annotate), Mode.LINEAGE))

    def _empty_list(self, e: S.EmptyList, env: Env, mode: Mode) -> V.Value:
        return V.VAnnList(()) if mode is Mode.LINEAGE else V.VList(())

    def _singleton(self, e: S.Singleton, env: Env, mode: Mode) -> V.Value:
        item = self.run(e.item, env, mode)
        if mode is Mode.LINEAGE:
            return V.VAnnList(((item, frozenset()),))
        return V.VList((item,))

    def _concat(self, e: S.Concat, env: Env, mode: Mode) -> V.Value:
        # walk the left spine with a loop, so a long `++` chain costs no
        # stack depth per item; operands still run and join left to right
        rights = []
        while isinstance(e, S.Concat):
            rights.append(e.right)
            e = e.left
        out = self.run(e, env, mode)
        for r in reversed(rights):
            out = concat_values(out, self.run(r, env, mode))
        return out

    def _is_empty(self, e: S.IsEmpty, env: Env, mode: Mode) -> V.Value:
        if mode is Mode.LINEAGE:
            raise EvalError("empty() inside a lineage block", e.span)
        return V.VConst(len(_as_cells(self.run(e.coll, env, mode))) == 0)

    def _data(self, e: S.Data, env: Env, mode: Mode) -> V.Value:
        v = self.run(e.expr, env, mode)
        if not isinstance(v, V.VAnnot):
            raise EvalError("data applied to unannotated value", e.span)
        return v.base

    def _prov_of(self, e: S.ProvOf, env: Env, mode: Mode) -> V.Value:
        v = self.run(e.expr, env, mode)
        if not isinstance(v, V.VAnnot):
            raise EvalError("prov applied to unannotated value", e.span)
        return V.color_value(v.color)

    def _union_annot(self, e: S.UnionAnnot, env: Env, mode: Mode) -> V.Value:
        cells = _as_cells(self.run(e.expr, env, mode))
        return V.VAnnList(tuple((x, cs | e.colors) for x, cs in cells))

    def _insert(self, e: S.Insert, env: Env, mode: Mode) -> V.Value:
        t = self.run(e.table, env, mode)
        rows = self.run(e.values, env, mode)
        items = rows.items if isinstance(rows, V.VList) else [c[0] for c in _as_cells(rows)]
        self.db.insert_rows(t.name, [value_row(x) for x in items])
        self.rows.clear()
        return V.UNIT_VALUE

    def _apply(self, fv: V.Value, args: list[V.Value], mode: Mode, span) -> V.Value:
        if not isinstance(fv, V.VClosure):
            raise EvalError("application of a non-function", span)
        if len(fv.params) != len(args):
            raise EvalError(
                f"function takes {len(fv.params)} argument(s), got {len(args)}", span
            )
        env = fv.env if fv.env is not None else Env()
        for p, a in zip(fv.params, args):
            env = env.bind(p, a)
        if fv.fname is not None:
            env = env.bind(fv.fname, fv)
        return self.run(fv.body, env, mode)

    def _comprehend(self, e: S.For, env: Env, mode: Mode) -> V.Value:
        src = self.run(e.source, env, mode)
        if isinstance(src, V.VTable):
            if not e.table:
                raise EvalError("list comprehension over a table", e.span)
            src = self._table_rows(src, mode)
        if mode is Mode.LINEAGE:
            cells_out: list = []
            for item, colors in _as_cells(src):
                res = self.run(e.body, env.bind(e.var, item), mode)
                for x, cs in _as_cells(res):
                    cells_out.append((x, cs | colors))
            return V.VAnnList(tuple(cells_out))
        if not isinstance(src, V.VList):
            raise EvalError("comprehension over a non-list", e.span)
        items_out: list = []
        for item in src.items:
            res = self.run(e.body, env.bind(e.var, item), mode)
            if not isinstance(res, V.VList):
                raise EvalError("comprehension body returned a non-list", e.span)
            items_out.extend(res.items)
        return V.VList(tuple(items_out))

    def _table_rows(self, t: V.VTable, mode: Mode) -> V.Value:
        key = (t.name, mode, t.spec)
        rows = self.rows.get(key)
        if rows is None:
            if mode is Mode.LINEAGE:
                rows = self.db.rows_annotated_lineage(t.name)
            elif mode is Mode.WHERE and t.spec:
                rows = self.db.rows_annotated_where(t.name, t.spec, self._spec_runner(mode))
            else:
                rows = self.db.rows_as_values(t.name)
            self.rows[key] = rows
        return rows

    def _spec_runner(self, mode: Mode):
        def run_fn(fn_expr: S.Expr, row: V.VRecord) -> V.VRecord:
            out = self.run(S.App(fn_expr, (S.ValueLit(row),)), Env(), mode)
            if not isinstance(out, V.VRecord):
                raise EvalError("provenance function must return a triple")
            return out

        return run_fn

    def _close_spec(self, spec: S.ProvSpec, env: Env) -> S.ProvSpec:
        if not spec:
            return spec
        entries = []
        for entry in spec.entries:
            fn = entry.fn
            if fn is not None:
                fv = {n: S.ValueLit(env.lookup(n)) for n in S.free_vars(fn) if n in env.d}
                fn = S.substitute(fn, fv) if fv else fn
            entries.append(S.ProvSpecEntry(entry.column, fn))
        return S.ProvSpec(tuple(entries))

    def _update(self, e: S.Update, env: Env, mode: Mode) -> V.Value:
        t = self.run(e.table, env, mode)
        if not isinstance(t, V.VTable):
            raise EvalError("update of non-table", e.span)
        td = self.db.get(t.name)
        new_rows = []
        for row in td.rows:
            benv = env.bind(e.var, row_value(row))
            if self.run(e.pred, benv, mode) == V.TRUE:
                updated = dict(row)
                for label, rhs in e.assigns:
                    val = V.strip_annotations(self.run(rhs, benv, mode))
                    if not isinstance(val, V.VConst):
                        raise EvalError(f"update sets non-base value for {label!r}", e.span)
                    updated[label] = val.value
                new_rows.append(updated)
            else:
                new_rows.append(row)
        td.rows = new_rows
        self.rows.clear()
        return V.UNIT_VALUE

    def _delete(self, e: S.Delete, env: Env, mode: Mode) -> V.Value:
        t = self.run(e.table, env, mode)
        if not isinstance(t, V.VTable):
            raise EvalError("delete from non-table", e.span)
        td = self.db.get(t.name)
        keep = []
        for row in td.rows:
            benv = env.bind(e.var, row_value(row))
            cond = self.run(e.pred, benv, mode)
            if cond == V.FALSE:
                keep.append(row)
            elif cond != V.TRUE:
                raise EvalError("delete predicate returned a non-boolean", e.span)
        td.rows = keep
        self.rows.clear()
        return V.UNIT_VALUE


_BIG_STEP_RULES = {
    S.Const: _BigStep._const,
    S.ValueLit: _BigStep._value_lit,
    S.Var: _BigStep._var,
    S.Fun: _BigStep._fun,
    S.TableRef: _BigStep._table_ref,
    S.DatabaseRef: _BigStep._database_ref,
    S.RecordLit: _BigStep._record_lit,
    S.Project: _BigStep._project,
    S.App: _BigStep._app,
    S.Prim: _BigStep._prim,
    S.Let: _BigStep._let,
    S.If: _BigStep._if,
    S.Where: _BigStep._where,
    S.Query: _BigStep._query,
    S.LineageBlock: _BigStep._lineage_block,
    S.EmptyList: _BigStep._empty_list,
    S.Singleton: _BigStep._singleton,
    S.Concat: _BigStep._concat,
    S.IsEmpty: _BigStep._is_empty,
    S.For: _BigStep._comprehend,
    S.Data: _BigStep._data,
    S.ProvOf: _BigStep._prov_of,
    S.UnionAnnot: _BigStep._union_annot,
    S.Insert: _BigStep._insert,
    S.Update: _BigStep._update,
    S.Delete: _BigStep._delete,
}
