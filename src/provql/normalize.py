"""Symbolic rewriting of query bodies into a form translatable to SQL.

The rewriter inlines let/function/projection redexes and hoists nested
comprehensions, filters, and conditionals until a query is a union of
branches, each a chain of table generators, a conjunctive condition, and a
result record.  Normal forms over flat tables have only table generators
(Cooper, "The script-writer's dream", DBPL 2009); a generator over anything
else is reported as an error.  Nested collection results become subquery
trees whose branches also have only table generators; each branch runs as
one SQL statement per query, whatever its nesting depth (see
`sqlbackend.PlanExecutor`).

`normalize` is the rewrite engine's one entry: queries go through it, and
so do writes: the target of every insert, update and delete, as a
one-generator comprehension, and the values of an insert (see
`sqlbackend.apply_update`).  Its input is source syntax, which holds no
values, so neither does a normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NormalizeError
from . import syntax as S


@dataclass(frozen=True)
class SubQuery(S.Expr):
    """A nested, already-normalized query embedded in a result or condition."""

    query: "NormalQuery"


@dataclass
class TableGen:
    var: str
    table: str
    row: S.Row


@dataclass
class QueryGen:
    """Generator over the rows of a nested subquery.  No longer constructed:
    normal forms have table generators only.  Kept importable for callers
    that still test for it."""

    var: str
    query: "NormalQuery"


@dataclass
class Branch:
    gens: list[TableGen] = field(default_factory=list)
    conds: list[S.Expr] = field(default_factory=list)
    result: S.Expr = S.UNIT_LIT


@dataclass
class NormalQuery:
    branches: list[Branch]
    # the SQL backend's compiled plan, made on its first run and kept for
    # the next (see `sqlbackend.PlanExecutor`); a normal query is not
    # changed once it is made
    plan: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def is_static_list(self) -> bool:
        """No generators or conditions: a literal list of fixed length."""
        return all(not b.gens and not b.conds for b in self.branches)


# ---------------------------------------------------------------------------
# Rewriting

_MAX_FIXED_STEPS = 20_000


class NoRedex:
    pass


NO_REDEX = NoRedex()


def rewrite_step(e: S.Expr):
    """Apply the leftmost-outermost rewrite rule; NO_REDEX if none applies."""
    out = _rewrite_at(e)
    if out is not None:
        return out
    # Descend left-to-right, outermost-first.
    if isinstance(e, S.TableRef):
        return NO_REDEX
    replaced = None

    def visit(c: S.Expr) -> S.Expr:
        nonlocal replaced
        if replaced is not None:
            return c
        sub = rewrite_step(c)
        if not isinstance(sub, NoRedex):
            replaced = True
            return sub
        return c

    out_e = S.map_children(e, visit)
    return out_e if replaced else NO_REDEX


def _rewrite_at(e: S.Expr) -> Optional[S.Expr]:
    """The rule set, tried at the root only."""
    # beta for applications
    if isinstance(e, S.App) and isinstance(e.fn, S.Fun):
        f = e.fn
        if len(f.params) != len(e.args):
            raise NormalizeError("arity mismatch in query body", e.span)
        bindings: dict[str, S.Expr] = dict(zip(f.params, e.args))
        if f.fname is not None and f.fname in S.free_vars(f.body):
            raise NormalizeError("recursive function in query body", e.span)
        return S.substitute(f.body, bindings)
    # beta for var bindings
    if isinstance(e, S.Let):
        return S.substitute(e.body, {e.name: e.value})
    # record projection
    if isinstance(e, S.Project):
        if isinstance(e.expr, S.RecordLit):
            for l, x in e.expr.fields_:
                if l == e.label:
                    return x
            raise NormalizeError(f"projection of missing label {e.label!r}", e.span)
        if isinstance(e.expr, S.If):
            i = e.expr
            return S.If(i.cond, S.Project(i.then, e.label), S.Project(i.els, e.label))
    if isinstance(e, S.Query):
        return e.body
    if isinstance(e, S.For):
        src = e.source
        if isinstance(src, S.EmptyList):
            return S.EmptyList()
        if isinstance(src, S.Singleton):
            return S.substitute(e.body, {e.var: src.item})
        if isinstance(src, S.Concat):
            return S.Concat(
                S.For(e.var, src.left, e.body, e.table),
                S.For(e.var, src.right, e.body, e.table),
            )
        if isinstance(src, S.For):
            # associativity: pull the inner comprehension out
            inner = src
            y = inner.var
            if y == e.var or y in S.free_vars(e.body):
                y2 = S.fresh_name(y, S.free_vars(e.body) | S.free_vars(inner.body) | {e.var})
                inner = S.For(
                    y2,
                    inner.source,
                    S.substitute(inner.body, {y: S.Var(y2)}),
                    inner.table,
                )
                y = y2
            return S.For(
                y, inner.source, S.For(e.var, inner.body, e.body, False), inner.table
            )
        if isinstance(src, S.Where):
            return S.Where(src.cond, S.For(e.var, src.body, e.body, e.table))
        if isinstance(src, S.If):
            return S.If(
                src.cond,
                S.For(e.var, src.then, e.body, e.table),
                S.For(e.var, src.els, e.body, e.table),
            )
        if isinstance(src, S.Let):
            return S.For(e.var, S.substitute(src.body, {src.name: src.value}), e.body, e.table)
        if isinstance(src, S.Query):
            return S.For(e.var, src.body, e.body, e.table)
    if isinstance(e, S.If):
        if _list_shaped(e.then) or _list_shaped(e.els):
            return S.Concat(
                S.Where(e.cond, e.then), S.Where(S.Prim("not", (e.cond,)), e.els)
            )
        if isinstance(e.then, S.RecordLit) and isinstance(e.els, S.RecordLit):
            # merge label by label, so a list-valued field becomes one Concat
            # of Wheres (one hole) rather than a differently shaped list per branch
            then_labels = [l for l, _ in e.then.fields_]
            if sorted(then_labels) == sorted(l for l, _ in e.els.fields_):
                fields = [
                    (l, S.If(e.cond, x, dict(e.els.fields_)[l]))
                    for l, x in e.then.fields_
                ]
                return S.record_lit(fields)
    return None


def _list_shaped(e: S.Expr) -> bool:
    return isinstance(e, (S.EmptyList, S.Singleton, S.Concat, S.For, S.Where))


def rewrite_fixpoint(e: S.Expr) -> S.Expr:
    cap = _MAX_FIXED_STEPS + 50 * _term_size(e)
    for _ in range(cap):
        out = rewrite_step(e)
        if isinstance(out, NoRedex):
            return e
        e = out
    raise NormalizeError(f"normalization did not terminate within {cap} rewrites")


def _term_size(e: S.Expr) -> int:
    return sum(1 for _ in S.walk(e))


# ---------------------------------------------------------------------------
# Reading the normal form


def normalize(e: S.Expr) -> NormalQuery:
    """Rewrite a query body to a fixpoint and read off its branch structure."""
    return _read_query(rewrite_fixpoint(e))


def _read_query(e: S.Expr) -> NormalQuery:
    branches: list[Branch] = []
    _read_branches(e, [], [], branches)
    return NormalQuery(branches)


def _read_branches(e: S.Expr, gens: list, conds: list, out: list[Branch]) -> None:
    if isinstance(e, S.EmptyList):
        return
    if isinstance(e, S.Concat):
        _read_branches(e.left, gens, conds, out)
        _read_branches(e.right, gens, conds, out)
        return
    if isinstance(e, S.Where):
        _read_branches(e.body, gens, conds + _conjuncts(e.cond), out)
        return
    if isinstance(e, S.For):
        if isinstance(e.source, S.Var):
            raise NormalizeError(
                f"unresolved variable {e.source.name!r} in generator position",
                e.span,
            )
        if not isinstance(e.source, S.TableRef):
            raise NormalizeError(
                f"generator over {type(e.source).__name__}, not a table, in normal form",
                e.span,
            )
        gen = TableGen(e.var, e.source.name, e.source.row)
        _read_branches(e.body, gens + [gen], conds, out)
        return
    if isinstance(e, S.Singleton):
        out.append(Branch(list(gens), list(conds), _norm_result(e.item)))
        return
    raise NormalizeError(
        f"non-normalizable construct {type(e).__name__} in query body", e.span
    )


def _conjuncts(c: S.Expr) -> list[S.Expr]:
    if isinstance(c, S.Prim) and c.op == "&&":
        return _conjuncts(c.args[0]) + _conjuncts(c.args[1])
    return [_norm_cond(c)]


def _norm_cond(c: S.Expr) -> S.Expr:
    if isinstance(c, S.IsEmpty):
        return S.IsEmpty(SubQuery(_read_query(c.coll)))
    if isinstance(c, S.Prim):
        return S.Prim(c.op, tuple(_norm_cond(a) for a in c.args))
    if isinstance(c, S.If):
        return S.If(_norm_cond(c.cond), _norm_cond(c.then), _norm_cond(c.els))
    return c


def _norm_result(r: S.Expr) -> S.Expr:
    if isinstance(r, S.RecordLit):
        return S.record_lit([(l, _norm_result(x)) for l, x in r.fields_])
    if _list_shaped(r):
        return SubQuery(_read_query(r))
    if isinstance(r, S.IsEmpty):
        return S.IsEmpty(SubQuery(_read_query(r.coll)))
    if isinstance(r, S.Prim):
        return S.Prim(r.op, tuple(_norm_result(x) for x in r.args))
    if isinstance(r, S.If):
        return S.If(_norm_cond(r.cond), _norm_result(r.then), _norm_result(r.els))
    return r


# ---------------------------------------------------------------------------
# Residual-redex assertions (used by tests)


def assert_no_residuals(nq: NormalQuery) -> None:
    """No function applications and no projections on constructed records may
    survive normalization."""
    for b in nq.branches:
        for c in b.conds:
            _assert_expr_clean(c)
        _assert_expr_clean(b.result)


def _assert_expr_clean(e: S.Expr) -> None:
    for node in S.walk(e):
        if isinstance(node, S.App):
            raise NormalizeError("residual function application in normal form", node.span)
        if isinstance(node, S.Let):
            raise NormalizeError("residual var binding in normal form", node.span)
        if isinstance(node, S.Project) and isinstance(node.expr, S.RecordLit):
            raise NormalizeError("residual record-projection redex", node.span)
        if isinstance(node, SubQuery):
            assert_no_residuals(node.query)


def render_back(nq: NormalQuery) -> S.Expr:
    """Turn a normal query back into an expression (for the soundness check
    that normalization preserves interpreter semantics)."""
    out: Optional[S.Expr] = None
    for b in nq.branches:
        e: S.Expr = S.Singleton(_render_result(b.result))
        for c in reversed(b.conds):
            e = S.Where(_render_result(c), e)
        for g in reversed(b.gens):
            e = S.For(g.var, S.TableRef(g.table, g.row, oid_implicit=True), e, True)
        out = e if out is None else S.Concat(out, e)
    return out if out is not None else S.EmptyList()


def _render_result(r: S.Expr) -> S.Expr:
    if isinstance(r, SubQuery):
        return render_back(r.query)
    if isinstance(r, S.RecordLit):
        return S.record_lit([(l, _render_result(x)) for l, x in r.fields_])
    if isinstance(r, S.Prim):
        return S.Prim(r.op, tuple(_render_result(x) for x in r.args))
    if isinstance(r, S.If):
        return S.If(_render_result(r.cond), _render_result(r.then), _render_result(r.els))
    if isinstance(r, S.IsEmpty):
        return S.IsEmpty(_render_result(r.coll))
    return r
