"""Normalization by evaluation of query bodies into a form translatable to SQL.

`normalize` evaluates a query body symbolically, in one pass, straight to
a union of branches, each a chain of table generators, a conjunctive
condition, and a result record (Cheney, Lindley & Wadler, "A practical
theory of language-integrated query", ICFP 2013).  Lets and arguments are
evaluated by name, a comprehension puts the generators and conditions of
its source's branches before those of its body, and base-typed code stays
as residual expressions.  Normal forms over flat tables have only table
generators (Cooper, "The script-writer's dream", DBPL 2009); a generator
over anything else is reported as an error.  Nested collection results
become subquery trees whose branches also have only table generators; each
branch runs as one SQL statement per query, whatever its nesting depth
(see `sqlbackend.PlanExecutor`).

Queries and writes reach normal forms only through `normalize`: the target
of every insert, update and delete, as a one-generator comprehension, and
the values of an insert (see `sqlbackend.apply_update`).  Its input is
source syntax, which holds no values, so neither does a normal form.
"""

from __future__ import annotations

from collections import namedtuple
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
# Evaluation

# More nested applications than this are taken for a term that does not
# normalize, such as (fun (x) { x(x) })(fun (x) { x(x) }), which would
# otherwise exhaust the stack.
_MAX_NESTED_APPLICATIONS = 100


def normalize(e: S.Expr) -> NormalQuery:
    """Evaluate a query body to its union of branches."""
    ev = _Evaluator(S.free_vars(e))
    return ev.query(ev.eval(e, {}, frozenset()), e, frozenset())


# Values: residual expressions (base-typed code, a generator's row variable,
# a table) are `S.Expr` nodes; an environment maps a name to a `Thunk` or to
# a generator's row variable.
Thunk = namedtuple("Thunk", "expr env")  # evaluated by name, in the scope of each use
Record = namedtuple("Record", "fields")  # (label, thunk or value) pairs in source order
Union = namedtuple("Union", "branches")  # a list: (generators, conditions, result thunk)
Closure = namedtuple("Closure", "fun env")
# a conditional whose branches are neither lists nor records with the same
# labels; projection and iteration distribute over it
Cond = namedtuple("Cond", "cond then els")


class _Evaluator:
    """One rule per node type.  ``scope`` holds the names of the generators
    of the enclosing branches: a new generator keeps its source name unless
    that name is in scope or free in the input.  Every binding is evaluated
    by name where it is used, so a list's generators are named in the scope
    of the branch they join."""

    def __init__(self, free: frozenset[str]):
        self.free = free
        self.depth = 0  # of nested applications

    def eval(self, e: S.Expr, env: dict, scope: frozenset):
        rule = _RULES.get(type(e))
        if rule is None:
            raise NormalizeError(f"non-normalizable construct {type(e).__name__} in query body", e.span)
        return rule(self, e, env, scope)

    def force(self, x, scope: frozenset):
        return self.eval(x.expr, x.env, scope) if type(x) is Thunk else x

    def query(self, v, at: Optional[S.Expr], scope: frozenset) -> NormalQuery:
        out = []
        for gens, conds, item in self.branches(v, at):
            inner = scope.union(g.var for g in gens)
            out.append(Branch(list(gens), list(conds), self.code(self.force(item, inner), inner)))
        return NormalQuery(out)

    def branches(self, v, at: S.Expr) -> list:
        if type(v) is not Union:
            raise NormalizeError(f"non-normalizable construct {type(v).__name__} in query body", at.span)
        return v.branches

    def code(self, v, scope: frozenset) -> S.Expr:
        """A value as a normal-form expression; a list becomes a subquery."""
        if isinstance(v, S.Expr):
            return v
        if type(v) is Record:
            return S.record_lit([(l, self.code(self.force(x, scope), scope)) for l, x in v.fields])
        if type(v) is Union:
            return SubQuery(self.query(v, None, scope))
        if type(v) is Cond:
            return S.If(v.cond, self.code(v.then, scope), self.code(v.els, scope))
        raise NormalizeError("function in normal form", v.fun.span)

    def cond(self, c: S.Expr, then, els, scope: frozenset, at: S.Expr):
        """``if (c) then else els``: a list is a branch per side, each with
        ``c`` or ``not c`` first among its conditions."""
        if type(then) is Union or type(els) is Union:
            yes, no = _conjuncts(c), (S.Prim("not", (c,)),)
            return Union(
                [(g, yes + cs, r) for g, cs, r in self.branches(then, at)]
                + [(g, no + cs, r) for g, cs, r in self.branches(els, at)]
            )
        if type(then) is Record and type(els) is Record:
            # merge label by label, so a list-valued field becomes one list
            # rather than a differently shaped list per branch
            other = dict(els.fields)
            if sorted(l for l, _ in then.fields) == sorted(other):
                return Record(tuple(
                    (l, self.cond(c, self.force(x, scope), self.force(other[l], scope), scope, at))
                    for l, x in then.fields
                ))
        return Cond(c, then, els)

    def project(self, v, e: S.Project, scope: frozenset):
        if type(v) is Record:
            for l, x in v.fields:
                if l == e.label:
                    return self.force(x, scope)
            raise NormalizeError(f"projection of missing label {e.label!r}", e.span)
        if type(v) is Cond:
            return self.cond(v.cond, self.project(v.then, e, scope), self.project(v.els, e, scope), scope, e)
        return S.Project(self.code(v, scope), e.label, span=e.span)

    def _var(self, e, env, scope):
        x = env.get(e.name, e)
        # a chain of variables bound to variables costs no stack depth
        while type(x) is Thunk and type(x.expr) is S.Var:
            x = x.env.get(x.expr.name, x.expr)
        return self.force(x, scope)

    def _app(self, e, env, scope):
        f = self.eval(e.fn, env, scope)
        if type(f) is not Closure:
            args = tuple(self.code(self.eval(a, env, scope), scope) for a in e.args)
            return S.App(self.code(f, scope), args, span=e.span)
        fun = f.fun
        if len(fun.params) != len(e.args):
            raise NormalizeError("arity mismatch in query body", e.span)
        if fun.fname is not None and fun.fname in S.free_vars(fun.body):
            raise NormalizeError("recursive function in query body", e.span)
        if self.depth == _MAX_NESTED_APPLICATIONS:
            raise NormalizeError(f"normalization did not terminate within {self.depth} nested applications", e.span)
        inner = {**f.env, **{p: Thunk(a, env) for p, a in zip(fun.params, e.args)}}
        self.depth += 1
        out = self.eval(fun.body, inner, scope)
        self.depth -= 1
        return out

    def _prim(self, e, env, scope):
        return S.Prim(e.op, tuple(self.code(self.eval(a, env, scope), scope) for a in e.args), span=e.span)

    def _if(self, e, env, scope):
        c = self.code(self.eval(e.cond, env, scope), scope)
        return self.cond(c, self.eval(e.then, env, scope), self.eval(e.els, env, scope), scope, e)

    def _concat(self, e, env, scope):
        # walk the spine with a stack: a long chain costs no stack depth
        out, todo = [], [e]
        while todo:
            x = todo.pop()
            if type(x) is S.Concat:
                todo += (x.right, x.left)
            else:
                out += self.branches(self.eval(x, env, scope), x)
        return Union(out)

    def _is_empty(self, e, env, scope):
        return S.IsEmpty(SubQuery(self.query(self.eval(e.coll, env, scope), e.coll, scope)), span=e.span)

    def _where(self, e, env, scope):
        c = _conjuncts(self.code(self.eval(e.cond, env, scope), scope))
        return Union([(g, c + cs, r) for g, cs, r in self.branches(self.eval(e.body, env, scope), e.body)])

    def _for(self, e, env, scope, src=None):
        """Each branch of the source, its generators and conditions first,
        joined with each branch of the body."""
        if src is None:
            src = self.eval(e.source, env, scope)
        if type(src) is Union:
            out = []
            for gens, conds, item in src.branches:
                body = self.eval(e.body, {**env, e.var: item}, scope.union(g.var for g in gens))
                out += [(gens + g, conds + cs, r) for g, cs, r in self.branches(body, e.body)]
            return Union(out)
        if type(src) is S.TableRef:
            var = e.var
            if var in scope or var in self.free:
                var = S.fresh_name(var, scope | self.free)
            gen = (TableGen(var, src.name, src.row),)
            body = self.eval(e.body, {**env, e.var: S.Var(var)}, scope | {var})
            return Union([(gen + g, cs, r) for g, cs, r in self.branches(body, e.body)])
        if type(src) is Cond:
            then = self._for(e, env, scope, src.then)
            return self.cond(src.cond, then, self._for(e, env, scope, src.els), scope, e)
        if type(src) is S.Var:
            raise NormalizeError(f"unresolved variable {src.name!r} in generator position", e.span)
        raise NormalizeError(f"generator over {type(src).__name__}, not a table, in normal form", e.span)


_E = _Evaluator
_RULES = {
    S.Const: lambda ev, e, env, scope: e,
    S.TableRef: lambda ev, e, env, scope: e,
    S.Var: _E._var,
    S.RecordLit: lambda ev, e, env, scope: Record(tuple((l, Thunk(x, env)) for l, x in e.fields_)),
    S.Project: lambda ev, e, env, scope: ev.project(ev.eval(e.expr, env, scope), e, scope),
    S.Fun: lambda ev, e, env, scope: Closure(e, env),
    S.App: _E._app,
    S.Prim: _E._prim,
    S.Let: lambda ev, e, env, scope: ev.eval(e.body, {**env, e.name: Thunk(e.value, env)}, scope),
    S.If: _E._if,
    S.Query: lambda ev, e, env, scope: ev.eval(e.body, env, scope),
    S.EmptyList: lambda ev, e, env, scope: Union([]),
    S.Singleton: lambda ev, e, env, scope: Union([((), (), Thunk(e.item, env))]),
    S.Concat: _E._concat,
    S.IsEmpty: _E._is_empty,
    S.Where: _E._where,
    S.For: _E._for,
}


def _conjuncts(c: S.Expr) -> tuple:
    if type(c) is S.Prim and c.op == "&&":
        return _conjuncts(c.args[0]) + _conjuncts(c.args[1])
    return (c,)


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
