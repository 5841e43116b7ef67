"""Translation of lineage programs to plain programs.

Two cooperating translations: an outer *doubling* pass for ordinary code
(functions and tables become pairs of plain and lineage-mode versions) and
an inner *lineage* pass for code under a lineage block (every list cell
becomes a record of data and prov).  Free variables crossing into a
lineage block are coerced by a type-indexed mapping from the doubled to
the lineage representation.
"""

from __future__ import annotations

from .errors import TypeCheckError
from . import syntax as S

LINEAGE_PAIR_T = S.tuple_type(S.STRING, S.INT)


def lin_wrap(t: S.Type) -> S.RecordType:
    """Lin(A): a record of the data value and its lineage list."""
    return S.record_type({"data": t, "prov": S.ListType(LINEAGE_PAIR_T)})


def lineage_type(t: S.Type) -> S.Type:
    """Inner type translation: list elements gain data/prov wrapping."""
    if isinstance(t, S.BaseType):
        return t
    if isinstance(t, S.FunType):
        return S.FunType(tuple(lineage_type(p) for p in t.params), lineage_type(t.result))
    if isinstance(t, S.RecordType):
        return S.RecordType(S.make_row([(l, lineage_type(x)) for l, x in t.row]), t.open)
    if isinstance(t, S.ListType):
        return S.ListType(lin_wrap(lineage_type(t.elem)))
    if isinstance(t, S.TableType):
        return lineage_type(S.ListType(S.RecordType(t.row)))
    raise TypeCheckError(f"cannot lineage-translate type {t}")


def doubled_type(t: S.Type) -> S.Type:
    """Outer type translation: functions and tables double into pairs."""
    if isinstance(t, S.BaseType):
        return t
    if isinstance(t, S.FunType):
        plain = S.FunType(tuple(doubled_type(p) for p in t.params), doubled_type(t.result))
        lin = S.FunType(tuple(lineage_type(p) for p in t.params), lineage_type(t.result))
        return S.tuple_type(plain, lin)
    if isinstance(t, S.RecordType):
        return S.RecordType(S.make_row([(l, doubled_type(x)) for l, x in t.row]), t.open)
    if isinstance(t, S.ListType):
        return S.ListType(doubled_type(t.elem))
    if isinstance(t, S.TableType):
        view = S.FunType((), lineage_type(S.ListType(S.RecordType(t.row))))
        return S.tuple_type(S.TableType(t.row), view)
    if isinstance(t, S.DbType):
        return t
    raise TypeCheckError(f"cannot double type {t}")


# ---------------------------------------------------------------------------
# Inner translation


def l_translate(e: S.Expr) -> S.Expr:
    """Rewrite a query-safe term to compute both its value and its lineage."""
    l = l_translate
    if isinstance(e, (S.Const, S.Var)):
        return e
    if isinstance(e, S.EmptyList):
        elem = None if e.elem is None else lin_wrap(lineage_type(e.elem))
        return S.EmptyList(elem, span=e.span)
    if isinstance(e, S.Singleton):
        rec = S.record_lit(
            [("data", l(e.item)), ("prov", S.EmptyList(LINEAGE_PAIR_T))]
        )
        return S.Singleton(rec, span=e.span)
    if isinstance(e, S.TableRef):
        if e.spec:
            raise TypeCheckError("provenance specs have no lineage translation", e.span)
        avoid: set[str] = set()
        x = S.fresh_name("t", avoid)
        prov = S.Singleton(S.pair(S.Const(e.name), S.Project(S.Var(x), "oid")))
        rec = S.record_lit([("data", S.Var(x)), ("prov", prov)])
        return S.For(x, e, S.Singleton(rec), True, span=e.span)
    if isinstance(e, S.For):
        avoid = S.free_vars(e) | {e.var}
        y = S.fresh_name("y", avoid)
        z = S.fresh_name("z", avoid | {y})
        src = l(e.source)
        body = S.substitute(l(e.body), {e.var: S.Project(S.Var(y), "data")})
        res = S.record_lit(
            [
                ("data", S.Project(S.Var(z), "data")),
                ("prov", S.Concat(S.Project(S.Var(y), "prov"), S.Project(S.Var(z), "prov"))),
            ]
        )
        inner = S.For(z, body, S.Singleton(res), False)
        return S.For(y, src, inner, False, span=e.span)
    if isinstance(e, S.Where):
        return S.Where(l(e.cond), l(e.body), span=e.span)
    if isinstance(e, S.Query):
        return S.Query(l(e.body), span=e.span)
    if isinstance(e, S.LineageBlock):
        return S.Query(l(e.body), span=e.span)
    if isinstance(e, (S.Insert, S.Update, S.Delete, S.Data, S.ProvOf, S.UnionAnnot, S.ValueLit)):
        raise TypeCheckError(f"{type(e).__name__} has no lineage translation", e.span)
    return S.map_children(e, l)


def d2l(t: S.Type, e: S.Expr) -> S.Expr:
    """Coerce a doubled-representation value to the lineage representation."""
    if isinstance(t, S.BaseType):
        return e
    if isinstance(t, S.FunType):
        return S.Project(e, "2")
    if isinstance(t, S.RecordType):
        if _d2l_identity(t):
            return e
        fields = [(l, d2l(x, S.Project(e, l))) for l, x in t.row]
        return S.record_lit(fields)
    if isinstance(t, S.ListType):
        x = S.fresh_name("x", S.free_vars(e))
        rec = S.record_lit(
            [("data", d2l(t.elem, S.Var(x))), ("prov", S.EmptyList(LINEAGE_PAIR_T))]
        )
        return S.For(x, e, S.Singleton(rec), False)
    if isinstance(t, S.TableType):
        return S.App(S.Project(e, "2"), ())
    raise TypeCheckError(f"d2l unsupported for type {t}")


def _d2l_identity(t: S.Type) -> bool:
    if isinstance(t, S.BaseType):
        return True
    if isinstance(t, S.RecordType):
        return all(_d2l_identity(x) for _, x in t.row)
    return False


def l_star(e: S.Expr, var_types: dict[str, S.Type]) -> S.Expr:
    """Closing translation: lineage-translate, then coerce every free
    variable from its doubled representation."""
    translated = l_translate(e)
    subst: dict[str, S.Expr] = {}
    for name in sorted(S.free_vars(e)):
        if name not in var_types:
            raise TypeCheckError(f"free variable {name!r} with unknown type")
        t = var_types[name]
        coerced = d2l(t, S.Var(name))
        if coerced != S.Var(name):
            subst[name] = coerced
    return S.substitute(translated, subst) if subst else translated


# ---------------------------------------------------------------------------
# Outer translation (driven by the typed tree)


def d_translate_program(prog, checked):
    """Double-translate a whole program, given ``checked``, its
    `typecheck_program` result in lineage mode.

    Lineage blocks become plain query blocks via the closing translation;
    calls to nonrecursive top-level functions inside lineage blocks are
    inlined first, so helper functions work without manual rewriting.
    """
    from .parser import Declaration, SourceProgram

    tr = _Doubler(checked.top_fun_exprs)
    out = SourceProgram()
    env_types: dict[str, S.Type] = {}
    for d in prog.decls:
        te = checked.decl_typed[d.name]
        out.decls.append(
            Declaration(
                d.name,
                tr.double(te, env_types, frozenset()),
                doubled_type(d.sig) if d.sig is not None else None,
                d.span,
            )
        )
        env_types[d.name] = te.ty
    if checked.main is not None:
        out.main = tr.double(checked.main, env_types, frozenset())
    return out


class _Doubler:
    def __init__(self, top_fun_exprs: dict[str, S.Expr]):
        self.top_fun_exprs = top_fun_exprs

    def double(self, te, env: dict[str, S.Type], selfs: frozenset) -> S.Expr:
        e = te.expr
        kids = te.children
        D = self.double
        if isinstance(e, (S.Const, S.Var, S.DatabaseRef)):
            return e
        if isinstance(e, S.RecordLit):
            fields = tuple(
                (l, D(k, env, selfs)) for (l, _), k in zip(e.fields_, kids)
            )
            return S.RecordLit(fields, span=e.span)
        if isinstance(e, S.Project):
            return S.Project(D(kids[0], env, selfs), e.label, span=e.span)
        if isinstance(e, S.Fun):
            assert isinstance(te.ty, S.FunType)
            inner_env = dict(env)
            for p, t in zip(e.params, te.ty.params):
                inner_env[p] = t
            inner_selfs = selfs
            if e.fname is not None:
                inner_env[e.fname] = te.ty
                inner_selfs = selfs | {e.fname}
            plain = S.Fun(e.fname, e.params, D(kids[0], inner_env, inner_selfs), span=e.span)
            fv_types = {
                n: env[n] for n in S.free_vars(e) if n in env
            }
            lin = l_star(e, fv_types)
            return S.pair(plain, lin)
        if isinstance(e, S.App):
            fn = e.fn
            args = tuple(D(k, env, selfs) for k in kids[1:])
            if isinstance(fn, S.Var) and fn.name in selfs:
                return S.App(fn, args, span=e.span)
            return S.App(S.Project(D(kids[0], env, selfs), "1"), args, span=e.span)
        if isinstance(e, S.Prim):
            return S.Prim(e.op, tuple(D(k, env, selfs) for k in kids), span=e.span)
        if isinstance(e, S.Let):
            value = D(kids[0], env, selfs)
            inner = dict(env)
            inner[e.name] = kids[0].ty
            return S.Let(e.name, value, D(kids[1], inner, selfs), span=e.span)
        if isinstance(e, S.If):
            return S.If(*(D(k, env, selfs) for k in kids), span=e.span)
        if isinstance(e, S.Query):
            return S.Query(D(kids[0], env, selfs), span=e.span)
        if isinstance(e, S.LineageBlock):
            body = e.body
            if self.top_fun_exprs:
                body = inline_top_funs(body, self.top_fun_exprs)
            fv_types = {n: env[n] for n in S.free_vars(body) if n in env}
            return S.Query(l_star(body, fv_types), span=e.span)
        if isinstance(e, S.TableRef):
            if e.spec:
                raise TypeCheckError("provenance specs have no lineage translation", e.span)
            return S.pair(e, S.Fun(None, (), l_translate(e)))
        if isinstance(e, S.EmptyList):
            elem = None if e.elem is None else doubled_type(e.elem)
            return S.EmptyList(elem, span=e.span)
        if isinstance(e, S.Singleton):
            return S.Singleton(D(kids[0], env, selfs), span=e.span)
        if isinstance(e, S.Concat):
            return S.Concat(D(kids[0], env, selfs), D(kids[1], env, selfs), span=e.span)
        if isinstance(e, S.IsEmpty):
            return S.IsEmpty(D(kids[0], env, selfs), span=e.span)
        if isinstance(e, S.For):
            src_ty = kids[0].ty
            inner = dict(env)
            if e.table:
                assert isinstance(src_ty, S.TableType)
                inner[e.var] = S.RecordType(src_ty.row)
                src = S.Project(D(kids[0], env, selfs), "1")
            else:
                assert isinstance(src_ty, S.ListType)
                inner[e.var] = src_ty.elem
                src = D(kids[0], env, selfs)
            return S.For(e.var, src, D(kids[1], inner, selfs), e.table, span=e.span)
        if isinstance(e, S.Where):
            return S.Where(D(kids[0], env, selfs), D(kids[1], env, selfs), span=e.span)
        if isinstance(e, S.Insert):
            return S.Insert(
                S.Project(D(kids[0], env, selfs), "1"), D(kids[1], env, selfs), span=e.span
            )
        if isinstance(e, S.Update):
            row = kids[0].ty.row  # type: ignore[union-attr]
            inner = dict(env)
            inner[e.var] = S.RecordType(row)
            table = S.Project(D(kids[0], env, selfs), "1")
            pred = D(kids[1], inner, selfs)
            assigns = tuple(
                (l, D(k, inner, selfs)) for (l, _), k in zip(e.assigns, kids[2:])
            )
            return S.Update(e.var, table, pred, assigns, span=e.span)
        if isinstance(e, S.Delete):
            row = kids[0].ty.row  # type: ignore[union-attr]
            inner = dict(env)
            inner[e.var] = S.RecordType(row)
            return S.Delete(
                e.var, S.Project(D(kids[0], env, selfs), "1"), D(kids[1], inner, selfs),
                span=e.span,
            )
        raise TypeCheckError(f"cannot double-translate {type(e).__name__}", e.span)


def inline_top_funs(e: S.Expr, top_fun_exprs: dict[str, S.Expr]) -> S.Expr:
    """Substitute top-level function variables by their definitions until no
    reference remains (definitions are nonrecursive inside query contexts)."""
    for _ in range(len(top_fun_exprs) + 1):
        used = S.free_vars(e) & set(top_fun_exprs)
        if not used:
            return e
        e = S.substitute(e, {n: top_fun_exprs[n] for n in used})
    raise TypeCheckError("could not inline functions (recursive definitions?)")
