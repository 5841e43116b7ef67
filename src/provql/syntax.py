"""Abstract syntax: types, rows, expressions, and the operations on them.

Expressions form a small comprehension-based query language.  Lists are
built from [] / [M] / M ++ N, comprehensions come in two flavours
(``for (x <- M)`` over lists, ``for (x <-- M)`` over tables), and query
and lineage blocks delimit the parts of a program that must be runnable
on a database.  Two internal node kinds never appear in source programs:
``UnionAnnot`` (produced by the lineage stepper) and ``ValueLit``
(embeds an already-computed runtime value into a term).

Terms are immutable and share unchanged subtrees.  Every node caches its
free-variable set on first use (`free_vars`), so capture-avoiding
substitution returns a subtree as it is when no substituted name is free in
it, and copies only the paths down to the occurrences it replaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union, get_type_hints

# ---------------------------------------------------------------------------
# Source spans


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types

BASE_TYPES = ("Int", "Bool", "String")


class Type:
    """Base class for types."""

    __slots__ = ()


@dataclass(frozen=True)
class BaseType(Type):
    name: str  # Int | Bool | String

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ProvType(Type):
    """Provenance-carrying base type; the argument is always a base type."""

    base: Type

    def __str__(self) -> str:
        return f"Prov({self.base})"


INT = BaseType("Int")
# Int is a 64-bit signed integer, as in SQL; arithmetic leaving it is an error
INT_MIN, INT_MAX = -(2**63), 2**63 - 1
BOOL = BaseType("Bool")
STRING = BaseType("String")

# A row is a tuple of (label, type) pairs in canonical (lexicographic) label
# order, so record-type equality is label-order independent.
Row = tuple[tuple[str, Type], ...]


def make_row(entries) -> Row:
    items = list(entries.items()) if isinstance(entries, dict) else list(entries)
    labels = [l for l, _ in items]
    if len(labels) != len(set(labels)):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise ValueError(f"duplicate label {dup!r} in row")
    return tuple(sorted(items, key=lambda kv: kv[0]))


def row_labels(row: Row) -> list[str]:
    return [l for l, _ in row]


def row_get(row: Row, label: str) -> Optional[Type]:
    for l, t in row:
        if l == label:
            return t
    return None


@dataclass(frozen=True)
class TableType(Type):
    row: Row

    def __str__(self) -> str:
        inner = ", ".join(f"{l}: {t}" for l, t in self.row)
        return f"table({inner})"


@dataclass(frozen=True)
class FunType(Type):
    params: tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.params)
        return f"({inner}) -> {self.result}"


@dataclass(frozen=True)
class RecordType(Type):
    row: Row
    open: bool = False  # open rows come from signatures like (name:String|_)

    def __str__(self) -> str:
        labels = set(row_labels(self.row))
        if len(self.row) >= 2 and labels == {str(i + 1) for i in range(len(self.row))}:
            parts = [str(row_get(self.row, str(i + 1))) for i in range(len(self.row))]
            return "(" + ", ".join(parts) + ")"
        inner = ", ".join(f"{_label_str(l)}: {t}" for l, t in self.row)
        tail = "|_" if self.open else ""
        return f"({inner}{tail})"


@dataclass(frozen=True)
class ListType(Type):
    elem: Type

    def __str__(self) -> str:
        return f"[{self.elem}]"


@dataclass(frozen=True)
class DbType(Type):
    """Type of database handles (declaration plumbing only)."""

    def __str__(self) -> str:
        return "Database"


UNIT = RecordType(())


def record_type(entries, open: bool = False) -> RecordType:
    return RecordType(make_row(entries), open)


def tuple_type(*types: Type) -> RecordType:
    return record_type([(str(i + 1), t) for i, t in enumerate(types)])


def is_base(t: Type) -> bool:
    return isinstance(t, BaseType)


def _label_str(label: str) -> str:
    return label if label.isidentifier() else f'"{label}"'


# ---------------------------------------------------------------------------
# Provenance specifications on table declarations


@dataclass(frozen=True)
class ProvSpecEntry:
    column: str
    # None means default provenance; otherwise a function expression of type
    # (R) -> (String, String, Int) computing the annotation for a row.
    fn: Optional["Expr"]


@dataclass(frozen=True)
class ProvSpec:
    entries: tuple[ProvSpecEntry, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.entries)

    def lookup(self, column: str) -> Optional[ProvSpecEntry]:
        for e in self.entries:
            if e.column == column:
                return e
        return None

    def validate_against(self, row: Row) -> None:
        seen = set()
        for e in self.entries:
            if e.column in seen:
                raise ValueError(f"duplicate provenance spec for column {e.column!r}")
            seen.add(e.column)
            if row_get(row, e.column) is None:
                raise ValueError(f"provenance spec names missing column {e.column!r}")


EMPTY_SPEC = ProvSpec()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expr:
    span: Optional[Span] = field(default=None, compare=False, kw_only=True)

    def children(self) -> Iterator["Expr"]:
        for name, kind in _LAYOUTS[type(self)]:
            v = getattr(self, name)
            if kind == _ONE:
                yield v
            elif kind == _SEQ:
                yield from v
            else:
                for _, x in v:
                    yield x


# How a node field holds children: one Expr, a tuple of them, or a tuple of
# (label, Expr) pairs.  Fields of any other type hold none; a table's
# provenance-spec functions are not its children.
_ONE, _SEQ, _PAIRS = range(3)


def _child_kind(hint) -> Optional[int]:
    if hint == tuple[Expr, ...]:
        return _SEQ
    if hint == tuple[tuple[str, Expr], ...]:
        return _PAIRS
    if isinstance(hint, type) and issubclass(hint, Expr):
        return _ONE
    return None


class _Layouts(dict):
    """Each node class's child layout, ``(field name, kind)`` for every
    field that holds children in declaration order, computed from the
    class's annotations when it is first traversed."""

    def __missing__(self, cls: type) -> tuple[tuple[str, int], ...]:
        hints = get_type_hints(cls)
        kinds = ((f.name, _child_kind(hints[f.name])) for f in fields(cls))
        layout = self[cls] = tuple((n, k) for n, k in kinds if k is not None)
        return layout


_LAYOUTS = _Layouts()


@dataclass(frozen=True)
class Const(Expr):
    value: Union[int, bool, str]


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class RecordLit(Expr):
    # Field order is source order; it is the evaluation order of the fields.
    fields_: tuple[tuple[str, Expr], ...]

    def field_labels(self) -> list[str]:
        return [l for l, _ in self.fields_]


@dataclass(frozen=True)
class Project(Expr):
    expr: Expr
    label: str


@dataclass(frozen=True)
class Fun(Expr):
    """n-ary recursive function; fname is None for anonymous functions."""

    fname: Optional[str]
    params: tuple[str, ...]
    body: Expr


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Prim(Expr):
    """Application of a built-in constant function (==, +, mod, not, ...)."""

    op: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Let(Expr):
    name: str
    value: Expr
    body: Expr


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


@dataclass(frozen=True)
class Query(Expr):
    body: Expr


@dataclass(frozen=True)
class LineageBlock(Expr):
    body: Expr


@dataclass(frozen=True)
class TableRef(Expr):
    name: str
    row: Row
    spec: ProvSpec = EMPTY_SPEC
    # Metadata clauses; parsed and retained but semantically inert apart from
    # oid write protection.
    readonly: tuple[str, ...] = ()
    keys: tuple[tuple[str, ...], ...] = ()
    # True when the engine-managed oid column was not declared in the source.
    oid_implicit: bool = False


@dataclass(frozen=True)
class DatabaseRef(Expr):
    name: str


@dataclass(frozen=True)
class EmptyList(Expr):
    # Optional element-type annotation ([] : [T]); needed wherever the
    # monomorphic checker has no expected type to push.
    elem: Optional[Type] = None


@dataclass(frozen=True)
class Singleton(Expr):
    item: Expr


@dataclass(frozen=True)
class Concat(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class IsEmpty(Expr):
    coll: Expr


@dataclass(frozen=True)
class For(Expr):
    var: str
    source: Expr
    body: Expr
    table: bool = False  # True for the <-- (table) form


@dataclass(frozen=True)
class Where(Expr):
    cond: Expr
    body: Expr


@dataclass(frozen=True)
class Insert(Expr):
    table: Expr
    values: Expr


@dataclass(frozen=True)
class Update(Expr):
    var: str
    table: Expr
    pred: Expr
    assigns: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Delete(Expr):
    var: str
    table: Expr
    pred: Expr


@dataclass(frozen=True)
class Data(Expr):
    expr: Expr


@dataclass(frozen=True)
class ProvOf(Expr):
    expr: Expr


@dataclass(frozen=True)
class UnionAnnot(Expr):
    """Internal: add a set of lineage colors to every cell of a list term."""

    expr: Expr
    colors: frozenset


@dataclass(frozen=True)
class ValueLit(Expr):
    """Internal: an already-computed value embedded in a term."""

    value: object


@dataclass(frozen=True)
class Hole(Expr):
    """The hole of an evaluation context (never part of a program)."""


def record_lit(entries, span=None) -> RecordLit:
    items = list(entries.items()) if isinstance(entries, dict) else list(entries)
    return RecordLit(tuple(items), span=span)


def pair(a: Expr, b: Expr) -> RecordLit:
    return record_lit([("1", a), ("2", b)])


def triple(a: Expr, b: Expr, c: Expr) -> RecordLit:
    return record_lit([("1", a), ("2", b), ("3", c)])


UNIT_LIT = RecordLit(())


def list_lit(items, span=None) -> Expr:
    """[a, b, c] sugar: a concat chain of singletons."""
    items = list(items)
    if not items:
        return EmptyList(span=span)
    out = Singleton(items[-1], span=span)
    for item in reversed(items[:-1]):
        out = Concat(Singleton(item, span=span), out, span=span)
    return out


# ---------------------------------------------------------------------------
# Free variables and substitution


# The instance-dict key of a node's cached free variables; not a field name.
_FV = "_free_vars"
_NO_VARS: frozenset[str] = frozenset()


def free_vars(e: Expr) -> frozenset[str]:
    """The exact free-variable set of a term, respecting all binders.

    Each node caches its set in its instance dict on first use, built from
    its children's cached sets, so a term is walked once however often it
    is asked; a copy made by `rebuild` drops the cache.  The cache is not a
    field: it takes no part in ``==``, ``hash`` or ``repr``."""
    try:
        return e.__dict__[_FV]
    except KeyError:
        pass
    if isinstance(e, Var):
        fv = frozenset((e.name,))
    elif isinstance(e, Concat):
        return _concat_free_vars(e)
    elif isinstance(e, Fun):
        fv = free_vars(e.body)
        if e.fname is not None:
            fv = _bind(fv, e.fname)
        for p in e.params:
            fv = _bind(fv, p)
    elif isinstance(e, Let):
        fv = _union((free_vars(e.value), _bind(free_vars(e.body), e.name)))
    elif isinstance(e, For):
        fv = _union((free_vars(e.source), _bind(free_vars(e.body), e.var)))
    elif isinstance(e, Update):
        inner = _union([free_vars(e.pred)] + [free_vars(a) for _, a in e.assigns])
        fv = _union((free_vars(e.table), _bind(inner, e.var)))
    elif isinstance(e, Delete):
        fv = _union((free_vars(e.table), _bind(free_vars(e.pred), e.var)))
    elif isinstance(e, TableRef):
        fv = _union([free_vars(x.fn) for x in e.spec.entries if x.fn is not None])
    else:
        fv = _union(map(free_vars, e.children()))
    e.__dict__[_FV] = fv
    return fv


def _concat_free_vars(e: Concat) -> frozenset[str]:
    """`free_vars` of a `++` chain, walking its left spine with a loop so
    that a long chain costs no stack depth per item."""
    spine = []
    while isinstance(e, Concat) and _FV not in e.__dict__:
        spine.append(e)
        e = e.left
    fv = free_vars(e)
    for c in reversed(spine):
        fv = _union((fv, free_vars(c.right)))
        c.__dict__[_FV] = fv
    return fv


def _union(sets) -> frozenset[str]:
    """The union of some cached sets, sharing one of them when it holds the
    others, so a node allocates a set only where its variables are new."""
    out = _NO_VARS
    for s in sets:
        if not s <= out:
            out = out | s if out else s
    return out


def _bind(fv: frozenset[str], name: str) -> frozenset[str]:
    return fv - {name} if name in fv else fv


_fresh_counter = itertools.count()


def fresh_name(base: str, avoid: set[str]) -> str:
    base = base.split("_")[0] or "x"
    while True:
        cand = f"{base}_{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def rebuild(e: Expr, **updates) -> Expr:
    """Copy a node with some fields replaced."""
    # Nodes are frozen dataclasses with no __post_init__: a copy of the
    # instance dict is a valid node, and much cheaper than __init__.
    new = object.__new__(type(e))
    d = new.__dict__
    d.update(e.__dict__, **updates)
    d.pop(_FV, None)
    return new


def substitute(e: Expr, bindings: dict) -> Expr:
    """Capture-avoiding simultaneous substitution.

    Binding values may be expressions or runtime values; values are wrapped
    as ValueLit leaves.  Bound variables are renamed fresh when they would
    capture a free variable of a substituted term.
    """
    subst: dict[str, Expr] = {}
    for name, v in bindings.items():
        subst[name] = v if isinstance(v, Expr) else ValueLit(v)
    if not subst:
        return e
    avoid = set()
    for v in subst.values():
        avoid |= free_vars(v)
    return _subst(e, subst, avoid)


def _subst(e: Expr, subst: dict[str, Expr], avoid: set[str]) -> Expr:
    if isinstance(e, Var):
        return subst.get(e.name, e)
    if free_vars(e).isdisjoint(subst):
        return e
    if isinstance(e, Fun):
        # some substituted name is free in e, so live is not empty
        live = {k: v for k, v in subst.items() if k not in e.params and k != e.fname}
        ren, params, fname = {}, list(e.params), e.fname
        for i, p in enumerate(params):
            if p in avoid:
                params[i] = fresh_name(p, avoid | set(params) | set(live))
                ren[p] = Var(params[i])
        if fname is not None and fname in avoid:
            new_f = fresh_name(fname, avoid | set(params) | set(live))
            ren[fname] = Var(new_f)
            fname = new_f
        body = _subst(e.body, ren, set()) if ren else e.body
        body = _subst(body, live, avoid)
        if not ren and body is e.body:
            return e
        return rebuild(e, fname=fname, params=tuple(params), body=body)
    if isinstance(e, Let):
        value = _subst(e.value, subst, avoid)
        name, body = _sub_under_binder(e.body, e.name, subst, avoid)
        if value is e.value and name == e.name and body is e.body:
            return e
        return rebuild(e, value=value, name=name, body=body)
    if isinstance(e, For):
        source = _subst(e.source, subst, avoid)
        var, body = _sub_under_binder(e.body, e.var, subst, avoid)
        if source is e.source and var == e.var and body is e.body:
            return e
        return rebuild(e, source=source, var=var, body=body)
    if isinstance(e, Update):
        table = _subst(e.table, subst, avoid)
        live = {k: v for k, v in subst.items() if k != e.var}
        var = e.var
        pred, assigns = e.pred, e.assigns
        if var in avoid:
            new = fresh_name(var, avoid | set(live))
            ren = {var: Var(new)}
            pred = _subst(pred, ren, set())
            assigns = tuple((l, _subst(a, ren, set())) for l, a in assigns)
            var = new
        if live:
            pred = _subst(pred, live, avoid)
            assigns = tuple((l, _subst(a, live, avoid)) for l, a in assigns)
        if (
            table is e.table
            and var == e.var
            and pred is e.pred
            and all(a is b for (_, a), (_, b) in zip(assigns, e.assigns))
        ):
            return e
        return rebuild(e, table=table, var=var, pred=pred, assigns=assigns)
    if isinstance(e, Delete):
        table = _subst(e.table, subst, avoid)
        var, pred = _sub_under_binder(e.pred, e.var, subst, avoid)
        if table is e.table and var == e.var and pred is e.pred:
            return e
        return rebuild(e, table=table, var=var, pred=pred)
    if isinstance(e, TableRef):
        entries = tuple(
            ProvSpecEntry(x.column, None if x.fn is None else _subst(x.fn, subst, avoid))
            for x in e.spec.entries
        )
        if all(a.fn is b.fn for a, b in zip(entries, e.spec.entries)):
            return e
        return rebuild(e, spec=ProvSpec(entries))
    return map_children(e, lambda c: _subst(c, subst, avoid))


def _sub_under_binder(body: Expr, var: str, subst: dict, avoid: set[str]):
    live = {k: v for k, v in subst.items() if k != var}
    if var in avoid:
        new = fresh_name(var, avoid | set(live))
        body = _subst(body, {var: Var(new)}, set())
        var = new
    if live:
        body = _subst(body, live, avoid)
    return var, body


def map_children(e: Expr, f) -> Expr:
    """``e`` with ``f`` applied to each child in field order; ``e`` itself
    when ``f`` returns every child unchanged, so unchanged subtrees are
    shared, not copied."""
    updates = {}
    for name, kind in _LAYOUTS[type(e)]:
        v = getattr(e, name)
        if kind == _ONE:
            new = f(v)
            if new is not v:
                updates[name] = new
        elif kind == _SEQ:
            new = tuple(map(f, v))
            if any(a is not b for a, b in zip(new, v)):
                updates[name] = new
        else:
            new = tuple((l, f(x)) for l, x in v)
            if any(a is not b for (_, a), (_, b) in zip(new, v)):
                updates[name] = new
    return rebuild(e, **updates) if updates else e


def walk(e: Expr) -> Iterator[Expr]:
    """Preorder traversal of a term, including provenance-spec functions."""
    yield e
    if isinstance(e, TableRef):
        for entry in e.spec.entries:
            if entry.fn is not None:
                yield from walk(entry.fn)
        return
    for c in e.children():
        yield from walk(c)
