"""Core syntax operations: substitution, free variables, canonical order."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from provql import pipeline, suites
from provql import syntax as S
from provql import values as V
from provql.database import Database
from provql.errors import EvalError
from provql.interp import eval_big
from provql.parser import parse_expr, parse_program
from provql.sqlbackend import LeafShape, ListShape, RecordShape, compile_decoder
from provql.typecheck import Mode


def ev(e, db=None):
    _, v = eval_big(db or Database(), e, Mode.PLAIN)
    return v


class TestSubstitute:
    def test_direct_plug_in(self):
        e = parse_expr("x.l")
        out = S.substitute(e, {"x": parse_expr("(l = 1)")})
        assert out == parse_expr("(l = 1).l")

    def test_shadowed_binder_untouched(self):
        e = parse_expr("fun f(x) { x }")
        assert S.substitute(e, {"x": S.Const(2)}) == e

    def test_comprehension_source(self):
        e = parse_expr("for (y <- x) [y]")
        out = S.substitute(e, {"x": parse_expr("[1, 2]")})
        assert ev(out) == ev(parse_expr("for (y <- [1, 2]) [y]"))

    def test_capture_avoidance(self):
        # y is free in the replacement, so the binder must be renamed
        e = parse_expr("for (y <- [1]) [x + y]")
        out = S.substitute(e, {"x": S.Var("y")})
        assert ev(S.Let("y", S.Const(10), out)) == V.VList((V.VConst(11),))

    def test_simultaneous(self):
        e = parse_expr("x + y")
        out = S.substitute(e, {"x": S.Var("y"), "y": S.Var("x")})
        env_e = S.Let("x", S.Const(1), S.Let("y", S.Const(2), out))
        assert ev(env_e) == V.VConst(3)

    def test_value_bindings_wrap(self):
        out = S.substitute(S.Var("x"), {"x": V.VConst(5)})
        assert out == S.ValueLit(V.VConst(5))


class TestFreeVars:
    def test_comprehension(self):
        assert S.free_vars(parse_expr("for (x <- y) [x]")) == {"y"}

    def test_self_bound_function(self):
        assert S.free_vars(parse_expr("fun f(x) { f(x) }")) == set()

    def test_let(self):
        assert S.free_vars(parse_expr("var x = z; x ++ w")) == {"z", "w"}

    def test_naive_scanner_agreement(self):
        # cross-check against occurrences minus binder names
        exprs = [
            "for (x <- y) where (x.a == q) [x.b]",
            "fun g(a, b) { a + c }",
            "var u = t; fun f(v) { u(v, w) }",
            "update (x <-- t) where (x.a > n) set (a = x.a + m)",
        ]
        for text in exprs:
            e = parse_expr(text)
            names = set()
            binders = set()
            for node in S.walk(e):
                if isinstance(node, S.Var):
                    names.add(node.name)
                if isinstance(node, S.Fun):
                    binders |= set(node.params) | ({node.fname} if node.fname else set())
                if isinstance(node, (S.Let, S.For)):
                    binders.add(node.name if isinstance(node, S.Let) else node.var)
                if isinstance(node, (S.Update, S.Delete)):
                    binders.add(node.var)
            assert S.free_vars(e) <= names
            assert S.free_vars(e) >= names - binders


_base_values = st.one_of(
    st.integers(-50, 50).map(V.VConst),
    st.booleans().map(V.VConst),
    st.text(alphabet="abc", max_size=3).map(V.VConst),
)


def _values(depth=2):
    if depth == 0:
        return _base_values
    sub = _values(depth - 1)
    return st.one_of(
        _base_values,
        st.lists(sub, max_size=4).map(lambda xs: V.VList(tuple(xs))),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), sub, max_size=3).map(V.vrecord),
    )


class TestCanonicalOrder:
    def test_sorts_flat(self):
        v = V.VList((V.VConst(2), V.VConst(1), V.VConst(2)))
        assert V.canonical_order(v) == V.VList((V.VConst(1), V.VConst(2), V.VConst(2)))

    def test_sorts_records(self):
        v = V.VList((V.vrecord({"a": V.VConst(2)}), V.vrecord({"a": V.VConst(1)})))
        out = V.canonical_order(v)
        assert out.items[0].get("a") == V.VConst(1)

    @given(_values())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        once = V.canonical_order(v)
        assert V.canonical_order(once) == once

    @given(st.lists(_values(), max_size=5).map(lambda xs: V.VList(tuple(xs))))
    @settings(max_examples=200, deadline=None)
    def test_multiset_preserving(self, v):
        out = V.canonical_order(v)
        want = sorted(map(V.serialize, (V.canonical_order(x) for x in v.items)))
        got = [V.serialize(x) for x in out.items]
        assert got == want

    def test_closure_rejected(self):
        clo = V.VClosure(None, ("x",), S.Var("x"), None)
        with pytest.raises(EvalError):
            V.canonical_order(V.VList((clo,)))


_BASE_VALUES = {
    S.INT: st.integers(-50, 50),
    S.BOOL: st.booleans(),
    S.STRING: st.text(alphabet='ab"c', max_size=3),
}
_LABELS = st.sampled_from(["b", "a", "10", "2", "!data"])
# a type is a base type, ("list", item type) or ("record", ((label, type), ...))
_types = st.recursive(
    st.sampled_from(list(_BASE_VALUES)),
    lambda sub: st.one_of(
        sub.map(lambda t: ("list", t)),
        st.dictionaries(_LABELS, sub, max_size=3).map(lambda d: ("record", tuple(d.items()))),
    ),
    max_leaves=6,
)


def _typed_values(t):
    """Values of type ``t``: the lists hold one type, as a program's do."""
    if t in _BASE_VALUES:
        return _BASE_VALUES[t].map(V.VConst)
    kind, arg = t
    if kind == "list":
        return st.lists(_typed_values(arg), max_size=3).map(lambda xs: V.VList(tuple(xs)))
    labels = [l for l, _ in arg]
    return st.tuples(*[_typed_values(x) for _, x in arg]).map(
        lambda xs: V.vrecord(list(zip(labels, xs)))
    )


_records = st.dictionaries(_LABELS, _types, max_size=3).flatmap(
    lambda d: _typed_values(("record", tuple(d.items())))
)


def _decoder_input(v: V.Value, row: list):
    """The result shape of ``v``, with its columns appended to ``row``."""
    if isinstance(v, V.VConst):
        ty = {bool: S.BOOL, int: S.INT, str: S.STRING}[type(v.value)]
        row.append(int(v.value) if ty == S.BOOL else v.value)
        return LeafShape(ty)
    if isinstance(v, V.VRecord):
        return RecordShape([(l, _decoder_input(x, row)) for l, x in v.fields])
    return ListShape([_decoder_input(x, row) for x in v.items])


def _reversed(v: V.Value) -> V.Value:
    """``v`` with every list reversed, its records rebuilt by `vrecord`."""
    if isinstance(v, V.VRecord):
        return V.vrecord([(l, _reversed(x)) for l, x in reversed(v.fields)])
    if isinstance(v, V.VList):
        return V.VList(tuple(_reversed(x) for x in reversed(v.items)))
    return v


class TestRecordLayout:
    @given(_records)
    @settings(max_examples=200, deadline=None)
    def test_constructions_agree(self, v):
        fresh = V.canonical_order(v)  # keeps `vrecord`'s labels tuples
        row: list = []
        decode = compile_decoder(_decoder_input(fresh, row), 0).bind({})
        decoded, again = decode(tuple(row)), decode(tuple(row))
        assert decoded.labels is again.labels
        walked = pipeline.comparable(_reversed(v), Mode.PLAIN)
        for other in (decoded, walked):
            assert other == fresh and fresh == other
            assert hash(other) == hash(fresh)
            assert V.serialize(other) == V.serialize(fresh)
            assert V.render(other) == V.render(fresh)
            assert other.fields == fresh.fields
        for r in (fresh, decoded, walked):
            assert r.fields == tuple(zip(r.labels, r.values))
            for l, x in r.fields:
                assert r.get(l) is x
            with pytest.raises(EvalError):
                r.get("zz")

    def test_labels_and_values_both_compare(self):
        a = V.vrecord([("a", V.VConst(1)), ("b", V.VConst(2))])
        assert a != V.vrecord([("a", V.VConst(1)), ("c", V.VConst(2))])
        assert a != V.vrecord([("a", V.VConst(1)), ("b", V.VConst(3))])
        assert a == V.vrecord({"b": V.VConst(2), "a": V.VConst(1)})


class TestRows:
    def test_record_type_label_order_independent(self):
        a = S.record_type([("b", S.INT), ("a", S.STRING)])
        b = S.record_type([("a", S.STRING), ("b", S.INT)])
        assert a == b

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            S.make_row([("a", S.INT), ("a", S.INT)])

    def test_prov_argument_base_only(self):
        spec = S.ProvSpec((S.ProvSpecEntry("x", None),))
        with pytest.raises(ValueError):
            spec.validate_against(S.make_row([("y", S.INT)]))


# ---------------------------------------------------------------------------
# The traversal kernel against a generic reference


def _reference_children(e):
    """Children as a generic scan of every field finds them: an Expr, or a
    tuple of Exprs or of (label, Expr) pairs."""
    for f in dataclasses.fields(e):
        if f.name == "span":
            continue
        v = getattr(e, f.name)
        if isinstance(v, S.Expr):
            yield v
        elif isinstance(v, tuple):
            for item in v:
                if isinstance(item, S.Expr):
                    yield item
                elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], S.Expr):
                    yield item[1]


def _reference_walk(e):
    yield e
    if isinstance(e, S.TableRef):
        for entry in e.spec.entries:
            if entry.fn is not None:
                yield from _reference_walk(entry.fn)
        return
    for c in _reference_children(e):
        yield from _reference_walk(c)


def _reference_free_vars(e, bound=frozenset()) -> set:
    if isinstance(e, S.Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, S.TableRef):
        parts = [(x.fn, bound) for x in e.spec.entries if x.fn is not None]
    elif isinstance(e, S.Fun):
        parts = [(e.body, bound | set(e.params) | ({e.fname} if e.fname else set()))]
    elif isinstance(e, S.Let):
        parts = [(e.value, bound), (e.body, bound | {e.name})]
    elif isinstance(e, S.For):
        parts = [(e.source, bound), (e.body, bound | {e.var})]
    elif isinstance(e, S.Update):
        inner = [e.pred, *(a for _, a in e.assigns)]
        parts = [(e.table, bound)] + [(x, bound | {e.var}) for x in inner]
    elif isinstance(e, S.Delete):
        parts = [(e.table, bound), (e.pred, bound | {e.var})]
    else:
        parts = [(c, bound) for c in _reference_children(e)]
    return set().union(*(_reference_free_vars(x, b) for x, b in parts))


_SUITE_PROGRAMS = {
    f"{q}-{v}": (suite[q][v], mode)
    for suite, modes in (
        (suites.WHERE_SUITE, {"allprov": Mode.WHERE, "someprov": Mode.WHERE, "noprov": Mode.PLAIN}),
        (suites.LINEAGE_SUITE, {"lineage": Mode.LINEAGE, "nolineage": Mode.PLAIN}),
    )
    for q in suite
    for v, mode in modes.items()
}

# node kinds the suites lack: spec functions, every write, several assigns
_WRITES = [
    'for (x <-- table "t" with (a: String) where a prov fun (r) { (s, "a", r.oid) }) [x.a]',
    'update (x <-- table "t" with (a: Int, b: Int)) where (x.a > n) set (a = x.a + m, b = x.b)',
    'delete (x <-- table "t" with (a: Int)) where (x.a == k)',
    'insert (table "t" with (a: Int)) values [(a = k)]',
]


def _program_terms(name: str) -> list:
    """The terms a suite program goes through before normalizing: its
    source declarations and main, the translated ones, and the query body
    they fold into."""
    text, mode = _SUITE_PROGRAMS[name]
    prepared = pipeline.prepare(text, mode)
    out = []
    for prog in (parse_program(text), prepared.translated):
        out += [d.expr for d in prog.decls] + [prog.main]
    return out + [pipeline.query_expr(prepared.translated)]


def _nodes(terms) -> list:
    seen = {}
    for t in terms:
        for node in _reference_walk(t):
            seen.setdefault(id(node), node)
    return list(seen.values())


_CORPORA = sorted(_SUITE_PROGRAMS) + ["writes"]


def _corpus(name: str) -> list:
    return _nodes([parse_expr(t) for t in _WRITES] if name == "writes" else _program_terms(name))


class TestKernel:
    @pytest.mark.parametrize("name", _CORPORA)
    def test_unchanged_children_share_the_node(self, name):
        for node in _corpus(name):
            assert S.map_children(node, lambda c: c) is node
            assert S.substitute(node, {"zz_unbound": S.Const(1)}) is node

    @pytest.mark.parametrize("name", _CORPORA)
    def test_walk_and_free_vars_match_reference(self, name):
        for node in _corpus(name):
            assert list(node.children()) == list(_reference_children(node))
            assert [id(x) for x in S.walk(node)] == [id(x) for x in _reference_walk(node)]
            assert S.free_vars(node) == _reference_free_vars(node)

    @pytest.mark.parametrize("name", _CORPORA)
    def test_free_vars_stay_exact_after_substitute_and_rebuild(self, name):
        for node in _corpus(name):
            S.free_vars(node)  # fill the caches the copies below must not inherit
            names = sorted(_reference_free_vars(node))
            out = S.substitute(node, {n: S.Var(n + "_r") for n in names[::2]})
            assert S.free_vars(out) == _reference_free_vars(out)
            for field, kind in S._LAYOUTS[type(node)]:
                if kind == S._ONE:
                    copy = S.rebuild(node, **{field: S.Var("zz_new")})
                    assert S.free_vars(copy) == _reference_free_vars(copy)
        e, fresh = parse_expr("for (x <- xs) [x]"), parse_expr("for (x <- xs) [x]")
        assert S.free_vars(e) == {"xs"}
        assert S.free_vars(S.rebuild(e, var="y")) == {"xs", "x"}
        # the cache is not a field
        assert (e, hash(e), repr(e)) == (fresh, hash(fresh), repr(fresh))

    def test_substitute_skips_closed_subtrees(self, monkeypatch):
        closed = parse_expr(" ++ ".join(f"for (v{i} <- [{i}]) [(a = v{i} + 1)]" for i in range(60)))
        e = S.Let("y", S.Var("x"), S.pair(S.Var("y"), S.pair(closed, S.Var("x"))))
        calls = {"_subst": 0, "rebuild": 0}
        for fn in calls:
            def counted(*args, _fn=getattr(S, fn), _name=fn, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(S, fn, counted)
        out = S.substitute(e, {"x": S.Const(7)})
        assert out.value == S.Const(7) and out.body.fields_[1][1].fields_[0][1] is closed
        # one call per node on the paths to the two x's (let, x, pair, pair,
        # x), and one each for y and the closed sibling, which come back as
        # they are; the three nodes above an x are copied
        assert calls == {"_subst": 7, "rebuild": 3}

    def test_rebuilds_only_the_changed_path(self):
        e = parse_expr("(a = x + 1, b = [y], c = z)")
        out = S.map_children(e, lambda c: S.Var("w") if c == S.Var("z") else c)
        assert out is not e
        assert [l for l, _ in out.fields_] == ["a", "b", "c"]
        assert out.fields_[0][1] is e.fields_[0][1]
        assert out.fields_[1][1] is e.fields_[1][1]
        assert out.fields_[2][1] == S.Var("w")
        e = parse_expr("for (v <- xs) [(p = v + 1, q = z)]")
        out = S.substitute(e, {"z": S.Const(3)})
        assert out.source is e.source
        assert out.body.item.fields_[0][1] is e.body.item.fields_[0][1]
        assert out.body.item.fields_[1][1] == S.Const(3)

    def test_corpus_covers_every_field_kind(self):
        nodes = _corpus("writes") + _corpus("Q1-allprov")
        kinds = {type(n) for n in nodes}
        assert {S.Update, S.Delete, S.Insert, S.RecordLit, S.App, S.Fun}.issubset(kinds)
        assert any(isinstance(n, S.TableRef) and any(x.fn for x in n.spec.entries) for n in nodes)
