"""The lineage translations: doubling, inner rewrite, closing, coercion."""

from provql import suites
from provql import syntax as S
from provql import values as V
from provql.interp import d2a, eval_big
from provql.lineage_trans import (
    d2l,
    d_translate_program,
    doubled_type,
    l_star,
    l_translate,
    lineage_type,
    lin_wrap,
)
from provql.parser import parse_expr, parse_program, parse_type
from provql.progen import ProgGen
from provql.typecheck import Mode, typecheck_program

PAIR = S.tuple_type(S.STRING, S.INT)


class TestTypeTranslation:
    def test_list_gains_data_prov(self):
        assert lineage_type(parse_type("[Bool]")) == parse_type(
            "[(data: Bool, prov: [(String, Int)])]"
        )

    def test_base_identity(self):
        assert lineage_type(S.INT) == S.INT
        assert doubled_type(S.INT) == S.INT

    def test_nested_lists(self):
        assert lineage_type(parse_type("[[Int]]")) == S.ListType(
            lin_wrap(S.ListType(lin_wrap(S.INT)))
        )

    def test_doubling_function(self):
        assert doubled_type(parse_type("(Int) -> Int")) == S.tuple_type(
            parse_type("(Int) -> Int"), parse_type("(Int) -> Int")
        )

    def test_doubling_table(self):
        t = parse_type("table(a: Int)")
        out = doubled_type(t)
        assert out.row[0][1] == t
        assert out.row[1][1] == S.FunType(
            (), S.ListType(lin_wrap(S.record_type({"a": S.INT})))
        )

    def test_doubling_identity_on_qtypes(self):
        for text in ("[Int]", "[(a: Int, b: [String])]", "Bool"):
            t = parse_type(text)
            assert doubled_type(t) == t
            assert doubled_type(lineage_type(t)) == lineage_type(t)


class TestInnerTranslation:
    def test_singleton_gets_empty_lineage(self):
        out = l_translate(parse_expr("[true]"))
        assert out == S.Singleton(
            S.record_lit([("data", S.Const(True)), ("prov", S.EmptyList(PAIR))])
        )

    def test_table_becomes_annotating_view(self):
        out = l_translate(parse_expr('table "Agencies" with (name: String)'))
        assert isinstance(out, S.For) and out.table
        rec = out.body.item
        fields = dict(rec.fields_)
        assert fields["data"] == S.Var(out.var)
        prov = fields["prov"]
        assert prov == S.Singleton(
            S.pair(S.Const("Agencies"), S.Project(S.Var(out.var), "oid"))
        )

    def test_where_wraps_translated_body(self):
        out = l_translate(parse_expr("where (x) [1]"))
        assert isinstance(out, S.Where)
        assert out.cond == S.Var("x")

    def test_comprehension_combines_lineage(self):
        out = l_translate(parse_expr("for (x <- l) [x]"))
        assert isinstance(out, S.For)
        inner = out.body
        assert isinstance(inner, S.For)
        rec = dict(inner.body.item.fields_)
        assert isinstance(rec["prov"], S.Concat)


class TestClosingTranslation:
    def test_closed_term_unchanged(self):
        e = parse_expr("[1]")
        assert l_star(e, {}) == l_translate(e)

    def test_free_list_variable_coerced(self):
        e = parse_expr("for (y <- xs) [y]")
        out = l_star(e, {"xs": parse_type("[Int]")})
        # xs occurrences become a wrapping comprehension
        found = [
            n
            for n in S.walk(out)
            if isinstance(n, S.For) and n.source == S.Var("xs")
        ]
        assert found, "expected a coercion comprehension over xs"

    def test_free_function_projects_lineage_half(self):
        e = parse_expr("f(1)")
        out = l_star(e, {"f": parse_type("(Int) -> Int")})
        assert out == S.App(S.Project(S.Var("f"), "2"), (S.Const(1),))

    def test_d2l_equations(self):
        assert d2l(S.INT, S.Var("x")) == S.Var("x")
        assert d2l(parse_type("table(a: Int)"), S.Var("t")) == S.App(
            S.Project(S.Var("t"), "2"), ()
        )
        out = d2l(parse_type("[Int]"), S.Var("y"))
        assert isinstance(out, S.For) and out.source == S.Var("y")
        rec = dict(out.body.item.fields_)
        assert rec["prov"] == S.EmptyList(PAIR)
        # records of base types need no coercion
        assert d2l(parse_type("(a: Int, b: String)"), S.Var("r")) == S.Var("r")


class TestOuterTranslation:
    def test_function_declaration_doubles(self):
        prog = parse_program(
            "sig f : (Int) -> Int\nfun f(x) { x + 1 }\nlineage { [f(1)] }"
        )
        out = d_translate_program(prog, typecheck_program(prog, Mode.LINEAGE))
        pairexpr = out.decls[0].expr
        assert isinstance(pairexpr, S.RecordLit)
        plain, lin = dict(pairexpr.fields_)["1"], dict(pairexpr.fields_)["2"]
        assert isinstance(plain, S.Fun) and isinstance(lin, S.Fun)
        assert out.decls[0].sig == doubled_type(parse_type("(Int) -> Int"))

    def test_lineage_block_becomes_query(self):
        prog = parse_program("lineage { [1] }")
        out = d_translate_program(prog, typecheck_program(prog, Mode.LINEAGE))
        assert out.main == S.Query(
            S.Singleton(
                S.record_lit([("data", S.Const(1)), ("prov", S.EmptyList(PAIR))])
            )
        )

    def test_table_declaration_doubles(self):
        prog = parse_program(
            'var t = table "T" with (a: Int);\nlineage { for (x <-- t) [x.a] }'
        )
        out = d_translate_program(prog, typecheck_program(prog, Mode.LINEAGE))
        pairexpr = out.decls[0].expr
        raw = dict(pairexpr.fields_)["1"]
        view = dict(pairexpr.fields_)["2"]
        assert isinstance(raw, S.TableRef)
        assert isinstance(view, S.Fun) and view.params == ()

    def test_type_preservation_on_examples(self):
        for text in [suites.BOAT_TOURS_LINEAGE, suites.LINEAGE_SUITE["QC4"]["lineage"]]:
            prog = parse_program(text)
            checked = typecheck_program(prog, Mode.LINEAGE)
            out = d_translate_program(prog, checked)
            rechecked = typecheck_program(out, Mode.PLAIN)
            assert rechecked.main.ty == doubled_type(checked.main.ty)


class TestEndToEnd:
    def test_translation_matches_interpreter(self, tours_db):
        for i in range(40):
            prog = ProgGen(70_000 + i, Mode.LINEAGE, max_depth=4).program()
            translated = d_translate_program(prog, typecheck_program(prog, Mode.LINEAGE))
            _, direct = eval_big(tours_db.copy(), prog.as_expr(), Mode.PLAIN)
            _, via_plain = eval_big(tours_db.copy(), translated.as_expr(), Mode.PLAIN)
            assert V.canonical_order(d2a(direct)) == V.canonical_order(d2a(via_plain)), i

    def test_stripping_lineage_gives_plain_result(self, tours_db):
        # mapping data over the lineage output equals running the body as a
        # plain query
        lprog = parse_program(suites.BOAT_TOURS_LINEAGE)
        _, lv = eval_big(tours_db.copy(), lprog.as_expr(), Mode.PLAIN)
        stripped = V.VList(tuple(row.get("data") for row in lv.items))
        pprog = parse_program(suites.BOAT_TOURS)
        _, pv = eval_big(tours_db.copy(), pprog.as_expr(), Mode.PLAIN)
        assert V.canonical_order(stripped) == V.canonical_order(pv)
