"""Parser and pretty printer: grammar coverage and the round-trip property."""

import pytest

from provql import suites
from provql import syntax as S
from provql.errors import ParseError
from provql.parser import (
    KEYWORDS,
    parse_expr,
    parse_program,
    parse_type,
    pretty_print,
    pretty_print_program,
    tokenize,
)
from provql.progen import ProgGen
from provql.typecheck import Mode


def test_keyword_set_exactly():
    assert KEYWORDS == frozenset(
        {
            "fun", "var", "query", "lineage", "table", "with", "where", "prov",
            "data", "default", "for", "if", "else", "empty", "insert", "values",
            "update", "set", "delete", "true", "false",
        }
    )


def test_boat_tours_shape():
    prog = parse_program(suites.BOAT_TOURS)
    assert [d.name for d in prog.decls] == ["agencies", "externalTours"]
    main = prog.main
    assert isinstance(main, S.Query)
    outer = main.body
    assert isinstance(outer, S.For) and outer.table and outer.var == "a"
    inner = outer.body
    assert isinstance(inner, S.For) and inner.table and inner.var == "e"
    w = inner.body
    assert isinstance(w, S.Where)
    assert isinstance(w.body, S.Singleton)
    assert isinstance(w.body.item, S.RecordLit)
    assert w.body.item.field_labels() == ["name", "phone"]


def test_empty_query_block():
    e = parse_expr("query { [] }")
    assert e == S.Query(S.EmptyList())


def test_where_prov_projections():
    prog = parse_program(suites.BOAT_TOURS_WHERE)
    body = prog.main.body
    rec = body.body.body.body.item
    fields = dict(rec.fields_)
    assert isinstance(fields["phone"], S.Data)
    assert isinstance(fields["p_phone"], S.ProvOf)


def test_table_clauses_metadata():
    e = parse_expr(
        'table "t" with (oid: Int, a: String) '
        'where oid readonly, a prov default tablekeys [["a"], ["oid"]]'
    )
    assert isinstance(e, S.TableRef)
    assert e.readonly == ("oid",)
    assert e.keys == (("a",), ("oid",))
    assert e.spec.lookup("a") is not None
    assert not e.oid_implicit


def test_user_prov_function_clause():
    e = parse_expr('table "t" with (a: String) where a prov fun (r) { ("t", "a", r.oid) }')
    entry = e.spec.lookup("a")
    assert entry is not None and isinstance(entry.fn, S.Fun)


def test_quoted_labels():
    e = parse_expr('(("client" = true))."client"')
    assert isinstance(e, S.Project) and e.label == "client"


def test_pair_syntax_desugars_to_numeric_labels():
    e = parse_expr('("a", "b", 3)')
    assert isinstance(e, S.RecordLit)
    assert e.field_labels() == ["1", "2", "3"]
    assert parse_type("(String, String, Int)") == S.tuple_type(S.STRING, S.STRING, S.INT)


def test_lineage_block():
    e = parse_expr("lineage { [1] }")
    assert isinstance(e, S.LineageBlock)


def test_syntax_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_program("var x = ;")
    assert exc.value.span is not None
    assert exc.value.span.line == 1

    with pytest.raises(ParseError) as exc:
        parse_expr("if (true) { 1 }")
    assert "else" in (exc.value.expected or ("else",))


@pytest.mark.parametrize(
    "text,col",
    [('for (x <-- table "t" with (a: Int, a: String)) [x]', 36),
     ("[] : [(a: Int, b: String, a: Int)]", 27)],
)
def test_duplicate_row_label_is_a_parse_error(text, col):
    with pytest.raises(ParseError, match="duplicate label 'a' in row") as exc:
        parse_expr(text)
    assert (exc.value.span.line, exc.value.span.col) == (1, col)


def test_spans_after_multi_line_string_literal():
    # the literal holds a raw newline: what follows it is line 2, `bc" ++ @`
    toks = tokenize('"a\nbc" ++')
    assert [(t.text, t.line, t.col) for t in toks] == [("a\nbc", 1, 1), ("++", 2, 5), ("", 2, 7)]
    with pytest.raises(ParseError) as exc:
        tokenize('"a\nbc" ++ @')
    assert (exc.value.span.line, exc.value.span.col) == (2, 8)


@pytest.mark.parametrize("depth", [90, 95, 2000])
def test_deep_nesting_is_a_parse_error(depth):
    text = "[" * depth + "1" + "]" * depth
    with pytest.raises(ParseError, match="nested too deeply") as exc:
        parse_expr(text)
    assert exc.value.span is not None
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_program(f"query {{ {text} }}")


@pytest.mark.parametrize(
    "text,value",
    [("9223372036854775807", 2**63 - 1), ("-9223372036854775808", -(2**63)),
     ("9223372036854775808", None), ("-9223372036854775809", None)],
)
def test_int_literals_are_64_bit(text, value):
    if value is None:
        with pytest.raises(ParseError, match="64-bit"):
            parse_expr(text)
    else:
        assert parse_expr(text) == S.Const(value)


def test_comments_and_unicode():
    prog = parse_program("# heading\nvar x = 1; # trailing\nx")
    assert prog.main == S.Var("x")


def test_empty_list_annotation():
    e = parse_expr("[] : [Int]")
    assert e == S.EmptyList(S.INT)
    with pytest.raises(ParseError):
        parse_expr("[] : Int")


def test_union_annot_printed_form_does_not_parse():
    from provql.values import LineageColor

    e = S.UnionAnnot(S.EmptyList(), frozenset({LineageColor("T", 1)}))
    text = pretty_print(e)
    assert text == '([])^{∪{("T", 1)}}'
    with pytest.raises(ParseError):
        parse_expr(text)  # an interpreter-internal form, printed by --trace


def test_round_trip_suite_programs():
    for text in [
        suites.BOAT_TOURS,
        suites.BOAT_TOURS_WHERE,
        suites.BOAT_TOURS_LINEAGE,
        suites.WHERE_SUITE["Q6"]["allprov"],
        suites.LINEAGE_SUITE["QC4"]["lineage"],
    ]:
        prog = parse_program(text)
        text2 = pretty_print_program(prog)
        prog2 = parse_program(text2)
        assert prog2.main == prog.main
        assert [d.expr for d in prog2.decls] == [d.expr for d in prog.decls]
        assert [d.sig for d in prog2.decls] == [d.sig for d in prog.decls]


def test_round_trip_generated_programs():
    for mode in (Mode.PLAIN, Mode.WHERE, Mode.LINEAGE):
        for i in range(60):
            prog = ProgGen(9000 + i, mode, max_depth=4).program()
            text = pretty_print_program(prog)
            prog2 = parse_program(text)
            assert prog2.main == prog.main, text
            assert [d.expr for d in prog2.decls] == [d.expr for d in prog.decls]


def test_type_round_trip():
    for text in [
        "Int",
        "[Prov(String)]",
        "(name: String, phone: Prov(String))",
        "((name: String|_)) -> [String]",
        "(Int, Int) -> Bool",
        "() -> [(a: Int)]",
        "table(a: Int, b: Bool)",
        "[(data: Bool, prov: [(String, Int)])]",
    ]:
        t = parse_type(text)
        assert parse_type(str(t)) == t


def test_database_handle_reference_checked():
    with pytest.raises(ParseError):
        parse_program('var t = table "x" with (a: Int) from nowhere;')
    prog = parse_program('var db = database "d";\nvar t = table "x" with (a: Int) from db;')
    assert prog.decls[1].name == "t"
