"""Parser and pretty printer: grammar coverage and the round-trip property."""

import hashlib
import random
from pathlib import Path

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


@pytest.mark.parametrize("text,col", [("query { ² }", 9), ("1²", 2), ("[1, ²3]", 5)])
def test_non_decimal_digit_is_a_parse_error(text, col):
    # '²' is a digit to `str.isdigit` but not a decimal digit that `int` reads
    with pytest.raises(ParseError, match="unexpected character '²'") as exc:
        parse_expr(text)
    assert (exc.value.span.line, exc.value.span.col) == (1, col)


def test_int_literals_are_decimal_digits():
    assert parse_expr("١٢") == S.Const(12)  # Arabic-Indic decimal digits
    assert parse_expr("x²") == S.Var("x²")


@pytest.mark.parametrize(
    "text,tokens",
    [
        ("# note\n  x", [("ident", "x", 2, 3), ("eof", "", 2, 4)]),
        ("a\r\n\tb\t+ c", [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("sym", "+", 2, 4),
                           ("ident", "c", 2, 6), ("eof", "", 2, 7)]),
        ('x "a\\"b" y', [("ident", "x", 1, 1), ("str", 'a"b', 1, 3), ("ident", "y", 1, 10),
                        ("eof", "", 1, 11)]),
        ('"a\\\nb" c', [("str", "a\nb", 1, 1), ("ident", "c", 2, 4), ("eof", "", 2, 5)]),
        ('"a\\qb" c', [("str", "aqb", 1, 1), ("ident", "c", 1, 8), ("eof", "", 1, 9)]),
        ("1 # end", [("num", "1", 1, 1), ("eof", "", 1, 3)]),
    ],
    ids=["comment", "cr-tabs", "escaped-quote", "escaped-newline", "unknown-escape", "end-comment"],
)
def test_token_spans(text, tokens):
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(text)] == tokens


def test_unterminated_string_span():
    with pytest.raises(ParseError, match="unterminated string literal") as exc:
        tokenize('x\n\n  "abc')
    assert (exc.value.span.line, exc.value.span.col) == (3, 3)


def _token_digest(texts) -> str:
    h = hashlib.sha1()
    for text in texts:
        h.update(repr([(t.kind, t.text, t.line, t.col) for t in tokenize(text)]).encode())
    return h.hexdigest()


# sha1 of the token stream, `(kind, text, line, col)` per token, of each
# suite program and of each benchmark `adhoc` template's first three draws.
# A change that alters the tokens or the templates on purpose updates these
# in the same diff.
TOKEN_DIGESTS = {
    "where/Q1/allprov": "f2e87229187062bf9b846cba0742a242c004b228",
    "where/Q1/someprov": "6a461af79f7818efb576b90c24b6f525f253085b",
    "where/Q1/noprov": "26edd17569a15de4504724c99baeebd0ec5bcca0",
    "where/Q2/allprov": "509c9757c97873da3fa498c125f15498ddc508bc",
    "where/Q2/someprov": "f3a4bb27893df3f9dcf8190b3a1fd6b349548061",
    "where/Q2/noprov": "123ae52ce7a9af14f717aaecd2c4f638776707ff",
    "where/Q3/allprov": "37315bc174306ed0da8c2fb0f2216450a5c64561",
    "where/Q3/someprov": "3c77dd7956bf010bd25ea124fef7840d283d9bef",
    "where/Q3/noprov": "e2e722c0eec0ee2780f6594e1e8248bf634c6db2",
    "where/Q4/allprov": "40cceacca81227a377568429844ce2736afb4d6e",
    "where/Q4/someprov": "56d2a20c2adb69088a06255cdd002ec5fc0c622e",
    "where/Q4/noprov": "641587044cdda41e15fe2dcef9062530d2f98c82",
    "where/Q5/allprov": "40327314616fda02ffbf7b510e4ac2f39ed8a556",
    "where/Q5/someprov": "6883d6075bd98fb02154280d56eb2f5ed5caee71",
    "where/Q5/noprov": "6fa181fdee5c7402604bccfd6958314b1a983f9c",
    "where/Q6/allprov": "4cae22a575018da9b2934129df3094bfb8a9f4ee",
    "where/Q6/someprov": "dbc71e0b359d3d059b54c56e9c0583f52e243fdc",
    "where/Q6/noprov": "5b8cf28c952f781696bdfc95d56f9b574ec86763",
    "lineage/AQ6/lineage": "c1240d6d0417f03c6a6f22932345ef66e281d576",
    "lineage/AQ6/nolineage": "31b8e484d4fc1c3d2ca165a80396fe86ba2f69f5",
    "lineage/Q3/lineage": "66f10640ccb8dbeb39a49ef5b3c329ebd2741d02",
    "lineage/Q3/nolineage": "3a557f65eb00eb37019678a2de290b5f3b19f0f3",
    "lineage/Q4/lineage": "98a1c6697c90b7ad46b726848aa7ed74f0d081bf",
    "lineage/Q4/nolineage": "076e51c58d8ca6d01633314a16c0eae68cb20259",
    "lineage/Q5/lineage": "cbd4ea595bd0ed5a7bb7a6f2a4665d07eae83d3c",
    "lineage/Q5/nolineage": "ef8524688eab72b5652391aaa1885006413f2eb3",
    "lineage/Q6N/lineage": "cba4d833b8d1e63e64ce32566ad000577beb1ca1",
    "lineage/Q6N/nolineage": "98e221f6d5c0b2b8cdade745ae1bb22d0ab05d0b",
    "lineage/Q7/lineage": "99149e22de18d7a8a9e021da96473e5ef59f50f5",
    "lineage/Q7/nolineage": "2e4207143d5a0964942f796c007a0a9183194e76",
    "lineage/QC4/lineage": "b3de9dfadadab77cd08b6da8147688f96acaf3d2",
    "lineage/QC4/nolineage": "7d1ebcfe8a0aed4805c26875f6a2d7b6cfc9f484",
    "lineage/QF3/lineage": "5691919a0120f872101391c252dbc30752e26b03",
    "lineage/QF3/nolineage": "ffd87868befdb301b822a1e53449cf986e0626aa",
    "lineage/QF4/lineage": "f19b25697639c69b0d33522b02ba7da9b705af6d",
    "lineage/QF4/nolineage": "1d588f317dbfa025fb452017cf414911fc482584",
    "AQ6/lineage": "0cdc4029decf269061b299ba9484b1c4e53b09dc",
    "AQ6/nolineage": "2d3db2dd0d18464c0941d2590d7dcb03dff28fb6",
    "Q2/allprov": "0bd7bb95a0ce2522da5d6a570a481d9b43f5352f",
    "Q2/noprov": "ed2cd227da96bf55205139a9859c40f817837af4",
    "Q2/someprov": "df288020cde0772ee8f5dea81cf57619a91df756",
    "Q4/allprov": "1c08d93cb1d5ab1ce88c0868d65981176b2c5622",
    "Q4/lineage": "7a87f0fc59152d28b1a4e8f20d7aa435d56b3fc0",
    "Q4/nolineage": "2d7df9cb68a4bd84566f9aab01a233fbdce60bad",
    "Q4/noprov": "532e2a6d674dfa0e9fd67ed1406be7232a20d3a1",
    "Q4/someprov": "29dbdb688d04813649d4b3bcf8232da6bb203a2a",
    "Q6/allprov": "0b0490ff9b108875d85e9413618c68e426306fbe",
    "Q6/noprov": "580a0d825fb39287270bc0be31745ecc468203f4",
    "Q6/someprov": "57aa985c5c9699f49ed9df49fd6ae8e1c5603453",
    "Q6N/lineage": "d4b4276fd1595cd7f9d9e09410d92a91f710899f",
    "Q6N/nolineage": "88e3227bafdd27cb03bcd3bd04e633c21e070e30",
    "Q7/lineage": "db1ea35c455dcfed36678a6bfeb76370a9987792",
    "Q7/nolineage": "d97fff1eb78f68dc6978703d06dfdf3e41a614e1",
    "QF4/lineage": "eaa8662530fd79829fc306c291649bb9b017f5ee",
    "QF4/nolineage": "15d2b9d03d9f490e42316ab8f78ba93cc9e95b21",
}


def _token_corpus() -> dict[str, list[str]]:
    out = {
        f"{s}/{q}/{v}": [text]
        for s, suite in (("where", suites.WHERE_SUITE), ("lineage", suites.LINEAGE_SUITE))
        for q, variants in suite.items()
        for v, text in variants.items()
    }
    from perfbench.workloads import Adhoc, adhoc_templates

    templates = adhoc_templates()
    rng, seen = random.Random(0), set()
    for _ in range(3):
        for key in sorted(templates):
            out.setdefault("/".join(key), []).append(Adhoc._draw(rng, templates[key], seen))
    return out


def test_token_streams_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    corpus = _token_corpus()
    assert {name: _token_digest(texts) for name, texts in corpus.items()} == TOKEN_DIGESTS


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
