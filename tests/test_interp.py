"""Small-step and big-step reference semantics."""

import pytest

from provql import suites
from provql import syntax as S
from provql import values as V
from provql.database import Database
from provql.errors import EvalError
from provql.interp import (
    Done,
    MachineState,
    a2d,
    annotate,
    d2a,
    decompose,
    eval_big,
    evaluate,
    plug,
    step_info,
)
from provql.parser import parse_expr, parse_program
from provql.progen import ProgGen
from provql.typecheck import Mode


def run_small(text_or_expr, db=None, mode=Mode.PLAIN):
    e = parse_expr(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    _, v = evaluate(db or Database(), e, mode)
    return v


class TestStepRules:
    def test_prov_extracts_triple(self):
        v = V.VAnnot(V.VConst(42), V.WhereColor("QA", "a", 23))
        out = run_small(S.ProvOf(S.ValueLit(v)), mode=Mode.WHERE)
        assert out == V.vtriple(V.VConst("QA"), V.VConst("a"), V.VConst(23))

    def test_data_extracts_value(self):
        v = V.VAnnot(V.VConst(42), V.WhereColor("QA", "a", 23))
        assert run_small(S.Data(S.ValueLit(v)), mode=Mode.WHERE) == V.VConst(42)

    def test_for_over_empty(self):
        assert run_small("for (x <- []) [x]") == V.VList(())

    def test_union_annot_merges_colors(self):
        a = frozenset({V.LineageColor("T", 1)})
        b = frozenset({V.LineageColor("T", 2)})
        cell = S.ValueLit(V.VAnnList(((V.VConst(1), b),)))
        out = run_small(S.UnionAnnot(cell, a), mode=Mode.LINEAGE)
        assert out == V.VAnnList(((V.VConst(1), a | b),))

    def test_query_block_is_one_step(self):
        state = MachineState(Database(), parse_expr("query { [1] }"), Mode.PLAIN)
        new, rule, _ = step_info(state)
        assert rule == "query"
        assert new.focus == parse_expr("[1]")

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            run_small("mod(1, 0)")

    def test_missing_table(self):
        with pytest.raises(EvalError, match="missing table"):
            run_small('for (x <-- table "Nope" with (a: Int)) [x.a]')

    def test_annotated_comparison_uses_data(self):
        v = V.VAnnot(V.VConst(5), V.WhereColor("T", "a", 1))
        e = S.Prim("==", (S.ValueLit(v), S.Const(5)))
        assert run_small(e, mode=Mode.WHERE) == V.TRUE


class TestGoldenEvaluation:
    def test_boat_tours_multiset(self, tours_db):
        prog = parse_program(suites.BOAT_TOURS)
        _, v = evaluate(tours_db.copy(), prog.as_expr(), Mode.PLAIN)
        expected = V.VList(
            tuple(
                V.vrecord({"name": V.VConst(n), "phone": V.VConst(p)})
                for n, p in [
                    ("EdinTours", "412 1200"),
                    ("EdinTours", "412 1200"),
                    ("Burns's", "607 3000"),
                ]
            )
        )
        assert V.canonical_order(v) == V.canonical_order(expected)

    def test_lineage_witness_sets(self, tours_db):
        prog = parse_program(suites.BOAT_TOURS_LINEAGE)
        _, v = evaluate(tours_db.copy(), prog.as_expr(), Mode.PLAIN)
        got = {
            frozenset((p.get("1").value, p.get("2").value) for p in row.get("prov").items)
            for row in v.items
        }
        assert got == {
            frozenset({("Agencies", 1), ("ExternalTours", 5)}),
            frozenset({("Agencies", 1), ("ExternalTours", 6)}),
            frozenset({("Agencies", 2), ("ExternalTours", 7)}),
        }

    def test_empty_query(self):
        assert run_small("query { [] : [Int] }") == V.VList(())


class TestAnnotateA2d:
    def test_annotate_empty_colorsets(self):
        v = V.VList((V.VConst(1), V.VConst(2)))
        out = annotate(v)
        assert out == V.VAnnList(((V.VConst(1), frozenset()), (V.VConst(2), frozenset())))

    def test_annotate_empty_list(self):
        assert annotate(V.VList(())) == V.VAnnList(())

    def test_annotate_recurses_into_records(self):
        v = V.vrecord({"xs": V.VList((V.VConst(1),))})
        out = annotate(v)
        assert out.get("xs") == V.VAnnList(((V.VConst(1), frozenset()),))

    def test_a2d_cell(self):
        cell = V.VAnnList(((V.VConst(True), frozenset({V.LineageColor("T", 1)})),))
        out = a2d(cell)
        assert out == V.VList(
            (
                V.vrecord(
                    {
                        "data": V.VConst(True),
                        "prov": V.VList((V.vpair(V.VConst("T"), V.VConst(1)),)),
                    }
                ),
            )
        )

    def test_a2d_empty(self):
        assert a2d(V.VAnnList(())) == V.VList(())

    def test_d2a_inverts_a2d(self):
        cell = V.VAnnList(
            (
                (V.vrecord({"a": V.VConst(1)}), frozenset({V.LineageColor("T", 1)})),
                (V.vrecord({"a": V.VConst(2)}), frozenset()),
            )
        )
        assert d2a(a2d(cell)) == cell


class TestDeterminismAndEquivalence:
    def test_decompose_plug_identity(self):
        exprs = [
            "1 + 2 * 3",
            "for (x <- [1, 2]) [x + 1]",
            "(a = 1, b = [2]).b",
            "if (true == false) { [1] } else { [] : [Int] }",
        ]
        for text in exprs:
            e = parse_expr(text)
            d = decompose(e, Mode.PLAIN)
            assert d is not None
            ctx, redex = d
            assert plug(ctx, redex) == e

    def test_small_step_equals_big_step(self, tours_db):
        for mode in (Mode.PLAIN, Mode.WHERE, Mode.LINEAGE):
            eval_mode = Mode.WHERE if mode is Mode.WHERE else Mode.PLAIN
            for i in range(25):
                prog = ProgGen(5_000 + i, mode, max_depth=3).program()
                e = prog.as_expr()
                try:
                    _, v1 = evaluate(tours_db.copy(), e, eval_mode)
                except EvalError as exc:
                    if "division by zero" in str(exc):
                        continue
                    raise
                _, v2 = eval_big(tours_db.copy(), e, eval_mode)
                assert V.canonical_order(v1) == V.canonical_order(v2)

    def test_substitution_lemma(self, tours_db):
        # evaluating substitute(M, {x: V}) equals evaluating M under {x: V}
        from provql.interp import Env

        gen = ProgGen(42, Mode.PLAIN, max_depth=3)
        env_ty = {"x0": S.ListType(S.record_type({"a": S.INT, "b": S.STRING}))}
        for i in range(40):
            body = gen.list_expr(dict(env_ty), 3, flat=False)
            val = V.VList(
                (V.vrecord({"a": V.VConst(i), "b": V.VConst("s")}),)
            )
            substituted = S.substitute(body, {"x0": val})
            _, v1 = eval_big(tours_db.copy(), substituted, Mode.PLAIN)
            _, v2 = eval_big(tours_db.copy(), body, Mode.PLAIN, Env({"x0": val}))
            assert V.canonical_order(v1) == V.canonical_order(v2)


class TestUpdates:
    def _db(self):
        db = Database()
        db.create_table("T", [("a", S.INT), ("b", S.STRING)])
        db.seed("T", [{"oid": 1, "a": 1, "b": "x"}, {"oid": 2, "a": 2, "b": "y"}])
        return db

    def test_delete_where_false_keeps_rows(self):
        db = self._db()
        run = parse_expr('delete (x <-- table "T" with (a: Int, b: String)) where (false)')
        _, v = eval_big(db, run, Mode.PLAIN)
        assert v == V.UNIT_VALUE
        assert len(db.get("T").rows) == 2

    def test_insert_assigns_fresh_oids(self):
        db = self._db()
        stmt = parse_expr(
            'insert (table "T" with (a: Int, b: String)) values [(a = 3, b = "z"), (a = 4, b = "w")]'
        )
        eval_big(db, stmt, Mode.PLAIN)
        oids = [r["oid"] for r in db.get("T").rows]
        assert oids == [1, 2, 3, 4]

    def test_update_per_row_semantics(self):
        db = self._db()
        stmt = parse_expr(
            'update (x <-- table "T" with (a: Int, b: String)) where (x.a > 1) set (a = x.a + 1)'
        )
        eval_big(db, stmt, Mode.PLAIN)
        assert [r["a"] for r in db.get("T").rows] == [1, 3]

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    def test_reads_see_earlier_writes_in_one_program(self, mode):
        # eval_big converts a table's rows once and shares them between
        # reads; each write must drop them, so every read after it sees it
        t = 'table "T" with (a: Int, b: String) where a prov default'
        text = f"""
            var before = for (x <-- {t}) [x.a];
            var u = update (x <-- {t}) where (x.a > 1) set (a = x.a + 10);
            var updated = for (x <-- {t}) for (y <-- {t}) where (x.oid < y.oid) [(p = x.a, q = y.a)];
            var i = insert ({t}) values [(a = 5, b = "n")];
            var inserted = for (x <-- {t}) [x.a];
            var d = delete (x <-- {t}) where (x.a == 1);
            (before = before, updated = updated, inserted = inserted, deleted = for (x <-- {t}) [x])
        """
        e = parse_expr(text)
        _, small = evaluate(self._db(), e, mode)
        _, big = eval_big(self._db(), e, mode)
        assert big == small
        if mode is Mode.PLAIN:
            assert [x.value for x in big.get("inserted").items] == [1, 12, 5]
            assert [r.get("a").value for r in big.get("deleted").items] == [12, 5]

    def test_oid_never_reused_after_delete(self):
        db = self._db()
        eval_big(
            db,
            parse_expr('delete (x <-- table "T" with (a: Int, b: String)) where (x.a == 2)'),
            Mode.PLAIN,
        )
        eval_big(
            db,
            parse_expr('insert (table "T" with (a: Int, b: String)) values [(a = 9, b = "q")]'),
            Mode.PLAIN,
        )
        assert [r["oid"] for r in db.get("T").rows] == [1, 3]


class TestWhereStripInvariant:
    def test_plain_equals_where_stripped(self, tours_db):
        # a program without `prov` evaluates in where mode to the plain
        # result, modulo stripping the annotations
        text = suites.BOAT_TOURS_WHERE.replace(
            "phone = data a.phone, p_phone = prov a.phone", "phone = data a.phone"
        )
        prog = parse_program(text)
        _, vw = eval_big(tours_db.copy(), prog.as_expr(), Mode.WHERE)
        plain_prog = parse_program(suites.BOAT_TOURS)
        _, vp = eval_big(tours_db.copy(), plain_prog.as_expr(), Mode.PLAIN)
        assert V.canonical_order(V.strip_annotations(vw)) == V.canonical_order(vp)
