"""Rewriting to comprehension normal form."""

import sqlite3
from contextlib import closing

import pytest

from provql import pipeline, suites
from provql import syntax as S
from provql import values as V
from provql.errors import NormalizeError
from provql.interp import eval_big
from provql.normalize import (
    NO_REDEX,
    NormalQuery,
    SubQuery,
    TableGen,
    assert_no_residuals,
    normalize,
    render_back,
    rewrite_fixpoint,
    rewrite_step,
)
from provql.parser import parse_expr, parse_program, pretty_print_program
from provql.progen import ProgGen
from provql.sqlbackend import (
    apply_update,
    bench_schema_rows,
    generate_benchmark_data,
    load_database,
    read_database,
)
from provql.typecheck import Mode, typecheck_program


class TestRewriteStep:
    def test_for_singleton(self):
        e = parse_expr("for (x <- [1]) [x + 1]")
        assert rewrite_step(e) == parse_expr("[1 + 1]")

    def test_projection_beta(self):
        assert rewrite_step(parse_expr("(l = 1, m = 2).l")) == S.Const(1)

    def test_for_concat_distributes(self):
        e = parse_expr("for (x <- l1 ++ l2) [x]")
        out = rewrite_step(e)
        assert out == parse_expr("(for (x <- l1) [x]) ++ (for (x <- l2) [x])")

    def test_no_redex(self):
        assert rewrite_step(S.Const(1)) is NO_REDEX or isinstance(
            rewrite_step(S.Const(1)), type(NO_REDEX)
        )

    def test_beta_application(self):
        e = parse_expr("(fun (x) { x + 1 })(41)")
        assert rewrite_step(e) == parse_expr("41 + 1")

    def test_let_inlines(self):
        e = parse_expr("var x = 1 + 2; [x]")
        assert rewrite_step(e) == parse_expr("[1 + 2]")


class TestNormalize:
    def test_interleaved_where_flattens(self, tours_db):
        prog = parse_program(suites.BOAT_TOURS_ALT)
        nq = normalize(pipeline.query_expr(prog))
        assert len(nq.branches) == 1
        b = nq.branches[0]
        assert [g.table for g in b.gens] == ["ExternalTours", "Agencies"]
        assert len(b.conds) == 2
        assert isinstance(b.result, S.RecordLit)
        assert b.result.field_labels() == ["name", "phone"]

    def test_already_normal_is_fixpoint(self):
        prog = parse_program(suites.BOAT_TOURS)
        body = pipeline.query_expr(prog)
        once = rewrite_fixpoint(body)
        assert rewrite_fixpoint(once) == once

    def test_lineage_boat_query_static_prov(self, tours_db):
        prepared = pipeline.prepare(suites.BOAT_TOURS_LINEAGE, Mode.LINEAGE)
        nq = pipeline.normalized_query(prepared)
        assert_no_residuals(nq)
        assert len(nq.branches) == 1
        result = dict(nq.branches[0].result.fields_)
        prov = result["prov"]
        assert isinstance(prov, SubQuery)
        assert prov.query.is_static_list()
        cells = [b.result for b in prov.query.branches]
        assert len(cells) == 2  # one witness pair per generator

    def test_union_branches(self):
        prepared = pipeline.prepare(suites.LINEAGE_SUITE["QF4"]["nolineage"], Mode.PLAIN)
        nq = pipeline.normalized_query(prepared)
        assert len(nq.branches) == 2
        assert [g.table for g in nq.branches[0].gens] == ["tasks"]
        assert [g.table for g in nq.branches[1].gens] == ["employees"]

    def test_where_prov_view_inlined_completely(self):
        prepared = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
        nq = pipeline.normalized_query(prepared)
        assert_no_residuals(nq)

    def test_nonnormalizable_reports_span(self):
        e = parse_expr("for (x <- unknown_fn(1)) [x]")
        with pytest.raises(NormalizeError, match="not a table") as exc:
            normalize(e)
        assert exc.value.span is not None


def _generators(nq: NormalQuery):
    """Every generator of a plan, nested subqueries' included."""
    for b in nq.branches:
        yield from b.gens
        for e in [*b.conds, b.result]:
            for node in S.walk(e):
                if isinstance(node, SubQuery):
                    yield from _generators(node.query)


class TestTableGeneratorsOnly:
    """Normal forms over flat tables have table generators only."""

    @pytest.mark.parametrize(
        "suite,query,variant",
        [
            (name, q, v)
            for name, suite in (("where", suites.WHERE_SUITE), ("lineage", suites.LINEAGE_SUITE))
            for q in suite
            for v in suite[q]
        ],
    )
    def test_suite_programs(self, suite, query, variant):
        table = suites.WHERE_SUITE if suite == "where" else suites.LINEAGE_SUITE
        mode = {"allprov": Mode.WHERE, "someprov": Mode.WHERE, "lineage": Mode.LINEAGE}.get(
            variant, Mode.PLAIN
        )
        nq = pipeline.normalized_query(pipeline.prepare(table[query][variant], mode))
        gens = list(_generators(nq))
        assert gens and all(isinstance(g, TableGen) for g in gens)

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    def test_generated_nested_programs(self, mode):
        for i in range(100):
            prog = ProgGen(90_000 + i, mode, max_depth=4).program(flat=False)
            nq = pipeline.normalized_query(pipeline.prepare(pretty_print_program(prog), mode))
            assert all(isinstance(g, TableGen) for g in _generators(nq)), i


class TestSoundness:
    def test_rewrites_preserve_meaning(self, tours_db):
        for i in range(25):
            prog = ProgGen(80_000 + i, Mode.PLAIN, max_depth=4).program()
            typecheck_program(prog, Mode.PLAIN)
            body = pipeline.query_expr(prog)
            _, expect = eval_big(tours_db.copy(), body, Mode.PLAIN)
            expect = V.canonical_order(expect)
            e = body
            steps = 0
            while steps < 300:
                out = rewrite_step(e)
                if not isinstance(out, S.Expr):
                    break
                e = out
                steps += 1
                if steps % 25 == 0:
                    _, mid = eval_big(tours_db.copy(), e, Mode.PLAIN)
                    assert V.canonical_order(mid) == expect
            nq = normalize(e)
            _, back = eval_big(tours_db.copy(), render_back(nq), Mode.PLAIN)
            assert V.canonical_order(back) == expect, i

    OMEGA = "(fun (x) { x(x) })(fun (x) { x(x) })"

    @pytest.mark.parametrize(
        "text,match",
        [
            ("for (y <- [(fun f(x) { f(x) })(1)]) [y]", "recursive function"),
            # a term that rewrites to itself forever: the cap reports
            # rather than hangs
            (f"for (y <- [{OMEGA}]) [y]", "did not terminate"),
            (
                'update (x <-- table "tasks" with (oid: Int, employee: String, task: String)'
                f" where oid readonly) where (true) set (task = {OMEGA})",
                "did not terminate",
            ),
        ],
        ids=["recursive", "cap", "cap-in-update"],
    )
    def test_termination_cap_raises(self, text, match):
        e = parse_expr(text)
        if not isinstance(e, S.Update):
            with pytest.raises(NormalizeError, match=match):
                normalize(e)
            return
        db = generate_benchmark_data(1, seed=3, employees_per_dept=4)
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            with pytest.raises(NormalizeError, match=match):
                apply_update(conn, e, bench_schema_rows())
            assert read_database(conn, bench_schema_rows()).get("tasks").rows == db.get("tasks").rows
