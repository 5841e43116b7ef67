"""Normalization of query bodies to comprehension normal form."""

import sqlite3
from contextlib import closing

import pytest

from provql import pipeline, suites
from provql import syntax as S
from provql import values as V
from provql.errors import NormalizeError
from provql.interp import eval_big
from provql.normalize import (
    NormalQuery,
    SubQuery,
    TableGen,
    assert_no_residuals,
    normalize,
    render_back,
)
from provql.parser import parse_expr, parse_program, pretty_print, pretty_print_program
from provql.progen import ProgGen
from provql.sqlbackend import (
    apply_update,
    bench_schema_rows,
    generate_benchmark_data,
    load_database,
    read_database,
)
from provql.typecheck import Mode, typecheck_program


T = 'table "t" with (n: Int)'


def _normal(text: str) -> str:
    return pretty_print(render_back(normalize(parse_expr(text))))


class TestRules:
    """Each rule of the old rewrite system, seen in the normal form."""

    @pytest.mark.parametrize(
        "text,normal",
        [
            ("for (x <- [1]) [x + 1]", "[1 + 1]"),
            ("[(l = 1, m = 2).l]", "[1]"),
            ("[(fun (x) { x + 1 })(41)]", "[41 + 1]"),
            ("var x = 1 + 2; [x]", "[1 + 2]"),
            (
                f"for (x <- (for (a <-- {T}) [a]) ++ [(n = 1)]) [x.n]",
                f"(for (a <-- {T}) [a.n]) ++ [1]",
            ),
            (
                f"for (x <- if (true) {{ for (a <-- {T}) [a.n] }} else {{ [2] }}) [x]",
                f"(for (a <-- {T}) where (true) [a.n]) ++ (where (not(true)) [2])",
            ),
            (
                f"for (a <-- {T}) [if (a.n > 1) {{ (p = a.n, q = [a.n]) }} else {{ (q = [], p = 0) }}]",
                f"for (a <-- {T}) [(p = if (a.n > 1) {{ a.n }} else {{ 0 }}, q = where (a.n > 1) [a.n])]",
            ),
            (
                f"for (a <-- {T}) [(if (a.n > 1) {{ a }} else {{ (n = 0) }}).n]",
                f"for (a <-- {T}) [if (a.n > 1) {{ a.n }} else {{ 0 }}]",
            ),
            (
                f"for (x <- for (a <-- {T}) where (a.n > 1 && a.n < 9) where (a.n <> 4) [a]) where (x.n < 5) [x.n]",
                f"for (a <-- {T}) where (a.n > 1) where (a.n < 9) where (a.n <> 4) where (a.n < 5) [a.n]",
            ),
        ],
        ids=[
            "for-singleton", "projection", "beta", "let", "for-concat", "for-if",
            "if-records", "projection-of-if", "where-in-source",
        ],
    )
    def test_rule(self, text, normal):
        assert _normal(text) == pretty_print(parse_expr(normal))

    @pytest.mark.parametrize(
        "body",
        [
            "var q = for (a <-- agencies) [a]; for (a <-- externalTours) for (b <- q)"
            " where (a.name == b.name) [(tour = a.destination, phone = b.phone)]",
            "for (x <- for (a <-- agencies) [(l = for (b <-- externalTours) where (b.name == a.name) [b])])"
            " for (b <-- externalTours) for (z <- x.l) where (z.price < b.price)"
            " [(tour = z.destination, dearer = b.destination)]",
        ],
        ids=["let-bound-query", "list-in-a-bound-row"],
    )
    def test_spliced_generators_capture_nothing(self, body, tours_db):
        e = parse_expr(suites.TOURS_DECLS + body)
        nq = normalize(e)
        for b in nq.branches:
            names = [g.var for g in b.gens]
            assert len(set(names)) == len(names) > 1
        _, expect = eval_big(tours_db.copy(), e, Mode.PLAIN)
        _, back = eval_big(tours_db.copy(), render_back(nq), Mode.PLAIN)
        assert expect.items and V.canonical_order(back) == V.canonical_order(expect)


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
    def test_normal_form_preserves_meaning(self, tours_db):
        for i in range(25):
            prog = ProgGen(80_000 + i, Mode.PLAIN, max_depth=4).program()
            typecheck_program(prog, Mode.PLAIN)
            body = pipeline.query_expr(prog)
            _, expect = eval_big(tours_db.copy(), body, Mode.PLAIN)
            _, back = eval_big(tours_db.copy(), render_back(normalize(body)), Mode.PLAIN)
            assert V.canonical_order(back) == V.canonical_order(expect), i

    OMEGA = "(fun (x) { x(x) })(fun (x) { x(x) })"

    @pytest.mark.parametrize(
        "text,match",
        [
            ("for (y <- [(fun f(x) { f(x) })(1)]) [y]", "recursive function"),
            # a term that applies itself forever: the bound on nested
            # applications reports rather than exhausts the stack
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


class TestLongConcatChains:
    """A `++` chain costs `normalize`, `free_vars` and the interpreter no
    stack depth per item."""

    N = 400

    def test_both_engines(self):
        n = 900
        items = " ++ ".join(f"[(a = {i})]" for i in range(n))
        text = suites.BENCH_DECLS_PLAIN + f"query {{ {items} }}"
        db = generate_benchmark_data(1, seed=3, employees_per_dept=4)
        value = pipeline.run(text, pipeline.RunConfig(Mode.PLAIN, engine="both"), db=db).value
        assert [r.get("a").value for r in value.items] == list(range(n))

    def test_query(self):
        items = " ++ ".join(f"[(a = {i})]" for i in range(self.N))
        text = suites.BENCH_DECLS_PLAIN + f"query {{ {items} }}"
        db = generate_benchmark_data(1, seed=3, employees_per_dept=4)
        value = pipeline.run(text, pipeline.RunConfig(Mode.PLAIN, engine="sql"), db=db).value
        assert sorted(r.get("a").value for r in value.items) == list(range(self.N))

    def test_literal_insert(self):
        rows = ", ".join(f'(employee = "e{i}", task = "t")' for i in range(self.N))
        stmt = parse_expr(
            'insert (table "tasks" with (oid: Int, employee: String, task: String) where oid readonly)'
            f" values ([{rows}])"
        )
        db = generate_benchmark_data(1, seed=3, employees_per_dept=4)
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            apply_update(conn, stmt, bench_schema_rows())
            tasks = read_database(conn, bench_schema_rows()).get("tasks").rows
        assert len(tasks) == len(db.get("tasks").rows) + self.N
        assert [r["employee"] for r in tasks[-self.N :]] == [f"e{i}" for i in range(self.N)]
