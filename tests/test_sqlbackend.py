"""SQL rendering, execution, updates, and the data generator."""

import gc
import hashlib
import re
import sqlite3
import types
from contextlib import closing

import pytest

from provql import bench, pipeline, sqlbackend, suites
from provql import syntax as S
from provql import values as V
from provql.errors import BackendError, ProvqlError
from provql.interp import d2a, eval_big
from provql.normalize import Branch, NormalQuery, SubQuery, TableGen
from provql.parser import parse_expr, pretty_print_program
from provql.progen import ProgGen
from provql.sqlbackend import (
    BENCH_INDEXES,
    ListShape,
    RecordShape,
    _compile,
    _run_order,
    apply_update,
    bench_schema_rows,
    generate_benchmark_data,
    load_database,
    plan_sql,
    read_database,
    schema_ddl,
)
from provql.typecheck import Mode


class TestPlanSql:
    def test_where_prov_constants_in_select(self):
        prepared = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
        text = plan_sql(pipeline.normalized_query(prepared))
        assert text.count("SELECT") == 1
        select, rest = text.split(" FROM ")
        from_, _, where = rest.split(" ORDER BY ")[0].partition(" WHERE ")
        assert len(from_.split(", ")) == 2 and len(where.split(" AND ")) == 2
        # provenance columns are constants plus oid, never computed per row
        cols = {alias: expr for expr, alias in re.findall(r'(\S+) AS "(\w+)"', select)}
        assert cols["p_phone_1"] == "'Agencies'"
        assert cols["p_phone_2"] == "'phone'"
        assert cols["p_phone_3"].endswith('."oid"')

    def test_empty_condition_no_where(self):
        prepared = pipeline.prepare(
            suites.TOURS_DECLS + "query { for (a <-- agencies) [(n = a.name)] }",
            Mode.PLAIN,
        )
        assert "WHERE" not in plan_sql(pipeline.normalized_query(prepared))

    def test_identifiers_quoted_and_strings_escaped(self):
        prepared = pipeline.prepare(
            suites.TOURS_DECLS
            + """query { for (a <-- agencies) where (a.name == "O'Brien") [(n = a.name)] }""",
            Mode.PLAIN,
        )
        text = plan_sql(pipeline.normalized_query(prepared))
        assert "'O''Brien'" in text
        assert '"Agencies"' in text

    def test_listing_is_the_executed_statements(self, tours_conn):
        prepared = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
        nq = pipeline.normalized_query(prepared)
        explain: list = []
        pipeline.PlanExecutor(tours_conn, explain=explain).run(nq)
        assert ";\n".join(explain) == plan_sql(nq)


# sha1 of `plan_sql` for each suite program.  A change that alters the SQL
# on purpose updates these digests in the same diff.
PLAN_DIGESTS = {
    "where/Q1/allprov": "fbe9e52ff08802f32e3255093bfe1763686e721b",
    "where/Q1/someprov": "c9f5a4e2cd3c67d80b48db8b24943765259e6119",
    "where/Q1/noprov": "04a58fccaf2669b07ce0ee51d77e08e7724a8b78",
    "where/Q2/allprov": "47da9215aff7ae64dfec5cbcbef118c68f8153f0",
    "where/Q2/someprov": "2c731e80eadfa0b10d1badfd88d1ee51d1c954d0",
    "where/Q2/noprov": "24f4dd38bb30ce2ede919ce8b2b1755c2ee03ef4",
    "where/Q3/allprov": "57207315d68f92b787e03d5d5986b21e2737ed76",
    "where/Q3/someprov": "95292ed81b0ca93e51761c0e105771a3b8d15a59",
    "where/Q3/noprov": "10e8d9ea4d38cc9f7987246c216a07719e048853",
    "where/Q4/allprov": "00eebb42ff73f4081f55b91c23cabb0830993c73",
    "where/Q4/someprov": "85c2f73f74942272ab876ed24a0207bd66e691ca",
    "where/Q4/noprov": "9e6347d88efcf01d4b63fc00665dd771818c2ead",
    "where/Q5/allprov": "7487e82966388588437892aa755dc24cfd1afc25",
    "where/Q5/someprov": "e57bbed26f2017846f5b4b51a9c6b9b41200fd34",
    "where/Q5/noprov": "7bc3ad8c4a496955a01b7be62d6c93813d7dc560",
    "where/Q6/allprov": "322368ba0ceb93e085db78a6dce3da7c70732d45",
    "where/Q6/someprov": "628c9b1cb0b7dd1886da28c904bbd670a981011d",
    "where/Q6/noprov": "11b293edd8a1406222ecbad5675a4e19687492d5",
    "lineage/AQ6/lineage": "e5a51241c85a0b01cac7da3a3ef33abb0308d886",
    "lineage/AQ6/nolineage": "e293d367f4c50737c80ab0dcb7543ed7a6215e5f",
    "lineage/Q3/lineage": "57a3533550f80d5b2868ff26b981b6adb8195233",
    "lineage/Q3/nolineage": "10e8d9ea4d38cc9f7987246c216a07719e048853",
    "lineage/Q4/lineage": "5c42702e1a265f4e2187e98e039457d6595e794b",
    "lineage/Q4/nolineage": "9e6347d88efcf01d4b63fc00665dd771818c2ead",
    "lineage/Q5/lineage": "4d2332fa7d49fb5c24091a1fd29779d108c57ad5",
    "lineage/Q5/nolineage": "7bc3ad8c4a496955a01b7be62d6c93813d7dc560",
    "lineage/Q6N/lineage": "a03bf5e4f37f4f7496ed872f7ef9de078d741a38",
    "lineage/Q6N/nolineage": "635442e9fc92e7513e77f974b6ad23ed54f7099c",
    "lineage/Q7/lineage": "37adee2b203b53cd2786e344c8cf50c68bb0a1ad",
    "lineage/Q7/nolineage": "09f5569cc2baf321ca42390ebb9be5f8d8910bd1",
    "lineage/QC4/lineage": "d7ff22fb54b55503e4d2b6959f374db98d868724",
    "lineage/QC4/nolineage": "f49610dcb9b3be96bb1e6809f47bb1f21786db83",
    "lineage/QF3/lineage": "aebdcf11b86c02904284476a7a182ed7932bc752",
    "lineage/QF3/nolineage": "892e819a4da4c058dcbac17e582435ce30fde351",
    "lineage/QF4/lineage": "2ae2883263a52fe346439185a06cdd3d8e139ea4",
    "lineage/QF4/nolineage": "03e482f4257fdd600c11e691795bc9465850f038",
}


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_suite_plans_are_pinned(name):
    suite, query, variant = name.split("/")
    text = (suites.WHERE_SUITE if suite == "where" else suites.LINEAGE_SUITE)[query][variant]
    nq = pipeline.normalized_query(pipeline.prepare(text, VARIANT_MODES[variant]))
    assert hashlib.sha1(plan_sql(nq).encode()).hexdigest() == PLAN_DIGESTS[name]


class TestExecute:
    def test_boat_tours_decodes(self, tours_db, tours_conn):
        prepared = pipeline.prepare(suites.BOAT_TOURS, Mode.PLAIN)
        out = pipeline.PlanExecutor(tours_conn).run(pipeline.normalized_query(prepared))
        assert len(out.items) == 3
        names = sorted(r.get("name").value for r in out.items)
        assert names == ["Burns's", "EdinTours", "EdinTours"]

    def test_empty_table_gives_empty_list(self, tours_conn):
        tours_conn.execute('DELETE FROM "Agencies"')
        prepared = pipeline.prepare(suites.BOAT_TOURS, Mode.PLAIN)
        nq = pipeline.normalized_query(prepared)
        assert pipeline.PlanExecutor(tours_conn).run(nq) == V.VList(())

    def test_where_prov_triples_decode(self, tours_conn):
        prepared = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
        out = pipeline.PlanExecutor(tours_conn).run(pipeline.normalized_query(prepared))
        triples = sorted(
            (r.get("p_phone").get("1").value, r.get("p_phone").get("2").value,
             r.get("p_phone").get("3").value)
            for r in out.items
        )
        assert triples == [
            ("Agencies", "phone", 1),
            ("Agencies", "phone", 1),
            ("Agencies", "phone", 2),
        ]

    def test_boolean_round_trip(self, small_bench_conn):
        prepared = pipeline.prepare(
            suites.BENCH_DECLS_PLAIN
            + 'query { for (c <-- contacts) [(n = c.name, b = c."client")] }',
            Mode.PLAIN,
        )
        out = pipeline.PlanExecutor(small_bench_conn).run(pipeline.normalized_query(prepared))
        assert all(isinstance(r.get("b").value, bool) for r in out.items)


    def test_sqlite_failure_is_typed(self):
        prepared = pipeline.prepare(suites.WHERE_SUITE["Q4"]["noprov"], Mode.PLAIN)
        nq = pipeline.normalized_query(prepared)
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, generate_benchmark_data(1, seed=3, employees_per_dept=4))
            conn.execute('DROP TABLE "employees"')
            with pytest.raises(BackendError, match="SQL execution failed"):
                pipeline.PlanExecutor(conn).run(nq)


class TestUpdates:
    def _setup(self):
        db = generate_benchmark_data(1, seed=3, employees_per_dept=4)
        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        return db, conn

    def test_delete_where_false_is_noop(self):
        db, conn = self._setup()
        row = bench_schema_rows()["tasks"]
        stmt = S.Delete("x", S.TableRef("tasks", row), S.Const(False))
        apply_update(conn, stmt, bench_schema_rows())
        n = conn.execute('SELECT COUNT(*) FROM "tasks"').fetchone()[0]
        assert n == len(db.get("tasks").rows)

    def test_insert_assigns_fresh_distinct_oids(self):
        db, conn = self._setup()
        row = bench_schema_rows()["departments"]
        stmt = parse_expr(
            'insert (table "departments" with (oid: Int, name: String) where oid readonly)'
            ' values [(name = "d_new1"), (name = "d_new2")]'
        )
        before = conn.execute('SELECT COUNT(*) FROM "departments"').fetchone()[0]
        apply_update(conn, stmt, bench_schema_rows())
        rows = conn.execute('SELECT "oid", "name" FROM "departments"').fetchall()
        assert len(rows) == before + 2
        oids = [r[0] for r in rows]
        assert len(set(oids)) == len(oids)
        # matches the interpreter applying the same statement
        eval_big(db, stmt, Mode.PLAIN)
        assert sorted(r["oid"] for r in db.get("departments").rows) == sorted(oids)

    def test_update_matches_interpreter(self):
        db, conn = self._setup()
        stmt = parse_expr(
            'update (x <-- table "employees" with (oid: Int, dept: String, name: String, salary: Int)'
            " where oid readonly) where (x.salary > 50000) set (salary = x.salary + 1)"
        )
        apply_update(conn, stmt, bench_schema_rows())
        eval_big(db, stmt, Mode.PLAIN)
        sdb = read_database(conn, bench_schema_rows())
        assert sorted(map(sorted, (r.items() for r in sdb.get("employees").rows))) == sorted(
            map(sorted, (r.items() for r in db.get("employees").rows))
        )

    def test_string_literals_with_quoted_dots_match_interpreter(self):
        # `"".` inside a string literal is data, not an empty column alias
        db, conn = self._setup()
        lit = '"a\\"\\".b"'
        tasks = 'table "tasks" with (oid: Int, employee: String, task: String) where oid readonly'
        stmts = [
            f'update (x <-- {tasks}) where (true) set (task = {lit})',
            f'update (x <-- {tasks}) where (x.task == {lit}) set (employee = "moved")',
            f"delete (x <-- {tasks}) where (x.task == {lit} && x.oid > 1)",
        ]
        for text in stmts:
            stmt = parse_expr(text)
            apply_update(conn, stmt, bench_schema_rows())
            eval_big(db, stmt, Mode.PLAIN)
            sdb = read_database(conn, bench_schema_rows())
            assert sorted(map(sorted, (r.items() for r in sdb.get("tasks").rows))) == sorted(
                map(sorted, (r.items() for r in db.get("tasks").rows))
            ), text
        assert {r["task"] for r in db.get("tasks").rows} == {'a"".b'}

    @pytest.mark.parametrize(
        "text",
        [
            # each employee's first task; `y` ranges over the target table
            "update (x <-- {t}) where (empty(for (y <-- {t})"
            ' where (y.employee == x.employee && y.oid < x.oid) [(o = y.oid)])) set (task = "first")',
            # the tasks of employees with exactly one task
            "delete (x <-- {t}) where (empty(for (y <-- {t})"
            " where (y.employee == x.employee && y.oid <> x.oid) [(o = y.oid)]))",
            # the predicate reads the column the update assigns: every task of
            # an employee without a "first" task changes, not only the first
            "update (x <-- {t}) where (empty(for (y <-- {t})"
            ' where (y.employee == x.employee && y.task == "first") [(o = y.oid)])) set (task = "first")',
            # each employee's first task goes, not the second one after it
            "delete (x <-- {t}) where (empty(for (y <-- {t})"
            " where (y.employee == x.employee && y.oid < x.oid) [(o = y.oid)]))",
        ],
        ids=["update", "delete", "update-reads-assigned", "delete-reads-deleted"],
    )
    def test_nested_predicates_match_interpreter(self, text):
        tasks = 'table "tasks" with (oid: Int, employee: String, task: String) where oid readonly'
        stmt = parse_expr(text.format(t=tasks))
        db = generate_benchmark_data(1, seed=3)
        before = [dict(r) for r in db.get("tasks").rows]
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            apply_update(conn, stmt, bench_schema_rows())
            sdb = read_database(conn, bench_schema_rows())
        eval_big(db, stmt, Mode.PLAIN)
        assert db.get("tasks").rows != before  # the statement changed something
        assert sdb.get("tasks").rows == db.get("tasks").rows

    def test_nested_set_value_rejected(self):
        # SQLite would compute the value row by row while it writes, so the
        # subquery could see rows this statement already changed
        db, conn = self._setup()
        stmt = parse_expr(
            'update (x <-- table "tasks" with (oid: Int, employee: String, task: String)'
            ' where oid readonly) where (true) set (task = if (empty(for (y <-- table "tasks"'
            " with (oid: Int, employee: String, task: String) where oid readonly)"
            ' where (y.employee == x.employee && y.task == "first") [(o = y.oid)]))'
            ' { "first" } else { x.task })'
        )
        with pytest.raises(BackendError, match="update clause is not SQL-renderable"):
            apply_update(conn, stmt, bench_schema_rows())
        sdb = read_database(conn, bench_schema_rows())
        assert sdb.get("tasks").rows == db.get("tasks").rows

    TASKS = 'table "tasks" with (oid: Int, employee: String, task: String) where oid readonly'

    def test_insert_of_non_base_field_rejected(self):
        _, conn = self._setup()
        stmt = parse_expr(f'insert ({self.TASKS}) values [(employee = "ok", task = ["a"])]')
        with pytest.raises(ProvqlError, match="not base-typed"):
            apply_update(conn, stmt, bench_schema_rows())

    def test_rejected_insert_writes_nothing(self):
        # the second row lacks a column: the first is not written either,
        # and takes no oid
        db, conn = self._setup()
        bad = parse_expr(
            f'insert ({self.TASKS}) values [(employee = "ok", task = "a"), (employee = "bad")]'
        )
        with pytest.raises(ProvqlError, match="task"):
            apply_update(conn, bad, bench_schema_rows())
        assert read_database(conn, bench_schema_rows()).get("tasks").rows == db.get("tasks").rows
        good = parse_expr(f'insert ({self.TASKS}) values [(employee = "ok", task = "a")]')
        apply_update(conn, good, bench_schema_rows())
        eval_big(db, good, Mode.PLAIN)
        sdb = read_database(conn, bench_schema_rows())
        assert sdb.get("tasks").rows == db.get("tasks").rows
        assert sdb.get("tasks").next_oid == db.get("tasks").next_oid

    def test_writing_oid_rejected(self):
        _, conn = self._setup()
        stmt = parse_expr(
            'update (x <-- table "tasks" with (oid: Int, employee: String, task: String)'
            " where oid readonly) where (true) set (oid = 1)"
        )
        with pytest.raises(BackendError, match="oid"):
            apply_update(conn, stmt, bench_schema_rows())

    @pytest.mark.parametrize(
        "text",
        [
            'insert (table "nope" with (a: Int)) values [(a = 1)]',
            'update (x <-- table "nope" with (a: Int)) where (true) set (a = 2)',
            'delete (x <-- table "nope" with (a: Int)) where (true)',
        ],
    )
    def test_write_to_unknown_table_rejected(self, text):
        _, conn = self._setup()
        with pytest.raises(BackendError, match="unknown table 'nope'"):
            apply_update(conn, parse_expr(text), bench_schema_rows())

    @pytest.mark.parametrize(
        "text",
        [
            'insert ({t}) values [(employee = "e", task = "a")]',
            'update (x <-- {t}) where (true) set (task = "a")',
            "delete (x <-- {t}) where (true)",
        ],
        ids=["insert", "update", "delete"],
    )
    def test_target_not_one_table_rejected(self, text):
        db, conn = self._setup()
        target = f"if (true) {{{self.TASKS}}} else {{{self.TASKS}}}"
        with closing(conn):
            with pytest.raises(BackendError, match="target is not a table"):
                apply_update(conn, parse_expr(text.format(t=target)), bench_schema_rows())
            assert _state(read_database(conn, bench_schema_rows())) == _state(db)

    def _both(self, stmt: S.Expr, seed: int = 3):
        """``stmt`` run by each engine on the same data: the data before,
        the interpreter's and the SQL engine's states after, and the
        `ProvqlError` each raised, or None."""
        db = generate_benchmark_data(1, seed, employees_per_dept=4)
        before, errors = db.copy(), []
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            runs = (
                lambda: eval_big(db, stmt, Mode.PLAIN),
                lambda: apply_update(conn, stmt, bench_schema_rows()),
            )
            for run in runs:
                try:
                    run()
                    errors.append(None)
                except ProvqlError as exc:
                    errors.append(exc)
            sdb = read_database(conn, bench_schema_rows())
        return before, db, sdb, *errors

    def test_insert_values_read_the_target(self):
        # the values read the table they are inserted into, before the write
        stmt = parse_expr(
            f"insert ({self.TASKS}) values (for (t <-- {self.TASKS})"
            ' [(employee = t.employee, task = "copy")])'
        )
        before, idb, sdb, ierr, serr = self._both(stmt)
        assert ierr is None and serr is None
        assert len(idb.get("tasks").rows) == 2 * len(before.get("tasks").rows) > 0
        assert _state(sdb) == _state(idb)

    EMPLOYEES = (
        'table "employees" with (oid: Int, dept: String, name: String, salary: Int)'
        " where oid readonly"
    )

    @pytest.mark.parametrize(
        "value", ["mod(1, 0)", "9223372036854775807 + 1"], ids=["zero-divisor", "overflow"]
    )
    def test_bad_insert_value_writes_nothing(self, value):
        stmt = parse_expr(
            f'insert ({self.EMPLOYEES}) values [(dept = "d", name = "ok", salary = 1),'
            f' (dept = "d", name = "bad", salary = {value})]'
        )
        before, idb, sdb, ierr, serr = self._both(stmt)
        assert isinstance(ierr, ProvqlError) and isinstance(serr, BackendError)
        assert _state(idb) == _state(sdb) == _state(before)

    def test_inserted_quotes_round_trip(self):
        stmt = parse_expr(
            f'insert ({self.TASKS}) values [(employee = "O\'Brien", task = "say \\"hi\\"")]'
        )
        _, idb, sdb, ierr, serr = self._both(stmt)
        assert ierr is None and serr is None
        assert _state(sdb) == _state(idb)
        new = max(sdb.get("tasks").rows, key=lambda r: r["oid"])
        assert (new["employee"], new["task"]) == ("O'Brien", 'say "hi"')

    @pytest.mark.parametrize(
        "text",
        [
            'insert ({t}) values (for (y <-- {t}) where (y.oid > 2)'
            ' [(employee = y.employee, task = "copy")])',
            'update (x <-- {t}) where (x.oid > 2) set (task = x.employee)',
            'delete (x <-- {t}) where (x.oid > 2)',
        ],
        ids=["insert", "update", "delete"],
    )
    def test_lineage_mode_write_matches_interpreter(self, text):
        # a write in a lineage-mode program runs doubled: each table is a
        # (table, lineage function) pair and the write targets its first part
        stmt = pipeline.prepare(text.format(t=self.TASKS), Mode.LINEAGE).translated.main
        assert isinstance(stmt.table, S.Project) and stmt.table.label == "1"
        before, idb, sdb, ierr, serr = self._both(stmt)
        assert ierr is None and serr is None
        assert _state(sdb) == _state(idb) != _state(before)

    def test_generated_query_inserts_match_interpreter(self):
        wrote = 0
        for seed in range(50):
            stmt = _query_insert(seed)
            before, idb, sdb, ierr, serr = self._both(stmt, seed)
            assert (ierr is None) == (serr is None), (seed, ierr, serr)
            assert _state(sdb) == _state(idb), seed
            wrote += _state(idb) != _state(before)
        assert wrote >= 25


def _state(db) -> dict:
    """Every benchmark table's rows, by oid, and its next oid."""
    return {
        name: (sorted(db.get(name).rows, key=lambda r: r["oid"]), db.get(name).next_oid)
        for name in bench_schema_rows()
    }


def _query_insert(seed: int) -> S.Expr:
    """A generated ``insert (T) values (for (y <-- U) where (p) [(...)])``
    over the benchmark schema, T and U possibly the same table: each of T's
    columns, and p, are generated expressions over U's row."""
    gen = ProgGen(seed)
    schema = bench_schema_rows()
    t, u = gen.rng.choice(sorted(schema)), gen.rng.choice(sorted(schema))
    env = {"y": S.RecordType(schema[u])}
    fields = [(label, gen.base_expr(env, ty, 2)) for label, ty in schema[t] if label != "oid"]
    body = S.Where(gen.bool_expr(env, 2), S.Singleton(S.record_lit(fields)))
    source = S.For("y", S.TableRef(u, schema[u], oid_implicit=False), body, True)
    return S.Insert(S.TableRef(t, schema[t], oid_implicit=False), source)


class TestGenerator:
    def test_deterministic_by_seed(self):
        a = generate_benchmark_data(3, seed=11)
        b = generate_benchmark_data(3, seed=11)
        assert a.dump_canonical() == b.dump_canonical()
        c = generate_benchmark_data(3, seed=12)
        assert a.dump_canonical() != c.dump_canonical()

    def test_department_scaling(self):
        db = generate_benchmark_data(4, seed=1)
        assert len(db.get("departments").rows) == 4
        emps = len(db.get("employees").rows)
        assert 280 <= emps <= 520  # ~100 per department on average
        tasks = len(db.get("tasks").rows)
        assert 0.5 * emps <= tasks <= 1.5 * emps  # 0-2 tasks per employee

    def test_zero_departments_rejected(self):
        with pytest.raises(BackendError):
            generate_benchmark_data(0, seed=1)

    def test_schema_and_indexes(self):
        db = generate_benchmark_data(1, seed=1)
        ddl = schema_ddl(db)
        text = ";\n".join(ddl)
        for idx in (
            "idx_tasks_employee",
            "idx_tasks_task",
            "idx_employees_dept",
            "idx_contacts_dept",
            "idx_employees_name",
            "idx_departments_name",
        ):
            assert idx in text

    def test_load_creates_every_index(self):
        # the indexes are built after the rows are loaded; all must exist
        db = generate_benchmark_data(1, seed=1)
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            names = {
                name
                for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'")
            }
        assert names >= {f"idx_{table}_{col}" for table, col in BENCH_INDEXES}
        assert len(BENCH_INDEXES) == 6

    def test_sql_round_trip(self):
        db = generate_benchmark_data(2, seed=5, employees_per_dept=5)
        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        back = read_database(conn, bench_schema_rows())
        assert back.dump_canonical() == db.dump_canonical()
        conn.close()


class TestPlanExecutor:
    def test_nested_query_matches_interpreter(self, small_bench_db, small_bench_conn):
        text = suites.WHERE_SUITE["Q4"]["noprov"]
        prepared = pipeline.prepare(text, Mode.PLAIN)
        vi = pipeline.comparable(pipeline.run_interp(small_bench_db, prepared), Mode.PLAIN)
        vs = pipeline.comparable(pipeline.run_sql(small_bench_conn, prepared), Mode.PLAIN)
        assert vi == vs

    def test_exists_conditions(self, small_bench_db, small_bench_conn):
        text = suites.WHERE_SUITE["Q2"]["noprov"]
        prepared = pipeline.prepare(text, Mode.PLAIN)
        vi = pipeline.comparable(pipeline.run_interp(small_bench_db, prepared), Mode.PLAIN)
        vs = pipeline.comparable(pipeline.run_sql(small_bench_conn, prepared), Mode.PLAIN)
        assert vi == vs

    def test_generated_updates_route_through_raw_table(self, tours_db):
        # translated table pairs send updates to the raw table (.1); the
        # provenance view reflects the change on the next read
        text = suites.TOURS_DECLS_PROV + (
            "var u = update (x <-- agencies) where (x.name == \"Burns's\")"
            ' set (phone = "000");\n'
            "query { for (a <-- agencies) [(p = prov a.phone, d = data a.phone)] }"
        )
        prepared = pipeline.prepare(text, Mode.WHERE)
        translated = prepared.translated
        db = tours_db.copy()
        _, v = eval_big(db, translated.as_expr(), Mode.PLAIN)
        phones = sorted(
            (r.get("d").value, r.get("p").get("3").value) for r in v.items
        )
        assert phones == [("000", 2), ("412 1200", 1)]

    @pytest.mark.parametrize(
        "query,variant",
        [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
    )
    def test_suite_programs_match_interpreter(self, query, variant, small_bench_db, small_bench_conn):
        suite = suites.WHERE_SUITE if variant in VARIANT_MODES_WHERE else suites.LINEAGE_SUITE
        mode = VARIANT_MODES[variant]
        prepared = pipeline.prepare(suite[query][variant], mode)
        vi = pipeline.comparable(pipeline.run_interp(small_bench_db, prepared), mode)
        vs = pipeline.comparable(pipeline.run_sql(small_bench_conn, prepared), mode)
        assert vi == vs

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    def test_generated_nested_programs_match_interpreter(self, mode):
        db = bench._tiny_tours()
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            for i in range(200):
                prog = ProgGen(90_000 + i, mode, max_depth=4).program(flat=False)
                prepared = pipeline.prepare(pretty_print_program(prog), mode)
                vi = pipeline.comparable(pipeline.run_interp(db, prepared), mode)
                vs = pipeline.comparable(pipeline.run_sql(conn, prepared), mode)
                assert vi == vs, i

    @pytest.mark.parametrize("query", ["Q3", "Q5"])
    def test_one_statement_text_per_branch(self, query):
        prepared = pipeline.prepare(suites.LINEAGE_SUITE[query]["lineage"], Mode.LINEAGE)
        nq = pipeline.normalized_query(prepared)
        counts = []
        for departments in (1, 4):
            with closing(sqlite3.connect(":memory:")) as conn:
                load_database(conn, generate_benchmark_data(departments, seed=7, employees_per_dept=6))
                explain: list = []
                pipeline.PlanExecutor(conn, explain=explain).run(nq)
            assert len(set(explain)) == len(explain)
            counts.append(len(explain))
        # every branch, nested ones included, runs once, whatever the data size
        assert counts[0] == counts[1] <= _count_branches(nq)

    @pytest.mark.parametrize(
        "query,variant",
        [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
    )
    def test_suite_programs_keep_interpreter_order(self, query, variant, small_bench_db, small_bench_conn):
        # lineage sublists are ordered embeddings, so order is part of the
        # result: no canonical_order here
        suite = suites.WHERE_SUITE if variant in VARIANT_MODES_WHERE else suites.LINEAGE_SUITE
        mode = VARIANT_MODES[variant]
        prepared = pipeline.prepare(suite[query][variant], mode)
        vi = _in_order(pipeline.run_interp(small_bench_db, prepared), mode)
        vs = _in_order(pipeline.run_sql(small_bench_conn, prepared), mode)
        assert vi == vs

    @pytest.mark.parametrize(
        "query,variant",
        [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
    )
    def test_suite_statements_use_no_automatic_index(self, query, variant, small_bench_conn):
        # an automatic index is built on every run of the statement
        suite = suites.WHERE_SUITE if variant in VARIANT_MODES_WHERE else suites.LINEAGE_SUITE
        prepared = pipeline.prepare(suite[query][variant], VARIANT_MODES[variant])
        explain: list = []
        pipeline.run_sql(small_bench_conn, prepared, explain=explain)
        assert explain
        for sql in explain:
            plan = small_bench_conn.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
            assert not [row for row in plan if "AUTOMATIC" in row[-1]], sql

    @pytest.mark.parametrize(
        "query,variant",
        [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
    )
    def test_run_leaves_no_cyclic_garbage(self, query, variant, small_bench_conn):
        # the decoders' interned columns, and every value they hold, are
        # freed by reference counting when the run's plan goes
        suite = suites.WHERE_SUITE if variant in VARIANT_MODES_WHERE else suites.LINEAGE_SUITE
        mode = VARIANT_MODES[variant]
        nq = pipeline.normalized_query(pipeline.prepare(suite[query][variant], mode))
        gc.collect()
        gc.disable()
        try:
            # the result stays live across the collection, as in a caller
            out = pipeline.comparable(pipeline.PlanExecutor(small_bench_conn).run(nq), mode)
            assert gc.collect() == 0, out
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "query,variant",
        [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
    )
    def test_run_tracks_two_objects_per_record(self, query, variant, small_bench_conn):
        # a record is itself and its values tuple; records of one shape
        # share their labels tuple
        suite = suites.WHERE_SUITE if variant in VARIANT_MODES_WHERE else suites.LINEAGE_SUITE
        nq = pipeline.normalized_query(pipeline.prepare(suite[query][variant], VARIANT_MODES[variant]))
        explain: list = []
        ex = pipeline.PlanExecutor(small_bench_conn, explain=explain)
        ex.run(nq)  # caches the statements and the decoders' code
        explain.clear()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            out = ex.run(nq)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        counts = _count_values(out)
        # besides the values: a labels tuple per record shape, and the
        # connection's weak reference to each statement's cursor
        bound = (
            2 * counts[V.VRecord]
            + 2 * counts[V.VList]
            + counts[V.VConst]
            + _count_record_shapes(nq)
            + len(explain)
        )
        assert counts[V.VList] and grown <= bound, (grown, counts)

    @pytest.mark.parametrize(
        "body",
        [
            "for (e <-- employees) where (e.salary > 50000) [e]",
            "for (c <-- contacts) [(cc = c, xs = for (e <-- employees) where (e.dept == c.dept) [e.name])]",
        ],
    )
    def test_lineage_whole_rows_keep_interpreter_order(self, body, small_bench_db, small_bench_conn):
        prepared = pipeline.prepare(suites.BENCH_DECLS_PLAIN + f"lineage {{ {body} }}", Mode.LINEAGE)
        vs = pipeline.run_sql(small_bench_conn, prepared)
        vi = pipeline.run_interp(small_bench_db, prepared)
        assert _in_order(vs, Mode.LINEAGE) == _in_order(vi, Mode.LINEAGE)
        assert vs.items

    @pytest.mark.parametrize(
        "body",
        [
            # an outer branch with no generators
            "[(xs = for (e <-- employees) [e.name])]",
            # a nested list inside a static list cell
            "for (d <-- departments)"
            " [(xs = [(n = d.name, es = for (e <-- employees) where (e.dept == d.name) [e.name])])]",
            # a nested union: per outer row, the first branch's items come first
            "for (d <-- departments) [(xs = (for (e <-- employees) where (e.dept == d.name) [e.name])"
            " ++ (for (c <-- contacts) where (c.dept == d.name) [c.name]))]",
            # the inner `t` shadows the outer one, whose condition the inner
            # statement must still apply to the outer table
            "for (t <-- tasks) where (t.oid > 3)"
            " [(o = t.oid, xs = for (t <-- employees) where (t.oid < 3) [t.name])]",
            # a top-level union with a generator-free branch
            "[1, 2] ++ for (e <-- employees) where (e.salary > 60000) [e.salary]",
            # queries with no branches, tested for emptiness and nested
            "for (e <-- employees) where (empty(none())) [(n = e.name, b = empty(none()), xs = none())]",
            # whole rows flatten to their columns, at the outer and the middle level
            "for (c <-- contacts)"
            " [(cc = c, xs = for (e <-- employees) where (e.dept == c.dept) [e.name])]",
            "for (c <-- contacts) [(n = c.name, xs = for (e <-- employees) where (e.dept == c.dept)"
            " [(e = e.name, cc = c, ts = for (t <-- tasks) where (t.employee == e.name) [t.task])])]",
            "for (e <-- employees) [e]",
            # a conditional over whole rows becomes one CASE per column
            "for (e <-- employees) for (f <-- employees) where (e.dept == f.dept && e.oid < 5)"
            " [if (e.salary > 50000) {e} else {f}]",
            # a record literal in another label order lines up with the row
            "for (e <-- employees)"
            ' [if (e.salary > 50000) {e} else {(salary = 1, oid = 0, name = "n", dept = "d")}]',
            "for (c <-- contacts) [(xs = [c, c])]",
            # a conditional over two record literals merges label by label, so
            # nested lists of different shapes in the branches become one hole
            'for (e <-- employees) [if (e.salary > 50000) {(n = e.name, xs = [e.name])}'
            ' else {(n = "x", xs = [] : [String])}]',
            "for (c <-- contacts) [if (c.\"client\") {(n = c.name, xs = for (e <-- employees)"
            " where (e.dept == c.dept) [e.name])} else {(n = c.dept, xs = for (t <-- tasks)"
            " where (t.oid < 3) [t.task])}]",
            # Bool, Int and String leaves, computed and stored, in a record of
            # five fields and in static list cells
            'for (c <-- contacts) [(b = c."client", i = c.oid, s = c.dept, t = c.oid > 2,'
            ' xs = [c."client", c.oid < 3], zs = [c.name, c.name])]',
        ],
    )
    def test_shredded_results_keep_interpreter_order(self, body, small_bench_db, small_bench_conn):
        decls = suites.BENCH_DECLS_PLAIN + "sig none : () -> [String]\nfun none() { [] }\n"
        prepared = pipeline.prepare(decls + f"query {{ {body} }}", Mode.PLAIN)
        vs = pipeline.run_sql(small_bench_conn, prepared)
        assert vs == pipeline.run_interp(small_bench_db, prepared)
        assert vs.items

    def test_whole_row_condition_rejected(self, small_bench_db, small_bench_conn):
        # a whole-row comparison does not render; programs cannot express it
        # (the typechecker rejects it), so only a hand-built plan has one
        rows = bench_schema_rows()
        c, e = S.Var("c"), S.Var("e")
        inner = NormalQuery(
            [
                Branch(
                    [TableGen("e", "employees", rows["employees"])],
                    [S.Prim("==", (S.Project(e, "dept"), S.Project(c, "dept")))],
                    S.Project(e, "name"),
                )
            ]
        )
        result = S.record_lit([("n", S.Project(c, "name")), ("xs", SubQuery(inner))])
        gens = [TableGen("c", "contacts", rows["contacts"])]
        row = small_bench_db.get("contacts").rows[-1]
        whole = S.ValueLit(V.vrecord([(l, V.VConst(x)) for l, x in row.items()]))
        by_row = NormalQuery([Branch(gens, [S.Prim("==", (c, whole))], result)])
        explain: list = []
        with pytest.raises(BackendError, match="not SQL-renderable"):
            pipeline.PlanExecutor(small_bench_conn, explain=explain).run(by_row)
        assert explain == []

    @pytest.mark.parametrize("cond", ["d.name == c.dept", 'd.name == c.dept && c."client"'])
    def test_emptiness_of_nested_result(self, cond):
        # NOT EXISTS needs the subquery's rows only, not its nested select list
        db = generate_benchmark_data(2, seed=3)
        text = suites.BENCH_DECLS_PLAIN + (
            f"query {{ for (c <-- contacts) where (empty(for (d <-- departments) where ({cond})"
            " [(n = d.name, xs = for (e <-- employees) where (e.dept == d.name) [e.name])])) [c.name] }"
        )
        prepared = pipeline.prepare(text, Mode.PLAIN)
        with closing(sqlite3.connect(":memory:")) as conn:
            load_database(conn, db)
            vs = pipeline.run_sql(conn, prepared)
        assert vs == pipeline.run_interp(db, prepared)
        # every contact's department exists; only non-clients pass the second
        assert bool(vs.items) == ("client" in cond)

    def _nested(self, inner: str, small_bench_db, small_bench_conn) -> list:
        text = suites.BENCH_DECLS_PLAIN + (
            "query { for (c <-- contacts) [(n = c.name, xs = for (e <-- employees)"
            f" {inner})] }}"
        )
        prepared = pipeline.prepare(text, Mode.PLAIN)
        explain: list = []
        nq = pipeline.normalized_query(prepared)
        vs = pipeline.PlanExecutor(small_bench_conn, explain=explain).run(nq)
        vi = pipeline.run_interp(small_bench_db, prepared)
        assert pipeline.comparable(vi, Mode.PLAIN) == pipeline.comparable(vs, Mode.PLAIN)
        assert any(x.get("xs").items for x in vs.items)
        return explain

    def test_outer_bool_column_in_inner_select_list(self, small_bench_db, small_bench_conn):
        explain = self._nested(
            'where (e.dept == c.dept) [(e = e.name, cl = c."client")]', small_bench_db, small_bench_conn
        )
        # one statement per branch; the inner one joins the outer table
        assert len(explain) == 2

    def test_outer_bool_column_in_inner_where(self, small_bench_db, small_bench_conn):
        explain = self._nested(
            'where (e.dept == c.dept && c."client") [(e = e.name)]', small_bench_db, small_bench_conn
        )
        assert len(explain) == 2

    def test_outer_whole_row_in_inner_result(self, small_bench_db, small_bench_conn):
        explain = self._nested(
            "where (e.dept == c.dept) [(e = e.name, cc = c)]", small_bench_db, small_bench_conn
        )
        # the row flattens to the outer table's columns in the inner statement
        assert len(explain) == 2 and all(sql.startswith("SELECT ") for sql in explain)


# Nested levels that read some of their enclosing generators.  ``{d}`` is
# "data " in where mode, whose compared fields are annotated.
KEYED_LEVELS = {
    # each branch of the hole reads its own outer generator, d or c
    "branches": "for (d <-- departments) for (c <-- contacts) where ({d}c.dept == {d}d.name)"
    " [(n = c.name, xs = (for (e <-- employees) where ({d}e.dept == {d}d.name) [e.name])"
    " ++ (for (f <-- contacts) where ({d}f.dept == {d}c.dept) [f.name]))]",
    # e and f meet only through d, which the tasks level does not read
    "linked": "for (e <-- employees) for (d <-- departments) for (f <-- employees)"
    " where ({d}e.dept == {d}d.name && {d}f.dept == {d}d.name && e.oid < 4 && f.oid < 9)"
    " [(a = e.name, b = f.name, ts = for (t <-- tasks)"
    " where ({d}t.employee == {d}e.name || {d}t.employee == {d}f.name) [t.task])]",
    # the inner t shadows the outer t, which the innermost level does not read
    "shadowed": "for (t <-- tasks) for (e <-- employees) where ({d}t.employee == {d}e.name)"
    " [(o = t.task, ts = for (t <-- tasks) where ({d}t.employee == {d}e.name) [t.task])]",
    # the contacts level reads d only through its own hole
    "through_hole": "for (d <-- departments) [(n = d.name, cs = for (c <-- contacts)"
    " [(m = c.name, es = for (e <-- employees) where ({d}e.dept == {d}d.name) [e.name])])]",
    # one list, shared by every outer row
    "unkeyed": "for (d <-- departments)"
    ' [(n = d.name, cs = for (c <-- contacts) where ({d}c."client") [c.name])]',
}
# reads e only through its condition's subquery; lineage blocks reject empty()
EMPTY_LEVEL = (
    "for (d <-- departments) for (e <-- employees) where ({d}e.dept == {d}d.name)"
    " [(n = e.name, cs = for (c <-- contacts)"
    " where (empty(for (t <-- tasks) where ({d}t.employee == {d}e.name) [t.oid])) [c.name])]"
)


def _keyed_program(body: str, mode: Mode) -> pipeline.Prepared:
    decls = suites.BENCH_DECLS_WHERE if mode is Mode.WHERE else suites.BENCH_DECLS_PLAIN
    block = "lineage" if mode is Mode.LINEAGE else "query"
    text = decls + f"{block} {{ {body.format(d='data ' if mode is Mode.WHERE else '')} }}"
    return pipeline.prepare(text, mode)


class TestKeyedLevels:
    def _both(self, body: str, mode: Mode, db, conn) -> tuple[V.Value, list[int]]:
        """The SQL engine's result, checked against the interpreter in order
        and canonically, and the rows each statement fetched."""
        prepared = _keyed_program(body, mode)
        ex = pipeline.PlanExecutor(conn, explain=[])
        vs = ex.run(pipeline.normalized_query(prepared))
        vi = pipeline.run_interp(db, prepared)
        assert _in_order(vs, mode) == _in_order(vi, mode)
        assert pipeline.comparable(vs, mode) == pipeline.comparable(vi, mode)
        assert len(ex.row_counts) == len(ex.explain)
        return vs, ex.row_counts

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    @pytest.mark.parametrize("case", sorted(KEYED_LEVELS))
    def test_matches_interpreter(self, case, mode, small_bench_db, small_bench_conn):
        vs, _ = self._both(KEYED_LEVELS[case], mode, small_bench_db, small_bench_conn)
        assert vs.items

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE])
    def test_empty_condition_reads_outer_generator(self, mode, small_bench_db, small_bench_conn):
        vs, _ = self._both(EMPTY_LEVEL, mode, small_bench_db, small_bench_conn)
        # employees with tasks get no contacts, the others all of them
        assert {len(x.get("cs").items) > 0 for x in vs.items} == {True, False}

    def test_linked_level_has_no_cross_product(self, small_bench_db, small_bench_conn):
        vs, counts = self._both(KEYED_LEVELS["linked"], Mode.PLAIN, small_bench_db, small_bench_conn)
        # a statement over every generator in scope fetches one row per
        # outer row and item; the tasks level keyed by (e, f) fetches no more
        assert 0 < counts[0] <= sum(len(x.get("ts").items) for x in vs.items)
        sql = plan_sql(pipeline.normalized_query(_keyed_program(KEYED_LEVELS["linked"], Mode.PLAIN)))
        assert "EXISTS (SELECT 1 FROM" in sql

    def test_unkeyed_level_is_one_shared_list(self, small_bench_db, small_bench_conn):
        vs, _ = self._both(KEYED_LEVELS["unkeyed"], Mode.PLAIN, small_bench_db, small_bench_conn)
        lists = [x.get("cs") for x in vs.items]
        assert len(lists) > 1 and all(xs is lists[0] for xs in lists)

    @pytest.mark.parametrize("query,inner", [("QC4", [13, 13]), ("Q5", [13])])
    def test_inner_statements_fetch_rows_per_key(self, query, inner, small_bench_conn):
        # keyed by all enclosing generators, QC4's two inner statements
        # fetched 86 rows each and Q5's innermost 21
        prepared = pipeline.prepare(suites.LINEAGE_SUITE[query]["lineage"], Mode.LINEAGE)
        ex = pipeline.PlanExecutor(small_bench_conn, explain=[])
        ex.run(pipeline.normalized_query(prepared))
        assert ex.row_counts[: len(inner)] == inner


def _reachable_values(root) -> list:
    """The values that ``root`` references, directly or through others;
    classes and modules are not followed."""
    seen, todo, found = {id(root)}, [root], []
    while todo:
        for x in gc.get_referents(todo.pop()):
            if id(x) in seen or isinstance(x, (type, types.ModuleType)):
                continue
            seen.add(id(x))
            if isinstance(x, V.Value):
                found.append(x)
            todo.append(x)
    return found


class TestPlanReuse:
    @pytest.mark.parametrize(
        "query,variant,mode", [("Q5", "allprov", Mode.WHERE), ("QC4", "lineage", Mode.LINEAGE)]
    )
    def test_one_plan_on_two_databases(self, query, variant, mode, small_bench_db, small_bench_conn):
        suite = suites.LINEAGE_SUITE if mode is Mode.LINEAGE else suites.WHERE_SUITE
        prepared = pipeline.prepare(suite[query][variant], mode)
        nq = pipeline.normalized_query(prepared)
        other_db = generate_benchmark_data(1, seed=3, employees_per_dept=5)
        with closing(sqlite3.connect(":memory:")) as other_conn:
            load_database(other_conn, other_db)
            expected = []
            for db, conn in [(small_bench_db, small_bench_conn), (other_db, other_conn)] * 2:
                vs = pipeline.PlanExecutor(conn).run(nq)
                vi = pipeline.run_interp(db, prepared)
                assert _in_order(vs, mode) == _in_order(vi, mode)
                assert pipeline.comparable(vs, mode) == pipeline.comparable(vi, mode)
                expected.append(pipeline.comparable(vi, mode))
        assert expected[0] != expected[1]

    def test_plan_holds_no_result_values(self, small_bench_conn):
        prepared = pipeline.prepare(suites.LINEAGE_SUITE["QC4"]["lineage"], Mode.LINEAGE)
        nq = pipeline.normalized_query(prepared)
        vs = pipeline.PlanExecutor(small_bench_conn).run(nq)
        assert vs.items and nq.plan is not None
        assert _reachable_values(nq.plan) == []

    def test_compiled_once(self, monkeypatch, small_bench_conn):
        prepared = pipeline.prepare(suites.LINEAGE_SUITE["QC4"]["lineage"], Mode.LINEAGE)
        nq = pipeline.normalized_query(prepared)
        calls = []
        level = sqlbackend._level
        monkeypatch.setattr(sqlbackend, "_level", lambda b, chain: calls.append(b) or level(b, chain))
        first = plan_sql(nq)
        runs = [pipeline.PlanExecutor(small_bench_conn).run(nq) for _ in range(3)]
        assert plan_sql(nq) == first
        # one call per statement, all made by the first plan_sql
        assert len(calls) == len(first.split(";\n")) == 3
        assert runs[0] == runs[1] == runs[2]
        # each run decodes its own values
        assert runs[0].items[0] is not runs[1].items[0]


VARIANT_MODES_WHERE = {"allprov": Mode.WHERE, "someprov": Mode.WHERE, "noprov": Mode.PLAIN}
VARIANT_MODES = {**VARIANT_MODES_WHERE, "lineage": Mode.LINEAGE, "nolineage": Mode.PLAIN}


def _in_order(v: V.Value, mode: Mode) -> V.Value:
    """`pipeline.comparable` without its canonical reordering."""
    if mode is Mode.WHERE:
        return pipeline.annotated_to_records(v)
    if mode is Mode.LINEAGE:
        return d2a(v)
    return v


def _count_values(v: V.Value) -> dict:
    """Distinct value objects in ``v``, by class."""
    seen: dict = {}
    todo = [v]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = type(x)
        if isinstance(x, V.VRecord):
            todo.extend(y for _, y in x.fields)
        elif isinstance(x, V.VList):
            todo.extend(x.items)
    counts = dict.fromkeys([V.VRecord, V.VList, V.VConst], 0)
    for t in seen.values():
        counts[t] += 1
    return counts


def _count_record_shapes(nq: NormalQuery) -> int:
    """Record shapes in the decoders of a plan's statements."""
    n = 0
    for level in _run_order(_compile(nq, ())):
        todo = [level.shape]
        while todo:
            s = todo.pop()
            if isinstance(s, RecordShape):
                n += 1
                todo.extend(x for _, x in s.fields)
            elif isinstance(s, ListShape):
                todo.extend(s.cells)
    return n


def _count_branches(nq: NormalQuery) -> int:
    """Branches of a plan, nested subqueries' included."""
    n = 0
    for b in nq.branches:
        n += 1
        for e in [*b.conds, b.result]:
            n += sum(_count_branches(x.query) for x in S.walk(e) if isinstance(x, SubQuery))
    return n
