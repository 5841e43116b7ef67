"""The run pipeline and the command-line interface."""

import csv
import io
import json
import re
import sqlite3
from contextlib import closing

import pytest

from provql import pipeline, suites
from provql.cli import main
from provql.errors import BackendError, EvalError, ProvqlError
from provql.sqlbackend import generate_benchmark_data, load_database
from provql.typecheck import Mode


class TestPipeline:
    def test_both_engines_agree_and_compare(self, tours_db):
        cfg = pipeline.RunConfig(mode=Mode.WHERE, engine="both", emit_sql=True)
        result = pipeline.run(suites.BOAT_TOURS_WHERE, cfg, db=tours_db)
        assert result.value is not None
        assert "sql" in result.outputs

    def test_sql_engine_requires_query_main(self, tours_db):
        text = suites.TOURS_DECLS + "for (a <-- agencies) [(n = a.name)]"
        cfg = pipeline.RunConfig(mode=Mode.PLAIN, engine="sql")
        with pytest.raises(ProvqlError, match="query block"):
            pipeline.run(text, cfg, db=tours_db)

    def test_emit_translated(self, tours_db):
        cfg = pipeline.RunConfig(mode=Mode.LINEAGE, engine="interpret", emit_translated=True)
        result = pipeline.run(suites.BOAT_TOURS_LINEAGE, cfg, db=tours_db)
        assert "agencies.2()" in result.outputs["translated"].replace(" ", "").replace(
            "\n", ""
        ) or ".2()" in result.outputs["translated"]

    @pytest.mark.parametrize("engine,reps", [("sql", 1), ("both", 3)])
    def test_normalizes_once_per_run(self, tours_db, monkeypatch, engine, reps):
        calls = []
        normalize = pipeline.normalize

        def counting(*args, **kwargs):
            calls.append(1)
            return normalize(*args, **kwargs)

        monkeypatch.setattr(pipeline, "normalize", counting)
        cfg = pipeline.RunConfig(mode=Mode.WHERE, engine=engine, repetitions=reps, emit_sql=True)
        result = pipeline.run(suites.BOAT_TOURS_WHERE, cfg, db=tours_db)
        assert len(result.timings_ms) == reps
        assert len(calls) == 1

    @pytest.mark.parametrize("engine", ["interpret", "sql", "both"])
    @pytest.mark.parametrize(
        "expr,ty",
        [
            ("e.salary * 4611686018427387904", "Int"),
            ("9223372036854775807 + e.salary", "Int"),
            ("mod(e.salary, e.salary - e.salary)", "Int"),
            ("mod(e.salary, e.salary - e.salary) == 1", "Bool"),
        ],
    )
    def test_int_overflow_and_zero_divisor_raise(self, expr, ty, engine):
        # SQLite yields REAL on overflow and NULL on a zero divisor; neither
        # may come back as a value of an Int or Bool column
        db = generate_benchmark_data(1, seed=3, employees_per_dept=3)
        text = suites.BENCH_DECLS_PLAIN + f"query {{ for (e <-- employees) [(v = {expr})] }}"
        error, match = (BackendError, f"{ty} column") if engine == "sql" else (EvalError, None)
        with pytest.raises(error, match=match):
            pipeline.run(text, pipeline.RunConfig(Mode.PLAIN, engine=engine), db=db)

    def test_explain_lists_plan(self, tours_db):
        cfg = pipeline.RunConfig(mode=Mode.PLAIN, engine="sql", explain=True)
        result = pipeline.run(suites.BOAT_TOURS, cfg, db=tours_db)
        statements = result.outputs["explain"]
        assert statements and all(sql.startswith("SELECT ") for sql in statements)


class TestCli:
    def _write(self, tmp_path, text):
        p = tmp_path / "prog.pql"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_run_exit_codes(self, tmp_path, capsys):
        path = self._write(tmp_path, suites.BOAT_TOURS)
        assert main(["run", path, "--engine", "both"]) == 0
        out = capsys.readouterr().out
        assert "EdinTours" in out

    def test_explain_prints_each_statement(self, tmp_path, capsys):
        path = self._write(tmp_path, suites.BOAT_TOURS)
        assert main(["run", path, "--engine", "sql", "--explain"]) == 0
        out = capsys.readouterr().out
        assert len(re.findall(r"-- plan \(\d+ rows?\) --\nSELECT ", out)) == 1

    def test_explain_counts_each_statement_rows(self, tmp_path, capsys):
        db_path = str(tmp_path / "bench.db")
        with closing(sqlite3.connect(db_path)) as conn:
            load_database(conn, generate_benchmark_data(2, seed=7, employees_per_dept=6))
        path = self._write(tmp_path, suites.LINEAGE_SUITE["Q5"]["nolineage"])
        assert main(["run", path, "--engine", "sql", "--explain", "--db", db_path]) == 0
        plans = re.findall(r"-- plan \((\d+) rows?\) --\n(SELECT [^\n]*)", capsys.readouterr().out)
        with closing(sqlite3.connect(db_path)) as conn:
            counts = [(int(n), len(conn.execute(sql).fetchall())) for n, sql in plans]
        assert len(counts) == 3 and all(n == fetched > 0 for n, fetched in counts)

    def test_typecheck_error_exit(self, tmp_path, capsys):
        path = self._write(tmp_path, suites.TOURS_DECLS + "query { agencies.phone }")
        assert main(["run", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_lineage_empty_rejected(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            suites.TOURS_DECLS
            + "lineage { for (a <-- agencies) where (empty([] : [Int])) [(n = a.name)] }",
        )
        assert main(["run", path, "--mode", "lineage"]) == 1
        assert "nonmonotonic" in capsys.readouterr().err

    def test_emit_sql_matches_listing(self, tmp_path, capsys):
        path = self._write(tmp_path, suites.BOAT_TOURS_WHERE)
        assert main(["sql", path, "--mode", "where"]) == 0
        out = capsys.readouterr().out
        assert "'Agencies'" in out and "UNION" not in out

    def test_sql_lists_the_statements_that_run(self, tmp_path, capsys):
        text = suites.WHERE_SUITE["Q4"]["noprov"]
        cfg = pipeline.RunConfig(Mode.PLAIN, engine="sql", explain=True, emit_sql=True)
        result = pipeline.run(text, cfg, db=generate_benchmark_data(1, seed=3, employees_per_dept=3))
        listing = ";\n".join(result.outputs["explain"])
        assert len(result.outputs["explain"]) == 2 and result.outputs["sql"] == listing
        assert main(["sql", self._write(tmp_path, text)]) == 0
        assert capsys.readouterr().out == listing + "\n"

    def test_trace_typechecks(self, tmp_path, capsys):
        path = self._write(tmp_path, 'query { [if (true) {1} else {"a"}] }')
        assert main(["run", path, "--trace"]) == 1
        captured = capsys.readouterr()
        assert "type mismatch" in captured.err and "[1]" not in captured.out

    def test_trace_prints_what_run_prints(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            suites.TOURS_DECLS_PROV
            + "query { for (a <-- agencies) where (a.name == \"Burns's\") [a.phone] }",
        )
        shown = '[(data = "607 3000", prov = ("Agencies", "phone", 2))]\n'
        assert main(["run", path, "--mode", "where"]) == 0
        assert capsys.readouterr().out == shown
        assert main(["run", path, "--mode", "where", "--trace"]) == 0
        assert capsys.readouterr().out.endswith("\n" + shown)

    def test_reps_report_median_on_stderr(self, tmp_path, capsys):
        path = self._write(tmp_path, suites.BOAT_TOURS)
        assert main(["run", path]) == 0
        once = capsys.readouterr().out
        assert main(["run", path, "--engine", "both", "--reps", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == once
        assert re.fullmatch(r"-- execution: 2 run\(s\), median \d+\.\d{3} ms\n", captured.err)

    def test_deeply_nested_program_fails_typed(self, tmp_path, capsys):
        path = self._write(tmp_path, "query { " + "[" * 90 + "1" + "]" * 90 + " }")
        assert main(["run", path]) == 1
        assert "error: expression nested too deeply" in capsys.readouterr().err

    def test_csv_quotes_commas_and_newlines_in_strings(self, tmp_path, capsys):
        path = self._write(
            tmp_path, 'query { [(a = "x, y", b = "say \\"hi\\"", c = "two\nlines", n = 3, t = true)] }'
        )
        assert main(["run", path, "--engine", "both", "--csv"]) == 0
        out = capsys.readouterr().out
        assert [row for row in csv.reader(io.StringIO(out)) if row] == [
            ["a", "b", "c", "n", "t"],
            ["x, y", 'say "hi"', "two\nlines", "3", "true"],
        ]

    def test_duplicate_table_column_fails_typed(self, tmp_path, capsys):
        path = self._write(tmp_path, 'query { for (x <-- table "t" with (a: Int, a: String)) [x] }')
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "error: duplicate label 'a' in row" in err
        assert "Traceback" not in err

    def test_non_decimal_digit_fails_typed(self, tmp_path, capsys):
        path = self._write(tmp_path, "query { [1²] }")
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "error: unexpected character '²'" in err
        assert "Traceback" not in err

    AGENCIES = 'var agencies = table "Agencies" with (name: String, based_in: String, phone: String);\n'
    GLASGOW = 'for (a <-- agencies) where (a.based_in == "Glasgow") [a.name]'

    def test_translate_prints_the_translation(self, tmp_path, capsys):
        path = self._write(tmp_path, self.AGENCIES + f"lineage {{ {self.GLASGOW} }}")
        assert main(["translate", path, "--mode", "lineage"]) == 0
        out = re.sub(r"_\d+\b", "_N", capsys.readouterr().out)
        table = 'table "Agencies" with (based_in: String, name: String, phone: String)'
        assert out.startswith(
            f"var agencies = ({table}, fun() {{ for (t_N <-- {table}) "
            '[(data = t_N, prov = [("Agencies", t_N.oid)])] });\n\nquery { '
        )

    def test_normalize_prints_the_normal_form(self, tmp_path, capsys):
        path = self._write(tmp_path, self.AGENCIES + f"query {{ {self.GLASGOW} }}")
        assert main(["normalize", path]) == 0
        assert capsys.readouterr().out == (
            'for (a <-- table "Agencies" with (based_in: String, name: String, phone: String))'
            ' where (a.based_in == "Glasgow") [a.name]\n'
        )

    @pytest.mark.parametrize(
        "command,main_expr,message",
        [
            ("translate", 'query { [1 + "a"] }', "+ needs integer arguments"),
            ("normalize", "[1]", "the SQL engine needs the main expression to be a query block"),
        ],
    )
    def test_print_subcommands_fail_typed(self, tmp_path, capsys, command, main_expr, message):
        path = self._write(tmp_path, self.AGENCIES + main_expr)
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1 and message in captured.err

    def test_gen_data_and_run_from_file_db(self, tmp_path, capsys):
        dsn = str(tmp_path / "bench.db")
        assert (
            main(["gen-data", "--departments", "2", "--seed", "1", "--employees", "5", "--db", dsn])
            == 0
        )
        info = json.loads(capsys.readouterr().out)
        assert info["rows"]["departments"] == 2
        qpath = self._write(tmp_path, suites.WHERE_SUITE["Q4"]["noprov"])
        assert main(["run", qpath, "--engine", "both", "--db", dsn]) == 0

    def test_check_subcommand(self, capsys):
        assert main(["check", "type-preservation", "--trials", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_init_db_emit_only(self, capsys):
        assert main(["init-db", "--emit-only"]) == 0
        out = capsys.readouterr().out
        assert 'CREATE TABLE "departments"' in out
