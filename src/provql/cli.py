"""Command-line driver.

Subcommands: run, translate, normalize, sql, init-db, gen-data, bench,
check.  The database is a SQLite file (or :memory:) named by --db or the
PROVQL_DB environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys

from . import bench as bench_mod
from . import pipeline
from .errors import ProvqlError
from .parser import parse_program, pretty_print, pretty_print_program
from .sqlbackend import (
    BENCH_SCHEMA,
    generate_benchmark_data,
    load_database,
    read_database,
    plan_sql,
    schema_ddl,
)
from .typecheck import Mode
from . import values as V
from . import syntax as S


def _dsn(args) -> str:
    return args.db or os.environ.get("PROVQL_DB") or ":memory:"


def _read_program(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _out(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_run(args) -> int:
    text = _read_program(args.program)
    mode = Mode(args.mode)
    cfg = pipeline.RunConfig(
        mode=mode,
        engine=args.engine,
        repetitions=args.reps,
        emit_translated=args.emit_translated,
        emit_normal=args.emit_normal,
        emit_sql=args.emit_sql,
        explain=args.explain,
    )
    conn = None
    dsn = _dsn(args)
    if dsn != ":memory:" and os.path.exists(dsn):
        conn = sqlite3.connect(dsn)
        prog = parse_program(text)
        schemas = pipeline.table_schemas(prog)
        db = read_database(conn, schemas)
    else:
        # no database given: fall back to the bundled tours example data
        from .suites import tours_db

        db = tours_db()
    if args.trace:
        _trace_run(text, mode, db)
        return 0
    result = pipeline.run(text, cfg, db=db, conn=conn)
    reps = len(result.timings_ms)
    print(f"-- execution: {reps} run(s), median {result.median_ms:.3f} ms", file=sys.stderr)
    for key in ("translated", "normal", "sql"):
        if key in result.outputs:
            _out(args, f"-- {key} --\n{result.outputs[key]}")
    if "explain" in result.outputs:
        for stmt, n in zip(result.outputs["explain"], result.outputs["explain_rows"]):
            _out(args, f"-- plan ({n} row{'' if n == 1 else 's'}) --\n{stmt}")
    if result.value is not None:
        if args.csv:
            _out(args, V.to_csv(result.value))
        else:
            _out(args, V.render(result.value))
    return 0


def _trace_run(text: str, mode: Mode, db) -> None:
    from .interp import evaluate

    prepared = pipeline.prepare(text, mode)
    eval_mode = Mode.WHERE if mode is Mode.WHERE else Mode.PLAIN

    def trace(rule: str, redex: S.Expr) -> None:
        shown = pretty_print(redex)
        if len(shown) > 120:
            shown = shown[:117] + "..."
        print(f"{rule}: {shown}")

    _, v = evaluate(db.copy(), prepared.source.as_expr(), eval_mode, trace=trace)
    print(V.render(pipeline.comparable(v, mode)))


def cmd_translate(args) -> int:
    text = _read_program(args.program)
    prepared = pipeline.prepare(text, Mode(args.mode))
    _out(args, pretty_print_program(prepared.translated))
    return 0


def cmd_normalize(args) -> int:
    text = _read_program(args.program)
    prepared = pipeline.prepare(text, Mode(args.mode))
    nq = pipeline.normalized_query(prepared)
    from .normalize import render_back

    _out(args, pretty_print(render_back(nq)))
    return 0


def cmd_sql(args) -> int:
    text = _read_program(args.program)
    prepared = pipeline.prepare(text, Mode(args.mode))
    nq = pipeline.normalized_query(prepared)
    _out(args, plan_sql(nq))
    return 0


def cmd_init_db(args) -> int:
    from .database import Database

    db = Database()
    for name, cols in BENCH_SCHEMA.items():
        db.create_table(name, cols)
    ddl = schema_ddl(db)
    if args.emit_only:
        _out(args, ";\n".join(ddl) + ";")
        return 0
    conn = sqlite3.connect(_dsn(args))
    load_database(conn, db)
    conn.close()
    return 0


def cmd_gen_data(args) -> int:
    dsn = _dsn(args)
    db = generate_benchmark_data(args.departments, args.seed, args.employees)
    if dsn != ":memory:" and os.path.exists(dsn):
        os.unlink(dsn)
    conn = sqlite3.connect(dsn)
    load_database(conn, db)
    conn.close()
    sizes = {n: len(t.rows) for n, t in db.tables.items()}
    _out(args, json.dumps({"dsn": dsn, "rows": sizes}))
    return 0


def cmd_bench(args) -> int:
    report = bench_mod.bench_suite(
        sizes=args.sizes,
        suite=args.suite,
        reps=args.reps,
        seed=args.seed,
        budget_s=args.budget,
    )
    if args.format == "csv":
        _out(args, report.to_csv())
    else:
        _out(args, report.to_jsonl())
    if args.suite == "where":
        pairs = [("allprov", "noprov")]
    else:
        pairs = [("lineage", "nolineage")]
    for query in sorted({r.query for r in report.rows}):
        for loaded, base in pairs:
            g = report.geomean_slowdown(query, loaded, base)
            if g is not None:
                _out(args, f"# {query}: geometric-mean slowdown {loaded}/{base} = {g:.2f}")
    return 0


def cmd_check(args) -> int:
    which = args.harness
    if which == "cso":
        report = bench_mod.cso_monotonicity(trials=args.trials, seed=args.seed)
    elif which == "lineage-correctness":
        report = bench_mod.lineage_correctness(seed=args.seed)
    elif which == "type-preservation":
        report = bench_mod.type_preservation(trials=args.trials, seed=args.seed)
        extra = bench_mod.erasure_identities(trials=args.trials, seed=args.seed)
        report.checks += extra.checks
        report.violations.extend(extra.violations)
    elif which == "step-restriction":
        report = bench_mod.step_restriction(trials=args.trials, seed=args.seed)
    elif which == "engines":
        report = bench_mod.engine_equivalence(generated=args.trials, seed=args.seed)
    elif which == "updates":
        report = bench_mod.update_equivalence(scripts=args.trials, seed=args.seed)
    else:
        raise ProvqlError(f"unknown harness {which!r}")
    _out(args, report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="provql")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, program=True):
        if program:
            sp.add_argument("program", help="path to a .pql source file")
            sp.add_argument("--mode", choices=["plain", "where", "lineage"], default="plain")
        sp.add_argument("--db", default=None, help="SQLite database file (or $PROVQL_DB)")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("run", help="run a program")
    add_common(sp)
    sp.add_argument("--engine", choices=["interpret", "sql", "both"], default="interpret")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--emit-translated", action="store_true")
    sp.add_argument("--emit-normal", action="store_true")
    sp.add_argument("--emit-sql", action="store_true")
    sp.add_argument("--explain", action="store_true")
    sp.add_argument("--trace", action="store_true", help="print one line per reduction")
    sp.add_argument("--csv", action="store_true", help="emit flat results as CSV")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("translate", help="emit the plain translation")
    add_common(sp)
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("normalize", help="emit the normal form")
    add_common(sp)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("sql", help="emit SQL for the main query")
    add_common(sp)
    sp.set_defaults(fn=cmd_sql)

    sp = sub.add_parser("init-db", help="create the benchmark schema")
    add_common(sp, program=False)
    sp.add_argument("--emit-only", action="store_true", help="print DDL instead")
    sp.set_defaults(fn=cmd_init_db)

    sp = sub.add_parser("gen-data", help="generate benchmark data")
    add_common(sp, program=False)
    sp.add_argument("--departments", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--employees", type=int, default=100, help="mean employees per department")
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("bench", help="run a benchmark suite")
    add_common(sp, program=False)
    sp.add_argument("--suite", choices=["where", "lineage"], default="where")
    sp.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16, 32, 64])
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=float, default=120.0, help="per-query time budget (s)")
    sp.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("check", help="run a theorem-checking harness")
    add_common(sp, program=False)
    sp.add_argument(
        "harness",
        choices=[
            "cso",
            "lineage-correctness",
            "type-preservation",
            "step-restriction",
            "engines",
            "updates",
        ],
    )
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProvqlError as exc:
        filename = getattr(args, "program", None) or "<input>"
        source = None
        if filename != "<input>" and os.path.exists(filename):
            with open(filename, "r", encoding="utf-8") as fh:
                source = fh.read()
        print(exc.render(filename, source), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
