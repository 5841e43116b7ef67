"""The three workloads: inputs derived from the workload seed, set-up, and
the op stream with its references.

- `adhoc`: one-off provenance queries, each compiled and run by
  `pipeline.run`; compile-bound.
- `nested`: fixed reports with nested results, compiled once in set-up and
  executed by `PlanExecutor`; execution-bound (one statement per outer row).
- `audit`: prepared flat reads interleaved with writes sent through
  `sqlbackend.apply_update`; every read must see every earlier write.
"""

from __future__ import annotations

import random
import re
import sqlite3
from dataclasses import dataclass, field
from typing import Iterator

from provql import pipeline, sqlbackend, suites
from provql.database import Database
from provql.interp import eval_big
from provql.parser import parse_expr
from provql.sqlbackend import bench_schema_rows, generate_benchmark_data, load_database
from provql.typecheck import Mode

from .harness import QUERY, WRITE, Op
from .reference import nested_references

MODES = {
    "allprov": Mode.WHERE,
    "someprov": Mode.WHERE,
    "noprov": Mode.PLAIN,
    "lineage": Mode.LINEAGE,
    "nolineage": Mode.PLAIN,
}
WHERE_VARIANTS = ("allprov", "someprov", "noprov")
LINEAGE_VARIANTS = ("lineage", "nolineage")

# The generator draws 50-150 employees per department and 0-2 tasks per
# employee, so row counts at one department count differ by ~10% between
# data seeds, and op times with them.  Data seeds are drawn from the
# workload seed until both counts lie within this share of their mean, so
# seeds vary the data's content but not its size.
SIZE_TOLERANCE = 0.01


def program_text(query: str, variant: str) -> str:
    suite = suites.WHERE_SUITE if variant in WHERE_VARIANTS else suites.LINEAGE_SUITE
    return suite[query][variant]


def data_seed(departments: int, seed_text: str) -> int:
    """The first data seed, drawn from `seed_text`, whose database has
    100 employees and 100 tasks per department, within `SIZE_TOLERANCE`."""
    rng = random.Random(seed_text)
    target = 100 * departments
    while True:
        candidate = rng.randrange(2**31)
        db = generate_benchmark_data(departments, candidate)
        n_emp = len(db.get("employees").rows)
        n_task = len(db.get("tasks").rows)
        if abs(n_emp - target) <= SIZE_TOLERANCE * target and abs(n_task - target) <= SIZE_TOLERANCE * target:
            return candidate


def table_sizes(db: Database) -> dict[str, int]:
    return {name: len(td.rows) for name, td in sorted(db.tables.items())}


@dataclass
class State:
    db: Database
    conn: object  # a sqlite3 connection, or its traced proxy
    plans: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    mirror: Database | None = None

    def close(self) -> None:
        self.conn.close()


def _load(departments: int, seed: int) -> State:
    db = generate_benchmark_data(departments, seed)
    conn = sqlite3.connect(":memory:")
    load_database(conn, db)
    return State(db, conn)


def _compile(text: str, mode: Mode):
    return pipeline.normalized_query(pipeline.prepare(text, mode))


def _run_plan(state: State, key: tuple[str, str]):
    """The op for a program compiled in set-up: execute and canonicalize."""
    nq, mode = state.plans[key], MODES[key[1]]
    return lambda: pipeline.comparable(sqlbackend.PlanExecutor(state.conn).run(nq), mode)


def _interp_check(db: Database, text: str, mode: Mode):
    """A check against the interpreter on `db` as it is when the check runs."""

    def check(out) -> bool:
        prepared = pipeline.prepare(text, mode)
        return out == pipeline.comparable(pipeline.run_interp(db, prepared), mode)

    return check


class Workload:
    name: str
    departments: int

    def __init__(self, departments: int | None = None):
        self.departments = departments or self.departments

    def inputs(self, seed: int) -> dict:
        data = data_seed(self.departments, f"{self.name}/{seed}/data")
        return {"data_seed": data, "seed": seed}

    def ops_rng(self, inputs: dict) -> random.Random:
        return random.Random(f"{self.name}/{inputs['seed']}/ops")


# ---------------------------------------------------------------------------
# adhoc


def _edit(body: str, pattern: str, repl: str, count: int) -> str:
    out, n = re.subn(pattern, repl, body)
    if n != count:
        raise ValueError(f"template edit {pattern!r} matched {n} times, expected {count}")
    return out


def _template(query: str, variant: str, edits: list[tuple[str, str, int]]) -> str:
    """A suite program whose literals are replaced by format slots.  Only
    the query body after the shared declarations and helpers is edited."""
    text = program_text(query, variant)
    decls = suites.BENCH_DECLS_PLAIN + suites.HELPERS_PLAIN
    if variant in ("allprov", "someprov"):
        decls = suites.BENCH_DECLS_WHERE + suites.HELPERS_WHERE
    if not text.startswith(decls):
        raise ValueError(f"{query}[{variant}] does not start with the shared helpers")
    body = text[len(decls):].replace("{", "{{").replace("}", "}}")
    for pattern, repl, count in edits:
        body = _edit(body, pattern, repl, count)
    return decls.replace("{", "{{").replace("}", "}}") + body


def _salary(variant: str, var: str) -> str:
    return f"(data {var}.salary)" if variant in ("allprov", "someprov") else f"{var}.salary"


_OUTLIERS = [(r"> 1000000\b", "> {hi}", 1), (r"< 1000\b", "< {lo}", 1)]


def adhoc_templates() -> dict[tuple[str, str], str]:
    """Q2/Q4/Q6 in the where variants and AQ6/Q4/Q6N/Q7/QF4 in the lineage
    variants, with literals drawn per op: a task name, a salary cut and the
    two outlier thresholds.  Statement counts do not depend on the data."""
    out = {}
    for v in WHERE_VARIANTS:
        s = _salary(v, "e")
        out[("Q2", v)] = _template(
            "Q2", v, [(r'"abstract"', '"{task}"', 1), (r"where \(not\(", f"where ({s} < {{cut}} && not(", 1)]
        )
        eq = r"where \(\(data d\.name\) == \(data e\.dept\)\)" if v != "noprov" else r"where \(d\.name == e\.dept\)"
        cond = "(data d.name) == (data e.dept)" if v != "noprov" else "d.name == e.dept"
        out[("Q4", v)] = _template("Q4", v, [(eq, f"where ({cond} && {s} > {{cut}})", 1)])
        out[("Q6", v)] = _template("Q6", v, _OUTLIERS)
    for v in LINEAGE_VARIANTS:
        out[("AQ6", v)] = _template("AQ6", v, _OUTLIERS)
        out[("Q4", v)] = _template(
            "Q4", v, [(r"where \(d\.name == e\.dept\)", "where (d.name == e.dept && e.salary > {cut})", 1)]
        )
        out[("Q6N", v)] = _template("Q6N", v, _OUTLIERS)
        out[("Q7", v)] = _template("Q7", v, _OUTLIERS)
        out[("QF4", v)] = _template(
            "QF4", v, [(r'"abstract"', '"{task}"', 1), (r"> 50000\b", "> {cut}", 1)]
        )
    return out


# The interpreter takes seconds on the templates built on qOrg (Q2, Q6) at
# this size and tens of milliseconds on the rest, so it checks a seeded
# sample: one op in CHECK_EVERY of each kind.
ADHOC_CHECK_EVERY = {"Q2": 32, "Q6": 32}
ADHOC_CHECK_EVERY_DEFAULT = 6


class Adhoc(Workload):
    name = "adhoc"
    departments = 4

    def setup(self, inputs: dict) -> State:
        return _load(self.departments, inputs["data_seed"])

    def rounds(self, state: State, inputs: dict) -> Iterator[list[Op]]:
        rng = self.ops_rng(inputs)
        templates = adhoc_templates()
        keys = sorted(templates)
        seen: set[str] = set()
        while True:
            rng.shuffle(keys)
            ops = []
            for query, variant in keys:
                text = self._draw(rng, templates[(query, variant)], seen)
                mode = MODES[variant]
                every = ADHOC_CHECK_EVERY.get(query, ADHOC_CHECK_EVERY_DEFAULT)
                check = _interp_check(state.db, text, mode) if rng.randrange(every) == 0 else None
                ops.append(Op(QUERY, f"{query}[{variant}]", self._op(state, text, mode), check))
            yield ops

    @staticmethod
    def _draw(rng: random.Random, template: str, seen: set[str]) -> str:
        while True:
            text = template.format(
                task=rng.choice(sqlbackend.TASK_NAMES),
                cut=rng.randrange(1_000, 120_001),
                lo=rng.randrange(600, 5_000),
                hi=rng.randrange(1_000_000, 1_900_000),
            )
            if text not in seen:
                seen.add(text)
                return text

    @staticmethod
    def _op(state: State, text: str, mode: Mode):
        return lambda: pipeline.run(text, pipeline.RunConfig(mode, engine="sql"), conn=state.conn).value


# ---------------------------------------------------------------------------
# nested

NESTED_PROGRAMS = [(q, v) for q in ("Q1", "Q3", "Q5") for v in WHERE_VARIANTS] + [
    (q, v) for q in ("Q3", "Q5") for v in LINEAGE_VARIANTS
]


class Nested(Workload):
    name = "nested"
    departments = 8

    def setup(self, inputs: dict) -> State:
        state = _load(self.departments, inputs["data_seed"])
        state.plans = {k: _compile(program_text(*k), MODES[k[1]]) for k in NESTED_PROGRAMS}
        state.references = nested_references(state.db)
        return state

    def rounds(self, state: State, inputs: dict) -> Iterator[list[Op]]:
        rng = self.ops_rng(inputs)
        keys = list(NESTED_PROGRAMS)
        while True:
            rng.shuffle(keys)
            yield [
                Op(QUERY, f"{q}[{v}]", _run_plan(state, (q, v)), self._check(state, (q, v)))
                for q, v in keys
            ]

    @staticmethod
    def _check(state: State, key: tuple[str, str]):
        return lambda out: out == state.references[key]


# ---------------------------------------------------------------------------
# audit

AUDIT_READS = [("QF4", "lineage"), ("Q7", "lineage"), ("Q4", "allprov"), ("AQ6", "lineage")]
# Reads per round.  With the four reads once each, the median would fall
# exactly between the second- and third-cheapest read, at a gap in the
# distribution, and read the extremes of both; QF4 (the read both kinds of
# write change) runs twice, which puts the p50 inside its times.
AUDIT_ROUND_READS = AUDIT_READS + [("QF4", "lineage")]
# Reads checked against the interpreter: a seeded one in this many.
AUDIT_CHECK_EVERY = 32

_EMPLOYEES = 'table "employees" with (oid: Int, dept: String, name: String, salary: Int) where oid readonly'
_TASKS = 'table "tasks" with (oid: Int, employee: String, task: String) where oid readonly'
_OUTLIER_SALARIES = [500, 900, 1_500_000, 2_000_000]
# Inserted "abstract" tasks awaiting their delete; the stream deletes once
# this many are live, so the tasks table stays within this many rows.
_TASK_POOL = 4


def _is_outlier(salary: int) -> bool:
    return salary > 1_000_000 or salary < 1_000


class Audit(Workload):
    name = "audit"
    departments = 4

    def setup(self, inputs: dict) -> State:
        state = _load(self.departments, inputs["data_seed"])
        state.plans = {k: _compile(program_text(*k), MODES[k[1]]) for k in AUDIT_READS}
        state.mirror = state.db.copy()
        return state

    def rounds(self, state: State, inputs: dict) -> Iterator[list[Op]]:
        """Each round: the reads and two writes in a seeded order.  One
        write moves a salary across the outlier thresholds, the other inserts
        or deletes an "abstract" task; both keep table sizes level."""
        rng = self.ops_rng(inputs)
        salaries = {e["name"]: e["salary"] for e in state.db.get("employees").rows}
        names = sorted(salaries)
        target = sum(map(_is_outlier, salaries.values()))
        next_oid = state.db.get("tasks").next_oid
        pool: list[int] = []
        while True:
            ops = [self._read(state, key, rng.randrange(AUDIT_CHECK_EVERY) == 0) for key in AUDIT_ROUND_READS]
            outliers = [n for n in names if _is_outlier(salaries[n])]
            make = len(outliers) < target or (len(outliers) == target and rng.random() < 0.5)
            if make:
                name = rng.choice([n for n in names if not _is_outlier(salaries[n])])
                salaries[name] = rng.choice(_OUTLIER_SALARIES)
            else:
                name = rng.choice(outliers)
                salaries[name] = rng.randrange(1_000, 120_001, 400)
            stmts = [f'update (x <-- {_EMPLOYEES}) where (x.name == "{name}") set (salary = {salaries[name]})']
            if pool and (len(pool) >= _TASK_POOL or rng.random() < 0.5):
                oid = pool.pop(rng.randrange(len(pool)))
                stmts.append(f"delete (x <-- {_TASKS}) where (x.oid == {oid})")
            else:
                pool.append(next_oid)
                next_oid += 1
                stmts.append(f'insert ({_TASKS}) values [(employee = "{rng.choice(names)}", task = "abstract")]')
            ops += [self._write(state, parse_expr(s), s.split()[0]) for s in stmts]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def _read(state: State, key: tuple[str, str], checked: bool) -> Op:
        check = _interp_check(state.mirror, program_text(*key), MODES[key[1]]) if checked else None
        return Op(QUERY, f"{key[0]}[{key[1]}]", _run_plan(state, key), check)

    @staticmethod
    def _write(state: State, stmt, label: str) -> Op:
        def check(_out) -> bool:
            # the mirror follows every write that succeeded; the module-level
            # eval_big is bound before any tracing wraps provql.interp
            eval_big(state.mirror, stmt, Mode.PLAIN)
            return True

        schema = bench_schema_rows()
        return Op(WRITE, label, lambda: sqlbackend.apply_update(state.conn, stmt, schema), check)


WORKLOADS = {w.name: w for w in (Adhoc, Nested, Audit)}
