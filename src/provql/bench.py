"""Benchmark suites and property-theorem harnesses.

Everything here reports rather than asserts; the acceptance tests assert
on the returned reports.
"""

from __future__ import annotations

import json
import math
import sqlite3
import time
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from . import analysis, pipeline, suites
from .database import Database
from .errors import ProvqlError
from .interp import MachineState, Done, d2a, eval_big, step_info
from .lineage_trans import doubled_type, lineage_type
from .progen import ProgGen
from .sqlbackend import (
    PlanExecutor,
    apply_update,
    bench_schema_rows,
    generate_benchmark_data,
    load_database,
)
from .typecheck import Mode, erase_row, augment_row, typecheck_program
from .where_trans import w_type
from . import syntax as S
from . import values as V


def _tiny_tours() -> Database:
    db = suites.tours_db()
    db.tables["Agencies"].rows = db.tables["Agencies"].rows[:2]
    db.tables["ExternalTours"].rows = db.tables["ExternalTours"].rows[:3]
    return db


# ---------------------------------------------------------------------------
# Theorem harnesses


@dataclass
class HarnessReport:
    name: str
    trials: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "trials": self.trials,
                "checks": self.checks,
                "violations": self.violations[:20],
                "ok": self.ok,
            }
        )


def cso_monotonicity(trials: int = 1000, seed: int = 0) -> HarnessReport:
    """Evaluation in where mode never invents annotated values: for every
    step, the colored subobjects only shrink."""
    report = HarnessReport("cso-monotonicity")
    base_db = _tiny_tours()
    for i in range(trials):
        gen = ProgGen(seed * 100_003 + i, Mode.WHERE, max_depth=4)
        prog, main = gen.pure_where_term()
        try:
            typecheck_program(prog, Mode.WHERE)
        except ProvqlError:
            report.skipped += 1
            continue
        db = base_db.copy()
        state = MachineState(db, main, Mode.WHERE)
        before = analysis.cso(db, state.focus)
        steps = 0
        while steps < 50_000:
            out = step_info(state)
            if isinstance(out, Done):
                break
            state, rule, _redex = out
            after = analysis.cso(state.db, state.focus)
            report.checks += 1
            if not after <= before:
                extra = after - before
                report.violations.append(
                    f"trial {i}: rule {rule} invented {sorted(map(str, extra))[:3]}"
                )
                break
            before = after
            steps += 1
        report.trials += 1
    return report


def step_restriction(trials: int = 200, seed: int = 0) -> HarnessReport:
    """Per-step lineage restriction: each lineage step either disappears
    under restriction or remains a valid step of the restricted state.

    Terms are compared modulo concat unit laws: restricting a dead
    annotation yields [] in one chunk, while stepping first distributes it,
    leaving neutral [] ++ [] shapes behind.
    """
    from .interp import annotate_term

    report = HarnessReport("lineage-step-restriction")
    base_db = _tiny_tours()
    for i in range(trials):
        gen = ProgGen(seed * 99_991 + i, Mode.LINEAGE, max_depth=4)
        prog = gen.program()
        try:
            typecheck_program(prog, Mode.LINEAGE)
        except ProvqlError:
            report.skipped += 1
            continue
        body = pipeline.query_expr(prog)
        db = base_db.copy()
        rng = Random(i)
        state = MachineState(db, annotate_term(body), Mode.LINEAGE)
        all_colors = sorted(analysis.collect(state.focus, db), key=V.color_sort_key)
        steps = 0
        while steps < 2_000:
            out = step_info(state)
            if isinstance(out, Done):
                break
            new_state, rule, _ = out
            # sample a random color set c and check the restricted step
            k = rng.randint(0, len(all_colors))
            c = frozenset(rng.sample(all_colors, k))
            m_r = analysis.restrict(state.focus, c)
            n_r = analysis.restrict(new_state.focus, c)
            report.checks += 1
            if _prune_units(m_r) != _prune_units(n_r):
                db_r = analysis.restrict_db(state.db, c)
                stepped = step_info(MachineState(db_r, m_r, Mode.LINEAGE))
                ok = (not isinstance(stepped, Done)) and _prune_units(
                    stepped[0].focus
                ) == _prune_units(n_r)
                if not ok:
                    report.violations.append(
                        f"trial {i}: rule {rule} does not commute with restriction"
                    )
                    break
            state = new_state
            steps += 1
        report.trials += 1
    return report


def _is_empty_form(e: S.Expr) -> bool:
    return isinstance(e, S.EmptyList) or (
        isinstance(e, S.ValueLit) and e.value == V.VAnnList(())
    )


def _prune_units(e: S.Expr) -> S.Expr:
    """Quotient by the concat unit laws ([] ++ M = M = M ++ [])."""
    if isinstance(e, S.Concat):
        left = _prune_units(e.left)
        right = _prune_units(e.right)
        if _is_empty_form(left):
            return right
        if _is_empty_form(right):
            return left
        return S.Concat(left, right)
    if _is_empty_form(e):
        return S.EmptyList()
    return S.map_children(e, _prune_units)


def lineage_correctness_query(
    text: str,
    db: Database,
    conn,
    seed: int = 0,
    samples: int = 64,
) -> tuple[int, list[str]]:
    """Full lineage correctness for one query on one database: every sampled
    sublist of the annotated output is reproduced when the query re-runs on
    the database restricted to that sublist's colors."""
    prepared = pipeline.prepare(text, Mode.LINEAGE)
    fast = pipeline.run_sql(conn, prepared)
    v_hat = d2a(fast)
    body = pipeline.query_expr(prepared.source)
    checks = 0
    violations: list[str] = []
    for j, p_hat in enumerate(
        analysis.sample_sublists(v_hat, seed=seed, samples=samples)
    ):
        colors = analysis.collect(p_hat)
        restricted = analysis.restrict_db(db, colors)
        _, v_prime = eval_big(restricted, body, Mode.LINEAGE)
        checks += 1
        if not analysis.sublist(p_hat, v_prime):
            violations.append(f"sublist {j} not contained after restriction")
    return checks, violations


def lineage_correctness(sizes=(4, 8, 16), seed: int = 0, samples: int = 64) -> HarnessReport:
    report = HarnessReport("lineage-correctness")
    for size in sizes:
        db = generate_benchmark_data(size, seed)
        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        for name in sorted(suites.LINEAGE_SUITE):
            text = suites.LINEAGE_SUITE[name]["lineage"]
            checks, violations = lineage_correctness_query(
                text, db, conn, seed=seed + size, samples=samples
            )
            report.trials += 1
            report.checks += checks
            report.violations.extend(f"{name}@{size}: {v}" for v in violations)
        conn.close()
    return report


def type_preservation(trials: int = 1000, seed: int = 0) -> HarnessReport:
    """Translated programs re-typecheck at the translated type, in both
    the where and the lineage translation."""
    from .where_trans import w_translate_program
    from .lineage_trans import d_translate_program

    report = HarnessReport("type-preservation")
    for i in range(trials):
        genw = ProgGen(seed * 7_919 + i, Mode.WHERE, max_depth=4)
        progw = genw.program()
        checkedw = typecheck_program(progw, Mode.WHERE)
        transw = w_translate_program(progw)
        tw = typecheck_program(transw, Mode.PLAIN)
        report.checks += 1
        if tw.main.ty != w_type(checkedw.main.ty):
            report.violations.append(
                f"where trial {i}: {tw.main.ty} != {w_type(checkedw.main.ty)}"
            )
        genl = ProgGen(seed * 104_729 + i, Mode.LINEAGE, max_depth=4)
        progl = genl.program()
        checkedl = typecheck_program(progl, Mode.LINEAGE)
        transl = d_translate_program(progl, checkedl)
        tl = typecheck_program(transl, Mode.PLAIN)
        report.checks += 1
        if tl.main.ty != doubled_type(checkedl.main.ty):
            report.violations.append(
                f"lineage trial {i}: {tl.main.ty} != {doubled_type(checkedl.main.ty)}"
            )
        report.trials += 1
    return report


def erasure_identities(trials: int = 1000, seed: int = 0) -> HarnessReport:
    """Erasure/augmentation identities and the doubling/lineage type identity
    over generated rows, specs, and query types."""
    report = HarnessReport("erasure-identities")
    rng = Random(seed)
    for i in range(trials):
        row = _random_base_row(rng)
        spec = _random_spec(rng, row)
        augmented = augment_row(row, spec)
        report.checks += 2
        if erase_row(augmented) != row:
            report.violations.append(f"trial {i}: erase(augment) != id")
        if w_type(S.RecordType(erase_row(augmented))) != S.RecordType(row):
            report.violations.append(f"trial {i}: translate(erase) != id")
        # Doubling is the identity on query types, so it also fixes every
        # lineage-translated type (the form the translation proof uses).
        qt = _random_qtype(rng, 3)
        report.checks += 2
        if doubled_type(qt) != qt:
            report.violations.append(f"trial {i}: doubling not identity on {qt}")
        lt = lineage_type(qt)
        if doubled_type(lt) != lt:
            report.violations.append(f"trial {i}: doubling not identity on {lt}")
        report.trials += 1
    return report


def _random_base_row(rng: Random) -> S.Row:
    n = rng.randint(1, 5)
    labels = rng.sample(["a", "b", "c", "d", "e", "f"], n)
    return S.make_row(
        [(l, rng.choice([S.INT, S.BOOL, S.STRING])) for l in labels]
        + [("oid", S.INT)]
    )


def _random_spec(rng: Random, row: S.Row) -> S.ProvSpec:
    entries = []
    for label, _ in row:
        if label != "oid" and rng.random() < 0.5:
            entries.append(S.ProvSpecEntry(label, None))
    return S.ProvSpec(tuple(entries))


def _random_qtype(rng: Random, depth: int) -> S.Type:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([S.INT, S.BOOL, S.STRING])
    if rng.random() < 0.5:
        return S.ListType(_random_qtype(rng, depth - 1))
    n = rng.randint(1, 3)
    return S.record_type(
        {f"l{i}": _random_qtype(rng, depth - 1) for i in range(n)}
    )


def engine_equivalence(
    generated: int = 500, seed: int = 0, departments: int = 2, emp_mean: int = 6
) -> HarnessReport:
    """Flat queries produce identical multisets on the interpreter and the
    SQL backend, in all three modes."""
    report = HarnessReport("engine-equivalence")
    tours = suites.tours_db()
    tours_conn = sqlite3.connect(":memory:")
    load_database(tours_conn, tours)
    bench_db = generate_benchmark_data(departments, seed, emp_mean)
    bench_conn = sqlite3.connect(":memory:")
    load_database(bench_conn, bench_db)

    def check(name, mode, text, db, conn):
        prepared = pipeline.prepare(text, mode)
        vi = pipeline.comparable(pipeline.run_interp(db, prepared), mode)
        vs = pipeline.comparable(pipeline.run_sql(conn, prepared), mode)
        report.checks += 1
        if vi != vs:
            report.violations.append(f"{name}: engines disagree")

    for name, mode_name, text in suites.FLAT_QUERIES:
        mode = Mode(mode_name)
        db, conn = (tours, tours_conn) if name.startswith("boat") else (bench_db, bench_conn)
        check(name, mode, text, db, conn)
        report.trials += 1

    from .parser import pretty_print_program

    per_mode = generated // 3
    tiny = _tiny_tours()
    tiny_conn = sqlite3.connect(":memory:")
    load_database(tiny_conn, tiny)
    for mode in (Mode.PLAIN, Mode.WHERE, Mode.LINEAGE):
        for i in range(per_mode + (generated - 3 * per_mode if mode is Mode.PLAIN else 0)):
            gen = ProgGen(seed * 31 + i * 3 + 1, mode, max_depth=4)
            prog = gen.program(flat=True)
            typecheck_program(prog, mode)
            # round-trip through concrete syntax on the way in
            text = pretty_print_program(prog)
            check(f"gen-{mode.value}-{i}", mode, text, tiny, tiny_conn)
            report.trials += 1
    tours_conn.close()
    bench_conn.close()
    tiny_conn.close()
    return report


def update_equivalence(scripts: int = 50, seed: int = 0) -> HarnessReport:
    """Randomized update scripts agree row-for-row (including assigned oids)
    between the interpreter semantics and the SQL translation."""
    report = HarnessReport("update-equivalence")
    schema = bench_schema_rows()
    for i in range(scripts):
        rng_seed = seed * 37 + i
        db = generate_benchmark_data(1, rng_seed, employees_per_dept=4)
        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        gen = ProgGen(rng_seed, Mode.PLAIN)
        stmts = gen.update_script(schema)
        idb = db.copy()
        ok = True
        for stmt in stmts:
            eval_big(idb, stmt, Mode.PLAIN)
            apply_update(conn, stmt, schema)
        from .sqlbackend import read_database

        sdb = read_database(conn, schema)
        for name in schema:
            a = sorted(idb.get(name).rows, key=lambda r: r["oid"])
            b = sorted(sdb.get(name).rows, key=lambda r: r["oid"])
            if a != b:
                ok = False
                report.violations.append(f"script {i}: table {name} diverged")
                break
        report.trials += 1
        report.checks += len(stmts)
        conn.close()
    return report


# ---------------------------------------------------------------------------
# Benchmarks


@dataclass
class BenchRow:
    query: str
    variant: str
    size: int
    median_ms: float
    runs: int
    rows: int
    skipped: bool = False
    translate_ms: float = 0.0  # parse+translate+normalize, reported separately
    times: list = field(default_factory=list)  # raw per-round times (ms)


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def _row(self, query: str, variant: str, size: int) -> Optional[BenchRow]:
        for r in self.rows:
            if (r.query, r.variant, r.size) == (query, variant, size) and not r.skipped:
                return r
        return None

    def paired_ratio(self, query: str, loaded: str, baseline: str, size: int) -> Optional[float]:
        """Median of per-round ratios; rounds are interleaved, so load
        drift cancels out of the pairing."""
        a = self._row(query, loaded, size)
        b = self._row(query, baseline, size)
        if a is None or b is None or not a.times or not b.times:
            return None
        n = min(len(a.times), len(b.times))
        ratios = sorted(a.times[i] / b.times[i] for i in range(n) if b.times[i] > 0)
        return ratios[len(ratios) // 2] if ratios else None

    def slowdowns(self, query: str, loaded: str, baseline: str) -> list[float]:
        out = []
        for size in sorted({r.size for r in self.rows if r.query == query}):
            ratio = self.paired_ratio(query, loaded, baseline, size)
            if ratio is not None and ratio > 0:
                out.append(ratio)
        return out

    def slope_diff(self, query: str, loaded: str, baseline: str) -> Optional[float]:
        """Magnitude of the slope of log(paired ratio) against log(size):
        zero when both variants scale identically."""
        pts = []
        for size in sorted({r.size for r in self.rows if r.query == query}):
            ratio = self.paired_ratio(query, loaded, baseline, size)
            if ratio is not None and ratio > 0:
                pts.append((math.log(size), math.log(ratio)))
        if len(pts) < 2:
            return None
        n = len(pts)
        mx = sum(x for x, _ in pts) / n
        my = sum(y for _, y in pts) / n
        denom = sum((x - mx) ** 2 for x, _ in pts)
        if denom == 0:
            return None
        return abs(sum((x - mx) * (y - my) for x, y in pts) / denom)

    def geomean_slowdown(self, query: str, loaded: str, baseline: str) -> Optional[float]:
        xs = self.slowdowns(query, loaded, baseline)
        if not xs:
            return None
        return math.exp(sum(math.log(x) for x in xs) / len(xs))

    def to_csv(self) -> str:
        lines = ["query,variant,size,median_ms,runs,rows,skipped,translate_ms"]
        for r in self.rows:
            lines.append(
                f"{r.query},{r.variant},{r.size},{r.median_ms:.3f},{r.runs},{r.rows},"
                f"{int(r.skipped)},{r.translate_ms:.3f}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        out = []
        for r in self.rows:
            d = {k: v for k, v in vars(r).items() if k != "times"}
            out.append(json.dumps(d))
        return "\n".join(out) + "\n"


def _time_variants(
    conn, plans: dict[str, object], reps: int, budget_s: float
) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Timed runs with the variants interleaved round-robin, so load drift
    during measurement affects every variant equally.

    Each timed run executes with the cyclic garbage collector paused, as
    `timeit` does, and the collector's previous state is restored afterwards
    even if the run raises.  A full collection's cost follows the live heap
    and allocation history rather than the query's work, and provenance
    variants allocate more containers per output row, so pauses landing
    inside the clock would tilt the paired ratios with size.  Garbage is
    collected between rounds instead, outside the clock.
    """
    import gc

    times: dict[str, list[float]] = {v: [] for v in plans}
    nrows: dict[str, int] = {}
    # one untimed warmup levels first-touch costs, and collecting before the
    # timed runs keeps earlier queries' garbage out of these measurements;
    # the timed runs themselves pause the collector, so its passes fall
    # between runs rather than inside the clock
    for v, nq in plans.items():
        nrows[v] = len(PlanExecutor(conn).run(nq).items)
    gc.collect()
    start = time.perf_counter()
    # At least `reps` rounds (budget permitting); fast queries get extra
    # rounds so medians are stable enough for the slope fits.
    max_reps = max(reps, 41)
    for i in range(max_reps):
        for v, nq in plans.items():
            ex = PlanExecutor(conn)
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = ex.run(nq)
                times[v].append((time.perf_counter() - t0) * 1000.0)
            finally:
                if gc_was_enabled:
                    gc.enable()
            nrows[v] = len(out.items)
        elapsed = time.perf_counter() - start
        if elapsed > budget_s:
            break
        if i + 1 >= reps and elapsed > 1.0 * len(plans):
            break
    return times, nrows


def bench_suite(
    sizes=(4, 8, 16, 32, 64),
    suite: str = "where",
    variants: Optional[list[str]] = None,
    reps: int = 5,
    seed: int = 0,
    budget_s: float = 120.0,
) -> BenchReport:
    """Run a benchmark suite across database sizes and report medians.

    Queries whose per-size cost exceeded what the original measurements
    could handle are skipped above their caps, like the source experiments.
    """
    if suite == "where":
        table = suites.WHERE_SUITE
        default_variants = ["allprov", "someprov", "noprov"]
        modes = {"allprov": Mode.WHERE, "someprov": Mode.WHERE, "noprov": Mode.PLAIN}
    elif suite == "lineage":
        table = suites.LINEAGE_SUITE
        default_variants = ["lineage", "nolineage"]
        modes = {"lineage": Mode.LINEAGE, "nolineage": Mode.PLAIN}
    else:
        raise ProvqlError(f"unknown suite {suite!r}")
    variants = variants or default_variants
    report = BenchReport()
    for size in sizes:
        db = generate_benchmark_data(size, seed)
        conn = sqlite3.connect(":memory:")
        load_database(conn, db)
        for qname in sorted(table):
            cap = suites.SIZE_CAPS.get(qname)
            if cap is not None and size > cap:
                for variant in variants:
                    report.rows.append(BenchRow(qname, variant, size, 0.0, 0, 0, True))
                continue
            plans: dict[str, object] = {}
            translate_ms: dict[str, float] = {}
            for variant in variants:
                text = table[qname][variant]
                t0 = time.perf_counter()
                prepared = pipeline.prepare(text, modes[variant])
                plans[variant] = pipeline.normalized_query(prepared)
                translate_ms[variant] = (time.perf_counter() - t0) * 1000.0
            times, nrows = _time_variants(conn, plans, reps, budget_s)
            for variant in variants:
                ts = sorted(times[variant])
                report.rows.append(
                    BenchRow(
                        qname,
                        variant,
                        size,
                        ts[len(ts) // 2],
                        len(ts),
                        nrows[variant],
                        False,
                        translate_ms[variant],
                        times[variant],
                    )
                )
        conn.close()
    return report
