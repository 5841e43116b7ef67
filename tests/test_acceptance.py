"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the lines as the
criteria complete.  The performance criterion runs full benchmark suites
and takes several minutes.
"""

import math
import re
import sqlite3
import time

import pytest

from provql import analysis, bench, pipeline, suites
from provql import syntax as S
from provql import values as V
from provql.interp import eval_big
from provql.normalize import assert_no_residuals
from provql.sqlbackend import generate_benchmark_data, load_database, plan_sql
from provql.typecheck import Mode


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def tours():
    return suites.tours_db()


def test_criterion_1_golden_outputs(tours):
    """Exact golden outputs on the tours example database, in under 1s."""
    t0 = time.perf_counter()

    # (a) plain boat-tours query: the exact result multiset
    prepared = pipeline.prepare(suites.BOAT_TOURS, Mode.PLAIN)
    plain = pipeline.comparable(pipeline.run_interp(tours, prepared), Mode.PLAIN)
    expected_plain = V.canonical_order(
        V.VList(
            tuple(
                V.vrecord({"name": V.VConst(n), "phone": V.VConst(p)})
                for n, p in [
                    ("EdinTours", "412 1200"),
                    ("EdinTours", "412 1200"),
                    ("Burns's", "607 3000"),
                ]
            )
        )
    )
    assert plain == expected_plain

    # (b) where-provenance query: phone cells come from Agencies rows 1,1,2
    prepared_w = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
    where = pipeline.comparable(pipeline.run_interp(tours, prepared_w), Mode.WHERE)
    expected_where = V.canonical_order(
        V.VList(
            tuple(
                V.vrecord(
                    {
                        "name": V.VConst(n),
                        "phone": V.VConst(p),
                        "p_phone": V.vtriple(
                            V.VConst("Agencies"), V.VConst("phone"), V.VConst(i)
                        ),
                    }
                )
                for n, p, i in [
                    ("EdinTours", "412 1200", 1),
                    ("EdinTours", "412 1200", 1),
                    ("Burns's", "607 3000", 2),
                ]
            )
        )
    )
    assert where == expected_where

    # (c) lineage over the same body: the three witness sets
    prepared_l = pipeline.prepare(suites.BOAT_TOURS_LINEAGE, Mode.LINEAGE)
    _, lv = eval_big(tours.copy(), prepared_l.source.as_expr(), Mode.PLAIN)
    witness = {
        frozenset((p.get("1").value, p.get("2").value) for p in row.get("prov").items)
        for row in lv.items
    }
    assert witness == {
        frozenset({("Agencies", 1), ("ExternalTours", 5)}),
        frozenset({("Agencies", 1), ("ExternalTours", 6)}),
        frozenset({("Agencies", 2), ("ExternalTours", 7)}),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden outputs took {elapsed:.2f}s"
    _line(1, True, f"golden outputs exact in {elapsed * 1000:.0f}ms")


def test_criterion_2_sql_emission():
    """Where-provenance SQL uses constants for table/column plus the oid
    column, in a single SELECT; the lineage boat query leaves no redexes."""
    prepared = pipeline.prepare(suites.BOAT_TOURS_WHERE, Mode.WHERE)
    sql = plan_sql(pipeline.normalized_query(prepared))
    assert sql.count("SELECT") == 1 and ";" not in sql
    select, rest = sql.split(" FROM ")
    from_, where = rest.split(" ORDER BY ")[0].split(" WHERE ")
    sel = {alias: expr for expr, alias in re.findall(r'(\S+) AS "(\w+)"', select)}
    assert sel["p_phone_1"].lower() == "'agencies'"
    assert sel["p_phone_2"] == "'phone'"
    assert sel["p_phone_3"].endswith('."oid"')
    assert sel["name"].endswith('."name"') and sel["phone"].endswith('."phone"')
    assert len(from_.split(", ")) == 2
    assert len(where.split(" AND ")) == 2

    prepared_l = pipeline.prepare(suites.BOAT_TOURS_LINEAGE, Mode.LINEAGE)
    nq = pipeline.normalized_query(prepared_l)
    assert_no_residuals(nq)
    _line(2, True, "SQL emission matches the expected listing shape")


def test_criterion_3_cso_monotonicity():
    """1,000 where-mode programs; every step keeps cso(N) ⊆ cso(M)."""
    t0 = time.perf_counter()
    report = bench.cso_monotonicity(trials=1000, seed=101)
    elapsed = time.perf_counter() - t0
    assert report.trials == 1000
    assert not report.violations, report.violations[:5]
    assert elapsed < 300, f"cso suite took {elapsed:.0f}s"
    _line(
        3,
        True,
        f"{report.trials} programs, {report.checks} steps checked, "
        f"0 violations in {elapsed:.0f}s",
    )


def test_criterion_4_lineage_correctness():
    """Every benchmark lineage query at sizes 4-16: all sampled sublists of
    the output are reproduced under the restricted database."""
    report = bench.lineage_correctness(sizes=(4, 8, 16), seed=17, samples=64)
    assert not report.violations, report.violations[:5]
    _line(
        4,
        True,
        f"{report.trials} query/size combinations, {report.checks} sublists, 0 violations",
    )


def test_criterion_5_type_preservation():
    """1,000 where-mode and 1,000 lineage-mode programs re-typecheck at the
    translated type; the erasure/doubling identities hold."""
    report = bench.type_preservation(trials=1000, seed=23)
    assert report.trials == 1000
    assert not report.violations, report.violations[:5]
    ident = bench.erasure_identities(trials=1000, seed=29)
    assert not ident.violations, ident.violations[:5]
    _line(
        5,
        True,
        f"{report.checks} translations re-typechecked, {ident.checks} identity checks",
    )


def test_criterion_6_engine_equivalence():
    """Flat benchmark queries and 500 generated flat queries agree between
    the interpreter and the SQL backend in all three modes."""
    report = bench.engine_equivalence(generated=500, seed=31)
    assert not report.violations, report.violations[:5]
    assert report.trials >= 500
    _line(6, True, f"{report.checks} differential runs, 0 mismatches")


@pytest.fixture(scope="module")
def bench_reports():
    where = bench.bench_suite(
        sizes=(4, 8, 16, 32, 64),
        suite="where",
        variants=["allprov", "noprov"],
        reps=5,
        seed=0,
    )
    lineage = bench.bench_suite(
        sizes=(4, 8, 16, 32, 64),
        suite="lineage",
        variants=["lineage", "nolineage"],
        reps=5,
        seed=0,
    )
    return where, lineage


def test_criterion_7_performance_trend(bench_reports):
    """Same asymptotics (log-log slope differs < 0.2); where-provenance
    geomean slowdown ≤ 4x and lineage ≤ 10x per query.  Actual ratios are
    reported."""
    where, lineage = bench_reports
    details = []
    ok = True
    for rep, loaded, base, limit in (
        (where, "allprov", "noprov", 4.0),
        (lineage, "lineage", "nolineage", 10.0),
    ):
        for query in sorted({r.query for r in rep.rows}):
            g = rep.geomean_slowdown(query, loaded, base)
            diff = rep.slope_diff(query, loaded, base)
            if g is None or diff is None:
                continue
            details.append(f"{query}[{loaded}]: x{g:.2f} slope_diff={diff:.2f}")
            if g > limit or diff >= 0.2:
                ok = False
                details[-1] += " <-- OUT OF RANGE"
    _line(7, ok, "; ".join(details))
    assert ok, details


def test_criterion_8_update_semantics():
    """50 randomized update scripts match the interpreter's row-set
    semantics exactly; translated table pairs route updates to the raw
    table while the provenance view reflects them."""
    report = bench.update_equivalence(scripts=50, seed=37)
    assert report.trials == 50
    assert not report.violations, report.violations[:5]

    # updates through a translated pair hit the raw table (.1 component)
    tours = suites.tours_db()
    text = suites.TOURS_DECLS_PROV + (
        "var u = update (x <-- agencies) where (x.name == \"Burns's\")"
        ' set (phone = "000");\n'
        "query { for (a <-- agencies) [(d = data a.phone, p = prov a.phone)] }"
    )
    prepared = pipeline.prepare(text, Mode.WHERE)
    db = tours.copy()
    _, v = eval_big(db, prepared.translated.as_expr(), Mode.PLAIN)
    rows = sorted((r.get("d").value, r.get("p").get("3").value) for r in v.items)
    assert rows == [("000", 2), ("412 1200", 1)]
    assert [r["phone"] for r in db.get("Agencies").rows] == ["412 1200", "000"]
    _line(8, True, f"{report.checks} statements verified; updates route to the raw table")
