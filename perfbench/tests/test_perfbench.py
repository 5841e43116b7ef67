"""Tests of the benchmark itself: its references, failure accounting,
determinism and span arithmetic.  Run with

    python3 -m pytest perfbench/tests -q
"""

import pytest

from provql import pipeline
from provql import values as V
from provql.errors import ProvqlError
from provql.sqlbackend import generate_benchmark_data

from perfbench import harness, workloads
from perfbench.reference import nested_references
from perfbench.tracing import Tracer, layer_metrics


def test_nested_reference_equals_interpreter():
    db = generate_benchmark_data(1, seed=5, employees_per_dept=12)
    refs = nested_references(db)
    assert sorted(refs) == sorted(workloads.NESTED_PROGRAMS)
    for key, ref in refs.items():
        mode = workloads.MODES[key[1]]
        prepared = pipeline.prepare(workloads.program_text(*key), mode)
        assert pipeline.comparable(pipeline.run_interp(db, prepared), mode) == ref, key


@pytest.fixture()
def probe():
    p = harness.SpeedProbe()
    yield p
    p.close()


def _setup(workload):
    inputs = workload.inputs(3)
    return workload.setup(inputs), inputs


def test_wrong_reference_and_errors_are_counted(probe):
    nested = workloads.Nested(departments=1)
    state, inputs = _setup(nested)
    try:
        state.references[("Q3", "noprov")] = V.VList(())
        tally = harness.measure(nested.rounds(state, inputs), 0, probe, max_rounds=2)
    finally:
        state.close()
    assert tally.attempted == 2 * len(workloads.NESTED_PROGRAMS)
    assert tally.failed == 2
    assert all("Q3[noprov]" in e for e in tally.errors)

    def boom():
        raise ProvqlError("injected")

    ops = [harness.Op(harness.QUERY, "raises", boom), harness.Op(harness.QUERY, "ok", lambda: 1)]
    tally = harness.measure(iter([ops]), 0, probe, max_rounds=1)
    assert (tally.attempted, tally.failed) == (2, 1)


DETERMINISTIC = [
    "sqlite.statements",
    "sqlite.rows",
    "sqlbackend.runs",
    "normalize.calls",
    "translate.nodes",
    "normalize.out_nodes",
]


@pytest.mark.parametrize("make", [workloads.Adhoc, workloads.Nested, workloads.Audit])
def test_traced_counts_repeat(make, probe):
    def traced_counts():
        workload = make(departments=1)
        state, inputs = _setup(workload)
        try:
            tally, tracer = harness.measure_traced(
                state, workload.rounds(state, inputs), 0, probe, max_rounds=2
            )
        finally:
            state.close()
        assert tally.failed == 0, tally.errors
        metrics = layer_metrics(tracer, tally.ops(harness.QUERY), tally.ops(harness.WRITE))
        return {k: metrics[k] for k in DETERMINISTIC}

    first = traced_counts()
    assert first["sqlite.statements"] > 0
    assert first == traced_counts()


def test_seeds_give_different_data_and_ops():
    adhoc = workloads.Adhoc(departments=1)
    a, b = adhoc.inputs(0), adhoc.inputs(1)
    assert adhoc.inputs(0) == a
    db_a = generate_benchmark_data(1, a["data_seed"])
    db_b = generate_benchmark_data(1, b["data_seed"])
    assert db_a.dump_canonical() != db_b.dump_canonical()

    def labels(inputs):
        state = adhoc.setup(inputs)
        state.close()
        rounds = adhoc.rounds(state, inputs)
        return [op.label for _ in range(3) for op in next(rounds)]

    assert labels(a) == labels(adhoc.inputs(0))
    assert labels(a) != labels(b)


def test_self_time_of_nested_spans_with_one_name():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    # op 0..9 > sqlbackend 1..8 > { sqlbackend 2..5 > sqlite 3..4 ; sqlite 6..7 }
    op = tracer.begin_op(0)  # t=0
    outer = tracer.open("sqlbackend")  # 1
    inner = tracer.open("sqlbackend")  # 2
    s1 = tracer.open("sqlite")  # 3
    tracer.close(s1)  # 4
    tracer.close(inner)  # 5
    s2 = tracer.open("sqlite")  # 6
    tracer.close(s2)  # 7
    tracer.close(outer)  # 8
    tracer.end_op(op)  # 9
    totals = tracer.layer_totals()[0]
    assert totals["sqlbackend"] == (7.0, 3.0 + 2.0, 2)
    assert totals["sqlite"] == (2.0, 2.0, 2)
    assert totals["op"] == (9.0, 2.0, 1)
    metrics = layer_metrics(tracer, [0], [])
    assert metrics["sqlbackend.ms"] == 7000.0
    assert metrics["sqlbackend.self_ms"] == 5000.0
    assert metrics["sqlbackend.runs"] == 2


def test_times_scale_to_the_reference_speed():
    # a host twice as slow as the reference: reported times are half the wall times
    slow = lambda: 2 * harness.REFERENCE_PROBE_S
    ops = [harness.Op(harness.QUERY, "q", lambda: sum(range(20000)))]
    tally = harness.measure(iter([ops] * 3), 0, slow, min_queries=0, max_rounds=3)
    assert tally.query_ms == pytest.approx([t / 2 for t in tally.wall_query_ms])
    assert tally.throughput() == pytest.approx(2 * tally.attempted / tally.busy_s)
