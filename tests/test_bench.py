"""The benchmark harness: how timed runs treat the garbage collector, and
the arithmetic of the criterion-7 gate (paired ratios, slope_diff)."""

import gc
import math

import pytest

from provql import bench, pipeline, suites
from provql.bench import BenchReport, BenchRow
from provql.sqlbackend import PlanExecutor
from provql.typecheck import Mode


@pytest.fixture()
def plans():
    """QF4 with and without lineage: flat plans, as criterion 7 times them."""
    out = {}
    for variant, mode in (("lineage", Mode.LINEAGE), ("nolineage", Mode.PLAIN)):
        prepared = pipeline.prepare(suites.LINEAGE_SUITE["QF4"][variant], mode)
        out[variant] = pipeline.normalized_query(prepared)
    return out


@pytest.fixture()
def gc_state():
    """Yields a setter for the collector's state; restores the entry state after."""
    was_enabled = gc.isenabled()
    yield lambda enabled: gc.enable() if enabled else gc.disable()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _spy_runs(monkeypatch, fail_at=None):
    """Record gc.isenabled() at each PlanExecutor.run call; the call
    numbered `fail_at` raises instead of running."""
    real_run = PlanExecutor.run
    states: list[bool] = []

    def spy(self, nq):
        if len(states) == fail_at:
            raise RuntimeError("injected failure")
        states.append(gc.isenabled())
        return real_run(self, nq)

    monkeypatch.setattr(PlanExecutor, "run", spy)
    return states


@pytest.mark.parametrize("enabled", [True, False])
def test_timed_runs_pause_collector_and_restore_it(
    small_bench_conn, plans, gc_state, monkeypatch, enabled
):
    states = _spy_runs(monkeypatch)
    gc_state(enabled)
    times, _ = bench._time_variants(small_bench_conn, plans, reps=3, budget_s=60.0)
    assert gc.isenabled() is enabled
    warmup, timed = states[: len(plans)], states[len(plans):]
    # the untimed warm-up runs under the caller's setting
    assert warmup == [enabled] * len(plans)
    assert len(timed) == sum(len(ts) for ts in times.values()) >= 3 * len(plans)
    assert not any(timed)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_when_timed_run_raises(
    small_bench_conn, plans, gc_state, monkeypatch, enabled
):
    # call len(plans) is the first timed run, after the warm-up of each plan
    _spy_runs(monkeypatch, fail_at=len(plans))
    gc_state(enabled)
    with pytest.raises(RuntimeError, match="injected failure"):
        bench._time_variants(small_bench_conn, plans, reps=3, budget_s=60.0)
    assert gc.isenabled() is enabled


# ---------------------------------------------------------------------------
# Gate arithmetic on synthetic rows

SIZES = (4, 8, 16, 32, 64)
# per-round host speed factors: interleaved rounds see the same factor for
# both variants, so the paired ratios cancel it
DRIFT = (1.0, 1.7, 1.2, 1.5, 1.1)


def _report(ratio_at, skipped_size=None) -> BenchReport:
    report = BenchReport()
    for size in SIZES:
        base = [2.0 * size * d for d in DRIFT]
        loaded = [t * ratio_at(size) for t in base]
        for variant, ts in (("lineage", loaded), ("nolineage", base)):
            med = sorted(ts)[len(ts) // 2]
            report.rows.append(BenchRow("Q", variant, size, med, len(ts), 1, times=ts))
    if skipped_size is not None:
        for variant in ("lineage", "nolineage"):
            report.rows.append(
                BenchRow("Q", variant, skipped_size, 0.0, 0, 0, True, times=[1.0, 500.0])
            )
    return report


def test_constant_ratio_has_zero_slope_diff():
    report = _report(lambda size: 3.0)
    assert report.paired_ratio("Q", "lineage", "nolineage", 16) == pytest.approx(3.0)
    assert report.slope_diff("Q", "lineage", "nolineage") == pytest.approx(0.0, abs=1e-9)
    assert report.geomean_slowdown("Q", "lineage", "nolineage") == pytest.approx(3.0)


def test_ratio_growing_with_size_is_caught_by_the_gate():
    report = _report(lambda size: 2.0 * size**0.3)
    diff = report.slope_diff("Q", "lineage", "nolineage")
    assert diff == pytest.approx(0.3)
    assert diff >= 0.2  # criterion 7's bound
    expected = math.exp(sum(math.log(2.0 * s**0.3) for s in SIZES) / len(SIZES))
    assert report.geomean_slowdown("Q", "lineage", "nolineage") == pytest.approx(expected)


def test_skipped_rows_are_ignored():
    plain = _report(lambda size: 2.0 * size**0.3)
    with_skip = _report(lambda size: 2.0 * size**0.3, skipped_size=128)
    assert with_skip.paired_ratio("Q", "lineage", "nolineage", 128) is None
    assert with_skip.slowdowns("Q", "lineage", "nolineage") == pytest.approx(
        plain.slowdowns("Q", "lineage", "nolineage")
    )
    assert with_skip.geomean_slowdown("Q", "lineage", "nolineage") == pytest.approx(
        plain.geomean_slowdown("Q", "lineage", "nolineage")
    )
    assert with_skip.slope_diff("Q", "lineage", "nolineage") == pytest.approx(
        plain.slope_diff("Q", "lineage", "nolineage")
    )


def test_lineage_steps_commute_with_restriction():
    report = bench.step_restriction(trials=40, seed=3)
    assert report.ok, report.violations
    assert report.trials == 40 and report.checks > 100
