"""The closed loop: one client, one thread, one op at a time.

An op is one call into provql's public functions, timed on its own; its
check against a reference runs after the timer stops, so oracle time is
kept out of every op time and out of the run time the loop measures.

Reported times are at a reference speed.  The hosts this runs on change
speed by 1.4-1.7x over seconds (the vCPU shares its core with other
tenants), which moves every wall-clock quantile between runs by more than
any useful bound.  So a fixed probe task that does not use provql is timed
right before and right after each op and each set-up, and a duration d is
reported as d * REFERENCE_PROBE_S / (mean of its two probe times): the time
it would take on a host where the probe takes REFERENCE_PROBE_S.  Wall
times are kept alongside and printed.
"""

from __future__ import annotations

import gc
import sqlite3
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from provql.errors import ProvqlError

from .tracing import TracedConnection, Tracer, output_rows

QUERY = "query"
WRITE = "write"

# A run stops at the end of a round once it has measured its seconds and at
# least this many query ops, so the p90 has ten samples beyond it.
MIN_QUERY_OPS = 100
# No run's loop goes on longer than this, whatever the floor above asks.
WALL_LIMIT_S = 120.0
# The probe's duration that defines the reference speed.
REFERENCE_PROBE_S = 0.0004


class SpeedProbe:
    """A fixed task shaped like the workloads but independent of provql: an
    SQLite query over a private table, then grouping and sorting the rows
    into Python tuples and dicts.  Its duration tracks the host's speed."""

    def __init__(self):
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("CREATE TABLE probe (a INTEGER, b TEXT)")
        self.conn.executemany(
            "INSERT INTO probe VALUES (?, ?)", [(i, f"v{i % 97}") for i in range(1200)]
        )

    def __call__(self) -> float:
        t0 = time.perf_counter()
        rows = self.conn.execute("SELECT a, b FROM probe WHERE a % 5 = 1 ORDER BY b, a").fetchall()
        groups: dict[str, list] = {}
        for a, b in rows:
            groups.setdefault(b, []).append((a, b, {"a": a}))
        sorted((k, len(v), tuple(x[0] for x in v)) for k, v in groups.items())
        return time.perf_counter() - t0

    def close(self) -> None:
        self.conn.close()


@dataclass
class Op:
    kind: str  # QUERY or WRITE
    label: str
    run: Callable[[], object]
    # Called with the op's output after the timer stops; False means the
    # output does not match its reference.  None: this op is not checked.
    check: Optional[Callable[[object], bool]] = None


@dataclass
class Tally:
    # per op, at the reference speed
    query_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    # per op, wall clock
    wall_query_ms: list[float] = field(default_factory=list)
    wall_write_ms: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # wall-clock op time, which the run length counts
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    kinds: dict[int, str] = field(default_factory=dict)
    # op id -> factor from wall clock to the reference speed
    speed: dict[int, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.query_ms += other.query_ms
        self.write_ms += other.write_ms
        self.wall_query_ms += other.wall_query_ms
        self.wall_write_ms += other.wall_write_ms
        self.probe_s += other.probe_s
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.checked += other.checked
        self.errors += other.errors

    def ops(self, kind: str) -> list[int]:
        return [op for op, k in self.kinds.items() if k == kind]

    def throughput(self) -> float:
        """Ops per second of op time at the reference speed."""
        return self.attempted / (sum(self.query_ms) + sum(self.write_ms)) * 1000.0


def measure(
    rounds: Iterable[list[Op]],
    seconds: float,
    probe: SpeedProbe,
    min_queries: int = MIN_QUERY_OPS,
    tracer: Optional[Tracer] = None,
    max_rounds: Optional[int] = None,
    first_op: int = 0,
) -> Tally:
    """Run whole rounds of ops until `seconds` of op time and `min_queries`
    query ops are done (or `max_rounds` rounds, when given)."""
    tally = Tally()
    wall0 = time.perf_counter()
    op_id = first_op
    for n, ops in enumerate(rounds, 1):
        for op in ops:
            tally.kinds[op_id] = op.kind
            before = probe()
            span = tracer.begin_op(op_id) if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except (ProvqlError, sqlite3.Error) as exc:
                error = f"{op.label}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(span)
            after = probe()
            speed = 2 * REFERENCE_PROBE_S / (before + after)
            tally.speed[op_id] = speed
            tally.probe_s += [before, after]
            tally.busy_s += dt
            if op.kind == QUERY:
                tally.query_ms.append(dt * speed * 1000.0)
                tally.wall_query_ms.append(dt * 1000.0)
            else:
                tally.write_ms.append(dt * speed * 1000.0)
                tally.wall_write_ms.append(dt * 1000.0)
            tally.attempted += 1
            if error is None and op.check is not None:
                tally.checked += op.kind == QUERY
                if not op.check(out):
                    error = f"{op.label}: output differs from the reference"
            if error is not None:
                tally.failed += 1
                tally.errors.append(error)
            elif tracer and op.kind == QUERY:
                tracer.counters[(op_id, "output.rows")] += output_rows(out)
            op_id += 1
        if max_rounds is not None:
            if n >= max_rounds:
                break
            continue
        if tally.busy_s >= seconds and len(tally.query_ms) >= min_queries:
            break
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            print(f"loop stopped at the {WALL_LIMIT_S:.0f} s wall limit", file=sys.stderr)
            break
    return tally


def measure_traced(
    state, rounds: Iterable[list[Op]], seconds: float, probe: SpeedProbe, **kwargs
) -> tuple[Tally, Tracer]:
    """`measure` with provql's layers wrapped and `state.conn` proxied."""
    tracer = Tracer()
    tracer.install()
    state.conn = TracedConnection(state.conn, tracer)
    try:
        tally = measure(rounds, seconds, probe, 0, tracer, **kwargs)
    finally:
        tracer.uninstall()
        state.conn = state.conn._conn
    return tally, tracer


def timed_setups(
    setup: Callable[[], object], close: Callable[[object], None], times: int, probe: SpeedProbe
):
    """Run `setup` several times; return the last state and every duration,
    wall clock and at the reference speed."""
    wall, ref = [], []
    state = None
    for _ in range(times):
        if state is not None:
            close(state)
            state = None
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        state = setup()
        dt = time.perf_counter() - t0
        after = probe()
        wall.append(dt)
        ref.append(dt * 2 * REFERENCE_PROBE_S / (before + after))
    settle()
    return state, wall, ref


def settle() -> None:
    """Collect set-up garbage and exempt what survives (the database, plans
    and references) from later collections, which would otherwise rescan
    the references' large value trees inside op timers."""
    gc.collect()
    gc.freeze()


def p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[-1]
