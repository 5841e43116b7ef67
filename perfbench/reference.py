"""Plain-Python references for the `nested` workload's 13 programs.

The interpreter is the project's oracle, but it needs tens of seconds per
nested program at the benchmark's sizes, so `nested` is checked against
these hand-written evaluations of Q1/Q3/Q5 over the generated `Database`
instead.  Each function returns the value in the form `pipeline.comparable`
produces: where-annotated cells become `!data`/`!prov` records, lineage
results become annotated lists whose witness sets compare as sets, and all
lists are in canonical order.  The benchmark's tests check every reference
against the interpreter on a small database.
"""

from __future__ import annotations

from collections import defaultdict

from provql import values as V
from provql.database import Database


def _plain(row: dict, col: str) -> V.Value:
    return V.VConst(row[col])


def _where(table: str):
    """A cell reader that attaches the (table, column, oid) origin triple."""

    def cell(row: dict, col: str) -> V.Value:
        triple = V.vtriple(V.VConst(table), V.VConst(col), V.VConst(row["oid"]))
        return V.vrecord([("!data", V.VConst(row[col])), ("!prov", triple)])

    return cell


def _witness(*pairs: tuple[str, dict]) -> frozenset:
    return frozenset(V.LineageColor(table, row["oid"]) for table, row in pairs)


class _Index:
    def __init__(self, db: Database):
        self.departments = db.get("departments").rows
        self.employees = db.get("employees").rows
        self.tasks = db.get("tasks").rows
        self.tasks_of = defaultdict(list)
        for t in self.tasks:
            self.tasks_of[t["employee"]].append(t)
        self.employees_of = defaultdict(list)
        for e in self.employees:
            self.employees_of[e["dept"]].append(e)
        self.contacts_of = defaultdict(list)
        for c in db.get("contacts").rows:
            self.contacts_of[c["dept"]].append(c)
        self.dept_by_name = {d["name"]: d for d in self.departments}
        self.emp_by_name = {e["name"]: e for e in self.employees}


def _q1(ix: _Index, contact, employee, task, dept) -> V.Value:
    out = []
    for d in ix.departments:
        contacts = [
            V.vrecord([("client", contact(c, "client")), ("name", contact(c, "name"))])
            for c in ix.contacts_of[d["name"]]
        ]
        employees = [
            V.vrecord(
                [
                    ("name", employee(e, "name")),
                    ("salary", employee(e, "salary")),
                    ("tasks", V.VList(tuple(task(t, "task") for t in ix.tasks_of[e["name"]]))),
                ]
            )
            for e in ix.employees_of[d["name"]]
        ]
        out.append(
            V.vrecord(
                [
                    ("contacts", V.VList(tuple(contacts))),
                    ("employees", V.VList(tuple(employees))),
                    ("name", dept(d, "name")),
                ]
            )
        )
    return V.VList(tuple(out))


def _q3(ix: _Index, employee, task) -> V.Value:
    return V.VList(
        tuple(
            V.vrecord(
                [
                    ("b", V.VList(tuple(task(t, "task") for t in ix.tasks_of[e["name"]]))),
                    ("e", employee(e, "name")),
                ]
            )
            for e in ix.employees
        )
    )


def _employees_by_task(ix: _Index, t: dict) -> list[tuple[dict, dict]]:
    e = ix.emp_by_name.get(t["employee"])
    if e is None or e["dept"] not in ix.dept_by_name:
        return []
    return [(e, ix.dept_by_name[e["dept"]])]


def _q5(ix: _Index, outer_task, employee, task) -> V.Value:
    out = []
    for t in ix.tasks:
        b = [
            V.vrecord(
                [
                    ("name", employee(e, "name")),
                    ("salary", employee(e, "salary")),
                    ("tasks", V.VList(tuple(task(t2, "task") for t2 in ix.tasks_of[e["name"]]))),
                ]
            )
            for e, _ in _employees_by_task(ix, t)
        ]
        out.append(V.vrecord([("a", outer_task(t, "task")), ("b", V.VList(tuple(b)))]))
    return V.VList(tuple(out))


def _q3_lineage(ix: _Index) -> V.Value:
    cells = []
    for e in ix.employees:
        b = V.VAnnList(
            tuple((_plain(t, "task"), _witness(("tasks", t))) for t in ix.tasks_of[e["name"]])
        )
        cells.append((V.vrecord([("b", b), ("e", _plain(e, "name"))]), _witness(("employees", e))))
    return V.VAnnList(tuple(cells))


def _q5_lineage(ix: _Index) -> V.Value:
    cells = []
    for t in ix.tasks:
        b = []
        for e, d in _employees_by_task(ix, t):
            tasks = V.VAnnList(
                tuple((_plain(t2, "task"), _witness(("tasks", t2))) for t2 in ix.tasks_of[e["name"]])
            )
            row = V.vrecord(
                [("name", _plain(e, "name")), ("salary", _plain(e, "salary")), ("tasks", tasks)]
            )
            b.append((row, _witness(("employees", e), ("departments", d))))
        row = V.vrecord([("a", _plain(t, "task")), ("b", V.VAnnList(tuple(b)))])
        cells.append((row, _witness(("tasks", t))))
    return V.VAnnList(tuple(cells))


def nested_references(db: Database) -> dict[tuple[str, str], V.Value]:
    """Expected comparable outputs, keyed by (query, variant)."""
    ix = _Index(db)
    p = _plain
    wd, we, wt, wc = (_where(n) for n in ("departments", "employees", "tasks", "contacts"))
    refs = {
        ("Q1", "allprov"): _q1(ix, wc, we, wt, wd),
        ("Q1", "someprov"): _q1(ix, p, we, wt, wd),
        ("Q1", "noprov"): _q1(ix, p, p, p, p),
        ("Q3", "allprov"): _q3(ix, we, wt),
        ("Q3", "someprov"): _q3(ix, p, wt),
        ("Q3", "noprov"): _q3(ix, p, p),
        ("Q5", "allprov"): _q5(ix, wt, we, wt),
        ("Q5", "someprov"): _q5(ix, wt, p, p),
        ("Q5", "noprov"): _q5(ix, p, p, p),
        ("Q3", "lineage"): _q3_lineage(ix),
        ("Q5", "lineage"): _q5_lineage(ix),
    }
    out = {k: V.canonical_order(v) for k, v in refs.items()}
    # plain lineage-suite programs share their reference with noprov
    out[("Q3", "nolineage")] = out[("Q3", "noprov")]
    out[("Q5", "nolineage")] = out[("Q5", "noprov")]
    return out
