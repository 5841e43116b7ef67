"""In-memory database model: named tables of flat rows with managed oids.

Serves both as the plain table store and, with annotation-aware readers in
the interpreter, as the annotated store used during where/lineage runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EvalError
from . import syntax as S
from . import values as V

OID = "oid"


@dataclass
class TableData:
    schema: S.Row  # includes the oid column
    rows: list[dict]
    next_oid: int = 1  # per-table sequence; never reused after deletes
    # Restriction keeps dropped rows as structural holes so that annotated
    # table reads preserve their concat-tree shape; None means all visible.
    visible: set | None = None

    def visible_rows(self) -> list[dict]:
        if self.visible is None:
            return self.rows
        return [r for r in self.rows if r[OID] in self.visible]


class Database:
    """Map from table name to contents.

    Rows are dicts of column -> python value; every row carries a unique,
    engine-assigned integer ``oid``.  Single writer, multiple readers;
    callers provide any synchronization they need.
    """

    def __init__(self):
        self.tables: dict[str, TableData] = {}

    def copy(self) -> "Database":
        other = Database()
        for name, td in self.tables.items():
            other.tables[name] = TableData(
                td.schema, [dict(r) for r in td.rows], td.next_oid,
                None if td.visible is None else set(td.visible),
            )
        return other

    def create_table(self, name: str, schema) -> None:
        row = S.make_row(schema) if not isinstance(schema, tuple) else schema
        if S.row_get(row, OID) is None:
            row = S.make_row(list(row) + [(OID, S.INT)])
        for label, ty in row:
            if not S.is_base(ty):
                raise EvalError(f"table column {label!r} is not base-typed")
        self.tables[name] = TableData(row, [])

    def get(self, name: str) -> TableData:
        if name not in self.tables:
            raise EvalError(f"missing table {name!r}")
        return self.tables[name]

    def seed(self, name: str, rows: list[dict]) -> None:
        """Load rows with explicit oids (fixture/loader path, not user code)."""
        td = self.get(name)
        for r in rows:
            if OID not in r:
                raise EvalError(f"seed row for {name!r} lacks an oid")
            td.rows.append(dict(r))
        oids = [r[OID] for r in td.rows]
        if len(set(oids)) != len(oids):
            raise EvalError(f"duplicate oids in table {name!r}")
        td.next_oid = max(oids, default=0) + 1

    def insert_rows(self, name: str, rows: list[dict]) -> list[int]:
        """Engine-managed insert: assigns fresh oids, rejects user oids."""
        td = self.get(name)
        assigned = []
        for r in rows:
            if OID in r:
                raise EvalError("attempt to write oid")
            new = dict(r)
            new[OID] = td.next_oid
            td.next_oid += 1
            td.rows.append(new)
            assigned.append(new[OID])
        return assigned

    # -- value conversion ---------------------------------------------------

    def rows_as_values(self, name: str) -> V.VList:
        """The visible rows as records that share one labels tuple."""
        td = self.get(name)
        labels = tuple(sorted(S.row_labels(td.schema)))
        rows = td.visible_rows()
        return V.VList(
            tuple([V.VRecord(labels, tuple([V.VConst(r[l]) for l in labels])) for r in rows])
        )

    def rows_annotated_where(self, name: str, spec: S.ProvSpec, eval_fn) -> V.VList:
        """Rows with where-provenance cells per the table's prov spec.

        ``eval_fn(fn_expr, row_value) -> VRecord triple`` evaluates a
        user-supplied provenance function.
        """
        td = self.get(name)
        labels = tuple(sorted(S.row_labels(td.schema)))
        out = []
        for r in td.visible_rows():
            values = []
            for label in labels:
                base = V.VConst(r[label])
                entry = spec.lookup(label)
                if entry is None:
                    values.append(base)
                elif entry.fn is None:
                    color = V.WhereColor(name, label, r[OID])
                    values.append(V.VAnnot(base, color))
                else:
                    t = eval_fn(entry.fn, row_value(r))
                    color = V.WhereColor(
                        _as_str(t.get("1")), _as_str(t.get("2")), _as_int(t.get("3"))
                    )
                    values.append(V.VAnnot(base, color))
            out.append(V.VRecord(labels, tuple(values)))
        return V.VList(tuple(out))

    def lineage_cells(self, name: str) -> list:
        """One entry per stored row: an annotated cell colored {(table, oid)},
        or None for a row hidden by restriction."""
        td = self.get(name)
        out = []
        for r in td.rows:
            if td.visible is not None and r[OID] not in td.visible:
                out.append(None)
            else:
                out.append((row_value(r), frozenset({V.LineageColor(name, r[OID])})))
        return out

    def rows_annotated_lineage(self, name: str) -> V.VAnnList:
        """Visible rows as annotated cells, each colored {(table, oid)}."""
        return V.VAnnList(tuple(c for c in self.lineage_cells(name) if c is not None))

    def restrict(self, colors: frozenset) -> "Database":
        """Hide every row whose lineage color is not in ``colors``; hidden
        rows remain as structural holes in annotated reads."""
        keep = {(c.table, c.oid) for c in colors if isinstance(c, V.LineageColor)}
        other = Database()
        for name, td in self.tables.items():
            visible = {r[OID] for r in td.rows if (name, r[OID]) in keep}
            other.tables[name] = TableData(
                td.schema, [dict(r) for r in td.rows], td.next_oid, visible
            )
        return other

    def dump_canonical(self) -> str:
        """Deterministic text dump, used for byte-identity checks."""
        chunks = []
        for name in sorted(self.tables):
            td = self.tables[name]
            chunks.append(f"table {name}")
            cols = S.row_labels(td.schema)
            for r in sorted(td.visible_rows(), key=lambda r: r[OID]):
                chunks.append(",".join(f"{c}={r[c]!r}" for c in cols))
        return "\n".join(chunks) + "\n"


def row_value(r: dict) -> V.VRecord:
    return V.vrecord([(k, V.VConst(v)) for k, v in r.items()])


def value_row(v: V.Value) -> dict:
    if not isinstance(v, V.VRecord):
        raise EvalError("expected a record row")
    out = {}
    for label, x in zip(v.labels, v.values):
        x = V.strip_annotations(x)
        if not isinstance(x, V.VConst):
            raise EvalError(f"row field {label!r} is not base-typed")
        out[label] = x.value
    return out


def _as_str(v: V.Value) -> str:
    if isinstance(v, V.VConst) and isinstance(v.value, str):
        return v.value
    raise EvalError("provenance component must be a string")


def _as_int(v: V.Value) -> int:
    if isinstance(v, V.VConst) and isinstance(v.value, int) and not isinstance(v.value, bool):
        return v.value
    raise EvalError("provenance component must be an integer")
