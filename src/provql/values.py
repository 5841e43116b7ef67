"""Runtime values, annotation colors, and canonical ordering.

Base values can carry a where-provenance color (``VAnnot``); list cells can
carry sets of lineage colors (``VAnnList``).  Plain lists are flattened
Python lists; the small-step machine also treats concat trees of list
values as values, converting to the flattened form on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Union

from .errors import EvalError
from . import syntax as S


# The value classes are constructed in bulk when SQL results decode, so
# they are hand-written __slots__ classes rather than dataclasses.


class WhereColor:
    """Cell-level origin triple (table, column, row oid)."""

    __slots__ = ("table", "column", "oid")

    def __init__(self, table: str, column: str, oid: int):
        if oid < 1:
            raise ValueError("oid must be >= 1")
        self.table = table
        self.column = column
        self.oid = oid

    def __eq__(self, other):
        return (
            type(other) is WhereColor
            and self.table == other.table
            and self.column == other.column
            and self.oid == other.oid
        )

    def __hash__(self):
        return hash((WhereColor, self.table, self.column, self.oid))

    def __repr__(self):
        return f"WhereColor({self.table!r}, {self.column!r}, {self.oid})"

    def __str__(self) -> str:
        return f'("{self.table}", "{self.column}", {self.oid})'


class LineageColor:
    """Row-level witness (table, row oid)."""

    __slots__ = ("table", "oid")

    def __init__(self, table: str, oid: int):
        if oid < 1:
            raise ValueError("oid must be >= 1")
        self.table = table
        self.oid = oid

    def __eq__(self, other):
        return (
            type(other) is LineageColor
            and self.table == other.table
            and self.oid == other.oid
        )

    def __hash__(self):
        return hash((LineageColor, self.table, self.oid))

    def __repr__(self):
        return f"LineageColor({self.table!r}, {self.oid})"

    def __str__(self) -> str:
        return f'("{self.table}", {self.oid})'


Color = Union[WhereColor, LineageColor]
ColorSet = frozenset


class Value:
    __slots__ = ()


class VConst(Value):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is VConst and self.value == other.value

    def __hash__(self):
        return hash((VConst, self.value))

    def __repr__(self):
        return f"VConst({self.value!r})"


class VRecord(Value):
    """Record value: ``labels`` holds the labels in canonical order and
    ``values`` the field values in the same order, so record values are
    label-order independent.  Records of one shape can share one labels
    tuple, which makes each record two collector-tracked objects."""

    __slots__ = ("labels", "values")

    def __init__(self, labels: tuple, values: tuple):
        self.labels = labels
        self.values = values

    @property
    def fields(self) -> tuple:
        """The ``(label, value)`` pairs, in canonical order."""
        return tuple(zip(self.labels, self.values))

    def get(self, label: str) -> Value:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise EvalError(f"no field {label!r} in record") from None

    def __eq__(self, other):
        return (
            type(other) is VRecord
            and self.labels == other.labels
            and self.values == other.values
        )

    def __hash__(self):
        return hash((VRecord, self.labels, self.values))

    def __repr__(self):
        return f"VRecord({self.labels!r}, {self.values!r})"


class VList(Value):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def __eq__(self, other):
        return type(other) is VList and self.items == other.items

    def __hash__(self):
        return hash((VList, self.items))

    def __repr__(self):
        return f"VList({self.items!r})"


class VAnnList(Value):
    """Annotated list: each cell pairs a value with its lineage color set."""

    __slots__ = ("cells",)

    def __init__(self, cells: tuple):
        self.cells = cells

    def __eq__(self, other):
        return type(other) is VAnnList and self.cells == other.cells

    def __hash__(self):
        return hash((VAnnList, self.cells))

    def __repr__(self):
        return f"VAnnList({self.cells!r})"


class VAnnot(Value):
    """Base value carrying a where-provenance color."""

    __slots__ = ("base", "color")

    def __init__(self, base: Value, color: WhereColor):
        self.base = base
        self.color = color

    def __eq__(self, other):
        return (
            type(other) is VAnnot
            and self.base == other.base
            and self.color == other.color
        )

    def __hash__(self):
        return hash((VAnnot, self.base, self.color))

    def __repr__(self):
        return f"VAnnot({self.base!r}, {self.color!r})"


class VTable(Value):
    __slots__ = ("name", "row", "spec")

    def __init__(self, name: str, row: S.Row, spec: S.ProvSpec = S.EMPTY_SPEC):
        self.name = name
        self.row = row
        self.spec = spec

    def __eq__(self, other):
        return (
            type(other) is VTable
            and self.name == other.name
            and self.row == other.row
            and self.spec == other.spec
        )

    def __hash__(self):
        return hash((VTable, self.name))

    def __repr__(self):
        return f"VTable({self.name!r})"


@dataclass(frozen=True)
class VClosure(Value):
    """Environment-based closure (used by the big-step evaluator only)."""

    fname: object
    params: tuple[str, ...]
    body: S.Expr
    env: object  # Env; kept untyped to avoid a cycle

    def __eq__(self, other):  # identity equality; closures are not data
        return self is other

    def __hash__(self):
        return id(self)


UNIT_VALUE = VRecord((), ())
TRUE = VConst(True)
FALSE = VConst(False)


def vrecord(entries) -> VRecord:
    """A record from ``(label, value)`` pairs or a dict, in any order."""
    items = sorted(entries.items() if isinstance(entries, dict) else entries, key=itemgetter(0))
    return VRecord(tuple([l for l, _ in items]), tuple([x for _, x in items]))


PAIR_LABELS = ("1", "2")
TRIPLE_LABELS = ("1", "2", "3")
# the labels of a lineage cell as a record (`interp.a2d`)
DATA_PROV_LABELS = ("data", "prov")


def vpair(a: Value, b: Value) -> VRecord:
    return VRecord(PAIR_LABELS, (a, b))


def vtriple(a: Value, b: Value, c: Value) -> VRecord:
    return VRecord(TRIPLE_LABELS, (a, b, c))


def color_value(c: Color) -> Value:
    """Colors as language values: triples for where, pairs for lineage."""
    if isinstance(c, WhereColor):
        return vtriple(VConst(c.table), VConst(c.column), VConst(c.oid))
    return vpair(VConst(c.table), VConst(c.oid))


def color_sort_key(c: Color):
    if isinstance(c, WhereColor):
        return (c.table, c.column, c.oid)
    return (c.table, "", c.oid)


def strip_annotations(v: Value) -> Value:
    """Drop all where/lineage annotations, yielding the plain data value."""
    if isinstance(v, VAnnot):
        return strip_annotations(v.base)
    if isinstance(v, VAnnList):
        return VList(tuple(strip_annotations(x) for x, _ in v.cells))
    if isinstance(v, VList):
        return VList(tuple(strip_annotations(x) for x in v.items))
    if isinstance(v, VRecord):
        return VRecord(v.labels, tuple([strip_annotations(x) for x in v.values]))
    return v


def serialize(v: Value):
    """Total-order sort key for closure-free values."""
    if isinstance(v, VConst):
        x = v.value
        if isinstance(x, bool):
            return ("b", x)
        if isinstance(x, int):
            return ("i", x)
        return ("s", x)
    if isinstance(v, VRecord):
        return ("r", tuple(zip(v.labels, map(serialize, v.values))))
    if isinstance(v, VList):
        return ("l", tuple(serialize(x) for x in v.items))
    if isinstance(v, VAnnList):
        return (
            "al",
            tuple(
                (serialize(x), tuple(sorted(map(color_sort_key, cs))))
                for x, cs in v.cells
            ),
        )
    if isinstance(v, VAnnot):
        return ("a", serialize(v.base), color_sort_key(v.color))
    if isinstance(v, VTable):
        return ("t", v.name)
    raise EvalError(f"cannot order value of kind {type(v).__name__}")


def canonical_order(v: Value) -> Value:
    """Sort all lists recursively (deepest first) by the serialized order.

    The total-order reference for multiset comparison: the tests and
    perfbench's reference outputs compare `pipeline.comparable` with it.
    It orders values of mixed types too; closures are rejected.
    """
    if isinstance(v, VClosure):
        raise EvalError("closure encountered in canonical_order")
    if isinstance(v, VRecord):
        return VRecord(v.labels, tuple([canonical_order(x) for x in v.values]))
    if isinstance(v, VAnnot):
        return VAnnot(canonical_order(v.base), v.color)
    if isinstance(v, VList):
        items = [canonical_order(x) for x in v.items]
        return VList(tuple(sorted(items, key=serialize)))
    if isinstance(v, VAnnList):
        cells = [(canonical_order(x), cs) for x, cs in v.cells]
        return VAnnList(
            tuple(
                sorted(
                    cells,
                    key=lambda c: (serialize(c[0]), tuple(sorted(map(color_sort_key, c[1])))),
                )
            )
        )
    return v


_SURFACED_LABELS = {"!data": "data", "!prov": "prov"}


def to_csv(v: Value) -> str:
    """Flat record lists as CSV text (RFC-4180 quoting)."""
    import csv
    import io

    if not isinstance(v, VList):
        raise EvalError("CSV export needs a list result")

    def flat(x: Value, prefix: str, row: dict) -> None:
        if isinstance(x, VConst):
            val = x.value
            if isinstance(val, bool):
                val = "true" if val else "false"
            row[prefix or "value"] = val
        elif isinstance(x, VRecord):
            for l, y in zip(x.labels, x.values):
                l = _SURFACED_LABELS.get(l, l)
                flat(y, f"{prefix}_{l}" if prefix else l, row)
        elif isinstance(x, VAnnot):
            flat(strip_annotations(x), prefix, row)
        else:
            raise EvalError("CSV export needs flat rows")

    rows = []
    for item in v.items:
        row: dict = {}
        flat(item, "", row)
        rows.append(row)
    headers: list[str] = []
    for row in rows:
        for k in row:
            if k not in headers:
                headers.append(k)
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=headers, lineterminator="\r\n")
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


def render(v: Value) -> str:
    """Print a value in source-like syntax.

    Internal !data/!prov labels are surfaced as data/prov.
    """
    if isinstance(v, VConst):
        if isinstance(v.value, bool):
            return "true" if v.value else "false"
        if isinstance(v.value, str):
            return '"' + v.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return str(v.value)
    if isinstance(v, VRecord):
        if not v.labels:
            return "()"
        fields = zip(v.labels, v.values)
        if all(l.isdigit() for l in v.labels):
            parts = [render(x) for _, x in sorted(fields, key=lambda kv: int(kv[0]))]
            return "(" + ", ".join(parts) + ")"
        parts = []
        for l, x in fields:
            l = _SURFACED_LABELS.get(l, l)
            if not l.isidentifier():
                l = f'"{l}"'
            parts.append(f"{l} = {render(x)}")
        return "(" + ", ".join(parts) + ")"
    if isinstance(v, VList):
        return "[" + ", ".join(render(x) for x in v.items) + "]"
    if isinstance(v, VAnnList):
        cells = []
        for x, cs in v.cells:
            anns = ", ".join(str(c) for c in sorted(cs, key=color_sort_key))
            cells.append(f"[{render(x)}]^{{{anns}}}")
        return " ++ ".join(cells) if cells else "[]"
    if isinstance(v, VAnnot):
        return f"{render(v.base)}^{v.color}"
    if isinstance(v, VTable):
        return f'table "{v.name}"'
    if isinstance(v, VClosure):
        return "<fun>"
    return repr(v)
