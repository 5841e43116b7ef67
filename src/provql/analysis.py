"""Executable metatheory: colored subobjects, lineage-annotation collection,
restriction, and the sublist relation.

These definitions power the property harnesses: evaluation must never
invent where-provenance annotations (colored subobjects only shrink), and
re-running a query on a lineage-restricted database must reproduce every
sampled sublist of the output.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterator, Union

from .database import Database
from .errors import EvalError
from . import syntax as S
from . import values as V

TermOrValue = Union[S.Expr, V.Value]


# ---------------------------------------------------------------------------
# Colored subobjects (where mode)


def cso(db: Database, x: TermOrValue) -> frozenset:
    """All annotated values occurring anywhere in a term or value.

    Table references contribute the annotated rows their reads would
    produce, so reading a table never makes new colored subobjects appear.
    """
    out: set = set()
    _cso(db, x, out)
    return frozenset(out)


def _cso(db: Database, x: TermOrValue, out: set) -> None:
    if isinstance(x, V.Value):
        if isinstance(x, V.VAnnot):
            out.add(x)
            _cso(db, x.base, out)
        elif isinstance(x, V.VRecord):
            for v in x.values:
                _cso(db, v, out)
        elif isinstance(x, V.VList):
            for v in x.items:
                _cso(db, v, out)
        elif isinstance(x, V.VAnnList):
            for v, _ in x.cells:
                _cso(db, v, out)
        elif isinstance(x, V.VTable):
            _cso_table(db, x.name, x.spec, out)
        elif isinstance(x, V.VClosure):
            _cso(db, x.body, out)
            if x.env is not None:
                for v in x.env.d.values():
                    _cso(db, v, out)
        return
    if isinstance(x, S.ValueLit):
        _cso(db, x.value, out)
        return
    if isinstance(x, S.TableRef):
        _cso_table(db, x.name, x.spec, out)
        for entry in x.spec.entries:
            if entry.fn is not None:
                _cso(db, entry.fn, out)
        return
    for c in x.children():
        _cso(db, c, out)


def _cso_table(db: Database, name: str, spec: S.ProvSpec, out: set) -> None:
    if name not in db.tables:
        return
    if spec:
        from .interp import _spec_eval

        rows = db.rows_annotated_where(name, spec, _spec_eval(db))
    else:
        rows = db.rows_as_values(name)
    _cso(db, rows, out)


# ---------------------------------------------------------------------------
# Lineage-annotation collection (lineage mode)


def collect(x: TermOrValue, db: Database | None = None) -> frozenset:
    """Union of all lineage annotations in a term or value; table references
    contribute the colors of their annotated contents."""
    out: set = set()
    _collect(x, db, out)
    return frozenset(out)


def _collect(x: TermOrValue, db, out: set) -> None:
    if isinstance(x, V.Value):
        if isinstance(x, V.VAnnList):
            for v, colors in x.cells:
                out.update(colors)
                _collect(v, db, out)
        elif isinstance(x, V.VList):
            for v in x.items:
                _collect(v, db, out)
        elif isinstance(x, V.VRecord):
            for v in x.values:
                _collect(v, db, out)
        elif isinstance(x, V.VTable):
            _collect_table(x.name, db, out)
        elif isinstance(x, V.VClosure):
            _collect(x.body, db, out)
            if x.env is not None:
                for v in x.env.d.values():
                    _collect(v, db, out)
        return
    if isinstance(x, S.UnionAnnot):
        out.update(x.colors)
        _collect(x.expr, db, out)
        return
    if isinstance(x, S.ValueLit):
        _collect(x.value, db, out)
        return
    if isinstance(x, S.TableRef):
        _collect_table(x.name, db, out)
        return
    for c in x.children():
        _collect(c, db, out)


def _collect_table(name: str, db, out: set) -> None:
    if db is None or name not in db.tables:
        return
    for r in db.get(name).rows:
        out.add(V.LineageColor(name, r["oid"]))


# ---------------------------------------------------------------------------
# Restriction


def restrict(x: TermOrValue, b: frozenset):
    """Drop every list cell (and every union annotation) whose colors are
    not contained in b; table references are left alone, their restriction
    happens through the restricted database."""
    if isinstance(x, V.Value):
        return _restrict_value(x, b)
    return _restrict_term(x, b)


def _restrict_value(v: V.Value, b: frozenset) -> V.Value:
    if isinstance(v, V.VAnnList):
        cells = []
        for x, colors in v.cells:
            if colors <= b:
                cells.append((_restrict_value(x, b), colors))
        return V.VAnnList(tuple(cells))
    if isinstance(v, V.VList):
        return V.VList(tuple(_restrict_value(x, b) for x in v.items))
    if isinstance(v, V.VRecord):
        return V.VRecord(v.labels, tuple([_restrict_value(x, b) for x in v.values]))
    if isinstance(v, V.VClosure):
        if v.env is None:
            return V.VClosure(v.fname, v.params, _restrict_term(v.body, b), None)
        return V.VClosure(
            v.fname, v.params, v.body, v.env.map_values(lambda x: _restrict_value(x, b))
        )
    return v


def _restrict_term(e: S.Expr, b: frozenset) -> S.Expr:
    if isinstance(e, S.UnionAnnot):
        if e.colors <= b:
            return S.UnionAnnot(_restrict_term(e.expr, b), e.colors)
        return S.EmptyList()
    if isinstance(e, S.ValueLit):
        return S.ValueLit(_restrict_value(e.value, b))
    if isinstance(e, S.TableRef):
        return e
    return S.map_children(e, lambda c: _restrict_term(c, b))


def restrict_db(db: Database, b: frozenset) -> Database:
    """Drop every table row whose lineage color is not in b."""
    return db.restrict(b)


# ---------------------------------------------------------------------------
# The sublist relation


def sublist(p: V.Value, v: V.Value) -> bool:
    """p is obtainable from v by deleting list cells; kept cells must carry
    identical annotation sets, records must agree pointwise."""
    if p == v:
        return True
    if isinstance(p, V.VAnnList) and isinstance(v, V.VAnnList):
        return _embed(p.cells, v.cells)
    if isinstance(p, V.VRecord) and isinstance(v, V.VRecord):
        if p.labels != v.labels:
            raise EvalError("sublist on records with different labels")
        return all(map(sublist, p.values, v.values))
    if type(p) is not type(v):
        raise EvalError(
            f"sublist on mismatched shapes: {type(p).__name__} vs {type(v).__name__}"
        )
    return False


def _embed(pc: tuple, vc: tuple) -> bool:
    # Greedy earliest-match subsequence embedding; valid because whether a
    # cell matches depends only on the pair of cells.
    i = 0
    for pv, pa in pc:
        while i < len(vc) and not (vc[i][1] == pa and sublist(pv, vc[i][0])):
            i += 1
        if i == len(vc):
            return False
        i += 1
    return True


def count_cells(v: V.Value) -> int:
    if isinstance(v, V.VAnnList):
        return len(v.cells) + sum(count_cells(x) for x, _ in v.cells)
    if isinstance(v, V.VList):
        return len(v.items) + sum(count_cells(x) for x in v.items)
    if isinstance(v, V.VRecord):
        return sum(map(count_cells, v.values))
    return 0


def enumerate_sublists(v: V.Value, cap: int = 4096) -> Iterator[V.Value]:
    """All sublists of a value (exhaustive), capped."""
    return itertools.islice(_enum(v), cap)


def _enum(v: V.Value) -> Iterator[V.Value]:
    if isinstance(v, V.VAnnList):
        n = len(v.cells)
        for mask in range(2**n):
            kept = [v.cells[i] for i in range(n) if mask & (1 << i)]
            for combo in itertools.product(*(_enum(x) for x, _ in kept)):
                yield V.VAnnList(
                    tuple((c, cell[1]) for c, cell in zip(combo, kept))
                )
    elif isinstance(v, V.VRecord):
        for combo in itertools.product(*map(_enum, v.values)):
            yield V.VRecord(v.labels, combo)
    else:
        yield v


def random_sublist(v: V.Value, rng: Random, max_keep: int = 3) -> V.Value:
    """A small random sublist: keeps at most max_keep cells per list level,
    so the collected color set stays small."""
    if isinstance(v, V.VAnnList):
        n = len(v.cells)
        k = rng.randint(0, min(max_keep, n))
        idx = sorted(rng.sample(range(n), k))
        cells = tuple(
            (random_sublist(v.cells[i][0], rng, max_keep), v.cells[i][1]) for i in idx
        )
        return V.VAnnList(cells)
    if isinstance(v, V.VRecord):
        return V.VRecord(
            v.labels, tuple([random_sublist(x, rng, max_keep) for x in v.values])
        )
    return v


def sample_sublists(
    v: V.Value, seed: int = 0, exhaustive_limit: int = 12, samples: int = 64
) -> list[V.Value]:
    """Sublists for theorem checks: exhaustive when the value is small,
    otherwise a bounded random sample."""
    if count_cells(v) <= exhaustive_limit:
        return list(enumerate_sublists(v))
    rng = Random(seed)
    return [random_sublist(v, rng) for _ in range(samples)]
