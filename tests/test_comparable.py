"""`pipeline.comparable` against its reference: `V.canonical_order` of the
mode-converted value (`annotated_to_records` in where mode, `d2a` in
lineage mode)."""

import sqlite3
from contextlib import closing

import pytest

from provql import bench, pipeline, suites
from provql import values as V
from provql.errors import EvalError
from provql.interp import d2a
from provql.parser import pretty_print_program
from provql.progen import ProgGen
from provql.sqlbackend import load_database
from provql.typecheck import Mode

VARIANT_MODES = {
    "allprov": Mode.WHERE,
    "someprov": Mode.WHERE,
    "noprov": Mode.PLAIN,
    "lineage": Mode.LINEAGE,
    "nolineage": Mode.PLAIN,
}


def reference(v: V.Value, mode: Mode) -> V.Value:
    if mode is Mode.WHERE:
        v = pipeline.annotated_to_records(v)
    elif mode is Mode.LINEAGE:
        v = d2a(v)
    return V.canonical_order(v)


def assert_matches_reference(v: V.Value, mode: Mode) -> V.Value:
    out = pipeline.comparable(v, mode)
    assert out == reference(v, mode)
    return out


def assert_colors_interned(v: V.Value) -> None:
    """Equal lineage colors in ``v`` are one object."""
    seen: dict = {}
    todo = [v]
    while todo:
        x = todo.pop()
        if isinstance(x, V.VAnnList):
            for y, cs in x.cells:
                for color in cs:
                    assert seen.setdefault(color, color) is color, color
                todo.append(y)
        elif isinstance(x, V.VRecord):
            todo.extend(y for _, y in x.fields)
        elif isinstance(x, V.VList):
            todo.extend(x.items)


def c(x) -> V.VConst:
    return V.VConst(x)


def data_prov(data: V.Value, *witnesses: tuple) -> V.VRecord:
    prov = V.VList(tuple(V.vpair(c(t), c(o)) for t, o in witnesses))
    return V.vrecord([("data", data), ("prov", prov)])


@pytest.mark.parametrize(
    "query,variant",
    [(q, v) for suite in (suites.WHERE_SUITE, suites.LINEAGE_SUITE) for q in suite for v in suite[q]],
)
def test_suite_programs(query, variant, small_bench_db, small_bench_conn):
    suite = suites.LINEAGE_SUITE if variant in ("lineage", "nolineage") else suites.WHERE_SUITE
    mode = VARIANT_MODES[variant]
    prepared = pipeline.prepare(suite[query][variant], mode)
    assert_matches_reference(pipeline.run_interp(small_bench_db, prepared), mode)
    # a witness read from SQL results is one color object per result
    assert_colors_interned(assert_matches_reference(pipeline.run_sql(small_bench_conn, prepared), mode))


@pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
def test_generated_programs(mode):
    db = bench._tiny_tours()
    with closing(sqlite3.connect(":memory:")) as conn:
        load_database(conn, db)
        for i in range(300):
            prog = ProgGen(120_000 + i, mode, max_depth=4).program(flat=i % 2 == 0)
            prepared = pipeline.prepare(pretty_print_program(prog), mode)
            vi = assert_matches_reference(pipeline.run_interp(db, prepared), mode)
            vs = assert_matches_reference(pipeline.run_sql(conn, prepared), mode)
            assert vi == vs, i


def _rows_with_lists(mode: Mode, shared: bool) -> V.VList:
    """Two records over one unsorted list object (``shared``) or over two
    equal lists, in the form that ``mode``'s results take."""

    def item(x, o):
        if mode is Mode.WHERE:
            return V.VAnnot(c(x), V.WhereColor("tasks", "task", o))
        return data_prov(c(x), ("tasks", o)) if mode is Mode.LINEAGE else c(x)

    def row(n, xs, o):
        r = V.vrecord([("n", c(n)), ("xs", xs)])
        return data_prov(r, ("employees", o)) if mode is Mode.LINEAGE else r

    def xs():
        return V.VList((item("k", 3), item("b", 1), item("k", 2)))

    first = xs()
    return V.VList((row("z", first, 1), row("a", first if shared else xs(), 2)))


class TestSharedLists:
    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    def test_shared_list_matches_its_copy(self, mode):
        shared = _rows_with_lists(mode, shared=True)
        copied = _rows_with_lists(mode, shared=False)
        out = assert_matches_reference(shared, mode)
        assert out == assert_matches_reference(copied, mode)
        # the list is walked once, so both rows hold its one canonical form
        if mode is Mode.LINEAGE:
            (a, _), (b, _) = out.cells
        else:
            a, b = out.items
        assert a.get("xs") is b.get("xs")


class TestHandBuilt:
    def test_annotations_inside_nested_lists(self):
        agency = V.WhereColor("Agencies", "name", 2)
        tours = [
            V.VAnnot(c(t), V.WhereColor("Tours", "name", o))
            for t, o in [("b", 3), ("a", 4), ("b", 1)]
        ]
        v = V.VList(
            (
                V.vrecord([("a", V.VAnnot(c("y"), agency)), ("ts", V.VList(tuple(tours)))]),
                V.vrecord([("a", V.VAnnot(c("x"), agency)), ("ts", V.VList(()))]),
            )
        )
        out = assert_matches_reference(v, Mode.WHERE)
        inner = out.items[1].get("ts").items
        assert [x.get("!data").value for x in inner] == ["a", "b", "b"]
        assert inner[1].get("!prov") == V.color_value(V.WhereColor("Tours", "name", 1))

    def test_interpreter_where_output(self, tours_db):
        text = suites.TOURS_DECLS_PROV + (
            "query { for (a <-- agencies) [(n = a.name, ps = for (b <-- agencies) [b.phone])] }"
        )
        prepared = pipeline.prepare(text, Mode.WHERE)
        v = pipeline.run_interp(tours_db, prepared)
        assert isinstance(v.items[0].get("ps").items[0], V.VAnnot)
        assert_matches_reference(v, Mode.WHERE)

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE])
    def test_duplicate_rows(self, mode):
        row = V.vrecord([("n", c("a")), ("xs", V.VList((c(2), c(1), c(2))))])
        v = V.VList((row, V.vrecord([("n", c("a")), ("xs", V.VList(()))]), row))
        out = assert_matches_reference(v, mode)
        sorted_row = V.vrecord([("n", c("a")), ("xs", V.VList((c(1), c(2), c(2))))])
        assert out.items[1] == out.items[2] == sorted_row

    def test_empty_lists_in_lineage_mode(self):
        assert assert_matches_reference(V.VList(()), Mode.LINEAGE) == V.VAnnList(())
        v = V.VList((data_prov(V.vrecord([("xs", V.VList(()))]), ("t", 1)),))
        out = assert_matches_reference(v, Mode.LINEAGE)
        assert out.cells[0][0].get("xs") == V.VAnnList(())

    def test_witness_list_repeating_a_color(self):
        v = V.VList(
            (data_prov(c(2), ("t", 3), ("u", 1), ("t", 3)), data_prov(c(2), ("t", 3), ("u", 1)))
        )
        out = assert_matches_reference(v, Mode.LINEAGE)
        colors = frozenset({V.LineageColor("t", 3), V.LineageColor("u", 1)})
        assert out == V.VAnnList(((c(2), colors), (c(2), colors)))
        assert_colors_interned(out)

    def test_sorted_value_is_not_rebuilt(self):
        v = V.VList(
            (
                V.vrecord([("a", c(1)), ("b", V.VList((c("x"), c("y"))))]),
                V.vrecord([("a", c(2)), ("b", V.VList(()))]),
            )
        )
        assert pipeline.comparable(v, Mode.PLAIN) is v

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.WHERE, Mode.LINEAGE])
    def test_closure_rejected(self, mode):
        clo = V.VClosure(None, ("x",), None, None)
        for v in (clo, V.vrecord([("f", clo)])):
            with pytest.raises(EvalError):
                pipeline.comparable(v, mode)
            with pytest.raises(EvalError):
                reference(v, mode)

    @pytest.mark.parametrize(
        "item,message",
        [
            (c(1), "data/prov form"),
            (V.vrecord([("data", c(1)), ("witness", V.VList(()))]), "data/prov form"),
            (V.vrecord([("data", c(1)), ("prov", c(1))]), "witness list"),
            (V.vrecord([("data", c(1)), ("prov", V.VList((c(1),)))]), "lineage pair"),
        ],
    )
    def test_list_not_in_data_prov_form(self, item, message):
        for fn in (pipeline.comparable, reference):
            with pytest.raises(EvalError, match=message):
                fn(V.VList((item,)), Mode.LINEAGE)
