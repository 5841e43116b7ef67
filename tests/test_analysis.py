"""Colored subobjects, collection, restriction, and the sublist relation."""

import pytest
from random import Random

from provql import analysis, pipeline
from provql import syntax as S
from provql import values as V
from provql.database import Database
from provql.errors import EvalError
from provql.parser import parse_expr
from provql.progen import ProgGen
from provql.typecheck import Mode

C1 = V.LineageColor("T", 1)
C2 = V.LineageColor("T", 2)
C9 = V.LineageColor("T", 9)


def cell(v, *colors):
    return V.VAnnList(((v, frozenset(colors)),))


class TestCso:
    def test_annotated_value(self):
        v = V.VAnnot(V.VConst(42), V.WhereColor("QA", "a", 23))
        assert analysis.cso(Database(), S.ValueLit(v)) == frozenset({v})

    def test_unannotated_constant(self):
        assert analysis.cso(Database(), S.Const(7)) == frozenset()

    def test_concat_unions(self):
        a = V.VAnnot(V.VConst(1), V.WhereColor("T", "a", 1))
        b = V.VAnnot(V.VConst(2), V.WhereColor("T", "a", 2))
        e = S.Concat(S.Singleton(S.ValueLit(a)), S.Singleton(S.ValueLit(b)))
        assert analysis.cso(Database(), e) == frozenset({a, b})

    def test_table_contributes_annotated_rows(self, tours_db):
        spec = S.ProvSpec((S.ProvSpecEntry("phone", None),))
        row = S.make_row(
            [("name", S.STRING), ("based_in", S.STRING), ("phone", S.STRING), ("oid", S.INT)]
        )
        out = analysis.cso(tours_db, S.TableRef("Agencies", row, spec))
        assert V.VAnnot(V.VConst("412 1200"), V.WhereColor("Agencies", "phone", 1)) in out
        assert len(out) == 2

    def test_context_lemma(self, tours_db):
        # cso(E[M]) = cso(E) ∪ cso(M) on machine decompositions
        from provql.interp import MachineState, Done, decompose, step_info

        gen = ProgGen(77, Mode.WHERE, max_depth=3)
        prog, main = gen.pure_where_term()
        state = MachineState(tours_db.copy(), main, Mode.WHERE)
        checked = 0
        while checked < 60:
            d = decompose(state.focus, Mode.WHERE)
            if d is None:
                break
            ctx, redex = d
            assert analysis.cso(state.db, state.focus) == analysis.cso(
                state.db, ctx
            ) | analysis.cso(state.db, redex)
            out = step_info(state)
            if isinstance(out, Done):
                break
            state = out[0]
            checked += 1
        assert checked > 0


class TestCollect:
    def test_concat(self):
        e = S.Concat(
            S.ValueLit(cell(V.VConst(1), C1)), S.ValueLit(cell(V.VConst(2), C2))
        )
        assert analysis.collect(e) == frozenset({C1, C2})

    def test_empty(self):
        assert analysis.collect(S.EmptyList()) == frozenset()

    def test_for_unions_source_and_body(self):
        e = S.For("x", S.ValueLit(cell(V.VConst(1), C1)), S.ValueLit(cell(V.VConst(2), C2)))
        assert analysis.collect(e) == frozenset({C1, C2})

    def test_union_annot(self):
        e = S.UnionAnnot(S.EmptyList(), frozenset({C9}))
        assert analysis.collect(e) == frozenset({C9})

    def test_table_contents(self, tours_db):
        row = S.make_row([("name", S.STRING), ("oid", S.INT)])
        out = analysis.collect(S.TableRef("Agencies", row), tours_db)
        assert out == frozenset({V.LineageColor("Agencies", 1), V.LineageColor("Agencies", 2)})


class TestRestrict:
    def test_drop_everything(self):
        v = cell(V.VConst(5), C9)
        assert analysis.restrict(v, frozenset()) == V.VAnnList(())

    def test_full_set_keeps_value(self):
        v = V.VAnnList(
            (
                (cell(V.VConst(1), C1), frozenset({C2})),
                (V.VConst(3), frozenset()),
            )
        )
        assert analysis.restrict(v, analysis.collect(v)) == v

    def test_union_annot_not_subset(self):
        e = S.UnionAnnot(S.ValueLit(cell(V.VConst(1), C1)), frozenset({C9}))
        assert analysis.restrict(e, frozenset({C1})) == S.EmptyList()

    def test_monotone(self):
        rng = Random(3)
        gen = ProgGen(8, Mode.LINEAGE, max_depth=3)
        from provql.interp import eval_big
        from provql import suites

        db = suites.tours_db()
        for i in range(20):
            prog = gen.program()
            body = pipeline.query_expr(prog)
            _, v = eval_big(db.copy(), body, Mode.LINEAGE)
            colors = sorted(analysis.collect(v), key=V.color_sort_key)
            small = frozenset(rng.sample(colors, rng.randint(0, len(colors))))
            big = small | frozenset(
                rng.sample(colors, rng.randint(0, len(colors)))
            )
            assert analysis.sublist(
                analysis.restrict(v, small), analysis.restrict(v, big)
            )


class TestSublist:
    def test_empty_sublist_of_anything(self):
        v = cell(V.VConst(1), C1)
        assert analysis.sublist(V.VAnnList(()), v)

    def test_nested_record_sublist(self):
        # [(a = [2])] is a sublist of [(a = [1]), (a = [2, 3])]
        def rec(items):
            return V.vrecord({"a": V.VAnnList(tuple((V.VConst(i), frozenset()) for i in items))})

        p = V.VAnnList(((rec([2]), frozenset()),))
        v = V.VAnnList(((rec([1]), frozenset()), (rec([2, 3]), frozenset())))
        assert analysis.sublist(p, v)

    def test_annotations_must_match(self):
        p = cell(V.VConst(1), C1)
        v = cell(V.VConst(1), C2)
        assert not analysis.sublist(p, v)

    def test_reflexive_and_transitive(self):
        rng = Random(5)
        base = V.VAnnList(
            tuple((V.VConst(i), frozenset({V.LineageColor("T", i + 1)})) for i in range(6))
        )
        assert analysis.sublist(base, base)
        for _ in range(30):
            a = analysis.random_sublist(base, rng)
            b = analysis.random_sublist(a, rng)
            assert analysis.sublist(a, base)
            assert analysis.sublist(b, a)
            assert analysis.sublist(b, base)

    def test_shape_mismatch_raises(self):
        with pytest.raises(EvalError):
            analysis.sublist(V.VConst(1), cell(V.VConst(1)))

    def test_restrict_to_own_collection_contains(self):
        # p ⊑ v implies p ⊑ v|collect(p)
        rng = Random(11)
        v = V.VAnnList(
            tuple(
                (V.VConst(i), frozenset({V.LineageColor("T", i + 1)}))
                for i in range(8)
            )
        )
        for _ in range(40):
            p = analysis.random_sublist(v, rng)
            assert analysis.sublist(p, analysis.restrict(v, analysis.collect(p)))


class TestSampling:
    def test_exhaustive_when_small(self):
        v = V.VAnnList(
            tuple((V.VConst(i), frozenset({V.LineageColor("T", i + 1)})) for i in range(3))
        )
        subs = analysis.sample_sublists(v)
        assert len(subs) == 8  # every subset of three cells
        for p in subs:
            assert analysis.sublist(p, v)

    def test_sampled_when_large(self):
        v = V.VAnnList(
            tuple((V.VConst(i), frozenset({V.LineageColor("T", i + 1)})) for i in range(40))
        )
        subs = analysis.sample_sublists(v, seed=1)
        assert len(subs) == 64
        for p in subs:
            assert analysis.sublist(p, v)
