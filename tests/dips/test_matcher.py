"""Unit tests for the DIPS query-based matcher."""

import pytest

from repro import MatchStats, RuleEngine
from repro.dips import DipsMatcher, soi_query_sql
from repro.lang.parser import parse_rule


def engine_with(program):
    engine = RuleEngine(matcher=DipsMatcher())
    engine.load(program)
    return engine


class TestTupleRules:
    def test_join_rule(self):
        engine = engine_with(
            "(p r (E ^name <x>) (W ^name <x>) --> (write pair))"
        )
        engine.make("E", name="Mike")
        engine.make("W", name="Mike")
        engine.make("W", name="Sue")
        assert engine.conflict_set_size() == 1

    def test_removal_retracts(self):
        engine = engine_with(
            "(p r (E ^name <x>) (W ^name <x>) --> (write pair))"
        )
        e = engine.make("E", name="Mike")
        engine.make("W", name="Mike")
        engine.remove(e)
        assert engine.conflict_set_size() == 0

    def test_inequality_join_translates(self):
        engine = engine_with(
            "(p r (bid ^amount <a>) (ask ^amount <= <a>) --> (halt))"
        )
        engine.make("bid", amount=10)
        engine.make("ask", amount=8)
        engine.make("ask", amount=12)
        assert engine.conflict_set_size() == 1


class TestSetRules:
    def test_soi_per_scalar_group(self):
        engine = engine_with(
            "(p r (dept ^name <d>) [emp ^dept <d>] --> (halt))"
        )
        engine.make("dept", name="eng")
        engine.make("emp", dept="eng")
        engine.make("emp", dept="eng")
        engine.make("dept", name="ops")
        assert engine.conflict_set_size() == 1  # ops has no employees
        [soi] = engine.conflict_set.instantiations()
        assert len(soi.tokens()) == 2

    def test_full_program_runs(self):
        engine = engine_with(
            """
            (literalize player name team)
            (p SwitchTeams
              { [player ^team A] <ATeam> }
              { [player ^team B] <BTeam> }
              :test ((count <ATeam>) == (count <BTeam>))
              -->
              (set-modify <ATeam> ^team B)
              (set-modify <BTeam> ^team A))
            """
        )
        engine.make("player", name="a1", team="A")
        engine.make("player", name="b1", team="B")
        engine.run(limit=1)
        assert engine.wm.find("player", name="a1", team="B")
        assert engine.wm.find("player", name="b1", team="A")


class TestQueryGeneration:
    def test_tuple_rule_query_shape(self):
        rule = parse_rule("(p r (E ^name <x>) (W ^name <x>) --> (halt))")
        sql = soi_query_sql(rule)
        assert '"COND-E" AS c1' in sql
        assert "c1.wme_tag IS NOT NULL" in sql
        assert "GROUP BY" not in sql

    def test_set_rule_query_groups_by_scalars(self):
        rule = parse_rule(
            "(p r (E ^name <x>) [W ^name <x> ^job clerk] --> (halt))"
        )
        sql = soi_query_sql(rule)
        assert "GROUP BY c1.wme_tag" in sql
        assert "COLLECT(c2.wme_tag)" in sql

    def test_scalar_pv_in_group_by(self):
        rule = parse_rule(
            "(p r [emp ^dept <d>] :scalar (<d>) --> (halt))"
        )
        sql = soi_query_sql(rule)
        assert 'GROUP BY c1."dept"' in sql

    def test_pure_set_rule_has_no_group_by(self):
        rule = parse_rule("(p r [emp] --> (halt))")
        sql = soi_query_sql(rule)
        assert "GROUP BY" not in sql
        assert "COLLECT" in sql

    def test_queries_run_counter(self):
        stats = MatchStats()
        engine = RuleEngine(matcher=DipsMatcher(), stats=stats)
        engine.add_rule("(p r (a) --> (halt))")
        engine.make("a")
        assert stats.counters["dips_queries_run"] >= 1


class TestDeltaRetrieval:
    """The matcher queries the delta, not the table (ISSUE 23)."""

    JOIN = "(p r (E ^name <x>) (W ^name <x>) --> (write pair))"

    def engine(self, program, backend):
        stats = MatchStats()
        engine = RuleEngine(matcher=DipsMatcher(backend=backend),
                            stats=stats)
        engine.load(program)
        for index in range(20):
            engine.make("E", name=f"n{index}")
            engine.make("W", name=f"n{index}")
        for name in list(stats.counters):
            del stats.counters[name]
        return engine, stats.counters

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_additions_run_one_restricted_query_per_affected_ce(
        self, backend
    ):
        engine, counters = self.engine(self.JOIN, backend)
        with engine.batch():
            engine.make("E", name="n3")
            engine.make("E", name="fresh")
            engine.make("W", name="fresh")
        assert engine.conflict_set_size() == 22
        assert counters["dips_queries_run"] == 2  # one per CE touched
        # (E n3, W n3) once; (E fresh, W fresh) from either side.
        assert counters["dips_rows_retrieved"] == 3
        assert "dips_full_refreshes" not in counters

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_removals_retract_without_a_query(self, backend):
        engine, counters = self.engine(self.JOIN, backend)
        with engine.batch():
            engine.remove(1)
            engine.remove(4)
        assert engine.conflict_set_size() == 18
        assert "dips_queries_run" not in counters

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_negated_ce_change_takes_the_full_refresh(self, backend):
        engine, counters = self.engine(
            "(p r (E ^name <x>) -(W ^name <x>) --> (write lone))", backend
        )
        assert engine.conflict_set_size() == 0
        blocker = engine.wm.find("W", name="n7")[0]
        engine.remove(blocker)
        assert engine.conflict_set_size() == 1
        assert counters["dips_full_refreshes"] == 1
        engine.make("W", name="n7")
        assert engine.conflict_set_size() == 0
        assert counters["dips_full_refreshes"] == 2
        # A positive-CE change beside an untouched blocker set does not.
        engine.make("E", name="n8")
        engine.make("E", name="free")
        assert engine.conflict_set_size() == 1
        assert counters["dips_full_refreshes"] == 2


class TestUnsupportedPredicates:
    def test_same_type_predicate_rejected(self):
        # <=> has no SQL translation; the DIPS matcher refuses clearly.
        from repro.errors import DipsError

        rule = parse_rule(
            "(p r (a ^x <v>) (b ^y <=> <v>) --> (halt))"
        )
        with pytest.raises(DipsError):
            soi_query_sql(rule)
