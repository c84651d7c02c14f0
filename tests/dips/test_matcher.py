"""Unit tests for the DIPS query-based matcher."""

import pytest

from repro import MatchStats, RuleEngine
from repro.dips import DipsMatcher, soi_query_sql
from repro.lang.parser import parse_rule
from repro.rdb import sql
from repro.rete import ReteNetwork


def engine_with(program):
    engine = RuleEngine(matcher=DipsMatcher())
    engine.load(program)
    return engine


def dips_and_rete(program, backend):
    """The same program loaded on DIPS (over *backend*) and on Rete."""
    engines = (RuleEngine(matcher=DipsMatcher(backend=backend)),
               RuleEngine(matcher=ReteNetwork()))
    for engine in engines:
        engine.load(program)
    return engines


def assert_same_run(dips, rete):
    """Equal conflict sets, then equal firings, output and WM."""
    assert dips.conflict_set_size() == rete.conflict_set_size()
    assert dips.run() == rete.run()
    assert dips.output == rete.output
    assert ([(w.time_tag, w.as_dict()) for w in dips.wm]
            == [(w.time_tag, w.as_dict()) for w in rete.wm])


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

    def test_rule_name_with_a_quote_stays_one_literal(self):
        rule = parse_rule("(p it's-a-match (a ^x <v>) (b ^x <v>) --> (halt))")
        sql_text = soi_query_sql(rule)
        assert "c1.rule_id = 'it''s-a-match'" in sql_text
        assert sql.parse_sql(sql_text)[0] == "select"

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_rule_name_with_a_quote_matches_like_rete(self, backend):
        dips, rete = dips_and_rete(
            "(p it's-a-match (a ^x <v>) (b ^x <v>) --> (write hit <v>))",
            backend,
        )
        for engine in (dips, rete):
            engine.make("a", x=1)
            engine.make("b", x=1)
            engine.make("b", x=2)
        assert_same_run(dips, rete)
        assert dips.output == ["hit 1"]
        [row] = dips.matcher.soi_rows("it's-a-match")
        assert set(row) == {"tag_1", "tag_2"}
        dips.close()


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

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every SQL text parsed while the test runs."""
        texts = []
        parse = sql.parse_sql

        def spy(text):
            texts.append(text)
            return parse(text)

        monkeypatch.setattr(sql, "parse_sql", spy)
        return texts

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_add_rule_parses_once_per_rule(self, backend, parses):
        engine = RuleEngine(matcher=DipsMatcher(backend=backend))
        engine.load(self.JOIN + "(p s (W ^name <x>) --> (write w))")
        # Each rule's full query, run as add_rule's backfill; no delta
        # statement is prepared before it first runs.
        assert len(parses) == 2
        assert not any("IN (?)" in text for text in parses)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_prepared_batches_parse_nothing(self, backend, parses):
        # Setup's single-fact batches ran both CEs' delta statements.
        engine, counters = self.engine(self.JOIN, backend)
        assert sum("IN (?)" in text for text in parses) == 2
        parses.clear()
        for index in range(20):
            with engine.batch():
                engine.make("E", name=f"n{index}")
                engine.make("E", name=f"fresh{index}")
                engine.make("W", name=f"fresh{index}")
        assert parses == []
        assert engine.conflict_set_size() == 20 + 20 * 2
        # As in the single batch above: 2 queries and 3 rows a batch.
        assert counters["dips_queries_run"] == 20 * 2
        assert counters["dips_rows_retrieved"] == 20 * 3
        assert "dips_full_refreshes" not in counters

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_widened_cond_table_keeps_prepared_statements(self, backend):
        dips, rete = dips_and_rete(self.JOIN, backend)
        for engine in (dips, rete):
            for index in range(3):
                engine.make("E", name=f"n{index}", age=index)
                engine.make("W", name=f"n{index}")
        table = dips.matcher.store.cond_table("E")
        assert not table.schema.has_column("age")
        # A later rule reads ^age: the COND-E table is dropped and
        # rebuilt wider under the earlier rule's prepared statements.
        for engine in (dips, rete):
            engine.add_rule(
                "(p old (E ^name <x> ^age > 0) (W ^name <x>) --> (write old))"
            )
        assert dips.matcher.store.cond_table("E").schema.has_column("age")
        assert dips.matcher.store.cond_table("E") is not table
        for engine in (dips, rete):
            with engine.batch():
                engine.make("E", name="n0", age=5)
                engine.make("W", name="n2")
                engine.make("E", name="late", age=1)
                engine.make("W", name="late")
        assert_same_run(dips, rete)
        # n1 and n2 (backfilled), then n0 aged 5, n2's second W, late.
        assert dips.output.count("old") == 5
        dips.close()


class TestUnsupportedPredicates:
    def test_same_type_predicate_rejected(self):
        # <=> has no SQL translation; the DIPS matcher refuses clearly.
        from repro.errors import DipsError

        rule = parse_rule(
            "(p r (a ^x <v>) (b ^y <=> <v>) --> (halt))"
        )
        with pytest.raises(DipsError):
            soi_query_sql(rule)
