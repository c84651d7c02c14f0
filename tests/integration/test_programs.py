"""Integration tests: multi-rule programs run end to end.

These exercise rule interaction, control flow, negation, set-oriented
rules, and conflict resolution together — per matcher back end.
"""

import pytest



class TestOrderFulfilment:
    def test_orders_ship_when_lines_covered(self, make_engine,
                                            matcher_name):
        engine = make_engine(matcher_name)
        engine.load(
            """
            (literalize order id status)
            (literalize line order sku qty)
            (literalize stock sku qty)
            (literalize shipment order)

            (p reserve-line
              (order ^id <o> ^status open)
              { (line ^order <o> ^sku <sku> ^qty <q>) <L> }
              { (stock ^sku <sku> ^qty >= <q>) <S> }
              -->
              (bind <have> 0)
              (modify <S> ^qty 0)
              (remove <L>))

            (p ship-when-complete
              { (order ^id <o> ^status open) <O> }
              -(line ^order <o>)
              -->
              (modify <O> ^status shipped)
              (make shipment ^order <o>))
            """
        )
        engine.make("order", id=1, status="open")
        engine.make("line", order=1, sku="bolt", qty=5)
        engine.make("line", order=1, sku="gear", qty=2)
        engine.make("stock", sku="bolt", qty=10)
        engine.make("stock", sku="gear", qty=2)
        engine.make("order", id=2, status="open")
        engine.make("line", order=2, sku="cog", qty=1)  # no stock
        engine.run(limit=50)
        assert engine.wm.find("shipment", order=1)
        assert not engine.wm.find("shipment", order=2)
        assert engine.wm.find("order", id=2, status="open")


MONKEY_PROGRAM = """
(literalize monkey at holds on)
(literalize thing name at)
(literalize goal wants done)

(p grab-bananas
  (goal ^wants bananas ^done no)
  { (monkey ^at bananas-spot ^on box ^holds nothing) <M> }
  -->
  (modify <M> ^holds bananas)
  (modify 1 ^done yes))

(p climb-box
  (goal ^wants bananas ^done no)
  { (monkey ^at bananas-spot ^on floor ^holds nothing) <M> }
  (thing ^name box ^at bananas-spot)
  -->
  (modify <M> ^on box))

(p push-box
  (goal ^wants bananas ^done no)
  { (monkey ^at <loc> ^on floor) <M> }
  { (thing ^name box ^at <loc>) <B> }
  -(thing ^name box ^at bananas-spot)
  -->
  (modify <M> ^at bananas-spot)
  (modify <B> ^at bananas-spot))

(p walk-to-box
  (goal ^wants bananas ^done no)
  { (monkey ^at <mloc> ^on floor) <M> }
  (thing ^name box ^at { <bloc> <> <mloc> })
  -->
  (modify <M> ^at <bloc>))
"""


class TestMonkeyAndBananas:
    @pytest.mark.parametrize("strategy", ["lex", "mea"])
    def test_monkey_gets_bananas(self, make_engine, matcher_name, strategy):
        engine = make_engine(matcher_name, strategy=strategy)
        engine.load(MONKEY_PROGRAM)
        engine.make("goal", wants="bananas", done="no")
        engine.make("monkey", at="door", holds="nothing", on="floor")
        engine.make("thing", name="box", at="corner")
        fired = engine.run(limit=20)
        assert engine.wm.find("goal", done="yes")
        assert engine.wm.find("monkey", holds="bananas")
        # walk -> push -> climb -> grab.
        assert fired == 4


STATISTICS_PROGRAM = """
(literalize reading sensor value)
(literalize summary sensor n mean lo hi)

(p summarise
  { [reading ^sensor <s> ^value <v>] <R> }
  :scalar (<s>)
  -(summary ^sensor <s>)
  -->
  (make summary
    ^sensor <s>
    ^n (count <R>)
    ^mean (avg <R> ^value)
    ^lo (min <R> ^value)
    ^hi (max <R> ^value)))
"""


class TestAggregateSummaries:
    def test_per_sensor_summary(self, make_engine, matcher_name):
        engine = make_engine(matcher_name)
        engine.load(STATISTICS_PROGRAM)
        data = {
            "t1": [10, 20, 30],
            "t2": [5, 5],
        }
        for sensor, values in data.items():
            for value in values:
                engine.make("reading", sensor=sensor, value=value)
        engine.run(limit=10)
        s1 = engine.wm.find("summary", sensor="t1")[0]
        assert (s1.get("n"), s1.get("mean")) == (3, 20.0)
        assert (s1.get("lo"), s1.get("hi")) == (10, 30)
        s2 = engine.wm.find("summary", sensor="t2")[0]
        assert (s2.get("n"), s2.get("lo"), s2.get("hi")) == (2, 5, 5)

    def test_summary_refreshes_on_new_reading(self, make_engine,
                                              matcher_name):
        engine = make_engine(matcher_name)
        engine.load(
            STATISTICS_PROGRAM
            + """
            (p refresh
              { (summary ^sensor <s> ^n <n>) <Sum> }
              { [reading ^sensor <s>] <R> }
              :test ((count <R>) > <n>)
              -->
              (remove <Sum>))
            """
        )
        engine.make("reading", sensor="t1", value=10)
        engine.run(limit=10)
        assert engine.wm.find("summary", sensor="t1", n=1)
        engine.make("reading", sensor="t1", value=30)
        engine.run(limit=10)
        summary = engine.wm.find("summary", sensor="t1")[0]
        assert summary.get("n") == 2
        assert summary.get("mean") == 20.0


PIPELINE_PROGRAM = """
(literalize batch stage size)
(literalize ticket batch step)

(p open-tickets
  { (batch ^stage new ^size <n>) <B> }
  -->
  (bind <i> 0)
  (modify <B> ^stage ticketed))

(p process-stage
  { (batch ^stage ticketed) <B> }
  { [ticket ^step todo] <T> }
  -->
  (set-modify <T> ^step done)
  (modify <B> ^stage complete))
"""


class TestSetStagePipeline:
    def test_set_stage_processes_all_tickets(self, make_engine,
                                             matcher_name):
        engine = make_engine(matcher_name)
        engine.load(PIPELINE_PROGRAM)
        engine.make("batch", stage="ticketed", size=3)
        for index in range(3):
            engine.make("ticket", batch=1, step="todo")
        engine.run(limit=10)
        assert len(engine.wm.find("ticket", step="done")) == 3
        assert engine.wm.find("batch", stage="complete")
