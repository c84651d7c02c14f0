"""A Matcher that matches by querying COND tables (set-oriented DIPS).

Where Rete pushes deltas through a compiled network, the DIPS matcher
does what the paper's section 8 describes: working-memory changes
update the COND tables (instance rows keyed by WME identifier), and one
set-oriented query retrieves what changed.  A batch's deletions retract
through a per-rule ``tag -> tokens`` index with no query at all; its
insertions run the rule's instantiation query once per affected
positive CE with that CE's alias restricted to the inserted tags — the
incremental-view rewrite ΔR ⋈ S, then R' ⋈ ΔS
(:func:`repro.dips.soi_query.instantiation_query_sql`).  Each such
query is parsed once per (rule, CE), the first time it runs; a batch
only binds its tags to the statement's ``IN (?)``.  The one
fallback is a rule whose *negated* CE gained or lost instance rows:
that rule re-runs the unrestricted query and diffs it against what it
holds, as ``add_rule`` backfill does.  Retrieved tokens feed the
terminal nodes Rete uses (:func:`repro.rete.pnode.build_terminal`),
staged once per delta-set, so a set-oriented rule's ``:test``
evaluation, ordering, and refire versions are the S-node's own — the
differential tests hold DIPS to the same behaviour as Rete.
"""

from __future__ import annotations

from repro.core.instantiation import MatchToken
from repro.dips.cond import CondStore
from repro.dips.soi_query import instantiation_query_sql, soi_query_sql
from repro.errors import DipsError
from repro.match.base import Matcher
from repro.rdb.sql import prepare_sql, run_sql
from repro.rete import kernels
from repro.rete.pnode import build_terminal


class _DipsRule:
    __slots__ = ("rule", "analysis", "production", "terminal", "sql",
                 "negated", "statements", "tokens", "by_tag")

    def __init__(self, rule, analysis, production, terminal, sql):
        self.rule = rule
        self.analysis = analysis
        self.production = production
        self.terminal = terminal
        self.sql = sql
        #: Per negated CE, its analysis and its compiled join test.
        self.negated = [
            (ce_analysis, kernels.join(ce_analysis.join_tests))
            for ce_analysis in analysis.ce_analyses
            if ce_analysis.ce.negated
        ]
        #: CE level (None: the full query) -> its prepared instantiation
        #: query, parsed the first time it runs.
        self.statements = {}
        #: The live tokens: the very objects the terminal holds.
        self.tokens = set()
        #: WME tag -> the live tokens that contain that WME.
        self.by_tag = {}

    def statement(self, level=None):
        """The rule's full query, or the delta query of the CE at
        *level* (one ``IN (?)`` parameter: the batch's tags)."""
        statement = self.statements.get(level)
        if statement is None:
            statement = self.statements[level] = prepare_sql(
                instantiation_query_sql(self.rule, self.analysis, level)
            )
        return statement


class DipsMatcher(Matcher):
    """Match through the relational substrate, per paper section 8."""

    def __init__(self, db=None, backend=None):
        super().__init__()
        self.store = CondStore(db, backend=backend)
        self._rules = {}

    @property
    def db(self):
        return self.store.db

    @property
    def storage_backend(self):
        """The rdb storage backend the COND tables live on."""
        return self.store.db.backend

    def close(self):
        """Release the storage backend (sqlite connections)."""
        self.store.db.close()

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise DipsError(f"rule {rule.name} already added")
        analysis = self.store.add_rule(rule)
        state = self._rules[rule.name] = _DipsRule(
            rule, analysis, *build_terminal(rule, analysis, self),
            soi_query_sql(rule, analysis),
        )
        if self.wm is not None:
            # Backfill only the NEW rule's instance rows: wme_added
            # spans every registered rule and would duplicate the
            # existing rules' rows (corrupting the Figure 6 grouped
            # aggregates, which COUNT/SUM over instance rows).
            self.store.backfill_rule(rule.name, list(self.wm))
            with self.staged():
                self._refresh(state)

    def remove_rule(self, rule_name):
        """Excise a rule: drop its COND rows and live instantiations."""
        state = self._rules.pop(rule_name, None)
        if state is None:
            raise DipsError(f"no rule named {rule_name}")
        self.store.remove_rule(rule_name)
        self.snodes.pop(rule_name, None)
        state.production.retract_all()

    # -- events ------------------------------------------------------------

    def on_event(self, event):
        self.on_batch((event,))

    def on_batch(self, events):
        """One set-oriented pass per delta-set (paper section 8).

        The whole batch updates the COND tables as one grouped
        DELETE/INSERT per table (:meth:`CondStore.apply_batch`); each
        rule then retrieves only what the batch changed for it, and the
        staged S-nodes decide once per touched SOI.
        """
        if not events:
            return
        delta = self.store.apply_batch(events)
        self.match_stats.incr("dips_batch_statements", delta.statements)
        with self.staged():
            for state in self._rules.values():
                if state.rule.name in delta.negated:
                    # A blocker came or went: which held tokens that
                    # blocks or frees is not a function of the delta's
                    # tags.
                    self.match_stats.incr("dips_full_refreshes")
                    self._refresh(state)
                else:
                    self._apply_delta(state, delta)

    # -- retrieval ---------------------------------------------------------

    def _apply_delta(self, state, delta):
        """Retract by tag index, add by one delta query per affected CE."""
        stale = set()
        for tag in delta.removed:
            stale.update(state.by_tag.get(tag, ()))
        new = {}
        inserted = delta.inserted.get(state.rule.name)
        if inserted:
            blockers = self._blocker_rows(state)
            for level, tags in inserted.items():
                # Two CEs matched in one batch meet in both queries.
                new.update(dict.fromkeys(
                    self._query_tokens(state, blockers, level, tags)
                ))
        self._replace(state, stale, new)

    def _refresh(self, state):
        """Run the unrestricted query and diff it against what is held."""
        fresh = dict.fromkeys(
            self._query_tokens(state, self._blocker_rows(state))
        )
        stale = [token for token in state.tokens if token not in fresh]
        new = [token for token in fresh if token not in state.tokens]
        self._replace(state, stale, new)

    def _replace(self, state, stale, new):
        """Retract the *stale* tokens, then admit the *new* ones, both
        in time-tag order.  *stale* must hold the very objects in
        ``state.tokens``: the terminal nodes remove by identity."""
        terminal = state.terminal
        for token in sorted(stale, key=MatchToken.time_tags):
            state.tokens.remove(token)
            # A self-join can hold one WME at two levels: unlink once.
            for tag in set(token.time_tags()):
                bucket = state.by_tag[tag]
                bucket.discard(token)
                if not bucket:
                    del state.by_tag[tag]
            terminal.token_removed(token)
        for token in sorted(new, key=MatchToken.time_tags):
            for tag in token.time_tags():
                state.by_tag.setdefault(tag, set()).add(token)
            state.tokens.add(token)
            terminal.token_added(token)

    def _query_tokens(self, state, blockers, level=None, tags=None):
        """Run the rule's instantiation query — the CE at *level*
        restricted to the delta's *tags* when *level* is given — and
        decode its unblocked rows into tokens.

        For set-oriented rules we deliberately query the *ungrouped*
        instantiation relation (the grouping and :test live in the
        rule's S-node); the grouped Figure 6 query is exposed via
        :meth:`soi_rows` for inspection and the figure's reproduction.
        """
        rule = state.rule
        params = () if level is None else (tags,)
        self.match_stats.incr("dips_queries_run")
        rows = run_sql(self.db, state.statement(level), params)
        self.match_stats.incr("dips_rows_retrieved", len(rows))
        tokens = []
        for row in rows:
            wmes = []
            for level, ce in enumerate(rule.ces):
                if ce.negated:
                    wmes.append(None)
                    continue
                tag = row[f"tag_{level + 1}"]
                wme = self.wm.get(tag) if self.wm is not None else None
                if wme is None:
                    break
                wmes.append(wme)
            else:
                token = MatchToken(wmes)
                if not _blocked(token, blockers):
                    tokens.append(token)
        return tokens

    def _blocker_rows(self, state):
        """Per negated CE, its compiled join test and the blocker
        candidates: the WMEs its instance rows (rule_id, cen, wme_tag
        NOT NULL) name in the class's COND table, fetched through the
        ``rule_id`` index and resolved through working memory as
        :meth:`_query_tokens` resolves positive CEs."""
        blockers = []
        for ce_analysis, test in state.negated:
            table = self.store.cond_table(ce_analysis.ce.wme_class)
            wmes = [
                self.wm.get(row["wme_tag"])
                for row in table.lookup("rule_id", state.rule.name)
                if row["cen"] == ce_analysis.level + 1
                and row["wme_tag"] is not None
            ]
            blockers.append((test, [wme for wme in wmes if wme is not None]))
        return blockers

    def soi_rows(self, rule_name):
        """Run the rule's Figure 6 grouped query; returns its rows."""
        state = self._rules[rule_name]
        return run_sql(self.db, state.sql)

    def soi_query(self, rule_name):
        """The SQL text of the rule's SOI-retrieval query."""
        return self._rules[rule_name].sql


def _blocked(token, blockers):
    """Residual negation: does any blocker WME pass its CE's compiled
    join test against *token*'s bindings?"""

    def binding(level, attribute):
        return token.wme_at(level).get(attribute)

    for test, wmes in blockers:
        for blocker in wmes:
            if test(blocker, binding):
                return True
    return False
