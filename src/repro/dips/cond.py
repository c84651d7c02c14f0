"""COND tables: the DIPS representation of partial matches (paper §8).

One COND table exists per WME class that appears in any rule.  Its
columns are (paper section 8.1):

* ``rule_id`` — which rule the row belongs to;
* ``cen`` — the ordinal number of the CE within the rule (1-based);
* one column per attribute referenced by any CE of that class (the
  union across rules; NULL where a CE does not reference it);
* ``rce`` — the classes and ordinals of the rule's other CEs (stored
  as a rendered string, as DIPS normalises it);
* ``wme_tag`` — section 8.2's replacement of the mark bit: the matched
  WME's identifier, NULL in template rows.

A *template row* (``wme_tag IS NULL``) holds the CE's pattern: constant
tests as constants, variables as ``<name>`` markers.  When a WME is
created it is compared against each template of its class; each
successful comparison inserts an *instance row* with the variables
replaced by the WME's values and ``wme_tag`` set — exactly the table
state Figure 6 displays.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.errors import DipsError
from repro.lang import ast
from repro.rdb.database import Database
from repro.rdb.schema import Column, Schema
from repro.rete import kernels


def cond_table_name(wme_class):
    """DIPS names COND tables after the class: ``COND-<class>``."""
    return f"COND-{wme_class}"


def _variable_marker(name):
    return f"<{name}>"


class _CondCE:
    """Static info for one (rule, CE) pair.

    ``matches(wme)`` is the CE's single-WME test (class, constants,
    predicates, intra tests), compiled once by :func:`kernels.alpha`:
    the same predicate a Rete alpha memory admits with.
    """

    __slots__ = ("rule", "level", "ce", "attributes", "pattern", "rce",
                 "matches")

    def __init__(self, rule, ce_analysis):
        self.rule = rule
        self.level = level = ce_analysis.level
        self.ce = ce = ce_analysis.ce
        self.matches = kernels.alpha(ce_analysis)
        self.attributes = tuple(test.attribute for test in ce.tests)
        self.pattern = self._build_pattern(ce)
        self.rce = ", ".join(
            f"({other.wme_class},{index + 1})"
            for index, other in enumerate(rule.ces)
            if index != level
        )

    @staticmethod
    def _build_pattern(ce):
        """attribute -> constant value or '<var>' marker (first = check)."""
        pattern = {}
        for test in ce.tests:
            for check in test.checks:
                if check.predicate != "=":
                    continue
                if isinstance(check.operand, ast.Const):
                    pattern.setdefault(test.attribute, check.operand.value)
                elif isinstance(check.operand, ast.Var):
                    pattern.setdefault(
                        test.attribute, _variable_marker(check.operand.name)
                    )
        return pattern


class BatchDelta:
    """What one :meth:`CondStore.apply_batch` changed, per rule.

    ``removed`` lists the deleted WMEs' tags; ``inserted`` maps a rule
    name to ``{CE level: [tags]}`` for the instance rows its *positive*
    CEs gained; ``negated`` names the rules whose negated CEs gained or
    lost instance rows.  ``statements`` counts the set-oriented
    DELETE/INSERT statements issued.
    """

    __slots__ = ("statements", "removed", "inserted", "negated")

    def __init__(self):
        self.statements = 0
        self.removed = []
        self.inserted = {}
        self.negated = set()


class CondStore:
    """Builds and maintains the COND tables for a set of rules."""

    def __init__(self, db=None, backend=None):
        self.db = db if db is not None else Database(backend)
        self._class_attributes = {}
        self._cond_ces = {}  # wme_class -> [_CondCE]
        self._rules = {}

    # -- schema construction ------------------------------------------------

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise DipsError(f"rule {rule.name} already added to DIPS")
        analysis = RuleAnalysis(rule)
        self._rules[rule.name] = (rule, analysis)
        for ce_analysis in analysis.ce_analyses:
            cond_ce = _CondCE(rule, ce_analysis)
            wme_class = cond_ce.ce.wme_class
            self._register_class(wme_class, cond_ce.attributes)
            self._cond_ces.setdefault(wme_class, []).append(cond_ce)
            self._insert_template(cond_ce)
        return analysis

    def _register_class(self, wme_class, attributes):
        known = self._class_attributes.setdefault(wme_class, [])
        new = [attr for attr in attributes if attr not in known]
        table_name = cond_table_name(wme_class)
        if not self.db.has_table(table_name):
            known.extend(new)
            columns = (
                [Column("rule_id", "str"), Column("cen", "int")]
                + [Column(attr) for attr in known]
                + [Column("rce", "str"), Column("wme_tag", "int")]
            )
            table = self.db.create_table(table_name, Schema(columns))
            table.create_index("wme_tag")
            table.create_index("rule_id")
        elif new:
            # A later rule references attributes the table lacks: widen
            # the schema (rebuild; existing rows read NULL in new cols).
            known.extend(new)
            old_table = self.db.table(table_name)
            rows = old_table.scan()
            self.db.drop_table(table_name)
            columns = (
                [Column("rule_id", "str"), Column("cen", "int")]
                + [Column(attr) for attr in known]
                + [Column("rce", "str"), Column("wme_tag", "int")]
            )
            table = self.db.create_table(table_name, Schema(columns))
            table.create_index("wme_tag")
            table.create_index("rule_id")
            table.insert_many(rows)

    def _insert_template(self, cond_ce):
        table = self.cond_table(cond_ce.ce.wme_class)
        row = {
            "rule_id": cond_ce.rule.name,
            "cen": cond_ce.level + 1,
            "rce": cond_ce.rce,
            "wme_tag": None,
        }
        for attribute in cond_ce.attributes:
            row[attribute] = cond_ce.pattern.get(attribute)
        table.insert(row)

    def remove_rule(self, rule_name):
        """Delete a rule's template and instance rows from every table."""
        entry = self._rules.pop(rule_name, None)
        if entry is None:
            raise DipsError(f"no rule named {rule_name} in DIPS")
        rule, _ = entry
        for wme_class, cond_ces in list(self._cond_ces.items()):
            self._cond_ces[wme_class] = [
                cond_ce for cond_ce in cond_ces
                if cond_ce.rule.name != rule_name
            ]
        for ce in rule.ces:
            table_name = cond_table_name(ce.wme_class)
            if self.db.has_table(table_name):
                self.db.table(table_name).delete_in(
                    "rule_id", [rule_name]
                )

    # -- WME maintenance -------------------------------------------------------

    @staticmethod
    def _instance_row(cond_ce, wme):
        row = {
            "rule_id": cond_ce.rule.name,
            "cen": cond_ce.level + 1,
            "rce": cond_ce.rce,
            "wme_tag": wme.time_tag,
        }
        for attribute in cond_ce.attributes:
            row[attribute] = wme.get(attribute)
        return row

    def wme_added(self, wme):
        """Compare *wme* against its class's templates; insert instances."""
        inserted = 0
        for cond_ce in self._cond_ces.get(wme.wme_class, ()):
            if not cond_ce.matches(wme):
                continue
            self.cond_table(wme.wme_class).insert(
                self._instance_row(cond_ce, wme)
            )
            inserted += 1
        return inserted

    def backfill_rule(self, rule_name, wmes):
        """Insert instance rows for *one* rule's CEs from live WMEs.

        The dynamic-add path: the new rule's templates are in place and
        every other rule's instance rows already exist, so re-running
        :meth:`wme_added` (which spans *every* registered rule) would
        duplicate them — one grouped INSERT per table, restricted to
        *rule_name*, is the set-oriented backfill.  Returns the number
        of instance rows inserted.
        """
        entry = self._rules.get(rule_name)
        if entry is None:
            raise DipsError(f"no rule named {rule_name} in DIPS")
        by_class = {}
        for wme in wmes:
            by_class.setdefault(wme.wme_class, []).append(wme)
        inserted = 0
        for wme_class, group in by_class.items():
            cond_ces = [
                cond_ce for cond_ce in self._cond_ces.get(wme_class, ())
                if cond_ce.rule.name == rule_name
            ]
            if not cond_ces:
                continue
            rows = [
                self._instance_row(cond_ce, wme)
                for wme in group
                for cond_ce in cond_ces
                if cond_ce.matches(wme)
            ]
            if rows:
                self.cond_table(wme_class).insert_many(rows)
                inserted += len(rows)
        return inserted

    def wme_removed(self, wme):
        """Delete every instance row carrying this WME's tag."""
        table_name = cond_table_name(wme.wme_class)
        if not self.db.has_table(table_name):
            return 0
        table = self.db.table(table_name)
        return table.delete_in("wme_tag", [wme.time_tag])

    def apply_batch(self, events):
        """Apply one flushed delta-set as set-oriented statements.

        This is the paper's section 8 story made literal: instead of
        one INSERT/DELETE per WME event, the batch becomes *one*
        ``DELETE ... WHERE wme_tag IN (...)`` per affected COND table
        and *one* multi-row INSERT per (class, tables') template scan.
        Returns a :class:`BatchDelta`: the statements issued and which
        instance rows of which (rule, CE) came and went — what the
        matcher's delta queries start from.
        """
        delta = BatchDelta()
        removed_tags = {}
        added = {}
        for event in events:
            wme = event.wme
            if event.is_add:
                added.setdefault(wme.wme_class, []).append(wme)
                continue
            removed_tags.setdefault(wme.wme_class, set()).add(wme.time_tag)
            delta.removed.append(wme.time_tag)
            for cond_ce in self._cond_ces.get(wme.wme_class, ()):
                if cond_ce.ce.negated and cond_ce.matches(wme):
                    delta.negated.add(cond_ce.rule.name)
        for wme_class, tags in removed_tags.items():
            table_name = cond_table_name(wme_class)
            if not self.db.has_table(table_name):
                continue
            self.db.table(table_name).delete_in("wme_tag", sorted(tags))
            delta.statements += 1
        for wme_class, wmes in added.items():
            cond_ces = self._cond_ces.get(wme_class, ())
            if not cond_ces:
                continue
            rows = []
            for wme in wmes:
                for cond_ce in cond_ces:
                    if not cond_ce.matches(wme):
                        continue
                    rows.append(self._instance_row(cond_ce, wme))
                    name = cond_ce.rule.name
                    if cond_ce.ce.negated:
                        delta.negated.add(name)
                    else:
                        delta.inserted.setdefault(name, {}).setdefault(
                            cond_ce.level, []
                        ).append(wme.time_tag)
            if rows:
                self.cond_table(wme_class).insert_many(rows)
                delta.statements += 1
        return delta

    # -- access -------------------------------------------------------------------

    def cond_table(self, wme_class):
        return self.db.table(cond_table_name(wme_class))

    def rules(self):
        return [rule for rule, _ in self._rules.values()]

    def analysis_of(self, rule_name):
        return self._rules[rule_name][1]

    def templates(self, wme_class):
        """Template rows (wme_tag IS NULL) of a class's COND table."""
        return self.cond_table(wme_class).select(
            lambda row: row.get("wme_tag") is None
        )

    def instances(self, wme_class):
        """Instance rows (wme_tag NOT NULL) of a class's COND table."""
        return self.cond_table(wme_class).select(
            lambda row: row.get("wme_tag") is not None
        )
