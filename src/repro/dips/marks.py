"""Classic DIPS COND tables with *mark bits* (the §8.1 baseline).

Before the paper's change, DIPS stored "mark bits for each CE in the
rule to indicate whether it has been matched".  Section 8.2 replaces
the bit with the WME identifier precisely because a bit cannot tell two
identical WMEs apart: "This gives the ability to have multi-sets in WM
as OPS5 does."

:class:`MarkBitCondStore` implements the old scheme so the difference
is demonstrable (``tests/dips/test_marks.py``, and the F6 narrative in
EXPERIMENTS.md): a duplicate WME leaves the mark-bit table unchanged,
so the match state under-counts and removing *one* of the duplicates
wrongly clears the mark entirely.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.dips.cond import _CondCE, cond_table_name
from repro.errors import DipsError
from repro.rdb.database import Database
from repro.rdb.schema import Column, Schema


class MarkBitCondStore:
    """COND tables storing a boolean ``mark`` instead of a WME tag."""

    def __init__(self, db=None):
        self.db = db if db is not None else Database()
        self._class_attributes = {}
        self._cond_ces = {}
        self._rules = {}

    def add_rule(self, rule):
        if rule.name in self._rules:
            raise DipsError(f"rule {rule.name} already added")
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
                + [Column("rce", "str"), Column("mark", "int")]
            )
            self.db.create_table(table_name, Schema(columns))
        elif new:
            known.extend(new)
            old_table = self.db.table(table_name)
            rows = old_table.scan()
            self.db.drop_table(table_name)
            columns = (
                [Column("rule_id", "str"), Column("cen", "int")]
                + [Column(attr) for attr in known]
                + [Column("rce", "str"), Column("mark", "int")]
            )
            table = self.db.create_table(table_name, Schema(columns))
            for row in rows:
                table.insert(row)

    def _insert_template(self, cond_ce):
        table = self.cond_table(cond_ce.ce.wme_class)
        row = {
            "rule_id": cond_ce.rule.name,
            "cen": cond_ce.level + 1,
            "rce": cond_ce.rce,
            "mark": 0,
        }
        for attribute in cond_ce.attributes:
            row[attribute] = cond_ce.pattern.get(attribute)
        table.insert(row)

    # -- maintenance --------------------------------------------------------

    def wme_added(self, wme):
        """Mark (or insert-and-mark) the matching instance rows.

        The §8.2 deficiency on display: a *duplicate* WME finds its
        instance row already present and merely leaves ``mark = 1`` —
        the multiplicity is lost.
        """
        changed = 0
        for cond_ce in self._cond_ces.get(wme.wme_class, ()):
            if not cond_ce.matches(wme):
                continue
            table = self.cond_table(wme.wme_class)
            values = {
                attribute: wme.get(attribute)
                for attribute in cond_ce.attributes
            }
            existing = [
                (row_id, row)
                for row_id, row in table.rows()
                if row.get("rule_id") == cond_ce.rule.name
                and row.get("cen") == cond_ce.level + 1
                and row.get("mark") == 1
                and all(
                    row.get(attr) == value for attr, value in values.items()
                )
            ]
            if existing:
                continue  # the bit is already set; duplicate is invisible
            row = {
                "rule_id": cond_ce.rule.name,
                "cen": cond_ce.level + 1,
                "rce": cond_ce.rce,
                "mark": 1,
            }
            row.update(values)
            table.insert(row)
            changed += 1
        return changed

    def wme_removed(self, wme):
        """Clear the mark — wrongly, when duplicates remain in WM."""
        table_name = cond_table_name(wme.wme_class)
        if not self.db.has_table(table_name):
            return 0
        table = self.db.table(table_name)
        removed = 0
        for cond_ce in self._cond_ces.get(wme.wme_class, ()):
            if not cond_ce.matches(wme):
                continue
            values = {
                attribute: wme.get(attribute)
                for attribute in cond_ce.attributes
            }
            removed += table.delete_where(
                lambda row: row.get("rule_id") == cond_ce.rule.name
                and row.get("cen") == cond_ce.level + 1
                and row.get("mark") == 1
                and all(
                    row.get(attr) == value for attr, value in values.items()
                )
            )
        return removed

    # -- access ---------------------------------------------------------------

    def cond_table(self, wme_class):
        return self.db.table(cond_table_name(wme_class))

    def marked_instances(self, wme_class):
        return self.cond_table(wme_class).select(
            lambda row: row.get("mark") == 1
        )
