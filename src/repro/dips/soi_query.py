"""Generation of the Figure 6 SOI-retrieval query for arbitrary rules.

The paper shows, for its two-CE ``rule-1``, the query::

    select COND-E.WME-TAG, COND-W.WME-TAG
    from COND-E, COND-W
    where COND-E.RULE-ID = COND-W.RULE-ID
      and COND-E.WME-TAGs is not NULL
      and COND-W.WME-TAGs is not NULL
    group-by COND-E.WME-TAGS

"All matching instantiations of a set-oriented rule are initially
selected.  These are then formed into groups based on the WME
identifiers of the non-set-oriented CEs and the set-oriented PVs
specified in the scalar clause" (§8.2).  :func:`soi_query_sql`
generalises this to any rule: one COND-table alias per CE, restricted
to the rule and ordinal, shared-variable join conditions, NOT NULL tag
filters, and a GROUP BY over the scalar CEs' tags plus the ``:scalar``
variables' value columns, collecting the set CEs' tags per group.
"""

from __future__ import annotations

from repro.analysis import RuleAnalysis
from repro.dips.cond import cond_table_name
from repro.errors import DipsError


def _alias(level):
    return f"c{level + 1}"


def _quote(name):
    """Quote a column name: rule attributes may collide with keywords."""
    return f'"{name}"'


_SQL_PREDICATES = {
    "=": "=",
    "<>": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _join_conditions(rule, analysis):
    """Cross-CE conditions, straight from the analysed join tests."""
    conditions = []
    for ce_analysis in analysis.ce_analyses:
        if ce_analysis.ce.negated:
            # Negated CEs are applied as a residual blocker check by
            # the matcher, not in the positive join query.
            continue
        for test in ce_analysis.join_tests:
            sql_op = _SQL_PREDICATES.get(test.predicate)
            if sql_op is None:
                raise DipsError(
                    f"rule {rule.name}: predicate {test.predicate!r} has "
                    f"no SQL translation in the DIPS matcher"
                )
            conditions.append(
                f"{_alias(ce_analysis.level)}.{_quote(test.attribute)} "
                f"{sql_op} "
                f"{_alias(test.bound_level)}.{_quote(test.bound_attribute)}"
            )
    return conditions


def _from_where(rule, analysis):
    """The FROM and WHERE clauses every retrieval query shares: one
    COND-table alias per positive CE restricted to the rule, the CE
    ordinal and instance rows, plus the join conditions."""
    from_parts = []
    where_parts = []
    rule_id = "'" + rule.name.replace("'", "''") + "'"
    for level, ce in enumerate(rule.ces):
        if ce.negated:
            continue
        alias = _alias(level)
        from_parts.append(f'"{cond_table_name(ce.wme_class)}" AS {alias}')
        where_parts.append(f"{alias}.rule_id = {rule_id}")
        where_parts.append(f"{alias}.cen = {level + 1}")
        where_parts.append(f"{alias}.wme_tag IS NOT NULL")
    where_parts.extend(_join_conditions(rule, analysis))
    return f"FROM {', '.join(from_parts)} WHERE {' AND '.join(where_parts)}"


def instantiation_query_sql(rule, analysis, level=None):
    """The pre-grouping instantiation query: one row per match, the
    positive CEs' tags as ``tag_<ordinal>`` columns.

    A *level* makes it the delta query of the incremental-view rewrite
    (ΔR ⋈ S): ``AND c<level>.wme_tag IN (?)`` retrieves only the
    matches whose CE at *level* is one of the WMEs whose tags are bound
    to the parameter.
    """
    select_clause = ", ".join(
        f"{_alias(index)}.wme_tag AS tag_{index + 1}"
        for index, ce in enumerate(rule.ces)
        if not ce.negated
    )
    sql = f"SELECT {select_clause} {_from_where(rule, analysis)}"
    if level is not None:
        sql += f" AND {_alias(level)}.wme_tag IN (?)"
    return sql


def soi_query_sql(rule, analysis=None):
    """The SQL statement retrieving this rule's (set) instantiations.

    For a set-oriented rule the result has one row per SOI: the scalar
    CEs' tags and ``:scalar`` values as grouping columns, and a
    ``collect``-ed tag list per set-oriented CE.  For a tuple-oriented
    rule there is no GROUP BY and each row is one instantiation.
    """
    if analysis is None:
        analysis = RuleAnalysis(rule)
    if not rule.is_set_oriented:
        return instantiation_query_sql(rule, analysis)

    group_keys = []
    select_parts = []
    for level in analysis.scalar_ce_levels:
        column = f"{_alias(level)}.wme_tag"
        select_parts.append(f"{column} AS tag_{level + 1}")
        group_keys.append(column)
    scalar_pv_sites = [
        (name, analysis.binding_sites[name])
        for name in rule.scalar_vars
        if name in analysis.binding_sites
        and rule.ces[analysis.binding_sites[name][0]].set_oriented
    ]
    for name, (level, attribute) in scalar_pv_sites:
        column = f"{_alias(level)}.{_quote(attribute)}"
        select_parts.append(f'{column} AS "{name}"')
        group_keys.append(column)
    for level in analysis.set_ce_levels:
        select_parts.append(
            f"COLLECT({_alias(level)}.wme_tag) AS tags_{level + 1}"
        )
    # A pure-set rule has no grouping key: one SOI of everything, an
    # aggregate query without GROUP BY.
    group_clause = f" GROUP BY {', '.join(group_keys)}" if group_keys else ""
    return (
        f"SELECT {', '.join(select_parts)} {_from_where(rule, analysis)}"
        f"{group_clause}"
    )
