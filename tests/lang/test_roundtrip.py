"""Round-trip property: ``parse(format(rule)) == rule``.

Hypothesis generates random rule ASTs within the language's rules and
checks the printer and parser are exact inverses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast
from repro.lang.parser import ACTION_HEADS, parse_rule
from repro.lang.printer import format_rule

_identifiers = st.from_regex(r"[a-z][a-z0-9-]{0,6}", fullmatch=True).filter(
    lambda s: not s.endswith("-")
)
_var_names = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True)
_constants = st.one_of(
    st.integers(-999, 999),
    _identifiers,
)


@st.composite
def checks(draw):
    predicate = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    if predicate == "=" and draw(st.booleans()) and draw(st.booleans()):
        values = draw(st.lists(_constants, min_size=1, max_size=3))
        return ast.Check("=", ast.Disjunction(values))
    if draw(st.booleans()):
        return ast.Check(predicate, ast.Var(draw(_var_names)))
    return ast.Check(predicate, ast.Const(draw(_constants)))


@st.composite
def attr_tests(draw):
    attribute = draw(_identifiers)
    number = draw(st.integers(1, 2))
    return ast.AttrTest(
        attribute, [draw(checks()) for _ in range(number)]
    )


@st.composite
def condition_elements(draw, set_oriented=None):
    # A class named like an action (``if``, ``make``) is not in the
    # language: its form would start the RHS.
    wme_class = draw(_identifiers.filter(lambda s: s not in ACTION_HEADS))
    tests = draw(st.lists(attr_tests(), max_size=3, unique_by=lambda t: t.attribute))
    if set_oriented is None:
        set_oriented = draw(st.booleans())
    element_var = None
    if draw(st.booleans()):
        element_var = "Elem" + draw(_var_names)
    return ast.ConditionElement(
        wme_class, tests, set_oriented=set_oriented, element_var=element_var
    )


@st.composite
def simple_rules(draw):
    name = draw(_identifiers)
    ces = draw(st.lists(condition_elements(), min_size=1, max_size=3))
    actions = [ast.WriteAction([ast.Const("fired")])]
    return ast.Rule(name, ces, actions)


class TestRoundTrip:
    @given(simple_rules())
    @settings(max_examples=150, deadline=None)
    def test_parse_inverts_format(self, rule):
        assert parse_rule(format_rule(rule)) == rule

    def test_paper_rules_roundtrip(self):
        sources = [
            """(p compete
                 (player ^name <n1> ^team A)
                 (player ^name <n2> ^team B)
                 --> (write <n1> <n2>))""",
            """(p SwitchTeams
                 { [player ^team A] <ATeam> }
                 { [player ^team B] <BTeam> }
                 :test ((count <ATeam>) == (count <BTeam>))
                 --> (set-modify <ATeam> ^team B)
                     (set-modify <BTeam> ^team A))""",
            """(p RemoveDups
                 { [player ^name <n> ^team <t>] <P> }
                 :scalar (<n> <t>)
                 :test ((count <P>) > 1)
                 --> (bind <First> true)
                     (foreach <P> descending
                       (if (<First> == true)
                         (bind <First> false)
                        else
                         (remove <P>))))""",
            """(p GroupByTeam
                 [player ^team <t> ^name <n>]
                 --> (foreach <t> (write <t>)
                       (foreach <n> (write <n>))))""",
        ]
        for source in sources:
            rule = parse_rule(source)
            assert parse_rule(format_rule(rule)) == rule
