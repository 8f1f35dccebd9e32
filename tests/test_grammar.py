"""Grammar text format, rule derivation, and rule set bookkeeping."""

import pytest

from progest.errors import GrammarError, RuleError
from progest.grammar import (
    Annotation,
    CreationMode,
    Grammar,
    Production,
    RewritingRule,
    RuleKind,
    RuleSet,
    RuleTree,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    group_key_of,
    load_grammar,
    nonterminal,
    terminal,
)
from tests_support import serialize_grammar


SIMPLE = """
# comment line
E -> E "> 12" | "hours"
E -> E "+" E
"""

TYPED = 'E -> E:Int "> 0" :: Boolean\nE -> "hours" :: Int\n'


def test_load_basic_shape():
    g = load_grammar(SIMPLE)
    assert g.root == nonterminal("E")
    assert len(g.productions) == 3
    assert g.productions[0].rhs == (nonterminal("E"), terminal("> 12"))
    assert g.productions[1].rhs == (terminal("hours"),)
    assert [s.name for s in g.terminals] == ["> 12", "hours", "+"]


def test_load_types():
    g = load_grammar(TYPED)
    p = g.productions[0]
    assert p.result_atom == TypeAtom("Boolean")
    assert p.rhs_atoms == (TypeAtom("Int"), None)
    assert g.productions[1].result_atom == TypeAtom("Int")


def test_serialize_round_trip():
    for text in (SIMPLE, TYPED):
        g = load_grammar(text)
        again = load_grammar(serialize_grammar(g))
        assert again.productions == g.productions
        assert again.root == g.root


def test_comment_inside_quotes_preserved():
    g = load_grammar('E -> "#tag"  # trailing comment\n')
    assert g.productions[0].rhs == (terminal("#tag"),)


@pytest.mark.parametrize(
    "text",
    [
        "just words\n",
        'E -> "unterminated\n',
        '9E -> "x"\n',
        "E -> \n",
        "",
        'E -> F\n',  # F undeclared
    ],
)
def test_load_rejects_malformed(text):
    with pytest.raises(GrammarError):
        load_grammar(text)


def test_grammar_error_carries_line_number():
    with pytest.raises(GrammarError, match="line 2"):
        load_grammar('E -> "x"\nE -> "bad\n')


def test_production_validation():
    with pytest.raises(GrammarError):
        Production(terminal("x"), (terminal("y"),))
    with pytest.raises(GrammarError):
        Production(nonterminal("E"), ())
    with pytest.raises(GrammarError):
        Production(
            nonterminal("E"), (terminal("x"),), None, (TypeAtom("Int"), TypeAtom("Int"))
        )


def test_grammar_requires_root_production():
    p = Production(nonterminal("E"), (terminal("x"),))
    with pytest.raises(GrammarError):
        Grammar((p,), nonterminal("F"))


def test_schema_var_is_lowercase():
    assert TypeAtom("a").is_schema_var
    assert TypeAtom("result").is_schema_var
    assert not TypeAtom("Int").is_schema_var
    assert not TypeAtom("Boolean").is_schema_var


def test_top_down_rule_shape():
    g = load_grammar(SIMPLE)
    rs = derive_top_down_rules(g)
    assert len(rs) == 3
    rule = rs.by_key('td:E->E "> 12"')
    assert rule.kind is RuleKind.TOP_DOWN
    assert rule.pattern == (nonterminal("E"), Annotation.D)
    root = rule.replacement
    assert root.anchor and root.annotation is Annotation.NONE
    assert root.children[0].annotation is Annotation.D  # fresh nonterminal
    assert root.children[1].annotation is Annotation.NONE  # terminal
    assert rule.anchor_path() == ()


def test_top_down_schema_positions():
    g = load_grammar(TYPED)
    rs = derive_top_down_rules(g)
    rule = rs.by_key('td:E->E "> 0"')
    # preorder: anchored root at 0, then rhs children
    assert rule.schema == ((0, TypeAtom("Boolean")), (1, TypeAtom("Int")))


def test_bottom_up_rules_one_per_position():
    g = load_grammar(SIMPLE)
    rs = derive_bottom_up_rules(g)
    keys = {r.key for r in rs}
    assert keys == {
        'bu0:E->E "> 12"',
        'bu1:E->E "> 12"',
        'bu0:E->"hours"',
        'bu0:E->E "+" E',
        'bu1:E->E "+" E',
        'bu2:E->E "+" E',
        "fin:E",
    }
    rule = rs.by_key('bu1:E->E "+" E')
    assert rule.pattern == (terminal("+"), Annotation.U)
    assert rule.replacement.annotation is Annotation.U
    assert rule.anchor_path() == (1,)
    fin = rs.by_key("fin:E")
    assert fin.pattern == (nonterminal("E"), Annotation.U)
    assert fin.replacement.anchor and not fin.replacement.children


def test_creation_modes():
    g = load_grammar(SIMPLE)
    root_only = derive_creation_rules(g, [CreationMode.ROOT])
    assert [r.key for r in root_only] == ["make-root:E"]
    assert root_only[0].replacement.annotation is Annotation.D
    leaves = derive_creation_rules(g, [CreationMode.LEAF])
    assert {r.key for r in leaves} == {
        "make-leaf:> 12",
        "make-leaf:hours",
        "make-leaf:+",
    }
    assert all(r.replacement.annotation is Annotation.U for r in leaves)
    mids = derive_creation_rules(g, [CreationMode.MIDDLE])
    assert [r.key for r in mids] == ["make-mid:E"]
    assert mids[0].replacement.annotation is Annotation.UD


def test_ruleset_renumbers_and_groups():
    g = load_grammar(SIMPLE)
    rs = derive_top_down_rules(g).merged(derive_creation_rules(g, [CreationMode.ROOT]))
    assert [r.id for r in rs] == list(range(len(rs)))
    assert rs[2].id == 2
    groups = rs.groups
    total = sum(len(v) for v in groups.values())
    assert total == len(rs)
    assert len(rs.creation_rules) == 1
    assert len(rs.rules_for(nonterminal("E"), Annotation.D)) == 3
    assert rs.rules_for(nonterminal("E"), Annotation.U) == ()


def test_ruleset_rejects_duplicate_keys():
    g = load_grammar(SIMPLE)
    rs = derive_top_down_rules(g)
    with pytest.raises(RuleError, match="duplicate"):
        rs.merged(rs)


def test_group_key_of():
    g = load_grammar(SIMPLE)
    td = derive_top_down_rules(g)
    assert group_key_of(td[0]) == ("E", "D")
    creation = derive_creation_rules(g, [CreationMode.ROOT])
    assert group_key_of(creation[0]) == ("<create>", "")


def test_rule_validation_rejects_bad_shapes():
    e = nonterminal("E")
    # creation rules carry no anchor
    with pytest.raises(RuleError):
        RuleSet([
            RewritingRule(0, RuleKind.CREATION, None, RuleTree(e, Annotation.D, True), "bad")
        ])
    # non-creation rules need exactly one anchor
    with pytest.raises(RuleError):
        RuleSet([
            RewritingRule(0, RuleKind.TOP_DOWN, (e, Annotation.D), RuleTree(e, Annotation.D), "bad")
        ])
    # pattern mark has to match the kind
    with pytest.raises(RuleError):
        RuleSet([
            RewritingRule(0, RuleKind.TOP_DOWN, (e, Annotation.U), RuleTree(e, Annotation.NONE, True), "bad")
        ])
    # downward-marked nodes must stay childless
    with pytest.raises(RuleError):
        RuleSet([
            RewritingRule(
                0,
                RuleKind.TOP_DOWN,
                (e, Annotation.D),
                RuleTree(e, Annotation.NONE, True, (RuleTree(e, Annotation.D, False, (RuleTree(terminal("x")),)),)),
                "bad",
            )
        ])
    # schema positions must land inside the replacement
    with pytest.raises(RuleError):
        RuleSet([
            RewritingRule(
                0,
                RuleKind.TOP_DOWN,
                (e, Annotation.D),
                RuleTree(e, Annotation.NONE, True, (RuleTree(terminal("x")),)),
                "bad",
                schema=((5, TypeAtom("Int")),),
            )
        ])
