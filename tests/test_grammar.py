"""Grammar text format, rule derivation, and rule set bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from progest.errors import GrammarError, RuleError
from progest.grammar import (
    Annotation,
    CreationMode,
    Grammar,
    Production,
    RewritingRule,
    RuleSet,
    RuleTree,
    Symbol,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from tests_support import serialize_grammar

_SYMBOLS = st.builds(Symbol, st.sampled_from(["E", "F", "x", "> 12", ""]), st.booleans())


@given(_SYMBOLS, _SYMBOLS)
def test_symbols_compare_and_hash_by_their_fields(a, b):
    """Equality, order and hash agree with those of the two fields, and a
    symbol equals no plain tuple; marks hash as the members they are."""
    fields_a, fields_b = (a.name, a.is_terminal), (b.name, b.is_terminal)
    assert (a == b) == (fields_a == fields_b) == (not a != b)
    assert (a < b) == (fields_a < fields_b) and (a <= b) == (fields_a <= fields_b)
    groups = {(a, mark): mark for mark in Annotation}
    if a == b:
        assert hash(a) == hash(b)
        assert all(groups[(b, mark)] is mark for mark in Annotation)
    else:
        assert not any((b, mark) in groups for mark in Annotation)
    assert a != fields_a and (a, Annotation.D) != (fields_a, Annotation.D)


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


@pytest.mark.parametrize(
    "text",
    [
        'E -> "x" | "y"\nE -> "x"\n',
        'E -> "x" | "x"\n',
        # atoms are not part of a tree, so they do not tell productions apart
        'E -> F:Int "!" :: Boolean | F "!"\nF -> "v"\n',
    ],
)
def test_a_repeated_production_is_rejected(text):
    with pytest.raises(GrammarError, match="repeated production E -> "):
        load_grammar(text)


def test_a_repeated_production_is_rejected_from_objects():
    p = Production(nonterminal("E"), (terminal("x"),))
    with pytest.raises(GrammarError, match='^repeated production E -> "x"$'):
        Grammar((p, Production(nonterminal("E"), (terminal("x"),))), p.lhs)
    # the same right-hand side under two left-hand sides is no repeat
    g = load_grammar('E -> F | "x"\nF -> "x"\n')
    assert len(g.productions) == 3


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
    assert rule.pattern == (nonterminal("E"), Annotation.D)
    root = rule.replacement
    assert root.anchor and root.annotation is Annotation.NONE
    assert root.children[0].annotation is Annotation.D  # fresh nonterminal
    assert root.children[1].annotation is Annotation.NONE  # terminal
    assert rule.block.anchor == 0 and rule.block.parents == (None, 0, 0)


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
    # preorder: the root, then its three children; the anchor is the second
    assert rule.block.anchor == 2 and rule.block.parents == (None, 0, 0, 0)
    assert rule.block.children[0] == (1, 2, 3)
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


def test_ruleset_ids_are_positions_and_groups():
    g = load_grammar(SIMPLE)
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )
    assert [rs[i] for i in range(len(rs))] == list(rs.rules)
    assert all(rs.by_key(r.key) is r for r in rs)
    groups = rs.groups
    total = sum(len(v) for v in groups.values())
    assert total == len(rs)
    assert sorted(p for pattern in groups for p in rs.positions(pattern)) == list(
        range(len(rs))
    )
    assert len(rs.group(None)) == 1
    assert len(rs.group((nonterminal("E"), Annotation.D))) == 3
    assert rs.group((nonterminal("E"), Annotation.U)) == ()
    for pattern, members in groups.items():
        assert [rs[p] for p in rs.positions(pattern)] == list(members)


def test_ruleset_rejects_duplicate_keys():
    g = load_grammar(SIMPLE)
    rs = derive_top_down_rules(g)
    with pytest.raises(RuleError, match="duplicate"):
        RuleSet([*rs, *rs])


def test_group_key_is_the_pattern():
    """A set groups its rules on their own patterns, creations under None,
    so a terminal and a nonterminal of one name are two groups."""
    g = load_grammar('E -> "E" | E "+" E\n')
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_bottom_up_rules(g),
         *derive_creation_rules(g, [CreationMode.ROOT])]
    )
    assert rs.groups == {
        pattern: tuple(r for r in rs if r.pattern == pattern)
        for pattern in dict.fromkeys(r.pattern for r in rs)
    }
    assert [r.key for r in rs.group(None)] == ["make-root:E"]
    assert [r.key for r in rs.group((terminal("E"), Annotation.U))] == ['bu0:E->"E"']
    assert [r.key for r in rs.group((nonterminal("E"), Annotation.U))] == [
        'bu0:E->E "+" E', 'bu2:E->E "+" E', "fin:E",
    ]


def test_rule_validation_rejects_bad_shapes():
    e = nonterminal("E")
    # creation rules carry no anchor
    with pytest.raises(RuleError):
        RewritingRule(None, RuleTree(e, Annotation.D, True), "bad")
    # non-creation rules need exactly one anchor
    with pytest.raises(RuleError):
        RewritingRule((e, Annotation.D), RuleTree(e, Annotation.D), "bad")
    # a pattern's mark is a direction, D or U
    for mark in (Annotation.NONE, Annotation.UD):
        with pytest.raises(RuleError):
            RewritingRule((e, mark), RuleTree(e, Annotation.NONE, True), "bad")
    # downward-marked nodes must stay childless
    with pytest.raises(RuleError):
        RewritingRule(
            (e, Annotation.D),
            RuleTree(e, Annotation.NONE, True, (RuleTree(e, Annotation.D, False, (RuleTree(terminal("x")),)),)),
            "bad",
        )
    # schema positions must land inside the replacement
    with pytest.raises(RuleError):
        RewritingRule(
            (e, Annotation.D),
            RuleTree(e, Annotation.NONE, True, (RuleTree(terminal("x")),)),
            "bad",
            schema=((5, TypeAtom("Int")),),
        )
