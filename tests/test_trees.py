"""Tree construction, splicing, rendering, and derivation replay."""

import pytest

from progest.errors import ApplyError, IncompleteTreeError, UnderivableTreeError
from progest.grammar import (
    Annotation,
    CreationMode,
    RuleSet,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    apply_rule_with_ids,
    build_complete_ast,
    expandable_nodes,
    is_complete,
    leaf_tokens,
    policy_leftmost,
    render,
    to_sexpr,
)
from tests_support import isomorphic, replay, untyped_derivations

GRAMMAR = 'E -> E "> 12" | "hours" | "value" | E "+" E\n'


@pytest.fixture(scope="module")
def rules():
    g = load_grammar(GRAMMAR)
    td = derive_top_down_rules(g)
    bu = derive_bottom_up_rules(g)
    creation = derive_creation_rules(g, [CreationMode.ROOT, CreationMode.LEAF])
    return RuleSet([*td, *bu, *creation])


def build_top_down(rules, keys):
    ast = AnnotatedAst.empty()
    for key in keys:
        rule = rules.by_key(key)
        if ast.is_empty:
            ast = apply_rule(ast, None, rule)
        else:
            node, _ = policy_leftmost(ast)
            ast = apply_rule(ast, node, rule)
    return ast


def test_creation_then_expand(rules):
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))
    assert len(ast) == 1
    assert ast.nodes[ast.root].annotation is Annotation.D
    assert not is_complete(ast)
    ast = apply_rule(ast, ast.root, rules.by_key('td:E->"hours"'))
    assert is_complete(ast)
    assert render(ast) == "hours"


def test_top_down_build_and_render(rules):
    ast = build_top_down(
        rules, ["make-root:E", 'td:E->E "> 12"', 'td:E->"hours"']
    )
    assert is_complete(ast)
    assert render(ast) == "hours > 12"
    assert leaf_tokens(ast) == ["hours", "> 12"]


def test_origin_tracks_introducing_rule(rules):
    ast = build_top_down(rules, ["make-root:E", 'td:E->E "> 12"'])
    root = ast.nodes[ast.root]
    assert root.origin == "make-root:E"
    child = ast.nodes[root.children[0]]
    assert child.origin == 'td:E->E "> 12"'


def test_bottom_up_splice_keeps_subtree(rules):
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-leaf:hours"))
    leaf = ast.root
    ast, ids = apply_rule_with_ids(ast, leaf, rules.by_key('bu0:E->"hours"'))
    # replacement preorder: fresh E root, then the anchored terminal
    assert ids[1] == leaf
    assert ast.nodes[ast.root].annotation is Annotation.U
    assert ast.nodes[leaf].parent == ast.root
    grown = apply_rule(ast, ast.root, rules.by_key('bu0:E->E "> 12"'))
    assert render(apply_rule(grown, grown.root, rules.by_key("fin:E"))) == "hours > 12"


def test_upward_mark_stays_at_root(rules):
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-leaf:hours"))
    ast = apply_rule(ast, ast.root, rules.by_key('bu0:E->"hours"'))
    marked = [nid for nid, mark in expandable_nodes(ast)]
    assert marked == [ast.root]


def test_apply_errors(rules):
    empty = AnnotatedAst.empty()
    with pytest.raises(ApplyError):
        apply_rule(empty, None, rules.by_key('td:E->"hours"'))  # needs a target
    ast = apply_rule(empty, None, rules.by_key("make-root:E"))
    with pytest.raises(ApplyError):
        apply_rule(ast, None, rules.by_key("make-root:E"))  # tree not empty
    with pytest.raises(ApplyError):
        apply_rule(ast, ast.root, rules.by_key("fin:E"))  # D node, U rule
    done = apply_rule(ast, ast.root, rules.by_key('td:E->"hours"'))
    with pytest.raises(ApplyError):
        apply_rule(done, done.root, rules.by_key('td:E->"hours"'))  # no mark left
    leafy = apply_rule(empty, None, rules.by_key("make-leaf:hours"))
    with pytest.raises(ApplyError):
        apply_rule(leafy, leafy.root, rules.by_key('bu0:E->"value"'))  # wrong symbol


def test_render_requires_complete(rules):
    ast = build_top_down(rules, ["make-root:E", 'td:E->E "> 12"'])
    with pytest.raises(IncompleteTreeError):
        render(ast)


def test_to_sexpr_shows_marks_and_ignores_ids(rules):
    ast = build_top_down(rules, ["make-root:E", 'td:E->E "+" E'])
    assert to_sexpr(ast) == '(E E^D "+" E^D)'
    done = build_top_down(
        rules,
        ["make-root:E", 'td:E->E "+" E', 'td:E->"hours"', 'td:E->"value"'],
    )
    assert to_sexpr(done) == '(E (E "hours") "+" (E "value"))'


def test_isomorphic_ignores_build_route(rules):
    down = build_top_down(rules, ["make-root:E", 'td:E->E "> 12"', 'td:E->"hours"'])
    up = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-leaf:hours"))
    up = apply_rule(up, up.root, rules.by_key('bu0:E->"hours"'))
    up = apply_rule(up, up.root, rules.by_key('bu0:E->E "> 12"'))
    up = apply_rule(up, up.root, rules.by_key("fin:E"))
    assert isomorphic(down, up)
    other = build_top_down(rules, ["make-root:E", 'td:E->"hours"'])
    assert not isomorphic(down, other)


def test_build_complete_ast_shape():
    e = nonterminal("E")
    ast = build_complete_ast((e, [(e, [(terminal("hours"), [])]), (terminal("> 12"), [])]))
    assert is_complete(ast)
    assert render(ast) == "hours > 12"


def test_policy_leftmost_prefers_up():
    g = load_grammar(GRAMMAR)
    mid = derive_creation_rules(g, [CreationMode.MIDDLE])
    ast = apply_rule(AnnotatedAst.empty(), None, mid.by_key("make-mid:E"))
    # a both-ways mark resolves upward first
    assert policy_leftmost(ast) == (ast.root, Annotation.U)


def test_policy_leftmost_takes_first_marked(rules):
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-leaf:hours"))
    ast = apply_rule(ast, ast.root, rules.by_key('bu0:E->"hours"'))
    ast = apply_rule(ast, ast.root, rules.by_key('bu0:E->E "+" E'))
    # root carries the upward mark and precedes the open right operand
    assert policy_leftmost(ast) == (ast.root, Annotation.U)


def test_policy_fails_on_complete(rules):
    ast = build_top_down(rules, ["make-root:E", 'td:E->"hours"'])
    with pytest.raises(ValueError):
        policy_leftmost(ast)


def test_iter_derivations_counts_routes(rules):
    target = build_top_down(rules, ["make-root:E", 'td:E->E "> 12"', 'td:E->"hours"'])
    derivations = list(untyped_derivations(target, rules, policy_leftmost))
    # one top-down route plus one bottom-up route per leaf token
    assert len(derivations) == 3
    for steps in derivations:
        rebuilt = replay(rules, [s.application for s in steps])
        assert isomorphic(rebuilt, target)


def test_iter_derivations_requires_complete(rules):
    partial = build_top_down(rules, ["make-root:E", 'td:E->E "> 12"'])
    with pytest.raises(IncompleteTreeError):
        list(untyped_derivations(partial, rules, policy_leftmost))


def test_underivable_tree_raises():
    g = load_grammar(GRAMMAR)
    td_only = derive_top_down_rules(g)  # no creation rules at all
    target = build_complete_ast((nonterminal("E"), [(terminal("hours"), [])]))
    with pytest.raises(UnderivableTreeError):
        list(untyped_derivations(target, td_only, policy_leftmost))
