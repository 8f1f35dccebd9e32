"""Tree construction, splicing, rendering, and derivation replay."""

from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramgen import full_set, random_typed_grammar, top_down_set
from progest import constraints, trees
from progest.ambiguity import enumerate_complete_trees
from progest.condsynth import build_cond_ruleset, mine_templates, record_tree
from progest.constraints import SearchStep, constraints_of_application, feasible_rules
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
from progest.models import feasible_derivation
from progest.condsynth import train_cond_models
from progest.trees import (
    AnnotatedAst,
    AstNode,
    apply_rule,
    apply_rule_with_ids,
    build_complete_ast,
    is_complete,
    leaf_tokens,
    policy_leftmost,
    render,
    to_sexpr,
)
from tests_support import (
    cyclic_garbage,
    expandable_nodes,
    isomorphic,
    make_hash_policy,
    reference_apply_rule_with_ids,
    reference_constraints_of_application,
    reference_expandable_nodes,
    reference_is_complete,
    reference_landings,
    reference_matcher,
    replay,
    tree_key,
    untyped_derivations,
)

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


def test_to_sexpr_leaves_no_reference_cycle(demo_grammar, rules):
    """Debug forms of finished and marked trees leave nothing that only the
    cyclic collector frees."""
    shown = [*enumerate_complete_trees(demo_grammar, 9),
             build_top_down(rules, ["make-root:E", 'td:E->E "+" E'])]
    assert cyclic_garbage(lambda: [to_sexpr(ast) for ast in shown]) == 0


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


def _assert_numbered(ast):
    assert sorted(ast.nodes) == list(range(len(ast.nodes)))


def _assert_spliced_in_order(old, probe):
    """The probe's tree is numbered 0…n−1 and its fresh nodes, in
    replacement preorder, take the ids from ``len(old.nodes)`` on."""
    new = probe.ast
    _assert_numbered(new)
    fresh = [nid for nid in probe.ids if nid not in old.nodes]
    assert fresh == list(range(len(old.nodes), len(new.nodes)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_built_trees_number_their_nodes_in_order(seed, middle):
    """A tree of n nodes has ids 0…n−1 and a splice numbers its fresh nodes
    from the old node count on, so the next id is ``len(ast.nodes)``.
    Checked on every tree a probe splices in a bounded search over a random
    typed grammar, and on every tree of a ``feasible_derivation`` replay."""
    g = random_typed_grammar(seed)
    rs = full_set(g)
    if middle:
        rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    step = SearchStep(rs, None, 7)
    frontier, spliced = [None], 0
    while frontier and spliced < 300:
        state = frontier.pop()
        ast = AnnotatedAst.empty() if state is None else state.ast
        if is_complete(ast):
            continue
        for probe in feasible_rules(state, step, policy_leftmost).kept:
            _assert_spliced_in_order(ast, probe)
            frontier.append(probe)
            spliced += 1
    assert spliced > 0
    for tree in islice(enumerate_complete_trees(g, 7), 20):
        _assert_numbered(tree)
        try:
            steps = feasible_derivation(tree, rs, policy_leftmost)
        except UnderivableTreeError:
            continue
        for taken in steps:
            _assert_numbered(taken.ast)
            _assert_spliced_in_order(taken.ast, taken.outcome.kept[taken.choice])


def _shape(ast, nid):
    """The subtree at ``nid`` as nested (Symbol, children) tuples, the
    input of ``build_complete_ast``."""
    node = ast.nodes[nid]
    return node.symbol, [_shape(ast, c) for c in node.children]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans())
def test_compiled_splice_matches_the_reference(seed, middle, hashed):
    """The splice from a rule's compiled block gives the recursive splice's
    nodes, ids and schema constraints, and the tree's ``open`` is the
    rescan's marked nodes in preorder.  Checked on every probe of a bounded
    search over a random typed grammar, top-down and bottom-up rules and
    creations alike, under the leftmost policy and under one that picks
    nodes anywhere in the tree.  Every node the splice makes, and every
    node ``build_complete_ast`` makes of a finished tree's shape, is
    exactly an ``AstNode``: both skip its constructor, and a plain tuple
    would still compare equal."""
    g = random_typed_grammar(seed)
    rs = full_set(g)
    if middle:
        rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    step = SearchStep(rs, None, 9)
    frontier, spliced = [None], 0
    while frontier and spliced < 300:
        state = frontier.pop()
        ast = AnnotatedAst.empty() if state is None else state.ast
        assert is_complete(ast) == reference_is_complete(ast)
        assert expandable_nodes(ast) == reference_expandable_nodes(ast)
        if is_complete(ast):
            built = build_complete_ast(_shape(ast, ast.root))
            assert to_sexpr(built) == to_sexpr(ast)
            assert all(type(node) is AstNode for node in built.nodes.values())
            continue
        outcome = feasible_rules(state, step, policy)
        for probe in outcome.kept:
            want, ids = reference_apply_rule_with_ids(ast, outcome.target, probe.rule)
            assert all(type(node) is AstNode for node in probe.ast.nodes.values())
            assert probe.ast.nodes == want.nodes
            assert probe.ast.root == want.root
            assert probe.ast.open == want.open
            assert list(probe.ids) == ids
            assert constraints_of_application(
                probe.rule, probe.ids
            ) == reference_constraints_of_application(probe.rule, ids)
            frontier.append(probe)
            spliced += 1
    assert spliced > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["topdown", "bottomup", "full", "middle"]), st.booleans())
@example(2, "full", False)  # spells its first operator "E"
def test_block_reading_matches_the_built_tree(seed, rules, hashed):
    """Read from the tree before a splice and the rule's block, whether the
    splice finishes the tree is ``is_complete`` of the spliced tree, and
    its labels, joined from the expansion's one split of the tree, are the
    key of the tree the reference splice builds.  Checked on every probe a
    bounded typed search keeps over a random typed grammar, stepping from
    each probe as a search does, with top-down rules and a root creation,
    bottom-up rules and leaf creations, both, and both plus middle
    creations, under two policies: at creations, at targets below the root
    unless the rules are bottom-up only, and at the root growing upward
    unless they are top-down only.
    Each expansion walks its tree once, however many probes it keeps."""
    g = random_typed_grammar(seed)
    if rules == "topdown":
        rs = top_down_set(g)
    elif rules == "bottomup":
        rs = RuleSet([*derive_bottom_up_rules(g),
                      *derive_creation_rules(g, [CreationMode.LEAF])])
    else:
        rs = full_set(g)
        if rules == "middle":
            rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    step = SearchStep(rs, None, 9)
    frontier, finished, spliced = [None], 0, 0
    met, expanded, walks = set(), 0, []
    split = constraints.split_labels
    with mock.patch.object(
        constraints, "split_labels", lambda *a: walks.append(a) or split(*a)
    ):
        while frontier and spliced < 300:
            state = frontier.pop()
            if state is not None and is_complete(state.ast):
                continue
            ast = AnnotatedAst.empty() if state is None else state.ast
            outcome = feasible_rules(state, step, policy)
            target = outcome.target
            for probe in outcome.kept:
                want, _ = reference_apply_rule_with_ids(ast, target, probe.rule)
                assert probe.labels == tree_key(want), probe
                assert probe.finishes == is_complete(probe.ast), probe
                finished += probe.finishes
                frontier.append(probe)
                spliced += 1
            if outcome.kept:
                expanded += target is not None
                met.add("creation" if target is None else
                        "root" if ast.nodes[target].parent is None else "leaf")
    assert 0 < finished < spliced
    assert len(walks) == expanded
    assert "creation" in met
    assert rules == "bottomup" or "leaf" in met
    assert rules == "topdown" or "root" in met


def _walk_both_ways(target, rs, policy) -> tuple[list, list, int]:
    """``untyped_derivations`` of ``target`` under the block matcher, with
    every landing it computes checked against ``reference_landings``, and
    under the reference matcher: each run's derivations as (application,
    target node, introduced, choice) per step, or None where the walk
    raises ``UnderivableTreeError``, and the number of landings checked."""
    block_landings = trees._landings
    checked = 0

    def compared(target, order, node, tid, rule):
        nonlocal checked
        got = list(block_landings(target, order, node, tid, rule))
        want = list(reference_landings(target, order, node, tid, rule))
        assert got == want, (rule.key, tid)
        checked += 1
        return iter(got)

    def derivations():
        try:
            return [
                [(s.application, s.target_node, s.introduced, s.choice) for s in d]
                for d in untyped_derivations(target, rs, policy)
            ]
        except UnderivableTreeError:
            return None

    with mock.patch.object(trees, "_landings", compared):
        got = derivations()
    with reference_matcher():
        want = derivations()
    return got, want, checked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["full", "middle", "topdown"]),
       st.booleans())
@example(2, "full", False)  # spells its first operator "E"
@example(8, "middle", True)  # spells its first operator "E"
def test_block_matcher_matches_the_recursive_reference(seed, rules, hashed):
    """The derivation walk's block matcher lands every kept probe where the
    recursive matcher of the rule's tree does, at every step, and the walk
    yields the same derivations under either.  Checked on the complete
    trees of random typed grammars, about a third of which spell an
    operator like their nonterminal, under top-down, full and full plus
    middle-creation rule sets and two policies."""
    g = random_typed_grammar(seed)
    rs = top_down_set(g) if rules == "topdown" else full_set(g)
    if rules == "middle":
        rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    checked = 0
    for tree in islice(enumerate_complete_trees(g, 7), 12):
        got, want, count = _walk_both_ways(tree, rs, policy)
        assert got == want
        checked += count
    assert checked > 0


def test_block_matcher_matches_the_reference_on_corpus_trees(corpus_records):
    """The same comparison on the trees of corpus records, each under its
    own context's condition rule set."""
    templates = mine_templates(corpus_records)
    for record in corpus_records[::10]:
        rs = build_cond_ruleset(templates, record.context)
        got, want, checked = _walk_both_ways(record_tree(record), rs, policy_leftmost)
        assert got == want and got, record.id
        assert checked >= len(got[0]), record.id


def _every_landing_agrees(target, rules) -> int:
    """``trees._landings`` of each of ``rules`` on ``target``, indexed by the
    target's heads, against ``reference_landings``: a creation once, and
    any other rule with its anchor on each node of its symbol, expanded at
    the rule's own mark or a mark both ways, at the root or below it.
    Returns how many of these land."""
    heads = trees._heads(target)
    order = target.preorder()
    assert list(heads) == order
    landed = 0
    for rule in rules:
        cases = [(None, None)]
        if rule.pattern is not None:
            symbol, direction = rule.pattern
            cases = [
                (AstNode(symbol, mark, parent), tid)
                for tid in order
                if target.nodes[tid].symbol == symbol
                for mark in (direction, Annotation.UD)
                for parent in (None, -1)
            ]
        for node, tid in cases:
            got = list(trees._landings(target, heads, node, tid, rule))
            want = list(reference_landings(target, order, node, tid, rule))
            assert got == want, (rule.key, tid, node)
            landed += bool(want)
    return landed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["full", "middle", "topdown"]))
def test_indexed_landings_match_the_reference_for_every_rule(seed, rules):
    """The head index refuses only blocks that cannot land: on the complete
    trees of random typed grammars, every rule of the set, at every node
    it could be anchored on, lands where the recursive reference lands it,
    whether or not a search would keep it there."""
    g = random_typed_grammar(seed)
    rs = top_down_set(g) if rules == "topdown" else full_set(g)
    if rules == "middle":
        rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    trees_ = islice(enumerate_complete_trees(g, 7), 12)
    landed = sum(_every_landing_agrees(tree, rs) for tree in trees_)
    assert landed > 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_indexed_landings_match_the_reference_on_corpus_contexts(corpus_records, data):
    """The same comparison on the trees of corpus records, under the
    condition rule set of the record's context or of another record's."""
    templates = mine_templates(corpus_records)
    record, other = data.draw(
        st.lists(st.sampled_from(corpus_records), min_size=2, max_size=2)
    )
    ctx = data.draw(st.sampled_from((record.context, other.context)))
    rs = build_cond_ruleset(templates, ctx)
    landed = _every_landing_agrees(record_tree(record), rs)
    assert landed > 0 or ctx != record.context


def test_a_corpus_training_matches_blocks_only_where_they_land(
    corpus_records, monkeypatch
):
    """A frequency training on the corpus lands 3 785 kept probes, of which
    1 306 land, one per build step; the head index refuses every other one
    before its block is matched, so the block matcher runs 1 306 times."""
    calls = {"landings": 0, "landed": 0, "match": 0}
    landings, match = trees._landings, trees._match

    def counted_landings(*args):
        calls["landings"] += 1
        found = list(landings(*args))
        calls["landed"] += bool(found)
        return iter(found)

    def counted_match(*args):
        calls["match"] += 1
        return match(*args)

    monkeypatch.setattr(trees, "_landings", counted_landings)
    monkeypatch.setattr(trees, "_match", counted_match)
    trained = train_cond_models(corpus_records, model_kind="frequency")
    assert len(trained.extraction.steps_audited) == 1306
    assert calls == {"landings": 3785, "landed": 1306, "match": 1306}
