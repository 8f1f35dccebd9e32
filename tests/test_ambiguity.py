"""Bounded tree enumeration and two-history detection."""

from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramgen import (
    full_set,
    random_dag_grammar,
    random_recursive_grammar,
    spine_set,
    top_down_set,
)
from progest.ambiguity import (
    check_unambiguous,
    enumerate_complete_trees,
    minimum_tree_sizes,
)
from progest.grammar import (
    CreationMode,
    RuleSet,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from progest.trees import policy_leftmost, render, to_sexpr
from tests_support import (
    isomorphic,
    make_hash_policy,
    reference_check_unambiguous,
    replay,
)

DEMO = 'E -> E "> 12" | E "> 0" | "hours" | "value" | E "+" E\n'


@pytest.fixture(scope="module")
def demo():
    return load_grammar(DEMO)


def test_minimum_tree_sizes(demo):
    sizes = minimum_tree_sizes(demo)
    assert sizes[nonterminal("E")] == 2
    assert sizes[terminal("hours")] == 1


def test_minimum_sizes_flag_dead_symbols():
    g = load_grammar('E -> "x" | F "y"\nF -> F "z"\n')
    sizes = minimum_tree_sizes(g)
    assert sizes[nonterminal("F")] == inf
    assert sizes[nonterminal("E")] == 2


def test_enumeration_counts_and_order(demo):
    trees = list(enumerate_complete_trees(demo, 9))
    assert len(trees) == 58
    counts = [len(t) for t in trees]
    assert counts == sorted(counts)
    assert all(counts[i] <= 9 for i in range(len(counts)))
    rendered = [render(t) for t in trees[:2]]
    assert rendered == ["hours", "value"]


def test_enumeration_respects_bound(demo):
    small = list(enumerate_complete_trees(demo, 2))
    assert [render(t) for t in small] == ["hours", "value"]
    assert list(enumerate_complete_trees(demo, 1)) == []


def test_top_down_set_is_unambiguous(demo):
    rs = RuleSet(
        [*derive_top_down_rules(demo), *derive_creation_rules(demo, [CreationMode.ROOT])]
    )
    report = check_unambiguous(rs, demo, max_nodes=9)
    assert report.unambiguous
    assert report.trees_checked == 58
    assert report.derivations_checked == 58
    assert report.underivable_trees == 0
    assert report.witness is None


def test_mixed_set_is_ambiguous(demo):
    rs = RuleSet([
        *derive_top_down_rules(demo),
        *derive_bottom_up_rules(demo),
        *derive_creation_rules(demo, [CreationMode.ROOT, CreationMode.LEAF]),
    ])
    report = check_unambiguous(rs, demo, max_nodes=9)
    assert not report.unambiguous
    w = report.witness
    assert w is not None
    # the clash already shows on a smallest tree
    assert len(w.tree) == 2
    assert w.rendered in ("hours", "value")
    assert w.derivation_a != w.derivation_b
    for apps in (w.derivation_a, w.derivation_b):
        assert isomorphic(replay(rs, list(apps)), w.tree)


def test_underivable_trees_are_counted(demo):
    # no creation rules: nothing is derivable, and that is not ambiguity
    rs = derive_top_down_rules(demo)
    report = check_unambiguous(rs, demo, max_nodes=4)
    assert report.unambiguous
    assert report.underivable_trees == report.trees_checked > 0


def _counts(report):
    return (
        report.unambiguous,
        report.max_nodes,
        report.trees_checked,
        report.derivations_checked,
        report.underivable_trees,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(("dag", "recursive", "recursive-dead")),
    st.sampled_from(("topdown", "full", "spine")),
    st.booleans(),
)
# the clashing tree has five builds; after the root creation come two that
# create the same leaf at two places, and the walk takes the place that is
# first in preorder, although the other build's later rules sort first
@example(243, "dag", "full", False)
def test_check_matches_the_per_tree_walk(seed, family, kind, hashed):
    """The forward search reports what the per-tree derivation walk reports:
    verdict, counts, witness tree and the two histories; its witness names
    the first step where the two histories part."""
    if family == "dag":
        g = random_dag_grammar(seed, max_programs=300)
    else:
        g = random_recursive_grammar(seed, with_dead=family == "recursive-dead")
    if kind == "topdown":
        rs = top_down_set(g)
    elif kind == "full":
        rs = full_set(g)
    else:
        terminals = sorted(g.terminals, key=lambda t: t.name)
        rs = spine_set(g, terminals[seed % len(terminals)])
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    got = check_unambiguous(rs, g, max_nodes=7, policy=policy)
    want = reference_check_unambiguous(rs, g, max_nodes=7, policy=policy)
    assert _counts(got) == _counts(want)
    if want.witness is None:
        assert got.witness is None
        return
    w = got.witness
    assert to_sexpr(w.tree) == to_sexpr(want.witness.tree)
    assert w.rendered == render(w.tree)
    # the same two builds, in the same order: the walk's first two
    assert (w.derivation_a, w.derivation_b) == (
        want.witness.derivation_a,
        want.witness.derivation_b,
    )
    for apps in (w.derivation_a, w.derivation_b):
        assert isomorphic(replay(rs, list(apps)), w.tree)
    app_a, app_b = next(
        (a, b) for a, b in zip(w.derivation_a, w.derivation_b) if a != b
    )
    assert app_a.node == app_b.node
    assert w.node == (0 if app_a.node is None else app_a.node)
    assert (w.rule_a, w.rule_b) == (rs[app_a.rule].key, rs[app_b.rule].key)
