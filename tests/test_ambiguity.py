"""Bounded tree enumeration and two-history detection."""

from math import inf

import pytest

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
from progest.trees import render
from tests_support import isomorphic, replay

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
