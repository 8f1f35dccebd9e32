"""Bounded tree enumeration and two-history detection."""

import gc
import hashlib
import re
from dataclasses import replace
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
from progest import ambiguity, constraints, search, trees
from progest.ambiguity import (
    check_unambiguous,
    enumerate_complete_trees,
    minimum_tree_sizes,
    tree_labels,
)
from progest.grammar import (
    CreationMode,
    Grammar,
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
    cyclic_garbage,
    isomorphic,
    make_hash_policy,
    reference_check_unambiguous,
    replay,
    tree_key,
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


# sha256 of the enumeration's to_sexpr lines on the demo grammar: the order
# decides the witness and ``trees_checked`` of a clashing check
DEMO_ENUMERATION_SHA256 = {
    9: (58, "4346fc3c5a6bccb026ecf3c300d1cdf3a7b08101b0e13e37728083cf0eb7b1bf"),
    13: (746, "0a654400d0fbe27f048f52790326392d30a009a0c42eeaf6824735db4e397bd7"),
}


@pytest.mark.parametrize("bound", sorted(DEMO_ENUMERATION_SHA256))
def test_enumeration_order_is_pinned(demo_grammar, bound):
    listed = [to_sexpr(t) for t in enumerate_complete_trees(demo_grammar, bound)]
    digest = hashlib.sha256("\n".join(listed).encode()).hexdigest()
    assert (len(listed), digest) == DEMO_ENUMERATION_SHA256[bound]


def _family_grammar(family, seed):
    if family == "dag":
        return random_dag_grammar(seed, max_programs=300)
    return random_recursive_grammar(seed, with_dead=family == "recursive-dead")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(("dag", "recursive", "recursive-dead")),
)
def test_tree_labels_fix_the_enumerated_trees(seed, family):
    """Each tree comes once, smallest first, and its labels are the key the
    certifier gives a build of it."""
    g = _family_grammar(family, seed)
    for bound in range(10):
        labels = list(tree_labels(g, bound))
        built = list(enumerate_complete_trees(g, bound))
        assert len(set(labels)) == len(labels) == len(built), bound
        sizes = [len(t) for t in built]
        assert sizes == sorted(sizes) and all(n <= bound for n in sizes), bound
        assert [tree_key(t) for t in built] == labels, bound


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


def _off_root_set(g: Grammar, other) -> RuleSet:
    """The top-down set of ``g`` plus the bottom-up and creation rules of the
    same productions rooted at ``other``: trees rooted at ``other`` are
    built both top-down and by climbing from a leaf, and are not trees of
    ``g``."""
    off_root = Grammar(g.productions, other)
    return RuleSet([
        *top_down_set(g),
        *derive_bottom_up_rules(off_root),
        *derive_creation_rules(off_root, [CreationMode.ROOT, CreationMode.LEAF]),
    ])


def test_a_clash_outside_the_grammar_is_not_ambiguity():
    g = load_grammar('E -> F "!"\nF -> "x"\n')
    f = nonterminal("F")
    rs = _off_root_set(g, f)
    # (F "x") has two builds, but only (E (F "x") "!") is a tree of g
    off = check_unambiguous(rs, Grammar(g.productions, f), max_nodes=4)
    assert not off.unambiguous and off.witness.rendered == "x"
    report = check_unambiguous(rs, g, max_nodes=4)
    assert _counts(report) == (True, 4, 1, 1, 0)
    assert report.witness is None
    assert _counts(report) == _counts(reference_check_unambiguous(rs, g, max_nodes=4))


def _criterion_06_sets(g: Grammar) -> tuple[RuleSet, RuleSet]:
    """Top-down rules seeded at the root; and both directions, minus the
    climb through the left operand of a two-operand production, seeded at
    the ``value`` leaf."""
    bottom_up = [
        rule
        for rule in derive_bottom_up_rules(g)
        if rule.key.startswith("fin:")
        or not rule.replacement.children[0].anchor
        or all(c.symbol.is_terminal for c in rule.replacement.children[1:])
    ]
    leaf = [
        r for r in derive_creation_rules(g, [CreationMode.LEAF])
        if r.key == "make-leaf:value"
    ]
    return top_down_set(g), RuleSet([*derive_top_down_rules(g), *bottom_up, *leaf])


def test_a_clean_check_lists_no_tree(demo_grammar, monkeypatch):
    """With no clash the grammar's trees are walked as labels only: no tree
    is built from them, and no tree, of the grammar or of the search, is
    printed or rendered."""

    def listed(*args, **kwargs):
        raise AssertionError("a clean check listed a tree")

    topdown, both = _criterion_06_sets(demo_grammar)
    monkeypatch.setattr(trees, "build_complete_ast", listed)
    monkeypatch.setattr(ambiguity, "build_complete_ast", listed)
    monkeypatch.setattr(trees, "to_sexpr", listed)
    monkeypatch.setattr(ambiguity, "render", listed)
    monkeypatch.setattr(trees, "leaf_tokens", listed)
    assert _counts(check_unambiguous(topdown, demo_grammar, max_nodes=13)) == (
        True, 13, 746, 746, 0
    )
    assert _counts(check_unambiguous(both, demo_grammar, max_nodes=13)) == (
        True, 13, 746, 373, 373
    )


@pytest.mark.parametrize("which, splices", [(0, 465), (1, 293)],
                         ids=["topdown", "both"])
def test_a_clean_check_splices_only_the_states_it_expands(
    demo_grammar, monkeypatch, which, splices
):
    """A clean check makes no finished tree: it keys each build from the
    block, so it splices once per expanded state past the empty tree (466
    and 294 expansions on the criterion 06 sets at bound 13), where
    splicing every build made 1 211 and 666 splices."""
    made = 0
    splice = constraints.apply_rule_with_ids

    def counted(*args):
        nonlocal made
        made += 1
        return splice(*args)

    monkeypatch.setattr(constraints, "apply_rule_with_ids", counted)
    rs = _criterion_06_sets(demo_grammar)[which]
    assert check_unambiguous(rs, demo_grammar, max_nodes=13).unambiguous
    assert made == splices


def _checked_set(g: Grammar, name: str) -> RuleSet:
    """A criterion 06 set, ``topdown`` or ``both``, or the clashing
    ``full`` set."""
    if name == "full":
        return full_set(g)
    return _criterion_06_sets(g)[("topdown", "both").index(name)]


@pytest.mark.parametrize("name", ["topdown", "both", "full"])
def test_a_check_leaves_no_reference_cycle(demo_grammar, name):
    """A check, and a walk of the grammar's trees, leave nothing that only
    the cyclic collector frees: with the collector off, a collection right
    after them finds no unreachable object.  The check runs with the
    collector paused, so this holds on a clash too, witness and all."""
    rs = _checked_set(demo_grammar, name)

    def check():
        check_unambiguous(rs, demo_grammar, max_nodes=13)
        for _ in enumerate_complete_trees(demo_grammar, 9):
            pass

    assert cyclic_garbage(check) == 0


@pytest.fixture
def collections():
    """The collections started while the test runs, one per allocation of
    a tracked object: the collector's young threshold is 1."""
    started: list[int] = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    gc.set_threshold(1)
    try:
        yield started
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)


@pytest.mark.parametrize("name", ["topdown", "both", "full"])
def test_a_check_runs_uncollected(demo_grammar, collections, name):
    """No collection starts inside a check, clean or clashing, though every
    allocation would start one; the collector's state is the caller's
    again afterwards, on or off."""
    rs = _checked_set(demo_grammar, name)
    assert gc.isenabled()
    # len() makes no tracked object, so reading the count starts nothing
    before = len(collections)
    report = check_unambiguous(rs, demo_grammar, max_nodes=13)
    during = len(collections) - before
    assert during == 0
    assert gc.isenabled()
    assert report.unambiguous == (name != "full")
    gc.disable()
    try:
        check_unambiguous(rs, demo_grammar, max_nodes=9)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_raising_policy_restores_the_collector(demo_grammar, enabled):
    """A caller's policy runs inside the pause; when it raises mid-search
    the collector is left as the caller had it."""
    calls = 0

    def failing(ast):
        nonlocal calls
        calls += 1
        if calls == 20:
            raise KeyError("policy failed")
        return policy_leftmost(ast)

    rs = _checked_set(demo_grammar, "topdown")
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(KeyError, match="policy failed"):
            check_unambiguous(rs, demo_grammar, max_nodes=13, policy=failing)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert calls == 20


@pytest.mark.parametrize("bound", [None, 2.5, True, 0, -1, "9"])
def test_a_bad_bound_is_refused_before_searching(demo_grammar, monkeypatch, bound):
    """A bound that is not an int of at least 1 raises, naming it, and no
    search starts: ``None`` would search without end, ``2.5`` failed only
    after the search, and ``True``, 0 and -1 certified no tree."""
    searches = 0

    def searched(*args, **kwargs):
        nonlocal searches
        searches += 1
        # stop here, so that an unbounded search fails rather than hangs
        raise AssertionError("a search started")

    monkeypatch.setattr(ambiguity, "finished_builds", searched)
    rs = _checked_set(demo_grammar, "topdown")
    with pytest.raises(ValueError, match=re.escape(repr(bound))):
        check_unambiguous(rs, demo_grammar, max_nodes=bound)
    assert searches == 0
    assert gc.isenabled()


@pytest.mark.parametrize("which", [0, 1], ids=["topdown", "both"])
def test_what_the_certifier_keeps_is_untracked(demo_grammar, which):
    """The labels a check keys its builds by are tuples of labels, and each
    label is one tuple of atoms per value, shared by every build whose tree
    holds it: a collection untracks the labels, and the next the tuples
    that hold them, so the collector does not promote them.  Checked on
    the builds of the check's own search over a criterion 06 set."""
    rs = _criterion_06_sets(demo_grammar)[which]
    untyped = RuleSet([replace(r, schema=()) for r in rs])
    builds, _ = search.finished_builds(
        untyped, None, None, widths=(inf,), size_limit=9, step_cap=inf
    )
    keys = [build.labels for build in builds]
    assert all(build.labels is key for build, key in zip(builds, keys))
    shared: dict = {}
    for key in keys:
        for label in key:
            assert shared.setdefault(label, label) is label
    gc.collect()
    assert not any(gc.is_tracked(label) for label in shared)
    gc.collect()
    assert not any(gc.is_tracked(key) for key in keys)


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
    st.sampled_from(("topdown", "full", "spine", "foreign", "off-root")),
    st.booleans(),
)
# the clashing tree has five builds; after the root creation come two that
# create the same leaf at two places, and the walk takes the place that is
# first in preorder, although the other build's later rules sort first
@example(243, "dag", "full", False)
def test_check_matches_the_per_tree_walk(seed, family, kind, hashed):
    """The forward search reports what the per-tree derivation walk reports:
    verdict, counts, witness tree and the two histories; its witness names
    the first step where the two histories part.  ``foreign`` checks the
    full set of another grammar and ``off-root`` adds builds rooted at a
    non-root symbol, so some builds are not trees of the grammar."""
    g = _family_grammar(family, seed)
    if kind == "topdown":
        rs = top_down_set(g)
    elif kind == "full":
        rs = full_set(g)
    elif kind == "foreign":
        rs = full_set(_family_grammar(family, seed + 1))
    elif kind == "off-root":
        rs = _off_root_set(g, g.nonterminals[1])
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
