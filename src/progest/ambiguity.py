"""Bounded ambiguity checking for rewriting-rule sets.

A rule set is unambiguous (up to a size bound) when no complete tree within
the bound has two build histories.

The check generates forward from the empty tree, as AMBER does (Schröer
2001): the search loop at unbounded width (``search.finished_builds``)
reaches every complete tree within the bound once per build, through the
same step the beam takes.  The rules' type schemas are dropped first, so
the check is untyped.  Under one policy two builds of a tree first differ
at a step where the same node takes two different rules, so a tree reached
twice has two distinct histories.  Each build is keyed by its tree's
preorder ``(name, is_terminal, arity)`` labels, which fix the tree; they
are joined from the tree the last rule applies to, split at its target
once for every rule applied there, and that rule's block
(``trees.splice_labels``), so no build's tree is made.  The check then
walks the grammar's complete trees, as the same labels, in size order: a
tree with one build is a checked derivation, a tree with none is
underivable, and the first tree with two ends the walk with a replayable
witness.  Builds of trees the grammar does not have are never looked up.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from math import inf

from .grammar import Grammar, RuleSet, Symbol
from .search import Build, _is_count, applications, finished_builds
# iter_derivations is bound only so that the benchmark's tracer (perfbench)
# can wrap it under this module's name; the check itself does not call it
from .trees import (
    AnnotatedAst,
    Application,
    build_complete_ast,
    iter_derivations,
    policy_leftmost,
    render,
)

def minimum_tree_sizes(g: Grammar) -> dict[Symbol, float]:
    """Smallest complete-tree node count per symbol; inf for dead symbols."""
    sizes: dict[Symbol, float] = {t: 1.0 for t in g.terminals}
    for nt in g.nonterminals:
        sizes[nt] = inf
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            total = 1.0 + sum(sizes[s] for s in prod.rhs)
            if total < sizes[prod.lhs]:
                sizes[prod.lhs] = total
                changed = True
    return sizes


def tree_labels(g: Grammar, max_nodes: int):
    """Yield every complete tree of ``g`` with at most ``max_nodes`` nodes, as
    its preorder ``(name, is_terminal, arity)`` labels, which fix the tree.

    Trees come out in ascending node count; within one size the order follows
    production order, so runs are reproducible.
    """
    mins = minimum_tree_sizes(g)
    # each production's root label, made once for the walk and shared by
    # every tree it heads
    heads: dict[Symbol, list] = {}
    for prod in g.productions:
        heads.setdefault(prod.lhs, []).append(
            (((prod.lhs.name, False, len(prod.rhs)),), prod.rhs)
        )
    memo: dict[tuple[Symbol, int], list] = {}
    for n in range(1, max_nodes + 1):
        yield from _trees(heads, mins, memo, g.root, n)


# the two halves of tree_labels' recursion, at module level so that the
# memo they share is freed with the walk, not left in a reference cycle

def _trees(heads: dict, mins: dict, memo: dict, sym: Symbol, n: int) -> list:
    """The labels of every tree of ``sym`` with exactly ``n`` nodes."""
    key = (sym, n)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out: list = []
    if sym.is_terminal:
        if n == 1:
            out.append(((sym.name, True, 0),))
    else:
        for head, rhs in heads[sym]:
            out.extend(head + kids for kids in _fill(heads, mins, memo, rhs, n - 1))
    memo[key] = out
    return out


def _fill(heads: dict, mins: dict, memo: dict, symbols: tuple[Symbol, ...],
          budget: int) -> list:
    """The labels of every sequence of trees, one per symbol of
    ``symbols``, with ``budget`` nodes in all."""
    if not symbols:
        return [()] if budget == 0 else []
    first, rest = symbols[0], symbols[1:]
    first_min = mins[first]
    rest_min = sum(mins[s] for s in rest)
    if first_min == inf or rest_min == inf:
        return []
    results: list = []
    for take in range(int(first_min), int(budget - rest_min) + 1):
        firsts = _trees(heads, mins, memo, first, take)
        if not firsts:
            continue
        for tail in _fill(heads, mins, memo, rest, budget - take):
            results.extend(head + tail for head in firsts)
    return results


def _shape(labels: tuple) -> tuple:
    """The nested ``(Symbol, children)`` tuples of a tree's preorder labels."""
    return _node(iter(labels))


def _node(rest) -> tuple:
    name, is_terminal, arity = next(rest)
    return Symbol(name, is_terminal), tuple(_node(rest) for _ in range(arity))


def enumerate_complete_trees(g: Grammar, max_nodes: int):
    """Yield the trees of ``tree_labels`` as ``AnnotatedAst`` values, in its
    order."""
    for labels in tree_labels(g, max_nodes):
        yield build_complete_ast(_shape(labels))


@dataclass(frozen=True)
class Witness:
    """Two distinct build histories for the same tree.

    ``tree`` is the tree history a builds.  ``node`` is the node that the
    first step where the two histories differ applies to, and
    ``rule_a``/``rule_b`` name the rules the two histories apply there; at a
    creation step it is the first node the creation builds, id 0.  Replaying
    either application sequence from the empty tree reproduces ``tree``.
    """

    tree: AnnotatedAst
    rendered: str
    node: int
    rule_a: str
    rule_b: str
    derivation_a: tuple[Application, ...]
    derivation_b: tuple[Application, ...]


@dataclass(frozen=True)
class AmbiguityReport:
    unambiguous: bool
    max_nodes: int
    trees_checked: int
    derivations_checked: int
    underivable_trees: int
    witness: Witness | None = None


def _walk_order(build: Build):
    """Where a build comes when a tree's builds are walked depth first from
    the empty tree, as ``trees.iter_derivations`` walks them: by its creation
    rule, then by the preorder place in the tree of the node the creation
    makes (id 0), then by its later rules."""
    history = build.history
    return history[1], build.ast.preorder().index(0), history[3::2]


def _witness(a: Build, b: Build, rs: RuleSet) -> Witness:
    apps_a, apps_b = applications(a.history), applications(b.history)
    # both builds end in a complete tree, so neither history is a prefix of
    # the other; where they part, one policy picked one node for both
    app_a, app_b = next((x, y) for x, y in zip(apps_a, apps_b) if x != y)
    tree = a.ast
    return Witness(
        tree=tree,
        rendered=render(tree),
        node=0 if app_a.node is None else app_a.node,
        rule_a=rs[app_a.rule].key,
        rule_b=rs[app_b.rule].key,
        derivation_a=apps_a,
        derivation_b=apps_b,
    )


def check_unambiguous(
    rs: RuleSet,
    grammar: Grammar,
    *,
    max_nodes: int = 9,
    policy=None,
) -> AmbiguityReport:
    """Search for a tree within the bound that has two distinct histories.

    The bound keeps the check decidable; a clean report certifies nothing
    about larger trees, though in practice a clash shows up near the smallest
    tree the clashing rules can both build.  ``max_nodes`` must be an int of
    at least 1 (not a bool); anything else raises ``ValueError`` before the
    search starts.  Only builds of the grammar's trees count; a tree outside
    the grammar may have any number.  The grammar's trees are walked once,
    in ``tree_labels`` order: each tree with one build counts as a
    derivation, each with none as underivable, and the first clashing tree
    ends the check: its first two builds in walk order make the witness and
    count as two derivations.

    The builds are those of ``search.finished_builds`` at unbounded width,
    with no model and no renderer, each keyed by ``Probe.labels``.  A clean
    check makes no finished tree, so it splices once per expanded state
    past the empty tree; a clash makes the clashing tree's builds.

    The whole check, the caller's ``policy`` included, runs with the cyclic
    collector paused, and every exit, by a report or by an exception, gives
    the collector back in the state the caller had it.  The pause is safe
    because the check makes no reference cycles, clean or clashing
    (``tests/test_ambiguity.py::test_a_check_leaves_no_reference_cycle``):
    reference counting frees all it drops, and a collection would only
    rescan the probes, expansions and trees it still holds.  The pause is
    the process's: another thread's garbage waits for the check too.
    """
    if not _is_count(max_nodes, 1):
        raise ValueError(f"max_nodes must be an int >= 1, got {max_nodes!r}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _check(rs, grammar, max_nodes, policy or policy_leftmost)
    finally:
        if collecting:
            gc.enable()


def _check(rs: RuleSet, grammar: Grammar, max_nodes: int,
           policy) -> AmbiguityReport:
    untyped = RuleSet([replace(r, schema=()) for r in rs])
    # the loop's builds, unranked and unspliced: each is keyed by the labels
    # its probe's splice would make, and only a clashing tree's builds are
    # spliced, to order them by _walk_order and make the witness
    found, _ = finished_builds(
        untyped, None, None, policy=policy, widths=(inf,),
        size_limit=max_nodes, step_cap=inf,
    )
    # each tree's one build, or the list of its builds if it has more
    builds: dict[tuple, Build | list[Build]] = {}
    for build in found:
        labels = build.labels
        first = builds.setdefault(labels, build)
        if isinstance(first, list):
            first.append(build)
        elif first is not build:
            builds[labels] = [first, build]
    trees_checked = derivations_checked = underivable = 0
    for labels in tree_labels(grammar, max_nodes):
        trees_checked += 1
        same = builds.get(labels)
        if same is None:
            underivable += 1
        elif isinstance(same, list):
            a, b = sorted(same, key=_walk_order)[:2]
            return AmbiguityReport(False, max_nodes, trees_checked,
                                   derivations_checked + 2, underivable,
                                   _witness(a, b, rs))
        else:
            derivations_checked += 1
    return AmbiguityReport(
        True, max_nodes, trees_checked, derivations_checked, underivable
    )
