"""Bounded ambiguity checking for rewriting-rule sets.

A rule set is unambiguous (up to a size bound) when no complete tree within
the bound has two build histories.

The check generates forward from the empty tree, as AMBER does (Schröer
2001): one ``search.exhaustive_search`` over the rule set reaches every
complete tree within the bound once per build, through the same step the
beam takes.  The rules' type schemas are dropped first, so the check is
untyped.  Under one policy two builds of a tree first differ at a step
where the same node takes two different rules, so a tree reached twice has
two distinct histories.  The grammar's complete trees are enumerated in
size order to count them and to pick the first clashing tree, which yields
a replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

from .grammar import Grammar, RuleSet, Symbol
from .search import Candidate, exhaustive_search
# iter_derivations is bound only so that the benchmark's tracer (perfbench)
# can wrap it under this module's name; the check itself does not call it
from .trees import (
    AnnotatedAst,
    Application,
    build_complete_ast,
    iter_derivations,
    policy_leftmost,
    to_sexpr,
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


def enumerate_complete_trees(g: Grammar, max_nodes: int):
    """Yield every complete tree of ``g`` with at most ``max_nodes`` nodes.

    Trees come out in ascending node count; within one size the order follows
    production order, so runs are reproducible.
    """
    mins = minimum_tree_sizes(g)
    memo: dict[tuple[Symbol, int], list] = {}

    def shapes(sym: Symbol, n: int) -> list:
        key = (sym, n)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out: list = []
        if sym.is_terminal:
            if n == 1:
                out.append((sym, ()))
        else:
            for prod in g.productions_for(sym):
                out.extend((sym, kids) for kids in fill(prod.rhs, n - 1))
        memo[key] = out
        return out

    def fill(symbols: tuple[Symbol, ...], budget: int) -> list:
        if not symbols:
            return [()] if budget == 0 else []
        first, rest = symbols[0], symbols[1:]
        first_min = mins[first]
        rest_min = sum(mins[s] for s in rest)
        if first_min == inf or rest_min == inf:
            return []
        results: list = []
        for take in range(int(first_min), int(budget - rest_min) + 1):
            heads = shapes(first, take)
            if not heads:
                continue
            for tail in fill(rest, budget - take):
                results.extend((head,) + tail for head in heads)
        return results

    for n in range(1, max_nodes + 1):
        for shape in shapes(g.root, n):
            yield build_complete_ast(shape)


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


def _walk_order(cand: Candidate):
    """Where a build comes when a tree's builds are walked depth first from
    the empty tree, as ``trees.iter_derivations`` walks them: by its creation
    rule, then by the preorder place in the tree of the node the creation
    makes (id 0), then by its later rules."""
    first, *rest = cand.applications
    return first.rule, cand.ast.preorder().index(0), [app.rule for app in rest]


def _witness(a: Candidate, b: Candidate, rs: RuleSet) -> Witness:
    # both builds end in a complete tree, so neither history is a prefix of
    # the other; where they part, one policy picked one node for both
    app_a, app_b = next(
        (x, y) for x, y in zip(a.applications, b.applications) if x != y
    )
    return Witness(
        tree=a.ast,
        rendered=a.rendered,
        node=0 if app_a.node is None else app_a.node,
        rule_a=rs[app_a.rule].key,
        rule_b=rs[app_b.rule].key,
        derivation_a=a.applications,
        derivation_b=b.applications,
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
    tree the clashing rules can both build.  Trees are checked in the
    enumeration's order, and the first clashing tree ends the check: its
    first two builds in walk order make the witness and count as two
    derivations.
    """
    untyped = RuleSet([replace(r, schema=()) for r in rs])
    found = exhaustive_search(
        untyped, None, policy=policy or policy_leftmost,
        size_limit=max_nodes, state_cap=inf,
    )
    builds: dict[str, list[Candidate]] = {}
    for cand in found.candidates:
        builds.setdefault(to_sexpr(cand.ast), []).append(cand)
    trees_checked = 0
    derivations_checked = 0
    underivable = 0
    for tree in enumerate_complete_trees(grammar, max_nodes):
        trees_checked += 1
        same = builds.get(to_sexpr(tree), ())
        if not same:
            underivable += 1
        elif len(same) == 1:
            derivations_checked += 1
        else:
            a, b = sorted(same, key=_walk_order)[:2]
            return AmbiguityReport(
                False,
                max_nodes,
                trees_checked,
                derivations_checked + 2,
                underivable,
                _witness(a, b, rs),
            )
    return AmbiguityReport(
        True, max_nodes, trees_checked, derivations_checked, underivable, None
    )
