"""Bounded ambiguity checking for rewriting-rule sets.

A rule set is unambiguous (up to a size bound) when no complete tree within
the bound has two build histories.

The check generates forward from the empty tree, as AMBER does (Schröer
2001): one ``search.exhaustive_search`` over the rule set reaches every
complete tree within the bound once per build, through the same step the
beam takes.  The rules' type schemas are dropped first, so the check is
untyped.  Under one policy two builds of a tree first differ at a step
where the same node takes two different rules, so a tree reached twice has
two distinct histories.  Each build is keyed by its tree's preorder
``(name, is_terminal, arity)`` labels, and builds of trees the grammar does
not have are dropped.  When no tree has two builds, the report is counted,
not listed: the grammar's complete trees within the bound are counted with
the recursion that enumerates them, and those the search did not reach are
underivable.  Only a clash makes the check walk the grammar's tree shapes in
size order, up to the first clashing tree, which yields a replayable
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import inf

from .grammar import Grammar, RuleSet, Symbol, SymbolKind
from .search import Candidate, exhaustive_search
# iter_derivations is bound only so that the benchmark's tracer (perfbench)
# can wrap it under this module's name; the check itself does not call it
from .trees import (
    AnnotatedAst,
    Application,
    build_complete_ast,
    iter_derivations,
    policy_leftmost,
)

_TERMINAL = SymbolKind.TERMINAL


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


def tree_shapes(g: Grammar, max_nodes: int):
    """Yield every complete tree of ``g`` with at most ``max_nodes`` nodes, as
    nested ``(Symbol, children)`` tuples.

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
        yield from shapes(g.root, n)


def enumerate_complete_trees(g: Grammar, max_nodes: int):
    """Yield the trees of ``tree_shapes`` as ``AnnotatedAst`` values, in its
    order."""
    for shape in tree_shapes(g, max_nodes):
        yield build_complete_ast(shape)


def count_complete_trees(g: Grammar, max_nodes: int) -> int:
    """How many trees ``tree_shapes`` yields: its recursion, memoised,
    counting the trees instead of listing them."""
    mins = minimum_tree_sizes(g)

    @cache
    def count(sym: Symbol, n: int) -> int:
        if sym.is_terminal:
            return int(n == 1)
        return sum(fill(p.rhs, n - 1) for p in g.productions_for(sym))

    @cache
    def fill(symbols: tuple[Symbol, ...], budget: int) -> int:
        if not symbols:
            return int(budget == 0)
        first, rest = symbols[0], symbols[1:]
        first_min = mins[first]
        rest_min = sum(mins[s] for s in rest)
        if first_min == inf or rest_min == inf:
            return 0
        return sum(
            count(first, take) * fill(rest, budget - take)
            for take in range(int(first_min), int(budget - rest_min) + 1)
        )

    return sum(count(g.root, n) for n in range(1, max_nodes + 1))


def _shape_key(shape) -> tuple:
    """Preorder ``(name, is_terminal, arity)`` of a ``tree_shapes`` tree,
    which fixes the tree."""
    out = []
    stack = [shape]
    while stack:
        sym, kids = stack.pop()
        out.append((sym.name, sym.is_terminal, len(kids)))
        stack.extend(reversed(kids))
    return tuple(out)


def _grammar_tree_key(ast: AnnotatedAst, root: str, productions: set):
    """``_shape_key`` of a finished tree, or None when the tree is not a tree
    of the grammar: ``root`` names the grammar's root and ``productions``
    holds each production as (lhs name, right-hand side's (name,
    is_terminal) pairs).

    This runs once per build, so it reads names and kinds and hashes plain
    tuples; a ``Symbol`` hashes through Python code.
    """
    nodes = ast.nodes
    first = nodes[ast.root].symbol
    if first.kind is _TERMINAL or first.name != root:
        return None
    out = []
    stack = [ast.root]
    while stack:
        node = nodes[stack.pop()]
        kids = node.children
        sym = node.symbol
        if sym.kind is _TERMINAL:
            if kids:
                return None
            out.append((sym.name, True, 0))
            continue
        syms = [nodes[c].symbol for c in kids]
        rhs = tuple([(s.name, s.kind is _TERMINAL) for s in syms])
        if (sym.name, rhs) not in productions:
            return None
        out.append((sym.name, False, len(kids)))
        stack.extend(reversed(kids))
    return tuple(out)


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
    tree the clashing rules can both build.  Only builds of the grammar's
    trees count; a tree outside the grammar may have any number.  With no
    clash the counts need no enumeration: the grammar's trees are counted,
    and those the search did not reach are underivable.  With a clash the
    trees are checked in ``tree_shapes`` order, and the first clashing tree
    ends the check: its first two builds in walk order make the witness and
    count as two derivations.
    """
    untyped = RuleSet([replace(r, schema=()) for r in rs])
    found = exhaustive_search(
        untyped, None, policy=policy or policy_leftmost,
        size_limit=max_nodes, step_cap=inf,
    )
    productions = {
        (p.lhs.name, tuple((s.name, s.is_terminal) for s in p.rhs))
        for p in grammar.productions
    }
    builds: dict[tuple, list[Candidate]] = {}
    for cand in found.candidates:
        key = _grammar_tree_key(cand.ast, grammar.root.name, productions)
        if key is not None:
            builds.setdefault(key, []).append(cand)
    if all(len(same) == 1 for same in builds.values()):
        trees = count_complete_trees(grammar, max_nodes)
        return AmbiguityReport(
            True, max_nodes, trees, len(builds), trees - len(builds), None
        )
    trees_checked = 0
    derivations_checked = 0
    underivable = 0
    for shape in tree_shapes(grammar, max_nodes):
        trees_checked += 1
        same = builds.get(_shape_key(shape), ())
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
    raise AssertionError("a clashing grammar tree was not enumerated")
