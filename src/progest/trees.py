"""Annotated abstract syntax trees and rewriting-rule application.

Trees are persistent values: ``apply_rule`` returns a new tree and leaves its
input untouched, so search states can share structure freely.  A tree of n
nodes numbers them 0…n−1 in the order they were made: a splice never drops a
node, so it numbers its fresh nodes from ``len(ast.nodes)`` on.  Ids are never
reused, which keeps replays of a recorded application sequence aligned
id-for-id.

Application uses one splice semantics for every rule kind: the replacement
tree takes the place of the matched node, and the anchored replacement node
inherits the matched node's id, its subtree, and whatever mark is left after
consuming the expansion direction.  For a plain top-down rule (anchor at the
root) that collapses to "keep the node, add children"; for a bottom-up rule
it hangs the old root under a new one.

A splice checks nothing and walks no tree: ``apply_rule`` checks the
rule's pattern first, and a search step checks its group's pattern once.
It reads the rule's ``block``, its replacement flattened once in preorder
(``grammar.RuleBlock``), copies the node dict and adds one node per block
position: the anchor's position takes the target's id and every other
position p the id ``len(ast.nodes)`` plus the number of non-anchor
positions before p.  A search builds many trees and reads them only by
field, so a tree is a slotted dataclass (``AnnotatedAst``) and the splice
writes each node once, as an ``AstNode`` named tuple built straight from
its five fields.

What a search keeps for a whole operation is made so that the cyclic
collector pays for it once: it is an exact tuple of atoms, which the
collector stops tracking after one pass, or one object shared by all its
uses.  A named tuple stays tracked, so a search keeps each state's
history as one flat tuple of node and rule ids (``search.History``) and
makes ``Application`` values only when a caller reads them.  The labels
of a search are shared: one ``(name, is_terminal, arity)`` tuple per
value.  No walk recurses through a nested function that names itself,
which would leave each call's tree in a reference cycle until the
collector ran.

Every tree carries ``open``, the ids of its marked nodes in preorder.  A
splice replaces the target's entry with the block's marked positions, in
its preorder: those before the anchor, the anchor itself while it keeps a
mark, those under it, and those after its subtree.  A bottom-up splice
applies to the root, whose subtree is the whole tree, so the old tree's
other entries go right after the ones under the anchor and before the ones
after its subtree.  ``policy_leftmost`` and ``is_complete`` read
``open`` and never rescan the tree.

A block is read a second way, without splicing: ``splice_finishes`` says
whether a splice would leave ``open`` empty, ``splice_labels`` gives the
preorder labels of the tree it would make from the tree's labels split at
the target (``split_labels``), one walk that every rule applied at that
target shares, and ``splice_tokens`` gives that tree's terminals' names
from the names in the same labels (``split_tokens``) and the block's own
(``RuleBlock.tokens``).  A search hands out finished builds by the first,
the certifier keys each by the second, and the beam renders each from the
third, so no finished build is spliced to be read.

``iter_derivations`` is the one walk over a finished tree's derivations:
it steps through a search step, so its first derivation is the search's
build of the tree.  It matches each kept probe on the same block: the
root lands where the anchor's target node climbs to by the block's
parents, and each position's children land on its target node's children,
so a rule is read in one form by the splice and by the walk.  The walk
reads the target's node labels once, as each node's heads, and a block
lands only on a node that carries the block's ``head``, so a kept probe
that cannot land is mostly refused by one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ApplyError, IncompleteTreeError, UnderivableTreeError
from .grammar import (
    Annotation,
    Pattern,
    RewritingRule,
    RuleBlock,
    Symbol,
)

if TYPE_CHECKING:  # constraints imports this module
    from .constraints import Probe, ProbeOutcome


class AstNode(NamedTuple):
    """One node of a tree; its id is its key in the tree's ``nodes``."""

    symbol: Symbol
    annotation: Annotation = Annotation.NONE
    parent: int | None = None
    children: tuple[int, ...] = ()
    # key of the rule whose application introduced this node, kept across
    # later expansions of the node itself; None for a node no splice made,
    # as every node of a tree that ``build_complete_ast`` builds is.
    origin: str | None = None


@dataclass(slots=True)
class AnnotatedAst:
    """A tree: its nodes by id, its root, and ``open``, the ids of its
    marked nodes in preorder.

    A slotted dataclass, made once per splice, which writes each of its
    new nodes once as an ``AstNode`` tuple.  Equal by value on all three
    fields and unhashable (``nodes`` is a dict); nothing assigns a field
    after construction."""

    nodes: dict[int, AstNode] = field(default_factory=dict)
    root: int | None = None
    open: tuple[int, ...] = ()

    @staticmethod
    def empty() -> "AnnotatedAst":
        return AnnotatedAst({}, None)

    @property
    def is_empty(self) -> bool:
        return self.root is None

    def node(self, node_id: int) -> AstNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ApplyError(f"unknown node id {node_id}") from None

    def preorder(self) -> list[int]:
        if self.root is None:
            return []
        nodes = self.nodes
        out: list[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            kids = nodes[nid].children
            if kids:
                stack += kids[::-1]
        return out

    def __len__(self) -> int:
        return len(self.nodes)


class Application(NamedTuple):
    """One recorded rule application: ``rule`` is the rule's id in its set,
    ``node`` is None for creation steps.  A named tuple, cheap to make and
    compared and hashed by its fields; the collector never stops tracking
    one, so a search keeps flat histories and makes these for output."""

    node: int | None
    rule: int


def is_complete(ast: AnnotatedAst) -> bool:
    return ast.root is not None and not ast.open


def check_applicable(
    ast: AnnotatedAst, target: int | None, pattern: Pattern
) -> None:
    """Raise ``ApplyError`` unless the rules of ``pattern``, a group, fit the
    node ``target`` of ``ast``: its symbol, its mark and its place in the tree."""
    if pattern is None:
        if target is not None:
            raise ApplyError("creation rules take no target node")
        if not ast.is_empty:
            raise ApplyError("creation rule applied to a non-empty tree")
        return
    sym, direction = pattern
    if target is None:
        raise ApplyError(f"a rule on {sym} needs a target node")
    node = ast.node(target)
    if node.symbol != sym:
        raise ApplyError(f"a rule on {sym} does not fit node {target}, a {node.symbol}")
    if direction is Annotation.D and not node.annotation.needs_down:
        raise ApplyError(f"node {target} is not marked for downward expansion")
    if direction is Annotation.U and not node.annotation.needs_up:
        raise ApplyError(f"node {target} is not marked for upward expansion")
    if direction is Annotation.U and node.parent is not None:
        raise ApplyError(f"node {target} has a parent and cannot grow upward")
    if direction is Annotation.D and node.children:
        raise ApplyError(f"node {target} already has children")


def apply_rule(ast: AnnotatedAst, target: int | None, rule: RewritingRule) -> AnnotatedAst:
    """Apply ``rule`` at ``target``; ``ApplyError`` when it does not fit."""
    check_applicable(ast, target, rule.pattern)
    return apply_rule_with_ids(ast, target, rule)[0]


def apply_rule_with_ids(
    ast: AnnotatedAst, target: int | None, rule: RewritingRule
) -> tuple[AnnotatedAst, list[int]]:
    """Splice ``rule`` at ``target`` unchecked, and also report the node ids
    of the replacement tree, aligned with the preorder positions of the
    rule's replacement, which is what type schemas are written against."""
    block = rule.block
    nodes = ast.nodes.copy()
    fresh = len(nodes)
    size = len(block.symbols)
    if target is None:
        ids = list(range(fresh, fresh + size))
        outer = leftover = old = None
    else:
        anchor = block.anchor
        ids = [*range(fresh, fresh + anchor), target,
               *range(fresh + anchor, fresh + size - 1)]
        old = nodes[target]
        outer = old.parent
        leftover = old.annotation.without(rule.pattern[1])  # type: ignore[index]
    key = rule.key
    # each node is given all five fields, so it is made as the tuple itself:
    # NamedTuple's Python-level __new__ would only pass them on
    make = tuple.__new__
    for nid, symbol, mark, up, kids in zip(
        ids, block.symbols, block.marks, block.parents, block.children
    ):
        parent = outer if up is None else ids[up]
        child_ids = tuple([ids[c] for c in kids]) if kids else ()
        if nid == target:
            # a downward target is childless and a leaf anchor declares
            # nothing, so these never both contribute
            nodes[nid] = make(AstNode, (
                symbol, leftover, parent, child_ids + old.children, old.origin
            ))
        else:
            nodes[nid] = make(AstNode, (symbol, mark, parent, child_ids, key))

    # the replacement's marked nodes, in preorder up to the end of the
    # anchor's subtree, and the ones after it
    marked = [ids[p] for p in block.before]
    if old is not None and leftover is not Annotation.NONE:
        marked.append(target)
    marked += [ids[p] for p in block.under]
    after = [ids[p] for p in block.after]
    open_ = ast.open
    if outer is None:
        # a creation, or the target was the root: then it was the first
        # marked node and every other one lies in the subtree the anchor keeps
        return AnnotatedAst(nodes, ids[0], (*marked, *open_[1:], *after)), ids
    if ids[0] != target:
        parent_node = nodes[outer]
        nodes[outer] = parent_node._replace(
            children=tuple([ids[0] if c == target else c for c in parent_node.children])
        )
    # a target below the root grows downward, so it is a leaf and nothing
    # marked lies under it
    at = open_.index(target)
    return AnnotatedAst(
        nodes, ast.root, (*open_[:at], *marked, *after, *open_[at + 1:])
    ), ids


def splice_finishes(ast: AnnotatedAst, target: int | None, rule: RewritingRule) -> bool:
    """Whether ``apply_rule_with_ids(ast, target, rule)`` makes a finished tree, read
    without making it.

    The splice's ``open`` is the block's marked positions, the target while
    its leftover mark is not empty, and the rest of ``ast.open``; so the
    tree is finished when the block marks nothing, the target's mark is used
    up and it was the tree's only marked node.  The target's mark holds the
    rule's direction, so it is used up when it is that direction alone.
    """
    block = rule.block
    if block.before or block.under or block.after:
        return False
    return target is None or (
        ast.open == (target,)
        and ast.nodes[target].annotation is rule.pattern[1]  # type: ignore[index]
    )


def split_labels(ast: AnnotatedAst, target: int, shared: dict) -> tuple[tuple, int]:
    """The preorder ``(name, is_terminal, arity)`` labels of ``ast``, read in
    one walk, and the place of ``target`` among them, for
    ``splice_labels``.  ``shared`` holds one label per value (a search's
    ``SearchStep.labels``): each label is taken from there, so the labels
    tuple is flat over labels that are themselves tuples of atoms."""
    nodes = ast.nodes
    intern = shared.setdefault
    labels: list = []
    append = labels.append
    at = 0
    stack = [ast.root]
    pop = stack.pop
    while stack:
        nid = pop()
        node = nodes[nid]
        kids = node.children
        if nid == target:
            at = len(labels)
        sym = node.symbol
        label = (sym.name, sym.is_terminal, len(kids))
        append(intern(label, label))
        if kids:
            stack += kids[::-1]
    return tuple(labels), at


def splice_labels(
    split: tuple[tuple, int] | None, rule: RewritingRule, shared: dict
) -> tuple:
    """The preorder labels of the tree ``apply_rule_with_ids(ast, target,
    rule)`` makes, joined from ``split_labels(ast, target, shared)`` (None
    for a creation on the empty tree) and the rule's block without making
    it, each label taken from ``shared``.

    The block's labels stand in for the target's, the anchor's arity grown
    by the target's old children.  As in the splice, a target below the
    root is a leaf, so the block takes its place; a target at the root has
    the whole old tree under it, so the old tree's other labels follow the
    anchor's subtree and come before the block's labels after it.
    """
    block = rule.block
    intern = shared.setdefault
    new = [intern(label, label) for label in block.labels]
    if split is None:
        return tuple(new)
    labels, at = split
    kids = labels[at][2]
    if kids:
        name, is_terminal, arity = new[block.anchor]  # type: ignore[index]
        label = (name, is_terminal, arity + kids)
        new[block.anchor] = intern(label, label)  # type: ignore[index]
    if at:
        return (*labels[:at], *new, *labels[at + 1:])
    end = block.end
    return (*new[:end], *labels[1:], *new[end:])


def split_tokens(
    split: tuple[tuple, int],
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The terminals' names of ``split_labels``' labels, in the three parts
    ``splice_tokens`` places around a rule's block: before it, between its
    two halves (``RuleBlock.tokens``) and after it.  The target's own name,
    if it has one, gives way to the block's.  As in the splice, a target
    below the root is a leaf, so the block takes its place and nothing lies
    between its halves; a target at the root has the whole old tree under
    it, so every other name lies between them."""
    labels, at = split
    rest = tuple([name for name, is_terminal, _ in labels[at + 1:] if is_terminal])
    if not at:
        return (), rest, ()
    return tuple([name for name, is_terminal, _ in labels[:at] if is_terminal]), (), rest


def splice_tokens(
    split: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None,
    rule: RewritingRule,
) -> tuple[str, ...]:
    """The terminals' names, in preorder, of the tree
    ``apply_rule_with_ids(ast, target, rule)`` makes, joined from
    ``split_tokens(split_labels(ast, target, shared))`` (None for a
    creation on the empty tree) and the rule's block without making it:
    ``leaf_tokens`` of that tree."""
    head, tail = rule.block.tokens
    if split is None:
        return head + tail
    before, inside, after = split
    return (*before, *head, *inside, *tail, *after)


def render(ast: AnnotatedAst) -> str:
    """Terminal leaves left to right, separated by single spaces."""
    if not is_complete(ast):
        raise IncompleteTreeError("cannot render a partial tree")
    return " ".join(leaf_tokens(ast))


def leaf_tokens(ast: AnnotatedAst) -> list[str]:
    """The terminals' names in preorder, read in one walk of the tree."""
    if ast.root is None:
        return []
    nodes = ast.nodes
    out: list[str] = []
    stack = [ast.root]
    while stack:
        node = nodes[stack.pop()]
        if node.symbol.is_terminal:
            out.append(node.symbol.name)
        kids = node.children
        if kids:
            stack += kids[::-1]
    return out


def to_sexpr(ast: AnnotatedAst) -> str:
    """Debug form, annotations as ^ suffixes: (E (E "hours") "> 12")."""
    if ast.is_empty:
        return "()"
    return _sexpr(ast.nodes, ast.root)  # type: ignore[arg-type]


def _sexpr(nodes: dict[int, AstNode], nid: int) -> str:
    """The debug form of the subtree at ``nid``; a module-level recursion,
    so that no call leaves its tree in a reference cycle."""
    node = nodes[nid]
    label = str(node.symbol)
    if node.annotation is not Annotation.NONE:
        label += f"^{node.annotation}"
    if not node.children:
        return label
    return f"({label} {' '.join([_sexpr(nodes, c) for c in node.children])})"


def build_complete_ast(shape) -> AnnotatedAst:
    """Build a finished tree from nested (Symbol, children) tuples."""
    nodes: dict[int, AstNode] = {}
    root = _build_node(shape, None, nodes, count())
    return AnnotatedAst(nodes, root)


def _build_node(item, parent: int | None, nodes: dict[int, AstNode], ids) -> int:
    """Add the subtree of ``item`` to ``nodes``, ids in preorder from
    ``ids``, and return its root's id; a module-level recursion, so that
    the tree is not held in a reference cycle."""
    sym, children = item
    nid = next(ids)
    child_ids = tuple(_build_node(c, nid, nodes, ids) for c in children)
    nodes[nid] = tuple.__new__(AstNode, (sym, Annotation.NONE, parent, child_ids, None))
    return nid


def policy_leftmost(ast: AnnotatedAst) -> tuple[int, Annotation]:
    """Pick the first marked node in preorder; both-ways marks go up first."""
    if not ast.open:
        raise ValueError("tree has no expandable node")
    nid = ast.open[0]
    if ast.nodes[nid].annotation.needs_up:
        return nid, Annotation.U
    return nid, Annotation.D


# --------------------------------------------------------------------------
# derivations of a finished tree

@dataclass(frozen=True)
class DerivationStep:
    application: Application
    direction: Annotation | None  # None for creation
    target_node: int | None  # id in the target tree; None for creation
    introduced: tuple[int, ...]  # target ids matched by fresh replacement nodes
    ast: AnnotatedAst  # the tree before the step
    outcome: ProbeOutcome  # what the step offered
    choice: int  # the applied rule's index in ``outcome.kept``


def _heads(target: AnnotatedAst) -> dict[int, tuple[tuple, tuple]]:
    """The target's node ids in preorder, each with the two heads it can
    match (``grammar.RuleBlock.head``): its name and terminality, and those
    followed by its arity and each child's name and terminality."""
    nodes = target.nodes
    heads = {}
    for nid in target.preorder():
        node = nodes[nid]
        short = (node.symbol.name, node.symbol.is_terminal)
        full = short + (len(node.children),)
        for c in node.children:
            child = nodes[c].symbol
            full += (child.name, child.is_terminal)
        heads[nid] = (short, full)
    return heads


def _landings(
    target: AnnotatedAst,
    heads: dict[int, tuple[tuple, tuple]],
    node: AstNode | None,
    tid: int | None,
    rule: RewritingRule,
):
    """Yield each way ``rule``'s block lands in ``target`` with its anchor
    on ``tid`` (``node`` is the expanded node, None for a creation): the
    target id of every block position, in block order.  ``heads`` is
    ``_heads(target)``, which iterates over the target's ids in preorder.

    The root lands where the anchor climbs to by ``block.parents``; a
    creation's root lands anywhere in the target when it is marked upward,
    and else only on the target root.  The heads index the roots: a root
    lands only on a node that carries the block's ``head``, the labels of
    the root and, when they are matched, of its children, so a block that
    cannot land is mostly refused by one comparison, and ``_match`` reads
    the rest of the block only at a root that carries its head.
    """
    block = rule.block
    head = block.head
    full = len(head) > 2
    if node is None:
        if block.marks[0].needs_up:
            roots = [t for t, carried in heads.items() if carried[full] == head]
        else:
            # a creation without an upward mark can never gain ancestors
            root = target.root
            roots = [root] if heads[root][full] == head else []  # type: ignore[index]
    else:
        nodes, parents, anchor = target.nodes, block.parents, block.anchor
        root, up = tid, parents[anchor]  # type: ignore[index]
        while up is not None:
            root = nodes[root].parent  # type: ignore[index]
            if root is None:
                return
            up = parents[up]
        if heads[root][full] != head:  # type: ignore[index]
            return
        if node.parent is None and root != target.root:
            # the splice result replaces the tree root here; once it can
            # no longer grow upward it must already map to the target root
            left = block.marks[0]
            if anchor == 0:
                left = node.annotation.without(rule.pattern[1])  # type: ignore[index]
            if not left.needs_up:
                return
        roots = [root]
    for root in roots:
        lands = _match(target, root, tid, block)
        if lands is not None:
            yield lands


def _match(
    target: AnnotatedAst, root: int, tid: int | None, block: RuleBlock
) -> list[int] | None:
    """The target id of every block position with the block's root on
    ``root`` and its anchor on ``tid``, or None where the block does not
    land there.  Each position's children land on its target node's
    children, except under the anchor, whose subtree earlier steps matched,
    and under a downward mark, left to later steps."""
    symbols, marks, children, anchor = (
        block.symbols, block.marks, block.children, block.anchor
    )
    nodes = target.nodes
    # a position's parent comes before it, so it is filled before read
    lands = [root] * len(symbols)
    for p, t in enumerate(lands):
        here = nodes[t]
        if here.symbol != symbols[p]:
            return None
        if p == anchor:
            if t != tid:
                return None
            if not children[p]:
                continue
        elif marks[p].needs_down:
            continue
        if len(children[p]) != len(here.children):
            return None
        for c, child in zip(children[p], here.children):
            lands[c] = child
    return lands


def iter_derivations(
    target: AnnotatedAst,
    step: Callable[[Probe | None], ProbeOutcome],
):
    """Yield every derivation of ``target`` through ``step``, depth first, as
    lists of ``DerivationStep``; replaying one from an empty tree rebuilds
    ``target`` up to node ids.

    ``step(grown_by)`` returns what a search step keeps at the tree the
    probe ``grown_by`` made (None: the empty tree), as
    ``constraints.feasible_rules`` does: the node its policy picks and the
    probes of that node's rule group that survive.  The walk lands each
    probe's rule block on ``target``, where the target's heads, read once
    per walk, admit it (``_landings``), and reads the probe's splice only
    once the block lands (a probe splices when first read); it steps from a
    probe's tree by handing the probe itself to ``step``, so the facts the
    probe carries are read only for a tree the walk expands, never for the
    last probe of a derivation.  Probes are tried in the order the step
    keeps them, so the first derivation is the search's build.  Raises
    ``UnderivableTreeError`` when the walk yields nothing.
    """
    if not is_complete(target):
        raise IncompleteTreeError("derivations need a finished target tree")
    stuck: list[tuple[int, str]] = []
    produced = yield from _derivations(
        target, _heads(target), step, None, {}, [], stuck
    )
    if produced == 0:
        raise UnderivableTreeError(
            "no derivation survives the step"
            + (f"; stuck at {max(stuck)[1]}" if stuck else "")
        )


def _derivations(
    target: AnnotatedAst,
    heads: dict[int, tuple[tuple, tuple]],
    step: Callable[[Probe | None], ProbeOutcome],
    grown_by: Probe | None,
    mapping: dict[int, int],
    steps: list,
    stuck: list[tuple[int, str]],
):
    """Yield the derivations of ``target`` that extend ``steps``, from the
    tree ``grown_by`` made (None: the empty tree) with its node ids mapped
    to the target's by ``mapping``, and return how many it yielded; a step
    where no probe lands adds its depth and place to ``stuck``.  A
    module-level recursion, so that no walk leaves a reference cycle."""
    ast = AnnotatedAst.empty() if grown_by is None else grown_by.ast
    if is_complete(ast):
        if mapping[ast.root] == target.root:
            yield steps
            return 1
        return 0
    outcome = step(grown_by)
    node_id = outcome.target
    node = tid = None
    if node_id is not None:
        node, tid = ast.nodes[node_id], mapping[node_id]
    produced = 0
    progressed = False
    for choice, probe in enumerate(outcome.kept):
        rule = probe.rule
        for lands in _landings(target, heads, node, tid, rule):
            new_mapping = dict(mapping)
            fresh: list[int] = []
            for nid, t in zip(probe.ids, lands):
                if nid not in new_mapping:
                    new_mapping[nid] = t
                    fresh.append(t)
                elif new_mapping[nid] != t:
                    break
            else:
                progressed = True
                taken = DerivationStep(
                    Application(node_id, probe.id),
                    rule.pattern[1] if rule.pattern else None,
                    tid, tuple(fresh), ast, outcome, choice,
                )
                produced += yield from _derivations(
                    target, heads, step, probe, new_mapping, steps + [taken], stuck
                )
    if not progressed:
        where = "the empty tree" if node is None else f"node {tid} ({node.symbol})"
        stuck.append((len(steps), where))
    return produced
