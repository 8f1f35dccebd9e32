"""Annotated abstract syntax trees and rewriting-rule application.

Trees are persistent values: ``apply_rule`` returns a new tree and leaves its
input untouched, so search states can share structure freely.  Node ids are
assigned from a per-tree counter and are never reused, which keeps replays of
a recorded application sequence aligned id-for-id.

Application uses one splice semantics for every rule kind: the replacement
tree takes the place of the matched node, and the anchored replacement node
inherits the matched node's id, its subtree, and whatever mark is left after
consuming the expansion direction.  For a plain top-down rule (anchor at the
root) that collapses to "keep the node, add children"; for a bottom-up rule
it hangs the old root under a new one.

``iter_derivations`` is the one walk over a finished tree's derivations:
it steps through a search step, so its first derivation is the search's
build of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from .errors import ApplyError, IncompleteTreeError, UnderivableTreeError
from .grammar import (
    Annotation,
    RewritingRule,
    RuleKind,
    RuleTree,
    Symbol,
)

if TYPE_CHECKING:  # constraints imports this module
    from .constraints import ProbeOutcome


@dataclass(frozen=True)
class AstNode:
    id: int
    symbol: Symbol
    annotation: Annotation = Annotation.NONE
    parent: int | None = None
    children: tuple[int, ...] = ()
    # key of the rule whose application introduced this node; None for
    # nodes seeded by nothing (never happens in practice) and kept across
    # later expansions of the node itself.
    origin: str | None = None


@dataclass(frozen=True)
class AnnotatedAst:
    nodes: dict[int, AstNode] = field(default_factory=dict)
    root: int | None = None
    next_id: int = 0

    @staticmethod
    def empty() -> "AnnotatedAst":
        return AnnotatedAst({}, None, 0)

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
        out: list[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return out

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Application:
    """One recorded rule application; ``node`` is None for creation steps."""

    node: int | None
    rule: int


def expandable_nodes(ast: AnnotatedAst) -> list[tuple[int, Annotation]]:
    """Annotated nodes in stable preorder, with their current marks."""
    return [
        (nid, ast.nodes[nid].annotation)
        for nid in ast.preorder()
        if ast.nodes[nid].annotation is not Annotation.NONE
    ]


def is_complete(ast: AnnotatedAst) -> bool:
    return not ast.is_empty and all(
        n.annotation is Annotation.NONE for n in ast.nodes.values()
    )


def direction_of(kind: RuleKind) -> Annotation:
    if kind is RuleKind.TOP_DOWN:
        return Annotation.D
    if kind is RuleKind.BOTTOM_UP:
        return Annotation.U
    raise ValueError("creation rules have no direction")


def check_applicable(
    ast: AnnotatedAst, target: int | None, rule: RewritingRule
) -> None:
    """Raise ``ApplyError`` unless ``rule`` fits the node ``target`` of ``ast``:
    its pattern symbol, its direction, and the node's place in the tree."""
    if rule.kind is RuleKind.CREATION:
        if target is not None:
            raise ApplyError("creation rules take no target node")
        if not ast.is_empty:
            raise ApplyError("creation rule applied to a non-empty tree")
        return
    if target is None:
        raise ApplyError(f"rule {rule.key} needs a target node")
    node = ast.node(target)
    sym = rule.pattern[0]  # type: ignore[index]
    if node.symbol != sym:
        raise ApplyError(
            f"rule {rule.key} expects symbol {sym}, node {target} is {node.symbol}"
        )
    direction = direction_of(rule.kind)
    if direction is Annotation.D and not node.annotation.needs_down:
        raise ApplyError(f"node {target} is not marked for downward expansion")
    if direction is Annotation.U and not node.annotation.needs_up:
        raise ApplyError(f"node {target} is not marked for upward expansion")
    if direction is Annotation.U and node.parent is not None:
        raise ApplyError(f"node {target} has a parent and cannot grow upward")
    if direction is Annotation.D and node.children:
        raise ApplyError(f"node {target} already has children")


def apply_rule_with_ids(
    ast: AnnotatedAst, target: int | None, rule: RewritingRule
) -> tuple[AnnotatedAst, list[int]]:
    """Apply ``rule`` and also report the node ids of the replacement tree.

    The returned id list is aligned with the preorder positions of the rule's
    replacement, which is what type schemas are written against.
    """
    check_applicable(ast, target, rule)
    return _splice(ast, target, rule)


def apply_rule(ast: AnnotatedAst, target: int | None, rule: RewritingRule) -> AnnotatedAst:
    return apply_rule_with_ids(ast, target, rule)[0]


def _splice(
    ast: AnnotatedAst, target: int | None, rule: RewritingRule
) -> tuple[AnnotatedAst, list[int]]:
    nodes = dict(ast.nodes)
    next_id = ast.next_id
    old = ast.nodes[target] if target is not None else None
    leftover = (
        old.annotation.without(direction_of(rule.kind)) if old is not None else None
    )

    # ids come out in replacement preorder because build() appends each node
    # before recursing into its children
    ids: list[int] = []

    def build(rt: RuleTree, parent: int | None) -> int:
        nonlocal next_id
        if rt.anchor:
            nid = old.id  # type: ignore[union-attr]
            ids.append(nid)
            declared = tuple(build(c, nid) for c in rt.children)
            # a downward target is childless and a leaf anchor declares
            # nothing, so these never both contribute
            child_ids = declared + old.children  # type: ignore[union-attr]
            nodes[nid] = AstNode(
                nid, old.symbol, leftover, parent, child_ids, old.origin
            )
            return nid
        nid = next_id
        next_id += 1
        ids.append(nid)
        child_ids = tuple(build(c, nid) for c in rt.children)
        nodes[nid] = AstNode(nid, rt.symbol, rt.annotation, parent, child_ids, rule.key)
        return nid

    old_parent = old.parent if old is not None else None
    new_root_id = build(rule.replacement, old_parent)

    if old_parent is not None:
        parent_node = nodes[old_parent]
        new_children = tuple(
            new_root_id if cid == (old.id if old else None) else cid
            for cid in parent_node.children
        )
        nodes[old_parent] = replace(parent_node, children=new_children)
        root = ast.root
    else:
        root = new_root_id

    return AnnotatedAst(nodes, root, next_id), ids


def render(ast: AnnotatedAst) -> str:
    """Terminal leaves left to right, separated by single spaces."""
    if not is_complete(ast):
        raise IncompleteTreeError("cannot render a partial tree")
    texts = [
        ast.nodes[nid].symbol.name
        for nid in ast.preorder()
        if ast.nodes[nid].symbol.is_terminal
    ]
    return " ".join(texts)


def leaf_tokens(ast: AnnotatedAst) -> list[str]:
    return [
        ast.nodes[nid].symbol.name
        for nid in ast.preorder()
        if ast.nodes[nid].symbol.is_terminal
    ]


def to_sexpr(ast: AnnotatedAst) -> str:
    """Debug form, annotations as ^ suffixes: (E (E "hours") "> 12")."""
    if ast.is_empty:
        return "()"

    def walk(nid: int) -> str:
        node = ast.nodes[nid]
        label = str(node.symbol)
        if node.annotation is not Annotation.NONE:
            label += f"^{node.annotation}"
        if not node.children:
            return label
        inner = " ".join(walk(c) for c in node.children)
        return f"({label} {inner})"

    return walk(ast.root)  # type: ignore[arg-type]


def build_complete_ast(shape) -> AnnotatedAst:
    """Build a finished tree from nested (Symbol, children) tuples."""
    nodes: dict[int, AstNode] = {}
    counter = 0

    def walk(item, parent: int | None) -> int:
        nonlocal counter
        sym, children = item
        nid = counter
        counter += 1
        child_ids = tuple(walk(c, nid) for c in children)
        nodes[nid] = AstNode(nid, sym, Annotation.NONE, parent, child_ids, None)
        return nid

    root = walk(shape, None)
    return AnnotatedAst(nodes, root, counter)


def policy_leftmost(ast: AnnotatedAst) -> tuple[int, Annotation]:
    """Pick the first marked node in preorder; both-ways marks go up first."""
    for nid, mark in expandable_nodes(ast):
        if mark.needs_up:
            return nid, Annotation.U
        return nid, Annotation.D
    raise ValueError("tree has no expandable node")


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


def _root_match(
    target: AnnotatedAst, node: AstNode, tid: int, rule: RewritingRule
) -> tuple[int, ...]:
    """Where the replacement root of ``rule`` lands in ``target`` when its
    anchor lands on ``tid``: one target id, or none where it may not land."""
    root_tid: int | None = tid
    for _ in rule.anchor_path() or ():
        root_tid = target.nodes[root_tid].parent  # type: ignore[index]
        if root_tid is None:
            return ()
    if node.parent is None:
        # the splice result replaces the tree root here; once it can no
        # longer grow upward it must already map to the target root
        if rule.replacement.anchor:
            still_up = node.annotation.without(rule.pattern[1]).needs_up  # type: ignore[index]
        else:
            still_up = rule.replacement.annotation.needs_up
        if not still_up and root_tid != target.root:
            return ()
    return (root_tid,)


def _match_replacement(
    rule: RewritingRule,
    target: AnnotatedAst,
    root_tid: int,
    anchor_tid: int | None,
) -> list[tuple[int, int]] | None:
    """Match the replacement tree downward at ``root_tid``.

    Returns (preorder position, target id) pairs for every replacement node,
    or None if the shapes disagree.  The anchor must land exactly on
    ``anchor_tid`` and its subtree is not descended into.
    """
    out: list[tuple[int, int]] = []
    pos = -1

    def walk(rt: RuleTree, tid: int) -> bool:
        nonlocal pos
        pos += 1
        node = target.nodes[tid]
        if node.symbol != rt.symbol:
            return False
        out.append((pos, tid))
        if rt.anchor:
            if tid != anchor_tid:
                return False
            if not rt.children:
                # leaf anchor: the kept subtree was matched by earlier steps
                return True
            # fall through: a downward anchor declares the new children
        elif rt.annotation.needs_down:
            # subtree left for later steps
            return True
        if len(rt.children) != len(node.children):
            return False
        for sub, child_tid in zip(rt.children, node.children):
            if not walk(sub, child_tid):
                return False
        return True

    if not walk(rule.replacement, root_tid):
        return None
    if not rule.replacement.annotation.needs_up and anchor_tid is None:
        # a creation without an upward mark can never gain ancestors, so it
        # must already sit at the target root
        if root_tid != target.root:
            return None
    return out


def iter_derivations(
    target: AnnotatedAst,
    step: Callable[[AnnotatedAst, tuple], ProbeOutcome],
):
    """Yield every derivation of ``target`` through ``step``, depth first, as
    lists of ``DerivationStep``; replaying one from an empty tree rebuilds
    ``target`` up to node ids.

    ``step(tree, pins)`` returns what a search step keeps at ``tree``, as
    ``constraints.feasible_rules`` does: the node its policy picks and the
    probes of that node's rule group that survive.  The walk matches each
    probe's rule against ``target``, reads the probe's splice and pins only
    once its rule matches (a probe splices when first read) and carries
    those pins.  Probes are tried in the order the step keeps them, so the
    first derivation is the search's build.  Raises
    ``UnderivableTreeError`` when the walk yields nothing.
    """
    if not is_complete(target):
        raise IncompleteTreeError("derivations need a finished target tree")
    order = target.preorder()
    produced = 0
    stuck: list[tuple[int, str]] = []

    def walk(ast: AnnotatedAst, mapping: dict[int, int], steps: list, pins: tuple):
        nonlocal produced
        if is_complete(ast):
            if mapping[ast.root] == target.root:
                produced += 1
                yield steps
            return
        outcome = step(ast, pins)
        node_id = outcome.target
        node = tid = None
        if node_id is not None:
            node, tid = ast.nodes[node_id], mapping[node_id]
        progressed = False
        for choice, probe in enumerate(outcome.kept):
            rule = probe.rule
            for root_tid in order if node is None else _root_match(target, node, tid, rule):
                matched = _match_replacement(rule, target, root_tid, tid)
                if matched is None:
                    continue
                ids = probe.ids
                new_mapping = dict(mapping)
                fresh: list[int] = []
                for pos, t in matched:
                    if ids[pos] not in new_mapping:
                        new_mapping[ids[pos]] = t
                        fresh.append(t)
                    elif new_mapping[ids[pos]] != t:
                        break
                else:
                    progressed = True
                    taken = DerivationStep(
                        Application(node_id, rule.id),
                        rule.pattern[1] if rule.pattern else None,
                        tid, tuple(fresh), ast, outcome, choice,
                    )
                    new_pins = pins + probe.constraints
                    yield from walk(probe.ast, new_mapping, steps + [taken], new_pins)
        if not progressed:
            where = "the empty tree" if node is None else f"node {tid} ({node.symbol})"
            stuck.append((len(steps), where))

    yield from walk(AnnotatedAst.empty(), {}, [], ())
    if produced == 0:
        raise UnderivableTreeError(
            "no derivation survives the step"
            + (f"; stuck at {max(stuck)[1]}" if stuck else "")
        )
