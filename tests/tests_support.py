"""Hand-built fixtures for the worked two-variable comparison example, a
bare context, a context's variable by name and the canonical re-rendering of
a condition, tree, grammar and policy helpers for the tests, a whole-tree
stand-in for the probe that made a hand-built tree, and the reference paths
that fast paths are checked against: the recursive splice and the rescanned
frontier, the built-tree key, the recursive matcher of the derivation walk,
the splice-then-solve prober, the restarting typed replay, the
always-sorting beam that renders every finished tree, then screens and
cuts (where the beam cuts before rendering), the
depth-first exhaustive search, the per-tree certifier, the full-width
power-iteration PCA fit, the per-candidate reading of a decision and its feature vector and the
memo-free rows and logistic predict built from them, the logistic model's
per-decision predict, the row-matrix logistic fits, a model that records
its rounds, the per-context condition rule set, the field-by-field context
loader, the level-recursive condition parser, the recursive split of a
condition into its atoms, and the recursive canonical emitter and type
checker of a condition."""

import contextlib
import gc
import hashlib
import re
from dataclasses import dataclass, replace
from math import log
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from progest import constraints, trees
from progest.constraints import (
    ProbeOutcome,
    SearchStep,
    SolverState,
    TypeConstraint,
    constraints_of_application,
    constraints_of_context,
    feasible_rules,
)
from progest.ambiguity import AmbiguityReport, Witness, enumerate_complete_trees
from progest.condsynth import Template, expression_block
from progest.errors import (
    ContextError,
    MiniLangError,
    MiniTypeError,
    SearchOverflowError,
    UnderivableTreeError,
)
from progest.features import (
    BIGRAM_DIM,
    WINDOW_VOCAB_SIZE,
    Context,
    PcaTransform,
    VariableInfo,
    context_block,
    context_block_length,
    encode_name_2gram,
    pca_apply,
    position_block,
    variable_block,
    variable_block_length,
)
from progest.grammar import (
    Annotation,
    CreationMode,
    Grammar,
    RewritingRule,
    RuleSet,
    RuleTree,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    nonterminal,
    terminal,
)
from progest import minilang
from progest.minilang import (
    Binary,
    Call,
    Expr,
    Index,
    Lit,
    Unary,
    Var,
    canonical_tokens,
    classify_type,
    element_type,
    is_variable_token,
    join_tokens,
    parse_condition,
)
from progest.models import (
    _L2,
    _LR,
    BinaryLogisticCore,
    SoftmaxCore,
    _sigmoid,
)
from progest.search import (
    Candidate,
    Policy,
    Renderer,
    SearchResult,
    SearchStats,
)
from progest.trees import (
    AnnotatedAst,
    Application,
    AstNode,
    apply_rule,
    apply_rule_with_ids,
    check_applicable,
    iter_derivations,
    leaf_tokens,
    policy_leftmost,
    render,
    to_sexpr,
)


def simple_context(types: dict[str, str], result_type: str = "Boolean") -> Context:
    """A bare context from a name -> type mapping."""
    return Context(
        variables=tuple(VariableInfo(n, t) for n, t in types.items()),
        result_type=result_type,
    )


def context_variable(ctx: Context, name: str) -> VariableInfo | None:
    """The first variable of ``ctx`` named ``name``, or None."""
    return next((v for v in ctx.variables if v.name == name), None)


def canonical(text: str) -> str:
    """Parse and re-render with minimal parentheses and fixed spacing."""
    return join_tokens(canonical_tokens(parse_condition(text)))


def classify_demo_rules(rs: RuleSet) -> dict[str, str]:
    """Map shorthand names to the demo grammar's rule keys by structure."""
    keys: dict[str, str] = {}
    for rule in rs:
        child_names = tuple(c.symbol.name for c in rule.replacement.children)
        if rule.key.startswith("make-root:"):
            keys["root"] = rule.key
        elif child_names == ("E", "> 12"):
            keys["gt12"] = rule.key
        elif child_names == ("E", "> 0"):
            keys["gt0"] = rule.key
        elif child_names == ("hours",):
            keys["hours"] = rule.key
        elif child_names == ("value",):
            keys["value"] = rule.key
        elif child_names == ("E", "+", "E"):
            keys["plus"] = rule.key
    return keys


def criterion_06_rule_sets(g: Grammar) -> tuple[RuleSet, RuleSet]:
    """The two rule sets acceptance criterion 06 states for the demo grammar:
    top-down expansion seeded at the root, and both directions, minus the
    one climb that ascends through the left slot of the two-operand
    production, seeded at the ``value`` leaf only."""
    td = list(derive_top_down_rules(g))
    bu = list(derive_bottom_up_rules(g))
    kept_bu = []
    for rule in bu:
        if rule.key.startswith("fin:"):
            kept_bu.append(rule)
            continue
        children = rule.replacement.children
        anchor_idx = next(i for i, c in enumerate(children) if c.anchor)
        if anchor_idx == 0 and any(not c.symbol.is_terminal for c in children[1:]):
            continue
        kept_bu.append(rule)
    assert len(kept_bu) == len(bu) - 1
    leaf = [
        r
        for r in derive_creation_rules(g, [CreationMode.LEAF])
        if r.key == "make-leaf:value"
    ]
    assert len(leaf) == 1
    topdown = RuleSet(td + list(derive_creation_rules(g, [CreationMode.ROOT])))
    return topdown, RuleSet(td + kept_bu + leaf)


def expandable_nodes(ast: AnnotatedAst) -> list[tuple[int, Annotation]]:
    """A tree's marked nodes in stable preorder, with their current marks,
    read from ``ast.open``."""
    return [(nid, ast.nodes[nid].annotation) for nid in ast.open]


def reference_expandable_nodes(ast: AnnotatedAst) -> list[tuple[int, Annotation]]:
    """``expandable_nodes`` the slow way: a preorder rescan of the whole
    tree for its marked nodes."""
    return [
        (nid, ast.nodes[nid].annotation)
        for nid in ast.preorder()
        if ast.nodes[nid].annotation is not Annotation.NONE
    ]


def history_of(apps) -> tuple:
    """Applications as the flat history a ``search.Candidate`` holds: each
    one's node and rule id in turn."""
    return tuple(part for app in apps for part in app)


def cyclic_garbage(fn) -> int:
    """How many objects ``fn()`` leaves that only the cyclic collector frees.
    ``fn`` runs once to make what it makes on first use, and then again
    with the collector off; a collection right after counts what the second
    run left unreachable."""
    fn()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def reference_is_complete(ast: AnnotatedAst) -> bool:
    """``trees.is_complete`` the slow way: every node's mark is read."""
    return not ast.is_empty and all(
        n.annotation is Annotation.NONE for n in ast.nodes.values()
    )


def tree_key(ast: AnnotatedAst) -> tuple:
    """The preorder ``(name, is_terminal, arity)`` labels of a built tree,
    as ``ambiguity.tree_labels`` yields them: the reference that
    ``trees.splice_labels`` joins from the tree before a splice, split at
    the target, and the rule's block."""
    out = []
    for nid in ast.preorder():
        node = ast.nodes[nid]
        out.append((node.symbol.name, node.symbol.is_terminal, len(node.children)))
    return tuple(out)


def reference_apply_rule_with_ids(ast: AnnotatedAst, target, rule: RewritingRule):
    """``trees.apply_rule_with_ids`` the slow way: the replacement is built
    by a recursive walk of the rule's tree, and the new tree's marked nodes
    come from ``reference_expandable_nodes``, after the rule's pattern is
    checked as ``apply_rule`` checks it."""
    check_applicable(ast, target, rule.pattern)
    nodes = dict(ast.nodes)
    fresh = len(nodes)
    old = ast.nodes[target] if target is not None else None
    leftover = old.annotation.without(rule.pattern[1]) if old is not None else None

    # ids come out in replacement preorder because build() appends each node
    # before recursing into its children
    ids: list[int] = []

    def build(rt: RuleTree, parent):
        nonlocal fresh
        if rt.anchor:
            nid = target
            ids.append(nid)
            declared = tuple(build(c, nid) for c in rt.children)
            nodes[nid] = AstNode(
                old.symbol, leftover, parent, declared + old.children, old.origin
            )
            return nid
        nid = fresh
        fresh += 1
        ids.append(nid)
        child_ids = tuple(build(c, nid) for c in rt.children)
        nodes[nid] = AstNode(rt.symbol, rt.annotation, parent, child_ids, rule.key)
        return nid

    old_parent = old.parent if old is not None else None
    new_root_id = build(rule.replacement, old_parent)
    if old_parent is not None:
        parent_node = nodes[old_parent]
        nodes[old_parent] = parent_node._replace(
            children=tuple(
                new_root_id if cid == target else cid for cid in parent_node.children
            )
        )
        root = ast.root
    else:
        root = new_root_id
    rescanned = reference_expandable_nodes(AnnotatedAst(nodes, root))
    return AnnotatedAst(nodes, root, tuple(nid for nid, _ in rescanned)), ids


def reference_constraints_of_application(rule: RewritingRule, ids):
    """``constraints.constraints_of_application`` the slow way, read off the
    rule's schema: each concrete atom's pin in schema order, then each schema
    variable's links between consecutive positions."""
    out: list[TypeConstraint] = []
    by_var: dict[str, list[int]] = {}
    for pos, atom in rule.schema:
        if atom.is_schema_var:
            by_var.setdefault(atom.name, []).append(ids[pos])
        else:
            out.append(TypeConstraint(ids[pos], const=atom.name))
    for positions in by_var.values():
        for a, b in zip(positions, positions[1:]):
            out.append(TypeConstraint(a, right=b))
    return out


def reference_classes(ast: AnnotatedAst, step: SearchStep, pins=()):
    """The classes a search state carries, by a whole-tree solve: each
    marked node of ``ast`` with the type forced on its class in the system
    of the schema ``pins`` and the context constraints, or, while none is,
    the class's union-find root; None when the system is unsatisfiable.
    The root's result pin is left out while the root keeps a mark, where
    ``constraints.probe_rules`` applies it itself."""
    closed = not ast.is_empty and ast.nodes[ast.root].annotation is Annotation.NONE
    solver = SolverState()
    context = constraints_of_context(
        step.var_types, ast, step.result_type if closed else None
    )
    if not solver.push([*pins, *context]):
        return None
    return {
        nid: solver.find(nid) if solver.resolved(nid) is None else solver.resolved(nid)
        for nid in ast.open
    }


def whole_tree_state(ast: AnnotatedAst, step: SearchStep, pins=()):
    """A stand-in for the probe that made ``ast``, for a test that starts
    from a tree it built: None for the empty tree, and otherwise the fields
    a step reads of its state, the tree, its whole ``tree_size`` (0 when
    sizes are unbounded) and its ``reference_classes`` under the schema
    ``pins`` of the applications that built it."""
    if ast.is_empty:
        return None
    size = step.bounds.tree_size(ast) if step.bounds is not None else 0.0
    return SimpleNamespace(
        ast=ast, size=size, classes=reference_classes(ast, step, pins)
    )


def probe_pins(probe) -> tuple[TypeConstraint, ...]:
    """The schema pins a kept probe's application adds, read off its rule's
    schema at its splice ids, for a reference that threads a tree's pins."""
    return tuple(reference_constraints_of_application(probe.rule, probe.ids))


def canonical_classes(classes):
    """Carried classes (node id -> the type forced on its class, or the id
    naming an unforced class) as a value that does not depend on how the
    unforced classes are named."""
    if classes is None:
        return None
    members: dict = {}
    for nid, value in classes.items():
        members.setdefault(value, set()).add(nid)
    return frozenset(
        (frozenset(nids), value if isinstance(value, str) else None)
        for value, nids in members.items()
    )


@dataclass
class SplicedProbe:
    """A kept candidate as ``reference_probe_rules`` records it, spliced at
    once: the fields a search reads of a ``constraints.Probe``, with
    ``finishes`` and ``tokens`` read from the spliced tree, ``size`` its whole
    ``tree_size`` (0 when sizes are unbounded), ``classes`` from
    ``reference_classes``, and ``pins``, the schema pins of every
    application that built it, threaded from the pins it was probed
    with.  A search loop that keeps the record sets its ``log_prob`` and
    ``history``, as it does a probe's."""

    rule: RewritingRule
    id: int
    ast: AnnotatedAst
    ids: tuple[int, ...]
    constraints: tuple[TypeConstraint, ...]
    base: tuple[TypeConstraint, ...]
    size: float
    classes: dict | None

    @property
    def finishes(self) -> bool:
        return reference_is_complete(self.ast)

    @property
    def tokens(self) -> list[str]:
        return leaf_tokens(self.ast)

    @property
    def pins(self) -> tuple[TypeConstraint, ...]:
        return self.base + self.constraints


def probe_fields(outcome: ProbeOutcome):
    """``outcome`` with each kept probe read field by field, so that lazy
    probes and the reference's records compare by what they hold: the
    carried classes compare as ``canonical_classes``.  A probe's schema
    constraints are a function of its rule and ids, so they are not read."""
    return (
        outcome.target,
        [
            (
                p.rule, p.id, p.ast, p.ids, p.size, canonical_classes(p.classes),
            )
            for p in outcome.kept
        ],
        outcome.size_pruned,
        outcome.constraint_pruned,
    )


def reference_probe_rules(ast, target, group, step: SearchStep, pins=()):
    """``constraints.probe_rules`` the slow way, on ``ast`` built by
    applications whose schema pins are ``pins``.

    Every rule of the group is checked to fit and spliced first, with its
    id read off the group's positions; the size bound is the new tree's
    whole ``tree_size``, and the constraint check solves a fresh system of
    the pins, the candidate's schema and the full context constraints of
    the new tree.
    """
    kept = []
    size_pruned = 0
    constraint_pruned = 0
    base = tuple(pins)
    for rule, rule_id in zip(step.rs.group(group), step.rs.positions(group)):
        check_applicable(ast, target, rule.pattern)
        new_ast, ids = apply_rule_with_ids(ast, target, rule)
        size = 0.0
        if step.size_limit is not None and step.bounds is not None:
            size = step.bounds.tree_size(new_ast)
            if size > step.size_limit:
                size_pruned += 1
                continue
        schema = tuple(constraints_of_application(rule, ids))
        system = [*base, *schema, *constraints_of_context(
            step.var_types, new_ast, step.result_type
        )]
        if not SolverState().push(system):
            constraint_pruned += 1
            continue
        kept.append(
            SplicedProbe(
                rule, rule_id, new_ast, tuple(ids), schema, base, size,
                reference_classes(new_ast, step, base + schema),
            )
        )
    return ProbeOutcome(target, tuple(kept), size_pruned, constraint_pruned)


def reference_feasible_rules(ast, step: SearchStep, policy, pins=()):
    """``constraints.feasible_rules`` the slow way, on a tree given whole
    with its pins: the policy's group at its node through
    ``reference_probe_rules``."""
    if ast.is_empty:
        return reference_probe_rules(ast, None, None, step, pins)
    target, direction = policy(ast)
    group = (ast.nodes[target].symbol, direction)
    return reference_probe_rules(ast, target, group, step, pins)


@contextlib.contextmanager
def reference_prober():
    """Route every probe of the block through ``reference_probe_rules``:
    ``feasible_rules`` looks ``probe_rules`` up at call time.  A search
    under it starts from the empty tree and hands back the reference's own
    ``SplicedProbe`` states, whose pins the reference threads."""
    saved = constraints.probe_rules

    def probe(state, target, group, step):
        if state is None:
            return reference_probe_rules(AnnotatedAst.empty(), target, group, step)
        return reference_probe_rules(state.ast, target, group, step, state.pins)

    constraints.probe_rules = probe
    try:
        yield
    finally:
        constraints.probe_rules = saved


def untyped_derivations(target, rs, policy):
    """Every derivation of ``target`` by ``rs`` under ``policy``, untyped and
    unbounded: ``iter_derivations`` through the step over ``rs`` without its
    schemas and with no size limit, which keeps every rule of each group, so
    the walk matches the whole group in rule order."""
    step = SearchStep(RuleSet([replace(r, schema=()) for r in rs]), None, None)
    return iter_derivations(
        target, lambda grown_by: feasible_rules(grown_by, step, policy)
    )


def reference_anchor_path(rule: RewritingRule) -> tuple[int, ...] | None:
    """Child-index path from the replacement root to the anchor, read by a
    recursive walk of the rule's tree; None for a creation."""

    def walk(node: RuleTree, path: tuple[int, ...]):
        if node.anchor:
            return path
        for idx, child in enumerate(node.children):
            found = walk(child, path + (idx,))
            if found is not None:
                return found
        return None

    return walk(rule.replacement, ())


def reference_root_match(target: AnnotatedAst, node: AstNode, tid: int, rule):
    """Where the replacement root of ``rule`` lands in ``target`` when its
    anchor lands on ``tid``: one target id, or none where it may not land."""
    root_tid = tid
    for _ in reference_anchor_path(rule) or ():
        root_tid = target.nodes[root_tid].parent
        if root_tid is None:
            return ()
    if node.parent is None:
        # the splice result replaces the tree root here; once it can no
        # longer grow upward it must already map to the target root
        if rule.replacement.anchor:
            still_up = node.annotation.without(rule.pattern[1]).needs_up
        else:
            still_up = rule.replacement.annotation.needs_up
        if not still_up and root_tid != target.root:
            return ()
    return (root_tid,)


def reference_match_replacement(rule, target: AnnotatedAst, root_tid, anchor_tid):
    """Match the replacement tree downward at ``root_tid`` by a recursive
    walk of the rule's tree: (preorder position, target id) pairs for every
    replacement node, or None if the shapes disagree.  The anchor must land
    exactly on ``anchor_tid`` and its subtree is not descended into."""
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


def reference_landings(target, order, node, tid, rule):
    """``trees._landings`` the slow way, with the same arguments: the root
    is found by the rule's anchor path (every node of ``order`` for a
    creation) and the replacement tree is matched from there recursively.
    ``order`` is anything that iterates over the target's ids in preorder,
    such as the heads ``_landings`` takes; no head is read here."""
    roots = order if node is None else reference_root_match(target, node, tid, rule)
    for root_tid in roots:
        matched = reference_match_replacement(rule, target, root_tid, tid)
        if matched is not None:
            assert [pos for pos, _ in matched] == list(range(len(matched)))
            yield [t for _, t in matched]


@contextlib.contextmanager
def reference_matcher():
    """Route every landing of the derivation walk through
    ``reference_landings``: ``iter_derivations`` looks ``_landings`` up at
    call time."""
    saved = trees._landings
    trees._landings = reference_landings
    try:
        yield
    finally:
        trees._landings = saved


def reference_feasible_derivation(tree, rs, policy, ctx=None, *, size_limit=None):
    """``models.feasible_derivation`` the slow way: restart a typed replay
    from the empty tree on each untyped derivation, in policy order, until
    one survives every step.

    Returns one ``(tree before, outcome, choice, pins)`` per step, where
    ``pins`` is the base system the step was probed under, or None when no
    derivation survives or there is none.
    """
    step = SearchStep(rs, ctx, size_limit)
    try:
        for derivation in untyped_derivations(tree, rs, policy):
            steps = []
            ast = AnnotatedAst.empty()
            pins = ()
            for derived in derivation:
                outcome = feasible_rules(whole_tree_state(ast, step, pins), step, policy)
                rule_ids = [p.id for p in outcome.kept]
                if derived.application.rule not in rule_ids:
                    break
                choice = rule_ids.index(derived.application.rule)
                steps.append((ast, outcome, choice, pins))
                ast = outcome.kept[choice].ast
                pins = pins + probe_pins(outcome.kept[choice])
            else:
                return steps
    except UnderivableTreeError:
        pass
    return None


def reference_beam_search(
    rs: RuleSet,
    ctx: Context | None,
    model,
    *,
    policy: Policy = policy_leftmost,
    widths: Sequence[int] = (5, 200),
    size_limit: int | None = 30,
    step_cap: int = 100_000,
    renderer: Renderer | None = None,
    screen: Sequence[str] = (),
    k: int | None = None,
) -> SearchResult:
    """``search.beam_search`` the slow way, with the same arguments: every
    state's scored candidates and every round's successors are sorted,
    whether or not the width truncates them, and every finished tree is
    spliced and rendered from its leaves (``trees.leaf_tokens``) as it
    finishes.  A finished tree whose rendering matches any regex of
    ``screen`` is dropped then, and the full ranking is cut to ``k`` (None
    keeps all) only at the end, so it is also the screen-then-cut pipeline
    of ``condsynth.synthesize_condition``.  ``model`` None scores every
    candidate 1, as the search does."""
    if not widths or any(w < 1 for w in widths):
        raise ValueError("widths must be a non-empty sequence of positive ints")
    stats = SearchStats()
    render_fn = renderer or " ".join
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    # state: tree, log prob, applications so far, accumulated schema pins,
    # and the probe that made the tree (None for the empty tree)
    states: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple, object]] = [
        (AnnotatedAst.empty(), 0.0, (), (), None)
    ]
    round_idx = 0
    while states:
        width = widths[min(round_idx, len(widths) - 1)]
        successors: list[
            tuple[AnnotatedAst, float, tuple[Application, ...], tuple, object]
        ] = []
        for ast, log_prob, apps, pins, made_by in states:
            if reference_is_complete(ast):
                text = render_fn(leaf_tokens(ast))
                if not any(re.search(pattern, text) for pattern in screen):
                    results.append(Candidate(made_by, text, log_prob, history_of(apps)))
                continue
            if stats.expansions >= step_cap:
                stats.step_cap_hit = True
                continue
            stats.expansions += 1
            outcome = feasible_rules(whole_tree_state(ast, step, pins), step, policy)
            stats.size_pruned += outcome.size_pruned
            stats.constraint_pruned += outcome.constraint_pruned
            if not outcome.kept:
                continue
            node = outcome.target
            decision = (ast, node, [p.rule for p in outcome.kept])
            if model is None:
                probs = [1.0] * len(outcome.kept)
            else:
                probs = model.predict(ctx, [decision])[0]
            scored = []
            for probe, p in zip(outcome.kept, probs):
                if p <= 0.0:
                    stats.zero_prob_pruned += 1
                    continue
                scored.append((log_prob + log(p), probe))
            scored.sort(key=lambda item: (-item[0], item[1].id))
            if len(scored) > width:
                stats.beam_truncated += len(scored) - width
                scored = scored[:width]
            for new_log, probe in scored:
                successors.append(
                    (
                        probe.ast,
                        new_log,
                        apps + (Application(node, probe.id),),
                        pins + probe_pins(probe),
                        probe,
                    )
                )
        successors.sort(
            key=lambda s: (-s[1], to_sexpr(s[0]), tuple(a.rule for a in s[2]))
        )
        if len(successors) > width:
            stats.beam_truncated += len(successors) - width
            successors = successors[:width]
        states = successors
        round_idx += 1
    results.sort(
        key=lambda c: (-c.log_prob, c.rendered, tuple(a.rule for a in c.applications))
    )
    return SearchResult(results[:k], stats)


def reference_exhaustive_search(
    rs: RuleSet,
    ctx: Context | None = None,
    *,
    policy: Policy = policy_leftmost,
    size_limit: int | None = None,
    state_cap: float = 1_000_000,
    model=None,
    renderer: Renderer | None = None,
) -> SearchResult:
    """``search.exhaustive_search`` as a loop of its own: a depth-first walk
    of every state within the bounds.  Raises ``SearchOverflowError`` past
    ``state_cap`` visited states; ``math.inf`` sets no cap.  Without a model
    all log probabilities are zero.  Each finished tree is spliced and
    rendered from its leaves, as in ``reference_beam_search``."""
    stats = SearchStats()
    render_fn = renderer or " ".join
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    stack: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple, object]] = [
        (AnnotatedAst.empty(), 0.0, (), (), None)
    ]
    visited = 0
    while stack:
        ast, log_prob, apps, pins, made_by = stack.pop()
        visited += 1
        if visited > state_cap:
            raise SearchOverflowError(
                f"exhaustive search exceeded {state_cap} states"
            )
        if reference_is_complete(ast):
            results.append(Candidate(
                made_by, render_fn(leaf_tokens(ast)), log_prob, history_of(apps)
            ))
            continue
        stats.expansions += 1
        outcome = feasible_rules(whole_tree_state(ast, step, pins), step, policy)
        stats.size_pruned += outcome.size_pruned
        stats.constraint_pruned += outcome.constraint_pruned
        if not outcome.kept:
            continue
        node = outcome.target
        if model is not None:
            probs = model.predict(ctx, [(ast, node, [p.rule for p in outcome.kept])])[0]
        else:
            probs = [1.0] * len(outcome.kept)
        for probe, p in reversed(list(zip(outcome.kept, probs))):
            if model is not None and p <= 0.0:
                stats.zero_prob_pruned += 1
                continue
            new_log = log_prob + (log(p) if model is not None else 0.0)
            stack.append(
                (
                    probe.ast,
                    new_log,
                    apps + (Application(node, probe.id),),
                    pins + probe_pins(probe),
                    probe,
                )
            )
    results.sort(
        key=lambda c: (-c.log_prob, c.rendered, tuple(a.rule for a in c.applications))
    )
    return SearchResult(results, stats)


_CREATE_SLOT = -1  # pseudo node key for the creation entry of a history table


def _history_table(steps, rs: RuleSet) -> dict:
    """Order-free summary of one derivation: what was applied where."""
    table: dict[int, list] = {}
    for s in steps:
        if s.direction is None:
            table.setdefault(_CREATE_SLOT, []).append(
                (rs[s.application.rule].key, s.introduced)
            )
        else:
            table.setdefault(s.target_node, []).append(
                (s.direction.value, rs[s.application.rule].key)
            )
    return {k: tuple(sorted(v)) for k, v in table.items()}


def _intro_map(steps, rs: RuleSet) -> dict[int, str]:
    out: dict[int, str] = {}
    for s in steps:
        key = rs[s.application.rule].key
        for tid in s.introduced:
            out.setdefault(tid, key)
    return out


def _describe(entries, index: int, intro: dict[int, str], tid: int) -> str:
    if entries is not None and index < len(entries):
        item = entries[index]
        return item[1] if len(item) == 2 else item[0]
    return intro.get(tid, "(not applied)")


def _reference_witness(tree, table_a, steps_a, table_b, steps_b, rs) -> Witness:
    intro_a = _intro_map(steps_a, rs)
    intro_b = _intro_map(steps_b, rs)
    node = tree.root if tree.root is not None else 0
    rule_a = rule_b = "(creation)"
    create_a = table_a.get(_CREATE_SLOT)
    create_b = table_b.get(_CREATE_SLOT)
    if create_a != create_b:
        node = create_a[0][1][0] if create_a and create_a[0][1] else node
        rule_a = create_a[0][0] if create_a else "(none)"
        rule_b = create_b[0][0] if create_b else "(none)"
    else:
        for tid in tree.preorder():
            ea = table_a.get(tid)
            eb = table_b.get(tid)
            if ea == eb:
                continue
            node = tid
            span = max(len(ea or ()), len(eb or ()))
            for i in range(span):
                da = _describe(ea, i, intro_a, tid)
                db = _describe(eb, i, intro_b, tid)
                if da != db:
                    rule_a, rule_b = da, db
                    break
            break
    return Witness(
        tree=tree,
        rendered=render(tree),
        node=node,
        rule_a=rule_a,
        rule_b=rule_b,
        derivation_a=tuple(s.application for s in steps_a),
        derivation_b=tuple(s.application for s in steps_b),
    )


def reference_check_unambiguous(rs, grammar, *, max_nodes=9, policy=None):
    """``ambiguity.check_unambiguous`` the slow way: walk every derivation of
    each enumerated tree from the empty tree, and stop at the first tree with
    two distinct history tables (what was applied at which target node, in
    any order).  The witness's ``node`` is a position of the enumerated tree
    and its rules come from comparing the two tables."""
    policy = policy or policy_leftmost
    trees_checked = 0
    derivations_checked = 0
    underivable = 0
    for tree in enumerate_complete_trees(grammar, max_nodes):
        trees_checked += 1
        seen = {}
        try:
            for steps in untyped_derivations(tree, rs, policy):
                derivations_checked += 1
                table = _history_table(steps, rs)
                key = tuple(sorted(table.items()))
                if key not in seen:
                    seen[key] = (table, steps)
                if len(seen) == 2:
                    (ta, sa), (tb, sb) = seen.values()
                    witness = _reference_witness(tree, ta, sa, tb, sb, rs)
                    return AmbiguityReport(
                        False, max_nodes, trees_checked, derivations_checked,
                        underivable, witness,
                    )
        except UnderivableTreeError:
            underivable += 1
    return AmbiguityReport(
        True, max_nodes, trees_checked, derivations_checked, underivable, None
    )


def isomorphic(a: AnnotatedAst, b: AnnotatedAst) -> bool:
    """Structural equality ignoring node ids and origins."""

    def shape(ast: AnnotatedAst, nid: int):
        node = ast.nodes[nid]
        return (
            node.symbol,
            node.annotation,
            tuple(shape(ast, c) for c in node.children),
        )

    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    return shape(a, a.root) == shape(b, b.root)


def replay(rs: RuleSet, applications: list[Application]) -> AnnotatedAst:
    """Re-run a recorded application list from the empty tree."""
    ast = AnnotatedAst.empty()
    for app in applications:
        ast = apply_rule(ast, app.node, rs[app.rule])
    return ast


@dataclass(frozen=True)
class ReferencePayload:
    """What one candidate of a decision looks at, with every field the
    candidates share repeated in each: the variable being scored, the first
    variable (for expression steps), the variable of slot p-1, the template
    and the slot position p (for variable steps).  Optional parts are None."""

    context: Context | None
    variable: VariableInfo | None = None
    chosen: VariableInfo | None = None
    previous: VariableInfo | None = None
    template: Template | None = None
    position: int | None = None


_SLOT_RULE = re.compile(r"^var(\d+):")


def reference_payloads(templates, ctx, ast, node, candidates):
    """The decision's kind and one ``ReferencePayload`` per candidate, read
    off the rules and the tree afresh for every candidate: the reference
    reading that ``condsynth.CondEncoder`` does once per decision."""
    by_key = {t.key: t for t in templates}

    def var(name):
        return None if ctx is None else context_variable(ctx, name)

    def bound(symbol_name):
        for nid in ast.preorder():
            n = ast.nodes[nid]
            if n.symbol == nonterminal(symbol_name) and n.children:
                return var(ast.nodes[n.children[0]].symbol.name)
        return None

    key = candidates[0].key if candidates else ""
    if key.startswith(("make-var:", "make-expr:")):
        return "creation", [
            ReferencePayload(ctx, variable=var(r.key[len("make-var:"):]))
            if r.key.startswith("make-var:")
            else ReferencePayload(ctx, template=by_key.get(r.key[len("make-expr:"):]))
            for r in candidates
        ]
    if key.startswith("expr:"):
        return "expression", [
            ReferencePayload(
                ctx, chosen=bound("V1"), template=by_key.get(r.key[len("expr:"):])
            )
            for r in candidates
        ]
    slot = _SLOT_RULE.match(key)
    if slot is None:
        return "other", []
    position = int(slot.group(1))
    origin = ast.nodes[node].origin if node is not None else None
    payloads = []
    for r in candidates:
        template = None
        if origin and origin.startswith("expr:"):
            template = by_key.get(origin[len("expr:"):])
        payloads.append(
            ReferencePayload(
                ctx,
                variable=var(r.replacement.children[0].symbol.name),
                previous=bound(f"V{position - 1}"),
                template=template,
                position=position,
            )
        )
    return "variable", payloads


def reference_pca_fit(
    vectors: Sequence[np.ndarray],
    dims: int,
    *,
    seed: int = 12345,
) -> PcaTransform:
    """Power iteration with deflation on the full-width centred data, each
    step's two mat-vecs summing over the columns no sample touches too: the
    fit ``features.pca_fit`` replaces with subspace iteration over the
    touched columns.  A direction stops once a step moves it less than
    1e-13, or after 5 000 steps."""
    data = np.asarray(list(vectors), dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        width = data.shape[1] if data.ndim == 2 else BIGRAM_DIM
        return PcaTransform(np.zeros(width), np.zeros((0, width)), dims)
    mean = data.mean(axis=0)
    centered = data - mean
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    limit = min(dims, min(data.shape))
    for _ in range(limit):
        v = rng.standard_normal(data.shape[1])
        v /= np.linalg.norm(v)
        direction = None
        for _ in range(5000):
            w = centered.T @ (centered @ v) / data.shape[0]
            scale = np.linalg.norm(w)
            if scale < 1e-12:
                break
            w /= scale
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < 1e-13:
                direction = w
                break
            v = w
        else:
            direction = v
        if direction is None:
            break
        kept.append(direction)
        projected = centered @ direction
        centered = centered - np.outer(projected, direction)
    components = np.array(kept) if kept else np.zeros((0, data.shape[1]))
    return PcaTransform(mean, components, dims)


@dataclass(frozen=True)
class MemoFreePipeline:
    """A fitted ``FeaturePipeline``'s parts with nothing kept: each name is
    embedded, and the window vocabulary indexed, afresh on every call.  The
    block functions accept it in place of the pipeline."""

    pca: PcaTransform
    vocab: tuple[str, ...]

    @property
    def dims(self) -> int:
        return self.pca.dims

    def embed_name(self, name: str) -> np.ndarray:
        return pca_apply(self.pca, encode_name_2gram(name))

    def window_vec(self, tokens) -> np.ndarray:
        vec = np.zeros(WINDOW_VOCAB_SIZE + 2)
        index = {t: i for i, t in enumerate(self.vocab)}
        for token in tokens:
            vec[index.get(token, WINDOW_VOCAB_SIZE)] = 1.0
        if tokens:
            vec[-1] = 1.0
        return vec


def reference_features(kind: str, payload, pipe) -> np.ndarray:
    """One candidate's full feature vector, blocks recomputed per payload
    over a memo-free copy of ``pipe`` (see ``reference_payloads``): the rows
    ``condsynth.CondEncoder`` builds per decision."""
    pipe = MemoFreePipeline(pipe.pca, pipe.vocab)
    ctx_vec = context_block(payload.context, pipe)
    if kind == "creation":
        return np.concatenate(
            [
                ctx_vec,
                variable_block(payload.variable, pipe),
                expression_block(payload.template, pipe),
            ]
        )
    if kind == "expression":
        return np.concatenate(
            [
                ctx_vec,
                variable_block(payload.chosen, pipe),
                expression_block(payload.template, pipe),
            ]
        )
    if kind == "variable":
        return np.concatenate(
            [
                ctx_vec,
                variable_block(payload.variable, pipe),
                variable_block(payload.previous, pipe),
                expression_block(payload.template, pipe),
                position_block(payload.position),
            ]
        )
    raise ContextError(f"unknown payload kind {kind!r}")


def reference_rows(templates, pipe, ctx, ast, node, candidates):
    """The decision's kind and its rows with nothing kept: one
    ``reference_features`` vector per candidate's payload, each
    concatenated afresh, stacked; an expression decision keeps the
    candidate-independent prefix of its first row, and a decision no core
    scores gets None.  The path ``condsynth.CondEncoder`` replaces."""
    kind, payloads = reference_payloads(templates, ctx, ast, node, candidates)
    if kind == "other":
        return kind, None
    rows = np.stack([reference_features(kind, p, pipe) for p in payloads])
    if kind == "expression":
        rows = rows[:1, : context_block_length(pipe.dims) + variable_block_length(pipe.dims)]
    return kind, rows


def encoded_rows(encoded, i):
    """Decision ``i``'s kind and rows in an ``EncodedRound``: its span of
    its kind's matrix, or None for a decision no core scores."""
    kind, start, stop = encoded.spans[i]
    return kind, encoded.rows[kind][start:stop] if kind in encoded.rows else None


def rows_alone(encoder, ctx, ast, node, candidates):
    """One decision's kind and rows, encoded as a round of its own."""
    return encoded_rows(encoder.encode_rounds([(ctx, [(ast, node, candidates)])]), 0)


def reference_logistic_predict(model, templates, pipe, ctx, ast, node, candidates):
    """``per_decision_logistic_predict`` over the ``reference_rows``, reading
    the expression classes through a dict built from the core's
    ``classes`` instead of its column index."""
    kind, rows = reference_rows(templates, pipe, ctx, ast, node, candidates)
    return per_decision_logistic_predict(model, kind, rows, candidates, by_class=True)


def per_decision_logistic_predict(model, kind, rows, candidates, *, by_class=False):
    """``LogisticModel.predict`` one decision at a time, as it was before a
    round was scored at once: the decision's ``kind`` and ``rows`` (what
    its encoder gives it) go through each core's math on their own, one
    product over the whole row matrix (the expression row a vector).
    ``by_class`` reads the expression classes through a dict of the
    core's ``classes`` instead of its column index."""
    k = len(candidates)
    if k == 0:
        return []
    uniform = [1.0 / k] * k
    if kind == "expression" and model.expression is not None:
        core = model.expression
        xs = (rows[0] - core.mean) / core.std
        z = xs @ core.W + core.b
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        if by_class:
            dist = dict(zip(core.classes, map(float, p)))
            raw = [dist.get(r.key, 0.0) for r in candidates]
        else:
            column = core.column
            raw = [float(p[column[r.key]]) if r.key in column else 0.0 for r in candidates]
        mass = sum(raw)
        return [p / mass for p in raw] if mass > 0.0 else uniform
    core = {"creation": model.creation, "variable": model.variable}.get(kind)
    if core is None:
        return uniform
    xs = (rows - core.mean) / core.std
    scores = 1.0 / (1.0 + np.exp(-np.clip(xs @ core.w + core.b, -40.0, 40.0)))
    mass = float(scores.sum())
    return [float(s) / mass for s in scores] if mass > 0.0 else uniform


def _reference_standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def reference_binary_fit(
    X: np.ndarray, y: np.ndarray, *, epochs: int = 450
) -> BinaryLogisticCore:
    """``BinaryLogisticCore.fit`` as one loop over the standardized row
    matrix, every column read in every row."""
    mean, std = _reference_standardize_fit(X)
    Xs = (X - mean) / std
    n, d = Xs.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(epochs):
        p = _sigmoid(Xs @ w + b)
        err = p - y
        w -= _LR * (Xs.T @ err / n + _L2 * w)
        b -= _LR * float(err.mean())
    return BinaryLogisticCore(w, b, mean, std)


def reference_softmax_fit(
    X: np.ndarray, labels: Sequence[str], *, epochs: int = 450
) -> SoftmaxCore:
    """``SoftmaxCore.fit`` as one product of the whole standardized row
    matrix each way per epoch, every column read."""
    classes = tuple(sorted(set(labels)))
    index = {c: i for i, c in enumerate(classes)}
    mean, std = _reference_standardize_fit(X)
    Xs = (X - mean) / std
    n, d = Xs.shape
    Y = np.zeros((n, len(classes)))
    for row, label in enumerate(labels):
        Y[row, index[label]] = 1.0
    W = np.zeros((d, len(classes)))
    b = np.zeros(len(classes))
    for _ in range(epochs):
        Z = Xs @ W + b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        err = P - Y
        W -= _LR * (Xs.T @ err / n + _L2 * W)
        b -= _LR * err.mean(axis=0)
    return SoftmaxCore(classes, W, b, mean, std)


class RecordingModel:
    """A model that keeps the decisions of each round it is asked to score,
    and passes the round on to ``model``."""

    def __init__(self, model) -> None:
        self.model = model
        self.rounds: list = []

    def predict(self, ctx, decisions):
        self.rounds.append(list(decisions))
        return self.model.predict(ctx, decisions)


def serialize_grammar(g: Grammar) -> str:
    """Render the normalized text form: one line per left hand side."""
    lines = []
    for lhs in g.nonterminals:
        alts = []
        for p in g.productions_for(lhs):
            parts = []
            for idx, sym in enumerate(p.rhs):
                atom = p.rhs_atoms[idx] if p.rhs_atoms else None
                token = str(sym)
                if atom is not None:
                    token += f":{atom}"
                parts.append(token)
            alt = " ".join(parts)
            if p.result_atom is not None:
                alt += f" :: {p.result_atom}"
            alts.append(alt)
        lines.append(f"{lhs.name} -> {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def make_hash_policy(seed: int):
    """A deterministic pseudo-random node order, stable across processes.

    Nodes are ranked by hashing the seed with the node's child-index path
    from the root and the direction, so the order depends only on tree shape.
    Nodes marked both ways may expand in either direction.
    """

    def path_of(ast: AnnotatedAst, nid: int) -> tuple[int, ...]:
        path: list[int] = []
        while ast.nodes[nid].parent is not None:
            parent = ast.nodes[nid].parent
            path.append(ast.nodes[parent].children.index(nid))
            nid = parent
        return tuple(reversed(path))

    def policy(ast: AnnotatedAst) -> tuple[int, Annotation]:
        best = None
        for nid, mark in expandable_nodes(ast):
            path = path_of(ast, nid)
            for direction in (Annotation.U, Annotation.D):
                if direction is Annotation.U and not mark.needs_up:
                    continue
                if direction is Annotation.D and not mark.needs_down:
                    continue
                digest = hashlib.sha256(
                    f"{seed}|{path}|{direction.value}".encode()
                ).hexdigest()
                entry = (digest, nid, direction)
                if best is None or entry < best:
                    best = entry
        if best is None:
            raise ValueError("tree has no expandable node")
        return best[1], best[2]

    return policy


_PLACEHOLDER = re.compile(r"^V(\d+)$")
_SCHEMA_VAR = TypeAtom("a")
_BOOLEAN = TypeAtom("Boolean")


def _leaf_rule_tree(symbol_name: str, var_name: str, *, upward: bool) -> RuleTree:
    mark = Annotation.U if upward else Annotation.NONE
    return RuleTree(
        nonterminal(symbol_name),
        mark,
        not upward,
        (RuleTree(terminal(var_name)),),
    )


def reference_build_cond_ruleset(templates, ctx) -> RuleSet:
    """``condsynth.build_cond_ruleset`` the slow way: every rule of the
    context's set built and validated afresh, in one ``RuleSet``."""
    if not templates:
        raise ContextError("no templates to synthesize from")
    rules: list[RewritingRule] = []
    max_arity = max(t.arity for t in templates)

    if max_arity >= 1:
        for var in ctx.variables:
            rules.append(
                RewritingRule(
                    None,
                    _leaf_rule_tree("V1", var.name, upward=True),
                    key=f"make-var:{var.name}",
                    schema=((0, _SCHEMA_VAR), (1, _SCHEMA_VAR)),
                )
            )
    for t in templates:
        if t.arity == 0:
            rules.append(
                RewritingRule(
                    None,
                    RuleTree(
                        nonterminal("E"),
                        Annotation.U,
                        False,
                        tuple(RuleTree(terminal(tok)) for tok in t.tokens),
                    ),
                    key=f"make-expr:{t.key}",
                    schema=((0, _BOOLEAN),),
                )
            )
    for t in templates:
        if t.arity == 0:
            continue
        children: list[RuleTree] = []
        schema: list[tuple[int, TypeAtom]] = [(0, _BOOLEAN)]
        slot = 0
        for pos, token in enumerate(t.tokens):
            if _PLACEHOLDER.match(token):
                slot += 1
                schema.append((pos + 1, TypeAtom(t.placeholder_types[slot - 1])))
                if slot == 1:
                    children.append(RuleTree(nonterminal("V1"), Annotation.NONE, True))
                else:
                    children.append(RuleTree(nonterminal(f"V{slot}"), Annotation.D))
            else:
                children.append(RuleTree(terminal(token)))
        rules.append(
            RewritingRule(
                (nonterminal("V1"), Annotation.U),
                RuleTree(nonterminal("E"), Annotation.NONE, False, tuple(children)),
                key=f"expr:{t.key}",
                schema=tuple(schema),
            )
        )
    for position in range(2, max_arity + 1):
        for var in ctx.variables:
            rules.append(
                RewritingRule(
                    (nonterminal(f"V{position}"), Annotation.D),
                    _leaf_rule_tree(f"V{position}", var.name, upward=False),
                    key=f"var{position}:{var.name}",
                    schema=((0, _SCHEMA_VAR), (1, _SCHEMA_VAR)),
                )
            )
    if any(t.arity == 0 for t in templates):
        rules.append(
            RewritingRule(
                (nonterminal("E"), Annotation.U),
                RuleTree(nonterminal("E"), Annotation.NONE, True),
                key="fin:E",
            )
        )
    return RuleSet(rules)


# --------------------------------------------------------------------------
# the field-by-field context loader: a kind scan of the entry, which asks
# ``float()`` whether each integer converts, then one ``dict.get`` per field
# and a keyword-built record

_REFERENCE_VARIABLE_KINDS = {
    "name": str, "type": str, "final": bool, "static": bool, "in_loop": bool,
    "has_init": bool, "init_zero": bool, "decl_distance": int, "usages": int,
    "usages_before": int, "usages_after": int,
}
_REFERENCE_CONTEXT_KINDS = {
    "result": str, "class": str, "superclass": str, "method": str,
    "params": int, "static": bool, "in_loop": bool,
}
_REFERENCE_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}


def _reference_bad_field(data: dict, kinds: dict) -> str | None:
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is not None and type(value) is not kind:
            return f"{key!r} must be {_REFERENCE_KIND_NAMES[kind]}"
        if kind is int and not _reference_floats(value):
            return f"{key!r} must be an integer a float can hold"
    return None


def _reference_floats(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _reference_string_tuple(values, what: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, str) for v in values
    ):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(values)


def reference_variable_from_dict(data: dict) -> VariableInfo:
    if not isinstance(data, dict):
        raise ContextError("variable entry must be an object")
    for key in ("name", "type"):
        if key not in data:
            raise ContextError(f"variable entry missing {key!r}")
    bad = _reference_bad_field(data, _REFERENCE_VARIABLE_KINDS)
    def_sites = data.get("def_sites", ())
    if bad is None and not (
        isinstance(def_sites, (list, tuple))
        and all(type(x) is int for x in def_sites)
    ):
        bad = "'def_sites' must be a list of integers"
    if bad is None and not all(map(_reference_floats, def_sites)):
        bad = "'def_sites' must hold integers a float can hold"
    if bad is None and not is_variable_token(data["name"]):
        bad = "'name' must be an identifier other than null, true or false"
    if bad is not None:
        raise ContextError(f"variable {data['name']!r}: {bad}")
    return VariableInfo(
        name=data["name"],
        type=data["type"],
        is_final=data.get("final", False),
        is_static=data.get("static", False),
        in_loop=data.get("in_loop", False),
        has_initializer=data.get("has_init", False),
        init_is_zero=data.get("init_zero", False),
        decl_distance=data.get("decl_distance", 0),
        def_sites=tuple(def_sites),
        usage_count=data.get("usages", 0),
        usages_before=data.get("usages_before", 0),
        usages_after=data.get("usages_after", 0),
    )


def reference_context_from_dict(data: dict) -> Context:
    if not isinstance(data, dict):
        raise ContextError("context must be an object")
    bad = _reference_bad_field(data, _REFERENCE_CONTEXT_KINDS)
    if bad is not None:
        raise ContextError(f"context: {bad}")
    entries = data.get("variables", ())
    if not isinstance(entries, (list, tuple)):
        raise ContextError("context: 'variables' must be a list")
    variables = tuple(reference_variable_from_dict(v) for v in entries)
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ContextError("duplicate variable names in context")
    try:
        before = _reference_string_tuple(data.get("before", ()), "context 'before'")
        after = _reference_string_tuple(data.get("after", ()), "context 'after'")
    except TypeError as err:
        raise ContextError(str(err)) from None
    return Context(
        variables=variables,
        result_type=data.get("result", "Boolean"),
        class_name=data.get("class", ""),
        superclass_name=data.get("superclass", ""),
        method_name=data.get("method", ""),
        method_params=data.get("params", 0),
        method_is_static=data.get("static", False),
        in_loop=data.get("in_loop", False),
        before_tokens=before,
        after_tokens=after,
    )


# --------------------------------------------------------------------------
# the level-recursive condition parser: one ``binary`` call per precedence
# level per operand

_REFERENCE_LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)


class ReferenceParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise MiniLangError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise MiniLangError(f"expected {token!r}, got {got!r}")

    def parse(self) -> Expr:
        expr = self.binary(0)
        if self.peek() is not None:
            raise MiniLangError(f"trailing input at {self.peek()!r}")
        return expr

    def binary(self, level: int) -> Expr:
        if level >= len(_REFERENCE_LEVELS):
            return self.unary()
        expr = self.binary(level + 1)
        while self.peek() in _REFERENCE_LEVELS[level]:
            op = self.take()
            right = self.binary(level + 1)
            expr = Binary(op, expr, right)
        return expr

    def unary(self) -> Expr:
        if self.peek() == "!":
            self.take()
            return Unary("!", self.unary())
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            token = self.peek()
            if token == "[":
                self.take()
                index = self.binary(0)
                self.expect("]")
                expr = Index(expr, index)
            elif token == ".":
                self.take()
                method = self.take()
                if not method[:1].isalpha() and method[:1] not in "_$":
                    raise MiniLangError(f"bad method name {method!r}")
                self.expect("(")
                self.expect(")")
                expr = Call(expr, method)
            else:
                return expr

    def primary(self) -> Expr:
        token = self.take()
        if token == "(":
            expr = self.binary(0)
            self.expect(")")
            return expr
        if token[0].isdigit():
            return Lit(token)
        if token in ("true", "false", "null"):
            return Lit(token)
        if re.fullmatch(r"[A-Za-z_$][A-Za-z0-9_$]*", token):
            return Var(token)
        raise MiniLangError(f"unexpected token {token!r}")


def reference_logic_atoms(expr: Expr) -> list[Expr]:
    """``minilang.logic_atoms`` as a recursion, one call per connective
    or negation."""
    if isinstance(expr, Unary) and expr.op == "!":
        return reference_logic_atoms(expr.operand)
    if isinstance(expr, Binary) and expr.op in ("&&", "||"):
        return reference_logic_atoms(expr.left) + reference_logic_atoms(expr.right)
    return [expr]


def reference_tokens_with_vars(expr: Expr) -> list[tuple[str, bool]]:
    """``minilang.tokens_with_vars`` as a recursion, two calls per operand:
    one that parenthesizes, one that emits."""
    return _reference_emit(expr, 0, False)


def _reference_emit(expr: Expr, parent_prec: int, right_side: bool) -> list:
    prec = minilang._prec_of(expr)
    inner = _reference_emit_bare(expr)
    if prec < parent_prec or (prec == parent_prec and right_side):
        return [("(", False)] + inner + [(")", False)]
    return inner


def _reference_emit_bare(expr: Expr) -> list:
    postfix, unary = minilang._POSTFIX_PREC, minilang._UNARY_PREC
    if isinstance(expr, Lit):
        return [(expr.text, False)]
    if isinstance(expr, Var):
        return [(expr.name, True)]
    if isinstance(expr, Unary):
        return [("!", False)] + _reference_emit(expr.operand, unary, False)
    if isinstance(expr, Binary):
        prec = minilang._PRECEDENCE[expr.op]
        left = _reference_emit(expr.left, prec, False)
        right = _reference_emit(expr.right, prec, True)
        return left + [(expr.op, False)] + right
    if isinstance(expr, Index):
        base = _reference_emit(expr.base, postfix, False)
        return base + [("[", False)] + _reference_emit(expr.index, 0, False) + [("]", False)]
    if isinstance(expr, Call):
        base = _reference_emit(expr.base, postfix, False)
        return base + [(".", False), (expr.method, False), ("(", False), (")", False)]
    raise MiniLangError(f"cannot render {expr!r}")


def reference_typecheck(expr: Expr, var_types) -> str:
    """``minilang.typecheck`` as a recursion, one call per subexpression."""
    if isinstance(expr, Lit):
        if expr.text == "null":
            return "Null"
        if expr.text in ("true", "false"):
            return "Boolean"
        return "Float" if "." in expr.text else "Int"
    if isinstance(expr, Var):
        declared = var_types.get(expr.name)
        if declared is None:
            raise MiniTypeError(f"undeclared variable {expr.name}")
        return declared
    if isinstance(expr, Unary):
        inner = reference_typecheck(expr.operand, var_types)
        if inner != "Boolean":
            raise MiniTypeError(f"! needs Boolean, got {inner}")
        return "Boolean"
    if isinstance(expr, Binary):
        left = reference_typecheck(expr.left, var_types)
        right = reference_typecheck(expr.right, var_types)
        op = expr.op
        if op in ("&&", "||"):
            if left != "Boolean" or right != "Boolean":
                raise MiniTypeError(f"{op} needs Boolean operands, got {left}, {right}")
            return "Boolean"
        if op in ("==", "!="):
            if left == right:
                return "Boolean"
            if minilang._null_comparable(left, right) or minilang._null_comparable(
                right, left
            ):
                return "Boolean"
            raise MiniTypeError(f"cannot compare {left} with {right}")
        if op in ("<", ">", "<=", ">="):
            minilang._require_same_numeric(op, left, right)
            return "Boolean"
        minilang._require_same_numeric(op, left, right)
        return left
    if isinstance(expr, Index):
        base = reference_typecheck(expr.base, var_types)
        if classify_type(base) != "ArrayLike":
            raise MiniTypeError(f"cannot index into {base}")
        index = reference_typecheck(expr.index, var_types)
        if index != "Int":
            raise MiniTypeError(f"index must be Int, got {index}")
        return element_type(base)
    if isinstance(expr, Call):
        base = reference_typecheck(expr.base, var_types)
        entry = minilang._METHODS.get(expr.method)
        if entry is None:
            raise MiniTypeError(f"unknown method {expr.method}")
        result, accepted = entry
        if classify_type(base) not in accepted:
            raise MiniTypeError(f"{base} has no method {expr.method}")
        return result
    raise MiniTypeError(f"unsupported expression {expr!r}")
