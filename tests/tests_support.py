"""Hand-built fixtures for the worked two-variable comparison example, tree,
grammar and policy helpers for the tests, and the reference paths that fast
paths are checked against: the splice-then-solve prober, the restarting
typed replay, the always-sorting beam, the depth-first exhaustive search,
the per-tree certifier, the per-candidate reading of a decision and its
feature vector, and the per-context condition rule set."""

import contextlib
import hashlib
import re
from dataclasses import dataclass, replace
from math import log
from typing import Sequence

import numpy as np

from progest import constraints
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
from progest.errors import ContextError, SearchOverflowError, UnderivableTreeError
from progest.features import (
    Context,
    TemplatePayload,
    VariableInfo,
    context_block,
    expression_block,
    position_block,
    variable_block,
)
from progest.grammar import (
    Annotation,
    CreationMode,
    Grammar,
    RewritingRule,
    RuleKind,
    RuleSet,
    RuleTree,
    TypeAtom,
    derive_creation_rules,
    derive_top_down_rules,
    nonterminal,
    terminal,
)
from progest.models import TableModel
from progest.search import (
    DEFAULT_ANTI_PATTERNS,
    AntiPattern,
    Candidate,
    Policy,
    Renderer,
    SearchResult,
    SearchStats,
    anti_pattern_check,
)
from progest.trees import (
    AnnotatedAst,
    Application,
    apply_rule,
    apply_rule_with_ids,
    expandable_nodes,
    is_complete,
    iter_derivations,
    policy_leftmost,
    render,
    to_sexpr,
)


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


def stub_rules_and_model(g: Grammar) -> tuple[RuleSet, TableModel, dict[str, str]]:
    """Top-down rules plus the fixed step odds of the running example.

    Root choices get 0.3 and 0.6; the operand choices get 0.8/0.1/0.05 under
    the "> 12" parent and 0.1/0.2/0.05 under the "> 0" parent.  Unlisted
    pairs fall back to zero, so addition chains die out on their own.
    """
    rules = list(derive_top_down_rules(g))
    rules += list(derive_creation_rules(g, [CreationMode.ROOT]))
    rs = RuleSet(rules)
    keys = classify_demo_rules(rs)
    table = {
        "": {keys["root"]: 1.0},
        keys["root"]: {keys["gt12"]: 0.3, keys["gt0"]: 0.6},
        keys["gt12"]: {keys["hours"]: 0.8, keys["value"]: 0.1, keys["plus"]: 0.05},
        keys["gt0"]: {keys["hours"]: 0.1, keys["value"]: 0.2, keys["plus"]: 0.05},
    }
    return rs, TableModel.from_nested(table), keys


@dataclass(frozen=True)
class SplicedProbe:
    """A kept candidate as ``reference_probe_rules`` records it, spliced at
    once: the fields a search reads of a ``constraints.Probe``."""

    rule: RewritingRule
    id: int
    ast: AnnotatedAst
    ids: tuple[int, ...]
    constraints: tuple[TypeConstraint, ...]


def probe_fields(outcome: ProbeOutcome):
    """``outcome`` with each kept probe read field by field, so that lazy
    probes and the reference's records compare by what they hold."""
    return (
        outcome.target,
        [(p.rule, p.id, p.ast, p.ids, p.constraints) for p in outcome.kept],
        outcome.size_pruned,
        outcome.constraint_pruned,
    )


def reference_probe_rules(
    ast, target, candidates, step: SearchStep, base_constraints=()
):
    """``constraints.probe_rules`` the slow way, with the same arguments.

    Every candidate is spliced first; the size bound is the new tree's whole
    ``tree_size``, and the constraint check solves a fresh system of the
    base pins, the candidate's schema and the full context constraints of
    the new tree.
    """
    kept = []
    size_pruned = 0
    constraint_pruned = 0
    base = list(base_constraints)
    for rule in candidates:
        new_ast, ids = apply_rule_with_ids(ast, target, rule)
        if (
            step.size_limit is not None
            and step.bounds is not None
            and step.bounds.tree_size(new_ast) > step.size_limit
        ):
            size_pruned += 1
            continue
        schema = constraints_of_application(rule, ids)
        system = base + schema + constraints_of_context(
            step.var_types, new_ast, step.result_type
        )
        if not SolverState().push(system):
            constraint_pruned += 1
            continue
        kept.append(
            SplicedProbe(rule, step.rs.id_of(rule), new_ast, tuple(ids), tuple(schema))
        )
    return ProbeOutcome(target, tuple(kept), size_pruned, constraint_pruned)


@contextlib.contextmanager
def reference_prober():
    """Route every probe of the block through ``reference_probe_rules``:
    ``feasible_rules`` looks ``probe_rules`` up at call time."""
    saved = constraints.probe_rules
    constraints.probe_rules = reference_probe_rules
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
        target, lambda ast, pins: feasible_rules(ast, step, policy, pins)
    )


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
                outcome = feasible_rules(ast, step, policy, pins)
                rule_ids = [p.id for p in outcome.kept]
                if derived.application.rule not in rule_ids:
                    break
                choice = rule_ids.index(derived.application.rule)
                steps.append((ast, outcome, choice, pins))
                ast = outcome.kept[choice].ast
                pins = pins + outcome.kept[choice].constraints
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
    k: int = 10,
    size_limit: int | None = 30,
    anti_patterns: Sequence[AntiPattern] = DEFAULT_ANTI_PATTERNS,
    step_cap: int = 100_000,
    renderer: Renderer | None = None,
) -> SearchResult:
    """``search.beam_search`` the slow way, with the same arguments: every
    state's scored candidates and every round's successors are sorted,
    whether or not the width truncates them."""
    if not widths or any(w < 1 for w in widths):
        raise ValueError("widths must be a non-empty sequence of positive ints")
    stats = SearchStats()
    render_fn = renderer or render
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    # state: tree, log prob, applications so far, accumulated schema pins
    states: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = [
        (AnnotatedAst.empty(), 0.0, (), ())
    ]
    round_idx = 0
    while states:
        width = widths[min(round_idx, len(widths) - 1)]
        successors: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = []
        for ast, log_prob, apps, pins in states:
            if not ast.is_empty and is_complete(ast):
                text = render_fn(ast)
                if anti_pattern_check(text, anti_patterns):
                    results.append(Candidate(ast, text, log_prob, apps))
                else:
                    stats.anti_pattern_pruned += 1
                continue
            if stats.expansions >= step_cap:
                stats.step_cap_hit = True
                continue
            stats.expansions += 1
            outcome = feasible_rules(ast, step, policy, pins)
            stats.size_pruned += outcome.size_pruned
            stats.constraint_pruned += outcome.constraint_pruned
            if not outcome.kept:
                continue
            node = outcome.target
            probs = model.predict(ctx, ast, node, [p.rule for p in outcome.kept])
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
                        pins + probe.constraints,
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
    anti_patterns: Sequence[AntiPattern] = (),
    renderer: Renderer | None = None,
) -> SearchResult:
    """``search.exhaustive_search`` as a loop of its own: a depth-first walk
    of every state within the bounds.  Raises ``SearchOverflowError`` past
    ``state_cap`` visited states; ``math.inf`` sets no cap.  Without a model
    all log probabilities are zero."""
    stats = SearchStats()
    render_fn = renderer or render
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    stack: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = [
        (AnnotatedAst.empty(), 0.0, (), ())
    ]
    visited = 0
    while stack:
        ast, log_prob, apps, pins = stack.pop()
        visited += 1
        if visited > state_cap:
            raise SearchOverflowError(
                f"exhaustive search exceeded {state_cap} states"
            )
        if not ast.is_empty and is_complete(ast):
            text = render_fn(ast)
            if anti_pattern_check(text, anti_patterns):
                results.append(Candidate(ast, text, log_prob, apps))
            else:
                stats.anti_pattern_pruned += 1
            continue
        stats.expansions += 1
        outcome = feasible_rules(ast, step, policy, pins)
        stats.size_pruned += outcome.size_pruned
        stats.constraint_pruned += outcome.constraint_pruned
        if not outcome.kept:
            continue
        node = outcome.target
        if model is not None:
            probs = model.predict(ctx, ast, node, [p.rule for p in outcome.kept])
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
                    pins + probe.constraints,
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
    template: TemplatePayload | None = None
    position: int | None = None


_SLOT_RULE = re.compile(r"^var(\d+):")


def reference_payloads(templates, ctx, ast, node, candidates):
    """The decision's kind and one ``ReferencePayload`` per candidate, read
    off the rules and the tree afresh for every candidate: the reference
    reading that ``condsynth.CondEncoder`` does once per decision."""
    by_key = {t.key: t.payload for t in templates}

    def var(name):
        if ctx is None:
            return None
        try:
            return ctx.variable(name)
        except ContextError:
            return None

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


def reference_features(kind: str, payload, pipe) -> np.ndarray:
    """One candidate's full feature vector, blocks recomputed per payload
    (see ``reference_payloads``): the rows ``condsynth.CondEncoder`` builds
    per decision."""
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
                    RuleKind.CREATION,
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
                    RuleKind.CREATION,
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
                RuleKind.BOTTOM_UP,
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
                    RuleKind.TOP_DOWN,
                    (nonterminal(f"V{position}"), Annotation.D),
                    _leaf_rule_tree(f"V{position}", var.name, upward=False),
                    key=f"var{position}:{var.name}",
                    schema=((0, _SCHEMA_VAR), (1, _SCHEMA_VAR)),
                )
            )
    if any(t.arity == 0 for t in templates):
        rules.append(
            RewritingRule(
                RuleKind.BOTTOM_UP,
                (nonterminal("E"), Annotation.U),
                RuleTree(nonterminal("E"), Annotation.NONE, True),
                key="fin:E",
            )
        )
    return RuleSet(rules)
