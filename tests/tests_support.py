"""Hand-built fixtures for the worked two-variable comparison example, tree,
grammar and policy helpers for the tests, and the reference paths that fast
paths are checked against: the splice-then-solve prober, the restarting
typed replay, the per-payload feature vector and the per-context condition
rule set."""

import contextlib
import hashlib
import re
from dataclasses import dataclass

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
from progest.errors import ContextError, UnderivableTreeError
from progest.features import (
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
from progest.trees import (
    AnnotatedAst,
    Application,
    apply_rule,
    apply_rule_with_ids,
    expandable_nodes,
    iter_derivations,
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
    ast: AnnotatedAst
    ids: tuple[int, ...]
    constraints: tuple[TypeConstraint, ...]


def probe_fields(outcome: ProbeOutcome):
    """``outcome`` with each kept probe read field by field, so that lazy
    probes and the reference's records compare by what they hold."""
    return (
        outcome.target,
        [(p.rule, p.ast, p.ids, p.constraints) for p in outcome.kept],
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
        kept.append(SplicedProbe(rule, new_ast, tuple(ids), tuple(schema)))
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
        for derivation in iter_derivations(tree, rs, policy):
            steps = []
            ast = AnnotatedAst.empty()
            pins = ()
            for derived in derivation:
                outcome = feasible_rules(ast, step, policy, pins)
                rule_ids = [p.rule.id for p in outcome.kept]
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


def reference_features(kind: str, payload, pipe) -> np.ndarray:
    """One candidate's full feature vector, blocks recomputed per payload:
    the encoding ``features.extract_features`` builds per decision."""
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
                    len(rules),
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
                    len(rules),
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
                len(rules),
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
                    len(rules),
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
                len(rules),
                RuleKind.BOTTOM_UP,
                (nonterminal("E"), Annotation.U),
                RuleTree(nonterminal("E"), Annotation.NONE, True),
                key="fin:E",
            )
        )
    return RuleSet(rules)
