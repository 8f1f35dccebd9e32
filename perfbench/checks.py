"""Correctness checks on the outputs the benchmark times.

Each check returns a list of failure messages (empty when the output is
right).  None compares against a stored copy of earlier output: they compare
against a computation made here, apart from the program (the well-typed
instantiations of the templates, the number of trees of a grammar), or
against a property the method must have (one positive per training step,
probabilities that never rise down the ranking, histories that replay to
their tree).  ``selftest.py`` feeds each check a corrupted output.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Sequence

from progest.bundle import Bundle, canonical_json
from progest.condsynth import (
    CorpusRecord,
    Template,
    TrainedCond,
    build_cond_ruleset,
    mine_templates,
    render_condition,
)
from progest.errors import MiniLangError, MiniTypeError
from progest.features import Context
from progest.grammar import Annotation, Grammar, RuleSet
from progest.minilang import join_tokens, parse_condition, typecheck
from progest.search import exhaustive_search
from progest.trees import AnnotatedAst, apply_rule

# the settings `progest eval` ranks with
K = 50
WIDTHS = (5, 200)
SIZE_LIMIT = 30
LOG_P_TOLERANCE = 1e-9

_PLACEHOLDER = re.compile(r"V(\d+)")


# ----------------------------------------------------------------------
# training and bundle

def check_training(records: Sequence[CorpusRecord], trained: TrainedCond) -> list[str]:
    """The extraction audit and the positives it produced.

    Instances come in one block per audited step, ``feasible`` long, holding
    exactly one positive: the applied rule.  Every atom contributes one
    creation step and one template choice, so the creation positives sum to
    the atoms and each template's positives to its corpus count.
    """
    errors: list[str] = []
    ex = trained.extraction
    if ex.skipped:
        errors.append(f"{len(ex.skipped)} items skipped, first {ex.skipped[0]}")
    pos = 0
    for audit in ex.steps_audited:
        block = ex.instances[pos: pos + audit.feasible]
        pos += audit.feasible
        positives = [inst.label for inst in block if inst.polarity]
        if positives != [audit.applied_key]:
            errors.append(
                f"item {audit.item} step {audit.step}: positives {positives}, "
                f"applied {audit.applied_key}"
            )
    if pos != len(ex.instances):
        errors.append(f"{len(ex.instances)} instances, feasible counts sum to {pos}")

    positives: dict[str, int] = {}
    for inst in ex.instances:
        if inst.polarity:
            positives[inst.label] = positives.get(inst.label, 0) + 1
    creation = sum(n for label, n in positives.items()
                   if label.startswith(("make-var:", "make-expr:")))
    if creation != len(records):
        errors.append(f"creation positives {creation} != {len(records)} atoms")
    for t in mine_templates(records):
        label = ("expr:" if t.arity else "make-expr:") + t.key
        if positives.get(label, 0) != t.count:
            errors.append(
                f"{label}: {positives.get(label, 0)} positives, corpus count {t.count}"
            )
    if trained.model_kind == "frequency":
        fitted: dict[str, int] = {}
        for (_group, _parent, label), n in trained.frequency.counts.items():
            fitted[label] = fitted.get(label, 0) + n
        if fitted != positives:
            errors.append("frequency counts differ from the extracted positives")
    return errors


def check_bundle(loaded: Bundle, trained: TrainedCond) -> list[str]:
    """The reloaded bundle holds the in-memory model, value for value."""
    errors: list[str] = []
    if loaded.model_kind != trained.model_kind:
        errors.append(f"bundle kind {loaded.model_kind} != {trained.model_kind}")
    if tuple(loaded.templates) != tuple(trained.templates):
        errors.append("bundle templates differ from the trained templates")
    model = trained.frequency if trained.model_kind == "frequency" else trained.logistic
    if canonical_json(loaded.model_params) != canonical_json(model.to_params()):
        errors.append("bundle model parameters differ from the in-memory model")
    if trained.pipeline is not None and (
        canonical_json(loaded.pipeline_params)
        != canonical_json(trained.pipeline.to_params())
    ):
        errors.append("bundle feature pipeline differs from the in-memory one")
    return errors


def same_ranking(a, b) -> bool:
    """Identical candidates: renderings and log probabilities, in order."""
    return [(c.rendered, c.log_prob) for c in a] == [(c.rendered, c.log_prob) for c in b]


# ----------------------------------------------------------------------
# ranking

def well_typed_renderings(templates: Sequence[Template], ctx: Context) -> set[str]:
    """Every template instantiated with declared variables of the slot types."""
    out: set[str] = set()
    for t in templates:
        pools = [
            [v.name for v in ctx.variables if v.type == slot_type]
            for slot_type in t.placeholder_types
        ]
        for names in itertools.product(*pools):
            tokens = []
            for tok in t.tokens:
                m = _PLACEHOLDER.fullmatch(tok)
                tokens.append(names[int(m.group(1)) - 1] if m else tok)
            out.add(join_tokens(tokens))
    return out


def check_ranking(ctx: Context, allowed: set[str], candidates) -> list[str]:
    """Candidates are well-typed instantiations, distinct, Boolean, and carry
    probabilities in (0, 1] that never rise and sum to at most one."""
    errors: list[str] = []
    if allowed and not candidates:
        errors.append("no candidates")
    seen: set[str] = set()
    total = 0.0
    previous = None
    for rank, cand in enumerate(candidates, start=1):
        text = cand.rendered
        if text not in allowed:
            errors.append(f"#{rank} {text!r} is no well-typed instantiation")
        if text in seen:
            errors.append(f"#{rank} {text!r} repeats")
        seen.add(text)
        try:
            result_type = typecheck(parse_condition(text), ctx.variable_types)
        except (MiniLangError, MiniTypeError) as err:
            errors.append(f"#{rank} {text!r}: {err}")
        else:
            if result_type != "Boolean":
                errors.append(f"#{rank} {text!r} has type {result_type}")
        prob = cand.prob
        if not 0.0 < prob <= 1.0:
            errors.append(f"#{rank} probability {prob} outside (0, 1]")
        if previous is not None and cand.log_prob > previous:
            errors.append(f"#{rank} log p {cand.log_prob} rises above {previous}")
        previous = cand.log_prob
        total += prob
    if total > 1.0 + LOG_P_TOLERANCE:
        errors.append(f"probabilities sum to {total}")
    return errors


def exhaustive_log_probs(ctx: Context, templates: Sequence[Template], model) -> list:
    """(rendering, log p) of every finished tree, by exhaustive search."""
    rs = build_cond_ruleset(templates, ctx)
    result = exhaustive_search(
        rs, ctx, size_limit=SIZE_LIMIT, model=model, renderer=render_condition
    )
    return [(c.rendered, c.log_prob) for c in result.candidates]


def check_oracle(allowed: set[str], exhaustive: list, candidates) -> list[str]:
    """Exhaustive search finds each well-typed instantiation once, and the
    beam gives each candidate the exhaustive log probability."""
    errors: list[str] = []
    found = dict(exhaustive)
    if len(found) != len(exhaustive):
        errors.append(f"exhaustive search found {len(exhaustive) - len(found)} "
                      "renderings twice")
    if set(found) != allowed:
        errors.append(
            f"exhaustive set differs from the instantiations: "
            f"{len(set(found) - allowed)} extra, {len(allowed - set(found))} missing"
        )
    for rank, cand in enumerate(candidates, start=1):
        exact = found.get(cand.rendered)
        if exact is None or abs(exact - cand.log_prob) > LOG_P_TOLERANCE:
            errors.append(f"#{rank} {cand.rendered!r}: beam log p {cand.log_prob}, "
                          f"exhaustive {exact}")
    return errors


# ----------------------------------------------------------------------
# certification

def count_trees(g: Grammar, max_nodes: int) -> int:
    """Complete trees of ``g`` with at most ``max_nodes`` nodes, counted from
    the productions alone."""
    memo: dict = {}

    def trees(sym, n: int) -> int:
        if sym.is_terminal:
            return 1 if n == 1 else 0
        key = (sym, n)
        if key not in memo:
            memo[key] = sum(fill(p.rhs, n - 1) for p in g.productions if p.lhs == sym)
        return memo[key]

    def fill(symbols, budget: int) -> int:
        if not symbols:
            return 1 if budget == 0 else 0
        return sum(
            trees(symbols[0], take) * fill(symbols[1:], budget - take)
            for take in range(1, budget + 1)
        )

    return sum(trees(g.root, n) for n in range(1, max_nodes + 1))


def check_certify(report, n_trees: int, every_tree_derivable: bool) -> list[str]:
    """An unambiguous verdict over exactly the grammar's trees.

    With only top-down rules seeded at the root every tree has exactly one
    history; with a single leaf creation the trees not holding that leaf
    have none.
    """
    errors: list[str] = []
    if not report.unambiguous:
        errors.append("verdict: ambiguous")
    if report.trees_checked != n_trees:
        errors.append(f"checked {report.trees_checked} trees, grammar has {n_trees}")
    if every_tree_derivable:
        if report.derivations_checked != report.trees_checked:
            errors.append(f"{report.derivations_checked} derivations for "
                          f"{report.trees_checked} trees")
        if report.underivable_trees != 0:
            errors.append(f"{report.underivable_trees} trees underivable")
    elif report.derivations_checked + report.underivable_trees != report.trees_checked:
        errors.append(
            f"{report.derivations_checked} derivations + {report.underivable_trees} "
            f"underivable != {report.trees_checked} trees"
        )
    return errors


def _shape(ast: AnnotatedAst, nid: int):
    node = ast.nodes[nid]
    return (node.symbol, node.annotation, tuple(_shape(ast, c) for c in node.children))


def check_witness(report, rs: RuleSet) -> list[str]:
    """An ambiguous verdict whose two histories both rebuild the witness."""
    if report.unambiguous or report.witness is None:
        return ["full rule set not reported ambiguous"]
    w = report.witness
    errors: list[str] = []
    if w.derivation_a == w.derivation_b:
        errors.append("witness histories are the same")
    target = _shape(w.tree, w.tree.root)
    for label, history in (("a", w.derivation_a), ("b", w.derivation_b)):
        ast = AnnotatedAst.empty()
        for app in history:
            ast = apply_rule(ast, app.node, rs[app.rule])
        if ast.is_empty or any(n.annotation is not Annotation.NONE
                               for n in ast.nodes.values()):
            errors.append(f"history {label} leaves an unfinished tree")
        elif _shape(ast, ast.root) != target:
            errors.append(f"history {label} does not rebuild {w.rendered!r}")
    return errors


def report_key(report) -> str:
    """Everything a certification report says, for run-to-run comparison."""
    return json.dumps([report.unambiguous, report.max_nodes, report.trees_checked,
                       report.derivations_checked, report.underivable_trees])
