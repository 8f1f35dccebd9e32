"""Hand-built fixtures for the worked two-variable comparison example, and
the splice-then-solve prober that the compiled search step is checked
against."""

import contextlib

from progest import constraints
from progest.constraints import (
    Probe,
    ProbeOutcome,
    SearchStep,
    SolverState,
    constraints_of_application,
    constraints_of_context,
)
from progest.grammar import (
    CreationMode,
    Grammar,
    RuleSet,
    derive_creation_rules,
    derive_top_down_rules,
)
from progest.models import TableModel
from progest.trees import apply_rule_with_ids


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
        kept.append(Probe(rule, new_ast, tuple(ids), tuple(schema)))
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
