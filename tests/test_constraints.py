"""Equality solver, schema instantiation, size bounds, and rule probing."""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.constraints import (
    SolverState,
    compute_size_bounds,
    constraints_of_application,
    constraints_of_context,
    eq_const,
    eq_var,
    feasible_rules,
    is_variable_token,
    probe_rules,
)
from progest.errors import ApplyError, SchemaError
from progest.grammar import (
    Annotation,
    CreationMode,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
)
from progest.trees import AnnotatedAst, apply_rule, apply_rule_with_ids, policy_leftmost

DEMO = (
    'E -> E:Int "> 12" :: Boolean\n'
    'E -> E:Int "> 0" :: Boolean\n'
    'E -> "hours" :: Int\n'
    'E -> "value" :: Int\n'
    'E -> E:Int "+" E:Int :: Int\n'
)


def full_rules(text):
    g = load_grammar(text)
    return derive_top_down_rules(g).merged(
        derive_bottom_up_rules(g),
        derive_creation_rules(g, [CreationMode.ROOT, CreationMode.LEAF]),
    )


def test_constraint_shape_is_checked():
    with pytest.raises(SchemaError):
        # both sides at once is malformed
        from progest.constraints import TypeConstraint

        TypeConstraint(1, right=2, const="Int")


def test_equality_chain_propagates_constants():
    s = SolverState()
    assert s.push([eq_var(1, 2), eq_var(2, 3)])
    assert s.push([eq_const(1, "Int")])
    assert s.resolved(3) == "Int"
    assert s.same_class(1, 3)
    assert not s.push([eq_const(3, "Str")])
    # the failed push left nothing behind
    assert s.resolved(3) == "Int"


def test_push_is_transactional():
    s = SolverState()
    ok = s.push([eq_const(1, "Int"), eq_const(2, "Str"), eq_var(1, 2)])
    assert not ok
    assert s.resolved(1) is None
    assert s.resolved(2) is None


def test_pop_restores_previous_answers():
    s = SolverState()
    assert s.push([eq_const(1, "Int")])
    assert s.push([eq_var(1, 5)])
    assert s.resolved(5) == "Int"
    s.pop()
    assert s.resolved(5) is None
    assert s.resolved(1) == "Int"


def test_pop_without_push():
    with pytest.raises(ApplyError):
        SolverState().pop()


def test_clone_is_independent():
    s = SolverState()
    s.push([eq_const(1, "Int")])
    c = s.clone()
    assert c.push([eq_var(1, 2)])
    assert c.resolved(2) == "Int"
    assert s.resolved(2) is None
    c.pop()
    assert c.resolved(1) == "Int"


def brute_satisfiable(constraints) -> bool:
    """Connected-component check: every class may touch one constant only."""
    adjacency: dict[int, set[int]] = {}
    consts: dict[int, set[str]] = {}
    for c in constraints:
        adjacency.setdefault(c.left, set())
        if c.right is not None:
            adjacency.setdefault(c.right, set())
            adjacency[c.left].add(c.right)
            adjacency[c.right].add(c.left)
        else:
            consts.setdefault(c.left, set()).add(c.const)
    seen: set[int] = set()
    for start in adjacency:
        if start in seen:
            continue
        stack, component = [start], set()
        while stack:
            x = stack.pop()
            if x in component:
                continue
            component.add(x)
            stack.extend(adjacency[x])
        seen |= component
        names = set()
        for x in component:
            names |= consts.get(x, set())
        if len(names) > 1:
            return False
    return True


constraint_st = st.one_of(
    st.builds(eq_var, st.integers(0, 5), st.integers(0, 5)),
    st.builds(eq_const, st.integers(0, 5), st.sampled_from(["Int", "Str", "Boolean"])),
)


@settings(max_examples=200)
@given(st.lists(constraint_st, max_size=12))
def test_solver_agrees_with_component_check(constraints):
    assert SolverState().push(constraints) == brute_satisfiable(constraints)


@settings(max_examples=100)
@given(
    st.lists(constraint_st, max_size=8),
    st.lists(constraint_st, max_size=8),
)
def test_push_pop_leaves_no_trace(base, extra):
    s = SolverState()
    if not s.push(base):
        return
    before = {x: s.resolved(x) for x in range(6)}
    classes = {(a, b): s.same_class(a, b) for a in range(6) for b in range(6)}
    if s.push(extra):
        s.pop()
    assert {x: s.resolved(x) for x in range(6)} == before
    assert {(a, b): s.same_class(a, b) for a in range(6) for b in range(6)} == classes


def test_is_variable_token():
    assert is_variable_token("hours")
    assert is_variable_token("_x$1")
    assert not is_variable_token("> 12")
    assert not is_variable_token("null")
    assert not is_variable_token("true")


def test_application_constraints_concrete():
    rs = full_rules(DEMO)
    rule = rs.by_key('td:E->E "> 12"')
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    _new, ids = apply_rule_with_ids(ast, ast.root, rule)
    got = constraints_of_application(rule, ids)
    assert eq_const(ids[0], "Boolean") in got
    assert eq_const(ids[1], "Int") in got
    assert len(got) == 2


def test_application_constraints_schema_var():
    rs = full_rules('E -> E:s "+" E:s :: s\nE -> "x"\n')
    rule = rs.by_key('td:E->E "+" E')
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    _new, ids = apply_rule_with_ids(ast, ast.root, rule)
    got = constraints_of_application(rule, ids)
    # three positions share one variable: two equality links, no constants
    assert all(c.right is not None for c in got)
    assert len(got) == 2
    s = SolverState()
    assert s.push(got)
    assert s.same_class(ids[0], ids[3])


def test_application_constraints_bad_ids():
    rs = full_rules(DEMO)
    rule = rs.by_key('td:E->E "> 12"')
    with pytest.raises(SchemaError):
        constraints_of_application(rule, [0])


def test_context_constraints_pin_declared_leaves():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    ast = apply_rule(ast, ast.root, rs.by_key('td:E->E "> 12"'))
    operand = ast.nodes[ast.root].children[0]
    ast = apply_rule(ast, operand, rs.by_key('td:E->"hours"'))
    got = constraints_of_context({"hours": "Int"}, ast, "Boolean")
    leaf = ast.nodes[operand].children[0]
    assert eq_const(leaf, "Int") in got
    assert eq_const(ast.root, "Boolean") in got
    # the comparison token is not identifier-shaped, so nothing pins it
    assert len(got) == 2


def test_context_skips_undeclared_and_open_roots():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-leaf:hours"))
    got = constraints_of_context({"value": "Int"}, ast, "Boolean")
    # root still grows upward: no result pin; hours undeclared here: no leaf pin
    assert got == []


def test_size_bounds_demo_values():
    rs = full_rules(DEMO)
    bounds = compute_size_bounds(rs)
    assert bounds.of("E", Annotation.D) == 2
    assert bounds.of("E", Annotation.U) == 1
    assert bounds.of("hours", Annotation.NONE) == 1


def test_size_bounds_unreachable_is_infinite():
    g = load_grammar('E -> E "x"\n')  # no terminal-only production
    rs = derive_top_down_rules(g).merged(
        derive_creation_rules(g, [CreationMode.ROOT])
    )
    bounds = compute_size_bounds(rs)
    assert bounds.of("E", Annotation.D) == inf
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    assert bounds.tree_size(ast) == inf
    assert not bounds.feasible(ast, 1000)
    assert bounds.feasible(ast, None)


def test_tree_size_counts_completions():
    rs = full_rules(DEMO)
    bounds = compute_size_bounds(rs)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    assert bounds.tree_size(ast) == 2
    ast = apply_rule(ast, ast.root, rs.by_key('td:E->E "+" E'))
    # root + two open operands (2 each) + the operator token
    assert bounds.tree_size(ast) == 6


def test_probe_prunes_by_size():
    rs = full_rules(DEMO)
    bounds = compute_size_bounds(rs)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    group = rs.rules_for(ast.nodes[ast.root].symbol, Annotation.D)
    out = probe_rules(ast, ast.root, group, bounds=bounds, size_limit=2)
    kept = {p.rule.key for p in out.kept}
    assert kept == {'td:E->"hours"', 'td:E->"value"'}
    assert out.size_pruned == 3
    assert out.constraint_pruned == 0


def test_probe_prunes_by_type():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    group = rs.rules_for(ast.nodes[ast.root].symbol, Annotation.D)
    out = probe_rules(
        ast, ast.root, group, var_types={"hours": "Int", "value": "Int"},
        result_type="Boolean",
    )
    kept = {p.rule.key for p in out.kept}
    # leaf and addition rules would make the whole tree an Int
    assert kept == {'td:E->E "> 12"', 'td:E->E "> 0"'}
    assert out.constraint_pruned == 3


def test_feasible_rules_on_empty_tree_offers_creations():
    rs = full_rules(DEMO)
    out = feasible_rules(AnnotatedAst.empty(), rs, policy_leftmost)
    keys = {p.rule.key for p in out.kept}
    assert "make-root:E" in keys
    assert "make-leaf:hours" in keys
    assert all(k.startswith("make-") for k in keys)


def test_feasible_rules_respects_base_constraints():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    pinned = [eq_const(ast.root, "Int")]
    out = feasible_rules(ast, rs, policy_leftmost, base_constraints=pinned)
    kept = {p.rule.key for p in out.kept}
    # comparisons would force the root Boolean against the pin
    assert 'td:E->E "> 12"' not in kept
    assert 'td:E->"hours"' in kept


def test_probe_constraints_carry_schema_only():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    out = feasible_rules(ast, rs, policy_leftmost)
    by_key = {p.rule.key: p for p in out.kept}
    gt = by_key['td:E->E "> 12"']
    assert set(gt.constraints) == {
        eq_const(gt.ids[0], "Boolean"),
        eq_const(gt.ids[1], "Int"),
    }
