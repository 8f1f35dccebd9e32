"""Equality solver, schema instantiation, size bounds, and rule probing."""

from collections import deque
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramgen import full_set, random_typed_grammar, top_down_set
from progest.constraints import (
    SearchStep,
    SignatureTable,
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
    RewritingRule,
    RuleKind,
    RuleSet,
    RuleTree,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
)
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    apply_rule_with_ids,
    is_complete,
    policy_leftmost,
    to_sexpr,
)
from tests_support import make_hash_policy, reference_prober

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
def test_failed_push_leaves_no_trace(base, extra):
    s = SolverState()
    if not s.push(base):
        return
    before = {x: s.resolved(x) for x in range(6)}
    classes = {(a, b): s.same_class(a, b) for a in range(6) for b in range(6)}
    if s.push(extra):
        return
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
    step = SearchStep(rs, bounds=bounds, size_limit=2)
    out = probe_rules(ast, ast.root, group, step)
    kept = {p.rule.key for p in out.kept}
    assert kept == {'td:E->"hours"', 'td:E->"value"'}
    assert out.size_pruned == 3
    assert out.constraint_pruned == 0


def test_probe_prunes_by_type():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    group = rs.rules_for(ast.nodes[ast.root].symbol, Annotation.D)
    step = SearchStep(
        rs, var_types={"hours": "Int", "value": "Int"}, result_type="Boolean"
    )
    out = probe_rules(ast, ast.root, group, step)
    kept = {p.rule.key for p in out.kept}
    # leaf and addition rules would make the whole tree an Int
    assert kept == {'td:E->E "> 12"', 'td:E->E "> 0"'}
    assert out.constraint_pruned == 3


def test_feasible_rules_on_empty_tree_offers_creations():
    rs = full_rules(DEMO)
    out = feasible_rules(AnnotatedAst.empty(), SearchStep(rs), policy_leftmost)
    keys = {p.rule.key for p in out.kept}
    assert "make-root:E" in keys
    assert "make-leaf:hours" in keys
    assert all(k.startswith("make-") for k in keys)


def test_feasible_rules_respects_base_constraints():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    pinned = [eq_const(ast.root, "Int")]
    out = feasible_rules(ast, SearchStep(rs), policy_leftmost, pinned)
    kept = {p.rule.key for p in out.kept}
    # comparisons would force the root Boolean against the pin
    assert 'td:E->E "> 12"' not in kept
    assert 'td:E->"hours"' in kept


def test_probe_constraints_carry_schema_only():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    out = feasible_rules(ast, SearchStep(rs), policy_leftmost)
    by_key = {p.rule.key: p for p in out.kept}
    gt = by_key['td:E->E "> 12"']
    assert set(gt.constraints) == {
        eq_const(gt.ids[0], "Boolean"),
        eq_const(gt.ids[1], "Int"),
    }


def test_probe_checks_each_candidate_fits_before_pruning():
    rs = full_rules(DEMO)
    bounds = compute_size_bounds(rs)
    leaf = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-leaf:hours"))
    root = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    # an E pattern on the "hours" leaf, and an upward rule on a downward mark
    misfits = [
        (leaf, rs.by_key('bu0:E->E "> 12"')),
        (root, rs.by_key("fin:E")),
    ]
    steps = [
        SearchStep(rs, bounds=bounds, size_limit=1),
        SearchStep(rs, var_types={"hours": "Str"}, result_type="Str"),
    ]
    for ast, rule in misfits:
        for step in steps:
            with pytest.raises(ApplyError):
                probe_rules(ast, ast.root, [rule], step)
    # either step prunes a candidate that does fit
    fits = rs.by_key('td:E->E "> 12"')
    assert probe_rules(root, root.root, [fits], steps[0]).size_pruned == 1
    assert probe_rules(root, root.root, [fits], steps[1]).constraint_pruned == 1


def test_probe_lets_a_wrapping_rule_decide_the_root_type():
    """A top-down rule anchored below its replacement root moves the target
    off the root, so the target's result pin no longer binds it."""
    e, w = nonterminal("E"), nonterminal("W")
    wrap = RewritingRule(
        0,
        RuleKind.TOP_DOWN,
        (e, Annotation.D),
        RuleTree(w, Annotation.NONE, False, (RuleTree(e, Annotation.NONE, True),)),
        key="wrap",
        schema=((0, TypeAtom("Int")), (1, TypeAtom("Str"))),
    )
    make_root = RewritingRule(
        1, RuleKind.CREATION, None, RuleTree(e, Annotation.D), key="make-root:E"
    )
    rs = RuleSet([wrap, make_root])
    ast = apply_rule(AnnotatedAst.empty(), None, make_root)
    step = SearchStep(rs, result_type="Int")
    got = feasible_rules(ast, step, policy_leftmost)
    with reference_prober():
        want = feasible_rules(ast, step, policy_leftmost)
    assert got == want
    assert [p.rule.key for p in got.kept] == ["wrap"]


_TYPES = ("Int", "Str", "Bool")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from(["top-down", "full", "full+middle"]),
    st.sampled_from([None, 5, 7, 9]),
    st.booleans(),
    st.data(),
)
def test_step_matches_reference_prober_on_typed_grammars(
    seed, typed_leaves, rules, size_limit, hashed, data
):
    """The compiled step keeps, prunes and splices exactly what splicing
    every candidate and solving its whole system does, at every state of a
    breadth-first walk.  Middle creations bring marks that keep a direction
    after a step."""
    g = random_typed_grammar(seed, typed_leaves=typed_leaves)
    if rules == "top-down":
        rs = top_down_set(g)
    else:
        rs = full_set(g)
        if rules == "full+middle":
            rs = rs.merged(derive_creation_rules(g, [CreationMode.MIDDLE]))
    var_types = {
        t.name: data.draw(st.sampled_from(_TYPES))
        for t in g.terminals
        if is_variable_token(t.name) and data.draw(st.booleans())
    }
    result_type = data.draw(st.sampled_from((None,) + _TYPES))
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    step = SearchStep(
        rs,
        var_types=var_types,
        result_type=result_type,
        bounds=compute_size_bounds(rs),
        size_limit=size_limit,
    )
    queue = deque([(AnnotatedAst.empty(), ())])
    for _ in range(150):
        if not queue:
            break
        ast, pins = queue.popleft()
        if not ast.is_empty and is_complete(ast):
            continue
        got = feasible_rules(ast, step, policy, pins)
        with reference_prober():
            want = feasible_rules(ast, step, policy, pins)
        where = to_sexpr(ast)
        assert got.target == want.target, where
        assert [p.rule.id for p in got.kept] == [p.rule.id for p in want.kept], where
        assert [(p.ast, p.ids, p.constraints) for p in got.kept] == [
            (p.ast, p.ids, p.constraints) for p in want.kept
        ], where
        assert (got.size_pruned, got.constraint_pruned) == (
            want.size_pruned,
            want.constraint_pruned,
        ), where
        queue.extend((p.ast, pins + p.constraints) for p in got.kept)


def _marks_met(rule):
    """Every (mark, rootedness) a search can probe ``rule`` at."""
    if rule.kind is RuleKind.CREATION:
        return [(None, True)]
    return [(m, r) for m in (rule.pattern[1], Annotation.UD) for r in (True, False)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["top-down", "full"]),
    st.data(),
)
def test_shared_signatures_match_fresh_compiles_across_contexts(seed, rules, data):
    """One table serves searches in several contexts over typed-leaf
    grammars, where a leaf's declared type decides whether a rule
    type-checks: each signature it hands out is the one a step of that
    context alone compiles."""
    g = random_typed_grammar(seed, typed_leaves=True)
    rs = top_down_set(g) if rules == "top-down" else full_set(g)
    table = SignatureTable(rs, compute_size_bounds(rs))
    shared = RuleSet.joined((rs,), shared=table)
    leaves = [t.name for t in g.terminals if is_variable_token(t.name)]
    for _ in range(4):
        ctx = SimpleNamespace(
            variable_types={
                name: data.draw(st.sampled_from(_TYPES))
                for name in leaves
                if data.draw(st.booleans())
            },
            result_type=data.draw(st.sampled_from((None,) + _TYPES)),
        )
        size_limit = data.draw(st.sampled_from([None, 5]))
        step = SearchStep.of(shared, ctx, size_limit)
        assert step.bounds is (table.bounds if size_limit is not None else None)
        fresh = SearchStep(
            rs,
            var_types=ctx.variable_types,
            result_type=ctx.result_type,
            bounds=table.bounds if size_limit is not None else None,
            size_limit=size_limit,
        )
        for rule in shared:
            for mark, at_root in _marks_met(rule):
                assert step.signature(rule, mark, at_root) == fresh.signature(
                    rs[rule.id], mark, at_root
                ), (rule.key, mark, at_root, ctx)


def test_shared_table_leaves_a_rule_that_only_shares_its_key():
    rs = full_rules(DEMO)
    table = SignatureTable(rs, compute_size_bounds(rs))
    rule = rs.by_key('td:E->E "> 12"')
    step = SearchStep(rs, shared=table)
    assert table.signature(rule, Annotation.D, True, step) is not None
    # the same key with another schema is another rule
    retyped = RewritingRule(
        rule.id, rule.kind, rule.pattern, rule.replacement, rule.key,
        ((0, TypeAtom("Str")),),
    )
    assert table.signature(retyped, Annotation.D, True, step) is None
    assert step.signature(retyped, Annotation.D, True) == SearchStep(rs).signature(
        retyped, Annotation.D, True
    )


def test_step_takes_the_shared_tables_bounds():
    rs = full_rules(DEMO)
    table = SignatureTable(rs, compute_size_bounds(rs))
    with pytest.raises(ValueError):
        SearchStep(rs, bounds=compute_size_bounds(rs), size_limit=5, shared=table)
    step = SearchStep.of(RuleSet.joined((rs,), shared=table), None, 5)
    assert step.bounds is table.bounds
    assert SearchStep.of(rs, None, None).bounds is None
