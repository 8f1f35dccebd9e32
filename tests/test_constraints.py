"""Equality solver, schema instantiation, size bounds, and rule probing."""

import contextlib
import dataclasses
from collections import deque
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramgen import full_set, random_typed_grammar, top_down_set
from progest import constraints
from progest.condsynth import build_cond_ruleset, mine_templates
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
from progest.errors import ApplyError, RuleError, SchemaError
from progest.grammar import (
    Annotation,
    CreationMode,
    RewritingRule,
    RuleSet,
    RuleTree,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    apply_rule_with_ids,
    is_complete,
    policy_leftmost,
    to_sexpr,
)
from tests_support import (
    make_hash_policy,
    probe_fields,
    probe_pins,
    reference_feasible_rules,
    whole_tree_state,
)

DEMO = (
    'E -> E:Int "> 12" :: Boolean\n'
    'E -> E:Int "> 0" :: Boolean\n'
    'E -> "hours" :: Int\n'
    'E -> "value" :: Int\n'
    'E -> E:Int "+" E:Int :: Int\n'
)


def full_rules(text):
    g = load_grammar(text)
    return RuleSet([
        *derive_top_down_rules(g),
        *derive_bottom_up_rules(g),
        *derive_creation_rules(g, [CreationMode.ROOT, CreationMode.LEAF]),
    ])


def context(var_types, result_type):
    """What a search step reads of a context."""
    return SimpleNamespace(variable_types=var_types, result_type=result_type)


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
    assert s.find(1) == s.find(3)
    assert not s.push([eq_const(3, "Str")])


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
    assert s.find(ids[0]) == s.find(ids[3])


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
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )
    bounds = compute_size_bounds(rs)
    assert bounds.of("E", Annotation.D) == inf
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    assert bounds.tree_size(ast) == inf
    assert not bounds.tree_size(ast) <= 1000


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
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    step = SearchStep(rs, None, 2)
    out = probe_rules(
        whole_tree_state(ast, step), ast.root, (nonterminal("E"), Annotation.D), step
    )
    kept = {p.rule.key for p in out.kept}
    assert kept == {'td:E->"hours"', 'td:E->"value"'}
    assert out.size_pruned == 3
    assert out.constraint_pruned == 0


def test_probe_prunes_by_type():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    step = SearchStep(rs, context({"hours": "Int", "value": "Int"}, "Boolean"))
    out = probe_rules(
        whole_tree_state(ast, step), ast.root, (nonterminal("E"), Annotation.D), step
    )
    kept = {p.rule.key for p in out.kept}
    # leaf and addition rules would make the whole tree an Int
    assert kept == {'td:E->E "> 12"', 'td:E->E "> 0"'}
    assert out.constraint_pruned == 3


def test_feasible_rules_on_empty_tree_offers_creations():
    rs = full_rules(DEMO)
    out = feasible_rules(None, SearchStep(rs), policy_leftmost)
    keys = {p.rule.key for p in out.kept}
    assert "make-root:E" in keys
    assert "make-leaf:hours" in keys
    assert all(k.startswith("make-") for k in keys)


def test_feasible_rules_respects_base_constraints():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    step = SearchStep(rs)
    pinned = [eq_const(ast.root, "Int")]
    out = feasible_rules(whole_tree_state(ast, step, pinned), step, policy_leftmost)
    kept = {p.rule.key for p in out.kept}
    # comparisons would force the root Boolean against the pin
    assert 'td:E->E "> 12"' not in kept
    assert 'td:E->"hours"' in kept


def test_probe_constraints_carry_schema_only():
    rs = full_rules(DEMO)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    step = SearchStep(rs)
    out = feasible_rules(whole_tree_state(ast, step), step, policy_leftmost)
    by_key = {p.rule.key: p for p in out.kept}
    gt = by_key['td:E->E "> 12"']
    assert set(constraints_of_application(gt.rule, gt.ids)) == {
        eq_const(gt.ids[0], "Boolean"),
        eq_const(gt.ids[1], "Int"),
    }


def test_probe_checks_each_candidate_fits_before_pruning():
    rs = full_rules(DEMO)
    leaf = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-leaf:hours"))
    root = apply_rule(AnnotatedAst.empty(), None, rs.by_key("make-root:E"))
    # an E pattern on the "hours" leaf, and an upward rule on a downward mark
    misfits = [
        (leaf, rs.by_key('bu0:E->E "> 12"')),
        (root, rs.by_key("fin:E")),
    ]
    steps = [(None, 1), (context({"hours": "Str"}, "Str"), None)]

    # under its own bounds a set of one rule cannot finish an E, so every
    # tree here would have an infinite size bound, which no state a step
    # keeps has; the set takes the whole set's bounds instead
    bounds = compute_size_bounds(rs)

    def probe_alone(ast, rule, ctx, size_limit):
        """Probe ``rule`` as the one rule of a set of its own."""
        alone = RuleSet([rule], shared=SignatureTable(bounds))
        step = SearchStep(alone, ctx, size_limit)
        return probe_rules(whole_tree_state(ast, step), ast.root, rule.pattern, step)

    for ast, rule in misfits:
        for ctx, size_limit in steps:
            with pytest.raises(ApplyError):
                probe_alone(ast, rule, ctx, size_limit)
    # either step prunes a candidate that does fit
    fits = rs.by_key('td:E->E "> 12"')
    assert probe_alone(root, fits, *steps[0]).size_pruned == 1
    assert probe_alone(root, fits, *steps[1]).constraint_pruned == 1


def test_a_terminal_and_a_nonterminal_of_one_name_are_two_groups():
    """Rules on a terminal and on a nonterminal of one name have two
    patterns, so they sit in two groups, and a leaf of that terminal is
    offered its own rule only, as the reference prober offers it."""
    e, t = nonterminal("E"), terminal("E")
    on_leaf = RewritingRule(
        (t, Annotation.U),
        RuleTree(nonterminal("W"), Annotation.NONE, False,
                 (RuleTree(t, Annotation.NONE, True),)),
        key="bu:W->'E'",
    )
    on_node = RewritingRule(
        (e, Annotation.U),
        RuleTree(nonterminal("X"), Annotation.NONE, False,
                 (RuleTree(e, Annotation.NONE, True),)),
        key="bu:X->E",
    )
    make_leaf = RewritingRule(None, RuleTree(t, Annotation.U), key="make-leaf:E")
    for group in ([on_leaf, on_node], [on_node, on_leaf]):
        rs = RuleSet([make_leaf, *group])
        assert rs.group(on_leaf.pattern) == (on_leaf,)
        assert rs.group(on_node.pattern) == (on_node,)
        leaf = apply_rule(AnnotatedAst.empty(), None, make_leaf)
        for step in (SearchStep(rs), SearchStep(rs, None, 5)):
            got = feasible_rules(whole_tree_state(leaf, step), step, policy_leftmost)
            want = reference_feasible_rules(leaf, step, policy_leftmost)
            assert [p.rule for p in got.kept] == [on_leaf]
            assert probe_fields(got) == probe_fields(want)


def test_probe_lets_a_wrapping_rule_decide_the_root_type():
    """A top-down rule anchored below its replacement root moves the target
    off the root, so the target's result pin no longer binds it: the root's
    pin is held back while it keeps a downward mark, from the tree given
    whole and from the creation's probe alike."""
    e, w = nonterminal("E"), nonterminal("W")
    wrap = RewritingRule(
        (e, Annotation.D),
        RuleTree(w, Annotation.NONE, False, (RuleTree(e, Annotation.NONE, True),)),
        key="wrap",
        schema=((0, TypeAtom("Int")), (1, TypeAtom("Str"))),
    )
    make_root = RewritingRule(None, RuleTree(e, Annotation.D), key="make-root:E")
    rs = RuleSet([wrap, make_root])
    ast = apply_rule(AnnotatedAst.empty(), None, make_root)
    step = SearchStep(rs, context({}, "Int"))
    got = feasible_rules(whole_tree_state(ast, step), step, policy_leftmost)
    want = reference_feasible_rules(ast, step, policy_leftmost)
    assert probe_fields(got) == probe_fields(want)
    assert [p.rule.key for p in got.kept] == ["wrap"]
    (created,) = feasible_rules(None, step, policy_leftmost).kept
    assert probe_fields(feasible_rules(created, step, policy_leftmost)) == probe_fields(
        want
    )


def test_a_downward_root_lends_its_result_pin_to_its_class():
    """A root that keeps a downward mark holds its result pin back from the
    classes, and a step at another node of the root's class reads the pin
    all the same: from the probes and from the tree given whole, the
    step keeps and prunes what the whole-tree solve does, and pins that
    clash with the held-back pin prune every candidate."""
    x, a, b = nonterminal("X"), terminal("a"), terminal("b")
    make = RewritingRule(None, RuleTree(x, Annotation.UD), key="make-mid:X")
    # grows the root upward into a root that keeps a downward mark, with a
    # marked child of its own type
    grow = RewritingRule(
        (x, Annotation.U),
        RuleTree(x, Annotation.NONE, True,
                 (RuleTree(a), RuleTree(x, Annotation.D))),
        key="grow",
        schema=((0, TypeAtom("t")), (2, TypeAtom("t"))),
    )
    leaves = [
        RewritingRule(
            (x, Annotation.D), RuleTree(x, Annotation.NONE, True, (RuleTree(b),)),
            key=f"b:{name}", schema=((0, TypeAtom(name)),),
        )
        for name in ("Int", "Str")
    ]
    rs = RuleSet([make, grow, *leaves])

    def last_marked(ast):
        nid = ast.open[-1]
        up = ast.nodes[nid].annotation.needs_up
        return nid, Annotation.U if up else Annotation.D

    for size_limit in (None, 9):
        step = SearchStep(rs, context({}, "Int"), size_limit)
        state, pins = None, ()
        for _ in range(2):
            (state,) = feasible_rules(state, step, last_marked).kept
            pins += probe_pins(state)
        ast = state.ast
        assert ast.nodes[ast.root].annotation is Annotation.D
        want = reference_feasible_rules(ast, step, last_marked, pins)
        assert [p.rule.key for p in want.kept] == ["b:Int"]
        assert probe_fields(feasible_rules(state, step, last_marked)) == probe_fields(want)
        whole = whole_tree_state(ast, step, pins)
        assert probe_fields(feasible_rules(whole, step, last_marked)) == probe_fields(want)
        clash = pins + (eq_const(ast.root, "Str"),)
        got = feasible_rules(whole_tree_state(ast, step, clash), step, last_marked)
        assert probe_fields(got) == probe_fields(
            reference_feasible_rules(ast, step, last_marked, clash)
        )
        assert (got.kept, got.constraint_pruned) == ((), 2)


_TYPES = ("Int", "Str", "Bool")


def _walk_against_the_reference(step, policy, states):
    """Step from each probe of a breadth-first walk of at most ``states``
    states, reading the size bound and classes it carries, and check the
    step against the reference prober, which splices every candidate and
    solves the whole system of its tree from the threaded pins: the same
    kept probes, with the reference's trees, ids, schema, sizes and
    classes, and the same prune counts.  The tree given whole with its pins
    (``whole_tree_state``) steps the same.  Returns the number of probes kept."""
    queue = deque([(None, ())])
    kept = 0
    for _ in range(states):
        if not queue:
            break
        state, pins = queue.popleft()
        ast = AnnotatedAst.empty() if state is None else state.ast
        if not ast.is_empty and is_complete(ast):
            continue
        got = feasible_rules(state, step, policy)
        want = probe_fields(reference_feasible_rules(ast, step, policy, pins))
        where = to_sexpr(ast)
        assert probe_fields(got) == want, where
        whole = whole_tree_state(ast, step, pins)
        assert probe_fields(feasible_rules(whole, step, policy)) == want, where
        if step.bounds is not None:
            for probe in got.kept:
                assert probe.size == step.bounds.tree_size(probe.ast), where
        kept += len(got.kept)
        queue.extend((p, pins + probe_pins(p)) for p in got.kept)
    return kept


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
    st.sets(st.sampled_from(list(CreationMode)), min_size=1),
    st.sampled_from([None, 5, 7, 9]),
    st.booleans(),
    st.data(),
)
def test_step_matches_reference_prober_on_typed_grammars(
    seed, typed_leaves, upward, modes, size_limit, hashed, data
):
    """The step over the facts its probes carry keeps, prunes and splices
    exactly what splicing every candidate and solving its whole system
    does, at every state of a breadth-first walk, and each kept probe
    carries the size bound and classes of the whole-tree solve.  Top-down
    rules, or rules in both directions, with every set of creation modes:
    middle creations bring marks that keep a direction after a step."""
    g = random_typed_grammar(seed, typed_leaves=typed_leaves)
    rules = list(derive_top_down_rules(g))
    if upward:
        rules += derive_bottom_up_rules(g)
    rules += derive_creation_rules(g, [m for m in CreationMode if m in modes])
    rs = RuleSet(rules)
    var_types = {
        t.name: data.draw(st.sampled_from(_TYPES))
        for t in g.terminals
        if is_variable_token(t.name) and data.draw(st.booleans())
    }
    result_type = data.draw(st.sampled_from((None,) + _TYPES))
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    step = SearchStep(rs, context(var_types, result_type), size_limit)
    _walk_against_the_reference(step, policy, 150)


def test_step_matches_reference_prober_on_corpus_contexts(corpus_records):
    """The same check on the condition rule sets of corpus contexts at the
    evaluation size limit, where every tree grows up from a variable."""
    records = corpus_records[:30]
    templates = mine_templates(corpus_records)
    kept = 0
    for record in records:
        rs = build_cond_ruleset(templates, record.context)
        step = SearchStep(rs, record.context, 30)
        kept += _walk_against_the_reference(step, policy_leftmost, 40)
    assert kept > len(records)


@contextlib.contextmanager
def counted_probe_splices():
    """The splices probes make in the block, one entry each."""
    spliced = []
    apply = constraints.apply_rule_with_ids
    constraints.apply_rule_with_ids = lambda *args: spliced.append(args[2].key) or apply(
        *args
    )
    try:
        yield spliced
    finally:
        constraints.apply_rule_with_ids = apply


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["top-down", "full"]),
    st.sampled_from([None, 7]),
    st.data(),
)
def test_probes_splice_when_first_read(seed, rules, size_limit, data):
    """A step splices none of the candidates it keeps.  Each kept probe
    splices once, the first time its tree, ids or classes are read, and the lazy outcome equals the reference prober's eagerly
    spliced one.  The walk steps from the probes themselves."""
    g = random_typed_grammar(seed, typed_leaves=True)
    rs = top_down_set(g) if rules == "top-down" else full_set(g)
    var_types = {
        t.name: data.draw(st.sampled_from(_TYPES))
        for t in g.terminals
        if is_variable_token(t.name) and data.draw(st.booleans())
    }
    result_type = data.draw(st.sampled_from((None,) + _TYPES))
    step = SearchStep(rs, context(var_types, result_type), size_limit)
    queue = deque([(None, ())])
    for _ in range(60):
        if not queue:
            break
        state, pins = queue.popleft()
        ast = AnnotatedAst.empty() if state is None else state.ast
        if not ast.is_empty and is_complete(ast):
            continue
        with counted_probe_splices() as spliced:
            got = feasible_rules(state, step, policy_leftmost)
            want = reference_feasible_rules(ast, step, policy_leftmost, pins)
            assert spliced == []
            assert probe_fields(got) == probe_fields(want), to_sexpr(ast)
            assert spliced == [p.rule.key for p in got.kept]
            queue.extend((p, pins + probe_pins(p)) for p in got.kept)
            assert len(spliced) == len(got.kept)


def _marks_met(rule):
    """Every (mark, rootedness) a search can probe ``rule`` at."""
    if rule.pattern is None:
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
    type-checks, and over sets that hold the rules in other orders (and,
    when sizes are unbounded, only some of them): each signature it hands
    out, and each group's offers (rules, ids and signatures), are those of
    a step over the same rules in a set with no shared table, which
    compiles its own."""
    g = random_typed_grammar(seed, typed_leaves=True)
    rs = top_down_set(g) if rules == "top-down" else full_set(g)
    table = SignatureTable(compute_size_bounds(rs))
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
        # two sets per context, so that groups of one context are met in
        # two orders
        for _ in range(2):
            order = data.draw(st.permutations(rs.rules))
            if size_limit is None:
                # the table's bounds are those of the whole set, so only an
                # unbounded step may serve a set of some of its rules
                order = [r for r in order if data.draw(st.booleans())] or order[:1]
            shared = RuleSet(order, shared=table)
            step = SearchStep(shared, ctx, size_limit)
            assert step.bounds is (table.bounds if size_limit is not None else None)
            fresh = SearchStep(RuleSet(order), ctx, size_limit)
            for group, members in shared.groups.items():
                for mark, at_root in _marks_met(members[0]):
                    where = (group, mark, at_root, ctx)
                    want = fresh.offers(group, mark, at_root)
                    assert step.offers(group, mark, at_root) == want, where
            for rule in shared:
                for mark, at_root in _marks_met(rule):
                    sig = step.table.signatures((rule,), mark, at_root, step)
                    assert sig == fresh.table.signatures(
                        (rule,), mark, at_root, fresh
                    ), (rule.key, mark, at_root, ctx)


def test_shared_table_keys_every_declared_leaf():
    """A rule with two identifier leaves gets a signature of its own when
    only the second leaf's declared type changes."""
    rs = derive_top_down_rules(load_grammar('E -> "x":a "==" "y":a :: Boolean\n'))
    shared = RuleSet(rs.rules, shared=SignatureTable(None))
    for y_type, ok in (("Int", True), ("Str", False), ("Int", True)):
        step = SearchStep(shared, context({"x": "Int", "y": y_type}, None))
        sig = step.table.signatures((shared[0],), Annotation.D, True, step)[0]
        assert sig.fresh_ok is ok


def test_step_refuses_a_rule_that_only_shares_a_key():
    """A table's signatures and a probe's id belong to the searched set's
    own rule under a key: no set holds a rule with that key and another
    schema beside it, and a step offers only the rules its set holds, so
    the set's own rule under that key is probed as ever, at its place."""
    rs = full_rules(DEMO)
    table = SignatureTable(compute_size_bounds(rs))
    shared = RuleSet(rs.rules, shared=table)
    rule = shared.by_key('td:E->E "> 12"')
    retyped = dataclasses.replace(rule, schema=((0, TypeAtom("Str")),))
    with pytest.raises(RuleError, match="duplicate"):
        RuleSet([*shared, retyped], shared=table)
    step = SearchStep(shared)
    root = apply_rule(AnnotatedAst.empty(), None, shared.by_key("make-root:E"))
    out = probe_rules(whole_tree_state(root, step), root.root, rule.pattern, step)
    assert all(probe.rule is shared[probe.id] for probe in out.kept)
    (probe,) = [p for p in out.kept if p.rule.key == rule.key]
    assert probe.rule is rule and probe.id == shared.rules.index(rule)


def test_step_takes_the_shared_tables_bounds():
    rs = full_rules(DEMO)
    table = SignatureTable(compute_size_bounds(rs))
    step = SearchStep(RuleSet(rs.rules, shared=table), None, 5)
    assert step.bounds is table.bounds
    assert SearchStep(rs, None, None).bounds is None
