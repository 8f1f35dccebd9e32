"""Beam search, exhaustive search, and whole-tree scoring."""

from math import exp, inf, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramgen import random_rule_weights, random_typed_grammar, top_down_set
from progest.errors import SearchOverflowError
from progest.features import Context
from progest.grammar import (
    CreationMode,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
)
from progest.models import TableModel, UniformModel
from progest.search import (
    AntiPattern,
    anti_pattern_check,
    beam_search,
    exhaustive_search,
    program_log_probability,
)
from progest.trees import AnnotatedAst, apply_rule, policy_leftmost
from tests_support import make_hash_policy


def test_worked_example_wide_beam(worked_example):
    res = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(2,), k=2, size_limit=9, anti_patterns=(),
    )
    assert [c.rendered for c in res.candidates] == ["hours > 12", "value > 0"]
    assert res.candidates[0].prob == pytest.approx(0.24, abs=1e-12)
    assert res.candidates[1].prob == pytest.approx(0.12, abs=1e-12)


def test_worked_example_narrow_beam_flips_the_winner(worked_example):
    res = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(1,), k=2, size_limit=9, anti_patterns=(),
    )
    # the greedy first step locks in the likelier root and loses the
    # globally best finish
    assert res.candidates[0].rendered == "value > 0"
    assert res.candidates[0].prob == pytest.approx(0.12, abs=1e-12)


def test_zero_probability_rules_are_pruned(worked_example):
    res = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(50,), k=50, size_limit=9, anti_patterns=(),
    )
    # the stub table scores addition steps zero, so nothing with + survives
    assert all("+" not in c.rendered for c in res.candidates)
    assert res.stats.zero_prob_pruned > 0


def test_beam_widths_repeat_last_entry(worked_example):
    # rounds count from the creation step; the last width repeats forever
    loose_then_tight = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(2, 1), k=2, size_limit=9, anti_patterns=(),
    )
    assert loose_then_tight.candidates[0].rendered == "value > 0"
    tight_then_loose = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(1, 2), k=2, size_limit=9, anti_patterns=(),
    )
    assert tight_then_loose.candidates[0].rendered == "hours > 12"


def test_search_is_deterministic(worked_example):
    kwargs = dict(widths=(3,), k=5, size_limit=9, anti_patterns=())
    a = beam_search(worked_example.rules, None, worked_example.model, **kwargs)
    b = beam_search(worked_example.rules, None, worked_example.model, **kwargs)
    assert [(c.rendered, c.log_prob) for c in a.candidates] == [
        (c.rendered, c.log_prob) for c in b.candidates
    ]


def test_anti_patterns_screen_results():
    g = load_grammar('E -> "owner" "!= null" | "count" "> 0"\n')
    rs = derive_top_down_rules(g).merged(derive_creation_rules(g, [CreationMode.ROOT]))
    screen = AntiPattern("bare-null-check", r"!= null$")
    res = beam_search(rs, None, UniformModel(), widths=(4,), k=4,
                      anti_patterns=(screen,))
    assert [c.rendered for c in res.candidates] == ["count > 0"]
    assert res.stats.anti_pattern_pruned == 1


def test_anti_pattern_check():
    screen = AntiPattern("x", r"^value != null$")
    assert anti_pattern_check("value != null && done", (screen,))
    assert not anti_pattern_check("value != null", (screen,))
    assert anti_pattern_check("anything", ())


def test_invalid_widths_rejected(worked_example):
    with pytest.raises(ValueError):
        beam_search(worked_example.rules, None, worked_example.model, widths=())
    with pytest.raises(ValueError):
        beam_search(worked_example.rules, None, worked_example.model, widths=(0,))


def test_step_cap_reported_not_raised(worked_example):
    res = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(2,), k=2, size_limit=9, anti_patterns=(), step_cap=2,
    )
    assert res.stats.step_cap_hit


def test_exhaustive_matches_wide_beam(worked_example):
    wide = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(10_000,), k=100, size_limit=9, anti_patterns=(),
    )
    full = exhaustive_search(
        worked_example.rules, None, size_limit=9, model=worked_example.model,
    )
    assert [(c.rendered, c.log_prob) for c in wide.candidates] == [
        (c.rendered, c.log_prob) for c in full.candidates[:100]
    ]


def test_exhaustive_without_model_scores_zero():
    g = load_grammar('E -> "a" | "b"\n')
    rs = derive_top_down_rules(g).merged(derive_creation_rules(g, [CreationMode.ROOT]))
    res = exhaustive_search(rs, None)
    assert sorted(c.rendered for c in res.candidates) == ["a", "b"]
    assert all(c.log_prob == 0.0 for c in res.candidates)


def test_exhaustive_overflow():
    g = load_grammar('E -> "x" | E "+" E\n')
    rs = derive_top_down_rules(g).merged(derive_creation_rules(g, [CreationMode.ROOT]))
    with pytest.raises(SearchOverflowError):
        exhaustive_search(rs, None, size_limit=60, state_cap=200)


def test_program_log_probability_worked_example(worked_example):
    rules, model = worked_example.rules, worked_example.model
    res = beam_search(rules, None, model, widths=(2,), k=2, size_limit=9,
                      anti_patterns=())
    best = res.candidates[0]
    lp = program_log_probability(best.ast, rules, model, size_limit=9)
    assert lp == pytest.approx(log(0.24), abs=1e-12)
    assert exp(program_log_probability(best.ast, rules, model, size_limit=9)) == (
        pytest.approx(0.24, abs=1e-12)
    )


def test_program_probability_zero_when_pruned(worked_example):
    rules, model = worked_example.rules, worked_example.model
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))
    ast = apply_rule(ast, ast.root, rules.by_key('td:E->E "+" E'))
    for _ in range(2):
        node, _dir = policy_leftmost(ast)
        ast = apply_rule(ast, node, rules.by_key('td:E->"hours"'))
    assert program_log_probability(ast, rules, model, size_limit=9) == -inf
    assert exp(program_log_probability(ast, rules, model, size_limit=9)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2), st.booleans(), st.booleans())
def test_scorer_matches_exhaustive_search_on_typed_grammars(
    seed, pick, hashed, uniform
):
    """Every tree the typed search outputs is scored with the search's own
    log probability: the scorer replays the same steps.  The uniform model
    scores 1/k per step, so it also checks that each replayed step offers
    the candidates the search's step offered."""
    g = random_typed_grammar(seed)
    rs = top_down_set(g)
    types = sorted(
        {
            p.result_atom.name
            for p in g.productions
            if p.result_atom is not None and not p.result_atom.is_schema_var
        }
    )
    ctx = Context.simple({}, result_type=types[pick % len(types)])
    model = UniformModel() if uniform else TableModel(random_rule_weights(rs, seed))
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    found = exhaustive_search(rs, ctx, policy=policy, size_limit=7, model=model)
    assert found.candidates
    for cand in found.candidates:
        score = program_log_probability(
            cand.ast, rs, model, ctx, policy=policy, size_limit=7
        )
        assert score == pytest.approx(cand.log_prob, abs=1e-9), cand.rendered


def test_hash_policy_is_stable_and_complete(worked_example):
    rules = worked_example.rules
    policy = make_hash_policy(4)
    ast = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))
    ast = apply_rule(ast, ast.root, rules.by_key('td:E->E "+" E'))
    first = policy(ast)
    assert policy(ast) == first
    assert first[1].value in ("U", "D")
    # different seeds may disagree, same seed never does
    again = make_hash_policy(4)(ast)
    assert again == first


def test_hash_policy_still_finishes_builds(worked_example):
    rules, model = worked_example.rules, worked_example.model
    res = beam_search(
        rules, None, model, policy=make_hash_policy(9),
        widths=(2,), k=2, size_limit=9, anti_patterns=(),
    )
    assert res.candidates[0].rendered == "hours > 12"
    assert res.candidates[0].prob == pytest.approx(0.24, abs=1e-12)
