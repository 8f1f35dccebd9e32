"""Beam search, exhaustive search, and whole-tree scoring."""

import functools
import random
from collections import Counter
from dataclasses import asdict, replace
from math import exp, inf, log, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramgen import (
    full_set,
    random_dag_grammar,
    random_recursive_grammar,
    random_rule_weights,
    random_typed_grammar,
    top_down_set,
)
from progest import condsynth, constraints, search, trees
from progest.ambiguity import check_unambiguous
from progest.condsynth import (
    build_cond_ruleset,
    record_tree,
    synthesize_condition,
    train_cond_models,
)
from progest.constraints import SearchStep, SignatureTable, probe_rules
from progest.errors import ApplyError, SearchOverflowError
from progest.features import Context
from progest.grammar import (
    Annotation,
    CreationMode,
    RewritingRule,
    RuleSet,
    RuleTree,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from progest.models import (
    TableModel,
    UniformModel,
    feasible_derivation,
    program_log_probability,
)
from progest.search import (
    AntiPattern,
    SearchStats,
    anti_pattern_check,
    beam_search,
    exhaustive_search,
    finished_builds,
)
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    policy_leftmost,
    to_sexpr,
)
from tests_support import (
    criterion_06_rule_sets,
    make_hash_policy,
    reference_beam_search,
    reference_exhaustive_search,
    whole_tree_state,
)


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
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )
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


@pytest.mark.parametrize(
    "bad",
    [
        {"k": -1},
        {"k": 2.5},
        {"k": True},
        {"widths": (2.5,)},
        {"widths": (True,)},
        {"widths": (5, 2.5)},
        {"widths": (-inf,)},
    ],
    ids=repr,
)
def test_bad_k_and_widths_are_refused_up_front(worked_example, bad):
    """``k`` is an int of at least 0 and a width an int of at least 1 or
    ``math.inf``; anything else is refused before any search, not cut
    short or failed on once a round truncates."""
    uniform = UniformModel()
    kwargs = dict(widths=(5, 200), k=10, size_limit=9, anti_patterns=())
    with pytest.raises(ValueError):
        beam_search(worked_example.rules, None, uniform, **{**kwargs, **bad})


@pytest.mark.parametrize(
    "bad", [-1, 2.5, nan, -inf, True, False, "5", None], ids=repr
)
def test_bad_step_cap_is_refused_up_front(worked_example, bad):
    """``step_cap`` is an int of at least 0 or ``math.inf``: ``nan`` does
    not lift the cap, a string does not fail mid-search, and a bool is not
    a count."""
    uniform = UniformModel()
    kwargs = dict(widths=(5, 200), k=10, size_limit=9, anti_patterns=())
    with pytest.raises(ValueError):
        beam_search(worked_example.rules, None, uniform, step_cap=bad, **kwargs)
    with pytest.raises(ValueError):
        exhaustive_search(worked_example.rules, None, size_limit=9, step_cap=bad)


@pytest.mark.parametrize("cap", [0, 1, 100_000, inf], ids=repr)
def test_edge_step_caps_are_accepted(worked_example, cap):
    """A cap stops the search after that many expansions, and only a cap
    below what the search needs is hit."""
    kwargs = dict(widths=(5, 200), k=10, size_limit=9, anti_patterns=())
    uncapped = beam_search(worked_example.rules, None, UniformModel(),
                           step_cap=inf, **kwargs).stats.expansions
    res = beam_search(worked_example.rules, None, UniformModel(), step_cap=cap,
                      **kwargs)
    assert res.stats.expansions == min(cap, uncapped)
    assert res.stats.step_cap_hit == (cap < uncapped)


def test_edge_k_and_widths_are_accepted(worked_example):
    uniform = UniformModel()
    kwargs = dict(size_limit=9, anti_patterns=())
    every = beam_search(worked_example.rules, None, uniform, widths=(inf,),
                        k=1_000, **kwargs)
    assert len(every.candidates) > 1
    none = beam_search(worked_example.rules, None, uniform, widths=(inf,), k=0,
                       **kwargs)
    assert none.candidates == []
    one = beam_search(worked_example.rules, None, uniform, widths=(1, inf), k=1,
                      **kwargs)
    assert len(one.candidates) == 1


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
    full = reference_exhaustive_search(
        worked_example.rules, None, size_limit=9, model=worked_example.model,
    )
    assert [(c.rendered, c.log_prob) for c in wide.candidates] == [
        (c.rendered, c.log_prob) for c in full.candidates[:100]
    ]


def test_exhaustive_without_model_scores_zero():
    g = load_grammar('E -> "a" | "b"\n')
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )
    res = exhaustive_search(rs, None)
    assert sorted(c.rendered for c in res.candidates) == ["a", "b"]
    assert all(c.log_prob == 0.0 for c in res.candidates)


def test_exhaustive_overflow():
    g = load_grammar('E -> "x" | E "+" E\n')
    rs = RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )
    with pytest.raises(SearchOverflowError):
        exhaustive_search(rs, None, size_limit=60, step_cap=200)


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


def _result_context(g, pick):
    """A bare context asking for one of the concrete result types of ``g``."""
    types = sorted(
        {
            p.result_atom.name
            for p in g.productions
            if p.result_atom is not None and not p.result_atom.is_schema_var
        }
    )
    return Context.simple({}, result_type=types[pick % len(types)])


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
    ctx = _result_context(g, pick)
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


def _result_fields(result):
    """What a search hands back, compared by value: each candidate's tree,
    rendering, exact log probability and build, and every count."""
    return (
        [
            (to_sexpr(c.ast), c.rendered, c.log_prob, c.applications)
            for c in result.candidates
        ],
        result.stats,
    )


def _search_case(family, seed, full, hashed, model_kind):
    """A seeded rule set, context, policy and model from one of the
    ``gramgen`` families.  The table model zeroes about a fifth of its
    entries, so that zero-probability pruning shows up in the counts."""
    if family == "typed":
        g = random_typed_grammar(seed)
        ctx = _result_context(g, seed)
    elif family == "recursive":
        g, ctx = random_recursive_grammar(seed), None
    else:
        g, ctx = random_dag_grammar(seed), None
    rs = full_set(g) if full else top_down_set(g)
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    if model_kind == "table":
        rng = random.Random(seed)
        weights = random_rule_weights(rs, seed)
        model = TableModel({k: w for k, w in weights.items() if rng.random() > 0.2})
    elif model_kind == "uniform":
        model = UniformModel()
    else:
        model = None
    return rs, ctx, policy, model


# a single token is screened out, so the anti-pattern count is exercised too
_ONE_TOKEN = (AntiPattern("one-token", r"^\S+$"),)
_FAMILIES = st.sampled_from(["dag", "recursive", "typed"])


@settings(max_examples=100, deadline=None)
@given(
    _FAMILIES,
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["none", "uniform", "table"]),
    st.integers(5, 8),
)
def test_exhaustive_search_equals_the_depth_first_reference(
    family, seed, full, hashed, model_kind, size_limit
):
    """The beam at unbounded width finds what the depth-first walk finds,
    with the same log probabilities, builds and counts."""
    rs, ctx, policy, model = _search_case(family, seed, full, hashed, model_kind)
    kwargs = dict(policy=policy, size_limit=size_limit, model=model,
                  anti_patterns=_ONE_TOKEN)
    ours = exhaustive_search(rs, ctx, **kwargs)
    ref = reference_exhaustive_search(rs, ctx, **kwargs)
    assert _result_fields(ours) == _result_fields(ref)


@settings(max_examples=100, deadline=None)
@given(
    _FAMILIES,
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["uniform", "table"]),
    st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 1), (5, 200)]),
)
def test_beam_equals_the_always_sorting_reference(
    family, seed, full, hashed, model_kind, widths
):
    """Sorting only to truncate keeps the states and the ranking that sorting
    every round keeps.  The uniform model ties every step, so its cuts fall
    to the ``to_sexpr`` and rule-id tie-breaks."""
    rs, ctx, policy, model = _search_case(family, seed, full, hashed, model_kind)
    kwargs = dict(policy=policy, widths=widths, k=10, size_limit=7,
                  anti_patterns=_ONE_TOKEN)
    ours = beam_search(rs, ctx, model, **kwargs)
    ref = reference_beam_search(rs, ctx, model, **kwargs)
    assert not ref.stats.step_cap_hit
    assert _result_fields(ours) == _result_fields(ref)


@pytest.fixture(scope="module")
def corpus_models(corpus_records):
    return [
        train_cond_models(corpus_records, model_kind=kind)
        for kind in ("frequency", "logistic")
    ]


def test_beam_equals_the_reference_on_corpus_contexts(
    corpus_records, corpus_models, monkeypatch
):
    """The real workload: both trained models rank the first 40 corpus
    contexts at the evaluation settings as the always-sorting beam does."""
    for trained in corpus_models:
        for record in corpus_records[:40]:
            def predict():
                return synthesize_condition(
                    record.context, trained.templates, trained.model,
                    k=50, widths=(5, 200), size_limit=30,
                )

            ours = predict()
            with monkeypatch.context() as patch:
                patch.setattr(condsynth, "beam_search", reference_beam_search)
                ref = predict()
            assert _result_fields(ours) == _result_fields(ref), record.id


def test_search_counts_are_pinned(demo_grammar, corpus_records, corpus_models):
    """What the search does, counted: a speedup of the splice or the step
    must not come from searching less.  The certifier's search over the two
    sets of criterion 06 at the benchmark's bound of 13 nodes, run as
    ``check_unambiguous`` runs it, and three corpus-context predicts at the
    evaluation settings, each with the counts the search made before
    splices were compiled."""
    want = {
        "topdown": ((466, 1115), (746, 746, 0)),
        "both": ((294, 677), (746, 373, 373)),
    }
    for name, rs in zip(want, criterion_06_rule_sets(demo_grammar)):
        untyped = RuleSet([replace(r, schema=()) for r in rs])
        _, stats = finished_builds(
            untyped, None, None, widths=(inf,), size_limit=13, step_cap=inf
        )
        report = check_unambiguous(rs, demo_grammar, max_nodes=13)
        assert report.unambiguous
        got = (
            (stats.expansions, stats.size_pruned),
            (report.trees_checked, report.derivations_checked,
             report.underivable_trees),
        )
        assert got == want[name], name

    frequency = corpus_models[0]
    pinned = {
        "r0000": (6, 211, 2, 19),
        "r0001": (12, 243, 2, 23),
        "r0002": (15, 170, 0, 44),
    }
    for record in corpus_records[:3]:
        result = synthesize_condition(
            record.context, frequency.templates, frequency.model,
            k=50, widths=(5, 200), size_limit=30,
        )
        stats = result.stats
        assert asdict(stats) == {
            **asdict(SearchStats()),
            "expansions": pinned[record.id][0],
            "constraint_pruned": pinned[record.id][1],
            "beam_truncated": pinned[record.id][2],
        }, record.id
        assert len(result.candidates) == pinned[record.id][3], record.id


def test_each_step_checks_its_group_once(
    demo_grammar, corpus_records, corpus_models, monkeypatch
):
    """The step is the one gate.  Over the certifier's searches of the two
    criterion 06 sets and the three pinned corpus predicts, a group's
    pattern is checked once per ``probe_rules`` call and never inside a
    splice, and a rule group is looked up only when the step's offers miss
    their memo."""
    counts: Counter = Counter()
    inside: Counter = Counter()
    check, splice = trees.check_applicable, constraints.apply_rule_with_ids
    probe, offers, group = constraints.probe_rules, SearchStep.offers, RuleSet.group

    def counted_check(*args):
        assert not inside["splice"]
        counts["check"] += 1
        return check(*args)

    def counted_splice(*args):
        counts["splice"] += 1
        inside["splice"] += 1
        try:
            return splice(*args)
        finally:
            inside["splice"] -= 1

    def counted_probe(*args):
        counts["probe"] += 1
        return probe(*args)

    def counted_offers(step, *key):
        missed = key not in step._offers
        counts["miss"] += missed
        inside["miss"] += missed
        try:
            return offers(step, *key)
        finally:
            inside["miss"] -= missed

    def counted_group(rs, pattern):
        assert inside["miss"]
        counts["group"] += 1
        return group(rs, pattern)

    for module in (trees, constraints):
        monkeypatch.setattr(module, "check_applicable", counted_check)
    monkeypatch.setattr(constraints, "apply_rule_with_ids", counted_splice)
    monkeypatch.setattr(constraints, "probe_rules", counted_probe)
    monkeypatch.setattr(SearchStep, "offers", counted_offers)
    monkeypatch.setattr(RuleSet, "group", counted_group)
    for rs in criterion_06_rule_sets(demo_grammar):
        assert check_unambiguous(rs, demo_grammar, max_nodes=13).unambiguous
    frequency = corpus_models[0]
    for record in corpus_records[:3]:
        assert synthesize_condition(
            record.context, frequency.templates, frequency.model,
            k=50, widths=(5, 200), size_limit=30,
        ).candidates
    assert counts["probe"] and counts["splice"] and counts["miss"]
    assert counts["check"] == counts["probe"]
    assert counts["group"] == counts["miss"]


def test_each_offer_is_resolved_once_per_search(
    corpus_records, corpus_models, monkeypatch
):
    """From a fresh template layer, over corpus predicts at the evaluation
    settings: each signature key compiles at most once over all the
    predicts together, and in each search every rule's signature is looked
    up at most once per (mark, rootedness), however many states probe it."""
    monkeypatch.setattr(
        condsynth, "template_layer",
        functools.lru_cache(maxsize=4)(condsynth.TemplateLayer),
    )
    compile_ = constraints._compile
    signatures = SignatureTable.signatures
    compiled: Counter = Counter()
    looked_up: Counter = Counter()

    def counted_compile(rule, mark, at_root, step):
        declared = tuple(
            step.var_types.get(name) for _, name in constraints._declared_leaves(rule)
        )
        compiled[
            step.table, rule.key, mark, at_root, step.result_type,
            step.bounds is not None, declared,
        ] += 1
        return compile_(rule, mark, at_root, step)

    def counted_signatures(self, rules, mark, at_root, step):
        looked_up.update((rule.key, mark, at_root) for rule in rules)
        return signatures(self, rules, mark, at_root, step)

    monkeypatch.setattr(constraints, "_compile", counted_compile)
    monkeypatch.setattr(SignatureTable, "signatures", counted_signatures)
    frequency = corpus_models[0]
    for record in corpus_records[:10]:
        looked_up.clear()
        result = synthesize_condition(
            record.context, frequency.templates, frequency.model,
            k=50, widths=(5, 200), size_limit=30,
        )
        stats = result.stats
        assert stats.expansions > 1 and looked_up, record.id
        assert max(looked_up.values()) == 1, record.id
        # far fewer lookups than candidates probed
        assert sum(looked_up.values()) < stats.constraint_pruned, record.id
    assert compiled and max(compiled.values()) == 1


def test_classes_are_made_only_for_expanded_states(
    corpus_records, corpus_models, monkeypatch
):
    """A state's type classes are merged when the state is expanded and
    never for a finished tree: over corpus predicts, one merge per expanded
    state past the empty tree, for the probe that made it, in the order the
    states are expanded, and no schema pins are instantiated at all; the
    ranking still equals the always-sorting reference beam's.  The scorer's
    replay of a corpus tree merges the classes of every step's probe but
    the last."""
    merge = constraints.Probe._merge
    feasible = search.feasible_rules
    schema = constraints.constraints_of_application
    merged: list = []
    expanded: list = []
    instantiated: list = []

    def counted_merge(probe):
        merged.append(probe)
        return merge(probe)

    def counted_feasible(state, *args):
        expanded.append(state)
        return feasible(state, *args)

    def counted_schema(rule, ids):
        instantiated.append(rule.key)
        return schema(rule, ids)

    for trained in corpus_models:
        for record in corpus_records[:10]:
            def predict():
                return synthesize_condition(
                    record.context, trained.templates, trained.model,
                    k=50, widths=(5, 200), size_limit=30,
                )

            del merged[:], expanded[:], instantiated[:]
            with monkeypatch.context() as patch:
                patch.setattr(constraints.Probe, "_merge", counted_merge)
                patch.setattr(search, "feasible_rules", counted_feasible)
                patch.setattr(constraints, "constraints_of_application", counted_schema)
                ours = predict()
            assert len(expanded) == ours.stats.expansions, record.id
            assert expanded[0] is None, record.id
            assert [id(p) for p in merged] == [id(p) for p in expanded[1:]], record.id
            assert not any(p.finishes for p in merged), record.id
            assert instantiated == [], record.id
            with monkeypatch.context() as patch:
                patch.setattr(condsynth, "beam_search", reference_beam_search)
                ref = predict()
            assert _result_fields(ours) == _result_fields(ref), record.id

    templates = corpus_models[0].templates
    for record in corpus_records[:10]:
        rs = build_cond_ruleset(templates, record.context)
        del merged[:]
        with monkeypatch.context() as patch:
            patch.setattr(constraints.Probe, "_merge", counted_merge)
            steps = feasible_derivation(
                record_tree(record), rs, policy_leftmost, record.context,
                size_limit=30,
            )
        taken = [step.outcome.kept[step.choice] for step in steps]
        assert [id(p) for p in merged] == [id(p) for p in taken[:-1]], record.id


def test_a_mark_the_node_can_no_longer_take_is_a_dead_end():
    """A rule anchored at its replacement root with block children, applied
    to a root marked both ways, leaves a root marked D that already has
    children.  The policy picks it first; the step keeps nothing there, so
    the search meets a dead end instead of raising.  A splice or a probe of
    a group that does not fit the node still raises."""
    x = nonterminal("X")
    make_mid = RewritingRule(None, RuleTree(x, Annotation.UD), key="make-mid:X")
    grow = RewritingRule(
        (x, Annotation.U),
        RuleTree(x, Annotation.NONE, True,
                 (RuleTree(terminal("a")), RuleTree(x, Annotation.D))),
        key="grow",
    )
    fill = RewritingRule(
        (x, Annotation.D),
        RuleTree(x, Annotation.NONE, True, (RuleTree(terminal("b")),)),
        key="fill",
    )
    rs = RuleSet([make_mid, grow, fill])
    for size_limit in (9, None):
        found = beam_search(rs, None, None, size_limit=size_limit)
        assert found.candidates == [] and found.stats.expansions == 3
        assert exhaustive_search(rs, size_limit=size_limit).candidates == []
    stuck = apply_rule(apply_rule(AnnotatedAst.empty(), None, make_mid), 0, grow)
    assert stuck.open[0] == stuck.root and stuck.nodes[stuck.root].children
    step = SearchStep(rs, None, 9)
    outcome = constraints.feasible_rules(
        whole_tree_state(stuck, step), step, policy_leftmost
    )
    assert outcome.target == stuck.root and outcome.kept == ()
    with pytest.raises(ApplyError, match="already has children"):
        apply_rule(stuck, stuck.root, fill)
    with pytest.raises(ApplyError, match="already has children"):
        probe_rules(whole_tree_state(stuck, step), stuck.root, fill.pattern, step)
