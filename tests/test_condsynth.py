"""Corpus ingestion, template mining, rule compilation, and synthesis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.condsynth import (
    CorpusRecord,
    Template,
    build_cond_grammar,
    build_cond_ruleset,
    certification_bound,
    evaluate_topk,
    load_corpus,
    mine_templates,
    record_tree,
    render_condition,
    synthesize_condition,
    template_key,
    template_layer,
    template_of,
    train_cond_models,
)
from progest.constraints import SearchStep, compute_size_bounds
from progest.ambiguity import check_unambiguous, enumerate_complete_trees
from progest.errors import ContextError
from progest.features import (
    Context,
    VariableInfo,
    context_block_length,
    extract_features,
    variable_block_length,
)
from progest.grammar import Annotation, RuleKind, derive_top_down_rules
from progest.models import UniformModel, feasible_derivation
from progest.search import beam_search
from progest.trees import AnnotatedAst, apply_rule, policy_leftmost, to_sexpr
from tests_support import (
    reference_build_cond_ruleset,
    reference_features,
    reference_prober,
)


def ctx_dict(types):
    return Context.simple(types).to_dict()


def write_corpus(tmp_path, rows):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def test_load_corpus_basic(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            {"id": "r1", "condition": "count > 0",
             "context": ctx_dict({"count": "Int"})},
        ],
    )
    records = load_corpus(path)
    assert len(records) == 1
    assert records[0].id == "r1"
    assert records[0].condition == "count > 0"
    assert records[0].context.variable_types == {"count": "Int"}


def test_load_corpus_splits_connectives(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            {"id": "r1", "condition": "count > 0 && done",
             "context": ctx_dict({"count": "Int", "done": "Boolean"})},
        ],
    )
    records = load_corpus(path)
    assert [(r.id, r.condition) for r in records] == [
        ("r1#1", "count > 0"),
        ("r1#2", "done"),
    ]


def test_load_corpus_rejects_bad_json(tmp_path):
    good = json.dumps(
        {"id": "a", "condition": "count > 0", "context": ctx_dict({"count": "Int"})}
    )
    path = tmp_path / "broken.jsonl"
    path.write_text(good + "\nnot json at all\n")
    with pytest.raises(ContextError, match="line 2"):
        load_corpus(str(path))


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    row = {"id": "same", "condition": "count > 0",
           "context": ctx_dict({"count": "Int"})}
    path = write_corpus(tmp_path, [row, row])
    with pytest.raises(ContextError, match="duplicate id"):
        load_corpus(path)


def test_load_corpus_rejects_undeclared_variable(tmp_path):
    path = write_corpus(
        tmp_path,
        [{"id": "r1", "condition": "missing > 0",
          "context": ctx_dict({"count": "Int"})}],
    )
    with pytest.raises(ContextError, match="missing"):
        load_corpus(path)


def test_load_corpus_rejects_non_boolean(tmp_path):
    path = write_corpus(
        tmp_path,
        [{"id": "r1", "condition": "count + 1",
          "context": ctx_dict({"count": "Int"})}],
    )
    with pytest.raises(ContextError, match="not Boolean"):
        load_corpus(path)


def test_load_corpus_rejects_missing_fields(tmp_path):
    path = tmp_path / "short.jsonl"
    path.write_text('{"id": "a", "condition": "x > 0"}\n')
    with pytest.raises(ContextError, match="bad record"):
        load_corpus(str(path))


def make_records():
    ints = Context.simple({"count": "Int", "total": "Int"})
    flags = Context.simple({"done": "Boolean"})
    rows = [
        ("a", "count > 0", ints),
        ("b", "total > 0", ints),
        ("c", "count > total", ints),
        ("d", "done", flags),
        ("e", "count > 0", ints),
    ]
    return [CorpusRecord(i, c, ctx) for i, c, ctx in rows]


def test_template_of_abstracts_variables():
    t = template_of(make_records()[0])
    assert t.tokens == ("V1", ">", "0")
    assert t.placeholder_types == ("Int",)
    assert t.key == template_key(t.tokens, t.placeholder_types)
    assert t.arity == 1
    two = template_of(make_records()[2])
    assert two.tokens == ("V1", ">", "V2")
    assert two.arity == 2


def test_mine_templates_orders_by_frequency():
    templates = mine_templates(make_records())
    assert [t.tokens for t in templates] == [
        ("V1", ">", "0"),   # three uses
        ("V1", ">", "V2"),  # ties order by key text
        ("V1",),
    ]
    assert [t.count for t in templates] == [3, 1, 1]


def test_record_tree_shape():
    tree = record_tree(make_records()[2])
    assert to_sexpr(tree) == '(E (V1 "count") ">" (V2 "total"))'
    assert render_condition(tree) == "count > total"


def test_build_ruleset_key_families():
    records = make_records()
    templates = mine_templates(records)
    rs = build_cond_ruleset(templates, records[0].context)
    keys = {r.key for r in rs}
    assert "make-var:count" in keys
    assert "make-var:total" in keys
    assert "expr:V1 > 0::Int" in keys
    assert "expr:V1 > V2::Int,Int" in keys
    assert "var2:count" in keys and "var2:total" in keys
    # the bare-flag template has no slots: creation plus a finish rule
    assert "make-expr:V1::Boolean" not in keys  # V1 is a placeholder, not arity 0
    assert all(not k.startswith("fin") for k in keys) or "fin:E" in keys


def test_variable_free_templates_get_fin_rule():
    ctx = Context.simple({"count": "Int"})
    records = [CorpusRecord("a", "true", ctx)]
    templates = mine_templates(records)
    assert templates[0].arity == 0
    rs = build_cond_ruleset(templates, ctx)
    keys = {r.key for r in rs}
    assert "make-expr:true::" in keys
    assert "fin:E" in keys


def test_build_ruleset_needs_templates():
    with pytest.raises(ContextError):
        build_cond_ruleset([], Context.simple({"a": "Int"}))


def _marks_met(rule):
    """Every (mark, rootedness) a search can probe ``rule`` at."""
    if rule.kind is RuleKind.CREATION:
        return [(None, True)]
    return [(m, r) for m in (rule.pattern[1], Annotation.UD) for r in (True, False)]


# identifier-shaped template tokens of the corpus among the variable names
_NAMES = ("size", "isEmpty", "length", "count", "items", "flag", "total")
_CLOSED = tuple(Template(template_key(toks, ()), toks, ()) for toks in (("done",), ("size",)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_layered_rule_set_matches_the_per_context_reference(corpus_records, data):
    """Built from the shared template layer, a context's rule set equals the
    one built and validated afresh, rule by rule; its size bounds are the
    fresh set's, every shared signature is the one a fresh step compiles,
    and a beam over it finds what a beam over the fresh set finds.
    Contexts reuse the layer of earlier ones, so stale signatures show."""
    mined = mine_templates(corpus_records)
    picked = data.draw(st.lists(st.sampled_from(mined), min_size=1, max_size=8, unique=True))
    closed = data.draw(st.lists(st.sampled_from(_CLOSED), max_size=2, unique=True))
    templates = tuple(data.draw(st.permutations(picked + closed)))
    # the picked templates' slot types, so that some instantiations type-check
    types = sorted({ty for t in picked for ty in t.placeholder_types} | {"Int"})
    for _ in range(data.draw(st.integers(1, 3))):
        names = data.draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True))
        ctx = Context(
            variables=tuple(
                VariableInfo(name, data.draw(st.sampled_from(types))) for name in names
            ),
            result_type=data.draw(st.sampled_from(("Boolean", "Int"))),
        )
        size_limit = data.draw(st.sampled_from((None, 4, 30)))
        got = build_cond_ruleset(templates, ctx)
        want = reference_build_cond_ruleset(templates, ctx)

        def fields(rs):
            return [(r.id, r.key, r.kind, r.pattern, r.replacement, r.schema) for r in rs]

        assert fields(got) == fields(want)
        assert got.groups == want.groups
        step = SearchStep.of(got, ctx, size_limit)
        assert step.shared is got.shared is not None
        fresh = SearchStep(
            want,
            var_types=ctx.variable_types,
            result_type=ctx.result_type,
            bounds=compute_size_bounds(want) if size_limit is not None else None,
            size_limit=size_limit,
        )
        assert step.bounds == fresh.bounds
        for rule, twin in zip(got, want):
            for mark, at_root in _marks_met(rule):
                assert step.signature(rule, mark, at_root) == fresh.signature(
                    twin, mark, at_root
                ), (rule.key, mark, at_root)
        model = UniformModel()
        beams = [
            beam_search(rs, ctx, model, widths=(5, 40), k=20,
                        size_limit=size_limit, anti_patterns=())
            for rs in (got, want)
        ]
        assert beams[0].candidates == beams[1].candidates
        assert beams[0].stats == beams[1].stats


def test_template_layer_is_memoised_on_values(corpus_records):
    templates = mine_templates(corpus_records)
    reloaded = tuple(Template.from_dict(t.to_dict()) for t in templates)
    assert reloaded is not templates
    assert template_layer(reloaded) is template_layer(templates)
    ctx = corpus_records[0].context
    assert build_cond_ruleset(reloaded, ctx).shared is build_cond_ruleset(templates, ctx).shared


def test_certification_bound():
    templates = mine_templates(make_records())
    # largest template: V1 > V2 has 3 tokens and 2 slots
    assert certification_bound(templates) == 6


def test_compiled_rules_certify_unambiguous():
    records = make_records()
    templates = mine_templates(records)
    rs = build_cond_ruleset(templates, records[0].context)
    g = build_cond_grammar(templates, ["count", "total"])
    report = check_unambiguous(rs, g, max_nodes=certification_bound(templates))
    assert report.unambiguous


def test_cond_grammar_emits_each_production_once(corpus_records):
    templates = mine_templates(corpus_records)
    names = [v.name for v in corpus_records[0].context.variables]
    g = build_cond_grammar(templates, names)
    # 46 templates, 30 token shapes, plus two slot positions of 7 variables
    assert len(templates) == 46
    assert len(g.productions) == len(set(g.productions)) == 30 + 2 * 7
    assert len(derive_top_down_rules(g)) == len(g.productions)
    trees = [
        to_sexpr(t)
        for t in enumerate_complete_trees(g, certification_bound(templates))
    ]
    assert len(trees) == len(set(trees)) == 630


def test_train_and_synthesize_frequency():
    records = make_records()
    trained = train_cond_models(records, model_kind="frequency")
    assert trained.model_kind == "frequency"
    assert trained.extraction.skipped == []
    result = synthesize_condition(
        records[0].context, trained.templates, trained.model, k=10
    )
    rendered = [c.rendered for c in result.candidates]
    assert "count > 0" in rendered
    # every candidate is well typed in context by construction
    assert all(">" in r or r for r in rendered)


def test_beam_matches_reference_prober_on_corpus_atoms(corpus_records):
    """On real condition rule sets, the eval-setting beam over the compiled
    step returns exactly what it returns over the splice-then-solve prober."""
    trained = train_cond_models(corpus_records, model_kind="frequency")
    for record in corpus_records[:60]:
        got = synthesize_condition(
            record.context, trained.templates, trained.model, k=50
        )
        with reference_prober():
            want = synthesize_condition(
                record.context, trained.templates, trained.model, k=50
            )
        assert got.candidates, record.id
        assert got.candidates == want.candidates, record.id
        assert got.stats == want.stats, record.id


def test_decision_rows_match_the_per_payload_reference(corpus_records):
    """Each decision of the first 60 corpus items encodes, once per decision,
    to the per-payload reference vectors: stacked for creation and variable
    steps, the candidate-independent prefix for an expression step.
    Training stored exactly these decisions."""
    records = corpus_records[:60]
    trained = train_cond_models(records, model_kind="logistic", epochs=5)
    model = trained.logistic
    pipe = model.pipeline
    prefix = context_block_length(pipe.dims) + variable_block_length(pipe.dims)
    encoded = []
    kinds = set()
    for record in records:
        ctx = record.context
        rs = build_cond_ruleset(trained.templates, ctx)
        steps = feasible_derivation(
            record_tree(record), rs, policy_leftmost, ctx, size_limit=30
        )
        for step in steps:
            node = step.outcome.target
            kept = [p.rule for p in step.outcome.kept]
            kind, payloads = model.resolver(ctx, step.ast, node, kept)
            kinds.add(kind)
            rows = extract_features(kind, payloads, pipe)
            reference = np.stack([reference_features(kind, p, pipe) for p in payloads])
            if kind == "expression":
                assert np.array_equal(rows, reference[:1, :prefix]), record.id
            else:
                assert np.array_equal(rows, reference), record.id
            encoded.append((kind, rows, step.choice, kept[step.choice].key))
    assert kinds == {"creation", "expression", "variable"}
    stored = trained.extraction.decisions
    assert len(stored) == len(encoded)
    for decision, (kind, rows, chosen, key) in zip(stored, encoded):
        assert (decision.kind, decision.chosen, decision.applied_key) == (
            kind, chosen, key
        )
        assert np.array_equal(decision.rows, rows)

    # the corpus has no variable-free template, so its builds never reach
    # the fin step, a decision that no core scores
    closed = Template(template_key(("done",), ()), ("done",), ())
    ctx = records[0].context
    rs = build_cond_ruleset(trained.templates + (closed,), ctx)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key(f"make-expr:{closed.key}"))
    fin = [rs.by_key("fin:E")]
    assert model.encode(ctx, ast, ast.root, fin) == ("other", None)
    assert model.predict(ctx, ast, ast.root, fin) == [1.0]


def test_train_rejects_unknown_kind():
    with pytest.raises(ContextError):
        train_cond_models(make_records(), model_kind="quantum")


def test_train_uniform_has_no_extraction():
    trained = train_cond_models(make_records(), model_kind="uniform")
    assert trained.model_kind == "uniform"
    probs = trained.model.predict(None, None, None, ["x", "y"])
    assert probs == [0.5, 0.5]


def test_evaluate_topk_smoke():
    records = make_records() * 4  # enough for a 10% split
    records = [
        CorpusRecord(f"{r.id}{i}", r.condition, r.context)
        for i, r in enumerate(records)
    ]
    report = evaluate_topk(records, model_kind="frequency", seed=1, k=5)
    assert report.tested == report.repeats * max(1, round(len(records) * 0.1))
    assert set(report.precision) == {1, 5, 10}
    assert all(0.0 <= p <= 1.0 for p in report.precision.values())


def test_evaluate_topk_rejects_empty():
    with pytest.raises(ContextError):
        evaluate_topk([])
