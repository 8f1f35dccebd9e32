"""Corpus ingestion, template mining, rule compilation, and synthesis."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.condsynth import (
    CondEncoder,
    CorpusRecord,
    Template,
    TemplateLayer,
    build_cond_grammar,
    build_cond_ruleset,
    certification_bound,
    evaluate_topk,
    load_corpus,
    mine_templates,
    record_tree,
    render_condition,
    row_length,
    synthesize_condition,
    template_key,
    template_layer,
    template_of,
    train_cond_models,
)
from progest import constraints, features
from progest.constraints import SearchStep
from progest.ambiguity import check_unambiguous, enumerate_complete_trees
from progest.datagen import generate_corpus
from progest.errors import ContextError
from progest.features import (
    Context,
    FeaturePipeline,
    VariableInfo,
    context_block_length,
    variable_block_length,
)
from progest.grammar import Annotation, RuleKind, derive_top_down_rules
from progest.models import LogisticModel, UniformModel, feasible_derivation
from progest.search import beam_search
from progest.trees import AnnotatedAst, apply_rule, policy_leftmost, to_sexpr
from tests_support import (
    reference_build_cond_ruleset,
    reference_features,
    reference_payloads,
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
            return [
                (i, r.key, r.kind, r.pattern, r.replacement, r.schema)
                for i, r in enumerate(rs)
            ]

        assert fields(got) == fields(want)
        assert got.groups == want.groups
        step = SearchStep(got, ctx, size_limit)
        assert step.table is got.shared is not None
        fresh = SearchStep(want, ctx, size_limit)
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


def test_variable_rule_signatures_are_shared_across_contexts(corpus_records, monkeypatch):
    """A context whose variables have the names and types of an earlier
    context's compiles no signature: the template layer's table holds the
    variable rules' signatures too.  The same name declared with another
    type gets its own signatures, the ones a step on the per-context
    reference set compiles."""
    templates = mine_templates(corpus_records)
    first = next(r.context for r in corpus_records if r.context.variables)
    synthesize_condition(first, templates, UniformModel())
    compiled = []
    compile_ = constraints._compile
    monkeypatch.setattr(
        constraints, "_compile",
        lambda rule, *rest: compiled.append(rule.key) or compile_(rule, *rest),
    )
    twin = dataclasses.replace(first, method_name=first.method_name + "Other")
    synthesize_condition(twin, templates, UniformModel())
    assert compiled == []

    var = first.variables[0]
    other = "Str" if var.type == "Int" else "Int"
    retyped = dataclasses.replace(
        first, variables=(VariableInfo(var.name, other), *first.variables[1:])
    )
    got = build_cond_ruleset(templates, retyped)
    want = reference_build_cond_ruleset(templates, retyped)
    step = SearchStep(got, retyped, 30)
    fresh = SearchStep(want, retyped, 30)
    anchor_types = set()
    for rule, twin_rule in zip(got, want):
        if rule.key.partition(":")[2] != var.name:
            continue
        for mark, at_root in _marks_met(rule):
            sig = step.signature(rule, mark, at_root)
            assert sig == fresh.signature(twin_rule, mark, at_root), rule.key
            anchor_types.add(sig.anchor_type)
    assert other in anchor_types


@pytest.mark.parametrize("with_closed", [False, True])
def test_binding_alternating_variable_counts_matches_the_reference(
    corpus_records, with_closed
):
    """A layer makes its template rules once; binding contexts of counts n,
    m, n and 0 in turn gives each time the set built afresh, with the same
    positions, groups and keys, and every set holds the layer's own
    template rules instead of building them again.  Without variable-free
    templates a context with no variables has no creation rule at all."""
    templates = mine_templates(corpus_records)
    templates = tuple(t for t in templates if t.arity > 0)
    if with_closed:
        templates += _CLOSED
    layer = TemplateLayer(templates)
    five = next(r.context for r in corpus_records if len(r.context.variables) == 5)
    two = dataclasses.replace(five, variables=five.variables[3:])
    none = dataclasses.replace(five, variables=())
    template_rules = None
    for ctx in (five, two, five, none, two):
        got = layer.bind(ctx)
        own = [r for r in got if not r.key.startswith(("make-var:", "var"))]
        template_rules = template_rules or own
        assert all(a is b for a, b in zip(own, template_rules, strict=True))
        want = reference_build_cond_ruleset(templates, ctx)
        assert [
            (i, r.key, r.kind, r.pattern, r.replacement, r.schema)
            for i, r in enumerate(got)
        ] == [
            (i, r.key, r.kind, r.pattern, r.replacement, r.schema)
            for i, r in enumerate(want)
        ]
        assert got.groups == want.groups
        assert list(got.groups) == list(want.groups)
        assert all(
            got.by_key(r.key) is r and got[i] is r and got.id_of(r) == i
            for i, r in enumerate(got)
        )
        assert got.shared is not None
    assert bool(layer.bind(none).creation_rules) is with_closed


def test_one_template_rule_sits_at_each_sets_own_place(corpus_records):
    """The layer's ``expr:`` rule is one object in the sets of contexts with
    different variable counts, at another position in each, and every
    application a beam over each set records names its rule by that set's
    position: replaying them through ``rs[app.rule]`` rebuilds the tree."""
    templates = mine_templates(corpus_records)
    expr = next(t for t in templates if t.arity > 0)
    ctx = next(r.context for r in corpus_records if len(r.context.variables) >= 3)
    fewer = dataclasses.replace(ctx, variables=ctx.variables[:1])
    sets = [build_cond_ruleset(templates, c) for c in (ctx, fewer)]
    rules = [rs.by_key(f"expr:{expr.key}") for rs in sets]
    assert rules[0] is rules[1]
    ids = [rs.id_of(rule) for rs, rule in zip(sets, rules)]
    assert ids[0] - ids[1] == len(ctx.variables) - 1
    for rs, rule_id in zip(sets, ids):
        assert rs[rule_id] is rules[0]
    for c, rs in zip((ctx, fewer), sets):
        found = beam_search(rs, c, UniformModel(), widths=(5, 40), k=20,
                            anti_patterns=())
        assert found.candidates
        for cand in found.candidates:
            ast = AnnotatedAst.empty()
            for app in cand.applications:
                ast = apply_rule(ast, app.node, rs[app.rule])
            assert to_sexpr(ast) == to_sexpr(cand.ast)


def test_training_splices_one_probe_per_build_step(corpus_records, monkeypatch):
    """The typed replay reads the splice of the one probe it follows at each
    step; the other kept candidates are never spliced.  So training on the
    whole corpus splices exactly once per build step."""
    spliced = 0
    apply = constraints.apply_rule_with_ids

    def counting(*args):
        nonlocal spliced
        spliced += 1
        return apply(*args)

    monkeypatch.setattr(constraints, "apply_rule_with_ids", counting)
    trained = train_cond_models(corpus_records, model_kind="frequency")
    assert len(corpus_records) == 590
    assert trained.extraction.skipped == []
    assert spliced == len(trained.extraction.steps_audited) == 1306


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


def reference_rows(templates, pipe, ctx, ast, node, candidates):
    """The decision's kind and its per-payload reference rows: stacked for
    creation and variable steps, the candidate-independent prefix for an
    expression step."""
    kind, payloads = reference_payloads(templates, ctx, ast, node, candidates)
    reference = np.stack([reference_features(kind, p, pipe) for p in payloads])
    if kind == "expression":
        prefix = context_block_length(pipe.dims) + variable_block_length(pipe.dims)
        reference = reference[:1, :prefix]
    return kind, reference


def test_decision_rows_match_the_per_payload_reference(corpus_records):
    """Each decision of the first 60 corpus items encodes, once per decision,
    to the per-payload reference vectors: stacked for creation and variable
    steps, the candidate-independent prefix for an expression step.
    Training stored exactly these decisions."""
    records = corpus_records[:60]
    trained = train_cond_models(records, model_kind="logistic", epochs=5)
    model = trained.logistic
    pipe = model.encoder.pipeline
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
            kind, rows = model.encoder(ctx, step.ast, node, kept)
            kinds.add(kind)
            want = reference_rows(trained.templates, pipe, ctx, step.ast, node, kept)
            assert kind == want[0], record.id
            assert np.array_equal(rows, want[1]), record.id
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
    assert model.encoder(ctx, ast, ast.root, fin) == ("other", None)
    assert model.predict(ctx, ast, ast.root, fin) == [1.0]


@pytest.fixture(scope="module")
def logistic_60(corpus_records):
    return train_cond_models(corpus_records[:60], model_kind="logistic", epochs=5)


def fresh_model(trained):
    """The trained logistic model with no context encoded yet."""
    logistic = trained.logistic
    encoder = CondEncoder(trained.templates, logistic.encoder.pipeline)
    return LogisticModel.from_params(logistic.to_params(), encoder)


def replayed_decisions(templates, ctx, tree):
    """(ast, target, kept rules) of each step of the search's build of tree."""
    rs = build_cond_ruleset(templates, ctx)
    steps = feasible_derivation(tree, rs, policy_leftmost, ctx, size_limit=30)
    return [
        (step.ast, step.outcome.target, [p.rule for p in step.outcome.kept])
        for step in steps
    ]


def test_encoding_follows_the_context_of_each_decision(corpus_records, logistic_60):
    """One model encodes the builds of contexts A, B, A and then of A with one
    variable's usage count changed: every row is the per-payload reference
    of its own context, never a block kept from the one before."""
    model = fresh_model(logistic_60)
    pipe = model.encoder.pipeline
    a = corpus_records[0]
    b = next(r for r in corpus_records if r.context != a.context)
    first = a.context.variables[0]
    changed = dataclasses.replace(first, usage_count=first.usage_count + 7)
    a_changed = dataclasses.replace(
        a.context, variables=(changed,) + a.context.variables[1:]
    )
    rows_of = {}
    for name, ctx, record in (
        ("A", a.context, a), ("B", b.context, b), ("A", a.context, a),
        ("A'", a_changed, a),
    ):
        got = []
        for ast, node, kept in replayed_decisions(
            logistic_60.templates, ctx, record_tree(record)
        ):
            kind, reference = reference_rows(
                logistic_60.templates, pipe, ctx, ast, node, kept
            )
            _, rows = model.encoder(ctx, ast, node, kept)
            assert np.array_equal(rows, reference), (name, kind)
            got.append(rows)
        rows_of.setdefault(name, got)
    # the changed usage count reaches the rows, so a block kept by name
    # instead of by value would have been caught above
    assert any(
        not np.array_equal(x, y) for x, y in zip(rows_of["A"], rows_of["A'"])
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000), n=st.integers(2, 16), dims=st.sampled_from((2, 16))
)
def test_encoder_matches_the_reference_on_generated_corpora(
    tmp_path_factory, seed, n, dims
):
    """On a generated corpus, every step of the search's build of every atom
    encodes to its per-payload reference rows.  One encoder serves every
    record in turn, so a block kept from another context would show."""
    folder = tmp_path_factory.mktemp("corpus")
    records = load_corpus(write_corpus(folder, generate_corpus(n, seed=seed)))
    templates = mine_templates(records)
    pipe = FeaturePipeline.fit([r.context for r in records], dims, seed)
    encoder = CondEncoder(templates, pipe)
    for record in records:
        ctx = record.context
        for ast, node, kept in replayed_decisions(templates, ctx, record_tree(record)):
            kind, rows = encoder(ctx, ast, node, kept)
            want_kind, reference = reference_rows(templates, pipe, ctx, ast, node, kept)
            assert kind == want_kind, record.id
            assert np.array_equal(rows, reference), (record.id, kind)


def test_row_length_is_the_width_of_each_kind():
    """Each decision kind's rows are ``row_length`` wide."""
    records = make_records()
    templates = mine_templates(records)
    pipe = FeaturePipeline.fit([r.context for r in records], dims=3, seed=1)
    encoder = CondEncoder(templates, pipe)
    widths = {}
    for record in records:
        ctx = record.context
        for ast, node, kept in replayed_decisions(templates, ctx, record_tree(record)):
            kind, rows = encoder(ctx, ast, node, kept)
            widths.setdefault(kind, set()).add(rows.shape[1])
    assert widths == {
        kind: {row_length(kind, 3)} for kind in ("creation", "expression", "variable")
    }


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call's first argument is recorded."""
    seen = []
    raw = getattr(owner, name)

    def wrapper(first, *args, **kwargs):
        seen.append(first)
        return raw(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_one_predict_encodes_each_block_once(monkeypatch, corpus_records, logistic_60):
    """A predict computes its context's block once and each variable it
    scores once, however many decisions read them."""
    model = fresh_model(logistic_60)
    scored = set()
    encode = model.encoder

    def recording_encoder(ctx, ast, node, candidates):
        kind, payloads = reference_payloads(
            logistic_60.templates, ctx, ast, node, candidates
        )
        for p in payloads:
            if kind == "creation":
                scored.add(p.variable)
            elif kind == "expression":
                scored.add(p.chosen)
            elif kind == "variable":
                scored.update((p.variable, p.previous))
        return encode(ctx, ast, node, candidates)

    model.encoder = recording_encoder
    contexts = counting(monkeypatch, features, "context_block")
    variables = counting(monkeypatch, features, "variable_block")
    record = corpus_records[0]
    result = synthesize_condition(record.context, logistic_60.templates, model, k=50)
    assert result.candidates
    assert contexts == [record.context]
    assert len(variables) == len(set(variables))
    assert set(variables) == scored
    assert len(scored) > 2


def test_training_encodes_each_run_of_equal_contexts_once(monkeypatch, corpus_records):
    """Consecutive atoms of one corpus record share their context, and
    training computes its block once for the whole run."""
    contexts = counting(monkeypatch, features, "context_block")
    trained = train_cond_models(
        corpus_records, model_kind="logistic", pca_dims=2, epochs=1
    )
    assert not trained.extraction.skipped
    items = [r.context for r in corpus_records]
    runs = 1 + sum(x != y for x, y in zip(items, items[1:]))
    assert runs == 560  # the corpus's records, before compounds were split
    assert len(contexts) == runs


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


def test_evaluate_topk_cutoffs_rank_enough_candidates(tmp_path):
    """Precision@10 counts ten candidates whatever ``k`` is, and ``k`` = 0
    adds no cutoff of its own."""
    records = load_corpus(write_corpus(tmp_path, generate_corpus(60, seed=2)))
    reports = {
        k: evaluate_topk(records, model_kind="frequency", split_ratio=0.3, k=k)
        for k in (0, 3, 50)
    }
    assert set(reports[0].precision) == {1, 10}
    assert set(reports[3].precision) == {1, 3, 10}
    assert reports[3].precision[10] == reports[50].precision[10]
    assert reports[0].precision[10] == reports[50].precision[10]


def test_evaluate_topk_rejects_empty():
    with pytest.raises(ContextError):
        evaluate_topk([])
