"""Corpus ingestion, template mining, rule compilation, and synthesis."""

import collections
import dataclasses
import functools
import itertools
import json
import pathlib
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.condsynth import (
    BARE_NULL_CHECK,
    CondEncoder,
    CorpusRecord,
    Template,
    TemplateLayer,
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
from progest import condsynth, constraints, features, grammar, minilang
from progest.cli import main
from progest.constraints import SearchStep, SignatureTable, feasible_rules
from progest.datagen import generate_corpus
from progest.errors import ContextError
from progest.features import Context, FeaturePipeline, VariableInfo
from progest.grammar import Annotation, nonterminal
from progest.minilang import canonical_tokens, join_tokens, logic_atoms, parse_condition
from progest.models import (
    FrequencyModel,
    LogisticModel,
    UniformModel,
    extract_training_set,
    feasible_derivation,
    group_str,
)
from progest.search import beam_search, finished_builds
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    is_complete,
    policy_leftmost,
    to_sexpr,
)
from tests_support import (
    cyclic_garbage,
    encoded_rows,
    reference_build_cond_ruleset,
    reference_logistic_predict,
    reference_payloads,
    reference_prober,
    reference_rows,
    rows_alone,
    simple_context,
)


def ctx_dict(types):
    return simple_context(types).to_dict()


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


@pytest.mark.parametrize("first, second", [("a", "a#1"), ("a#1", "a")])
def test_load_corpus_rejects_an_atom_id_that_repeats(tmp_path, capsys, first, second):
    """Atom ids are unique too: a record ``a#1`` and the first atom of a
    two-atom record ``a`` clash in either order, and ``train`` exits 2."""
    conditions = {"a": "x > 0 && y > 0", "a#1": "x > 0"}
    path = write_corpus(
        tmp_path,
        [
            {"id": rec_id, "condition": conditions[rec_id],
             "context": ctx_dict({"x": "Int", "y": "Int"})}
            for rec_id in (first, second)
        ],
    )
    with pytest.raises(ContextError, match="line 2: duplicate id 'a#1'"):
        load_corpus(path)
    code = main(["train", "--corpus", path, "--bundle", str(tmp_path / "x.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line 2: duplicate id")


def test_a_loaded_record_is_parsed_once(data_dir, monkeypatch):
    """Loading parses each corpus line once and keeps each atom's subtree
    of that parse on its record, so a frequency training and a held-out
    evaluation over loaded records parse nothing; the training abstracts
    each record once, for mining and for its tree alike; a record compares
    and hashes by its fields whether its parse is kept or not."""
    calls: list[str] = []
    parse = condsynth.parse_condition
    monkeypatch.setattr(
        condsynth, "parse_condition", lambda text: calls.append(text) or parse(text)
    )
    abstracted: list = []
    walk = condsynth.tokens_with_vars
    monkeypatch.setattr(
        condsynth, "tokens_with_vars", lambda expr: abstracted.append(expr) or walk(expr)
    )
    records = load_corpus(data_dir / "corpus.jsonl")
    lines = (data_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert calls == [json.loads(line)["condition"] for line in lines if line.strip()]
    calls.clear()
    train_cond_models(records, model_kind="frequency")
    assert abstracted == [r.expr for r in records]
    evaluate_topk(records[:100], model_kind="frequency", seed=3)
    assert calls == []

    record = records[0]
    fresh = CorpusRecord(record.id, record.condition, record.context)
    assert fresh == record and hash(fresh) == hash(record)
    assert "expr" in vars(record) and "expr" not in vars(fresh)
    assert fresh.expr == record.expr
    assert fresh == record and hash(fresh) == hash(record)
    assert fresh != dataclasses.replace(fresh, id="other")


@pytest.mark.parametrize("corpus", ["bundled", "datagen"])
def test_each_corpus_line_is_parsed_once(data_dir, tmp_path, monkeypatch, corpus):
    """Loading a corpus parses each line once, under either name the parser
    is called by, and hands each atom's record its subtree of that parse:
    the parse of the record's condition, the canonical text of the atom
    ``logic_atoms`` gives."""
    path = data_dir / "corpus.jsonl"
    if corpus == "datagen":
        path = write_corpus(tmp_path, generate_corpus(300, seed="heldout-1"))
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    conditions = [json.loads(line)["condition"] for line in lines if line.strip()]
    calls: list[str] = []
    for module in (condsynth, minilang):
        monkeypatch.setattr(
            module, "parse_condition",
            lambda text, parse=parse_condition: calls.append(text) or parse(text),
        )
    records = load_corpus(path)
    assert calls == conditions
    monkeypatch.undo()
    assert len(records) > len(conditions)
    assert [r.condition for r in records] == [
        join_tokens(canonical_tokens(atom))
        for condition in conditions
        for atom in logic_atoms(parse_condition(condition))
    ]
    for record in records:
        assert "expr" in vars(record)
        assert record.expr == parse_condition(record.condition), record.id


def make_records():
    ints = simple_context({"count": "Int", "total": "Int"})
    flags = simple_context({"done": "Boolean"})
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
    ctx = simple_context({"count": "Int"})
    records = [CorpusRecord("a", "true", ctx)]
    templates = mine_templates(records)
    assert templates[0].arity == 0
    rs = build_cond_ruleset(templates, ctx)
    keys = {r.key for r in rs}
    assert "make-expr:true::" in keys
    assert "fin:E" in keys


def test_build_ruleset_needs_templates():
    with pytest.raises(ContextError):
        build_cond_ruleset([], simple_context({"a": "Int"}))


def _marks_met(rule):
    """Every (mark, rootedness) a search can probe ``rule`` at."""
    if rule.pattern is None:
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
                (i, r.key, r.pattern, r.replacement, r.schema)
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
                assert step.table.signatures((rule,), mark, at_root, step) == (
                    fresh.table.signatures((twin,), mark, at_root, fresh)
                ), (rule.key, mark, at_root)
        model = UniformModel()
        beams = [
            beam_search(rs, ctx, model, widths=(5, 40), size_limit=size_limit)
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
            sig = step.table.signatures((rule,), mark, at_root, step)[0]
            twin_sig = fresh.table.signatures((twin_rule,), mark, at_root, fresh)[0]
            assert sig == twin_sig, rule.key
            anchor_types.add(sig.anchor_type)
    assert other in anchor_types


# the identifier-shaped tokens of the corpus templates
_TOKENS = ("size", "length", "isEmpty")


def _draw_templates(data, mined):
    """Some mined templates, at least one of them holding an identifier-shaped
    token, maybe with variable-free ones, in a drawn order."""
    tokened = [t for t in mined if set(_TOKENS) & set(t.tokens)]
    picked = data.draw(
        st.lists(st.sampled_from(tokened), min_size=1, max_size=3, unique=True)
    )
    picked += data.draw(st.lists(st.sampled_from(mined), max_size=6, unique=True))
    closed = data.draw(st.lists(st.sampled_from(_CLOSED), max_size=2, unique=True))
    return tuple(data.draw(st.permutations(list(dict.fromkeys(picked)) + closed)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_offers_match_resolution_per_step(corpus_records, data):
    """The offers a template layer's table shares for the groups every bound
    set holds alike (``expr:``, ``fin:``) are those a step over the
    per-context reference set, which shares nothing, resolves for itself:
    every group, at every mark and rootedness a search meets it, with the
    same rules, ids and signatures.  Several contexts go through one fresh
    layer in turn, so a stale shared entry shows: they declare variables
    named like the templates' identifier-shaped tokens, or none at all,
    with Boolean or Int results, and sizes bounded at 30 or not."""
    templates = _draw_templates(data, mine_templates(corpus_records))
    layer = TemplateLayer(templates)
    types = sorted({ty for t in templates for ty in t.placeholder_types} | {"Int"})
    for _ in range(data.draw(st.integers(2, 4))):
        names = data.draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True))
        ctx = Context(
            variables=tuple(
                VariableInfo(name, data.draw(st.sampled_from(types))) for name in names
            ),
            result_type=data.draw(st.sampled_from(("Boolean", "Int"))),
        )
        size_limit = data.draw(st.sampled_from((None, 30)))
        step = SearchStep(layer.bind(ctx), ctx, size_limit)
        fresh = SearchStep(reference_build_cond_ruleset(templates, ctx), ctx, size_limit)
        assert step.rs.shared.fixed and fresh.rs.shared is None
        for group, members in fresh.rs.groups.items():
            for mark, at_root in _marks_met(members[0]):
                assert step.offers(group, mark, at_root) == fresh.offers(
                    group, mark, at_root
                ), (group, mark, at_root, ctx, size_limit)


def test_a_corpus_training_resolves_the_expr_group_once_per_key(
    corpus_records, monkeypatch, tmp_path
):
    """From a fresh template layer, a frequency training on the corpus
    resolves the offers of the ``expr:`` group once per key of values, one
    per variable count of its contexts (4 to 8), not once per replayed
    record (590).  The memo holds those five entries, and ranking the holes
    of two fresh held-out corpora adds none."""
    monkeypatch.setattr(
        condsynth, "template_layer",
        functools.lru_cache(maxsize=4)(condsynth.TemplateLayer),
    )
    signatures = SignatureTable.signatures
    resolved: list[str] = []

    def counted(self, rules, mark, at_root, step):
        resolved.extend(rule.key.partition(":")[0] for rule in rules[:1])
        return signatures(self, rules, mark, at_root, step)

    monkeypatch.setattr(SignatureTable, "signatures", counted)
    trained = train_cond_models(corpus_records, model_kind="frequency")
    counts = {len(r.context.variables) for r in corpus_records}
    assert len(corpus_records) == 590 and counts == {4, 5, 6, 7, 8}
    assert resolved.count("expr") == 5
    layer = condsynth.template_layer(trained.templates)

    def entries():
        return sum(len(table._offers) for table in layer._tables.values())

    assert entries() == 5
    for seed in ("heldout-1", "heldout-2"):
        for record in _heldout(tmp_path, 300, seed):
            synthesize_condition(
                record.context, trained.templates, trained.model,
                k=50, widths=(5, 200), size_limit=30,
            )
    assert entries() == 5


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_training_through_the_layer_equals_training_over_reference_sets(
    corpus_records, data
):
    """``extract_training_set`` over a template layer's binds, which share
    one table and its offers, gives the instances, audits, skips and
    encoded rows and spans it gives over per-context reference sets that
    share nothing.  Corpus records are drawn, some given a variable named like an
    identifier-shaped template token, some an Int result (their replays
    fail the result type and are skipped), beside variable-free conditions
    in contexts with no variables."""
    picked = data.draw(
        st.lists(st.sampled_from(corpus_records), min_size=1, max_size=12,
                 unique_by=lambda r: r.id)
    )
    records = []
    for record in picked:
        ctx = record.context
        change = data.draw(st.sampled_from(("keep", "token", "int")))
        if change == "token":
            name = data.draw(st.sampled_from(_TOKENS))
            if name not in ctx.variable_types:
                kind = data.draw(st.sampled_from(("Int", "Boolean", "String")))
                ctx = dataclasses.replace(
                    ctx, variables=(*ctx.variables, VariableInfo(name, kind))
                )
        elif change == "int":
            ctx = dataclasses.replace(ctx, result_type="Int")
        records.append(CorpusRecord(record.id, record.condition, ctx))
    for i in range(data.draw(st.integers(0, 2))):
        result = data.draw(st.sampled_from(("Boolean", "Int")))
        condition = data.draw(st.sampled_from(("true", "false")))
        closed = CorpusRecord(f"closed{i}", condition, Context(result_type=result))
        records.append(closed)
    templates = mine_templates(records)
    items = [(r.context, record_tree(r)) for r in records]
    size_limit = data.draw(st.sampled_from((None, 30)))
    pipeline = FeaturePipeline.fit((r.context for r in records), 4, 0)
    layer = TemplateLayer(templates)
    got, want = (
        extract_training_set(
            items, rules_for, policy_leftmost,
            encoder=CondEncoder(templates, pipeline), size_limit=size_limit,
        )
        for rules_for in (
            layer.bind, lambda ctx: reference_build_cond_ruleset(templates, ctx)
        )
    )
    assert got.instances == want.instances
    assert got.steps_audited == want.steps_audited
    assert got.skipped == want.skipped
    assert got.encoded.spans == want.encoded.spans
    assert got.encoded.rows.keys() == want.encoded.rows.keys()
    for kind, rows in got.encoded.rows.items():
        assert np.array_equal(rows, want.encoded.rows[kind]), kind


def same_rows(a, b) -> bool:
    """Both None, or equal arrays."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_the_step_audit_is_the_one_training_record(corpus_records, data):
    """Over a drawn corpus subset, with and without variable-free
    conditions: the frequency counts fitted from the audited steps are the
    positives of the instances, an encoder changes no step and adds the
    encoded rows, with one span per audited step, and exactly the steps
    the encoder scores have rows, equal to the per-payload reference rows
    of that step."""
    records = data.draw(
        st.lists(st.sampled_from(corpus_records), min_size=1, max_size=10,
                 unique_by=lambda r: r.id)
    )
    for i in range(data.draw(st.integers(0, 2))):
        condition = data.draw(st.sampled_from(("true", "false")))
        records.append(CorpusRecord(f"closed{i}", condition, Context()))
    size_limit = data.draw(st.sampled_from((None, 30)))
    templates = mine_templates(records)
    pipe = FeaturePipeline.fit((r.context for r in records), 4, 0)
    items = [(r.context, record_tree(r)) for r in records]
    rules_for = TemplateLayer(templates).bind
    plain, encoded = (
        extract_training_set(
            items, rules_for, policy_leftmost, encoder=encoder, size_limit=size_limit
        )
        for encoder in (None, CondEncoder(templates, pipe))
    )
    positives = collections.Counter(
        (i.group, i.parent, i.label) for i in plain.instances if i.polarity
    )
    assert FrequencyModel.fit(plain.steps_audited).counts == dict(positives)
    assert plain.encoded is None
    assert encoded.instances == plain.instances
    assert encoded.skipped == plain.skipped
    assert encoded.steps_audited == plain.steps_audited
    assert len(encoded.encoded.spans) == len(encoded.steps_audited)

    audits = iter(enumerate(encoded.steps_audited))
    skipped = {item for item, _reason in encoded.skipped}
    for item, (ctx, tree) in enumerate(items):
        if item in skipped:
            continue
        steps = feasible_derivation(
            tree, rules_for(ctx), policy_leftmost, ctx, size_limit=size_limit
        )
        for step in steps:
            index, audit = next(audits)
            kept = [p.rule for p in step.outcome.kept]
            kind, rows = reference_rows(
                templates, pipe, ctx, step.ast, step.outcome.target, kept
            )
            got_kind, got_rows = encoded_rows(encoded.encoded, index)
            assert (audit.item, got_kind) == (item, kind)
            assert same_rows(got_rows, rows), (item, audit.step)
    assert next(audits, None) is None


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
            (i, r.key, r.pattern, r.replacement, r.schema)
            for i, r in enumerate(got)
        ] == [
            (i, r.key, r.pattern, r.replacement, r.schema)
            for i, r in enumerate(want)
        ]
        assert got.groups == want.groups
        assert list(got.groups) == list(want.groups)
        assert all(
            got.by_key(r.key) is r and got[i] is r for i, r in enumerate(got)
        )
        assert got.shared is not None
    assert bool(layer.bind(none).group(None)) is with_closed


def test_variable_rules_are_made_once_per_name(corpus_records, monkeypatch):
    """A layer makes a variable name's rules on the first bind that declares
    it and reuses them: two binds declaring ``x`` hold the same
    ``make-var:x`` and ``var2:x`` objects, and a second pass over corpus
    predicts, from a fresh layer, makes no rule and compiles no block."""
    templates = mine_templates(corpus_records)
    layer = TemplateLayer(templates)
    assert layer.max_arity >= 2
    first = layer.bind(simple_context({"x": "Int", "y": "Int"}))
    second = layer.bind(simple_context({"z": "String", "x": "Int"}))
    for key in ("make-var:x", "var2:x"):
        assert first.by_key(key) is second.by_key(key)

    monkeypatch.setattr(
        condsynth, "template_layer",
        functools.lru_cache(maxsize=4)(condsynth.TemplateLayer),
    )
    frequency = train_cond_models(corpus_records, model_kind="frequency")

    def predict_all():
        for record in corpus_records[:20]:
            synthesize_condition(
                record.context, frequency.templates, frequency.model,
                k=50, widths=(5, 200), size_limit=30,
            )

    predict_all()
    made: list = []
    compiled: list = []
    post_init = grammar.RewritingRule.__post_init__
    compile_block = grammar._compile_block
    monkeypatch.setattr(
        grammar.RewritingRule, "__post_init__",
        lambda rule: made.append(rule.key) or post_init(rule),
    )
    monkeypatch.setattr(
        grammar, "_compile_block",
        lambda rule: compiled.append(rule.key) or compile_block(rule),
    )
    predict_all()
    assert (made, compiled) == ([], [])


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
    ids = [rs.rules.index(rule) for rs, rule in zip(sets, rules)]
    assert ids[0] - ids[1] == len(ctx.variables) - 1
    for rs, rule_id in zip(sets, ids):
        assert rs[rule_id] is rules[0]
    for c, rs in zip((ctx, fewer), sets):
        found = beam_search(rs, c, UniformModel(), widths=(5, 40))
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


def well_typed_instantiations(templates, ctx: Context) -> list[str]:
    """Each template with every declared variable of each slot's type."""
    out = []
    for t in templates:
        pools = [
            [v.name for v in ctx.variables if v.type == slot_type]
            for slot_type in t.placeholder_types
        ]
        for names in itertools.product(*pools):
            slots = {f"V{i}": name for i, name in enumerate(names, 1)}
            out.append(join_tokens(slots.get(token, token) for token in t.tokens))
    return out


def test_compiled_rules_certify_unambiguous(corpus_records):
    """The typed certificate of the corpus templates: in every distinct
    corpus context, the search at unbounded width, the certification bound
    and no step cap builds each tree once, and builds exactly the
    templates instantiated with declared variables of the slot types."""
    templates = mine_templates(corpus_records)
    contexts = dict.fromkeys(r.context for r in corpus_records)
    bound = certification_bound(templates)
    trees = 0
    for ctx in contexts:
        builds, _ = finished_builds(
            build_cond_ruleset(templates, ctx), ctx, None,
            widths=(inf,), size_limit=bound, step_cap=inf,
        )
        keys = {probe.labels for probe in builds}
        assert len(keys) == len(builds), ctx
        rendered = sorted(render_condition(probe.ast) for probe in builds)
        assert rendered == sorted(well_typed_instantiations(templates, ctx)), ctx
        trees += len(builds)
    assert (len(contexts), trees) == (560, 38_620)


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


def test_the_screen_drops_bare_null_checks_before_the_cut():
    """A screened synthesis drops each bare null check before it cuts to
    ``k``, so a dropped check takes none of the ``k`` places; unscreened,
    the likelier null check ranks first."""
    ctx = simple_context({"owner": "String", "count": "Int"})
    rows = [("a", "owner != null"), ("b", "owner != null"), ("c", "count > 0")]
    records = [CorpusRecord(i, condition, ctx) for i, condition in rows]
    trained = train_cond_models(records, model_kind="frequency")

    def top(k, screen):
        found = synthesize_condition(
            ctx, trained.templates, trained.model, k=k, screen_null_checks=screen
        )
        return [c.rendered for c in found.candidates]

    assert top(1, False) == ["owner != null"]
    assert top(1, True) == ["count > 0"]
    assert top(50, True) == [r for r in top(50, False) if r != "owner != null"]


def test_the_bare_null_check_pattern():
    """The screen matches one variable compared unequal to null, and no
    condition that does more than that."""
    for text in ("value != null", "$x!=null", "_a1 != null"):
        assert BARE_NULL_CHECK.search(text), text
    for text in ("value != null && done", "data[0] != null", "value == null",
                 "value.next != null", "anything"):
        assert not BARE_NULL_CHECK.search(text), text


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


def test_decision_rows_match_the_per_payload_reference(corpus_records, monkeypatch):
    """Each decision of the first 60 corpus items encodes, in a round of its
    own, to the per-payload reference vectors: stacked for creation and
    variable steps, the candidate-independent prefix for an expression
    step.  The encoded rows training fits the cores on hold exactly these
    rows, one span per audited step, which records the decision's choice
    and applied rule; the kept training record holds no rows."""
    fitted = []
    train = LogisticModel.train

    def recording(extraction, *args, **kwargs):
        fitted.append(extraction.encoded)
        return train(extraction, *args, **kwargs)

    monkeypatch.setattr(LogisticModel, "train", staticmethod(recording))
    records = corpus_records[:60]
    trained = train_cond_models(records, model_kind="logistic", epochs=5)
    (fit_rows,) = fitted
    assert trained.extraction.encoded is None
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
            kind, rows = rows_alone(model.encoder, ctx, step.ast, node, kept)
            kinds.add(kind)
            want = reference_rows(trained.templates, pipe, ctx, step.ast, node, kept)
            assert kind == want[0], record.id
            assert np.array_equal(rows, want[1]), record.id
            encoded.append((kind, rows, step.choice, kept[step.choice].key))
    assert kinds == {"creation", "expression", "variable"}
    stored = trained.extraction.steps_audited
    assert len(stored) == len(fit_rows.spans) == len(encoded)
    for i, (audit, (kind, rows, chosen, key)) in enumerate(zip(stored, encoded)):
        got_kind, got_rows = encoded_rows(fit_rows, i)
        assert (got_kind, audit.choice, audit.applied_key) == (kind, chosen, key)
        assert np.array_equal(got_rows, rows)

    # the corpus has no variable-free template, so its builds never reach
    # the fin step, a decision that no core scores
    closed = Template(template_key(("done",), ()), ("done",), ())
    ctx = records[0].context
    rs = build_cond_ruleset(trained.templates + (closed,), ctx)
    ast = apply_rule(AnnotatedAst.empty(), None, rs.by_key(f"make-expr:{closed.key}"))
    fin = [rs.by_key("fin:E")]
    assert rows_alone(model.encoder, ctx, ast, ast.root, fin) == ("other", None)
    assert model.predict(ctx, [(ast, ast.root, fin)]) == [[1.0]]


@pytest.fixture(scope="module")
def logistic_60(corpus_records):
    return train_cond_models(corpus_records[:60], model_kind="logistic", epochs=5)


def test_loading_the_corpus_leaves_no_reference_cycle(data_dir):
    """Loading a corpus, which splits each condition into its atoms, leaves
    nothing that only the cyclic collector frees."""
    assert cyclic_garbage(lambda: load_corpus(data_dir / "corpus.jsonl")) == 0


@pytest.mark.parametrize("encoded", [False, True], ids=["frequency", "logistic"])
def test_replaying_the_corpus_leaves_no_reference_cycle(corpus_records, encoded):
    """Extracting a training set, a derivation walk per record through a
    template layer's sets, with and without an encoder, leaves nothing
    that only the cyclic collector frees."""
    records = corpus_records[:100]
    templates = mine_templates(records)
    items = [(r.context, record_tree(r)) for r in records]
    pipeline = FeaturePipeline.fit((r.context for r in records), 4, 0)

    def extract():
        extract_training_set(
            items, template_layer(templates).bind, policy_leftmost,
            encoder=CondEncoder(templates, pipeline) if encoded else None,
            size_limit=30,
        )

    assert cyclic_garbage(extract) == 0


@pytest.mark.parametrize("kind", ["frequency", "logistic"])
def test_synthesis_leaves_no_reference_cycle(corpus_records, logistic_60, kind):
    """Ranking conditions for held-out contexts leaves nothing that only the
    cyclic collector frees, with either fitted model."""
    trained = logistic_60
    if kind == "frequency":
        trained = train_cond_models(corpus_records[:60], model_kind="frequency")

    def synthesize():
        for record in corpus_records[60:80]:
            synthesize_condition(record.context, trained.templates, trained.model)

    assert cyclic_garbage(synthesize) == 0


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
    """One model encodes, in one call, the builds of contexts A, B, A and
    then of A with one variable's usage count changed, a round each: every
    row is the per-payload reference of its own context, never a block
    kept from the one before."""
    model = fresh_model(logistic_60)
    pipe = model.encoder.pipeline
    a = corpus_records[0]
    b = next(r for r in corpus_records if r.context != a.context)
    first = a.context.variables[0]
    changed = first._replace(usage_count=first.usage_count + 7)
    a_changed = dataclasses.replace(
        a.context, variables=(changed,) + a.context.variables[1:]
    )
    rounds = [
        (name, ctx, replayed_decisions(logistic_60.templates, ctx, record_tree(record)))
        for name, ctx, record in (
            ("A", a.context, a), ("B", b.context, b), ("A", a.context, a),
            ("A'", a_changed, a),
        )
    ]
    encoded = model.encoder.encode_rounds([(ctx, made) for _, ctx, made in rounds])
    flat = [(name, ctx, decision) for name, ctx, made in rounds for decision in made]
    rows_of = {}
    for i, (name, ctx, (ast, node, kept)) in enumerate(flat):
        kind, reference = reference_rows(
            logistic_60.templates, pipe, ctx, ast, node, kept
        )
        _, rows = encoded_rows(encoded, i)
        assert np.array_equal(rows, reference), (name, kind)
        rows_of.setdefault(name, []).append(rows)
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
    encodes to its per-payload reference rows.  One encoder call encodes
    every record's build as a round, as training does, so a block kept
    from another context would show."""
    folder = tmp_path_factory.mktemp("corpus")
    records = load_corpus(write_corpus(folder, generate_corpus(n, seed=seed)))
    templates = mine_templates(records)
    pipe = FeaturePipeline.fit([r.context for r in records], dims, seed)
    rounds = [
        (r.context, replayed_decisions(templates, r.context, record_tree(r)))
        for r in records
    ]
    encoded = CondEncoder(templates, pipe).encode_rounds(rounds)
    flat = [(r, ctx, d) for r, (ctx, made) in zip(records, rounds) for d in made]
    for i, (record, ctx, (ast, node, kept)) in enumerate(flat):
        kind, rows = encoded_rows(encoded, i)
        want_kind, reference = reference_rows(templates, pipe, ctx, ast, node, kept)
        assert kind == want_kind, record.id
        assert np.array_equal(rows, reference), (record.id, kind)


# names the encoder must take as they come: empty, one character, outside
# the bigram alphabet, and corpus names, which recur across contexts with
# other statistics and types
_VARIABLE_NAMES = ("x", "i", "n$", "größe", "count", "items", "userList", "MAX_SIZE")
_TEXTS = ("", "a", "Ärger", "size-of", "ReportBuilder", "AbstractQueue", "hasNext")
# mostly the corpus's slot types, so that templates find their variables
_TYPES = ("Int", "Int", "Boolean", "Float", "ItemList", "Str", "IntArray", "Map<K,V>", "Ω", "")
_WINDOW = ("if", "(", ")", "{", "return", "while", "¿", "")

_variables = st.builds(
    VariableInfo,
    name=st.sampled_from(_VARIABLE_NAMES),
    type=st.sampled_from(_TYPES),
    is_final=st.booleans(),
    is_static=st.booleans(),
    in_loop=st.booleans(),
    has_initializer=st.booleans(),
    init_is_zero=st.booleans(),
    decl_distance=st.integers(0, 60),
    def_sites=st.lists(st.integers(0, 60), max_size=4).map(tuple),
    usage_count=st.integers(0, 12),
    usages_before=st.integers(0, 12),
    usages_after=st.integers(0, 12),
)
_contexts = st.builds(
    Context,
    variables=st.lists(_variables, max_size=5, unique_by=lambda v: v.name).map(tuple),
    class_name=st.sampled_from(_TEXTS),
    superclass_name=st.sampled_from(_TEXTS),
    method_name=st.sampled_from(_TEXTS),
    method_params=st.integers(0, 5),
    method_is_static=st.booleans(),
    in_loop=st.booleans(),
    before_tokens=st.lists(st.sampled_from(_WINDOW), max_size=4).map(tuple),
    after_tokens=st.lists(st.sampled_from(_WINDOW), max_size=4).map(tuple),
)


@st.composite
def _templates(draw):
    """A template of 0 to 3 slots: V1, an optional call, then a comparison
    or arithmetic step per further slot and an optional constant test."""
    arity = draw(st.integers(0, 3))
    tokens = ["V1"] if arity else [draw(st.sampled_from(("done", "ready")))]
    method = draw(st.sampled_from(("", "size", "isEmpty", "länge")))
    if arity and method:
        tokens += [".", method, "(", ")"]
    for slot in range(2, arity + 1):
        tokens += [draw(st.sampled_from(("<", "==", "+", "%"))), f"V{slot}"]
    if draw(st.booleans()):
        tokens += [draw(st.sampled_from(("!=", ">="))), draw(st.sampled_from(("0", "null")))]
    types = tuple(draw(st.sampled_from(_TYPES)) for _ in range(arity))
    return Template(template_key(tokens, types), tuple(tokens), types)


def _random_build(data, rs, ctx):
    """(ast, target, kept rules) of each step of one random build in ``rs``:
    each step applies a kept rule drawn from ``data``, as the search would
    expand it, until the tree is finished or the step keeps nothing."""
    step = SearchStep(rs, ctx, 30)
    state, ast, decisions = None, AnnotatedAst.empty(), []
    while not is_complete(ast):
        outcome = feasible_rules(state, step, policy_leftmost)
        if not outcome.kept:
            break
        decisions.append((ast, outcome.target, [p.rule for p in outcome.kept]))
        state = outcome.kept[data.draw(st.integers(0, len(outcome.kept) - 1))]
        ast = state.ast
    return decisions


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_encoder_and_predict_match_the_memo_free_reference(logistic_60, data):
    """Random contexts, with corpus and random templates: every decision of
    random builds encodes, bit for bit, to the reference rows, which keep
    nothing, and the model predicts what the reference predict does
    through a class dict of its own.  Each decision is encoded in
    its own context, in that context with each variable repeated behind it
    under other statistics (the first of a name wins), or in no context;
    one encoder, on a fresh or a long-lived pipeline, serves them all in
    turn, so a block kept from another context, or by name across
    contexts, would show."""
    pipe = logistic_60.logistic.encoder.pipeline
    if data.draw(st.booleans()):
        pipe = FeaturePipeline(pipe.pca, pipe.vocab)
    corpus_keys = {t.key for t in logistic_60.templates}
    extra = data.draw(st.lists(_templates(), max_size=3, unique_by=lambda t: t.key))
    templates = logistic_60.templates + tuple(
        t for t in extra if t.key not in corpus_keys
    )
    encoder = CondEncoder(templates, pipe)
    model = LogisticModel.from_params(logistic_60.logistic.to_params(), encoder)
    first = data.draw(_contexts)
    again = dataclasses.replace(
        first,
        variables=tuple(
            v._replace(usage_count=v.usage_count + 1, type="Shadow")
            for v in first.variables
        ),
    )
    for ctx in (first, data.draw(_contexts), again, first):
        shadowed = dataclasses.replace(
            ctx,
            variables=ctx.variables + tuple(
                v._replace(decl_distance=v.decl_distance + 9)
                for v in ctx.variables
            ),
        )
        rs = build_cond_ruleset(templates, ctx)
        for ast, node, kept in _random_build(data, rs, ctx):
            seen = data.draw(st.sampled_from((ctx, shadowed, None)))
            kind, rows = rows_alone(encoder, seen, ast, node, kept)
            want_kind, want = reference_rows(templates, pipe, seen, ast, node, kept)
            assert kind == want_kind
            if want is None:
                assert rows is None
            else:
                assert rows.shape == want.shape and rows.dtype == want.dtype
                assert np.array_equal(rows, want), kind
            assert model.predict(seen, [(ast, node, kept)]) == [
                reference_logistic_predict(model, templates, pipe, seen, ast, node, kept)
            ]


def _heldout(tmp_path, n, seed="heldout-1"):
    return load_corpus(write_corpus(tmp_path, generate_corpus(n, seed=seed)))


def test_signature_tables_stop_growing_on_fresh_contexts(
    monkeypatch, tmp_path, corpus_records
):
    """A layer's signature tables keep entries per rule and per what its
    signature reads, never per context: after a corpus training and a pass
    over 300 fresh held-out contexts, a pass over 300 other fresh contexts
    adds no entry to any of the tables' memos."""
    monkeypatch.setattr(
        condsynth, "template_layer",
        functools.lru_cache(maxsize=4)(condsynth.TemplateLayer),
    )
    trained = train_cond_models(corpus_records, model_kind="frequency")
    layer = condsynth.template_layer(trained.templates)

    def entries(memo):
        return sum(
            entries(value) if isinstance(value, dict) else 1
            for value in memo.values()
        )

    def total():
        return sum(entries(vars(table)) for table in layer._tables.values())

    sizes = [total()]
    for seed in ("heldout-1", "heldout-2"):
        for record in _heldout(tmp_path, 300, seed):
            synthesize_condition(
                record.context, trained.templates, trained.model,
                k=50, widths=(5, 200), size_limit=30,
            )
        sizes.append(total())
    assert sizes[0] > 0 and sizes[2] == sizes[1], sizes


def test_condition_groups_are_nonterminal_with_distinct_cells(corpus_records):
    """Every pattern a condition rule set groups on is a nonterminal, so no
    two of its groups share a model cell name (``group_str``): the
    creations, ``expr:`` on V1, ``var2:`` on V2 and ``fin:`` on E."""
    closed = Template(template_key(("done",), ()), ("done",), ())
    templates = mine_templates(corpus_records) + (closed,)
    for record in corpus_records[:20]:
        rs = build_cond_ruleset(templates, record.context)
        assert all(not symbol.is_terminal for symbol, _ in filter(None, rs.groups))
        cells = {group_str(members[0]) for members in rs.groups.values()}
        assert len(cells) == len(rs.groups) == 4, record.id


def test_each_name_is_encoded_once_per_pipeline(monkeypatch, corpus_records):
    """Over one logistic training and 20 corpus predicts, the bigram encoder
    runs once per distinct string for the pipeline's embeddings: every
    later embedding of a name reads the pipeline's memo.  The fit's own
    encodings of the training names are not counted."""
    encoded, fitting = [], []
    encode, fit = features.encode_name_2gram, FeaturePipeline.fit

    def counting_encode(name):
        if not fitting:
            encoded.append(name)
        return encode(name)

    def flagged_fit(*args, **kwargs):
        fitting.append(True)
        try:
            return fit(*args, **kwargs)
        finally:
            fitting.pop()

    monkeypatch.setattr(features, "encode_name_2gram", counting_encode)
    monkeypatch.setattr(FeaturePipeline, "fit", staticmethod(flagged_fit))
    trained = train_cond_models(corpus_records, model_kind="logistic", epochs=1)
    for record in corpus_records[:20]:
        assert synthesize_condition(record.context, trained.templates, trained.model).candidates
    assert len(encoded) == len(set(encoded)) > 50
    assert set(encoded) == set(trained.pipeline._names)


def test_a_second_pass_over_known_names_adds_no_memo_entry(tmp_path, logistic_60):
    """A second held-out pass meets only names and templates the first one
    met: the pipeline's and the encoder's memos keep the same entries,
    the same arrays."""
    fitted = logistic_60.logistic.encoder.pipeline
    pipe = FeaturePipeline(fitted.pca, fitted.vocab)
    model = LogisticModel.from_params(
        logistic_60.logistic.to_params(), CondEncoder(logistic_60.templates, pipe)
    )
    held = _heldout(tmp_path, 20)
    snapshots = []
    for _ in range(2):
        for record in held:
            synthesize_condition(record.context, logistic_60.templates, model)
        snapshots.append(
            ({n: id(v) for n, v in pipe._names.items()},
             {t: id(v) for t, v in model.encoder._expressions.items()})
        )
    assert snapshots[0] == snapshots[1]
    assert len(snapshots[0][0]) > 20 and len(snapshots[0][1]) > 5


def test_each_tree_fills_each_slot_at_most_once(monkeypatch, tmp_path, corpus_records):
    """Every tree the encoder reads, over a logistic training and held-out
    predicts, and every tree those predicts rank, holds at most one node
    of each slot symbol with children, and every slot node but the root
    is a child of the root: so ``CondEncoder`` reads slot p-1's variable
    off the siblings of the slot p it targets."""
    seen = []
    encode = CondEncoder.encode_rounds

    def recording(self, rounds):
        seen.extend(ast for _ctx, decisions in rounds for ast, _node, _kept in decisions)
        return encode(self, rounds)

    monkeypatch.setattr(CondEncoder, "encode_rounds", recording)
    trained = train_cond_models(
        corpus_records, model_kind="logistic", pca_dims=2, epochs=1
    )
    for record in _heldout(tmp_path, 20):
        found = synthesize_condition(record.context, trained.templates, trained.model)
        seen += [c.ast for c in found.candidates]
    filled = {nonterminal(f"V{p}") for p in range(1, 4)}
    slots = 0
    for ast in seen:
        counts = {}
        for nid, node in ast.nodes.items():
            if node.symbol in filled and nid != ast.root:
                assert node.parent == ast.root, to_sexpr(ast)
            if node.children and node.symbol in filled:
                counts[node.symbol] = counts.get(node.symbol, 0) + 1
        assert all(n == 1 for n in counts.values()), to_sexpr(ast)
        slots += len(counts)
    assert len(seen) > 1000 and slots > 1000


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
            kind, rows = rows_alone(encoder, ctx, ast, node, kept)
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
    encode = model.encoder.encode_rounds

    def recording_encoder(rounds):
        for ctx, decisions in rounds:
            for ast, node, candidates in decisions:
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
        return encode(rounds)

    monkeypatch.setattr(model.encoder, "encode_rounds", recording_encoder)
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
    probs = trained.model.predict(None, [(None, None, ["x", "y"])])
    assert probs == [[0.5, 0.5]]


def test_uniform_training_makes_no_tree_and_no_layer(monkeypatch):
    """A uniform model reads neither the records' trees nor the template
    layer, so a uniform training makes neither."""
    def refuse(*args):
        raise AssertionError("a uniform training made a tree or a layer")

    monkeypatch.setattr(condsynth, "record_tree", refuse)
    monkeypatch.setattr(condsynth, "template_layer", refuse)
    trained = train_cond_models(make_records(), model_kind="uniform")
    assert trained.model_kind == "uniform" and trained.extraction is None


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
