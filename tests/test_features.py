"""Name encodings, the PCA, and the fixed-layout feature blocks."""

import dataclasses

import numpy as np
import pytest

from progest.features import (
    BIGRAM_DIM,
    Context,
    ContextEncoding,
    FeaturePipeline,
    TemplatePayload,
    VariableInfo,
    context_block,
    context_block_length,
    encode_name_2gram,
    expression_block,
    expression_block_length,
    extract_features,
    last_word,
    name_words,
    pca_apply,
    pca_fit,
    position_block,
    variable_block,
    variable_block_length,
)

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_$"


def slot(a, b):
    return ALPHABET.index(a) * len(ALPHABET) + ALPHABET.index(b)


def test_bigram_counts():
    vec = encode_name_2gram("len")
    assert vec.shape == (BIGRAM_DIM,)
    assert vec[slot("l", "e")] == 1
    assert vec[slot("e", "n")] == 1
    assert vec.sum() == 2


def test_bigram_repeats_accumulate():
    vec = encode_name_2gram("aaa")
    assert vec[slot("a", "a")] == 2
    assert vec.sum() == 2


def test_bigram_case_and_unknowns():
    assert np.array_equal(encode_name_2gram("LEN"), encode_name_2gram("len"))
    # characters outside the alphabet collapse to the underscore slot
    assert encode_name_2gram("a-b")[slot("a", "_")] == 1
    assert encode_name_2gram("x").sum() == 0
    assert encode_name_2gram("").sum() == 0


def test_name_words():
    assert name_words("itemCount") == ["item", "count"]
    assert name_words("num_rows") == ["num", "rows"]
    assert name_words("HTTPServer2") == ["httpserver2"]
    assert last_word("pendingJobs") == "jobs"
    assert last_word("") == ""


def test_pca_recovers_dominant_axis():
    rng = np.random.default_rng(7)
    # variance sits almost entirely on the first coordinate
    data = [np.array([x * 3.0, 0.01 * y]) for x, y in rng.standard_normal((40, 2))]
    t = pca_fit(data, 1)
    assert t.components.shape == (1, 2)
    axis = np.abs(t.components[0])
    assert axis[0] > 0.999
    assert axis[1] < 0.05


def test_pca_projection_matches_numpy():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((30, 6))
    t = pca_fit(list(data), 6)
    cov = np.cov(data.T, bias=True)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    centered = data - data.mean(axis=0)
    for i, comp in enumerate(t.components):
        var = np.mean((centered @ comp) ** 2)
        assert var == pytest.approx(eigvals[i], rel=1e-6)


def test_pca_degenerate_data_keeps_no_directions():
    data = [np.ones(4) * 2.0] * 10
    t = pca_fit(data, 3)
    assert t.components.shape[0] == 0
    assert np.array_equal(pca_apply(t, np.ones(4)), np.zeros(3))


def test_pca_needs_two_samples():
    t = pca_fit([np.ones(5)], 2)
    assert t.components.shape == (0, 5)


def test_pca_is_deterministic():
    rng = np.random.default_rng(11)
    data = list(rng.standard_normal((25, 8)))
    a = pca_fit(data, 4, seed=99)
    b = pca_fit(data, 4, seed=99)
    assert np.array_equal(a.components, b.components)


def test_pca_apply_pads_and_zeroes():
    rng = np.random.default_rng(5)
    data = list(rng.standard_normal((10, 3)))
    t = pca_fit(data, 5)
    out = pca_apply(t, data[0])
    assert out.shape == (5,)
    assert np.all(out[3:] == 0.0)
    # the zero vector is the absent-name marker and stays put
    assert np.array_equal(pca_apply(t, np.zeros(3)), np.zeros(5))


def make_contexts():
    return [
        Context.simple({"count": "Int", "items": "ItemList"}),
        Context(
            variables=(VariableInfo("total", "Int"),),
            class_name="ReportBuilder",
            method_name="hasRows",
            before_tokens=("if", "("),
            after_tokens=(")", "{"),
        ),
    ]


def test_pipeline_fit_round_trip():
    pipe = FeaturePipeline.fit(make_contexts(), dims=4, seed=1)
    assert pipe.dims == 4
    again = FeaturePipeline.from_params(pipe.to_params())
    assert np.array_equal(
        again.embed_name("count"), pipe.embed_name("count")
    )
    assert again.vocab == pipe.vocab


def test_pipeline_window_vec():
    pipe = FeaturePipeline.fit(make_contexts(), dims=2, seed=1)
    vec = pipe.window_vec(("if", "("))
    assert vec[-1] == 1.0  # presence flag
    assert vec.sum() >= 3.0
    empty = pipe.window_vec(())
    assert empty.sum() == 0.0
    unk = pipe.window_vec(("neverseen",))
    assert unk[-2] == 1.0  # UNK slot


def test_block_lengths_match():
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    ctx = make_contexts()[1]
    var = ctx.variables[0]
    tpl = TemplatePayload("V1 > 0::Int", 1, ("V1", ">", "0"), ("Int",))
    assert context_block(ctx, pipe).shape == (context_block_length(3),)
    assert variable_block(var, pipe).shape == (variable_block_length(3),)
    assert expression_block(tpl, pipe).shape == (expression_block_length(3),)
    assert position_block(2).shape == (1,)


def test_absent_parts_encode_as_zeros():
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    assert not context_block(None, pipe).any()
    assert not variable_block(None, pipe).any()
    assert not expression_block(None, pipe).any()
    assert position_block(None) == np.array([0.0])


def test_extract_features_lays_out_context_own_then_shared_blocks():
    """Row i is the context block, then candidate i's own blocks, then the
    blocks every candidate shares, in the order given."""
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    ctx = make_contexts()[1]
    var = ctx.variables[0]
    tpl = TemplatePayload("V1 > 0::Int", 1, ("V1", ">", "0"), ("Int",))
    enc = ContextEncoding(ctx, pipe)
    own = [
        (enc.variable_block(var), enc.expression_block(None)),
        (enc.variable_block(None), enc.expression_block(tpl)),
    ]
    shared = (variable_block(var, pipe), position_block(2))
    rows = extract_features(enc, own, shared)
    ctx_len = context_block_length(3)
    var_len = variable_block_length(3)
    expr_len = expression_block_length(3)
    assert rows.shape == (2, ctx_len + 2 * var_len + expr_len + 1)
    head = context_block(ctx, pipe)
    for row, blocks in zip(rows, own):
        assert np.array_equal(row, np.concatenate([head, *blocks, *shared]))
    # no shared blocks: each row ends with its candidate's own blocks
    alone = extract_features(enc, [(enc.variable_block(var),)])
    assert alone.shape == (1, ctx_len + var_len)
    assert np.array_equal(alone[0, ctx_len:], variable_block(var, pipe))


def test_encoding_hands_out_read_only_blocks_kept_by_value():
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    ctx = make_contexts()[1]
    var = ctx.variables[0]
    tpl = TemplatePayload("V1 > 0::Int", 1, ("V1", ">", "0"), ("Int",))
    enc = ContextEncoding(ctx, pipe)
    blocks = [
        enc.context_block(),
        enc.variable_block(var),
        enc.variable_block(None),
        enc.expression_block(tpl),
        enc.expression_block(None),
    ]
    for block in blocks:
        with pytest.raises(ValueError):
            block[0] = 1.0
        with pytest.raises(ValueError):
            block += 1.0
    assert np.array_equal(blocks[0], context_block(ctx, pipe))
    assert np.array_equal(blocks[1], variable_block(var, pipe))
    assert not blocks[2].any() and not blocks[4].any()
    # an equal variable or template is the same block, computed once
    assert enc.variable_block(dataclasses.replace(var)) is blocks[1]
    assert enc.expression_block(dataclasses.replace(tpl)) is blocks[3]
    # rows are new arrays: writing one leaves the kept blocks as they were
    rows = extract_features(enc, [(blocks[1], blocks[3])])
    rows[:] = 0.0
    assert np.array_equal(enc.context_block(), context_block(ctx, pipe))
    assert np.array_equal(blocks[1], variable_block(var, pipe))


def test_expression_block_reads_the_skeleton():
    pipe = FeaturePipeline.fit(make_contexts(), dims=2, seed=1)
    null_check = TemplatePayload(
        "V1 == null::Obj", 1, ("V1", "==", "null"), ("Obj",)
    )
    vec = expression_block(null_check, pipe)
    call = TemplatePayload(
        "V1 . isEmpty ( )::ItemList", 1,
        ("V1", ".", "isEmpty", "(", ")"), ("ItemList",),
    )
    vec_call = expression_block(call, pipe)
    assert not np.array_equal(vec, vec_call)
    # the method-presence scalar sits right after arity and type scalars
    assert vec[4] == 0.0 and vec_call[4] == 1.0


def test_context_round_trip_and_lookup():
    ctx = make_contexts()[1]
    again = Context.from_dict(ctx.to_dict())
    assert again == ctx
    assert again.variable("total").type == "Int"
    assert again.variable_types == {"total": "Int"}


def test_context_rejects_duplicate_variables():
    from progest.errors import ContextError

    data = Context.simple({"a": "Int"}).to_dict()
    data["variables"] = data["variables"] * 2
    with pytest.raises(ContextError):
        Context.from_dict(data)
