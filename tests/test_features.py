"""Name encodings, the PCA, and the fixed-layout feature blocks."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from progest.condsynth import (
    CondEncoder,
    Template,
    expression_block,
    expression_block_length,
)
from progest.errors import ContextError
from progest.features import (
    BIGRAM_DIM,
    Context,
    ContextEncoding,
    FeaturePipeline,
    VariableInfo,
    context_block,
    context_block_length,
    encode_name_2gram,
    extract_features,
    last_word,
    name_words,
    number_array,
    pca_apply,
    pca_fit,
    position_block,
    variable_block,
    variable_block_length,
)

from tests_support import (
    context_variable,
    reference_context_from_dict,
    reference_pca_fit,
    simple_context,
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


@st.composite
def bigram_like(draw):
    """Rows of small bigram counts: most cells zero, some columns zero in
    every row, and some rows repeated."""
    rows = draw(st.integers(2, 10))
    width = draw(st.integers(1, 24))
    data = draw(arrays(np.float64, (rows, width),
                       elements=st.sampled_from((0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0))))
    data[:, draw(st.lists(st.integers(0, width - 1), max_size=width))] = 0.0
    return np.vstack([data, data[draw(st.lists(st.integers(0, rows - 1), max_size=3))]])


def _captured(centered: np.ndarray, component: np.ndarray) -> float:
    return float(np.mean((centered @ component) ** 2))


@settings(max_examples=80, deadline=None)
@given(data=bigram_like(), dims=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_pca_matches_the_full_width_fit(data, dims, seed):
    """The fit over the touched columns keeps the directions the fit over
    every column keeps, with the same signs and captured variances, the same
    components where the eigengap allows telling them apart, and exact zeros
    in every column no sample touches; ``dims`` reaches past the rank."""
    fast = pca_fit(list(data), dims, seed=seed)
    slow = reference_pca_fit(list(data), dims, seed=seed)
    assert fast.components.shape == slow.components.shape
    assert np.array_equal(fast.mean, slow.mean) and fast.dims == slow.dims
    assert np.all(fast.components[:, ~data.any(axis=0)] == 0.0)
    centered = data - data.mean(axis=0)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / len(data))[::-1]
    for i, (a, b) in enumerate(zip(fast.components, slow.components)):
        assert a @ b > 0.0
        assert _captured(centered, a) == pytest.approx(_captured(centered, b), rel=1e-9)
        gap = min((abs(eigvals[i] - e) for j, e in enumerate(eigvals) if j != i),
                  default=np.inf)
        if gap >= 1e-3:
            assert np.abs(a - b).max() <= 1e-6


def _one_column(rows: int, width: int, column: int) -> list[np.ndarray]:
    data = np.zeros((rows, width))
    data[:, column] = np.arange(rows) % 3
    return list(data)


@pytest.mark.parametrize(
    "vectors, dims, kept",
    [
        pytest.param([np.zeros(BIGRAM_DIM)] * 6, 4, 0, id="no-column-touched"),
        pytest.param(_one_column(7, 12, 5), 3, 1, id="one-column-touched"),
        pytest.param([np.eye(10)[i] * (i + 1) for i in (2, 4, 7, 7)], 6, 2,
                     id="fewer-touched-columns-than-dims"),
        pytest.param([], 2, 0, id="no-sample"),
    ],
)
def test_pca_edge_cases_match_the_full_width_fit(vectors, dims, kept):
    """Edge cases of the touched columns give what the fit over every
    column gives, without a warning (no empty vector is normalised)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = pca_fit(vectors, dims)
    slow = reference_pca_fit(vectors, dims)
    assert fast.components.shape == slow.components.shape
    assert fast.components.shape[0] == kept
    assert np.array_equal(fast.mean, slow.mean) and fast.dims == slow.dims
    assert np.allclose(fast.components, slow.components, rtol=0.0, atol=1e-12)
    # every sample is nonnegative, so a zero mean marks an untouched column
    assert np.all(fast.components[:, fast.mean == 0.0] == 0.0)
    assert pca_apply(fast, np.ones(fast.mean.shape[0])).shape == (dims,)


def make_contexts():
    return [
        simple_context({"count": "Int", "items": "ItemList"}),
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


def test_pipeline_equals_its_reloaded_params():
    """A pipeline and its PCA compare by value, arrays included."""
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    again = FeaturePipeline.from_params(pipe.to_params())
    assert again.pca is not pipe.pca
    assert again == pipe and again.pca == pipe.pca
    pca = pipe.pca
    for changed in (
        dataclasses.replace(pca, mean=pca.mean + 1.0),
        dataclasses.replace(pca, components=pca.components[:-1]),
        dataclasses.replace(pca, dims=pca.dims + 1),
    ):
        assert changed != pca
        assert FeaturePipeline(changed, pipe.vocab) != pipe


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
    tpl = Template("V1 > 0::Int", ("V1", ">", "0"), ("Int",))
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
    """Row i of a decision is the context block, then candidate i's own
    blocks, then the blocks every candidate shares, in the order given;
    the decisions of a round are stacked in order, each its own rows."""
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    ctx = make_contexts()[1]
    var = ctx.variables[0]
    tpl = Template("V1 > 0::Int", ("V1", ">", "0"), ("Int",))
    enc = ContextEncoding(ctx, pipe)
    own = [
        (enc.variable_block(var.name), expression_block(None, pipe)),
        (enc.variable_block(None), expression_block(tpl, pipe)),
    ]
    shared = (variable_block(var, pipe), position_block(2))
    rows = extract_features(enc, [(list(zip(*own)), shared)])
    ctx_len = context_block_length(3)
    var_len = variable_block_length(3)
    expr_len = expression_block_length(3)
    assert rows.shape == (2, ctx_len + 2 * var_len + expr_len + 1)
    head = context_block(ctx, pipe)
    for row, blocks in zip(rows, own):
        assert np.array_equal(row, np.concatenate([head, *blocks, *shared]))
    # no shared blocks: each row ends with its candidate's own blocks
    alone = extract_features(enc, [([[enc.variable_block(var.name)]], ())])
    assert alone.shape == (1, ctx_len + var_len)
    assert np.array_equal(alone[0, ctx_len:], variable_block(var, pipe))
    # two decisions in one round: the rows of each, in order
    other = ([[own[1][0]], [own[1][1]]], (variable_block(None, pipe), position_block(3)))
    both = extract_features(enc, [(list(zip(*own)), shared), other])
    assert np.array_equal(both, np.vstack([rows, extract_features(enc, [other])]))


def test_encoding_hands_out_read_only_blocks_kept_by_value():
    """A context's blocks, kept by its encoding, and a template's, kept by
    the condition encoder."""
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    ctx = make_contexts()[1]
    var = ctx.variables[0]
    tpl = Template("V1 > 0::Int", ("V1", ">", "0"), ("Int",))
    enc = ContextEncoding(ctx, pipe)
    coder = CondEncoder([tpl], pipe)
    blocks = [
        enc.context_block(),
        enc.variable_block(var.name),
        enc.variable_block(None),
        coder.expression_block(tpl),
        coder.expression_block(None),
    ]
    for block in blocks:
        with pytest.raises(ValueError):
            block[0] = 1.0
        with pytest.raises(ValueError):
            block += 1.0
    assert np.array_equal(blocks[0], context_block(ctx, pipe))
    assert np.array_equal(blocks[1], variable_block(var, pipe))
    assert not blocks[2].any() and not blocks[4].any()
    # a name, or an equal template, is the same block, computed once; a
    # name the context does not declare reads the absent variable's block
    assert enc.variable_block("total") is blocks[1]
    assert enc.variable_block("undeclared") is blocks[2]
    assert coder.expression_block(dataclasses.replace(tpl)) is blocks[3]
    assert np.array_equal(blocks[3], expression_block(tpl, pipe))
    # rows are new arrays: writing one leaves the kept blocks as they were
    rows = extract_features(enc, [([[blocks[1]], [blocks[3]]], ())])
    rows[:] = 0.0
    assert np.array_equal(enc.context_block(), context_block(ctx, pipe))
    assert np.array_equal(blocks[1], variable_block(var, pipe))


def fill_memos(pipe):
    """Encode every block of the test contexts through ``pipe``'s memo, and
    two templates through the memo of a condition encoder over ``pipe``,
    which is returned."""
    tpl = Template("V1 > 0::Int", ("V1", ">", "0"), ("Int",))
    coder = CondEncoder([tpl], pipe)
    for ctx in make_contexts():
        enc = ContextEncoding(ctx, pipe)
        enc.context_block()
        coder.expression_block(tpl)
        coder.expression_block(None)
        for v in ctx.variables:
            enc.variable_block(v.name)
    return coder


def test_pipeline_memos_hand_out_read_only_arrays():
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    coder = fill_memos(pipe)
    memo = [*pipe._names.values(), *coder._expressions.values()]
    assert len(pipe._names) > 5 and len(coder._expressions) == 2
    for array in memo:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert pipe.embed_name("count") is pipe.embed_name("count")


def test_pipelines_never_share_a_memo_entry():
    """Each pipeline embeds a name through its own PCA, whatever another
    pipeline has embedded before, and keeps its own arrays."""
    one = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    other = dataclasses.replace(
        one, pca=pca_fit([np.eye(BIGRAM_DIM)[i] for i in range(5)], 3)
    )
    assert not other._names
    coders = fill_memos(one), fill_memos(other)
    assert not {id(a) for a in one._names.values()} & {
        id(a) for a in other._names.values()
    }
    assert not {id(a) for a in coders[0]._expressions.values()} & {
        id(a) for a in coders[1]._expressions.values()
    }
    for pipe in (one, other):
        for name, vec in pipe._names.items():
            assert np.array_equal(vec, pca_apply(pipe.pca, encode_name_2gram(name)))
    assert not np.array_equal(one.embed_name("count"), other.embed_name("count"))


def test_pipeline_params_eq_and_repr_ignore_its_memos():
    pipe = FeaturePipeline.fit(make_contexts(), dims=3, seed=1)
    empty = dataclasses.replace(pipe)
    params, text = pipe.to_params(), repr(pipe)
    fill_memos(pipe)
    assert pipe._names and not empty._names
    assert pipe.to_params() == params == empty.to_params()
    assert repr(pipe) == text == repr(empty)
    assert pipe == empty


def test_expression_block_reads_the_skeleton():
    pipe = FeaturePipeline.fit(make_contexts(), dims=2, seed=1)
    null_check = Template("V1 == null::Obj", ("V1", "==", "null"), ("Obj",))
    vec = expression_block(null_check, pipe)
    call = Template(
        "V1 . isEmpty ( )::ItemList", ("V1", ".", "isEmpty", "(", ")"), ("ItemList",)
    )
    vec_call = expression_block(call, pipe)
    assert not np.array_equal(vec, vec_call)
    # the method-presence scalar sits right after arity and type scalars
    assert vec[4] == 0.0 and vec_call[4] == 1.0


def test_context_round_trip_and_lookup():
    ctx = make_contexts()[1]
    again = Context.from_dict(ctx.to_dict())
    assert again == ctx
    assert context_variable(again, "total").type == "Int"
    assert again.variable_types == {"total": "Int"}


def test_context_rejects_duplicate_variables():
    from progest.errors import ContextError

    data = simple_context({"a": "Int"}).to_dict()
    data["variables"] = data["variables"] * 2
    with pytest.raises(ContextError):
        Context.from_dict(data)


# --------------------------------------------------------------------------
# the one-pass context loader against the field-by-field reference

_VARIABLE_SCALARS = {
    "final": st.booleans(), "static": st.booleans(), "in_loop": st.booleans(),
    "has_init": st.booleans(), "init_zero": st.booleans(),
    "decl_distance": st.integers(0, 40), "usages": st.integers(0, 9),
    "usages_before": st.integers(0, 9), "usages_after": st.integers(0, 9),
}
_CONTEXT_SCALARS = {
    "result": st.sampled_from(["Boolean", "Int"]), "class": st.text(max_size=3),
    "superclass": st.text(max_size=3), "method": st.text(max_size=3),
    "params": st.integers(0, 4), "static": st.booleans(), "in_loop": st.booleans(),
}
_NAMES = ("count", "idx", "done", "items", "$x", "_y")
# values of every JSON kind, a bool and a float among them
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.floats(-2, 2),
    st.sampled_from(["", "x", "3", "null"]), st.lists(st.integers(0, 3), max_size=2),
    st.lists(st.sampled_from(["a", "("]), max_size=2), st.just({}), st.just({"k": 1}),
)
_BAD_NAMES = ("null", "true", "false", "", "1x", "a b", "a-b")
_BAD_DEF_SITES = (["3"], [True], [1.5], [1, None], 5, None, "12", {}, [[1]])


def _shuffled(data, entry: dict) -> dict:
    """The entry with its keys in a drawn order, which decides the field a
    loader reports first."""
    keys = data.draw(st.permutations(list(entry)))
    return {key: entry[key] for key in keys}


def _mutate(data, entry: dict, scalars: dict) -> None:
    """One drawn fault in a variable entry or a context, in place."""
    keys = sorted(entry) or ["name"]
    kind = data.draw(st.sampled_from(
        ["kind", "kind", "bool-for-int", "missing", "extra", "name", "def_sites", "list"]
    ))
    if kind == "kind":
        entry[data.draw(st.sampled_from(keys))] = data.draw(_ANY_JSON)
    elif kind == "bool-for-int":
        ints = [k for k in scalars if k in entry and type(entry[k]) is int]
        if ints:
            entry[data.draw(st.sampled_from(ints))] = data.draw(st.booleans())
    elif kind == "missing":
        entry.pop(data.draw(st.sampled_from(keys + ["name", "type"])), None)
    elif kind == "extra":
        entry[data.draw(st.sampled_from(["note", "Name", "usage"]))] = data.draw(_ANY_JSON)
    elif kind == "name":
        entry["name"] = data.draw(st.sampled_from(_BAD_NAMES))
    elif kind == "def_sites":
        entry["def_sites"] = data.draw(st.sampled_from(_BAD_DEF_SITES))
    elif kind == "list":
        lists = [k for k in ("variables", "before", "after", "def_sites") if k in entry]
        if lists:
            entry[data.draw(st.sampled_from(lists))] = data.draw(_ANY_JSON)


def _variable_entry(data, name: str, mutate: bool) -> dict:
    entry = {"name": name, "type": data.draw(st.sampled_from(["Int", "Str", "ItemList"]))}
    for key, values in _VARIABLE_SCALARS.items():
        if data.draw(st.booleans()):
            entry[key] = data.draw(values)
    if data.draw(st.booleans()):
        entry["def_sites"] = data.draw(st.lists(st.integers(1, 40), max_size=3))
    for _ in range(data.draw(st.integers(1, 3)) if mutate else 0):
        _mutate(data, entry, _VARIABLE_SCALARS)
    return _shuffled(data, entry)


def _load(loader, data):
    try:
        return loader(data)
    except Exception as err:  # noqa: BLE001 - both loaders must fail alike
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_context_loader_matches_the_field_by_field_reference(data):
    """Over valid and mutated JSON contexts (wrong kinds, bools for ints,
    missing and extra keys, reserved names, bad ``def_sites``, repeated
    names, in any key order), ``Context.from_dict`` gives the reference's
    equal context or the same ``ContextError`` message."""
    mutate = data.draw(st.booleans())
    names = data.draw(st.permutations(_NAMES))[: data.draw(st.integers(0, 4))]
    entries = [_variable_entry(data, name, mutate and data.draw(st.booleans()))
               for name in names]
    if mutate and len(entries) > 1 and data.draw(st.integers(0, 4)) == 3:
        entries[-1]["name"] = entries[0].get("name", "count")
    ctx = {"variables": entries}
    for key, values in _CONTEXT_SCALARS.items():
        if data.draw(st.booleans()):
            ctx[key] = data.draw(values)
    for key in ("before", "after"):
        if data.draw(st.booleans()):
            ctx[key] = data.draw(st.lists(st.sampled_from(["if", "(", "x"]), max_size=3))
    for _ in range(data.draw(st.integers(0, 2)) if mutate else 0):
        _mutate(data, ctx, _CONTEXT_SCALARS)
    if mutate and data.draw(st.integers(0, 9)) == 7:
        ctx = data.draw(st.sampled_from([[ctx], "ctx", None]))
    ctx = _shuffled(data, ctx) if isinstance(ctx, dict) else ctx
    got = _load(Context.from_dict, ctx)
    want = _load(reference_context_from_dict, ctx)
    assert got == want
    if isinstance(want, Context):
        assert all(type(v) is VariableInfo for v in got.variables)
        assert [tuple(v) for v in got.variables] == [tuple(v) for v in want.variables]
    else:
        assert want[0] is ContextError


def test_context_loader_reports_the_first_fault_of_an_entry():
    """A variable entry's first fault is reported: a missing name before a
    missing type, either before a field of the wrong kind, the first such
    field in the entry's order, then ``def_sites``, then the name."""
    cases = [
        ({"type": 5}, "variable entry missing 'name'"),
        ({"name": "a", "usages": True}, "variable entry missing 'type'"),
        ({"usages": "x", "name": "a", "type": 1, "def_sites": "x"},
         "variable 'a': 'usages' must be an integer"),
        ({"type": 1, "usages": "x", "name": "a"}, "variable 'a': 'type' must be a string"),
        ({"name": "null", "type": "Int", "def_sites": [1, "2"]},
         "variable 'null': 'def_sites' must be a list of integers"),
        ({"name": "null", "type": "Int"},
         "variable 'null': 'name' must be an identifier other than null, true or false"),
        ({"name": 5, "type": "Int"}, "variable 5: 'name' must be a string"),
    ]
    for entry, message in cases:
        for loader in (Context.from_dict, reference_context_from_dict):
            with pytest.raises(ContextError) as raised:
                loader({"static": False, "variables": [entry]})
            assert str(raised.value) == message


@pytest.mark.parametrize(
    "values", [True, "1", None, {}, [1, True], [[1.0, 2], [3, "4"]], [[[0]], [[None]]],
               [1, [2, {}]]],
)
def test_number_array_refuses_a_non_number_at_any_depth(values):
    with pytest.raises(TypeError, match="^w must hold numbers only$"):
        number_array(values, "w")


@pytest.mark.parametrize(
    "values, shape", [(3, ()), (2.5, ()), ([], (0,)), ([[1, 2.5], [3, 4]], (2, 2)),
                      ([[[1]], [[2]]], (2, 1, 1))],
)
def test_number_array_reads_nested_numbers(values, shape):
    out = number_array(values, "w")
    assert out.dtype == float and out.shape == shape
    assert out.tolist() == np.asarray(values, dtype=float).tolist()
