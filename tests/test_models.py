"""Probability models: table lookup, smoothed counts, logistic cores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.grammar import (
    CreationMode,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
)
from progest.models import (
    BinaryLogisticCore,
    FrequencyModel,
    SoftmaxCore,
    TableModel,
    TrainingInstance,
    UniformModel,
    extract_training_set,
    group_str,
)
from progest.trees import AnnotatedAst, apply_rule, policy_leftmost

GRAMMAR = 'E -> E "> 12" | "hours" | "value"\n'


@pytest.fixture(scope="module")
def rules():
    g = load_grammar(GRAMMAR)
    return derive_top_down_rules(g).merged(
        derive_creation_rules(g, [CreationMode.ROOT])
    )


@pytest.fixture(scope="module")
def rooted(rules):
    return apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))


def test_uniform_model(rules, rooted):
    model = UniformModel()
    probs = model.predict(None, rooted, rooted.root, list(rules)[:4])
    assert probs == [0.25] * 4
    assert model.predict(None, rooted, rooted.root, []) == []


def test_table_model_lookup_by_origin(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = TableModel.from_nested(
        {"": {"make-root:E": 1.0}, "make-root:E": {gt12.key: 0.3}}
    )
    # creation step: parent key is empty
    assert model.predict(None, AnnotatedAst.empty(), None, [rules.by_key("make-root:E")]) == [1.0]
    # expansion step: parent key is the rule that made the node
    assert model.predict(None, rooted, rooted.root, [gt12, hours]) == [0.3, 0.0]


def test_table_model_is_raw_and_unnormalized(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = TableModel({("make-root:E", gt12.key): 0.4, ("make-root:E", hours.key): 0.4})
    probs = model.predict(None, rooted, rooted.root, [gt12, hours])
    assert probs == [0.4, 0.4]


def test_table_model_default_fills_gaps(rules, rooted):
    hours = rules.by_key('td:E->"hours"')
    model = TableModel({}, default=0.125)
    assert model.predict(None, rooted, rooted.root, [hours]) == [0.125]


def test_table_nested_round_trip():
    nested = {"": {"a": 1.0}, "a": {"b": 0.25, "c": 0.75}}
    model = TableModel.from_nested(nested)
    assert model.to_nested() == nested


def test_group_str(rules):
    assert group_str(rules.by_key('td:E->"hours"')) == "E|D"
    assert group_str(rules.by_key("make-root:E")) == "<create>|"


def test_frequency_laplace_numbers(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = FrequencyModel(
        {("E|D", "make-root:E", gt12.key): 6, ("E|D", "make-root:E", hours.key): 2}
    )
    probs = model.predict(None, rooted, rooted.root, [gt12, hours])
    # (6+1)/(8+2) and (2+1)/(8+2) already sum to one
    assert probs == pytest.approx([0.7, 0.3])


def test_frequency_unseen_cell_is_uniform(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    value = rules.by_key('td:E->"value"')
    model = FrequencyModel({})
    probs = model.predict(None, rooted, rooted.root, [gt12, hours, value])
    assert probs == pytest.approx([1 / 3] * 3)


def test_frequency_renormalizes_over_the_offered_list(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = FrequencyModel(
        {("E|D", "make-root:E", gt12.key): 6, ("E|D", "make-root:E", hours.key): 2}
    )
    # part of the cell mass belongs to a pruned rule; the rest renormalizes
    assert model.predict(None, rooted, rooted.root, [gt12]) == [1.0]


def test_frequency_single_candidate(rules, rooted):
    hours = rules.by_key('td:E->"hours"')
    assert FrequencyModel({}).predict(None, rooted, rooted.root, [hours]) == [1.0]


def test_frequency_fit_counts_positives_only():
    instances = [
        TrainingInstance("E|D", "make-root:E", "a", True),
        TrainingInstance("E|D", "make-root:E", "b", False),
        TrainingInstance("E|D", "make-root:E", "a", True),
    ]
    model = FrequencyModel.fit(instances)
    assert model.counts == {("E|D", "make-root:E", "a"): 2}


def test_frequency_params_round_trip():
    model = FrequencyModel({("E|D", "", "a"): 3, ("E|D", "x", "b"): 1})
    again = FrequencyModel.from_params(model.to_params())
    assert again.counts == model.counts


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=6),
    st.integers(0, 1000),
)
def test_frequency_always_normalizes(counts, parent_salt):
    g = load_grammar('E -> "a" | "b" | "c" | "d" | "e" | "f"\n')
    rs = derive_top_down_rules(g)
    cands = list(rs)[: len(counts)]
    parent = f"p{parent_salt}"
    table = {
        ("E|D", parent, r.key): n for r, n in zip(cands, counts) if n > 0
    }
    ast_rules = derive_creation_rules(g, [CreationMode.ROOT])
    ast = apply_rule(AnnotatedAst.empty(), None, ast_rules[0])
    probs = FrequencyModel(table).predict(None, ast, ast.root, cands)
    assert all(p > 0 for p in probs)
    assert sum(probs) == pytest.approx(1.0)


def test_binary_core_separable_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 0.3, (60, 3)), rng.normal(2, 0.3, (60, 3))])
    y = np.concatenate([np.zeros(60), np.ones(60)])
    core = BinaryLogisticCore.fit(X, y)
    predicted = (core.scores(X) > 0.5).astype(float)
    assert (predicted == y).mean() == 1.0


def test_binary_core_constant_features_learn_the_base_rate():
    X = np.ones((40, 2))
    y = np.array([1.0] * 30 + [0.0] * 10)
    core = BinaryLogisticCore.fit(X, y, epochs=4000)
    assert core.scores(X[:1])[0] == pytest.approx(0.75, abs=1e-3)


def test_binary_core_params_round_trip():
    X = np.random.default_rng(1).standard_normal((20, 2))
    y = (X[:, 0] > 0).astype(float)
    core = BinaryLogisticCore.fit(X, y)
    again = BinaryLogisticCore.from_params(core.to_params())
    assert np.array_equal(again.scores(X), core.scores(X))


def test_softmax_core_separable_data():
    rng = np.random.default_rng(2)
    X = np.concatenate(
        [rng.normal(c, 0.2, (40, 2)) for c in ((-3, 0), (3, 0), (0, 3))]
    )
    labels = ["left"] * 40 + ["right"] * 40 + ["top"] * 40
    core = SoftmaxCore.fit(X, labels)
    hits = 0
    for x, want in zip(X, labels):
        dist = core.distribution(x)
        hits += max(dist, key=dist.get) == want
    assert hits == len(labels)


def test_softmax_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    labels = [("a", "b", "c")[i % 3] for i in range(30)]
    core = SoftmaxCore.fit(X, labels)
    dist = core.distribution(rng.standard_normal(4))
    assert sum(dist.values()) == pytest.approx(1.0)
    assert set(dist) == {"a", "b", "c"}


def test_softmax_params_round_trip():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((24, 3))
    labels = [("u", "v")[i % 2] for i in range(24)]
    core = SoftmaxCore.fit(X, labels)
    again = SoftmaxCore.from_params(core.to_params())
    x = rng.standard_normal(3)
    assert again.distribution(x) == core.distribution(x)


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 3))
    y = (X[:, 1] > 0).astype(float)
    a = BinaryLogisticCore.fit(X, y)
    b = BinaryLogisticCore.fit(X, y)
    assert np.array_equal(a.w, b.w) and a.b == b.b


def test_extraction_labels_every_step(rules):
    target = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))
    target = apply_rule(target, target.root, rules.by_key('td:E->E "> 12"'))
    operand = target.nodes[target.root].children[0]
    target = apply_rule(target, operand, rules.by_key('td:E->"hours"'))
    result = extract_training_set([(None, target)], rules, policy_leftmost)
    assert result.skipped == []
    assert len(result.steps_audited) == 3
    # creation offers 1 rule, each expansion offers the 3 grammar rules
    assert [a.feasible for a in result.steps_audited] == [1, 3, 3]
    positives = [i for i in result.instances if i.polarity]
    assert len(positives) == 3
    assert len(result.instances) == 1 + 3 + 3
    assert {i.label for i in positives} == {
        "make-root:E", 'td:E->E "> 12"', 'td:E->"hours"',
    }
