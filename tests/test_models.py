"""Probability models: table lookup, smoothed counts, logistic cores."""

import os
import subprocess
import sys
from itertools import islice
from math import inf
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramgen import full_set, random_typed_grammar, with_overloads
from progest import features, models
from progest.ambiguity import enumerate_complete_trees
from progest.condsynth import build_cond_ruleset, mine_templates, record_tree
from progest.constraints import is_variable_token
from progest.errors import UnderivableTreeError
from progest.grammar import (
    CreationMode,
    RuleSet,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
    nonterminal,
    terminal,
)
from progest.models import (
    BinaryLogisticCore,
    FrequencyModel,
    SoftmaxCore,
    StepAudit,
    TableModel,
    UniformModel,
    extract_training_set,
    feasible_derivation,
    group_str,
    program_log_probability,
)
from progest.trees import (
    AnnotatedAst,
    Application,
    apply_rule,
    build_complete_ast,
    policy_leftmost,
)
from tests_support import (
    make_hash_policy,
    probe_pins,
    reference_binary_fit,
    reference_feasible_derivation,
    reference_softmax_fit,
    untyped_derivations,
)

REPO = Path(__file__).resolve().parent.parent
GRAMMAR = 'E -> E "> 12" | "hours" | "value"\n'


@pytest.fixture(scope="module")
def rules():
    g = load_grammar(GRAMMAR)
    return RuleSet(
        [*derive_top_down_rules(g), *derive_creation_rules(g, [CreationMode.ROOT])]
    )


@pytest.fixture(scope="module")
def rooted(rules):
    return apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))


def test_uniform_model(rules, rooted):
    model = UniformModel()
    probs = model.predict(None, [(rooted, rooted.root, list(rules)[:4])])[0]
    assert probs == [0.25] * 4
    assert model.predict(None, [(rooted, rooted.root, [])])[0] == []


def test_table_model_lookup_by_origin(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = TableModel.from_nested(
        {"": {"make-root:E": 1.0}, "make-root:E": {gt12.key: 0.3}}
    )
    # creation step: parent key is empty
    creation = (AnnotatedAst.empty(), None, [rules.by_key("make-root:E")])
    assert model.predict(None, [creation])[0] == [1.0]
    # expansion step: parent key is the rule that made the node
    assert model.predict(None, [(rooted, rooted.root, [gt12, hours])])[0] == [0.3, 0.0]


def test_table_model_is_raw_and_unnormalized(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = TableModel({("make-root:E", gt12.key): 0.4, ("make-root:E", hours.key): 0.4})
    probs = model.predict(None, [(rooted, rooted.root, [gt12, hours])])[0]
    assert probs == [0.4, 0.4]


def test_group_str(rules):
    assert group_str(rules.by_key('td:E->"hours"')) == "E|D"
    assert group_str(rules.by_key("make-root:E")) == "<create>|"


def test_frequency_laplace_numbers(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = FrequencyModel(
        {("E|D", "make-root:E", gt12.key): 6, ("E|D", "make-root:E", hours.key): 2}
    )
    probs = model.predict(None, [(rooted, rooted.root, [gt12, hours])])[0]
    # (6+1)/(8+2) and (2+1)/(8+2) already sum to one
    assert probs == pytest.approx([0.7, 0.3])


def test_frequency_unseen_cell_is_uniform(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    value = rules.by_key('td:E->"value"')
    model = FrequencyModel({})
    probs = model.predict(None, [(rooted, rooted.root, [gt12, hours, value])])[0]
    assert probs == pytest.approx([1 / 3] * 3)


def test_frequency_renormalizes_over_the_offered_list(rules, rooted):
    gt12 = rules.by_key('td:E->E "> 12"')
    hours = rules.by_key('td:E->"hours"')
    model = FrequencyModel(
        {("E|D", "make-root:E", gt12.key): 6, ("E|D", "make-root:E", hours.key): 2}
    )
    # part of the cell mass belongs to a pruned rule; the rest renormalizes
    assert model.predict(None, [(rooted, rooted.root, [gt12])])[0] == [1.0]


def test_frequency_single_candidate(rules, rooted):
    hours = rules.by_key('td:E->"hours"')
    assert FrequencyModel({}).predict(None, [(rooted, rooted.root, [hours])])[0] == [1.0]


def test_frequency_fit_counts_positives_only():
    """Each step counts the rule it applied, never its feasible siblings."""
    steps = [
        StepAudit(0, 0, "E|D", "make-root:E", 2, "a", 0),
        StepAudit(1, 0, "E|D", "make-root:E", 2, "a", 1),
        StepAudit(1, 1, "E|U", "make-root:E", 1, "b", 0),
    ]
    model = FrequencyModel.fit(steps)
    assert model.counts == {
        ("E|D", "make-root:E", "a"): 2, ("E|U", "make-root:E", "b"): 1
    }


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
    probs = FrequencyModel(table).predict(None, [(ast, ast.root, cands)])[0]
    assert all(p > 0 for p in probs)
    assert sum(probs) == pytest.approx(1.0)


def test_binary_core_separable_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 0.3, (60, 3)), rng.normal(2, 0.3, (60, 3))])
    y = np.concatenate([np.zeros(60), np.ones(60)])
    core = BinaryLogisticCore.fit(X, y, np.arange(0, len(X), 4))
    predicted = (core.scores(X, [(0, len(X))]) > 0.5).astype(float)
    assert (predicted == y).mean() == 1.0


def test_binary_core_constant_features_learn_the_base_rate():
    X = np.ones((40, 2))
    y = np.array([1.0] * 30 + [0.0] * 10)
    core = BinaryLogisticCore.fit(X, y, np.arange(0, len(X), 4), epochs=4000)
    assert core.scores(X[:1], [(0, 1)])[0] == pytest.approx(0.75, abs=1e-3)


def test_binary_core_params_round_trip():
    X = np.random.default_rng(1).standard_normal((20, 2))
    y = (X[:, 0] > 0).astype(float)
    core = BinaryLogisticCore.fit(X, y, np.arange(0, len(X), 4))
    again = BinaryLogisticCore.from_params(core.to_params(), 2)
    spans = [(0, 5), (5, len(X))]
    assert np.array_equal(again.scores(X, spans), core.scores(X, spans))


def test_softmax_core_separable_data():
    rng = np.random.default_rng(2)
    X = np.concatenate(
        [rng.normal(c, 0.2, (40, 2)) for c in ((-3, 0), (3, 0), (0, 3))]
    )
    labels = ["left"] * 40 + ["right"] * 40 + ["top"] * 40
    core = SoftmaxCore.fit(X, labels)
    hits = 0
    for x, want in zip(X, labels):
        p = core.probabilities(x[None])[0]
        hits += p.argmax() == core.column[want]
    assert hits == len(labels)


def test_softmax_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 4))
    labels = [("a", "b", "c")[i % 3] for i in range(30)]
    core = SoftmaxCore.fit(X, labels)
    p = core.probabilities(rng.standard_normal((1, 4)))[0]
    assert p.sum() == pytest.approx(1.0)
    assert set(core.column) == {"a", "b", "c"}
    assert sorted(core.column.values()) == list(range(len(p)))


def test_softmax_params_round_trip():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((24, 3))
    labels = [("u", "v")[i % 2] for i in range(24)]
    core = SoftmaxCore.fit(X, labels)
    again = SoftmaxCore.from_params(core.to_params(), 3)
    x = rng.standard_normal((2, 3))
    assert again.column == core.column
    assert np.array_equal(again.probabilities(x), core.probabilities(x))


def test_softmax_core_refuses_a_repeated_class():
    """A class named twice would let its later column hide the earlier
    one's probability."""
    rng = np.random.default_rng(4)
    core = SoftmaxCore.fit(rng.standard_normal((24, 3)), [("u", "v")[i % 2] for i in range(24)])
    assert core.column == {"u": 0, "v": 1}
    params = core.to_params()
    params["classes"] = ["u", "u"]
    with pytest.raises(ValueError, match="repeat"):
        SoftmaxCore.from_params(params, 3)


@pytest.mark.parametrize(
    "core, name, value, message",
    [
        (BinaryLogisticCore, "w", [0.5, 0.5], r"w has shape \(2,\), expected \(3,\)"),
        (BinaryLogisticCore, "b", [0.0], r"b has shape \(1,\), expected \(\)"),
        (BinaryLogisticCore, "w", [0.5, inf, 0.5], "w is not finite"),
        (BinaryLogisticCore, "b", float("nan"), "b is not finite"),
        (BinaryLogisticCore, "std", [1.0, 0.0, 1.0], "std is not positive"),
        (SoftmaxCore, "W", [[0.5, 0.5]] * 2, r"W has shape \(2, 2\), expected \(3, 2\)"),
        (SoftmaxCore, "mean", [0.0] * 4, r"mean has shape \(4,\), expected \(3,\)"),
        (SoftmaxCore, "b", [0.0, -inf], "b is not finite"),
        (SoftmaxCore, "std", [1.0, -1.0, 1.0], "std is not positive"),
        (SoftmaxCore, "std", [1.0, float("nan"), 1.0], "std is not finite"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_core_params_that_do_not_fit_its_rows_are_refused(core, name, value, message):
    """A core reads an array only when it fits rows of the width it is
    given (3 here), holds finite numbers and, for ``std``, positive ones."""
    rng = np.random.default_rng(6)
    X = rng.standard_normal((24, 3))
    if core is BinaryLogisticCore:
        fitted = core.fit(X, (X[:, 0] > 0).astype(float), np.arange(0, len(X), 4))
    else:
        fitted = core.fit(X, [("u", "v")[i % 2] for i in range(24)])
    params = fitted.to_params()
    core.from_params(params, 3)
    params[name] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        core.from_params(params, 3)


def test_fit_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 3))
    y = (X[:, 1] > 0).astype(float)
    a = BinaryLogisticCore.fit(X, y, np.arange(0, len(X), 4))
    b = BinaryLogisticCore.fit(X, y, np.arange(0, len(X), 4))
    assert np.array_equal(a.w, b.w) and a.b == b.b


@st.composite
def decision_rows(draw):
    """Rows of decisions of 1 to 8 rows each, each decision's rows in a
    row, with the first row of each: columns shared by the rows of each
    decision, columns of each row's own, and columns of one value; labels
    of both kinds once there are two rows."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=12))
    widths = draw(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)))
    if not any(widths):
        widths = (1, 0, 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_shared, n_own, n_constant = widths
    n = sum(sizes)
    decision = np.repeat(np.arange(len(sizes)), sizes)
    X = np.hstack([
        rng.standard_normal((len(sizes), n_shared))[decision],
        rng.standard_normal((n, n_own)) * rng.uniform(0.1, 10.0, n_own),
        np.repeat(rng.uniform(-5.0, 5.0, (1, n_constant)), n, axis=0),
    ])[:, rng.permutation(sum(widths))]
    y = rng.integers(0, 2, n).astype(float)
    if n > 1:
        y[:2] = (1.0, 0.0)
    return X, y, np.cumsum([0, *sizes[:-1]])


@settings(max_examples=80, deadline=None)
@given(
    data=decision_rows(),
    entries=st.sampled_from([1, 5, 17, features._MATVEC_ENTRIES]),
)
def test_binary_fit_by_decision_matches_the_row_matrix_fit(data, entries):
    """The fit over decisions, whatever its row blocks, computes the row
    matrix fit's weights and bias to 1e-12 and its standardization
    exactly; a column of one value keeps weight 0 exactly."""
    X, y, starts = data
    with mock.patch.object(features, "_MATVEC_ENTRIES", entries):
        core = BinaryLogisticCore.fit(X, y, starts, epochs=15)
    ref = reference_binary_fit(X, y, epochs=15)
    assert np.array_equal(core.mean, ref.mean) and np.array_equal(core.std, ref.std)
    assert np.abs(core.w - ref.w).max() <= 1e-12
    assert abs(core.b - ref.b) <= 1e-12
    assert (core.w[X.std(axis=0) < 1e-12] == 0.0).all()


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 60), st.integers(0, 5), st.integers(0, 2)),
    classes=st.integers(1, 5),
    volume=st.sampled_from([1, 7, 40, features._MATMUL_VOLUME]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_softmax_fit_matches_the_row_matrix_fit(shape, classes, volume, seed):
    """The softmax fit over the live columns, in row blocks of any size,
    computes the row matrix fit's weights and biases to 1e-12; a column
    of one value keeps its weights at 0 exactly."""
    n, live, constant = shape
    rng = np.random.default_rng(seed)
    X = np.hstack([
        rng.standard_normal((n, live)),
        np.repeat(rng.uniform(-5.0, 5.0, (1, constant)), n, axis=0),
    ])[:, rng.permutation(live + constant)]
    labels = [f"c{i}" for i in rng.integers(0, classes, n)]
    with mock.patch.object(features, "_MATMUL_VOLUME", volume):
        core = SoftmaxCore.fit(X, labels, epochs=15)
    ref = reference_softmax_fit(X, labels, epochs=15)
    assert core.classes == ref.classes
    assert np.array_equal(core.mean, ref.mean) and np.array_equal(core.std, ref.std)
    assert np.abs(core.W - ref.W).max(initial=0.0) <= 1e-12
    assert np.abs(core.b - ref.b).max() <= 1e-12
    assert (core.W[X.std(axis=0) < 1e-12] == 0.0).all()


@st.composite
def dependent_columns(draw):
    """Rows whose live columns are linearly dependent once standardized:
    independent normal columns of any scale, then copies of some, sums of
    two, a one-hot group and columns of one value, in shuffled order, with
    labels of 1 to 5 classes.  The rows are often fewer than the live
    columns."""
    n = draw(st.integers(1, 30))
    base, copies, sums, group, constant = draw(st.tuples(
        st.integers(1, 6), st.integers(0, 3), st.integers(0, 3),
        st.integers(0, 4), st.integers(0, 2),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, base)) * rng.uniform(0.1, 10.0, base)

    def pick(k):
        return B[:, rng.integers(0, base, k)]

    X = np.hstack([
        B,
        pick(copies),
        pick(sums) + pick(sums),
        np.eye(group)[rng.integers(0, group, n)] if group else np.zeros((n, 0)),
        np.repeat(rng.uniform(-5.0, 5.0, (1, constant)), n, axis=0),
    ])[:, rng.permutation(base + copies + sums + group + constant)]
    labels = [f"c{i}" for i in rng.integers(0, draw(st.integers(1, 5)), n)]
    return X, labels


@settings(max_examples=80, deadline=None)
@given(
    data=dependent_columns(),
    volume=st.sampled_from([1, 7, 40, features._MATMUL_VOLUME]),
    entries=st.sampled_from([1, 5, 17, features._MATVEC_ENTRIES]),
)
def test_softmax_fit_in_the_row_space_matches_the_row_matrix_fit(data, volume, entries):
    """On rows whose standardized columns are dependent, so that their span
    is narrower than the live columns, the fit in that span computes the
    full-width row matrix fit's weights and biases to 1e-12, whatever its
    row blocks; a column of one value keeps its weights at 0 exactly."""
    X, labels = data
    with (
        mock.patch.object(features, "_MATMUL_VOLUME", volume),
        mock.patch.object(features, "_MATVEC_ENTRIES", entries),
    ):
        core = SoftmaxCore.fit(X, labels, epochs=15)
    ref = reference_softmax_fit(X, labels, epochs=15)
    assert core.classes == ref.classes
    assert np.array_equal(core.mean, ref.mean) and np.array_equal(core.std, ref.std)
    assert np.abs(core.W - ref.W).max(initial=0.0) <= 1e-12
    assert np.abs(core.b - ref.b).max() <= 1e-12
    assert (core.W[X.std(axis=0) < 1e-12] == 0.0).all()


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(0, 12)),
    entries=st.sampled_from([1, 5, 17, features._MATVEC_ENTRIES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_basis_is_an_orthonormal_basis_of_the_rows(shape, entries, seed):
    """On rows of rank k, each a combination of k orthonormal directions
    with weights in [1e-4, 1] (a clear gap between the k singular values
    and rounding, narrow enough that one Gram–Schmidt pass loses
    orthogonality), scaled by 1e-3 to 1e3 and three repeated, the basis
    has k orthonormal columns to 1e-12 and rebuilds each row to 1e-10 of
    its norm, whatever its row blocks."""
    n, width, rank = shape
    rank = min(rank, n, width)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    Q = np.linalg.qr(rng.standard_normal((width, rank)))[0]
    X = (U * 10.0 ** rng.uniform(-4.0, 0.0, rank)) @ Q.T
    X *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    X = np.vstack([X, X[rng.integers(0, n, 3)]])[rng.permutation(n + 3)]
    with mock.patch.object(features, "_MATVEC_ENTRIES", entries):
        V = models._row_basis(X)
    assert V.shape == (width, rank)
    assert np.abs(V.T @ V - np.eye(rank)).max(initial=0.0) <= 1e-12
    rebuilt = np.linalg.norm(X - (X @ V) @ V.T, axis=1)
    assert (rebuilt <= 1e-10 * np.linalg.norm(X, axis=1)).all()


def test_logistic_bundle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``progest train --model logistic`` on the bundled corpus writes the
    same bytes in child interpreters whose BLAS runs 1 and 2 threads, a
    setting read only when numpy loads."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        bundle = tmp_path / f"logistic-{threads}.json"
        done = subprocess.run(
            [
                sys.executable, "-m", "progest", "train",
                "--corpus", str(REPO / "data" / "corpus.jsonl"),
                "--model", "logistic", "--bundle", str(bundle),
            ],
            cwd=tmp_path,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        written.append(bundle.read_bytes())
    assert written[0] == written[1]


def test_extraction_labels_every_step(rules):
    target = apply_rule(AnnotatedAst.empty(), None, rules.by_key("make-root:E"))
    target = apply_rule(target, target.root, rules.by_key('td:E->E "> 12"'))
    operand = target.nodes[target.root].children[0]
    target = apply_rule(target, operand, rules.by_key('td:E->"hours"'))
    result = extract_training_set([(None, target)], lambda _: rules, policy_leftmost)
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


def test_tree_without_a_build_scores_minus_inf_and_is_skipped(rules, rooted):
    """One outcome for a tree the rules cannot derive: the walk raises, the
    scorer gives -inf and extraction skips the item whole with the walk's
    message."""
    stray = build_complete_ast((nonterminal("E"), [(terminal("minutes"), [])]))
    with pytest.raises(UnderivableTreeError) as err:
        feasible_derivation(stray, rules, policy_leftmost)
    assert program_log_probability(stray, rules, UniformModel()) == -inf
    hours = apply_rule(rooted, rooted.root, rules.by_key('td:E->"hours"'))
    result = extract_training_set(
        [(None, stray), (None, hours)], lambda _: rules, policy_leftmost
    )
    assert result.skipped == [(0, str(err.value))]
    assert {a.item for a in result.steps_audited} == {1}


def _assert_same_replay(got, want):
    """Step by step: the tree before, target, kept rule ids, pruned counts,
    choice and the pins the step was probed under."""
    assert len(got) == len(want)
    pins = ()
    for step, (ast, outcome, choice, want_pins) in zip(got, want):
        assert step.ast == ast
        assert step.outcome.target == outcome.target
        assert [p.id for p in step.outcome.kept] == [p.id for p in outcome.kept]
        assert (step.outcome.size_pruned, step.outcome.constraint_pruned) == (
            outcome.size_pruned,
            outcome.constraint_pruned,
        )
        assert step.choice == choice
        assert step.application == Application(outcome.target, outcome.kept[choice].id)
        assert pins == want_pins
        pins = pins + probe_pins(step.outcome.kept[step.choice])


_TYPES = ("Int", "Str", "Bool")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([None, 5, 7]),
    st.booleans(),
    st.data(),
)
def test_typed_walk_matches_the_restarting_replay(seed, middle, size_limit, hashed, data):
    """The first derivation of the typed walk is the replay that restarts on
    each untyped derivation until one survives typing.  Overloaded rules
    (twins that differ only in slot types) give trees several derivations
    that differ only in types, and often the first fails typing.  Where the
    restarting replay finds nothing, the walk raises."""
    g = random_typed_grammar(seed, typed_leaves=True)
    rs = full_set(g)
    if middle:
        rs = RuleSet([*rs, *derive_creation_rules(g, [CreationMode.MIDDLE])])
    rs = with_overloads(rs, seed)
    ctx = SimpleNamespace(
        variable_types={
            t.name: data.draw(st.sampled_from(_TYPES))
            for t in g.terminals
            if is_variable_token(t.name) and data.draw(st.booleans())
        },
        result_type=data.draw(st.sampled_from((None,) + _TYPES)),
    )
    policy = make_hash_policy(seed) if hashed else policy_leftmost
    pool = list(islice(enumerate_complete_trees(g, 7), 60))
    picks = data.draw(
        st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=8, unique=True)
    )
    for tree in (pool[i] for i in picks):
        want = reference_feasible_derivation(
            tree, rs, policy, ctx, size_limit=size_limit
        )
        if want is None:
            with pytest.raises(UnderivableTreeError):
                feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
        else:
            got = feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
            _assert_same_replay(got, want)


def test_typed_walk_replays_the_corpus_as_the_restarting_replay(corpus_records):
    """Every corpus item replays identically through the typed walk and the
    restarting replay, at training settings; on some the first untyped
    derivation fails typing."""
    templates = mine_templates(corpus_records)
    restarted = 0
    for record in corpus_records:
        ctx = record.context
        rs = build_cond_ruleset(templates, ctx)
        tree = record_tree(record)
        want = reference_feasible_derivation(
            tree, rs, policy_leftmost, ctx, size_limit=30
        )
        got = feasible_derivation(tree, rs, policy_leftmost, ctx, size_limit=30)
        _assert_same_replay(got, want)
        first = next(untyped_derivations(tree, rs, policy_leftmost))
        restarted += [s.application for s in first] != [s.application for s in got]
    assert restarted > 0
