"""One model call per search round: every model gives a decision of a round
what it gives that decision alone, and the logistic model gives, bit for
bit, what its per-decision predict gave before rounds.  One encoder call
over rounds of many contexts, as training makes, gives each decision the
reference rows of its own context."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.condsynth import (
    CondEncoder,
    build_cond_ruleset,
    load_corpus,
    record_tree,
    synthesize_condition,
    train_cond_models,
)
from progest.datagen import generate_corpus, write_corpus
from progest.features import FeaturePipeline
from progest.models import TableModel, UniformModel, feasible_derivation
from progest.trees import policy_leftmost
from tests_support import (
    RecordingModel,
    encoded_rows,
    per_decision_logistic_predict,
    reference_rows,
)

REPO = Path(__file__).resolve().parent.parent


def _held_out_rounds(tmp_path_factory, trained, n=30):
    """The rounds of ``trained``'s predicts on ``n`` held-out records, one
    entry per predict: its context and its rounds' decisions."""
    path = tmp_path_factory.mktemp("heldout") / "heldout.jsonl"
    write_corpus(path, generate_corpus(n, seed="heldout-1"))
    predicts = []
    for record in load_corpus(path):
        recording = RecordingModel(trained.model)
        synthesize_condition(record.context, trained.templates, recording)
        predicts.append((record.context, recording.rounds))
    return predicts


@pytest.fixture(scope="module")
def logistic_rounds(corpus_records, tmp_path_factory):
    trained = train_cond_models(corpus_records, model_kind="logistic")
    return trained, _held_out_rounds(tmp_path_factory, trained)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_round_scores_each_decision_as_the_per_decision_reference(
    logistic_rounds, data
):
    """The decisions of one held-out predict, from all its rounds, are
    shuffled and split into rounds at random; each round's probabilities
    equal, with ``==``, the per-decision predict of each decision, so no
    decision's product, sum or softmax depends on where it sits in its
    round's matrices or on the kinds beside it."""
    trained, predicts = logistic_rounds
    model, pipe = trained.logistic, trained.pipeline
    ctx, rounds = data.draw(st.sampled_from(predicts))
    pool = [decision for decisions in rounds for decision in decisions]
    order = data.draw(st.permutations(range(len(pool))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pool)), max_size=6)))
    bounds = [0, *cuts, len(pool)]
    for start, stop in zip(bounds, bounds[1:]):
        decisions = [pool[i] for i in order[start:stop]]
        got = model.predict(ctx, decisions)
        assert len(got) == len(decisions)
        for probs, (ast, node, candidates) in zip(got, decisions):
            kind, rows = reference_rows(trained.templates, pipe, ctx, ast, node, candidates)
            assert probs == per_decision_logistic_predict(model, kind, rows, candidates)


@pytest.fixture(scope="module")
def training_rounds(corpus_records, logistic_rounds):
    """Each corpus item's context and the decisions of its replay, the
    rounds training encodes."""
    templates = logistic_rounds[0].templates
    rounds = []
    for record in corpus_records:
        ctx = record.context
        steps = feasible_derivation(
            record_tree(record), build_cond_ruleset(templates, ctx), policy_leftmost,
            ctx, size_limit=30,
        )
        rounds.append(
            (ctx, [(s.ast, s.outcome.target, [p.rule for p in s.outcome.kept]) for s in steps])
        )
    return rounds


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_call_over_rounds_of_many_contexts_gives_each_decision_its_reference_rows(
    logistic_rounds, training_rounds, data
):
    """Rounds drawn from training items and held-out predicts, a context
    often more than once and not always in a row, each a shuffled subset
    of its source's decisions, are encoded in one call by one encoder on a
    fresh or a long-lived pipeline: every decision's span of its kind's
    matrix is, with ``==``, ``reference_rows`` of it in its own context,
    and each kind's spans tile its matrix in decision order."""
    trained, predicts = logistic_rounds
    fitted = trained.pipeline
    pipe = fitted if data.draw(st.booleans()) else FeaturePipeline(fitted.pca, fitted.vocab)
    held = [(ctx, [d for made in rounds for d in made]) for ctx, rounds in predicts]
    sources = training_rounds + held
    rounds = []
    for _ in range(data.draw(st.integers(1, 8))):
        ctx, decisions = sources[data.draw(st.integers(0, len(sources) - 1))]
        order = data.draw(st.permutations(range(len(decisions))))
        kept = order[: data.draw(st.integers(0, len(decisions)))]
        rounds.append((ctx, [decisions[i] for i in kept]))
    encoded = CondEncoder(trained.templates, pipe).encode_rounds(rounds)
    flat = [(ctx, decision) for ctx, decisions in rounds for decision in decisions]
    assert len(encoded.spans) == len(flat)
    for i, (ctx, (ast, node, candidates)) in enumerate(flat):
        kind, rows = encoded_rows(encoded, i)
        want_kind, want = reference_rows(trained.templates, pipe, ctx, ast, node, candidates)
        assert kind == want_kind
        if want is None:
            assert rows is None
        else:
            assert rows.shape == want.shape and rows.dtype == want.dtype
            assert (rows == want).all(), (i, kind)
    for kind, matrix in encoded.rows.items():
        bounds = [(start, stop) for k, start, stop in encoded.spans if k == kind]
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(matrix)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_round_reference_holds_at_one_and_two_blas_threads(threads):
    """The test above in a child interpreter whose BLAS runs ``threads``
    threads, a setting read only when numpy loads."""
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{__file__}::test_a_round_scores_each_decision_as_the_per_decision_reference",
        ],
        cwd=REPO,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_table_frequency_and_uniform_rounds_are_their_decisions(
    corpus_records, tmp_path_factory
):
    """The uniform, table and frequency models give each decision of a
    held-out round what they give it in a round of its own."""
    trained = train_cond_models(corpus_records, model_kind="frequency")
    frequency = trained.model
    table = TableModel(
        {(parent, key): n / 10 for (_, parent, key), n in frequency.counts.items()}
    )
    predicts = _held_out_rounds(tmp_path_factory, trained, n=10)
    rounds = [(ctx, decisions) for ctx, made in predicts for decisions in made]
    assert max(len(decisions) for _, decisions in rounds) > 1
    for model in (UniformModel(), table, frequency):
        for ctx, decisions in rounds:
            alone = [model.predict(ctx, [decision])[0] for decision in decisions]
            assert model.predict(ctx, decisions) == alone
