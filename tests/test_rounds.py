"""One model call per search round: every model gives a decision of a round
what it gives that decision alone, and the logistic model gives, bit for
bit, what its per-decision predict gave before rounds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.condsynth import load_corpus, synthesize_condition, train_cond_models
from progest.datagen import generate_corpus, write_corpus
from progest.models import TableModel, UniformModel
from tests_support import RecordingModel, per_decision_logistic_predict

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
    return trained.logistic, _held_out_rounds(tmp_path_factory, trained)


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
    model, predicts = logistic_rounds
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
            kind, rows = model.encoder(ctx, ast, node, candidates)
            assert probs == per_decision_logistic_predict(model, kind, rows, candidates)


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
