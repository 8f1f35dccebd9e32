"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Every check first passes on a real output, then must reject the same output
with one deliberate fault in it.  Runs in a few seconds from the root of a
checkout; exit code 1 if a check passes a fault or fails a real output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from progest import ambiguity, condsynth  # noqa: E402
from progest.bundle import Bundle, bundle_of  # noqa: E402
from progest.models import ExtractionResult, FrequencyModel  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TRAIN_ATOMS = 150
CERTIFY_BOUND = 9


def _cases():
    """(name, errors, should_fail) for every clean and corrupted output."""
    records = condsynth.load_corpus(os.path.join(ROOT, workloads.CORPUS))
    train = records[:TRAIN_ATOMS]
    trained = condsynth.train_cond_models(train, model_kind="frequency")
    yield "training: clean", checks.check_training(train, trained), False

    ex = trained.extraction

    def with_extraction(**changes):
        fields = dict(instances=list(ex.instances), skipped=list(ex.skipped),
                      steps_audited=list(ex.steps_audited))
        fields.update(changes)
        return dataclasses.replace(trained, extraction=ExtractionResult(**fields))

    flipped = list(ex.instances)
    flipped[0] = dataclasses.replace(flipped[0], polarity=not flipped[0].polarity)
    yield ("training: a positive flipped",
           checks.check_training(train, with_extraction(instances=flipped)), True)
    yield ("training: one instance dropped",
           checks.check_training(train, with_extraction(instances=ex.instances[:-1])),
           True)
    yield ("training: an item skipped",
           checks.check_training(train, with_extraction(skipped=[(3, "stuck")])), True)
    yield ("training: one atom short of the corpus",
           checks.check_training(train[:-1], trained), True)
    counts = dict(trained.frequency.counts)
    key = next(iter(counts))
    counts[key] += 1
    yield ("training: a frequency count changed",
           checks.check_training(train, dataclasses.replace(
               trained, frequency=FrequencyModel(counts))), True)

    data = json.loads(json.dumps(bundle_of(trained, {}).to_dict()))
    yield ("bundle: clean", checks.check_bundle(Bundle.from_dict(data), trained), False)
    group = next(iter(data["model"]["counts"].values()))
    row = next(iter(group.values()))
    row[next(iter(row))] += 1
    yield ("bundle: one count changed",
           checks.check_bundle(Bundle.from_dict(data), trained), True)

    model = trained.model
    ctx = records[TRAIN_ATOMS].context
    allowed = checks.well_typed_renderings(trained.templates, ctx)
    ranking = workloads._predict(ctx, trained.templates, model)
    yield "ranking: clean", checks.check_ranking(ctx, allowed, ranking), False

    def swapped(items, index, **changes):
        out = list(items)
        out[index] = dataclasses.replace(out[index], **changes)
        return out

    index, text = _ill_typed(ctx, ranking)
    yield ("ranking: ill-typed variable swapped in",
           checks.check_ranking(ctx, allowed, swapped(ranking, index, rendered=text)),
           True)
    yield ("ranking: probability raised above its predecessor",
           checks.check_ranking(ctx, allowed, swapped(
               ranking, 1, log_prob=ranking[0].log_prob + 0.1)), True)
    yield ("ranking: a rendering repeated",
           checks.check_ranking(ctx, allowed, swapped(
               ranking, 1, rendered=ranking[0].rendered)), True)
    yield ("ranking: probabilities summing past one",
           checks.check_ranking(ctx, allowed, [
               dataclasses.replace(c, log_prob=math.log(0.5)) for c in ranking[:3]]),
           True)
    yield ("ranking: probability above one",
           checks.check_ranking(ctx, allowed, swapped(ranking, 0, log_prob=0.1)), True)
    yield ("ranking: no candidates", checks.check_ranking(ctx, allowed, []), True)

    exhaustive = checks.exhaustive_log_probs(ctx, trained.templates, model)
    yield "oracle: clean", checks.check_oracle(allowed, exhaustive, ranking), False
    yield ("oracle: beam log p off by 1e-6",
           checks.check_oracle(allowed, exhaustive, swapped(
               ranking, 2, log_prob=ranking[2].log_prob + 1e-6)), True)
    yield ("oracle: exhaustive search missing one tree",
           checks.check_oracle(allowed, exhaustive[1:], ranking), True)
    yield ("oracle: exhaustive search finding one tree twice",
           checks.check_oracle(allowed, exhaustive + exhaustive[-1:], ranking), True)
    yield ("determinism: a pass ranking in another order",
           [] if checks.same_ranking(ranking, ranking[::-1]) else ["differ"], True)

    g = workloads._load_grammar(ROOT)
    sets = workloads.certify_rule_sets(g)
    n_trees = checks.count_trees(g, CERTIFY_BOUND)
    top = ambiguity.check_unambiguous(sets["topdown"], g, max_nodes=CERTIFY_BOUND)
    both = ambiguity.check_unambiguous(sets["both"], g, max_nodes=CERTIFY_BOUND)
    yield "certify top-down: clean", checks.check_certify(top, n_trees, True), False
    yield "certify both: clean", checks.check_certify(both, n_trees, False), False
    yield ("certify: tree count off by one",
           checks.check_certify(top, n_trees + 1, True), True)
    yield ("certify: trees_checked off by one",
           checks.check_certify(dataclasses.replace(
               top, trees_checked=top.trees_checked - 1), n_trees, True), True)
    yield ("certify: a derivation missing",
           checks.check_certify(dataclasses.replace(
               top, derivations_checked=top.derivations_checked - 1), n_trees, True),
           True)
    yield ("certify both: one more underivable tree",
           checks.check_certify(dataclasses.replace(
               both, underivable_trees=both.underivable_trees + 1), n_trees, False),
           True)
    yield ("certify: verdict flipped",
           checks.check_certify(dataclasses.replace(top, unambiguous=False),
                                n_trees, True), True)

    full = ambiguity.check_unambiguous(sets["full"], g, max_nodes=CERTIFY_BOUND)
    yield "witness: clean", checks.check_witness(full, sets["full"]), False
    w = full.witness
    yield ("witness: history b cut short",
           checks.check_witness(dataclasses.replace(full, witness=dataclasses.replace(
               w, derivation_b=w.derivation_b[:-1])), sets["full"]), True)
    yield ("witness: both histories the same",
           checks.check_witness(dataclasses.replace(full, witness=dataclasses.replace(
               w, derivation_b=w.derivation_a)), sets["full"]), True)
    yield ("witness: verdict unambiguous",
           checks.check_witness(dataclasses.replace(full, unambiguous=True),
                                sets["full"]), True)


def _ill_typed(ctx, ranking):
    """(index, new rendering) of the first candidate whose variable can be
    swapped for a declared variable of another type."""
    for index, cand in enumerate(ranking):
        for var in ctx.variables:
            pattern = rf"\b{re.escape(var.name)}\b"
            if not re.search(pattern, cand.rendered):
                continue
            for other in ctx.variables:
                if other.type != var.type:
                    return index, re.sub(pattern, other.name, cand.rendered, count=1)
    raise AssertionError("no candidate with a swappable variable")


def main() -> int:
    bad = 0
    for name, errors, should_fail in _cases():
        ok = bool(errors) == should_fail
        bad += not ok
        detail = errors[0] if errors else "no error"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{bad} of the checks misjudged an output" if bad else "all checks judged right")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
