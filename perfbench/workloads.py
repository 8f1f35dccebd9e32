"""The three workloads: two replays of an APR session and the certifier.

Every workload is a closed loop with one caller: each operation starts when
the previous one ends.  A run is set-up (repeated, median reported), one
build step, then operations until ``seconds`` have passed, in whole rounds.
Times are taken with the calibrator (see ``calibrate.py``); the program's
public functions are called through their modules, so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from math import exp, inf

from progest import ambiguity, bundle, condsynth, datagen, grammar
from progest.constraints import compute_size_bounds
from progest.errors import ContextError
from progest.minilang import join_tokens, parse_condition, tokens_with_vars

import checks
import tracer as tracing
from calibrate import Calibrator

CORPUS = os.path.join("data", "corpus.jsonl")
DEMO_GRAMMAR = os.path.join("data", "demo", "demo_grammar.txt")

# held-out records generated per seed; `&&`/`||` compounds split into more atoms
HELDOUT_RECORDS = 300
SETUP_REPEATS = 3
BUILD_REPEATS = 2
MIN_PASSES = 2
ORACLE_CONTEXTS = 3
CERTIFY_BOUND = 13
CERTIFY_BATCHES = 15
CERTIFY_BATCH_SIZE = 100
MIN_OPS_FOR_P90 = 40


@dataclass
class Ranked:
    """What the checks need of one candidate; holding the trees of every
    ranking would inflate the peak RSS being measured."""

    rendered: str
    log_prob: float

    @property
    def prob(self) -> float:
        return exp(self.log_prob) if self.log_prob > -inf else 0.0


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    per_round_ops: dict[str, float] = field(default_factory=dict)


class _NoTrace:
    def begin_op(self, kind: str) -> None:
        pass


def _timed_phase(tracer):
    """Wrappers in place for the timed phase of a traced run, else nothing."""
    if isinstance(tracer, _NoTrace):
        return contextlib.nullcontext()
    return tracing.install(tracer)


def heldout_seed(seed: int) -> str:
    """The seed the held-out contexts are generated under; a string can never
    equal the corpus seed (an int)."""
    return f"heldout-{seed}"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def _loop_metrics(result: RunResult, times, best_of_rounds: bool) -> None:
    """Latency percentiles and throughput from ``times[round][op]``.

    With ``best_of_rounds`` an operation's latency is the lowest of its
    rounds: a host hiccup during one pass then does not land in the tail.
    Throughput counts every operation of every round.
    """
    done = [t for row in times for t in row if t is not None]
    if best_of_rounds:
        per_op = [[row[j] for row in times if row[j] is not None]
                  for j in range(len(times[0]))]
        latencies = [(min(r for r, _ in ts), min(f for _, f in ts))
                     for ts in per_op if ts]
    else:
        latencies = done
    for key, index in (("raw", 0), ("ref", 1)):
        ms = [t[index] * 1e3 for t in latencies]
        values = {"op_ms_p50": statistics.median(ms),
                  "ops_per_s": len(done) / sum(t[index] for t in done)}
        if len(ms) >= MIN_OPS_FOR_P90:
            values["op_ms_p90"] = _p90(ms)
        for name, value in values.items():
            if key == "raw":
                result.raw[name] = value
            else:
                result.metrics[name] = (value, "1/s" if name == "ops_per_s" else "ms")


def _timed_loop(cal: Calibrator, tracer, kind: str, ops, done, result: RunResult,
                sample_inside: bool = False):
    """Run ``ops`` (zero-argument callables) in rounds until ``done(rounds)``.

    ``sample_inside`` lets the calibrator's alarm sample inside each
    operation; worth it for long ones, while in a 20 ms predict an interrupt
    disturbs more than it tells.  Returns ``outputs[round][op]`` and ``times[round][op]``, the (raw,
    reference) seconds of each operation; an operation that raises is
    counted as failed and has None for both.
    """
    if isinstance(tracer, _NoTrace) and tracing.installed_wrappers():
        result.errors.append("a wrapper is installed in an untraced run")
    outputs: list[list] = []
    times: list[list] = []
    before = cal.sample()
    while not done(len(outputs)):
        round_out, round_times = [], []
        for op in ops:
            tracer.begin_op(kind)
            with cal.sampling(sample_inside):
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception:  # noqa: BLE001 - a failed operation is counted
                    out = None
                    result.failed += 1
                    if result.failed == 1:
                        traceback.print_exc(file=sys.stderr)
                t1 = time.perf_counter()
            after = cal.sample()
            timing = cal.interval(t0, t1, before, after)
            before = after
            result.attempted += 1
            round_out.append(out)
            round_times.append(timing if out is not None else None)
        outputs.append(round_out)
        times.append(round_times)
    return outputs, times


def _timed_batches(cal: Calibrator, fn, batches: int, size: int):
    """Median per-call (raw, reference) seconds of ``fn`` over ``batches``
    timed batches of ``size`` calls; very short steps are timed in batches
    so that one timer tick or one kernel sample does not dominate them."""
    raw, ref = [], []
    for _ in range(batches):
        out, r, f = cal.timed(lambda: [fn() for _ in range(size)][-1])
        raw.append(r / size)
        ref.append(f / size)
    return out, statistics.median(raw), statistics.median(ref)


# ----------------------------------------------------------------------
# session workloads

def _prepare(root: str, seed: int, tmp: str):
    records = condsynth.load_corpus(os.path.join(root, CORPUS))
    path = os.path.join(tmp, "heldout.jsonl")
    datagen.write_corpus(path, datagen.generate_corpus(HELDOUT_RECORDS, heldout_seed(seed)))
    return records, condsynth.load_corpus(path)


def _train_and_save(root: str, records, model_kind: str, path: str):
    """One `progest train` step: fit, then write the canonical bundle."""
    trained = condsynth.train_cond_models(records, model_kind=model_kind)
    config = {"model": model_kind, "seed": 12345, "pca_dims": 16,
              "size_limit": checks.SIZE_LIMIT}
    corpus_sha = bundle.sha256_of_file(os.path.join(root, CORPUS))
    bundle.save_bundle(path, bundle.bundle_of(trained, config, corpus_sha))
    return trained


def _load(path: str):
    loaded = bundle.load_bundle(path)
    return loaded, loaded.build_model()


def _predict(ctx, templates, model):
    found = condsynth.synthesize_condition(
        ctx, templates, model, k=checks.K, widths=checks.WIDTHS,
        size_limit=checks.SIZE_LIMIT,
    )
    return [Ranked(c.rendered, c.log_prob) for c in found.candidates]


def run_session(root: str, model_kind: str, seed: int, seconds: float,
                tracer=None, work_dir: str | None = None) -> RunResult:
    """Train on the corpus, then rank conditions for unseen holes."""
    tracer = tracer or _NoTrace()
    result = RunResult()
    cal = Calibrator(alarm=isinstance(tracer, _NoTrace))
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp, cal, _timed_phase(tracer):
        bundle_path = os.path.join(tmp, "bundle.json")
        prep_raw, prep_ref = [], []
        for _ in range(SETUP_REPEATS):
            tracer.begin_op("setup")
            (records, held), raw, ref = cal.timed(lambda: _prepare(root, seed, tmp))
            prep_raw.append(raw)
            prep_ref.append(ref)

        build_raw, build_ref = [], []
        for _ in range(BUILD_REPEATS):
            tracer.begin_op("train")
            trained = None  # one model alive at a time, as in `progest train`
            trained, raw, ref = cal.timed(
                lambda: _train_and_save(root, records, model_kind, bundle_path))
            build_raw.append(raw)
            build_ref.append(ref)

        load_raw, load_ref = [], []
        for _ in range(SETUP_REPEATS):
            tracer.begin_op("load")
            (loaded, model), raw, ref = cal.timed(lambda: _load(bundle_path))
            load_raw.append(raw)
            load_ref.append(ref)

        templates = loaded.templates
        ops = [
            (lambda ctx=rec.context: _predict(ctx, templates, model)) for rec in held
        ]
        started = time.perf_counter()
        passes, times = _timed_loop(
            cal, tracer, "predict", ops,
            lambda n: n >= MIN_PASSES and time.perf_counter() - started >= seconds,
            result)
        peak = _peak_rss_mb()

    result.metrics["setup_s"] = (
        statistics.median(prep_ref) + statistics.median(load_ref), "s")
    result.raw["setup_s"] = statistics.median(prep_raw) + statistics.median(load_raw)
    result.metrics["build_s"] = (statistics.median(build_ref), "s")
    result.raw["build_s"] = statistics.median(build_raw)
    _loop_metrics(result, times, best_of_rounds=True)
    result.metrics["peak_rss_mb"] = (peak, "MiB")
    result.per_round_ops = {"setup": 1, "train": 1, "load": 1, "predict": len(held)}
    result.info.update(
        atoms=len(held), passes=len(passes),
        mean_variables=statistics.mean(len(r.context.variables) for r in held),
        kernel_ms=cal.mean_kernel_ms(),
    )
    result.errors += _check_session(records, held, trained, loaded, model, passes,
                                    seed, result.info)
    return result


def _check_session(records, held, trained, loaded, model, passes, seed, info):
    errors = [f"training: {e}" for e in checks.check_training(records, trained)]
    errors += [f"bundle: {e}" for e in checks.check_bundle(loaded, trained)]
    first = passes[0]
    for later, rankings in enumerate(passes[1:], start=2):
        for rec, a, b in zip(held, first, rankings):
            if a is not None and b is not None and not checks.same_ranking(a, b):
                errors.append(f"{rec.id}: pass {later} ranks differently from pass 1")

    known = {t.key for t in loaded.templates}
    hits = {1: 0, 10: 0, 50: 0}
    unreachable = 0
    allowed_of = {}
    for rec, ranking in zip(held, first):
        if ranking is None:
            continue
        allowed = allowed_of[rec.id] = checks.well_typed_renderings(
            loaded.templates, rec.context)
        errors += [f"{rec.id}: {e}" for e in
                   checks.check_ranking(rec.context, allowed, ranking)]
        # scored as evaluate_topk scores it: a never-mined template is a miss
        try:
            mined = condsynth.template_of(rec).key in known
        except ContextError:
            mined = False
        if not mined:
            unreachable += 1
            continue
        target = join_tokens(
            [t for t, _ in tokens_with_vars(parse_condition(rec.condition))])
        rank = next((i for i, c in enumerate(ranking, 1) if c.rendered == target), None)
        for cutoff in hits:
            if rank is not None and rank <= cutoff:
                hits[cutoff] += 1

    # oracle and reload comparison on a seeded sample, untimed
    rng = random.Random(f"oracle-{seed}")
    sample = [i for i in rng.sample(range(len(held)), ORACLE_CONTEXTS)
              if first[i] is not None]
    for i in sample:
        rec = held[i]
        exhaustive = checks.exhaustive_log_probs(rec.context, loaded.templates, model)
        errors += [f"{rec.id} oracle: {e}" for e in
                   checks.check_oracle(allowed_of[rec.id], exhaustive, first[i])]
        in_memory = _predict(rec.context, trained.templates, trained.model)
        if not checks.same_ranking(in_memory, first[i]):
            errors.append(f"{rec.id}: reloaded bundle ranks differently from the "
                          "in-memory model")
    info.update(
        unreachable=unreachable,
        precision={c: n / len(held) for c, n in hits.items()},
        oracle_contexts=[held[i].id for i in sample],
        instantiations=statistics.mean(len(a) for a in allowed_of.values()),
    )
    return errors


# ----------------------------------------------------------------------
# certify workload

def _load_grammar(root: str):
    """As `progest check` loads it."""
    with open(os.path.join(root, DEMO_GRAMMAR), "r", encoding="utf-8") as handle:
        return grammar.load_grammar(handle.read())


def certify_rule_sets(g):
    """The two unambiguous sets of acceptance criterion 06, and the full set.

    ``topdown``: top-down rules seeded at the root.  ``both``: both
    directions, minus the one climb through the left slot of a two-operand
    production, seeded at the ``value`` leaf only.  ``full``: every rule.
    """
    modes = grammar.CreationMode
    td = list(grammar.derive_top_down_rules(g))
    bu = list(grammar.derive_bottom_up_rules(g))
    kept = []
    for rule in bu:
        children = rule.replacement.children
        anchor = next((i for i, c in enumerate(children) if c.anchor), None)
        if anchor == 0 and any(not c.symbol.is_terminal for c in children[1:]):
            continue
        kept.append(rule)
    if len(kept) != len(bu) - 1:
        raise ValueError(f"expected to drop one climb, dropped {len(bu) - len(kept)}")
    leaf = [r for r in grammar.derive_creation_rules(g, [modes.LEAF])
            if r.key == "make-leaf:value"]
    root = list(grammar.derive_creation_rules(g, [modes.ROOT]))
    every = list(grammar.derive_creation_rules(g, [modes.ROOT, modes.LEAF]))
    return {
        "topdown": grammar.RuleSet(td + root),
        "both": grammar.RuleSet(td + kept + leaf),
        "full": grammar.RuleSet(td + bu + every),
    }


def _build(g):
    sets = certify_rule_sets(g)
    for name in ("topdown", "both"):
        compute_size_bounds(sets[name])
    return sets


def run_certify(root: str, seed: int, seconds: float, tracer=None) -> RunResult:
    """Certify the two unambiguous rule sets of the demo grammar, one after
    the other; one operation checks both, so its time is not a mixture of two
    modes.  The grammar is fixed, so the inputs do not depend on ``seed``.
    """
    tracer = tracer or _NoTrace()
    result = RunResult()
    cal = Calibrator(alarm=isinstance(tracer, _NoTrace))
    with cal, _timed_phase(tracer):
        tracer.begin_op("setup")
        g, setup_raw, setup_ref = _timed_batches(
            cal, lambda: _load_grammar(root), CERTIFY_BATCHES, CERTIFY_BATCH_SIZE)
        tracer.begin_op("build")
        sets, build_raw, build_ref = _timed_batches(
            cal, lambda: _build(g), CERTIFY_BATCHES, CERTIFY_BATCH_SIZE)

        def certify():
            return [ambiguity.check_unambiguous(sets[name], g, max_nodes=CERTIFY_BOUND)
                    for name in ("topdown", "both")]

        started = time.perf_counter()
        rounds, times = _timed_loop(
            cal, tracer, "certify", [certify],
            lambda n: (time.perf_counter() - started >= seconds
                       and n >= MIN_OPS_FOR_P90),
            result, sample_inside=True)
        peak = _peak_rss_mb()

    result.metrics["setup_s"] = (setup_ref, "s")
    result.raw["setup_s"] = setup_raw
    result.metrics["build_s"] = (build_ref, "s")
    result.raw["build_s"] = build_raw
    _loop_metrics(result, times, best_of_rounds=False)
    result.metrics["peak_rss_mb"] = (peak, "MiB")
    per_batch = CERTIFY_BATCHES * CERTIFY_BATCH_SIZE
    result.per_round_ops = {"setup": 1 / per_batch, "build": 1 / per_batch, "certify": 1}
    result.info.update(rounds=len(rounds), bound=CERTIFY_BOUND,
                       kernel_ms=cal.mean_kernel_ms())

    n_trees = checks.count_trees(g, CERTIFY_BOUND)
    result.info["trees"] = n_trees
    checked = [r[0] for r in rounds if r[0] is not None]
    for index, (name, derivable) in enumerate((("topdown", True), ("both", False))):
        reports = [pair[index] for pair in checked]
        if len({checks.report_key(r) for r in reports}) > 1:
            result.errors.append(f"{name}: reports differ between rounds")
        if reports:
            result.errors += [f"{name}: {e}" for e in
                              checks.check_certify(reports[0], n_trees, derivable)]
            result.info[name] = checks.report_key(reports[0])
    full = ambiguity.check_unambiguous(sets["full"], g, max_nodes=CERTIFY_BOUND)
    result.errors += [f"full: {e}" for e in checks.check_witness(full, sets["full"])]
    return result
