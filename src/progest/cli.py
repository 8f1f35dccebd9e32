"""Command line front end: train, predict, eval, check.

Exit codes form a small scripting contract: 0 on success, 1 when the run
itself succeeded but the outcome is a domain failure (no candidates, an
ambiguous rule set), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ambiguity import check_unambiguous
from .bundle import bundle_of, load_bundle, save_bundle, sha256_of_file
from .condsynth import evaluate_topk, load_corpus, synthesize_condition, train_cond_models
from .constraints import compute_size_bounds
from .errors import BundleError, ContextError, GrammarError, ProgestError, reading
from .features import Context
from .grammar import (
    CreationMode,
    RuleSet,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
)


def _ranged(cast, ok, what: str):
    """An argparse type: ``cast`` the text and refuse it unless ``ok``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_pca_dims = _ranged(int, lambda v: 1 <= v <= 20, "between 1 and 20")
_count = _ranged(int, lambda v: v >= 0, "0 or more")
_positive = _ranged(int, lambda v: v >= 1, "1 or more")
_fraction = _ranged(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")


def _add_search_flags(sub, *, k_default: int) -> None:
    sub.add_argument("--k", type=_count, default=k_default, help="candidates to rank")
    sub.add_argument("--beam", type=_positive, default=5,
                     help="beam width at the creation step")
    sub.add_argument("--beam2", type=_positive, default=200,
                     help="beam width at later steps")
    sub.add_argument("--size-limit", type=_positive, default=30,
                     help="max completed tree size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progest",
        description="most-likely condition synthesis over grammar rewriting rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit models on a corpus and write a bundle")
    train.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    train.add_argument("--bundle", required=True, help="output bundle path")
    train.add_argument("--model", choices=("frequency", "logistic"), default="frequency")
    train.add_argument("--seed", type=int, default=12345)
    train.add_argument("--pca-dims", type=_pca_dims, default=16)
    train.add_argument("--size-limit", type=_positive, default=30,
                       help="max completed tree size")
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="rank conditions for one context")
    predict.add_argument("context", help="context JSON file")
    predict.add_argument("--bundle", required=True, help="trained bundle path")
    predict.add_argument("--no-anti-patterns", action="store_true",
                         help="keep completions the anti-pattern screen would drop")
    _add_search_flags(predict, k_default=10)
    predict.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="held-out precision@k on a corpus")
    ev.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    ev.add_argument("--model", choices=("frequency", "logistic", "uniform"),
                    default="frequency")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--split", type=_fraction, default=0.1, help="held-out fraction")
    ev.add_argument("--repeats", type=_positive, default=1)
    ev.add_argument("--pca-dims", type=_pca_dims, default=16)
    ev.add_argument("--csv", default=None, help="also write precision rows to this CSV")
    _add_search_flags(ev, k_default=50)
    ev.set_defaults(func=cmd_eval)

    check = sub.add_parser("check", help="certify a grammar's rule set and size bounds")
    check.add_argument("--grammar", required=True, help="grammar file")
    check.add_argument("--bound", type=_positive, default=9,
                       help="max tree size to certify")
    check.add_argument("--rules", choices=("topdown", "full"), default="topdown",
                       help="topdown: root creation + top-down rules; "
                            "full: adds bottom-up rules and leaf creations")
    check.set_defaults(func=cmd_check)
    return parser


def cmd_train(args) -> int:
    records = load_corpus(args.corpus)
    if not records:
        print("error: corpus is empty", file=sys.stderr)
        return 1
    trained = train_cond_models(
        records,
        model_kind=args.model,
        pca_dims=args.pca_dims,
        seed=args.seed,
        size_limit=args.size_limit,
    )
    config = {
        "model": args.model,
        "seed": args.seed,
        "pca_dims": args.pca_dims,
        "size_limit": args.size_limit,
    }
    bundle = bundle_of(trained, config, corpus_sha256=sha256_of_file(args.corpus))
    save_bundle(args.bundle, bundle)
    ex = trained.extraction
    print(f"trained {args.model} on {len(records)} atoms "
          f"({len(trained.templates)} templates)")
    if ex is not None:
        # one instance per feasible candidate of each replayed step
        instances = sum(audit.feasible for audit in ex.steps_audited)
        print(f"training instances: {instances} "
              f"({len(ex.skipped)} items skipped)")
    print(f"wrote {args.bundle}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    with reading(args.context, ContextError):
        with open(args.context, "r", encoding="utf-8") as handle:
            ctx = Context.from_dict(json.load(handle))
    with reading(args.bundle, BundleError):
        model = bundle.build_model()
    result = synthesize_condition(
        ctx,
        bundle.templates,
        model,
        k=args.k,
        widths=(args.beam, args.beam2),
        size_limit=args.size_limit,
        screen_null_checks=not args.no_anti_patterns,
    )
    for rank, cand in enumerate(result.candidates, start=1):
        print(f"{rank}\t{cand.prob:.6f}\t{cand.rendered}")
    if args.k > 0 and not result.candidates:
        print("error: no candidates survived the search", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    records = load_corpus(args.corpus)
    if not records:
        print("error: corpus is empty", file=sys.stderr)
        return 1
    report = evaluate_topk(
        records,
        model_kind=args.model,
        split_ratio=args.split,
        seed=args.seed,
        repeats=args.repeats,
        k=args.k,
        widths=(args.beam, args.beam2),
        pca_dims=args.pca_dims,
        size_limit=args.size_limit,
    )
    print(f"model: {report.model_kind}")
    print(f"records: {report.n_records} atoms, "
          f"{report.n_train} train / {report.n_test} test per repeat")
    print(f"repeats: {report.repeats}  split: {report.split_ratio:g}  "
          f"seed: {report.seed}  k: {report.k}")
    print(f"tested: {report.tested} ({report.unreachable} unreachable)")
    for cutoff in sorted(report.precision):
        print(f"precision@{cutoff} = {report.precision[cutoff]:.4f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("model,cutoff,solved,tested,precision\n")
            for cutoff in sorted(report.precision):
                handle.write(f"{report.model_kind},{cutoff},{report.solved[cutoff]},"
                             f"{report.tested},{report.precision[cutoff]:.6f}\n")
        print(f"wrote {args.csv}")
    return 0


def _fmt_bound(value: float) -> str:
    return str(int(value)) if value != float("inf") else "inf"


def _fmt_application(app, rs: RuleSet) -> str:
    where = "-" if app.node is None else str(app.node)
    return f"{rs[app.rule].key}@{where}"


def cmd_check(args) -> int:
    with reading(args.grammar, GrammarError):
        with open(args.grammar, "r", encoding="utf-8") as handle:
            grammar = load_grammar(handle.read())
    rules = list(derive_top_down_rules(grammar))
    modes = [CreationMode.ROOT]
    if args.rules == "full":
        rules += list(derive_bottom_up_rules(grammar))
        modes.append(CreationMode.LEAF)
    rules += list(derive_creation_rules(grammar, modes))
    rs = RuleSet(rules)

    report = check_unambiguous(rs, grammar, max_nodes=args.bound)
    bounds = compute_size_bounds(rs)
    print(f"rules: {len(rs)} ({args.rules})")
    if report.trees_checked == 0:
        print(f"nothing certified (bound {report.max_nodes}): "
              "no tree is within the bound")
    elif report.unambiguous:
        print(f"unambiguous (bound {report.max_nodes})")
    else:
        w = report.witness
        print(f"ambiguous (bound {report.max_nodes})")
        print(f'witness: "{w.rendered}" has two build histories '
              f"(node {w.node}: {w.rule_a} vs {w.rule_b})")
        print("history a: " + " ".join(_fmt_application(a, rs) for a in w.derivation_a))
        print("history b: " + " ".join(_fmt_application(a, rs) for a in w.derivation_b))
    print(f"checked {report.trees_checked} trees, "
          f"{report.derivations_checked} derivations, "
          f"{report.underivable_trees} underivable")
    print("size bounds:")
    for name in sorted(set(bounds.down) | set(bounds.up)):
        print(f"  {name}^D = {_fmt_bound(bounds.down.get(name, float('inf')))}")
        print(f"  {name}^U = {_fmt_bound(bounds.up.get(name, float('inf')))}")
    return 0 if report.unambiguous and report.trees_checked > 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ProgestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
