"""Seeded synthetic corpus generation, plus the small demo fixtures.

No real guard-condition corpus ships with the package, so this module
fabricates one with the correlations the models are supposed to learn:
what a variable is named leans on its type and role, and what a condition
does follows from the variable it guards.  Counting-flavored integers get
compared against zero, index-flavored ones against other integers,
flag-like booleans stand alone, collections ask ``isEmpty`` or ``size``.
A fixed seed makes every byte of the output reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

from .bundle import Bundle, save_bundle
from .features import Context, VariableInfo

DEFAULT_SEED = 20250817
DEFAULT_SIZE = 560
CONNECTIVE_RATE = 0.08

# name pools keyed by type; the second entry is the role driving the
# condition recipes below
_NAME_POOL = {
    "Int": [
        ("count", "counting"), ("idx", "index"), ("hours", "quantity"),
        ("total", "counting"), ("value", "quantity"), ("index", "index"),
        ("itemCount", "counting"), ("offset", "index"), ("age", "quantity"),
        ("numRows", "counting"), ("rowIndex", "index"), ("depth", "quantity"),
        ("pendingJobs", "counting"), ("cursor", "index"),
        ("retries", "quantity"), ("errorCount", "counting"), ("pos", "index"),
        ("limit", "quantity"), ("failures", "counting"), ("col", "index"),
        ("budget", "quantity"), ("warnings", "counting"), ("delay", "quantity"),
    ],
    "Float": [
        ("ratio", "fraction"), ("score", "fraction"), ("rate", "fraction"),
        ("progress", "fraction"),
        ("avgLoad", "measure"), ("weight", "measure"), ("threshold", "measure"),
        ("variance", "measure"),
    ],
    "Boolean": [
        ("done", "flag"), ("isValid", "flag"), ("found", "flag"),
        ("hasNext", "flag"), ("isOpen", "flag"), ("enabled", "flag"),
        ("canRetry", "flag"), ("shouldStop", "flag"), ("closed", "flag"),
        ("ready", "flag"), ("dirty", "flag"), ("hasErrors", "flag"),
        ("canMerge", "flag"),
    ],
    "Str": [
        ("name", "text"), ("key", "text"), ("label", "text"),
        ("path", "text"), ("userName", "text"), ("prefix", "text"),
        ("suffix", "text"), ("title", "text"), ("comment", "text"),
    ],
    "Obj": [
        ("owner", "ref"), ("node", "ref"), ("target", "ref"),
        ("handle", "ref"), ("entry", "ref"), ("holder", "ref"),
        ("snapshot", "ref"),
    ],
    "ObjArray": [
        ("entries", "array"), ("slots", "array"), ("buffers", "array"),
        ("frames", "array"), ("pages", "array"),
    ],
    "IntArray": [
        ("counts", "intarray"), ("offsets", "intarray"),
        ("bucketSizes", "intarray"), ("widths", "intarray"),
    ],
    "ItemList": [
        ("items", "collection"), ("children", "collection"),
        ("rows", "collection"), ("tasks", "collection"),
        ("pendingItems", "collection"), ("results", "collection"),
        ("batches", "collection"),
    ],
    "StrList": [
        ("names", "collection"), ("tags", "collection"), ("labels", "collection"),
        ("paths", "collection"),
    ],
    "UserSet": [
        ("users", "collection"), ("members", "collection"),
        ("visited", "collection"), ("admins", "collection"),
    ],
    "KeyMap": [
        ("cache", "map"), ("registry", "map"), ("lookup", "map"),
        ("settings", "map"), ("mapping", "map"),
    ],
}

# how often each type hosts the condition
_FOCUS_TYPES = [
    ("Int", 0.30), ("Boolean", 0.14), ("Str", 0.11), ("ItemList", 0.08),
    ("StrList", 0.05), ("UserSet", 0.04), ("ObjArray", 0.06), ("IntArray", 0.05),
    ("Float", 0.08), ("Obj", 0.05), ("KeyMap", 0.04),
]

_EXTRA_TYPES = [
    ("Int", 0.34), ("Boolean", 0.12), ("Str", 0.12), ("Float", 0.08),
    ("Obj", 0.08), ("ItemList", 0.08), ("ObjArray", 0.05), ("IntArray", 0.04),
    ("StrList", 0.04), ("UserSet", 0.03), ("KeyMap", 0.02),
]

# condition recipes per role; "{oi}" needs a second integer in scope
_RECIPES = {
    "counting": [
        ("{v} > 0", 0.45), ("{v} == 0", 0.25), ("{v} != 0", 0.12),
        ("{v} >= {oi}", 0.10), ("{v} > 10", 0.08),
    ],
    "index": [
        ("{v} < {oi}", 0.55), ("{v} >= {oi}", 0.20), ("{v} > 0", 0.12),
        ("{v} == {oi}", 0.13),
    ],
    "quantity": [
        ("{v} > 12", 0.35), ("{v} > 0", 0.18), ("{v} > 24", 0.12),
        ("{v} % 2 == 0", 0.10), ("{v} + 1 < {oi}", 0.12),
        ("{v} <= {oi}", 0.13),
    ],
    "fraction": [
        ("{v} > 0.5", 0.45), ("{v} >= 0.0", 0.25), ("{v} < 1.0", 0.30),
    ],
    "measure": [
        ("{v} < 1.0", 0.40), ("{v} >= 0.0", 0.30), ("{v} > 0.5", 0.30),
    ],
    "flag": [("{v}", 0.60), ("{v} == false", 0.25), ("{v} == true", 0.15)],
    "text": [
        ("{v} == null", 0.30), ("{v}.isEmpty()", 0.25),
        ("{v}.length() > 0", 0.20), ("{v} != null", 0.15),
        ("{v}.length() == 0", 0.10),
    ],
    "ref": [("{v} == null", 0.55), ("{v} != null", 0.45)],
    "array": [
        ("{v}.length() > 0", 0.40), ("{v}[{oi}] != null", 0.35),
        ("{v}.length() == 0", 0.25),
    ],
    "intarray": [
        ("{v}.length() > 0", 0.40), ("{v}[{oi}] > 0", 0.35),
        ("{v}[{oi}] == 0", 0.25),
    ],
    "collection": [
        ("{v}.isEmpty()", 0.35), ("{v}.size() > 0", 0.35),
        ("{v}.size() == {oi}", 0.15), ("{v}.size() > {oi}", 0.15),
    ],
    "map": [
        ("{v}.isEmpty()", 0.45), ("{v}.size() > 0", 0.35),
        ("{v}.size() == 0", 0.20),
    ],
}

_CLASSES = [
    ("OrderBook", "BaseService"), ("UserRegistry", "AbstractStore"),
    ("CacheManager", ""), ("ReportBuilder", "BaseBuilder"),
    ("SessionPool", "BaseService"), ("TaskRunner", ""),
    ("InvoiceService", "BaseService"), ("MetricsCollector", "AbstractStore"),
    ("QueueWorker", ""), ("AccountLedger", "BaseLedger"),
]

_METHODS = [
    "processOrders", "validateInput", "refreshCache", "collectMetrics",
    "buildReport", "handleRequest", "updateIndex", "drainQueue",
    "applyChanges", "scanEntries", "mergeResults", "checkState",
]

_VERBS = ["load", "update", "refresh", "init", "validate", "merge", "emit"]
_AFTER_STMTS = ["return", "continue", "break", "throw"]


class _Weighted(NamedTuple):
    """A pool to draw from: its ``(item, weight)`` pairs in order, their
    running weight sums and their total, each added once per pool."""

    pairs: tuple
    sums: tuple[float, ...]
    total: float


def _weighted(pairs) -> _Weighted:
    """The pool of ``pairs``.  Its sums are the additions that a draw once
    made on every call, in the same order, so each roll meets the same
    floats and every corpus byte stays as it was."""
    weights = [w for _, w in pairs]
    return _Weighted(tuple(pairs), tuple(accumulate(weights)), sum(weights))


def _pick(rng: random.Random, pool: _Weighted):
    """The first item whose running sum reaches a uniform roll below the
    total; the last item if rounding leaves the roll above every sum."""
    i = bisect_left(pool.sums, rng.random() * pool.total)
    return pool.pairs[min(i, len(pool.pairs) - 1)][0]


# Zipf-ish subject draws: earlier pool entries are far more likely
_NAME_DRAWS = {
    type_name: _weighted([(e, 1.0 / (1 + i) ** 1.1) for i, e in enumerate(entries)])
    for type_name, entries in _NAME_POOL.items()
}
_FOCUS_DRAW = _weighted(_FOCUS_TYPES)
_EXTRA_DRAW = _weighted(_EXTRA_TYPES)
_RECIPE_DRAWS = {role: _weighted(recipes) for role, recipes in _RECIPES.items()}


def _other_int(rng: random.Random, variables, exclude: str) -> str | None:
    names = [v.name for v in variables if v.type == "Int" and v.name != exclude]
    return rng.choice(names) if names else None


def _make_variable(
    rng: random.Random, name: str, type_name: str, role: str, *,
    focus: bool, ctx_in_loop: bool,
) -> VariableInfo:
    usage = rng.randint(3, 9) if focus else rng.randint(0, 4)
    before = rng.randint(1, 4) if focus else rng.randint(0, 2)
    has_init = rng.random() < (0.75 if type_name in ("Int", "Float") else 0.5)
    init_zero = has_init and role == "counting" and rng.random() < 0.6
    n_defs = rng.randint(0, 3)
    def_sites = tuple(sorted(rng.randint(1, 40) for _ in range(n_defs)))
    return VariableInfo(
        name=name,
        type=type_name,
        is_final=rng.random() < 0.15,
        is_static=rng.random() < 0.08,
        in_loop=ctx_in_loop and (role == "index" or rng.random() < 0.3),
        has_initializer=has_init,
        init_is_zero=init_zero,
        decl_distance=rng.randint(1, 25),
        def_sites=def_sites,
        usage_count=usage,
        usages_before=before,
        usages_after=rng.randint(0, 3),
    )


def _token_windows(rng: random.Random, focus: str, others) -> tuple[tuple, tuple]:
    before = []
    if others and rng.random() < 0.5:
        before += [rng.choice(others), "=", rng.choice(_VERBS), "(", ")", ";"]
    if rng.random() < 0.6:
        before += [rng.choice(_VERBS), "(", focus, ")", ";"]
    before += ["if", "("]
    after = [")", "{", rng.choice(_AFTER_STMTS), ";", "}"]
    if rng.random() < 0.4:
        after += [focus, "=", "0", ";"]
    return tuple(before[-10:]), tuple(after[:10])


def _build_context(rng: random.Random):
    """One context plus its focus variable and that variable's role."""
    focus_type = _pick(rng, _FOCUS_DRAW)
    focus_name, focus_role = _pick(rng, _NAME_DRAWS[focus_type])
    in_loop = rng.random() < (0.7 if focus_role == "index" else 0.3)

    chosen: dict[str, tuple[str, str]] = {focus_name: (focus_type, focus_role)}
    # recipes with an {oi} blank need a second integer around
    if focus_role in ("index", "quantity", "array", "intarray", "collection"):
        pool = [(n, r) for n, r in _NAME_POOL["Int"] if n not in chosen]
        name, role = rng.choice(pool)
        chosen[name] = ("Int", role)
    for _ in range(rng.randint(3, 6)):
        t = _pick(rng, _EXTRA_DRAW)
        candidates = [(n, r) for n, r in _NAME_POOL[t] if n not in chosen]
        if candidates:
            name, role = rng.choice(candidates)
            chosen[name] = (t, role)

    names = list(chosen)
    rng.shuffle(names)
    variables = tuple(
        _make_variable(
            rng, name, chosen[name][0], chosen[name][1],
            focus=name == focus_name, ctx_in_loop=in_loop,
        )
        for name in names
    )
    class_name, superclass = rng.choice(_CLASSES)
    before, after = _token_windows(
        rng, focus_name, [n for n in names if n != focus_name]
    )
    ctx = Context(
        variables=variables,
        result_type="Boolean",
        class_name=class_name,
        superclass_name=superclass,
        method_name=rng.choice(_METHODS),
        method_params=rng.randint(0, 4),
        method_is_static=rng.random() < 0.2,
        in_loop=in_loop,
        before_tokens=before,
        after_tokens=after,
    )
    return ctx, focus_name, focus_role


def _condition_for(rng: random.Random, ctx: Context, focus: str, role: str) -> str | None:
    recipes = _RECIPE_DRAWS[role]
    while recipes.pairs:
        shape = _pick(rng, recipes)
        if "{oi}" in shape:
            other = _other_int(rng, ctx.variables, focus)
            if other is None:
                recipes = _weighted([(s, w) for s, w in recipes.pairs if s != shape])
                continue
            return shape.format(v=focus, oi=other)
        return shape.format(v=focus)
    return None


def generate_corpus(n: int = DEFAULT_SIZE, seed: int = DEFAULT_SEED) -> list[dict]:
    """Raw corpus records; conditions may contain connectives."""
    rng = random.Random(seed)
    records: list[dict] = []
    while len(records) < n:
        ctx, focus, role = _build_context(rng)
        condition = _condition_for(rng, ctx, focus, role)
        if condition is None:
            continue
        if rng.random() < CONNECTIVE_RATE:
            second = None
            others = list(ctx.variables[:])
            others = [v for v in others if v.name != focus]
            rng.shuffle(others)
            for v in others:
                _, r = _role_of(v)
                second = _condition_for(rng, ctx, v.name, r)
                if second is not None:
                    break
            if second is not None:
                if second in _NAME_POOL_FLAT_BOOL and rng.random() < 0.3:
                    second = "!" + second
                op = "&&" if rng.random() < 0.6 else "||"
                condition = f"{condition} {op} {second}"
        records.append(
            {
                "id": f"r{len(records):04d}",
                "condition": condition,
                "context": ctx.to_dict(),
            }
        )
    return records


def _role_of(v: VariableInfo) -> tuple[str, str]:
    for name, role in _NAME_POOL.get(v.type, ()):
        if name == v.name:
            return v.type, role
    return v.type, "ref"


_NAME_POOL_FLAT_BOOL = frozenset(n for n, _ in _NAME_POOL["Boolean"])


def write_corpus(path: str, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


# --------------------------------------------------------------------------
# demo fixtures

DEMO_GRAMMAR = """# toy comparison grammar over two integer variables
E -> E:Int "> 12" :: Boolean
E -> E:Int "> 0" :: Boolean
E -> "hours" :: Int
E -> "value" :: Int
E -> E:Int "+" E:Int :: Int
"""


def demo_context() -> Context:
    return Context(
        variables=(
            VariableInfo(
                "hours", "Int", has_initializer=True, decl_distance=3,
                usage_count=4, usages_before=2,
            ),
            VariableInfo(
                "value", "Int", has_initializer=True, init_is_zero=True,
                decl_distance=7, usage_count=6, usages_before=3,
            ),
        ),
        result_type="Boolean",
        class_name="ShiftPlanner",
        method_name="needsOvertime",
        before_tokens=("hours", "=", "sumShifts", "(", ")", ";", "if", "("),
        after_tokens=(")", "{", "return", ";", "}"),
    )


def demo_bundle() -> Bundle:
    """Fixture bundle: hand-set table odds over the two demo templates."""
    from .condsynth import mine_templates, CorpusRecord

    ctx = demo_context()
    templates = mine_templates(
        [
            CorpusRecord("d1", "hours > 12", ctx),
            CorpusRecord("d2", "value > 0", ctx),
        ]
    )
    table = {
        "": {"make-var:hours": 0.4, "make-var:value": 0.6},
        "make-var:hours": {"expr:V1 > 12::Int": 0.6, "expr:V1 > 0::Int": 0.2},
        "make-var:value": {"expr:V1 > 0::Int": 0.2, "expr:V1 > 12::Int": 0.1},
    }
    return Bundle(
        model_kind="table",
        templates=templates,
        model_params={"table": table},
        config={"note": "hand-set fixture odds for the worked demo"},
    )


def write_demo_files(outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(
        os.path.join(outdir, "demo_grammar.txt"), "w", encoding="utf-8", newline="\n"
    ) as handle:
        handle.write(DEMO_GRAMMAR)
    with open(
        os.path.join(outdir, "demo_context.json"), "w", encoding="utf-8", newline="\n"
    ) as handle:
        json.dump(demo_context().to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    save_bundle(os.path.join(outdir, "demo_bundle.json"), demo_bundle())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="progest-datagen", description="generate the synthetic corpus"
    )
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, default=DEFAULT_SIZE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--demo-dir", default=None,
                        help="also write the demo fixtures to this directory")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error(f"argument --n: {args.n} is not 1 or more")
    records = generate_corpus(args.n, args.seed)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_corpus(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    if args.demo_dir:
        write_demo_files(args.demo_dir)
        print(f"wrote demo fixtures to {args.demo_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
