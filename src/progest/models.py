"""Probability models over candidate rules, and training-set extraction.

A model sees the context, the current tree, the targeted node, and the list
of candidate rules that survived pruning, and returns one probability per
candidate.  The fitted models normalize over exactly that list; the fixture
``TableModel`` intentionally returns its raw table entries so hand-written
scenarios multiply out to predictable figures.

Training data comes from replaying known-good trees with
``feasible_derivation``, the one replay the scorer in ``search`` uses too: it
steps through ``constraints.feasible_rules`` exactly as the search does, and
every replay step turns into one positive instance for the applied rule and
one negative for each feasible sibling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

# probe_rules is bound only so that the benchmark's tracer (perfbench) can
# wrap it under this module's name; every probe goes through feasible_rules
from .constraints import (
    ProbeOutcome,
    SearchStep,
    compute_size_bounds,
    feasible_rules,
    probe_rules,
)
from .errors import UnderivableTreeError
from .features import (
    Context,
    FeaturePipeline,
    StepPayload,
    expression_prefix_length,
    extract_features,
)
from .grammar import RewritingRule, RuleSet, group_key_of
from .trees import AnnotatedAst, iter_derivations


def group_str(rule: RewritingRule) -> str:
    name, direction = group_key_of(rule)
    return f"{name}|{direction}"


class ProbabilityModel(Protocol):
    def predict(
        self,
        ctx: Context | None,
        ast: AnnotatedAst,
        node: int | None,
        candidates: Sequence[RewritingRule],
    ) -> list[float]:
        ...


def _parent_key(ast: AnnotatedAst, node: int | None) -> str:
    if node is None:
        return ""
    return ast.nodes[node].origin or ""


def _uniform(n: int) -> list[float]:
    return [1.0 / n] * n if n else []


class UniformModel:
    def predict(self, ctx, ast, node, candidates) -> list[float]:
        return _uniform(len(candidates))


class TableModel:
    """Raw lookup of (introducing rule of the target, candidate rule).

    Entries are returned as-is, unnormalized; missing entries fall back to
    ``default``.  Meant for hand-built fixtures and demo bundles where the
    arithmetic should be visible, not for trained use.
    """

    def __init__(
        self, table: Mapping[tuple[str, str], float], default: float = 0.0
    ) -> None:
        self.table = dict(table)
        self.default = default

    @staticmethod
    def from_nested(nested: Mapping[str, Mapping[str, float]], default: float = 0.0) -> "TableModel":
        flat = {
            (parent, key): float(p)
            for parent, row in nested.items()
            for key, p in row.items()
        }
        return TableModel(flat, default)

    def to_nested(self) -> dict[str, dict[str, float]]:
        nested: dict[str, dict[str, float]] = {}
        for (parent, key), p in self.table.items():
            nested.setdefault(parent, {})[key] = p
        return nested

    def predict(self, ctx, ast, node, candidates) -> list[float]:
        parent = _parent_key(ast, node)
        return [self.table.get((parent, r.key), self.default) for r in candidates]


class FrequencyModel:
    """Smoothed rule frequencies conditioned on the candidate group and the
    rule that introduced the targeted node.

    With ``count`` uses of a rule in a cell totalling ``total``, a list of k
    candidates scores ``(count + 1) / (total + k)`` each, add-one smoothed,
    then renormalizes over the list (pruned rules may hold part of the cell
    mass).  An unseen cell degrades to the uniform distribution.
    """

    def __init__(self, counts: Mapping[tuple[str, str, str], int] | None = None):
        self.counts: dict[tuple[str, str, str], int] = dict(counts or {})
        self._cell_totals: dict[tuple[str, str], int] = {}
        for (group, parent, _key), n in self.counts.items():
            cell = (group, parent)
            self._cell_totals[cell] = self._cell_totals.get(cell, 0) + n

    @staticmethod
    def fit(instances: Iterable["TrainingInstance"]) -> "FrequencyModel":
        counts: dict[tuple[str, str, str], int] = {}
        for inst in instances:
            if not inst.polarity:
                continue
            key = (inst.group, inst.parent, inst.label)
            counts[key] = counts.get(key, 0) + 1
        return FrequencyModel(counts)

    def predict(self, ctx, ast, node, candidates) -> list[float]:
        if not candidates:
            return []
        group = group_str(candidates[0])
        parent = _parent_key(ast, node)
        total = self._cell_totals.get((group, parent), 0)
        k = len(candidates)
        raw = [
            (self.counts.get((group, parent, r.key), 0) + 1.0) / (total + k)
            for r in candidates
        ]
        mass = sum(raw)
        return [p / mass for p in raw]

    def to_params(self) -> dict:
        nested: dict[str, dict[str, dict[str, int]]] = {}
        for (group, parent, key), n in self.counts.items():
            nested.setdefault(group, {}).setdefault(parent, {})[key] = n
        return {"counts": nested}

    @staticmethod
    def from_params(data: Mapping) -> "FrequencyModel":
        counts: dict[tuple[str, str, str], int] = {}
        for group, parents in data.get("counts", {}).items():
            for parent, row in parents.items():
                for key, n in row.items():
                    counts[(group, parent, key)] = int(n)
        return FrequencyModel(counts)


# --------------------------------------------------------------------------
# logistic cores

def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


@dataclass
class BinaryLogisticCore:
    """Plain full-batch logistic regression on standardized features."""

    w: np.ndarray
    b: float
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(
        X: np.ndarray,
        y: np.ndarray,
        *,
        lr: float = 0.4,
        epochs: int = 450,
        l2: float = 1e-3,
    ) -> "BinaryLogisticCore":
        mean, std = _standardize_fit(X)
        Xs = (X - mean) / std
        n, d = Xs.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(epochs):
            p = _sigmoid(Xs @ w + b)
            err = p - y
            w -= lr * (Xs.T @ err / n + l2 * w)
            b -= lr * float(err.mean())
        return BinaryLogisticCore(w, b, mean, std)

    def scores(self, X: np.ndarray) -> np.ndarray:
        Xs = (X - self.mean) / self.std
        return _sigmoid(Xs @ self.w + self.b)

    def to_params(self) -> dict:
        return {
            "w": self.w.tolist(),
            "b": self.b,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    @staticmethod
    def from_params(data: Mapping) -> "BinaryLogisticCore":
        return BinaryLogisticCore(
            np.asarray(data["w"], dtype=float),
            float(data["b"]),
            np.asarray(data["mean"], dtype=float),
            np.asarray(data["std"], dtype=float),
        )


@dataclass
class SoftmaxCore:
    """Multinomial logistic regression over a fixed label alphabet."""

    classes: tuple[str, ...]
    W: np.ndarray  # (features, classes)
    b: np.ndarray  # (classes,)
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(
        X: np.ndarray,
        labels: Sequence[str],
        *,
        lr: float = 0.4,
        epochs: int = 450,
        l2: float = 1e-3,
    ) -> "SoftmaxCore":
        classes = tuple(sorted(set(labels)))
        index = {c: i for i, c in enumerate(classes)}
        mean, std = _standardize_fit(X)
        Xs = (X - mean) / std
        n, d = Xs.shape
        Y = np.zeros((n, len(classes)))
        for row, label in enumerate(labels):
            Y[row, index[label]] = 1.0
        W = np.zeros((d, len(classes)))
        b = np.zeros(len(classes))
        for _ in range(epochs):
            Z = Xs @ W + b
            Z -= Z.max(axis=1, keepdims=True)
            P = np.exp(Z)
            P /= P.sum(axis=1, keepdims=True)
            err = P - Y
            W -= lr * (Xs.T @ err / n + l2 * W)
            b -= lr * err.mean(axis=0)
        return SoftmaxCore(classes, W, b, mean, std)

    def distribution(self, x: np.ndarray) -> dict[str, float]:
        xs = (x - self.mean) / self.std
        z = xs @ self.W + self.b
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        return {c: float(p[i]) for i, c in enumerate(self.classes)}

    def to_params(self) -> dict:
        return {
            "classes": list(self.classes),
            "W": self.W.tolist(),
            "b": self.b.tolist(),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    @staticmethod
    def from_params(data: Mapping) -> "SoftmaxCore":
        return SoftmaxCore(
            tuple(data["classes"]),
            np.asarray(data["W"], dtype=float),
            np.asarray(data["b"], dtype=float),
            np.asarray(data["mean"], dtype=float),
            np.asarray(data["std"], dtype=float),
        )


# step resolver: maps a decision point to (kind, one payload per candidate)
StepResolver = Callable[
    [Context | None, AnnotatedAst, int | None, Sequence[RewritingRule]],
    tuple[str, list[StepPayload]],
]


class LogisticModel:
    """Learned model: binary scorers for creation and variable-slot steps,
    one multinomial over the expression alternatives.

    The expression decision is a single classification, so it trains on the
    candidate-independent prefix of the feature vector (context plus chosen
    variable); candidates are then looked up by their rule key in the class
    distribution.  Missing cores fall back to the uniform distribution and
    are listed in ``untrained_kinds``.
    """

    def __init__(
        self,
        pipeline: FeaturePipeline,
        resolver: StepResolver,
        *,
        creation: BinaryLogisticCore | None = None,
        variable: BinaryLogisticCore | None = None,
        expression: SoftmaxCore | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.resolver = resolver
        self.creation = creation
        self.variable = variable
        self.expression = expression
        self.prefix_len = expression_prefix_length(pipeline.dims)

    @property
    def untrained_kinds(self) -> tuple[str, ...]:
        out = []
        if self.creation is None:
            out.append("creation")
        if self.variable is None:
            out.append("variable")
        if self.expression is None:
            out.append("expression")
        return tuple(out)

    @staticmethod
    def train(
        instances: Iterable["TrainingInstance"],
        pipeline: FeaturePipeline,
        resolver: StepResolver,
        *,
        lr: float = 0.4,
        epochs: int = 450,
        l2: float = 1e-3,
    ) -> "LogisticModel":
        by_kind: dict[str, list[TrainingInstance]] = {}
        for inst in instances:
            if inst.features is not None:
                by_kind.setdefault(inst.kind, []).append(inst)
        creation = variable = expression = None
        for kind in ("creation", "variable"):
            rows = by_kind.get(kind, [])
            if rows:
                X = np.stack([r.features for r in rows])
                y = np.array([1.0 if r.polarity else 0.0 for r in rows])
                core = BinaryLogisticCore.fit(X, y, lr=lr, epochs=epochs, l2=l2)
                if kind == "creation":
                    creation = core
                else:
                    variable = core
        prefix = expression_prefix_length(pipeline.dims)
        rows = [r for r in by_kind.get("expression", []) if r.polarity]
        if rows:
            X = np.stack([r.features[:prefix] for r in rows])
            labels = [r.label for r in rows]
            expression = SoftmaxCore.fit(X, labels, lr=lr, epochs=epochs, l2=l2)
        return LogisticModel(
            pipeline,
            resolver,
            creation=creation,
            variable=variable,
            expression=expression,
        )

    def predict(self, ctx, ast, node, candidates) -> list[float]:
        k = len(candidates)
        if k == 0:
            return []
        kind, payloads = self.resolver(ctx, ast, node, candidates)
        if kind == "expression" and self.expression is not None:
            full = extract_features(payloads[0], self.pipeline)
            dist = self.expression.distribution(full[: self.prefix_len])
            raw = [dist.get(r.key, 0.0) for r in candidates]
            mass = sum(raw)
            if mass <= 0.0:
                return _uniform(k)
            return [p / mass for p in raw]
        core = {"creation": self.creation, "variable": self.variable}.get(kind)
        if core is None:
            return _uniform(k)
        X = np.stack([extract_features(p, self.pipeline) for p in payloads])
        scores = core.scores(X)
        mass = float(scores.sum())
        if mass <= 0.0:
            return _uniform(k)
        return [float(s) / mass for s in scores]

    def to_params(self) -> dict:
        return {
            "creation": self.creation.to_params() if self.creation else None,
            "variable": self.variable.to_params() if self.variable else None,
            "expression": self.expression.to_params() if self.expression else None,
        }

    @staticmethod
    def from_params(
        data: Mapping, pipeline: FeaturePipeline, resolver: StepResolver
    ) -> "LogisticModel":
        def load(name, loader):
            block = data.get(name)
            return loader(block) if block else None

        return LogisticModel(
            pipeline,
            resolver,
            creation=load("creation", BinaryLogisticCore.from_params),
            variable=load("variable", BinaryLogisticCore.from_params),
            expression=load("expression", SoftmaxCore.from_params),
        )


# --------------------------------------------------------------------------
# training-set extraction

@dataclass(frozen=True)
class TrainingInstance:
    features: np.ndarray | None
    group: str
    parent: str
    label: str  # rule key
    polarity: bool
    kind: str = ""


@dataclass(frozen=True)
class StepAudit:
    item: int
    step: int
    kind: str
    group: str
    parent: str
    candidates: int
    feasible: int
    applied_key: str


@dataclass
class ExtractionResult:
    instances: list[TrainingInstance] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)
    steps_audited: list[StepAudit] = field(default_factory=list)


# encoder: maps a decision point to (kind, one feature vector per candidate)
StepEncoder = Callable[
    [Context | None, AnnotatedAst, int | None, Sequence[RewritingRule]],
    tuple[str, list[np.ndarray]],
]


# derivations tried per tree before the replay gives up on it
_MAX_DERIVATIONS = 50


@dataclass(frozen=True)
class ReplayStep:
    """One step of a replayed build: the tree before it, what the step
    offered there, and the index of the derivation's rule in ``outcome.kept``."""

    ast: AnnotatedAst
    outcome: ProbeOutcome
    choice: int


def feasible_derivation(
    tree: AnnotatedAst,
    rs: RuleSet,
    policy,
    ctx: Context | None = None,
    *,
    size_limit: int | None = None,
) -> list[ReplayStep] | None:
    """Replay ``tree`` through the search step, the way the search builds it.

    Derivations come in policy order; the first whose every applied rule
    survives the typed, size-bounded step wins.  An untyped rule set can
    derive a tree several ways that differ only in slot types, and only the
    feasible one is the build the search can make.  None when no derivation
    survives; ``UnderivableTreeError`` when the rule set has none at all.
    """
    step = SearchStep(
        rs,
        var_types=ctx.variable_types if ctx is not None else None,
        result_type=ctx.result_type if ctx is not None else None,
        bounds=compute_size_bounds(rs) if size_limit is not None else None,
        size_limit=size_limit,
    )
    for derivation in iter_derivations(
        tree, rs, policy, max_derivations=_MAX_DERIVATIONS
    ):
        steps: list[ReplayStep] = []
        ast = AnnotatedAst.empty()
        pins: tuple = ()
        for derived in derivation:
            outcome = feasible_rules(ast, step, policy, pins)
            rule_ids = [p.rule.id for p in outcome.kept]
            if derived.application.rule not in rule_ids:
                break
            choice = rule_ids.index(derived.application.rule)
            steps.append(ReplayStep(ast, outcome, choice))
            ast = outcome.kept[choice].ast
            pins = pins + outcome.kept[choice].constraints
        else:
            return steps
    return None


def extract_training_set(
    items: Sequence[tuple[Context, AnnotatedAst]],
    rules_for: RuleSet | Callable[[Context], RuleSet],
    policy,
    *,
    encoder: StepEncoder | None = None,
    size_limit: int | None = None,
) -> ExtractionResult:
    """Replay each finished tree and label every decision along the way.

    Each step contributes one positive instance (the rule that was applied)
    and one negative per other feasible candidate.  The build replayed is
    ``feasible_derivation``'s, the one the search would make; items without
    one are skipped whole and reported, never partially emitted.
    """
    result = ExtractionResult()
    for item_idx, (ctx, tree) in enumerate(items):
        rs = rules_for(ctx) if callable(rules_for) else rules_for
        try:
            steps = feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
        except UnderivableTreeError as err:
            result.skipped.append((item_idx, str(err)))
            continue
        if steps is None:
            result.skipped.append((item_idx, "no derivation survives the pruning"))
            continue
        for step_idx, step in enumerate(steps):
            outcome = step.outcome
            kept = [p.rule for p in outcome.kept]
            applied = kept[step.choice]
            kind = ""
            vecs: list = [None] * len(kept)
            if encoder is not None:
                kind, vecs = encoder(ctx, step.ast, outcome.target, kept)
            gstr = group_str(applied)
            parent = _parent_key(step.ast, outcome.target)
            result.steps_audited.append(
                StepAudit(
                    item_idx,
                    step_idx,
                    kind,
                    gstr,
                    parent,
                    len(kept) + outcome.size_pruned + outcome.constraint_pruned,
                    len(kept),
                    applied.key,
                )
            )
            for idx, (cand, vec) in enumerate(zip(kept, vecs)):
                result.instances.append(
                    TrainingInstance(
                        vec, gstr, parent, cand.key, idx == step.choice, kind
                    )
                )
    return result
