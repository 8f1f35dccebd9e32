"""Probability models over candidate rules, and training-set extraction.

A model's one entry, ``predict``, takes the context and a search round's
decisions, each the current tree, the targeted node and the list of
candidate rules that survived pruning (a ``Decision``), and returns one
probability list per decision, one probability per candidate.  The fitted
models normalize over exactly that list; the fixture ``TableModel``
intentionally returns its raw table entries so hand-written scenarios
multiply out to predictable figures.  A decision's probabilities do not
depend on the other decisions of its round: the logistic model scores a
round with one encoding and one pass of each core, and gives each
decision, bit for bit, what a round of that decision alone gives.

Known trees are replayed with ``feasible_derivation``, the first derivation
of ``trees.iter_derivations``, a walk that steps through
``constraints.feasible_rules`` exactly as the search does.  The scorer
(``program_log_probability``) multiplies a model's scores along it, so it
gives each tree the search's probability without importing ``search``.
For training, every replay step is recorded once, as a ``StepAudit``
that both fitted models train from; with an encoder it carries the step's
kind and feature rows, built by the same encoder (``condsynth.CondEncoder``)
that the logistic model predicts through.  Each step also yields one
labelled instance per feasible candidate, the applied one positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

# compute_size_bounds and probe_rules are bound only so that the benchmark's
# tracer (perfbench) can wrap them under this module's name; every step comes
# from SearchStep and every probe goes through feasible_rules
from .constraints import (
    SearchStep,
    compute_size_bounds,
    feasible_rules,
    probe_rules,
)
from .errors import UnderivableTreeError
# extract_features is bound only so that the benchmark's tracer (perfbench)
# can wrap it under this module's name; every decision is encoded by the
# encoder a LogisticModel keeps, which calls it from condsynth
from .features import Context, extract_features, number_array, string_tuple
from .grammar import RewritingRule, RuleSet
# iter_derivations is called by this name so that the tracer counts replays
from .trees import AnnotatedAst, DerivationStep, iter_derivations, policy_leftmost


def group_str(rule: RewritingRule) -> str:
    """The model cell name of the rule's group: ``"E|D"`` for the pattern
    ``E`` marked D, ``"<create>|"`` for the creations."""
    if rule.pattern is None:
        return "<create>|"
    symbol, direction = rule.pattern
    return f"{symbol.name}|{direction.value}"


def _parent_key(ast: AnnotatedAst, node: int | None) -> str:
    if node is None:
        return ""
    return ast.nodes[node].origin or ""


def _uniform(n: int) -> list[float]:
    return [1.0 / n] * n if n else []


# one decision of a search round: the current tree, the targeted node (None
# for the empty tree) and the candidate rules that survived pruning
Decision = tuple[AnnotatedAst, int | None, Sequence[RewritingRule]]


class UniformModel:
    def predict(self, ctx, decisions: Sequence[Decision]) -> list[list[float]]:
        return [_uniform(len(candidates)) for _ast, _node, candidates in decisions]


class TableModel:
    """Raw lookup of (introducing rule of the target, candidate rule).

    Entries are returned as-is, unnormalized; a missing entry scores 0.
    Meant for hand-built fixtures and demo bundles where the arithmetic
    should be visible, not for trained use.
    """

    def __init__(self, table: Mapping[tuple[str, str], float]) -> None:
        self.table = dict(table)

    @staticmethod
    def from_nested(nested: Mapping[str, Mapping[str, float]]) -> "TableModel":
        flat: dict[tuple[str, str], float] = {}
        for parent, row in nested.items():
            for key, p in row.items():
                # a bool is no number
                if type(p) not in (int, float) or not 0 <= p < math.inf:
                    raise ValueError(
                        f"entry of {key!r} must be a finite non-negative number"
                    )
                flat[(parent, key)] = float(p)
        return TableModel(flat)

    def predict(self, ctx, decisions: Sequence[Decision]) -> list[list[float]]:
        table = self.table
        found = []
        for ast, node, candidates in decisions:
            parent = _parent_key(ast, node)
            found.append([table.get((parent, r.key), 0.0) for r in candidates])
        return found


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
    def fit(steps: Iterable["StepAudit"]) -> "FrequencyModel":
        counts: dict[tuple[str, str, str], int] = {}
        for s in steps:
            key = (s.group, s.parent, s.applied_key)
            counts[key] = counts.get(key, 0) + 1
        return FrequencyModel(counts)

    def predict(self, ctx, decisions: Sequence[Decision]) -> list[list[float]]:
        counts = self.counts
        found = []
        for ast, node, candidates in decisions:
            if not candidates:
                found.append([])
                continue
            group = group_str(candidates[0])
            parent = _parent_key(ast, node)
            total = self._cell_totals.get((group, parent), 0)
            k = len(candidates)
            raw = [
                (counts.get((group, parent, r.key), 0) + 1.0) / (total + k)
                for r in candidates
            ]
            mass = sum(raw)
            found.append([p / mass for p in raw])
        return found

    def to_params(self) -> dict:
        nested: dict[str, dict[str, dict[str, int]]] = {}
        for (group, parent, key), n in self.counts.items():
            nested.setdefault(group, {}).setdefault(parent, {})[key] = n
        return {"counts": nested}

    @staticmethod
    def from_params(data: Mapping) -> "FrequencyModel":
        counts: dict[tuple[str, str, str], int] = {}
        for group, parents in data["counts"].items():
            for parent, row in parents.items():
                for key, n in row.items():
                    # a count is a non-negative integer; a bool is none
                    if type(n) is not int or n < 0:
                        raise ValueError(
                            f"count of {key!r} must be a non-negative integer"
                        )
                    counts[(group, parent, key)] = n
        return FrequencyModel(counts)


# --------------------------------------------------------------------------
# logistic cores

# the step size and the L2 weight of every full-batch gradient descent fit
_LR, _L2 = 0.4, 1e-3


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
        epochs: int = 450,
    ) -> "BinaryLogisticCore":
        mean, std = _standardize_fit(X)
        Xs = (X - mean) / std
        n, d = Xs.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(epochs):
            p = _sigmoid(Xs @ w + b)
            err = p - y
            w -= _LR * (Xs.T @ err / n + _L2 * w)
            b -= _LR * float(err.mean())
        return BinaryLogisticCore(w, b, mean, std)

    def scores(self, X: np.ndarray, spans: Sequence[tuple[int, int]]) -> np.ndarray:
        """The score of each row of ``X`` that a span covers.  Each
        ``(start, stop)`` span of rows takes its own product with ``w``, so
        a row scores as it does in a matrix of its span's rows alone (one
        product over rows of several spans may round differently); the
        rest is elementwise."""
        Xs = (X - self.mean) / self.std
        z = np.empty(len(Xs))
        for start, stop in spans:
            z[start:stop] = Xs[start:stop] @ self.w
        return _sigmoid(z + self.b)

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
            number_array(data["w"], "w"),
            float(number_array(data["b"], "b")),
            number_array(data["mean"], "mean"),
            number_array(data["std"], "std"),
        )


@dataclass
class SoftmaxCore:
    """Multinomial logistic regression over a fixed label alphabet.

    ``column`` maps each class to its column of ``W``; a class may appear
    once only, or a later column would hide an earlier one's probability.
    """

    classes: tuple[str, ...]
    W: np.ndarray  # (features, classes)
    b: np.ndarray  # (classes,)
    mean: np.ndarray
    std: np.ndarray
    column: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.column = {c: i for i, c in enumerate(self.classes)}
        if len(self.column) != len(self.classes):
            raise ValueError("expression classes repeat a class")

    @staticmethod
    def fit(
        X: np.ndarray,
        labels: Sequence[str],
        *,
        epochs: int = 450,
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
            W -= _LR * (Xs.T @ err / n + _L2 * W)
            b -= _LR * err.mean(axis=0)
        return SoftmaxCore(classes, W, b, mean, std)

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        """The probability of each class, in ``classes`` order, for each row
        of ``X``.  Each row takes its own product with ``W``, so it gets what
        it gets alone; the softmax is elementwise and row-wise."""
        Xs = (X - self.mean) / self.std
        Z = np.empty((len(Xs), len(self.classes)))
        for i, xs in enumerate(Xs):
            Z[i] = xs @ self.W
        Z += self.b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        return P

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
            string_tuple(data["classes"], "classes"),
            number_array(data["W"], "W"),
            number_array(data["b"], "b"),
            number_array(data["mean"], "mean"),
            number_array(data["std"], "std"),
        )


class EncodedRound(NamedTuple):
    """A round's feature rows: one matrix per decision kind, and for each
    decision its kind and the ``(start, stop)`` range of its rows in that
    kind's matrix (``("other", 0, 0)`` for a decision no core scores)."""

    rows: dict[str, np.ndarray]
    spans: list[tuple[str, int, int]]


class StepEncoder(Protocol):
    """Maps decision points to their kind and feature rows
    (``condsynth.CondEncoder``): a round at once, or one decision, as a
    round of one, with its kind and its rows (None where no core scores
    it)."""

    def encode_round(
        self, ctx: Context | None, decisions: Sequence[Decision]
    ) -> EncodedRound: ...

    def __call__(
        self,
        ctx: Context | None,
        ast: AnnotatedAst,
        node: int | None,
        candidates: Sequence[RewritingRule],
    ) -> tuple[str, np.ndarray | None]: ...


class LogisticModel:
    """Learned model: binary scorers for creation and variable-slot steps,
    one multinomial over the expression alternatives.

    Its ``encoder`` is the one way a decision becomes model input, for
    training and prediction alike.  The expression decision is a single
    classification over its candidate-independent row (context plus chosen
    variable); candidates are then looked up by their rule key in the class
    distribution.  A decision the encoder gives no rows, or whose core is
    missing, gets the uniform distribution.
    """

    def __init__(
        self,
        encoder: StepEncoder,
        *,
        creation: BinaryLogisticCore | None = None,
        variable: BinaryLogisticCore | None = None,
        expression: SoftmaxCore | None = None,
    ) -> None:
        self.encoder = encoder
        self.creation = creation
        self.variable = variable
        self.expression = expression

    @staticmethod
    def train(
        steps: Iterable["StepAudit"],
        encoder: StepEncoder,
        *,
        epochs: int = 450,
    ) -> "LogisticModel":
        """Fit each core on the rows of the replayed steps of its kind, in
        replay order; steps without rows (no core scores them) are skipped."""
        by_kind: dict[str, list[StepAudit]] = {}
        for s in steps:
            if s.rows is not None:
                by_kind.setdefault(s.kind, []).append(s)
        cores: dict[str, BinaryLogisticCore] = {}
        for kind in ("creation", "variable"):
            found = by_kind.get(kind, [])
            if found:
                X = np.vstack([s.rows for s in found])
                y = np.concatenate(
                    [np.arange(len(s.rows)) == s.choice for s in found]
                ).astype(float)
                cores[kind] = BinaryLogisticCore.fit(X, y, epochs=epochs)
        expression = None
        found = by_kind.get("expression", [])
        if found:
            X = np.vstack([s.rows for s in found])
            labels = [s.applied_key for s in found]
            expression = SoftmaxCore.fit(X, labels, epochs=epochs)
        return LogisticModel(
            encoder,
            creation=cores.get("creation"),
            variable=cores.get("variable"),
            expression=expression,
        )

    def predict(self, ctx, decisions: Sequence[Decision]) -> list[list[float]]:
        """One probability list per decision of the round.

        The round is encoded into one matrix per kind, and each core
        standardizes its matrix once.  A creation or variable decision's
        rows take their product with the weights on their own row range
        (``BinaryLogisticCore.scores``) and are normalized over the
        decision; an expression decision's one row is a class distribution
        whose entries are looked up by each candidate's rule key.  A
        decision whose core is missing, the encoder gives no rows, or
        whose scores have no mass, gets the uniform distribution.
        """
        rows, spans = self.encoder.encode_round(ctx, decisions)
        scored: dict[str, tuple[np.ndarray, list[float]]] = {}
        for kind, core in (("creation", self.creation), ("variable", self.variable)):
            if kind in rows and core is not None:
                ranges = [(start, stop) for k, start, stop in spans if k == kind]
                scores = core.scores(rows[kind], ranges)
                scored[kind] = scores, scores.tolist()
        expression = self.expression if "expression" in rows else None
        if expression is not None:
            dists = expression.probabilities(rows["expression"]).tolist()
            column = expression.column
        found = []
        for (kind, start, stop), (_ast, _node, candidates) in zip(spans, decisions):
            k = len(candidates)
            if kind in scored:
                scores, listed = scored[kind]
                raw = listed[start:stop]
                # numpy's sum, as a decision scored alone is summed
                mass = float(scores[start:stop].sum())
            elif kind == "expression" and expression is not None:
                p = dists[start]
                raw = [p[column[r.key]] if r.key in column else 0.0 for r in candidates]
                mass = sum(raw)
            else:
                found.append(_uniform(k))
                continue
            found.append([p / mass for p in raw] if mass > 0.0 else _uniform(k))
        return found

    def to_params(self) -> dict:
        return {
            "creation": self.creation.to_params() if self.creation else None,
            "variable": self.variable.to_params() if self.variable else None,
            "expression": self.expression.to_params() if self.expression else None,
        }

    @staticmethod
    def from_params(data: Mapping, encoder: StepEncoder) -> "LogisticModel":
        def load(name, loader):
            block = data[name]
            return None if block is None else loader(block)

        return LogisticModel(
            encoder,
            creation=load("creation", BinaryLogisticCore.from_params),
            variable=load("variable", BinaryLogisticCore.from_params),
            expression=load("expression", SoftmaxCore.from_params),
        )


# --------------------------------------------------------------------------
# training-set extraction

@dataclass(frozen=True, slots=True)
class TrainingInstance:
    group: str
    parent: str
    label: str  # rule key
    polarity: bool


@dataclass(frozen=True, slots=True)
class StepAudit:
    """One replayed step, the record both fitted models train from.
    ``choice`` indexes the applied rule among the ``feasible`` kept; ``kind``
    and ``rows`` are what the encoder gives the step (None without one, rows
    None where no core scores it).  Rows take no part in equality."""

    item: int
    step: int
    group: str
    parent: str
    candidates: int
    feasible: int
    applied_key: str
    choice: int
    kind: str | None
    rows: np.ndarray | None = field(compare=False)


@dataclass
class ExtractionResult:
    instances: list[TrainingInstance] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)
    steps_audited: list[StepAudit] = field(default_factory=list)


def feasible_derivation(
    tree: AnnotatedAst,
    rs: RuleSet,
    policy,
    ctx: Context | None = None,
    *,
    size_limit: int | None = None,
) -> list[DerivationStep]:
    """The build of ``tree`` the search makes: the first derivation of the
    typed walk, whose steps carry their ``outcome`` and ``choice``.  Raises
    ``UnderivableTreeError`` when no derivation survives every step."""
    step = SearchStep(rs, ctx, size_limit)
    return next(iter_derivations(
        tree, lambda grown_by: feasible_rules(grown_by, step, policy)
    ))


def program_log_probability(
    tree: AnnotatedAst,
    rs: RuleSet,
    model,
    ctx: Context | None = None,
    *,
    policy=policy_leftmost,
    size_limit: int | None = None,
) -> float:
    """Log probability the model assigns to the build of ``tree`` the search
    makes.

    Replays ``feasible_derivation`` and multiplies the model's scores over
    the candidates each step offers, so a tree the search outputs gets the
    probability the search gave it.  Comes back ``-inf`` when the search
    cannot build the tree or some step of its build is scored zero.
    """
    try:
        steps = feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
    except UnderivableTreeError:
        return -math.inf
    total = 0.0
    for step in steps:
        kept = [p.rule for p in step.outcome.kept]
        decision = (step.ast, step.outcome.target, kept)
        p = model.predict(ctx, [decision])[0][step.choice]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def extract_training_set(
    items: Sequence[tuple[Context, AnnotatedAst]],
    rules_for: Callable[[Context], RuleSet],
    policy,
    *,
    encoder: StepEncoder | None = None,
    size_limit: int | None = None,
) -> ExtractionResult:
    """Replay each finished tree, in the rule set ``rules_for`` gives for its
    context, and label every decision along the way.

    Each step is recorded once as a ``StepAudit``, carrying the kind and
    rows the ``encoder`` gives it when there is one, and contributes one
    positive instance (the rule that was applied) and one negative per
    other feasible candidate.
    The build replayed is ``feasible_derivation``'s, the one the search
    would make; items without one are skipped whole with the walk's reason,
    never partially emitted.
    """
    result = ExtractionResult()
    # instances are values and most repeat across items (the bundled
    # corpus makes 7 592, of which 1 057 differ), so each is made once
    made: dict[tuple, TrainingInstance] = {}
    for item_idx, (ctx, tree) in enumerate(items):
        rs = rules_for(ctx)
        try:
            steps = feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
        except UnderivableTreeError as err:
            result.skipped.append((item_idx, str(err)))
            continue
        for step_idx, step in enumerate(steps):
            outcome = step.outcome
            kept = [p.rule for p in outcome.kept]
            applied = kept[step.choice]
            kind = rows = None
            if encoder is not None:
                kind, rows = encoder(ctx, step.ast, outcome.target, kept)
            gstr = group_str(applied)
            parent = _parent_key(step.ast, outcome.target)
            result.steps_audited.append(
                StepAudit(
                    item_idx,
                    step_idx,
                    gstr,
                    parent,
                    len(kept) + outcome.size_pruned + outcome.constraint_pruned,
                    len(kept),
                    applied.key,
                    step.choice,
                    kind,
                    rows,
                )
            )
            for idx, cand in enumerate(kept):
                fields = (gstr, parent, cand.key, idx == step.choice)
                instance = made.get(fields)
                if instance is None:
                    instance = made[fields] = TrainingInstance(*fields)
                result.instances.append(instance)
    return result
