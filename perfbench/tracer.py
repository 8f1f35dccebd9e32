"""Spans and counts for the traced run, recorded from outside the program.

Each wrapper replaces a public function under the name its caller looks up:
``search`` and ``models`` hold their own reference to ``probe_rules``, so
patching ``constraints.probe_rules`` alone would miss every call.  A span
records its name, start, end, the span that was open when it began (its
cause) and the operation it belongs to.  Spans live in flat arrays in memory
and are written out once, when the run ends.

Generator functions (``iter_derivations``, ``enumerate_complete_trees``) get
one span per resumption, so the consumer's work between two items is not
charged to them; their ``.calls`` counts generator creations.

``install`` is a context manager: the untraced runs never enter it, so no
wrapper exists while the end-to-end metrics are measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from array import array

import numpy as np

from progest import ambiguity, bundle, condsynth, constraints, features
from progest import grammar, minilang, models, search, trees


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_kinds: list[str] = []
        self.counts: dict[tuple[str, int], float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, kind: str) -> None:
        """Later spans and counts belong to a new operation of ``kind``."""
        self.op_kinds.append(kind)

    def count(self, key: str, n: float = 1) -> None:
        slot = (key, len(self.op_kinds) - 1)
        self.counts[slot] = self.counts.get(slot, 0) + n

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(len(self.op_kinds) - 1)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    # ------------------------------------------------------------------
    # aggregation

    def per_round(self, per_round_ops: dict[str, int]) -> dict[str, float]:
        """Totals for one round of the workload.

        A run repeats some operation kinds (set-up, predict passes); each
        kind's totals are scaled by ``per_round_ops[kind] / ops of that kind
        in the run``, so that a figure does not depend on how many passes
        the run had time for.
        """
        kinds = self.op_kinds
        seen: dict[str, int] = {}
        for kind in kinds:
            seen[kind] = seen.get(kind, 0) + 1
        weight = np.array(
            [per_round_ops.get(k, 0) / seen[k] for k in kinds] + [0.0]
        )
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op_w = weight[np.frombuffer(self.op, dtype=np.int32)]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name + ".spans"] = float(op_w[mask].sum())
            out[name + ".ms"] = float((dur[mask] * op_w[mask]).sum())
            out[name + ".self_ms"] = float(((dur - child)[mask] * op_w[mask]).sum())
        for (key, op), n in self.counts.items():
            out[key] = out.get(key, 0.0) + n * weight[op]
        return out

    def per_op_kind(self) -> dict[str, dict[str, float]]:
        """Mean span count and time per operation, for each operation kind."""
        names = np.frombuffer(self.name, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        kinds = np.array(self.op_kinds + ["-"])[ops]
        out: dict[str, dict[str, float]] = {}
        for kind in sorted(set(self.op_kinds)):
            n_ops = self.op_kinds.count(kind)
            row: dict[str, float] = {"ops": n_ops}
            in_kind = kinds == kind
            for nid, name in enumerate(self.names):
                mask = in_kind & (names == nid)
                if mask.any():
                    row[name + ".spans"] = float(mask.sum()) / n_ops
                    row[name + ".ms"] = float(dur[mask].sum()) / n_ops
            for (key, op), n in self.counts.items():
                if self.op_kinds[op] == kind:
                    row[key] = row.get(key, 0.0) + n / n_ops
            out[kind] = row
        return out

    def write(self, path_stem: str, summary: dict) -> None:
        """Spans as ``<stem>.npz``, per-operation figures as ``<stem>.json``."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        np.savez(
            path_stem + ".npz",
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        with open(path_stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(dict(summary, per_op_kind=self.per_op_kind()), handle,
                      indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# wrappers

def _wrap_call(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, result, args)
        return result

    return wrapper


def _wrap_gen(tracer: Tracer, fn, name: str, per_item=()):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        inner = fn(*args, **kwargs)
        try:
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                for key in per_item:
                    tracer.count(key)
                yield item
        finally:
            inner.close()

    return wrapper


def _after_probe(tracer, outcome, args):
    kept = len(outcome.kept)
    tracer.count("constraints.probed",
                 kept + outcome.size_pruned + outcome.constraint_pruned)
    tracer.count("constraints.kept", kept)
    tracer.count("constraints.type_pruned", outcome.constraint_pruned)
    tracer.count("constraints.size_pruned", outcome.size_pruned)


def _after_search(tracer, result, args):
    stats = result.stats
    tracer.count("search.expansions", stats.expansions)
    tracer.count("search.beam_truncated", stats.beam_truncated)
    tracer.count("search.zero_prob_pruned", stats.zero_prob_pruned)


def _after_extraction(tracer, result, args):
    tracer.count("models.items", len(args[0]))
    tracer.count("models.instances", len(result.instances))


def _after_certify(tracer, report, args):
    tracer.count("ambiguity.trees_checked", report.trees_checked)
    tracer.count("ambiguity.derivations_checked", report.derivations_checked)


def _after_save(tracer, result, args):
    tracer.count("bundle.bytes", os.path.getsize(args[0]))


# (owner, attribute, span name, wrapper kind, hook): the owner is the module
# or class whose attribute the callers read at call time
_PLAN = (
    (search, "probe_rules", "constraints.probe_rules", "call", _after_probe),
    (models, "probe_rules", "constraints.probe_rules", "call", _after_probe),
    (constraints, "probe_rules", "constraints.probe_rules", "call", _after_probe),
    (constraints.SolverState, "push", "constraints.SolverState.push", "call", None),
    (constraints, "constraints_of_context", "constraints.constraints_of_context",
     "call", None),
    (search, "compute_size_bounds", "constraints.compute_size_bounds", "call", None),
    (models, "compute_size_bounds", "constraints.compute_size_bounds", "call", None),
    (constraints.SizeBounds, "tree_size", "constraints.SizeBounds.tree_size",
     "call", None),
    (constraints, "apply_rule_with_ids", "trees.apply_rule_with_ids", "call", None),
    (trees, "apply_rule_with_ids", "trees.apply_rule_with_ids", "call", None),
    (trees, "iter_derivations", "trees.iter_derivations", "gen",
     ("trees.derivations",)),
    (models, "iter_derivations", "trees.iter_derivations", "gen",
     ("trees.derivations", "models.replays")),
    (ambiguity, "iter_derivations", "trees.iter_derivations", "gen",
     ("trees.derivations",)),
    (search, "to_sexpr", "trees.to_sexpr", "call", None),
    (condsynth, "beam_search", "search.beam_search", "call", _after_search),
    (condsynth, "build_cond_ruleset", "condsynth.build_cond_ruleset", "call", None),
    (condsynth, "mine_templates", "condsynth.mine_templates", "call", None),
    (grammar.RuleSet, "__init__", "grammar.RuleSet", "call", None),
    (models.FrequencyModel, "predict", "models.predict", "call", None),
    (models.LogisticModel, "predict", "models.predict", "call", None),
    (condsynth, "extract_training_set", "models.extract_training_set", "call",
     _after_extraction),
    (models.LogisticModel, "train", "models.train", "static", None),
    (condsynth, "extract_features", "features.extract_features", "call", None),
    (models, "extract_features", "features.extract_features", "call", None),
    (features.FeaturePipeline, "embed_name", "features.embed_name", "call", None),
    (features, "context_block", "features.context_block", "call", None),
    (features.FeaturePipeline, "fit", "features.FeaturePipeline.fit", "static", None),
    (ambiguity, "check_unambiguous", "ambiguity.check_unambiguous", "call",
     _after_certify),
    (ambiguity, "enumerate_complete_trees", "ambiguity.enumerate_complete_trees",
     "gen", ()),
    (bundle, "save_bundle", "bundle.save_bundle", "call", _after_save),
    (bundle, "load_bundle", "bundle.load_bundle", "call", None),
    (condsynth, "parse_condition", "minilang.parse_condition", "call", None),
    (minilang, "parse_condition", "minilang.parse_condition", "call", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every function in the plan for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, kind, hook in _PLAN:
            raw = vars(owner)[attr]
            if kind == "gen":
                wrapped = _wrap_gen(tracer, raw, name, hook)
            elif kind == "static":
                wrapped = staticmethod(_wrap_call(tracer, raw.__func__, name, hook))
            else:
                wrapped = _wrap_call(tracer, raw, name, hook)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def installed_wrappers() -> int:
    """How many planned attributes currently hold a wrapper (0 when off)."""
    return sum(1 for owner, attr, *_ in _PLAN
               if hasattr(getattr(owner, attr), "__wrapped__"))
