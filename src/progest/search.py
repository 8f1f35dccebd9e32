"""Most-likely-tree search driven by a probability model.

States are partial annotated trees with the log probability of the rule
choices that built them.  Each round expands every live state at the node
its policy picks, keeps the locally best successors, then truncates the pool
to the round's beam width.  Widths are given per round; the last entry
repeats, so ``(5, 200)`` means a tight first pick and a wide tail.

Every expansion is one call of ``constraints.feasible_rules``: the policy's
node, its rule group, and the typed, size-bounded probe.  The scorer replays
the search's build of a known tree, the first derivation of the typed walk
(``models.feasible_derivation``), so it gives each tree the search's probability.

All tie-breaking is total and value-based (never by node identity), which
keeps results reproducible across runs and processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import exp, inf, log
from typing import Callable, Sequence

# compute_size_bounds and probe_rules are bound only so that the benchmark's
# tracer (perfbench) can wrap them under this module's name; every step comes
# from SearchStep and every probe goes through feasible_rules
from .constraints import SearchStep, compute_size_bounds, feasible_rules, probe_rules
from .errors import SearchOverflowError, UnderivableTreeError
from .features import Context
from .grammar import Annotation, RuleSet
from .models import feasible_derivation
from .trees import (
    AnnotatedAst,
    Application,
    is_complete,
    policy_leftmost,
    render,
    to_sexpr,
)

Policy = Callable[[AnnotatedAst], tuple[int, Annotation]]
Renderer = Callable[[AnnotatedAst], str]


# --------------------------------------------------------------------------
# result filtering

@dataclass(frozen=True)
class AntiPattern:
    """A rendered form to suppress from final candidates."""

    name: str
    pattern: str

    def matches(self, rendered: str) -> bool:
        return re.search(self.pattern, rendered) is not None


# a bare null check is almost never the condition being looked for
DEFAULT_ANTI_PATTERNS: tuple[AntiPattern, ...] = (
    AntiPattern("bare-null-check", r"^[A-Za-z_$][A-Za-z0-9_$]*\s*!=\s*null$"),
)


def anti_pattern_check(rendered: str, patterns: Sequence[AntiPattern]) -> bool:
    """True when the rendered candidate is acceptable (matches nothing)."""
    return not any(p.matches(rendered) for p in patterns)


# --------------------------------------------------------------------------
# search state

@dataclass
class SearchStats:
    expansions: int = 0
    constraint_pruned: int = 0
    size_pruned: int = 0
    zero_prob_pruned: int = 0
    anti_pattern_pruned: int = 0
    beam_truncated: int = 0
    step_cap_hit: bool = False


@dataclass(frozen=True)
class Candidate:
    ast: AnnotatedAst
    rendered: str
    log_prob: float
    applications: tuple[Application, ...]

    @property
    def prob(self) -> float:
        return exp(self.log_prob) if self.log_prob > -inf else 0.0


@dataclass
class SearchResult:
    candidates: list[Candidate] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)


def beam_search(
    rs: RuleSet,
    ctx: Context | None,
    model,
    *,
    policy: Policy = policy_leftmost,
    widths: Sequence[int] = (5, 200),
    k: int = 10,
    size_limit: int | None = 30,
    anti_patterns: Sequence[AntiPattern] = DEFAULT_ANTI_PATTERNS,
    step_cap: int = 100_000,
    renderer: Renderer | None = None,
) -> SearchResult:
    """Beam search for the ``k`` most probable finished trees.

    Probabilities multiply over steps exactly as the model reports them; the
    fitted models normalize per candidate list, fixtures may not.  Finished
    states leave the beam, get anti-pattern screened, and are ranked at the
    end, so a slow completion can still outrank an early one.
    """
    if not widths or any(w < 1 for w in widths):
        raise ValueError("widths must be a non-empty sequence of positive ints")
    stats = SearchStats()
    render_fn = renderer or render
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    # state: tree, log prob, applications so far, accumulated schema pins
    states: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = [
        (AnnotatedAst.empty(), 0.0, (), ())
    ]
    round_idx = 0
    while states:
        width = widths[min(round_idx, len(widths) - 1)]
        successors: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = []
        for ast, log_prob, apps, pins in states:
            if not ast.is_empty and is_complete(ast):
                text = render_fn(ast)
                if anti_pattern_check(text, anti_patterns):
                    results.append(Candidate(ast, text, log_prob, apps))
                else:
                    stats.anti_pattern_pruned += 1
                continue
            if stats.expansions >= step_cap:
                stats.step_cap_hit = True
                continue
            stats.expansions += 1
            outcome = feasible_rules(ast, step, policy, pins)
            stats.size_pruned += outcome.size_pruned
            stats.constraint_pruned += outcome.constraint_pruned
            if not outcome.kept:
                continue
            node = outcome.target
            probs = model.predict(ctx, ast, node, [p.rule for p in outcome.kept])
            scored = []
            for probe, p in zip(outcome.kept, probs):
                if p <= 0.0:
                    stats.zero_prob_pruned += 1
                    continue
                scored.append((log_prob + log(p), probe))
            scored.sort(key=lambda item: (-item[0], item[1].rule.id))
            if len(scored) > width:
                stats.beam_truncated += len(scored) - width
                scored = scored[:width]
            for new_log, probe in scored:
                successors.append(
                    (
                        probe.ast,
                        new_log,
                        apps + (Application(node, probe.rule.id),),
                        pins + probe.constraints,
                    )
                )
        successors.sort(
            key=lambda s: (-s[1], to_sexpr(s[0]), tuple(a.rule for a in s[2]))
        )
        if len(successors) > width:
            stats.beam_truncated += len(successors) - width
            successors = successors[:width]
        states = successors
        round_idx += 1
    results.sort(
        key=lambda c: (-c.log_prob, c.rendered, tuple(a.rule for a in c.applications))
    )
    return SearchResult(results[:k], stats)


def exhaustive_search(
    rs: RuleSet,
    ctx: Context | None = None,
    *,
    policy: Policy = policy_leftmost,
    size_limit: int | None = None,
    state_cap: float = 1_000_000,
    model=None,
    anti_patterns: Sequence[AntiPattern] = (),
    renderer: Renderer | None = None,
) -> SearchResult:
    """Every finished tree reachable under the pruning, in stable order.

    Visits every state within the bounds, so it suits bounded spaces: the
    unambiguity certifier (``ambiguity.check_unambiguous``), oracle
    comparisons and exactness checks.  Raises ``SearchOverflowError`` past
    ``state_cap`` visited states; ``math.inf`` sets no cap.  Without a model
    all log probabilities are zero.
    """
    stats = SearchStats()
    render_fn = renderer or render
    step = SearchStep(rs, ctx, size_limit)
    results: list[Candidate] = []
    stack: list[tuple[AnnotatedAst, float, tuple[Application, ...], tuple]] = [
        (AnnotatedAst.empty(), 0.0, (), ())
    ]
    visited = 0
    while stack:
        ast, log_prob, apps, pins = stack.pop()
        visited += 1
        if visited > state_cap:
            raise SearchOverflowError(
                f"exhaustive search exceeded {state_cap} states"
            )
        if not ast.is_empty and is_complete(ast):
            text = render_fn(ast)
            if anti_pattern_check(text, anti_patterns):
                results.append(Candidate(ast, text, log_prob, apps))
            else:
                stats.anti_pattern_pruned += 1
            continue
        stats.expansions += 1
        outcome = feasible_rules(ast, step, policy, pins)
        stats.size_pruned += outcome.size_pruned
        stats.constraint_pruned += outcome.constraint_pruned
        if not outcome.kept:
            continue
        node = outcome.target
        if model is not None:
            probs = model.predict(ctx, ast, node, [p.rule for p in outcome.kept])
        else:
            probs = [1.0] * len(outcome.kept)
        for probe, p in reversed(list(zip(outcome.kept, probs))):
            if model is not None and p <= 0.0:
                stats.zero_prob_pruned += 1
                continue
            new_log = log_prob + (log(p) if model is not None else 0.0)
            stack.append(
                (
                    probe.ast,
                    new_log,
                    apps + (Application(node, probe.rule.id),),
                    pins + probe.constraints,
                )
            )
    results.sort(
        key=lambda c: (-c.log_prob, c.rendered, tuple(a.rule for a in c.applications))
    )
    return SearchResult(results, stats)


def program_log_probability(
    tree: AnnotatedAst,
    rs: RuleSet,
    model,
    ctx: Context | None = None,
    *,
    policy: Policy = policy_leftmost,
    size_limit: int | None = None,
) -> float:
    """Log probability the model assigns to the build of ``tree`` the search
    makes.

    Replays ``models.feasible_derivation`` and multiplies the model's scores
    over the candidates each step offers, so a tree the search outputs gets
    the probability the search gave it.  Comes back ``-inf`` when the search
    cannot build the tree or some step of its build is scored zero.
    """
    try:
        steps = feasible_derivation(tree, rs, policy, ctx, size_limit=size_limit)
    except UnderivableTreeError:
        return -inf
    total = 0.0
    for step in steps:
        kept = [p.rule for p in step.outcome.kept]
        p = model.predict(ctx, step.ast, step.outcome.target, kept)[step.choice]
        if p <= 0.0:
            return -inf
        total += log(p)
    return total

