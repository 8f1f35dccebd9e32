"""Most-likely-tree search driven by a probability model.

States are partial annotated trees with the log probability of the rule
choices that built them.  Each round expands every live state at the node
its policy picks, keeps the locally best successors, then truncates the pool
to the round's beam width.  Widths are given per round; the last entry
repeats, so ``(5, 200)`` means a tight first pick and a wide tail.  There is
one search loop, ``finished_builds``: it hands out each finished build
unspliced, and ``beam_search`` renders and ranks them all.  Which
renderings to drop and how many to keep is the caller's policy: the
condition layer screens anti-patterns and cuts to its top k.  Exhaustive
search is the beam at unbounded width, and the certifier reads the loop's
builds directly.

Every expansion is one call of ``constraints.feasible_rules``, the one
gate: the policy's node, the check that its rule group fits, and the typed,
size-bounded probe, handed the state's probe, whose carried size bound and
type classes decide each candidate without solving the tree.  A model is
any object with ``predict(ctx, decisions)``, the estimator of every step:
a round expands each of its live states first, then hands the model the
round's decisions, each a tree, its target node and its kept candidate
rules, in one call, and reads back one probability list per decision.
This module imports no model, no feature layer and no numpy.  The scorer of a
known tree, ``models.program_log_probability``, lives with the models.

All tie-breaking is total and value-based (never by node identity), which
keeps results reproducible across runs and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, log
from typing import TYPE_CHECKING, Callable, Sequence

# compute_size_bounds and probe_rules are bound only so that the benchmark's
# tracer (perfbench) can wrap them under this module's name; every step comes
# from SearchStep and every probe goes through feasible_rules
from .constraints import (
    Probe,
    ProbeOutcome,
    SearchStep,
    compute_size_bounds,
    feasible_rules,
    probe_rules,
)
from .errors import SearchOverflowError
from .grammar import Annotation, RuleSet
from .trees import (
    AnnotatedAst,
    Application,
    policy_leftmost,
    render,
    to_sexpr,
)

if TYPE_CHECKING:  # features loads numpy; a search passes a context through
    from .features import Context

Policy = Callable[[AnnotatedAst], tuple[int, Annotation]]
Renderer = Callable[[AnnotatedAst], str]
# a search state: the probe that made its tree (None for the empty tree),
# log prob and applications so far; the probe splices, and merges its type
# classes, only when the state is expanded, so the loop never makes a
# finished tree or its classes
State = tuple[Probe | None, float, tuple[Application, ...]]


# a finished state as the search loop hands it out: the probe whose splice
# makes its tree (``probe.ast``), the log probability of its rule choices,
# and its applications from the empty tree
Build = tuple[Probe, float, tuple[Application, ...]]


# --------------------------------------------------------------------------
# search state

@dataclass
class SearchStats:
    expansions: int = 0
    constraint_pruned: int = 0
    size_pruned: int = 0
    zero_prob_pruned: int = 0
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


def finished_builds(
    rs: RuleSet,
    ctx: Context | None,
    model,
    *,
    policy: Policy = policy_leftmost,
    widths: Sequence[float] = (5, 200),
    size_limit: int | None = 30,
    step_cap: float = 100_000,
) -> tuple[list[Build], SearchStats]:
    """The search loop: every finished build the beam keeps, in the order
    the rounds reach them, and the loop's counts.

    Each state holds the probe that made its tree, which splices when the
    state is expanded and carries the facts the step reads there.  A
    state is finished when its probe finishes the tree, read from the
    rule's block (``Probe.finishes``) in the round after the one that made
    it, so a finished build takes its place in its round's width as any
    state does, and is handed out unchanged and unspliced.  Each round
    expands its states in order, makes one ``model.predict`` call over
    the decisions of those that kept candidates, and then scores and cuts
    each state's candidates in the same order, so the counts, what
    ``step_cap`` cuts and the successors' order are those of scoring each
    state as it is expanded.  ``model`` None scores every candidate 1 and
    calls nothing.

    Each width must be an int of at least 1 or ``math.inf``, and
    ``step_cap`` (expansions) an int of at least 0 or ``math.inf`` (bools
    are neither); anything else raises ``ValueError`` before the search
    starts.  Candidates and successors are sorted only when they outnumber
    the width.  Both sort keys are total, so the states kept are those of a
    full sort; only their order in a round differs, and with it what
    ``step_cap`` cuts.
    """
    if not widths or not all(w == inf or _is_count(w, 1) for w in widths):
        raise ValueError(
            "widths must be a non-empty sequence of ints >= 1 or math.inf, "
            f"got {widths!r}"
        )
    if not (step_cap == inf or _is_count(step_cap, 0)):
        raise ValueError(f"step_cap must be an int >= 0 or math.inf, got {step_cap!r}")
    stats = SearchStats()
    step = SearchStep(rs, ctx, size_limit)
    builds: list[Build] = []
    states: list[State] = [(None, 0.0, ())]
    round_idx = 0
    while states:
        width = widths[min(round_idx, len(widths) - 1)]
        expanded: list[tuple[State, ProbeOutcome]] = []
        for state in states:
            grown_by = state[0]
            if grown_by is not None and grown_by.finishes:
                builds.append(state)  # type: ignore[arg-type]
                continue
            if stats.expansions >= step_cap:
                stats.step_cap_hit = True
                continue
            stats.expansions += 1
            outcome = feasible_rules(grown_by, step, policy)
            stats.size_pruned += outcome.size_pruned
            stats.constraint_pruned += outcome.constraint_pruned
            if outcome.kept:
                expanded.append((state, outcome))
        if model is not None and expanded:
            round_probs = model.predict(ctx, [
                (
                    AnnotatedAst.empty() if state[0] is None else state[0].ast,
                    outcome.target,
                    [p.rule for p in outcome.kept],
                )
                for state, outcome in expanded
            ])
        successors: list[State] = []
        for i, ((_, log_prob, apps), outcome) in enumerate(expanded):
            node = outcome.target
            if model is None:
                scored = [(log_prob, probe) for probe in outcome.kept]
            else:
                scored = []
                for probe, p in zip(outcome.kept, round_probs[i]):
                    if p <= 0.0:
                        stats.zero_prob_pruned += 1
                        continue
                    scored.append((log_prob + log(p), probe))
            if len(scored) > width:
                scored.sort(key=lambda item: (-item[0], item[1].id))
                stats.beam_truncated += len(scored) - width
                scored = scored[:width]
            successors.extend(
                (probe, new_log, apps + (Application(node, probe.id),))
                for new_log, probe in scored
            )
        if len(successors) > width:
            successors.sort(
                key=lambda s: (-s[1], to_sexpr(s[0].ast), tuple(a.rule for a in s[2]))
            )
            stats.beam_truncated += len(successors) - width
            successors = successors[:width]
        states = successors
        round_idx += 1
    return builds, stats


def beam_search(
    rs: RuleSet,
    ctx: Context | None,
    model,
    *,
    policy: Policy = policy_leftmost,
    widths: Sequence[float] = (5, 200),
    size_limit: int | None = 30,
    step_cap: float = 100_000,
    renderer: Renderer | None = None,
) -> SearchResult:
    """Every finished tree the beam keeps, rendered and ranked.

    Probabilities multiply over steps exactly as the model reports them; the
    fitted models normalize per candidate list, fixtures may not.  The
    builds of ``finished_builds`` are rendered and ranked at the end, so a
    slow completion can still outrank an early one.  No candidate is
    dropped and none is cut: a caller screens the renderings and takes its
    top k (``condsynth.synthesize_condition``).  The widths and
    ``step_cap`` are checked as ``finished_builds`` says, before the search
    starts.
    """
    builds, stats = finished_builds(
        rs, ctx, model, policy=policy, widths=widths, size_limit=size_limit,
        step_cap=step_cap,
    )
    render_fn = renderer or render
    results: list[Candidate] = []
    for probe, log_prob, apps in builds:
        ast = probe.ast
        results.append(Candidate(ast, render_fn(ast), log_prob, apps))
    results.sort(
        key=lambda c: (-c.log_prob, c.rendered, tuple(a.rule for a in c.applications))
    )
    return SearchResult(results, stats)


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an int (not a bool) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def exhaustive_search(
    rs: RuleSet,
    ctx: Context | None = None,
    *,
    policy: Policy = policy_leftmost,
    size_limit: int | None = None,
    step_cap: float = 1_000_000,
    model=None,
    renderer: Renderer | None = None,
) -> SearchResult:
    """Every finished tree reachable under the pruning, in rank order: the
    beam at unbounded width.

    Suits bounded spaces: oracles and exactness checks (the certifier,
    ``ambiguity.check_unambiguous``, reads the same loop's unrendered builds
    from ``finished_builds``).  Raises ``SearchOverflowError`` past
    ``step_cap`` expansions; ``math.inf`` sets no cap, and any other value
    that is not an int of at least 0 raises ``ValueError``.  Without a
    model every step scores 1, so every log probability is zero.
    """
    found = beam_search(rs, ctx, model, policy=policy, widths=(inf,),
                        size_limit=size_limit, step_cap=step_cap, renderer=renderer)
    if found.stats.step_cap_hit:
        raise SearchOverflowError(f"exhaustive search exceeded {step_cap} expansions")
    return found
