"""Most-likely-tree search driven by a probability model.

States are partial annotated trees with the log probability of the rule
choices that built them.  Each round expands every live state at the node
its policy picks, keeps the locally best successors, then truncates the pool
to the round's beam width.  Widths are given per round; the last entry
repeats, so ``(5, 200)`` means a tight first pick and a wide tail.  There is
one search loop, ``finished_builds``: it hands out each finished build
unspliced, and ``beam_search`` renders and ranks them.  Which renderings to
drop and how many to keep is the caller's policy, passed to the beam as a
screen of regexes and a cut ``k``: the beam renders its builds from the
likeliest down, one equal-log-p group at a time, and stops once ``k``
renderings have passed the screen, so a build below the k-th survivor's
log p is never spliced or rendered.  Exhaustive search is the beam at
unbounded width with no cut, and the certifier reads the loop's builds
directly.

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

import re
from dataclasses import dataclass, field
from itertools import groupby
from math import exp, inf, log
from operator import attrgetter
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
# the rule choices of a state from the empty tree, flat: the node (None for
# the creation) and the rule id of each application in turn.  A tuple of
# atoms, so the cyclic collector stops tracking it after one pass;
# ``applications`` reads it as ``Application`` values.
History = tuple[int | None, ...]
# a search state: the probe that made its tree, None for the empty tree.
# The loop that keeps a probe sets its ``log_prob``, the log probability of
# its rule choices, and its ``history``, so a state is one object; the
# probe splices, and merges its type classes, only when the state is
# expanded, so the loop never makes a finished tree or its classes
State = Probe | None


# a finished state as the search loop hands it out: the probe whose splice
# makes its tree (``probe.ast``), with its ``log_prob`` and ``history``
Build = Probe


def applications(history: History) -> tuple[Application, ...]:
    """The applications of a history, in order."""
    pairs = iter(history)
    return tuple(map(Application, pairs, pairs))


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


@dataclass(slots=True)
class Candidate:
    """A ranked finished tree: its rendering, the log probability of its
    rule choices and its build's ``history``, which ``applications`` reads
    as ``Application`` values when asked, so a ranking makes none.

    A slotted dataclass, made once per ranked build: equal by value on its
    four fields and unhashable, as its tree is."""

    ast: AnnotatedAst
    rendered: str
    log_prob: float
    history: History

    @property
    def applications(self) -> tuple[Application, ...]:
        return applications(self.history)

    @property
    def prob(self) -> float:
        """``exp(log_prob)``: 0 at -inf, and inf past the range of ``exp``,
        which a model's odds above 1 can reach."""
        if not self.log_prob > -inf:
            return 0.0
        try:
            return exp(self.log_prob)
        except OverflowError:
            return inf


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
    states: list[State] = [None]
    round_idx = 0
    while states:
        width = widths[min(round_idx, len(widths) - 1)]
        expanded: list[tuple[State, ProbeOutcome]] = []
        for state in states:
            if state is not None and state.finishes:
                builds.append(state)
                continue
            if stats.expansions >= step_cap:
                stats.step_cap_hit = True
                continue
            stats.expansions += 1
            outcome = feasible_rules(state, step, policy)
            stats.size_pruned += outcome.size_pruned
            stats.constraint_pruned += outcome.constraint_pruned
            if outcome.kept:
                expanded.append((state, outcome))
        if model is not None and expanded:
            round_probs = model.predict(ctx, [
                (
                    AnnotatedAst.empty() if state is None else state.ast,
                    outcome.target,
                    [p.rule for p in outcome.kept],
                )
                for state, outcome in expanded
            ])
        successors: list[Probe] = []
        for i, (state, outcome) in enumerate(expanded):
            log_prob, history = (0.0, ()) if state is None else (
                state.log_prob, state.history
            )
            if model is None:
                scored = list(outcome.kept)
                for probe in scored:
                    probe.log_prob = log_prob
            else:
                scored = []
                for probe, p in zip(outcome.kept, round_probs[i]):
                    if p <= 0.0:
                        stats.zero_prob_pruned += 1
                        continue
                    probe.log_prob = log_prob + log(p)
                    scored.append(probe)
            if len(scored) > width:
                scored.sort(key=lambda probe: (-probe.log_prob, probe.id))
                stats.beam_truncated += len(scored) - width
                scored = scored[:width]
            node = outcome.target
            for probe in scored:
                probe.history = history + (node, probe.id)
            successors += scored
        if len(successors) > width:
            successors.sort(
                key=lambda s: (-s.log_prob, to_sexpr(s.ast), s.history[1::2])
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
    k: int | None = None,
    screen: Sequence[str] = (),
) -> SearchResult:
    """The ``k`` best finished trees the beam keeps whose renderings match
    no regex of ``screen``, ranked by ``(-log p, rendering, rule ids)``;
    ``k`` None keeps every one.

    Probabilities multiply over steps exactly as the model reports them; the
    fitted models normalize per candidate list, fixtures may not.  The
    builds of ``finished_builds`` are ranked at the end, so a slow
    completion can still outrank an early one.  The cut happens before
    rendering: the builds are taken from the likeliest down, one group of
    equal log p at a time, each rendered and screened, until ``k``
    renderings have passed the screen.  Only the rendered builds are sorted
    by the full key and cut to ``k``, so no build whose log p is below the
    k-th survivor's is spliced or rendered, and the list is the one that
    rendering, screening and ranking every build, then cutting, would give.
    ``k`` must be None or an int of at least 0, and the widths and
    ``step_cap`` are checked as ``finished_builds`` says, all before the
    search starts.
    """
    if not (k is None or _is_count(k, 0)):
        raise ValueError(f"k must be None or an int >= 0, got {k!r}")
    builds, stats = finished_builds(
        rs, ctx, model, policy=policy, widths=widths, size_limit=size_limit,
        step_cap=step_cap,
    )
    render_fn = renderer or render
    screens = [re.compile(pattern) for pattern in screen]
    keep = len(builds) if k is None else k
    builds.sort(key=lambda build: -build.log_prob)
    rendered: list[tuple[Build, str]] = []
    # a group below the k-th survivor's log p cannot reach the top k, and
    # the ties at it can, so whole groups are rendered
    for _, group in groupby(builds, key=attrgetter("log_prob")):
        if len(rendered) >= keep:
            break
        for build in group:
            text = render_fn(build.ast)
            if not any(s.search(text) for s in screens):
                rendered.append((build, text))
    rendered.sort(key=lambda item: (-item[0].log_prob, item[1], item[0].history[1::2]))
    return SearchResult([
        Candidate(build.ast, text, build.log_prob, build.history)
        for build, text in rendered[:keep]
    ], stats)


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
