"""Type constraints over tree nodes, and size-based feasibility bounds.

Every tree node gets a type variable named by its node id.  Rule schemas and
the variable context contribute equalities between those variables and
concrete type names; a candidate rule application survives only if the
combined system stays satisfiable.  Satisfiability is an equality-only
problem, so a union-find with constant tracking decides it exactly.

The solver keeps an undo trail instead of path compression: search probes a
candidate with ``push`` and retracts it with ``pop`` in O(changes), which is
what makes per-candidate checking cheap inside a beam.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Mapping

from .errors import ApplyError, SchemaError
from .grammar import Annotation, RewritingRule, RuleKind, RuleSet, RuleTree
from .trees import AnnotatedAst, apply_rule_with_ids

_IDENT = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")
_NON_VARIABLE_WORDS = frozenset({"null", "true", "false"})


@dataclass(frozen=True)
class TypeConstraint:
    """Equality between two node type variables, or a variable and a name."""

    left: int
    right: int | None = None
    const: str | None = None

    def __post_init__(self) -> None:
        if (self.right is None) == (self.const is None):
            raise SchemaError("constraint needs exactly one of right/const")

    def __str__(self) -> str:
        if self.right is not None:
            return f"T{self.left} = T{self.right}"
        return f"T{self.left} = {self.const}"


def eq_var(a: int, b: int) -> TypeConstraint:
    return TypeConstraint(a, right=b)


def eq_const(a: int, name: str) -> TypeConstraint:
    return TypeConstraint(a, const=name)


class SolverState:
    """Union-find over node type variables with checkpointed undo.

    ``push`` applies a batch of constraints transactionally: on conflict the
    state is rolled back and False comes back, otherwise a checkpoint is
    recorded for a later ``pop``.  Variables spring into existence on first
    mention.
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._const: dict[int, str] = {}
        self._trail: list[tuple] = []
        self._marks: list[int] = []

    def find(self, x: int) -> int:
        parent = self._parent
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def resolved(self, x: int) -> str | None:
        """Concrete type name forced for ``x``, if any."""
        return self._const.get(self.find(x))

    def same_class(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        ca = self._const.get(ra)
        cb = self._const.get(rb)
        if ca is not None and cb is not None and ca != cb:
            return False
        if self._rank.get(ra, 0) < self._rank.get(rb, 0):
            ra, rb = rb, ra
            ca, cb = cb, ca
        self._trail.append(("parent", rb, self._parent.get(rb)))
        self._parent[rb] = ra
        if self._rank.get(ra, 0) == self._rank.get(rb, 0):
            self._trail.append(("rank", ra, self._rank.get(ra)))
            self._rank[ra] = self._rank.get(ra, 0) + 1
        if ca is None and cb is not None:
            self._trail.append(("const", ra, None))
            self._const[ra] = cb
        return True

    def _assign(self, a: int, name: str) -> bool:
        ra = self.find(a)
        current = self._const.get(ra)
        if current is not None:
            return current == name
        self._trail.append(("const", ra, None))
        self._const[ra] = name
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            kind, key, old = self._trail.pop()
            table = {"parent": self._parent, "rank": self._rank, "const": self._const}[
                kind
            ]
            if old is None:
                del table[key]
            else:
                table[key] = old

    def push(self, constraints: Iterable[TypeConstraint]) -> bool:
        mark = len(self._trail)
        for c in constraints:
            if c.right is not None:
                ok = self._union(c.left, c.right)
            else:
                ok = self._assign(c.left, c.const)  # type: ignore[arg-type]
            if not ok:
                self._undo_to(mark)
                return False
        self._marks.append(mark)
        return True

    def pop(self) -> None:
        if not self._marks:
            raise ApplyError("solver pop without a matching push")
        self._undo_to(self._marks.pop())

    def clone(self) -> "SolverState":
        out = SolverState()
        out._parent = dict(self._parent)
        out._rank = dict(self._rank)
        out._const = dict(self._const)
        out._trail = list(self._trail)
        out._marks = list(self._marks)
        return out


def constraints_of_application(
    rule: RewritingRule, ids: list[int] | tuple[int, ...]
) -> list[TypeConstraint]:
    """Instantiate a rule's type schema against freshly spliced node ids.

    Concrete atoms pin the node at their position; each schema variable links
    all of its positions into one equality class.
    """
    out: list[TypeConstraint] = []
    by_var: dict[str, list[int]] = {}
    for pos, atom in rule.schema:
        if pos >= len(ids):
            raise SchemaError(f"rule {rule.key}: schema position {pos} out of range")
        if atom.is_schema_var:
            by_var.setdefault(atom.name, []).append(ids[pos])
        else:
            out.append(eq_const(ids[pos], atom.name))
    for positions in by_var.values():
        for a, b in zip(positions, positions[1:]):
            out.append(eq_var(a, b))
    return out


def is_variable_token(text: str) -> bool:
    return bool(_IDENT.match(text)) and text not in _NON_VARIABLE_WORDS


def constraints_of_context(
    var_types: Mapping[str, str] | None,
    ast: AnnotatedAst,
    result_type: str | None = None,
) -> list[TypeConstraint]:
    """Constraints the surrounding program imposes on a partial tree.

    Terminal leaves that look like identifiers and are declared get pinned to
    their declared types.  Identifier leaves missing from ``var_types`` are
    left unconstrained here; whether they are an error is the caller's call
    (grammar terminals such as method names are identifier-shaped too).  The
    root is pinned to ``result_type`` once it can no longer grow upward.
    """
    out: list[TypeConstraint] = []
    if ast.is_empty:
        return out
    if var_types:
        for nid in ast.preorder():
            node = ast.nodes[nid]
            if not node.symbol.is_terminal:
                continue
            declared = var_types.get(node.symbol.name)
            if declared is not None and is_variable_token(node.symbol.name):
                out.append(eq_const(nid, declared))
    root_node = ast.nodes[ast.root]  # type: ignore[index]
    if result_type is not None and not root_node.annotation.needs_up:
        out.append(eq_const(ast.root, result_type))  # type: ignore[arg-type]
    return out


# --------------------------------------------------------------------------
# size bounds

def _contribution(
    symbol_name: str, mark: Annotation, down: dict[str, float], up: dict[str, float]
) -> float:
    if mark is Annotation.NONE:
        return 1.0
    if mark is Annotation.D:
        return down.get(symbol_name, inf)
    if mark is Annotation.U:
        return up.get(symbol_name, inf)
    return down.get(symbol_name, inf) + up.get(symbol_name, inf) - 1.0


@dataclass(frozen=True)
class SizeBounds:
    """Least node counts needed to finish a marked symbol in each direction.

    A symbol absent from a table can never be finished that way; its bound is
    infinite and any tree carrying that mark is infeasible at every limit.
    """

    down: dict[str, float]
    up: dict[str, float]

    def of(self, symbol_name: str, mark: Annotation) -> float:
        return _contribution(symbol_name, mark, self.down, self.up)

    def tree_size(self, ast: AnnotatedAst) -> float:
        """Smallest node count any completion of ``ast`` can reach."""
        total = 0.0
        for node in ast.nodes.values():
            total += _contribution(node.symbol.name, node.annotation, self.down, self.up)
        return total

    def feasible(self, ast: AnnotatedAst, limit: int | None) -> bool:
        if limit is None:
            return True
        return self.tree_size(ast) <= limit


def _rule_cost(rule: RewritingRule, down: dict[str, float], up: dict[str, float]) -> float:
    total = 0.0

    def walk(rt: RuleTree) -> None:
        nonlocal total
        if rt.anchor:
            total += 1.0
        else:
            total += _contribution(rt.symbol.name, rt.annotation, down, up)
        for child in rt.children:
            walk(child)

    walk(rule.replacement)
    return total


def compute_size_bounds(rs: RuleSet) -> SizeBounds:
    """Least fixpoint of the per-direction completion costs."""
    down: dict[str, float] = {}
    up: dict[str, float] = {}
    changed = True
    while changed:
        changed = False
        for (name, dirval), rules in rs.groups.items():
            if dirval == "":
                continue
            table = down if dirval == Annotation.D.value else up
            best = min(_rule_cost(r, down, up) for r in rules)
            if best < table.get(name, inf):
                table[name] = best
                changed = True
    return SizeBounds(down, up)


# --------------------------------------------------------------------------
# candidate probing

@dataclass(frozen=True)
class Probe:
    """One surviving candidate: the rule, the new tree, the splice ids, and
    the schema constraints this application contributes.

    Callers that accept the candidate must carry ``constraints`` forward as
    part of the base system of later probes; schema pins die with the probe
    otherwise, and a later expansion could contradict them unnoticed.
    """

    rule: RewritingRule
    ast: AnnotatedAst
    ids: tuple[int, ...]
    constraints: tuple[TypeConstraint, ...]


@dataclass(frozen=True)
class ProbeOutcome:
    target: int | None
    kept: tuple[Probe, ...]
    size_pruned: int
    constraint_pruned: int


def probe_rules(
    ast: AnnotatedAst,
    target: int | None,
    candidates: Iterable[RewritingRule],
    *,
    var_types: Mapping[str, str] | None = None,
    result_type: str | None = None,
    bounds: SizeBounds | None = None,
    size_limit: int | None = None,
    base_constraints: Iterable[TypeConstraint] = (),
) -> ProbeOutcome:
    """Try each candidate at ``target`` and keep the applications that stand.

    The size bound goes first because it is cheap and independent of typing;
    a candidate cut there is never charged to the constraint counter.  Each
    constraint check solves ``base_constraints`` (the schema pins collected
    from the applications that built ``ast``) plus the candidate's own schema
    plus the full context constraints of the new tree; context constraints
    are recomputed whole, which is redundant but idempotent.
    """
    kept: list[Probe] = []
    size_pruned = 0
    constraint_pruned = 0
    base = list(base_constraints)
    for rule in candidates:
        new_ast, ids = apply_rule_with_ids(ast, target, rule)
        if (
            size_limit is not None
            and bounds is not None
            and bounds.tree_size(new_ast) > size_limit
        ):
            size_pruned += 1
            continue
        schema = constraints_of_application(rule, ids)
        system = base + schema + constraints_of_context(var_types, new_ast, result_type)
        solver = SolverState()
        if not solver.push(system):
            constraint_pruned += 1
            continue
        kept.append(Probe(rule, new_ast, tuple(ids), tuple(schema)))
    return ProbeOutcome(target, tuple(kept), size_pruned, constraint_pruned)


def feasible_rules(
    ast: AnnotatedAst,
    rs: RuleSet,
    policy: Callable[[AnnotatedAst], tuple[int, Annotation]],
    *,
    var_types: Mapping[str, str] | None = None,
    result_type: str | None = None,
    bounds: SizeBounds | None = None,
    size_limit: int | None = None,
    base_constraints: Iterable[TypeConstraint] = (),
) -> ProbeOutcome:
    """One search step: the single pruning gate every expansion goes through.

    The empty tree is offered the creation rules; otherwise ``policy`` picks
    the node and direction, and the rules of that group are probed there.
    Beam search, exhaustive search, the scorer and training extraction all
    step through here, so they agree on which candidates each step offers.
    """
    if ast.is_empty:
        target = None
        group = rs.creation_rules
    else:
        target, direction = policy(ast)
        group = rs.rules_for(ast.nodes[target].symbol, direction)
    if not group:
        return ProbeOutcome(target, (), 0, 0)
    return probe_rules(
        ast,
        target,
        group,
        var_types=var_types,
        result_type=result_type,
        bounds=bounds,
        size_limit=size_limit,
        base_constraints=base_constraints,
    )
