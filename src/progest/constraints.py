"""Type constraints over tree nodes, and size-based feasibility bounds.

Every tree node gets a type variable named by its node id.  Rule schemas and
the variable context contribute equalities between those variables and
concrete type names; a candidate rule application survives only if the
combined system stays satisfiable.  Satisfiability is an equality-only
problem, so a union-find with constant tracking decides it exactly.

A search step decides each candidate before it splices anything: a
``SearchStep`` compiles each rule it meets once into a signature (whether
its fresh nodes type-check among themselves, the type they force on the
node the rule is applied to, and its size delta), the state's own system
is solved once per expansion, and only the candidates that survive are
spliced.  ``probe_rules`` gives the argument why this decides exactly what
solving the whole system of each spliced tree decides.  Rules that many
rule sets hold alike (the template rules of every context's condition rule
set) get their signatures from a ``SignatureTable`` compiled once and
shared by all those searches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Mapping

from .errors import SchemaError
from .grammar import Annotation, RewritingRule, RuleSet, RuleTree
from .trees import AnnotatedAst, apply_rule_with_ids, check_applicable, direction_of

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
    """Union-find over node type variables.

    ``push`` applies a batch of constraints transactionally: on conflict the
    batch is rolled back and False comes back.  Variables spring into
    existence on first mention.
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._const: dict[int, str] = {}
        # (table, key, previous value) for every write of the current batch
        self._trail: list[tuple[dict, int, object]] = []

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
        self._trail.append((self._parent, rb, self._parent.get(rb)))
        self._parent[rb] = ra
        if self._rank.get(ra, 0) == self._rank.get(rb, 0):
            self._trail.append((self._rank, ra, self._rank.get(ra)))
            self._rank[ra] = self._rank.get(ra, 0) + 1
        if ca is None and cb is not None:
            self._trail.append((self._const, ra, None))
            self._const[ra] = cb
        return True

    def _assign(self, a: int, name: str) -> bool:
        ra = self.find(a)
        current = self._const.get(ra)
        if current is not None:
            return current == name
        self._trail.append((self._const, ra, None))
        self._const[ra] = name
        return True

    def _rollback(self) -> None:
        trail = self._trail
        while trail:
            table, key, old = trail.pop()
            if old is None:
                del table[key]
            else:
                table[key] = old

    def push(self, constraints: Iterable[TypeConstraint]) -> bool:
        self._trail.clear()
        for c in constraints:
            if c.right is not None:
                ok = self._union(c.left, c.right)
            else:
                ok = self._assign(c.left, c.const)  # type: ignore[arg-type]
            if not ok:
                self._rollback()
                return False
        return True


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

    def tree_size(self, ast: AnnotatedAst, skip: int | None = None) -> float:
        """Smallest node count any completion of ``ast`` can reach, leaving
        the node ``skip`` out of the count when one is given."""
        total = 0.0
        for nid, node in ast.nodes.items():
            if nid != skip:
                total += _contribution(
                    node.symbol.name, node.annotation, self.down, self.up
                )
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

# the type variable of the node a rule is applied to, inside a compiled
# signature; fresh replacement nodes are numbered by preorder position
_ANCHOR = -1


@dataclass(frozen=True)
class _Signature:
    """What one rule does at a node with a given mark, before any splice."""

    fresh_ok: bool  # its fresh part type-checks among itself
    anchor_type: str | None  # the type the fresh part forces on the anchor
    size_delta: float  # fresh nodes plus the anchor at its leftover mark


def _declared_leaves(rule: RewritingRule) -> tuple[str, ...]:
    """The fresh leaves whose declared types a signature reads: the
    identifier-shaped terminals of the replacement, in preorder."""
    return tuple(
        rt.symbol.name
        for rt in rule.replacement.preorder()
        if not rt.anchor and rt.symbol.is_terminal and is_variable_token(rt.symbol.name)
    )


def _compile(
    rule: RewritingRule,
    mark: Annotation | None,
    at_root: bool,
    var_types: Mapping[str, str] | None,
    result_type: str | None,
    bounds: SizeBounds | None,
) -> _Signature:
    """The fresh part of the system ``rule`` adds at a node marked ``mark``
    (None: a creation on the empty tree): its schema, the declared-type pins
    of its fresh leaves, and the result pin when it makes the root a
    finished node.  The anchor is the variable ``_ANCHOR``."""
    nodes = rule.replacement.preorder()
    ids = [_ANCHOR if rt.anchor else pos for pos, rt in enumerate(nodes)]
    # creations (mark None) have no anchor to carry a leftover mark
    leftover = mark.without(direction_of(rule.kind)) if mark is not None else None
    marks = [leftover if rt.anchor else rt.annotation for rt in nodes]
    system = constraints_of_application(rule, ids)
    var_types = var_types or {}
    for pos, rt in enumerate(nodes):
        declared = var_types.get(rt.symbol.name)
        if (
            declared is not None
            and not rt.anchor
            and rt.symbol.is_terminal
            and is_variable_token(rt.symbol.name)
        ):
            system.append(eq_const(pos, declared))
    if at_root and result_type is not None and not marks[0].needs_up:
        system.append(eq_const(ids[0], result_type))
    solver = SolverState()
    ok = solver.push(system)
    size = 0.0
    if bounds is not None:
        size = sum(bounds.of(rt.symbol.name, m) for rt, m in zip(nodes, marks))
    return _Signature(ok, solver.resolved(_ANCHOR) if ok else None, size)


class SignatureTable:
    """Signatures compiled once for a fixed group of rules, shared by every
    search over a rule set that holds those rules.

    ``bounds`` are the size bounds of every rule set the table is attached
    to (``RuleSet.joined(..., shared=table)``); whoever attaches it
    vouches for that.  A signature is keyed on everything ``_compile``
    reads besides the rule itself: the target's mark, whether the target
    is the root, the result type, whether sizes are bounded (by these
    bounds, the only ones a step with this table may carry), and the
    declared types of the rule's identifier-shaped fresh leaves, the only
    entries of a context's declarations it looks up.  ``_compile`` is a
    function of the rule and these, so two searches that agree on them
    compile the same signature and sharing it is exact.  The rule is
    looked up by key and must equal the table's in every field but its id,
    which is positional in each set; any other rule is left to the caller
    to compile.
    """

    def __init__(self, rules: Iterable[RewritingRule], bounds: SizeBounds) -> None:
        self.bounds = bounds
        self._rules = {rule.key: rule for rule in rules}
        self._leaves = {key: _declared_leaves(r) for key, r in self._rules.items()}
        self._signatures: dict[tuple, _Signature] = {}

    def signature(
        self, rule: RewritingRule, mark: Annotation | None, at_root: bool,
        step: "SearchStep",
    ) -> _Signature | None:
        own = self._rules.get(rule.key)
        # ids are positional in each set; every other field must match
        if own is None or (own.kind, own.pattern, own.replacement, own.schema) != (
            rule.kind, rule.pattern, rule.replacement, rule.schema
        ):
            return None
        declared = step.var_types or {}
        key = (
            rule.key,
            mark,
            at_root,
            step.result_type,
            step.bounds is not None,
            tuple(declared.get(name) for name in self._leaves[rule.key]),
        )
        sig = self._signatures.get(key)
        if sig is None:
            sig = self._signatures[key] = _compile(
                rule, mark, at_root, step.var_types, step.result_type, step.bounds
            )
        return sig


class SearchStep:
    """The fixed inputs of every step of one search, and the rule signatures
    compiled from them.

    ``SearchStep.of`` builds the one step a search (or replay) over a rule
    set takes; pass it to each ``feasible_rules`` call.  Signatures are
    compiled on first use and kept for the step's life, keyed by rule id,
    the target's mark and whether the target is the root; a rule that is
    not the one compiled under its id is compiled afresh.  A rule of the
    ``shared`` table gets the table's signature instead, compiled at most
    once for all the searches that agree on what it reads.
    """

    def __init__(
        self,
        rs: RuleSet,
        *,
        var_types: Mapping[str, str] | None = None,
        result_type: str | None = None,
        bounds: SizeBounds | None = None,
        size_limit: int | None = None,
        shared: SignatureTable | None = None,
    ) -> None:
        if shared is not None and bounds is not None and bounds is not shared.bounds:
            raise ValueError("a step with a shared table takes the table's bounds")
        self.rs = rs
        self.var_types = var_types
        self.result_type = result_type
        self.bounds = bounds
        self.size_limit = size_limit
        self.shared = shared
        self._signatures: dict[
            tuple[int, Annotation | None, bool], tuple[RewritingRule, _Signature]
        ] = {}

    @classmethod
    def of(cls, rs: RuleSet, ctx, size_limit: int | None) -> "SearchStep":
        """The step a search over ``rs`` takes in ``ctx`` (anything with
        ``variable_types`` and ``result_type``, or None).  Sizes are bounded
        when ``size_limit`` is given; the bounds and signatures of
        ``rs.shared`` are used when it has them."""
        shared = rs.shared
        bounds = None
        if size_limit is not None:
            bounds = shared.bounds if shared is not None else compute_size_bounds(rs)
        return cls(
            rs,
            var_types=ctx.variable_types if ctx is not None else None,
            result_type=ctx.result_type if ctx is not None else None,
            bounds=bounds,
            size_limit=size_limit,
            shared=shared,
        )

    def signature(
        self, rule: RewritingRule, mark: Annotation | None, at_root: bool
    ) -> _Signature:
        key = (rule.id, mark, at_root)
        hit = self._signatures.get(key)
        if hit is not None and hit[0] is rule:
            return hit[1]
        sig = None
        if self.shared is not None:
            sig = self.shared.signature(rule, mark, at_root, self)
        if sig is None:
            sig = _compile(
                rule, mark, at_root, self.var_types, self.result_type, self.bounds
            )
        self._signatures[key] = (rule, sig)
        return sig


@dataclass(frozen=True)
class Probe:
    """One surviving candidate, spliced: the rule, the new tree, the splice
    ids, and the schema constraints this application contributes.

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
    step: SearchStep,
    base_constraints: Iterable[TypeConstraint] = (),
) -> ProbeOutcome:
    """Try each candidate at ``target`` and keep the applications that stand.

    A candidate that does not fit the target raises ``ApplyError`` before
    any pruning.  The size bound goes first because it is cheap and
    independent of typing; a candidate cut there is never charged to the
    constraint counter.  The constraint check asks whether three parts are
    satisfiable together: ``base_constraints`` (the schema pins of the
    applications that built ``ast``; they mention only its nodes), the
    candidate's schema, and the context constraints of the new tree.  Only
    the candidates that survive both are spliced.

    Why deciding before the splice is exact: the splice gives the fresh
    replacement nodes ids at or above ``ast.next_id``, which neither the
    pins nor the constraints of the old nodes mention.  The candidate's
    system is therefore two systems that share one variable, the target's:

    * the tree's own: the pins plus the context constraints of ``ast``,
      without the root's result pin when the target is the root, since the
      candidate decides what the new root is;
    * the rule's fresh part, which ``SearchStep`` compiles once per rule,
      target mark and rootedness, or takes from its shared table.  That
      part reads nothing of the tree, only the rule, the mark, the
      rootedness, the result type, the bounds and the declared types of
      the rule's own identifier-shaped leaves, so a signature compiled in
      another search that agreed on these is the same signature.

    Union-find classes merge only through the shared variable, so the whole
    is satisfiable exactly when both parts are and they do not force two
    different types on the target.  Likewise the new tree's size bound is
    the old tree's without the target plus the rule's size delta.  The
    tree's part is solved, and its size summed, once per call.
    """
    if target is None:
        mark, at_root = None, True
    else:
        node = ast.node(target)
        mark, at_root = node.annotation, node.parent is None
    limit = step.size_limit if step.bounds is not None else None
    rest = step.bounds.tree_size(ast, skip=target) if limit is not None else 0.0
    solver = SolverState()
    tree_ok = solver.push(
        [
            *base_constraints,
            *constraints_of_context(
                step.var_types, ast, None if at_root else step.result_type
            ),
        ]
    )
    forced = solver.resolved(target) if tree_ok and target is not None else None

    kept: list[Probe] = []
    size_pruned = 0
    constraint_pruned = 0
    # whether a rule fits the target depends only on its kind and pattern,
    # which a group's rules share
    fitting = None
    for rule in candidates:
        if (rule.kind, rule.pattern) != fitting:
            check_applicable(ast, target, rule)
            fitting = (rule.kind, rule.pattern)
        sig = step.signature(rule, mark, at_root)
        if limit is not None and rest + sig.size_delta > limit:
            size_pruned += 1
            continue
        if not (tree_ok and sig.fresh_ok) or (
            forced is not None
            and sig.anchor_type is not None
            and forced != sig.anchor_type
        ):
            constraint_pruned += 1
            continue
        new_ast, ids = apply_rule_with_ids(ast, target, rule)
        schema = constraints_of_application(rule, ids)
        kept.append(Probe(rule, new_ast, tuple(ids), tuple(schema)))
    return ProbeOutcome(target, tuple(kept), size_pruned, constraint_pruned)


def feasible_rules(
    ast: AnnotatedAst,
    step: SearchStep,
    policy: Callable[[AnnotatedAst], tuple[int, Annotation]],
    base_constraints: Iterable[TypeConstraint] = (),
) -> ProbeOutcome:
    """One search step: the single pruning gate every expansion goes through.

    The empty tree is offered the creation rules; otherwise ``policy`` picks
    the node and direction, and the rules of that group are probed there.
    Beam search, exhaustive search, the scorer and training extraction all
    step through here, so they agree on which candidates each step offers.
    """
    rs = step.rs
    if ast.is_empty:
        target = None
        group = rs.creation_rules
    else:
        target, direction = policy(ast)
        group = rs.rules_for(ast.nodes[target].symbol, direction)
    if not group:
        return ProbeOutcome(target, (), 0, 0)
    return probe_rules(ast, target, group, step, base_constraints)
