"""Type constraints over tree nodes, and size-based feasibility bounds.

Every tree node gets a type variable named by its node id.  Rule schemas and
the variable context contribute equalities between those variables and
concrete type names; a candidate rule application survives only if the
combined system stays satisfiable.  Satisfiability is an equality-only
problem, so a union-find with constant tracking decides it exactly.

A search step decides each candidate before it splices anything, and it
is the one gate of a search: ``probe_rules`` checks once that the group's
pattern fits the target, and its probes splice unchecked.  A rule group is
the rules of one pattern, a symbol and a direction (creations are the
group ``None``).  The ``SearchStep`` of a search holds the offers of
each group: per pattern, target mark and whether the target is the root,
each of the group's rules with its id in the searched set and its
signature (whether its fresh nodes type-check among themselves, the type
they force on the node the rule is applied to, the classes of its fresh
marked nodes, and its size delta).  The step resolves a group's offers on
the first expansion that meets that key and every later one reads them.
The signatures come from one ``SignatureTable``, which compiles each on
first use and keeps it per rule, and which keeps the offers of the groups
that every set it serves holds alike, so that searches share them too.

A step reads the tree it expands once and solves nothing of it: the probe
that made the tree carries the tree's size bound and its classes, the type
class of each marked node with the type forced on it, so each offer costs
a size comparison and a type comparison.  Every probe an expansion keeps
shares one ``Expansion`` record of the expanded tree, which also splits
the tree's preorder labels, and their terminals' names, at the target
once, on first read.  A kept ``Probe`` splices only when its tree or ids
are first read, and merges its classes only when its state is expanded.
``probe_rules`` gives the argument why this decides exactly what solving
the whole system of each spliced tree decides.  The probe, or None for the
empty tree, is the only state a step reads.

The table is keyed on values, so the condition rule sets of every context
share one: a signature is compiled once for all the searches that agree on
what it reads, the offers of a fixed group are resolved once for all the
searches that agree on what its signatures read and on its ids, and the
table holds one entry per rule or group and per such agreement, however
many contexts it serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import SchemaError
from .grammar import Annotation, Pattern, RewritingRule, RuleSet
from .minilang import is_variable_token
from .trees import (
    AnnotatedAst,
    apply_rule_with_ids,
    check_applicable,
    splice_finishes,
    splice_labels,
    splice_tokens,
    split_labels,
    split_tokens,
)


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

    ``push`` adds a batch of constraints and says whether the system is
    still satisfiable.  After a False the state is spent: every caller
    solves one system per solver and drops it on a conflict, so nothing is
    undone.  Variables spring into existence on first mention.
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._const: dict[int, str] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def resolved(self, x: int) -> str | None:
        """Concrete type name forced for ``x``, if any."""
        return self._const.get(self.find(x))

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        ca = self._const.get(ra)
        cb = self._const.get(rb)
        if ca is not None and cb is not None and ca != cb:
            return False
        self._parent[rb] = ra
        if ca is None and cb is not None:
            self._const[ra] = cb
        return True

    def _assign(self, a: int, name: str) -> bool:
        ra = self.find(a)
        current = self._const.get(ra)
        if current is not None:
            return current == name
        self._const[ra] = name
        return True

    def push(self, constraints: Iterable[TypeConstraint]) -> bool:
        for c in constraints:
            if c.right is not None:
                ok = self._union(c.left, c.right)
            else:
                ok = self._assign(c.left, c.const)  # type: ignore[arg-type]
            if not ok:
                return False
        return True


def constraints_of_application(
    rule: RewritingRule, ids: list[int] | tuple[int, ...]
) -> list[TypeConstraint]:
    """Instantiate a rule's type schema against freshly spliced node ids.

    Concrete atoms pin the node at their position; each schema variable links
    all of its positions into one equality class.  ``ids`` is aligned with
    the replacement's preorder positions, as ``apply_rule_with_ids`` gives
    them.
    """
    block = rule.block
    if len(ids) != len(block.symbols):
        raise SchemaError(
            f"rule {rule.key}: {len(ids)} ids for {len(block.symbols)} replacement nodes"
        )
    return [eq_const(ids[pos], name) for pos, name in block.pins] + [
        eq_var(ids[a], ids[b]) for a, b in block.links
    ]


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
        # the solver does not depend on the order of its input, so the nodes
        # are read in id order and the tree is not walked
        for nid, node in ast.nodes.items():
            symbol = node.symbol
            if not symbol.is_terminal:
                continue
            declared = var_types.get(symbol.name)
            if declared is not None and is_variable_token(symbol.name):
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


def _rule_cost(rule: RewritingRule, down: dict[str, float], up: dict[str, float]) -> float:
    """The least node count of the rule's replacement: 1 at the anchor and
    each other node's bound, summed in preorder.  It reads the tree, not
    ``rule.block``: bounds are computed for whole sets, most of whose
    blocks a search never compiles."""
    total = 0.0
    for node in rule.replacement.preorder():
        if node.anchor:
            total += 1.0
        else:
            total += _contribution(node.symbol.name, node.annotation, down, up)
    return total


def compute_size_bounds(rs: RuleSet) -> SizeBounds:
    """Least fixpoint of the per-direction completion costs."""
    down: dict[str, float] = {}
    up: dict[str, float] = {}
    # the tables are keyed on names: a terminal and a nonterminal of one
    # name share an entry, the least of their costs, which is still a bound
    groups = [(pattern, rules) for pattern, rules in rs.groups.items() if pattern]
    changed = True
    while changed:
        changed = False
        for (symbol, direction), rules in groups:
            table = down if direction is Annotation.D else up
            best = min(_rule_cost(r, down, up) for r in rules)
            if best < table.get(symbol.name, inf):
                table[symbol.name] = best
                changed = True
    return SizeBounds(down, up)


# --------------------------------------------------------------------------
# candidate probing

# the type variable of the node a rule is applied to, inside a compiled
# signature; fresh replacement nodes are numbered by preorder position
_ANCHOR = -1

# a tree's type classes, one entry per marked node: the type its class is
# forced to, or, while none is, the id of one node that names the class.
# Its values are atoms, so the collector never tracks the dict.
Classes = dict[int, int | str]


@dataclass(frozen=True)
class _Signature:
    """What one rule does at a node with a given mark, before any splice."""

    fresh_ok: bool  # its fresh part type-checks among itself
    anchor_type: str | None  # the type the fresh part forces on the anchor
    size_delta: float  # fresh nodes plus the anchor at its leftover mark
    # (position, class, type) of the anchor (first; position _ANCHOR) and of
    # each fresh marked position in the fresh part, a class named by its
    # first position here: what the new tree's classes merge in
    holes: tuple[tuple[int, int, str | None], ...]


def _declared_leaves(rule: RewritingRule) -> tuple[tuple[int, str], ...]:
    """The fresh leaves whose declared types a signature reads: the preorder
    positions and names of the replacement's identifier-shaped terminals."""
    block = rule.block
    return tuple(
        (pos, sym.name)
        for pos, sym in enumerate(block.symbols)
        if pos != block.anchor and sym.is_terminal and is_variable_token(sym.name)
    )


def _compile(
    rule: RewritingRule, mark: Annotation | None, at_root: bool, step: "SearchStep"
) -> _Signature:
    """The fresh part of the system ``rule`` adds at a node marked ``mark``
    (None: a creation on the empty tree): its schema, the declared-type pins
    of its fresh leaves, and the result pin when it makes the root a
    finished node.  The anchor is the variable ``_ANCHOR``.  The holes are
    read with the result pin when the new root is closed and without it
    while the root keeps a downward mark, as the classes hold it."""
    block = rule.block
    ids = [_ANCHOR if pos == block.anchor else pos for pos in range(len(block.symbols))]
    marks = list(block.marks)
    if mark is not None:
        # creations (mark None) have no anchor to carry a leftover mark
        marks[block.anchor] = mark.without(rule.pattern[1])  # type: ignore[index]
    system = constraints_of_application(rule, ids)
    for pos, name in _declared_leaves(rule):
        declared = step.var_types.get(name)
        if declared is not None:
            system.append(eq_const(pos, declared))
    pin = []
    if at_root and step.result_type is not None and not marks[0].needs_up:
        pin.append(eq_const(ids[0], step.result_type))
    held = marks[0] is not Annotation.NONE
    solver = SolverState()
    ok = solver.push(system if held else system + pin)
    holes: list[tuple[int, int, str | None]] = []
    if ok:
        names: dict[int, int] = {}
        anchor = () if block.anchor is None else (_ANCHOR,)
        for var in (*anchor, *block.before, *block.under, *block.after):
            name = names.setdefault(solver.find(var), var)
            holes.append((var, name, solver.resolved(var)))
    ok = ok and (not held or solver.push(pin))
    size = 0.0
    if step.bounds is not None:
        size = sum(
            step.bounds.of(sym.name, m) for sym, m in zip(block.symbols, marks)
        )
    return _Signature(ok, solver.resolved(_ANCHOR) if ok else None, size, tuple(holes))


# a group's offers at one (mark, rootedness): each rule with its id in the
# searched set and its signature there
Offers = tuple[tuple[RewritingRule, int, _Signature], ...]


class SignatureTable:
    """Rule signatures, compiled once and shared by every search over a rule
    set the table is attached to (``RuleSet(rules, shared=table)``), and the
    offers of the groups every such set holds alike.

    ``bounds`` are the size bounds of every such set.  A signature is keyed
    on the rule's key and on everything else ``_compile`` reads: the
    target's mark, whether the target is the root, the result type, whether
    sizes are bounded (by these bounds, the ones every step with this table
    carries), and the declared types of the rule's identifier-shaped fresh
    leaves, the only entries of a context's declarations it looks up.
    Whoever attaches the table promises that a key names one rule in every
    set it is attached to; ``_compile`` is a function of the rule and the
    rest of the key, so two searches that agree on the key compile the same
    signature and sharing it is exact.

    ``fixed`` names the patterns of the groups that hold the same rules, in
    the same order, in every set the table is attached to; that is the
    attacher's second promise.  The offers of such a group are resolved once
    per key of values (``offers``) and not once per search.
    """

    def __init__(
        self, bounds: SizeBounds | None, fixed: Iterable[Pattern] = ()
    ) -> None:
        self.bounds = bounds
        self.fixed = frozenset(fixed)
        # the names of the declared leaves of each rule key, and of each
        # fixed group's rules together
        self._leaves: dict[str, tuple[str, ...]] = {}
        self._group_leaves: dict[Pattern, tuple[str, ...]] = {}
        # per target mark, rootedness, result type and boundedness: the
        # signature of each rule key and declared types of its leaves
        self._signatures: dict[tuple, dict[tuple, _Signature]] = {}
        # the offers of a fixed group per the key ``offers`` gives
        self._offers: dict[tuple, Offers] = {}

    def signatures(
        self, rules: Iterable[RewritingRule], mark: Annotation | None,
        at_root: bool, step: "SearchStep",
    ) -> list[_Signature]:
        """The signature of each of ``rules`` at one target in ``step``, in
        order: the values the rules share are looked up once, and then each
        rule's own entry."""
        memo = self._signatures.setdefault(
            (mark, at_root, step.result_type, step.bounds is not None), {}
        )
        leaves, declared = self._leaves, step.var_types.get
        out = []
        for rule in rules:
            names = leaves.get(rule.key)
            if names is None:
                names = leaves[rule.key] = tuple(
                    name for _, name in _declared_leaves(rule)
                )
            key = (rule.key, tuple(map(declared, names)))
            sig = memo.get(key)
            if sig is None:
                sig = memo[key] = _compile(rule, mark, at_root, step)
            out.append(sig)
        return out

    def offers(
        self, rs: RuleSet, group: Pattern, mark: Annotation | None,
        at_root: bool, step: "SearchStep",
    ) -> Offers:
        """What ``rs``'s group ``group`` offers at one target in ``step``:
        each of its rules with its id in ``rs`` and its signature there.

        A fixed group's offers are memoised on values alone: the pattern
        (which names the rules, by the promise), their ids, the mark, the
        rootedness, the result type, whether sizes are bounded, and the
        declared types of the identifier-shaped fresh leaves of all the
        group's rules, a superset of what each signature reads.  So the
        memo holds one entry per such agreement, however many contexts it
        serves."""
        rules, ids = rs.group(group), rs.positions(group)
        if group not in self.fixed:
            return tuple(zip(rules, ids, self.signatures(rules, mark, at_root, step)))
        names = self._group_leaves.get(group)
        if names is None:
            names = self._group_leaves[group] = tuple(
                sorted({name for rule in rules for _, name in _declared_leaves(rule)})
            )
        key = (
            group, ids, mark, at_root, step.result_type, step.bounds is not None,
            tuple(map(step.var_types.get, names)),
        )
        offers = self._offers.get(key)
        if offers is None:
            offers = self._offers[key] = tuple(
                zip(rules, ids, self.signatures(rules, mark, at_root, step))
            )
        return offers


class SearchStep:
    """The fixed inputs of every step of one search over ``rs`` in ``ctx``
    (anything with ``variable_types`` and ``result_type``, or None); pass it
    to each ``feasible_rules`` call.

    Sizes are bounded when ``size_limit`` is given, by the bounds of
    ``rs.shared`` when the set has a table and by ``compute_size_bounds(rs)``
    otherwise.  Signatures come from ``rs.shared``; a set without one gets a
    table of the step's own, which lives as long as the step.  The table's
    signatures are those of the set's own rules: the step asks only for
    those of the groups it holds.

    The step holds each group's ``offers`` at each target mark and
    rootedness it has met, keyed on those values alone: the group's rules,
    their ids from ``rs.positions`` and their signatures, as the table's
    ``offers`` gives them.  So a search resolves each group once per key.
    With a shared table, a signature compiled in an earlier search is
    looked up, not compiled, and a group the table holds fixed, such as a
    template layer's ``expr:`` group, is resolved once for every search
    that agrees on the table's key for it.
    """

    def __init__(self, rs: RuleSet, ctx=None, size_limit: int | None = None) -> None:
        self.rs = rs
        self.var_types: Mapping[str, str] = {}
        self.result_type: str | None = None
        if ctx is not None:
            self.var_types, self.result_type = ctx.variable_types, ctx.result_type
        self.size_limit = size_limit
        self.bounds: SizeBounds | None = None
        if size_limit is not None:
            self.bounds = (
                rs.shared.bounds if rs.shared is not None else compute_size_bounds(rs)
            )
        self.table = rs.shared if rs.shared is not None else SignatureTable(self.bounds)
        self._offers: dict[tuple[Pattern, Annotation | None, bool], Offers] = {}
        # one ``(name, is_terminal, arity)`` label per value, for every
        # labels read in this search (``trees.split_labels``)
        self.labels: dict[tuple, tuple] = {}

    def offers(
        self, group: Pattern, mark: Annotation | None, at_root: bool
    ) -> Offers:
        """What ``group`` offers at a target marked ``mark`` (None: the
        empty tree) that is or is not the root, resolved on first use."""
        key = (group, mark, at_root)
        offers = self._offers.get(key)
        if offers is None:
            offers = self._offers[key] = self.table.offers(
                self.rs, group, mark, at_root, self
            )
        return offers


@dataclass(slots=True, eq=False, repr=False)
class Expansion:
    """One expansion, shared by every probe it keeps: the expanded tree, the
    target, the tree's classes, the search's ``labels`` (``SearchStep``)
    and, made on first read, the tree's preorder labels and the target's
    place among them (``trees.split_labels``), kept apart so that neither
    is a tuple inside a tuple, and the terminals' names read from those
    labels (``trees.split_tokens``).

    A slotted dataclass, equal only to itself and hashed by identity."""

    ast: AnnotatedAst
    target: int | None
    classes: Classes
    labels: dict[tuple, tuple]
    _preorder: tuple | None = field(init=False, default=None)
    _at: int = field(init=False, default=0)
    _tokens: tuple | None = field(init=False, default=None)

    @property
    def split(self) -> tuple[tuple, int] | None:
        """None for a creation on the empty tree."""
        if self.target is None:
            return None
        if self._preorder is None:
            self._preorder, self._at = split_labels(self.ast, self.target, self.labels)
        return self._preorder, self._at

    @property
    def tokens(self) -> tuple | None:
        """The tree's terminal names around the target, read from ``split``
        without a second walk; None for a creation on the empty tree."""
        if self._tokens is None and self.target is not None:
            self._tokens = split_tokens(self.split)  # type: ignore[arg-type]
        return self._tokens


@dataclass(slots=True, eq=False, repr=False)
class Probe:
    """One surviving candidate: the rule, its id in the searched set, the
    ``expansion`` that kept it, its ``signature`` there and ``size``, the
    new tree's size bound.  Its other parts are made when first read:
    ``ast``, the new tree, and ``ids``, the splice ids, by one splice, and
    ``classes``, the new tree's, from the expansion's and the signature's
    holes.  A caller that reads none of them splices nothing, and a search
    reads the classes only of a state it expands.  ``finishes``, ``labels``
    and ``tokens`` read the new tree's completeness, preorder labels and
    terminals' names from the expansion and the rule's block, and splice
    nothing; the labels are made on first read, of the search's one label
    per value, so the tuple a caller keeps holds only tuples of atoms.

    A probe that a search keeps is that search's state: the loop sets its
    ``log_prob`` and ``history`` (``search.History``), which a probe no
    search keeps does not have.  A slotted dataclass, equal only to itself
    and hashed by identity.
    """

    rule: RewritingRule
    id: int
    expansion: Expansion
    signature: _Signature
    size: float
    log_prob: float = field(init=False)
    history: tuple[int | None, ...] = field(init=False)
    _ast: AnnotatedAst | None = field(init=False, default=None)
    _ids: tuple[int, ...] = field(init=False, default=())
    _classes: Classes | None = field(init=False, default=None)
    _labels: tuple | None = field(init=False, default=None)

    def _splice(self) -> None:
        exp = self.expansion
        self._ast, ids = apply_rule_with_ids(exp.ast, exp.target, self.rule)
        self._ids = tuple(ids)

    @property
    def ast(self) -> AnnotatedAst:
        if self._ast is None:
            self._splice()
        return self._ast  # type: ignore[return-value]

    @property
    def ids(self) -> tuple[int, ...]:
        if self._ast is None:
            self._splice()
        return self._ids

    @property
    def finishes(self) -> bool:
        return splice_finishes(self.expansion.ast, self.expansion.target, self.rule)

    @property
    def labels(self) -> tuple:
        if self._labels is None:
            exp = self.expansion
            self._labels = splice_labels(exp.split, self.rule, exp.labels)
        return self._labels

    @property
    def tokens(self) -> tuple[str, ...]:
        """``trees.leaf_tokens`` of the new tree, read without it."""
        return splice_tokens(self.expansion.tokens, self.rule)

    @property
    def classes(self) -> Classes:
        if self._classes is None:
            self._classes = self._merge()
        return self._classes

    def _merge(self) -> Classes:
        """The new tree's classes: the fresh part meets the expanded tree's
        system only at the target, so the target's class takes the type the
        fresh part forces on the anchor, the target leaves when its mark is
        used up, and each fresh marked node joins the target's class or a
        class of fresh nodes."""
        exp = self.expansion
        ast, ids = self.ast, self._ids
        holes = self.signature.holes
        target = exp.target
        classes: Classes = {}
        mine = None  # the target's class
        if target is not None:
            (_, _, fresh), holes = holes[0], holes[1:]
            old = exp.classes
            mine = old[target]
            classes = dict(old)
            if fresh is not None and mine.__class__ is int:
                for nid, other in old.items():
                    if other == mine:
                        classes[nid] = fresh
                mine = fresh
            if ast.nodes[target].annotation is Annotation.NONE:
                del classes[target]
        for pos, cls, typ in holes:
            if cls == _ANCHOR:
                classes[ids[pos]] = mine  # type: ignore[assignment]
            else:
                classes[ids[pos]] = ids[cls] if typ is None else typ
        return classes

    def __repr__(self) -> str:
        return f"Probe({self.rule.key!r} at {self.expansion.target!r})"


class ProbeOutcome(NamedTuple):
    """What one step keeps: its target (None for a creation), the kept
    probes in their group's order and the two prune counts."""

    target: int | None
    kept: tuple[Probe, ...]
    size_pruned: int
    constraint_pruned: int


def probe_rules(
    state: Probe | None,
    target: int | None,
    group: Pattern,
    step: SearchStep,
) -> ProbeOutcome:
    """Try the rules of ``step.rs``'s group ``group`` at ``target`` of the
    tree of ``state`` and keep the applications that stand.

    A group that does not fit the target raises ``ApplyError`` before any
    pruning: the pattern all its rules share is checked once, and the kept
    probes splice unchecked.  The size bound goes first because it is cheap
    and independent of typing; a candidate cut there is never charged to the
    constraint counter.  The constraint check asks whether the new tree's
    whole system is satisfiable: the schema pins of every application that
    built it and its context constraints.  The candidates that survive both
    come back as ``Probe``s in the group's order, each carrying its id in
    ``step.rs`` and its size, and spliced when first read: a walk that
    follows one of them splices only that one.

    ``state`` is the probe that made the tree, None for the empty tree.
    Nothing here solves or sums the whole tree: the probe carries its size
    bound and its classes, those of its marked nodes.  Why that decides
    exactly what solving the whole system of each spliced tree decides: the
    splice gives the fresh replacement nodes ids from ``len(ast.nodes)`` on,
    which no constraint of the old nodes mentions.  The candidate's system
    is therefore two systems that share one variable, the target's:

    * the tree's own, without the root's result pin when the target is the
      root, since the candidate decides what the new root is;
    * the rule's fresh part, its signature, which the step reads from its
      ``SignatureTable``.  That part reads nothing of the tree, only the
      rule, the mark, the rootedness, the result type, the bounds and the
      declared types of the rule's own identifier-shaped leaves, so a
      signature compiled in another search that agreed on these is the
      same signature.

    Union-find classes merge only through the shared variable, so the whole
    is satisfiable exactly when both parts are and they do not force two
    different types on the target.  The tree's part is satisfiable, as every
    state a step keeps is, and the type it forces on the target is that of
    the target's class.  Every later constraint mentions only fresh nodes
    and a later target, which is a marked node, so the classes of the
    marked nodes are all of the tree's system a later step reads: a kept
    probe's classes are the expansion's with the signature's holes merged
    in at the target (``Probe.classes``).  One pin is held back: while the
    root keeps a downward mark, a step at the root may move it off the root
    (a rule anchored below its replacement root), so its result pin is
    applied here, when another node is the target, and enters the classes
    only once the root is closed.  Likewise the new tree's size bound is the
    old tree's less the target's part plus the rule's size delta.

    Why the step's offers may stand in for the group: the rest is fixed for
    the whole step.  The result type, the bounds and the declarations are
    the step's own, and the group's rules and their ids are the set's.  So
    a rule's signature in one search is a function of the rule, the mark
    and the rootedness alone, and ``(group, mark, rootedness)`` decides
    every offer of the group.  The memo is keyed on those values and never
    on a tree or a node id, and it is the step's only lookup of the group.
    A fixed group's offers come from the table's memo, whose key adds the
    values the step fixes (``SignatureTable.offers``), so they are the
    offers this step would resolve itself.
    """
    if state is None:
        ast, size, classes = AnnotatedAst.empty(), 0.0, {}
    else:
        ast, size, classes = state.ast, state.size, state.classes
    check_applicable(ast, target, group)
    tree_ok, forced = True, None
    if target is None:
        mark, at_root = None, True
    else:
        node = ast.nodes[target]
        mark, at_root = node.annotation, node.parent is None
        result = step.result_type
        mine = classes[target]
        if mine.__class__ is str:
            forced = mine
        if (
            not at_root
            and result is not None
            and ast.nodes[ast.root].annotation is Annotation.D  # type: ignore[index]
        ):
            # the root's held-back result pin: a forced root class must
            # agree with it, and an unforced one forces it on its members
            root = classes[ast.root]  # type: ignore[index]
            if root.__class__ is str:
                tree_ok = root == result
            elif root == mine:
                forced = result
    offers = step.offers(group, mark, at_root)
    if not offers:
        return ProbeOutcome(target, (), 0, 0)
    limit = step.size_limit
    rest = size
    if limit is not None and target is not None:
        rest -= step.bounds.of(node.symbol.name, mark)  # type: ignore[union-attr]
    expansion = Expansion(ast, target, classes, step.labels)

    kept: list[Probe] = []
    size_pruned = 0
    constraint_pruned = 0
    for rule, rule_id, sig in offers:
        new_size = rest + sig.size_delta
        # finite for every kept probe: an infinite delta is pruned here
        if limit is not None and new_size > limit:
            size_pruned += 1
            continue
        if not (tree_ok and sig.fresh_ok) or (
            forced is not None
            and sig.anchor_type is not None
            and forced != sig.anchor_type
        ):
            constraint_pruned += 1
            continue
        kept.append(Probe(rule, rule_id, expansion, sig, new_size))
    return ProbeOutcome(target, tuple(kept), size_pruned, constraint_pruned)


def feasible_rules(
    state: Probe | None,
    step: SearchStep,
    policy: Callable[[AnnotatedAst], tuple[int, Annotation]],
) -> ProbeOutcome:
    """One search step: the single pruning gate every expansion goes through.

    ``state`` is the probe that made the tree to expand, None for the empty
    tree; it carries the tree's size bound and type classes, so the step
    solves nothing of the tree.  The empty tree is offered the creation
    rules; otherwise ``policy`` picks the node and direction, and the rules
    of that group are probed there.
    A node marked for a direction it can no longer take is a dead end, and
    the step keeps nothing: a downward mark on a node that already has
    children (a rule anchored at its replacement root with block children
    leaves one, applied to a root marked both ways), or an upward mark below
    the root.  Beam search, exhaustive search, the scorer and training
    extraction all step from probes through here, so they agree on which
    candidates each step offers.
    """
    if state is None:
        target, group = None, None
    else:
        ast = state.ast
        target, direction = policy(ast)
        node = ast.nodes[target]
        mark = node.annotation
        if (node.children and direction is Annotation.D and mark.needs_down) or (
            node.parent is not None and direction is Annotation.U and mark.needs_up
        ):
            return ProbeOutcome(target, (), 0, 0)
        group = (node.symbol, direction)
    return probe_rules(state, target, group, step)
