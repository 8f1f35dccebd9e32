"""Context-free grammars and the rewriting rules derived from them.

A grammar here is deliberately small: named symbols, flat productions, and an
optional type schema per production.  From one grammar three families of
rewriting rules can be derived:

* top-down rules grow a tree below a node that is marked for downward
  expansion,
* bottom-up rules grow a tree above a node marked for upward expansion
  (one rule per occurrence of a symbol on a right hand side, plus a finishing
  rule that clears the mark on a root), and
* creation rules seed an empty tree with a single annotated node (or a small
  annotated subtree).

Rules carry a stable string key so that learned statistics survive re-deriving
a rule set; a rule's integer id is its position in one ``RuleSet``.

Grammar text format, one production group per line::

    # comment
    E -> E:Int "> 12" :: Boolean | E:Int "+" E:Int :: Int | "hours":a :: a

Terminals are double quoted, non-terminals are bare identifiers, and the first
left hand side is the root.  ``sym:Atom`` attaches a type atom to that
position; ``:: Atom`` types the production's result.  An atom starting with an
upper-case letter is a concrete type name, a lower-case atom is a schema
variable that equates every position it appears at.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass

from .errors import GrammarError, RuleError

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


@dataclass(frozen=True, order=True)
class Symbol:
    """A grammar symbol; terminals carry their token text as the name.

    Equality and hashing read the two fields, as the generated ones would,
    but build no tuple: a search step looks up a rule group by a
    ``(Symbol, Annotation)`` key several times per expansion.
    """

    name: str
    is_terminal: bool = False

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.name == other.name  # type: ignore[attr-defined]
            and self.is_terminal == other.is_terminal  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash(self.name) ^ self.is_terminal

    def __str__(self) -> str:
        return f'"{self.name}"' if self.is_terminal else self.name


def nonterminal(name: str) -> Symbol:
    return Symbol(name)


def terminal(text: str) -> Symbol:
    return Symbol(text, True)


class Annotation(enum.Enum):
    """Expansion mark on a node: finished, downward, upward, or both."""

    NONE = ""
    D = "D"
    U = "U"
    UD = "UD"

    # members are singletons compared by identity, so they hash by it, in C
    # (``Enum.__hash__`` hashes the name in Python)
    __hash__ = object.__hash__

    @property
    def needs_down(self) -> bool:
        return self in (Annotation.D, Annotation.UD)

    @property
    def needs_up(self) -> bool:
        return self in (Annotation.U, Annotation.UD)

    def without(self, direction: "Annotation") -> "Annotation":
        """Remove one direction from the mark; direction must be D or U."""
        if direction is Annotation.D:
            if self is Annotation.D:
                return Annotation.NONE
            if self is Annotation.UD:
                return Annotation.U
        elif direction is Annotation.U:
            if self is Annotation.U:
                return Annotation.NONE
            if self is Annotation.UD:
                return Annotation.D
        raise ValueError(f"cannot remove {direction} from {self}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TypeAtom:
    """A schema atom: a concrete type name or a per-application variable.

    Atoms whose first character is lower case are schema variables; every
    replacement position sharing the same variable must end up with an equal
    type.  Anything else names a concrete type.
    """

    name: str

    @property
    def is_schema_var(self) -> bool:
        return self.name[:1].islower()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Production:
    lhs: Symbol
    rhs: tuple[Symbol, ...]
    result_atom: TypeAtom | None = None
    rhs_atoms: tuple[TypeAtom | None, ...] = ()

    def __post_init__(self):
        if self.lhs.is_terminal:
            raise GrammarError(f"terminal {self.lhs} cannot be a left hand side")
        if not self.rhs:
            raise GrammarError(f"empty right hand side for {self.lhs.name}")
        if self.rhs_atoms and len(self.rhs_atoms) != len(self.rhs):
            raise GrammarError(f"schema length mismatch for {self.lhs.name}")

    @property
    def signature(self) -> str:
        return " ".join(str(s) for s in self.rhs)

    def __str__(self) -> str:
        return f"{self.lhs.name} -> {self.signature}"


@dataclass(frozen=True)
class Grammar:
    productions: tuple[Production, ...]
    root: Symbol

    def __post_init__(self):
        if self.root.is_terminal:
            raise GrammarError("root must be a non-terminal")
        lhs_names = {p.lhs for p in self.productions}
        if self.root not in lhs_names:
            raise GrammarError(f"root {self.root.name} has no production")
        # trees carry no type atoms, so productions that differ only in their
        # atoms would give one tree two parses
        first: dict[tuple[Symbol, tuple[Symbol, ...]], Production] = {}
        for p in self.productions:
            if first.setdefault((p.lhs, p.rhs), p) is not p:
                raise GrammarError(f"repeated production {p}")
            for sym in p.rhs:
                if not sym.is_terminal and sym not in lhs_names:
                    raise GrammarError(f"undeclared symbol {sym.name} in {p}")

    @property
    def nonterminals(self) -> tuple[Symbol, ...]:
        seen: list[Symbol] = []
        for p in self.productions:
            if p.lhs not in seen:
                seen.append(p.lhs)
        return tuple(seen)

    @property
    def terminals(self) -> tuple[Symbol, ...]:
        seen: list[Symbol] = []
        for p in self.productions:
            for sym in p.rhs:
                if sym.is_terminal and sym not in seen:
                    seen.append(sym)
        return tuple(seen)

    def productions_for(self, sym: Symbol) -> tuple[Production, ...]:
        return tuple(p for p in self.productions if p.lhs == sym)


# --------------------------------------------------------------------------
# grammar text format

def _scan_alternative(text: str, line_no: int):
    """Scan one alternative into (symbols, atoms, result_atom)."""
    symbols: list[Symbol] = []
    atoms: list[TypeAtom | None] = []
    result: TypeAtom | None = None
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("::", i):
            rest = text[i + 2:].strip()
            if not _IDENT_RE.fullmatch(rest):
                raise GrammarError(f"bad result type {rest!r}", line_no)
            result = TypeAtom(rest)
            break
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise GrammarError("unterminated terminal", line_no)
            symbols.append(terminal(text[i + 1:end]))
            i = end + 1
        else:
            m = _IDENT_RE.match(text, i)
            if not m:
                raise GrammarError(f"unexpected character {ch!r}", line_no)
            symbols.append(nonterminal(m.group()))
            i = m.end()
        # optional :Atom suffix, attached without spaces
        if i < n and text[i] == ":" and not text.startswith("::", i):
            m = _IDENT_RE.match(text, i + 1)
            if not m:
                raise GrammarError("bad type atom", line_no)
            atoms.append(TypeAtom(m.group()))
            i = m.end()
        else:
            atoms.append(None)
    if not symbols:
        raise GrammarError("empty right hand side", line_no)
    return symbols, atoms, result


def load_grammar(text: str) -> Grammar:
    """Parse grammar text; the first left hand side becomes the root."""
    productions: list[Production] = []
    root: Symbol | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarError("expected 'LHS -> alternatives'", line_no)
        head, _, body = line.partition("->")
        head = head.strip()
        if not _IDENT_RE.fullmatch(head):
            raise GrammarError(f"bad left hand side {head!r}", line_no)
        lhs = nonterminal(head)
        if root is None:
            root = lhs
        for alt in _split_alternatives(body, line_no):
            symbols, atoms, result = _scan_alternative(alt, line_no)
            productions.append(
                Production(lhs, tuple(symbols), result, tuple(atoms))
            )
    if root is None:
        raise GrammarError("no productions found")
    return Grammar(tuple(productions), root)


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _split_alternatives(body: str, line_no: int) -> list[str]:
    parts: list[str] = []
    current: list[str] = []
    in_quote = False
    for ch in body:
        if ch == '"':
            in_quote = not in_quote
        if ch == "|" and not in_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if any(not p.strip() for p in parts):
        raise GrammarError("empty alternative", line_no)
    return parts


# --------------------------------------------------------------------------
# rewriting rules

@dataclass(frozen=True)
class RuleTree:
    """Replacement tree of a rule.

    Exactly one node is anchored in a non-creation rule; the anchor stands for
    the node the rule was applied to.  Only the root may carry an upward mark,
    and nodes marked for downward expansion have no children.
    """

    symbol: Symbol
    annotation: Annotation = Annotation.NONE
    anchor: bool = False
    children: tuple["RuleTree", ...] = ()

    def preorder(self) -> list["RuleTree"]:
        out = [self]
        for child in self.children:
            out.extend(child.preorder())
        return out

    def __str__(self) -> str:
        label = str(self.symbol)
        if self.anchor:
            label += "@"
        if self.annotation is not Annotation.NONE:
            label += f"^{self.annotation}"
        if not self.children:
            return label
        inner = " ".join(str(c) for c in self.children)
        return f"({label} {inner})"


@dataclass(frozen=True)
class RuleBlock:
    """A rule's replacement flattened once, in preorder, for splicing.

    Position p is the p-th replacement node in preorder: ``symbols[p]`` and
    ``marks[p]`` are its symbol and mark, ``parents[p]`` its parent's
    position (None at the root) and ``children[p]`` its children's
    positions.  ``labels[p]`` is position p's ``(name, is_terminal,
    arity)`` in the replacement alone.  ``anchor`` is the anchor's
    position, None in a creation, and ``end`` is one past the last
    position of its subtree (0 in a creation).  The marked positions other
    than the anchor are split by where they fall in preorder: ``before``
    the anchor, ``under`` it, and ``after`` its subtree; a creation has no
    anchor, so all of them are ``before``.
    The schema comes as ``pins``, (position, type name) for each concrete
    atom, and ``links``, (position, position) for each pair of consecutive
    positions of one schema variable, in schema order.
    ``head`` is what a tree node must carry for the root to land on it in
    the derivation walk (``trees.iter_derivations``): the root's name and
    terminality, then, unless the root is an anchor without block children
    or is marked downward, its arity and each child's name and terminality.
    """

    symbols: tuple[Symbol, ...]
    marks: tuple[Annotation, ...]
    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[str, bool, int], ...]
    anchor: int | None
    end: int
    before: tuple[int, ...]
    under: tuple[int, ...]
    after: tuple[int, ...]
    pins: tuple[tuple[int, str], ...]
    links: tuple[tuple[int, int], ...]
    head: tuple


def _compile_block(rule: RewritingRule) -> RuleBlock:
    symbols: list[Symbol] = []
    marks: list[Annotation] = []
    parents: list[int | None] = []
    children: list[list[int]] = []
    anchor: int | None = None
    end = 0  # one past the last position of the anchor's subtree
    # a preorder walk on an explicit stack; None, pushed under the anchor's
    # children, is popped once its whole subtree is laid out
    stack: list[tuple[RuleTree, int | None] | None] = [(rule.replacement, None)]
    while stack:
        entry = stack.pop()
        if entry is None:
            end = len(symbols)
            continue
        rt, parent = entry
        pos = len(symbols)
        symbols.append(rt.symbol)
        marks.append(rt.annotation)
        parents.append(parent)
        children.append([])
        if parent is not None:
            children[parent].append(pos)
        if rt.anchor:
            anchor = pos
            stack.append(None)
        stack.extend((child, pos) for child in reversed(rt.children))
    marked = [
        p for p, m in enumerate(marks) if m is not Annotation.NONE and p != anchor
    ]
    if anchor is None:
        before, under, after = marked, [], []
    else:
        before = [p for p in marked if p < anchor]
        under = [p for p in marked if anchor < p < end]
        after = [p for p in marked if p >= end]
    pins: list[tuple[int, str]] = []
    by_var: dict[str, list[int]] = {}
    for pos, atom in rule.schema:
        if atom.is_schema_var:
            by_var.setdefault(atom.name, []).append(pos)
        else:
            pins.append((pos, atom.name))
    links = [
        link for positions in by_var.values() for link in zip(positions, positions[1:])
    ]
    labels = tuple(
        (sym.name, sym.is_terminal, len(kids)) for sym, kids in zip(symbols, children)
    )
    head = labels[0][:2]
    if children[0] if anchor == 0 else not marks[0].needs_down:
        head += (len(children[0]),) + tuple(
            part for c in children[0] for part in labels[c][:2]
        )
    return RuleBlock(
        tuple(symbols), tuple(marks), tuple(parents), tuple(map(tuple, children)),
        labels, anchor, end, tuple(before), tuple(under), tuple(after), tuple(pins),
        tuple(links), head,
    )


@dataclass(frozen=True)
class RewritingRule:
    """One rewriting rule: an optional pattern and a replacement tree.

    The pattern fixes the rule's kind: a rule without one is a creation,
    and a pattern's mark is the direction the rule expands its node in, D
    for a top-down rule and U for a bottom-up one.  ``schema`` maps preorder
    positions of the replacement to type atoms; the anchored position
    constrains the node the rule is applied to.  ``key`` is a stable
    semantic identifier used by learned models.  A rule has no id of its
    own: its id is its position in a ``RuleSet``, so one rule can sit in
    many sets.  A rule checks its own shape when it is made and raises
    ``RuleError`` if that shape is bad.  ``block``, the replacement
    compiled for splicing, is derived from the fields on first use and kept
    once per rule, so equality, hashing and the repr do not see it.
    """

    pattern: tuple[Symbol, Annotation] | None
    replacement: RuleTree
    key: str
    schema: tuple[tuple[int, TypeAtom], ...] = ()

    def __post_init__(self) -> None:
        nodes = self.replacement.preorder()
        anchors = [n for n in nodes if n.anchor]
        if self.pattern is None:
            if anchors:
                raise RuleError(f"creation rule {self.key} must have no anchor")
        else:
            if len(anchors) != 1:
                raise RuleError(f"rule {self.key} needs exactly one anchor")
            sym, ann = self.pattern
            if ann not in (Annotation.D, Annotation.U):
                raise RuleError(f"rule {self.key}: pattern mark {ann.name} is not D or U")
            if anchors[0].symbol != sym:
                raise RuleError(f"rule {self.key}: anchor symbol differs from pattern")
            if anchors[0].annotation.needs_up:
                raise RuleError(f"rule {self.key}: anchor cannot keep an upward mark")
        for node in nodes:
            if node.annotation.needs_down and node.children:
                raise RuleError(f"rule {self.key}: downward-marked node has children")
            if node.annotation.needs_up and node is not self.replacement:
                raise RuleError(f"rule {self.key}: only the root may carry an upward mark")
            if node.symbol.is_terminal and node.children:
                raise RuleError(f"rule {self.key}: terminal with children")
            if (
                node.symbol.is_terminal
                and node.annotation is not Annotation.NONE
                and node is not self.replacement
            ):
                raise RuleError(f"rule {self.key}: marked terminal below the root")
        for pos, _atom in self.schema:
            if not 0 <= pos < len(nodes):
                raise RuleError(f"rule {self.key}: schema position {pos} out of range")

    @functools.cached_property
    def block(self) -> RuleBlock:
        """The replacement compiled for splicing, on first use: a set is
        often made for one search, so compiling every rule it holds up
        front would cost more than the search reads."""
        return _compile_block(self)

    def __str__(self) -> str:
        if self.pattern is None:
            return f"=> {self.replacement}"
        sym, ann = self.pattern
        mark = f"^{ann}" if ann is not Annotation.NONE else ""
        return f"{sym}{mark} => {self.replacement}"


# the key of a rule group: the pattern its rules share, None for creations
Pattern = tuple[Symbol, Annotation] | None


class RuleSet:
    """An indexed collection of rewriting rules.

    A rule's id is its position in the set (``rs[id]`` is the rule).
    Keys must be unique, and ``by_key`` reads a key→position index.  Rules
    are grouped by their pattern, so a group is the candidates for one
    symbol in one direction, and the creation rules form the group
    ``None``; the groups partition the set, and ``positions`` gives each
    group's ids.  The rules validated themselves when they were made, so a
    set neither copies nor checks them again.

    ``shared`` is what was compiled once for every set built like this
    one (a ``constraints.SignatureTable``: the set's size bounds and its
    rules' search signatures, keyed on rule keys); it is None for a set
    that shares nothing.
    """

    def __init__(
        self, rules: list[RewritingRule] | tuple[RewritingRule, ...], *, shared=None
    ):
        self.rules: tuple[RewritingRule, ...] = tuple(rules)
        self._ids = {r.key: i for i, r in enumerate(self.rules)}
        if len(self._ids) != len(self.rules):
            keys = [r.key for r in self.rules]
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise RuleError(f"duplicate rule keys: {', '.join(dupes)}")
        grouping: dict[Pattern, list[int]] = {}
        # a run of rules that share one pattern object, as a template
        # layer's expr: rules do, hashes it once
        pattern, members = object(), []
        for position, rule in enumerate(self.rules):
            if rule.pattern is not pattern:
                pattern = rule.pattern
                members = grouping.setdefault(pattern, [])
            members.append(position)
        self._positions = {k: tuple(v) for k, v in grouping.items()}
        self._groups = {
            k: tuple(self.rules[p] for p in v) for k, v in grouping.items()
        }
        self.shared = shared

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, position: int) -> RewritingRule:
        return self.rules[position]

    def by_key(self, key: str) -> RewritingRule:
        return self.rules[self._ids[key]]

    @property
    def groups(self) -> dict[Pattern, tuple[RewritingRule, ...]]:
        return dict(self._groups)

    def group(self, pattern: Pattern) -> tuple[RewritingRule, ...]:
        """The rules whose pattern is ``pattern``, in set order; empty when
        the set has none."""
        return self._groups.get(pattern, ())

    def positions(self, pattern: Pattern) -> tuple[int, ...]:
        """The ids of ``group(pattern)``'s rules, in the same order."""
        return self._positions.get(pattern, ())


# --------------------------------------------------------------------------
# deriving rule sets from a grammar

def _schema_of(p: Production) -> tuple[tuple[int, TypeAtom], ...]:
    entries: list[tuple[int, TypeAtom]] = []
    if p.result_atom is not None:
        entries.append((0, p.result_atom))
    if p.rhs_atoms:
        for idx, atom in enumerate(p.rhs_atoms):
            if atom is not None:
                entries.append((idx + 1, atom))
    return tuple(entries)


def _child_tree(sym: Symbol, anchored: bool = False) -> RuleTree:
    if anchored:
        return RuleTree(sym, Annotation.NONE, True)
    if sym.is_terminal:
        return RuleTree(sym)
    return RuleTree(sym, Annotation.D)


def derive_top_down_rules(g: Grammar) -> RuleSet:
    """One rule per production: expand a downward-marked node into its rhs."""
    rules = []
    for p in g.productions:
        replacement = RuleTree(
            p.lhs,
            Annotation.NONE,
            True,
            tuple(_child_tree(sym) for sym in p.rhs),
        )
        rules.append(
            RewritingRule(
                (p.lhs, Annotation.D),
                replacement,
                key=f"td:{p.lhs.name}->{p.signature}",
                schema=_schema_of(p),
            )
        )
    return RuleSet(rules)


def derive_bottom_up_rules(g: Grammar) -> RuleSet:
    """One rule per rhs occurrence, anchored there, plus a finishing rule.

    The replacement root keeps an upward mark so the new tree can keep
    growing; the finishing rule clears the mark on a root node.
    """
    rules = []
    for p in g.productions:
        for i, anchor_sym in enumerate(p.rhs):
            children = tuple(
                _child_tree(sym, anchored=(j == i)) for j, sym in enumerate(p.rhs)
            )
            replacement = RuleTree(p.lhs, Annotation.U, False, children)
            rules.append(
                RewritingRule(
                    (anchor_sym, Annotation.U),
                    replacement,
                    key=f"bu{i}:{p.lhs.name}->{p.signature}",
                    schema=_schema_of(p),
                )
            )
    rules.append(
        RewritingRule(
            (g.root, Annotation.U),
            RuleTree(g.root, Annotation.NONE, True),
            key=f"fin:{g.root.name}",
        )
    )
    return RuleSet(rules)


class CreationMode(enum.Enum):
    ROOT = "root"
    LEAF = "leaf"
    MIDDLE = "middle"


def derive_creation_rules(g: Grammar, modes) -> RuleSet:
    """Seed rules: a downward root, an upward leaf per terminal, or an
    up-and-down middle node per non-terminal."""
    modes = set(modes)
    rules: list[RewritingRule] = []
    if CreationMode.ROOT in modes:
        rules.append(
            RewritingRule(
                None,
                RuleTree(g.root, Annotation.D),
                key=f"make-root:{g.root.name}",
            )
        )
    if CreationMode.LEAF in modes:
        for term in g.terminals:
            rules.append(
                RewritingRule(
                    None,
                    RuleTree(term, Annotation.U),
                    key=f"make-leaf:{term.name}",
                )
            )
    if CreationMode.MIDDLE in modes:
        for nt in g.nonterminals:
            rules.append(
                RewritingRule(
                    None,
                    RuleTree(nt, Annotation.UD),
                    key=f"make-mid:{nt.name}",
                )
            )
    return RuleSet(rules)
