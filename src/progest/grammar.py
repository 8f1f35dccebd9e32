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
a rule set, and an integer id that is only unique within one ``RuleSet``.

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
import re
from dataclasses import dataclass, field

from .errors import GrammarError, RuleError

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


class SymbolKind(enum.Enum):
    NONTERMINAL = "nonterminal"
    TERMINAL = "terminal"


@dataclass(frozen=True, order=True)
class Symbol:
    """A grammar symbol; terminals carry their token text as the name."""

    name: str
    kind: SymbolKind = SymbolKind.NONTERMINAL

    @property
    def is_terminal(self) -> bool:
        return self.kind is SymbolKind.TERMINAL

    def __str__(self) -> str:
        return f'"{self.name}"' if self.is_terminal else self.name


def nonterminal(name: str) -> Symbol:
    return Symbol(name, SymbolKind.NONTERMINAL)


def terminal(text: str) -> Symbol:
    return Symbol(text, SymbolKind.TERMINAL)


class Annotation(enum.Enum):
    """Expansion mark on a node: finished, downward, upward, or both."""

    NONE = ""
    D = "D"
    U = "U"
    UD = "UD"

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
        for p in self.productions:
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

class RuleKind(enum.Enum):
    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"
    CREATION = "creation"


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
class RewritingRule:
    """One rewriting rule: an optional pattern and a replacement tree.

    ``schema`` maps preorder positions of the replacement to type atoms; the
    anchored position constrains the node the rule is applied to.  ``key`` is
    a stable semantic identifier used by learned models, ``id`` is positional
    within a rule set.
    """

    id: int
    kind: RuleKind
    pattern: tuple[Symbol, Annotation] | None
    replacement: RuleTree
    key: str
    schema: tuple[tuple[int, TypeAtom], ...] = ()

    def anchor_path(self) -> tuple[int, ...] | None:
        """Child-index path from the replacement root to the anchor."""

        def walk(node: RuleTree, path: tuple[int, ...]):
            if node.anchor:
                return path
            for idx, child in enumerate(node.children):
                found = walk(child, path + (idx,))
                if found is not None:
                    return found
            return None

        return walk(self.replacement, ())

    def __str__(self) -> str:
        if self.pattern is None:
            return f"=> {self.replacement}"
        sym, ann = self.pattern
        mark = f"^{ann}" if ann is not Annotation.NONE else ""
        return f"{sym}{mark} => {self.replacement}"


def _validate_rule(rule: RewritingRule) -> None:
    nodes = rule.replacement.preorder()
    anchors = [n for n in nodes if n.anchor]
    if rule.kind is RuleKind.CREATION:
        if rule.pattern is not None or anchors:
            raise RuleError(f"creation rule {rule.key} must have no pattern or anchor")
    else:
        if rule.pattern is None or len(anchors) != 1:
            raise RuleError(f"rule {rule.key} needs a pattern and exactly one anchor")
        sym, ann = rule.pattern
        expected = Annotation.D if rule.kind is RuleKind.TOP_DOWN else Annotation.U
        if ann is not expected:
            raise RuleError(f"rule {rule.key}: pattern mark {ann} does not fit {rule.kind.value}")
        if anchors[0].symbol != sym:
            raise RuleError(f"rule {rule.key}: anchor symbol differs from pattern")
        if anchors[0].annotation.needs_up:
            raise RuleError(f"rule {rule.key}: anchor cannot keep an upward mark")
    for node in nodes:
        if node.annotation.needs_down and node.children:
            raise RuleError(f"rule {rule.key}: downward-marked node has children")
        if node.annotation.needs_up and node is not rule.replacement:
            raise RuleError(f"rule {rule.key}: only the root may carry an upward mark")
        if node.symbol.is_terminal and node.children:
            raise RuleError(f"rule {rule.key}: terminal with children")
        if (
            node.symbol.is_terminal
            and node.annotation is not Annotation.NONE
            and node is not rule.replacement
        ):
            raise RuleError(f"rule {rule.key}: marked terminal below the root")
    size = len(nodes)
    for pos, _atom in rule.schema:
        if not 0 <= pos < size:
            raise RuleError(f"rule {rule.key}: schema position {pos} out of range")


GroupKey = tuple[str, str]

CREATION_GROUP: GroupKey = ("<create>", "")


def group_key_of(rule: RewritingRule) -> GroupKey:
    if rule.pattern is None:
        return CREATION_GROUP
    sym, ann = rule.pattern
    return (sym.name, ann.value)


class RuleSet:
    """An indexed collection of rewriting rules.

    Rules are grouped by their pattern, creation rules form one extra group;
    the groups partition the set.  Ids are reassigned positionally, keys must
    be unique.

    ``shared`` holds what was compiled once for rules this set shares with
    other sets (a ``constraints.SignatureTable``: the set's size bounds and
    those rules' search signatures); it is None for a set that shares none,
    and only ``joined`` sets it.
    """

    def __init__(self, rules: list[RewritingRule] | tuple[RewritingRule, ...]):
        for rule in rules:
            _validate_rule(rule)
        self._index(rules, None)

    @classmethod
    def joined(cls, parts: "tuple[RuleSet, ...]", *, shared=None) -> "RuleSet":
        """One set of the parts' rules, in order and renumbered.

        Each part validated its rules when it was built, and a rule's
        validity does not depend on its id, so only the keys are checked
        again.
        """
        out = cls.__new__(cls)
        out._index([rule for part in parts for rule in part.rules], shared)
        return out

    def _index(self, rules, shared) -> None:
        renumbered = []
        for idx, rule in enumerate(rules):
            if rule.id != idx:
                rule = RewritingRule(
                    idx, rule.kind, rule.pattern, rule.replacement, rule.key, rule.schema
                )
            renumbered.append(rule)
        self.rules: tuple[RewritingRule, ...] = tuple(renumbered)
        keys = [r.key for r in self.rules]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise RuleError(f"duplicate rule keys: {', '.join(dupes)}")
        self._groups: dict[GroupKey, tuple[RewritingRule, ...]] = {}
        grouping: dict[GroupKey, list[RewritingRule]] = {}
        for rule in self.rules:
            grouping.setdefault(group_key_of(rule), []).append(rule)
        self._groups = {k: tuple(v) for k, v in grouping.items()}
        self._by_key = {r.key: r for r in self.rules}
        self.shared = shared

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, rule_id: int) -> RewritingRule:
        return self.rules[rule_id]

    def by_key(self, key: str) -> RewritingRule:
        return self._by_key[key]

    @property
    def groups(self) -> dict[GroupKey, tuple[RewritingRule, ...]]:
        return dict(self._groups)

    @property
    def creation_rules(self) -> tuple[RewritingRule, ...]:
        return self._groups.get(CREATION_GROUP, ())

    def rules_for(self, symbol: Symbol, direction: Annotation) -> tuple[RewritingRule, ...]:
        """Candidate rules for expanding ``symbol`` in ``direction`` (D or U)."""
        return self._groups.get((symbol.name, direction.value), ())

    def merged(self, *others: "RuleSet") -> "RuleSet":
        return RuleSet.joined((self, *others))


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
                len(rules),
                RuleKind.TOP_DOWN,
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
                    len(rules),
                    RuleKind.BOTTOM_UP,
                    (anchor_sym, Annotation.U),
                    replacement,
                    key=f"bu{i}:{p.lhs.name}->{p.signature}",
                    schema=_schema_of(p),
                )
            )
    rules.append(
        RewritingRule(
            len(rules),
            RuleKind.BOTTOM_UP,
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
                len(rules),
                RuleKind.CREATION,
                None,
                RuleTree(g.root, Annotation.D),
                key=f"make-root:{g.root.name}",
            )
        )
    if CreationMode.LEAF in modes:
        for term in g.terminals:
            rules.append(
                RewritingRule(
                    len(rules),
                    RuleKind.CREATION,
                    None,
                    RuleTree(term, Annotation.U),
                    key=f"make-leaf:{term.name}",
                )
            )
    if CreationMode.MIDDLE in modes:
        for nt in g.nonterminals:
            rules.append(
                RewritingRule(
                    len(rules),
                    RuleKind.CREATION,
                    None,
                    RuleTree(nt, Annotation.UD),
                    key=f"make-mid:{nt.name}",
                )
            )
    return RuleSet(rules)
