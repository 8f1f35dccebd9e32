"""A small expression language for boolean conditions over typed variables.

Covers what shows up in guard conditions: comparisons, arithmetic, boolean
connectives, negation, array indexing, and zero-argument method calls.  The
parser builds a plain expression tree; ``canonical_tokens`` re-emits it with
minimal parentheses so that differently written but structurally equal
conditions collapse to one token list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import MiniLangError, MiniTypeError

# --------------------------------------------------------------------------
# lexing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<op>&&|\|\||>=|<=|==|!=|[-+*/%!<>\[\]().]))"
)


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise MiniLangError(f"bad character {rest[0]!r} at offset {pos}")
        token = m.group("num") or m.group("name") or m.group("op")
        if token:
            tokens.append(token)
        pos = m.end()
    return tokens


# --------------------------------------------------------------------------
# expression tree

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    text: str  # number literal, or one of true / false / null


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class Call(Expr):
    base: Expr
    method: str  # zero-argument methods only


_KEYWORD_LITERALS = frozenset({"true", "false", "null"})
_NAME_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


def is_variable_token(text: str) -> bool:
    """Whether ``text`` can name a variable: an identifier that is not one of
    the keyword literals."""
    return _NAME_RE.fullmatch(text) is not None and text not in _KEYWORD_LITERALS


# binary operators by binding strength, loosest first
_LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)
# binding strength per binary operator; higher binds tighter
_PRECEDENCE = {op: level for level, ops in enumerate(_LEVELS, 1) for op in ops}
_UNARY_PREC = 7
_POSTFIX_PREC = 8
_ATOM_PREC = 9


class _Parser:
    """Recursive descent over a token list.  Binary operators are parsed by
    precedence climbing: one ``binary`` loop takes every operator at least
    as tight as its bound, left-associatively, using ``_PRECEDENCE``, so a
    parse makes one ``binary`` call per operand instead of one per
    precedence level."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise MiniLangError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise MiniLangError(f"expected {token!r}, got {got!r}")

    def parse(self) -> Expr:
        expr = self.binary()
        if self.peek() is not None:
            raise MiniLangError(f"trailing input at {self.peek()!r}")
        return expr

    def binary(self, bound: int = 1) -> Expr:
        """An operand followed by any binary operators of precedence
        ``bound`` or tighter; each right operand takes only operators
        tighter than its own, so equal precedences associate left."""
        expr = self.unary()
        prec = _PRECEDENCE.get(self.peek())
        while prec is not None and prec >= bound:
            op = self.take()
            right = self.binary(prec + 1)
            expr = Binary(op, expr, right)
            prec = _PRECEDENCE.get(self.peek())
        return expr

    def unary(self) -> Expr:
        if self.peek() == "!":
            self.take()
            return Unary("!", self.unary())
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            token = self.peek()
            if token == "[":
                self.take()
                index = self.binary()
                self.expect("]")
                expr = Index(expr, index)
            elif token == ".":
                self.take()
                method = self.take()
                if not method[:1].isalpha() and method[:1] not in "_$":
                    raise MiniLangError(f"bad method name {method!r}")
                self.expect("(")
                self.expect(")")
                expr = Call(expr, method)
            else:
                return expr

    def primary(self) -> Expr:
        token = self.take()
        if token == "(":
            expr = self.binary()
            self.expect(")")
            return expr
        if token[0].isdigit():
            return Lit(token)
        if token in _KEYWORD_LITERALS:
            return Lit(token)
        if _NAME_RE.fullmatch(token):
            return Var(token)
        raise MiniLangError(f"unexpected token {token!r}")


def parse_condition(text: str) -> Expr:
    tokens = tokenize(text)
    if not tokens:
        raise MiniLangError("empty condition")
    return _Parser(tokens).parse()


# --------------------------------------------------------------------------
# type checking

_TYPE_CLASS_EXACT = {
    "Short": "IntegerLike",
    "Int": "IntegerLike",
    "Long": "IntegerLike",
    "Float": "FloatLike",
    "Double": "FloatLike",
    "Char": "StringLike",
    "Str": "StringLike",
    "String": "StringLike",
    "StringBuffer": "StringLike",
}

TYPE_CLASSES = (
    "IntegerLike",
    "FloatLike",
    "ArrayLike",
    "CollectionLike",
    "StringLike",
    "Other",
)


def classify_type(name: str) -> str:
    """Coarse class of a type name, for typing rules and features alike."""
    exact = _TYPE_CLASS_EXACT.get(name)
    if exact is not None:
        return exact
    if "Array" in name or name.endswith("[]"):
        return "ArrayLike"
    if "List" in name or "Set" in name or "Map" in name:
        return "CollectionLike"
    return "Other"


_ELEMENT_TYPES = {"IntArray": "Int", "StrArray": "Str", "FloatArray": "Float"}

# method -> (result type, acceptable base classes)
_METHODS = {
    "isEmpty": ("Boolean", ("CollectionLike", "StringLike")),
    "size": ("Int", ("CollectionLike",)),
    "length": ("Int", ("ArrayLike", "StringLike")),
}


def element_type(array_type: str) -> str:
    return _ELEMENT_TYPES.get(array_type, "Obj")


def _numeric(name: str) -> bool:
    return classify_type(name) in ("IntegerLike", "FloatLike")


def typecheck(expr: Expr, var_types: Mapping[str, str]) -> str:
    """Type of ``expr`` under the declarations, or a ``MiniTypeError``.

    Subexpressions are checked left to right, each before the node that
    holds it, and an indexed or called base before what follows it, so the
    first error met is the one raised.  The walk keeps an explicit stack of
    the subexpressions still to check and of (node, phase) entries that
    finish a node from the types of its checked operands, so a chain of any
    length types."""
    types: list[str] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            node, phase = item
            if isinstance(node, Binary):
                right = types.pop()
                types.append(_binary_type(node.op, types.pop(), right))
            elif isinstance(node, Unary):
                inner = types.pop()
                if inner != "Boolean":
                    raise MiniTypeError(f"! needs Boolean, got {inner}")
                types.append("Boolean")
            elif isinstance(node, Call):
                base = types.pop()
                entry = _METHODS.get(node.method)
                if entry is None:
                    raise MiniTypeError(f"unknown method {node.method}")
                result, accepted = entry
                if classify_type(base) not in accepted:
                    raise MiniTypeError(f"{base} has no method {node.method}")
                types.append(result)
            elif phase:  # an Index whose base is checked
                if classify_type(types[-1]) != "ArrayLike":
                    raise MiniTypeError(f"cannot index into {types[-1]}")
                stack += ((node, 0), node.index)
            else:
                index = types.pop()
                if index != "Int":
                    raise MiniTypeError(f"index must be Int, got {index}")
                types.append(element_type(types.pop()))
        elif isinstance(item, Var):
            declared = var_types.get(item.name)
            if declared is None:
                raise MiniTypeError(f"undeclared variable {item.name}")
            types.append(declared)
        elif isinstance(item, Lit):
            if item.text == "null":
                types.append("Null")
            elif item.text in ("true", "false"):
                types.append("Boolean")
            else:
                types.append("Float" if "." in item.text else "Int")
        elif isinstance(item, Binary):
            stack += ((item, 0), item.right, item.left)
        elif isinstance(item, Unary):
            stack += ((item, 0), item.operand)
        elif isinstance(item, Call):
            stack += ((item, 0), item.base)
        elif isinstance(item, Index):
            stack += ((item, 1), item.base)
        else:
            raise MiniTypeError(f"unsupported expression {item!r}")
    return types.pop()


def _binary_type(op: str, left: str, right: str) -> str:
    """The type of ``left op right``, or a ``MiniTypeError``."""
    if op in ("&&", "||"):
        if left != "Boolean" or right != "Boolean":
            raise MiniTypeError(f"{op} needs Boolean operands, got {left}, {right}")
        return "Boolean"
    if op in ("==", "!="):
        if left == right:
            return "Boolean"
        if _null_comparable(left, right) or _null_comparable(right, left):
            return "Boolean"
        raise MiniTypeError(f"cannot compare {left} with {right}")
    if op in ("<", ">", "<=", ">="):
        _require_same_numeric(op, left, right)
        return "Boolean"
    _require_same_numeric(op, left, right)
    return left


def _null_comparable(a: str, b: str) -> bool:
    # null can meet any reference-ish type but not the unboxed ones
    return a == "Null" and b not in ("Int", "Float", "Boolean")


def _require_same_numeric(op: str, left: str, right: str) -> None:
    if not (_numeric(left) and _numeric(right) and left == right):
        raise MiniTypeError(f"{op} needs equal numeric operands, got {left}, {right}")


# --------------------------------------------------------------------------
# canonical token form

def _prec_of(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Unary):
        return _UNARY_PREC
    if isinstance(expr, (Index, Call)):
        return _POSTFIX_PREC
    return _ATOM_PREC


def _push_operand(stack: list, expr: Expr, prec: int, right_side: bool) -> None:
    """Push an operand of an operator of precedence ``prec`` for
    ``tokens_with_vars``, parenthesized when it binds looser than the
    operator, or as tightly on its right side."""
    own = _prec_of(expr)
    if own < prec or (own == prec and right_side):
        stack += ((")", False), expr, ("(", False))
    else:
        stack.append(expr)


def tokens_with_vars(expr: Expr) -> list[tuple[str, bool]]:
    """Canonical tokens, each tagged with whether it is a variable leaf.

    The walk keeps an explicit stack of what is still to emit, last first:
    subexpressions, and tokens as (text, is variable) pairs.  So a chain of
    any length emits."""
    out: list[tuple[str, bool]] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            out.append(item)
        elif isinstance(item, Var):
            out.append((item.name, True))
        elif isinstance(item, Lit):
            out.append((item.text, False))
        elif isinstance(item, Binary):
            prec = _PRECEDENCE[item.op]
            _push_operand(stack, item.right, prec, True)
            stack.append((item.op, False))
            _push_operand(stack, item.left, prec, False)
        elif isinstance(item, Unary):
            _push_operand(stack, item.operand, _UNARY_PREC, False)
            stack.append(("!", False))
        elif isinstance(item, Index):
            stack += (("]", False), item.index, ("[", False))
            _push_operand(stack, item.base, _POSTFIX_PREC, False)
        elif isinstance(item, Call):
            stack += ((")", False), ("(", False), (item.method, False), (".", False))
            _push_operand(stack, item.base, _POSTFIX_PREC, False)
        else:
            raise MiniLangError(f"cannot render {item!r}")
    return out


def canonical_tokens(expr: Expr) -> list[str]:
    return [text for text, _ in tokens_with_vars(expr)]


_NO_SPACE_BEFORE = frozenset({"[", "]", ")", ".", ","})
_NO_SPACE_AFTER = frozenset({"[", "(", ".", "!"})


def join_tokens(tokens) -> str:
    """Single-space join with the punctuation squeezed tight.

    An opening parenthesis is tight only in a call, recognizable as the
    ``. name (`` pattern; a grouping parenthesis keeps its leading space.
    """
    out: list[str] = []
    prev: str | None = None
    prev2: str | None = None
    for token in tokens:
        tight = (
            token in _NO_SPACE_BEFORE
            or (prev is not None and prev in _NO_SPACE_AFTER)
            or (token == "(" and prev2 == ".")
        )
        if prev is not None and not tight:
            out.append(" ")
        out.append(token)
        prev2 = prev
        prev = token
    return "".join(out)


def logic_atoms(expr: Expr) -> list[Expr]:
    """The atomic subtrees of a parsed condition, left to right, with the
    negations and ``&&``/``||`` connectives above them stripped.

    ``!(a && b) || c`` gives the subtrees ``a``, ``b`` and ``c``; a
    condition without connectives gives itself.  ``load_corpus`` makes one
    record of each atom.  The walk keeps an explicit stack, so a chain of
    any length splits.
    """
    atoms: list[Expr] = []
    stack = [expr]
    while stack:
        expr = stack.pop()
        if isinstance(expr, Unary) and expr.op == "!":
            stack.append(expr.operand)
        elif isinstance(expr, Binary) and expr.op in ("&&", "||"):
            stack += (expr.right, expr.left)
        else:
            atoms.append(expr)
    return atoms
