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
    """Type of ``expr`` under the declarations, or a ``MiniTypeError``."""
    if isinstance(expr, Lit):
        if expr.text == "null":
            return "Null"
        if expr.text in ("true", "false"):
            return "Boolean"
        return "Float" if "." in expr.text else "Int"
    if isinstance(expr, Var):
        declared = var_types.get(expr.name)
        if declared is None:
            raise MiniTypeError(f"undeclared variable {expr.name}")
        return declared
    if isinstance(expr, Unary):
        inner = typecheck(expr.operand, var_types)
        if inner != "Boolean":
            raise MiniTypeError(f"! needs Boolean, got {inner}")
        return "Boolean"
    if isinstance(expr, Binary):
        left = typecheck(expr.left, var_types)
        right = typecheck(expr.right, var_types)
        op = expr.op
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
    if isinstance(expr, Index):
        base = typecheck(expr.base, var_types)
        if classify_type(base) != "ArrayLike":
            raise MiniTypeError(f"cannot index into {base}")
        index = typecheck(expr.index, var_types)
        if index != "Int":
            raise MiniTypeError(f"index must be Int, got {index}")
        return element_type(base)
    if isinstance(expr, Call):
        base = typecheck(expr.base, var_types)
        entry = _METHODS.get(expr.method)
        if entry is None:
            raise MiniTypeError(f"unknown method {expr.method}")
        result, accepted = entry
        if classify_type(base) not in accepted:
            raise MiniTypeError(f"{base} has no method {expr.method}")
        return result
    raise MiniTypeError(f"unsupported expression {expr!r}")


def _null_comparable(a: str, b: str) -> bool:
    # null can meet any reference-ish type but not the unboxed ones
    return a == "Null" and b not in ("Int", "Float", "Boolean")


def _require_same_numeric(op: str, left: str, right: str) -> None:
    if not (_numeric(left) and _numeric(right) and left == right):
        raise MiniTypeError(f"{op} needs equal numeric operands, got {left}, {right}")


# --------------------------------------------------------------------------
# canonical token form

def _emit(expr: Expr, parent_prec: int, right_side: bool) -> list[tuple[str, bool]]:
    prec = _prec_of(expr)
    inner = _emit_bare(expr)
    if prec < parent_prec or (prec == parent_prec and right_side):
        return [("(", False)] + inner + [(")", False)]
    return inner


def _prec_of(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Unary):
        return _UNARY_PREC
    if isinstance(expr, (Index, Call)):
        return _POSTFIX_PREC
    return _ATOM_PREC


def _emit_bare(expr: Expr) -> list[tuple[str, bool]]:
    if isinstance(expr, Lit):
        return [(expr.text, False)]
    if isinstance(expr, Var):
        return [(expr.name, True)]
    if isinstance(expr, Unary):
        return [("!", False)] + _emit(expr.operand, _UNARY_PREC, False)
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        left = _emit(expr.left, prec, False)
        right = _emit(expr.right, prec, True)
        return left + [(expr.op, False)] + right
    if isinstance(expr, Index):
        base = _emit(expr.base, _POSTFIX_PREC, False)
        return base + [("[", False)] + _emit(expr.index, 0, False) + [("]", False)]
    if isinstance(expr, Call):
        base = _emit(expr.base, _POSTFIX_PREC, False)
        return base + [(".", False), (expr.method, False), ("(", False), (")", False)]
    raise MiniLangError(f"cannot render {expr!r}")


def tokens_with_vars(expr: Expr) -> list[tuple[str, bool]]:
    """Canonical tokens, each tagged with whether it is a variable leaf."""
    return _emit(expr, 0, False)


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
    record of each atom.
    """
    atoms: list[Expr] = []
    _add_atoms(expr, atoms)
    return atoms


def _add_atoms(expr: Expr, atoms: list[Expr]) -> None:
    """Append the atoms of ``expr`` to ``atoms``, left to right; a
    module-level recursion, so that no call leaves a reference cycle."""
    if isinstance(expr, Unary) and expr.op == "!":
        _add_atoms(expr.operand, atoms)
    elif isinstance(expr, Binary) and expr.op in ("&&", "||"):
        _add_atoms(expr.left, atoms)
        _add_atoms(expr.right, atoms)
    else:
        atoms.append(expr)
