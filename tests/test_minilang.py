"""Condition language: lexing, parsing, typing, canonical re-emission."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progest.errors import MiniLangError, MiniTypeError
from progest.minilang import (
    Binary,
    Call,
    Expr,
    Index,
    Lit,
    Unary,
    Var,
    canonical_tokens,
    classify_type,
    element_type,
    join_tokens,
    logic_atoms,
    parse_condition,
    tokenize,
    tokens_with_vars,
    typecheck,
    _Parser,
)
from tests_support import (
    ReferenceParser,
    canonical,
    reference_logic_atoms,
    reference_tokens_with_vars,
    reference_typecheck,
)

TYPES = {
    "count": "Int",
    "ratio": "Float",
    "done": "Boolean",
    "name": "Str",
    "items": "ItemList",
    "data": "IntArray",
    "lookup": "KeyMap",
    "owner": "Obj",
}


def test_tokenize_basics():
    assert tokenize("count >= 12") == ["count", ">=", "12"]
    assert tokenize("a&&b||!c") == ["a", "&&", "b", "||", "!", "c"]
    assert tokenize("data[0].length()") == [
        "data", "[", "0", "]", ".", "length", "(", ")",
    ]
    assert tokenize("ratio > 0.5") == ["ratio", ">", "0.5"]
    assert tokenize("") == []


def test_tokenize_rejects_stray_characters():
    with pytest.raises(MiniLangError):
        tokenize("count @ 3")


def test_parse_shapes():
    assert parse_condition("count > 12") == Binary(">", Var("count"), Lit("12"))
    assert parse_condition("!done") == Unary("!", Var("done"))
    assert parse_condition("data[0]") == Index(Var("data"), Lit("0"))
    assert parse_condition("items.isEmpty()") == Call(Var("items"), "isEmpty")


def test_parse_precedence():
    e = parse_condition("count + 1 > 12 && done")
    assert isinstance(e, Binary) and e.op == "&&"
    assert e.left == Binary(">", Binary("+", Var("count"), Lit("1")), Lit("12"))
    grouped = parse_condition("count * (count + 1)")
    assert grouped == Binary("*", Var("count"), Binary("+", Var("count"), Lit("1")))


def test_parse_left_associativity():
    e = parse_condition("count - 1 - 2")
    assert e == Binary("-", Binary("-", Var("count"), Lit("1")), Lit("2"))


@pytest.mark.parametrize(
    "text",
    ["", "count >", "(count", "count )", "count.foo(1)", "count ++", "12 12"],
)
def test_parse_rejects(text):
    with pytest.raises(MiniLangError):
        parse_condition(text)


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("count > 12", "Boolean"),
        ("count + 1", "Int"),
        ("ratio >= 0.5", "Boolean"),
        ("done == false", "Boolean"),
        ("!done", "Boolean"),
        ("name == null", "Boolean"),
        ("owner != null", "Boolean"),
        ("items.isEmpty()", "Boolean"),
        ("items.size()", "Int"),
        ("data.length()", "Int"),
        ("name.length()", "Int"),
        ("data[0]", "Int"),
        ("data[count]", "Int"),
        ("lookup.size() > 0", "Boolean"),
        ("done && count > 0", "Boolean"),
    ],
)
def test_typecheck_accepts(text, expected):
    assert typecheck(parse_condition(text), TYPES) == expected


@pytest.mark.parametrize(
    "text",
    [
        "missing > 0",          # undeclared
        "count > ratio",        # mixed numerics
        "count > done",
        "count && done",        # non-Boolean connective operand
        "!count",
        "count == null",        # unboxed against null
        "name + name",          # no string arithmetic here
        "count.isEmpty()",
        "items.length()",       # lists measure with size()
        "data.size()",
        "name[0]",
        "data[ratio]",
        "count.unknown()",
    ],
)
def test_typecheck_rejects(text):
    with pytest.raises(MiniTypeError):
        typecheck(parse_condition(text), TYPES)


def test_classify_type():
    assert classify_type("Int") == "IntegerLike"
    assert classify_type("Double") == "FloatLike"
    assert classify_type("String") == "StringLike"
    assert classify_type("IntArray") == "ArrayLike"
    assert classify_type("ItemList") == "CollectionLike"
    assert classify_type("KeyMap") == "CollectionLike"
    assert classify_type("UserSet") == "CollectionLike"
    assert classify_type("Obj") == "Other"


def test_element_type():
    assert element_type("IntArray") == "Int"
    assert element_type("ObjArray") == "Obj"


def test_canonical_normalizes_spacing():
    assert canonical("count>12") == "count > 12"
    assert canonical("items . isEmpty ( )") == "items.isEmpty()"
    assert canonical("data[ 0 ] != null") == "data[0] != null"


def test_canonical_drops_redundant_parens():
    assert canonical("(count) > (12)") == "count > 12"
    assert canonical("(count + 1) > 12") == "count + 1 > 12"
    assert canonical("count + (1 * 2)") == "count + 1 * 2"


def test_canonical_keeps_needed_parens():
    assert canonical("(count + 1) * 2") == "(count + 1) * 2"
    assert canonical("count - (1 - 2)") == "count - (1 - 2)"
    assert canonical("!(done && found)") == "!(done && found)"


def test_canonical_is_idempotent():
    for text in ("count+1>12", "!(done&&done)", "data[count-1]>0"):
        once = canonical(text)
        assert canonical(once) == once


def test_tokens_with_vars_tags_variables_only():
    tagged = tokens_with_vars(parse_condition("count > 12"))
    assert tagged == [("count", True), (">", False), ("12", False)]
    tagged = tokens_with_vars(parse_condition("items.isEmpty()"))
    assert [t for t, is_var in tagged if is_var] == ["items"]


def test_split_logic_ops():
    """``logic_atoms`` splits a condition at its connectives and descends
    under its negations."""

    def atoms(text):
        return [
            join_tokens(canonical_tokens(a)) for a in logic_atoms(parse_condition(text))
        ]

    assert atoms("count > 0 && done") == ["count > 0", "done"]
    assert atoms("!(count > 0 || done)") == ["count > 0", "done"]
    assert atoms("count>0") == ["count > 0"]
    assert atoms("!done") == ["done"]


_LOGIC_TREES = st.recursive(
    st.one_of(
        st.builds(Var, st.sampled_from("abcdef")),
        st.builds(Lit, st.sampled_from(["0", "1", "true"])),
    ),
    lambda parts: st.one_of(
        parts.map(lambda e: Unary("!", e)),
        parts.map(lambda e: Unary("-", e)),
        st.tuples(st.sampled_from(["&&", "||", "=="]), parts, parts).map(
            lambda t: Binary(*t)
        ),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_LOGIC_TREES)
def test_logic_atoms_match_the_recursive_reference(expr):
    """Over random trees of ``!``, ``&&`` and ``||`` (and operators that
    are no connective), the stack walk gives the recursion's atoms: the
    same objects, in the same order."""
    assert list(map(id, logic_atoms(expr))) == list(map(id, reference_logic_atoms(expr)))


_BINARY_OPS = ("||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%")
# every operator and method the walkers know, one they do not, and a node
# type neither knows (``Expr`` itself)
_TYPED_TREES = st.recursive(
    st.sampled_from([
        *map(Var, [*TYPES, "undeclared"]),
        *map(Lit, ["0", "12", "1.5", "true", "false", "null"]),
        Expr(),
    ]),
    lambda parts: st.one_of(
        parts.map(lambda e: Unary("!", e)),
        st.builds(Binary, st.sampled_from(_BINARY_OPS), parts, parts),
        st.builds(Index, parts, parts),
        st.builds(Call, parts, st.sampled_from(["isEmpty", "size", "length", "peek"])),
    ),
    max_leaves=20,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MiniLangError, MiniTypeError) as err:
        return type(err), str(err)


@settings(max_examples=500, deadline=None)
@given(_TYPED_TREES)
def test_tokens_with_vars_match_the_recursive_reference(expr):
    """Over random trees of every node type, the stack walk emits the
    recursion's tokens and parentheses, or fails with its error."""
    assert _outcome(tokens_with_vars, expr) == _outcome(reference_tokens_with_vars, expr)


@settings(max_examples=500, deadline=None)
@given(_TYPED_TREES)
def test_typecheck_matches_the_recursive_reference(expr):
    """Over random trees of every node type, mostly ill-typed, the stack
    walk gives the recursion's type, or the first error it meets."""
    assert _outcome(typecheck, expr, TYPES) == _outcome(reference_typecheck, expr, TYPES)


def test_walkers_match_the_recursive_references_on_the_corpus(corpus_records):
    """On every corpus condition, each well-typed under its context, the
    stack walks give the recursions' tokens and type."""
    for record in corpus_records:
        expr, types = record.expr, record.context.variable_types
        assert tokens_with_vars(expr) == reference_tokens_with_vars(expr), record.id
        assert typecheck(expr, types) == reference_typecheck(expr, types), record.id


# --------------------------------------------------------------------------
# the precedence-climbing parser against the level-recursive reference

_VOCABULARY = _BINARY_OPS + (
    "a", "b", "x1", "$v", "_w", "0", "12", "1.5", "true", "false", "null",
    "(", ")", "[", "]", ".", "!", "size", "isEmpty", "1x", "@", "",
)
_OPERANDS = st.sampled_from([
    ["a"], ["b"], ["0"], ["12"], ["1.5"], ["true"], ["null"],
    ["items", ".", "size", "(", ")"], ["data", "[", "0", "]"],
])


def _compound(parts):
    """Operands built from ``parts``, joined by binary operators."""
    operand = st.one_of(
        parts,
        parts.map(lambda p: ["!"] + p),
        parts.map(lambda p: ["("] + p + [")"]),
        st.tuples(parts, parts).map(lambda t: t[0] + ["["] + t[1] + ["]"]),
        parts.map(lambda p: ["("] + p + [")", ".", "isEmpty", "(", ")"]),
    )
    tail = st.lists(st.tuples(st.sampled_from(_BINARY_OPS), operand), max_size=4)
    return st.tuples(operand, tail).map(
        lambda t: t[0] + [token for op, right in t[1] for token in [op] + right]
    )


_EXPRESSIONS = st.recursive(_OPERANDS, _compound, max_leaves=10)


@st.composite
def _token_lists(draw):
    """The tokens of a well-formed condition, with up to two tokens dropped
    or put in, or a list of arbitrary tokens."""
    if draw(st.integers(0, 3)) == 3:
        return draw(st.lists(st.sampled_from(_VOCABULARY), max_size=12))
    tokens = list(draw(_EXPRESSIONS))  # the operands are shared lists
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, draw(st.sampled_from(_VOCABULARY)))
    return tokens


def _parse_with(parser_class, tokens):
    try:
        return parser_class(list(tokens)).parse()
    except Exception as err:  # noqa: BLE001 - both parsers must fail alike
        return type(err), str(err)


@settings(max_examples=500, deadline=None)
@given(_token_lists())
def test_parser_matches_the_level_recursive_reference(tokens):
    """Over random token sequences, the precedence-climbing parser gives
    the reference's equal tree or the same ``MiniLangError`` message."""
    got = _parse_with(_Parser, tokens)
    want = _parse_with(ReferenceParser, tokens)
    assert got == want
    if not isinstance(want, Expr):
        assert want[0] in (MiniLangError, IndexError)  # IndexError: the "" token


def test_parser_makes_one_binary_call_per_operand(monkeypatch):
    """Precedence climbing calls ``binary`` once for the whole condition
    and once for each operand right of an operator, not once per level."""
    calls = []
    climb = _Parser.binary
    monkeypatch.setattr(
        _Parser, "binary", lambda self, *bound: calls.append(bound) or climb(self, *bound)
    )
    parse_condition("a + 1 > 12 && !done || b")
    assert len(calls) == 1 + 4
