"""Condition language: lexing, parsing, typing, canonical re-emission."""

import pytest

from progest.errors import MiniLangError, MiniTypeError
from progest.minilang import (
    Binary,
    Call,
    Index,
    Lit,
    Unary,
    Var,
    canonical,
    canonical_tokens,
    classify_type,
    element_type,
    join_tokens,
    logic_atoms,
    parse_condition,
    tokenize,
    tokens_with_vars,
    typecheck,
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
