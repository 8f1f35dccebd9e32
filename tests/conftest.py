"""Shared fixtures: demo grammar, bundled corpus, worked-example stub model."""

import dataclasses
import pathlib

import pytest

from progest.condsynth import load_corpus
from progest.grammar import (
    CreationMode,
    Grammar,
    RuleSet,
    derive_creation_rules,
    derive_top_down_rules,
    load_grammar,
)
from progest.models import TableModel
from tests_support import classify_demo_rules

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "data"
DEMO_GRAMMAR = DATA / "demo" / "demo_grammar.txt"


@pytest.fixture(scope="session")
def demo_grammar() -> Grammar:
    return load_grammar(DEMO_GRAMMAR.read_text())


@pytest.fixture(scope="session")
def corpus_records():
    return load_corpus(DATA / "corpus.jsonl")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA


@dataclasses.dataclass(frozen=True)
class WorkedExample:
    rules: RuleSet
    model: TableModel
    keys: dict


@pytest.fixture(scope="session")
def worked_example(demo_grammar) -> WorkedExample:
    """Top-down rules plus the fixed step odds of the running example.

    Root choices get 0.3 and 0.6; the operand choices get 0.8/0.1/0.05 under
    the "> 12" parent and 0.1/0.2/0.05 under the "> 0" parent.  Unlisted
    pairs fall back to zero, so addition chains die out on their own.
    """
    rs = RuleSet([
        *derive_top_down_rules(demo_grammar),
        *derive_creation_rules(demo_grammar, [CreationMode.ROOT]),
    ])
    keys = classify_demo_rules(rs)
    table = {
        "": {keys["root"]: 1.0},
        keys["root"]: {keys["gt12"]: 0.3, keys["gt0"]: 0.6},
        keys["gt12"]: {keys["hours"]: 0.8, keys["value"]: 0.1, keys["plus"]: 0.05},
        keys["gt0"]: {keys["hours"]: 0.1, keys["value"]: 0.2, keys["plus"]: 0.05},
    }
    return WorkedExample(rules=rs, model=TableModel.from_nested(table), keys=keys)
