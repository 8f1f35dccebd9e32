"""Shared fixtures: demo grammar, bundled corpus, worked-example stub model."""

import dataclasses
import pathlib

import pytest

from progest.condsynth import load_corpus
from progest.grammar import Grammar, RuleSet, load_grammar
from progest.models import TableModel
from tests_support import stub_rules_and_model

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
    rs, model, keys = stub_rules_and_model(demo_grammar)
    return WorkedExample(rules=rs, model=model, keys=keys)
