"""Synthetic corpus generator and demo fixtures."""

import hashlib
import json

import pytest

from progest.bundle import load_bundle
from progest.condsynth import load_corpus
from progest.datagen import (
    DEFAULT_SEED,
    DEFAULT_SIZE,
    demo_bundle,
    demo_context,
    generate_corpus,
    main,
    write_corpus,
    write_demo_files,
)
from progest.features import Context
from progest.grammar import load_grammar


def test_generation_is_deterministic():
    assert generate_corpus(50, seed=5) == generate_corpus(50, seed=5)
    assert generate_corpus(50, seed=5) != generate_corpus(50, seed=6)


def test_full_corpus_is_valid_and_big_enough(tmp_path):
    records = generate_corpus()
    assert len(records) == DEFAULT_SIZE
    path = tmp_path / "corpus.jsonl"
    write_corpus(str(path), records)
    atoms = load_corpus(str(path))
    # connective splitting can only add entries
    assert len(atoms) >= 500
    assert len({r.id for r in atoms}) == len(atoms)


def test_bundled_corpus_matches_generator(tmp_path, data_dir):
    path = tmp_path / "regen.jsonl"
    write_corpus(str(path), generate_corpus(DEFAULT_SIZE, DEFAULT_SEED))
    assert path.read_bytes() == (data_dir / "corpus.jsonl").read_bytes()


def test_heldout_corpus_bytes_are_pinned(tmp_path):
    """The 300 held-out records of seed "heldout-1", which the benchmark
    sessions rank, keep every byte: a faster draw must roll the same."""
    path = tmp_path / "heldout.jsonl"
    write_corpus(str(path), generate_corpus(300, "heldout-1"))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "eb73139bb97223e990d71c35a0ec4ad5e63bf2aa3271e30d08f54fea54248eac"
    )


def test_record_shape():
    record = generate_corpus(1, seed=0)[0]
    assert set(record) == {"id", "condition", "context"}
    ctx = Context.from_dict(record["context"])
    assert ctx.result_type == "Boolean"
    assert ctx.variables


def test_demo_context_round_trip():
    ctx = demo_context()
    assert Context.from_dict(ctx.to_dict()) == ctx
    assert [v.name for v in ctx.variables] == ["hours", "value"]


def test_demo_bundle_builds():
    bundle = demo_bundle()
    assert bundle.model_kind == "table"
    model = bundle.build_model()
    keys = {key for _, key in model.table}
    assert "make-var:hours" in keys


def test_write_demo_files_matches_checked_in(tmp_path, data_dir):
    write_demo_files(str(tmp_path))
    for name in ("demo_grammar.txt", "demo_context.json", "demo_bundle.json"):
        assert (tmp_path / name).read_bytes() == (data_dir / "demo" / name).read_bytes()
    load_grammar((tmp_path / "demo_grammar.txt").read_text())
    bundle = load_bundle(str(tmp_path / "demo_bundle.json"))
    assert bundle.templates
    ctx = Context.from_dict(
        json.loads((tmp_path / "demo_context.json").read_text())
    )
    assert ctx.method_name == "needsOvertime"


def test_main_writes_requested_size(tmp_path):
    out = tmp_path / "small.jsonl"
    assert main(["--out", str(out), "--n", "20", "--seed", "3"]) == 0
    assert len(out.read_text().splitlines()) == 20


@pytest.mark.parametrize("n", ["0", "-3"])
def test_main_refuses_a_size_below_one(tmp_path, capsys, n):
    out = tmp_path / "empty.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(out), "--n", n])
    assert exit_info.value.code == 2
    assert f"argument --n: {n} is not 1 or more" in capsys.readouterr().err
    assert not out.exists()
