"""Command-line interface, driven in process through cli.main."""

import json
import re
import shlex
from pathlib import Path

import pytest

from progest.bundle import load_bundle, sha256_of_file
from progest.cli import main
from progest.condsynth import BARE_NULL_CHECK, load_corpus
from progest.datagen import generate_corpus, write_corpus
from progest.features import Context, VariableInfo


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.jsonl"
    write_corpus(str(path), generate_corpus(30, seed=2))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_frequency(capsys, tmp_path, small_corpus):
    out_path = tmp_path / "freq.json"
    code, out, _ = run(
        capsys,
        ["train", "--corpus", str(small_corpus), "--bundle", str(out_path)],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trained frequency on ")
    assert lines[0].endswith("templates)")
    assert lines[1].startswith("training instances: ")
    assert lines[-1] == f"wrote {out_path}"
    assert load_bundle(str(out_path)).model_kind == "frequency"


def test_train_logistic(capsys, tmp_path, small_corpus):
    out_path = tmp_path / "log.json"
    code, out, _ = run(
        capsys,
        ["train", "--corpus", str(small_corpus), "--bundle", str(out_path),
         "--model", "logistic", "--pca-dims", "4"],
    )
    assert code == 0
    assert "trained logistic" in out
    bundle = load_bundle(str(out_path))
    assert bundle.model_kind == "logistic"
    assert bundle.pipeline_params is not None


def test_train_empty_corpus(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(
        capsys,
        ["train", "--corpus", str(empty), "--bundle", str(tmp_path / "x.json")],
    )
    assert code == 1
    assert "corpus is empty" in err


REPO = Path(__file__).resolve().parent.parent


def readme_transcripts() -> dict[str, str]:
    """Each ``$ progest …`` command in README.md's code fences, mapped to
    the lines printed under it, up to the next command or the fence's end,
    less the blank lines that part one command from the next."""
    transcripts: dict[str, list[str]] = {}
    command = None
    in_fence = False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            command = None
        elif in_fence and line.startswith("$ progest "):
            command = line[2:]
            transcripts[command] = []
        elif command is not None:
            transcripts[command].append(line)
    return {
        command: "\n".join(lines).rstrip("\n") + "\n"
        for command, lines in transcripts.items()
    }


README = readme_transcripts()

# the `$ progest` commands of README.md
README_CHECK = "progest check --grammar data/demo/demo_grammar.txt"
README_CHECK_FULL = README_CHECK + " --rules full"
README_PREDICT = (
    "progest predict data/demo/demo_context.json --bundle data/demo/demo_bundle.json"
)
README_TRAIN = "progest train --corpus data/corpus.jsonl --bundle freq.json"
README_EVAL = "progest eval --corpus data/corpus.jsonl --model frequency --repeats 2"


def test_every_readme_command_is_run():
    assert sorted(README) == sorted(
        [README_CHECK, README_CHECK_FULL, README_PREDICT, README_TRAIN, README_EVAL]
    )


def assert_readme_transcript(capsys, monkeypatch, tmp_path, command, want_code=0):
    """Run a README command from ``tmp_path``, its ``data/…`` arguments
    read from this repository, and compare its exit code and its stdout,
    byte for byte, with what README.md shows."""
    monkeypatch.chdir(tmp_path)
    argv = [
        str(REPO / arg) if arg.startswith("data/") else arg
        for arg in shlex.split(command)[1:]
    ]
    assert run(capsys, argv) == (want_code, README[command], "")


def test_predict_demo(capsys, monkeypatch, tmp_path):
    assert_readme_transcript(capsys, monkeypatch, tmp_path, README_PREDICT)


def test_predict_k_zero(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json"), "--k", "0"],
    )
    assert code == 0
    assert out == ""


def test_predict_prints_inf_where_the_probability_overflows(
    capsys, tmp_path, data_dir
):
    """A table bundle may hold any finite odds, so a tree's log p can pass
    what ``exp`` can raise to: its probability prints as inf, not a
    traceback."""
    demo = data_dir / "demo"
    data = json.loads((demo / "demo_bundle.json").read_text())
    table = data["model"]["table"]
    table[""]["make-var:hours"] = 1e300
    table["make-var:hours"]["expr:V1 > 12::Int"] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, out, err = run(
        capsys, ["predict", str(demo / "demo_context.json"), "--bundle", str(path)]
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "1\tinf\thours > 12"


def test_predict_no_candidates(capsys, tmp_path, data_dir):
    ctx = Context(
        variables=(VariableInfo("flag", "Boolean"),),
        result_type="Boolean",
    )
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(ctx.to_dict()))
    code, out, err = run(
        capsys,
        ["predict", str(path),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json")],
    )
    assert code == 1
    assert out == ""
    assert "no candidates" in err


def test_predict_no_anti_patterns_flag(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json"),
         "--no-anti-patterns"],
    )
    assert code == 0
    assert out.splitlines()[0] == "1\t0.240000\thours > 12"


def test_predict_screens_bare_null_checks_unless_told_not_to(
    capsys, tmp_path, small_corpus
):
    """On a corpus context whose likeliest condition is a bare null check,
    the default output drops each such check before it cuts to k, and
    ``--no-anti-patterns`` keeps them."""
    bundle = tmp_path / "freq.json"
    assert main(["train", "--corpus", str(small_corpus), "--bundle", str(bundle)]) == 0
    ctx_path = tmp_path / "ctx.json"
    ctx_path.write_text(json.dumps(load_corpus(str(small_corpus))[0].context.to_dict()))
    capsys.readouterr()
    argv = ["predict", str(ctx_path), "--bundle", str(bundle), "--k", "10"]
    screened = run(capsys, argv)
    kept = run(capsys, [*argv, "--no-anti-patterns"])
    assert screened[0] == kept[0] == 0
    kept_lines = [line.split("\t") for line in kept[1].splitlines()]
    assert kept_lines[0][1:] == ["0.222222", "holder != null"]
    assert [r for *_, r in kept_lines if not BARE_NULL_CHECK.search(r)][:10] == [
        line.split("\t")[2] for line in screened[1].splitlines()
    ]


def test_eval_with_csv(capsys, tmp_path, small_corpus):
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        ["eval", "--corpus", str(small_corpus), "--model", "frequency",
         "--k", "5", "--csv", str(csv_path)],
    )
    assert code == 0
    assert "model: frequency" in out
    assert "precision@1 = " in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "model,cutoff,solved,tested,precision"
    assert all(row.startswith("frequency,") for row in rows[1:])
    assert len(rows) > 1


def test_eval_output_is_pinned(capsys, monkeypatch, tmp_path):
    assert_readme_transcript(capsys, monkeypatch, tmp_path, README_EVAL)


@pytest.mark.parametrize("atoms, split", [(1, 0.1), (2, 0.9), (3, 0.9)])
def test_eval_refuses_a_split_that_leaves_nothing_to_train(
    capsys, tmp_path, small_corpus, atoms, split
):
    """A split that holds out every atom is refused before training, with
    the counts, rather than as a corpus that yielded no templates."""
    path = tmp_path / "tiny.jsonl"
    path.write_text("".join(
        json.dumps({**json.loads(line), "condition": "true"}) + "\n"
        for line in small_corpus.read_text().splitlines()[:atoms]
    ))
    code, out, err = run(
        capsys, ["eval", "--corpus", str(path), "--split", str(split)]
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: split {split:g} holds out {atoms} of {atoms} atoms, "
        "which leaves none to train on\n"
    )


def test_eval_uniform(capsys, small_corpus):
    code, out, _ = run(
        capsys,
        ["eval", "--corpus", str(small_corpus), "--model", "uniform",
         "--k", "3"],
    )
    assert code == 0
    assert "model: uniform" in out


@pytest.mark.parametrize(
    "command, want_code",
    [
        pytest.param(README_CHECK, 0, id="topdown"),
        pytest.param(README_CHECK_FULL, 1, id="full"),
    ],
)
def test_check_output_is_pinned(capsys, monkeypatch, tmp_path, command, want_code):
    assert_readme_transcript(capsys, monkeypatch, tmp_path, command, want_code)


def test_check_below_the_smallest_tree_certifies_nothing(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["check", "--grammar", str(data_dir / "demo" / "demo_grammar.txt"),
         "--bound", "1"],
    )
    assert code == 1
    assert "nothing certified (bound 1)" in out
    assert "unambiguous" not in out
    assert "checked 0 trees" in out


def test_check_rejects_a_repeated_production(capsys, tmp_path):
    grammar = tmp_path / "repeat.txt"
    grammar.write_text('E -> "x" | "x"\n', encoding="utf-8")
    code, out, err = run(capsys, ["check", "--grammar", str(grammar)])
    assert (code, out, err) == (2, "", f'error: {grammar}: repeated production E -> "x"\n')


def test_check_tells_a_terminal_from_a_nonterminal_of_its_name(capsys, tmp_path):
    """The terminal "E" and the nonterminal E get rules of their own, so the
    full rule set is certified, here as ambiguous with a witness."""
    grammar = tmp_path / "collide.txt"
    grammar.write_text('E -> "E" | E "+" E\n', encoding="utf-8")
    code, out, err = run(
        capsys,
        ["check", "--grammar", str(grammar), "--rules", "full", "--bound", "5"],
    )
    assert (code, err) == (1, "")
    assert "ambiguous (bound 5)" in out
    assert 'witness: "E" has two build histories' in out


def test_missing_file_is_exit_2(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", "no-such-bundle.json"],
    )
    assert code == 2
    assert err.startswith("error:")


# each reader of an input file, in a command that also reads good files
READERS = {
    "bundle": ["predict", "{demo}/demo_context.json", "--bundle", "{bad}"],
    "context": ["predict", "{bad}", "--bundle", "{demo}/demo_bundle.json"],
    "corpus": ["train", "--corpus", "{bad}", "--bundle", "{tmp}/out.json"],
    "eval-corpus": ["eval", "--corpus", "{bad}"],
    "grammar": ["check", "--grammar", "{bad}"],
}


def _run_reader(capsys, tmp_path, data_dir, reader, content: bytes):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    paths = dict(bad=bad, demo=data_dir / "demo", tmp=tmp_path)
    code, out, err = run(capsys, [arg.format(**paths) for arg in READERS[reader]])
    assert (code, out) == (2, "")
    return err, bad


@pytest.mark.parametrize("reader", list(READERS))
def test_an_input_that_is_not_utf8_is_exit_2(capsys, tmp_path, data_dir, reader):
    """Whichever file is not UTF-8, the message names it."""
    err, bad = _run_reader(capsys, tmp_path, data_dir, reader, b"\xff\xfe{}")
    assert err.startswith(f"error: {bad}: not valid UTF-8 (") and "can't decode" in err


@pytest.mark.parametrize(
    "reader, where",
    [("bundle", ""), ("context", ""), ("corpus", " line 1:"), ("eval-corpus", " line 1:")],
    ids=["bundle", "context", "corpus", "eval-corpus"],
)
def test_an_input_that_is_not_json_names_it(capsys, tmp_path, data_dir, reader, where):
    """A context, bundle or corpus line that does not parse as JSON is
    reported with its file's path (and a corpus line with its number)."""
    err, bad = _run_reader(capsys, tmp_path, data_dir, reader, b"{nope\n")
    assert err.startswith(f"error: {bad}:{where} not valid JSON (Expecting property name")


@pytest.mark.parametrize(
    "reader, condition",
    [
        ("bundle", None),
        ("context", None),
        ("corpus", "(" * 5_000 + "hours > 0" + ")" * 5_000),
    ],
    ids=["bundle", "context", "corpus-parens"],
)
def test_an_input_nested_too_deeply_names_it(capsys, tmp_path, data_dir, reader, condition):
    """An input deeper than its recursive readers reach is bad input: exit
    2 with its file's path, not a ``RecursionError`` traceback.  In the
    corpus line it is the condition that nests, not the JSON."""
    if condition is None:
        content = b"[" * 100_000
    else:
        ctx = json.loads((data_dir / "demo" / "demo_context.json").read_text())
        content = json.dumps({"id": "deep", "condition": condition, "context": ctx}).encode()
    err, bad = _run_reader(capsys, tmp_path, data_dir, reader, content)
    assert err == f"error: {bad}: nested too deeply to read\n"


def test_a_corpus_line_of_3000_conjuncts_trains(capsys, tmp_path, data_dir):
    """3 000 atoms joined by ``&&`` nest no parentheses: the line splits
    into 3 000 records, and they train."""
    ctx = json.loads((data_dir / "demo" / "demo_context.json").read_text())
    condition = " && ".join(["hours > 0"] * 3_000)
    corpus = tmp_path / "chain.jsonl"
    corpus.write_text(json.dumps({"id": "chain", "condition": condition, "context": ctx}))
    code, out, err = run(
        capsys, ["train", "--corpus", str(corpus), "--bundle", str(tmp_path / "x.json")]
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "trained frequency on 3000 atoms (1 templates)"


def _set_sections(kind, model, pipeline):
    def edit(data):
        data.update(model_kind=kind, model=model, pipeline=pipeline)
    return edit


def _set_entry(*path_and_value):
    """Replace the entry at a key/index path, e.g. ("templates", 0, "key", v)."""
    *path, last, value = path_and_value

    def edit(data):
        for step in path:
            data = data[step]
        data[last] = value
    return edit


def _drop_entry(*path):
    """Delete the entry at a key path, e.g. ("model", "creation")."""
    *path, last = path

    def edit(data):
        for step in path:
            data = data[step]
        del data[last]
    return edit


def _set_template(tokens, types):
    """Give the first template these tokens and slot types."""

    def edit(data):
        data["templates"][0].update(tokens=tokens, types=types)
    return edit


def _repeat_first(*path):
    """Overwrite the second entry of the list at a key path with its first."""

    def edit(data):
        for step in path:
            data = data[step]
        data[1] = data[0]
    return edit


def _stringify(*path):
    """Replace each number of the list at a key path with its JSON text."""

    def edit(data):
        for step in path:
            data = data[step]
        data[:] = [json.dumps(x) for x in data]
    return edit


@pytest.mark.parametrize(
    "source, edit",
    [
        pytest.param("demo", _set_sections("frequency", "ab", None),
                     id="frequency-ab-None"),
        pytest.param("demo", _set_sections("frequency", {"counts": "x"}, None),
                     id="frequency-model1-None"),
        pytest.param("demo", _set_sections("logistic", {}, "ab"),
                     id="logistic-model2-ab"),
        pytest.param("demo", _set_entry("templates", 0, "key", ["V1"]),
                     id="template-key-list"),
        pytest.param("demo", _set_entry("templates", 0, "tokens", 0, ["V1"]),
                     id="template-token-list"),
        pytest.param("demo", _set_entry("templates", 0, "tokens", "V1 > 0"),
                     id="template-tokens-string"),
        pytest.param("demo", _set_entry("templates", 0, "types", 0, ["Int"]),
                     id="template-type-list"),
        pytest.param("demo", _set_entry("templates", 0, "count", 2.5),
                     id="template-count-float"),
        pytest.param("demo", _set_entry("templates", 0, "count", True),
                     id="template-count-bool"),
        pytest.param("demo", _set_entry("templates", 0, "count", "7"),
                     id="template-count-string"),
        pytest.param("demo", _set_entry("templates", 0, "count", -3),
                     id="template-count-negative"),
        pytest.param("demo", _set_entry("templates", 0, "tokens", ["V1", ">", "V2"]),
                     id="template-placeholder-without-type"),
        pytest.param("demo", _set_entry("templates", 0, "tokens", ["V2", ">", "0"]),
                     id="template-placeholder-not-first"),
        pytest.param("demo", _set_entry("templates", 0, "tokens", ["x", ">", "0"]),
                     id="template-type-without-placeholder"),
        pytest.param("demo", _set_entry("templates", 0, "types", []),
                     id="template-types-empty"),
        pytest.param("demo", _set_entry("templates", 0, "types", ["Int", "Int"]),
                     id="template-types-extra"),
        pytest.param("demo", _set_template([], []), id="template-empty"),
        # a rule set compiles from at least one template, with keys apart
        pytest.param("demo", _set_entry("templates", []), id="templates-none"),
        pytest.param("demo", _repeat_first("templates"), id="templates-key-repeated"),
        pytest.param("demo", _set_template(["V1", ")", "(", "+"], ["Int"]),
                     id="template-not-a-parse"),
        pytest.param("demo", _set_template(["V1", "+", "0"], ["Int"]),
                     id="template-not-boolean"),
        pytest.param("demo", _set_template(["(", "V1", ">", "0", ")"], ["Int"]),
                     id="template-not-canonical"),
        # the tokens still read V1 > 0: the model's rows for it go unread
        pytest.param("demo", _set_entry("templates", 0, "key", "V1 < 0::Int"),
                     id="template-key-renamed"),
        # a model section is an object holding every key training writes;
        # a list, even of key/value pairs, or a missing key is no empty model
        pytest.param("demo", _set_entry("model", []), id="table-model-list"),
        pytest.param("demo", _set_entry("model", {}), id="table-missing"),
        pytest.param("demo", _set_sections("frequency", [], None),
                     id="frequency-model-list"),
        pytest.param("demo", _set_sections("frequency", [["counts", {}]], None),
                     id="frequency-model-pairs"),
        pytest.param("demo", _set_sections("frequency", {}, None),
                     id="frequency-counts-missing"),
        pytest.param("logistic", _set_entry("model", []), id="logistic-model-list"),
        *(
            pytest.param("logistic", _drop_entry("model", core),
                         id=f"logistic-{core}-missing")
            for core in ("creation", "variable", "expression")
        ),
        pytest.param("demo", _set_entry("model", "table", 5), id="table-number"),
        pytest.param("demo", _set_entry("model", "table", {"": 5}), id="table-row-number"),
        pytest.param("demo", _set_entry("model", "table", {"": {"make-var:hours": "x"}}),
                     id="table-entry-string"),
        pytest.param("demo", _set_entry("model", "table", {"": {"make-var:hours": [1]}}),
                     id="table-entry-list"),
        *(
            pytest.param(
                "demo",
                _set_entry("model", "table", "make-var:hours", "expr:V1 > 12::Int", p),
                id=f"table-entry-{name}",
            )
            for name, p in (("infinite", 1e309), ("negative", -0.5),
                            ("nan", float("nan")), ("bool", True))
        ),
        *(
            pytest.param(
                "demo",
                _set_sections(
                    "frequency", {"counts": {"<create>|": {"": {"make-var:hours": n}}}},
                    None,
                ),
                id=f"frequency-count-{name}",
            )
            for name, n in (("float", 2.5), ("string", "7"), ("bool", True),
                            ("negative", -1))
        ),
        pytest.param("demo", _set_entry("config", "x"), id="config-string"),
        pytest.param("demo", _set_entry("config", 5), id="config-number"),
        pytest.param("demo", _set_entry("config", [1, 2]), id="config-list"),
        pytest.param("demo", _set_entry("corpus_sha256", 5), id="corpus-sha256-number"),
        pytest.param("logistic", _set_entry("pipeline", "vocab", 0, ["x"]),
                     id="pipeline-vocab-list"),
        pytest.param("logistic", _set_entry("pipeline", "vocab", 0, 5),
                     id="pipeline-vocab-number"),
        # a window bag has WINDOW_VOCAB_SIZE token slots, then UNK and the
        # presence flag: a longer vocab, or one token twice, indexes past them
        *(
            pytest.param("logistic",
                         _set_entry("pipeline", "vocab", [f"t{i}" for i in range(n)]),
                         id=f"pipeline-vocab-{n}-tokens")
            for n in (33, 40)
        ),
        pytest.param("logistic", _repeat_first("pipeline", "vocab"),
                     id="pipeline-vocab-repeated"),
        pytest.param("logistic", _set_entry("model", "expression", "classes", 0, ["x"]),
                     id="expression-classes-list"),
        pytest.param("logistic", _set_entry("model", "expression", "classes", 0, 5),
                     id="expression-classes-number"),
        pytest.param("logistic", _repeat_first("model", "expression", "classes"),
                     id="expression-classes-repeated"),
        pytest.param("logistic", _set_entry("model", "creation", "w", 0, float("nan")),
                     id="creation-w-nan"),
        pytest.param("logistic", _set_entry("model", "creation", "std", 0, 0.0),
                     id="creation-std-zero"),
        pytest.param("logistic", _stringify("model", "creation", "w"),
                     id="creation-w-strings"),
        pytest.param("logistic", _set_entry("model", "variable", "mean", 0, True),
                     id="variable-mean-bool"),
        pytest.param("logistic", _set_entry("pipeline", "pca", "components", 1, 2, False),
                     id="pca-components-nested-bool"),
        pytest.param("logistic", _set_entry("model", "expression", "W", 1, 0, "0.5"),
                     id="expression-W-nested-string"),
        # the fixture keeps 4 pca dims: these are its own value, retyped
        pytest.param("logistic", _set_entry("pipeline", "pca", "dims", "4"),
                     id="pca-dims-string"),
        pytest.param("logistic", _set_entry("pipeline", "pca", "dims", 4.0),
                     id="pca-dims-float"),
    ],
)
def test_malformed_bundle_is_exit_2(capsys, tmp_path, data_dir, request, source, edit):
    if source == "demo":
        demo = data_dir / "demo"
        data = json.loads((demo / "demo_bundle.json").read_text())
        ctx_path = demo / "demo_context.json"
    else:
        data, ctx_path = request.getfixturevalue("logistic_bundle")
        data = json.loads(json.dumps(data))
        capsys.readouterr()  # the fixture's training output, on first use
    edit(data)
    bad = tmp_path / "bad_bundle.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, ["predict", str(ctx_path), "--bundle", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: malformed bundle: ")


@pytest.mark.parametrize(
    "condition", [5, None, ["a"], {"a": 1}], ids=["number", "null", "list", "object"]
)
def test_malformed_corpus_record_is_exit_2(capsys, tmp_path, condition):
    record = generate_corpus(1, seed=2)[0]
    record["condition"] = condition
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    code, out, err = run(
        capsys,
        ["train", "--corpus", str(corpus), "--bundle", str(tmp_path / "x.json")],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {corpus}: line 1: bad record (")


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set_entry("context", [1, 2]), id="context-list"),
        pytest.param(_set_entry("context", "variables", {"n": 1}),
                     id="variables-object"),
        pytest.param(_set_entry("context", "variables", 0, 3), id="variable-number"),
        pytest.param(_set_entry("context", "variables", 0, "name", 5),
                     id="name-number"),
        pytest.param(_set_entry("context", "variables", 0, "type", 7),
                     id="type-number"),
        pytest.param(_set_entry("context", "variables", 0, "name", ""),
                     id="name-empty"),
        pytest.param(_set_entry("context", "variables", 0, "name", "a b"),
                     id="name-with-space"),
        pytest.param(_set_entry("context", "variables", 0, "name", "1x"),
                     id="name-leading-digit"),
        pytest.param(_set_entry("context", "variables", 0, "name", "null"),
                     id="name-keyword"),
        pytest.param(_set_entry("context", "result", None), id="result-null"),
        pytest.param(_set_entry("context", "class", ["A"]), id="class-list"),
        pytest.param(_set_entry("context", "superclass", 1), id="superclass-number"),
        pytest.param(_set_entry("context", "method", None), id="method-null"),
        pytest.param(_set_entry("context", "before", "abc"), id="before-string"),
        pytest.param(_set_entry("context", "after", [1]), id="after-numbers"),
        pytest.param(_set_entry("context", "params", 1.5), id="params-float"),
        pytest.param(_set_entry("context", "variables", 0, "usages", "many"),
                     id="usages-string"),
        pytest.param(_set_entry("context", "variables", 0, "decl_distance", True),
                     id="distance-boolean"),
        pytest.param(_set_entry("context", "variables", 0, "def_sites", ["3"]),
                     id="def-sites-strings"),
        pytest.param(_set_entry("context", "static", 1), id="static-number"),
        pytest.param(_set_entry("context", "variables", 0, "final", "no"),
                     id="final-string"),
        pytest.param(_set_entry("context", "params", 10**400), id="params-huge"),
        pytest.param(_set_entry("context", "variables", 0, "decl_distance", 10**400),
                     id="distance-huge"),
        pytest.param(_set_entry("context", "variables", 0, "usages", -(10**400)),
                     id="usages-huge-negative"),
        pytest.param(_set_entry("context", "variables", 0, "def_sites", [1, 10**400]),
                     id="def-sites-huge"),
    ],
)
def test_malformed_context_is_exit_2(capsys, tmp_path, data_dir, edit):
    """A context field of the wrong JSON type, an integer that no float can
    hold, or a variable name that is not an identifier or is a keyword
    literal, is an input error for both the context of a predict and a
    corpus record, not a traceback or a guess."""
    record = generate_corpus(1, seed=2)[0]
    edit(record)
    ctx_path = tmp_path / "ctx.json"
    ctx_path.write_text(json.dumps(record["context"]))
    bundle = data_dir / "demo" / "demo_bundle.json"
    code, out, err = run(capsys, ["predict", str(ctx_path), "--bundle", str(bundle)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {ctx_path}: ")
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    code, out, err = run(
        capsys,
        ["train", "--corpus", str(corpus), "--bundle", str(tmp_path / "x.json")],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {corpus}: line 1: bad record (")


@pytest.fixture(scope="module")
def logistic_bundle(tmp_path_factory, small_corpus):
    """A logistic bundle with all three cores, and a context it predicts for."""
    folder = tmp_path_factory.mktemp("logistic")
    path = folder / "log.json"
    assert main(["train", "--corpus", str(small_corpus), "--bundle", str(path),
                 "--model", "logistic", "--pca-dims", "4"]) == 0
    data = json.loads(path.read_text())
    assert all(data["model"][kind] for kind in ("creation", "variable", "expression"))
    ctx_path = folder / "ctx.json"
    ctx_path.write_text(json.dumps(generate_corpus(30, seed=2)[0]["context"]))
    return data, ctx_path


def _cut_last(values):
    return values[:-1]


@pytest.mark.parametrize(
    "section, core, name, edit",
    [
        ("model", "creation", "w", lambda w: w[:2]),
        ("model", "creation", "mean", _cut_last),
        ("model", "variable", "std", lambda std: std + [1.0]),
        ("model", "expression", "W", _cut_last),
        ("model", "expression", "W", lambda W: [row[:-1] for row in W]),
        ("model", "expression", "b", _cut_last),
        ("model", "expression", "mean", _cut_last),
        ("pipeline", "pca", "mean", _cut_last),
        ("pipeline", "pca", "components", lambda rows: rows + rows),
        pytest.param("pipeline", "pca", "components", lambda rows: [r[:-1] for r in rows],
                     id="pca-components-column-short"),
        pytest.param("pipeline", "pca", "dims", lambda dims: 0, id="pca-dims-zero"),
        pytest.param("pipeline", "pca", "dims", lambda dims: -1, id="pca-dims-negative"),
        pytest.param("model", "variable", "mean", lambda mean: [float("nan")] + mean[1:],
                     id="variable-mean-nan"),
        pytest.param("model", "expression", "std", lambda std: std[:-1] + [0.0],
                     id="expression-std-zero"),
    ],
)
def test_logistic_bundle_with_misfit_arrays_is_exit_2(
    capsys, tmp_path, logistic_bundle, section, core, name, edit
):
    """Arrays that parse but do not fit the pipeline's feature rows, or
    hold a number no training run writes, are a malformed bundle, not a
    numpy failure in the middle of a predict: the message names the array
    and the shape it should have or its fault."""
    data, ctx_path = logistic_bundle
    data = json.loads(json.dumps(data))
    params = data[section][core]
    params[name] = edit(params[name])
    bad = tmp_path / "bad_bundle.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, ["predict", str(ctx_path), "--bundle", str(bad)])
    assert code == 2
    assert out == ""
    prefix = f"error: {bad}: malformed bundle: logistic parameters: "
    assert err.startswith(prefix) and err.endswith("\n")
    fault = err[len(prefix):-1]
    assert f"{core} {name}" in fault
    assert re.fullmatch(
        r"[a-z]+ [a-zA-Z]+ (has shape \([\d, ]*\), expected \([\d, ]*\)"
        r"|has \d+ rows, more than pca dims \(\d+\)"
        r"|is not finite|is not positive|must be a non-negative integer)",
        fault,
    ), fault


def test_pca_dims_out_of_range(capsys, small_corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--corpus", str(small_corpus),
              "--bundle", str(tmp_path / "x.json"), "--pca-dims", "25"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("predict", "--beam", "0"),
        ("predict", "--beam2", "0"),
        ("predict", "--k", "-1"),
        ("predict", "--size-limit", "-3"),
        ("train", "--size-limit", "0"),
        ("eval", "--repeats", "0"),
        ("eval", "--split", "1.5"),
        ("eval", "--split", "0"),
        ("check", "--bound", "0"),
        ("check", "--bound", "-1"),
    ],
)
def test_out_of_range_numbers_are_exit_2(capsys, data_dir, command, flag, value):
    demo = data_dir / "demo"
    required = {
        "predict": [str(demo / "demo_context.json"),
                    "--bundle", str(demo / "demo_bundle.json")],
        "train": ["--corpus", str(data_dir / "corpus.jsonl"), "--bundle", "unused.json"],
        "eval": ["--corpus", str(data_dir / "corpus.jsonl")],
        "check": ["--grammar", str(demo / "demo_grammar.txt")],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *required, flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


# sha256 of `progest train --model frequency` on data/corpus.jsonl with the
# default flags; the bundle holds only strings and integer counts, so its
# bytes do not depend on the platform's float arithmetic
CORPUS_FREQUENCY_BUNDLE_SHA256 = (
    "8ecdffed42835867240ec35fa182d5f38486e9a406ccfa935e293dedbedcb9be"
)


def test_frequency_bundle_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    assert_readme_transcript(capsys, monkeypatch, tmp_path, README_TRAIN)
    assert sha256_of_file(str(tmp_path / "freq.json")) == CORPUS_FREQUENCY_BUNDLE_SHA256
