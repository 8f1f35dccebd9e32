"""Command-line interface, driven in process through cli.main."""

import json

import pytest

from progest.bundle import load_bundle, sha256_of_file
from progest.cli import main
from progest.datagen import demo_context, generate_corpus, write_corpus
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


def test_predict_demo(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json")],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\t0.240000\thours > 12"
    probs = [float(line.split("\t")[1]) for line in lines]
    assert probs == sorted(probs, reverse=True)


def test_predict_k_zero(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json"), "--k", "0"],
    )
    assert code == 0
    assert out == ""


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


def test_eval_uniform(capsys, small_corpus):
    code, out, _ = run(
        capsys,
        ["eval", "--corpus", str(small_corpus), "--model", "uniform",
         "--k", "3"],
    )
    assert code == 0
    assert "model: uniform" in out


def test_check_topdown(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["check", "--grammar", str(data_dir / "demo" / "demo_grammar.txt")],
    )
    assert code == 0
    assert "unambiguous (bound 9)" in out
    assert "  E^D = 2" in out
    assert "  E^U = inf" in out


def test_check_full_reports_ambiguity(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["check", "--grammar", str(data_dir / "demo" / "demo_grammar.txt"),
         "--rules", "full"],
    )
    assert code == 1
    assert "ambiguous" in out
    assert "witness:" in out
    assert "history a: " in out
    assert "history b: " in out
    assert "  E^U = 1" in out


def test_missing_file_is_exit_2(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["predict", str(data_dir / "demo" / "demo_context.json"),
         "--bundle", "no-such-bundle.json"],
    )
    assert code == 2
    assert err.startswith("error:")


def test_invalid_context_json_is_exit_2(capsys, tmp_path, data_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(
        capsys,
        ["predict", str(bad),
         "--bundle", str(data_dir / "demo" / "demo_bundle.json")],
    )
    assert code == 2
    assert err.startswith("error:")


def test_pca_dims_out_of_range(capsys, small_corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--corpus", str(small_corpus),
              "--bundle", str(tmp_path / "x.json"), "--pca-dims", "25"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# sha256 of `progest train --model frequency` on data/corpus.jsonl with the
# default flags; the bundle holds only strings and integer counts, so its
# bytes do not depend on the platform's float arithmetic
CORPUS_FREQUENCY_BUNDLE_SHA256 = (
    "8ecdffed42835867240ec35fa182d5f38486e9a406ccfa935e293dedbedcb9be"
)


def test_frequency_bundle_bytes_are_pinned(capsys, tmp_path, data_dir):
    out_path = tmp_path / "freq.json"
    code, _, _ = run(
        capsys,
        ["train", "--corpus", str(data_dir / "corpus.jsonl"),
         "--bundle", str(out_path), "--model", "frequency"],
    )
    assert code == 0
    assert sha256_of_file(str(out_path)) == CORPUS_FREQUENCY_BUNDLE_SHA256
