"""Bundle serialization: canonical output, round trips, validation."""

import json

import pytest

from progest.bundle import (
    Bundle,
    bundle_of,
    canonical_json,
    load_bundle,
    save_bundle,
    sha256_of_file,
)
from progest.condsynth import CorpusRecord, train_cond_models
from progest.errors import BundleError
from progest.features import Context
from progest.models import FrequencyModel, TableModel, UniformModel


def records():
    ctx = Context.simple({"count": "Int", "total": "Int"})
    return [
        CorpusRecord("a", "count > 0", ctx),
        CorpusRecord("b", "total > 0", ctx),
        CorpusRecord("c", "count > total", ctx),
    ]


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'


def test_sha256_of_file(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"hello\n")
    assert sha256_of_file(str(p)) == (
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    )


def test_frequency_bundle_round_trip(tmp_path):
    trained = train_cond_models(records(), model_kind="frequency")
    bundle = bundle_of(trained, {"seed": 7}, corpus_sha256="cafe")
    path = tmp_path / "model.json"
    save_bundle(str(path), bundle)
    again = load_bundle(str(path))
    assert again.model_kind == "frequency"
    assert again.templates == trained.templates
    assert again.config == {"seed": 7}
    assert again.corpus_sha256 == "cafe"
    model = again.build_model()
    assert isinstance(model, FrequencyModel)
    assert model.counts == trained.frequency.counts


def test_logistic_bundle_round_trip(tmp_path):
    trained = train_cond_models(
        records(), model_kind="logistic", pca_dims=4, epochs=30
    )
    bundle = bundle_of(trained, {})
    path = tmp_path / "model.json"
    save_bundle(str(path), bundle)
    again = load_bundle(str(path))
    assert again.pipeline_params is not None
    rebuilt = again.build_model()
    assert canonical_json(rebuilt.to_params()) == canonical_json(
        trained.logistic.to_params()
    )


def test_save_is_byte_stable(tmp_path):
    trained = train_cond_models(records(), model_kind="frequency")
    bundle = bundle_of(trained, {"seed": 1})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_bundle(str(p1), bundle)
    save_bundle(str(p2), bundle)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_uniform_and_table_build(tmp_path):
    trained = train_cond_models(records(), model_kind="uniform")
    bundle = bundle_of(trained, {})
    assert isinstance(bundle.build_model(), UniformModel)
    table = Bundle(
        "table", trained.templates, {"table": {"": {"make-var:count": 1.0}}}
    )
    model = table.build_model()
    assert isinstance(model, TableModel)
    assert model.table == {("", "make-var:count"): 1.0}


def test_from_dict_rejects_bad_version():
    # JSON true and 1.0 equal 1 in Python, but neither is the integer 1
    for version in (99, True, 1.0, "1"):
        with pytest.raises(BundleError, match="version"):
            Bundle.from_dict({"version": version, "model_kind": "frequency"})


def test_from_dict_reads_an_absent_or_null_config_as_empty():
    data = {"version": 1, "model_kind": "uniform", "templates": [], "model": {}}
    assert Bundle.from_dict(data).config == {}
    assert Bundle.from_dict({**data, "config": None}).config == {}


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(BundleError, match="kind"):
        Bundle.from_dict({"version": 1, "model_kind": "oracle"})


def test_from_dict_rejects_missing_parts():
    with pytest.raises(BundleError, match="malformed"):
        Bundle.from_dict({"version": 1, "model_kind": "frequency"})


def test_from_dict_rejects_logistic_without_pipeline():
    trained = train_cond_models(records(), model_kind="frequency")
    data = bundle_of(trained, {}).to_dict()
    data["model_kind"] = "logistic"
    with pytest.raises(BundleError, match="pipeline"):
        Bundle.from_dict(data)


def test_load_rejects_non_json(tmp_path):
    p = tmp_path / "junk"
    p.write_text("{{{{")
    with pytest.raises(BundleError, match="JSON"):
        load_bundle(str(p))


def test_load_rejects_non_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(BundleError, match="object"):
        load_bundle(str(p))
