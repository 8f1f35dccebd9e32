"""Persisted model bundles.

A bundle is one JSON document holding everything a prediction run needs:
the mined templates, the fitted model parameters, the feature pipeline if
the model uses one, the training configuration, and a digest of the corpus
it was trained from.  Serialization is canonical (sorted keys, fixed
separators, trailing newline) so that retraining with the same seed writes
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .condsynth import CondEncoder, Template, TrainedCond, row_length
from .errors import BundleError, reading
from .features import BIGRAM_DIM, FeaturePipeline
from .models import FrequencyModel, LogisticModel, TableModel, UniformModel

BUNDLE_VERSION = 1
_KNOWN_KINDS = ("frequency", "logistic", "table", "uniform")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_of_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Bundle:
    model_kind: str
    templates: tuple[Template, ...]
    model_params: dict
    pipeline_params: dict | None = None
    config: dict = field(default_factory=dict)
    corpus_sha256: str = ""
    version: int = BUNDLE_VERSION

    def build_model(self):
        """Reconstruct the prediction model this bundle describes.

        Raises ``BundleError`` when the model or pipeline section does not
        parse as the parameters its model reads, or when a logistic array
        does not fit the feature rows of the bundle's pipeline or holds a
        number no training run writes."""
        if self.model_kind == "uniform":
            return UniformModel()
        try:
            if self.model_kind == "table":
                return TableModel.from_nested(self.model_params["table"])
            if self.model_kind == "frequency":
                return FrequencyModel.from_params(self.model_params)
            pipeline = FeaturePipeline.from_params(self.pipeline_params)
            encoder = CondEncoder(self.templates, pipeline)
            model = LogisticModel.from_params(self.model_params, encoder)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as err:
            raise BundleError(
                f"malformed bundle: {self.model_kind} parameters: {err}"
            ) from None
        _check_logistic_arrays(model, pipeline)
        return model

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "model_kind": self.model_kind,
            "templates": [t.to_dict() for t in self.templates],
            "model": self.model_params,
            "pipeline": self.pipeline_params,
            "config": self.config,
            "corpus_sha256": self.corpus_sha256,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Bundle":
        version = data.get("version")
        # a bool or a float can equal the version number; neither is one
        if type(version) is not int or version != BUNDLE_VERSION:
            raise BundleError(
                f"unsupported bundle version {version!r} (expected {BUNDLE_VERSION})"
            )
        kind = data.get("model_kind")
        if kind not in _KNOWN_KINDS:
            raise BundleError(f"unknown model kind {kind!r}")
        try:
            templates = tuple(Template.from_dict(t) for t in data["templates"])
            model_params = data["model"]
        except (KeyError, TypeError, ValueError) as err:
            raise BundleError(f"malformed bundle: {err}") from None
        if not isinstance(model_params, dict):
            raise BundleError("malformed bundle: model must be an object")
        # the templates compile into one rule set, a rule each, keys apart
        if not templates:
            raise BundleError("malformed bundle: no templates")
        keys = set()
        for t in templates:
            if t.key in keys:
                raise BundleError(f"malformed bundle: templates repeat the key {t.key!r}")
            keys.add(t.key)
        config = data.get("config")
        if config is None:
            config = {}
        elif not isinstance(config, dict):
            raise BundleError("malformed bundle: config must be an object")
        corpus_sha256 = data.get("corpus_sha256", "")
        if not isinstance(corpus_sha256, str):
            raise BundleError("malformed bundle: corpus_sha256 must be a string")
        if kind == "logistic" and not data.get("pipeline"):
            raise BundleError("logistic bundle is missing its feature pipeline")
        return Bundle(
            model_kind=kind,
            templates=templates,
            model_params=dict(model_params),
            pipeline_params=data.get("pipeline"),
            config=dict(config),
            corpus_sha256=corpus_sha256,
        )


def _check_logistic_arrays(model: LogisticModel, pipeline: FeaturePipeline) -> None:
    """Raise ``BundleError`` unless the PCA and every core's arrays have the
    shapes the pipeline's feature rows give them (``condsynth.row_length``),
    hold finite numbers only, and every ``std`` is positive, as training's
    ``std`` floor keeps it."""
    pca = pipeline.pca
    dims = pca.dims
    kept = pca.components.shape[0] if pca.components.ndim == 2 else 0
    if kept > dims:
        raise BundleError(
            f"malformed bundle: logistic pipeline keeps {kept} pca directions "
            f"in {dims} dims"
        )
    found = [
        ("pipeline pca mean", pca.mean, (BIGRAM_DIM,)),
        ("pipeline pca components", pca.components, (kept, BIGRAM_DIM)),
    ]
    for kind in ("creation", "variable"):
        core = getattr(model, kind)
        if core is not None:
            width = (row_length(kind, dims),)
            found += [(f"{kind} {name}", getattr(core, name), width)
                      for name in ("w", "mean", "std")]
            found.append((f"{kind} b", np.asarray(core.b), ()))
    core = model.expression
    if core is not None:
        width = row_length("expression", dims)
        classes = len(core.classes)
        found += [
            ("expression W", core.W, (width, classes)),
            ("expression b", core.b, (classes,)),
            ("expression mean", core.mean, (width,)),
            ("expression std", core.std, (width,)),
        ]
    for name, array, want in found:
        if array.shape != want:
            raise BundleError(
                f"malformed bundle: logistic {name} has shape {array.shape}, "
                f"expected {want}"
            )
        if not np.isfinite(array).all():
            raise BundleError(f"malformed bundle: logistic {name} is not finite")
    for kind in ("creation", "variable", "expression"):
        core = getattr(model, kind)
        if core is not None and not (core.std > 0).all():
            raise BundleError(f"malformed bundle: logistic {kind} std is not positive")


def bundle_of(trained: TrainedCond, config: dict, corpus_sha256: str = "") -> Bundle:
    if trained.model_kind == "frequency":
        params = trained.frequency.to_params()
        pipeline = None
    elif trained.model_kind == "logistic":
        params = trained.logistic.to_params()
        pipeline = trained.pipeline.to_params()
    elif trained.model_kind == "uniform":
        params = {}
        pipeline = None
    else:
        raise BundleError(f"cannot bundle a {trained.model_kind!r} model")
    return Bundle(
        model_kind=trained.model_kind,
        templates=trained.templates,
        model_params=params,
        pipeline_params=pipeline,
        config=dict(config),
        corpus_sha256=corpus_sha256,
    )


def save_bundle(path: str, bundle: Bundle) -> None:
    text = canonical_json(bundle.to_dict())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def load_bundle(path: str) -> Bundle:
    """The bundle at ``path``; a ``BundleError`` names the file."""
    with reading(path, BundleError):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise BundleError("bundle must be a JSON object")
        return Bundle.from_dict(data)
