"""Program context descriptions and their numeric feature encodings.

A ``Context`` is everything known about the hole a condition goes into: the
declared variables with their usage statistics, the surrounding class and
method names, and small token windows around the hole.  Names are encoded as
character-bigram count vectors and compressed with a PCA fitted at training
time; token windows use a small vocabulary learned alongside.

A decision's feature rows are assembled from fixed-width blocks, so their
layout depends only on the PCA width and on which blocks the caller picks
(``condsynth.CondEncoder`` picks them for each decision).  Optional inputs
encode as zeros plus a trailing presence flag of 0, never as a shifted
layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContextError
from .minilang import TYPE_CLASSES, classify_type

# --------------------------------------------------------------------------
# context data

@dataclass(frozen=True)
class VariableInfo:
    """One declared variable near the hole, with cheap static statistics."""

    name: str
    type: str
    is_final: bool = False
    is_static: bool = False
    in_loop: bool = False
    has_initializer: bool = False
    init_is_zero: bool = False
    decl_distance: int = 0  # lines between the declaration and the hole
    def_sites: tuple[int, ...] = ()  # line offsets of assignments, up to three kept
    usage_count: int = 0
    usages_before: int = 0
    usages_after: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.type,
            "final": self.is_final,
            "static": self.is_static,
            "in_loop": self.in_loop,
            "has_init": self.has_initializer,
            "init_zero": self.init_is_zero,
            "decl_distance": self.decl_distance,
            "def_sites": list(self.def_sites),
            "usages": self.usage_count,
            "usages_before": self.usages_before,
            "usages_after": self.usages_after,
        }

    @staticmethod
    def from_dict(data: dict) -> "VariableInfo":
        if not isinstance(data, dict):
            raise ContextError("variable entry must be an object")
        for key in ("name", "type"):
            if key not in data:
                raise ContextError(f"variable entry missing {key!r}")
        bad = _bad_field(data, _VARIABLE_KINDS)
        def_sites = data.get("def_sites", ())
        if bad is None and not (
            isinstance(def_sites, (list, tuple))
            and all(type(x) is int for x in def_sites)
        ):
            bad = "'def_sites' must be a list of integers"
        if bad is not None:
            raise ContextError(f"variable {data['name']!r}: {bad}")
        return VariableInfo(
            name=data["name"],
            type=data["type"],
            is_final=data.get("final", False),
            is_static=data.get("static", False),
            in_loop=data.get("in_loop", False),
            has_initializer=data.get("has_init", False),
            init_is_zero=data.get("init_zero", False),
            decl_distance=data.get("decl_distance", 0),
            def_sites=tuple(def_sites),
            usage_count=data.get("usages", 0),
            usages_before=data.get("usages_before", 0),
            usages_after=data.get("usages_after", 0),
        )


@dataclass(frozen=True)
class Context:
    """The program surrounding one condition hole."""

    variables: tuple[VariableInfo, ...] = ()
    result_type: str = "Boolean"
    class_name: str = ""
    superclass_name: str = ""
    method_name: str = ""
    method_params: int = 0
    method_is_static: bool = False
    in_loop: bool = False
    before_tokens: tuple[str, ...] = ()
    after_tokens: tuple[str, ...] = ()

    @property
    def variable_types(self) -> dict[str, str]:
        return {v.name: v.type for v in self.variables}

    def variable(self, name: str) -> VariableInfo:
        for v in self.variables:
            if v.name == name:
                return v
        raise ContextError(f"no variable {name!r} in context")

    @staticmethod
    def simple(types: Mapping[str, str], result_type: str = "Boolean") -> "Context":
        """Bare context from a name -> type mapping, for demos and tests."""
        return Context(
            variables=tuple(VariableInfo(n, t) for n, t in types.items()),
            result_type=result_type,
        )

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "superclass": self.superclass_name,
            "method": self.method_name,
            "params": self.method_params,
            "static": self.method_is_static,
            "in_loop": self.in_loop,
            "before": list(self.before_tokens),
            "after": list(self.after_tokens),
            "result": self.result_type,
            "variables": [v.to_dict() for v in self.variables],
        }

    @staticmethod
    def from_dict(data: dict) -> "Context":
        if not isinstance(data, dict):
            raise ContextError("context must be an object")
        bad = _bad_field(data, _CONTEXT_KINDS)
        if bad is not None:
            raise ContextError(f"context: {bad}")
        entries = data.get("variables", ())
        if not isinstance(entries, (list, tuple)):
            raise ContextError("context: 'variables' must be a list")
        variables = tuple(VariableInfo.from_dict(v) for v in entries)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ContextError("duplicate variable names in context")
        try:
            before = string_tuple(data.get("before", ()), "context 'before'")
            after = string_tuple(data.get("after", ()), "context 'after'")
        except TypeError as err:
            raise ContextError(str(err)) from None
        return Context(
            variables=variables,
            result_type=data.get("result", "Boolean"),
            class_name=data.get("class", ""),
            superclass_name=data.get("superclass", ""),
            method_name=data.get("method", ""),
            method_params=data.get("params", 0),
            method_is_static=data.get("static", False),
            in_loop=data.get("in_loop", False),
            before_tokens=before,
            after_tokens=after,
        )


# the JSON kind of each scalar field of a variable entry and of a context;
# kinds compare exactly, so a boolean is no integer
_VARIABLE_KINDS = {
    "name": str, "type": str, "final": bool, "static": bool, "in_loop": bool,
    "has_init": bool, "init_zero": bool, "decl_distance": int, "usages": int,
    "usages_before": int, "usages_after": int,
}
_CONTEXT_KINDS = {
    "result": str, "class": str, "superclass": str, "method": str,
    "params": int, "static": bool, "in_loop": bool,
}
_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}


def _bad_field(data: dict, kinds: dict[str, type]) -> str | None:
    """What is wrong with the first field of ``data`` whose value is not of
    its kind in ``kinds``, or None when every field fits."""
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is not None and type(value) is not kind:
            return f"{key!r} must be {_KIND_NAMES[kind]}"
    return None


def string_tuple(values, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; ``TypeError`` naming ``what`` for
    anything else, so that a reader reports it instead of failing later."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, str) for v in values
    ):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(values)


# --------------------------------------------------------------------------
# name encodings

NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_$"
_CHAR_INDEX = {ch: i for i, ch in enumerate(NAME_ALPHABET)}
BIGRAM_DIM = len(NAME_ALPHABET) ** 2


def encode_name_2gram(name: str) -> np.ndarray:
    """Character-bigram counts over a 38-letter alphabet (dim 1444).

    Names are lowercased; characters outside the alphabet collapse to ``_``.
    Names shorter than two characters encode as the zero vector.
    """
    vec = np.zeros(BIGRAM_DIM)
    lowered = name.lower()
    n = len(NAME_ALPHABET)
    for a, b in zip(lowered, lowered[1:]):
        ia = _CHAR_INDEX.get(a, _CHAR_INDEX["_"])
        ib = _CHAR_INDEX.get(b, _CHAR_INDEX["_"])
        vec[ia * n + ib] += 1.0
    return vec


_WORD_SPLIT = re.compile(r"[_$]+|(?<=[a-z0-9])(?=[A-Z])")


def name_words(name: str) -> list[str]:
    return [w.lower() for w in _WORD_SPLIT.split(name) if w]


def last_word(name: str) -> str:
    words = name_words(name)
    return words[-1] if words else ""


# --------------------------------------------------------------------------
# PCA over bigram vectors

@dataclass(frozen=True)
class PcaTransform:
    """Projection onto the top principal directions of the training names.

    ``components`` may hold fewer rows than ``dims`` when the data ran out of
    variance; applying the transform pads with zeros so the output length is
    always ``dims``.
    """

    mean: np.ndarray
    components: np.ndarray  # shape (kept, input dim)
    dims: int

    def to_params(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "dims": self.dims,
        }

    @staticmethod
    def from_params(data: Mapping) -> "PcaTransform":
        dims = int(data["dims"])
        mean = np.asarray(data["mean"], dtype=float)
        components = np.asarray(data["components"], dtype=float)
        if components.size == 0:
            components = components.reshape(0, mean.shape[0])
        return PcaTransform(mean, components, dims)


def pca_fit(
    vectors: Sequence[np.ndarray],
    dims: int,
    *,
    seed: int = 12345,
    tol: float = 1e-13,
    max_iter: int = 5000,
) -> PcaTransform:
    """Power iteration with deflation; deterministic under the seed.

    Needs at least two sample vectors; directions stop early once the
    residual variance is numerically zero.
    """
    data = np.asarray(list(vectors), dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        width = data.shape[1] if data.ndim == 2 else BIGRAM_DIM
        return PcaTransform(np.zeros(width), np.zeros((0, width)), dims)
    mean = data.mean(axis=0)
    centered = data - mean
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    limit = min(dims, min(data.shape))
    for _ in range(limit):
        v = rng.standard_normal(data.shape[1])
        v /= np.linalg.norm(v)
        direction = None
        for _ in range(max_iter):
            w = centered.T @ (centered @ v) / data.shape[0]
            scale = np.linalg.norm(w)
            if scale < 1e-12:
                break
            w /= scale
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < tol:
                direction = w
                break
            v = w
        else:
            direction = v
        if direction is None:
            break
        kept.append(direction)
        projected = centered @ direction
        centered = centered - np.outer(projected, direction)
    components = np.array(kept) if kept else np.zeros((0, data.shape[1]))
    return PcaTransform(mean, components, dims)


def pca_apply(transform: PcaTransform, vec: np.ndarray) -> np.ndarray:
    """Project one vector; the zero vector stays zero (absent-name neutral)."""
    out = np.zeros(transform.dims)
    if vec.size == 0 or not vec.any() or transform.components.shape[0] == 0:
        return out
    projected = transform.components @ (vec - transform.mean)
    out[: projected.shape[0]] = projected
    return out


# --------------------------------------------------------------------------
# fitted pipeline: shared PCA plus a token-window vocabulary

WINDOW_VOCAB_SIZE = 32


@dataclass(frozen=True)
class FeaturePipeline:
    pca: PcaTransform
    vocab: tuple[str, ...]

    @property
    def dims(self) -> int:
        return self.pca.dims

    def embed_name(self, name: str) -> np.ndarray:
        return pca_apply(self.pca, encode_name_2gram(name))

    def window_vec(self, tokens: Sequence[str]) -> np.ndarray:
        """Binary bag over the vocabulary plus UNK, plus a presence flag."""
        vec = np.zeros(WINDOW_VOCAB_SIZE + 2)
        index = {t: i for i, t in enumerate(self.vocab)}
        for token in tokens:
            slot = index.get(token, WINDOW_VOCAB_SIZE)
            vec[slot] = 1.0
        if tokens:
            vec[-1] = 1.0
        return vec

    def to_params(self) -> dict:
        return {"pca": self.pca.to_params(), "vocab": list(self.vocab)}

    @staticmethod
    def from_params(data: Mapping) -> "FeaturePipeline":
        return FeaturePipeline(
            PcaTransform.from_params(data["pca"]), string_tuple(data["vocab"], "vocab")
        )

    @staticmethod
    def fit(
        contexts: Iterable[Context], dims: int = 16, seed: int = 12345
    ) -> "FeaturePipeline":
        """Fit the shared name PCA and the window vocabulary on training data.

        Every name-ish string contributes once; pooling keeps a single
        projection for class, method, variable, and type names alike.
        """
        names: set[str] = set()
        counts: dict[str, int] = {}
        for ctx in contexts:
            for raw in (
                ctx.class_name,
                last_word(ctx.class_name),
                ctx.superclass_name,
                last_word(ctx.superclass_name),
                ctx.method_name,
                last_word(ctx.method_name),
            ):
                if raw:
                    names.add(raw)
            for v in ctx.variables:
                for raw in (v.name, last_word(v.name), v.type, last_word(v.type)):
                    if raw:
                        names.add(raw)
            for token in list(ctx.before_tokens) + list(ctx.after_tokens):
                counts[token] = counts.get(token, 0) + 1
        vectors = [encode_name_2gram(n) for n in sorted(names)]
        pca = pca_fit(vectors, dims, seed=seed)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        vocab = tuple(t for t, _ in ranked[:WINDOW_VOCAB_SIZE])
        return FeaturePipeline(pca, vocab)


# --------------------------------------------------------------------------
# feature blocks

_CLASS_INDEX = {name: i for i, name in enumerate(TYPE_CLASSES)}
_BOOL_PREFIXES = ("is", "has", "can", "should")


def _type_class_scalar(type_name: str) -> float:
    return _CLASS_INDEX[classify_type(type_name)] / (len(TYPE_CLASSES) - 1)


def context_block(ctx: Context | None, pipe: FeaturePipeline) -> np.ndarray:
    p = pipe.dims
    if ctx is None:
        return np.zeros(context_block_length(p))
    class_scalars = np.array(
        [
            len(ctx.class_name) / 20.0,
            1.0 if ctx.superclass_name else 0.0,
            1.0 if ("Abstract" in ctx.class_name or "Base" in ctx.class_name) else 0.0,
        ]
    )
    method_words = name_words(ctx.method_name)
    method_scalars = np.array(
        [
            len(ctx.method_name) / 20.0,
            1.0 if method_words[:1] and method_words[0] in _BOOL_PREFIXES else 0.0,
            ctx.method_params / 5.0,
            1.0 if ctx.method_is_static else 0.0,
        ]
    )
    return np.concatenate(
        [
            pipe.embed_name(ctx.class_name),
            pipe.embed_name(last_word(ctx.class_name)),
            pipe.embed_name(ctx.superclass_name),
            pipe.embed_name(last_word(ctx.superclass_name)),
            class_scalars,
            pipe.embed_name(ctx.method_name),
            method_scalars,
            pipe.window_vec(ctx.before_tokens),
            pipe.window_vec(ctx.after_tokens),
            np.array([1.0 if ctx.in_loop else 0.0, 1.0]),
        ]
    )


def context_block_length(p: int) -> int:
    return 5 * p + 3 + 4 + 2 * (WINDOW_VOCAB_SIZE + 2) + 2


def variable_block(var: VariableInfo | None, pipe: FeaturePipeline) -> np.ndarray:
    p = pipe.dims
    if var is None:
        return np.zeros(variable_block_length(p))
    word = last_word(var.name)
    sites = list(var.def_sites[:3]) + [0] * (3 - len(var.def_sites[:3]))
    scalars = np.array(
        [
            len(var.name) / 10.0,
            _type_class_scalar(var.type),
            1.0
            if (word and word in var.type.lower())
            or (last_word(var.type) and last_word(var.type) in var.name.lower())
            else 0.0,
            1.0 if var.is_final else 0.0,
            1.0 if var.is_static else 0.0,
            1.0 if var.in_loop else 0.0,
            1.0 if var.has_initializer else 0.0,
            1.0 if var.init_is_zero else 0.0,
            var.decl_distance / 50.0,
            sites[0] / 50.0,
            sites[1] / 50.0,
            sites[2] / 50.0,
            var.usage_count / 10.0,
            var.usages_before / 10.0,
            var.usages_after / 10.0,
            1.0,
        ]
    )
    return np.concatenate(
        [
            pipe.embed_name(var.name),
            pipe.embed_name(word),
            pipe.embed_name(var.type),
            scalars,
        ]
    )


def variable_block_length(p: int) -> int:
    return 3 * p + 16


@dataclass(frozen=True)
class TemplatePayload:
    """What a condition template exposes to the feature encoder."""

    key: str
    arity: int
    tokens: tuple[str, ...]  # skeleton with V1.. placeholders
    placeholder_types: tuple[str, ...]


_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*", "/", "%")


def expression_block(tpl: TemplatePayload | None, pipe: FeaturePipeline) -> np.ndarray:
    p = pipe.dims
    if tpl is None:
        return np.zeros(expression_block_length(p))
    tokens = tpl.tokens
    method = ""
    for i, token in enumerate(tokens):
        if token == "." and i + 1 < len(tokens):
            method = tokens[i + 1]
            break
    type_scalars = [0.0, 0.0, 0.0]
    for i, type_name in enumerate(tpl.placeholder_types[:3]):
        type_scalars[i] = _type_class_scalar(type_name)
    cmp_flags = [1.0 if op in tokens else 0.0 for op in _CMP_OPS]
    arith_flags = [1.0 if op in tokens else 0.0 for op in _ARITH_OPS]
    num_count = sum(1 for t in tokens if t[:1].isdigit())
    scalars = np.array(
        [tpl.arity / 4.0]
        + type_scalars
        + [1.0 if method else 0.0]
    )
    tail = np.array(
        cmp_flags
        + arith_flags
        + [
            num_count / 3.0,
            1.0 if "null" in tokens else 0.0,
            1.0 if "[" in tokens else 0.0,
            1.0,
        ]
    )
    return np.concatenate([scalars, pipe.embed_name(method), tail])


def expression_block_length(p: int) -> int:
    return p + 20


def position_block(position: int | None) -> np.ndarray:
    return np.array([0.0 if position is None else position / 5.0])


# --------------------------------------------------------------------------
# one context's blocks and the rows assembled from them

def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


class ContextEncoding:
    """The feature blocks of one context, each computed at most once.

    The context block, the variable block of each ``VariableInfo`` and the
    expression block of each ``TemplatePayload`` are computed on first use
    by the module's block functions and kept by value, so every decision
    over this context reads the same arrays.  They are read-only: a row is
    always a new array assembled from them (``extract_features``).  The
    blocks are this context's only; a caller holding an encoding across
    decisions checks ``context`` before it reuses it
    (``condsynth.CondEncoder`` does).
    """

    def __init__(self, context: Context | None, pipe: FeaturePipeline) -> None:
        self.context = context
        self.pipeline = pipe
        self._context_block: np.ndarray | None = None
        self._variable_blocks: dict[VariableInfo | None, np.ndarray] = {}
        self._expression_blocks: dict[TemplatePayload | None, np.ndarray] = {}

    def context_block(self) -> np.ndarray:
        if self._context_block is None:
            block = context_block(self.context, self.pipeline)
            self._context_block = _read_only(block)
        return self._context_block

    def variable_block(self, var: VariableInfo | None) -> np.ndarray:
        block = self._variable_blocks.get(var)
        if block is None:
            block = _read_only(variable_block(var, self.pipeline))
            self._variable_blocks[var] = block
        return block

    def expression_block(self, tpl: TemplatePayload | None) -> np.ndarray:
        block = self._expression_blocks.get(tpl)
        if block is None:
            block = _read_only(expression_block(tpl, self.pipeline))
            self._expression_blocks[tpl] = block
        return block


def extract_features(
    enc: ContextEncoding,
    candidates: Sequence[Sequence[np.ndarray]],
    shared: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Feature rows of one decision over the context of ``enc``: row i is
    the context block, then candidate i's blocks, then the ``shared``
    blocks, which every candidate of the decision reads alike."""
    head = enc.context_block()
    return np.stack([np.concatenate((head, *own, *shared)) for own in candidates])
