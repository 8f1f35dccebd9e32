"""Program context descriptions and their numeric feature encodings.

A ``Context`` is everything known about the hole a condition goes into: the
declared variables with their usage statistics, the surrounding class and
method names, and small token windows around the hole.  Names are encoded as
character-bigram count vectors and compressed with a PCA fitted at training
time; token windows use a small vocabulary learned alongside.

A decision's feature rows are assembled from fixed-width blocks, so their
layout depends only on the PCA width and on which blocks the caller picks
(``condsynth.CondEncoder`` picks them for each decision, and builds the
block of a template itself: this module knows no template).  Optional
inputs encode as zeros plus a trailing presence flag of 0, never as a
shifted layout.

What reads no context is computed once per pipeline: a ``FeaturePipeline``
memoises each name's embedding, keyed on the name.  What reads the context
is computed once per context, by a ``ContextEncoding``.  Every memo hands
out read-only arrays, so no caller can change what the next one reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ContextError
from .minilang import TYPE_CLASSES, classify_type, is_variable_token

# --------------------------------------------------------------------------
# context data

class VariableInfo(NamedTuple):
    """One declared variable near the hole, with cheap static statistics.

    A ``NamedTuple``, as ``trees.AstNode`` is: a corpus load builds one per
    declared variable, and a tuple is built several times faster than a
    frozen dataclass.  It compares and hashes as the tuple of its fields;
    ``_replace`` makes a changed copy."""

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
        return _write_fields(self, _VARIABLE_SLOTS)

    @staticmethod
    def from_dict(data: dict) -> "VariableInfo":
        """The variable of a JSON entry, or a ``ContextError`` naming the
        first fault: a missing ``name``, then a missing ``type``, then the
        first scalar field (in the entry's order) that is not of its JSON
        kind, then ``def_sites`` that is not a list of integers, then a name
        that cannot name a variable.  Each field is read and checked once,
        in one pass over the entry."""
        if not isinstance(data, dict):
            raise ContextError("variable entry must be an object")
        parts, bad = _read_fields(data, _VARIABLE_SLOTS, _VARIABLE_DEFAULTS)
        name = parts[0]
        if name is _MISSING:
            raise ContextError("variable entry missing 'name'")
        if parts[1] is _MISSING:
            raise ContextError("variable entry missing 'type'")
        sites = parts[_DEF_SITES]
        if bad is None and not (
            isinstance(sites, (list, tuple)) and set(map(type, sites)) <= _INT_KIND
        ):
            bad = "'def_sites' must be a list of integers"
        if bad is None and not is_variable_token(name):
            bad = "'name' must be an identifier other than null, true or false"
        if bad is not None:
            raise ContextError(f"variable {name!r}: {bad}")
        parts[_DEF_SITES] = tuple(sites)
        return VariableInfo._make(parts)


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

    def to_dict(self) -> dict:
        data = _write_fields(_context_fields(self), _CONTEXT_SLOTS)
        data["variables"] = [v.to_dict() for v in self.variables]
        return data

    @staticmethod
    def from_dict(data: dict) -> "Context":
        """The context of a JSON object, or a ``ContextError`` naming the
        first fault: the first scalar field (in the object's order) that is
        not of its JSON kind, then ``variables`` that is not a list, then
        the first bad variable entry, then two variables of one name, then
        ``before`` and ``after`` that are not lists of strings.  Each field
        is read and checked once, in one pass over the object."""
        if not isinstance(data, dict):
            raise ContextError("context must be an object")
        parts, bad = _read_fields(data, _CONTEXT_SLOTS, _CONTEXT_DEFAULTS)
        if bad is not None:
            raise ContextError(f"context: {bad}")
        entries = parts[0]
        if not isinstance(entries, (list, tuple)):
            raise ContextError("context: 'variables' must be a list")
        variables = tuple(map(VariableInfo.from_dict, entries))
        if len({v.name for v in variables}) != len(variables):
            raise ContextError("duplicate variable names in context")
        parts[0] = variables
        try:
            parts[_BEFORE] = string_tuple(parts[_BEFORE], "context 'before'")
            parts[_AFTER] = string_tuple(parts[_AFTER], "context 'after'")
        except TypeError as err:
            raise ContextError(str(err)) from None
        return Context(*parts)


# where each JSON key of a variable entry and of a context goes in the
# record, and the JSON kind of its value (None for a list, checked apart);
# kinds compare exactly, so a boolean is no integer.  Both readers and
# writers go by these tables, so each record names its JSON keys once.
_MISSING = object()
_VARIABLE_SLOTS = {
    "name": (0, str), "type": (1, str), "final": (2, bool), "static": (3, bool),
    "in_loop": (4, bool), "has_init": (5, bool), "init_zero": (6, bool),
    "decl_distance": (7, int), "def_sites": (8, None), "usages": (9, int),
    "usages_before": (10, int), "usages_after": (11, int),
}
_DEF_SITES = 8
_VARIABLE_DEFAULTS = (_MISSING, _MISSING, *VariableInfo._field_defaults.values())
_CONTEXT_SLOTS = {
    "class": (2, str), "superclass": (3, str), "method": (4, str),
    "params": (5, int), "static": (6, bool), "in_loop": (7, bool),
    "before": (8, None), "after": (9, None), "result": (1, str),
    "variables": (0, None),
}
_BEFORE, _AFTER = 8, 9
_CONTEXT_DEFAULTS = tuple(f.default for f in fields(Context))
_context_fields = attrgetter(*(f.name for f in fields(Context)))
_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}
_INT_KIND = frozenset({int})


def _read_fields(data: dict, slots: dict, defaults: tuple) -> tuple[list, str | None]:
    """The record's fields from one pass over a JSON object: each known
    key's value at its slot, the default where a key is absent, and what is
    wrong with the first scalar field (in the object's order) whose value
    is not of its kind, or None when every one fits."""
    parts = list(defaults)
    bad = None
    for key, value in data.items():
        slot = slots.get(key)
        if slot is not None:
            index, kind = slot
            parts[index] = value
            if type(value) is not kind and bad is None and kind is not None:
                bad = f"{key!r} must be {_KIND_NAMES[kind]}"
    return parts, bad


def _write_fields(parts: Sequence, slots: dict) -> dict:
    """The JSON object of a record's fields, one key per slot, in the
    table's order; a list field's tuple is written as a list."""
    return {
        key: list(parts[index]) if kind is None else parts[index]
        for key, (index, kind) in slots.items()
    }


def string_tuple(values, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; ``TypeError`` naming ``what`` for
    anything else, so that a reader reports it instead of failing later."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, str) for v in values
    ):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(values)


def number_array(values, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array;
    ``TypeError`` naming ``what`` for any entry that is not an int or a
    float, or is a bool, which ``np.asarray`` would silently convert.

    The entries are checked one nesting level at a time, by the set of
    their types, not by one Python call per number."""
    level = [values]
    while level:
        kinds = set(map(type, level))
        if kinds == {list}:
            level = list(chain.from_iterable(level))
        elif kinds <= _NUMBER_KINDS:
            break
        elif kinds <= _NUMBER_KINDS | {list}:  # ragged: np.asarray refuses it
            level = [x for item in level if type(item) is list for x in item]
        else:
            raise TypeError(f"{what} must hold numbers only")
    return np.asarray(values, dtype=float)


_NUMBER_KINDS = frozenset({int, float})


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


# names and types repeat across contexts, and every block reads a few
@lru_cache(maxsize=4096)
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
    always ``dims``.  Two transforms are equal when their arrays are.
    """

    mean: np.ndarray
    components: np.ndarray  # shape (kept, input dim)
    dims: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PcaTransform):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.components, other.components)
        )

    def to_params(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "dims": self.dims,
        }

    @staticmethod
    def from_params(data: Mapping) -> "PcaTransform":
        dims = data["dims"]
        # a bool is an int to Python, and int() would take "16" or 16.9
        if type(dims) is not int:
            raise TypeError("dims must be an integer")
        mean = number_array(data["mean"], "mean")
        components = number_array(data["components"], "components")
        if components.size == 0:
            components = components.reshape(0, mean.shape[0])
        return PcaTransform(mean, components, dims)


# a direction's power iteration stops once a step moves it less than
# _PCA_TOL, or after _PCA_MAX_ITER steps
_PCA_TOL, _PCA_MAX_ITER = 1e-13, 5000


def pca_fit(
    vectors: Sequence[np.ndarray],
    dims: int,
    *,
    seed: int = 12345,
) -> PcaTransform:
    """Power iteration with deflation; deterministic under the seed.

    The iteration runs over the columns some sample touches: a column every
    sample leaves at zero stays zero once centred, so it takes no part in any
    step and is exactly zero in every component.  Needs at least two sample
    vectors; directions stop early once the residual variance is numerically
    zero.
    """
    data = np.asarray(list(vectors), dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        width = data.shape[1] if data.ndim == 2 else BIGRAM_DIM
        return PcaTransform(np.zeros(width), np.zeros((0, width)), dims)
    mean = data.mean(axis=0)
    live = np.flatnonzero(data.any(axis=0))
    centered = data[:, live] - mean[live]
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    limit = min(dims, min(data.shape))
    for _ in range(limit):
        # drawn and normalised at full width, then restricted: each step
        # computes what it would over every column, up to rounding, and the
        # seed fixes each direction's sign as it would there
        v = rng.standard_normal(data.shape[1])
        v = v[live] / np.linalg.norm(v)
        direction = None
        for _ in range(_PCA_MAX_ITER):
            w = centered.T @ (centered @ v) / data.shape[0]
            scale = np.linalg.norm(w)
            if scale < 1e-12:
                break
            w /= scale
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < _PCA_TOL:
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
    components = np.zeros((len(kept), data.shape[1]))
    if kept:
        components[:, live] = kept
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
    """The fitted name PCA and window vocabulary, with what the pipeline
    has computed from them alone: the embedding of each name it has met,
    kept by name for as long as the pipeline lives.  The memo is bounded
    by the distinct names met, is read-only, and takes no part in the
    pipeline's ``==``, ``repr`` or ``to_params``."""

    pca: PcaTransform
    vocab: tuple[str, ...]
    _names: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def dims(self) -> int:
        return self.pca.dims

    def embed_name(self, name: str) -> np.ndarray:
        vec = self._names.get(name)
        if vec is None:
            vec = _read_only(pca_apply(self.pca, encode_name_2gram(name)))
            self._names[name] = vec
        return vec

    @cached_property
    def _vocab_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.vocab)}

    def window_vec(self, tokens: Sequence[str]) -> np.ndarray:
        """Binary bag over the vocabulary plus UNK, plus a presence flag."""
        vec = np.zeros(WINDOW_VOCAB_SIZE + 2)
        index = self._vocab_index
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


def type_class_scalar(type_name: str) -> float:
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
    type_word = last_word(var.type)
    sites = list(var.def_sites[:3]) + [0] * (3 - len(var.def_sites[:3]))
    scalars = np.array(
        [
            len(var.name) / 10.0,
            type_class_scalar(var.type),
            1.0
            if (word and word in var.type.lower())
            or (type_word and type_word in var.name.lower())
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


def position_block(position: int | None) -> np.ndarray:
    return np.array([0.0 if position is None else position / 5.0])


# --------------------------------------------------------------------------
# one context's blocks and the rows assembled from them

def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


class ContextEncoding:
    """The feature blocks of one context, each computed at most once.

    The context block and the variable block of each declared name are
    computed on first use by the module's block functions and kept, so
    every decision over this context reads the same arrays.  A name is
    looked up in a dict made once per encoding; the context's first
    variable of a name wins, and a name it does not declare reads the
    absent variable's block.  Every block is read-only: a row is always a
    new array assembled from them (``extract_features``).  The blocks are
    this context's only; a caller holding an encoding across decisions
    checks ``context`` before it reuses it (``condsynth.CondEncoder``
    does).
    """

    def __init__(self, context: Context | None, pipe: FeaturePipeline) -> None:
        self.context = context
        self.pipeline = pipe
        self._context_block: np.ndarray | None = None
        variables = context.variables if context is not None else ()
        self._variables = {v.name: v for v in reversed(variables)}
        self._variable_blocks: dict[str | None, np.ndarray] = {}

    def context_block(self) -> np.ndarray:
        if self._context_block is None:
            block = context_block(self.context, self.pipeline)
            self._context_block = _read_only(block)
        return self._context_block

    def variable_blocks(self, names: Sequence[str | None]) -> list[np.ndarray]:
        """``variable_block`` of each name, in order."""
        kept = self._variable_blocks
        blocks = []
        for name in names:
            block = kept.get(name)
            blocks.append(self.variable_block(name) if block is None else block)
        return blocks

    def variable_block(self, name: str | None) -> np.ndarray:
        """The block of the context's variable ``name``; for None, or a
        name the context does not declare, the absent variable's block."""
        block = self._variable_blocks.get(name)
        if block is None:
            var = self._variables.get(name)
            if var is None and name is not None:
                block = self.variable_block(None)
            else:
                block = _read_only(variable_block(var, self.pipeline))
            self._variable_blocks[name] = block
        return block


def extract_features(
    enc: ContextEncoding,
    decisions: Sequence[tuple[Sequence[Sequence[np.ndarray]], Sequence[np.ndarray]]],
) -> np.ndarray:
    """Feature rows of decisions of one kind over the context of ``enc``,
    stacked in the order given.  A decision is its own blocks, one list
    per block position holding each candidate's block there, and the
    blocks its candidates share; its row i is the context block, then
    candidate i's own blocks, then the shared blocks.  Every decision has
    blocks of the same widths.  The rows are one new array, written one
    column range per block: the context block once, each own block
    position once over all the rows, and each shared block once per
    decision."""
    head = enc.context_block()
    own, shared = decisions[0]
    widths = [blocks[0].shape[0] for blocks in own]
    col = head.shape[0]
    rows = np.empty(
        (
            sum(len(own[0]) for own, _ in decisions),
            col + sum(widths) + sum(b.shape[0] for b in shared),
        )
    )
    rows[:, :col] = head
    for i, width in enumerate(widths):
        rows[:, col : col + width] = [b for own, _ in decisions for b in own[i]]
        col += width
    if shared:
        start = 0
        for own, shared in decisions:
            stop, at = start + len(own[0]), col
            for block in shared:
                rows[start:stop, at : at + block.shape[0]] = block
                at += block.shape[0]
            start = stop
    return rows
