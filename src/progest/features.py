"""Program context descriptions and their numeric feature encodings.

A ``Context`` is everything known about the hole a condition goes into: the
declared variables with their usage statistics, the surrounding class and
method names, and small token windows around the hole.  Names are encoded as
character-bigram count vectors and compressed with a PCA fitted at training
time; token windows use a small vocabulary learned alongside.

A decision's feature rows are assembled from fixed-width blocks, so their
layout depends only on the PCA width and on which blocks the caller picks
(``condsynth.CondEncoder`` picks them for each decision of each round it
encodes, keeps each context's blocks, and builds the block of a template
itself: this module knows no template).  Optional inputs encode as zeros
plus a trailing presence flag of 0, never as a shifted layout.  A
``FeaturePipeline`` memoises each name's embedding, keyed on the name, and
hands out read-only arrays, so no caller can change what the next reads.
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
        kind or is an integer no float can hold, then ``def_sites`` that is
        not a list of such integers, then a name that cannot name a
        variable.  Each field is read and checked once, in one pass over
        the entry."""
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
        if bad is None and sites and not (
            _FLOAT_INT_FLOOR < min(sites) and max(sites) < _FLOAT_INT_LIMIT
        ):
            bad = "'def_sites' must hold integers a float can hold"
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
        not of its JSON kind or is an integer no float can hold, then
        ``variables`` that is not a list, then the first bad variable entry,
        then two variables of one name, then ``before`` and ``after`` that
        are not lists of strings.  Each field is read and checked once, in
        one pass over the object."""
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
# the least integer magnitude that ``float()`` refuses: the logistic
# encoder divides every integer field by a float, so a reader refuses it
_FLOAT_INT_LIMIT = 2**1024 - 2**970
_FLOAT_INT_FLOOR = -_FLOAT_INT_LIMIT


def _read_fields(data: dict, slots: dict, defaults: tuple) -> tuple[list, str | None]:
    """The record's fields from one pass over a JSON object: each known
    key's value at its slot, the default where a key is absent, and what is
    wrong with the first scalar field (in the object's order) whose value
    is not of its kind, or is an integer no float can hold, or None when
    every one fits."""
    parts = list(defaults)
    bad = None
    for key, value in data.items():
        slot = slots.get(key)
        if slot is not None:
            index, kind = slot
            parts[index] = value
            if type(value) is not kind:
                if bad is None and kind is not None:
                    bad = f"{key!r} must be {_KIND_NAMES[kind]}"
            elif kind is int and not _FLOAT_INT_FLOOR < value < _FLOAT_INT_LIMIT:
                if bad is None:
                    bad = f"{key!r} must be an integer a float can hold"
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


# OpenBLAS (0.3.31, as numpy's wheels ship it) runs a product on one thread,
# whatever thread count it is given, when the product is small: a
# matrix-vector product of fewer than 460 800 matrix entries, a matrix
# product whose m·n·k is at most 262 144.  A larger one is split at points
# that depend on the thread count, and an output next to a split is summed
# in another order, so the PCA and the fits (``models``) take every product
# in row blocks within these bounds, by one helper for a matrix or a vector
# (``_row_blocks``): each of their sums then has one order at any thread
# count (a block is at least one row, so a row wider than a bound is not
# covered).  Not every BLAS call that looks small keeps to them: numpy
# hands ``A.T @ A`` to ``syrk``, and LAPACK's ``eigh`` and
# ``qr`` of the bundled corpus's 193-wide expression rows gave other bytes
# at 2 threads than at 1, so the softmax fit builds the basis of their span
# from bounded matrix-vector products alone (``models._row_basis``)
_MATVEC_ENTRIES, _MATMUL_VOLUME = 460_799, 262_144

# the PCA's block holds _PCA_OVERSAMPLE directions beyond the dims it may
# keep, and the iteration stops once every kept direction q with Ritz value
# θ has ‖Cq − θq‖ under _PCA_TOL, or after _PCA_MAX_ITER rounds
_PCA_OVERSAMPLE, _PCA_TOL, _PCA_MAX_ITER = 8, 1e-13, 5000


def _row_blocks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B``, one product per block of rows within ``_MATMUL_VOLUME``,
    or within ``_MATVEC_ENTRIES`` for a vector ``B``."""
    if B.ndim == 1:
        rows = max(1, _MATVEC_ENTRIES // max(1, A.shape[1]))
    else:
        rows = max(1, _MATMUL_VOLUME // max(1, A.shape[1] * B.shape[1]))
    if rows >= len(A):
        return A @ B
    return np.concatenate([A[i : i + rows] @ B for i in range(0, len(A), rows)])


def _tmatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A.T @ B``, summed over blocks of rows within ``_MATMUL_VOLUME``,
    in row order."""
    rows = max(1, _MATMUL_VOLUME // max(1, A.shape[1] * B.shape[1]))
    out = np.zeros((A.shape[1], B.shape[1]))
    for i in range(0, len(A), rows):
        out += A[i : i + rows].T @ B[i : i + rows]
    return out


def pca_fit(
    vectors: Sequence[np.ndarray],
    dims: int,
    *,
    seed: int = 12345,
) -> PcaTransform:
    """Subspace iteration with a Rayleigh–Ritz step; deterministic under the
    seed.

    The iteration runs over the columns some sample touches: a column every
    sample leaves at zero stays zero once centred, so it takes no part in any
    product and is exactly zero in every component.  The block starts from
    ``dims + _PCA_OVERSAMPLE`` seeded draws, the first ``dims`` of them the
    starts of power iteration with deflation, and keeps what that iteration
    converges to: each direction takes the sign of its start, and the
    directions of one eigenvalue are the Gram–Schmidt of their starts'
    projections onto its eigenspace.  Needs at least two sample vectors; the
    directions end at the first whose variance is numerically zero.
    """
    data = np.asarray(list(vectors), dtype=float)
    # the mean of samples that touch no column is zero
    if data.ndim != 2 or data.shape[0] < 2 or not data.any():
        width = data.shape[1] if data.ndim == 2 else BIGRAM_DIM
        return PcaTransform(np.zeros(width), np.zeros((0, width)), dims)
    n, width = data.shape
    mean = data.mean(axis=0)
    live = np.flatnonzero(data.any(axis=0))
    centered = data[:, live] - mean[live]
    size = min(dims + _PCA_OVERSAMPLE, len(live), n)
    # drawn at full width, then restricted: the seed fixes each direction's
    # sign as it would over every column
    starts = np.random.default_rng(seed).standard_normal((size, width))[:, live].T
    basis = starts
    for _ in range(_PCA_MAX_ITER):
        # qr and eigh act on at most dims + 8 columns, where each BLAS call
        # LAPACK makes sums in one order at any thread count
        basis = np.linalg.qr(basis)[0]
        # the centred covariance times the block
        image = _tmatmul(centered, _row_blocks(centered, basis)) / n
        theta, turn = np.linalg.eigh(_row_blocks(basis.T, image))
        theta, turn = theta[::-1], turn[:, ::-1]
        ritz, basis = _row_blocks(basis, turn), _row_blocks(image, turn)
        kept = int(np.count_nonzero(theta[:dims] >= 1e-12))
        residual = basis[:, :kept] - ritz[:, :kept] * theta[:kept]
        if not (np.linalg.norm(residual, axis=0) >= _PCA_TOL).any():
            break
    first = 0
    while first < kept:
        # a run of Ritz values equal up to rounding spans one eigenspace
        last = first + 1
        while last < size and theta[first] - theta[last] <= 1e-10 * theta[0]:
            last += 1
        span = ritz[:, first:last]
        q, r = np.linalg.qr(_row_blocks(span.T, starts[:, first:last]))
        ritz[:, first:last] = _row_blocks(span, q * np.sign(np.diag(r)))
        first = last
    components = np.zeros((kept, width))
    components[:, live] = ritz[:, :kept].T
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


def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


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
        """The pipeline of a bundle's section; ``ValueError`` for a vocab
        that ``window_vec`` cannot index: more than ``WINDOW_VOCAB_SIZE``
        tokens, or one token twice."""
        vocab = string_tuple(data["vocab"], "vocab")
        if len(vocab) > WINDOW_VOCAB_SIZE or len(set(vocab)) != len(vocab):
            raise ValueError(f"vocab must be at most {WINDOW_VOCAB_SIZE} distinct tokens")
        return FeaturePipeline(PcaTransform.from_params(data["pca"]), vocab)

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
# rows assembled from blocks

def extract_features(runs: Sequence[tuple[np.ndarray, list]]) -> np.ndarray:
    """Feature rows of decisions of one kind, stacked in the order given.
    A run is the block of a context and decisions of this kind in it (one
    round's, or those of rounds in a row that share the context).  A
    decision is its own blocks, one list per block position holding each
    candidate's block there, and the blocks its candidates share; its row i
    is its run's context block, then candidate i's own blocks, then the
    shared blocks.  Every decision has blocks of the same widths.  The rows
    are one new array, written one column range per block: each run's
    context block once over that run's rows, each own block position once
    over all the rows, and each shared block once per decision."""
    decisions = [decision for _, run in runs for decision in run]
    own, shared = decisions[0]
    widths = [blocks[0].shape[0] for blocks in own]
    col = runs[0][0].shape[0]
    rows = np.empty(
        (
            sum(len(own[0]) for own, _ in decisions),
            col + sum(widths) + sum(b.shape[0] for b in shared),
        )
    )
    start = 0
    for head, run in runs:
        stop = start + sum(len(own[0]) for own, _ in run)
        rows[start:stop, :col] = head
        start = stop
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
