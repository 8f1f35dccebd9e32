"""Condition synthesis: mining templates from a corpus and instantiating
them for a new context with the tree-search machinery.

A template is a condition with its variable occurrences abstracted into
numbered placeholder slots, typed by the declarations they were mined from.
For one target context the templates and the declared variables compile into
a rewriting-rule set; synthesis then runs the ordinary beam search over it,
which ranks every finished build, and takes the top k.  Asked to, it first
drops the bare null checks: screening anti-patterns is repair policy, so it
lives here and not in the search.  The decision structure is fixed: pick
the first variable (creation), pick the template around it (upward
expansion), fill the remaining slots left to right (downward expansions).
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .constraints import SignatureTable, compute_size_bounds
from .errors import ContextError, MiniLangError, MiniTypeError, reading
from .features import (
    Context,
    ContextEncoding,
    FeaturePipeline,
    context_block_length,
    extract_features,
    position_block,
    string_tuple,
    type_class_scalar,
    variable_block_length,
)
from .grammar import (
    Annotation,
    RewritingRule,
    RuleSet,
    RuleTree,
    TypeAtom,
    nonterminal,
    terminal,
)
from .minilang import (
    Expr,
    canonical_tokens,
    join_tokens,
    logic_atoms,
    parse_condition,
    tokens_with_vars,
    typecheck,
)
from .models import (
    Decision,
    EncodedRound,
    ExtractionResult,
    FrequencyModel,
    LogisticModel,
    UniformModel,
    extract_training_set,
)
from .search import SearchResult, beam_search
from .trees import (
    AnnotatedAst,
    build_complete_ast,
    leaf_tokens,
    policy_leftmost,
)

EXPR_ROOT = "E"
_PLACEHOLDER_RE = re.compile(r"^V(\d+)$")
_VAR_RULE_RE = re.compile(r"^var(\d+):")


# --------------------------------------------------------------------------
# corpus records

@dataclass(frozen=True)
class CorpusRecord:
    """One corpus atom.  ``expr`` is its condition parsed on first use and
    kept, so mining and replaying it parse it once, and ``abstract`` is
    read from that parse once, for mining and replaying alike; equality and
    hashing read only the three fields.  A record ``of_atom`` takes its
    ``expr`` from the parse of the line it was split from, and parses
    nothing."""

    id: str
    condition: str
    context: Context

    @functools.cached_property
    def expr(self) -> Expr:
        return parse_condition(self.condition)

    @staticmethod
    def of_atom(id: str, atom: Expr, context: Context) -> "CorpusRecord":
        """The record of an atom already parsed: its condition is the atom's
        canonical text, which parses back to ``atom``, and its ``expr`` is
        ``atom`` itself."""
        record = CorpusRecord(id, join_tokens(canonical_tokens(atom)), context)
        vars(record)["expr"] = atom  # the value the cached property would parse
        return record

    @functools.cached_property
    def abstract(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """Skeleton tokens, placeholder types, and variable names of the
        atom; an undeclared variable raises ``ContextError`` on every read."""
        var_types = self.context.variable_types
        skeleton: list[str] = []
        types: list[str] = []
        names: list[str] = []
        for text, is_var in tokens_with_vars(self.expr):
            if is_var:
                declared = var_types.get(text)
                if declared is None:
                    raise ContextError(f"variable {text!r} is not declared")
                types.append(declared)
                names.append(text)
                # every record keeps its skeleton, so they share one string
                # per placeholder
                skeleton.append(sys.intern(f"V{len(types)}"))
            else:
                skeleton.append(text)
        return tuple(skeleton), tuple(types), tuple(names)


def load_corpus(path: str) -> list[CorpusRecord]:
    """Read a JSONL corpus, validating and splitting as it goes.

    Conditions built from ``&&``/``||`` are split into their atoms, each
    atom becoming its own record with an ``#n`` id suffix.  Every atom must
    parse and typecheck Boolean under its context; ids must be unique, the
    derived ones too: a record ``a#1`` and the first atom of a record ``a``
    clash in either order.
    """
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    with reading(path, ContextError), open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as err:
                raise ContextError(
                    f"{path}: line {line_no}: not valid JSON ({err})"
                ) from None
            try:
                rec_id = str(data["id"])
                condition = data["condition"]
                if not isinstance(condition, str):
                    raise TypeError("condition must be a string")
                ctx = Context.from_dict(data["context"])
            except (KeyError, TypeError, ContextError) as err:
                raise ContextError(f"line {line_no}: bad record ({err})") from None
            if rec_id in seen_ids:
                raise ContextError(f"line {line_no}: duplicate id {rec_id!r}")
            try:
                atoms = logic_atoms(parse_condition(condition))
            except MiniLangError as err:
                raise ContextError(f"line {line_no}: {err}") from None
            var_types = ctx.variable_types
            for atom_idx, atom in enumerate(atoms, start=1):
                record = CorpusRecord.of_atom(
                    rec_id if len(atoms) == 1 else f"{rec_id}#{atom_idx}", atom, ctx
                )
                if record.id in seen_ids:
                    raise ContextError(f"line {line_no}: duplicate id {record.id!r}")
                seen_ids.add(record.id)
                text = record.condition
                try:
                    result = typecheck(atom, var_types)
                except (MiniLangError, MiniTypeError) as err:
                    raise ContextError(f"line {line_no}: {text!r}: {err}") from None
                if result != "Boolean":
                    raise ContextError(
                        f"line {line_no}: {text!r} has type {result}, not Boolean"
                    )
                records.append(record)
            seen_ids.add(rec_id)
    return records


# --------------------------------------------------------------------------
# templates

@dataclass(frozen=True)
class Template:
    """A condition skeleton: placeholders V1..Vk plus concrete tokens."""

    key: str
    tokens: tuple[str, ...]
    placeholder_types: tuple[str, ...]
    count: int = 0

    @property
    def arity(self) -> int:
        return len(self.placeholder_types)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "tokens": list(self.tokens),
            "types": list(self.placeholder_types),
            "count": self.count,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "Template":
        key = data["key"]
        if not isinstance(key, str):
            raise TypeError("template key must be a string")
        count = data.get("count", 0)
        # a corpus count: a bool is no integer, and none is negative
        if type(count) is not int or count < 0:
            raise ValueError("template count must be a non-negative integer")
        tokens = string_tuple(data["tokens"], "template tokens")
        types = string_tuple(data["types"], "template types")
        # the placeholders mine_templates writes: V1..Vk in order, k slot types
        slots = [t for t in tokens if _PLACEHOLDER_RE.match(t)]
        if slots != [f"V{i}" for i in range(1, len(types) + 1)]:
            raise ValueError(
                f"template {key!r}: placeholders {slots} do not number its "
                f"{len(types)} slot types"
            )
        # and the tokens are a condition: the canonical tokens of their own
        # parse, Boolean when each slot holds a variable of its type
        try:
            expr = parse_condition(join_tokens(tokens))
            result = typecheck(expr, {f"V{i}": t for i, t in enumerate(types, 1)})
        except MiniLangError as err:
            raise ValueError(f"template {key!r}: {err}") from None
        if tuple(canonical_tokens(expr)) != tokens:
            raise ValueError(f"template {key!r}: its tokens are not canonical")
        if result != "Boolean":
            raise ValueError(f"template {key!r} has type {result}, not Boolean")
        # the model's tables are keyed on the key, so a key that is not the
        # tokens' own would leave the template's rules without a row
        if key != template_key(tokens, types):
            raise ValueError(
                f"template {key!r}: its key is not {template_key(tokens, types)!r}"
            )
        return Template(key, tokens, types, count)


def template_key(tokens: Sequence[str], types: Sequence[str]) -> str:
    return f"{' '.join(tokens)}::{','.join(types)}"


def template_of(record: CorpusRecord) -> Template:
    tokens, types, _names = record.abstract
    return Template(template_key(tokens, types), tokens, types, 1)


def mine_templates(records: Sequence[CorpusRecord]) -> tuple[Template, ...]:
    """Distinct templates of the corpus, most frequent first."""
    counts: dict[str, int] = {}
    first: dict[str, Template] = {}
    for record in records:
        t = template_of(record)
        counts[t.key] = counts.get(t.key, 0) + 1
        first.setdefault(t.key, t)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(replace(first[key], count=count) for key, count in ordered)


# --------------------------------------------------------------------------
# compiling templates + context into rules

_SCHEMA_VAR = TypeAtom("a")
_BOOLEAN = TypeAtom("Boolean")


def _leaf_rule_tree(symbol_name: str, var_name: str, *, upward: bool) -> RuleTree:
    mark = Annotation.U if upward else Annotation.NONE
    return RuleTree(
        nonterminal(symbol_name),
        mark,
        not upward,  # downward variant anchors at the slot node
        (RuleTree(terminal(var_name)),),
    )


def _make_var(name: str) -> RewritingRule:
    return RewritingRule(
        None,
        _leaf_rule_tree("V1", name, upward=True),
        key=f"make-var:{name}",
        schema=((0, _SCHEMA_VAR), (1, _SCHEMA_VAR)),
    )


def _fill_slot(position: int, name: str) -> RewritingRule:
    return RewritingRule(
        (nonterminal(f"V{position}"), Annotation.D),
        _leaf_rule_tree(f"V{position}", name, upward=False),
        key=f"var{position}:{name}",
        schema=((0, _SCHEMA_VAR), (1, _SCHEMA_VAR)),
    )


def _make_expr(t: Template) -> RewritingRule:
    return RewritingRule(
        None,
        RuleTree(
            nonterminal(EXPR_ROOT),
            Annotation.U,
            False,
            tuple(RuleTree(terminal(tok)) for tok in t.tokens),
        ),
        key=f"make-expr:{t.key}",
        schema=((0, _BOOLEAN),),
    )


_EXPAND_PATTERN = (nonterminal("V1"), Annotation.U)


def _expand(t: Template) -> RewritingRule:
    children: list[RuleTree] = []
    schema: list[tuple[int, TypeAtom]] = [(0, _BOOLEAN)]
    slot = 0
    for pos, token in enumerate(t.tokens):
        if _PLACEHOLDER_RE.match(token):
            slot += 1
            schema.append((pos + 1, TypeAtom(t.placeholder_types[slot - 1])))
            if slot == 1:
                children.append(RuleTree(nonterminal("V1"), Annotation.NONE, True))
            else:
                children.append(RuleTree(nonterminal(f"V{slot}"), Annotation.D))
        else:
            children.append(RuleTree(terminal(token)))
    return RewritingRule(
        _EXPAND_PATTERN,
        RuleTree(nonterminal(EXPR_ROOT), Annotation.NONE, False, tuple(children)),
        key=f"expr:{t.key}",
        schema=tuple(schema),
    )


_FINISH = RewritingRule(
    (nonterminal(EXPR_ROOT), Annotation.U),
    RuleTree(nonterminal(EXPR_ROOT), Annotation.NONE, True),
    key=f"fin:{EXPR_ROOT}",
)


class TemplateLayer:
    """The part of every context's rule set that repeats across contexts,
    compiled once per template set.

    A context's rule set is, in id order: a ``make-var:`` creation per
    declared variable, a ``make-expr:`` creation per variable-free
    template, an ``expr:`` upward expansion per template with slots
    (anchored at its first slot), a ``varN:`` rule per later slot position
    and variable, and the ``fin:`` rule when some template is variable-free.
    Truncation and the successor sort break ties by rule id, so the order
    is kept.  The layer makes the ``make-expr:``/``expr:``/``fin:`` rules
    once.  It makes a variable name's ``make-var:`` rule and its ``varN:``
    rules, for slots 2 to ``max_arity``, on the first bind that declares the
    name, and keeps them, keyed on the name, for as long as the layer
    lives.  So a later bind makes no rule: it puts the layer's own rule
    objects in a new set, each at its place there, and each rule validates
    itself and compiles its block once per layer.

    The size bounds of a bound set depend only on the templates and on
    whether it has variable rules: every ``varN:`` rule costs the same
    whatever its variable, and creations do not enter the fixpoint.  So the
    layer keeps one ``SignatureTable`` per case, with those bounds, and
    every set it binds in that case reads all its signatures there, the
    variable rules' too.  The table's promise is kept because every rule the
    layer makes is built from the content of its own key: a ``make-var:``
    or ``varN:`` key names the slot and the variable, a ``make-expr:`` or
    ``expr:`` key the template, and ``fin:`` is one fixed rule.  So a
    signature is compiled once per process, not once per search.

    The ``expr:`` group (``V1^U``) and the ``fin:`` group (``E^U``) hold
    the layer's own rules, in one order, in every set it binds, so the
    table holds them ``fixed`` and resolves their offers once per key of
    values, not once per search: the 590 training replays of the bundled
    corpus read five resolutions of the ``expr:`` group, one per variable
    count.  Every pattern the layer's rules carry is a nonterminal (``E``,
    ``V1``, ``V2``, ...), so no two groups of a bound set share a model
    cell name.
    """

    def __init__(self, templates: tuple[Template, ...]) -> None:
        if not templates:
            raise ContextError("no templates to synthesize from")
        self.max_arity = max(t.arity for t in templates)
        closed = [t for t in templates if t.arity == 0]
        self._head = [_make_expr(t) for t in closed] + [
            _expand(t) for t in templates if t.arity > 0
        ]
        self._tail = [_FINISH] if closed else []
        self._tables: dict[bool, SignatureTable] = {}
        # per variable name: its make-var: rule, then its var2: ... rules
        self._variables: dict[str, tuple[RewritingRule, ...]] = {}

    def bind(self, ctx: Context) -> RuleSet:
        """The rule set for one context, sharing this layer's table."""
        names = tuple(v.name for v in ctx.variables) if self.max_arity >= 1 else ()
        table = self._tables.get(bool(names))
        if table is None:
            # this set's bounds are those of every set in its case
            table = self._tables[bool(names)] = SignatureTable(
                compute_size_bounds(self._rule_set(names, None)),
                fixed=(_EXPAND_PATTERN, _FINISH.pattern),
            )
        return self._rule_set(names, table)

    def _variable_rules(self, name: str) -> tuple[RewritingRule, ...]:
        rules = self._variables.get(name)
        if rules is None:
            rules = self._variables[name] = (
                _make_var(name),
                *(_fill_slot(p, name) for p in range(2, self.max_arity + 1)),
            )
        return rules

    def _rule_set(self, names: Sequence[str], shared) -> RuleSet:
        made = [self._variable_rules(name) for name in names]
        return RuleSet(
            [
                *(rules[0] for rules in made),
                *self._head,
                *(rules[p] for p in range(1, self.max_arity) for rules in made),
                *self._tail,
            ],
            shared=shared,
        )


@functools.lru_cache(maxsize=4)
def template_layer(templates: tuple[Template, ...]) -> TemplateLayer:
    """The layer of a template set, memoised on the templates' values: a
    training run and every prediction from one bundle build it once.  A
    layer is a function of its templates, so the few it keeps are shared
    by every caller in the process."""
    return TemplateLayer(templates)


def build_cond_ruleset(templates: Sequence[Template], ctx: Context) -> RuleSet:
    """Rules for synthesizing one condition in one context.

    Creation seeds the first variable (or a whole variable-free condition);
    each template with slots becomes an upward expansion anchored at the
    first slot; later slots are filled by per-variable downward rules.  The
    template rules come compiled from ``template_layer``.
    """
    return template_layer(tuple(templates)).bind(ctx)


def certification_bound(templates: Sequence[Template]) -> int:
    """Node count of the largest single-template tree; trees past one
    template per condition cannot exist in this rule space, so the search
    of a compiled set at this size limit meets every tree the set builds,
    and checking its builds for two of one tree is a full proof."""
    return max(1 + len(t.tokens) + t.arity for t in templates)


def record_tree(record: CorpusRecord) -> AnnotatedAst:
    """The finished tree the rule set would build for this record."""
    tokens, types, names = record.abstract
    children = []
    slot = 0
    for token in tokens:
        if _PLACEHOLDER_RE.match(token):
            slot += 1
            children.append(
                (nonterminal(f"V{slot}"), ((terminal(names[slot - 1]), ()),))
            )
        else:
            children.append((terminal(token), ()))
    return build_complete_ast((nonterminal(EXPR_ROOT), tuple(children)))


def render_condition(ast: AnnotatedAst) -> str:
    """The condition's text.  Renderings repeat across holes (the same
    templates over the same variable names), so they are interned: a caller
    that keeps many rankings keeps one copy of each text."""
    return sys.intern(join_tokens(leaf_tokens(ast)))


# --------------------------------------------------------------------------
# encoding decision points as feature rows

_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_ARITH_OPS = ("+", "-", "*", "/", "%")


def expression_block(tpl: Template | None, pipe: FeaturePipeline) -> np.ndarray:
    """The block of a template, read off its skeleton alone; zeros for
    None."""
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
        type_scalars[i] = type_class_scalar(type_name)
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


def row_length(kind: str, p: int) -> int:
    """Width of a ``kind`` decision's feature rows at PCA width ``p``."""
    head = context_block_length(p) + variable_block_length(p)
    if kind == "expression":
        return head
    if kind == "creation":
        return head + expression_block_length(p)
    if kind == "variable":
        return head + variable_block_length(p) + expression_block_length(p) + 1
    raise ContextError(f"unknown decision kind {kind!r}")


class CondEncoder:
    """Turns decision points into their kind and their feature rows,
    reading everything off the rules and the current tree; one encoder
    serves training extraction and prediction alike.

    A creation decision gets one row per candidate: the variable of a
    ``make-var:`` rule, or the template of a ``make-expr:`` rule.  An
    expression decision is a single classification over the templates, so
    it gets one row: the context and the first variable, the leaf under
    the V1 node it targets, which every candidate shares.  A variable
    decision fills slot p of one template: one row per candidate variable
    (named by a slot rule's key, as a ``make-var:`` key names its own),
    then what its candidates share: the variable under slot p-1, the
    template named by the rule that introduced the slot, and p.  Any other
    decision (``fin:``) gets no rows.  ``row_length`` gives each kind's
    width.  Every slot node is a child of the template's root, and only a
    filled one has children, so slot p-1 is read off the target's
    siblings.

    ``encode_round`` encodes a search round's decisions, all in one
    context, into one matrix per kind (``features.extract_features``);
    a decision's rows are those it gets in a round of its own, which is
    what calling the encoder on one decision gives.  The encoder keeps the
    ``ContextEncoding`` of the last context it encoded and reuses it while
    the next round's context is that object or equals it, so the rounds of
    one predict, or the steps of one training item, compute each context
    and variable block once; a variable is read by its name through the
    encoding.  A context that differs in any value replaces it; only one
    is kept.  The encoder memoises each template's block, keyed on the
    template key (None for the absent template), so each is computed once
    per encoder; name embeddings come from the pipeline's memo, once per
    pipeline.
    """

    def __init__(self, templates: Sequence[Template], pipeline: FeaturePipeline):
        self.pipeline = pipeline
        self._templates = {t.key: t for t in templates}
        self._encoding: ContextEncoding | None = None
        self._expressions: dict[str | None, np.ndarray] = {}

    def __call__(
        self,
        ctx: Context | None,
        ast: AnnotatedAst,
        node: int | None,
        candidates: Sequence[RewritingRule],
    ) -> tuple[str, np.ndarray | None]:
        """One decision's kind and rows (None when no core scores it): the
        round of that decision alone."""
        rows, ((kind, _, _),) = self.encode_round(ctx, [(ast, node, candidates)])
        return kind, rows.get(kind)

    def encode_round(
        self, ctx: Context | None, decisions: Sequence[Decision]
    ) -> EncodedRound:
        """The rows of a round's decisions in the context ``ctx``: one
        matrix per kind, each decision's rows a contiguous range of its
        kind's, in the order the decisions come."""
        enc = None
        parts: dict[str, list] = {}
        used: dict[str, int] = {}  # rows per kind so far
        spans: list[tuple[str, int, int]] = []
        for ast, node, candidates in decisions:
            key = candidates[0].key if candidates else ""
            if key.startswith(("make-var:", "make-expr:")):
                kind = "creation"
            elif key.startswith("expr:"):
                kind = "expression"
            else:
                slot = _VAR_RULE_RE.match(key)
                if slot is None:
                    spans.append(("other", 0, 0))
                    continue
                kind = "variable"
            if enc is None:
                enc = self._encoding_of(ctx)
            if kind == "creation":
                own = self._creation_blocks(enc, candidates)
                shared: tuple = ()
            elif kind == "expression":
                own, shared = ([enc.variable_block(_filled_by(ast, node))],), ()
            else:
                names = [r.key.partition(":")[2] for r in candidates]
                own = (enc.variable_blocks(names),)
                shared = self._slot_blocks(enc, ast, node, int(slot.group(1)))
            start = used.get(kind, 0)
            used[kind] = start + len(own[0])
            parts.setdefault(kind, []).append((own, shared))
            spans.append((kind, start, start + len(own[0])))
        rows = {kind: extract_features(enc, made) for kind, made in parts.items()}
        return EncodedRound(rows, spans)

    def _encoding_of(self, ctx: Context | None) -> ContextEncoding:
        enc = self._encoding
        if enc is None or (enc.context is not ctx and enc.context != ctx):
            enc = self._encoding = ContextEncoding(ctx, self.pipeline)
        return enc

    def expression_block(self, tpl: Template | None) -> np.ndarray:
        """The read-only block of ``tpl``, computed once per template key."""
        key = None if tpl is None else tpl.key
        block = self._expressions.get(key)
        if block is None:
            block = self._expressions[key] = expression_block(tpl, self.pipeline)
            block.flags.writeable = False
        return block

    def _creation_blocks(self, enc: ContextEncoding, candidates: Sequence[RewritingRule]):
        """Each creation candidate's variable block and template block, as
        two lists: a ``make-var:`` rule's variable and no template, or a
        ``make-expr:`` rule's template and no variable."""
        variables, templates = [], []
        for rule in candidates:
            head, _, name = rule.key.partition(":")
            if head == "make-var":
                variables.append(enc.variable_block(name))
                templates.append(self.expression_block(None))
            else:
                variables.append(enc.variable_block(None))
                templates.append(self.expression_block(self._templates.get(name)))
        return variables, templates

    def _slot_blocks(self, enc: ContextEncoding, ast: AnnotatedAst, node: int, position: int):
        """What every candidate for slot ``position`` at ``node`` shares."""
        nodes = ast.nodes
        target = nodes[node]
        template = None
        if target.origin and target.origin.startswith("expr:"):
            template = self._templates.get(target.origin[len("expr:"):])
        previous = f"V{position - 1}"
        filled = None
        for sibling in nodes[target.parent].children:
            if nodes[sibling].children and nodes[sibling].symbol.name == previous:
                filled = _filled_by(ast, sibling)
                break
        return (
            enc.variable_block(filled),
            self.expression_block(template),
            position_block(position),
        )


def _filled_by(ast: AnnotatedAst, slot: int) -> str | None:
    """The name of the variable leaf under the slot node ``slot``, or None
    when the slot is not filled yet."""
    children = ast.nodes[slot].children
    return ast.nodes[children[0]].symbol.name if children else None


# --------------------------------------------------------------------------
# training and synthesis

@dataclass
class TrainedCond:
    """Everything needed to synthesize: templates plus a fitted model."""

    model_kind: str
    templates: tuple[Template, ...]
    pipeline: FeaturePipeline | None = None
    frequency: FrequencyModel | None = None
    logistic: LogisticModel | None = None
    extraction: ExtractionResult | None = None

    @property
    def model(self):
        if self.model_kind == "frequency":
            return self.frequency
        if self.model_kind == "logistic":
            return self.logistic
        return UniformModel()


def train_cond_models(
    records: Sequence[CorpusRecord],
    *,
    model_kind: str = "frequency",
    pca_dims: int = 16,
    seed: int = 12345,
    size_limit: int = 30,
    epochs: int = 450,
) -> TrainedCond:
    """Mine templates from the records and fit the requested model on them."""
    if model_kind not in ("frequency", "logistic", "uniform"):
        raise ContextError(f"cannot train a {model_kind!r} model")
    templates = mine_templates(records)
    if not templates:
        raise ContextError("corpus yielded no templates")
    if model_kind == "uniform":
        return TrainedCond("uniform", templates)
    items = [(r.context, record_tree(r)) for r in records]
    rules_for = template_layer(templates).bind
    pipeline = encoder = None
    if model_kind == "logistic":
        pipeline = FeaturePipeline.fit((r.context for r in records), pca_dims, seed)
        encoder = CondEncoder(templates, pipeline)
    extraction = extract_training_set(
        items, rules_for, policy_leftmost, encoder=encoder, size_limit=size_limit
    )
    steps = extraction.steps_audited
    if encoder is None:
        return TrainedCond(
            "frequency", templates, frequency=FrequencyModel.fit(steps),
            extraction=extraction,
        )
    return TrainedCond(
        "logistic", templates, pipeline=pipeline,
        logistic=LogisticModel.train(steps, encoder, epochs=epochs),
        extraction=extraction,
    )


# a bare null check is almost never the condition being looked for: the one
# anti-pattern (a rendering search-based repair should not offer) screened
BARE_NULL_CHECK = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*\s*!=\s*null$")


def synthesize_condition(
    ctx: Context,
    templates: Sequence[Template],
    model,
    *,
    k: int = 50,
    widths: Sequence[int] = (5, 200),
    size_limit: int = 30,
    screen_null_checks: bool = False,
) -> SearchResult:
    """The ``k`` best-ranked condition candidates for one context.

    The beam ranks every finished build; with ``screen_null_checks`` the
    bare null checks (``BARE_NULL_CHECK``) are dropped before the cut, so a
    screened candidate never takes one of the ``k`` places.  ``k`` must be
    an int of at least 0 (a bool is none), checked before the search.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be an int >= 0, got {k!r}")
    rs = build_cond_ruleset(templates, ctx)
    found = beam_search(
        rs, ctx, model, widths=widths, size_limit=size_limit,
        renderer=render_condition,
    )
    candidates = found.candidates
    if screen_null_checks:
        candidates = [c for c in candidates if not BARE_NULL_CHECK.search(c.rendered)]
    return SearchResult(candidates[:k], found.stats)


# --------------------------------------------------------------------------
# evaluation

@dataclass
class EvalReport:
    model_kind: str
    repeats: int
    split_ratio: float
    seed: int
    k: int
    n_records: int
    n_train: int
    n_test: int
    tested: int  # test slots over all repeats
    solved: dict[int, int]  # cutoff -> hits over all repeats
    precision: dict[int, float]
    unreachable: int


def evaluate_topk(
    records: Sequence[CorpusRecord],
    *,
    model_kind: str = "frequency",
    split_ratio: float = 0.1,
    seed: int = 0,
    repeats: int = 1,
    k: int = 50,
    widths: Sequence[int] = (5, 200),
    pca_dims: int = 16,
    size_limit: int = 30,
) -> EvalReport:
    """Held-out ranking accuracy, averaged over seeded shuffles.

    Precision is reported at cutoffs 1, 10 and ``k`` (``k`` = 0 adds none),
    and each search ranks as many candidates as the largest cutoff, so a
    cutoff never counts from fewer candidates than it names.  A test
    condition whose template was never mined from the training split
    cannot be produced at all; it counts as a miss at every cutoff and goes
    into ``unreachable``.
    """
    import random

    if not records:
        raise ContextError("empty corpus")
    cutoffs = sorted({1, 10, k} - {0})
    totals = {c: 0.0 for c in cutoffs}
    solved = {c: 0 for c in cutoffs}
    unreachable_total = 0
    n_test = max(1, round(len(records) * split_ratio))
    if n_test >= len(records):
        raise ContextError(
            f"split {split_ratio:g} holds out {n_test} of {len(records)} atoms, "
            "which leaves none to train on"
        )
    for rep in range(repeats):
        rng = random.Random(seed + rep)
        order = list(range(len(records)))
        rng.shuffle(order)
        test_idx = order[:n_test]
        train_idx = order[n_test:]
        trained = train_cond_models(
            [records[i] for i in train_idx],
            model_kind=model_kind,
            pca_dims=pca_dims,
            seed=seed + rep,
            size_limit=size_limit,
        )
        known = {t.key for t in trained.templates}
        hits = {c: 0 for c in cutoffs}
        unreachable = 0
        for i in test_idx:
            record = records[i]
            target = join_tokens([t for t, _ in tokens_with_vars(record.expr)])
            try:
                t = template_of(record)
            except ContextError:
                unreachable += 1
                continue
            if t.key not in known:
                unreachable += 1
                continue
            result = synthesize_condition(
                record.context,
                trained.templates,
                trained.model,
                k=cutoffs[-1],
                widths=widths,
                size_limit=size_limit,
            )
            rank = None
            for pos, cand in enumerate(result.candidates, start=1):
                if cand.rendered == target:
                    rank = pos
                    break
            for c in cutoffs:
                if rank is not None and rank <= c:
                    hits[c] += 1
        for c in cutoffs:
            totals[c] += hits[c] / n_test
            solved[c] += hits[c]
        unreachable_total += unreachable
    precision = {c: totals[c] / repeats for c in cutoffs}
    return EvalReport(
        model_kind=model_kind,
        repeats=repeats,
        split_ratio=split_ratio,
        seed=seed,
        k=k,
        n_records=len(records),
        n_train=len(records) - n_test,
        n_test=n_test,
        tested=n_test * repeats,
        solved=solved,
        precision=precision,
        unreachable=unreachable_total,
    )
