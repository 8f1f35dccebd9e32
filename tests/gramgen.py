"""Seeded random grammar builders shared by property and acceptance tests.

Three families:

* acyclic grammars with a known finite program count, for exhaustive-vs-beam
  and order-invariance runs;
* recursive grammars, optionally with a non-terminating symbol, for the
  size-bound fixpoint checks;
* typed grammars whose leaf productions cover every type atom in play, so a
  consistent type assignment always admits a small completion.  About a
  third of them spell one operator ``"E"``, the name of their nonterminal,
  so that the rules on that terminal and those on ``E`` are two groups a
  search must keep apart.
"""

from __future__ import annotations

import random
from dataclasses import replace

from progest.grammar import (
    CreationMode,
    Grammar,
    Production,
    RuleSet,
    Symbol,
    TypeAtom,
    derive_bottom_up_rules,
    derive_creation_rules,
    derive_top_down_rules,
    nonterminal,
    terminal,
)

_NT_NAMES = ("E", "F", "G", "H")
_TERM_NAMES = ("a", "b", "c", "d", "x", "y", "w", "z")


def count_programs(g: Grammar) -> int:
    """Exact complete-tree count from the root; only sound for acyclic grammars."""
    memo: dict[Symbol, int] = {}

    def trees(sym: Symbol) -> int:
        if sym.is_terminal:
            return 1
        if sym in memo:
            return memo[sym]
        total = 0
        for p in g.productions_for(sym):
            acc = 1
            for item in p.rhs:
                acc *= trees(item)
            total += acc
        memo[sym] = total
        return total

    return trees(g.root)


def random_dag_grammar(
    seed: int, *, min_programs: int = 20, max_programs: int = 1000
) -> Grammar:
    """An acyclic grammar whose program count lands inside the given band.

    Non-terminal i may only reference non-terminals past i, so the count is
    finite; seeds where the count misses the band are redrawn deterministically.
    """
    for attempt in range(500):
        rng = random.Random(seed * 1009 + attempt)
        n_nts = rng.randint(2, 3)
        nts = [nonterminal(name) for name in _NT_NAMES[:n_nts]]
        productions: list[Production] = []
        seen: set[tuple[Symbol, tuple[Symbol, ...]]] = set()
        for i, nt in enumerate(nts):
            later = nts[i + 1:]
            for _ in range(rng.randint(2, 4)):
                rhs: list[Symbol] = []
                for _ in range(rng.randint(1, 3)):
                    if later and rng.random() < 0.45:
                        rhs.append(rng.choice(later))
                    else:
                        rhs.append(terminal(rng.choice(_TERM_NAMES)))
                # identical draws would collide on rule keys
                if (nt, tuple(rhs)) in seen:
                    continue
                seen.add((nt, tuple(rhs)))
                productions.append(Production(nt, tuple(rhs)))
        g = Grammar(tuple(productions), nts[0])
        if min_programs <= count_programs(g) <= max_programs:
            return g
    raise AssertionError(f"no grammar in the program-count band for seed {seed}")


def random_recursive_grammar(seed: int, *, with_dead: bool = False) -> Grammar:
    """A possibly self-referential grammar; ``with_dead`` adds a symbol whose
    every production mentions itself, so it can never finish."""
    rng = random.Random(seed * 7919)
    n_nts = rng.randint(2, 3)
    nts = [nonterminal(name) for name in _NT_NAMES[:n_nts]]
    productions: list[Production] = []
    seen: set[tuple[Symbol, tuple[Symbol, ...]]] = set()
    for nt in nts:
        # one guaranteed terminal production keeps the symbol productive
        first = (terminal(rng.choice(_TERM_NAMES)),)
        seen.add((nt, first))
        productions.append(Production(nt, first))
        for _ in range(rng.randint(1, 2)):
            rhs: list[Symbol] = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.4:
                    rhs.append(rng.choice(nts))
                else:
                    rhs.append(terminal(rng.choice(_TERM_NAMES)))
            if (nt, tuple(rhs)) in seen:
                continue
            seen.add((nt, tuple(rhs)))
            productions.append(Production(nt, tuple(rhs)))
    if with_dead:
        dead = nonterminal("DEAD")
        productions.append(Production(dead, (terminal("q"), dead)))
        # reachable from the root, yet never completable
        productions.append(Production(nts[0], (terminal("p"), dead)))
    return Grammar(tuple(productions), nts[0])


def random_typed_grammar(seed: int, *, typed_leaves: bool = False) -> Grammar:
    """A one-symbol typed grammar: a leaf per type plus compound productions.

    Every type atom that a schema can demand has a single-terminal leaf
    production, so any solver-consistent partial tree completes within a few
    nodes regardless of the types forced on its pending slots.  With
    ``typed_leaves`` each leaf production also types its terminal, so a
    declared type on that terminal reaches the tree's type system.
    """
    rng = random.Random(seed * 6151)
    types = rng.sample(["Int", "Str", "Bool"], k=rng.randint(2, 3))
    e = nonterminal("E")
    productions: list[Production] = []
    for t in types:
        for i in range(rng.randint(1, 2)):
            atoms = (TypeAtom(t),) if typed_leaves else ()
            productions.append(
                Production(e, (terminal(f"{t.lower()}{i}"),), TypeAtom(t), atoms)
            )
    names = ["plus", "eq", "cmp", "cat", "app"]
    # a draw of its own, so that every other draw stays what the seed gave
    if random.Random(seed * 389).random() < 1 / 3:
        names[0] = "E"
    ops = iter(names)
    for _ in range(rng.randint(2, 4)):
        op = terminal(next(ops))
        arity = rng.randint(1, 2)
        var = TypeAtom("s")
        use_var = arity == 2 and rng.random() < 0.6

        def slot_atom() -> TypeAtom:
            return var if use_var else TypeAtom(rng.choice(types))

        if arity == 1:
            rhs: tuple[Symbol, ...] = (op, e)
            atoms: tuple[TypeAtom | None, ...] = (None, slot_atom())
        else:
            rhs = (e, op, e)
            atoms = (slot_atom(), None, slot_atom())
        if use_var and rng.random() < 0.5:
            result: TypeAtom = var
        else:
            result = TypeAtom(rng.choice(types))
        productions.append(Production(e, rhs, result, atoms))
    return Grammar(tuple(productions), e)


# --------------------------------------------------------------------------
# rule-set compositions

def top_down_set(g: Grammar) -> RuleSet:
    rules = list(derive_top_down_rules(g))
    rules += list(derive_creation_rules(g, [CreationMode.ROOT]))
    return RuleSet(rules)


def full_set(g: Grammar) -> RuleSet:
    rules = list(derive_top_down_rules(g))
    rules += list(derive_bottom_up_rules(g))
    rules += list(derive_creation_rules(g, [CreationMode.ROOT, CreationMode.LEAF]))
    return RuleSet(rules)


def spine_set(g: Grammar, seed_terminal: Symbol) -> RuleSet:
    """Top-down rules plus the bottom-up rules that ascend through the last
    non-terminal of each right-hand side, seeded from one terminal only.

    Anchors with a non-terminal to their right are dropped, as are terminal
    anchors other than the seed, so every derivation climbs a single spine.
    """
    rules = list(derive_top_down_rules(g))
    for rule in derive_bottom_up_rules(g):
        if rule.key.startswith("fin:"):
            rules.append(rule)
            continue
        children = rule.replacement.children
        anchor_idx = next(i for i, c in enumerate(children) if c.anchor)
        anchor = children[anchor_idx]
        if any(not c.symbol.is_terminal for c in children[anchor_idx + 1:]):
            continue
        if anchor.symbol.is_terminal and anchor.symbol != seed_terminal:
            continue
        rules.append(rule)
    for rule in derive_creation_rules(g, [CreationMode.LEAF]):
        if rule.key == f"make-leaf:{seed_terminal.name}":
            rules.append(rule)
    return RuleSet(rules)


def with_overloads(rs: RuleSet, seed: int) -> RuleSet:
    """``rs`` plus, for about half of its rules with a typed slot, a twin that
    differs only in the type constants of its schema (key suffixed ``'``),
    placed just before or just after the rule in its group.

    A tree then has derivations that differ only in slot types, as the
    condition rules compiled from corpus templates do, and whether the first
    of them survives typing is up to the types.
    """
    rng = random.Random(seed * 7919)
    types = sorted(
        {a.name for r in rs for _, a in r.schema if not a.is_schema_var}
    )
    rules: list = []
    for rule in rs:
        twin = None
        if rng.random() < 0.5:
            schema = tuple(
                (pos, a if a.is_schema_var else TypeAtom(rng.choice(types)))
                for pos, a in rule.schema
            )
            if schema != rule.schema:
                twin = replace(rule, key=rule.key + "'", schema=schema)
        if twin is None:
            rules.append(rule)
        elif rng.random() < 0.5:
            rules += [twin, rule]
        else:
            rules += [rule, twin]
    return RuleSet(rules)


def random_rule_weights(rs: RuleSet, seed: int) -> dict[tuple[str, str], float]:
    """A positive weight for every (parent key, rule key) pair."""
    rng = random.Random(seed * 4099)
    parents = [""] + [r.key for r in rs]
    return {
        (parent, r.key): rng.uniform(0.1, 0.9) for parent in parents for r in rs
    }
