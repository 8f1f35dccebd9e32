"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and pins its own tolerances.  Brute-force
oracles here are written against the grammar semantics directly, never
through the engine's own constraint or bound machinery, so the two routes
stay independent.
"""

import heapq
import random
import time
from itertools import islice
from math import inf
from types import SimpleNamespace

import numpy as np
import pytest

from gramgen import (
    count_programs,
    full_set,
    random_dag_grammar,
    random_recursive_grammar,
    random_rule_weights,
    random_typed_grammar,
    spine_set,
    top_down_set,
)
from progest.ambiguity import check_unambiguous, enumerate_complete_trees
from progest.cli import main as cli_main
from progest.condsynth import (
    build_cond_ruleset,
    evaluate_topk,
    record_tree,
    synthesize_condition,
    train_cond_models,
)
from progest.constraints import SearchStep, compute_size_bounds, feasible_rules
from progest.datagen import generate_corpus, write_corpus
from progest.errors import UnderivableTreeError
from progest.features import pca_apply, pca_fit
from progest.minilang import join_tokens, parse_condition, tokens_with_vars
from progest.grammar import (
    Annotation,
    RewritingRule,
    RuleTree,
)
from progest.models import TableModel, program_log_probability
from progest.search import beam_search
from progest.trees import (
    AnnotatedAst,
    apply_rule,
    is_complete,
    policy_leftmost,
    render,
    to_sexpr,
)
from tests_support import (
    criterion_06_rule_sets,
    make_hash_policy,
    reference_exhaustive_search,
    untyped_derivations,
)


def test_criterion_01_worked_example_and_greedy_flip(worked_example):
    started = time.monotonic()
    wide = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(2,), k=2, size_limit=9, anti_patterns=(),
    )
    assert [c.rendered for c in wide.candidates] == ["hours > 12", "value > 0"]
    assert wide.candidates[0].prob == pytest.approx(0.24, abs=1e-12)
    assert wide.candidates[1].prob == pytest.approx(0.12, abs=1e-12)

    greedy = beam_search(
        worked_example.rules, None, worked_example.model,
        widths=(1,), k=2, size_limit=9, anti_patterns=(),
    )
    assert greedy.candidates[0].rendered == "value > 0"
    assert greedy.candidates[0].prob == pytest.approx(0.12, abs=1e-12)
    assert time.monotonic() - started < 1.0


def _derivable_pool(g, rs, bound, cap=60):
    pool = []
    for tree in islice(enumerate_complete_trees(g, bound), 3000):
        try:
            next(untyped_derivations(tree, rs, policy_leftmost))
        except UnderivableTreeError:
            continue
        pool.append(tree)
        if len(pool) >= cap:
            break
    return pool


def _order_invariance_rule_set(g, want_spine):
    """A certified-unambiguous rule set plus ten derivable sample trees."""
    if want_spine:
        for term in sorted(g.terminals, key=lambda s: s.name):
            rs = spine_set(g, term)
            pool = _derivable_pool(g, rs, 7)
            if len(pool) >= 10 and check_unambiguous(rs, g, max_nodes=7).unambiguous:
                return rs, pool
    rs = top_down_set(g)
    pool = _derivable_pool(g, rs, 7)
    if len(pool) < 10:
        pool = _derivable_pool(g, rs, 9)
    assert check_unambiguous(rs, g, max_nodes=7).unambiguous
    return rs, pool


def test_criterion_02_order_invariant_probabilities():
    started = time.monotonic()
    scored = 0
    for i in range(20):
        seed = 200 + i
        g = random_recursive_grammar(seed)
        rs, pool = _order_invariance_rule_set(g, want_spine=i % 2 == 1)
        assert pool
        rng = random.Random(777_000 + seed)
        picks = (
            rng.sample(pool, 10) if len(pool) >= 10 else rng.choices(pool, k=10)
        )
        model = TableModel(random_rule_weights(rs, seed))
        policies = [make_hash_policy(8_100 + 17 * i + j) for j in range(10)]
        for tree in picks:
            values = [
                program_log_probability(tree, rs, model, None, policy=p)
                for p in policies
            ]
            assert all(v > -inf for v in values)
            assert max(values) - min(values) < 1e-9
            scored += 1
    assert scored == 200
    assert time.monotonic() - started < 30.0


def test_criterion_03_saturated_beam_equals_exhaustive():
    started = time.monotonic()
    for i in range(20):
        g = random_dag_grammar(300 + i)
        assert 20 <= count_programs(g) <= 1000
        rs = top_down_set(g)
        model = TableModel(random_rule_weights(rs, 300 + i))
        beam = beam_search(
            rs, None, model,
            widths=(1100,), k=10, size_limit=None, anti_patterns=(),
        )
        full = reference_exhaustive_search(rs, None, model=model)
        top = full.candidates[:10]
        assert [c.rendered for c in beam.candidates] == [c.rendered for c in top]
        for ours, ref in zip(beam.candidates, top):
            assert ours.log_prob == pytest.approx(ref.log_prob, abs=1e-9)
    assert time.monotonic() - started < 60.0


def _production_of(g, ast, nid):
    node = ast.nodes[nid]
    rhs = tuple(ast.nodes[c].symbol for c in node.children)
    for p in g.productions_for(node.symbol):
        if p.rhs == rhs:
            return p
    raise AssertionError(f"no production builds {to_sexpr(ast)} at node {nid}")


def _well_typed(ast, g, result_type):
    """Grammar-level type check of a finished tree: per production, concrete
    atoms pin node types and shared schema variables force equalities; the
    system is consistent when no equality class holds two distinct types."""
    parent = {nid: nid for nid in ast.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pins = [(ast.root, result_type)] if result_type is not None else []
    for nid in ast.preorder():
        node = ast.nodes[nid]
        if node.symbol.is_terminal or not node.children:
            continue
        p = _production_of(g, ast, nid)
        groups: dict[str, list[int]] = {}

        def note(atom, target):
            if atom is None:
                return
            if atom.is_schema_var:
                groups.setdefault(atom.name, []).append(target)
            else:
                pins.append((target, atom.name))

        note(p.result_atom, nid)
        rhs_atoms = p.rhs_atoms or (None,) * len(node.children)
        for child, atom in zip(node.children, rhs_atoms):
            note(atom, child)
        for members in groups.values():
            for a, b in zip(members, members[1:]):
                parent[find(a)] = find(b)

    assigned: dict[int, set[str]] = {}
    for nid, type_name in pins:
        assigned.setdefault(find(nid), set()).add(type_name)
    return all(len(types) <= 1 for types in assigned.values())


def _completions(ast, rs, cap):
    if is_complete(ast):
        yield ast
        return
    nid, direction = policy_leftmost(ast)
    for rule in rs.group((ast.nodes[nid].symbol, direction)):
        grown = apply_rule(ast, nid, rule)
        if len(grown.nodes) <= cap:
            yield from _completions(grown, rs, cap)


def _has_typed_completion(ast, target, rule, rs, g, result_type, cap):
    applied = apply_rule(ast, target, rule)
    if len(applied.nodes) > cap:
        return False
    return any(
        _well_typed(t, g, result_type) for t in _completions(applied, rs, cap)
    )


def test_criterion_04_pruning_matches_brute_force():
    started = time.monotonic()
    kept_total = 0
    pruned_total = 0
    constraint_pruned_total = 0
    for i in range(10):
        seed = 400 + i
        g = random_typed_grammar(seed)
        rs = top_down_set(g)
        concrete = sorted(
            p.result_atom.name
            for p in g.productions
            if p.result_atom is not None and not p.result_atom.is_schema_var
        )
        rng = random.Random(seed)
        result_type = rng.choice(concrete)
        step = SearchStep(
            rs, SimpleNamespace(variable_types={}, result_type=result_type), 7
        )

        state, ast = None, AnnotatedAst.empty()
        for _ in range(3):
            if ast.is_empty:
                target = None
                candidates = list(rs.group(None))
            else:
                if is_complete(ast):
                    break
                target, direction = policy_leftmost(ast)
                candidates = list(
                    rs.group((ast.nodes[target].symbol, direction))
                )
            outcome = feasible_rules(state, step, policy_leftmost)
            kept_keys = {p.rule.key for p in outcome.kept}
            for rule in candidates:
                expected = _has_typed_completion(
                    ast, target, rule, rs, g, result_type, cap=7
                )
                assert (rule.key in kept_keys) == expected, (
                    f"seed {seed}: {rule.key} on {to_sexpr(ast) if not ast.is_empty else '<empty>'}"
                )
            kept_total += len(outcome.kept)
            pruned_total += len(candidates) - len(outcome.kept)
            constraint_pruned_total += outcome.constraint_pruned
            if not outcome.kept:
                break
            state = rng.choice(outcome.kept)
            ast = state.ast
    assert kept_total > 0
    assert pruned_total > 0
    assert constraint_pruned_total > 0
    assert time.monotonic() - started < 60.0


def _brute_min_completion(rs, symbol, mark, cap=12):
    """Uniform-cost search over leftmost-policy expansions; node count is the
    cost, so the first finished tree popped is minimal."""
    seed = RewritingRule(None, RuleTree(symbol, mark), key="seed:probe")
    start = apply_rule(AnnotatedAst.empty(), None, seed)
    counter = 0
    heap = [(len(start.nodes), counter, start)]
    seen = set()
    while heap:
        size, _, ast = heapq.heappop(heap)
        if is_complete(ast):
            return size
        key = to_sexpr(ast)
        if key in seen:
            continue
        seen.add(key)
        nid, direction = policy_leftmost(ast)
        for rule in rs.group((ast.nodes[nid].symbol, direction)):
            grown = apply_rule(ast, nid, rule)
            if len(grown.nodes) <= cap:
                counter += 1
                heapq.heappush(heap, (len(grown.nodes), counter, grown))
    return None


def test_criterion_05_size_bound_fixpoint_matches_search():
    saw_infinite = False
    for i in range(20):
        g = random_recursive_grammar(500 + i, with_dead=i % 4 == 0)
        rs = full_set(g)
        bounds = compute_size_bounds(rs)
        probes = [(nt, Annotation.D, bounds.down) for nt in g.nonterminals]
        probes += [(nt, Annotation.U, bounds.up) for nt in g.nonterminals]
        probes += [(t, Annotation.U, bounds.up) for t in g.terminals]
        for symbol, mark, table in probes:
            claimed = table.get(symbol.name, inf)
            found = _brute_min_completion(rs, symbol, mark)
            if found is not None:
                assert claimed == found, (i, symbol.name, mark, claimed, found)
            else:
                assert claimed > 12, (i, symbol.name, mark, claimed)
            if claimed == inf:
                saw_infinite = True
        if i % 4 == 0:
            assert bounds.down.get("DEAD", inf) == inf
    assert saw_infinite


def test_criterion_06_stated_rule_sets_and_witness(demo_grammar):
    # first set: top-down expansion seeded at the root; second set: both
    # directions, minus the one climb that ascends through the left slot of
    # the two-operand production, seeded at one leaf token
    rs1, rs2 = criterion_06_rule_sets(demo_grammar)
    report1 = check_unambiguous(rs1, demo_grammar, max_nodes=9)
    assert report1.unambiguous
    assert report1.trees_checked == 58
    assert report1.underivable_trees == 0

    report2 = check_unambiguous(rs2, demo_grammar, max_nodes=9)
    assert report2.unambiguous
    assert report2.trees_checked == 58
    assert report2.underivable_trees > 0

    # everything at once is ambiguous, and the witness replays
    rs3 = full_set(demo_grammar)
    report3 = check_unambiguous(rs3, demo_grammar, max_nodes=9)
    assert not report3.unambiguous
    witness = report3.witness
    assert witness is not None

    def replay(applications):
        ast = AnnotatedAst.empty()
        for app in applications:
            ast = apply_rule(ast, app.node, rs3[app.rule])
        return ast

    tree_a = replay(witness.derivation_a)
    tree_b = replay(witness.derivation_b)
    assert is_complete(tree_a) and is_complete(tree_b)
    assert to_sexpr(tree_a) == to_sexpr(tree_b) == to_sexpr(witness.tree)
    assert render(tree_a) == witness.rendered
    keys_a = sorted(rs3[app.rule].key for app in witness.derivation_a)
    keys_b = sorted(rs3[app.rule].key for app in witness.derivation_b)
    assert keys_a != keys_b


def test_criterion_07_desk_scale_ranking_quality(corpus_records):
    started = time.monotonic()
    assert len(corpus_records) >= 500

    reports = {
        kind: evaluate_topk(
            corpus_records, model_kind=kind, seed=0, repeats=2, k=50
        )
        for kind in ("frequency", "uniform", "logistic")
    }
    frozen = {
        "frequency": {1: 0.1271, 10: 0.6441, 50: 0.9068},
        "uniform": {1: 0.0763, 10: 0.4492, 50: 0.7373},
        "logistic": {1: 0.2881, 10: 0.7203, 50: 0.9915},
    }
    for kind, report in reports.items():
        assert set(report.precision) == {1, 10, 50}
        # (a) larger cutoffs can only help
        assert report.precision[1] <= report.precision[10] <= report.precision[50]
        for cutoff, expected in frozen[kind].items():
            assert report.precision[cutoff] == pytest.approx(expected, abs=5e-5), (
                kind, cutoff
            )
    # (b) learned frequencies beat the uninformed baseline outright
    assert reports["frequency"].precision[10] > reports["uniform"].precision[10]
    # (c) the feature-driven model stays within five points of frequency
    assert (
        reports["logistic"].precision[10]
        >= reports["frequency"].precision[10] - 0.05
    )
    assert time.monotonic() - started < 300.0


def test_criterion_08_extraction_audit_over_full_corpus(corpus_records):
    trained = train_cond_models(corpus_records, model_kind="frequency")
    extraction = trained.extraction
    assert extraction is not None
    assert extraction.skipped == []

    cursor = 0
    for audit in extraction.steps_audited:
        batch = extraction.instances[cursor:cursor + audit.feasible]
        cursor += audit.feasible
        assert len(batch) == audit.feasible
        positives = [inst for inst in batch if inst.polarity]
        assert len(positives) == 1
        assert positives[0].label == audit.applied_key
        assert sum(1 for inst in batch if not inst.polarity) == audit.feasible - 1
        assert all(inst.group == audit.group for inst in batch)
        assert all(inst.parent == audit.parent for inst in batch)
    assert cursor == len(extraction.instances)
    assert {a.item for a in extraction.steps_audited} == set(
        range(len(corpus_records))
    )


def test_criterion_09_training_and_prediction_are_deterministic(
    tmp_path, capsys, data_dir
):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(str(corpus), generate_corpus(60, seed=11))
    for kind in ("frequency", "logistic"):
        first = tmp_path / f"{kind}-a.json"
        second = tmp_path / f"{kind}-b.json"
        for path in (first, second):
            assert cli_main(
                ["train", "--corpus", str(corpus), "--bundle", str(path),
                 "--model", kind]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()

    argv = [
        "predict", str(data_dir / "demo" / "demo_context.json"),
        "--bundle", str(data_dir / "demo" / "demo_bundle.json"),
    ]
    assert cli_main(argv) == 0
    first_out = capsys.readouterr().out
    assert cli_main(argv) == 0
    second_out = capsys.readouterr().out
    assert first_out
    assert first_out == second_out


def test_criterion_10_pca_against_dense_eigendecomposition():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 30))
    transform = pca_fit(list(data), dims=20)
    kept = transform.components.shape[0]
    assert transform.dims == 20
    assert kept <= 20

    gram = transform.components @ transform.components.T
    assert np.allclose(gram, np.eye(kept), atol=1e-6)

    centered = data - transform.mean
    covariance = (centered.T @ centered) / len(data)
    reference = np.linalg.eigh(covariance)[0][::-1][:kept]
    captured = (centered @ transform.components.T) ** 2
    assert np.allclose(captured.mean(axis=0), reference, atol=1e-6)

    assert pca_apply(transform, data[0]).shape == (20,)
    degenerate = pca_fit(list(data[:5]), dims=20)
    assert degenerate.components.shape[0] <= 5


def test_criterion_11_one_tree_one_probability(corpus_records):
    """The scorer gives every corpus atom a probability, and a found atom
    the probability the search gave it."""
    started = time.monotonic()
    trained = train_cond_models(corpus_records, model_kind="frequency")
    found = 0
    for record in corpus_records:
        rs = build_cond_ruleset(trained.templates, record.context)
        score = program_log_probability(
            record_tree(record), rs, trained.model, record.context, size_limit=30
        )
        assert score > -inf, record.id
        target = join_tokens(
            [t for t, _ in tokens_with_vars(parse_condition(record.condition))]
        )
        result = synthesize_condition(
            record.context, trained.templates, trained.model, k=50
        )
        for cand in result.candidates:
            if cand.rendered == target:
                assert score == pytest.approx(cand.log_prob, abs=1e-9), record.id
                found += 1
                break
    assert found > len(corpus_records) // 2
    assert time.monotonic() - started < 120.0
