"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import os
import random
import time

import pytest

from explainrank.cli import main
from explainrank.corpus import CENTRAL, load_corpus
from explainrank.dataprep import PrepConfig, REGRESSION, build_dataset
from explainrank.errors import DataError
from explainrank.evaluation import evaluate_rankings
from explainrank.rerank import RerankConfig, depth_sweep, rerank_all
from explainrank.scorer import all_rankings, load_scores, score_lexical, write_scores
from explainrank.textsim import default_provider

from synth import chain_corpus, random_corpus, write_corpus_files
from test_evaluation import brute_force_ap, one_question_ap
from test_rerank import (
    PINNED_EXPECTED,
    PINNED_QA,
    PINNED_REL,
    PINNED_VECTORS,
    brute_force_rerank,
    pinned_instance,
    random_instance,
    rerank,
)


def _pass(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_ap_oracle_equivalence():
    """The AP of one ranking (the MAP of a one-question corpus) matches a
    brute-force position scan on 200 randomized instances (<= 12 facts,
    <= 5 relevant) within 1e-12, in under a second."""
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 12)
        ranked = [f"u{i}" for i in range(n)]
        rng.shuffle(ranked)
        relevant = set(rng.sample(ranked, rng.randint(1, min(5, n))))
        got = one_question_ap(ranked, relevant)
        want = brute_force_ap(ranked, relevant)
        assert abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _pass("AP/MAP oracle equivalence")


def test_rerank_identity_at_depth_one():
    """Depth-1 re-ranking of a 50 x 200 TF-IDF-scored corpus is byte-identical
    to the initial ranking, in under five seconds."""
    started = time.perf_counter()
    corpus = random_corpus(n_questions=50, n_facts=200, seed=102, gold_range=(1, 5))
    provider = default_provider(corpus)
    table = score_lexical(corpus, provider)
    initial = all_rankings(table)
    reranked, _ = rerank_all(corpus, provider, table, RerankConfig(depth=1))
    assert list(reranked.items()) == list(initial.items())
    payloads = []
    for rankings in (initial, reranked):
        lines = [f"{qid}\t{uid}" for qid, uids in rankings.items() for uid in uids]
        payloads.append(("\n".join(lines) + "\n").encode("utf-8"))
    assert payloads[0] == payloads[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _pass("re-rank identity at depth 1")


def test_rerank_matches_pinned_oracle():
    """The pinned 5-fact instance re-ranked at depth 3 matches the independent
    step-by-step simulation exactly."""
    inst = pinned_instance()
    out, _ = rerank(inst, depth=3)
    oracle = brute_force_rerank(inst.initial, PINNED_REL, PINNED_VECTORS, PINNED_QA, 3)
    assert out == oracle == PINNED_EXPECTED
    _pass("re-rank oracle (5-fact instance, depth 3)")


def test_rerank_invariants_randomized():
    """Permutation, prefix-stability, tail-stability, and relevance-scale
    argmax-invariance on 100 randomized instances."""
    rng = random.Random(103)
    for _ in range(100):
        inst = random_instance(rng)
        initial = inst.initial
        depth = rng.randint(1, len(initial) + 3)
        out, _ = rerank(inst, depth)
        assert sorted(out) == sorted(initial)
        assert out[0] == initial[0]
        selected = set(out[: min(depth, len(initial))])
        assert [u for u in initial if u not in selected] == [u for u in out if u not in selected]
        again, _ = rerank(inst, depth, rel=4.0 * inst.rel)
        assert again == out
    _pass("re-rank invariants (100 randomized instances)")


def test_dataset_balance_and_exclusion():
    """Across 50 randomized synthetic questions: positives equal negatives
    exactly and no negative candidate is a gold fact."""
    corpus = random_corpus(n_questions=50, n_facts=120, seed=104, gold_range=(1, 5))
    provider = default_provider(corpus)
    uid_by_text = {fact.text: uid for uid, fact in corpus.facts.items()}
    by_qid = {q.qid: q for q in corpus.questions}
    for cfg in (PrepConfig(k=4), PrepConfig(k=3, m=2, with_context=True, seed=9)):
        data = build_dataset(corpus, provider, cfg)
        positives = sum(1 for label in data.labels if label > 0)
        assert positives * 2 == len(data)
        for qid, candidate, label in zip(data.qids, data.candidates, data.labels):
            if label == 0:
                assert uid_by_text[candidate] not in by_qid[qid].gold_uid_set
    _pass("dataset balance and gold exclusion")


def test_regression_target_mapping():
    """Regression datasets only contain targets in {6, 5, 4, 0}; every fact
    annotated with the core role maps to 6."""
    corpus = random_corpus(n_questions=30, n_facts=100, seed=105, gold_range=(1, 4))
    provider = default_provider(corpus)
    data = build_dataset(corpus, provider, PrepConfig(k=3, task=REGRESSION))
    assert set(data.labels) <= {6.0, 5.0, 4.0, 0.0}
    central = [label for label, role in zip(data.labels, data.roles) if role == CENTRAL]
    assert central
    assert all(label == 6.0 for label in central)
    _pass("regression target mapping")


def test_full_pipeline_determinism(tmp_path):
    """Two prepare -> rank -> rerank(depth 15) -> evaluate runs with the same
    seed produce byte-identical artifacts."""
    corpus = random_corpus(n_questions=15, n_facts=60, seed=106, gold_range=(1, 4))
    facts, questions = write_corpus_files(corpus, tmp_path / "data")
    run_dirs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        base = ["--facts", *map(str, facts), "--questions", str(questions)]
        assert main(["prepare", *base, "--seed", "13", "--task", "all", "--k", "2", "--m", "2",
                     "--out", str(out)]) == 0
        assert main(["rank", *base, "--out", str(out)]) == 0
        assert main(["rerank", *base, "--scores", str(out / "scores.tsv"),
                     "--depth", "15", "--trace", "--out", str(out)]) == 0
        assert main(["evaluate", *base,
                     "--predictions", str(out / "reranked_predictions.tsv"),
                     "--out", str(out)]) == 0
        run_dirs.append(out)
    first, second = run_dirs
    produced = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert produced, "pipeline produced no artifacts"
    for rel_path in produced:
        assert (first / rel_path).read_bytes() == (second / rel_path).read_bytes(), rel_path
    _pass(f"full pipeline determinism ({len(produced)} artifacts)")


def test_directional_multihop_improvement():
    """On the token-chained multi-hop corpus, re-ranking at depth 10 beats the
    initial TF-IDF ranking."""
    corpus = chain_corpus(n_questions=20)
    provider = default_provider(corpus)
    table = score_lexical(corpus, provider)
    initial_map = evaluate_rankings(all_rankings(table), corpus).map_overall
    reranked, _ = rerank_all(corpus, provider, table, RerankConfig(depth=10))
    reranked_map = evaluate_rankings(reranked, corpus).map_overall
    assert initial_map < reranked_map, (initial_map, reranked_map)
    _pass(
        "directional multi-hop improvement "
        f"(MAP {initial_map:.4f} -> {reranked_map:.4f} at depth 10)"
    )


def test_external_scores_depth_sweep_structure(tmp_path):
    """Externally supplied scores drive the full depth-sweep grid; the depth-1
    row equals the un-reranked MAP to 1e-9. The published MAP figures need the
    original externally trained relevance scores and are reference numbers
    only; this checks the structure that would reproduce them."""
    corpus = random_corpus(n_questions=12, n_facts=50, seed=107, gold_range=(1, 4))
    provider = default_provider(corpus)
    # stand-in for an externally trained relevance learner: a different
    # lexical method written to the interchange format and loaded back
    external_path = tmp_path / "external_scores.tsv"
    write_scores(score_lexical(corpus, provider, "overlap"), external_path)
    table = load_scores(external_path, corpus)

    no_rerank_map = evaluate_rankings(all_rankings(table), corpus).map_overall
    rows = depth_sweep(corpus, provider, table, (1, 3, 5, 10, 15, 20, 30))
    assert [depth for depth, _ in rows] == [1, 3, 5, 10, 15, 20, 30]
    assert abs(rows[0][1] - no_rerank_map) <= 1e-9

    facts, questions = write_corpus_files(corpus, tmp_path / "data")
    out = tmp_path / "sweep_out"
    code = main([
        "evaluate",
        "--facts", *map(str, facts),
        "--questions", str(questions),
        "--scores", str(external_path),
        "--sweep", "1,3,5,10,15,20,30",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "depth_sweep.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "depth\tmap"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["1", "3", "5", "10", "15", "20", "30"]
    _pass("external-scores depth sweep structure")


@pytest.mark.skipif(
    not (os.environ.get("EXPLAINRANK_FACTS") and os.environ.get("EXPLAINRANK_QUESTIONS")),
    reason="real dataset not supplied (set EXPLAINRANK_FACTS and EXPLAINRANK_QUESTIONS)",
)
def test_map_shape_by_gold_length_real_data():
    """On real data, MAP for short gold explanations (length <= 2) exceeds MAP
    for long ones (length >= 8); directional only."""
    fact_paths = os.environ["EXPLAINRANK_FACTS"].split(",")
    corpus = load_corpus(fact_paths, os.environ["EXPLAINRANK_QUESTIONS"])
    provider = default_provider(corpus)
    table = score_lexical(corpus, provider)
    buckets = evaluate_rankings(all_rankings(table), corpus).per_length

    def weighted(sizes):
        rows = [(count, value) for size, (count, value) in buckets.items() if size in sizes]
        total = sum(count for count, _ in rows)
        if not total:
            raise DataError(f"no questions with gold size in {sizes}")
        return sum(count * value for count, value in rows) / total

    short = weighted(range(1, 3))
    long = weighted(range(8, 17))
    assert short > long, (short, long)
    _pass(f"MAP shape by gold length (short {short:.4f} > long {long:.4f})")
