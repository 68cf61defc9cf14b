import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from explainrank.errors import DataError
from explainrank.rerank import RerankConfig, depth_sweep, iterative_rerank, rerank_all
from explainrank.scorer import RelevanceTable, score_lexical, uid_ranks
from explainrank.textsim import Rows, default_provider, dense_rows

from synth import random_corpus


def brute_force_rerank(order, rel, vectors, qa, depth):
    """Independent step-by-step simulation of the re-ranking rules using plain
    lists and math, structured nothing like the library implementation."""

    def cos(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        return dot / (na * nb) if na and nb else 0.0

    index = {uid: i for i, uid in enumerate(order)}
    selected = [order[0]]
    while len(selected) < min(depth, len(order)):
        bound = min(depth + len(selected), len(order) - 1)
        window = [uid for uid in order[: bound + 1] if uid not in selected]

        def score(uid):
            num = sum(rel[s] * cos(vectors[uid], vectors[s]) for s in selected)
            den = sum(rel[s] for s in selected)
            return (num / den) * cos(vectors[uid], qa)

        best = min(window, key=lambda uid: (-score(uid), index[uid], uid))
        selected.append(best)
    return selected + [uid for uid in order if uid not in selected]


# Pinned 5-fact instance; expected order derived with brute_force_rerank and
# checked by hand round by round.
PINNED_VECTORS = {
    "f1": [1.0, 0.0, 0.0],
    "f2": [0.8, 0.6, 0.0],
    "f3": [0.0, 1.0, 0.0],
    "f4": [0.6, 0.0, 0.8],
    "f5": [math.sqrt(0.5), math.sqrt(0.5), 0.0],
}
PINNED_QA = [1.0, 0.0, 0.0]
PINNED_REL = {"f1": 1.0, "f2": 0.9, "f3": 0.8, "f4": 0.7, "f5": 0.6}
PINNED_EXPECTED = ["f1", "f2", "f5", "f3", "f4"]


@dataclass
class Instance:
    """One question's re-ranking input: facts with dense vectors and raw
    relevance weights, initially ranked by weight, ties by uid."""

    uids: list[str]
    rows: Rows
    rel: np.ndarray
    qa: list[float]

    @property
    def order(self) -> np.ndarray:
        return np.lexsort((uid_ranks(self.uids), -self.rel))

    @property
    def initial(self) -> list[str]:
        return [self.uids[i] for i in self.order]

    @property
    def rel_map(self) -> dict[str, float]:
        return dict(zip(self.uids, self.rel.tolist()))

    @property
    def raw(self) -> dict[str, list[float]]:
        return {uid: values.tolist() for uid, values in zip(self.uids, self.rows.values)}


def make_instance(vectors: dict[str, list[float]], rel: dict[str, float], qa) -> Instance:
    uids = list(vectors)
    return Instance(uids, dense_rows([vectors[u] for u in uids]), np.array([rel[u] for u in uids]), qa)


def rerank(inst: Instance, depth: int, rel: np.ndarray | None = None):
    """Re-rank an instance the way rerank_all does one question: the initial
    order's first 2 * depth facts with their weights and Q/A similarities."""
    rel = inst.rel if rel is None else rel
    order = inst.order
    top = order[: 2 * depth]
    qa_sims = inst.rows.cosines(0, dense_rows([inst.qa]), among=top)
    new_order, rounds = iterative_rerank(
        order, rel[top], qa_sims, inst.rows, inst.uids, RerankConfig(depth=depth), want_trace=True
    )
    return [inst.uids[i] for i in new_order], rounds


def pinned_instance() -> Instance:
    return make_instance(PINNED_VECTORS, PINNED_REL, PINNED_QA)


def random_instance(rng, n_facts=None) -> Instance:
    n = n_facts if n_facts is not None else rng.randint(2, 25)
    dim = rng.randint(2, 5)
    vectors = {f"f{i:02d}": [rng.uniform(-1.0, 2.0) for _ in range(dim)] for i in range(n)}
    qa = [rng.uniform(-1.0, 2.0) for _ in range(dim)]
    rel = {uid: rng.uniform(0.05, 1.0) for uid in vectors}
    return make_instance(vectors, rel, qa)


def first_round(vectors, rel, qa, depth):
    """Candidates of round 1 by uid."""
    _, rounds = rerank(make_instance(vectors, rel, qa), depth)
    return {c.uid: c for c in rounds[0].candidates}


def convex_check(inst: Instance, depth: int) -> int:
    """Every candidate's weighted relevance lies within the [min, max] of its
    similarities to the facts selected before its round; returns the number
    of candidates checked."""
    selected = [inst.initial[0]]
    _, rounds = rerank(inst, depth)
    vectors = dict(zip(inst.uids, inst.rows.values))
    checked = 0
    for rnd in rounds:
        for c in rnd.candidates:
            sims = [
                float(np.dot(vectors[c.uid], vectors[s]))
                / (np.linalg.norm(vectors[c.uid]) * np.linalg.norm(vectors[s]))
                for s in selected
            ]
            assert min(sims) - 1e-12 <= c.weighted_rel <= max(sims) + 1e-12
            checked += 1
        selected.append(rnd.selected)
    return checked


class TestWeightedRelevance:
    """The weighted relevance each trace candidate carries: the weighted mean
    of its similarities to the selected facts."""

    def test_single_selected_equals_similarity(self):
        expected = 1.0 / math.sqrt(2)
        for rel in (0.001, 0.4, 1.0, 250.0):
            by_uid = first_round(
                {"anchor": [1.0, 0.0], "cand": [1.0, 1.0]},
                {"anchor": rel, "cand": rel / 2},
                [1.0, 0.0],
                depth=2,
            )
            assert by_uid["cand"].weighted_rel == pytest.approx(expected, abs=1e-12)

    def test_equal_similarities_collapse(self):
        # every fact points the same way (cosine 1 regardless of length), so
        # every candidate of every round has weighted relevance 1
        inst = make_instance(
            {"a": [2.0, 0.0], "b": [1.0, 0.0], "c": [5.0, 0.0], "d": [0.5, 0.0]},
            {"a": 0.9, "b": 0.1, "c": 0.5, "d": 0.05},
            [1.0, 0.0],
        )
        _, rounds = rerank(inst, depth=4)
        assert len(rounds) == 3
        for rnd in rounds:
            for c in rnd.candidates:
                assert c.weighted_rel == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # rel [0.8, 0.2], sims [0.5, 1.0] -> (0.8*0.5 + 0.2*1.0) / 1.0 = 0.6;
        # "aligned" wins round 1 over "cand" on its better initial rank
        inst = make_instance(
            {"half": [1.0, math.sqrt(3)], "aligned": [3.0, 0.0], "cand": [1.0, 0.0]},
            {"half": 0.8, "aligned": 0.2, "cand": 0.1},
            [1.0, 0.0],
        )
        _, rounds = rerank(inst, depth=3)
        assert [rnd.selected for rnd in rounds] == ["aligned", "cand"]
        (cand,) = rounds[1].candidates
        assert cand.weighted_rel == pytest.approx(0.6, abs=1e-12)

    def test_convex_bound(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(100):
            inst = random_instance(rng)
            checked += convex_check(inst, rng.randint(2, 8))
        assert checked > 100

    def test_empty_selected_rejected(self):
        # the anchor is always selected, so a weighted relevance is never an
        # empty mean: a one-fact ranking has no round at any depth
        inst = make_instance({"only": [1.0]}, {"only": 0.5}, [1.0])
        out, rounds = rerank(inst, depth=5)
        assert out == ["only"]
        assert rounds == ()

    def test_nonpositive_weights_rejected(self):
        inst = make_instance({"a": [1.0, 0.0], "b": [1.0, 0.0]}, {"a": 1.0, "b": 0.5}, [1.0, 0.0])
        with pytest.raises(DataError, match="normalize"):
            rerank(inst, depth=2, rel=np.array([0.0, 0.5]))


class TestRerankScore:
    """The round score each trace candidate carries: weighted relevance times
    similarity to the question/answer text."""

    def test_zero_qa_similarity_zeroes_score(self):
        by_uid = first_round(
            {"anchor": [0.0, 2.0], "cand": [0.0, 1.0]},
            {"anchor": 0.7, "cand": 0.3},
            [1.0, 0.0],
            depth=2,
        )
        assert by_uid["cand"].qa_sim == 0.0
        assert by_uid["cand"].score == 0.0

    def test_product(self):
        # W = 0.6 (hand instance above), qa similarity 0.5 -> 0.30
        inst = make_instance(
            {"half": [1.0, math.sqrt(3)], "aligned": [3.0, 0.0], "cand": [1.0, 0.0]},
            {"half": 0.8, "aligned": 0.2, "cand": 0.1},
            [1.0, math.sqrt(3)],
        )
        _, rounds = rerank(inst, depth=3)
        (cand,) = rounds[1].candidates
        assert cand.qa_sim == pytest.approx(0.5, abs=1e-12)
        assert cand.score == pytest.approx(0.3, abs=1e-12)
        assert cand.score == cand.weighted_rel * cand.qa_sim

    def test_identical_everything_scores_one(self):
        vec = [0.3, 0.4]
        inst = make_instance({"a": vec, "b": vec, "c": vec}, {"a": 0.5, "b": 0.2, "c": 0.1}, vec)
        _, rounds = rerank(inst, depth=3)
        for rnd in rounds:
            for c in rnd.candidates:
                assert c.score == pytest.approx(1.0, abs=1e-12)


class TestIterativeRerank:
    def test_depth_one_is_identity(self):
        rng = random.Random(42)
        for _ in range(20):
            inst = random_instance(rng)
            out, rounds = rerank(inst, depth=1)
            assert out == inst.initial
            assert rounds == ()

    def test_pinned_instance_matches_oracle(self):
        inst = pinned_instance()
        out, _ = rerank(inst, depth=3)
        assert out == PINNED_EXPECTED
        oracle = brute_force_rerank(inst.initial, PINNED_REL, PINNED_VECTORS, PINNED_QA, 3)
        assert out == oracle

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(43)
        for _ in range(100):
            inst = random_instance(rng)
            depth = rng.randint(1, len(inst.uids) + 3)
            out, _ = rerank(inst, depth)
            assert out == brute_force_rerank(inst.initial, inst.rel_map, inst.raw, inst.qa, depth)

    def test_permutation(self):
        rng = random.Random(44)
        for _ in range(50):
            inst = random_instance(rng)
            out, _ = rerank(inst, rng.randint(1, len(inst.uids) + 2))
            assert sorted(out) == sorted(inst.uids)

    def test_prefix_stability(self):
        rng = random.Random(45)
        for _ in range(50):
            inst = random_instance(rng)
            out, _ = rerank(inst, rng.randint(1, 20))
            assert out[0] == inst.initial[0]

    def test_tail_stability(self):
        rng = random.Random(46)
        for _ in range(50):
            inst = random_instance(rng)
            depth = rng.randint(1, 8)
            out, _ = rerank(inst, depth)
            selected = set(out[: max(1, min(depth, len(inst.uids)))])
            remaining_in = [uid for uid in inst.initial if uid not in selected]
            remaining_out = [uid for uid in out if uid not in selected]
            assert remaining_in == remaining_out

    def test_relevance_scale_invariance_of_selection(self):
        rng = random.Random(47)
        for _ in range(50):
            inst = random_instance(rng)
            depth = rng.randint(1, len(inst.uids))
            base, _ = rerank(inst, depth)
            for c in (0.25, 2.0, 8.0):  # exact binary scalings
                out, _ = rerank(inst, depth, rel=c * inst.rel)
                assert out == base

    def test_window_excludes_deep_facts(self):
        # depth 2, one selection round: candidates are initial indices 1..3,
        # so a perfect fact parked at index 4 must not move.
        inst = make_instance(
            {
                "f0": [1.0, 0.0],
                "f1": [0.0, 1.0],
                "f2": [0.0, 1.0],
                "f3": [0.0, 1.0],
                "f4": [1.0, 0.0],
            },
            {"f0": 1.0, "f1": 0.9, "f2": 0.8, "f3": 0.7, "f4": 0.6},
            [1.0, 0.0],
        )
        out, _ = rerank(inst, depth=2)
        # all in-window candidates score 0, tie-break keeps initial order
        assert out == ["f0", "f1", "f2", "f3", "f4"]

    def test_window_includes_boundary_index(self):
        # same setup but the perfect fact sits at index 3 = depth + |selected|
        inst = make_instance(
            {
                "f0": [1.0, 0.0],
                "f1": [0.0, 1.0],
                "f2": [0.0, 1.0],
                "f3": [1.0, 0.0],
                "f4": [0.0, 1.0],
            },
            {"f0": 1.0, "f1": 0.9, "f2": 0.8, "f3": 0.7, "f4": 0.6},
            [1.0, 0.0],
        )
        out, _ = rerank(inst, depth=2)
        assert out == ["f0", "f3", "f1", "f2", "f4"]

    def test_depth_beyond_corpus_size(self):
        rng = random.Random(48)
        inst = random_instance(rng, n_facts=4)
        out, _ = rerank(inst, depth=50)
        assert sorted(out) == sorted(inst.uids)

    def test_empty_ranking(self):
        empty = np.array([], dtype=np.intp)
        new_order, rounds = iterative_rerank(
            empty, np.array([]), np.array([]), dense_rows([[1.0]]), [], RerankConfig(depth=5)
        )
        assert new_order.tolist() == []
        assert rounds == ()

    @pytest.mark.parametrize("short", ["weights", "qa_sims"])
    def test_short_inputs_refused(self, short):
        # depth 3 over 9 facts needs 6 entries of each; 5 must not shrink the window
        inst = random_instance(random.Random(49), n_facts=9)
        given = {"weights": inst.rel[inst.order[:6]], "qa_sims": np.ones(6)}
        given[short] = given[short][:5]
        with pytest.raises(ValueError, match=f"^{short} has 5 entries; depth 3 needs 6$"):
            iterative_rerank(
                inst.order, given["weights"], given["qa_sims"], inst.rows, inst.uids, RerankConfig(depth=3)
            )

    def test_config_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            RerankConfig(depth=0)


class TestTrace:
    def test_rounds_bounded_and_distinct(self):
        rng = random.Random(49)
        for _ in range(30):
            inst = random_instance(rng)
            depth = rng.randint(1, len(inst.uids) + 2)
            _, rounds = rerank(inst, depth)
            assert len(rounds) <= depth - 1 if depth > 1 else not rounds
            chosen = [rnd.selected for rnd in rounds]
            assert len(chosen) == len(set(chosen))

    def test_candidates_recorded_with_scores(self):
        _, rounds = rerank(pinned_instance(), depth=3)
        first = rounds[0]
        assert first.selected == "f2"
        by_uid = {c.uid: c for c in first.candidates}
        assert set(by_uid) == {"f2", "f3", "f4", "f5"}
        assert by_uid["f2"].score == pytest.approx(0.64, abs=1e-12)
        assert by_uid["f2"].qa_sim == pytest.approx(0.8, abs=1e-12)

    def test_format_lines(self):
        corpus, provider, table = pinned_corpus()
        _, traces = rerank_all(corpus, provider, table, RerankConfig(depth=3), want_trace=True)
        lines = traces["q"].format_lines()
        assert len(lines) == 2
        assert lines[0].startswith("round 1\tselected f2")
        assert "f2:0.64" in lines[0]

    def test_no_trace_unless_wanted(self):
        corpus, provider, table = pinned_corpus()
        rankings, traces = rerank_all(corpus, provider, table, RerankConfig(depth=3))
        assert traces == {}
        assert rankings == {"q": PINNED_EXPECTED}


def pinned_corpus():
    """The pinned instance as a corpus: each fact's text is its own uid, the
    question's text is "qa", and a provider maps those texts to the pinned
    vectors. Relevance is the pinned weights, which normalize() rescales
    without changing the selections."""
    from explainrank.corpus import Corpus, ExplanationFact, Question

    vectors = {**PINNED_VECTORS, "qa": PINNED_QA}

    class Provider:
        def rows(self, texts):
            return dense_rows([vectors[t] for t in texts])

    facts = {uid: ExplanationFact(uid, uid, "t") for uid in PINNED_VECTORS}
    corpus = Corpus(facts=facts, questions=(Question("q", "qa", {"A": ""}, "A"),))
    uids = tuple(facts)
    table = RelevanceTable(("q",), uids, np.array([[PINNED_REL[u] for u in uids]]))
    return corpus, Provider(), table


class TestRerankAll:
    def test_orders_follow_table(self):
        corpus = random_corpus(n_questions=10, n_facts=40, seed=50)
        provider = default_provider(corpus)
        table = score_lexical(corpus, provider)
        rankings, _ = rerank_all(corpus, provider, table, RerankConfig(depth=5))
        assert list(rankings) == list(table.qids)
        assert all(sorted(uids) == sorted(corpus.facts) for uids in rankings.values())

    def test_table_order_not_corpus_order(self):
        corpus = random_corpus(n_questions=6, n_facts=30, seed=52)
        provider = default_provider(corpus)
        table = score_lexical(corpus, provider)
        backwards = RelevanceTable(table.qids[::-1], table.uids, table.scores[::-1])
        config = RerankConfig(depth=4)
        forward, _ = rerank_all(corpus, provider, table, config)
        reversed_rankings, _ = rerank_all(corpus, provider, backwards, config)
        assert list(reversed_rankings.items()) == list(forward.items())[::-1]

    def test_normalized_scores_used(self):
        # negative external scores still re-rank because of normalization
        corpus = random_corpus(n_questions=3, n_facts=10, seed=51)
        provider = default_provider(corpus)
        uids = tuple(corpus.facts)
        table = RelevanceTable(
            tuple(q.qid for q in corpus.questions),
            uids,
            np.array([[-float(i) for i in range(len(uids))] for _ in corpus.questions]),
        )
        rankings, _ = rerank_all(corpus, provider, table, RerankConfig(depth=4))
        for uids in rankings.values():
            assert sorted(uids) == sorted(corpus.facts)

    def test_base_order_from_raw_scores(self):
        # min-max normalization maps 1.0 and the next float up to the same
        # value; the base order must still rank "b" above "a"
        corpus, provider, _ = pinned_corpus()
        uids = tuple(corpus.facts)
        raw = {"f1": 1e9, "f2": 1.0, "f3": 1.0000000000000002, "f4": 0.0, "f5": -1.0}
        table = RelevanceTable(("q",), uids, np.array([[raw[u] for u in uids]]))
        rankings, _ = rerank_all(corpus, provider, table, RerankConfig(depth=1))
        assert rankings == {"q": ["f1", "f3", "f2", "f4", "f5"]}

    def test_table_columns_must_match_corpus(self):
        corpus, provider, table = pinned_corpus()
        shuffled = RelevanceTable(table.qids, table.uids[::-1], table.scores)
        with pytest.raises(DataError, match="columns"):
            rerank_all(corpus, provider, shuffled, RerankConfig(depth=2))


class TestDepthSweep:
    @pytest.mark.parametrize("depths", [[0, -3, 1], [1, 3, 0], [-1]])
    def test_rejects_depth_below_one(self, depths):
        corpus = random_corpus(n_questions=4, n_facts=20, seed=53)
        provider = default_provider(corpus)
        table = score_lexical(corpus, provider)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            depth_sweep(corpus, provider, table, depths)
