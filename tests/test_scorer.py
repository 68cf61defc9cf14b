import math
import random
from collections import Counter

import numpy as np
import pytest

from explainrank.corpus import CENTRAL, Corpus, ExplanationFact, Question
from explainrank.errors import DataError, FormatError
from explainrank.scorer import (
    NORM_FLOOR,
    OVERLAP,
    TFIDF_COSINE,
    RelevanceTable,
    all_rankings,
    load_scores,
    normalize,
    normalized_at,
    score_lexical,
    uid_ranks,
    write_scores,
)
from explainrank.textsim import STOPWORDS, default_provider, tokenize

import line_readers
from synth import random_corpus, score_table, table_scores


def toy_corpus():
    facts = {
        "f1": ExplanationFact("f1", "a frog eats insects", "t"),
        "f2": ExplanationFact("f2", "green plants use sunlight", "t"),
        "f3": ExplanationFact("f3", "a frog is an amphibian", "t"),
    }
    q = Question(
        "q1",
        "What does a frog eat?",
        {"A": "insects", "B": "rocks"},
        "A",
        (("f1", CENTRAL),),
    )
    return Corpus(facts=facts, questions=(q,))


def oracle_tfidf_scores(corpus):
    """Independent spreadsheet-style computation of the tfidf-cosine scores:
    plain Counters and math, no shared vector code."""
    q = corpus.questions[0]
    qa = f"{q.stem} {q.choices[q.answer_key]}"
    docs = [fact.text for fact in corpus.facts.values()] + [qa]

    def toks(text):
        return [t for t in tokenize(text) if t not in STOPWORDS]

    df = Counter()
    for doc in docs:
        df.update(set(toks(doc)))
    n = len(docs)

    def weights(text):
        return {
            t: count * (math.log((1 + n) / (1 + df[t])) + 1.0)
            for t, count in Counter(toks(text)).items()
        }

    def cos(a, b):
        dot = sum(w * b[t] for t, w in a.items() if t in b)
        na = math.sqrt(sum(w * w for w in a.values()))
        nb = math.sqrt(sum(w * w for w in b.values()))
        return dot / (na * nb) if na and nb else 0.0

    qa_w = weights(qa)
    return {uid: cos(qa_w, weights(fact.text)) for uid, fact in corpus.facts.items()}


class TestScoreLexical:
    def test_identical_text_scores_one(self):
        facts = {
            "f1": ExplanationFact("f1", "sunlight warms the ground", "t"),
            "f2": ExplanationFact("f2", "unrelated words entirely", "t"),
        }
        q = Question("q1", "sunlight warms the", {"A": "ground"}, "A")
        corpus = Corpus(facts=facts, questions=(q,))
        table = table_scores(score_lexical(corpus, default_provider(corpus), TFIDF_COSINE))
        assert table["q1"]["f1"] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vocabulary_zero_both_methods(self):
        facts = {"f1": ExplanationFact("f1", "zebra quagga okapi", "t")}
        q = Question("q1", "completely different words", {"A": "here"}, "A")
        corpus = Corpus(facts=facts, questions=(q,))
        provider = default_provider(corpus)
        assert score_lexical(corpus, provider, TFIDF_COSINE).scores.tolist() == [[0.0]]
        assert score_lexical(corpus, provider, OVERLAP).scores.tolist() == [[0.0]]

    def test_tfidf_matches_independent_oracle(self):
        corpus = toy_corpus()
        table = table_scores(score_lexical(corpus, default_provider(corpus), TFIDF_COSINE))
        expected = oracle_tfidf_scores(corpus)
        for uid, value in expected.items():
            assert table["q1"][uid] == pytest.approx(value, abs=1e-12)

    def test_overlap_values(self):
        corpus = toy_corpus()
        table = table_scores(score_lexical(corpus, default_provider(corpus), OVERLAP))
        # qa tokens {frog, eat, insects}; f1 {frog, eats, insects}; f3 {frog, amphibian}
        assert table["q1"]["f1"] == pytest.approx(2 / 3, abs=1e-12)
        assert table["q1"]["f2"] == 0.0
        assert table["q1"]["f3"] == pytest.approx(0.5, abs=1e-12)

    def test_table_is_dense(self):
        corpus = toy_corpus()
        table = score_lexical(corpus, default_provider(corpus))
        assert table.qids == ("q1",)
        assert table.uids == tuple(corpus.facts)
        assert table.scores.shape == (1, len(corpus.facts))

    def test_unknown_method(self):
        corpus = toy_corpus()
        with pytest.raises(ValueError):
            score_lexical(corpus, default_provider(corpus), "bm42")

    def test_unresolvable_answer_key_skipped(self, caplog):
        facts = {"f1": ExplanationFact("f1", "some fact", "t")}
        q = Question("q1", "Stem", {"A": "x"}, "Z")
        corpus = Corpus(facts=facts, questions=(q,))
        with caplog.at_level("WARNING"):
            table = score_lexical(corpus, default_provider(corpus))
        assert table.qids == ()
        assert table.scores.shape == (0, 1)


class TestLoadScores:
    def write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_full_dense_no_warnings(self, tmp_path, caplog):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, [f"q1\t{uid}\t0.{i}" for i, uid in enumerate(corpus.facts, 1)])
        with caplog.at_level("WARNING"):
            table = load_scores(path, corpus)
        assert not caplog.records
        assert table.uids == tuple(corpus.facts)
        assert table.scores.tolist() == [[0.1, 0.2, 0.3]]

    def test_missing_fact_ranks_last(self, tmp_path, caplog):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, ["q1\tf1\t0.9", "q1\tf2\t0.2"])
        with caplog.at_level("WARNING"):
            table = load_scores(path, corpus)
        assert table_scores(table)["q1"]["f3"] == pytest.approx(0.2 - 1.0)
        assert all_rankings(table)["q1"][-1] == "f3"
        assert any("filled to rank last" in rec.message for rec in caplog.records)

    def test_unparseable_score_names_line(self, tmp_path):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, ["q1\tf1\t0.5", "q1\tf2\tabc"])
        with pytest.raises(FormatError, match="line 2"):
            load_scores(path, corpus)

    def test_non_finite_score_rejected(self, tmp_path):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, ["q1\tf1\tnan"])
        with pytest.raises(FormatError, match="line 1"):
            load_scores(path, corpus)

    def test_unknown_uid_lists_offenders(self, tmp_path):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, ["q1\tf1\t0.5", "q1\tbogus\t0.5", "q1\tworse\t0.1"])
        with pytest.raises(DataError, match="bogus"):
            load_scores(path, corpus)

    def test_duplicate_pair_last_wins(self, tmp_path, caplog):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(path, ["q1\tf1\t0.1", "q1\tf1\t0.7", "q1\tf2\t0.2", "q1\tf3\t0.3"])
        with caplog.at_level("WARNING"):
            table = table_scores(load_scores(path, corpus))
        assert table["q1"]["f1"] == 0.7
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_repeats_keep_last_value_and_warn(self, tmp_path, caplog):
        corpus = random_corpus(n_questions=4, n_facts=9, seed=11)
        rng = random.Random(11)
        lines, last = [], {}
        for n in range(60):  # every pair, some of them several times, in shuffled order
            q, uid = rng.choice(corpus.questions).qid, rng.choice(list(corpus.facts))
            lines.append(f"{q}\t{uid}\t{n}")
            last[q, uid] = float(n)
        self.write(tmp_path / "s.tsv", lines)
        with caplog.at_level("WARNING"):
            table = load_scores(tmp_path / "s.tsv", corpus)
        got = table_scores(table)
        assert {pair: got[pair[0]][pair[1]] for pair in last} == last
        assert f"{len(lines) - len(last)} duplicate (qid, fact) pair(s), last value kept" in caplog.text

    def test_without_repeats_matrix_equals_reference(self, tmp_path, caplog):
        corpus = random_corpus(n_questions=5, n_facts=12, seed=12)
        rng = random.Random(12)
        pairs = [(q.qid, uid) for q in corpus.questions[1:] for uid in corpus.facts]
        rng.shuffle(pairs)
        # out of order, one question missing, a few facts missing
        lines = [f"{q}\t{uid}\t{rng.uniform(-3, 3)!r}" for q, uid in pairs[:-4]]
        self.write(tmp_path / "s.tsv", lines)
        with caplog.at_level("WARNING"):
            table = load_scores(tmp_path / "s.tsv", corpus)
        assert "duplicate" not in caplog.text
        reference = line_readers.load_scores(tmp_path / "s.tsv", corpus)
        assert table.qids == reference.qids == tuple(q.qid for q in corpus.questions[1:])
        assert (table.scores.dtype, table.scores.shape) == (reference.scores.dtype, reference.scores.shape)
        assert table.scores.tobytes() == reference.scores.tobytes()

    def test_unknown_qid_dropped_with_warning(self, tmp_path, caplog):
        corpus = toy_corpus()
        path = tmp_path / "s.tsv"
        self.write(
            path,
            [f"q1\t{uid}\t0.5" for uid in corpus.facts] + ["ghost\tf1\t0.5"],
        )
        with caplog.at_level("WARNING"):
            table = load_scores(path, corpus)
        assert table.qids == ("q1",)

    def test_round_trip_exact(self, tmp_path):
        corpus = toy_corpus()
        table = score_lexical(corpus, default_provider(corpus))
        path = tmp_path / "s.tsv"
        write_scores(table, path)
        loaded = load_scores(path, corpus)
        assert (loaded.qids, loaded.uids) == (table.qids, table.uids)
        assert loaded.scores.tolist() == table.scores.tolist()


class TestInitialRanking:
    def test_descending_order(self):
        ranked = all_rankings(score_table({"q1": {"f1": 0.2, "f2": 0.9, "f3": 0.5}}))
        assert ranked == {"q1": ["f2", "f3", "f1"]}

    def test_ties_break_by_uid(self):
        ranked = all_rankings(score_table({"q1": {"b": 1.0, "c": 1.0, "a": 1.0}}))
        assert ranked == {"q1": ["a", "b", "c"]}

    def test_permutation_property(self):
        rng = random.Random(21)
        for _ in range(50):
            scores = {f"f{i}": rng.choice([0.0, 0.5, rng.random()]) for i in range(30)}
            (ranking,) = all_rankings(score_table({"q": scores})).values()
            assert sorted(ranking) == sorted(scores)

    def test_all_rankings_follows_table_order(self):
        table = score_table({"q2": {"f1": 1.0}, "q1": {"f1": 1.0}})
        assert list(all_rankings(table)) == ["q2", "q1"]

    def test_order_equals_two_key_lexsort(self):
        # many exact ties, 0.0 beside -0.0, NaNs (which sort last, one run in
        # uid order), infinities, all-equal rows, and uids whose sorted order
        # is not column order
        rng = np.random.default_rng(25)
        uids = tuple(f"u{k:03d}" for k in rng.permutation(300))
        rows = [rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=300) for _ in range(6)]
        rows += [rng.normal(size=300), np.zeros(300), np.where(rng.random(300) < 0.5, 0.0, -0.0)]
        rows += [rng.choice([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0], size=300) for _ in range(3)]
        rows += [np.where(rng.random(300) < 0.2, np.nan, rng.normal(size=300)), np.full(300, np.nan)]
        rows += [np.full(300, 0.5), np.full(300, -np.inf), np.full(300, -0.0)]
        table = RelevanceTable(tuple(f"q{i}" for i in range(len(rows))), uids, np.array(rows))
        ranks = uid_ranks(uids)
        for i, row in enumerate(table.scores):
            assert table.order(i).tolist() == np.lexsort((ranks, -row)).tolist()


class TestNormalize:
    def test_min_max_values(self):
        table = table_scores(normalize(score_table({"q1": {"a": 0.0, "b": 5.0, "c": 10.0}})))
        assert table["q1"]["a"] == pytest.approx(NORM_FLOOR, abs=1e-15)
        assert table["q1"]["b"] == pytest.approx(0.5000005, abs=1e-12)
        assert table["q1"]["c"] == pytest.approx(1.0, abs=1e-15)

    def test_constant_scores_map_to_one(self):
        table = table_scores(normalize(score_table({"q1": {"a": 3.0, "b": 3.0, "c": 3.0}})))
        assert table["q1"] == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_all_values_in_range_and_positive(self):
        rng = random.Random(22)
        for _ in range(100):
            scores = {f"f{i}": rng.uniform(-50, 50) for i in range(20)}
            for value in normalize(score_table({"q": scores})).scores[0].tolist():
                assert NORM_FLOOR <= value <= 1.0
                assert value > 0.0

    def test_matches_scalar_formula_exactly(self):
        rng = random.Random(24)
        scores = {f"q{n}": {f"f{i}": rng.uniform(-50, 50) for i in range(20)} for n in range(5)}
        scores["flat"] = {f"f{i}": 2.5 for i in range(20)}
        got = table_scores(normalize(score_table(scores)))
        for qid, row in scores.items():
            lo, hi = min(row.values()), max(row.values())
            for uid, value in row.items():
                want = 1.0 if hi == lo else NORM_FLOOR + (value - lo) / (hi - lo) * (1.0 - NORM_FLOOR)
                assert got[qid][uid] == want

    def test_normalized_at_equals_normalize_cells(self):
        rng = np.random.default_rng(26)
        scores = rng.uniform(-50, 50, size=(6, 40))
        scores[2] = 2.5  # flat row
        table = RelevanceTable(tuple(f"q{i}" for i in range(6)), tuple(f"f{j}" for j in range(40)), scores)
        rows = np.array([4, 2, 0])
        columns = rng.integers(0, 40, size=(3, 7))
        got = normalized_at(table, rows, columns)
        assert got.tobytes() == normalize(table).scores[rows[:, None], columns].tobytes()

    def test_order_preserved(self):
        rng = random.Random(23)
        for _ in range(100):
            scores = {f"f{i}": rng.choice([-2.0, 0.0, rng.uniform(-5, 5)]) for i in range(15)}
            before = all_rankings(score_table({"q": scores}))["q"]
            after = all_rankings(normalize(score_table({"q": scores})))["q"]
            assert before == after
